//! The flow decoder's straight-line stepping against its references.
//!
//! * The image's predecoded code table must answer exactly what decoding
//!   the image bytes at one address does, for every byte address of every
//!   module (aligned or not, code, PLT, GOT, data, past the executable
//!   portion) and for unmapped addresses.
//! * [`FlowMachine`], which steps a whole run of non-branching
//!   instructions per iteration, must be indistinguishable from
//!   [`StepwiseMachine`] below — the instruction-at-a-time walker it
//!   replaced, kept here as the oracle — on real server traces and a
//!   long-run synthetic program, on damaged
//!   ones, and on traces whose TIPs were retargeted into the middle or end
//!   of a run, into data, or to misaligned addresses: same branch events,
//!   walk counts, start/end IPs, park points, seam-prefix metadata, state
//!   hashes and errors, after every chunk of a packet-aligned split.

use fg_cpu::{IptUnit, Machine, TraceUnit};
use fg_ipt::flow::{BranchEvent, FlowError, FlowMachine, FlowTrace};
use fg_ipt::topa::Topa;
use fg_ipt::{Packet, PacketEncoder, PacketParser, TntSeq};
use fg_isa::asm::Asm;
use fg_isa::image::{Image, Linker, VA_LIMIT};
use fg_isa::insn::regs::*;
use fg_isa::insn::{CofiKind, Cond, Insn, INSN_SIZE};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The per-address decode the code table replaced: find the module, check
/// the executable portion and alignment, decode the 8 bytes.
fn decode_bytewise(image: &Image, va: u64) -> Option<Insn> {
    let m = image.module_containing(va)?;
    if !m.contains_code(va) || !(va - m.base).is_multiple_of(INSN_SIZE) {
        return None;
    }
    let bytes: [u8; 8] = image.read_bytes(va, 8)?.try_into().ok()?;
    Insn::decode(bytes, va).ok()
}

/// The servers (the vulnerable `nginx` is the `fg-attacks` target), the
/// patched nginx, and a program of long straight-line runs.
fn images() -> Vec<(String, Image)> {
    let mut ws = fg_workloads::servers();
    ws.push(fg_workloads::nginx_patched());
    ws.push(long_runs());
    ws.into_iter().map(|w| (w.name, w.image)).collect()
}

#[test]
fn code_table_matches_bytewise_decode() {
    for (name, image) in images() {
        let mut probes: Vec<u64> = vec![0, 8, 0xdead_0000, VA_LIMIT, VA_LIMIT + 8, u64::MAX - 7];
        for m in image.modules() {
            // Every byte address of the module and a little either side.
            probes.extend(m.base.saturating_sub(24)..m.end() + 24);
        }
        let mut code = 0;
        for va in probes {
            let want = decode_bytewise(&image, va);
            assert_eq!(image.insn_at(va), want, "{name}: insn_at({va:#x})");
            code += usize::from(want.is_some());
            // The straight line: count the oracle's non-terminators, then
            // the oracle's instruction after them.
            let line = image.straight_line_at(va);
            let Some(_) = want else {
                assert_eq!(line, None, "{name}: straight_line_at({va:#x})");
                continue;
            };
            let mut run = 0u32;
            let mut at = va;
            while let Some(i) = decode_bytewise(&image, at) {
                if i.is_terminator() {
                    break;
                }
                run += 1;
                at += INSN_SIZE;
            }
            let line = line.unwrap_or_else(|| panic!("{name}: no straight line at {va:#x}"));
            assert_eq!(line.run, run, "{name}: run at {va:#x}");
            assert_eq!(line.stop, decode_bytewise(&image, at), "{name}: stop at {va:#x}");
        }
        assert!(code as u64 >= image.total_insns() / 2, "{name}: probes covered the code");
    }
}

/// Mirror depth of the hardware RET-compression return stack.
const RETC_STACK_DEPTH: usize = 64;

enum Need {
    Tnt,
    Tip,
    RetTarget,
    Resume,
}

enum Outcome {
    Tnt(bool),
    Tip(u64),
    Resume(u64),
}

/// The instruction-at-a-time flow walker: decodes the image bytes at every
/// instruction it steps, evicts its RET-compression stack from the front.
/// Packet handling, parking and the seam metadata are the production
/// machine's.
#[derive(Default)]
struct StepwiseMachine {
    trace: FlowTrace,
    ip: u64,
    synced: bool,
    halted: bool,
    parked: bool,
    last_ip: u64,
    pending_bits: u64,
    pending_len: u8,
    in_psb_plus: bool,
    seek_psb: bool,
    seek_fup: Option<u64>,
    seek_skipped_damage: bool,
    seek_skipped_ovf: bool,
    saw_fup: bool,
    saw_pgd: bool,
    retc: bool,
    call_stack: Vec<u64>,
    consumed_outcome: bool,
    first_outcome_from: Option<u64>,
    prefix_insns: u64,
    prefix_branches: usize,
}

impl StepwiseMachine {
    fn new(retc: bool) -> StepwiseMachine {
        StepwiseMachine { retc, ..StepwiseMachine::default() }
    }

    fn park_ip(&self) -> Option<u64> {
        (self.synced && !self.halted && self.parked).then_some(self.ip)
    }

    fn state_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        mix(self.ip);
        mix(self.last_ip);
        mix(self.pending_bits);
        mix(u64::from(self.pending_len));
        mix(u64::from(self.synced)
            | u64::from(self.halted) << 1
            | u64::from(self.parked) << 2
            | u64::from(self.saw_fup) << 3
            | u64::from(self.saw_pgd) << 4
            | u64::from(self.in_psb_plus) << 5);
        h
    }

    fn pop_tnt(&mut self) -> Option<bool> {
        if self.pending_len == 0 {
            return None;
        }
        let b = self.pending_bits & 1 != 0;
        self.pending_bits >>= 1;
        self.pending_len -= 1;
        Some(b)
    }

    fn fill_tnt(&mut self, seq: &TntSeq) {
        self.pending_bits = 0;
        self.pending_len = 0;
        for b in seq.iter() {
            self.pending_bits |= u64::from(b) << self.pending_len;
            self.pending_len += 1;
        }
    }

    fn feed(&mut self, image: &Image, chunk: &[u8]) -> Result<(), FlowError> {
        let mut parser = PacketParser::resume(chunk, 0, self.last_ip);
        let r = self.feed_inner(image, &mut parser);
        self.last_ip = parser.last_ip();
        r
    }

    fn feed_inner(&mut self, image: &Image, parser: &mut PacketParser) -> Result<(), FlowError> {
        while !self.halted {
            if !self.synced {
                if !self.seek_sync(parser) {
                    return Ok(());
                }
                continue;
            }
            let Some(insn) = decode_bytewise(image, self.ip) else {
                return Err(FlowError::BadIp { ip: self.ip });
            };
            if !self.parked {
                self.trace.insns_walked += 1;
            }
            self.parked = false;
            let next = self.ip + INSN_SIZE;
            let kind = insn.cofi_kind();
            let to = match insn {
                Insn::Halt => {
                    self.halted = true;
                    return Ok(());
                }
                Insn::Jmp { target } | Insn::Call { target } => {
                    if self.retc && matches!(insn, Insn::Call { .. }) {
                        self.push_retc(next);
                    }
                    self.emit(kind, target, None);
                    target
                }
                Insn::Jcc { target, .. } => match self.next_outcome(parser, Need::Tnt)? {
                    Some(Outcome::Tnt(taken)) => {
                        let to = if taken { target } else { next };
                        self.note_outcome();
                        self.emit(kind, to, Some(taken));
                        to
                    }
                    _ => return self.park(),
                },
                Insn::JmpInd { .. } | Insn::CallInd { .. } => {
                    match self.next_outcome(parser, Need::Tip)? {
                        Some(Outcome::Tip(to)) => {
                            if self.retc && matches!(insn, Insn::CallInd { .. }) {
                                self.push_retc(next);
                            }
                            self.note_outcome();
                            self.emit(kind, to, None);
                            to
                        }
                        _ => return self.park(),
                    }
                }
                Insn::Ret => {
                    let need = if self.retc { Need::RetTarget } else { Need::Tip };
                    match self.next_outcome(parser, need)? {
                        Some(Outcome::Tip(to)) => {
                            if self.retc {
                                self.call_stack.pop();
                            }
                            self.note_outcome();
                            self.emit(kind, to, None);
                            to
                        }
                        Some(Outcome::Tnt(taken)) => {
                            if !taken {
                                return Err(FlowError::TraceMismatch {
                                    ip: self.ip,
                                    detail: "not-taken TNT bit at a compressed return",
                                });
                            }
                            let Some(to) = self.call_stack.pop() else {
                                return Err(FlowError::TraceMismatch {
                                    ip: self.ip,
                                    detail: "compressed return with an empty call stack",
                                });
                            };
                            self.note_outcome();
                            self.emit(kind, to, None);
                            to
                        }
                        _ => return self.park(),
                    }
                }
                Insn::Syscall => match self.next_outcome(parser, Need::Resume)? {
                    Some(Outcome::Resume(to)) => {
                        self.note_outcome();
                        self.emit(kind, to, None);
                        to
                    }
                    _ => return self.park(),
                },
                _ => next,
            };
            self.ip = to;
            self.trace.end_ip = self.ip;
        }
        Ok(())
    }

    fn park(&mut self) -> Result<(), FlowError> {
        self.parked = true;
        self.trace.end_ip = self.ip;
        Ok(())
    }

    fn push_retc(&mut self, ret_to: u64) {
        if self.call_stack.len() == RETC_STACK_DEPTH {
            self.call_stack.remove(0);
        }
        self.call_stack.push(ret_to);
    }

    fn emit(&mut self, kind: CofiKind, to: u64, taken: Option<bool>) {
        self.trace.branches.push(BranchEvent { from: self.ip, to, kind, taken });
    }

    fn note_outcome(&mut self) {
        if !self.consumed_outcome {
            self.consumed_outcome = true;
            self.first_outcome_from = Some(self.ip);
            self.prefix_insns = self.trace.insns_walked;
            self.prefix_branches = self.trace.branches.len();
        }
    }

    fn seek_sync(&mut self, parser: &mut PacketParser) -> bool {
        loop {
            match parser.next_packet() {
                None => return false,
                Some(Err(_)) => {
                    self.seek_skipped_damage = true;
                    self.seek_psb = false;
                    self.seek_fup = None;
                    if parser.sync_forward().is_none() {
                        return false;
                    }
                }
                Some(Ok(p)) => match p.packet {
                    Packet::Psb => {
                        self.seek_psb = true;
                        self.seek_fup = None;
                    }
                    Packet::Fup { ip } if self.seek_psb => self.seek_fup = Some(ip),
                    Packet::Psbend if self.seek_psb => {
                        self.seek_psb = false;
                        if let Some(ip) = self.seek_fup.take() {
                            self.synced = true;
                            self.ip = ip;
                            self.trace.start_ip = ip;
                            self.trace.end_ip = ip;
                            return true;
                        }
                    }
                    Packet::Ovf => self.seek_skipped_ovf = true,
                    _ => {}
                },
            }
        }
    }

    fn next_outcome(
        &mut self,
        parser: &mut PacketParser,
        need: Need,
    ) -> Result<Option<Outcome>, FlowError> {
        let mismatch = |ip, detail| Err(FlowError::TraceMismatch { ip, detail });
        match need {
            Need::Tnt | Need::RetTarget => {
                if let Some(b) = self.pop_tnt() {
                    return Ok(Some(Outcome::Tnt(b)));
                }
            }
            _ if self.pending_len != 0 => {
                return mismatch(self.ip, "buffered TNT bits at an indirect branch");
            }
            _ => {}
        }
        while let Some(item) = parser.next_packet() {
            let p = item?;
            match p.packet {
                Packet::Pad | Packet::Cbr { .. } | Packet::ModeExec | Packet::Pip { .. } => {}
                Packet::Psb => self.in_psb_plus = true,
                Packet::Psbend => self.in_psb_plus = false,
                Packet::Ovf => return Err(FlowError::Overflow),
                Packet::Tnt(seq) => {
                    if !matches!(need, Need::Tnt | Need::RetTarget) {
                        return mismatch(self.ip, "TNT packet where a TIP/FUP was required");
                    }
                    self.fill_tnt(&seq);
                    if let Some(b) = self.pop_tnt() {
                        return Ok(Some(Outcome::Tnt(b)));
                    }
                }
                Packet::Tip { ip: target } => match need {
                    Need::Tip | Need::RetTarget => return Ok(Some(Outcome::Tip(target))),
                    Need::Tnt => {
                        return mismatch(self.ip, "TIP packet where a TNT bit was required")
                    }
                    Need::Resume => return mismatch(self.ip, "TIP packet inside a syscall group"),
                },
                Packet::Fup { .. } => {
                    if self.in_psb_plus {
                        continue;
                    }
                    match need {
                        Need::Resume => self.saw_fup = true,
                        _ => return mismatch(self.ip, "unexpected FUP outside a syscall group"),
                    }
                }
                Packet::TipPgd { .. } => match need {
                    Need::Resume if self.saw_fup => self.saw_pgd = true,
                    _ => return mismatch(self.ip, "unexpected TIP.PGD"),
                },
                Packet::TipPge { ip: resume } => match need {
                    Need::Resume if self.saw_pgd => {
                        self.saw_fup = false;
                        self.saw_pgd = false;
                        return Ok(Some(Outcome::Resume(resume)));
                    }
                    _ => return mismatch(self.ip, "unexpected TIP.PGE"),
                },
            }
        }
        Ok(None)
    }
}

/// Feeds both walkers the same chunks, comparing everything observable
/// after each one; stops after the first error (which must agree too).
fn assert_walks_agree(image: &Image, chunks: &[&[u8]], retc: bool) -> Result<(), String> {
    let mut fast = FlowMachine::new(retc);
    let mut slow = StepwiseMachine::new(retc);
    for (i, chunk) in chunks.iter().enumerate() {
        let got = fast.feed(image, chunk);
        let want = slow.feed(image, chunk);
        let observed = |m: &FlowMachine| {
            (
                m.park_ip(),
                m.state_hash(),
                m.synced(),
                m.halted(),
                m.first_outcome_from(),
                m.prefix_insns(),
                m.prefix_branches(),
                m.mid_syscall_group(),
                m.pending_tnt_empty(),
                m.seek_skipped_damage(),
            )
        };
        let oracle = (
            slow.park_ip(),
            slow.state_hash(),
            slow.synced,
            slow.halted,
            slow.first_outcome_from,
            slow.prefix_insns,
            slow.prefix_branches,
            slow.saw_fup || slow.saw_pgd,
            slow.pending_len == 0,
            slow.seek_skipped_damage || slow.seek_skipped_ovf,
        );
        prop_assert_eq!(&got, &want, "result after chunk {}: {:?} vs {:?}", i, got, want);
        prop_assert!(fast.trace() == &slow.trace, "flow differs after chunk {}", i);
        prop_assert_eq!(
            observed(&fast),
            oracle,
            "machine state after chunk {}: {:?} vs {:?}",
            i,
            observed(&fast),
            oracle
        );
        if got.is_err() {
            break;
        }
    }
    Ok(())
}

/// One program's benign trace plus the retarget candidates of its image.
struct Subject {
    image: Image,
    trace: Vec<u8>,
    psbs: Vec<usize>,
    /// Inside a straight-line run, past its first instruction.
    mid_run: Vec<u64>,
    /// The last instruction of a run, or the terminator right after it.
    run_end: Vec<u64>,
    /// GOT and data addresses.
    data: Vec<u64>,
    /// Code addresses off the instruction grid.
    misaligned: Vec<u64>,
}

fn subject(w: fg_workloads::Workload) -> Subject {
    let image = w.image;
    let mut m = Machine::new(&image, 0x4000);
    let mut unit = IptUnit::flowguard(0x4000, Topa::two_regions(1 << 22).expect("topa"));
    unit.start(image.entry(), 0x4000);
    m.trace = TraceUnit::Ipt(unit);
    let mut k = fg_kernel::Kernel::with_input(&w.default_input);
    m.run(&mut k, 20_000_000);
    m.trace.as_ipt_mut().expect("ipt").flush();
    let trace = m.trace.as_ipt().expect("ipt").trace_bytes();
    let psbs = PacketParser::psb_offsets(&trace);
    assert!(psbs.len() >= 4, "{}: trace holds several sync points", w.name);

    let (mut mid_run, mut run_end, mut data, mut misaligned) = (vec![], vec![], vec![], vec![]);
    for m in image.modules() {
        let mut va = m.base;
        while va < m.exec_end {
            let here = decode_bytewise(&image, va);
            let next = decode_bytewise(&image, va + INSN_SIZE);
            let prev = va.checked_sub(INSN_SIZE).and_then(|p| decode_bytewise(&image, p));
            let straight = |i: Option<Insn>| i.is_some_and(|i| !i.is_terminator());
            if straight(here) && straight(prev) {
                mid_run.push(va);
            }
            if (straight(here) && !straight(next)) || (!straight(here) && straight(prev)) {
                run_end.push(va);
            }
            misaligned.push(va + 1 + (va / INSN_SIZE) % (INSN_SIZE - 1));
            va += INSN_SIZE;
        }
        data.extend((m.exec_end..m.end()).step_by(4));
    }
    for (name, set) in [("mid-run", &mid_run), ("run-end", &run_end), ("misaligned", &misaligned)] {
        assert!(!set.is_empty(), "{}: no {name} targets", w.name);
    }
    Subject { image, trace, psbs, mid_run, run_end, data, misaligned }
}

/// A program of long straight-line runs (the servers' basic blocks are
/// short), one of them running into the end of its module's code: a
/// counted loop over a 30-instruction body that calls through
/// the PLT into a 90-instruction library function and indirectly into
/// local functions of 1 to 70 instructions.
fn long_runs() -> fg_workloads::Workload {
    let mut lib = Asm::new("liblong");
    lib.export("long_fn");
    lib.label("long_fn");
    for i in 0..90 {
        lib.movi(R4, i);
    }
    lib.ret();
    // Unreached code whose run ends at the end of the executable portion.
    lib.label("tail");
    lib.movi(R5, 1);
    lib.movi(R5, 2);
    let mut a = Asm::new("longruns");
    a.import("long_fn").needs("liblong");
    a.export("main");
    a.label("main");
    a.movi(R9, 3000);
    a.label("loop");
    for i in 0..30 {
        a.movi(R1, i);
    }
    a.call("long_fn");
    a.mov(R2, R9);
    a.andi(R2, 3);
    a.shli(R2, 3);
    a.lea(R6, "table");
    a.add(R6, R2);
    a.ld(R7, R6, 0);
    a.calli(R7);
    a.addi(R9, -1);
    a.cmpi(R9, 0);
    a.jcc(Cond::Gt, "loop");
    a.halt();
    let names = ["f1", "f7", "f33", "f70"];
    for (name, len) in names.iter().zip([1, 7, 33, 70]) {
        a.label(*name);
        for i in 0..len {
            a.movi(R3, i);
        }
        a.ret();
    }
    a.data_ptrs("table", &names);
    let image = Linker::new(a.finish().expect("assembles"))
        .library(lib.finish().expect("assembles"))
        .link()
        .expect("links");
    fg_workloads::Workload {
        name: "longruns".into(),
        image,
        default_input: Vec::new(),
        category: fg_workloads::Category::Utility,
    }
}

fn subjects() -> &'static [Subject] {
    static SUBJECTS: OnceLock<Vec<Subject>> = OnceLock::new();
    SUBJECTS.get_or_init(|| {
        let mut ws = fg_workloads::servers();
        ws.push(fg_workloads::nginx_patched());
        ws.push(long_runs());
        ws.into_iter().map(subject).collect()
    })
}

/// Packet-aligned cut points of `buf` (every `stride`-th packet boundary).
fn packet_cuts(buf: &[u8], stride: usize) -> Vec<usize> {
    let mut cuts = vec![0];
    let mut p = PacketParser::new(buf);
    let mut n = 0usize;
    while let Some(Ok(_)) = p.next_packet() {
        n += 1;
        if n.is_multiple_of(stride) {
            cuts.push(p.position());
        }
    }
    cuts.push(buf.len());
    cuts.dedup();
    cuts
}

fn chunks_at<'a>(buf: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    cuts.windows(2).map(|w| &buf[w[0]..w[1]]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Trace windows (the engine's escalation windows are PSB-synced
    /// tails of a few KiB to ~16 KiB), fed whole, one packet per chunk, or
    /// `stride` packets per chunk; left intact (`alter` 0), damaged by one
    /// XOR-ed byte (1), or with one TIP retargeted into a mid-run, run-end,
    /// data or misaligned address (2, by `class`).
    #[test]
    fn straight_line_walk_equals_stepwise_walk(
        program in any::<usize>(),
        start in any::<usize>(),
        len in 2048usize..24_576,
        split in 0u8..3,
        stride in 2usize..64,
        alter in 0u8..3,
        at in any::<usize>(),
        xor in 1u8..=255,
        class in 0usize..4,
        retc in any::<bool>(),
    ) {
        let subjects = subjects();
        let s = &subjects[program % subjects.len()];
        let from = s.psbs[start % (s.psbs.len() - 1)];
        let mut window = s.trace[from..(from + len).min(s.trace.len())].to_vec();
        if alter == 1 && window.len() > 1 {
            let off = 1 + at % (window.len() - 1);
            window[off] ^= xor;
        } else if alter == 2 {
            let tips: Vec<(usize, usize)> = PacketParser::new(&window)
                .map_while(Result::ok)
                .filter(|p| matches!(p.packet, Packet::Tip { .. }))
                .map(|p| (p.offset, p.len))
                .collect();
            let targets = [&s.mid_run, &s.run_end, &s.data, &s.misaligned][class];
            if !tips.is_empty() && !targets.is_empty() {
                let (off, plen) = tips[at % tips.len()];
                let to = targets[(at / tips.len()) % targets.len()];
                let mut enc = PacketEncoder::new(Vec::new());
                enc.tip(to);
                window.splice(off..off + plen, enc.into_sink());
                // The spliced TIP decodes to exactly the new target.
                let p = PacketParser::at(&window, off).next_packet();
                prop_assert!(
                    matches!(p, Some(Ok(p)) if p.packet == Packet::Tip { ip: to }),
                    "retargeted TIP at {} must decode to {:#x}", off, to
                );
            }
        }
        let cuts = match split {
            0 => vec![0, window.len()],
            1 => packet_cuts(&window, 1),
            _ => packet_cuts(&window, stride),
        };
        assert_walks_agree(&s.image, &chunks_at(&window, &cuts), retc)?;
    }
}

/// Whole traces, fed in one piece: the full-length walk of every subject.
#[test]
fn whole_server_traces_walk_identically() {
    for s in subjects() {
        assert_walks_agree(&s.image, &[&s.trace], false).unwrap();
    }
}
