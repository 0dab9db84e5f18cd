//! The instruction-flow layer of abstraction — the full (slow) decoder.
//!
//! "The decoder must associate the traced packets with the binaries, to
//! precisely reconstruct the program flow … parses the program binary
//! instruction by instruction, and combines the traced packets for the
//! entire decoding" (§2). This is the reproduction of Intel's reference
//! decoder library usage in FlowGuard's slow path, and the source of the
//! paper's 230× decode-overhead measurement: the cost is dominated by
//! [`FlowTrace::insns_walked`], the number of instructions the decoder had
//! to step through.
//!
//! The decoder core is [`FlowMachine`], an explicitly resumable walker:
//! all packet-cursor and walk state lives in the machine rather than on
//! the stack, so a decode can stop at a chunk boundary and continue when
//! more trace bytes arrive (the slow-path checkpoint), and a machine
//! parked mid-walk can be compared against an independently decoded
//! PSB-delimited shard (the sharded decoder in [`crate::shard`]).
//! [`FlowDecoder::decode`] is the one-shot wrapper.
//!
//! The walk steps a whole straight-line run per iteration: the image's
//! predecoded code table ([`Image::straight_line_at`]) gives, for every
//! instruction, how many non-terminators follow it and which CoFI, `halt`
//! or undecodable slot ends them, so each CoFI costs one table lookup and
//! one packet decision. `insns_walked`, the branch events, park points and
//! errors are exactly those of an instruction-at-a-time walk.

use crate::decode::{PacketError, PacketParser};
use crate::packet::{Packet, TntSeq};
use fg_isa::image::Image;
use fg_isa::insn::{CofiKind, Insn, INSN_SIZE};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A reconstructed control-flow transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchEvent {
    /// Address of the branch instruction.
    pub from: u64,
    /// Address control transferred to.
    pub to: u64,
    /// CoFI class of the branch.
    pub kind: CofiKind,
    /// For conditional branches: whether it was taken.
    pub taken: Option<bool>,
}

/// The fully reconstructed execution flow.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowTrace {
    /// Every control transfer, in execution order (direct branches included —
    /// this is precisely the information the compressed trace omits and the
    /// decoder recovers from the binary).
    pub branches: Vec<BranchEvent>,
    /// Instructions stepped through during reconstruction (the decode-cost
    /// driver).
    pub insns_walked: u64,
    /// IP the reconstruction started from (PSB+ sync).
    pub start_ip: u64,
    /// IP the reconstruction ended at.
    pub end_ip: u64,
}

/// Errors during flow reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// Underlying packet-level error.
    Packet(PacketError),
    /// No PSB+/FUP sync point found in the buffer.
    NoSync,
    /// The walk reached an address that is not decodable code.
    BadIp { ip: u64 },
    /// The packet stream disagrees with the binary walk (e.g. a TIP arrived
    /// where the binary requires a TNT bit).
    TraceMismatch { ip: u64, detail: &'static str },
    /// The hardware dropped packets; the reconstruction cannot continue.
    Overflow,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Packet(e) => write!(f, "packet error: {e}"),
            FlowError::NoSync => write!(f, "no PSB sync point in trace"),
            FlowError::BadIp { ip } => write!(f, "flow reached non-code address {ip:#x}"),
            FlowError::TraceMismatch { ip, detail } => {
                write!(f, "trace/binary mismatch at {ip:#x}: {detail}")
            }
            FlowError::Overflow => write!(f, "packet overflow in trace"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Packet(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PacketError> for FlowError {
    fn from(e: PacketError) -> FlowError {
        FlowError::Packet(e)
    }
}

/// What the walker needs next from the packet stream.
enum Need {
    Tnt,
    Tip,
    /// A return target: with RET compression enabled this may be either a
    /// taken-TNT bit (compressed, target from the decoder's call stack) or a
    /// TIP.
    RetTarget,
    /// Syscall group: FUP, TIP.PGD, then TIP.PGE with the resume IP.
    Resume,
}

enum Outcome {
    Tnt(bool),
    Tip(u64),
    Resume(u64),
}

/// Packed cursor over the buffered bits of (at most) one TNT packet,
/// oldest bit first. A long TNT carries up to 47 bits, so one `u64`
/// always suffices — this replaces the former `VecDeque<bool>`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TntCursor {
    bits: u64,
    len: u8,
}

impl TntCursor {
    fn fill(&mut self, seq: &TntSeq) {
        debug_assert_eq!(self.len, 0, "TNT bits never straddle packets");
        let mut bits = 0u64;
        let mut len = 0u8;
        for b in seq.iter() {
            bits |= (b as u64) << len;
            len += 1;
        }
        self.bits = bits;
        self.len = len;
    }

    fn pop(&mut self) -> Option<bool> {
        if self.len == 0 {
            return None;
        }
        let b = self.bits & 1 != 0;
        self.bits >>= 1;
        self.len -= 1;
        Some(b)
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn clear(&mut self) {
        self.bits = 0;
        self.len = 0;
    }
}

/// Mirror depth of the hardware RET-compression return stack.
const RETC_STACK_DEPTH: usize = 64;

/// The mirrored RET-compression return stack: a fixed ring of
/// [`RETC_STACK_DEPTH`] entries. A call onto a full stack overwrites the
/// oldest entry, as the hardware's stack does.
#[derive(Debug, Clone, Copy)]
struct RetcStack {
    slots: [u64; RETC_STACK_DEPTH],
    /// Index the next push writes to.
    top: usize,
    len: usize,
}

impl Default for RetcStack {
    fn default() -> RetcStack {
        RetcStack { slots: [0; RETC_STACK_DEPTH], top: 0, len: 0 }
    }
}

impl RetcStack {
    fn push(&mut self, ret_to: u64) {
        self.slots[self.top] = ret_to;
        self.top = (self.top + 1) % RETC_STACK_DEPTH;
        self.len = (self.len + 1).min(RETC_STACK_DEPTH);
    }

    fn pop(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        self.top = (self.top + RETC_STACK_DEPTH - 1) % RETC_STACK_DEPTH;
        Some(self.slots[self.top])
    }

    fn clear(&mut self) {
        self.top = 0;
        self.len = 0;
    }
}

/// A resumable instruction-flow decoder.
///
/// The machine holds the complete decode state — walker position, buffered
/// TNT bits, IP-compression register, PSB+/syscall-group progress — so
/// [`FlowMachine::feed`] can be called repeatedly with consecutive chunks
/// of the same packet stream (chunk seams must fall on packet boundaries,
/// which ToPA appends guarantee). When the stream runs dry mid-walk the
/// machine *parks* at the pending CoFI and the next `feed` resumes there
/// without recounting it.
#[derive(Debug, Clone)]
pub struct FlowMachine {
    trace: FlowTrace,
    // --- walker ---
    ip: u64,
    synced: bool,
    halted: bool,
    /// Parked at `ip` on a CoFI whose outcome packet has not arrived yet.
    parked: bool,
    // --- packet cursor ---
    last_ip: u64,
    pending: TntCursor,
    in_psb_plus: bool,
    /// Sync-seek progress: saw a PSB, waiting for its FUP/PSBEND.
    seek_psb: bool,
    seek_fup: Option<u64>,
    /// Damaged packets were skipped while seeking sync. A parked serial
    /// decoder hitting the same bytes would have raised a packet error, so
    /// the sharded stitcher must treat the shard as a damage restart.
    seek_skipped_damage: bool,
    /// An OVF packet was skipped while seeking sync (same caveat).
    seek_skipped_ovf: bool,
    /// Syscall-group progress (FUP → PGD → PGE), persisted across feeds.
    saw_fup: bool,
    saw_pgd: bool,
    // --- RET compression ---
    retc: bool,
    call_stack: RetcStack,
    // --- shard metadata ---
    /// Whether any packet outcome (TNT bit, TIP, resume) was consumed.
    consumed_outcome: bool,
    /// IP of the CoFI that consumed the first outcome.
    first_outcome_from: Option<u64>,
    /// `insns_walked` at the moment of the first outcome (inclusive of the
    /// consuming CoFI) — the walk prefix a preceding shard also covers.
    prefix_insns: u64,
    /// `branches.len()` before the first outcome's event was pushed.
    prefix_branches: usize,
}

impl Default for FlowMachine {
    fn default() -> FlowMachine {
        FlowMachine::new(false)
    }
}

impl FlowMachine {
    /// Creates a machine; `ret_compression` mirrors the hardware's 64-deep
    /// call stack for compressed returns (FlowGuard runs with `DisRETC=1`,
    /// i.e. `false`).
    pub fn new(ret_compression: bool) -> FlowMachine {
        FlowMachine {
            trace: FlowTrace::default(),
            ip: 0,
            synced: false,
            halted: false,
            parked: false,
            last_ip: 0,
            pending: TntCursor::default(),
            in_psb_plus: false,
            seek_psb: false,
            seek_fup: None,
            seek_skipped_damage: false,
            seek_skipped_ovf: false,
            saw_fup: false,
            saw_pgd: false,
            retc: ret_compression,
            call_stack: RetcStack::default(),
            consumed_outcome: false,
            first_outcome_from: None,
            prefix_insns: 0,
            prefix_branches: 0,
        }
    }

    /// Resets every piece of decode state while keeping the branch buffer's
    /// allocation (decode-scratch reuse).
    pub fn reset(&mut self) {
        self.trace.branches.clear();
        self.trace.insns_walked = 0;
        self.trace.start_ip = 0;
        self.trace.end_ip = 0;
        self.ip = 0;
        self.synced = false;
        self.halted = false;
        self.parked = false;
        self.last_ip = 0;
        self.pending.clear();
        self.in_psb_plus = false;
        self.seek_psb = false;
        self.seek_fup = None;
        self.seek_skipped_damage = false;
        self.seek_skipped_ovf = false;
        self.saw_fup = false;
        self.saw_pgd = false;
        self.call_stack.clear();
        self.consumed_outcome = false;
        self.first_outcome_from = None;
        self.prefix_insns = 0;
        self.prefix_branches = 0;
    }

    /// Pre-sizes the branch buffer for an expected trace size in bytes.
    pub fn reserve_for(&mut self, trace_bytes: usize) {
        // One event per ~2 trace bytes is a comfortable over-estimate for
        // dense TNT streams without ballooning on multi-megabyte buffers.
        let est = (trace_bytes / 2).min(1 << 16);
        if self.trace.branches.capacity() < est {
            self.trace.branches.reserve(est - self.trace.branches.len());
        }
    }

    /// The flow reconstructed so far.
    pub fn trace(&self) -> &FlowTrace {
        &self.trace
    }

    /// Takes the reconstructed flow out of the machine.
    pub fn take_trace(&mut self) -> FlowTrace {
        std::mem::take(&mut self.trace)
    }

    /// Drops already-consumed branch events, keeping the walker state and
    /// cumulative counters — the checkpoint's memory bound.
    pub fn compact(&mut self) {
        self.trace.branches.clear();
        self.prefix_branches = 0;
    }

    /// Whether a PSB+/FUP sync point has been found.
    pub fn synced(&self) -> bool {
        self.synced
    }

    /// Whether the walk reached a `halt` (the serial decoder stops reading
    /// packets at this point).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The IP the machine is parked at awaiting the next outcome packet
    /// (`None` when unsynced or halted).
    pub fn park_ip(&self) -> Option<u64> {
        (self.synced && !self.halted && self.parked).then_some(self.ip)
    }

    /// Whether the machine stopped inside a partially consumed syscall
    /// FUP→PGD→PGE group.
    pub fn mid_syscall_group(&self) -> bool {
        self.saw_fup || self.saw_pgd
    }

    /// Whether buffered TNT bits remain unconsumed.
    pub fn pending_tnt_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Whether damaged or OVF packets were skipped during sync seek — a
    /// serial decoder walking into the same bytes would have errored, so a
    /// stitcher must not silently adopt past them.
    pub fn seek_skipped_damage(&self) -> bool {
        self.seek_skipped_damage || self.seek_skipped_ovf
    }

    /// IP of the CoFI that consumed the shard's first packet outcome.
    pub fn first_outcome_from(&self) -> Option<u64> {
        self.first_outcome_from
    }

    /// Instructions walked up to and including the first outcome-consuming
    /// CoFI (the seam-overlap prefix).
    pub fn prefix_insns(&self) -> u64 {
        self.prefix_insns
    }

    /// Branch events emitted before the first outcome (all direct — the
    /// seam-overlap prefix).
    pub fn prefix_branches(&self) -> usize {
        self.prefix_branches
    }

    /// Adopts another machine's walker/cursor state (not its trace) — the
    /// stitcher's seam hand-off. Both machines must have RET compression
    /// off (compressed returns cannot be sharded: the mirrored call stack
    /// would be lost at the seam).
    pub fn adopt_walk_state(&mut self, other: &FlowMachine) {
        debug_assert!(!self.retc && !other.retc);
        self.ip = other.ip;
        self.synced = other.synced;
        self.halted = other.halted;
        self.parked = other.parked;
        self.last_ip = other.last_ip;
        self.pending = other.pending;
        self.in_psb_plus = other.in_psb_plus;
        self.seek_psb = other.seek_psb;
        self.seek_fup = other.seek_fup;
        self.saw_fup = other.saw_fup;
        self.saw_pgd = other.saw_pgd;
    }

    /// Appends another machine's full flow (a fresh-sync adoption: the
    /// other machine's sync is genuine, its prefix walk included).
    pub fn absorb_full(&mut self, other: &mut FlowMachine) {
        if self.trace.branches.is_empty() && !self.synced {
            self.trace.start_ip = other.trace.start_ip;
        }
        self.trace.branches.append(&mut other.trace.branches);
        self.trace.insns_walked += other.trace.insns_walked;
        self.trace.end_ip = other.trace.end_ip;
        self.adopt_walk_state(other);
    }

    /// Appends another machine's flow minus its seam-overlap prefix (this
    /// machine's own parked walk already covered the prefix).
    pub fn absorb_tail(&mut self, other: &mut FlowMachine) {
        self.trace.branches.extend(other.trace.branches.drain(other.prefix_branches..));
        self.trace.insns_walked += other.trace.insns_walked - other.prefix_insns;
        self.trace.end_ip = other.trace.end_ip;
        self.adopt_walk_state(other);
    }

    /// A cheap FNV-1a hash over the resumable walk state — the checkpoint
    /// key component guarding against state divergence.
    pub fn state_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        mix(self.ip);
        mix(self.last_ip);
        mix(self.pending.bits);
        mix(u64::from(self.pending.len));
        mix(u64::from(self.synced)
            | u64::from(self.halted) << 1
            | u64::from(self.parked) << 2
            | u64::from(self.saw_fup) << 3
            | u64::from(self.saw_pgd) << 4
            | u64::from(self.in_psb_plus) << 5);
        h
    }

    /// Consumes one chunk of the packet stream, advancing the walk as far
    /// as the chunk allows. Chunk seams must fall on packet boundaries.
    ///
    /// Returns `Ok` both when the chunk is exhausted (machine parked or
    /// still seeking sync) and when the walk halts; decode failures are
    /// errors with offsets relative to `chunk`.
    ///
    /// # Errors
    ///
    /// See [`FlowError`]. Packet errors are raised only after sync;
    /// damaged bytes during sync seek are skipped (recorded in
    /// [`FlowMachine::seek_skipped_damage`]), matching a real decoder's
    /// skip-to-next-PSB behaviour.
    pub fn feed(&mut self, image: &Image, chunk: &[u8]) -> Result<(), FlowError> {
        let mut parser = PacketParser::resume(chunk, 0, self.last_ip);
        let r = self.feed_inner(image, &mut parser);
        self.last_ip = parser.last_ip();
        r
    }

    fn feed_inner(&mut self, image: &Image, parser: &mut PacketParser) -> Result<(), FlowError> {
        while !self.halted {
            if !self.synced {
                if !self.seek_sync(parser) {
                    return Ok(()); // chunk exhausted, still seeking
                }
                continue;
            }
            let Some(line) = image.straight_line_at(self.ip) else {
                return Err(FlowError::BadIp { ip: self.ip });
            };
            if line.run > 0 {
                // A straight-line run consumes no packets: step it whole.
                debug_assert!(!self.parked, "the walker parks only at CoFIs");
                self.trace.insns_walked += u64::from(line.run);
                self.ip += u64::from(line.run) * INSN_SIZE;
                self.trace.end_ip = self.ip;
            }
            let Some(insn) = line.stop else {
                return Err(FlowError::BadIp { ip: self.ip });
            };
            if !self.parked {
                self.trace.insns_walked += 1;
            }
            self.parked = false;
            let next = self.ip + INSN_SIZE;
            let kind = insn.cofi_kind();
            match insn {
                Insn::Halt => {
                    self.halted = true;
                    return Ok(());
                }
                Insn::Jmp { target } | Insn::Call { target } => {
                    if self.retc && matches!(insn, Insn::Call { .. }) {
                        self.call_stack.push(next);
                    }
                    self.emit(BranchEvent { from: self.ip, to: target, kind, taken: None });
                    self.ip = target;
                }
                Insn::Jcc { target, .. } => match self.next_outcome(parser, Need::Tnt)? {
                    Some(Outcome::Tnt(taken)) => {
                        let to = if taken { target } else { next };
                        self.note_outcome();
                        self.emit(BranchEvent { from: self.ip, to, kind, taken: Some(taken) });
                        self.ip = to;
                    }
                    None => return self.park(),
                    Some(_) => unreachable!("next_outcome returns matching outcome"),
                },
                Insn::JmpInd { .. } | Insn::CallInd { .. } => {
                    match self.next_outcome(parser, Need::Tip)? {
                        Some(Outcome::Tip(to)) => {
                            if self.retc && matches!(insn, Insn::CallInd { .. }) {
                                self.call_stack.push(next);
                            }
                            self.note_outcome();
                            self.emit(BranchEvent { from: self.ip, to, kind, taken: None });
                            self.ip = to;
                        }
                        None => return self.park(),
                        Some(_) => unreachable!(),
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
                            self.emit(BranchEvent { from: self.ip, to, kind, taken: None });
                            self.ip = to;
                        }
                        Some(Outcome::Tnt(taken)) => {
                            // Compressed return: a taken bit, target from
                            // the mirrored call stack.
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
                            self.emit(BranchEvent { from: self.ip, to, kind, taken: None });
                            self.ip = to;
                        }
                        None => return self.park(),
                        Some(_) => unreachable!(),
                    }
                }
                Insn::Syscall => match self.next_outcome(parser, Need::Resume)? {
                    Some(Outcome::Resume(to)) => {
                        self.note_outcome();
                        self.emit(BranchEvent { from: self.ip, to, kind, taken: None });
                        self.ip = to;
                    }
                    None => return self.park(),
                    Some(_) => unreachable!(),
                },
                _ => unreachable!("non-terminators are stepped as runs"),
            }
            self.trace.end_ip = self.ip;
        }
        Ok(()) // halted: the serial decoder stops reading packets
    }

    /// Parks the walker at the current CoFI: the chunk ran out before its
    /// outcome packet arrived.
    fn park(&mut self) -> Result<(), FlowError> {
        self.parked = true;
        self.trace.end_ip = self.ip;
        Ok(())
    }

    fn emit(&mut self, ev: BranchEvent) {
        self.trace.branches.push(ev);
    }

    /// Records the first packet-outcome consumption (the shard seam marker).
    fn note_outcome(&mut self) {
        if !self.consumed_outcome {
            self.consumed_outcome = true;
            self.first_outcome_from = Some(self.ip);
            self.prefix_insns = self.trace.insns_walked;
            self.prefix_branches = self.trace.branches.len();
        }
    }

    /// Scans packets for a PSB → FUP → PSBEND sync bundle. Returns `true`
    /// once synced, `false` when the chunk is exhausted first.
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
                        // A PSB+ without a FUP carries no sync IP: keep
                        // seeking.
                    }
                    Packet::Ovf => self.seek_skipped_ovf = true,
                    _ => {}
                },
            }
        }
    }

    /// Returns the next outcome of the requested kind, `None` when the
    /// chunk ends first.
    fn next_outcome(
        &mut self,
        parser: &mut PacketParser,
        need: Need,
    ) -> Result<Option<Outcome>, FlowError> {
        match need {
            Need::Tnt | Need::RetTarget => {
                if let Some(b) = self.pending.pop() {
                    return Ok(Some(Outcome::Tnt(b)));
                }
            }
            _ if !self.pending.is_empty() => {
                return Err(FlowError::TraceMismatch {
                    ip: self.ip,
                    detail: "buffered TNT bits at an indirect branch",
                });
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
                        return Err(FlowError::TraceMismatch {
                            ip: self.ip,
                            detail: "TNT packet where a TIP/FUP was required",
                        });
                    }
                    self.pending.fill(&seq);
                    if let Some(b) = self.pending.pop() {
                        return Ok(Some(Outcome::Tnt(b)));
                    }
                }
                Packet::Tip { ip: target } => match need {
                    Need::Tip | Need::RetTarget => return Ok(Some(Outcome::Tip(target))),
                    Need::Tnt => {
                        return Err(FlowError::TraceMismatch {
                            ip: self.ip,
                            detail: "TIP packet where a TNT bit was required",
                        })
                    }
                    Need::Resume => {
                        return Err(FlowError::TraceMismatch {
                            ip: self.ip,
                            detail: "TIP packet inside a syscall group",
                        })
                    }
                },
                Packet::Fup { ip: _ } => {
                    if self.in_psb_plus {
                        continue; // periodic PSB+ carries an informational FUP
                    }
                    match need {
                        Need::Resume => self.saw_fup = true,
                        _ => {
                            return Err(FlowError::TraceMismatch {
                                ip: self.ip,
                                detail: "unexpected FUP outside a syscall group",
                            })
                        }
                    }
                }
                Packet::TipPgd { .. } => match need {
                    Need::Resume if self.saw_fup => self.saw_pgd = true,
                    _ => {
                        return Err(FlowError::TraceMismatch {
                            ip: self.ip,
                            detail: "unexpected TIP.PGD",
                        })
                    }
                },
                Packet::TipPge { ip: resume } => match need {
                    Need::Resume if self.saw_pgd => {
                        self.saw_fup = false;
                        self.saw_pgd = false;
                        return Ok(Some(Outcome::Resume(resume)));
                    }
                    _ => {
                        return Err(FlowError::TraceMismatch {
                            ip: self.ip,
                            detail: "unexpected TIP.PGE",
                        })
                    }
                },
            }
        }
        Ok(None) // chunk exhausted
    }
}

/// Instruction-flow decoder over an [`Image`] — the one-shot wrapper
/// around [`FlowMachine`].
#[derive(Debug)]
pub struct FlowDecoder<'a> {
    image: &'a Image,
    ret_compression: bool,
}

impl<'a> FlowDecoder<'a> {
    /// Creates a decoder for a linked image (RET compression off, matching
    /// FlowGuard's `DisRETC = 1` configuration).
    pub fn new(image: &'a Image) -> FlowDecoder<'a> {
        FlowDecoder { image, ret_compression: false }
    }

    /// Creates a decoder for traces produced with RET compression enabled
    /// (`DisRETC = 0`): the decoder mirrors the hardware's 64-deep call
    /// stack to resolve compressed returns.
    pub fn with_ret_compression(image: &'a Image) -> FlowDecoder<'a> {
        FlowDecoder { image, ret_compression: true }
    }

    /// Reconstructs execution flow from raw trace bytes.
    ///
    /// Synchronises on the first PSB+ whose FUP provides the start IP, then
    /// walks the binary, consuming TNT bits and TIP targets as conditional
    /// and indirect branches are encountered. Reconstruction ends gracefully
    /// when the packet stream is exhausted.
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn decode(&self, buf: &[u8]) -> Result<FlowTrace, FlowError> {
        let mut m = FlowMachine::new(self.ret_compression);
        self.decode_with(buf, &mut m)?;
        Ok(m.take_trace())
    }

    /// [`FlowDecoder::decode`] into a caller-owned machine, reusing its
    /// branch-buffer allocation across decodes.
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn decode_with(&self, buf: &[u8], m: &mut FlowMachine) -> Result<(), FlowError> {
        m.reset();
        m.retc = self.ret_compression;
        m.reserve_for(buf.len());
        m.feed(self.image, buf)?;
        if !m.synced() {
            return Err(FlowError::NoSync);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::PacketEncoder;
    use fg_isa::asm::Asm;
    use fg_isa::image::Linker;
    use fg_isa::insn::regs::*;
    use fg_isa::insn::Cond;

    /// Builds a small image: main compares, branches, makes an indirect call
    /// through a table, helper returns.
    fn test_image() -> Image {
        let mut a = Asm::new("app");
        a.export("main");
        a.label("main");
        a.movi(R0, 1); // +0
        a.cmpi(R0, 0); // +8
        a.jcc(Cond::Gt, "big"); // +16  (taken)
        a.halt(); // +24
        a.label("big");
        a.lea(R1, "table"); // +32
        a.ld(R2, R1, 0); // +40
        a.calli(R2); // +48  TIP → helper
        a.halt(); // +56
        a.label("helper");
        a.movi(R3, 7); // +64
        a.ret(); // +72  TIP → +56
        a.data_ptrs("table", &["helper"]);
        Linker::new(a.finish().unwrap()).link().unwrap()
    }

    /// Hand-encodes the trace the hardware would produce for `test_image`.
    fn test_trace(img: &Image) -> Vec<u8> {
        let base = img.entry();
        let helper = base + 64;
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(base), Some(0x1000));
        enc.tnt_bit(true); // jgt taken
        enc.tip(helper); // calli
        enc.tip(base + 56); // ret
        enc.into_sink()
    }

    #[test]
    fn reconstructs_complete_flow() {
        let img = test_image();
        let trace_bytes = test_trace(&img);
        let flow = FlowDecoder::new(&img).decode(&trace_bytes).unwrap();
        let base = img.entry();
        assert_eq!(flow.start_ip, base);
        let kinds: Vec<CofiKind> = flow.branches.iter().map(|b| b.kind).collect();
        assert_eq!(kinds, vec![CofiKind::CondBranch, CofiKind::IndCall, CofiKind::Ret]);
        // Direct info (the Jcc target) is recovered from the binary.
        assert_eq!(flow.branches[0].to, base + 32);
        assert_eq!(flow.branches[0].taken, Some(true));
        assert_eq!(flow.branches[1].to, base + 64);
        assert_eq!(flow.branches[2].to, base + 56);
        // Walked: every executed instruction up to the final halt.
        assert!(flow.insns_walked >= 9, "walked {} insns", flow.insns_walked);
        assert_eq!(flow.end_ip, base + 56);
    }

    #[test]
    fn graceful_end_when_trace_stops_mid_flow() {
        let img = test_image();
        let base = img.entry();
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(base), None);
        enc.tnt_bit(true);
        // trace ends before the calli's TIP.
        let flow = FlowDecoder::new(&img).decode(&enc.into_sink()).unwrap();
        assert_eq!(flow.branches.len(), 1);
    }

    #[test]
    fn no_sync_is_error() {
        let img = test_image();
        let mut enc = PacketEncoder::new(Vec::new());
        enc.tip(0x40_0000);
        assert_eq!(FlowDecoder::new(&img).decode(&enc.into_sink()), Err(FlowError::NoSync));
    }

    #[test]
    fn mismatch_tip_where_tnt_required() {
        let img = test_image();
        let base = img.entry();
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(base), None);
        enc.tip(base + 64); // but the walk is at the Jcc, needing a TNT
        let err = FlowDecoder::new(&img).decode(&enc.into_sink()).unwrap_err();
        assert!(matches!(err, FlowError::TraceMismatch { .. }), "got {err:?}");
    }

    #[test]
    fn bad_ip_when_tip_leaves_code() {
        let img = test_image();
        let base = img.entry();
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(base), None);
        enc.tnt_bit(true);
        enc.tip(0x0dead000); // unmapped target
        let err = FlowDecoder::new(&img).decode(&enc.into_sink()).unwrap_err();
        assert_eq!(err, FlowError::BadIp { ip: 0x0dead000 });
    }

    #[test]
    fn syscall_group_resumes_at_pge_target() {
        // main: syscall; halt — with a FUP/PGD/PGE group in the trace.
        let mut a = Asm::new("app");
        a.export("main");
        a.label("main");
        a.syscall(); // +0
        a.halt(); // +8
        let img = Linker::new(a.finish().unwrap()).link().unwrap();
        let base = img.entry();
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(base), None);
        enc.fup(base);
        enc.tip_pgd(None);
        enc.tip_pge(base + 8);
        let flow = FlowDecoder::new(&img).decode(&enc.into_sink()).unwrap();
        assert_eq!(flow.branches.len(), 1);
        assert_eq!(flow.branches[0].kind, CofiKind::FarTransfer);
        assert_eq!(flow.branches[0].to, base + 8);
        assert_eq!(flow.end_ip, base + 8);
    }

    #[test]
    fn overflow_is_reported() {
        let img = test_image();
        let base = img.entry();
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(base), None);
        enc.ovf();
        let err = FlowDecoder::new(&img).decode(&enc.into_sink()).unwrap_err();
        assert_eq!(err, FlowError::Overflow);
    }

    #[test]
    fn periodic_psb_plus_mid_stream_is_transparent() {
        let img = test_image();
        let base = img.entry();
        let helper = base + 64;
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(base), None);
        enc.tnt_bit(true);
        // A periodic PSB+ lands between packets; its FUP must be ignored.
        enc.psb_plus(Some(base + 48), None);
        enc.tip(helper);
        enc.tip(base + 56);
        let flow = FlowDecoder::new(&img).decode(&enc.into_sink()).unwrap();
        assert_eq!(flow.branches.len(), 3);
    }

    #[test]
    fn incremental_feed_equals_one_shot_decode() {
        // Feed the same stream in packet-sized chunks: the resumable
        // machine must reconstruct the identical flow.
        let img = test_image();
        let trace_bytes = test_trace(&img);
        let serial = FlowDecoder::new(&img).decode(&trace_bytes).unwrap();

        // Split at every packet boundary.
        let mut cuts = vec![0usize];
        let mut p = PacketParser::new(&trace_bytes);
        while let Some(Ok(_)) = p.next_packet() {
            cuts.push(p.position());
        }
        let mut m = FlowMachine::new(false);
        for w in cuts.windows(2) {
            m.feed(&img, &trace_bytes[w[0]..w[1]]).unwrap();
        }
        assert!(m.synced());
        assert_eq!(m.trace(), &serial);
    }

    #[test]
    fn machine_parks_and_resumes_across_an_outcome_gap() {
        let img = test_image();
        let base = img.entry();
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(base), None);
        enc.tnt_bit(true);
        let head = enc.into_sink();
        let mut enc = PacketEncoder::new(Vec::new());
        enc.tip(base + 64);
        enc.tip(base + 56);
        let tail = enc.into_sink();

        let mut m = FlowMachine::new(false);
        m.feed(&img, &head).unwrap();
        assert_eq!(m.park_ip(), Some(base + 48), "parked at the calli");
        let walked_at_park = m.trace().insns_walked;
        m.feed(&img, &tail).unwrap();
        // The parked calli is not recounted on resume.
        let mut full = head.clone();
        full.extend_from_slice(&tail);
        let serial = FlowDecoder::new(&img).decode(&full).unwrap();
        assert_eq!(m.trace(), &serial);
        assert!(m.trace().insns_walked > walked_at_park);
    }

    #[test]
    fn retc_ring_matches_a_front_evicting_vec() {
        // Pushes past the 64-deep limit and pops past empty, against the
        // `Vec::remove(0)` eviction the ring replaced.
        let mut ring = RetcStack::default();
        let mut want: Vec<u64> = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Phases of push-heavy and pop-heavy traffic, so the stack both
            // overflows and drains.
            let pop_bias = if (i / 500) % 2 == 0 { 4 } else { 1 };
            if x % 6 < pop_bias {
                assert_eq!(ring.pop(), want.pop());
            } else {
                if want.len() == RETC_STACK_DEPTH {
                    want.remove(0);
                }
                want.push(i);
                ring.push(i);
            }
            assert_eq!(ring.len, want.len());
        }
        while let Some(v) = want.pop() {
            assert_eq!(ring.pop(), Some(v));
        }
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn straight_line_runs_walk_like_single_steps() {
        // A run that ends at the executable portion's end: the walk must
        // count every instruction and fail at exactly the first non-code
        // address, as a one-instruction-at-a-time walk does.
        let mut a = Asm::new("app");
        a.export("main");
        a.label("main");
        a.movi(R0, 1); // +0
        a.movi(R1, 2); // +8
        a.jmp("tail"); // +16
        a.halt(); // +24
        a.label("tail");
        a.movi(R2, 3); // +32
        a.movi(R3, 4); // +40
        let img = Linker::new(a.finish().unwrap()).link().unwrap();
        let base = img.entry();
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(base), None);
        let mut m = FlowMachine::new(false);
        let err = m.feed(&img, &enc.into_sink()).unwrap_err();
        assert_eq!(err, FlowError::BadIp { ip: base + 48 });
        assert_eq!(m.trace().insns_walked, 5);
        assert_eq!(m.trace().end_ip, base + 48);
        assert_eq!(m.trace().branches.len(), 1);
    }

    #[test]
    fn prefix_metadata_marks_first_outcome() {
        let img = test_image();
        let trace_bytes = test_trace(&img);
        let mut m = FlowMachine::new(false);
        m.feed(&img, &trace_bytes).unwrap();
        // First outcome: the TNT at the Jcc (+16); prefix covers main's
        // first three instructions, no branch events before it.
        assert_eq!(m.first_outcome_from(), Some(img.entry() + 16));
        assert_eq!(m.prefix_insns(), 3);
        assert_eq!(m.prefix_branches(), 0);
    }
}
