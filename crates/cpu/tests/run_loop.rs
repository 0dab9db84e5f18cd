//! `Machine::run` against a reference loop built on `Machine::step` that
//! applies the per-instruction rule literally: after every retired
//! instruction, probe the ToPA for a pending PMI, then offer a poll slot if
//! the retired count is a multiple of the poll period.
//!
//! `run` probes for PMIs only after iterations that could have written
//! trace and counts down to the next poll slot, and it may be entered and
//! left at any instruction. Sliced at several budgets, with handlers that
//! write trace, leave PMIs pending and kill the process, it must make the
//! same handler calls in the same machine states and end in the same state.

use fg_cpu::machine::{Machine, StopReason, SysOutcome, SyscallCtx, SyscallHandler};
use fg_cpu::trace::{IptUnit, TraceUnit};
use fg_cpu::CycleAccount;
use fg_ipt::encode::TraceSink;
use fg_ipt::topa::Topa;
use fg_isa::asm::Asm;
use fg_isa::image::{Image, Linker};
use fg_isa::insn::regs::*;
use fg_isa::insn::Cond;

const CR3: u64 = 0x2000;

/// A loop of direct and indirect calls, conditional branches and a
/// syscall per iteration, ending in `exit(7)`.
fn program() -> Image {
    let mut a = Asm::new("app");
    a.export("main");
    a.label("main");
    a.movi(R6, 1000);
    a.label("loop");
    a.call("work");
    a.movi(R0, 1);
    a.syscall();
    a.addi(R6, -1);
    a.cmpi(R6, 0);
    a.jcc(Cond::Gt, "loop");
    a.movi(R0, 0);
    a.movi(R1, 7);
    a.syscall();
    a.halt();
    a.label("work");
    a.lea(R1, "table");
    a.ld(R2, R1, 0);
    a.calli(R2);
    a.movi(R3, 5);
    a.label("inner");
    a.addi(R3, -1);
    a.cmpi(R3, 0);
    a.jcc(Cond::Gt, "inner");
    a.mov(R4, R6);
    a.andi(R4, 1);
    a.cmpi(R4, 0);
    a.jcc(Cond::Eq, "skip");
    a.nop();
    a.label("skip");
    a.ret();
    a.label("leaf");
    a.movi(R5, 1);
    a.ret();
    a.data_ptrs("table", &["leaf"]);
    Linker::new(a.finish().unwrap()).link().unwrap()
}

/// One handler call and the machine state it saw.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Call {
    what: &'static str,
    pc: u64,
    total_written: u64,
    pmi_pending: bool,
}

/// A kernel whose PMI and poll handlers write trace, acknowledge only
/// every other PMI, and optionally kill the process at one PMI.
#[derive(Default)]
struct Probe {
    calls: Vec<Call>,
    pmis: u64,
    polls: u64,
    kill_at_pmi: Option<u64>,
}

impl Probe {
    fn log(&mut self, what: &'static str, ctx: &SyscallCtx<'_>) {
        let topa = ctx.trace.as_ipt().expect("IPT attached").topa();
        self.calls.push(Call {
            what,
            pc: ctx.cpu.pc,
            total_written: topa.total_written(),
            pmi_pending: topa.pmi_pending(),
        });
    }
}

impl SyscallHandler for Probe {
    fn syscall(&mut self, ctx: &mut SyscallCtx<'_>) -> SysOutcome {
        if ctx.cpu.regs[0] == 0 {
            return SysOutcome::Exit(ctx.cpu.regs[1] as i64);
        }
        ctx.cpu.regs[0] = 0;
        ctx.extra_cycles.other += 3.0;
        SysOutcome::Continue
    }

    fn pmi(&mut self, ctx: &mut SyscallCtx<'_>) -> SysOutcome {
        self.log("pmi", ctx);
        self.pmis += 1;
        ctx.extra_cycles.check += 11.0;
        if self.kill_at_pmi == Some(self.pmis) {
            return SysOutcome::Kill(9);
        }
        let u = ctx.trace.as_ipt_mut().expect("IPT attached");
        // Odd calls leave the PMI pending: it must be delivered again
        // after the next instruction.
        if self.pmis.is_multiple_of(2) {
            u.topa_mut().take_pmi();
        }
        if self.pmis.is_multiple_of(3) {
            u.topa_mut().write_packet(&[0x11; 40]);
        }
        SysOutcome::Continue
    }

    fn trace_poll(&mut self, ctx: &mut SyscallCtx<'_>) {
        self.log("poll", ctx);
        self.polls += 1;
        ctx.extra_cycles.decode += 1.0;
        let u = ctx.trace.as_ipt_mut().expect("IPT attached");
        // Poll handlers write trace too: a TNT flush, and bulk bytes that
        // cross ToPA regions and raise PMIs between instructions.
        u.flush();
        if self.polls.is_multiple_of(5) {
            u.topa_mut().write_packet(&[0x22; 61]);
        }
    }
}

/// The machine's end state.
#[derive(Debug, PartialEq)]
struct End {
    stop: StopReason,
    cpu: fg_cpu::machine::Cpu,
    insns_retired: u64,
    cofi_retired: u64,
    account: CycleAccount,
    trace: Vec<u8>,
    calls: Vec<Call>,
}

fn machine(image: &Image, period: Option<u64>) -> Machine {
    let mut m = Machine::new(image, CR3);
    m.set_trace_poll_period(period);
    let mut unit = IptUnit::flowguard(CR3, Topa::two_regions(4096).unwrap());
    unit.start(image.entry(), CR3);
    m.trace = TraceUnit::Ipt(unit);
    m
}

fn end(m: Machine, stop: StopReason, k: Probe) -> End {
    End {
        stop,
        trace: m.trace.as_ipt().unwrap().trace_bytes(),
        cpu: m.cpu,
        insns_retired: m.insns_retired,
        cofi_retired: m.cofi_retired,
        account: m.account,
        calls: k.calls,
    }
}

/// Calls `handler` with a fresh context and folds its cycles into the
/// machine's account.
fn with_ctx<R>(m: &mut Machine, handler: impl FnOnce(&mut SyscallCtx<'_>) -> R) -> R {
    let mut extra = CycleAccount::default();
    let r = handler(&mut SyscallCtx {
        cpu: &mut m.cpu,
        mem: &mut m.mem,
        trace: &mut m.trace,
        cr3: m.cr3,
        extra_cycles: &mut extra,
    });
    m.account.absorb(&extra);
    r
}

/// The per-instruction rule, applied literally.
fn reference(image: &Image, period: Option<u64>, mut k: Probe) -> End {
    let mut m = machine(image, period);
    let stop = loop {
        match m.step(&mut k) {
            Ok(None) => {}
            Ok(Some(stop)) => break stop,
            Err(fault) => break StopReason::Fault(fault),
        }
        if m.trace.as_ipt().is_some_and(|u| u.topa().pmi_pending()) {
            match with_ctx(&mut m, |ctx| k.pmi(ctx)) {
                SysOutcome::Continue => {}
                SysOutcome::Exit(code) => break StopReason::Exited(code),
                SysOutcome::Kill(sig) => break StopReason::Killed(sig),
            }
        }
        if period.is_some_and(|p| m.insns_retired.is_multiple_of(p)) && m.trace.as_ipt().is_some() {
            with_ctx(&mut m, |ctx| k.trace_poll(ctx));
        }
    };
    end(m, stop, k)
}

/// `Machine::run`, re-entered every `slice` instructions.
fn sliced(image: &Image, period: Option<u64>, mut k: Probe, slice: u64) -> End {
    let mut m = machine(image, period);
    let stop = loop {
        match m.run(&mut k, slice) {
            StopReason::InsnLimit => {}
            stop => break stop,
        }
    };
    end(m, stop, k)
}

#[test]
fn sliced_run_matches_the_per_instruction_rule() {
    let image = program();
    for period in [None, Some(1), Some(7), Some(64)] {
        for kill_at_pmi in [None, Some(3)] {
            let probe = || Probe { kill_at_pmi, ..Probe::default() };
            let want = reference(&image, period, probe());
            assert!(want.calls.iter().any(|c| c.what == "pmi"), "the program raises PMIs");
            let stop =
                if kill_at_pmi.is_some() { StopReason::Killed(9) } else { StopReason::Exited(7) };
            assert_eq!(want.stop, stop);
            for slice in [1, 63, 64, 65, 997] {
                let got = sliced(&image, period, probe(), slice);
                assert_eq!(got, want, "period {period:?}, kill at {kill_at_pmi:?}, slice {slice}");
            }
        }
    }
}

#[test]
fn no_poll_period_offers_no_slots() {
    let image = program();
    let got = sliced(&image, None, Probe::default(), 1000);
    assert_eq!(got.stop, StopReason::Exited(7));
    assert!(got.calls.iter().all(|c| c.what == "pmi"), "no poll slot without a period");
}
