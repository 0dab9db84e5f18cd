//! Golden trace fixture: the exact bytes, modeled trace cycles and
//! PMI/poll timing the IPT unit produces on four servers under four MSR
//! and ToPA setups.
//!
//! `tests/fixtures/golden_trace.json` was captured from the encoder that
//! re-evaluated every `IA32_RTIT_*` filter on each branch and wrote every
//! packet through the general region-crossing loop. Latching the filters
//! and taking a straight-line ToPA write may change how fast trace is
//! generated, never which bytes come out, where a PMI or poll slot lands,
//! or what the cost model charges.

use fg_cpu::machine::{Machine, SysOutcome, SyscallCtx, SyscallHandler, TRACE_POLL_PERIOD};
use fg_cpu::trace::{IptUnit, TraceUnit};
use fg_ipt::msr::{IptMsrs, RtitCtl};
use fg_ipt::topa::{Topa, TopaFlags, TopaRegion};
use fg_isa::image::Image;
use fg_kernel::Kernel;
use serde::{Deserialize, Serialize};

const CR3: u64 = 0x4000;

/// Region size of the byte-hash runs: large enough that no default-input
/// run wraps the buffer, so the ToPA holds every emitted byte.
const WIDE_REGION: usize = 1 << 20;

/// Region size of the STOP setup's byte-hash run: every default-input run
/// emits more than two of these, so STOP fires late enough that the
/// retained bytes differ between servers.
const STOP_REGION: usize = 1 << 16;

/// Region size of the timing runs: small enough that region-fill PMIs
/// fire.
const TIMING_REGION: usize = 8192;

/// One traced run's exact outputs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Golden {
    run: String,
    stop: String,
    bytes_emitted: u64,
    /// FNV-1a over every byte the ToPA holds after the byte-hash run.
    bytes_fnv: u64,
    /// `account.trace.to_bits()` of the byte-hash run.
    trace_cycles_bits: u64,
    pmi_calls: u64,
    poll_calls: u64,
    /// FNV-1a over the `(cpu.pc, bytes_emitted)` seen at every PMI and
    /// poll slot of the timing run, in order.
    events_fnv: u64,
}

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// The MSR and ToPA setups the fixture covers.
#[derive(Debug, Clone, Copy)]
enum Setup {
    /// FlowGuard's §5.1 MSRs.
    FlowGuard,
    /// RET compression on (`DisRETC` clear).
    Retc,
    /// ADDR0 filtering to the executable's code.
    Addr0,
    /// A ToPA whose second region has STOP set.
    Stop,
}

const SETUPS: [(&str, Setup); 4] = [
    ("flowguard", Setup::FlowGuard),
    ("retc", Setup::Retc),
    ("addr0", Setup::Addr0),
    ("stop", Setup::Stop),
];

impl Setup {
    fn unit(self, image: &Image, region: usize) -> IptUnit {
        let mut msrs =
            IptMsrs { ctl: RtitCtl::flowguard_default(), cr3_match: CR3, ..Default::default() };
        let int = TopaFlags { int: true, stop: false };
        let second = match self {
            Setup::Stop => TopaFlags { int: false, stop: true },
            _ => TopaFlags::default(),
        };
        let topa = Topa::new(vec![TopaRegion::new(region, int), TopaRegion::new(region, second)])
            .expect("two regions");
        match self {
            Setup::FlowGuard | Setup::Stop => return IptUnit::flowguard(CR3, topa),
            Setup::Retc => msrs.ctl.set_dis_retc(false),
            Setup::Addr0 => {
                let exe = image.executable();
                msrs.ctl.set_addr0_filter(true);
                msrs.addr0_a = exe.base;
                msrs.addr0_b = exe.exec_end - 1;
            }
        }
        IptUnit::with_msrs(msrs, topa)
    }

    /// The byte-hash run's region size. The STOP setup halts instead of
    /// wrapping, so it takes regions every default-input run overfills.
    fn wide_region(self) -> usize {
        match self {
            Setup::Stop => STOP_REGION,
            _ => WIDE_REGION,
        }
    }
}

/// The process kernel, logging every PMI and poll slot the machine offers.
struct Recorder {
    kernel: Kernel,
    pmi_calls: u64,
    poll_calls: u64,
    events: Fnv,
}

impl Recorder {
    fn log(&mut self, ctx: &SyscallCtx<'_>) {
        self.events.word(ctx.cpu.pc);
        self.events.word(ctx.trace.as_ipt().map_or(0, IptUnit::bytes_emitted));
    }
}

impl SyscallHandler for Recorder {
    fn syscall(&mut self, ctx: &mut SyscallCtx<'_>) -> SysOutcome {
        self.kernel.syscall(ctx)
    }

    fn pmi(&mut self, ctx: &mut SyscallCtx<'_>) -> SysOutcome {
        self.pmi_calls += 1;
        self.log(ctx);
        self.kernel.pmi(ctx)
    }

    fn trace_poll(&mut self, ctx: &mut SyscallCtx<'_>) {
        self.poll_calls += 1;
        self.log(ctx);
        self.kernel.trace_poll(ctx);
    }
}

fn traced_machine(image: &Image, unit: IptUnit) -> Machine {
    let mut m = Machine::new(image, CR3);
    m.set_trace_poll_period(Some(TRACE_POLL_PERIOD));
    let mut unit = unit;
    unit.start(image.entry(), CR3);
    m.trace = TraceUnit::Ipt(unit);
    m
}

fn run(image: &Image, input: &[u8], setup: Setup, name: String) -> Golden {
    let mut wide = traced_machine(image, setup.unit(image, setup.wide_region()));
    let stop = wide.run(&mut Kernel::with_input(input), 500_000_000);
    let ipt = wide.trace.as_ipt_mut().expect("IPT attached");
    ipt.flush();
    assert!(!ipt.topa().has_wrapped(), "{name}: byte-hash ToPA must not wrap");
    let mut bytes = Fnv::new();
    bytes.bytes(&ipt.trace_bytes());

    let mut timed = traced_machine(image, setup.unit(image, TIMING_REGION));
    let mut rec = Recorder {
        kernel: Kernel::with_input(input),
        pmi_calls: 0,
        poll_calls: 0,
        events: Fnv::new(),
    };
    let timed_stop = timed.run(&mut rec, 500_000_000);
    assert_eq!(timed_stop, stop, "{name}: ToPA size must not change the run");

    Golden {
        run: name,
        stop: format!("{stop:?}"),
        bytes_emitted: ipt.bytes_emitted(),
        bytes_fnv: bytes.0,
        trace_cycles_bits: wide.account.trace.to_bits(),
        pmi_calls: rec.pmi_calls,
        poll_calls: rec.poll_calls,
        events_fnv: rec.events.0,
    }
}

fn observed() -> Vec<Golden> {
    let mut out = Vec::new();
    for w in [
        fg_workloads::nginx_patched(),
        fg_workloads::vsftpd(),
        fg_workloads::openssh(),
        fg_workloads::exim(),
    ] {
        for (name, setup) in SETUPS {
            out.push(run(&w.image, &w.default_input, setup, format!("{}/{name}", w.name)));
        }
    }
    out
}

#[test]
fn encoder_reproduces_golden_trace() {
    let golden: Vec<Golden> =
        serde_json::from_str(include_str!("fixtures/golden_trace.json")).expect("fixture");
    let got = observed();
    let diverged: Vec<String> = golden
        .iter()
        .zip(&got)
        .filter(|(want, have)| want != have)
        .map(|(want, have)| format!("expected {want:?}\n     got {have:?}"))
        .collect();
    assert!(
        diverged.is_empty() && golden.len() == got.len(),
        "{} of {} runs diverge from the fixture:\n{}\nobserved: {}",
        diverged.len(),
        golden.len(),
        diverged.join("\n"),
        serde_json::to_string(&got).expect("serialise")
    );
}
