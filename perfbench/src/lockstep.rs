//! Lockstep execution: several processes that execute the same instruction
//! stream (the protected process and its unprotected and traced-only twins)
//! run in rotating slices of a fixed instruction count, so a drift in host
//! speed lands on all of them alike and their host-time ratios stay steady.

use crate::reference::Reference;
use fg_cpu::machine::{Machine, StopReason};
use fg_cpu::trace::{IptUnit, TraceUnit};
use fg_ipt::topa::Topa;
use fg_isa::image::Image;
use fg_kernel::Kernel;
use flowguard::{ProtectedProcess, DEFAULT_CR3};
use std::time::Instant;

/// Instructions per lockstep slice.
pub const SLICE_INSNS: u64 = 200_000;

/// Instruction budget per process (runaway guard).
pub const RUN_BUDGET_INSNS: u64 = 2_000_000_000;

/// Anything that runs for a bounded number of instructions.
pub trait Slice {
    /// Runs at most `insns` instructions.
    fn run_slice(&mut self, insns: u64) -> StopReason;
    /// Instructions retired so far.
    fn insns(&self) -> u64;
    /// Endpoint checks made so far (0 for an unprotected process).
    fn checks(&self) -> u64 {
        0
    }
}

impl Slice for ProtectedProcess {
    fn run_slice(&mut self, insns: u64) -> StopReason {
        self.run(insns)
    }

    fn insns(&self) -> u64 {
        self.machine.insns_retired
    }

    fn checks(&self) -> u64 {
        self.stats.checks()
    }
}

/// A process with no kernel module: either untraced (the unprotected twin)
/// or traced into a ToPA nobody reads (the traced-only twin, whose extra
/// host time over the unprotected twin is the cost of trace encoding).
#[derive(Debug)]
pub struct Bare {
    /// The machine.
    pub machine: Machine,
    /// Its kernel, without an interceptor.
    pub kernel: Kernel,
}

impl Bare {
    /// The unprotected twin: no trace unit, no kernel module.
    pub fn unprotected(image: &Image, input: &[u8]) -> Bare {
        Bare { machine: Machine::new(image, DEFAULT_CR3), kernel: Kernel::with_input(input) }
    }

    /// The traced-only twin: IPT configured exactly as a protected launch
    /// configures it, but no kernel module consumes the trace.
    ///
    /// # Panics
    ///
    /// Panics when `topa_region_bytes` is not a valid ToPA region size.
    pub fn traced(image: &Image, input: &[u8], topa_region_bytes: usize) -> Bare {
        let mut machine = Machine::new(image, DEFAULT_CR3);
        let topa = Topa::two_regions(topa_region_bytes).expect("valid ToPA size");
        let mut unit = IptUnit::flowguard(DEFAULT_CR3, topa);
        unit.start(image.entry(), DEFAULT_CR3);
        machine.trace = TraceUnit::Ipt(unit);
        Bare { machine, kernel: Kernel::with_input(input) }
    }

    /// Trace bytes the twin's IPT unit emitted (0 when untraced).
    pub fn trace_bytes(&self) -> u64 {
        self.machine.trace.as_ipt().map_or(0, IptUnit::bytes_emitted)
    }
}

impl Slice for Bare {
    fn run_slice(&mut self, insns: u64) -> StopReason {
        self.machine.run(&mut self.kernel, insns)
    }

    fn insns(&self) -> u64 {
        self.machine.insns_retired
    }
}

/// One timed slice of a lane.
#[derive(Debug, Clone, Copy, Default)]
pub struct SliceTime {
    /// Host nanoseconds of the slice.
    pub ns: u64,
    /// Host nanoseconds of the reference unit run right after the slice's
    /// round.
    pub reference_ns: u64,
    /// Checks the process had made by the end of the slice.
    pub checks_after: u64,
}

/// One process in a lockstep group, with the host time it has used.
pub struct Lane<'a> {
    proc: &'a mut dyn Slice,
    /// Host nanoseconds spent in this lane's slices.
    pub ns: u64,
    /// Every slice, in order.
    pub slices: Vec<SliceTime>,
    /// How the process stopped, once it has.
    pub stop: Option<StopReason>,
}

impl<'a> Lane<'a> {
    /// A lane over `proc`.
    pub fn new(proc: &'a mut dyn Slice) -> Lane<'a> {
        Lane { proc, ns: 0, slices: Vec::new(), stop: None }
    }
}

/// Runs every lane to its end in rotating slices of `slice` instructions:
/// slice round `r` starts with lane `r % lanes.len()`, and the reference
/// unit runs once after every slice round, outside the timed slices. A
/// lane that exceeds [`RUN_BUDGET_INSNS`] stops with `InsnLimit`.
pub fn run(lanes: &mut [Lane<'_>], slice: u64, reference: &mut Reference) {
    let n = lanes.len();
    let mut round = 0usize;
    let mut ran = vec![false; n];
    while lanes.iter().any(|l| l.stop.is_none()) {
        for k in 0..n {
            let i = (round + k) % n;
            let lane = &mut lanes[i];
            ran[i] = lane.stop.is_none();
            if !ran[i] {
                continue;
            }
            let t0 = Instant::now();
            let stop = lane.proc.run_slice(slice);
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            lane.ns += ns;
            lane.slices.push(SliceTime { ns, reference_ns: 0, checks_after: lane.proc.checks() });
            if stop != StopReason::InsnLimit {
                lane.stop = Some(stop);
            } else if lane.proc.insns() >= RUN_BUDGET_INSNS {
                lane.stop = Some(StopReason::InsnLimit);
            }
        }
        let reference_ns = reference.sample();
        for (lane, _) in lanes.iter_mut().zip(&ran).filter(|(_, &r)| r) {
            lane.slices.last_mut().expect("the lane ran a slice").reference_ns = reference_ns;
        }
        round += 1;
    }
}

impl Lane<'_> {
    /// Each slice's host time scaled to nominal host speed by the reference
    /// samples around it.
    pub fn scaled_slices(&self) -> Vec<f64> {
        let slowness = local_slowness(&self.slices);
        self.slices.iter().zip(slowness).map(|(s, k)| f(s.ns) / k).collect()
    }

    /// The local slowness of the slice each of the lane's `checks` ran in,
    /// in check order.
    pub fn check_slowness(&self, checks: usize) -> Vec<f64> {
        let slowness = local_slowness(&self.slices);
        let mut out = Vec::with_capacity(checks);
        let mut s = 0;
        for i in 0..checks as u64 {
            while s + 1 < self.slices.len() && self.slices[s].checks_after <= i {
                s += 1;
            }
            out.push(slowness.get(s).copied().unwrap_or(1.0));
        }
        out
    }
}

/// Host slowness at each slice: the median of the reference samples of the
/// slices within [`WINDOW`] of it, over the reference's nominal time.
fn local_slowness(slices: &[SliceTime]) -> Vec<f64> {
    (0..slices.len())
        .map(|i| {
            let lo = i.saturating_sub(WINDOW);
            let hi = (i + WINDOW + 1).min(slices.len());
            let mut w: Vec<u64> = slices[lo..hi].iter().map(|s| s.reference_ns).collect();
            w.sort_unstable();
            f(w[w.len() / 2]) / crate::reference::NOMINAL_NS
        })
        .collect()
}

/// Neighbouring slices on each side whose reference samples estimate a
/// slice's host speed (a few milliseconds either way: host interference
/// comes in bursts of seconds).
const WINDOW: usize = 2;

#[allow(clippy::cast_precision_loss)]
fn f(x: u64) -> f64 {
    x as f64
}
