//! Host-time spans around the kernel-module boundary, recorded from
//! outside the engine.
//!
//! The benchmark takes the engine out of a protected process's kernel
//! (`Kernel::take_interceptor`) and re-installs it wrapped in a
//! timing interceptor. In the end-to-end run the wrapper takes one clock
//! pair per `check` (how long the sensitive syscall waits for its verdict)
//! and forwards everything else untouched. In the traced run it also times
//! every `on_pmi` and `on_trace_poll`, and after each check reads the
//! engine's newest `CheckEvent` to file the check under the fast path, the
//! slow path or the violation path.

use fg_cpu::machine::SyscallCtx;
use fg_kernel::{InterceptVerdict, Kernel, SyscallInterceptor, Sysno};
use flowguard::{CheckEvent, CheckVerdict, EngineTelemetry};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Which path rendered a check's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckPath {
    /// The fast path judged the window (clean, or too little trace to
    /// judge).
    Fast,
    /// The window was escalated to the slow path and found clean.
    Slow,
    /// A violation was detected (by either path).
    Violation,
}

impl CheckPath {
    fn of(verdict: CheckVerdict) -> CheckPath {
        match verdict {
            CheckVerdict::Insufficient | CheckVerdict::FastClean => CheckPath::Fast,
            CheckVerdict::SlowClean => CheckPath::Slow,
            CheckVerdict::FastMalicious | CheckVerdict::SlowAttack => CheckPath::Violation,
        }
    }
}

/// One timed check in the traced run.
#[derive(Debug, Clone, Copy)]
pub struct TracedCheck {
    /// Host nanoseconds the check took.
    pub ns: u64,
    /// The path that rendered the verdict.
    pub path: CheckPath,
    /// The engine's own record of the check (modeled cycles and counts).
    pub event: CheckEvent,
}

/// Spans recorded by one [`TimedInterceptor`]; kept in memory and read
/// after the process has run.
#[derive(Debug, Default)]
pub struct ProbeLog {
    /// Host nanoseconds of every `check` call, in order.
    pub check_ns: Vec<u64>,
    /// Traced run only: every check with its path and engine event.
    pub checks: Vec<TracedCheck>,
    /// Traced run only: `on_pmi` calls and their total host nanoseconds.
    pub pmi_calls: u64,
    /// See [`ProbeLog::pmi_calls`].
    pub pmi_ns: u64,
    /// Traced run only: `on_trace_poll` calls and their total host
    /// nanoseconds.
    pub poll_calls: u64,
    /// See [`ProbeLog::poll_calls`].
    pub poll_ns: u64,
}

/// The wrapping kernel module.
struct TimedInterceptor {
    inner: Box<dyn SyscallInterceptor>,
    log: Rc<RefCell<ProbeLog>>,
    /// `Some` in the traced run: the engine telemetry the verdicts are
    /// read from.
    traced: Option<Arc<EngineTelemetry>>,
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl SyscallInterceptor for TimedInterceptor {
    fn protects(&self, cr3: u64) -> bool {
        self.inner.protects(cr3)
    }

    fn is_sensitive(&self, nr: Sysno) -> bool {
        self.inner.is_sensitive(nr)
    }

    fn check(&mut self, nr: Sysno, ctx: &mut SyscallCtx<'_>) -> InterceptVerdict {
        let t0 = Instant::now();
        let verdict = self.inner.check(nr, ctx);
        let ns = elapsed_ns(t0);
        let mut log = self.log.borrow_mut();
        log.check_ns.push(ns);
        if let Some(telemetry) = &self.traced {
            let (_, event) =
                *telemetry.recent_events(1).last().expect("the engine records one event per check");
            log.checks.push(TracedCheck { ns, path: CheckPath::of(event.verdict), event });
        }
        verdict
    }

    fn on_pmi(&mut self, ctx: &mut SyscallCtx<'_>) -> InterceptVerdict {
        if self.traced.is_none() {
            return self.inner.on_pmi(ctx);
        }
        let t0 = Instant::now();
        let verdict = self.inner.on_pmi(ctx);
        let ns = elapsed_ns(t0);
        let mut log = self.log.borrow_mut();
        log.pmi_calls += 1;
        log.pmi_ns += ns;
        verdict
    }

    fn on_trace_poll(&mut self, ctx: &mut SyscallCtx<'_>) {
        if self.traced.is_none() {
            self.inner.on_trace_poll(ctx);
            return;
        }
        let t0 = Instant::now();
        self.inner.on_trace_poll(ctx);
        let ns = elapsed_ns(t0);
        let mut log = self.log.borrow_mut();
        log.poll_calls += 1;
        log.poll_ns += ns;
    }
}

/// Wraps the kernel's installed engine in a timing interceptor and returns
/// the log it records into. With `traced` set, PMIs and polls are timed
/// too and each check is classified from the engine's event ring.
///
/// # Panics
///
/// Panics when the kernel has no interceptor installed.
pub fn instrument(
    kernel: &mut Kernel,
    telemetry: &Arc<EngineTelemetry>,
    traced: bool,
) -> Rc<RefCell<ProbeLog>> {
    let inner = kernel.take_interceptor().expect("protected process has an engine");
    let log = Rc::new(RefCell::new(ProbeLog::default()));
    kernel.install_interceptor(Box::new(TimedInterceptor {
        inner,
        log: Rc::clone(&log),
        traced: traced.then(|| Arc::clone(telemetry)),
    }));
    log
}
