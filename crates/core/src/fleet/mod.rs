//! # Fleet-scale enforcement: one supervisor, many protected processes
//!
//! FlowGuard's per-process pipeline (analyse → train → verify → trace →
//! check) is exercised everywhere else in this suite one process at a time.
//! Real deployments protect a *fleet*: dozens of processes, most of them
//! instances of a handful of binaries, sharing finite tracing hardware and
//! a finite check budget. This module adds the three pieces that makes that
//! shape efficient, built on the paper's §6 hardware suggestions and §7.2.4
//! multi-process findings:
//!
//! * **Shared deployment artifacts** ([`ArtifactCache`]) — deployments are
//!   content-addressed by image hash, admission-gated by `fg-verify`, and
//!   shared (`Arc`) by every instance of the same binary; verdicts —
//!   including rejections — are cached.
//! * **Per-CR3 tracing** ([`fg_cpu::MultiIptUnit`]) — each simulated core
//!   carries one trace unit with per-CR3 ToPA sub-buffers and the
//!   configurable multi-CR3 filter the paper calls for, so a context
//!   switch selects a sub-buffer instead of flushing the trace and
//!   re-programming `IA32_RTIT_CR3_MATCH`. The stock single-CR3 hardware
//!   remains available ([`FleetConfig::multi_cr3`] = false) and charges the
//!   flush + MSR rewrite + PSB+ re-sync cost on every switch.
//! * **Async check scheduling** ([`FleetScheduler`]) — background stream
//!   drains are deferred onto a bounded per-process queue and executed in
//!   batches on the shared [`WorkerPool`](crate::pool::WorkerPool) between
//!   time slices; synchronous checks are admitted through the same
//!   scheduler for accounting and fairness. Backpressure sheds to inline
//!   execution; nothing is ever dropped.
//!
//! The [`FleetSupervisor`] ties the three together and time-slices the
//! members round-robin over the simulated cores, exactly like the solo
//! [`ProtectedProcess`](crate::deploy::ProtectedProcess) loop — a process
//! checked inside a fleet produces bit-identical verdicts to the same
//! process run alone (the root `tests/fleet.rs` suite proves it).

pub mod artifacts;
pub mod scheduler;

pub use artifacts::{image_hash, ArtifactCache, ArtifactCacheStats};
pub use scheduler::{Admission, FleetScheduler, JobClass, SchedulerStats};

use crate::config::FlowGuardConfig;
use crate::deploy::{Deployment, DEFAULT_CR3};
use crate::engine::FlowGuardEngine;
use crate::telemetry::{EngineTelemetry, TelemetrySnapshot};
use fg_cpu::machine::{Machine, StopReason};
use fg_cpu::trace::{IptUnit, MultiIptUnit, TraceUnit};
use fg_cpu::CostModel;
use fg_ipt::topa::Topa;
use fg_isa::image::Image;
use fg_kernel::{InterceptVerdict, Kernel, SyscallInterceptor, Sysno};
use fg_trace::{Histogram, HistogramSnapshot, PromText};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-process engine configuration.
    pub flowguard: FlowGuardConfig,
    /// Cycle cost model shared by every core and engine.
    pub cost: CostModel,
    /// Scheduler time slice, in instructions.
    pub slice_insns: u64,
    /// Simulated cores; members are placed round-robin (`pid % cores`).
    pub cores: usize,
    /// Use the suggested configurable multi-CR3 filter (per-CR3 ToPA
    /// sub-buffers, zero-cost switches). `false` models stock single-CR3
    /// hardware: every switch flushes, rewrites the MSR and re-syncs.
    pub multi_cr3: bool,
    /// Bound of each process's deferred-drain queue before backpressure
    /// sheds to inline execution.
    pub queue_depth: usize,
    /// Per-member total instruction budget (runaway guard).
    pub run_budget_insns: u64,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            flowguard: FlowGuardConfig::default(),
            cost: CostModel::calibrated(),
            slice_insns: 20_000,
            cores: 1,
            multi_cr3: true,
            queue_depth: 64,
            run_budget_insns: 500_000_000,
        }
    }
}

/// The kernel-module shim for fleet members: the kernel and the supervisor
/// both need the engine (interceptor calls during a slice, deferred drains
/// and snapshots between slices), so fleet engines live behind a mutex and
/// this shim forwards the [`SyscallInterceptor`] surface through it.
#[derive(Debug)]
struct SharedEngine(Arc<Mutex<FlowGuardEngine>>);

impl SyscallInterceptor for SharedEngine {
    fn protects(&self, cr3: u64) -> bool {
        self.0.lock().protects(cr3)
    }

    fn is_sensitive(&self, nr: Sysno) -> bool {
        self.0.lock().is_sensitive(nr)
    }

    fn check(&mut self, nr: Sysno, ctx: &mut fg_cpu::machine::SyscallCtx<'_>) -> InterceptVerdict {
        self.0.lock().check(nr, ctx)
    }

    fn on_pmi(&mut self, ctx: &mut fg_cpu::machine::SyscallCtx<'_>) -> InterceptVerdict {
        self.0.lock().on_pmi(ctx)
    }

    fn on_trace_poll(&mut self, ctx: &mut fg_cpu::machine::SyscallCtx<'_>) {
        self.0.lock().on_trace_poll(ctx);
    }
}

/// One protected process under fleet supervision.
#[derive(Debug)]
pub struct FleetMember {
    /// Fleet process id (index into the member table).
    pub pid: u64,
    /// The process CR3 (`DEFAULT_CR3 + pid * 0x1000`; member 0 matches the
    /// solo launch path exactly).
    pub cr3: u64,
    /// Display name (workload label).
    pub name: String,
    /// Content hash of the protected image (artifact-cache key).
    pub image_hash: u64,
    /// The core this member is pinned to.
    pub core: usize,
    /// Shared engine telemetry.
    pub stats: Arc<EngineTelemetry>,
    /// How the process stopped, once it has.
    pub stop: Option<StopReason>,
    machine: Machine,
    kernel: Kernel,
    engine: Arc<Mutex<FlowGuardEngine>>,
}

impl FleetMember {
    /// Whether a CFI violation was detected.
    pub fn violated(&self) -> bool {
        self.kernel.violated()
    }

    /// Instructions retired so far.
    pub fn insns_retired(&self) -> u64 {
        self.machine.insns_retired
    }
}

/// One simulated core: a multi-CR3 trace unit handed to whichever member
/// runs, plus the identity of the last member (to detect context switches).
#[derive(Debug)]
struct CoreState {
    /// Parked between slices; `None` only while a member runs.
    unit: Option<MultiIptUnit>,
    last_pid: Option<u64>,
}

/// Per-process rollup inside a [`FleetSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProcessSnapshot {
    /// Fleet process id.
    pub pid: u64,
    /// Display name.
    pub name: String,
    /// Content hash of the protected image.
    pub image_hash: u64,
    /// Process CR3.
    pub cr3: u64,
    /// Instructions retired.
    pub insns_retired: u64,
    /// Whether a violation was detected.
    pub violated: bool,
    /// Stop reason, if stopped (`Debug` rendering).
    pub stop: Option<String>,
    /// Full per-engine telemetry.
    pub telemetry: TelemetrySnapshot,
}

/// The fleet-level telemetry rollup.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Whether the multi-CR3 filter was in use.
    pub multi_cr3: bool,
    /// Per-process rollups, pid order.
    pub processes: Vec<ProcessSnapshot>,
    /// Artifact-cache statistics.
    pub cache: ArtifactCacheStats,
    /// Scheduler statistics.
    pub scheduler: SchedulerStats,
    /// Context switches performed by the supervisor.
    pub switches: u64,
    /// Cycles spent re-programming the trace filter (zero under multi-CR3).
    pub reconfig_cycles: f64,
    /// Total endpoint checks across the fleet.
    pub checks_total: u64,
    /// Total violations across the fleet.
    pub violations_total: u64,
    /// Fleet-wide check-latency distribution: every member's cumulative
    /// bucket histogram merged (the fixed bucket boundaries make per-process
    /// histograms addable).
    pub check_latency: HistogramSnapshot,
}

/// Supervises N protected processes: spawns them through the shared
/// artifact cache, time-slices them over the simulated cores with per-CR3
/// tracing, and multiplexes their deferred background drains onto the
/// shared worker pool between slices.
#[derive(Debug)]
pub struct FleetSupervisor {
    cfg: FleetConfig,
    cache: ArtifactCache,
    scheduler: Arc<FleetScheduler>,
    members: Vec<FleetMember>,
    cores: Vec<CoreState>,
    switches: u64,
    reconfig_cycles: f64,
}

/// Largest deferred-drain batch executed per inter-slice pass.
const DRAIN_BATCH: usize = 4096;

impl FleetSupervisor {
    /// Creates an empty fleet.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.cores` is zero.
    pub fn new(cfg: FleetConfig) -> FleetSupervisor {
        assert!(cfg.cores > 0, "a fleet needs at least one core");
        let scheduler = Arc::new(FleetScheduler::new(cfg.queue_depth));
        let cores = (0..cfg.cores)
            .map(|_| CoreState { unit: Some(MultiIptUnit::new()), last_pid: None })
            .collect();
        FleetSupervisor {
            cfg,
            cache: ArtifactCache::new(),
            scheduler,
            members: Vec::new(),
            cores,
            switches: 0,
            reconfig_cycles: 0.0,
        }
    }

    /// Spawns a protected instance of `image`, deploying (analyse → train
    /// on `corpus` → verify) through the artifact cache on first sight and
    /// sharing the cached artifact afterwards. Returns the member pid.
    ///
    /// # Errors
    ///
    /// Returns the verifier's report when the image's artifact fails the
    /// admission gate.
    pub fn spawn(
        &mut self,
        name: &str,
        image: &Image,
        corpus: &[Vec<u8>],
        input: &[u8],
    ) -> Result<u64, Arc<fg_verify::Report>> {
        let d = self.cache.deploy(image, corpus)?;
        Ok(self.attach(name, &d, input))
    }

    /// Spawns a protected instance of a pre-built deployment (e.g. loaded
    /// from a saved artifact), admitting it through the cache's
    /// verification gate.
    ///
    /// # Errors
    ///
    /// Returns the verifier's report when the deployment fails admission.
    pub fn spawn_deployment(
        &mut self,
        name: &str,
        d: Deployment,
        input: &[u8],
    ) -> Result<u64, Arc<fg_verify::Report>> {
        let d = self.cache.admit(d)?;
        Ok(self.attach(name, &d, input))
    }

    fn attach(&mut self, name: &str, d: &Arc<Deployment>, input: &[u8]) -> u64 {
        let pid = self.members.len() as u64;
        let cr3 = DEFAULT_CR3 + pid * 0x1000;
        let core = usize::try_from(pid).expect("fleet fits usize") % self.cores.len();

        let (mut engine, stats) = d.engine(self.cfg.flowguard.clone(), cr3);
        engine.set_cost_model(self.cfg.cost);
        engine.set_fleet(Arc::clone(&self.scheduler), pid);
        let engine = Arc::new(Mutex::new(engine));

        let mut machine = Machine::new(&d.image, cr3);
        machine.cost = self.cfg.cost;
        machine.set_trace_poll_period(self.cfg.flowguard.trace_poll_period());

        let mut kernel = Kernel::with_input(input);
        kernel.install_interceptor(Box::new(SharedEngine(Arc::clone(&engine))));

        // Admit the process into its core's trace filter and PSB+-sync its
        // per-CR3 sub-buffer at the image entry — the same start the solo
        // launch path performs.
        let unit = self.cores[core].unit.as_mut().expect("unit parked between slices");
        let topa = Topa::two_regions(self.cfg.flowguard.topa_region_bytes).expect("valid ToPA");
        assert!(unit.admit(cr3, topa), "CR3 {cr3:#x} admitted once");
        unit.unit_mut(cr3).expect("just admitted").start(d.image.entry(), cr3);
        self.scheduler.set_priority(pid, 1);

        self.members.push(FleetMember {
            pid,
            cr3,
            name: name.to_owned(),
            image_hash: image_hash(&d.image),
            core,
            stats,
            stop: None,
            machine,
            kernel,
            engine,
        });
        pid
    }

    /// Runs one time slice of member `pid`. Returns `true` while the member
    /// is still runnable.
    fn slice(&mut self, idx: usize) -> bool {
        let m = &mut self.members[idx];
        if m.stop.is_some() {
            return false;
        }
        let core = &mut self.cores[m.core];
        let mut unit = core.unit.take().expect("unit parked between slices");
        if core.last_pid != Some(m.pid) {
            self.switches += 1;
            if self.cfg.multi_cr3 {
                // Suggested hardware: the filter admits every member, each
                // CR3 owns a ToPA sub-buffer — switching selects it. No
                // flush, no MSR rewrite, no re-sync: the incoming process's
                // packet stream continues exactly as if it ran alone.
                assert!(unit.set_current(m.cr3), "member admitted at spawn");
            } else {
                // Stock hardware (§7.2.4): one CR3 filter slot. Flush the
                // incoming process's stale stream, re-program the MSR,
                // re-sync with a fresh PSB+ at its current pc, and charge
                // the reconfiguration cost.
                assert!(unit.restrict_to(m.cr3), "member admitted at spawn");
                let u = unit.unit_mut(m.cr3).expect("member admitted at spawn");
                u.flush();
                u.start(m.machine.cpu.pc, m.cr3);
                self.reconfig_cycles += self.cfg.cost.trace_reconfig_cycles;
            }
            core.last_pid = Some(m.pid);
        }
        m.machine.trace = TraceUnit::MultiIpt(unit);
        let stop = m.machine.run(&mut m.kernel, self.cfg.slice_insns);
        m.stats.health_tick();
        let TraceUnit::MultiIpt(unit) = std::mem::take(&mut m.machine.trace) else {
            unreachable!("unit was installed above")
        };
        core.unit = Some(unit);
        match stop {
            StopReason::InsnLimit => {
                if m.machine.insns_retired >= self.cfg.run_budget_insns {
                    m.stop = Some(StopReason::InsnLimit);
                    return false;
                }
                true
            }
            other => {
                m.stop = Some(other);
                false
            }
        }
    }

    /// Executes the scheduler's next deferred-drain batch on the shared
    /// worker pool: one `fleet_drain` per member with pending work, all
    /// members' drains multiplexed into a single pool dispatch. Requests for
    /// the same member collapse (a drain consumes the whole residue), but
    /// every queued job is accounted as executed.
    fn drain_scheduled(&mut self) {
        let batch = self.scheduler.take_batch(DRAIN_BATCH);
        if batch.is_empty() {
            return;
        }
        let mut pids: Vec<u64> = batch.iter().map(|&(pid, _)| pid).collect();
        pids.sort_unstable();
        pids.dedup();
        let members = &self.members;
        let cores = &self.cores;
        let mut guards = Vec::with_capacity(pids.len());
        let mut units: Vec<&IptUnit> = Vec::with_capacity(pids.len());
        for &pid in &pids {
            let m = &members[usize::try_from(pid).expect("fleet fits usize")];
            let unit = cores[m.core]
                .unit
                .as_ref()
                .expect("units are parked between slices")
                .unit(m.cr3)
                .expect("member admitted at spawn");
            guards.push(m.engine.lock());
            units.push(unit);
        }
        let tasks: Vec<_> = guards
            .iter_mut()
            .zip(units)
            .map(|(g, unit)| {
                let eng: &mut FlowGuardEngine = &mut *g;
                move || eng.fleet_drain(unit)
            })
            .collect();
        crate::pool::WorkerPool::global().run(tasks);
        drop(guards);
        self.scheduler.mark_executed(batch.len() as u64);
    }

    /// Runs the whole fleet to completion: round-robin time slices over the
    /// members, a deferred-drain batch after every slice, until every
    /// member has stopped (or exhausted its instruction budget).
    pub fn run(&mut self) {
        loop {
            let mut any = false;
            for idx in 0..self.members.len() {
                if self.members[idx].stop.is_none() {
                    self.slice(idx);
                    any = true;
                    self.drain_scheduled();
                }
            }
            if !any {
                break;
            }
        }
        // Drains queued by the final slices.
        while self.scheduler.pending() > 0 {
            self.drain_scheduled();
        }
    }

    /// The members, pid order.
    pub fn members(&self) -> &[FleetMember] {
        &self.members
    }

    /// The shared scheduler.
    pub fn scheduler(&self) -> &Arc<FleetScheduler> {
        &self.scheduler
    }

    /// Artifact-cache statistics.
    pub fn cache_stats(&self) -> ArtifactCacheStats {
        self.cache.stats()
    }

    /// Context switches performed.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Cycles charged for trace-filter reconfiguration (zero under
    /// multi-CR3).
    pub fn reconfig_cycles(&self) -> f64 {
        self.reconfig_cycles
    }

    /// Sums of executed cycles and trace cycles across all members — the
    /// denominators of the fleet overhead figure.
    pub fn cycle_totals(&self) -> (f64, f64) {
        let exec: f64 = self.members.iter().map(|m| m.machine.account.exec).sum();
        let trace: f64 = self.members.iter().map(|m| m.machine.account.trace).sum();
        (exec, trace)
    }

    /// The merged fleet-wide check-latency histogram (live; fixed bucket
    /// boundaries make the per-process histograms addable).
    pub fn merged_check_latency(&self) -> Histogram {
        let merged = Histogram::new();
        for m in &self.members {
            merged.merge_from(m.stats.check_latency_hist());
        }
        merged
    }

    /// Takes the full fleet telemetry rollup.
    pub fn snapshot(&self) -> FleetSnapshot {
        let processes: Vec<ProcessSnapshot> = self
            .members
            .iter()
            .map(|m| ProcessSnapshot {
                pid: m.pid,
                name: m.name.clone(),
                image_hash: m.image_hash,
                cr3: m.cr3,
                insns_retired: m.machine.insns_retired,
                violated: m.violated(),
                stop: m.stop.map(|s| format!("{s:?}")),
                telemetry: m.stats.telemetry_snapshot(),
            })
            .collect();
        let checks_total = processes.iter().map(|p| p.telemetry.checks).sum();
        let violations_total = processes.iter().map(|p| p.telemetry.violations_total).sum();
        FleetSnapshot {
            multi_cr3: self.cfg.multi_cr3,
            cache: self.cache.stats(),
            scheduler: self.scheduler.stats(),
            switches: self.switches,
            reconfig_cycles: self.reconfig_cycles,
            checks_total,
            violations_total,
            check_latency: self.merged_check_latency().snapshot(),
            processes,
        }
    }

    /// Renders the fleet rollup as a Prometheus text exposition: fleet
    /// totals, the mergeable fleet-wide latency histogram, and per-process
    /// counter families labelled `process="<name>-<pid>"` for a fleet
    /// scraper to aggregate or slice.
    pub fn prometheus_text(&self) -> String {
        let snap = self.snapshot();
        let mut p = PromText::new();
        p.counter("fg_fleet_processes_total", "Protected processes supervised", {
            snap.processes.len() as u64
        })
        .counter("fg_fleet_checks_total", "Endpoint checks across the fleet", snap.checks_total)
        .counter(
            "fg_fleet_violations_total",
            "CFI violations detected across the fleet",
            snap.violations_total,
        )
        .counter(
            "fg_fleet_context_switches_total",
            "Context switches performed by the supervisor",
            snap.switches,
        )
        .gauge(
            "fg_fleet_trace_reconfig_cycles",
            "Cycles spent re-programming the CR3 trace filter (zero under multi-CR3)",
            snap.reconfig_cycles,
        )
        .counter(
            "fg_fleet_artifact_cache_hits_total",
            "Deployment lookups served from the artifact cache",
            snap.cache.hits,
        )
        .counter(
            "fg_fleet_artifact_cache_misses_total",
            "Deployment lookups that built a fresh artifact",
            snap.cache.misses,
        )
        .counter(
            "fg_fleet_artifact_cache_rejections_total",
            "Deployments refused by the verification gate",
            snap.cache.rejections,
        )
        .gauge(
            "fg_fleet_artifact_cache_hit_ratio",
            "Fraction of deployment lookups served from the cache",
            snap.cache.hit_rate(),
        )
        .counter(
            "fg_fleet_sched_checks_total",
            "Checks admitted through the fleet scheduler",
            snap.scheduler.checks_admitted,
        )
        .counter(
            "fg_fleet_sched_drains_total",
            "Background drains enqueued for deferred execution",
            snap.scheduler.drains_enqueued,
        )
        .counter(
            "fg_fleet_sched_executed_total",
            "Deferred jobs executed in supervisor batches",
            snap.scheduler.executed,
        )
        .counter(
            "fg_fleet_sched_shed_inline_total",
            "Jobs shed to synchronous inline execution under backpressure",
            snap.scheduler.shed_inline,
        )
        .counter(
            "fg_fleet_dropped_checks_total",
            "Checks or drains dropped by the scheduler (invariant: zero)",
            snap.scheduler.dropped,
        )
        .gauge(
            "fg_fleet_sched_max_queue_entries",
            "Deepest any per-process drain queue ever got",
            #[allow(clippy::cast_precision_loss)]
            {
                snap.scheduler.max_queue_depth as f64
            },
        );
        let merged = self.merged_check_latency();
        p.histogram(
            "fg_fleet_check_latency_cycles",
            "Fleet-wide distribution of per-check total cycles",
            &merged.cumulative_buckets(),
            merged.sum(),
            merged.count(),
        );
        // Per-process families, labelled for slicing by a fleet scraper.
        let labels: Vec<String> =
            snap.processes.iter().map(|pr| format!("{}-{}", pr.name, pr.pid)).collect();
        #[allow(clippy::cast_precision_loss)]
        let series = |f: &dyn Fn(&ProcessSnapshot) -> f64| -> Vec<(&str, f64)> {
            labels.iter().map(String::as_str).zip(snap.processes.iter().map(f)).collect()
        };
        #[allow(clippy::cast_precision_loss)]
        p.labeled_counter(
            "fg_process_checks_total",
            "Endpoint checks per protected process",
            "process",
            &series(&|pr| pr.telemetry.checks as f64),
        )
        .labeled_counter(
            "fg_process_violations_total",
            "CFI violations per protected process",
            "process",
            &series(&|pr| pr.telemetry.violations_total as f64),
        )
        .labeled_counter(
            "fg_process_stream_drains_total",
            "Background stream drains per protected process",
            "process",
            &series(&|pr| pr.telemetry.stream_drains as f64),
        )
        .labeled_counter(
            "fg_process_consumer_drains_total",
            "Dedicated-consumer drains per protected process",
            "process",
            &series(&|pr| pr.telemetry.consumer_drains as f64),
        )
        .labeled_counter(
            "fg_process_consumer_drained_bytes_total",
            "Bytes drained by dedicated consumers per protected process",
            "process",
            &series(&|pr| pr.telemetry.consumer_drained_bytes as f64),
        )
        .labeled_counter(
            "fg_process_sched_deferred_total",
            "Poll-slot drains deferred onto the fleet scheduler per process",
            "process",
            &series(&|pr| pr.telemetry.sched_deferred_drains as f64),
        )
        .labeled_counter(
            "fg_process_insns_total",
            "Instructions retired per protected process",
            "process",
            &series(&|pr| pr.insns_retired as f64),
        );
        p.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet_cfg(n: usize, cfg: FleetConfig) -> FleetSupervisor {
        let w = fg_workloads::nginx_patched();
        cfg.flowguard.validate();
        let mut fleet = FleetSupervisor::new(cfg);
        for _ in 0..n {
            fleet
                .spawn("nginx", &w.image, std::slice::from_ref(&w.default_input), &w.default_input)
                .expect("admitted");
        }
        fleet
    }

    fn small_fleet(n: usize, multi_cr3: bool) -> FleetSupervisor {
        small_fleet_cfg(n, FleetConfig { multi_cr3, ..FleetConfig::default() })
    }

    #[test]
    fn fleet_runs_members_to_clean_exit() {
        let mut fleet = small_fleet(3, true);
        fleet.run();
        for m in fleet.members() {
            assert_eq!(m.stop, Some(StopReason::Exited(0)), "member {} exits clean", m.pid);
            assert!(!m.violated());
            assert!(m.stats.snapshot().checks > 0, "member {} was checked", m.pid);
        }
        // Three instances of one binary: one miss, two cache hits.
        let cs = fleet.cache_stats();
        assert_eq!((cs.hits, cs.misses), (2, 1));
        // Member 0 occupies the solo CR3.
        assert_eq!(fleet.members()[0].cr3, DEFAULT_CR3);
    }

    #[test]
    fn deferred_drains_all_execute() {
        let mut cfg = FleetConfig::default();
        cfg.flowguard.streaming = true;
        let mut fleet = small_fleet_cfg(2, cfg);
        fleet.run();
        let st = fleet.scheduler().stats();
        assert!(st.drains_enqueued > 0, "streaming fleet defers poll-slot drains");
        assert_eq!(st.executed, st.drains_enqueued, "every deferred job ran");
        assert_eq!(st.dropped, 0);
        assert_eq!(fleet.scheduler().pending(), 0);
        let snap = fleet.snapshot();
        let deferred: u64 = snap.processes.iter().map(|p| p.telemetry.sched_deferred_drains).sum();
        assert_eq!(deferred, st.drains_enqueued, "engine and scheduler agree");
    }

    #[test]
    fn single_cr3_mode_charges_reconfig() {
        let mut multi = small_fleet(2, true);
        multi.run();
        let mut single = small_fleet(2, false);
        single.run();
        assert_eq!(multi.reconfig_cycles(), 0.0, "multi-CR3 switches are free");
        assert!(single.reconfig_cycles() > 0.0, "single-CR3 switches pay");
        assert!(multi.switches() > 0);
        for f in [&multi, &single] {
            for m in f.members() {
                assert_eq!(m.stop, Some(StopReason::Exited(0)));
                assert!(!m.violated(), "enforcement stays sound in both filter modes");
            }
        }
    }

    #[test]
    fn prometheus_exposition_is_lint_clean() {
        let mut fleet = small_fleet(2, true);
        fleet.run();
        let text = fleet.prometheus_text();
        let problems = fg_trace::export::lint(&text);
        assert!(problems.is_empty(), "lint: {problems:?}");
        assert!(text.contains("fg_fleet_checks_total"));
        assert!(text.contains("fg_fleet_dropped_checks_total 0"));
        assert!(text.contains("fg_process_checks_total{process=\"nginx-0\"}"));
        assert!(text.contains("fg_process_checks_total{process=\"nginx-1\"}"));
        assert!(text.contains("fg_fleet_check_latency_cycles_bucket"));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut fleet = small_fleet(2, true);
        fleet.run();
        let snap = fleet.snapshot();
        let json = serde_json::to_string(&snap).expect("serialises");
        let back: FleetSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.processes.len(), 2);
        assert_eq!(back.checks_total, snap.checks_total);
        assert_eq!(back.scheduler, snap.scheduler);
        assert_eq!(back.check_latency, snap.check_latency);
    }
}
