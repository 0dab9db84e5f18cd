//! The metric registry and the report every run prints.
//!
//! Each metric names its *currency*: **host** figures are wall-clock time
//! on the machine running the benchmark; **modeled** figures are cycles of
//! `fg-cpu`'s calibrated cost model; **count** figures are exact counts (or
//! ratios of counts) that repeat bit-for-bit for a given seed. The
//! registry is the single source of truth for names, units, currencies,
//! directions and which end-to-end metric each per-layer metric should
//! move; `BENCHMARK.json` lists the same names and units, and the
//! benchmark's self-test keeps the two in agreement.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a metric's number is measured in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Currency {
    /// Wall-clock time on the host.
    Host,
    /// Cycles of the `fg-cpu` cost model.
    Modeled,
    /// Exact counts, or ratios of counts.
    Count,
}

impl Currency {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Currency::Host => "host",
            Currency::Modeled => "modeled",
            Currency::Count => "count",
        }
    }
}

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Currency.
    pub currency: Currency,
    /// Improvement direction.
    pub better: Better,
    /// What the metric means, and (for per-layer metrics) which end-to-end
    /// metric it should move on which workload.
    pub about: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    currency: Currency,
    better: Better,
    about: &'static str,
) -> MetricDef {
    MetricDef { name, unit, currency, better, about }
}

use Better::{Higher, Lower};
use Currency::{Count, Host, Modeled};

/// End-to-end metrics, printed by the untraced run of every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Host, Lower,
        "deploy time, median of several deploys: analyze + train + verify (fleet: the artifact-cache deploys inside spawn)"),
    m("slowdown", "ratio", Host, Lower,
        "protected / unprotected host time on the same input (Fig. 5 in host currency); the emulator sits in the \
         denominator, so a change slowing Machine::run for both sides alike lowers it: read it with requests_per_s"),
    m("requests_per_s", "1/s", Host, Higher,
        "benign requests completed per second of protected host time"),
    m("check_p50_us", "us", Host, Lower,
        "median wall time of SyscallInterceptor::check, the wait of a sensitive syscall for its verdict"),
    m("check_p99_us", "us", Host, Lower,
        "p99 wall time of SyscallInterceptor::check (the sample count and the samples beyond it are printed)"),
    m("modeled_overhead_pct", "%", Modeled, Lower,
        "cost-model overhead of the protected run, CycleAccount::overhead (Fig. 5 in the paper's currency)"),
    m("modeled_check_p99_kcycles", "kcycles", Modeled, Lower,
        "p99 of EngineTelemetry::check_latency_hist (fleet: FleetSupervisor::merged_check_latency)"),
];

/// Per-layer metrics, printed by the traced run of every workload.
pub const PER_LAYER: &[MetricDef] = &[
    // fg-cfg / fg-fuzz / fg-verify / fleet::artifacts
    m("cfg.analyze_s", "s", Host, Lower, "Deployment::analyze; moves setup_s on all workloads"),
    m("fuzz.train_s", "s", Host, Lower, "Deployment::train; moves setup_s on all workloads"),
    m("fuzz.edges_labeled", "count", Count, Higher, "ITC edges the training labeled; moves setup_s"),
    m("verify.verify_s", "s", Host, Lower, "Deployment::verify; moves setup_s on all workloads"),
    m("artifacts.hit_rate", "ratio", Count, Higher,
        "artifact-cache hit rate of the fleet's spawns (0 for solo workloads); moves setup_s on fleet"),
    // fg-cpu emulator
    m("cpu.ns_per_kinsn", "ns", Host, Lower,
        "host ns per 1000 instructions of the unprotected twin; moves requests_per_s up and slowdown the other way"),
    m("cpu.insns_per_request", "count", Count, Lower, "instructions retired per request; moves requests_per_s"),
    m("cpu.self_share", "ratio", Host, Lower,
        "(Machine::run span - interceptor spans) / protected host time; moves requests_per_s"),
    // trace encode: fg-cpu IptUnit + fg-ipt encode/ToPA
    m("ipt.encode_share", "ratio", Host, Lower,
        "(traced-only twin - unprotected twin) / unprotected twin; moves slowdown on steady and sessions"),
    m("ipt.encode_ns_per_kib", "ns", Host, Lower,
        "host ns of trace encoding per KiB of trace; moves slowdown on steady and sessions"),
    m("ipt.trace_bytes_per_request", "B", Count, Lower, "trace bytes emitted per request; moves slowdown"),
    // fg-kernel dispatch
    m("kernel.check_calls", "count", Count, Lower, "SyscallInterceptor::check calls; moves slowdown"),
    m("kernel.pmi_calls", "count", Count, Lower, "SyscallInterceptor::on_pmi calls; moves slowdown"),
    m("kernel.poll_calls", "count", Count, Lower,
        "SyscallInterceptor::on_trace_poll calls; moves slowdown on steady and fleet"),
    m("kernel.poll_ns_per_call", "ns", Host, Lower,
        "host ns per on_trace_poll call; moves slowdown on steady and fleet"),
    // flowguard fast path
    m("fastpath.check_ns_p50", "ns", Host, Lower, "median host ns of fast-path checks; moves check_p50_us on steady"),
    m("fastpath.check_ns_p99", "ns", Host, Lower, "p99 host ns of fast-path checks; moves check_p50_us on steady"),
    m("fastpath.bytes_scanned_per_check", "B", Count, Lower,
        "trace bytes scanned per check; moves check_p50_us and modeled_check_p99_kcycles on steady"),
    m("fastpath.pairs_per_check", "count", Count, Lower, "TIP pairs checked per check; moves check_p50_us on steady"),
    m("fastpath.edge_cache_hit_rate", "ratio", Count, Higher, "edge-cache hit rate; moves check_p50_us on steady"),
    m("fastpath.credited_fraction", "ratio", Count, Higher,
        "credited pairs / checked pairs; moves check_p50_us and modeled_check_p99_kcycles"),
    m("fastpath.tier0_hits", "count", Count, Lower, "tier-0 bitset probes passed; moves check_p50_us on steady"),
    m("fastpath.cold_restarts", "count", Count, Lower, "scanner cold PSB restarts; moves check_p50_us on steady"),
    m("fastpath.ns_per_modeled_kcycle", "ns", Host, Lower,
        "host ns of fast-path checks per modeled kcycle of them: the model-vs-host reconciliation of the fast path"),
    // flowguard slow path
    m("slowpath.invocations", "count", Count, Lower, "checks escalated to the slow path; moves check_p99_us on sessions"),
    m("slowpath.fraction", "ratio", Count, Lower, "escalated checks / checks; moves check_p99_us on sessions"),
    m("slowpath.check_ns_p50", "ns", Host, Lower, "median host ns of escalated checks; moves check_p99_us on sessions"),
    m("slowpath.check_ns_p99", "ns", Host, Lower, "p99 host ns of escalated checks; moves check_p99_us on sessions"),
    m("slowpath.insns_decoded_per_invocation", "count", Count, Lower,
        "instructions the slow path decoded per escalation; moves check_p99_us on sessions"),
    m("slowpath.shards_per_invocation", "count", Count, Lower,
        "PSB shards per slow-path decode; moves check_p99_us on sessions"),
    m("slowpath.checkpoint_hit_rate", "ratio", Count, Higher,
        "slow-path decodes resumed from a checkpoint; moves check_p99_us on sessions"),
    m("slowpath.result_cache_size", "count", Count, Higher,
        "slow-path result-cache entries at exit (sessions: summed over sessions); moves check_p99_us"),
    m("slowpath.ns_per_modeled_kcycle", "ns", Host, Lower,
        "host ns of escalated checks per modeled kcycle of them: the model-vs-host reconciliation of the slow path"),
    // violation path
    m("violation.check_ns", "ns", Host, Lower,
        "median host ns of checks that detected a violation; moves check_p99_us on sessions"),
    m("violation.flight_records", "count", Count, Higher,
        "flight records captured; every detected violation should leave one; guards failed_fraction on sessions"),
    // engine totals: modeled cycles from EngineStats beside the host spans
    m("engine.decode_kcycles", "kcycles", Modeled, Lower, "EngineStats::decode_cycles per round / 1000"),
    m("engine.check_kcycles", "kcycles", Modeled, Lower, "EngineStats::check_cycles per round / 1000"),
    m("engine.other_kcycles", "kcycles", Modeled, Lower, "EngineStats::other_cycles per round / 1000"),
    m("engine.modeled_check_p50_kcycles", "kcycles", Modeled, Lower, "p50 of check_latency_hist"),
    m("engine.interceptor_ms", "ms", Host, Lower, "host ms inside the interceptor per round (checks + PMIs + polls)"),
    m("engine.ns_per_modeled_kcycle", "ns", Host, Lower,
        "host ns inside the interceptor per modeled kcycle of decode + check + other"),
    // streaming consumer + fleet scheduler
    m("consumer.drains", "count", Count, Lower, "background stream drains; moves slowdown and requests_per_s on fleet"),
    m("consumer.drained_kib", "KiB", Count, Lower, "KiB drained in the background; moves slowdown on fleet"),
    m("consumer.copied_bytes_per_kib", "B/KiB", Count, Lower,
        "bytes the drain path copied per drained KiB; moves slowdown on fleet"),
    m("fleet.drains_enqueued", "count", Count, Higher,
        "poll-slot drains deferred onto the scheduler; moves slowdown and requests_per_s on fleet"),
    m("fleet.shed_inline", "count", Count, Lower,
        "drains shed to inline execution at a full queue; moves slowdown and requests_per_s on fleet"),
    m("fleet.shed_fraction", "ratio", Count, Lower, "shed / (shed + enqueued); moves slowdown on fleet"),
    m("fleet.dropped", "count", Count, Lower, "jobs dropped by the scheduler (must stay 0)"),
    m("fleet.switches", "count", Count, Lower, "context switches; moves slowdown on fleet"),
    // the traced run itself
    m("trace.overhead_pct", "%", Host, Lower,
        "host time of the traced protected process over an untraced one run in the same lockstep"),
    m("trace.coverage", "ratio", Host, Higher,
        "(unprotected twin + twin-derived encode + interceptor spans) / protected host time"),
];

/// Looks a metric up in both tables.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// What one run measured, plus its correctness verdict.
#[derive(Debug, Default)]
pub struct Report {
    /// The workload.
    pub workload: String,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Operations attempted (benign requests plus hostile sessions; fleet
    /// and scheduler invariants count as one operation each).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Free-form lines printed above the metrics (sample counts,
    /// reconciliation, knobs).
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &str, traced: bool) -> Report {
        Report { workload: workload.to_owned(), traced, ..Report::default() }
    }

    /// Records a metric value.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the registry.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "unregistered metric {name}");
        self.values.insert(name, value);
    }

    /// Counts one attempted operation, failing it with `why` unless `ok`.
    pub fn expect(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.expect_n(1, ok, why);
    }

    /// Counts `n` attempted operations that stand or fall together (the
    /// requests of one process), failing all of them with `why` unless `ok`.
    pub fn expect_n(&mut self, n: u64, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += n;
        if !ok {
            self.failed += n;
            self.failures.push(why());
        }
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The metrics this run must print: the end-to-end table untraced, the
    /// per-layer table traced.
    pub fn expected(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Whether every operation succeeded and every expected metric is
    /// present and finite.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self
                .expected()
                .iter()
                .all(|d| self.values.get(d.name).is_some_and(|v| v.is_finite()))
    }

    /// `failed / attempted`.
    pub fn failed_fraction(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The human-readable lines: notes, failures, then every expected
    /// metric with its unit and currency.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let mode = if self.traced { "traced (per-layer)" } else { "end-to-end" };
        let _ = writeln!(out, "workload {} — {mode} run", self.workload);
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        let _ = writeln!(
            out,
            "  {:<40} {:>16} {:<8} [count]  ({} of {} operations failed)",
            "failed_fraction",
            format!("{:.6}", self.failed_fraction()),
            "ratio",
            self.failed,
            self.attempted
        );
        for d in self.expected() {
            let v = self.values.get(d.name).copied().unwrap_or(f64::NAN);
            let _ = writeln!(
                out,
                "  {:<40} {:>16} {:<8} [{}]",
                d.name,
                format!("{v:.4}"),
                d.unit,
                d.currency.label()
            );
        }
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// expected metrics with their units. Non-finite values are left out
    /// (and make `correct` false).
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for d in self.expected() {
            let Some(v) = self.values.get(d.name).filter(|v| v.is_finite()) else { continue };
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(metrics, "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit);
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
        )
    }
}
