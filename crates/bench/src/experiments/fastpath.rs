//! **Fast-path micro-benchmarks** — scan throughput, edge-lookup latency,
//! endpoint-check latency, and the checkpointed consumer's bytes-per-check.
//!
//! Beyond the paper's simulated cycle accounting, this experiment measures
//! the *harness's own* fast-path hot loops in wall-clock time and emits the
//! numbers as `BENCH_fastpath.json`, which CI tracks against a checked-in
//! baseline. Hardware-independent figures (bytes scanned per check, CSR vs.
//! BTreeMap lookup speedup, edge-cache hit rate) are the regression-gated
//! metrics; the absolute throughputs are informational.

use crate::table::{fmt, Table};
use fg_cfg::EdgeIdx;
use fg_cpu::CostModel;
use fg_cpu::{IptUnit, Machine, TraceUnit};
use fg_ipt::topa::Topa;
use fg_ipt::{fast, StreamConsumer};
use fg_trace::{HistogramSnapshot, PhaseSpan};
use flowguard::{fastpath, CheckScratch, FlowGuardConfig};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// The default artifact file name.
pub const JSON_PATH: &str = "BENCH_fastpath.json";

/// One full measurement, serialised as `BENCH_fastpath.json`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FastpathBench {
    /// Serial packet-scan throughput, MiB of trace per second.
    pub scan_mib_per_sec: f64,
    /// TIP pairs checked per second through the windowed fast path.
    pub pairs_per_sec: f64,
    /// One ITC-CFG edge lookup through the interned CSR tables, in ns.
    pub edge_lookup_ns: f64,
    /// The same lookups through a `BTreeMap<(u64, u64), EdgeIdx>` — the
    /// pre-interning representation, kept as the comparison baseline.
    pub edge_lookup_ns_btreemap: f64,
    /// `edge_lookup_ns_btreemap / edge_lookup_ns` (higher is better).
    pub edge_lookup_speedup: f64,
    /// One windowed endpoint check (scan already advanced), in ns.
    pub endpoint_check_ns: f64,
    /// Mean trace bytes scanned per endpoint check by the checkpointed
    /// consumer (a protected nginx run; lower is better; deterministic,
    /// hardware-independent).
    pub bytes_per_check_incremental: f64,
    /// Direct-mapped edge-cache hit rate over the protected run.
    pub edge_cache_hit_rate: f64,
    /// Distribution of simulated per-check latency (cycles) over the
    /// protected run, from the engine telemetry. `#[serde(default)]` so
    /// baselines written before these columns existed still parse.
    #[serde(default)]
    pub check_cycles_dist: HistogramSnapshot,
    /// Distribution of simulated fast-path scan cycles per check.
    #[serde(default)]
    pub scan_cycles_dist: HistogramSnapshot,
    /// Distribution of trace bytes scanned per check.
    #[serde(default)]
    pub bytes_per_check_dist: HistogramSnapshot,
}

struct Setup {
    image: fg_isa::image::Image,
    itc: fg_cfg::ItcCfg,
    trace: Vec<u8>,
    scan: fast::FastScan,
}

fn setup() -> Setup {
    let w = fg_workloads::nginx_patched();
    let ocfg = fg_cfg::OCfg::build(&w.image);
    let mut itc = fg_cfg::ItcCfg::build(&ocfg);
    fg_fuzz::train(
        &mut itc,
        &w.image,
        std::slice::from_ref(&w.default_input),
        fg_fuzz::TrainConfig::default(),
    );
    let mut m = Machine::new(&w.image, 0x4000);
    let mut unit = IptUnit::flowguard(0x4000, Topa::two_regions(1 << 22).expect("topa"));
    unit.start(w.image.entry(), 0x4000);
    m.trace = TraceUnit::Ipt(unit);
    let mut k = fg_kernel::Kernel::with_input(&w.default_input);
    m.run(&mut k, 100_000_000);
    m.trace.as_ipt_mut().expect("ipt").flush();
    let trace = m.trace.as_ipt().expect("ipt").trace_bytes();
    let scan = fast::scan(&trace).expect("scan");
    Setup { image: w.image.clone(), itc, trace, scan }
}

/// Times `iters` runs of `f` in 5 blocks and returns seconds per run of the
/// fastest block — the best-of-N convention for micro-timings, insensitive
/// to scheduler noise that would make ratio metrics flap in CI.
fn time_per_iter<O>(iters: usize, mut f: impl FnMut() -> O) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

/// A protected nginx run's full telemetry snapshot (drives bytes-per-check,
/// cache hit rate, and the latency-distribution columns).
fn protected_telemetry() -> flowguard::TelemetrySnapshot {
    let w = fg_workloads::nginx_patched();
    let d = crate::measure::trained_deployment(&w);
    let mut p = d.launch(&w.default_input, FlowGuardConfig::default());
    let stop = p.run(crate::measure::BUDGET);
    assert!(matches!(stop, fg_cpu::StopReason::Exited(0)), "benign run must exit: {stop:?}");
    let t = p.stats.telemetry_snapshot();
    assert!(t.checks > 0, "protected run must hit endpoints");
    t
}

/// Runs the whole measurement.
pub fn run() -> FastpathBench {
    let s = setup();
    let mib = s.trace.len() as f64 / (1024.0 * 1024.0);

    let scan_sec = time_per_iter(20, || fast::scan(&s.trace).expect("scan"));

    // Edge lookups: the runtime pair stream, through both representations.
    let pairs: Vec<(u64, u64)> =
        s.scan.tip_ips().windows(2).map(|w| (w[0], w[1])).take(4096).collect();
    let csr_sec =
        time_per_iter(50, || pairs.iter().filter(|&&(f, t)| s.itc.edge(f, t).is_some()).count());
    let map: BTreeMap<(u64, u64), EdgeIdx> =
        s.itc.iter_edges().map(|(f, t, e)| ((f, t), e)).collect();
    let map_sec =
        time_per_iter(50, || pairs.iter().filter(|&&(f, t)| map.contains_key(&(f, t))).count());
    let per_lookup = csr_sec / pairs.len() as f64 * 1e9;
    let per_lookup_map = map_sec / pairs.len() as f64 * 1e9;

    // The windowed check with persistent scratch (the engine's hot loop).
    let cfg = FlowGuardConfig::default();
    let cache = HashSet::new();
    let cost = CostModel::calibrated();
    let mut scratch = CheckScratch::new(&s.image);
    let mut pairs_checked = 0usize;
    let check_sec = time_per_iter(200, || {
        let r = fastpath::check_windowed(
            &s.itc,
            &cache,
            &mut scratch,
            &s.scan,
            &cfg,
            cost.edge_check_cycles,
            false,
            None,
        );
        pairs_checked = r.pairs_checked;
        r
    });

    // Deterministic bytes-per-check figure on a protected run.
    let t = protected_telemetry();
    let lookups = t.edge_cache_hits + t.edge_cache_misses;
    let hit_rate = if lookups == 0 { 0.0 } else { t.edge_cache_hits as f64 / lookups as f64 };

    // One sanity pass of the consumer over the bench trace, so a broken
    // checkpoint path fails the bench loudly rather than silently producing
    // numbers for the wrong code.
    let mut c = StreamConsumer::new();
    c.drain(&[&s.trace], s.trace.len() as u64, usize::MAX, PhaseSpan::FastScan).expect("drain");
    assert_eq!(c.scan().tip_events(), s.scan.tip_events(), "consumer != cold scan");

    FastpathBench {
        scan_mib_per_sec: mib / scan_sec,
        pairs_per_sec: pairs_checked as f64 / check_sec,
        edge_lookup_ns: per_lookup,
        edge_lookup_ns_btreemap: per_lookup_map,
        edge_lookup_speedup: per_lookup_map / per_lookup,
        endpoint_check_ns: check_sec * 1e9,
        bytes_per_check_incremental: t.bytes_scanned as f64 / t.checks as f64,
        edge_cache_hit_rate: hit_rate,
        check_cycles_dist: t.check_latency,
        scan_cycles_dist: t.fastpath_scan_cycles,
        bytes_per_check_dist: t.bytes_per_check,
    }
}

/// Prints the table and writes `BENCH_fastpath.json`.
pub fn print() {
    let b = run();
    print_table(&b);
    match write_json(&b, JSON_PATH) {
        Ok(()) => println!("\nwrote {JSON_PATH}"),
        Err(e) => eprintln!("\nfailed to write {JSON_PATH}: {e}"),
    }
}

/// Prints the metric table for a measurement.
pub fn print_table(b: &FastpathBench) {
    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["serial scan MiB/s".into(), fmt(b.scan_mib_per_sec, 1)]);
    t.row(vec!["pairs checked / s".into(), fmt(b.pairs_per_sec, 0)]);
    t.row(vec!["edge lookup (CSR) ns".into(), fmt(b.edge_lookup_ns, 1)]);
    t.row(vec!["edge lookup (BTreeMap) ns".into(), fmt(b.edge_lookup_ns_btreemap, 1)]);
    t.row(vec!["edge lookup speedup".into(), fmt(b.edge_lookup_speedup, 2)]);
    t.row(vec!["endpoint check ns".into(), fmt(b.endpoint_check_ns, 0)]);
    t.row(vec!["bytes/check".into(), fmt(b.bytes_per_check_incremental, 1)]);
    t.row(vec!["edge-cache hit rate".into(), fmt(b.edge_cache_hit_rate, 3)]);
    let d = &b.check_cycles_dist;
    t.row(vec!["check cycles p50/p90/p99".into(), format!("{}/{}/{}", d.p50, d.p90, d.p99)]);
    let d = &b.bytes_per_check_dist;
    t.row(vec!["bytes/check p50/p90/p99".into(), format!("{}/{}/{}", d.p50, d.p90, d.p99)]);
    t.print("Fast-path micro-benchmarks (BENCH_fastpath.json)");
}

/// Serialises a measurement to `path`.
pub fn write_json(b: &FastpathBench, path: &str) -> std::io::Result<()> {
    let json = serde_json::to_string(b).map_err(std::io::Error::other)?;
    std::fs::write(path, json + "\n")
}

/// Compares `current` against a baseline, returning every metric that
/// regressed by more than `factor`. Only hardware-independent figures are
/// gated: throughput and latency absolutes vary across machines, bytes per
/// check and the ratios do not.
pub fn regressions(current: &FastpathBench, baseline: &FastpathBench, factor: f64) -> Vec<String> {
    let mut out = Vec::new();
    // Lower is better.
    if current.bytes_per_check_incremental > baseline.bytes_per_check_incremental * factor {
        out.push(format!(
            "bytes_per_check_incremental regressed: {:.1} vs baseline {:.1}",
            current.bytes_per_check_incremental, baseline.bytes_per_check_incremental
        ));
    }
    // Higher is better.
    if current.edge_lookup_speedup < baseline.edge_lookup_speedup / factor {
        out.push(format!(
            "edge_lookup_speedup regressed: {:.2} vs baseline {:.2}",
            current.edge_lookup_speedup, baseline.edge_lookup_speedup
        ));
    }
    if current.edge_cache_hit_rate < baseline.edge_cache_hit_rate / factor {
        out.push(format!(
            "edge_cache_hit_rate regressed: {:.3} vs baseline {:.3}",
            current.edge_cache_hit_rate, baseline.edge_cache_hit_rate
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let b = FastpathBench {
            scan_mib_per_sec: 100.0,
            pairs_per_sec: 1e6,
            edge_lookup_ns: 20.0,
            edge_lookup_ns_btreemap: 80.0,
            edge_lookup_speedup: 4.0,
            endpoint_check_ns: 3000.0,
            bytes_per_check_incremental: 120.0,
            edge_cache_hit_rate: 0.9,
            ..Default::default()
        };
        let s = serde_json::to_string(&b).unwrap();
        let r: FastpathBench = serde_json::from_str(&s).unwrap();
        assert!((r.bytes_per_check_incremental - b.bytes_per_check_incremental).abs() < 1e-12);
        assert!(regressions(&b, &b, 2.0).is_empty());
    }

    #[test]
    fn baselines_without_distribution_columns_still_parse() {
        // The checked-in baseline may predate the telemetry columns.
        let old = r#"{"scan_mib_per_sec":1.0,"parallel_scan_mib_per_sec":1.0,
            "pairs_per_sec":1.0,"edge_lookup_ns":1.0,"edge_lookup_ns_btreemap":4.0,
            "edge_lookup_speedup":4.0,"endpoint_check_ns":1.0,
            "bytes_per_check_incremental":1.0,"bytes_per_check_cold":100.0,
            "bytes_per_check_ratio":0.01,"edge_cache_hit_rate":0.8}"#;
        let b: FastpathBench = serde_json::from_str(old).unwrap();
        assert_eq!(b.check_cycles_dist.count, 0);
        assert_eq!(b.bytes_per_check_dist, HistogramSnapshot::default());
    }

    #[test]
    fn regressions_flag_worse_ratios() {
        let base = FastpathBench {
            scan_mib_per_sec: 1.0,
            pairs_per_sec: 1.0,
            edge_lookup_ns: 1.0,
            edge_lookup_ns_btreemap: 4.0,
            edge_lookup_speedup: 4.0,
            endpoint_check_ns: 1.0,
            bytes_per_check_incremental: 1.0,
            edge_cache_hit_rate: 0.8,
            ..Default::default()
        };
        let mut bad = base.clone();
        bad.bytes_per_check_incremental = 5.0;
        bad.edge_lookup_speedup = 1.0;
        let r = regressions(&bad, &base, 2.0);
        assert_eq!(r.len(), 2, "{r:?}");
    }
}
