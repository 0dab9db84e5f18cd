//! **Streaming-pipeline benchmarks** — scalar vs vectorized vs segmented
//! scan throughput, the frontier-compare cost of a fully-drained check, and
//! the residue bytes left for the check path when the background consumer
//! keeps up.
//!
//! Emits `BENCH_streaming.json`, tracked in CI against a checked-in
//! baseline. As with `BENCH_fastpath.json`, absolute throughputs are
//! informational; the gated metrics are same-machine ratios (vectorized
//! speedup over the scalar scanner, segmented vs vectorized) and the
//! deterministic residue distribution of a protected streaming run.

use crate::table::{fmt, Table};
use fg_cpu::{IptUnit, Machine, TraceUnit};
use fg_ipt::topa::Topa;
use fg_ipt::{fast, StreamConsumer};
use fg_trace::{HistogramSnapshot, PhaseSpan};
use flowguard::FlowGuardConfig;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The default artifact file name.
pub const JSON_PATH: &str = "BENCH_streaming.json";

/// One full measurement, serialised as `BENCH_streaming.json`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StreamingBench {
    /// Scalar reference scan throughput, MiB of trace per second.
    pub scan_mib_per_sec: f64,
    /// Vectorized (SWAR + table-driven TNT) scan throughput, MiB/s.
    pub vectorized_scan_mib_per_sec: f64,
    /// `vectorized / scalar` (same machine, same trace; higher is better).
    pub vectorized_speedup: f64,
    /// Cost of the degenerate fully-drained check: one frontier compare
    /// (`StreamConsumer::residue`) in ns.
    pub frontier_compare_ns: f64,
    /// Median residue bytes per endpoint check on a protected streaming
    /// run — the bytes the check path still has to scan itself.
    pub residue_bytes_per_check_p50: u64,
    /// 99th percentile of the same distribution.
    pub residue_bytes_per_check_p99: u64,
    /// Background drains performed over the protected run.
    pub stream_drains: u64,
    /// Bytes consumed by those background drains.
    pub stream_drained_bytes: u64,
    /// Full residue (frontier-lag) distribution.
    #[serde(default)]
    pub residue_bytes_dist: HistogramSnapshot,
    /// Zero-copy segmented scan throughput
    /// ([`fast::scan_vectorized_segments`] over the ToPA's region slices,
    /// no linearization), MiB/s.
    #[serde(default)]
    pub segmented_scan_mib_per_sec: f64,
    /// `segmented / vectorized` (same machine, same trace). The segmented
    /// cursor pays only seam carries, so this must stay near 1 — a collapse
    /// means the zero-copy path regressed to copying.
    #[serde(default)]
    pub segmented_vs_vectorized: f64,
    /// Bytes the drain path copied per KiB drained over the protected
    /// streaming run (seam carries + wrap recoveries; the worst of the
    /// poll-slot and dedicated-consumer runs). The linearizing drain path
    /// copied every byte — 1024 — so this is gated near zero.
    #[serde(default)]
    pub copied_bytes_per_drained_kib: f64,
    /// Median check-time residue under the dedicated consumer thread.
    #[serde(default)]
    pub consumer_residue_p50: u64,
    /// 99th percentile of the same — gated strictly below the poll-slot
    /// `residue_bytes_per_check_p99` at equal load.
    #[serde(default)]
    pub consumer_residue_p99: u64,
    /// Consumer-thread wakeups over the protected run.
    #[serde(default)]
    pub consumer_wakeups: u64,
    /// Wakeups that found the frontier at least `consumer_lag_target` ahead
    /// and drained.
    #[serde(default)]
    pub consumer_drains: u64,
    /// `consumer_drains / consumer_wakeups` — the consumer's duty cycle.
    #[serde(default)]
    pub consumer_utilization: f64,
}

/// Builds the bench trace: a 100M-instruction protected-style nginx run
/// into a 4 MiB ToPA. Returns the machine so callers can scan the ToPA's
/// region slices in place as well as linearized.
fn bench_machine() -> Machine {
    let w = fg_workloads::nginx_patched();
    let mut m = Machine::new(&w.image, 0x4000);
    let mut unit = IptUnit::flowguard(0x4000, Topa::two_regions(1 << 22).expect("topa"));
    unit.start(w.image.entry(), 0x4000);
    m.trace = TraceUnit::Ipt(unit);
    let mut k = fg_kernel::Kernel::with_input(&w.default_input);
    m.run(&mut k, 100_000_000);
    m.trace.as_ipt_mut().expect("ipt").flush();
    m
}

/// Times `iters` runs of `f` in 5 blocks and returns seconds per run of the
/// fastest block (same best-of-N convention as the fast-path bench).
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

/// Runs the whole measurement.
pub fn run() -> StreamingBench {
    let m = bench_machine();
    let ipt = m.trace.as_ipt().expect("ipt");
    let segs = ipt.trace_segments();
    let trace = segs.concat();
    let mib = trace.len() as f64 / (1024.0 * 1024.0);

    let scalar_sec = time_per_iter(20, || fast::scan(&trace).expect("scan"));
    let vec_sec = time_per_iter(20, || fast::scan_vectorized(&trace).expect("vectorized scan"));
    let seg_sec =
        time_per_iter(20, || fast::scan_vectorized_segments(&segs).expect("segmented scan"));

    // The degenerate fully-drained check: drain everything once, then time
    // the frontier compare the endpoint check performs when no residue is
    // left.
    let mut stream = StreamConsumer::new();
    let total = trace.len() as u64;
    stream.drain(&segs, total, usize::MAX, PhaseSpan::StreamDrain).expect("drain");
    assert_eq!(stream.residue(total), 0, "bench trace must drain fully");
    let compare_sec = time_per_iter(100_000, || stream.residue(std::hint::black_box(total)));

    // Residue distribution over a protected streaming run: every check
    // records its frontier lag (the bytes the background consumer had not
    // yet drained at syscall time).
    let w = fg_workloads::nginx_patched();
    let d = crate::measure::trained_deployment(&w);
    let cfg = FlowGuardConfig { streaming: true, ..Default::default() };
    let mut p = d.launch(&w.default_input, cfg);
    let stop = p.run(crate::measure::BUDGET);
    assert!(matches!(stop, fg_cpu::StopReason::Exited(0)), "benign run must exit: {stop:?}");
    let t = p.stats.telemetry_snapshot();
    assert!(t.checks > 0, "protected run must hit endpoints");
    assert!(t.stream_drains > 0, "streaming run must drain in the background");

    // Same run with bulk draining moved onto the dedicated consumer thread:
    // the finer wakeup cadence must tighten the check-time residue tail.
    let ccfg = FlowGuardConfig { streaming: true, consumer_thread: true, ..Default::default() };
    let mut cp = d.launch(&w.default_input, ccfg);
    let cstop = cp.run(crate::measure::BUDGET);
    assert!(matches!(cstop, fg_cpu::StopReason::Exited(0)), "consumer run must exit: {cstop:?}");
    let ct = cp.stats.telemetry_snapshot();
    assert!(ct.consumer_wakeups > 0, "consumer run must record wakeups");

    StreamingBench {
        scan_mib_per_sec: mib / scalar_sec,
        vectorized_scan_mib_per_sec: mib / vec_sec,
        vectorized_speedup: scalar_sec / vec_sec,
        frontier_compare_ns: compare_sec * 1e9,
        residue_bytes_per_check_p50: t.frontier_lag.p50,
        residue_bytes_per_check_p99: t.frontier_lag.p99,
        stream_drains: t.stream_drains,
        stream_drained_bytes: t.stream_drained_bytes,
        residue_bytes_dist: t.frontier_lag,
        segmented_scan_mib_per_sec: mib / seg_sec,
        segmented_vs_vectorized: vec_sec / seg_sec,
        copied_bytes_per_drained_kib: t.copied_per_drained_kib().max(ct.copied_per_drained_kib()),
        consumer_residue_p50: ct.frontier_lag.p50,
        consumer_residue_p99: ct.frontier_lag.p99,
        consumer_wakeups: ct.consumer_wakeups,
        consumer_drains: ct.consumer_drains,
        consumer_utilization: ct.consumer_utilization(),
    }
}

/// Prints the table and writes `BENCH_streaming.json`.
pub fn print() {
    let b = run();
    print_table(&b);
    match write_json(&b, JSON_PATH) {
        Ok(()) => println!("\nwrote {JSON_PATH}"),
        Err(e) => eprintln!("\nfailed to write {JSON_PATH}: {e}"),
    }
}

/// Prints the metric table for a measurement.
pub fn print_table(b: &StreamingBench) {
    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["scalar scan MiB/s".into(), fmt(b.scan_mib_per_sec, 1)]);
    t.row(vec!["vectorized scan MiB/s".into(), fmt(b.vectorized_scan_mib_per_sec, 1)]);
    t.row(vec!["segmented scan MiB/s".into(), fmt(b.segmented_scan_mib_per_sec, 1)]);
    t.row(vec!["vectorized speedup".into(), fmt(b.vectorized_speedup, 2)]);
    t.row(vec!["segmented / vectorized".into(), fmt(b.segmented_vs_vectorized, 2)]);
    t.row(vec!["frontier compare ns".into(), fmt(b.frontier_compare_ns, 1)]);
    t.row(vec![
        "residue bytes/check p50/p99".into(),
        format!("{}/{}", b.residue_bytes_per_check_p50, b.residue_bytes_per_check_p99),
    ]);
    t.row(vec![
        "consumer residue p50/p99".into(),
        format!("{}/{}", b.consumer_residue_p50, b.consumer_residue_p99),
    ]);
    t.row(vec!["copied bytes / drained KiB".into(), fmt(b.copied_bytes_per_drained_kib, 2)]);
    t.row(vec![
        "consumer drains/wakeups".into(),
        format!("{}/{}", b.consumer_drains, b.consumer_wakeups),
    ]);
    t.row(vec!["consumer utilization".into(), fmt(b.consumer_utilization, 2)]);
    t.row(vec!["background drains".into(), b.stream_drains.to_string()]);
    t.row(vec!["background bytes drained".into(), b.stream_drained_bytes.to_string()]);
    t.print("Streaming-pipeline benchmarks (BENCH_streaming.json)");
}

/// Serialises a measurement to `path`.
pub fn write_json(b: &StreamingBench, path: &str) -> std::io::Result<()> {
    let json = serde_json::to_string(b).map_err(std::io::Error::other)?;
    std::fs::write(path, json + "\n")
}

/// Compares `current` against a baseline, returning every gated metric that
/// regressed by more than `factor`. Gated metrics are same-machine speedup
/// ratios and the deterministic residue distribution — absolute MiB/s and
/// ns vary across machines and are informational only. The residue p50 is
/// an absolute floor rather than baseline-relative: it must stay under 32
/// bytes (the "check cost is a frontier compare" property).
pub fn regressions(
    current: &StreamingBench,
    baseline: &StreamingBench,
    factor: f64,
) -> Vec<String> {
    let mut out = Vec::new();
    if current.vectorized_speedup < baseline.vectorized_speedup / factor {
        out.push(format!(
            "vectorized_speedup regressed: {:.2} vs baseline {:.2}",
            current.vectorized_speedup, baseline.vectorized_speedup
        ));
    }
    if current.residue_bytes_per_check_p50 >= 32 {
        out.push(format!(
            "residue_bytes_per_check_p50 too high: {} (must stay < 32)",
            current.residue_bytes_per_check_p50
        ));
    }
    if current.residue_bytes_per_check_p99
        > baseline.residue_bytes_per_check_p99.saturating_mul(factor as u64).max(64)
    {
        out.push(format!(
            "residue_bytes_per_check_p99 regressed: {} vs baseline {}",
            current.residue_bytes_per_check_p99, baseline.residue_bytes_per_check_p99
        ));
    }
    // The zero-copy gates fire only when the run measured them: a zeroed
    // ratio / wakeup count means an old-shape artifact, not a regression.
    if current.segmented_vs_vectorized > 0.0
        && current.segmented_vs_vectorized < (baseline.segmented_vs_vectorized / factor).max(0.8)
    {
        out.push(format!(
            "segmented scan lost to linearized vectorized: ratio {:.2} vs baseline {:.2}",
            current.segmented_vs_vectorized, baseline.segmented_vs_vectorized
        ));
    }
    if current.copied_bytes_per_drained_kib >= 4.0 {
        out.push(format!(
            "drain path copied {:.2} bytes per drained KiB (must stay < 4: seam carries only)",
            current.copied_bytes_per_drained_kib
        ));
    }
    if current.consumer_wakeups > 0
        && current.consumer_residue_p99 >= current.residue_bytes_per_check_p99
    {
        out.push(format!(
            "dedicated consumer did not cut the residue tail: p99 {} vs poll-slot {}",
            current.consumer_residue_p99, current.residue_bytes_per_check_p99
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StreamingBench {
        StreamingBench {
            scan_mib_per_sec: 70.0,
            vectorized_scan_mib_per_sec: 350.0,
            vectorized_speedup: 5.0,
            frontier_compare_ns: 2.0,
            residue_bytes_per_check_p50: 16,
            residue_bytes_per_check_p99: 48,
            stream_drains: 1000,
            stream_drained_bytes: 4_000_000,
            segmented_scan_mib_per_sec: 340.0,
            segmented_vs_vectorized: 0.97,
            copied_bytes_per_drained_kib: 1.9,
            consumer_residue_p50: 9,
            consumer_residue_p99: 40,
            consumer_wakeups: 5000,
            consumer_drains: 1200,
            consumer_utilization: 0.24,
            ..Default::default()
        }
    }

    #[test]
    fn json_roundtrip() {
        let b = sample();
        let s = serde_json::to_string(&b).unwrap();
        let r: StreamingBench = serde_json::from_str(&s).unwrap();
        assert!((r.vectorized_speedup - b.vectorized_speedup).abs() < 1e-12);
        assert_eq!(r.residue_bytes_per_check_p50, 16);
        assert!(regressions(&b, &b, 2.0).is_empty());
    }

    #[test]
    fn baselines_without_distribution_column_still_parse() {
        let old = r#"{"scan_mib_per_sec":70.0,"vectorized_scan_mib_per_sec":350.0,
            "parallel_scan_mib_per_sec":500.0,"vectorized_speedup":5.0,
            "parallel_speedup":7.1,"frontier_compare_ns":2.0,
            "residue_bytes_per_check_p50":16,"residue_bytes_per_check_p99":48,
            "stream_drains":1000,"stream_drained_bytes":4000000}"#;
        let b: StreamingBench = serde_json::from_str(old).unwrap();
        assert_eq!(b.residue_bytes_dist, HistogramSnapshot::default());
        assert_eq!(b.segmented_vs_vectorized, 0.0, "pre-zero-copy baselines default to 0");
        assert_eq!(b.consumer_wakeups, 0);
        assert_eq!(b.copied_bytes_per_drained_kib, 0.0);
        // An old baseline's zeroed ratio must not trip the absolute
        // segmented floor when used as the comparison side.
        let current = sample();
        assert!(regressions(&current, &b, 2.0).is_empty());
    }

    #[test]
    fn regressions_flag_slow_vectorized_and_fat_residue() {
        let base = sample();
        let mut bad = base.clone();
        bad.residue_bytes_per_check_p50 = 4096;
        bad.vectorized_speedup = 1.1;
        let r = regressions(&bad, &base, 2.0);
        assert_eq!(r.len(), 2, "{r:?}");
    }

    #[test]
    fn regressions_flag_copying_drains_and_lazy_consumer() {
        let base = sample();
        let mut bad = base.clone();
        bad.segmented_vs_vectorized = 0.4; // segmented path regressed to copying
        bad.copied_bytes_per_drained_kib = 900.0; // drains linearizing again
        bad.consumer_residue_p99 = bad.residue_bytes_per_check_p99; // ties don't count
        let r = regressions(&bad, &base, 2.0);
        assert_eq!(r.len(), 3, "{r:?}");
        assert!(r.iter().any(|v| v.contains("segmented")), "{r:?}");
        assert!(r.iter().any(|v| v.contains("copied")), "{r:?}");
        assert!(r.iter().any(|v| v.contains("consumer")), "{r:?}");
    }
}
