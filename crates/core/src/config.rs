//! FlowGuard runtime configuration (§7.1.1's `pkt_count` and `cred_ratio`).

use fg_kernel::SensitiveSet;
use serde::{Deserialize, Serialize};

/// Engine configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowGuardConfig {
    /// Lower bound on the number of TIP packets checked at an endpoint.
    /// "We choose 30 as the lower-bound of pkt_count such that at least 30
    /// TIP packets are checked" (§7.1.1) — defeats history-flushing attacks.
    pub pkt_count: usize,
    /// Credit-ratio threshold: the fraction of checked edges that must be
    /// high-credit for the fast path to pass. "We set cred_ratio to 1 so
    /// that any high-credit CFG edge violation leads to slow path" (§7.1.1).
    pub cred_ratio: f64,
    /// Require the checked window to stride across more than one module,
    /// with at least one TIP inside the executable (§5.3) — defeats
    /// return-to-lib endpoint laundering.
    pub require_module_stride: bool,
    /// Cache negative slow-path results as fast-path high credits (§7.1.1:
    /// "makes the performance better and better").
    pub cache_slow_path_results: bool,
    /// Checkpoint the slow path's flow decode between escalations: when the
    /// next slow window extends the previous one, only the appended bytes
    /// are decoded (the flow machine and shadow stack park between checks,
    /// guarded by state hashes). Off, every escalation decodes its window
    /// cold — the reference mode the checkpoint is validated against.
    #[serde(default = "default_slow_checkpoint")]
    pub slow_checkpoint: bool,
    /// Stream-consume the ToPA concurrently with execution. Every check
    /// drains the engine's [`fg_ipt::StreamConsumer`]; with streaming on it
    /// is also drained in the background at the machine's periodic
    /// trace-poll slots and at region-fill PMIs (and by fleet drain jobs),
    /// so an endpoint check degenerates to a frontier compare plus a scan
    /// of the few residue bytes written since the last drain. Off, the
    /// consumer drains only at checks, bounded by the check window.
    #[serde(default = "default_streaming")]
    pub streaming: bool,
    /// Dedicated consumer thread ([`ConsumerThread`]): bulk draining moves
    /// off the process's borrowed poll slots onto a consumer that wakes on
    /// its own (simulated) core at [`FlowGuardConfig::consumer_poll_period`]
    /// and drains whenever the write frontier has run ahead of the read
    /// frontier by at least [`FlowGuardConfig::consumer_lag_target`] bytes.
    /// Only takes effect with `streaming` on; off, drains borrow the
    /// process's poll slots — the fallback (and reference) drive.
    ///
    /// [`ConsumerThread`]: crate::consumer::ConsumerThread
    #[serde(default = "default_consumer_thread")]
    pub consumer_thread: bool,
    /// Consumer-thread lag target, in bytes: the consumer lets the write
    /// frontier run at most this far ahead before draining. Small targets
    /// drain eagerly (lower check-time residue, more waking drains); large
    /// targets batch (fewer drains, fatter residue). The default is one
    /// max-size PT packet ([`fg_ipt::wire::PSB_LEN`]): sub-packet wakeups
    /// are skipped, and because the carried lag stays under a packet while
    /// the consumer wakes 4x finer than a borrowed poll slot, the
    /// check-time residue tail lands strictly below the poll-slot baseline.
    #[serde(default = "default_consumer_lag_target")]
    pub consumer_lag_target: u64,
    /// Consumer-thread wakeup cadence, in retired instructions. A dedicated
    /// consumer on its own core wakes finer than the borrowed poll slot
    /// (`fg_cpu::machine::TRACE_POLL_PERIOD`), which is what pushes the
    /// frontier-lag p99 below the poll-slot baseline.
    #[serde(default = "default_consumer_poll_period")]
    pub consumer_poll_period: u64,
    /// Also run a full-buffer check at every trace-buffer PMI — the paper's
    /// worst-case fallback against endpoint-pruning attacks (§7.1.2).
    pub pmi_endpoints: bool,
    /// Context-sensitive fast path: consecutive edge pairs must match a
    /// trained high-credit path gram — the paper's §7.1.2 future-work
    /// extension ("may introduce larger number of slow path checking").
    pub path_matching: bool,
    /// Record runtime telemetry (counters, latency histograms, the check
    /// event ring). Off, every hot-path record collapses to one
    /// predictable-not-taken branch; violations and flight records are
    /// still captured.
    #[serde(default = "default_telemetry")]
    pub telemetry: bool,
    /// Record per-phase cycle-attribution spans (intercept, tier-0 probe,
    /// edge probe, scans, slow decode, stitch, verdict) in the span
    /// profiler. Only takes effect when `telemetry` is on; off, every span
    /// record collapses to one predictable-not-taken branch.
    #[serde(default = "default_profile_spans")]
    pub profile_spans: bool,
    /// Probe the tier-0 entry-point bitset ahead of every ITC edge lookup
    /// (FineIBT-style coarse pre-check). Only takes effect when the
    /// deployment actually ships a bitset; sound either way — the bitset is
    /// verified to cover every ITC node (rule `FG-X01`), so the probe can
    /// only short-circuit detections, never reject a benign transfer.
    #[serde(default = "default_tier0_bitset")]
    pub tier0_bitset: bool,
    /// The sensitive-syscall endpoint set.
    #[serde(skip, default = "SensitiveSet::patharmor_default")]
    pub endpoints: SensitiveSet,
    /// ToPA region size per core (the paper's default config uses ~16 KiB
    /// total across two regions).
    pub topa_region_bytes: usize,
}

fn default_slow_checkpoint() -> bool {
    true
}

fn default_streaming() -> bool {
    false
}

fn default_consumer_thread() -> bool {
    false
}

fn default_consumer_lag_target() -> u64 {
    16
}

fn default_consumer_poll_period() -> u64 {
    16
}

fn default_telemetry() -> bool {
    true
}

fn default_profile_spans() -> bool {
    true
}

fn default_tier0_bitset() -> bool {
    true
}

impl Default for FlowGuardConfig {
    fn default() -> FlowGuardConfig {
        FlowGuardConfig {
            pkt_count: 30,
            cred_ratio: 1.0,
            require_module_stride: true,
            cache_slow_path_results: true,
            slow_checkpoint: true,
            streaming: false,
            consumer_thread: false,
            consumer_lag_target: 16,
            consumer_poll_period: 16,
            pmi_endpoints: false,
            path_matching: false,
            telemetry: true,
            profile_spans: true,
            tier0_bitset: true,
            endpoints: SensitiveSet::patharmor_default(),
            topa_region_bytes: 8192,
        }
    }
}

impl FlowGuardConfig {
    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if `cred_ratio` is outside `[0, 1]` or `pkt_count` is zero.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.cred_ratio), "cred_ratio must be within [0,1]");
        assert!(self.pkt_count > 0, "pkt_count must be positive");
        assert!(self.consumer_poll_period > 0, "consumer_poll_period must be positive");
    }

    /// The trace-poll cadence a protected machine runs at, in retired
    /// instructions: `None` with streaming off, since nothing consumes
    /// poll slots then; the borrowed-slot period
    /// ([`fg_cpu::machine::TRACE_POLL_PERIOD`]) with streaming on; and
    /// [`FlowGuardConfig::consumer_poll_period`] when a dedicated consumer
    /// thread drains on its own core.
    pub fn trace_poll_period(&self) -> Option<u64> {
        if !self.streaming {
            None
        } else if self.consumer_thread {
            Some(self.consumer_poll_period)
        } else {
            Some(fg_cpu::machine::TRACE_POLL_PERIOD)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FlowGuardConfig::default();
        assert_eq!(c.pkt_count, 30);
        assert_eq!(c.cred_ratio, 1.0);
        assert!(c.require_module_stride);
        assert!(c.cache_slow_path_results);
        assert!(c.slow_checkpoint);
        assert!(!c.streaming, "streaming is opt-in; the paper's checks consume at endpoints");
        assert!(!c.consumer_thread, "the dedicated consumer rides on opt-in streaming");
        assert_eq!(c.consumer_lag_target, 16, "one max-size packet: skip sub-packet wakeups");
        assert_eq!(c.consumer_poll_period, 16);
        assert!(c.telemetry);
        assert!(c.profile_spans, "span attribution rides on telemetry by default");
        assert!(c.tier0_bitset);
        c.validate();
        assert_eq!(c.trace_poll_period(), None, "no consumer, no poll slots");
    }

    #[test]
    #[should_panic(expected = "cred_ratio")]
    fn bad_ratio_rejected() {
        FlowGuardConfig { cred_ratio: 1.2, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "pkt_count")]
    fn zero_pkt_count_rejected() {
        FlowGuardConfig { pkt_count: 0, ..Default::default() }.validate();
    }
}
