//! Golden verdict fixture: the engine's per-run check outcomes, counted
//! exactly, on four servers under five consumption configurations plus the
//! four attack routes under the same five.
//!
//! `tests/fixtures/golden_verdicts.json` was captured from the engine that
//! still carried separate incremental, cold and streaming branches. Every
//! tuple must reproduce it bit-for-bit: draining every check through the
//! one `StreamConsumer` may change how bytes are read, never which bytes
//! are scanned or what a check concludes.

use flowguard::{Deployment, FlowGuardConfig};
use serde::{Deserialize, Serialize};

/// One protected run's exact outcome counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Golden {
    run: String,
    stop: String,
    checks: u64,
    fast_clean: u64,
    fast_malicious: u64,
    slow_invocations: u64,
    slow_attacks: u64,
    insufficient: u64,
    pairs_checked: u64,
    credited_pairs: u64,
    bytes_scanned: u64,
    cold_restarts: u64,
}

/// The five consumption configurations the fixture covers.
fn configs() -> Vec<(&'static str, FlowGuardConfig)> {
    let base = FlowGuardConfig::default();
    vec![
        ("default", base.clone()),
        ("streaming", FlowGuardConfig { streaming: true, ..base.clone() }),
        (
            "streaming+consumer_thread",
            FlowGuardConfig { streaming: true, consumer_thread: true, ..base.clone() },
        ),
        ("pmi_endpoints", FlowGuardConfig { pmi_endpoints: true, ..base.clone() }),
        ("topa_region_bytes=4096", FlowGuardConfig { topa_region_bytes: 4096, ..base }),
    ]
}

fn run(d: &Deployment, input: &[u8], cfg: FlowGuardConfig, name: String) -> Golden {
    let mut p = d.launch(input, cfg);
    let stop = p.run(500_000_000);
    let s = p.stats.snapshot();
    Golden {
        run: name,
        stop: format!("{stop:?}"),
        checks: s.checks,
        fast_clean: s.fast_clean,
        fast_malicious: s.fast_malicious,
        slow_invocations: s.slow_invocations,
        slow_attacks: s.slow_attacks,
        insufficient: s.insufficient,
        pairs_checked: s.pairs_checked,
        credited_pairs: s.credited_pairs,
        bytes_scanned: s.bytes_scanned,
        cold_restarts: s.cold_restarts,
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
        let mut d = Deployment::analyze(&w.image);
        d.train(std::slice::from_ref(&w.default_input));
        for (name, cfg) in configs() {
            out.push(run(&d, &w.default_input, cfg, format!("{}/{name}", w.name)));
        }
    }
    let (w, d) = fg_attacks::trained_vulnerable_nginx();
    let g = fg_attacks::find_gadgets(&w.image);
    let attacks = [
        ("rop", fg_attacks::rop_write(&w.image, &g)),
        ("srop", fg_attacks::srop_execve(&w.image, &g)),
        ("ret2lib", fg_attacks::ret_to_lib(&w.image, &g)),
        ("flush", fg_attacks::history_flush(&w.image, &g, 12)),
    ];
    for (attack, payload) in &attacks {
        for (name, cfg) in configs() {
            out.push(run(&d, payload, cfg, format!("attack:{attack}/{name}")));
        }
    }
    out
}

#[test]
fn engine_reproduces_golden_verdicts() {
    let golden: Vec<Golden> =
        serde_json::from_str(include_str!("fixtures/golden_verdicts.json")).expect("fixture");
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
