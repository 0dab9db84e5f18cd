//! Standalone fast-path benchmark runner.
//!
//! Prints the fast-path metric table, writes `BENCH_fastpath.json` to the
//! working directory, and — with `--check-baseline <path>` — exits non-zero
//! if any hardware-independent figure regressed by more than 2x against the
//! checked-in baseline. CI runs this as the smoke-bench gate.

use fg_bench::experiments::fastpath;

const REGRESSION_FACTOR: f64 = 2.0;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut baseline_path: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check-baseline" => {
                baseline_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--check-baseline requires a path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: fastpath_bench [--check-baseline <path>]");
                std::process::exit(2);
            }
        }
    }

    let current = fastpath::run();
    fastpath::print_table(&current);

    if let Err(e) = fastpath::write_json(&current, fastpath::JSON_PATH) {
        eprintln!("failed to write {}: {e}", fastpath::JSON_PATH);
        std::process::exit(1);
    }
    println!("\nwrote {}", fastpath::JSON_PATH);

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let baseline: fastpath::FastpathBench = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse baseline {path}: {e}");
            std::process::exit(2);
        });
        let regressions = fastpath::regressions(&current, &baseline, REGRESSION_FACTOR);
        if regressions.is_empty() {
            println!("baseline check passed ({path}, tolerance {REGRESSION_FACTOR}x)");
        } else {
            eprintln!("\nbaseline check FAILED ({path}, tolerance {REGRESSION_FACTOR}x):");
            for r in &regressions {
                eprintln!("  - {r}");
            }
            std::process::exit(1);
        }
    }
}
