//! Command-line entry point: see the crate documentation.

use fg_perfbench::{run, Opts, Sizes, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str =
    "usage: fg-perfbench --workload <steady|sessions|fleet> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut o = Opts { seed: 1, seconds: 10.0, trace: false, sizes: Sizes::STANDARD };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => o.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(o.seconds.is_finite() && o.seconds > 0.0) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, o))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(report) = run(&workload, &opts) else {
        eprintln!("unknown workload {workload}; choose one of {WORKLOADS:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    print!("{}", report.human());
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
