//! Self-test of the benchmark at tiny sizes: every workload runs clean,
//! prints every registered metric as a finite number, repeats its modeled
//! and count figures bit for bit under the same seed, and agrees with
//! `BENCHMARK.json`.

use fg_perfbench::metrics::{def, Currency, MetricDef};
use fg_perfbench::{run, Opts, Report, Sizes, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;

fn tiny(seed: u64, trace: bool) -> Opts {
    Opts { seed, seconds: 0.0, trace, sizes: Sizes::TINY }
}

fn run_ok(workload: &str, o: &Opts) -> Report {
    let rep = run(workload, o).expect("known workload");
    assert!(rep.correct(), "{workload} (trace {}) failed:\n{}", o.trace, rep.human());
    rep
}

/// The values of the seed-determined metrics (modeled cycles and counts).
fn exact(rep: &Report) -> Vec<(&'static str, u64)> {
    rep.values
        .iter()
        .filter(|(name, _)| def(name).is_some_and(|d| d.currency != Currency::Host))
        .map(|(&name, v)| (name, v.to_bits()))
        .collect()
}

#[test]
fn every_workload_prints_every_metric_finite() {
    for &w in WORKLOADS {
        for trace in [false, true] {
            let rep = run_ok(w, &tiny(7, trace));
            for d in rep.expected() {
                let v = rep.values.get(d.name).copied();
                assert!(v.is_some_and(f64::is_finite), "{w}: {} is {v:?}", d.name);
            }
            let json = rep.json();
            let parsed = serde_json::parse_value(&json).expect("result line is JSON");
            let Some(Value::Object(metrics)) = parsed.get("metrics") else {
                panic!("no metrics: {json}")
            };
            assert_eq!(metrics.len(), rep.expected().len(), "{w}: {json}");
        }
    }
}

#[test]
fn same_seed_repeats_modeled_and_count_metrics_bit_for_bit() {
    for &w in WORKLOADS {
        for trace in [false, true] {
            let a = run_ok(w, &tiny(3, trace));
            let b = run_ok(w, &tiny(3, trace));
            let (ea, eb) = (exact(&a), exact(&b));
            assert!(!ea.is_empty(), "{w}: no modeled or count metrics");
            assert_eq!(ea, eb, "{w} (trace {trace}): same seed, different exact figures");
        }
    }
}

#[test]
fn a_hostile_session_is_detected_and_counted() {
    let rep = run_ok("sessions", &tiny(11, true));
    assert!(rep.values["violation.flight_records"] >= 1.0, "{}", rep.human());
    assert!(rep.values["violation.check_ns"] > 0.0);
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("BENCHMARK.json: no {key}"))
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn num_of(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(x) => *x,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn check_table(listed: &Value, registry: &[MetricDef], bounded: bool) {
    let Value::Array(items) = listed else { panic!("expected an array") };
    let names: Vec<&str> = items.iter().map(|m| str_of(field(m, "name"))).collect();
    let expected: Vec<&str> = registry.iter().map(|d| d.name).collect();
    assert_eq!(names, expected, "BENCHMARK.json lists other metrics than the registry");
    for (m, d) in items.iter().zip(registry) {
        assert_eq!(str_of(field(m, "unit")), d.unit, "{}", d.name);
        assert_eq!(str_of(field(m, "better")), d.better.label(), "{}", d.name);
        if bounded {
            let bound = num_of(field(m, "bound"));
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        } else {
            assert!(m.get("bound").is_none(), "{}: per-layer metrics have no bound", d.name);
        }
    }
}

#[test]
fn benchmark_json_agrees_with_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let b = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let Value::Array(workloads) = field(&b, "workloads") else { panic!("workloads") };
    let names: Vec<&str> = workloads.iter().map(|w| str_of(field(w, "name"))).collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        assert!(str_of(field(w, "why")).len() <= 200);
    }
    check_table(field(&b, "end_to_end"), END_TO_END, true);
    check_table(field(&b, "per_layer"), PER_LAYER, false);
    let setup = def("setup_s").expect("setup_s registered");
    assert_eq!((setup.unit, setup.better.label()), ("s", "lower"));
}
