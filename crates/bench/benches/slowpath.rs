//! Criterion benches for the slow path: the serial flow walk, serial vs.
//! PSB-sharded flow decode, cold vs. checkpointed incremental checking, and
//! the full policy check.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fg_bench::experiments::slowpath::{
    decode_serial_ref, decode_sharded_pool, engine_window, ENGINE_WINDOW_BYTES,
};
use fg_cpu::{CostModel, IptUnit, Machine, TraceUnit};
use fg_ipt::topa::Topa;
use fg_ipt::{FlowDecoder, FlowMachine};
use flowguard::slowpath::{self, SlowScratch};
use flowguard::WorkerPool;

struct Setup {
    image: fg_isa::image::Image,
    ocfg: fg_cfg::OCfg,
    trace: Vec<u8>,
}

fn setup() -> Setup {
    let w = fg_workloads::nginx_patched();
    let ocfg = fg_cfg::OCfg::build(&w.image);
    let mut m = Machine::new(&w.image, 0x4000);
    let mut unit = IptUnit::flowguard(0x4000, Topa::two_regions(1 << 22).expect("topa"));
    unit.start(w.image.entry(), 0x4000);
    m.trace = TraceUnit::Ipt(unit);
    let mut k = fg_kernel::Kernel::with_input(&w.default_input);
    m.run(&mut k, 100_000_000);
    m.trace.as_ipt_mut().expect("ipt").flush();
    let trace = m.trace.as_ipt().expect("ipt").trace_bytes();
    Setup { image: w.image.clone(), ocfg, trace }
}

/// The flow walk alone: one reused machine (no allocation), over the whole
/// trace and over an engine-sized escalation window.
fn bench_walk(c: &mut Criterion) {
    let s = setup();
    let decoder = FlowDecoder::new(&s.image);
    let mut m = FlowMachine::new(false);
    let window = engine_window(&s.trace, ENGINE_WINDOW_BYTES);
    let mut g = c.benchmark_group("flow_walk");
    g.throughput(Throughput::Bytes(s.trace.len() as u64));
    g.bench_function("serial_trace", |b| {
        b.iter(|| decoder.decode_with(&s.trace, &mut m).map(|()| m.trace().insns_walked));
    });
    g.throughput(Throughput::Bytes(window.len() as u64));
    g.bench_function("serial_engine_window", |b| {
        b.iter(|| decoder.decode_with(window, &mut m).map(|()| m.trace().insns_walked));
    });
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let s = setup();
    let pool = WorkerPool::with_size(4);
    let mut g = c.benchmark_group("slow_decode");
    g.throughput(Throughput::Bytes(s.trace.len() as u64));
    g.bench_function("serial", |b| b.iter(|| decode_serial_ref(&s.image, &s.trace)));
    g.bench_function("sharded_pool4", |b| {
        b.iter(|| decode_sharded_pool(&s.image, &s.trace, &pool));
    });
    g.finish();
}

fn bench_check(c: &mut Criterion) {
    let s = setup();
    let cost = CostModel::calibrated();
    let pool = WorkerPool::with_size(4);
    let mut g = c.benchmark_group("slow_check");
    g.bench_function("cold_serial", |b| {
        b.iter(|| slowpath::check(&s.image, &s.ocfg, &s.trace, &cost));
    });
    g.bench_function("cold_sharded_pool4", |b| {
        b.iter(|| {
            let mut scratch = SlowScratch::new();
            slowpath::check_incremental(
                &s.image,
                &s.ocfg,
                &s.trace,
                0,
                &cost,
                Some(&pool),
                &mut scratch,
            )
        });
    });
    // Checkpointed replay: the trace fed as 8 growing windows, one warm
    // scratch — the engine's overlapping-tail-window pattern.
    let psbs = fg_ipt::PacketParser::psb_offsets(&s.trace);
    let step = (psbs.len() / 8).max(1);
    let mut cuts: Vec<usize> = (1..8).map(|i| psbs[(i * step).min(psbs.len() - 1)]).collect();
    cuts.push(s.trace.len());
    g.bench_function("warm_8_windows", |b| {
        b.iter(|| {
            let mut scratch = SlowScratch::new();
            let mut decoded = 0u64;
            for &cut in &cuts {
                let r = slowpath::check_incremental(
                    &s.image,
                    &s.ocfg,
                    &s.trace[..cut],
                    0,
                    &cost,
                    None,
                    &mut scratch,
                );
                decoded += r.insns_decoded;
            }
            decoded
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    // FG_BENCH_QUICK=1 drops the sample count for CI smoke runs.
    config = Criterion::default().sample_size(
        if std::env::var_os("FG_BENCH_QUICK").is_some() { 10 } else { 15 },
    );
    targets = bench_walk, bench_decode, bench_check
}
criterion_main!(benches);
