//! Criterion benches for the streaming pipeline: scalar vs. vectorized scan
//! throughput, the frontier compare of a fully
//! drained consumer, and a chunked streaming drain replay.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fg_cpu::{IptUnit, Machine, TraceUnit};
use fg_ipt::topa::Topa;
use fg_ipt::{fast, StreamConsumer};
use flowguard::PhaseSpan;

fn bench_trace() -> Vec<u8> {
    let w = fg_workloads::nginx_patched();
    let mut m = Machine::new(&w.image, 0x4000);
    let mut unit = IptUnit::flowguard(0x4000, Topa::two_regions(1 << 22).expect("topa"));
    unit.start(w.image.entry(), 0x4000);
    m.trace = TraceUnit::Ipt(unit);
    let mut k = fg_kernel::Kernel::with_input(&w.default_input);
    m.run(&mut k, 100_000_000);
    m.trace.as_ipt_mut().expect("ipt").flush();
    m.trace.as_ipt().expect("ipt").trace_bytes()
}

fn bench_scan_variants(c: &mut Criterion) {
    let trace = bench_trace();
    let mut g = c.benchmark_group("streaming_scan");
    g.throughput(Throughput::Bytes(trace.len() as u64));
    g.bench_function("scalar", |b| b.iter(|| fast::scan(&trace).expect("scan")));
    g.bench_function("vectorized", |b| b.iter(|| fast::scan_vectorized(&trace).expect("scan")));
    g.finish();
}

fn bench_streaming_drain(c: &mut Criterion) {
    let trace = bench_trace();
    let total = trace.len() as u64;
    // Replay the producer in 4 KiB appends, draining after each — the
    // shape the background consumer sees between trace-poll slots.
    let mut g = c.benchmark_group("streaming_drain");
    g.throughput(Throughput::Bytes(trace.len() as u64));
    g.bench_function("chunked_4k", |b| {
        b.iter(|| {
            let mut stream = StreamConsumer::new();
            let mut end = 0usize;
            while end < trace.len() {
                end = (end + 4096).min(trace.len());
                stream
                    .drain(&[&trace[..end]], end as u64, usize::MAX, PhaseSpan::StreamDrain)
                    .expect("drain");
            }
            stream.scan().tip_count()
        });
    });
    g.finish();

    // The degenerate fully-drained endpoint check: one frontier compare.
    let mut stream = StreamConsumer::new();
    stream.drain(&[&trace], total, usize::MAX, PhaseSpan::StreamDrain).expect("drain");
    assert_eq!(stream.residue(total), 0);
    c.bench_function("frontier_compare", |b| {
        b.iter(|| stream.residue(std::hint::black_box(total)));
    });
}

criterion_group! {
    name = benches;
    // FG_BENCH_QUICK=1 drops the sample count for CI smoke runs.
    config = Criterion::default().sample_size(
        if std::env::var_os("FG_BENCH_QUICK").is_some() { 3 } else { 15 },
    );
    targets = bench_scan_variants, bench_streaming_drain
}
criterion_main!(benches);
