//! Criterion benches for the IPT codec: trace-side encoding, packet-level
//! scanning (the fast-path primitive), and instruction-flow decoding (the
//! slow path) — the throughput asymmetry behind the paper's design.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fg_cpu::{CostModel, IptUnit, Machine, TraceUnit};
use fg_ipt::encode::PacketEncoder;
use fg_ipt::flow::BranchEvent;
use fg_ipt::topa::Topa;
use fg_isa::insn::CofiKind;

/// A realistic trace: the tar workload under IPT.
fn workload_trace() -> (fg_workloads::Workload, Vec<u8>) {
    let w = fg_workloads::tar();
    let mut m = Machine::new(&w.image, 0x4000);
    let mut unit = IptUnit::flowguard(0x4000, Topa::two_regions(1 << 22).expect("topa"));
    unit.start(w.image.entry(), 0x4000);
    m.trace = TraceUnit::Ipt(unit);
    let mut k = fg_kernel::Kernel::with_input(&w.default_input);
    m.run(&mut k, 50_000_000);
    m.trace.as_ipt_mut().expect("ipt").flush();
    let bytes = m.trace.as_ipt().expect("ipt").trace_bytes();
    (w, bytes)
}

/// The CoFIs nginx_patched retires on its default input, in order.
fn nginx_branch_log() -> (fg_workloads::Workload, Vec<BranchEvent>) {
    let w = fg_workloads::nginx_patched();
    let mut m = Machine::new(&w.image, 0x4000);
    m.enable_branch_log();
    let mut k = fg_kernel::Kernel::with_input(&w.default_input);
    m.run(&mut k, 50_000_000);
    let log = m.branch_log.take().expect("branch log enabled");
    (w, log)
}

fn bench_encode(c: &mut Criterion) {
    let (w, log) = nginx_branch_log();
    let cost = CostModel::calibrated();
    let mut g = c.benchmark_group("encode");
    // The machine's per-CoFI hook with FlowGuard's MSRs and an 8 KiB
    // two-region ToPA: latched filters, TNT/TIP encoding, ToPA writes with
    // region crossings and PMIs. A syscall is its FUP + TIP.PGD and the
    // TIP.PGE at the resume address, as `Machine::step` emits them.
    g.throughput(Throughput::Elements(log.len() as u64));
    g.bench_function("trace_unit_replay", |b| {
        b.iter(|| {
            let mut unit = IptUnit::flowguard(0x4000, Topa::two_regions(8192).expect("topa"));
            unit.start(w.image.entry(), 0x4000);
            let mut t = TraceUnit::Ipt(unit);
            let mut cycles = 0.0;
            for e in &log {
                let taken = e.taken.unwrap_or(false);
                if e.kind == CofiKind::FarTransfer {
                    cycles += t.on_cofi(&cost, e.kind, e.from, 0, false, 0x4000);
                    cycles += t.on_syscall_resume(&cost, e.to, 0x4000);
                } else {
                    cycles += t.on_cofi(&cost, e.kind, e.from, e.to, taken, 0x4000);
                }
                if let Some(u) = t.as_ipt_mut() {
                    u.topa_mut().take_pmi();
                }
            }
            (t, cycles)
        });
    });
    // Encoder only: no filters, no ToPA.
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("tnt_tip_mix", |b| {
        b.iter(|| {
            let mut enc = PacketEncoder::new(Vec::with_capacity(64 * 1024));
            for i in 0..10_000u64 {
                if i % 5 == 0 {
                    enc.tip(0x40_0000 + (i % 97) * 8);
                } else {
                    enc.tnt_bit(i % 3 == 0);
                }
            }
            enc.into_sink()
        });
    });
    g.finish();
}

fn bench_scan_vs_flow_decode(c: &mut Criterion) {
    let (w, bytes) = workload_trace();
    let mut g = c.benchmark_group("decode");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("packet_scan", |b| b.iter(|| fg_ipt::fast::scan(&bytes).expect("scan")));
    g.bench_function("instruction_flow", |b| {
        b.iter(|| fg_ipt::flow::FlowDecoder::new(&w.image).decode(&bytes).expect("decodes"));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_encode, bench_scan_vs_flow_decode
}
criterion_main!(benches);
