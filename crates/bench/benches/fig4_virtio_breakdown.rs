//! Criterion bench for **Fig. 4** — the VirtIO driver's latency
//! breakdown (software vs hardware, mean ± σ per payload).
//!
//! The benchmark measures simulation throughput of the VirtIO world per
//! payload; the printed block is the figure's content: per payload, the
//! software and hardware components with their standard deviations, and
//! the hw-dominance flag the paper's §V discusses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vf_bench::render_fig45;
use virtio_fpga::experiments::{fig4, run_matrix, ExperimentParams};
use virtio_fpga::{DriverKind, Testbed, TestbedConfig, PAPER_PAYLOADS};

const PACKETS_PER_ITER: usize = 200;

fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_virtio_breakdown");
    for &payload in &PAPER_PAYLOADS {
        group.throughput(Throughput::Elements(PACKETS_PER_ITER as u64));
        group.bench_with_input(BenchmarkId::from_parameter(payload), &payload, |b, &p| {
            let mut seed = 100u64;
            b.iter(|| {
                seed += 1;
                let cfg = TestbedConfig::paper(DriverKind::Virtio, p, PACKETS_PER_ITER, seed);
                let mut r = Testbed::new(cfg).run();
                // The breakdown computation itself is part of the
                // artifact.
                (r.sw_summary(), r.hw_summary())
            });
        });
    }
    group.finish();

    let mut m = run_matrix(ExperimentParams {
        packets: 10_000,
        seed: 42,
        threads: vf_sim::default_threads(),
    });
    println!(
        "\nFig. 4 — {}",
        render_fig45(DriverKind::Virtio, &fig4(&mut m))
    );
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
