//! Criterion bench: one full simulation tick (mobility + graph rebuild +
//! reclustering + LM diff + accounting) at several sizes — the end-to-end
//! cost model of the whole engine.

use chlm_sim::{SimConfig, Simulation};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_tick");
    group.sample_size(20);
    for &n in &[512usize, 2048, 8192] {
        let cfg = SimConfig::builder(n)
            .duration(1.0)
            .warmup(2.0)
            .seed(n as u64)
            .build();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &cfg, |b, cfg| {
            let mut sim = Simulation::new(cfg.clone());
            b.iter(|| sim.step());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tick);
criterion_main!(benches);
