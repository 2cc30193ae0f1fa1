//! Criterion benches of the planning stages: the precision map rule and
//! Algorithm 2, at Summit scale (NT = 390 ↔ matrix 798,720 at tile 2048).
//! Supports the paper's §VII-A claim that the planner costs < 0.1 s.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mixedp_core::conversion::plan_conversions;
use mixedp_core::PrecisionMap;
use mixedp_fp::Precision;

fn mixed_map(nt: usize) -> PrecisionMap {
    PrecisionMap::from_fn(nt, |i, j| match (i * 7 + j * 3) % 4 {
        0 => Precision::Fp64,
        1 => Precision::Fp32,
        2 => Precision::Fp16x32,
        _ => Precision::Fp16,
    })
}

fn bench_planner(c: &mut Criterion) {
    let mut g = c.benchmark_group("algorithm2");
    g.sample_size(10);
    for nt in [100usize, 200, 390] {
        let map = mixed_map(nt);
        g.bench_with_input(BenchmarkId::new("sequential", nt), &map, |b, m| {
            b.iter(|| plan_conversions(m))
        });
    }
    g.finish();
}

fn bench_precision_rule(c: &mut Criterion) {
    use mixedp_fp::StoragePrecision;
    use mixedp_tile::{tile_fro_norms, SymmTileMatrix};
    let mut g = c.benchmark_group("precision_map");
    g.sample_size(10);
    let a = SymmTileMatrix::from_fn(
        512,
        32,
        |i, j| (-0.05 * (i as f64 - j as f64).abs()).exp(),
        |_, _| StoragePrecision::F64,
    );
    g.bench_function("tile_norms_512", |b| b.iter(|| tile_fro_norms(&a)));
    let norms = tile_fro_norms(&a);
    g.bench_function("from_norms_512", |b| {
        b.iter(|| PrecisionMap::from_norms(&norms, 1e-8, &Precision::ADAPTIVE_SET))
    });
    g.finish();
}

criterion_group!(benches, bench_planner, bench_precision_rule);
criterion_main!(benches);
