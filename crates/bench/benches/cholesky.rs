//! Criterion benches of the full mixed-precision factorization (numerical
//! mode) and of the simulator — including the ablations of DESIGN.md §5:
//! conversion strategy, tile size, and precision set.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mixedp_core::{
    factorize_mp, simulate_cholesky, uniform_map, CholeskySimOptions, PrecisionMap, WirePolicy,
};
use mixedp_fp::{Precision, StoragePrecision};
use mixedp_gpusim::{ClusterSpec, NodeSpec};
use mixedp_tile::{tile_fro_norms, SymmTileMatrix};

fn spd_matrix(n: usize, nb: usize) -> SymmTileMatrix {
    SymmTileMatrix::from_fn(
        n,
        nb,
        |i, j| {
            let d = (i as f64 - j as f64).abs();
            (-0.05 * d).exp() + if i == j { 0.5 } else { 0.0 }
        },
        |_, _| StoragePrecision::F64,
    )
}

fn bench_factorize(c: &mut Criterion) {
    let mut g = c.benchmark_group("factorize_mp");
    g.sample_size(10);
    let a0 = spd_matrix(256, 64);
    let norms = tile_fro_norms(&a0);
    for (label, pmap) in [
        ("fp64", uniform_map(a0.nt(), Precision::Fp64)),
        ("fp32", uniform_map(a0.nt(), Precision::Fp32)),
        (
            "adaptive_1e-6",
            PrecisionMap::from_norms(&norms, 1e-6, &Precision::ADAPTIVE_SET),
        ),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &pmap, |b, m| {
            b.iter(|| {
                let mut a = a0.clone();
                factorize_mp(&mut a, m, 2).unwrap();
                a
            })
        });
    }
    g.finish();
}

/// Ablation: tile size (the paper fixes nb = 2048 empirically; here the
/// numerical analogue shows the task-granularity trade).
fn bench_tile_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_tile_size");
    g.sample_size(10);
    for nb in [32usize, 64, 128] {
        let a0 = spd_matrix(256, nb);
        let m = uniform_map(a0.nt(), Precision::Fp64);
        g.bench_with_input(BenchmarkId::from_parameter(nb), &nb, |b, _| {
            b.iter(|| {
                let mut a = a0.clone();
                factorize_mp(&mut a, &m, 2).unwrap();
                a
            })
        });
    }
    g.finish();
}

/// Ablation: conversion strategy through the simulator (STC vs TTC) —
/// the Fig 8 comparison as a benchmark target.
fn bench_sim_strategy(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_strategy_sim");
    g.sample_size(10);
    let cluster = ClusterSpec::new(NodeSpec::summit().single_gpu(), 1);
    let m = uniform_map(32, Precision::Fp16);
    for (label, s) in [("ttc", WirePolicy::Ttc), ("auto_stc", WirePolicy::Auto)] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &s, |b, &s| {
            b.iter(|| {
                simulate_cholesky(
                    &m,
                    &cluster,
                    CholeskySimOptions {
                        nb: 2048,
                        strategy: s,
                    },
                )
            })
        });
    }
    g.finish();
}

/// Simulator throughput: how many Cholesky tasks the DES replays per second
/// (it must stay cheap enough for the 10M-task Summit runs).
fn bench_sim_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("des_throughput");
    g.sample_size(10);
    let cluster = ClusterSpec::summit(4);
    for nt in [40usize, 80] {
        let m = uniform_map(nt, Precision::Fp64);
        g.bench_with_input(BenchmarkId::from_parameter(nt), &nt, |b, _| {
            b.iter(|| {
                simulate_cholesky(
                    &m,
                    &cluster,
                    CholeskySimOptions {
                        nb: 2048,
                        strategy: WirePolicy::Auto,
                    },
                )
            })
        });
    }
    g.finish();
}

/// Ablation: panel-first priorities vs FIFO in the simulated schedule
/// (PaRSEC's priority steering; DESIGN.md §5). Reported as simulated
/// makespans via a custom measurement (printed once).
fn bench_priority_policy(c: &mut Criterion) {
    use mixedp_core::build_sim_tasks;
    use mixedp_gpusim::{SimConfig, Simulator};
    let cluster = ClusterSpec::summit(1);
    let m = uniform_map(40, Precision::Fp64);
    let opts = CholeskySimOptions {
        nb: 2048,
        strategy: WirePolicy::Auto,
    };
    let (tasks, initial) = build_sim_tasks(&m, &cluster, opts);
    let mut fifo = tasks.clone();
    for t in &mut fifo {
        t.priority = 0;
    }
    let sim = Simulator::new(cluster, SimConfig::default());
    let t_prio = sim.run(&tasks, &initial).makespan_s;
    let t_fifo = sim.run(&fifo, &initial).makespan_s;
    println!(
        "\n[ablation_priority] simulated makespan: panel-first {t_prio:.3}s vs FIFO {t_fifo:.3}s ({:+.1}%)",
        100.0 * (t_fifo - t_prio) / t_prio
    );
    let mut g = c.benchmark_group("ablation_priority");
    g.sample_size(10);
    g.bench_function("panel_first", |b| b.iter(|| sim.run(&tasks, &initial)));
    g.bench_function("fifo", |b| b.iter(|| sim.run(&fifo, &initial)));
    g.finish();
}

criterion_group!(
    benches,
    bench_factorize,
    bench_tile_size,
    bench_sim_strategy,
    bench_sim_throughput,
    bench_priority_policy
);
criterion_main!(benches);
