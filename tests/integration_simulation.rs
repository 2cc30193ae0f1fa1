//! Integration tests of the performance-simulation path: precision maps +
//! conversion plans driving the cluster DES, checking the paper's headline
//! relationships hold in the model.

use mixedp::prelude::*;

fn opts(strategy: WirePolicy) -> CholeskySimOptions {
    CholeskySimOptions { nb: 2048, strategy }
}

#[test]
fn paper_headline_shapes_single_v100() {
    let cluster = ClusterSpec::new(NodeSpec::summit().single_gpu(), 1);
    let nt = 30; // 61,440 — the paper's Fig 10 V100 size

    let fp64 = simulate_cholesky(
        &uniform_map(nt, Precision::Fp64),
        &cluster,
        opts(WirePolicy::Auto),
    );
    let fp32 = simulate_cholesky(
        &uniform_map(nt, Precision::Fp32),
        &cluster,
        opts(WirePolicy::Auto),
    );
    let fp16 = simulate_cholesky(
        &uniform_map(nt, Precision::Fp16),
        &cluster,
        opts(WirePolicy::Auto),
    );

    // FP64 ≥ 84% of peak (paper Fig 8a)
    let eff64 = fp64.tflops() / 7.8;
    assert!(eff64 > 0.84 && eff64 <= 1.0, "FP64 eff {eff64}");
    // FP32 roughly 2x FP64 on V100
    let r = fp32.tflops() / fp64.tflops();
    assert!(r > 1.6 && r < 2.2, "FP32/FP64 {r}");
    // FP64→FP64/FP16 speedup is many-fold (paper ~11x at larger sizes)
    let s = fp64.makespan_s / fp16.makespan_s;
    assert!(s > 4.0, "FP64→FP16 speedup {s}");
    // and saves energy by a comparable factor (paper Fig 10)
    assert!(fp16.energy_joules() < fp64.energy_joules() / 2.0);
}

#[test]
fn stc_beats_ttc_and_reduces_everything() {
    let cluster = ClusterSpec::new(NodeSpec::summit().single_gpu(), 1);
    let nt = 48; // beyond V100 memory: staging traffic matters
    let m = uniform_map(nt, Precision::Fp16x32);
    let ttc = simulate_cholesky(&m, &cluster, opts(WirePolicy::Ttc));
    let stc = simulate_cholesky(&m, &cluster, opts(WirePolicy::Auto));
    assert!(stc.makespan_s < ttc.makespan_s);
    assert!(stc.h2d_bytes < ttc.h2d_bytes);
    assert!(stc.conversions < ttc.conversions / 5);
    assert!(stc.energy_joules() < ttc.energy_joules());
    let speedup = ttc.makespan_s / stc.makespan_s;
    assert!(
        speedup > 1.1 && speedup < 2.0,
        "STC speedup {speedup} out of the paper's band"
    );
}

#[test]
fn multi_node_weak_scaling_grows_throughput() {
    let nb = 2048;
    let t1 = simulate_cholesky(
        &uniform_map(24, Precision::Fp64),
        &ClusterSpec::summit(1),
        CholeskySimOptions {
            nb,
            strategy: WirePolicy::Auto,
        },
    );
    let t4 = simulate_cholesky(
        &uniform_map(38, Precision::Fp64), // ~4x the flops of NT=24
        &ClusterSpec::summit(4),
        CholeskySimOptions {
            nb,
            strategy: WirePolicy::Auto,
        },
    );
    assert!(
        t4.tflops() > 2.0 * t1.tflops(),
        "weak scaling {} -> {}",
        t1.tflops(),
        t4.tflops()
    );
}

#[test]
fn strong_scaling_reduces_makespan() {
    let nt = 96;
    let run = |nodes| {
        simulate_cholesky(
            &uniform_map(nt, Precision::Fp64),
            &ClusterSpec::summit(nodes),
            opts(WirePolicy::Auto),
        )
        .makespan_s
    };
    let t4 = run(4);
    let t16 = run(16);
    assert!(t16 < t4 / 2.0, "strong scaling {t4} -> {t16}");
}

#[test]
fn deterministic_simulation() {
    let cluster = ClusterSpec::summit(2);
    let m = uniform_map(20, Precision::Fp16);
    let a = simulate_cholesky(&m, &cluster, opts(WirePolicy::Auto));
    let b = simulate_cholesky(&m, &cluster, opts(WirePolicy::Auto));
    assert_eq!(a.makespan_s, b.makespan_s);
    assert_eq!(a.h2d_bytes, b.h2d_bytes);
    assert_eq!(a.nic_bytes, b.nic_bytes);
    assert_eq!(a.conversions, b.conversions);
}

#[test]
fn occupancy_series_sane() {
    let cluster = ClusterSpec::new(NodeSpec::haxane(), 1);
    let rep = simulate_cholesky(
        &uniform_map(24, Precision::Fp32),
        &cluster,
        opts(WirePolicy::Auto),
    );
    let series = rep.occupancy_series(0, 20);
    assert_eq!(series.len(), 20);
    assert!(series.iter().all(|&v| (0.0..=1.0).contains(&v)));
    // the bulk of a compute-bound run is near-fully occupied
    let high = series.iter().filter(|&&v| v > 0.9).count();
    assert!(high >= 10, "{series:?}");
}
