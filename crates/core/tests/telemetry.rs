//! End-to-end telemetry contract tests on the factorization paths:
//!
//! 1. **bit-identity** — the factor is a pure function of the input and
//!    the precision map; turning tracing on (serial or parallel) changes
//!    no bit of the result;
//! 2. **RunReport** — a traced factorization plus a distributed leg
//!    produce a schema-valid v1 `RunReport` with live occupancy, energy,
//!    and registry counters;
//! 3. **scheduler counter merge** — the per-worker counters of the nested
//!    parallel executor survive into `FactorStats` (the totals are the
//!    elementwise sum, and the task count matches the DAG).
//!
//! Every test holds [`obs::test_guard`] — the enable flag, the ring
//! registry, and the metric registry are process-global.

use mixedp_core::{
    factorize, uniform_map, validate_run_report, FactorOptions, RunReport, WirePolicy,
    RUN_REPORT_VERSION,
};
use mixedp_fp::{Precision, StoragePrecision};
use mixedp_obs as obs;
use mixedp_tile::{Grid2d, SymmTileMatrix};

fn spd_matrix(n: usize, nb: usize) -> SymmTileMatrix {
    SymmTileMatrix::from_fn(
        n,
        nb,
        |i, j| {
            let d = (i as f64 - j as f64).abs();
            (-0.1 * d).exp() + if i == j { 0.6 } else { 0.0 }
        },
        |_, _| StoragePrecision::F64,
    )
}

/// Factor `a0` with the given thread count and return the raw bits of the
/// lower triangle.
fn factor_bits(a0: &SymmTileMatrix, nt: usize, threads: usize) -> Vec<u64> {
    let m = uniform_map(nt, Precision::Fp16x32);
    let mut a = a0.clone();
    factorize(&mut a, &m, &FactorOptions::single_shot(threads)).expect("factorization");
    let n = a0.n();
    let mut bits = Vec::with_capacity(n * (n + 1) / 2);
    for i in 0..n {
        for j in 0..=i {
            bits.push(a.get(i, j).to_bits());
        }
    }
    bits
}

#[test]
fn tracing_preserves_bit_identity() {
    let _g = obs::test_guard();
    let nt = 6;
    let nb = 24;
    let a0 = spd_matrix(nt * nb, nb);
    for threads in [1usize, 3] {
        obs::set_enabled(false);
        let off = factor_bits(&a0, nt, threads);
        obs::collect(); // drain, keep rings bounded
        obs::set_enabled(true);
        let on = factor_bits(&a0, nt, threads);
        obs::set_enabled(false);
        obs::collect();
        assert_eq!(
            off, on,
            "tracing changed the factor bits at {threads} thread(s)"
        );
    }
}

#[test]
fn traced_run_yields_valid_run_report() {
    let _g = obs::test_guard();
    let nt = 6;
    let nb = 24;
    let n = nt * nb;
    let a0 = spd_matrix(n, nb);
    let m = uniform_map(nt, Precision::Fp16x32);

    obs::collect();
    obs::metrics::reset();
    obs::set_enabled(true);
    let t0 = std::time::Instant::now();
    let mut a = a0.clone();
    let stats = factorize(&mut a, &m, &FactorOptions::single_shot(3)).expect("factorization");
    let mut a_dist = a0.clone();
    let on_grid = FactorOptions {
        grid: Grid2d::new(2, 2),
        wire: WirePolicy::Auto,
        ..FactorOptions::single_shot(2)
    };
    let dist = factorize(&mut a_dist, &m, &on_grid)
        .expect("distributed factorization")
        .wire
        .unwrap_or_default();
    let wall_s = t0.elapsed().as_secs_f64();
    obs::set_enabled(false);
    let trace = obs::collect();

    assert!(!trace.records.is_empty());
    let report = RunReport::collect(
        "core-telemetry-test",
        3,
        wall_s,
        &trace,
        &dist.motion_inputs(),
        stats.sched_per_worker.clone(),
    );
    let json = report.to_json();
    let version = validate_run_report(&json).expect("run report must validate");
    assert_eq!(version, RUN_REPORT_VERSION);
    assert!(report.occupancy.mean() > 0.0);
    assert!(report.energy.total_joules > 0.0);
    // the registry saw both the scheduler and the wire path
    assert!(report.metrics.counter("scheduler.tasks").unwrap_or(0) >= stats.tasks_run as u64);
    assert!(report.metrics.counter("wire.messages").unwrap_or(0) >= dist.messages);
    // the chrome export of the same stream is valid too
    obs::validate_chrome_trace(&obs::chrome_trace_json(&trace)).expect("chrome export");
}

#[test]
fn nested_scheduler_counters_survive_into_factor_stats() {
    let _g = obs::test_guard();
    let nt = 8;
    let nb = 16;
    let a0 = spd_matrix(nt * nb, nb);
    let m = uniform_map(nt, Precision::Fp16x32);

    // parallel: per-worker counters present, totals = elementwise sum
    let mut a = a0.clone();
    let threads = 3;
    let stats = factorize(&mut a, &m, &FactorOptions::single_shot(threads)).expect("factorization");
    assert_eq!(stats.sched_per_worker.len(), threads);
    let summed: u64 = stats.sched_per_worker.iter().map(|w| w.tasks).sum();
    assert_eq!(summed, stats.sched_totals.tasks);
    assert_eq!(stats.sched_totals.tasks as usize, stats.tasks_run);
    let parks: u64 = stats.sched_per_worker.iter().map(|w| w.parks).sum();
    assert_eq!(parks, stats.sched_totals.parks);
    let steals: u64 = stats.sched_per_worker.iter().map(|w| w.steals).sum();
    assert_eq!(steals, stats.sched_totals.steals);

    // serial: no nested scheduler, so no per-worker rows and zero totals
    let mut a = a0.clone();
    let stats =
        factorize(&mut a, &m, &FactorOptions::single_shot(1)).expect("serial factorization");
    assert!(stats.sched_per_worker.is_empty());
    assert_eq!(stats.sched_totals.tasks, 0);
}
