//! End-to-end recovery tests: precision escalation rescuing numerically
//! broken factorizations, injected faults surfacing as structured errors,
//! and the determinism contract — a fault-injected run is a pure function
//! of `(fault seed, input)` regardless of worker count.

use mixedp_core::factorize::build_dag;
use mixedp_core::{
    factorize_mp, factorize_mp_recovering, uniform_map, BreakdownCause, FactorError, FactorOptions,
    PrecisionMap,
};
use mixedp_fp::{Precision, StoragePrecision};
use mixedp_kernels::reconstruction_error;
use mixedp_runtime::{FaultPlan, RetryPolicy};
use mixedp_tile::{tile_fro_norms, DenseMatrix, SymmTileMatrix};
use proptest::prelude::*;

/// An SPD-in-FP64 but severely ill-conditioned matrix: a strongly
/// correlated squared-exponential kernel with a nugget small enough that
/// `κ·u ≥ 1` at FP16 kernel precision — "effectively indefinite" once the
/// panel arithmetic is degraded, which is exactly the breakdown the
/// escalation path exists for.
fn fragile_spd(n: usize, nb: usize, nugget: f64) -> SymmTileMatrix {
    SymmTileMatrix::from_fn(
        n,
        nb,
        |i, j| {
            let d = (i as f64 - j as f64) / n as f64;
            (-30.0 * d * d).exp() + if i == j { nugget } else { 0.0 }
        },
        |_, _| StoragePrecision::F64,
    )
}

#[test]
fn aggressive_map_recovers_via_escalation_where_classic_path_dies() {
    let n = 96;
    let nb = 16;
    let a0 = fragile_spd(n, nb, 1e-3);
    let dense = a0.to_dense_symmetric();
    let pmap = uniform_map(a0.nt(), Precision::Fp16);

    // FP64 reference factors cleanly: the matrix IS positive definite.
    let mut ref64 = a0.clone();
    factorize_mp(&mut ref64, &uniform_map(a0.nt(), Precision::Fp64), 1)
        .expect("FP64 reference must factor");

    // The classic fail-on-first-breakdown path dies under the map.
    let mut broken = a0.clone();
    assert!(
        factorize_mp(&mut broken, &pmap, 1).is_err(),
        "this map must break the classic path for the test to mean anything"
    );

    // The recovering path escalates the implicated tiles and completes.
    let mut l = a0.clone();
    let stats = factorize_mp_recovering(&mut l, &pmap, &FactorOptions::default())
        .expect("escalation must rescue the factorization");
    assert!(stats.factor_attempts > 1);
    assert!(!stats.escalations.is_empty());
    assert!(stats
        .escalations
        .iter()
        .all(|e| e.cause == BreakdownCause::NotSpd && e.escalated_tiles > 0));

    // The rescued factor is a genuine Cholesky factor of the input.
    let err = reconstruction_error(&dense, &l.to_dense_lower());
    let err64 = reconstruction_error(&dense, &ref64.to_dense_lower());
    assert!(
        err.is_finite() && err < 1e-2,
        "recovered factor must reconstruct the matrix (err {err:e})"
    );
    assert!(err64 <= err, "FP64 reference is the accuracy floor");
}

#[test]
fn breakdown_under_an_fp64_cross_escalates_the_whole_map() {
    // Row and column 3 run in FP64, every other tile in FP16. POTRF(3)
    // still breaks down, because the FP16 tiles outside the cross fed the
    // updates of tile (3,3). Escalating the cross moves nothing, so the
    // recovery steps the whole map instead of reporting NotSpd.
    let (n, nb, k) = (48, 8, 3);
    let a0 = fragile_spd(n, nb, 1e-3);
    let dense = a0.to_dense_symmetric();
    let nt = a0.nt();
    let pmap = PrecisionMap::from_fn(nt, |i, j| {
        if i == k || j == k {
            Precision::Fp64
        } else {
            Precision::Fp16
        }
    });
    let mut broken = a0.clone();
    assert_eq!(
        factorize_mp(&mut broken, &pmap, 1).unwrap_err().column,
        k * nb,
        "the first breakdown must be POTRF({k}) under its FP64 cross"
    );

    let mut ref64 = a0.clone();
    factorize_mp(&mut ref64, &uniform_map(nt, Precision::Fp64), 1).unwrap();
    for nthreads in [1usize, 4] {
        let mut l = a0.clone();
        let stats = factorize_mp_recovering(&mut l, &pmap, &FactorOptions::with_threads(nthreads))
            .expect("escalating the whole map must rescue an SPD matrix");
        let first = &stats.escalations[0];
        assert_eq!(first.tile, (k, k));
        assert_eq!(first.cause, BreakdownCause::NotSpd);
        // every off-diagonal tile outside the cross moved one step
        assert_eq!(first.escalated_tiles, nt * (nt - 1) / 2 - (nt - 1));
        let err = reconstruction_error(&dense, &l.to_dense_lower());
        let err64 = reconstruction_error(&dense, &ref64.to_dense_lower());
        assert!(
            err.is_finite() && err < 1e-2,
            "recovered factor must reconstruct the matrix (err {err:e})"
        );
        assert!(err64 <= err, "FP64 reference is the accuracy floor");
    }
}

/// A squared-exponential covariance on `n` evenly spaced points with the
/// given range and nugget.
fn sqexp(n: usize, nb: usize, range: f64, nugget: f64) -> SymmTileMatrix {
    SymmTileMatrix::from_fn(
        n,
        nb,
        |i, j| {
            let d = (i as f64 - j as f64) / (n as f64 * range);
            (-d * d).exp() + if i == j { nugget } else { 0.0 }
        },
        |_, _| StoragePrecision::F64,
    )
}

fn lower_bits(l: &SymmTileMatrix) -> Vec<u64> {
    let n = l.n();
    (0..n)
        .flat_map(|i| (0..=i).map(move |j| (i, j)))
        .map(|(i, j)| l.get(i, j).to_bits())
        .collect()
}

/// The replay oracle of the recovery loop: every attempt restarted from
/// the caller's matrix. A resumed attempt keeps the previous attempt's
/// tiles and reruns only the escalated cross; its trail and factor must be
/// those of single whole-DAG attempts under each intermediate map.
#[test]
fn resumed_escalation_matches_whole_dag_replay() {
    // (n, nb, range, nugget) of sqexp data under the adaptive 1e-4 map.
    // 100 and 130 are ragged (a short last tile row); 100 breaks down twice
    // at steps 4 and 5, 130 four times at step 4 (the last one a whole-map
    // escalation, so the final attempt restarts); 160 skips from step 4 to
    // step 7, so the tiles a resume recomputes are not all in later crosses.
    let cases = [
        (100, 16, 0.2, 1e-6),
        (130, 16, 0.2, 1e-4),
        (160, 16, 0.05, 1e-6),
    ];
    let mut repeated_step = false;
    for (n, nb, range, nugget) in cases {
        let a0 = sqexp(n, nb, range, nugget);
        let pmap = PrecisionMap::from_norms(&tile_fro_norms(&a0), 1e-4, &Precision::ADAPTIVE_SET);
        let kernels = build_dag(a0.nt()).tasks.len();
        for nthreads in [1usize, 4] {
            for renarrow_storage in [false, true] {
                let opts = FactorOptions {
                    nthreads,
                    renarrow_storage,
                    ..Default::default()
                };
                let case = format!("n={n} nb={nb} workers={nthreads} renarrow={renarrow_storage}");
                let mut l = a0.clone();
                let stats = factorize_mp_recovering(&mut l, &pmap, &opts).unwrap();
                assert!(stats.escalations.len() >= 2, "{case}: trail too short");
                let steps: Vec<(usize, usize)> = stats.escalations.iter().map(|e| e.tile).collect();
                repeated_step |= steps.windows(2).any(|w| w[0] == w[1]);
                assert!(
                    stats.tasks_run < stats.factor_attempts as usize * kernels,
                    "{case}: {} kernel bodies over {} attempts of {kernels}",
                    stats.tasks_run,
                    stats.factor_attempts
                );

                let single = FactorOptions {
                    escalation_budget: 0,
                    ..opts.clone()
                };
                let mut map = pmap.clone();
                for e in &stats.escalations {
                    let mut fresh = a0.clone();
                    match factorize_mp_recovering(&mut fresh, &map, &single) {
                        Err(FactorError::EscalationExhausted { last, .. }) => {
                            assert_eq!(
                                (last.task, last.tile, last.cause, last.escalated_tiles),
                                (e.task, e.tile, e.cause, e.escalated_tiles),
                                "{case}: attempt {}",
                                e.factor_attempt
                            );
                        }
                        other => panic!("{case}: attempt {} gave {other:?}", e.factor_attempt),
                    }
                    let mut changed = map.escalate_cross(e.tile.0, e.tile.1);
                    if changed == 0 {
                        changed = map.escalate_all();
                    }
                    assert_eq!(changed, e.escalated_tiles, "{case}");
                }
                let mut fresh = a0.clone();
                let last = factorize_mp_recovering(&mut fresh, &map, &single)
                    .unwrap_or_else(|e| panic!("{case}: final map must factor: {e}"));
                assert_eq!(last.factor_attempts, 1);
                assert_eq!(lower_bits(&fresh), lower_bits(&l), "{case}: factor bits");
            }
        }
    }
    assert!(repeated_step, "no trail broke down twice at the same step");
}

#[test]
fn genuinely_indefinite_matrix_is_not_rescued() {
    // Escalation must not mask real indefiniteness: when the implicated
    // tiles are already FP64 the driver reports NotSpd instead of looping.
    let n = 48;
    let nb = 16;
    let a = DenseMatrix::from_fn(n, n, |i, j| if i == j { -1.0 } else { 0.0 });
    let mut t = SymmTileMatrix::from_dense(&a, nb, StoragePrecision::F64);
    let pmap = uniform_map(t.nt(), Precision::Fp64);
    match factorize_mp_recovering(&mut t, &pmap, &FactorOptions::default()) {
        Err(FactorError::NotSpd(e)) => assert_eq!(e.column, 0),
        other => panic!("expected NotSpd, got {other:?}"),
    }
}

#[test]
fn persistent_injected_panic_becomes_structured_task_failure() {
    // A task that panics on every attempt exhausts the bounded retry and
    // surfaces as TaskFailed naming the kernel instance — never a hang,
    // never an anonymous worker panic.
    let a0 = fragile_spd(64, 16, 1.0); // well-conditioned (large nugget)
    let pmap = uniform_map(a0.nt(), Precision::Fp32);
    let opts = FactorOptions {
        faults: FaultPlan::seeded(9).with_persistent_panic_at(0),
        retry: RetryPolicy::default().with_max_attempts(3),
        ..Default::default()
    };
    for nthreads in [1usize, 4] {
        let mut l = a0.clone();
        let err = factorize_mp_recovering(
            &mut l,
            &pmap,
            &FactorOptions {
                nthreads,
                ..opts.clone()
            },
        )
        .unwrap_err();
        match err {
            FactorError::TaskFailed {
                task,
                attempt,
                cause,
            } => {
                assert_eq!(attempt, 3, "whole retry budget consumed");
                assert!(cause.contains("injected fault"), "{cause}");
                assert_eq!(format!("{task}"), "POTRF(0,0)");
            }
            e => panic!("expected TaskFailed, got {e:?} (nthreads {nthreads})"),
        }
    }
}

#[test]
fn transient_corruption_is_rerun_without_charging_the_precision_map() {
    // A one-shot NaN corruption of a task's output is detected by the
    // finite probe and recovered by re-running the attempt; the precision
    // map is untouched, and the final factor is bit-identical to the
    // fault-free run.
    let a0 = fragile_spd(64, 16, 1.0);
    let pmap = uniform_map(a0.nt(), Precision::Fp32);

    let mut clean = a0.clone();
    let clean_stats =
        factorize_mp_recovering(&mut clean, &pmap, &FactorOptions::default()).unwrap();
    assert_eq!(clean_stats.factor_attempts, 1);

    let mut l = a0.clone();
    let stats = factorize_mp_recovering(
        &mut l,
        &pmap,
        &FactorOptions {
            faults: FaultPlan::seeded(3).with_corrupt_at(2, 1),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(stats.factor_attempts, 2, "one corrupted pass, one clean");
    assert_eq!(stats.escalations.len(), 1);
    assert_eq!(stats.escalations[0].cause, BreakdownCause::Injected);
    assert_eq!(
        stats.escalations[0].escalated_tiles, 0,
        "transient corruption must not charge the precision map"
    );
    for i in 0..64 {
        for j in 0..=i {
            assert_eq!(clean.get(i, j), l.get(i, j), "({i},{j})");
        }
    }
}

/// Fingerprint of a recovery run: every output bit plus the recovery log.
fn fingerprint(
    a0: &SymmTileMatrix,
    pmap: &PrecisionMap,
    opts: &FactorOptions,
) -> Result<(Vec<u64>, u32, Vec<String>, u64), String> {
    let mut l = a0.clone();
    match factorize_mp_recovering(&mut l, pmap, opts) {
        Ok(stats) => {
            let n = a0.n();
            let mut bits = Vec::with_capacity(n * (n + 1) / 2);
            for i in 0..n {
                for j in 0..=i {
                    bits.push(l.get(i, j).to_bits());
                }
            }
            let esc = stats
                .escalations
                .iter()
                .map(|e| format!("{}:{}@{:?}:{}", e.factor_attempt, e.task, e.tile, e.cause))
                .collect();
            Ok((bits, stats.factor_attempts, esc, stats.task_retries))
        }
        Err(e) => Err(format!("{e}")),
    }
}

/// Explicit seed sweep of the determinism contract: serial and 4-worker
/// runs under injected panics + corruption must agree bit for bit on every
/// seed. `scripts/verify.sh` drives this in release mode with its own
/// `FAULT_SEEDS` list; without the variable a built-in set runs.
#[test]
fn determinism_holds_across_fault_seeds() {
    let seeds: Vec<u64> = std::env::var("FAULT_SEEDS")
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .unwrap_or_else(|_| vec![1, 7, 42]);
    assert!(!seeds.is_empty(), "FAULT_SEEDS parsed to nothing");
    let a0 = fragile_spd(64, 16, 1e-3);
    let pmap = uniform_map(a0.nt(), Precision::Fp16);
    for seed in seeds {
        let opts = |nt: usize| FactorOptions {
            nthreads: nt,
            faults: FaultPlan::seeded(seed)
                .with_panic_rate(0.05)
                .with_corrupt_rate(0.03),
            retry: RetryPolicy::default().with_max_attempts(6),
            ..Default::default()
        };
        let serial = fingerprint(&a0, &pmap, &opts(1));
        let parallel = fingerprint(&a0, &pmap, &opts(4));
        assert_eq!(serial, parallel, "seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The determinism contract under fault injection: for any fault seed,
    /// a run with panics, corruption, and recovery enabled is a pure
    /// function of `(seed, input)` — bit-identical across repeats AND
    /// across worker counts (serial == parallel), because every fault is
    /// hashed from `(seed, site, attempt)`, never from scheduling.
    #[test]
    fn fault_injected_runs_are_bit_deterministic(
        seed in 0u64..u64::MAX,
        nthreads in 2usize..=4,
        fragile in 0usize..2,
    ) {
        let (nugget, kernel) = if fragile == 1 {
            (1e-3, Precision::Fp16) // escalation path exercised too
        } else {
            (1.0, Precision::Fp32)
        };
        let a0 = fragile_spd(64, 16, nugget);
        let pmap = uniform_map(a0.nt(), kernel);
        // low rates + generous retry: transient faults recover, retry
        // exhaustion (which would fast-fail schedule-dependently) is
        // vanishingly unlikely
        let opts = |nt: usize| FactorOptions {
            nthreads: nt,
            faults: FaultPlan::seeded(seed)
                .with_panic_rate(0.05)
                .with_corrupt_rate(0.03),
            retry: RetryPolicy::default().with_max_attempts(6),
            ..Default::default()
        };
        let serial = fingerprint(&a0, &pmap, &opts(1));
        let serial2 = fingerprint(&a0, &pmap, &opts(1));
        let parallel = fingerprint(&a0, &pmap, &opts(nthreads));
        prop_assert_eq!(&serial, &serial2, "serial replay must be exact");
        prop_assert_eq!(&serial, &parallel, "parallel must match serial bit for bit");
    }
}
