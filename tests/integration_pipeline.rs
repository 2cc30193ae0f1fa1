//! End-to-end integration: synthetic data → adaptive precision map →
//! mixed-precision factorization → log-likelihood → parameter estimation,
//! crossing every crate of the workspace.

use mixedp::geostats::loglik::{ExactBackend, LoglikBackend};
use mixedp::kernels::reconstruction_error;
use mixedp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn full_pipeline_matern_2d() {
    let n = 225;
    let nb = 48;
    let mut rng = StdRng::seed_from_u64(5);
    let locs = gen_locations_2d(n, &mut rng);
    let model = Matern2d;
    let theta_true = [1.0, 0.1, 0.5];
    let z = generate_field(&model, &locs, &theta_true, &mut rng);

    // exact and tight-MP likelihoods agree at the true parameters
    let exact = loglik_exact(&model, &locs, &theta_true, &z).unwrap();
    let mp = MpBackend::new(1e-12, nb, 2)
        .loglik(&model, &locs, &theta_true, &z)
        .unwrap();
    assert!(
        ((exact - mp) / exact).abs() < 1e-10,
        "exact {exact} vs mp {mp}"
    );

    // estimation through the MP backend lands near the exact estimate
    let mut cfg = MleConfig::paper_defaults(3);
    cfg.optimizer.max_evals = 150;
    cfg.optimizer.restarts = 0;
    let r_exact = estimate(&model, &locs, &z, &cfg, &ExactBackend);
    let r_mp = estimate(&model, &locs, &z, &cfg, &MpBackend::new(1e-9, nb, 2));
    for (a, b) in r_exact.theta_hat.iter().zip(&r_mp.theta_hat) {
        assert!(
            (a - b).abs() < 0.05,
            "exact {:?} vs mp {:?}",
            r_exact.theta_hat,
            r_mp.theta_hat
        );
    }
}

#[test]
fn factorization_accuracy_ladder_sqexp() {
    // the factorization error must track u_req across the ladder
    let n = 300;
    let nb = 50;
    let mut rng = StdRng::seed_from_u64(6);
    let locs = gen_locations_2d(n, &mut rng);
    let model = SqExp::new2d();
    let theta = [1.0, 0.005]; // weak correlation: well conditioned
    let sigma = SymmTileMatrix::from_fn(
        n,
        nb,
        |i, j| covariance_entry(&model, &locs, i, j, &theta),
        |_, _| StoragePrecision::F64,
    );
    let dense = sigma.to_dense_symmetric();
    let norms = tile_fro_norms(&sigma);

    let mut errs = Vec::new();
    for u_req in [1e-13, 1e-8, 1e-4] {
        let pmap = PrecisionMap::from_norms(&norms, u_req, &Precision::ADAPTIVE_SET);
        let mut a = sigma.clone();
        factorize(&mut a, &pmap, &FactorOptions::single_shot(2)).unwrap();
        errs.push(reconstruction_error(&dense, &a.to_dense_lower()));
    }
    assert!(errs[0] < 1e-12, "{errs:?}");
    assert!(errs[0] <= errs[1] && errs[1] <= errs[2], "{errs:?}");
    assert!(
        errs[2] < 0.1,
        "even the loose factorization is usable: {errs:?}"
    );
}

#[test]
fn monte_carlo_mp_matches_exact_distribution() {
    // small paired Monte Carlo: the tight-accuracy MP estimator must track
    // the exact estimator replica by replica (paper Figs 5–6 at 1e-9)
    let model = SqExp::new2d();
    let mut mle = MleConfig::paper_defaults(2);
    mle.optimizer.max_evals = 120;
    mle.optimizer.restarts = 0;
    let cfg = MonteCarloConfig {
        theta_true: vec![1.0, 0.05],
        replicas: 3,
        seed: 11,
        mle,
    };
    let exact = run_monte_carlo(&model, 144, gen_locations_2d, &cfg, &ExactBackend);
    let mp_backend = MpBackend::new(1e-9, 48, 1);
    let mp = run_monte_carlo(&model, 144, gen_locations_2d, &cfg, &mp_backend);
    for (e, m) in exact.estimates.iter().zip(&mp.estimates) {
        for (a, b) in e.iter().zip(m) {
            assert!((a - b).abs() < 0.05, "exact {e:?} vs mp {m:?}");
        }
    }
}
