//! `CovarianceModel::cov_into` (the batched evaluation assembly uses) equals
//! per-entry `cov` bit for bit, and the Matérn batch also equals the scalar
//! oracle's arithmetic.

use mixedp_geostats::bessel::LANES;
use mixedp_geostats::oracle::reference_bessel_k;
use mixedp_geostats::{CovarianceModel, Matern2d, PowExp, SqExp};
use proptest::prelude::*;

/// Slice lengths `0..=3·LANES+1`: empty, partial and several full batches.
const MAX_LEN: usize = 3 * LANES + 2;

/// Smoothness `ν ∈ (0.1, 5]`, with half-integers (`a1 = 0.25 − μ² = 0`:
/// CF2 stops at its first step) and near-integers (`|μ| < 1e-5`: Temme's
/// `−γ` limit of `gam1`) drawn as often as the continuum.
fn nu_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.1f64..5.0,
        Just(5.0),
        (0usize..5).prop_map(|k| k as f64 + 0.5),
        (1usize..=5).prop_flat_map(|k| (-9e-6f64..9e-6).prop_map(move |e| k as f64 + e)),
    ]
}

/// Scaled distances `x = h/β`: both Bessel regimes, exactly the boundary
/// `x = 2` and the `h = 0` shortcut.
fn x_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        1e-3f64..2.0,
        2.0f64..12.0,
        2.0f64..40.0,
        Just(2.0),
        Just(0.0)
    ]
}

/// Distances `h = x·β` (so `x = 2` gives `h/β = 2` exactly) batched by
/// `cov_into`, against `cov` entry by entry.
fn assert_cov_into_bitwise(model: &dyn CovarianceModel, theta: &[f64], hs: &[f64]) -> Vec<f64> {
    let mut got = hs.to_vec();
    model.cov_into(theta, &mut got);
    for (k, (&h, g)) in hs.iter().zip(&got).enumerate() {
        let want = model.cov(h, theta);
        assert_eq!(
            g.to_bits(),
            want.to_bits(),
            "{} θ={theta:?} entry {k} of {}: h={h:e}: {g:e} vs {want:e}",
            model.label(),
            hs.len()
        );
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn matern_cov_into_bit_identical(
        sigma_sq in 0.1f64..3.0,
        beta in prop_oneof![0.01f64..2.0, Just(2.0)],
        nu in nu_strategy(),
        xs in prop::collection::vec(x_strategy(), 0..MAX_LEN),
    ) {
        let theta = [sigma_sq, beta, nu];
        let hs: Vec<f64> = xs.iter().map(|x| x * beta).collect();
        let got = assert_cov_into_bitwise(&Matern2d, &theta, &hs);
        // the scalar arithmetic `Matern2d::cov` had before batching
        let scale = (2.0f64).powf(1.0 - nu) / libm::tgamma(nu);
        for (&h, g) in hs.iter().zip(&got) {
            let want = if h == 0.0 {
                sigma_sq
            } else {
                let r = h / beta;
                sigma_sq * scale * r.powf(nu) * reference_bessel_k(nu, r)
            };
            prop_assert_eq!(g.to_bits(), want.to_bits(), "oracle ν={} h={:e}", nu, h);
        }
    }

    #[test]
    fn sqexp_and_powexp_cov_into_bit_identical(
        sigma_sq in 0.1f64..3.0,
        beta in 0.01f64..2.0,
        gamma in 0.2f64..2.0,
        xs in prop::collection::vec(x_strategy(), 0..MAX_LEN),
    ) {
        let hs: Vec<f64> = xs.iter().map(|x| x * beta).collect();
        assert_cov_into_bitwise(&SqExp::new2d(), &[sigma_sq, beta], &hs);
        assert_cov_into_bitwise(&SqExp::new3d(), &[sigma_sq, beta], &hs);
        assert_cov_into_bitwise(&PowExp, &[sigma_sq, beta, gamma], &hs);
    }
}
