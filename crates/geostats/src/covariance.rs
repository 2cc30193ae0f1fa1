//! Covariance models (paper §III-A).
//!
//! Two stationary, isotropic families:
//!
//! * **Squared exponential** (2D or 3D): `C(h) = σ²·exp(−h²/β)`,
//!   `θ = (σ², β)`.
//! * **2D Matérn**:
//!   `C(h) = σ²·(2^{1−ν}/Γ(ν))·(h/β)^ν·K_ν(h/β)`, `θ = (σ², β, ν)`.
//!
//! Assembly evaluates a model through [`CovarianceModel::cov_into`], one
//! call per tile (or dense row), so a model can compute its `θ`-only terms
//! once per call; [`CovarianceModel::cov`] stays the per-entry definition,
//! and `cov_into` must equal it bit for bit.

use crate::bessel::{bessel_k, BesselK, LANES};
use crate::locations::Location;

/// A stationary isotropic covariance model parameterized by `θ`.
pub trait CovarianceModel: Sync + Send {
    /// Number of parameters in `θ`.
    fn nparams(&self) -> usize;

    /// Covariance at distance `h ≥ 0` for parameters `theta`.
    fn cov(&self, h: f64, theta: &[f64]) -> f64;

    /// Human-readable parameter names, in `θ` order.
    fn param_names(&self) -> &'static [&'static str];

    /// Model label as used in the paper ("2D-sqexp", "2D-Matérn", "3D-sqexp").
    fn label(&self) -> &'static str;

    /// Overwrite each distance `h[k] ≥ 0` with its covariance `cov(h[k])`,
    /// bit for bit. The default evaluates [`CovarianceModel::cov`] entry by
    /// entry.
    fn cov_into(&self, theta: &[f64], h: &mut [f64]) {
        for v in h {
            *v = self.cov(*v, theta);
        }
    }

    /// Covariance between two locations.
    fn cov_loc(&self, a: &Location, b: &Location, theta: &[f64]) -> f64 {
        self.cov(a.dist(b), theta)
    }
}

/// Squared exponential `C(h) = σ² exp(−h²/β)`; the `dims` field only changes
/// the label (the functional form is dimension-free, distances do the work).
#[derive(Debug, Clone, Copy)]
pub struct SqExp {
    dims: u8,
}

impl SqExp {
    pub fn new2d() -> Self {
        SqExp { dims: 2 }
    }

    pub fn new3d() -> Self {
        SqExp { dims: 3 }
    }
}

impl CovarianceModel for SqExp {
    fn nparams(&self) -> usize {
        2
    }

    fn cov(&self, h: f64, theta: &[f64]) -> f64 {
        debug_assert_eq!(theta.len(), 2);
        let (sigma_sq, beta) = (theta[0], theta[1]);
        sigma_sq * (-h * h / beta).exp()
    }

    fn param_names(&self) -> &'static [&'static str] {
        &["sigma^2", "beta"]
    }

    fn label(&self) -> &'static str {
        if self.dims == 2 {
            "2D-sqexp"
        } else {
            "3D-sqexp"
        }
    }
}

/// 2D Matérn `C(h) = σ² (2^{1−ν}/Γ(ν)) (h/β)^ν K_ν(h/β)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Matern2d;

impl CovarianceModel for Matern2d {
    fn nparams(&self) -> usize {
        3
    }

    fn cov(&self, h: f64, theta: &[f64]) -> f64 {
        debug_assert_eq!(theta.len(), 3);
        let (sigma_sq, beta, nu) = (theta[0], theta[1], theta[2]);
        if h == 0.0 {
            return sigma_sq;
        }
        let r = h / beta;
        sigma_sq * matern_scale(nu) * r.powf(nu) * bessel_k(nu, r)
    }

    /// `σ²·2^{1−ν}/Γ(ν)` and the order's Bessel terms once per call; `x ≤ 2`
    /// entries take Temme's series in place, `x > 2` entries are gathered
    /// into batches of [`LANES`] for the lane-batched CF2 (a partial last
    /// batch is padded with its first argument). Each entry keeps the
    /// operation sequence of [`Matern2d::cov`], so the result is bitwise
    /// the same.
    fn cov_into(&self, theta: &[f64], h: &mut [f64]) {
        debug_assert_eq!(theta.len(), 3);
        let (sigma_sq, beta, nu) = (theta[0], theta[1], theta[2]);
        let amp = sigma_sq * matern_scale(nu);
        let k = BesselK::new(nu);
        let mut idx = [0usize; LANES];
        let mut xs = [0.0; LANES];
        let mut live = 0;
        let flush = |h: &mut [f64], idx: &[usize; LANES], xs: &mut [f64; LANES], live: usize| {
            let first = xs[0];
            xs[live..].fill(first);
            let kx = k.large(xs);
            for l in 0..live {
                h[idx[l]] = amp * xs[l].powf(nu) * kx[l];
            }
        };
        for i in 0..h.len() {
            if h[i] == 0.0 {
                h[i] = sigma_sq;
                continue;
            }
            let r = h[i] / beta;
            if r <= 2.0 {
                h[i] = amp * r.powf(nu) * k.small(r);
            } else {
                idx[live] = i;
                xs[live] = r;
                live += 1;
                if live == LANES {
                    flush(h, &idx, &mut xs, live);
                    live = 0;
                }
            }
        }
        if live > 0 {
            flush(h, &idx, &mut xs, live);
        }
    }

    fn param_names(&self) -> &'static [&'static str] {
        &["sigma^2", "beta", "nu"]
    }

    fn label(&self) -> &'static str {
        "2D-Matérn"
    }
}

/// The Matérn normalization `2^{1−ν}/Γ(ν)`.
fn matern_scale(nu: f64) -> f64 {
    (2.0f64).powf(1.0 - nu) / libm::tgamma(nu)
}

/// Powered exponential `C(h) = σ² exp(−(h/β)^γ)`, `θ = (σ², β, γ)` with
/// `0 < γ ≤ 2` — a classical family bridging the exponential (`γ = 1`,
/// rough) and the Gaussian/squared-exponential (`γ = 2`, ultra-smooth)
/// shapes; included as an extension model for sensitivity studies.
#[derive(Debug, Clone, Copy, Default)]
pub struct PowExp;

impl CovarianceModel for PowExp {
    fn nparams(&self) -> usize {
        3
    }

    fn cov(&self, h: f64, theta: &[f64]) -> f64 {
        debug_assert_eq!(theta.len(), 3);
        let (sigma_sq, beta, gamma) = (theta[0], theta[1], theta[2]);
        if h == 0.0 {
            return sigma_sq;
        }
        sigma_sq * (-(h / beta).powf(gamma)).exp()
    }

    fn param_names(&self) -> &'static [&'static str] {
        &["sigma^2", "beta", "gamma"]
    }

    fn label(&self) -> &'static str {
        "2D-powexp"
    }
}

/// Relative nugget added to the diagonal of every assembled covariance
/// matrix: `Σ_ii = σ²·(1 + NUGGET_REL)`.
///
/// The squared-exponential kernel's eigenvalues decay exponentially, so at
/// strong correlation (`β = 0.3`) `Σ(θ)` is numerically singular in FP64
/// already at a few hundred locations. A 1e-8 relative nugget — standard
/// practice in GP software — restores numerical positive definiteness while
/// perturbing the model far below the parameter-estimation noise floor. It
/// is applied identically in data generation and in every likelihood
/// backend, so all accuracy-level comparisons remain paired (DESIGN.md).
pub const NUGGET_REL: f64 = 1e-8;

/// Covariance matrix entry `(i, j)` including the diagonal nugget — the
/// single source of truth used by both the dense assembly below and the
/// tiled mixed-precision assembly in `mixedp-core`.
pub fn covariance_entry(
    model: &dyn CovarianceModel,
    locs: &[Location],
    i: usize,
    j: usize,
    theta: &[f64],
) -> f64 {
    let v = model.cov_loc(&locs[i], &locs[j], theta);
    if i == j {
        v + theta[0] * NUGGET_REL
    } else {
        v
    }
}

/// Build the dense covariance matrix `Σ(θ)` for a location set (row-major,
/// symmetric, used by the exact reference path, data generation and
/// kriging). Each row's lower part `j ≤ i` is evaluated in place by one
/// [`CovarianceModel::cov_into`] call, so the entries equal
/// [`covariance_entry`] bit for bit.
pub fn covariance_dense(
    model: &dyn CovarianceModel,
    locs: &[Location],
    theta: &[f64],
) -> mixedp_tile::DenseMatrix {
    let n = locs.len();
    let mut a = mixedp_tile::DenseMatrix::zeros(n, n);
    for (i, row) in a.data_mut().chunks_mut(n.max(1)).enumerate() {
        let lower = &mut row[..=i];
        for (v, b) in lower.iter_mut().zip(locs) {
            *v = locs[i].dist(b);
        }
        model.cov_into(theta, lower);
        lower[i] += theta[0] * NUGGET_REL;
    }
    a.symmetrize_from_lower();
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqexp_basics() {
        let m = SqExp::new2d();
        let theta = [1.5, 0.1];
        assert_eq!(m.cov(0.0, &theta), 1.5);
        assert!(m.cov(0.1, &theta) < 1.5);
        // C(h) = σ² e^{−h²/β}
        let h = 0.2;
        let want = 1.5 * (-h * h / 0.1f64).exp();
        assert!((m.cov(h, &theta) - want).abs() < 1e-15);
        assert_eq!(m.label(), "2D-sqexp");
        assert_eq!(SqExp::new3d().label(), "3D-sqexp");
    }

    #[test]
    fn matern_at_zero_is_variance() {
        let m = Matern2d;
        assert_eq!(m.cov(0.0, &[2.0, 0.3, 0.5]), 2.0);
    }

    #[test]
    fn matern_nu_half_is_exponential() {
        // ν = 1/2 ⇒ C(h) = σ² exp(−h/β)
        let m = Matern2d;
        let (s2, beta) = (1.3, 0.17);
        for &h in &[0.01, 0.1, 0.5, 1.0] {
            let got = m.cov(h, &[s2, beta, 0.5]);
            let want = s2 * (-h / beta).exp();
            assert!(
                ((got - want) / want).abs() < 1e-11,
                "h={h}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn matern_smoothness_orders_short_range() {
        // Near h→0, higher ν ⇒ flatter (smoother) correlation: at a small h
        // the smoother field has correlation closer to σ².
        let m = Matern2d;
        let h = 0.02;
        let c_rough = m.cov(h, &[1.0, 0.1, 0.5]);
        let c_smooth = m.cov(h, &[1.0, 0.1, 1.0]);
        assert!(c_smooth > c_rough);
    }

    #[test]
    fn matern_decreasing_in_h() {
        let m = Matern2d;
        let theta = [1.0, 0.1, 1.0];
        let mut prev = m.cov(0.0, &theta);
        for i in 1..50 {
            let c = m.cov(0.02 * i as f64, &theta);
            assert!(c < prev);
            assert!(c > 0.0);
            prev = c;
        }
    }

    #[test]
    fn matern_nu_three_half_closed_form() {
        // ν = 3/2 ⇒ C(h) = σ² (1 + h/β) exp(−h/β)
        let m = Matern2d;
        let (s2, beta) = (0.8, 0.25);
        for &h in &[0.02, 0.2, 0.7] {
            let got = m.cov(h, &[s2, beta, 1.5]);
            let r = h / beta;
            let want = s2 * (1.0 + r) * (-r).exp();
            assert!(((got - want) / want).abs() < 1e-11, "h={h}");
        }
    }

    #[test]
    fn powexp_bridges_exponential_and_gaussian() {
        let m = PowExp;
        let (s2, beta) = (1.2, 0.3);
        for &h in &[0.05, 0.2, 0.6] {
            // γ = 1: exponential
            let e = m.cov(h, &[s2, beta, 1.0]);
            assert!(((e - s2 * (-h / beta).exp()) / e).abs() < 1e-14);
            // γ = 2: squared exponential with β' = β²
            let g = m.cov(h, &[s2, beta, 2.0]);
            let sq = SqExp::new2d().cov(h, &[s2, beta * beta]);
            assert!(((g - sq) / g).abs() < 1e-12, "{g} vs {sq}");
        }
        assert_eq!(m.cov(0.0, &[s2, beta, 1.3]), s2);
        // smoother (larger γ) decays slower at short range
        let short = 0.03;
        assert!(m.cov(short, &[1.0, 0.3, 2.0]) > m.cov(short, &[1.0, 0.3, 0.8]));
    }

    #[test]
    fn covariance_dense_is_symmetric_with_unit_diag_scaled() {
        let locs = vec![
            Location::new2d(0.1, 0.1),
            Location::new2d(0.3, 0.7),
            Location::new2d(0.9, 0.2),
        ];
        let a = covariance_dense(&SqExp::new2d(), &locs, &[2.0, 0.2]);
        for i in 0..3 {
            assert!((a.get(i, i) - 2.0).abs() < 1e-7);
            for j in 0..3 {
                assert_eq!(a.get(i, j), a.get(j, i));
            }
        }
    }
}
