//! Scalar `K_ν`: the oracle that the batched Bessel kernels of
//! [`crate::bessel`] are tested (bit for bit) against.
//!
//! One argument at a time, each call recomputing its `ν`-only terms: Temme's
//! series for `x ≤ 2`, Steed's CF2 loop for `x > 2`, then upward recurrence
//! in the order. [`crate::bessel::bessel_k`] and the Matérn model's
//! `cov_into` must reproduce [`reference_bessel_k`] exactly.

use crate::bessel::{temme_gammas, EPS, MAX_ITER};

/// `K_ν(x)` for `ν ≥ 0`, `x > 0`, by the scalar two-regime scheme.
pub fn reference_bessel_k(nu: f64, x: f64) -> f64 {
    assert!(x > 0.0, "bessel_k requires x > 0, got {x}");
    assert!(nu >= 0.0, "bessel_k requires ν ≥ 0, got {nu}");

    // Split ν = nl + μ with nl integer and |μ| ≤ 1/2.
    let nl = (nu + 0.5).floor();
    let mu = nu - nl;
    let nl = nl as usize;

    let (mut k_mu, mut k_mu1) = if x <= 2.0 {
        k_temme_series(mu, x)
    } else {
        k_steed_cf2(mu, x)
    };

    // Upward recurrence K_{m+1} = K_{m−1} + 2m/x · K_m, starting at m = μ+1.
    for i in 1..=nl {
        let k_next = k_mu + 2.0 * (mu + i as f64) / x * k_mu1;
        k_mu = k_mu1;
        k_mu1 = k_next;
    }
    k_mu
}

/// Temme's series: returns `(K_μ(x), K_{μ+1}(x))` for `x ≤ 2`, `|μ| ≤ ½`.
fn k_temme_series(mu: f64, x: f64) -> (f64, f64) {
    let x2 = 0.5 * x;
    let pimu = std::f64::consts::PI * mu;
    let fact = if pimu.abs() < EPS {
        1.0
    } else {
        pimu / pimu.sin()
    };
    let d = -x2.ln();
    let e = mu * d;
    let fact2 = if e.abs() < EPS { 1.0 } else { e.sinh() / e };
    let (gam1, gam2, gampl, gammi) = temme_gammas(mu);
    let mut ff = fact * (gam1 * e.cosh() + gam2 * fact2 * d);
    let mut sum = ff;
    let e = e.exp();
    let mut p = 0.5 * e / gampl;
    let mut q = 0.5 / (e * gammi);
    let mut c = 1.0;
    let d2 = x2 * x2;
    let mut sum1 = p;
    let mu2 = mu * mu;
    for i in 1..=MAX_ITER {
        let fi = i as f64;
        ff = (fi * ff + p + q) / (fi * fi - mu2);
        c *= d2 / fi;
        p /= fi - mu;
        q /= fi + mu;
        let del = c * ff;
        sum += del;
        let del1 = c * (p - fi * ff);
        sum1 += del1;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    (sum, sum1 * 2.0 / x)
}

/// Steed's CF2: returns `(K_μ(x), K_{μ+1}(x))` for `x > 2`, `|μ| ≤ ½`.
fn k_steed_cf2(mu: f64, x: f64) -> (f64, f64) {
    let mu2 = mu * mu;
    let mut b = 2.0 * (1.0 + x);
    let mut d = 1.0 / b;
    let mut delh = d;
    let mut h = delh;
    let mut q1 = 0.0;
    let mut q2 = 1.0;
    let a1 = 0.25 - mu2;
    let mut q = a1;
    let mut c = a1;
    let mut a = -a1;
    let mut s = 1.0 + q * delh;
    for i in 2..=MAX_ITER {
        let fi = i as f64;
        a -= 2.0 * (fi - 1.0);
        c = -a * c / fi;
        let qnew = (q1 - b * q2) / a;
        q1 = q2;
        q2 = qnew;
        q += c * qnew;
        b += 2.0;
        d = 1.0 / (b + a * d);
        delh *= b * d - 1.0;
        h += delh;
        let dels = q * delh;
        s += dels;
        if (dels / s).abs() < EPS {
            break;
        }
    }
    let h = a1 * h;
    let k_mu = (std::f64::consts::PI / (2.0 * x)).sqrt() * (-x).exp() / s;
    let k_mu1 = k_mu * (mu + x + 0.5 - h) / x;
    (k_mu, k_mu1)
}
