//! Mixed-precision iterative refinement: FP64-accurate solves from a
//! reduced-precision factorization.
//!
//! The energy-efficiency literature the paper builds on (Haidar et al.
//! \[25\], \[33\]) pairs a low-precision factorization with iterative
//! refinement so the *solution* recovers working accuracy while the O(n³)
//! work ran fast and cool. This module brings that solver to the adaptive
//! tile framework: factor `Σ` once under a loose precision map, then refine
//! `Σ x = b`:
//!
//! ```text
//! x₀ = Σ̃⁻¹ b                    (tiled solves through the MP factor)
//! rᵢ = b − Σ xᵢ                  (FP64 residual)
//! xᵢ₊₁ = xᵢ + Σ̃⁻¹ rᵢ
//! ```
//!
//! converging when the MP factor is a good enough preconditioner
//! (`κ(Σ)·u_factor < 1`), which is precisely the regime the adaptive rule
//! targets.

use mixedp_kernels::solve::spd_solve_tiled;
use mixedp_tile::SymmTileMatrix;

/// Outcome of a refinement run.
#[derive(Debug, Clone)]
pub struct RefineResult {
    pub x: Vec<f64>,
    /// Relative residual ‖b − Σx‖ / ‖b‖ at exit.
    pub rel_residual: f64,
    pub iterations: usize,
    pub converged: bool,
}

/// Refinement broke down instead of merely running out of budget: the
/// factor is too weak a preconditioner for this system (κ·u ≥ 1) or the
/// data is poisoned. The classic silent loop-to-max would mask these — a
/// NaN residual compares false against the tolerance forever.
#[derive(Debug, Clone, PartialEq)]
pub enum RefineError {
    /// The residual (or the iterate feeding it) went NaN/Inf.
    NonFinite { iteration: usize },
    /// The residual grew two consecutive iterations — divergence, not
    /// slow convergence (one growth step can be a transient).
    Diverged {
        iteration: usize,
        residual: f64,
        prev: f64,
    },
}

impl std::fmt::Display for RefineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefineError::NonFinite { iteration } => {
                write!(f, "refinement residual non-finite at iteration {iteration}")
            }
            RefineError::Diverged {
                iteration,
                residual,
                prev,
            } => write!(
                f,
                "refinement diverging at iteration {iteration}: residual {residual:e} after {prev:e}"
            ),
        }
    }
}

impl std::error::Error for RefineError {}

/// Solve `Σ x = b` by iterative refinement.
///
/// * `l_mp` — the mixed-precision tile factor of `Σ` (from
///   [`crate::factorize::factorize`]).
/// * `sigma` — the *original* matrix in full precision (for residuals);
///   kept as a closure `matvec(v) -> Σv` so callers can supply a dense
///   matrix, the tiled original, or a matrix-free operator.
///
/// Returns `Ok` with `converged = false` when the budget runs out while
/// still making progress, and `Err` on breakdown: a non-finite residual,
/// or a residual that grew two consecutive iterations.
pub fn solve_refined(
    l_mp: &SymmTileMatrix,
    matvec: impl Fn(&[f64]) -> Vec<f64>,
    b: &[f64],
    tol: f64,
    max_iters: usize,
) -> Result<RefineResult, RefineError> {
    let b_norm = b
        .iter()
        .map(|x| x * x)
        .sum::<f64>()
        .sqrt()
        .max(f64::MIN_POSITIVE);
    let mut x = spd_solve_tiled(l_mp, b);
    let mut rel = f64::INFINITY;
    let mut growth_streak = 0usize;
    for it in 0..=max_iters {
        let ax = matvec(&x);
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        let prev = rel;
        rel = r.iter().map(|v| v * v).sum::<f64>().sqrt() / b_norm;
        if !rel.is_finite() {
            return Err(RefineError::NonFinite { iteration: it });
        }
        if rel <= tol {
            return Ok(RefineResult {
                x,
                rel_residual: rel,
                iterations: it,
                converged: true,
            });
        }
        if it > 0 && rel > prev {
            growth_streak += 1;
            if growth_streak >= 2 {
                return Err(RefineError::Diverged {
                    iteration: it,
                    residual: rel,
                    prev,
                });
            }
        } else {
            growth_streak = 0;
        }
        if it == max_iters {
            break;
        }
        let dx = spd_solve_tiled(l_mp, &r);
        for (xi, di) in x.iter_mut().zip(&dx) {
            *xi += di;
        }
    }
    Ok(RefineResult {
        x,
        rel_residual: rel,
        iterations: max_iters,
        converged: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factorize::{factorize, FactorOptions};
    use crate::precision_map::{uniform_map, PrecisionMap};
    use mixedp_fp::{Precision, StoragePrecision};
    use mixedp_tile::{tile_fro_norms, DenseMatrix, SymmTileMatrix};

    fn spd(n: usize) -> DenseMatrix {
        DenseMatrix::from_fn(n, n, |i, j| {
            (-0.15 * (i as f64 - j as f64).abs()).exp() + if i == j { 1.0 } else { 0.0 }
        })
    }

    fn factor_under(a: &DenseMatrix, nb: usize, pmap: &PrecisionMap) -> SymmTileMatrix {
        let mut t = SymmTileMatrix::from_dense(a, nb, StoragePrecision::F64);
        factorize(&mut t, pmap, &FactorOptions::single_shot(2)).unwrap();
        t
    }

    #[test]
    fn fp16_factor_refines_to_fp64_accuracy() {
        let n = 96;
        let nb = 16;
        let a = spd(n);
        let pmap = uniform_map(n.div_ceil(nb), Precision::Fp16);
        let l = factor_under(&a, nb, &pmap);
        let x0: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let b = a.matvec(&x0);

        // direct MP solve is noticeably off...
        let direct = spd_solve_tiled(&l, &b);
        let direct_err = direct
            .iter()
            .zip(&x0)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max);
        assert!(direct_err > 1e-9, "direct MP solve unexpectedly exact");

        // ...refinement recovers working accuracy
        let r = solve_refined(&l, |v| a.matvec(v), &b, 1e-12, 40).unwrap();
        assert!(r.converged, "residual stuck at {:e}", r.rel_residual);
        let err =
            r.x.iter()
                .zip(&x0)
                .map(|(u, v)| (u - v).abs())
                .fold(0.0, f64::max);
        assert!(
            err < 1e-9,
            "refined error {err:e} after {} iters",
            r.iterations
        );
        assert!(err < direct_err / 10.0);
    }

    #[test]
    fn tighter_factor_needs_fewer_iterations() {
        let n = 96;
        let nb = 16;
        let a = spd(n);
        let tiled = SymmTileMatrix::from_dense(&a, nb, StoragePrecision::F64);
        let norms = tile_fro_norms(&tiled);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let iters_at = |u_req: f64| {
            let pmap = PrecisionMap::from_norms(&norms, u_req, &Precision::ADAPTIVE_SET);
            let l = factor_under(&a, nb, &pmap);
            let r = solve_refined(&l, |v| a.matvec(v), &b, 1e-12, 60).unwrap();
            assert!(r.converged, "u_req {u_req}");
            r.iterations
        };
        let tight = iters_at(1e-13);
        let loose = iters_at(1e-2);
        assert!(tight <= loose, "tight {tight} vs loose {loose}");
        assert!(tight <= 2, "FP64-ish factor should converge immediately");
    }

    #[test]
    fn reports_non_convergence_under_budget() {
        let n = 48;
        let nb = 16;
        let a = spd(n);
        let pmap = uniform_map(n.div_ceil(nb), Precision::Fp16);
        let l = factor_under(&a, nb, &pmap);
        let b: Vec<f64> = (0..n).map(|i| (i as f64) * 0.1).collect();
        let r = solve_refined(&l, |v| a.matvec(v), &b, 1e-15, 0).unwrap();
        assert!(!r.converged);
        assert_eq!(r.iterations, 0);
        assert!(r.rel_residual.is_finite());
    }

    #[test]
    fn divergence_is_a_typed_error_not_a_silent_loop() {
        // Refine against the WRONG operator: the "residual" b − Mx for a
        // matvec M ≠ Σ grows every correction, so the loop must bail with
        // Diverged instead of spinning to max_iters.
        let n = 48;
        let nb = 16;
        let a = spd(n);
        let pmap = uniform_map(n.div_ceil(nb), Precision::Fp64);
        let l = factor_under(&a, nb, &pmap);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64).sin()).collect();
        // amplifying bogus operator: M = 10·diag-ish mismatch vs Σ
        let bad_matvec = |v: &[f64]| -> Vec<f64> { v.iter().map(|x| -9.0 * x).collect() };
        let err = solve_refined(&l, bad_matvec, &b, 1e-14, 1000).unwrap_err();
        match err {
            RefineError::Diverged {
                iteration,
                residual,
                prev,
            } => {
                assert!(iteration < 1000, "bailed early, not loop-to-max");
                assert!(residual > prev);
            }
            e => panic!("expected Diverged, got {e:?}"),
        }
    }

    #[test]
    fn non_finite_residual_is_a_typed_error() {
        let n = 48;
        let nb = 16;
        let a = spd(n);
        let pmap = uniform_map(n.div_ceil(nb), Precision::Fp64);
        let l = factor_under(&a, nb, &pmap);
        let b: Vec<f64> = vec![1.0; n];
        // operator that poisons the residual with NaN immediately
        let nan_matvec = |v: &[f64]| -> Vec<f64> { v.iter().map(|_| f64::NAN).collect() };
        let err = solve_refined(&l, nan_matvec, &b, 1e-14, 10).unwrap_err();
        assert_eq!(err, RefineError::NonFinite { iteration: 0 });
    }
}
