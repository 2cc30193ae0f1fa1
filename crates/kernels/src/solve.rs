//! Tiled triangular solves against a factored [`SymmTileMatrix`] — the
//! post-factorization stage of the MLE (`v = L⁻¹Z`) and of the iterative
//! refinement solver, operating tile-by-tile so each block is read in its
//! own storage precision exactly once.

use crate::blas;
use mixedp_tile::SymmTileMatrix;

/// `log|Σ| = 2 Σ ln L_ii` from the Cholesky factor `l` held tile-wise,
/// or `None` when a diagonal entry is not positive or not finite.
///
/// Bit-identical to the same sum over the diagonal of
/// `l.to_dense_lower()`: the entries are widened exactly from each
/// diagonal tile's storage and added in ascending row order.
pub fn cholesky_logdet_tiled(l: &SymmTileMatrix) -> Option<f64> {
    let mut log_det = 0.0;
    for k in 0..l.nt() {
        let t = l.tile(k, k);
        for i in 0..t.rows() {
            let d = t.get(i, i);
            if d <= 0.0 || !d.is_finite() {
                return None;
            }
            log_det += d.ln();
        }
    }
    Some(log_det * 2.0)
}

/// Solve `L y = b` in place on `b`, where `l` holds the lower Cholesky
/// factor tile-wise (as produced by the mixed-precision factorization).
///
/// Bit-identical to [`blas::forward_solve_in_place`] on
/// `l.to_dense_lower()`: each row keeps one running sum, accumulated over
/// the row's tiles in ascending column order — the dense solver's order —
/// and each tile is widened once, exactly.
pub fn forward_solve_tiled(l: &SymmTileMatrix, b: &mut [f64]) {
    let n = l.n();
    assert_eq!(b.len(), n);
    let nb = l.nb();
    // The start of `Sum for f64`'s fold, which the dense solver's row sums
    // use: it decides the sign of a sum of zeros.
    let zero: f64 = std::iter::empty::<f64>().sum();
    let mut sums = vec![zero; nb];
    let mut t = Vec::with_capacity(nb * nb);
    for k in 0..l.nt() {
        let rk = l.tile_rows(k);
        let off_k = k * nb;
        let sums = &mut sums[..rk];
        sums.fill(zero);
        // the row sums over the solved blocks: L_kj y_j for j < k
        for j in 0..k {
            let cj = l.tile_rows(j);
            l.tile(k, j).read_f64_into(&mut t);
            let y = &b[j * nb..j * nb + cj];
            for (s, row) in sums.iter_mut().zip(t.chunks_exact(cj)) {
                for (x, yc) in row.iter().zip(y) {
                    *s += x * yc;
                }
            }
        }
        // then the diagonal block, row by row
        l.tile(k, k).read_f64_into(&mut t);
        for (i, s) in sums.iter().enumerate() {
            let row = &t[i * rk..(i + 1) * rk];
            let y = &b[off_k..off_k + i];
            let s = row.iter().zip(y).fold(*s, |s, (x, yc)| s + x * yc);
            b[off_k + i] = (b[off_k + i] - s) / row[i];
        }
    }
}

/// Solve `Lᵀ x = b` in place on `b` (the backward stage of `Σ x = c`).
pub fn backward_solve_trans_tiled(l: &SymmTileMatrix, b: &mut [f64]) {
    let n = l.n();
    assert_eq!(b.len(), n);
    let nb = l.nb();
    let nt = l.nt();
    for k in (0..nt).rev() {
        let rk = l.tile_rows(k);
        let off_k = k * nb;
        // subtract contributions of already-solved blocks below:
        // b_k -= (L_ik)ᵀ x_i for i > k
        for i in (k + 1)..nt {
            let t = l.tile(i, k); // rows of block i, cols of block k
            let off_i = i * nb;
            for c in 0..t.cols() {
                let mut s = 0.0;
                for r in 0..t.rows() {
                    s += t.get(r, c) * b[off_i + r];
                }
                b[off_k + c] -= s;
            }
        }
        let d = l.tile(k, k).to_f64();
        blas::backward_solve_trans_in_place(&d, rk, &mut b[off_k..off_k + rk]);
    }
}

/// Solve the full SPD system `Σ x = b` through the factor: forward then
/// transposed-backward substitution (allocating).
pub fn spd_solve_tiled(l: &SymmTileMatrix, b: &[f64]) -> Vec<f64> {
    let mut x = b.to_vec();
    forward_solve_tiled(l, &mut x);
    backward_solve_trans_tiled(l, &mut x);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixedp_fp::StoragePrecision;
    use mixedp_tile::DenseMatrix;

    fn spd(n: usize) -> DenseMatrix {
        DenseMatrix::from_fn(n, n, |i, j| {
            1.0 / (1.0 + (i as f64 - j as f64).abs()) + if i == j { n as f64 * 0.3 } else { 0.0 }
        })
    }

    fn factor_tiled(a: &DenseMatrix, nb: usize) -> SymmTileMatrix {
        let n = a.rows();
        let mut d = a.clone();
        blas::potrf_f64(d.data_mut(), n).unwrap();
        // zero strict upper, then tile it
        for i in 0..n {
            for j in (i + 1)..n {
                d.set(i, j, 0.0);
            }
        }
        SymmTileMatrix::from_fn(n, nb, |i, j| d.get(i, j), |_, _| StoragePrecision::F64)
    }

    #[test]
    fn forward_matches_dense_solver() {
        let n = 23; // ragged tiles
        let a = spd(n);
        let l = factor_tiled(&a, 5);
        let b0: Vec<f64> = (0..n).map(|i| (i as f64) * 0.3 - 2.0).collect();
        let mut b_tiled = b0.clone();
        forward_solve_tiled(&l, &mut b_tiled);
        // dense reference
        let mut d = a.clone();
        blas::potrf_f64(d.data_mut(), n).unwrap();
        let mut b_dense = b0;
        blas::forward_solve_in_place(d.data(), n, &mut b_dense);
        for (x, y) in b_tiled.iter().zip(&b_dense) {
            assert!((x - y).abs() < 1e-11, "{x} vs {y}");
        }
    }

    /// A ragged (n = 23, nb = 5) factor whose tiles are stored in FP64,
    /// FP32 and FP16, with the diagonal tile `diag` in the given storage
    /// and tile row 2 zero left of the diagonal.
    fn mixed_storage_factor(diag: StoragePrecision) -> SymmTileMatrix {
        let n = 23;
        let nb = 5;
        let dense_l = factor_tiled(&spd(n), nb);
        let storage = move |i: usize, j: usize| match (i + 2 * j) % 3 {
            _ if i == j => diag,
            0 => StoragePrecision::F16,
            1 => StoragePrecision::F32,
            _ => StoragePrecision::F64,
        };
        SymmTileMatrix::from_fn(
            n,
            nb,
            |i, j| {
                if i / nb == 2 && j < i {
                    0.0
                } else {
                    dense_l.get(i, j)
                }
            },
            storage,
        )
    }

    #[test]
    fn forward_is_bit_identical_to_dense_solver_on_mixed_storage() {
        // The tiled solve must give the dense solver's bits on the widened
        // factor, including signed zeros from an all-zero row prefix.
        let l = mixed_storage_factor(StoragePrecision::F64);
        let n = l.n();
        let d = l.to_dense_lower();
        for b0 in [
            (0..n).map(|i| (i as f64) * 0.3 - 2.0).collect::<Vec<_>>(),
            (0..n)
                .map(|i| if i < 12 { -0.0 } else { 1.0 / (1.0 + i as f64) })
                .collect(),
        ] {
            let mut b_tiled = b0.clone();
            forward_solve_tiled(&l, &mut b_tiled);
            let mut b_dense = b0;
            blas::forward_solve_in_place(d.data(), n, &mut b_dense);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&b_tiled), bits(&b_dense));
        }
    }

    #[test]
    fn logdet_is_bit_identical_to_dense_diagonal_sum_on_mixed_storage() {
        for diag in [
            StoragePrecision::F64,
            StoragePrecision::F32,
            StoragePrecision::F16,
        ] {
            let l = mixed_storage_factor(diag);
            let n = l.n();
            let d = l.to_dense_lower();
            let mut dense = 0.0;
            for i in 0..n {
                dense += d.get(i, i).ln();
            }
            dense *= 2.0;
            let tiled = cholesky_logdet_tiled(&l).unwrap();
            assert_eq!(tiled.to_bits(), dense.to_bits(), "{diag:?}");
        }
    }

    #[test]
    fn logdet_rejects_a_bad_diagonal() {
        for bad in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut l = mixed_storage_factor(StoragePrecision::F64);
            // the last row of the ragged last diagonal tile
            l.tile_mut(4, 4).set(2, 2, bad);
            assert_eq!(cholesky_logdet_tiled(&l), None, "{bad}");
        }
    }

    #[test]
    fn spd_solve_roundtrip() {
        let n = 30;
        let a = spd(n);
        let l = factor_tiled(&a, 8);
        let x0: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
        let b = a.matvec(&x0);
        let x = spd_solve_tiled(&l, &b);
        for (u, v) in x.iter().zip(&x0) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn backward_matches_dense_solver() {
        let n = 17;
        let a = spd(n);
        let l = factor_tiled(&a, 4);
        let b0: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut b_tiled = b0.clone();
        backward_solve_trans_tiled(&l, &mut b_tiled);
        let mut d = a.clone();
        blas::potrf_f64(d.data_mut(), n).unwrap();
        let mut b_dense = b0;
        blas::backward_solve_trans_in_place(d.data(), n, &mut b_dense);
        for (x, y) in b_tiled.iter().zip(&b_dense) {
            assert!((x - y).abs() < 1e-11);
        }
    }
}
