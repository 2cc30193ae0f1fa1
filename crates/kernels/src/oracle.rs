//! Naive dot-product kernels: the sequential oracles that the packed
//! kernels of [`crate::blas`] are tested (bit for bit) and benchmarked
//! against.
//!
//! GEMM and SYRK sum each output element's products in increasing `t` from
//! `+0.0` and subtract the sum from `C` once — for `k ≤ KC` the exact
//! operation sequence of the packed kernels. The explicit `+0.0` matters
//! only for signed zeros: `Iterator::sum` starts from `−0.0`, which would
//! turn `−0 − Σ(−0)` into `+0` where the packed kernels keep `−0`. The
//! TRSM oracle is the row-by-row forward substitution, whose dot products
//! start from `Iterator::sum`'s neutral element, as the packed TRSM's lanes
//! do.

/// Naive row-dot `C ← C − A Bᵀ` with `A: m × k`, `B: n × k`, `C: m × n`.
fn reference_gemm_nt<T>(a: &[T], b: &[T], c: &mut [T], m: usize, n: usize, k: usize)
where
    T: Copy
        + Default
        + core::ops::Mul<Output = T>
        + core::ops::Add<Output = T>
        + core::ops::SubAssign,
{
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    for (i, crow) in c.chunks_mut(n).enumerate() {
        let ai = &a[i * k..(i + 1) * k];
        for (j, cij) in crow.iter_mut().enumerate() {
            let bj = &b[j * k..(j + 1) * k];
            *cij -= ai
                .iter()
                .zip(bj)
                .fold(T::default(), |s, (&x, &y)| s + x * y);
        }
    }
}

/// Naive row-dot `C ← C − A Bᵀ` (f64): the oracle of
/// [`crate::blas::gemm_nt_f64`], bit-exact for `k ≤ KC`.
pub fn reference_gemm_nt_f64(a: &[f64], b: &[f64], c: &mut [f64], m: usize, n: usize, k: usize) {
    reference_gemm_nt(a, b, c, m, n, k);
}

/// Naive row-dot `C ← C − A Bᵀ` (f32) oracle.
pub fn reference_gemm_nt_f32(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    reference_gemm_nt(a, b, c, m, n, k);
}

/// Naive row-dot SYRK oracle: `C ← C − A Aᵀ` on the lower triangle.
pub fn reference_syrk_ln_f64(a: &[f64], m: usize, k: usize, c: &mut [f64]) {
    assert_eq!(a.len(), m * k);
    assert_eq!(c.len(), m * m);
    for (i, crow) in c.chunks_mut(m).enumerate() {
        let ai = &a[i * k..(i + 1) * k];
        for j in 0..=i {
            let aj = &a[j * k..(j + 1) * k];
            crow[j] -= ai.iter().zip(aj).fold(0.0, |s, (x, y)| s + x * y);
        }
    }
}

/// Row-by-row forward substitution for `X Lᵀ = B`, in place on `B`
/// (`m × n`), `l` lower-triangular `n × n`.
fn reference_trsm_rlt<T>(l: &[T], n: usize, b: &mut [T], m: usize)
where
    T: Copy
        + core::iter::Sum
        + core::ops::Mul<Output = T>
        + core::ops::Sub<Output = T>
        + core::ops::Div<Output = T>,
{
    assert_eq!(l.len(), n * n);
    assert_eq!(b.len(), m * n);
    for row in b.chunks_mut(n) {
        for j in 0..n {
            let s: T = l[j * n..j * n + j]
                .iter()
                .zip(row.iter())
                .map(|(&lj, &x)| lj * x)
                .sum();
            row[j] = (row[j] - s) / l[j * n + j];
        }
    }
}

/// Forward-substitution `X Lᵀ = B` (f64): the oracle of
/// [`crate::blas::trsm_rlt_f64`], bit-exact at every shape.
pub fn reference_trsm_rlt_f64(l: &[f64], n: usize, b: &mut [f64], m: usize) {
    reference_trsm_rlt(l, n, b, m);
}

/// Forward-substitution `X Lᵀ = B` (f32) oracle.
pub fn reference_trsm_rlt_f32(l: &[f32], n: usize, b: &mut [f32], m: usize) {
    reference_trsm_rlt(l, n, b, m);
}
