//! Dense kernels on raw row-major buffers.
//!
//! Shapes follow the tile Cholesky of Algorithm 1 (lower variant):
//!
//! * `potrf`: `A = L Lᵀ`, lower triangle in place.
//! * `trsm_rlt`: right-side, lower, transposed — `X Lᵀ = B`, in place on B.
//! * `syrk_ln`: `C ← C − A Aᵀ`, lower triangle only.
//! * `gemm_nt`: `C ← C − A Bᵀ` (the trailing-update `alpha = −1, beta = 1`
//!   form; general `alpha/beta` GEMM is [`gemm_full_f64`]).
//!
//! # Blocked data path
//!
//! GEMM and SYRK run a cache-blocked, register-blocked algorithm: a
//! `MR × NR` micro-kernel keeps a 4×4 accumulator block in registers and
//! reuses every loaded A/B element four times, wrapped in `KC`-deep k-blocks
//! and `MC × NC` cache blocks. The row-major NT layout means both operands
//! are already k-contiguous per row ("pre-packed"), so no packing copies —
//! and no heap allocation — are needed.
//!
//! **Bit-exactness contract.** For `k ≤ KC` the blocked kernels produce
//! results *bit-identical* to the naive row-dot `reference_*` kernels: each
//! accumulator sums its products in increasing-`t` order starting from
//! `+0.0`, and `C` receives a single subtraction per k-block — the exact
//! operation sequence of `c -= aᵢ·bⱼ`. Zero-padded edge lanes are discarded
//! before write-back and cannot perturb real lanes. The k-block (`pc`) loop
//! is outermost so this order is preserved under `MC`/`NC` blocking. Tile
//! kernels always have `k = nb ≤ KC`, so mixed-precision factorizations are
//! reproducible blocked-vs-reference.
//!
//! Every kernel runs sequentially on the calling thread: parallelism comes
//! from the task runtime, which runs independent kernels on its workers.

use crate::workspace::{with_thread_workspace, Workspace};

/// Error: the matrix was not (numerically) symmetric positive definite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotSpd {
    /// Column at which a non-positive pivot appeared.
    pub column: usize,
}

impl std::fmt::Display for NotSpd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix not positive definite at column {}", self.column)
    }
}

impl std::error::Error for NotSpd {}

/// Micro-kernel register block: rows of A per micro-tile.
pub const MR: usize = 4;
/// Micro-kernel register block: rows of B (columns of C) per micro-tile.
pub const NR: usize = 4;
/// k-depth of one cache block; also the bit-exactness horizon (see module
/// docs): `k ≤ KC` runs in a single k-block.
pub const KC: usize = 256;
/// Rows of C per cache block (A block is `MC × KC` ≈ 128 KiB in f64).
pub const MC: usize = 64;
/// Columns of C per cache block (B block is `NC × KC` ≈ 256 KiB in f64).
pub const NC: usize = 128;

/// Zero padding for edge micro-tiles (`kc ≤ KC` always holds).
static ZEROS_F64: [f64; KC] = [0.0; KC];
static ZEROS_F32: [f32; KC] = [0.0; KC];

/// Row `i` of a `nrows × k` row-major matrix, restricted to `[pc, pc+kc)` —
/// or the zero row when `i` falls off the edge of a partial micro-tile.
#[inline(always)]
fn row_or<'s, T>(
    mat: &'s [T],
    nrows: usize,
    i: usize,
    k: usize,
    pc: usize,
    kc: usize,
    z: &'s [T],
) -> &'s [T] {
    if i < nrows {
        &mat[i * k + pc..i * k + pc + kc]
    } else {
        &z[..kc]
    }
}

/// The register-blocked micro-kernel: 16 independent accumulators, each
/// summing its products in increasing-`t` order from `+0.0` — the same
/// operation sequence as a naive dot product, which is what makes the
/// blocked kernels bit-identical to the reference ones within a k-block.
#[inline(always)]
fn micro_4x4<T>(ar: [&[T]; MR], br: [&[T]; NR], kc: usize) -> [[T; NR]; MR]
where
    T: Copy + Default + core::ops::Mul<Output = T> + core::ops::AddAssign,
{
    // Exact-length reslices so the inner loop carries no bounds checks, and
    // 16 named scalar accumulators so they stay in registers.
    let (a0, a1, a2, a3) = (&ar[0][..kc], &ar[1][..kc], &ar[2][..kc], &ar[3][..kc]);
    let (b0, b1, b2, b3) = (&br[0][..kc], &br[1][..kc], &br[2][..kc], &br[3][..kc]);
    let d = T::default;
    let (mut s00, mut s01, mut s02, mut s03) = (d(), d(), d(), d());
    let (mut s10, mut s11, mut s12, mut s13) = (d(), d(), d(), d());
    let (mut s20, mut s21, mut s22, mut s23) = (d(), d(), d(), d());
    let (mut s30, mut s31, mut s32, mut s33) = (d(), d(), d(), d());
    for t in 0..kc {
        let (x0, x1, x2, x3) = (a0[t], a1[t], a2[t], a3[t]);
        let (y0, y1, y2, y3) = (b0[t], b1[t], b2[t], b3[t]);
        s00 += x0 * y0;
        s01 += x0 * y1;
        s02 += x0 * y2;
        s03 += x0 * y3;
        s10 += x1 * y0;
        s11 += x1 * y1;
        s12 += x1 * y2;
        s13 += x1 * y3;
        s20 += x2 * y0;
        s21 += x2 * y1;
        s22 += x2 * y2;
        s23 += x2 * y3;
        s30 += x3 * y0;
        s31 += x3 * y1;
        s32 += x3 * y2;
        s33 += x3 * y3;
    }
    [
        [s00, s01, s02, s03],
        [s10, s11, s12, s13],
        [s20, s21, s22, s23],
        [s30, s31, s32, s33],
    ]
}

/// Blocked `C ← C − A Bᵀ` with `A: m × k`, `B: n × k`, `C: m × n`; `z` is
/// the zero row that pads edge micro-tiles.
fn gemm_nt_blocked<T>(a: &[T], b: &[T], c: &mut [T], m: usize, n: usize, k: usize, z: &[T])
where
    T: Copy + Default + core::ops::Mul<Output = T> + core::ops::AddAssign + core::ops::SubAssign,
{
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    let mut pc = 0;
    while pc < k {
        let kc = (k - pc).min(KC);
        let mut ic = 0;
        while ic < m {
            let mc = (m - ic).min(MC);
            let mut jc = 0;
            while jc < n {
                let nc = (n - jc).min(NC);
                let mut ir = ic;
                while ir < ic + mc {
                    let mr = (ic + mc - ir).min(MR);
                    let ar = [
                        row_or(a, m, ir, k, pc, kc, z),
                        row_or(a, m, ir + 1, k, pc, kc, z),
                        row_or(a, m, ir + 2, k, pc, kc, z),
                        row_or(a, m, ir + 3, k, pc, kc, z),
                    ];
                    let mut jr = jc;
                    while jr < jc + nc {
                        let nr = (jc + nc - jr).min(NR);
                        let br = [
                            row_or(b, n, jr, k, pc, kc, z),
                            row_or(b, n, jr + 1, k, pc, kc, z),
                            row_or(b, n, jr + 2, k, pc, kc, z),
                            row_or(b, n, jr + 3, k, pc, kc, z),
                        ];
                        let acc = micro_4x4(ar, br, kc);
                        for (ii, accr) in acc.iter().enumerate().take(mr) {
                            let crow = &mut c[(ir + ii) * n..(ir + ii) * n + n];
                            for (jj, &s) in accr.iter().enumerate().take(nr) {
                                crow[jr + jj] -= s;
                            }
                        }
                        jr += NR;
                    }
                    ir += MR;
                }
                jc += NC;
            }
            ic += MC;
        }
        pc += KC;
    }
}

/// `C ← C − A Bᵀ` with `A: m × k`, `B: n × k`, `C: m × n` (f64), blocked.
pub fn gemm_nt_f64(a: &[f64], b: &[f64], c: &mut [f64], m: usize, n: usize, k: usize) {
    gemm_nt_blocked(a, b, c, m, n, k, &ZEROS_F64);
}

/// `C ← C − A Bᵀ` in f32 arithmetic (FP32 accumulation — also the compute
/// path for TF32 / FP16_32 / BF16_32 after their input quantization).
pub fn gemm_nt_f32(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    gemm_nt_blocked(a, b, c, m, n, k, &ZEROS_F32);
}

/// Naive row-dot `C ← C − A Bᵀ` (f64): the sequential oracle the blocked
/// kernel is tested (bit-exactly, for `k ≤ KC`) and benchmarked against.
pub fn reference_gemm_nt_f64(a: &[f64], b: &[f64], c: &mut [f64], m: usize, n: usize, k: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    for (i, crow) in c.chunks_mut(n).enumerate() {
        let ai = &a[i * k..(i + 1) * k];
        for (j, cij) in crow.iter_mut().enumerate() {
            let bj = &b[j * k..(j + 1) * k];
            let s: f64 = ai.iter().zip(bj).map(|(x, y)| x * y).sum();
            *cij -= s;
        }
    }
}

/// Naive row-dot `C ← C − A Bᵀ` (f32) oracle.
pub fn reference_gemm_nt_f32(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    for (i, crow) in c.chunks_mut(n).enumerate() {
        let ai = &a[i * k..(i + 1) * k];
        for (j, cij) in crow.iter_mut().enumerate() {
            let bj = &b[j * k..(j + 1) * k];
            let s: f32 = ai.iter().zip(bj).map(|(x, y)| x * y).sum();
            *cij -= s;
        }
    }
}

/// `C ← C − A Aᵀ` on the lower triangle of the `m × m` matrix `C`,
/// with `A` an `m × k` panel. Blocked.
pub fn syrk_ln_f64(a: &[f64], m: usize, k: usize, c: &mut [f64]) {
    assert_eq!(a.len(), m * k);
    assert_eq!(c.len(), m * m);
    let z = &ZEROS_F64;
    let mut pc = 0;
    while pc < k {
        let kc = (k - pc).min(KC);
        let mut ir = 0;
        while ir < m {
            let mr = (m - ir).min(MR);
            let ar = [
                row_or(a, m, ir, k, pc, kc, z),
                row_or(a, m, ir + 1, k, pc, kc, z),
                row_or(a, m, ir + 2, k, pc, kc, z),
                row_or(a, m, ir + 3, k, pc, kc, z),
            ];
            // Columns needed by this micro-row: j ≤ ir + mr − 1. Interior
            // micro-tiles write all 16 lanes; only diagonal-straddling tiles
            // mask to the lower triangle.
            let jmax = ir + mr;
            let mut jr = 0;
            while jr < jmax {
                let nr = (jmax - jr).min(NR);
                let br = [
                    row_or(a, m, jr, k, pc, kc, z),
                    row_or(a, m, jr + 1, k, pc, kc, z),
                    row_or(a, m, jr + 2, k, pc, kc, z),
                    row_or(a, m, jr + 3, k, pc, kc, z),
                ];
                let acc = micro_4x4(ar, br, kc);
                for (ii, accr) in acc.iter().enumerate().take(mr) {
                    let i = ir + ii;
                    let crow = &mut c[i * m..i * m + m];
                    for (jj, &s) in accr.iter().enumerate().take(nr) {
                        let j = jr + jj;
                        if j <= i {
                            crow[j] -= s;
                        }
                    }
                }
                jr += NR;
            }
            ir += MR;
        }
        pc += KC;
    }
}

/// Naive row-dot SYRK oracle (sequential).
pub fn reference_syrk_ln_f64(a: &[f64], m: usize, k: usize, c: &mut [f64]) {
    assert_eq!(a.len(), m * k);
    assert_eq!(c.len(), m * m);
    for (i, crow) in c.chunks_mut(m).enumerate() {
        let ai = &a[i * k..(i + 1) * k];
        for j in 0..=i {
            let aj = &a[j * k..(j + 1) * k];
            let s: f64 = ai.iter().zip(aj).map(|(x, y)| x * y).sum();
            crow[j] -= s;
        }
    }
}

/// Unblocked lower Cholesky in place on a row-major `n × n` buffer.
/// On success the lower triangle holds `L`; the strict upper triangle is
/// left untouched.
pub fn potrf_f64(a: &mut [f64], n: usize) -> Result<(), NotSpd> {
    assert_eq!(a.len(), n * n);
    for j in 0..n {
        let mut d = a[j * n + j];
        for t in 0..j {
            d -= a[j * n + t] * a[j * n + t];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(NotSpd { column: j });
        }
        let l = d.sqrt();
        a[j * n + j] = l;
        // Split so row j (read-only) and rows j+1.. (written) don't alias.
        let (head, tail) = a.split_at_mut((j + 1) * n);
        let row_j = &head[j * n..j * n + j];
        for chunk in tail.chunks_mut(n) {
            let s: f64 = chunk[..j].iter().zip(row_j).map(|(x, y)| x * y).sum();
            chunk[j] = (chunk[j] - s) / l;
        }
    }
    Ok(())
}

/// Lower Cholesky in f32 arithmetic (used by FP32-mode tiles).
pub fn potrf_f32(a: &mut [f32], n: usize) -> Result<(), NotSpd> {
    assert_eq!(a.len(), n * n);
    for j in 0..n {
        let mut d = a[j * n + j];
        for t in 0..j {
            d -= a[j * n + t] * a[j * n + t];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(NotSpd { column: j });
        }
        let l = d.sqrt();
        a[j * n + j] = l;
        for i in (j + 1)..n {
            let s: f32 = a[i * n..i * n + j]
                .iter()
                .zip(&a[j * n..j * n + j])
                .map(|(x, y)| x * y)
                .sum();
            a[i * n + j] = (a[i * n + j] - s) / l;
        }
    }
    Ok(())
}

/// Solve `X Lᵀ = B` in place on `B` (`m × n`), with `l` the lower-triangular
/// `n × n` factor. Each row of `B` is an independent forward substitution.
pub fn trsm_rlt_f64(l: &[f64], n: usize, b: &mut [f64], m: usize) {
    assert_eq!(l.len(), n * n);
    assert_eq!(b.len(), m * n);
    for row in b.chunks_mut(n) {
        for j in 0..n {
            let s: f64 = l[j * n..j * n + j]
                .iter()
                .zip(row.iter())
                .map(|(lj, x)| lj * x)
                .sum();
            row[j] = (row[j] - s) / l[j * n + j];
        }
    }
}

/// f32 variant of [`trsm_rlt_f64`].
pub fn trsm_rlt_f32(l: &[f32], n: usize, b: &mut [f32], m: usize) {
    assert_eq!(l.len(), n * n);
    assert_eq!(b.len(), m * n);
    for row in b.chunks_mut(n) {
        for j in 0..n {
            let s: f32 = l[j * n..j * n + j]
                .iter()
                .zip(row.iter())
                .map(|(lj, x)| lj * x)
                .sum();
            row[j] = (row[j] - s) / l[j * n + j];
        }
    }
}

/// General `C ← alpha · A Bᵀ + beta · C` in f64 (used by the standalone GEMM
/// benchmark of paper §IV).
#[allow(clippy::too_many_arguments)]
pub fn gemm_full_f64(
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    for (i, crow) in c.chunks_mut(n).enumerate() {
        let ai = &a[i * k..(i + 1) * k];
        for (j, cij) in crow.iter_mut().enumerate() {
            let bj = &b[j * k..(j + 1) * k];
            let s: f64 = ai.iter().zip(bj).map(|(x, y)| x * y).sum();
            *cij = alpha * s + beta * *cij;
        }
    }
}

/// Full lower Cholesky of a dense row-major `n × n` matrix in place
/// (reference path: FP64 throughout). Uses the blocked algorithm above a
/// size threshold — same kernels as the tile factorization, better cache
/// behaviour than the unblocked loop.
pub fn cholesky_in_place(a: &mut [f64], n: usize) -> Result<(), NotSpd> {
    if n <= 128 {
        potrf_f64(a, n)
    } else {
        potrf_blocked_f64(a, n, 64)
    }
}

/// Blocked right-looking lower Cholesky on a dense row-major buffer:
/// the dense-level mirror of Algorithm 1 (POTRF/TRSM/SYRK/GEMM on
/// `nb`-sized panels). Stages blocks through this thread's [`Workspace`].
pub fn potrf_blocked_f64(a: &mut [f64], n: usize, nb: usize) -> Result<(), NotSpd> {
    with_thread_workspace(|ws| potrf_blocked_f64_ws(a, n, nb, ws))
}

/// [`potrf_blocked_f64`] on a caller-owned workspace. After the first
/// factorization of a given shape the workspace is warm and the whole
/// routine performs zero heap allocations.
pub fn potrf_blocked_f64_ws(
    a: &mut [f64],
    n: usize,
    nb: usize,
    ws: &mut Workspace,
) -> Result<(), NotSpd> {
    assert_eq!(a.len(), n * n);
    assert!(nb > 0);
    fn read_block(v: &mut Vec<f64>, a: &[f64], n: usize, i0: usize, j0: usize, r: usize, c: usize) {
        v.clear();
        for i in 0..r {
            v.extend_from_slice(&a[(i0 + i) * n + j0..(i0 + i) * n + j0 + c]);
        }
    }
    fn write_block(a: &mut [f64], b: &[f64], n: usize, i0: usize, j0: usize, r: usize, c: usize) {
        for i in 0..r {
            a[(i0 + i) * n + j0..(i0 + i) * n + j0 + c].copy_from_slice(&b[i * c..(i + 1) * c]);
        }
    }
    let nt = n.div_ceil(nb);
    let dim = |t: usize| (n - t * nb).min(nb);
    for k in 0..nt {
        let dk = dim(k);
        let lkk = ws.p64.load(|v| read_block(v, a, n, k * nb, k * nb, dk, dk));
        potrf_f64(lkk, dk).map_err(|e| NotSpd {
            column: k * nb + e.column,
        })?;
        // zero the strict upper of the diagonal block
        for i in 0..dk {
            for j in (i + 1)..dk {
                lkk[i * dk + j] = 0.0;
            }
        }
        write_block(a, lkk, n, k * nb, k * nb, dk, dk);
        for m in (k + 1)..nt {
            let dm = dim(m);
            let bmk = ws.c64.load(|v| read_block(v, a, n, m * nb, k * nb, dm, dk));
            trsm_rlt_f64(lkk, dk, bmk, dm);
            write_block(a, bmk, n, m * nb, k * nb, dm, dk);
        }
        for m in (k + 1)..nt {
            let dm = dim(m);
            let amk = ws.a64.load(|v| read_block(v, a, n, m * nb, k * nb, dm, dk));
            let cmm = ws.c64.load(|v| read_block(v, a, n, m * nb, m * nb, dm, dm));
            syrk_ln_f64(amk, dm, dk, cmm);
            write_block(a, cmm, n, m * nb, m * nb, dm, dm);
            for t in (k + 1)..m {
                let dt = dim(t);
                let atk = ws.b64.load(|v| read_block(v, a, n, t * nb, k * nb, dt, dk));
                let cmt = ws.c64.load(|v| read_block(v, a, n, m * nb, t * nb, dm, dt));
                gemm_nt_f64(amk, atk, cmt, dm, dt, dk);
                write_block(a, cmt, n, m * nb, t * nb, dm, dt);
            }
        }
    }
    Ok(())
}

/// Solve `L y = b` in place on `b`, with `l` lower-triangular `n × n`
/// row-major (forward substitution).
pub fn forward_solve_in_place(l: &[f64], n: usize, b: &mut [f64]) {
    assert_eq!(l.len(), n * n);
    assert_eq!(b.len(), n);
    for i in 0..n {
        let s: f64 = l[i * n..i * n + i]
            .iter()
            .zip(b.iter())
            .map(|(x, y)| x * y)
            .sum();
        b[i] = (b[i] - s) / l[i * n + i];
    }
}

/// Solve `Lᵀ x = b` in place on `b` (backward substitution).
pub fn backward_solve_trans_in_place(l: &[f64], n: usize, b: &mut [f64]) {
    assert_eq!(l.len(), n * n);
    assert_eq!(b.len(), n);
    for i in (0..n).rev() {
        let mut s = b[i];
        for j in (i + 1)..n {
            s -= l[j * n + i] * b[j];
        }
        b[i] = s / l[i * n + i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize) -> Vec<f64> {
        // diagonally dominant symmetric => SPD
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                a[i * n + j] = 1.0 / (1.0 + (i as f64 - j as f64).abs());
            }
            a[i * n + i] += n as f64;
        }
        a
    }

    fn reconstruct(l: &[f64], n: usize) -> Vec<f64> {
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for t in 0..=i.min(j) {
                    s += l[i * n + t] * l[j * n + t];
                }
                a[i * n + j] = s;
            }
        }
        a
    }

    #[test]
    fn potrf_reconstructs() {
        let n = 17;
        let a0 = spd(n);
        let mut a = a0.clone();
        potrf_f64(&mut a, n).unwrap();
        // zero strict upper for reconstruction
        let mut l = a.clone();
        for i in 0..n {
            for j in (i + 1)..n {
                l[i * n + j] = 0.0;
            }
        }
        let r = reconstruct(&l, n);
        for (x, y) in r.iter().zip(&a0) {
            assert!((x - y).abs() < 1e-10, "{x} vs {y}");
        }
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let n = 3;
        let mut a = vec![1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0];
        assert_eq!(potrf_f64(&mut a, n), Err(NotSpd { column: 1 }));
    }

    #[test]
    fn potrf_f32_agrees_with_f64_loosely() {
        let n = 12;
        let a0 = spd(n);
        let mut a64 = a0.clone();
        potrf_f64(&mut a64, n).unwrap();
        let mut a32: Vec<f32> = a0.iter().map(|&x| x as f32).collect();
        potrf_f32(&mut a32, n).unwrap();
        for i in 0..n {
            for j in 0..=i {
                let d = (a64[i * n + j] - a32[i * n + j] as f64).abs();
                assert!(d < 1e-4 * a64[j * n + j].abs().max(1.0), "({i},{j})");
            }
        }
    }

    #[test]
    fn trsm_solves() {
        let n = 8;
        let m = 5;
        let mut l = spd(n);
        potrf_f64(&mut l, n).unwrap();
        for i in 0..n {
            for j in (i + 1)..n {
                l[i * n + j] = 0.0;
            }
        }
        // B = X0 * L^T for known X0; solve must recover X0
        let x0: Vec<f64> = (0..m * n).map(|t| ((t * 13 % 7) as f64) - 3.0).collect();
        let mut b = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for t in 0..n {
                    s += x0[i * n + t] * l[j * n + t]; // (L^T)[t][j] = L[j][t]
                }
                b[i * n + j] = s;
            }
        }
        trsm_rlt_f64(&l, n, &mut b, m);
        for (x, y) in b.iter().zip(&x0) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn syrk_matches_gemm_on_lower() {
        let m = 6;
        let k = 4;
        let a: Vec<f64> = (0..m * k).map(|t| (t as f64) * 0.31 - 2.0).collect();
        let c0: Vec<f64> = (0..m * m).map(|t| (t as f64) * 0.05).collect();
        let mut c_syrk = c0.clone();
        syrk_ln_f64(&a, m, k, &mut c_syrk);
        let mut c_gemm = c0.clone();
        gemm_nt_f64(&a, &a, &mut c_gemm, m, m, k);
        for i in 0..m {
            for j in 0..=i {
                assert!((c_syrk[i * m + j] - c_gemm[i * m + j]).abs() < 1e-12);
            }
        }
        // upper triangle untouched by syrk
        for i in 0..m {
            for j in (i + 1)..m {
                assert_eq!(c_syrk[i * m + j], c0[i * m + j]);
            }
        }
    }

    #[test]
    fn gemm_small_known() {
        // A = [[1,2]], B = [[3,4]] => A B^T = [[11]]
        let a = vec![1.0, 2.0];
        let b = vec![3.0, 4.0];
        let mut c = vec![100.0];
        gemm_nt_f64(&a, &b, &mut c, 1, 1, 2);
        assert_eq!(c[0], 89.0);
        let mut c2 = vec![100.0];
        gemm_full_f64(2.0, &a, &b, 0.5, &mut c2, 1, 1, 2);
        assert_eq!(c2[0], 72.0);
    }

    #[test]
    fn solves_roundtrip() {
        let n = 10;
        let mut l = spd(n);
        potrf_f64(&mut l, n).unwrap();
        let x0: Vec<f64> = (0..n).map(|i| (i as f64) - 4.5).collect();
        // b = L x0
        let mut b = vec![0.0; n];
        for i in 0..n {
            for t in 0..=i {
                b[i] += l[i * n + t] * x0[t];
            }
        }
        forward_solve_in_place(&l, n, &mut b);
        for (x, y) in b.iter().zip(&x0) {
            assert!((x - y).abs() < 1e-10);
        }
        // and L^T path
        let mut b2 = vec![0.0; n];
        for i in 0..n {
            for j in i..n {
                b2[i] += l[j * n + i] * x0[j];
            }
        }
        backward_solve_trans_in_place(&l, n, &mut b2);
        for (x, y) in b2.iter().zip(&x0) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn blocked_cholesky_matches_unblocked() {
        for n in [8usize, 33, 96, 130] {
            let a0 = spd(n);
            let mut plain = a0.clone();
            potrf_f64(&mut plain, n).unwrap();
            let mut blocked = a0.clone();
            potrf_blocked_f64(&mut blocked, n, 24).unwrap();
            for i in 0..n {
                for j in 0..=i {
                    let d = (plain[i * n + j] - blocked[i * n + j]).abs();
                    assert!(d < 1e-11, "n={n} ({i},{j}): {d}");
                }
            }
        }
    }

    #[test]
    fn blocked_cholesky_reports_global_failure_column() {
        // indefinite in the second block
        let n = 40;
        let mut a = spd(n);
        a[30 * n + 30] = -100.0;
        let err = potrf_blocked_f64(&mut a, n, 16).unwrap_err();
        assert_eq!(err.column, 30);
    }

    #[test]
    fn blocked_cholesky_steady_state_is_allocation_free() {
        let n = 96;
        let a0 = spd(n);
        let mut ws = Workspace::new();
        let mut a = a0.clone();
        potrf_blocked_f64_ws(&mut a, n, 24, &mut ws).unwrap();
        let warm = ws.grow_events();
        assert!(warm > 0, "first run must populate the workspace");
        for _ in 0..3 {
            let mut a = a0.clone();
            potrf_blocked_f64_ws(&mut a, n, 24, &mut ws).unwrap();
        }
        assert_eq!(ws.grow_events(), warm, "warm workspace reallocated");
    }

    #[test]
    fn parallel_threshold_paths_agree() {
        // m spans more than one MC row block
        let (m, n, k) = (80, 16, 24);
        let a: Vec<f64> = (0..m * k).map(|t| ((t * 29 % 17) as f64) * 0.1).collect();
        let b: Vec<f64> = (0..n * k).map(|t| ((t * 31 % 13) as f64) * 0.2).collect();
        let mut c1 = vec![1.0; m * n];
        gemm_nt_f64(&a, &b, &mut c1, m, n, k);
        // serial reference
        let mut c2 = vec![1.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for t in 0..k {
                    s += a[i * k + t] * b[j * k + t];
                }
                c2[i * n + j] -= s;
            }
        }
        assert_eq!(c1, c2);
    }

    fn pseudo(len: usize, mul: usize, md: usize, scale: f64) -> Vec<f64> {
        (0..len)
            .map(|t| ((t * mul % md) as f64) * scale - 1.0)
            .collect()
    }

    #[test]
    fn blocked_gemm_bit_matches_reference_at_odd_shapes() {
        // every combination of interior/edge micro-tiles and cache blocks
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 4, 4),
            (5, 9, 3),
            (17, 13, 29),
            (33, 31, 65),
            (64, 64, 64),
            (70, 130, 80),
        ] {
            let a = pseudo(m * k, 29, 17, 0.1);
            let b = pseudo(n * k, 31, 13, 0.2);
            let c0 = pseudo(m * n, 7, 11, 0.3);
            let mut c_blk = c0.clone();
            gemm_nt_f64(&a, &b, &mut c_blk, m, n, k);
            let mut c_ref = c0.clone();
            reference_gemm_nt_f64(&a, &b, &mut c_ref, m, n, k);
            assert_eq!(c_blk, c_ref, "shape ({m},{n},{k})");
        }
    }

    #[test]
    fn blocked_gemm_f32_bit_matches_reference() {
        let (m, n, k) = (19, 23, 31);
        let a: Vec<f32> = (0..m * k)
            .map(|t| ((t * 29 % 17) as f32) * 0.1 - 1.0)
            .collect();
        let b: Vec<f32> = (0..n * k)
            .map(|t| ((t * 31 % 13) as f32) * 0.2 - 1.0)
            .collect();
        let c0: Vec<f32> = (0..m * n).map(|t| ((t * 7 % 11) as f32) * 0.3).collect();
        let mut c_blk = c0.clone();
        gemm_nt_f32(&a, &b, &mut c_blk, m, n, k);
        let mut c_ref = c0;
        reference_gemm_nt_f32(&a, &b, &mut c_ref, m, n, k);
        assert_eq!(c_blk, c_ref);
    }

    #[test]
    fn blocked_gemm_multiblock_k_stays_accurate() {
        // k > KC splits the accumulation; no longer bit-equal, but the
        // result must agree to f64 roundoff.
        let (m, n, k) = (8, 8, 2 * KC + 57);
        let a = pseudo(m * k, 29, 97, 0.01);
        let b = pseudo(n * k, 31, 89, 0.02);
        let c0 = pseudo(m * n, 7, 11, 0.3);
        let mut c_blk = c0.clone();
        gemm_nt_f64(&a, &b, &mut c_blk, m, n, k);
        let mut c_ref = c0;
        reference_gemm_nt_f64(&a, &b, &mut c_ref, m, n, k);
        for (x, y) in c_blk.iter().zip(&c_ref) {
            assert!((x - y).abs() <= 1e-12 * y.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_syrk_bit_matches_reference_and_masks_upper() {
        for &(m, k) in &[
            (1usize, 1usize),
            (3, 5),
            (4, 4),
            (7, 9),
            (18, 6),
            (33, 16),
            (66, 40),
        ] {
            let a = pseudo(m * k, 29, 17, 0.1);
            let c0 = pseudo(m * m, 7, 11, 0.3);
            let mut c_blk = c0.clone();
            syrk_ln_f64(&a, m, k, &mut c_blk);
            let mut c_ref = c0.clone();
            reference_syrk_ln_f64(&a, m, k, &mut c_ref);
            assert_eq!(c_blk, c_ref, "shape ({m},{k})");
            for i in 0..m {
                for j in (i + 1)..m {
                    assert_eq!(
                        c_blk[i * m + j],
                        c0[i * m + j],
                        "upper touched at ({i},{j})"
                    );
                }
            }
        }
    }
}
