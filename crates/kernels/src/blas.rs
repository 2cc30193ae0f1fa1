//! Dense kernels on raw row-major buffers.
//!
//! Shapes follow the tile Cholesky of Algorithm 1 (lower variant):
//!
//! * `potrf`: `A = L Lᵀ`, lower triangle in place.
//! * `trsm_rlt`: right-side, lower, transposed — `X Lᵀ = B`, in place on B.
//! * `syrk_ln`: `C ← C − A Aᵀ`, lower triangle only.
//! * `gemm_nt`: `C ← C − A Bᵀ` (the trailing-update `alpha = −1, beta = 1`
//!   form).
//!
//! The naive dot-product kernels these are tested and benchmarked against
//! live in [`crate::oracle`].
//!
//! # Packed-panel data path
//!
//! GEMM, SYRK and TRSM share one register-blocked micro-kernel. Per
//! `KC`-deep k-block, the caller packs `L` rows of the right operand (Bᵀ
//! for GEMM, the panel itself for SYRK, rows of the triangular factor for
//! TRSM) into a k-major panel, `panel[t][l] = B[j0 + l][pc + t]`, and
//! sweeps it with `R` rows of the left operand at a time: each step `t`
//! broadcasts one A element per row and multiplies it into the `L`
//! contiguous panel lanes, so the `R × L` accumulators vectorize along the
//! lanes — in f32 twice as many per register as in f64. The panel is a
//! fixed stack array of at most `KC × L` elements (32 KiB), so no kernel
//! allocates, and the lane and row counts are chosen per element type
//! ([`F64_LANES`] × [`F64_ROWS`], [`F32_LANES`] × [`F32_ROWS`]); the
//! kernel-performance snapshot records them, because the code generated
//! for neighbouring shapes can differ by 2×, and EXPERIMENTS.md ("Packed
//! kernel shapes") records the timings they were picked from.
//!
//! **Bit-exactness contract.** Every accumulator lane belongs to exactly
//! one output element and sums that element's products one at a time, in
//! increasing `t`, with a separate multiply and add (rustc never contracts
//! them into a fused multiply-add): the operation sequence of a naive dot
//! product. GEMM and SYRK start each lane from `+0.0` and subtract it from
//! `C` once per k-block — the sequence of `c -= Σ aᵢ·bⱼ` — so for `k ≤ KC`
//! they are bit-identical to the [`crate::oracle`] kernels, and tile
//! kernels always have `k = nb ≤ KC`. Edge rows and lanes are zero-padded
//! and discarded before write-back, so they never touch a real lane.
//!
//! TRSM solves `X Lᵀ = B` one block of `L` columns `[j0, j0 + L)` at a
//! time. The packed kernel first runs over the already-solved columns
//! `t < j0` (rows of B as A, `L[j0.., 0..j0]` packed), each lane starting
//! from the neutral element of `Iterator::sum`, as the substitution's dot
//! products do (`core::iter::empty().sum()`). The accumulators
//! are then *carried* into the block's triangle, where column `j0 + l` is
//! solved and its terms are added to the lanes to its right, still in
//! increasing `t`. A partial sum is never subtracted from B, so each
//! `x_j = (b_j − Σ_{t<j} l_jt·x_t) / l_jj` is computed exactly as by the
//! row-by-row forward substitution.
//!
//! Every kernel runs sequentially on the calling thread: parallelism comes
//! from the task runtime, which runs independent kernels on its workers.

use crate::workspace::{with_thread_workspace, Workspace};
use core::ops::{AddAssign, Div, Mul, Sub, SubAssign};

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

/// k-depth of one packed panel; also the bit-exactness horizon (see module
/// docs): `k ≤ KC` runs in a single k-block.
pub const KC: usize = 256;
/// Panel lanes (output columns per micro-kernel call) in f64.
pub const F64_LANES: usize = 8;
/// Rows of A per micro-kernel call in f64.
pub const F64_ROWS: usize = 4;
/// Panel lanes in f32: twice the f64 count, as a SIMD register holds
/// twice as many f32 values.
pub const F32_LANES: usize = 16;
/// Rows of A per micro-kernel call in f32.
pub const F32_ROWS: usize = 3;

/// The arithmetic the packed kernels need; `f64` and `f32`.
trait Real:
    Copy
    + Default
    + core::iter::Sum
    + Mul<Output = Self>
    + Sub<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + SubAssign
{
}

impl Real for f64 {}
impl Real for f32 {}

/// The packed micro-kernel: `acc[r][l] += a[r][t] · panel[t][l]` for every
/// `t` of the panel, in increasing `t`, one add per product. Kept out of
/// line and returning the accumulators by value so that they stay in
/// registers whatever the caller does with them afterwards.
#[inline(never)]
fn micro<T: Real, const R: usize, const L: usize>(
    a: [&[T]; R],
    panel: &[[T; L]],
    mut acc: [[T; L]; R],
) -> [[T; L]; R] {
    let a = a.map(|row| &row[..panel.len()]);
    for (t, lanes) in panel.iter().enumerate() {
        for (accr, ar) in acc.iter_mut().zip(&a) {
            let x = ar[t];
            for (s, &y) in accr.iter_mut().zip(lanes) {
                *s += x * y;
            }
        }
    }
    acc
}

/// Pack rows `j0..j0 + lanes` of the row-major matrix `src` (leading
/// dimension `ld`), columns `pc..pc + panel.len()`, into the k-major
/// `panel`; lanes `lanes..L` are zeroed.
fn pack<T: Real, const L: usize>(
    panel: &mut [[T; L]],
    src: &[T],
    ld: usize,
    j0: usize,
    lanes: usize,
    pc: usize,
) {
    let kc = panel.len();
    for l in 0..lanes {
        let row = &src[(j0 + l) * ld + pc..][..kc];
        for (p, &v) in panel.iter_mut().zip(row) {
            p[l] = v;
        }
    }
    if lanes < L {
        for p in panel.iter_mut() {
            p[lanes..].fill(T::default());
        }
    }
}

/// Rows `i0..i0 + rows` of the row-major matrix `a` (leading dimension
/// `ld`), restricted to columns `pc..pc + kc`; rows past `rows` read the
/// zero row `zero`.
fn row_block<'s, T, const R: usize>(
    a: &'s [T],
    ld: usize,
    i0: usize,
    rows: usize,
    pc: usize,
    kc: usize,
    zero: &'s [T],
) -> [&'s [T]; R] {
    std::array::from_fn(|r| {
        if r < rows {
            &a[(i0 + r) * ld + pc..][..kc]
        } else {
            &zero[..kc]
        }
    })
}

/// Packed `C ← C − A Bᵀ` with `A: m × k`, `B: n × k`, `C: m × n`.
fn gemm_nt_packed<T: Real, const R: usize, const L: usize>(
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    n: usize,
    k: usize,
) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    let zero = [T::default(); KC];
    let mut panel = [[T::default(); L]; KC];
    for pc in (0..k).step_by(KC) {
        let kc = (k - pc).min(KC);
        let panel = &mut panel[..kc];
        for j0 in (0..n).step_by(L) {
            let lanes = (n - j0).min(L);
            pack(panel, b, k, j0, lanes, pc);
            for i0 in (0..m).step_by(R) {
                let rows = (m - i0).min(R);
                let ar = row_block(a, k, i0, rows, pc, kc, &zero);
                let acc = micro::<T, R, L>(ar, panel, [[T::default(); L]; R]);
                for (r, accr) in acc.iter().enumerate().take(rows) {
                    let crow = &mut c[(i0 + r) * n + j0..][..lanes];
                    for (cij, &s) in crow.iter_mut().zip(accr) {
                        *cij -= s;
                    }
                }
            }
        }
    }
}

/// `C ← C − A Bᵀ` with `A: m × k`, `B: n × k`, `C: m × n` (f64), packed.
pub fn gemm_nt_f64(a: &[f64], b: &[f64], c: &mut [f64], m: usize, n: usize, k: usize) {
    gemm_nt_packed::<f64, F64_ROWS, F64_LANES>(a, b, c, m, n, k);
}

/// `C ← C − A Bᵀ` in f32 arithmetic (FP32 accumulation — also the compute
/// path for TF32 / FP16_32 / BF16_32 after their input quantization).
pub fn gemm_nt_f32(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    gemm_nt_packed::<f32, F32_ROWS, F32_LANES>(a, b, c, m, n, k);
}

/// Packed `C ← C − A Aᵀ` on the lower triangle of the `m × m` matrix `C`.
/// Each panel of columns `[j0, j0 + L)` meets only the rows `i ≥ j0`, and
/// the tiles that straddle the diagonal write only their `j ≤ i` lanes.
fn syrk_ln_packed<T: Real, const R: usize, const L: usize>(
    a: &[T],
    m: usize,
    k: usize,
    c: &mut [T],
) {
    assert_eq!(a.len(), m * k);
    assert_eq!(c.len(), m * m);
    let zero = [T::default(); KC];
    let mut panel = [[T::default(); L]; KC];
    for pc in (0..k).step_by(KC) {
        let kc = (k - pc).min(KC);
        let panel = &mut panel[..kc];
        for j0 in (0..m).step_by(L) {
            let lanes = (m - j0).min(L);
            pack(panel, a, k, j0, lanes, pc);
            for i0 in (j0..m).step_by(R) {
                let rows = (m - i0).min(R);
                let ar = row_block(a, k, i0, rows, pc, kc, &zero);
                let acc = micro::<T, R, L>(ar, panel, [[T::default(); L]; R]);
                for (r, accr) in acc.iter().enumerate().take(rows) {
                    let i = i0 + r;
                    // Only lanes j0 + l ≤ i lie in the lower triangle.
                    let upto = (i + 1 - j0).min(lanes);
                    let crow = &mut c[i * m + j0..][..upto];
                    for (cij, &s) in crow.iter_mut().zip(accr) {
                        *cij -= s;
                    }
                }
            }
        }
    }
}

/// `C ← C − A Aᵀ` on the lower triangle of the `m × m` matrix `C`,
/// with `A` an `m × k` panel. Packed.
pub fn syrk_ln_f64(a: &[f64], m: usize, k: usize, c: &mut [f64]) {
    syrk_ln_packed::<f64, F64_ROWS, F64_LANES>(a, m, k, c);
}

/// Solve `X Lᵀ = B` in place on `B` (`m × n`), with `l` the lower-triangular
/// `n × n` factor (its strict upper triangle is never read). Each row of
/// `B` is an independent forward substitution; see the module docs for how
/// the packed kernel keeps every sum in its original order.
fn trsm_rlt_packed<T: Real, const R: usize, const L: usize>(
    l: &[T],
    n: usize,
    b: &mut [T],
    m: usize,
) {
    assert_eq!(l.len(), n * n);
    assert_eq!(b.len(), m * n);
    let zero = [T::default(); KC];
    let mut panel = [[T::default(); L]; KC];
    // The forward substitution's dot products start from `Iterator::sum`'s
    // neutral element; so does every lane here.
    let neutral: T = core::iter::empty::<T>().sum();
    for j0 in (0..n).step_by(L) {
        let jb = (n - j0).min(L);
        // The block's triangle, k-major like the panel: tri[t][l] =
        // L[j0 + l][j0 + t] strictly below the diagonal, zero elsewhere.
        let mut tri = [[T::default(); L]; L];
        let mut diag = [T::default(); L];
        for (t, lanes) in tri.iter_mut().enumerate().take(jb) {
            diag[t] = l[(j0 + t) * n + j0 + t];
            for (q, lane) in lanes.iter_mut().enumerate().take(jb).skip(t + 1) {
                *lane = l[(j0 + q) * n + j0 + t];
            }
        }
        // The k-block of the panel currently packed; with j0 ≤ KC (every
        // tile) there is one, packed once for all rows.
        let mut packed = None;
        for i0 in (0..m).step_by(R) {
            let rows = (m - i0).min(R);
            let mut acc = [[neutral; L]; R];
            for pc in (0..j0).step_by(KC) {
                let kc = (j0 - pc).min(KC);
                if packed != Some(pc) {
                    pack(&mut panel[..kc], l, n, j0, jb, pc);
                    packed = Some(pc);
                }
                let ar = row_block(b, n, i0, rows, pc, kc, &zero);
                acc = micro::<T, R, L>(ar, &panel[..kc], acc);
            }
            solve_block(b, n, i0, rows, j0, jb, &tri, &diag, acc);
        }
    }
}

/// TRSM's in-block triangle for rows `i0..i0 + rows`: continue each
/// carried accumulator `s[r][q]` (the sum over `t < j0`) over
/// `t = j0, j0 + 1, …` and solve column `j0 + q` once its sum is
/// complete. The rows are independent chains, interleaved so that their
/// divisions overlap.
#[allow(clippy::too_many_arguments)]
fn solve_block<T: Real, const R: usize, const L: usize>(
    b: &mut [T],
    n: usize,
    i0: usize,
    rows: usize,
    j0: usize,
    jb: usize,
    tri: &[[T; L]; L],
    diag: &[T; L],
    mut s: [[T; L]; R],
) {
    for (q, lanes) in tri.iter().enumerate().take(jb) {
        for (r, sr) in s.iter_mut().enumerate().take(rows) {
            let cell = &mut b[(i0 + r) * n + j0 + q];
            let x = (*cell - sr[q]) / diag[q];
            *cell = x;
            // Lanes ≤ q are already solved; their `tri` entries are zero.
            for (acc, &y) in sr.iter_mut().zip(lanes) {
                *acc += x * y;
            }
        }
    }
}

/// Solve `X Lᵀ = B` in place on `B` (`m × n`), with `l` the lower-triangular
/// `n × n` factor. Packed; f64.
pub fn trsm_rlt_f64(l: &[f64], n: usize, b: &mut [f64], m: usize) {
    trsm_rlt_packed::<f64, F64_ROWS, F64_LANES>(l, n, b, m);
}

/// [`trsm_rlt_f64`] in f32 arithmetic.
pub fn trsm_rlt_f32(l: &[f32], n: usize, b: &mut [f32], m: usize) {
    trsm_rlt_packed::<f32, F32_ROWS, F32_LANES>(l, n, b, m);
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
    use crate::oracle::*;

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
        // m spans many row blocks, n more than one panel
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
        // every combination of interior and edge rows and lanes
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
    fn blocked_gemm_multiblock_k_is_the_oracle_per_k_block() {
        // Past KC the packed GEMM subtracts one sum per k-block: exactly the
        // oracle applied to each k-block's columns in turn.
        let (m, n, k) = (7, 11, 2 * KC + 57);
        let a = pseudo(m * k, 29, 97, 0.01);
        let b = pseudo(n * k, 31, 89, 0.02);
        let c0 = pseudo(m * n, 7, 11, 0.3);
        let mut c_blk = c0.clone();
        gemm_nt_f64(&a, &b, &mut c_blk, m, n, k);
        let mut c_ref = c0;
        for pc in (0..k).step_by(KC) {
            let kc = (k - pc).min(KC);
            let cols = |v: &[f64], rows: usize| -> Vec<f64> {
                (0..rows)
                    .flat_map(|i| v[i * k + pc..i * k + pc + kc].to_vec())
                    .collect()
            };
            reference_gemm_nt_f64(&cols(&a, m), &cols(&b, n), &mut c_ref, m, n, kc);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c_blk), bits(&c_ref));
    }

    #[test]
    fn blocked_syrk_multiblock_k_matches_gemm_lower_bits() {
        // SYRK and GEMM share the kernel and the k-blocking, so past KC too
        // SYRK's lower triangle is GEMM's A·Aᵀ update bit for bit.
        let (m, k) = (21, KC + 19);
        let a = pseudo(m * k, 29, 97, 0.01);
        let c0 = pseudo(m * m, 7, 11, 0.3);
        let mut c_syrk = c0.clone();
        syrk_ln_f64(&a, m, k, &mut c_syrk);
        let mut c_gemm = c0.clone();
        gemm_nt_f64(&a, &a, &mut c_gemm, m, m, k);
        for i in 0..m {
            for j in 0..m {
                let want = if j <= i {
                    c_gemm[i * m + j]
                } else {
                    c0[i * m + j]
                };
                assert_eq!(c_syrk[i * m + j].to_bits(), want.to_bits(), "({i},{j})");
            }
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

    /// A unit-diagonal-dominant lower factor and a right-hand side for
    /// `X Lᵀ = B`; the upper triangle holds garbage that must never be read.
    fn trsm_case(n: usize, m: usize) -> (Vec<f64>, Vec<f64>) {
        let mut l = pseudo(n * n, 29, 17, 0.1);
        for i in 0..n {
            l[i * n + i] = 1.5 + (i % 5) as f64;
            for j in (i + 1)..n {
                l[i * n + j] = f64::NAN;
            }
        }
        (l, pseudo(m * n, 31, 13, 0.2))
    }

    #[test]
    fn blocked_trsm_bit_matches_reference_at_odd_shapes() {
        // Ragged column blocks, rows off the row-block edge, and n > KC so
        // the carried accumulators cross a k-block.
        for &(n, m) in &[
            (1usize, 1usize),
            (3, 2),
            (8, 4),
            (9, 5),
            (17, 7),
            (40, 13),
            (KC + 44, 6),
        ] {
            let (l, b0) = trsm_case(n, m);
            let mut b_blk = b0.clone();
            trsm_rlt_f64(&l, n, &mut b_blk, m);
            let mut b_ref = b0.clone();
            reference_trsm_rlt_f64(&l, n, &mut b_ref, m);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&b_blk), bits(&b_ref), "shape ({n},{m})");
            let l32: Vec<f32> = l.iter().map(|&x| x as f32).collect();
            let b32: Vec<f32> = b0.iter().map(|&x| x as f32).collect();
            let mut b_blk = b32.clone();
            trsm_rlt_f32(&l32, n, &mut b_blk, m);
            let mut b_ref = b32;
            reference_trsm_rlt_f32(&l32, n, &mut b_ref, m);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&b_blk), bits(&b_ref), "f32 shape ({n},{m})");
        }
    }
}
