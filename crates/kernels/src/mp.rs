//! Mixed-precision tile kernels with faithful per-format arithmetic.
//!
//! The emulation contract (DESIGN.md §7):
//!
//! * **FP32** — inputs on the binary32 grid, f32 accumulation.
//! * **TF32** — inputs rounded to a 10-bit mantissa, f32 accumulation.
//! * **FP16_32 / BF16_32** — inputs rounded to binary16 / bfloat16, f32
//!   accumulation (the f16·f16 product is exact in f32, exactly as tensor
//!   cores compute it).
//! * **FP16** — inputs *and* the running accumulation in binary16, with
//!   per-operation rounding. Emulated exactly in f32: the f16·f16 product
//!   is exact in binary32, and rounding the f32 difference back onto the
//!   binary16 grid equals the binary16 subtraction (Figueroa: 24 ≥ 2·11+2).
//! * Hardware limitation (paper §V): FP16-class TRSM does not exist on
//!   NVIDIA GPUs, so [`trsm_effective_precision`] clamps those to FP32, and
//!   POTRF/SYRK on diagonal tiles always run FP64 (Algorithm 1 "D" prefix).
//!
//! # Data path
//!
//! Every kernel is a `*_tile_ws` function taking a caller-owned [`Workspace`]
//! and running sequentially on the calling thread: operand staging reuses
//! the workspace's buffers (zero steady-state heap allocations), F64-stored
//! tiles are updated in place with no staging copy at all, and
//! reduced-precision paths read/write `f32` directly instead of
//! round-tripping through `f64`.
//!
//! GEMM additionally accepts pre-quantized operand images ([`ComputeBuf`])
//! so a producer can convert a tile to its compute format **once** and share
//! the result with every consumer — the paper's single-time conversion
//! (STC). Cached and locally-quantized operands are built by the same
//! quantization routine, so STC never changes a single bit of the result.

use crate::blas;
use crate::workspace::{with_thread_workspace, Workspace};
use half::f16;
use mixedp_fp::{round_bf16, round_f16, round_f16_f32, round_tf32_f32, Precision};
use mixedp_obs as obs;
use mixedp_tile::{Tile, TileBuf};

/// The precision a TRSM actually executes in when the tile's kernel
/// precision is `p` — FP16-class tiles fall back to FP32 (paper §V).
pub fn trsm_effective_precision(p: Precision) -> Precision {
    match p {
        Precision::Fp64 => Precision::Fp64,
        _ => Precision::Fp32,
    }
}

/// A tile's image in a kernel input format: the unit of the paper's
/// single-time conversion. Built once by the producing task, shared (behind
/// an `Arc`) with every consuming GEMM.
#[derive(Debug, Clone, PartialEq)]
pub enum ComputeBuf {
    /// f32-grid image (FP32 / TF32 / FP16_32 / BF16_32 after input
    /// quantization — all exactly representable in binary32).
    F32(Vec<f32>),
    /// binary16 image (pure-FP16 GEMM).
    F16(Vec<f16>),
}

impl ComputeBuf {
    pub fn len(&self) -> usize {
        match self {
            ComputeBuf::F32(v) => v.len(),
            ComputeBuf::F16(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload size in bytes (for data-motion accounting).
    pub fn bytes(&self) -> usize {
        match self {
            ComputeBuf::F32(v) => v.len() * 4,
            ComputeBuf::F16(v) => v.len() * 2,
        }
    }
}

/// Number of distinct non-FP64 kernel input formats — the slot count of a
/// per-tile compute-buffer cache.
pub const N_COMPUTE_FORMATS: usize = 5;

/// Cache-slot index of a precision's input format (`None` for FP64, which
/// needs no conversion).
pub fn compute_format_index(p: Precision) -> Option<usize> {
    match p {
        Precision::Fp64 => None,
        Precision::Fp32 => Some(0),
        Precision::Tf32 => Some(1),
        Precision::Fp16x32 => Some(2),
        Precision::Bf16x32 => Some(3),
        Precision::Fp16 => Some(4),
    }
}

/// Quantize a tile through `p`'s input representation into an f32 buffer
/// (every value of every format ≤ FP32 is exactly f32 representable).
/// One rounding per element — bit-identical to `mixedp_fp::quantize(p, x)`
/// — with the per-format rounding chosen once, outside the element loop.
fn quantize_into(p: Precision, t: &Tile, out: &mut Vec<f32>) {
    match p {
        Precision::Fp64 | Precision::Fp32 => t.read_f32_into(out),
        Precision::Tf32 => quantize_with(t, out, |x| round_tf32_f32(x as f32), round_tf32_f32),
        Precision::Fp16x32 | Precision::Fp16 => {
            quantize_with(t, out, |x| round_f16(x) as f32, round_f16_f32)
        }
        Precision::Bf16x32 => quantize_with(
            t,
            out,
            |x| round_bf16(x) as f32,
            |x| round_bf16(x as f64) as f32,
        ),
    }
}

/// [`quantize_into`]'s element loop for one format: `q64` rounds an f64
/// element directly (never via f32, which would round twice), `q32` rounds
/// an exact f32 one.
fn quantize_with(t: &Tile, out: &mut Vec<f32>, q64: impl Fn(f64) -> f32, q32: impl Fn(f32) -> f32) {
    out.clear();
    match t.buf() {
        TileBuf::F64(v) => out.extend(v.iter().map(|&x| q64(x))),
        TileBuf::F32(v) => out.extend(v.iter().map(|&x| q32(x))),
        TileBuf::F16(v) => out.extend(v.iter().map(|x| q32(x.to_f32()))),
    }
}

/// Widen a binary16 image into an f32 buffer (exact).
fn widen_f16_into(v: &[f16], out: &mut Vec<f32>) {
    out.clear();
    out.extend(v.iter().map(|x| x.to_f32()));
}

/// Write the transpose of the row-major `rows × cols` matrix `src` into
/// `out` (row-major `cols × rows`).
fn transpose_into(src: &[f32], rows: usize, cols: usize, out: &mut Vec<f32>) {
    out.clear();
    out.extend((0..cols).flat_map(|j| (0..rows).map(move |i| src[i * cols + j])));
}

/// Build the compute-format image of `t` for kernel precision `p`
/// (`p ≠ Fp64`). Uses the same quantization routines as the uncached GEMM
/// paths, so consuming a cached buffer is bit-identical to converting
/// locally.
pub fn make_compute_buf(p: Precision, t: &Tile) -> ComputeBuf {
    match p {
        Precision::Fp64 => panic!("FP64 operands are consumed directly, not via ComputeBuf"),
        Precision::Fp16 => ComputeBuf::F16(match t.buf() {
            TileBuf::F64(v) => v.iter().map(|&x| f16::from_f64(x)).collect(),
            TileBuf::F32(v) => v.iter().map(|&x| f16::from_f32(x)).collect(),
            TileBuf::F16(v) => v.clone(),
        }),
        _ => {
            let mut v = Vec::with_capacity(t.len());
            quantize_into(p, t, &mut v);
            ComputeBuf::F32(v)
        }
    }
}

/// POTRF on a diagonal tile: always FP64 (Algorithm 1 `DPOTRF`).
/// F64-stored tiles are factored fully in place (no staging copy); note
/// that on a `NotSpd` failure such a tile holds the partial factorization,
/// as with any in-place LAPACK-style POTRF.
pub fn potrf_tile_ws(c: &mut Tile, ws: &mut Workspace) -> Result<(), blas::NotSpd> {
    let sp = obs::span_start();
    let r = potrf_tile_ws_inner(c, ws);
    obs::span_end(
        sp,
        obs::EventKind::KernelPotrf,
        obs::kernel_arg(Precision::Fp64, c.rows()),
    );
    r
}

fn potrf_tile_ws_inner(c: &mut Tile, ws: &mut Workspace) -> Result<(), blas::NotSpd> {
    let n = c.rows();
    assert_eq!(n, c.cols(), "POTRF needs a square tile");
    if let Some(a) = c.as_mut_f64_slice() {
        blas::potrf_f64(a, n)?;
        for i in 0..n {
            for j in (i + 1)..n {
                a[i * n + j] = 0.0;
            }
        }
        return Ok(());
    }
    let a = ws.c64.load(|v| c.read_f64_into(v));
    blas::potrf_f64(a, n)?;
    // Zero the strict upper triangle so the tile holds exactly L.
    for i in 0..n {
        for j in (i + 1)..n {
            a[i * n + j] = 0.0;
        }
    }
    c.store_f64(a);
    Ok(())
}

/// TRSM: `C_mk ← C_mk · L_kkᵀ⁻¹` at kernel precision `p` (clamped per
/// [`trsm_effective_precision`]). `l` is the factored diagonal tile. The
/// FP32 path stages both operands directly in `f32` — no `f64` round-trip —
/// which halves its staging traffic; the values are bit-identical to the
/// widen-then-narrow route because every step of that route rounded at
/// most once.
pub fn trsm_tile_ws(p: Precision, l: &Tile, b: &mut Tile, ws: &mut Workspace) {
    let sp = obs::span_start();
    trsm_tile_ws_inner(p, l, b, ws);
    obs::span_end(
        sp,
        obs::EventKind::KernelTrsm,
        obs::kernel_arg(trsm_effective_precision(p), l.rows()),
    );
}

fn trsm_tile_ws_inner(p: Precision, l: &Tile, b: &mut Tile, ws: &mut Workspace) {
    let n = l.rows();
    assert_eq!(n, l.cols());
    assert_eq!(b.cols(), n);
    let m = b.rows();
    match trsm_effective_precision(p) {
        Precision::Fp64 => {
            let lf = ws.a64.load(|v| l.read_f64_into(v));
            if let Some(bf) = b.as_mut_f64_slice() {
                blas::trsm_rlt_f64(lf, n, bf, m);
            } else {
                let bf = ws.c64.load(|v| b.read_f64_into(v));
                blas::trsm_rlt_f64(lf, n, bf, m);
                b.store_f64(bf);
            }
        }
        _ => {
            let lf = ws.a32.load(|v| l.read_f32_into(v));
            let bf = ws.c32.load(|v| b.read_f32_into(v));
            blas::trsm_rlt_f32(lf, n, bf, m);
            b.write_f32(bf);
        }
    }
}

/// SYRK on a diagonal tile: `C_mm ← C_mm − C_mk C_mkᵀ`, always FP64
/// (Algorithm 1 `DSYRK`). The input panel may arrive in reduced storage —
/// widening it is lossless; the precision loss already happened when the
/// panel was stored, which is exactly the paper's error model. F64-stored
/// `C` updates in place, and F64-stored panels are read with zero copies.
pub fn syrk_tile_ws(a: &Tile, c: &mut Tile, ws: &mut Workspace) {
    let sp = obs::span_start();
    syrk_tile_ws_inner(a, c, ws);
    obs::span_end(
        sp,
        obs::EventKind::KernelSyrk,
        obs::kernel_arg(Precision::Fp64, c.rows()),
    );
}

fn syrk_tile_ws_inner(a: &Tile, c: &mut Tile, ws: &mut Workspace) {
    let m = c.rows();
    assert_eq!(m, c.cols());
    assert_eq!(a.rows(), m);
    let k = a.cols();
    let af: &[f64] = match a.as_f64_slice() {
        Some(s) => s,
        None => ws.a64.load(|v| a.read_f64_into(v)),
    };
    if let Some(cf) = c.as_mut_f64_slice() {
        blas::syrk_ln_f64(af, m, k, cf);
    } else {
        let cf = ws.c64.load(|v| c.read_f64_into(v));
        blas::syrk_ln_f64(af, m, k, cf);
        c.store_f64(cf);
    }
}

/// GEMM: `C_mn ← C_mn − C_mk C_nkᵀ` at kernel precision `p`.
///
/// `_parallel` is ignored (every kernel runs sequentially); it stays only
/// because the likelihood benchmark calls this six-argument form, and the
/// next change to the benchmark drops it.
pub fn gemm_tile_ws(
    p: Precision,
    a: &Tile,
    b: &Tile,
    c: &mut Tile,
    ws: &mut Workspace,
    _parallel: bool,
) {
    gemm_tile_ws_cached(p, a, None, b, None, c, ws);
}

/// GEMM with optional producer-converted operand images (STC).
///
/// When `a_buf`/`b_buf` hold the operand already quantized to `p`'s input
/// format, that conversion is skipped; otherwise the operand is quantized
/// locally into the workspace. Returns the number of operand conversions
/// performed *here* (0–2 for reduced-precision `p`, always 0 for FP64), so
/// the caller can account conversions avoided vs. performed.
pub fn gemm_tile_ws_cached(
    p: Precision,
    a: &Tile,
    a_buf: Option<&ComputeBuf>,
    b: &Tile,
    b_buf: Option<&ComputeBuf>,
    c: &mut Tile,
    ws: &mut Workspace,
) -> usize {
    let sp = obs::span_start();
    let converted = gemm_tile_ws_cached_inner(p, a, a_buf, b, b_buf, c, ws);
    obs::span_end(sp, obs::EventKind::KernelGemm, obs::kernel_arg(p, c.rows()));
    converted
}

fn gemm_tile_ws_cached_inner(
    p: Precision,
    a: &Tile,
    a_buf: Option<&ComputeBuf>,
    b: &Tile,
    b_buf: Option<&ComputeBuf>,
    c: &mut Tile,
    ws: &mut Workspace,
) -> usize {
    let m = c.rows();
    let n = c.cols();
    let k = a.cols();
    assert_eq!(a.rows(), m);
    assert_eq!(b.rows(), n);
    assert_eq!(b.cols(), k);
    let mut converted = 0;
    match p {
        Precision::Fp64 => {
            let af: &[f64] = match a.as_f64_slice() {
                Some(s) => s,
                None => ws.a64.load(|v| a.read_f64_into(v)),
            };
            let bf: &[f64] = match b.as_f64_slice() {
                Some(s) => s,
                None => ws.b64.load(|v| b.read_f64_into(v)),
            };
            if let Some(cf) = c.as_mut_f64_slice() {
                blas::gemm_nt_f64(af, bf, cf, m, n, k);
            } else {
                let cf = ws.c64.load(|v| c.read_f64_into(v));
                blas::gemm_nt_f64(af, bf, cf, m, n, k);
                c.store_f64(cf);
            }
        }
        Precision::Fp16 => {
            // Every operand is staged as f32 images of binary16 values; B
            // goes through `c32` (free until C is staged) into `b32` as Bᵀ.
            let af: &[f32] = match a_buf {
                Some(ComputeBuf::F16(v)) if v.len() == m * k => {
                    ws.a32.load(|o| widen_f16_into(v, o))
                }
                _ => {
                    converted += 1;
                    ws.a32.load(|o| quantize_into(p, a, o))
                }
            };
            let b_rows: &[f32] = match b_buf {
                Some(ComputeBuf::F16(v)) if v.len() == n * k => {
                    ws.c32.load(|o| widen_f16_into(v, o))
                }
                _ => {
                    converted += 1;
                    ws.c32.load(|o| quantize_into(p, b, o))
                }
            };
            let bt = ws.b32.load(|o| transpose_into(b_rows, n, k, o));
            let cf = ws.c32.load(|o| quantize_into(p, c, o));
            gemm_f16_f32(af, bt, cf, m, n, k);
            c.write_f32(cf);
        }
        _ => {
            // FP32 / TF32 / FP16_32 / BF16_32: quantize inputs to the
            // format's grid, accumulate in f32.
            let af: &[f32] = match a_buf {
                Some(ComputeBuf::F32(v)) if v.len() == m * k => v,
                _ => {
                    converted += 1;
                    ws.a32.load(|v| quantize_into(p, a, v))
                }
            };
            let bf: &[f32] = match b_buf {
                Some(ComputeBuf::F32(v)) if v.len() == n * k => v,
                _ => {
                    converted += 1;
                    ws.b32.load(|v| quantize_into(p, b, v))
                }
            };
            if let Some(cf) = c.as_mut_f32_slice() {
                blas::gemm_nt_f32(af, bf, cf, m, n, k);
            } else {
                let cf = ws.c32.load(|v| c.read_f32_into(v));
                blas::gemm_nt_f32(af, bf, cf, m, n, k);
                c.write_f32(cf);
            }
        }
    }
    converted
}

/// Output columns one FP16 micro-kernel call keeps in registers.
const F16_NR: usize = 16;

/// Pure-FP16 GEMM `C ← C − A·Bᵀ` emulated exactly in f32: `af` (m×k),
/// `bt` = Bᵀ (k×n) and `cf` (m×n) hold binary16 values, and every
/// operation is rounded back onto the binary16 grid, `acc = r16(acc −
/// r16(a·b))`, with k walked in order — the per-op sequence of a binary16
/// multiply-then-subtract loop, so results are bit-identical to `half::f16`
/// arithmetic (see `crates/fp/tests/f16_exhaustive.rs`).
fn gemm_f16_f32(af: &[f32], bt: &[f32], cf: &mut [f32], m: usize, n: usize, k: usize) {
    debug_assert_eq!(cf.len(), m * n);
    for (i, crow) in cf.chunks_mut(n).enumerate() {
        let ai = &af[i * k..(i + 1) * k];
        let mut blocks = crow.chunks_exact_mut(F16_NR);
        for (jb, cblk) in blocks.by_ref().enumerate() {
            f16_row_block(ai, bt, n, jb * F16_NR, cblk.try_into().unwrap());
        }
        let j0 = n - n % F16_NR;
        for (j, cij) in blocks.into_remainder().iter_mut().enumerate() {
            let mut acc = *cij;
            for (t, &x) in ai.iter().enumerate() {
                acc = round_f16_f32(acc - round_f16_f32(x * bt[t * n + j0 + j]));
            }
            *cij = acc;
        }
    }
}

/// FP16 micro-kernel: one row of A against columns `j0..j0+F16_NR` of Bᵀ,
/// with one accumulator per column so the lanes vectorize.
#[inline(always)]
fn f16_row_block(ai: &[f32], bt: &[f32], n: usize, j0: usize, c: &mut [f32; F16_NR]) {
    let mut acc = *c;
    for (t, &x) in ai.iter().enumerate() {
        let b: &[f32; F16_NR] = bt[t * n + j0..t * n + j0 + F16_NR].try_into().unwrap();
        for (a, &y) in acc.iter_mut().zip(b) {
            *a = round_f16_f32(*a - round_f16_f32(x * y));
        }
    }
    *c = acc;
}

/// FP8 GEMM emulation (extension): inputs rounded through FP8 E4M3, FP32
/// accumulation — the H100 FP8 tensor-core mode, one precision rung below
/// the paper's FP16_32. `C ← C − A Bᵀ`.
pub fn gemm_tile_fp8(a: &Tile, b: &Tile, c: &mut Tile) {
    let m = c.rows();
    let n = c.cols();
    let k = a.cols();
    assert_eq!(a.rows(), m);
    assert_eq!(b.rows(), n);
    assert_eq!(b.cols(), k);
    with_thread_workspace(|ws| {
        let af = ws.a32.load(|v| {
            v.clear();
            v.extend(a.to_f64().iter().map(|&x| mixedp_fp::round_e4m3(x) as f32));
        });
        let bf = ws.b32.load(|v| {
            v.clear();
            v.extend(b.to_f64().iter().map(|&x| mixedp_fp::round_e4m3(x) as f32));
        });
        let cf = ws.c32.load(|v| c.read_f32_into(v));
        blas::gemm_nt_f32(af, bf, cf, m, n, k);
        c.write_f32(cf);
    });
}

/// Flop count of each Algorithm 1 kernel on `nb × nb` tiles (standard dense
/// counts; used by the performance model and the Gflop/s reports).
pub fn kernel_flops(kind: KernelKind, nb: usize) -> f64 {
    let b = nb as f64;
    match kind {
        KernelKind::Potrf => b * b * b / 3.0,
        KernelKind::Trsm => b * b * b,
        KernelKind::Syrk => b * b * b,
        KernelKind::Gemm => 2.0 * b * b * b,
    }
}

/// The four kernel classes of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    Potrf,
    Trsm,
    Syrk,
    Gemm,
}

impl KernelKind {
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Potrf => "POTRF",
            KernelKind::Trsm => "TRSM",
            KernelKind::Syrk => "SYRK",
            KernelKind::Gemm => "GEMM",
        }
    }

    /// Flop count of the kernel in units of `nb³/3` ([`kernel_flops`]):
    /// the weight of the DAG's critical-path priorities.
    pub fn weight(self) -> i64 {
        match self {
            KernelKind::Potrf => 1,
            KernelKind::Trsm => 3,
            KernelKind::Syrk => 3,
            KernelKind::Gemm => 6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixedp_fp::StoragePrecision as SP;
    use proptest::prelude::*;

    /// The original pure-FP16 GEMM core: binary16 inputs, binary16 multiply
    /// results, binary16 running accumulation — per-operation rounding via
    /// `half::f16`. Oracle of the f32-emulated core.
    fn gemm_f16_core(af: &[f16], bf: &[f16], cf: &mut [f16], n: usize, k: usize) {
        for (i, crow) in cf.chunks_mut(n).enumerate() {
            let ai = &af[i * k..(i + 1) * k];
            for (j, cij) in crow.iter_mut().enumerate() {
                let bj = &bf[j * k..(j + 1) * k];
                let mut acc = *cij;
                for (x, y) in ai.iter().zip(bj) {
                    let prod = *x * *y; // f16 multiply (rounds to f16)
                    acc = acc - prod; // f16 subtract (rounds to f16)
                }
                *cij = acc;
            }
        }
    }

    fn spd_tile(n: usize) -> Tile {
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                d[i * n + j] = 1.0 / (1.0 + (i as f64 - j as f64).abs());
            }
            d[i * n + i] += n as f64;
        }
        Tile::from_f64(n, n, &d, SP::F64)
    }

    fn rand_tile(m: usize, k: usize, seed: u64, storage: SP) -> Tile {
        // deterministic pseudo-random fill in [-1, 1]
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let d: Vec<f64> = (0..m * k)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64) * 2.0 - 1.0
            })
            .collect();
        Tile::from_f64(m, k, &d, storage)
    }

    #[test]
    fn potrf_tile_zeros_upper() {
        let mut t = spd_tile(8);
        potrf_tile_ws(&mut t, &mut Workspace::new()).unwrap();
        for i in 0..8 {
            for j in (i + 1)..8 {
                assert_eq!(t.get(i, j), 0.0);
            }
            assert!(t.get(i, i) > 0.0);
        }
    }

    #[test]
    fn potrf_tile_reduced_storage_roundtrips() {
        // staging path (non-F64 storage) must behave like the in-place one
        let mut t64 = spd_tile(8);
        let mut t32 = t64.converted_to(SP::F32);
        potrf_tile_ws(&mut t64, &mut Workspace::new()).unwrap();
        potrf_tile_ws(&mut t32, &mut Workspace::new()).unwrap();
        for i in 0..8 {
            for j in 0..8 {
                assert!((t64.get(i, j) - t32.get(i, j)).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn gemm_precision_error_ladder() {
        // Relative error of reduced-precision GEMM vs FP64 must grow as the
        // format coarsens — the qualitative content of paper Fig 1.
        let (m, n, k) = (48, 48, 48);
        let a = rand_tile(m, k, 1, SP::F64);
        let b = rand_tile(n, k, 2, SP::F64);
        let exact = {
            let mut c = Tile::zeros(m, n, SP::F64);
            gemm_tile_ws(Precision::Fp64, &a, &b, &mut c, &mut Workspace::new(), true);
            c
        };
        let mut errs = Vec::new();
        for p in [
            Precision::Fp32,
            Precision::Tf32,
            Precision::Fp16x32,
            Precision::Fp16,
        ] {
            let mut c = Tile::zeros(m, n, SP::F64);
            gemm_tile_ws(p, &a, &b, &mut c, &mut Workspace::new(), true);
            let e = crate::validate::gemm_relative_error(&c, &exact);
            errs.push((p, e));
        }
        assert!(errs[0].1 < 1e-6, "FP32 err {:?}", errs[0]);
        assert!(errs[1].1 > errs[0].1, "TF32 coarser than FP32: {errs:?}");
        assert!(errs[3].1 > errs[2].1, "FP16 coarser than FP16_32: {errs:?}");
        assert!(errs[3].1 < 0.2, "FP16 still correlated: {errs:?}");
    }

    #[test]
    fn fp16x32_matches_manual_emulation() {
        let (m, n, k) = (5, 4, 6);
        let a = rand_tile(m, k, 3, SP::F64);
        let b = rand_tile(n, k, 4, SP::F64);
        let mut c = Tile::zeros(m, n, SP::F64);
        gemm_tile_ws(
            Precision::Fp16x32,
            &a,
            &b,
            &mut c,
            &mut Workspace::new(),
            true,
        );
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for t in 0..k {
                    let x = f16::from_f64(a.get(i, t)).to_f32();
                    let y = f16::from_f64(b.get(j, t)).to_f32();
                    acc += x * y;
                }
                assert_eq!(c.get(i, j), -(acc as f64), "({i},{j})");
            }
        }
    }

    #[test]
    fn cached_operands_are_bit_identical_to_local_quantization() {
        // STC contract: a GEMM fed producer-converted buffers matches the
        // locally-converting GEMM bit for bit, for every format class.
        let (m, n, k) = (12, 10, 8);
        for p in [
            Precision::Fp32,
            Precision::Tf32,
            Precision::Fp16x32,
            Precision::Bf16x32,
            Precision::Fp16,
        ] {
            let a = rand_tile(m, k, 31, SP::F64);
            let b = rand_tile(n, k, 32, SP::F32);
            let c0 = rand_tile(m, n, 33, SP::F64);
            let ab = make_compute_buf(p, &a);
            let bb = make_compute_buf(p, &b);
            let mut ws = Workspace::new();

            let mut c_cached = c0.clone();
            let conv = gemm_tile_ws_cached(p, &a, Some(&ab), &b, Some(&bb), &mut c_cached, &mut ws);
            assert_eq!(conv, 0, "{p:?}: cached operands must not reconvert");

            let mut c_local = c0.clone();
            let conv = gemm_tile_ws_cached(p, &a, None, &b, None, &mut c_local, &mut ws);
            assert_eq!(conv, 2, "{p:?}: uncached operands convert twice");

            assert_eq!(c_cached, c_local, "{p:?}: STC changed the result");
        }
    }

    #[test]
    fn gemm_ws_steady_state_is_allocation_free() {
        let (m, n, k) = (24, 24, 24);
        let a = rand_tile(m, k, 41, SP::F64);
        let b = rand_tile(n, k, 42, SP::F16);
        let mut ws = Workspace::new();
        for p in [Precision::Fp64, Precision::Fp32, Precision::Fp16] {
            let mut c = rand_tile(m, n, 43, SP::F32);
            gemm_tile_ws(p, &a, &b, &mut c, &mut ws, false);
        }
        let warm = ws.grow_events();
        for _ in 0..5 {
            for p in [Precision::Fp64, Precision::Fp32, Precision::Fp16] {
                let mut c = rand_tile(m, n, 43, SP::F32);
                gemm_tile_ws(p, &a, &b, &mut c, &mut ws, false);
            }
        }
        assert_eq!(ws.grow_events(), warm, "warm workspace reallocated");
    }

    /// Raw element bits in the tile's own storage format (NaN payloads and
    /// signed zeros included).
    fn raw_bits(t: &Tile) -> Vec<u64> {
        match t.buf() {
            TileBuf::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
            TileBuf::F32(v) => v.iter().map(|x| x.to_bits() as u64).collect(),
            TileBuf::F16(v) => v.iter().map(|x| x.to_bits() as u64).collect(),
        }
    }

    /// The original FP16 GEMM data path: stage every operand as `f16`, run
    /// [`gemm_f16_core`], store the widened result.
    fn gemm_f16_oracle(a: &Tile, b: &Tile, c: &mut Tile) {
        let to_f16 = |t: &Tile| -> Vec<f16> {
            match t.buf() {
                TileBuf::F64(v) => v.iter().map(|&x| f16::from_f64(x)).collect(),
                TileBuf::F32(v) => v.iter().map(|&x| f16::from_f64(x as f64)).collect(),
                TileBuf::F16(v) => v.clone(),
            }
        };
        let (af, bf, mut cf) = (to_f16(a), to_f16(b), to_f16(c));
        gemm_f16_core(&af, &bf, &mut cf, c.cols(), a.cols());
        let wide: Vec<f64> = cf.iter().map(|x| x.to_f64()).collect();
        c.store_f64(&wide);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The f32-emulated FP16 GEMM is bit-identical to the binary16
        /// oracle for every storage format of A/B/C, cached and uncached
        /// operands, ragged shapes (including m, n below one micro-kernel
        /// block) and magnitudes that overflow to ±∞ (then NaN) or land in
        /// the binary16 subnormal range.
        #[test]
        fn fp16_gemm_matches_f16_oracle(
            m in 1usize..80,
            n in 1usize..40,
            k in 1usize..40,
            storage in 0usize..27,
            cached in 0u32..4,
            scale in 0usize..5,
            seed in 0u64..1 << 32,
        ) {
            const SP_ALL: [SP; 3] = [SP::F64, SP::F32, SP::F16];
            // ~1: ordinary; 300: products and sums past 65504; 7e4:
            // operands already ±∞; 2e-4 and 2^-13: products and partial
            // sums in (or through) the subnormal range.
            let scale = [1.0, 300.0, 7e4, 2e-4, 2f64.powi(-13)][scale];
            let scaled = |t: Tile, sp: SP| {
                let v: Vec<f64> = t.to_f64().iter().map(|x| x * scale).collect();
                Tile::from_f64(t.rows(), t.cols(), &v, sp)
            };
            let a = scaled(rand_tile(m, k, seed, SP::F64), SP_ALL[storage % 3]);
            let b = scaled(rand_tile(n, k, seed + 1, SP::F64), SP_ALL[storage / 3 % 3]);
            let c0 = scaled(rand_tile(m, n, seed + 2, SP::F64), SP_ALL[storage / 9]);
            let ab = make_compute_buf(Precision::Fp16, &a);
            let bb = make_compute_buf(Precision::Fp16, &b);
            let a_buf = (cached & 1 == 1).then_some(&ab);
            let b_buf = (cached & 2 == 2).then_some(&bb);

            let mut want = c0.clone();
            gemm_f16_oracle(&a, &b, &mut want);
            let mut got = c0.clone();
            let mut ws = Workspace::new();
            gemm_tile_ws_cached(Precision::Fp16, &a, a_buf, &b, b_buf, &mut got, &mut ws);
            prop_assert_eq!(raw_bits(&got), raw_bits(&want), "{}x{}x{} scale {}", m, n, k, scale);
        }
    }

    #[test]
    fn fp32_class_gemm_updates_f32_tiles_in_place_bit_identically() {
        // The in-place F32 path must match the staged route (read C as
        // f32, run the same blocked kernel, write back) bit for bit.
        let (m, n, k) = (37, 21, 19);
        for p in [Precision::Fp32, Precision::Tf32, Precision::Fp16x32] {
            let a = rand_tile(m, k, 51, SP::F64);
            let b = rand_tile(n, k, 52, SP::F16);
            let c0 = rand_tile(m, n, 53, SP::F32);
            let mut got = c0.clone();
            gemm_tile_ws(p, &a, &b, &mut got, &mut Workspace::new(), true);
            let (mut af, mut bf, mut cf) = (Vec::new(), Vec::new(), Vec::new());
            quantize_into(p, &a, &mut af);
            quantize_into(p, &b, &mut bf);
            c0.read_f32_into(&mut cf);
            blas::gemm_nt_f32(&af, &bf, &mut cf, m, n, k);
            let mut want = c0.clone();
            want.write_f32(&cf);
            assert_eq!(raw_bits(&got), raw_bits(&want), "{p:?}");
        }
    }

    #[test]
    fn quantize_into_matches_scalar_quantize() {
        // The hoisted per-format loops round exactly like the scalar
        // `mixedp_fp::quantize` for every format and storage class.
        let vals = [
            0.0,
            -0.0,
            1.0 / 3.0,
            -2049.0,
            65519.0,
            65520.0,
            1e6,
            3e-8,
            -6e-8,
            1e-300,
            f64::INFINITY,
            f64::NAN,
        ];
        for sp in [SP::F64, SP::F32, SP::F16] {
            let t = Tile::from_f64(1, vals.len(), &vals, sp);
            for p in Precision::ALL {
                let mut out = Vec::new();
                quantize_into(p, &t, &mut out);
                for (j, &got) in out.iter().enumerate() {
                    let want = mixedp_fp::quantize(p, t.get(0, j)) as f32;
                    assert_eq!(got.to_bits(), want.to_bits(), "{p:?} {sp:?} {}", vals[j]);
                }
            }
        }
    }

    #[test]
    fn trsm_clamps_fp16_to_fp32() {
        assert_eq!(trsm_effective_precision(Precision::Fp16), Precision::Fp32);
        assert_eq!(
            trsm_effective_precision(Precision::Fp16x32),
            Precision::Fp32
        );
        assert_eq!(trsm_effective_precision(Precision::Fp64), Precision::Fp64);

        let mut l = spd_tile(6);
        potrf_tile_ws(&mut l, &mut Workspace::new()).unwrap();
        let b0 = rand_tile(4, 6, 9, SP::F64);
        let mut b16 = b0.clone();
        trsm_tile_ws(Precision::Fp16, &l, &mut b16, &mut Workspace::new());
        let mut b32 = b0.clone();
        trsm_tile_ws(Precision::Fp32, &l, &mut b32, &mut Workspace::new());
        // identical: FP16 TRSM *is* FP32 TRSM
        assert_eq!(b16.to_f64(), b32.to_f64());
    }

    #[test]
    fn trsm_tile_solves() {
        let n = 8;
        let mut l = spd_tile(n);
        potrf_tile_ws(&mut l, &mut Workspace::new()).unwrap();
        let x0 = rand_tile(3, n, 7, SP::F64);
        // b = x0 * L^T
        let mut b = Tile::zeros(3, n, SP::F64);
        for i in 0..3 {
            for j in 0..n {
                let mut s = 0.0;
                for t in 0..=j {
                    s += x0.get(i, t) * l.get(j, t);
                }
                b.set(i, j, s);
            }
        }
        trsm_tile_ws(Precision::Fp64, &l, &mut b, &mut Workspace::new());
        for i in 0..3 {
            for j in 0..n {
                assert!((b.get(i, j) - x0.get(i, j)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn syrk_always_fp64_semantics() {
        let m = 6;
        let k = 5;
        let a = rand_tile(m, k, 11, SP::F64);
        let mut c = spd_tile(m);
        let c0 = c.clone();
        syrk_tile_ws(&a, &mut c, &mut Workspace::new());
        for i in 0..m {
            for j in 0..=i {
                let mut s = 0.0;
                for t in 0..k {
                    s += a.get(i, t) * a.get(j, t);
                }
                assert!((c.get(i, j) - (c0.get(i, j) - s)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn flop_counts() {
        assert_eq!(kernel_flops(KernelKind::Gemm, 100) as u64, 2_000_000);
        assert_eq!(kernel_flops(KernelKind::Trsm, 100) as u64, 1_000_000);
        assert!(kernel_flops(KernelKind::Potrf, 100) < kernel_flops(KernelKind::Trsm, 100));
    }

    #[test]
    fn weights_are_flops_in_units_of_nb_cubed_over_3() {
        let nb = 96;
        let unit = (nb * nb * nb) as f64 / 3.0;
        for kind in [
            KernelKind::Potrf,
            KernelKind::Trsm,
            KernelKind::Syrk,
            KernelKind::Gemm,
        ] {
            assert_eq!(
                kind.weight() as f64 * unit,
                kernel_flops(kind, nb),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn gemm_respects_c_storage_precision() {
        // C stored in F32: result must lie on the f32 grid
        let (m, n, k) = (4, 4, 4);
        let a = rand_tile(m, k, 20, SP::F64);
        let b = rand_tile(n, k, 21, SP::F64);
        let mut c = rand_tile(m, n, 22, SP::F32);
        gemm_tile_ws(Precision::Fp32, &a, &b, &mut c, &mut Workspace::new(), true);
        for v in c.to_f64() {
            assert_eq!(v as f32 as f64, v);
        }
    }

    #[test]
    fn compute_format_index_covers_all_reduced_formats() {
        let mut seen = [false; N_COMPUTE_FORMATS];
        for p in [
            Precision::Fp32,
            Precision::Tf32,
            Precision::Fp16x32,
            Precision::Bf16x32,
            Precision::Fp16,
        ] {
            let i = compute_format_index(p).unwrap();
            assert!(!seen[i], "slot {i} reused");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(compute_format_index(Precision::Fp64), None);
    }
}
