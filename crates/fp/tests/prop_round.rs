//! Property-based tests of the rounding emulation.

mod oracle;

use mixedp_fp::{
    quantize, round_bf16, round_f16, round_f16_f32, round_tf32, CommPrecision, Precision, F16,
};
use oracle::{decode, encode};
use proptest::prelude::*;

/// An f64 aimed at the hard cases of rounding to the `E`/`M` format,
/// chosen by `sel`: exact ties between neighbouring codes (and their f64
/// neighbours), arbitrary points inside an ulp, magnitudes across and
/// beyond the format's range (subnormal, overflow), specials (±0, ±∞, NaN
/// payloads, the extreme finite and subnormal values and the ties beyond
/// them) and raw bit patterns. `code` is reduced below the infinity code.
fn hard_case<const E: u32, const M: u32>(
    sel: u32,
    raw: u64,
    code: u16,
    frac: f64,
    neg: bool,
) -> f64 {
    let inf_code = ((1u16 << E) - 1) << M;
    let code = code % inf_code;
    let lo = decode::<E, M>(code);
    let ulp = if code == inf_code - 1 {
        // next step would be the overflow threshold's far side
        lo - decode::<E, M>(code - 1)
    } else {
        decode::<E, M>(code + 1) - lo
    };
    let tie = lo + ulp / 2.0;
    let x = match sel {
        0 => tie,
        1 => f64::from_bits(tie.to_bits() + 1),
        2 => f64::from_bits(tie.to_bits() - 1),
        3 => lo + frac * ulp,
        4 => {
            // log-uniform from far below the smallest subnormal to past the
            // overflow threshold ([2^-40, 2^20) for binary16)
            let bias = (1i64 << (E - 1)) - 1;
            let lo_e = -(2 * bias + M as i64);
            let e = (raw % (bias + 5 - lo_e) as u64) as i64 + lo_e;
            (1.0 + frac) * 2f64.powi(e as i32)
        }
        5 => {
            let max = decode::<E, M>(inf_code - 1);
            let min_sub = decode::<E, M>(1);
            let specials = [
                0.0,
                f64::INFINITY,
                f64::NAN,
                max,
                max + (max - decode::<E, M>(inf_code - 2)) / 2.0,
                min_sub,
                min_sub / 2.0, // ties to zero
                decode::<E, M>(1 << M),
            ];
            specials[(raw % 8) as usize]
        }
        6 => f64::from_bits(0x7FF0_0000_0000_0000 | (raw >> 12).max(1)), // NaN payloads
        _ => f64::from_bits(raw),
    };
    if neg {
        -x
    } else {
        x
    }
}

proptest! {
    /// Quantization is idempotent: a value already on the grid stays put.
    #[test]
    fn quantize_idempotent(x in -1e4f64..1e4, pi in 0usize..6) {
        let p = Precision::ALL[pi];
        let q = quantize(p, x);
        prop_assert_eq!(quantize(p, q), q);
    }

    /// Relative rounding error is bounded by the unit roundoff for normal
    /// (non-underflowing, non-overflowing) magnitudes.
    #[test]
    fn quantize_error_bound(x in prop::num::f64::NORMAL, pi in 0usize..6) {
        let p = Precision::ALL[pi];
        // Keep x inside every format's normal range.
        let x = x.clamp(-1e4, 1e4);
        prop_assume!(x.abs() > 1e-3);
        let q = quantize(p, x);
        let rel = ((q - x) / x).abs();
        prop_assert!(rel <= p.unit_roundoff(), "{}: rel {:e}", p, rel);
    }

    /// Quantization is monotone (non-decreasing).
    #[test]
    fn quantize_monotone(a in -1e4f64..1e4, b in -1e4f64..1e4, pi in 0usize..6) {
        let p = Precision::ALL[pi];
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(quantize(p, lo) <= quantize(p, hi));
    }

    /// Quantization is odd: round(-x) == -round(x) (RNE is sign-symmetric).
    #[test]
    fn quantize_odd(x in -1e4f64..1e4, pi in 0usize..6) {
        let p = Precision::ALL[pi];
        prop_assert_eq!(quantize(p, -x), -quantize(p, x));
    }

    /// TF32 values are exactly representable in FP32 and coarser than FP32.
    #[test]
    fn tf32_subset_of_f32(x in -1e30f64..1e30) {
        let t = round_tf32(x);
        prop_assert_eq!(t as f32 as f64, t);
    }

    /// FP16 results are also bf16-or-f32 representable sanity: f16 grid is a
    /// subset of f32's.
    #[test]
    fn f16_subset_of_f32(x in -6e4f64..6e4) {
        let h = round_f16(x);
        prop_assert_eq!(h as f32 as f64, h);
    }

    /// bf16 is a strict truncation of the f32 lattice.
    #[test]
    fn bf16_subset_of_f32(x in -1e30f64..1e30) {
        let h = round_bf16(x);
        prop_assert_eq!(h as f32 as f64, h);
    }

    /// Wire-format max is a lattice join.
    #[test]
    fn higher_comm_bounds(ai in 0usize..3, bi in 0usize..3) {
        let all = [CommPrecision::Fp16, CommPrecision::Fp32, CommPrecision::Fp64];
        let (a, b) = (all[ai], all[bi]);
        let j = mixedp_fp::higher_comm(a, b);
        prop_assert!(j >= a && j >= b);
        prop_assert!(j == a || j == b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The branch-free direct f64 → binary16 rounding and the `F16`
    /// encoding agree bit for bit with the integer encoder (ties,
    /// subnormals, overflow, ±0, ±∞ and NaN, its sign included).
    #[test]
    fn round_f16_matches_integer_encoder(
        sel in 0u32..8,
        raw in 0u64..u64::MAX,
        code in 0u32..0x7C00,
        frac in 0.0f64..1.0,
        neg in 0u32..2,
    ) {
        let x = hard_case::<5, 10>(sel, raw, code as u16, frac, neg == 1);
        let code = encode::<5, 10>(x);
        let want = decode::<5, 10>(code);
        prop_assert_eq!(round_f16(x).to_bits(), want.to_bits(), "x = {:e} ({:#x})", x, x.to_bits());
        prop_assert_eq!(F16::from_f64(x).to_bits(), code, "x = {:e} ({:#x})", x, x.to_bits());
        // On f32 inputs the binary32 rounding agrees with both.
        let y = x as f32;
        let code = encode::<5, 10>(y as f64);
        let want = decode::<5, 10>(code);
        prop_assert_eq!(round_f16_f32(y).to_bits(), (want as f32).to_bits(), "y = {:e}", y);
        prop_assert_eq!(round_f16(y as f64).to_bits(), want.to_bits(), "y = {:e}", y);
        prop_assert_eq!(F16::from_f32(y).to_bits(), code, "y = {:e}", y);
    }

    /// The branch-free bfloat16 rounding agrees bit for bit with the
    /// integer encoder, on the same kinds of hard case.
    #[test]
    fn round_bf16_matches_integer_encoder(
        sel in 0u32..8,
        raw in 0u64..u64::MAX,
        code in 0u32..0x7F80,
        frac in 0.0f64..1.0,
        neg in 0u32..2,
    ) {
        let x = hard_case::<8, 7>(sel, raw, code as u16, frac, neg == 1);
        let want = decode::<8, 7>(encode::<8, 7>(x));
        prop_assert_eq!(round_bf16(x).to_bits(), want.to_bits(), "x = {:e} ({:#x})", x, x.to_bits());
    }
}
