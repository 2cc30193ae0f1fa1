//! Property-based tests of the rounding emulation.

use half::f16;
use mixedp_fp::{
    quantize, round_bf16, round_f16, round_f16_f32, round_tf32, CommPrecision, Precision,
};
use proptest::prelude::*;

/// An f64 aimed at the hard cases of binary16 rounding, chosen by `sel`:
/// exact ties between neighbouring f16 values (and their f64 neighbours),
/// arbitrary points inside an f16 ulp, magnitudes across and beyond the
/// f16 range (subnormal, overflow), specials (±0, ±∞, NaN payloads) and
/// raw bit patterns.
fn f16_hard_case(sel: u32, raw: u64, code: u16, frac: f64, neg: bool) -> f64 {
    let lo = f16::from_bits(code).to_f64();
    let ulp = if code == 0x7BFF {
        32.0 // next step would be 65536, the overflow threshold's far side
    } else {
        f16::from_bits(code + 1).to_f64() - lo
    };
    let tie = lo + ulp / 2.0;
    let x = match sel {
        0 => tie,
        1 => f64::from_bits(tie.to_bits() + 1),
        2 => f64::from_bits(tie.to_bits() - 1),
        3 => lo + frac * ulp,
        4 => {
            // log-uniform over [2^-40, 2^20): subnormal to overflow
            let e = (raw % 60) as i32 - 40;
            (1.0 + frac) * 2f64.powi(e)
        }
        5 => {
            const SPECIALS: [f64; 8] = [
                0.0,
                f64::INFINITY,
                f64::NAN,
                65504.0,
                65520.0,
                5.960464477539063e-8,  // 2^-24
                2.9802322387695312e-8, // 2^-25, ties to zero
                6.103515625e-5,        // 2^-14
            ];
            SPECIALS[(raw % 8) as usize]
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

    /// The branch-free direct f64 → binary16 rounding agrees bit for bit
    /// with the integer encoder of the `half` shim (ties, subnormals,
    /// overflow, ±0, ±∞ and NaN included).
    #[test]
    fn round_f16_matches_integer_encoder(
        sel in 0u32..8,
        raw in 0u64..u64::MAX,
        code in 0u32..0x7C00,
        frac in 0.0f64..1.0,
        neg in 0u32..2,
    ) {
        let x = f16_hard_case(sel, raw, code as u16, frac, neg == 1);
        let want = f16::from_f64(x).to_f64();
        prop_assert_eq!(round_f16(x).to_bits(), want.to_bits(), "x = {:e} ({:#x})", x, x.to_bits());
        // On f32 inputs the binary32 rounding agrees with both.
        let y = x as f32;
        let want = f16::from_f32(y).to_f32();
        prop_assert_eq!(round_f16_f32(y).to_bits(), want.to_bits(), "y = {:e}", y);
        prop_assert_eq!(round_f16(y as f64).to_bits(), (want as f64).to_bits(), "y = {:e}", y);
    }
}
