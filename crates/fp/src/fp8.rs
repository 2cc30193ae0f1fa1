//! FP8 emulation (extension beyond the paper's format set).
//!
//! The H100 the paper benchmarks also ships FP8 tensor cores (E4M3/E5M2,
//! ~2× the FP16 rate), the natural next rung of the precision ladder the
//! paper's conclusion points toward. This module provides bit-accurate
//! round-to-nearest-even quantization for both formats so the GEMM accuracy
//! study (Fig 1) and the adaptive framework can be extended one level
//! further down.
//!
//! * **E4M3**: 4 exponent bits (bias 7), 3 mantissa bits, max finite 448,
//!   no infinities (values beyond the range saturate, NVIDIA semantics).
//! * **E5M2**: 5 exponent bits (bias 15), 2 mantissa bits, max finite
//!   57344, overflow to ±∞.

/// Generic minifloat RNE quantization.
///
/// `man_bits` mantissa bits, exponent bias `bias`, largest finite value
/// `max_finite`; `saturate` selects overflow-to-max (E4M3) vs
/// overflow-to-∞ (E5M2). Subnormals flush gradually to zero exactly as the
/// format defines.
fn round_minifloat(x: f64, man_bits: i32, bias: i32, max_finite: f64, saturate: bool) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x == 0.0 {
        return x; // keeps signed zero
    }
    let sign = x.signum();
    let a = x.abs();
    // exponent of the binade containing |x| (clamped to the subnormal range)
    let e = (a.log2().floor() as i32).max(1 - bias);
    let q = (2.0f64).powi(e - man_bits);
    let r = (a / q).round_ties_even() * q;
    if r > max_finite {
        // Rounding may carry into the next binade; check against the limit.
        let halfway_to_next =
            max_finite + (2.0f64).powi((max_finite.log2().floor() as i32) - man_bits - 1);
        if a < halfway_to_next || saturate {
            return sign * max_finite;
        }
        return sign * f64::INFINITY;
    }
    sign * r
}

/// Round an `f64` through FP8 E4M3 (saturating).
pub fn round_e4m3(x: f64) -> f64 {
    round_minifloat(x, 3, 7, 448.0, true)
}

/// Round an `f64` through FP8 E5M2 (overflowing to ±∞).
pub fn round_e5m2(x: f64) -> f64 {
    round_minifloat(x, 2, 15, 57_344.0, false)
}

/// Unit roundoff of E4M3 (`2^-4`).
pub const E4M3_UNIT_ROUNDOFF: f64 = 0.0625;
/// Unit roundoff of E5M2 (`2^-3`).
pub const E5M2_UNIT_ROUNDOFF: f64 = 0.125;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4m3_grid_near_one() {
        // ulp at 1.0 is 2^-3 = 0.125
        assert_eq!(round_e4m3(1.0), 1.0);
        assert_eq!(round_e4m3(1.0625), 1.0); // halfway, ties to even
        assert_eq!(round_e4m3(1.07), 1.125);
        assert_eq!(round_e4m3(1.1875), 1.25); // halfway up to even
    }

    #[test]
    fn e4m3_saturates_at_448() {
        assert_eq!(round_e4m3(448.0), 448.0);
        assert_eq!(round_e4m3(1e6), 448.0);
        assert_eq!(round_e4m3(-1e6), -448.0);
        assert!(round_e4m3(448.0).is_finite());
    }

    #[test]
    fn e5m2_overflows_to_infinity() {
        assert_eq!(round_e5m2(57_344.0), 57_344.0);
        assert!(round_e5m2(1e9).is_infinite());
        assert!(round_e5m2(-1e9).is_infinite());
    }

    #[test]
    fn subnormal_flush_behaviour() {
        // E4M3 min normal = 2^-6; min subnormal = 2^-9
        let min_sub = (2.0f64).powi(-9);
        assert_eq!(round_e4m3(min_sub), min_sub);
        assert_eq!(round_e4m3(min_sub * 0.4), 0.0);
        assert_eq!(round_e4m3(min_sub * 0.6), min_sub);
    }

    #[test]
    fn idempotent_and_odd() {
        for &x in &[0.3, -2.7, 17.0, 0.004, 300.0] {
            let r = round_e4m3(x);
            assert_eq!(round_e4m3(r), r, "{x}");
            assert_eq!(round_e4m3(-x), -r, "{x}");
            let r5 = round_e5m2(x);
            assert_eq!(round_e5m2(r5), r5, "{x}");
        }
    }

    #[test]
    fn relative_error_bounded() {
        for i in 1..400 {
            let x = 0.01 * i as f64;
            let r3 = round_e4m3(x);
            assert!(((r3 - x) / x).abs() <= E4M3_UNIT_ROUNDOFF, "e4m3 {x}: {r3}");
            let r2 = round_e5m2(x);
            assert!(((r2 - x) / x).abs() <= E5M2_UNIT_ROUNDOFF, "e5m2 {x}: {r2}");
        }
    }

    #[test]
    fn nan_passthrough_and_zero() {
        assert!(round_e4m3(f64::NAN).is_nan());
        assert_eq!(round_e4m3(0.0), 0.0);
        assert_eq!(round_e5m2(-0.0), -0.0);
    }

    #[test]
    fn coarser_than_fp16() {
        // the FP8 grid is strictly coarser: values FP16 keeps exactly move
        let x = 1.0 + (2.0f64).powi(-7);
        assert_eq!(crate::round_f16(x), x);
        assert_ne!(round_e4m3(x), x);
    }
}
