//! Bit-accurate rounding of `f64` values through each precision format.
//!
//! These routines are the foundation of the numerical-mode experiments: a
//! value "stored in FP16" is a genuine IEEE binary16 value (via the `half`
//! crate), a "TF32 input" genuinely has a 10-bit mantissa, and so on. All
//! roundings are round-to-nearest-even, matching NVIDIA conversion
//! instructions.

use crate::format::Precision;
use half::bf16;

/// Round an `f64` through IEEE binary32.
#[inline]
pub fn round_f32(x: f64) -> f64 {
    x as f32 as f64
}

/// Round an `f64` through IEEE binary16 (round-to-nearest-even, with
/// overflow to ±∞ and gradual underflow, exactly as the format defines).
///
/// One rounding straight from binary64 — never via binary32, which would
/// round twice. Branch-free: normal results round the 42 dropped mantissa
/// bits in the integer domain (a carry into the exponent is the correct
/// RNE step up a binade); below 2⁻¹⁴ the addition `|x| + 2²⁸`, whose ulp
/// is the binary16 subnormal spacing 2⁻²⁴, performs the RNE in the FPU.
/// NaN maps to the canonical quiet NaN, as `f16::from_f64(x).to_f64()`.
#[inline(always)]
pub fn round_f16(x: f64) -> f64 {
    const DROP: u32 = 52 - 10;
    const MIN_NORMAL: u64 = (1023 - 14) << 52; // 2^-14
    const MAX_FINITE: u64 = 0x40EF_FC00_0000_0000; // 65504
    const INF: u64 = 0x7FF0_0000_0000_0000;
    const SUB_SHIFT: f64 = (1u64 << 28) as f64;
    let bits = x.to_bits();
    let sign = bits & (1 << 63);
    let abs = bits & !(1 << 63);
    let lsb = (abs >> DROP) & 1;
    let normal = (abs + ((1 << (DROP - 1)) - 1) + lsb) & !((1 << DROP) - 1);
    let subnormal = ((f64::from_bits(abs) + SUB_SHIFT) - SUB_SHIFT).to_bits();
    let r = if abs < MIN_NORMAL { subnormal } else { normal };
    let r = if r > MAX_FINITE { INF } else { r };
    if abs > INF {
        f64::NAN
    } else {
        f64::from_bits(r | sign)
    }
}

/// Round an `f32` onto the binary16 grid (result stays in `f32`): the
/// per-operation rounding of FP16 emulated in binary32 arithmetic.
///
/// Same scheme as [`round_f16`] on 13 dropped bits, with `|x| + 0.5`
/// (ulp 2⁻²⁴) for the subnormal range. Bit-identical to
/// `f16::from_f32(x).to_f32()` on all 2³² inputs (checked exhaustively by
/// an ignored release test), with no branch on the value so loops over it
/// vectorize.
#[inline(always)]
pub fn round_f16_f32(x: f32) -> f32 {
    const DROP: u32 = 23 - 10;
    const MIN_NORMAL: u32 = (127 - 14) << 23; // 2^-14
    const MAX_FINITE: u32 = 0x477F_E000; // 65504
    const INF: u32 = 0x7F80_0000;
    let bits = x.to_bits();
    let sign = bits & (1 << 31);
    let abs = bits & !(1 << 31);
    let lsb = (abs >> DROP) & 1;
    let normal = (abs + ((1 << (DROP - 1)) - 1) + lsb) & !((1 << DROP) - 1);
    let subnormal = ((f32::from_bits(abs) + 0.5) - 0.5).to_bits();
    let r = if abs < MIN_NORMAL { subnormal } else { normal };
    let r = if r > MAX_FINITE { INF } else { r };
    if abs > INF {
        f32::NAN
    } else {
        f32::from_bits(r | sign)
    }
}

/// Round an `f64` through bfloat16.
#[inline]
pub fn round_bf16(x: f64) -> f64 {
    bf16::from_f64(x).to_f64()
}

/// Round an `f32` to the TensorFloat-32 grid: same exponent range as
/// binary32 but a 10-bit mantissa, round-to-nearest-even.
#[inline]
pub fn round_tf32_f32(x: f32) -> f32 {
    let bits = x.to_bits();
    let exp = (bits >> 23) & 0xFF;
    if exp == 0xFF {
        // Inf / NaN pass through unchanged.
        return x;
    }
    const DROP: u32 = 13; // 23 - 10 mantissa bits
    let rem = bits & ((1u32 << DROP) - 1);
    let halfway = 1u32 << (DROP - 1);
    let mut kept = bits >> DROP;
    if rem > halfway || (rem == halfway && kept & 1 == 1) {
        // Carrying into the exponent field is the correct RNE behaviour
        // (rounds up to the next binade, or to infinity at the top).
        kept += 1;
    }
    f32::from_bits(kept << DROP)
}

/// Round an `f64` through TF32 (via binary32 first, as the hardware does).
#[inline]
pub fn round_tf32(x: f64) -> f64 {
    round_tf32_f32(x as f32) as f64
}

/// Quantize a value through the *input representation* of `p`.
///
/// This is the rounding a GEMM in mode `p` applies to its A/B operands.
///
/// ```
/// use mixedp_fp::{quantize, Precision};
/// let x = 1.0 / 3.0;
/// assert_eq!(quantize(Precision::Fp64, x), x);
/// // FP16 keeps ~3 decimal digits
/// assert!((quantize(Precision::Fp16, x) - x).abs() < 2e-4);
/// ```
#[inline]
pub fn quantize(p: Precision, x: f64) -> f64 {
    match p {
        Precision::Fp64 => x,
        Precision::Fp32 => round_f32(x),
        Precision::Tf32 => round_tf32(x),
        Precision::Fp16x32 | Precision::Fp16 => round_f16(x),
        Precision::Bf16x32 => round_bf16(x),
    }
}

/// Emulated FP16 addition: both operands are binary16 values (as `f64`),
/// and the result is rounded back to binary16 — the semantics of a pure
/// FP16-accumulate tensor-core GEMM.
#[inline]
pub fn add_f16(a: f64, b: f64) -> f64 {
    round_f16(a + b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_rounding_is_idempotent() {
        let x = 0.1f64;
        let r = round_f32(x);
        assert_ne!(x, r);
        assert_eq!(round_f32(r), r);
    }

    #[test]
    fn f16_rounding_known_values() {
        // 1/3 in binary16 is 0.33325195
        let r = round_f16(1.0 / 3.0);
        assert!((r - 0.33325195).abs() < 1e-7, "got {r}");
        // Exactly representable values survive.
        assert_eq!(round_f16(0.5), 0.5);
        assert_eq!(round_f16(1024.0), 1024.0);
        // Overflow to infinity above 65504.
        assert!(round_f16(70000.0).is_infinite());
    }

    #[test]
    fn bf16_rounding_known_values() {
        assert_eq!(round_bf16(1.0), 1.0);
        // bf16 has ~3 decimal digits: 1.01 rounds to 1.0078125
        let r = round_bf16(1.01);
        assert!((r - 1.0078125).abs() < 1e-9, "got {r}");
        // bf16 shares f32's exponent range: no overflow at 1e38.
        assert!(round_bf16(1e38).is_finite());
    }

    #[test]
    fn tf32_mantissa_is_10_bits() {
        // 1 + 2^-10 is representable in TF32; 1 + 2^-11 rounds to even (1.0).
        let ulp = (2.0f64).powi(-10);
        assert_eq!(round_tf32(1.0 + ulp), 1.0 + ulp);
        assert_eq!(round_tf32(1.0 + ulp / 2.0), 1.0);
        // just above halfway rounds up
        assert_eq!(round_tf32(1.0 + ulp / 2.0 + ulp / 64.0), 1.0 + ulp);
    }

    #[test]
    fn tf32_keeps_f32_exponent_range() {
        assert!(round_tf32(1e38).is_finite());
        assert!(round_tf32(1e-38).abs() > 0.0);
    }

    #[test]
    fn tf32_passes_through_inf_nan() {
        assert!(round_tf32(f64::INFINITY).is_infinite());
        assert!(round_tf32(f64::NAN).is_nan());
    }

    #[test]
    fn quantize_dispatches() {
        let x = std::f64::consts::PI;
        assert_eq!(quantize(Precision::Fp64, x), x);
        assert_eq!(quantize(Precision::Fp32, x), round_f32(x));
        assert_eq!(quantize(Precision::Fp16, x), round_f16(x));
        assert_eq!(quantize(Precision::Fp16x32, x), round_f16(x));
        assert_eq!(quantize(Precision::Bf16x32, x), round_bf16(x));
        assert_eq!(quantize(Precision::Tf32, x), round_tf32(x));
    }

    #[test]
    fn rounding_error_bounded_by_unit_roundoff() {
        for p in Precision::ALL {
            for &x in &[1.0, -0.37, 123.456, 1e-3, 0.9999] {
                let r = quantize(p, x);
                let rel = ((r - x) / x).abs();
                assert!(
                    rel <= p.unit_roundoff(),
                    "{p}: |{r} - {x}|/|x| = {rel:e} > u = {:e}",
                    p.unit_roundoff()
                );
            }
        }
    }

    #[test]
    fn fp16_accumulation_ops() {
        // 2048 + 1 in fp16: 1 is below half of fp16 ulp at 2048 (ulp = 2) -> stays?
        // ulp(2048) = 2, halfway = 1, ties-to-even keeps 2048.
        assert_eq!(add_f16(2048.0, 1.0), 2048.0);
        assert_eq!(add_f16(2048.0, 1.5), 2050.0);
    }
}
