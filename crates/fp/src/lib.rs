//! Floating-point precision formats and software rounding emulation.
//!
//! This crate defines the precision vocabulary used throughout the
//! mixed-precision Cholesky framework:
//!
//! * [`Precision`] — the *kernel* (operation) precision formats the paper
//!   considers on NVIDIA GPUs: FP64, FP32, TF32, BF16_32, FP16_32, FP16.
//! * [`StoragePrecision`] — the format a tile is materialized in. Because
//!   TRSM cannot execute in FP16 on NVIDIA hardware (paper §V), tiles whose
//!   kernels run in FP16/FP16_32/TF32 are *stored* in FP32.
//! * [`CommPrecision`] — the wire format of a communication payload
//!   (FP64 / FP32 / FP16), the domain over which Algorithm 2 of the paper
//!   computes its `comm_precision` map.
//! * Rounding emulation ([`round`]) — bit-accurate round-to-nearest-even
//!   quantization of `f64` values through each format, which is what makes
//!   the accuracy experiments (paper Figs 1, 5, 6) genuine computations
//!   rather than simulations.
//! * [`F16`] — the binary16 storage encoding of FP16 tiles and payloads,
//!   built on the same rounding.

mod binary16;
pub mod convert;
pub mod format;
pub mod fp8;
pub mod lattice;
pub mod round;

pub use binary16::F16;
pub use convert::{convert_cost_bytes, quantize_slice, quantize_slice_in_place};
pub use format::{CommPrecision, Precision, StoragePrecision};
pub use fp8::{round_e4m3, round_e5m2};
pub use lattice::{comm_of_storage, comm_requirement, escalate, higher_comm, storage_precision_of};
pub use round::{
    quantize, round_bf16, round_f16, round_f16_f32, round_f32, round_tf32, round_tf32_f32,
};

#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

/// The binary16 codec ([`F16`], [`round_bf16`]); the integer reference
/// codec of `tests/oracle` decodes every code.
#[cfg(test)]
mod tests {
    use super::{round_bf16, F16};
    use crate::oracle::decode;

    #[test]
    fn widen_matches_decode_on_every_code() {
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            let want = decode::<5, 10>(bits);
            assert_eq!(h.to_f64().to_bits(), want.to_bits(), "{bits:#06x}");
            assert_eq!(h.to_f32().to_bits(), (want as f32).to_bits(), "{bits:#06x}");
            assert_eq!(h.is_nan(), want.is_nan(), "{bits:#06x}");
            assert_eq!(h.is_infinite(), want.is_infinite(), "{bits:#06x}");
        }
    }

    #[test]
    fn f16_known_values() {
        assert_eq!(F16::from_f64(0.0).to_bits(), 0);
        assert_eq!(F16::ZERO.to_bits(), 0);
        assert_eq!(F16::from_f64(1.0).to_bits(), 0x3C00);
        assert_eq!(F16::from_f64(-2.0).to_bits(), 0xC000);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(F16::from_f64(65504.0).to_f64(), 65504.0);
        assert!(F16::from_f64(70000.0).is_infinite());
        assert_eq!(F16::from_f32(-70000.0).to_bits(), 0xFC00);
        // 1/3 → 0x3555 → 0.333251953125
        assert_eq!(F16::from_f64(1.0 / 3.0).to_bits(), 0x3555);
        assert_eq!(F16::from_f32(1.0 / 3.0).to_bits(), 0x3555);
        assert_eq!(F16::from_f64(1.0 / 3.0).to_f64(), 0.333251953125);
    }

    #[test]
    fn f16_subnormals_and_underflow() {
        let min_sub = (2.0f64).powi(-24);
        assert_eq!(F16::from_f64(min_sub).to_bits(), 0x0001);
        assert_eq!(F16::from_f64(min_sub).to_f64(), min_sub);
        // Exactly half the min subnormal ties to even → zero.
        assert_eq!(F16::from_f64(min_sub / 2.0).to_f64(), 0.0);
        assert_eq!(F16::from_f64(-min_sub / 2.0).to_bits(), 0x8000);
        // Just above half rounds up to the min subnormal.
        assert_eq!(F16::from_f64(min_sub * 0.5000001).to_f64(), min_sub);
        assert_eq!(F16::from_f32((min_sub * 0.5000001) as f32).to_bits(), 1);
        // Largest subnormal.
        let max_sub = (2.0f64).powi(-14) - (2.0f64).powi(-24);
        assert_eq!(F16::from_f64(max_sub).to_bits(), 0x03FF);
        assert_eq!(F16::from_f64(max_sub).to_f64(), max_sub);
        // Smallest normal.
        assert_eq!(F16::from_f64((2.0f64).powi(-14)).to_bits(), 0x0400);
    }

    #[test]
    fn f16_ties_to_even() {
        // ulp(2048) = 2: 2049 is exactly halfway, rounds to even 2048.
        assert_eq!(F16::from_f64(2049.0).to_f64(), 2048.0);
        assert_eq!(F16::from_f64(2051.0).to_f64(), 2052.0);
        assert_eq!(F16::from_f32(2051.0).to_f64(), 2052.0);
        assert_eq!(F16::from_f64(2049.5).to_f64(), 2050.0);
        // 65520 is halfway between 65504 and the overflow threshold
        assert!(F16::from_f64(65520.0).is_infinite());
        assert_eq!(F16::from_f64(65519.99).to_f64(), 65504.0);
    }

    #[test]
    fn f16_no_double_rounding_from_f64() {
        // 1 + 2^-11 + 2^-25 rounds up in a direct f64→f16 conversion, but an
        // intermediate f32 step would first strip the 2^-25 and then tie to
        // even at 1.0. Detects the classic double-rounding bug.
        let x = 1.0 + (2.0f64).powi(-11) + (2.0f64).powi(-25);
        assert_eq!(F16::from_f64(x).to_f64(), 1.0 + (2.0f64).powi(-10));
        assert_eq!(F16::from_f32(x as f32).to_f64(), 1.0);
    }

    #[test]
    fn bf16_known_values() {
        assert_eq!(round_bf16(1.0), 1.0);
        assert_eq!(round_bf16(1.01), 1.0078125);
        assert!(round_bf16(1e38).is_finite());
        assert!(round_bf16(4e38).is_infinite());
        assert_eq!(round_bf16(-4e38), f64::NEG_INFINITY);
        assert_eq!(round_bf16(1.5), 1.5);
        // ties to even at 1 + 2^-8, halfway between 1 and 1 + 2^-7
        assert_eq!(round_bf16(1.0 + (2.0f64).powi(-8)), 1.0);
        assert_eq!(
            round_bf16(1.0 + 3.0 * (2.0f64).powi(-8)),
            1.0 + (2.0f64).powi(-6)
        );
        // smallest subnormal 2^-133; half of it ties to zero
        let min_sub = (2.0f64).powi(-133);
        assert_eq!(round_bf16(min_sub * 0.75), min_sub);
        assert_eq!(round_bf16(-min_sub / 2.0).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn roundtrip_is_idempotent_and_monotone() {
        let mut prev = f64::NEG_INFINITY;
        let mut x = -70000.0;
        while x < 70000.0 {
            let r = F16::from_f64(x).to_f64();
            assert_eq!(F16::from_f64(r).to_f64(), r, "idempotent at {x}");
            assert_eq!(F16::from_f32(r as f32).to_f64(), r, "idempotent at {x}");
            assert!(r >= prev, "monotone at {x}: {r} < {prev}");
            prev = r;
            x += 173.7;
        }
    }

    #[test]
    fn nan_and_neg() {
        assert!(F16::from_f64(f64::NAN).is_nan());
        assert_eq!(F16::from_f64(f64::NAN).to_bits(), 0x7E00);
        // a NaN keeps the input's sign, as the integer encoder does
        assert_eq!(F16::from_f64(-f64::NAN).to_bits(), 0xFE00);
        assert_eq!(F16::from_f32(-f32::NAN).to_bits(), 0xFE00);
        assert!(F16::from_bits(0xFE00).to_f32().is_nan());
        assert!(round_bf16(f64::NAN).is_nan());
        assert_eq!(F16::from_f64(-1.5).to_f64(), -1.5);
        assert_eq!(
            F16::from_f64(-1.5).to_bits(),
            F16::from_f64(1.5).to_bits() | 0x8000
        );
    }

    #[test]
    fn f16_arithmetic_rounds_per_op() {
        // an FP16 operation is the f64 operation on the operands, rounded
        // once: exact in f64 before that rounding
        let op = |a: f64, b: f64, f: fn(f64, f64) -> f64| {
            F16::from_f64(f(F16::from_f64(a).to_f64(), F16::from_f64(b).to_f64())).to_f64()
        };
        assert_eq!(op(2048.0, 1.0, |a, b| a + b), 2048.0); // ties to even
        assert_eq!(op(3.0, 0.5, |a, b| a * b), 1.5);
        assert_eq!(op(2048.0, 3.0, |a, b| a + b), 2052.0); // ties to even
    }
}
