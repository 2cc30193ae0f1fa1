//! Bit-exact software `f16` (IEEE binary16) and `bf16` (bfloat16) storage
//! types, standing in for the `half` crate in this offline workspace.
//!
//! Conversions from `f64` perform a single round-to-nearest-even directly
//! to the target format (no intermediate `f32` step, which would double
//! round), with gradual underflow to subnormals and overflow to ±∞ —
//! matching both IEEE 754 and the hardware convert instructions the
//! precision experiments model. Arithmetic on `f16` routes through `f64`:
//! products and sums of binary16 values are exact in binary64, so the
//! single rounding back to binary16 gives correctly-rounded results.
//! Reads widen bit-level to `f32` (every value of both formats is exact in
//! binary32) with no branches on the value, so decode loops vectorize.

/// Round-to-nearest-even encode of a finite/inf/NaN `f64` into a small
/// binary float with `E` exponent bits and `M` mantissa bits (E + M ≤ 15).
#[inline]
fn encode<const E: u32, const M: u32>(x: f64) -> u16 {
    let bits = x.to_bits();
    let sign = (((bits >> 63) as u16) & 1) << (E + M);
    let exp = ((bits >> 52) & 0x7FF) as i64;
    let man = bits & ((1u64 << 52) - 1);
    let max_exp_field: u64 = (1u64 << E) - 1;
    let inf: u16 = sign | ((max_exp_field as u16) << M);
    if exp == 0x7FF {
        return if man == 0 {
            inf
        } else {
            // Any NaN maps to a quiet NaN of the target format.
            inf | (1u16 << (M - 1))
        };
    }
    if exp == 0 {
        // f64 zeros and subnormals: magnitude < 2^-1022, below half the
        // smallest target subnormal for every format we instantiate.
        return sign;
    }
    let bias_t: i64 = (1i64 << (E - 1)) - 1;
    let emin_t: i64 = 1 - bias_t;
    let e = exp - 1023;
    let et = e.max(emin_t);
    // Bits of the 53-bit significand dropped by the narrowing (≥ 52 − M;
    // larger when the result is subnormal in the target).
    let shift = (52 - M as i64) + (et - e);
    if shift >= 64 {
        return sign; // underflows to zero regardless of rounding
    }
    let shift = shift as u32;
    let sig = (1u64 << 52) | man;
    let mut kept = sig >> shift;
    let rem = sig & ((1u64 << shift) - 1);
    let half = 1u64 << (shift - 1);
    if rem > half || (rem == half && kept & 1 == 1) {
        kept += 1;
    }
    // Hidden bit of `kept` lands in the exponent field, hence the −1; a
    // carry out of rounding bumps the exponent naturally, and a subnormal
    // result (et = emin_t, kept < 2^M) yields exponent field 0.
    let code = (((et + bias_t - 1) as u64) << M) + kept;
    if code >= max_exp_field << M {
        return inf;
    }
    sign | code as u16
}

/// Exact widen of an `E`/`M` binary float into `f32`, branch-free.
///
/// The exponent/mantissa bits are shifted into binary32 position, which
/// reads them with f32's bias (127) instead of the format's; one exact
/// multiply by `2^(127 − bias)` re-biases normals and lifts subnormals
/// (f32 subnormals widen to the normals they denote — no DAZ in Rust).
/// The all-ones exponent field maps to ±∞ or the canonical quiet NaN.
#[inline]
fn widen<const E: u32, const M: u32>(bits: u16) -> f32 {
    let bits = bits as u32;
    let sign = (bits >> (E + M)) << 31;
    let mag = bits & ((1u32 << (E + M)) - 1);
    let inf = ((1u32 << E) - 1) << M;
    let bias = (1u32 << (E - 1)) - 1;
    let rebias = f32::from_bits((254 - bias) << 23);
    let finite = f32::from_bits(mag << (23 - M)) * rebias;
    let abs = if mag == inf { f32::INFINITY } else { finite };
    if mag > inf {
        f32::NAN
    } else {
        f32::from_bits(abs.to_bits() | sign)
    }
}

macro_rules! half_type {
    ($(#[$doc:meta])* $name:ident, $e:expr, $m:expr) => {
        $(#[$doc])*
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy, Default, PartialEq, PartialOrd)]
        #[repr(transparent)]
        pub struct $name(u16);

        impl $name {
            pub const ZERO: Self = Self(0);
            pub const ONE: Self = Self(((1u16 << ($e - 1)) - 1) << $m);
            const SIGN: u16 = 1u16 << ($e + $m);
            const INF_BITS: u16 = ((1u16 << $e) - 1) << $m;

            #[inline]
            pub fn from_f64(x: f64) -> Self {
                Self(encode::<$e, $m>(x))
            }

            #[inline]
            pub fn from_f32(x: f32) -> Self {
                // f32 → f64 is exact, so this is a single rounding.
                Self(encode::<$e, $m>(x as f64))
            }

            #[inline]
            pub fn to_f64(self) -> f64 {
                // f32 → f64 is exact, so this is the exact value too.
                self.to_f32() as f64
            }

            #[inline]
            pub fn to_f32(self) -> f32 {
                // Every value of this format is exactly representable in f32.
                widen::<$e, $m>(self.0)
            }

            #[inline]
            pub fn from_bits(bits: u16) -> Self {
                Self(bits)
            }

            #[inline]
            pub fn to_bits(self) -> u16 {
                self.0
            }

            #[inline]
            pub fn is_nan(self) -> bool {
                self.0 & !Self::SIGN > Self::INF_BITS
            }

            #[inline]
            pub fn is_infinite(self) -> bool {
                self.0 & !Self::SIGN == Self::INF_BITS
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}", self.to_f64())
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}", self.to_f64())
            }
        }

        // Arithmetic through f64 is exact before the single final rounding
        // (significand products/sums of this format fit in binary64).
        impl std::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self::from_f64(self.to_f64() + rhs.to_f64())
            }
        }

        impl std::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self::from_f64(self.to_f64() - rhs.to_f64())
            }
        }

        impl std::ops::Mul for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                Self::from_f64(self.to_f64() * rhs.to_f64())
            }
        }

        impl std::ops::Div for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: Self) -> Self {
                Self::from_f64(self.to_f64() / rhs.to_f64())
            }
        }

        impl std::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(self.0 ^ Self::SIGN)
            }
        }
    };
}

half_type!(
    /// IEEE 754 binary16: 5 exponent bits, 10 mantissa bits.
    f16, 5, 10
);
half_type!(
    /// bfloat16: 8 exponent bits, 7 mantissa bits (f32's exponent range).
    bf16, 8, 7
);

#[cfg(test)]
mod tests {
    use super::*;

    /// The original `powi`-based decode, kept as the oracle of the
    /// branch-free [`widen`].
    fn decode<const E: u32, const M: u32>(bits: u16) -> f64 {
        let sign = if bits >> (E + M) & 1 == 1 { -1.0 } else { 1.0 };
        let exp_field = (bits >> M) as i64 & ((1i64 << E) - 1);
        let man = (bits & ((1u16 << M) - 1)) as f64;
        let bias_t: i64 = (1i64 << (E - 1)) - 1;
        let max_exp_field: i64 = (1i64 << E) - 1;
        if exp_field == max_exp_field {
            return if man == 0.0 {
                sign * f64::INFINITY
            } else {
                f64::NAN
            };
        }
        let scale = (2.0f64).powi(-(M as i32));
        if exp_field == 0 {
            // Subnormal: 0.man × 2^emin
            sign * man * scale * (2.0f64).powi((1 - bias_t) as i32)
        } else {
            sign * (1.0 + man * scale) * (2.0f64).powi((exp_field - bias_t) as i32)
        }
    }

    #[test]
    fn widen_matches_decode_on_every_code() {
        for bits in 0..=u16::MAX {
            let (h, b) = (f16::from_bits(bits), bf16::from_bits(bits));
            let want = decode::<5, 10>(bits);
            assert_eq!(h.to_f64().to_bits(), want.to_bits(), "f16 {bits:#06x}");
            assert_eq!(
                h.to_f32().to_bits(),
                (want as f32).to_bits(),
                "f16 {bits:#06x}"
            );
            assert_eq!(h.is_nan(), want.is_nan(), "f16 {bits:#06x}");
            assert_eq!(h.is_infinite(), want.is_infinite(), "f16 {bits:#06x}");
            let want = decode::<8, 7>(bits);
            assert_eq!(b.to_f64().to_bits(), want.to_bits(), "bf16 {bits:#06x}");
            assert_eq!(
                b.to_f32().to_bits(),
                (want as f32).to_bits(),
                "bf16 {bits:#06x}"
            );
            assert_eq!(b.is_nan(), want.is_nan(), "bf16 {bits:#06x}");
            assert_eq!(b.is_infinite(), want.is_infinite(), "bf16 {bits:#06x}");
        }
    }

    #[test]
    fn f16_known_values() {
        assert_eq!(f16::from_f64(0.0).to_bits(), 0);
        assert_eq!(f16::from_f64(1.0).to_bits(), 0x3C00);
        assert_eq!(f16::ONE.to_bits(), 0x3C00);
        assert_eq!(f16::from_f64(-2.0).to_bits(), 0xC000);
        assert_eq!(f16::from_f64(65504.0).to_f64(), 65504.0);
        assert!(f16::from_f64(70000.0).to_f64().is_infinite());
        // 1/3 → 0x3555 → 0.333251953125
        assert_eq!(f16::from_f64(1.0 / 3.0).to_bits(), 0x3555);
        assert_eq!(f16::from_f64(1.0 / 3.0).to_f64(), 0.333251953125);
    }

    #[test]
    fn f16_subnormals_and_underflow() {
        let min_sub = (2.0f64).powi(-24);
        assert_eq!(f16::from_f64(min_sub).to_f64(), min_sub);
        // Exactly half the min subnormal ties to even → zero.
        assert_eq!(f16::from_f64(min_sub / 2.0).to_f64(), 0.0);
        // Just above half rounds up to the min subnormal.
        assert_eq!(f16::from_f64(min_sub * 0.5000001).to_f64(), min_sub);
        // Largest subnormal.
        let max_sub = (2.0f64).powi(-14) - (2.0f64).powi(-24);
        assert_eq!(f16::from_f64(max_sub).to_f64(), max_sub);
        // Smallest normal.
        assert_eq!(f16::from_f64((2.0f64).powi(-14)).to_bits(), 0x0400);
    }

    #[test]
    fn f16_ties_to_even() {
        // ulp(2048) = 2: 2049 is exactly halfway, rounds to even 2048.
        assert_eq!(f16::from_f64(2049.0).to_f64(), 2048.0);
        assert_eq!(f16::from_f64(2051.0).to_f64(), 2052.0);
        assert_eq!(f16::from_f64(2049.5).to_f64(), 2050.0);
    }

    #[test]
    fn f16_no_double_rounding_from_f64() {
        // 1 + 2^-11 + 2^-25 rounds up in a direct f64→f16 conversion, but an
        // intermediate f32 step would first strip the 2^-25 and then tie to
        // even at 1.0. Detects the classic double-rounding bug.
        let x = 1.0 + (2.0f64).powi(-11) + (2.0f64).powi(-25);
        assert_eq!(f16::from_f64(x).to_f64(), 1.0 + (2.0f64).powi(-10));
    }

    #[test]
    fn bf16_known_values() {
        assert_eq!(bf16::from_f64(1.0).to_f64(), 1.0);
        assert_eq!(bf16::from_f64(1.01).to_f64(), 1.0078125);
        assert!(bf16::from_f64(1e38).to_f64().is_finite());
        assert!(bf16::from_f64(4e38).to_f64().is_infinite());
        // bf16 is f32 truncated to 7 mantissa bits + RNE.
        let x = 1.5f64;
        assert_eq!(bf16::from_f64(x).to_f64(), x);
    }

    #[test]
    fn roundtrip_is_idempotent_and_monotone() {
        let mut prev = f64::NEG_INFINITY;
        let mut x = -70000.0;
        while x < 70000.0 {
            let r = f16::from_f64(x).to_f64();
            assert_eq!(f16::from_f64(r).to_f64(), r, "idempotent at {x}");
            assert!(r >= prev, "monotone at {x}: {r} < {prev}");
            prev = r;
            x += 173.7;
        }
    }

    #[test]
    fn nan_and_neg() {
        assert!(f16::from_f64(f64::NAN).is_nan());
        assert!(bf16::from_f64(f64::NAN).is_nan());
        assert_eq!((-f16::from_f64(1.5)).to_f64(), -1.5);
    }

    #[test]
    fn f16_arithmetic_rounds_per_op() {
        let a = f16::from_f64(2048.0);
        let b = f16::from_f64(1.0);
        assert_eq!((a + b).to_f64(), 2048.0); // below half-ulp, ties to even
        let c = f16::from_f64(3.0) * f16::from_f64(0.5);
        assert_eq!(c.to_f64(), 1.5);
    }
}
