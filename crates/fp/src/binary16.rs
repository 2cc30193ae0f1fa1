//! [`F16`]: an IEEE binary16 value in its 16-bit storage encoding.

use crate::round::{round_f16, round_f16_f32};

/// An IEEE 754 binary16 value held as its bit pattern: the element type of
/// F16 tiles, pure-FP16 compute images and fp16 wire payloads.
///
/// Encoding rounds once, to nearest even, with [`round_f16_f32`] or
/// [`round_f16`] (so there is one binary16 rounding in the crate) and then
/// reads the bits off the rounded value. Any NaN encodes as the quiet NaN
/// `0x7E00` with the input's sign. Equality is bitwise.
#[derive(Clone, Copy, Default, PartialEq)]
#[repr(transparent)]
pub struct F16(u16);

const SIGN: u16 = 0x8000;
const INF: u16 = 0x7C00;
const QUIET_NAN: u16 = 0x7E00;

impl F16 {
    pub const ZERO: Self = Self(0);

    /// The binary16 nearest to `x` (ties to even, overflow to ±∞).
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        Self::from_grid(round_f16_f32(x), (x.to_bits() >> 16) as u16 & SIGN)
    }

    /// The binary16 nearest to `x`, rounded in one step (never via f32).
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        // a value on the binary16 grid is exact in binary32
        Self::from_grid(round_f16(x) as f32, (x.to_bits() >> 48) as u16 & SIGN)
    }

    /// The bits of `r`, which is on the binary16 grid, ±∞ or NaN. The sign
    /// comes from the input, as the roundings return an unsigned NaN.
    #[inline(always)]
    fn from_grid(r: f32, sign: u16) -> Self {
        // × 2⁻¹¹² re-biases a normal's exponent from binary32's 127 to
        // binary16's 15 and turns a binary16 subnormal into a binary32
        // one; either way exactly, with 13 zero bits below the mantissa.
        let scale = f32::from_bits((127 - 112) << 23);
        let finite = ((r.abs() * scale).to_bits() >> 13) as u16;
        let mag = if r.is_infinite() { INF } else { finite };
        let mag = if r.is_nan() { QUIET_NAN } else { mag };
        Self(sign | mag)
    }

    /// The exact value, branch-free. The exponent and mantissa bits shifted
    /// into binary32 position read with bias 127 instead of 15; one exact
    /// multiply by 2¹¹² re-biases normals and lifts subnormals. The
    /// all-ones exponent maps to ±∞ or the canonical quiet NaN.
    #[inline]
    pub fn to_f32(self) -> f32 {
        let mag = self.0 & !SIGN;
        let rebias = f32::from_bits((127 + 112) << 23);
        let finite = f32::from_bits((mag as u32) << 13) * rebias;
        let abs = if mag == INF { f32::INFINITY } else { finite };
        if mag > INF {
            f32::NAN
        } else {
            f32::from_bits(abs.to_bits() | ((self.0 & SIGN) as u32) << 16)
        }
    }

    /// The exact value (every binary16 is exact in binary32, and so here).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
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
        self.0 & !SIGN > INF
    }

    #[inline]
    pub fn is_infinite(self) -> bool {
        self.0 & !SIGN == INF
    }
}

impl std::fmt::Debug for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}
