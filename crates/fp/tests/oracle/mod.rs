//! Integer reference codec for small binary floats, the oracle of the
//! branch-free roundings and of `F16`. Shared by the crate's unit tests and
//! its integration tests; each uses only part of it.
#![allow(dead_code)]

/// Round-to-nearest-even encode of an `f64` into a binary float with `E`
/// exponent bits and `M` mantissa bits (E + M ≤ 15), with gradual
/// underflow, overflow to ±∞ and any NaN to the quiet NaN of the input's
/// sign. One rounding straight from binary64, decided on the integers.
pub fn encode<const E: u32, const M: u32>(x: f64) -> u16 {
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
            inf | (1u16 << (M - 1))
        };
    }
    if exp == 0 {
        // f64 zeros and subnormals: magnitude < 2^-1022, below half the
        // smallest target subnormal for every format instantiated here.
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

/// The value of an `E`/`M` code, by the textbook formula (`powi`); any NaN
/// decodes to the canonical `f64::NAN`.
pub fn decode<const E: u32, const M: u32>(bits: u16) -> f64 {
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
