//! Exhaustive checks of the binary16 and bfloat16 roundings over every f32.
//!
//! FP16 GEMMs compute in `f32` and round onto the binary16 grid after each
//! operation with [`round_f16_f32`]. That is exact when (a) the rounding
//! itself matches a correctly-rounded f16 conversion on every f32 input,
//! and (b) each f32 operation followed by that rounding equals the f16
//! operation — products of two f16 values are exact in f32, and for the
//! difference Figueroa's rule (p' ≥ 2p + 2: 24 ≥ 2·11 + 2) rules out a
//! double-rounding error. Both are checked here over every input, against
//! the integer encoder of `oracle` applied to the exact f64 value. So are
//! the [`F16`] encoding (NaN sign included) and [`round_bf16`].
//!
//! Too slow for debug builds; run with
//! `cargo test --offline --release -p mixedp-fp --test f16_exhaustive -- --ignored`.

mod oracle;

use mixedp_fp::{round_bf16, round_f16_f32, F16};
use oracle::encode;

/// Run `check(hi)` for every `hi` in `0..=u16::MAX`, split across two
/// threads; panics with the first failure message, if any.
fn sweep(check: impl Fn(u16) -> Result<(), String> + Copy + Send + 'static) {
    let workers: Vec<_> = (0..2u32)
        .map(|w| {
            std::thread::spawn(move || {
                (0..=u16::MAX)
                    .filter(|hi| *hi as u32 % 2 == w)
                    .try_for_each(check)
            })
        })
        .collect();
    for h in workers {
        if let Err(msg) = h.join().expect("sweep worker panicked") {
            panic!("{msg}");
        }
    }
}

/// Run `check(x)` for every f32 `x`, as a [`sweep`] over its high halves.
fn sweep_f32(check: fn(f32) -> Result<(), String>) {
    sweep(move |hi| {
        (0..=u16::MAX).try_for_each(|lo| check(f32::from_bits((hi as u32) << 16 | lo as u32)))
    });
}

/// `Err` naming `x` and both bit patterns when `got != want`.
fn same(x: f32, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "x = {x:e} ({:#010x}): {got:#x} != {want:#x}",
            x.to_bits()
        ))
    }
}

#[test]
#[ignore = "exhaustive over 2^32 inputs; run in release with --ignored"]
fn round_f16_f32_matches_encoder_on_every_f32() {
    sweep_f32(|x| {
        let want = F16::from_bits(encode::<5, 10>(x as f64)).to_f32();
        same(x, round_f16_f32(x).to_bits() as u64, want.to_bits() as u64)
    });
}

#[test]
#[ignore = "exhaustive over 2^32 inputs; run in release with --ignored"]
fn f16_from_f32_matches_encoder_on_every_f32() {
    sweep_f32(|x| {
        let want = encode::<5, 10>(x as f64);
        same(x, F16::from_f32(x).to_bits() as u64, want as u64)
    });
}

#[test]
#[ignore = "exhaustive over 2^32 inputs; run in release with --ignored"]
fn round_bf16_matches_encoder_on_every_f32() {
    sweep_f32(|x| {
        // a bfloat16 code is the top half of the binary32 with its value
        // (any NaN widens to the canonical NaN)
        let code = encode::<8, 7>(x as f64);
        let want = f32::from_bits((code as u32) << 16);
        let want = if want.is_nan() { f64::NAN } else { want as f64 };
        same(x, round_bf16(x as f64).to_bits(), want.to_bits())
    });
}

#[test]
#[ignore = "exhaustive over 2^32 operand pairs; run in release with --ignored"]
fn f32_ops_rounded_to_f16_match_f16_ops_on_every_pair() {
    sweep(|a_bits| {
        let a = F16::from_bits(a_bits);
        let (af, a64) = (a.to_f32(), a.to_f64());
        for b_bits in 0..=u16::MAX {
            let b = F16::from_bits(b_bits);
            let (bf, b64) = (b.to_f32(), b.to_f64());
            // the binary16 operation: exact in f64, then rounded once
            let want = |v: f64| F16::from_bits(encode::<5, 10>(v)).to_f32().to_bits();
            let sub = round_f16_f32(af - bf).to_bits();
            let mul = round_f16_f32(af * bf).to_bits();
            if sub != want(a64 - b64) || mul != want(a64 * b64) {
                return Err(format!("a = {a_bits:#06x}, b = {b_bits:#06x}"));
            }
        }
        Ok(())
    });
}
