//! Exhaustive checks of binary16 emulated in binary32 arithmetic.
//!
//! FP16 GEMMs compute in `f32` and round onto the binary16 grid after each
//! operation with [`round_f16_f32`]. That is exact when (a) the rounding
//! itself matches a correctly-rounded f16 conversion on every f32 input,
//! and (b) each f32 operation followed by that rounding equals the f16
//! operation — products of two f16 values are exact in f32, and for the
//! difference Figueroa's rule (p' ≥ 2p + 2: 24 ≥ 2·11 + 2) rules out a
//! double-rounding error. Both are checked here over every input, against
//! the `half` shim's f64-routed arithmetic.
//!
//! Too slow for debug builds; run with
//! `cargo test --offline --release -p mixedp-fp --test f16_exhaustive -- --ignored`.

use half::f16;
use mixedp_fp::round_f16_f32;

/// Run `check(hi)` for every `hi` in `0..=u16::MAX`, split across two
/// threads; returns the first failure message, if any.
fn sweep(check: fn(u16) -> Result<(), String>) {
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

#[test]
#[ignore = "exhaustive over 2^32 inputs; run in release with --ignored"]
fn round_f16_f32_matches_encoder_on_every_f32() {
    sweep(|hi| {
        for lo in 0..=u16::MAX {
            let x = f32::from_bits((hi as u32) << 16 | lo as u32);
            let got = round_f16_f32(x).to_bits();
            let want = f16::from_f32(x).to_f32().to_bits();
            if got != want {
                return Err(format!(
                    "x = {x:e} ({:#010x}): {got:#010x} != {want:#010x}",
                    x.to_bits()
                ));
            }
        }
        Ok(())
    });
}

#[test]
#[ignore = "exhaustive over 2^32 operand pairs; run in release with --ignored"]
fn f32_ops_rounded_to_f16_match_f16_ops_on_every_pair() {
    sweep(|a_bits| {
        let a = f16::from_bits(a_bits);
        let af = a.to_f32();
        for b_bits in 0..=u16::MAX {
            let b = f16::from_bits(b_bits);
            let bf = b.to_f32();
            let sub = round_f16_f32(af - bf).to_bits();
            let mul = round_f16_f32(af * bf).to_bits();
            if sub != (a - b).to_f32().to_bits() || mul != (a * b).to_f32().to_bits() {
                return Err(format!("a = {a_bits:#06x}, b = {b_bits:#06x}"));
            }
        }
        Ok(())
    });
}
