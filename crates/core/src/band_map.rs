//! The band-based precision baseline (paper §II-B, refs \[12\]\[13\]).
//!
//! Before the norm-adaptive rule, mixed-precision geostatistics assigned
//! precision by *tile distance from the diagonal*: a band of FP64 tiles,
//! a band of FP32, everything farther in half precision — exploiting the
//! same correlation-decay structure but blind to the actual data. This
//! module implements that baseline so the adaptive rule can be compared
//! against it (the `band_vs_adaptive` ablation): at matched storage cost
//! the adaptive map yields a more accurate factorization, because it
//! spends precision where the norms actually are.

use crate::precision_map::PrecisionMap;
use mixedp_fp::Precision;

/// Build a band-based map: tiles with `|i − j| ≤ fp64_band` run FP64, then
/// FP32 out to `fp32_band`, then FP16_32 out to `fp16x32_band`, then FP16.
/// (`fp64_band = 0` keeps only the diagonal in FP64, as the adaptive rule
/// does.)
///
/// ```
/// use mixedp_core::banded_map;
/// use mixedp_fp::Precision;
/// let m = banded_map(8, 0, 2, 4);
/// assert_eq!(m.kernel(0, 0), Precision::Fp64);
/// assert_eq!(m.kernel(2, 0), Precision::Fp32);
/// assert_eq!(m.kernel(7, 0), Precision::Fp16);
/// ```
pub fn banded_map(
    nt: usize,
    fp64_band: usize,
    fp32_band: usize,
    fp16x32_band: usize,
) -> PrecisionMap {
    assert!(fp64_band <= fp32_band && fp32_band <= fp16x32_band);
    PrecisionMap::from_fn(nt, |i, j| {
        let d = i - j; // lower triangle: i ≥ j
        if d <= fp64_band {
            Precision::Fp64
        } else if d <= fp32_band {
            Precision::Fp32
        } else if d <= fp16x32_band {
            Precision::Fp16x32
        } else {
            Precision::Fp16
        }
    })
}

/// Find the band map whose storage footprint best matches (without
/// exceeding, when possible) the storage of `target` — the matched-cost
/// comparison used by the ablation. Bands keep the FP64:FP32:FP16_32
/// proportions of a fixed ladder while scaling outward.
pub fn banded_map_matching_storage(nt: usize, nb: usize, target: &PrecisionMap) -> PrecisionMap {
    let (want, _) = target.storage_bytes(nb);
    let mut best: Option<(u64, PrecisionMap)> = None;
    // enumerate ladders b64 ≤ b32 ≤ b16h with small strides — NT is small
    // enough that an exhaustive scan over ~NT³/6 ladders would be fine, but
    // a coarse scan suffices for matching.
    for b64 in 0..nt {
        for b32 in b64..nt {
            for b16h in b32..nt {
                let m = banded_map(nt, b64, b32, b16h);
                let (bytes, _) = m.storage_bytes(nb);
                let gap = bytes.abs_diff(want);
                if best.as_ref().map(|(g, _)| gap < *g).unwrap_or(true) {
                    best = Some((gap, m));
                }
            }
            if nt > 24 {
                break; // coarse scan for large NT
            }
        }
    }
    best.unwrap().1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factorize::{factorize, FactorOptions};
    use crate::precision_map::PrecisionMap;
    use mixedp_fp::StoragePrecision;
    use mixedp_kernels::reconstruction_error;
    use mixedp_tile::{tile_fro_norms, SymmTileMatrix};

    #[test]
    fn band_structure() {
        let m = banded_map(6, 0, 1, 3);
        assert_eq!(m.kernel(0, 0), Precision::Fp64);
        assert_eq!(m.kernel(1, 0), Precision::Fp32);
        assert_eq!(m.kernel(3, 1), Precision::Fp16x32);
        assert_eq!(m.kernel(5, 0), Precision::Fp16);
        // diagonal always FP64 regardless of bands
        let m2 = banded_map(4, 0, 0, 0);
        for k in 0..4 {
            assert_eq!(m2.kernel(k, k), Precision::Fp64);
        }
    }

    #[test]
    fn storage_matching_close() {
        let nt = 10;
        let nb = 32;
        let target = PrecisionMap::from_fn(nt, |i, j| {
            if i - j <= 1 {
                Precision::Fp64
            } else {
                Precision::Fp16
            }
        });
        let band = banded_map_matching_storage(nt, nb, &target);
        let (a, _) = target.storage_bytes(nb);
        let (b, _) = band.storage_bytes(nb);
        let rel = (a as f64 - b as f64).abs() / a as f64;
        assert!(rel < 0.15, "storage mismatch {rel}");
    }

    /// The paper's implicit claim: at matched storage cost the norm-adaptive
    /// map beats the band baseline on accuracy, because real tile norms are
    /// not a clean function of band distance (Morton order is only an
    /// approximation of spatial locality).
    #[test]
    fn adaptive_beats_band_at_matched_cost() {
        // covariance-like matrix whose norm decay is *not* monotone in the
        // band distance (two interleaved decay scales)
        let n = 160;
        let nb = 16;
        let a0 = SymmTileMatrix::from_fn(
            n,
            nb,
            |i, j| {
                let d = (i as f64 - j as f64).abs();
                let fast = (-0.8 * d).exp();
                // a narrow off-band ridge of correlation at |i−j| ≈ 64 that
                // band maps cannot anticipate (kept small enough that the
                // matrix stays diagonally dominant)
                let slow = 0.2 * (-((d - 64.0) / 6.0).powi(2)).exp();
                fast + slow + if i == j { 5.0 } else { 0.0 }
            },
            |_, _| StoragePrecision::F64,
        );
        let dense = a0.to_dense_symmetric();
        let norms = tile_fro_norms(&a0);
        let adaptive = PrecisionMap::from_norms(&norms, 1e-7, &Precision::ADAPTIVE_SET);
        let band = banded_map_matching_storage(a0.nt(), nb, &adaptive);

        let err_of = |m: &PrecisionMap| {
            let mut a = a0.clone();
            match factorize(&mut a, m, &FactorOptions::single_shot(2)) {
                // losing positive definiteness is the worst possible outcome
                Err(_) => f64::INFINITY,
                Ok(_) => reconstruction_error(&dense, &a.to_dense_lower()),
            }
        };
        let e_adaptive = err_of(&adaptive);
        let e_band = err_of(&band);
        assert!(e_adaptive.is_finite(), "adaptive map must factor");
        assert!(
            e_adaptive < e_band,
            "adaptive {e_adaptive:e} should beat band {e_band:e} at matched storage"
        );
    }
}
