//! Per-tile and global Frobenius norms — the inputs to the tile-centric
//! precision-selection rule `‖A_ij‖ · NT / ‖A‖ ≤ u_req / u_low` (paper §V).

use crate::matrix::{lower_index, lower_tiles, SymmTileMatrix};

/// Frobenius norms of every lower-triangle tile plus the global norm.
#[derive(Debug, Clone)]
pub struct NormMap {
    nt: usize,
    /// Lower-packed tile norms, same indexing as [`SymmTileMatrix`].
    norms: Vec<f64>,
    global: f64,
}

impl NormMap {
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Frobenius norm of tile `(i, j)` (either triangle; symmetric).
    pub fn tile(&self, i: usize, j: usize) -> f64 {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        self.norms[lower_index(i, j)]
    }

    /// Frobenius norm of the whole symmetric matrix.
    pub fn global(&self) -> f64 {
        self.global
    }
}

/// Compute all tile norms and the global norm.
pub fn tile_fro_norms(a: &SymmTileMatrix) -> NormMap {
    let nt = a.nt();
    let coords: Vec<(usize, usize)> = lower_tiles(nt).collect();
    let sq: Vec<f64> = coords
        .iter()
        .map(|&(i, j)| a.tile(i, j).fro_norm_sq())
        .collect();
    let global = coords
        .iter()
        .zip(&sq)
        .map(|(&(i, j), &s)| if i == j { s } else { 2.0 * s })
        .sum::<f64>()
        .sqrt();
    NormMap {
        nt,
        norms: sq.into_iter().map(f64::sqrt).collect(),
        global,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixedp_fp::StoragePrecision;

    #[test]
    fn norms_match_direct_computation() {
        let a = SymmTileMatrix::from_fn(
            9,
            3,
            |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0 + if i == j { 10.0 } else { 0.0 },
            |_, _| StoragePrecision::F64,
        );
        let m = tile_fro_norms(&a);
        for (i, j, t) in a.iter_lower() {
            assert!((m.tile(i, j) - t.fro_norm()).abs() < 1e-14);
            assert_eq!(m.tile(i, j), m.tile(j, i));
        }
        assert!((m.global() - a.fro_norm()).abs() < 1e-12 * a.fro_norm());
    }

    #[test]
    fn global_dominates_tiles() {
        let a = SymmTileMatrix::from_fn(
            8,
            2,
            |i, j| (1 + i + j) as f64,
            |_, _| StoragePrecision::F64,
        );
        let m = tile_fro_norms(&a);
        for i in 0..a.nt() {
            for j in 0..=i {
                assert!(m.tile(i, j) <= m.global());
            }
        }
    }
}
