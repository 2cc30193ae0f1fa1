//! Symmetric tile matrix: the lower triangle as an `NT × NT` grid of tiles.

use crate::dense::DenseMatrix;
use crate::tile::Tile;
use mixedp_fp::StoragePrecision;

/// The lower triangle of an `n × n` symmetric matrix, partitioned into
/// `NT × NT` tiles of nominal size `nb` (the trailing tile may be ragged).
///
/// Tile `(i, j)` with `i ≥ j` holds rows `i·nb ..` and columns `j·nb ..` of
/// the global matrix. Each tile carries its own storage precision — this is
/// the in-memory realization of the paper's storage-precision map (Fig 2b).
#[derive(Debug, Clone)]
pub struct SymmTileMatrix {
    n: usize,
    nb: usize,
    nt: usize,
    /// Lower-packed: index of tile `(i, j)` is `i (i + 1) / 2 + j`.
    tiles: Vec<Tile>,
}

impl SymmTileMatrix {
    /// Packed index of tile `(i, j)`, `i ≥ j`.
    #[inline]
    fn idx(i: usize, j: usize) -> usize {
        debug_assert!(j <= i);
        i * (i + 1) / 2 + j
    }

    /// Number of rows in tile-row `i`.
    #[inline]
    pub fn tile_rows(&self, i: usize) -> usize {
        debug_assert!(i < self.nt);
        (self.n - i * self.nb).min(self.nb)
    }

    /// Zero-initialized matrix with all tiles in `storage`.
    pub fn zeros(n: usize, nb: usize, storage: StoragePrecision) -> Self {
        assert!(n > 0 && nb > 0);
        let nt = n.div_ceil(nb);
        let mut tiles = Vec::with_capacity(nt * (nt + 1) / 2);
        for i in 0..nt {
            for j in 0..=i {
                let r = (n - i * nb).min(nb);
                let c = (n - j * nb).min(nb);
                tiles.push(Tile::zeros(r, c, storage));
            }
        }
        SymmTileMatrix { n, nb, nt, tiles }
    }

    /// Build from an element function `f(row, col)` of the global matrix
    /// (only the lower triangle is evaluated), with a per-tile storage
    /// precision chosen by `storage_of(i, j)`.
    pub fn from_fn<F, S>(n: usize, nb: usize, f: F, storage_of: S) -> Self
    where
        F: Fn(usize, usize) -> f64,
        S: Fn(usize, usize) -> StoragePrecision,
    {
        assert!(n > 0 && nb > 0);
        let nt = n.div_ceil(nb);
        let tiles: Vec<Tile> = (0..nt)
            .flat_map(|i| (0..=i).map(move |j| (i, j)))
            .map(|(i, j)| {
                let r = (n - i * nb).min(nb);
                let c = (n - j * nb).min(nb);
                let mut data = Vec::with_capacity(r * c);
                for ii in 0..r {
                    for jj in 0..c {
                        data.push(f(i * nb + ii, j * nb + jj));
                    }
                }
                Tile::from_f64(r, c, &data, storage_of(i, j))
            })
            .collect();
        SymmTileMatrix { n, nb, nt, tiles }
    }

    /// Assemble from pre-built tiles in lower-packed order (tile `(i, j)`
    /// at index `i(i+1)/2 + j`) — the constructor for callers that
    /// generate tiles out-of-place in parallel (e.g. through the task
    /// runtime) and hand the finished pieces over.
    ///
    /// # Panics
    /// Panics if the tile count or any tile's dimensions do not match the
    /// `n`/`nb` partition.
    pub fn from_tiles(n: usize, nb: usize, tiles: Vec<Tile>) -> Self {
        assert!(n > 0 && nb > 0);
        let nt = n.div_ceil(nb);
        assert_eq!(tiles.len(), nt * (nt + 1) / 2, "tile count mismatch");
        let mut it = tiles.iter();
        for i in 0..nt {
            for j in 0..=i {
                let t = it.next().unwrap();
                let r = (n - i * nb).min(nb);
                let c = (n - j * nb).min(nb);
                assert_eq!(
                    (t.rows(), t.cols()),
                    (r, c),
                    "tile ({i},{j}) has wrong shape"
                );
            }
        }
        SymmTileMatrix { n, nb, nt, tiles }
    }

    /// Build from a dense symmetric matrix (reads the lower triangle).
    pub fn from_dense(a: &DenseMatrix, nb: usize, storage: StoragePrecision) -> Self {
        assert_eq!(a.rows(), a.cols());
        Self::from_fn(a.rows(), nb, |i, j| a.get(i, j), |_, _| storage)
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn nb(&self) -> usize {
        self.nb
    }

    /// NT: number of tiles along one dimension.
    pub fn nt(&self) -> usize {
        self.nt
    }

    pub fn tile(&self, i: usize, j: usize) -> &Tile {
        &self.tiles[Self::idx(i, j)]
    }

    pub fn tile_mut(&mut self, i: usize, j: usize) -> &mut Tile {
        &mut self.tiles[Self::idx(i, j)]
    }

    /// Mutable access to two distinct tiles at once (needed by update
    /// kernels that read one tile and write another).
    pub fn tile_pair_mut(
        &mut self,
        a: (usize, usize),
        b: (usize, usize),
    ) -> (&mut Tile, &mut Tile) {
        let ia = Self::idx(a.0, a.1);
        let ib = Self::idx(b.0, b.1);
        assert_ne!(ia, ib, "tile_pair_mut requires distinct tiles");
        if ia < ib {
            let (lo, hi) = self.tiles.split_at_mut(ib);
            (&mut lo[ia], &mut hi[0])
        } else {
            let (lo, hi) = self.tiles.split_at_mut(ia);
            (&mut hi[0], &mut lo[ib])
        }
    }

    /// Iterate `(i, j, &tile)` over the stored lower triangle.
    pub fn iter_lower(&self) -> impl Iterator<Item = (usize, usize, &Tile)> {
        (0..self.nt).flat_map(move |i| (0..=i).map(move |j| (i, j, self.tile(i, j))))
    }

    /// Global element read (either triangle; uses symmetry).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        let (ti, tj) = (i / self.nb, j / self.nb);
        self.tile(ti, tj).get(i - ti * self.nb, j - tj * self.nb)
    }

    /// Materialize the full symmetric matrix densely (for validation).
    pub fn to_dense_symmetric(&self) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for j in 0..self.n {
                a.set(i, j, self.get(i, j));
            }
        }
        a
    }

    /// Materialize only the lower triangle (upper left zero) — i.e. the
    /// Cholesky factor after factorization.
    pub fn to_dense_lower(&self) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for j in 0..=i {
                a.set(i, j, self.get(i, j));
            }
        }
        a
    }

    /// Symmetric matrix-vector product `y = A x` using only the stored
    /// lower triangle (off-diagonal tiles contribute both `A_ij x_j` and
    /// `A_ijᵀ x_i`). Lets solvers stay matrix-free on the tiled form.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0f64; self.n];
        for (ti, tj, t) in self.iter_lower() {
            let (oi, oj) = (ti * self.nb, tj * self.nb);
            for i in 0..t.rows() {
                let mut s = 0.0;
                for j in 0..t.cols() {
                    s += t.get(i, j) * x[oj + j];
                }
                y[oi + i] += s;
            }
            if ti != tj {
                // transpose contribution
                for j in 0..t.cols() {
                    let mut s = 0.0;
                    for i in 0..t.rows() {
                        s += t.get(i, j) * x[oi + i];
                    }
                    y[oj + j] += s;
                }
            }
        }
        y
    }

    /// Total bytes held by all stored tiles — the storage-footprint metric
    /// the precision map reduces.
    pub fn storage_bytes(&self) -> usize {
        self.tiles.iter().map(Tile::bytes).sum()
    }

    /// Global Frobenius norm of the symmetric matrix (off-diagonal tiles
    /// counted twice).
    pub fn fro_norm(&self) -> f64 {
        let mut s = 0.0;
        for (i, j, t) in self.iter_lower() {
            let w = if i == j { 1.0 } else { 2.0 };
            s += w * t.fro_norm_sq();
        }
        s.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, nb: usize) -> SymmTileMatrix {
        SymmTileMatrix::from_fn(
            n,
            nb,
            |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()) + if i == j { 2.0 } else { 0.0 },
            |_, _| StoragePrecision::F64,
        )
    }

    #[test]
    fn shape_and_nt() {
        let a = sample(10, 4);
        assert_eq!(a.nt(), 3);
        assert_eq!(a.tile(0, 0).rows(), 4);
        assert_eq!(a.tile(2, 2).rows(), 2); // ragged trailing tile
        assert_eq!(a.tile(2, 0).rows(), 2);
        assert_eq!(a.tile(2, 0).cols(), 4);
    }

    #[test]
    fn get_uses_symmetry() {
        let a = sample(9, 3);
        for i in 0..9 {
            for j in 0..9 {
                assert_eq!(a.get(i, j), a.get(j, i));
            }
        }
    }

    #[test]
    fn from_tiles_roundtrip() {
        let a = sample(10, 4); // includes ragged trailing tiles
        let tiles: Vec<Tile> = a.iter_lower().map(|(_, _, t)| t.clone()).collect();
        let b = SymmTileMatrix::from_tiles(10, 4, tiles);
        for i in 0..10 {
            for j in 0..=i {
                assert_eq!(a.get(i, j), b.get(i, j));
            }
        }
    }

    #[test]
    #[should_panic]
    fn from_tiles_wrong_count_panics() {
        let a = sample(10, 4);
        let mut tiles: Vec<Tile> = a.iter_lower().map(|(_, _, t)| t.clone()).collect();
        tiles.pop();
        let _ = SymmTileMatrix::from_tiles(10, 4, tiles);
    }

    #[test]
    fn dense_roundtrip() {
        let a = sample(8, 3);
        let d = a.to_dense_symmetric();
        let b = SymmTileMatrix::from_dense(&d, 3, StoragePrecision::F64);
        for i in 0..8 {
            for j in 0..=i {
                assert_eq!(a.get(i, j), b.get(i, j));
            }
        }
    }

    #[test]
    fn fro_norm_matches_dense() {
        let a = sample(7, 2);
        let d = a.to_dense_symmetric();
        assert!((a.fro_norm() - d.fro_norm()).abs() < 1e-12 * d.fro_norm());
    }

    #[test]
    fn storage_bytes_counts_precisions() {
        let a = SymmTileMatrix::from_fn(
            4,
            2,
            |i, j| (i + j) as f64,
            |i, j| {
                if i == j {
                    StoragePrecision::F64
                } else {
                    StoragePrecision::F32
                }
            },
        );
        // two diagonal tiles 2x2 f64 (32 bytes each) + one offdiag 2x2 f32 (16)
        assert_eq!(a.storage_bytes(), 32 + 32 + 16);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = sample(11, 4); // ragged tiles included
        let d = a.to_dense_symmetric();
        let x: Vec<f64> = (0..11).map(|i| (i as f64) * 0.3 - 1.5).collect();
        let y_tiled = a.matvec(&x);
        let y_dense = d.matvec(&x);
        for (u, v) in y_tiled.iter().zip(&y_dense) {
            assert!((u - v).abs() < 1e-12, "{u} vs {v}");
        }
    }

    #[test]
    fn tile_pair_mut_disjoint() {
        let mut a = sample(6, 2);
        let before = a.tile(2, 1).get(0, 0);
        {
            let (x, y) = a.tile_pair_mut((1, 0), (2, 1));
            x.set(0, 0, 42.0);
            y.set(0, 0, before + 1.0);
        }
        assert_eq!(a.tile(1, 0).get(0, 0), 42.0);
        assert_eq!(a.tile(2, 1).get(0, 0), before + 1.0);
    }

    #[test]
    #[should_panic]
    fn tile_pair_mut_same_tile_panics() {
        let mut a = sample(6, 2);
        let _ = a.tile_pair_mut((1, 0), (1, 0));
    }
}
