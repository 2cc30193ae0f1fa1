//! The tile-centric adaptive precision map (paper §V, Fig 2).
//!
//! For an off-diagonal tile the lowest admissible precision is chosen under
//! the Higham–Mary block rule
//!
//! ```text
//! ‖A_ij‖_F · NT / ‖A‖_F  ≤  u_req / u_low
//! ```
//!
//! where `u_req` is the application-required accuracy and `u_low` the
//! effective epsilon of the candidate format. Diagonal tiles always compute
//! in FP64 (they carry the strongest correlations and feed POTRF/SYRK).

use mixedp_fp::{escalate, storage_precision_of, Precision, StoragePrecision};
use mixedp_tile::{lower_index, NormMap};
use serde::{Deserialize, Serialize};

/// Per-tile kernel precisions (Fig 2a) and the induced storage map (Fig 2b).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrecisionMap {
    nt: usize,
    /// Lower-packed kernel precision per tile ([`lower_index`]).
    kernel: Vec<Precision>,
}

impl PrecisionMap {
    /// Compute the map from tile norms with the paper's rule, choosing from
    /// `candidates` (normally [`Precision::ADAPTIVE_SET`]).
    pub fn from_norms(norms: &NormMap, u_req: f64, candidates: &[Precision]) -> Self {
        assert!(u_req > 0.0);
        let nt = norms.nt();
        let mut kernel = Vec::with_capacity(nt * (nt + 1) / 2);
        let global = norms.global();
        for i in 0..nt {
            for j in 0..=i {
                if i == j {
                    kernel.push(Precision::Fp64);
                    continue;
                }
                let lhs = norms.tile(i, j) * nt as f64 / global;
                // lowest admissible precision among the candidates
                let mut chosen = Precision::Fp64;
                for &p in candidates {
                    if p == Precision::Fp64 {
                        continue;
                    }
                    if lhs <= u_req / p.effective_epsilon() {
                        chosen = p;
                        break; // candidates are ordered lowest→highest
                    }
                }
                kernel.push(chosen);
            }
        }
        PrecisionMap { nt, kernel }
    }

    /// Build directly from per-tile precisions (for tests and the uniform
    /// configurations of Figs 8–12).
    pub fn from_fn(nt: usize, mut f: impl FnMut(usize, usize) -> Precision) -> Self {
        let mut kernel = Vec::with_capacity(nt * (nt + 1) / 2);
        for i in 0..nt {
            for j in 0..=i {
                let p = if i == j { Precision::Fp64 } else { f(i, j) };
                kernel.push(p);
            }
        }
        PrecisionMap { nt, kernel }
    }

    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Kernel precision of tile `(i, j)` (`i ≥ j`).
    pub fn kernel(&self, i: usize, j: usize) -> Precision {
        debug_assert!(j <= i, "precision map is lower-triangular");
        self.kernel[lower_index(i, j)]
    }

    /// Storage precision of tile `(i, j)` (Fig 2b).
    pub fn storage(&self, i: usize, j: usize) -> StoragePrecision {
        storage_precision_of(self.kernel(i, j))
    }

    /// Fraction of tiles per precision, in `ADAPTIVE_SET` order — the
    /// percentages annotated in Fig 7.
    pub fn percentages(&self) -> Vec<(Precision, f64)> {
        let total = self.kernel.len() as f64;
        Precision::ADAPTIVE_SET
            .iter()
            .map(|&p| {
                let c = self.kernel.iter().filter(|&&k| k == p).count();
                (p, 100.0 * c as f64 / total)
            })
            .collect()
    }

    /// Total storage bytes for tile size `nb` under this map vs full FP64 —
    /// the storage-saving metric of the paper's conclusion.
    pub fn storage_bytes(&self, nb: usize) -> (u64, u64) {
        let per_tile = (nb * nb) as u64;
        let mut mp = 0u64;
        for i in 0..self.nt {
            for j in 0..=i {
                mp += per_tile * self.storage(i, j).bytes() as u64;
            }
        }
        let fp64 = per_tile * 8 * (self.nt * (self.nt + 1) / 2) as u64;
        (mp, fp64)
    }

    /// Escalate one tile's kernel precision one level toward FP64 on the
    /// recovery lattice ([`mixedp_fp::escalate`]). Returns `true` if the
    /// tile actually moved (FP64 is the fixed point).
    pub fn escalate_tile(&mut self, i: usize, j: usize) -> bool {
        debug_assert!(j <= i, "precision map is lower-triangular");
        let k = lower_index(i, j);
        let next = escalate(self.kernel[k]);
        let moved = next != self.kernel[k];
        self.kernel[k] = next;
        moved
    }

    /// Escalate the *cross* of tile `(i, j)`: every stored tile in row `i`
    /// and column `j` moves one level toward FP64. A breakdown at `(i, j)`
    /// implicates its whole update path — the panel tiles that fed the
    /// failing kernel and the trailing tiles it feeds — so the recovery
    /// promotes the cross rather than a single tile, matching the
    /// row/column escalation of the mixed-precision Cholesky literature.
    /// Returns the number of tiles whose precision actually changed; `0`
    /// means the cross is already fully FP64 and the failure is genuine.
    pub fn escalate_cross(&mut self, i: usize, j: usize) -> usize {
        debug_assert!(j <= i, "precision map is lower-triangular");
        let mut changed = 0;
        // row i: tiles (i, 0..=i)
        for jj in 0..=i {
            if self.escalate_tile(i, jj) {
                changed += 1;
            }
        }
        // column j: tiles (j..nt, j), skipping (i, j) already done above
        for ii in j..self.nt {
            if ii == i {
                continue;
            }
            if self.escalate_tile(ii, j) {
                changed += 1;
            }
        }
        changed
    }

    /// Escalate every tile one level toward FP64: the recovery step when
    /// a breakdown's cross is already FP64 but narrower tiles elsewhere
    /// still fed it. Returns the number of tiles that moved; `0` means the
    /// whole map is FP64.
    pub fn escalate_all(&mut self) -> usize {
        let mut changed = 0;
        for p in &mut self.kernel {
            let next = escalate(*p);
            changed += usize::from(next != *p);
            *p = next;
        }
        changed
    }

    /// ASCII heatmap (one char per tile: `8`=FP64, `4`=FP32, `h`=FP16_32,
    /// `q`=FP16) for terminal rendering of Figs 2a / 7.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for i in 0..self.nt {
            for j in 0..=i {
                s.push(match self.kernel(i, j) {
                    Precision::Fp64 => '8',
                    Precision::Fp32 => '4',
                    Precision::Fp16x32 => 'h',
                    Precision::Fp16 => 'q',
                    Precision::Tf32 => 't',
                    Precision::Bf16x32 => 'b',
                });
                s.push(' ');
            }
            s.push('\n');
        }
        s
    }
}

/// A uniform configuration: FP64 on the diagonal, `off_diag` elsewhere —
/// the extreme settings of Figs 8 and 10–12 (e.g. FP64/FP16_32, FP64/FP16).
pub fn uniform_map(nt: usize, off_diag: Precision) -> PrecisionMap {
    PrecisionMap::from_fn(nt, |_, _| off_diag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixedp_fp::StoragePrecision as SP;
    use mixedp_tile::{tile_fro_norms, SymmTileMatrix};

    /// An exponentially-decaying covariance-like matrix: strong diagonal,
    /// rapidly weakening off-diagonal tiles.
    fn decaying_matrix(n: usize, nb: usize, rate: f64) -> SymmTileMatrix {
        SymmTileMatrix::from_fn(
            n,
            nb,
            move |i, j| {
                let d = (i as f64 - j as f64).abs();
                (-rate * d).exp() + if i == j { 0.1 } else { 0.0 }
            },
            |_, _| SP::F64,
        )
    }

    #[test]
    fn diagonal_is_always_fp64() {
        let a = decaying_matrix(64, 8, 0.5);
        let m = PrecisionMap::from_norms(&tile_fro_norms(&a), 1e-8, &Precision::ADAPTIVE_SET);
        for k in 0..m.nt() {
            assert_eq!(m.kernel(k, k), Precision::Fp64);
        }
    }

    #[test]
    fn farther_tiles_get_lower_precision() {
        let a = decaying_matrix(128, 8, 0.8);
        let m = PrecisionMap::from_norms(&tile_fro_norms(&a), 1e-6, &Precision::ADAPTIVE_SET);
        let nt = m.nt();
        // precision ranks must be non-increasing walking away from the
        // diagonal along the first column
        let rank = |p: Precision| match p {
            Precision::Fp64 => 3,
            Precision::Fp32 => 2,
            Precision::Fp16x32 => 1,
            _ => 0,
        };
        let mut prev = rank(m.kernel(1, 0));
        for i in 2..nt {
            let r = rank(m.kernel(i, 0));
            assert!(
                r <= prev,
                "tile ({i},0) precision increased away from diagonal"
            );
            prev = r;
        }
        // with this decay the far corner must be low precision
        assert!(rank(m.kernel(nt - 1, 0)) <= 1);
    }

    #[test]
    fn tighter_accuracy_forces_higher_precision() {
        let a = decaying_matrix(96, 8, 0.3);
        let norms = tile_fro_norms(&a);
        let loose = PrecisionMap::from_norms(&norms, 1e-4, &Precision::ADAPTIVE_SET);
        let tight = PrecisionMap::from_norms(&norms, 1e-12, &Precision::ADAPTIVE_SET);
        let frac = |m: &PrecisionMap, p: Precision| {
            m.percentages().iter().find(|(q, _)| *q == p).unwrap().1
        };
        // Monotone: tightening the accuracy can only move tiles upward.
        assert!(frac(&tight, Precision::Fp64) > frac(&loose, Precision::Fp64));
        assert!(frac(&tight, Precision::Fp16) <= frac(&loose, Precision::Fp16));
        assert_ne!(tight, loose);
    }

    #[test]
    fn storage_map_follows_kernel_map() {
        let m = uniform_map(4, Precision::Fp16);
        assert_eq!(m.storage(0, 0), SP::F64);
        assert_eq!(m.storage(2, 0), SP::F32); // FP16 kernels store FP32
        let m2 = uniform_map(4, Precision::Fp32);
        assert_eq!(m2.storage(3, 1), SP::F32);
    }

    #[test]
    fn percentages_sum_to_100() {
        let a = decaying_matrix(80, 8, 0.4);
        let m = PrecisionMap::from_norms(&tile_fro_norms(&a), 1e-8, &Precision::ADAPTIVE_SET);
        let total: f64 = m.percentages().iter().map(|(_, f)| f).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn storage_savings_positive_for_mixed_map() {
        let m = uniform_map(8, Precision::Fp16x32);
        let (mp, fp64) = m.storage_bytes(64);
        assert!(mp < fp64);
        // diagonal (8 tiles) f64, off-diag (28) f32
        let per = 64u64 * 64;
        assert_eq!(mp, per * 8 * 8 + per * 4 * 28);
    }

    #[test]
    fn escalate_tile_steps_toward_fp64() {
        let mut m = uniform_map(4, Precision::Fp16);
        assert!(m.escalate_tile(2, 0));
        assert_eq!(m.kernel(2, 0), Precision::Fp16x32);
        assert!(m.escalate_tile(2, 0));
        assert_eq!(m.kernel(2, 0), Precision::Fp32);
        assert!(m.escalate_tile(2, 0));
        assert_eq!(m.kernel(2, 0), Precision::Fp64);
        // fixed point: no further movement
        assert!(!m.escalate_tile(2, 0));
        // diagonal is already FP64
        assert!(!m.escalate_tile(1, 1));
    }

    #[test]
    fn escalate_cross_promotes_row_and_column() {
        let nt = 5;
        let mut m = uniform_map(nt, Precision::Fp16);
        let changed = m.escalate_cross(3, 1);
        // row 3: (3,0) (3,1) (3,2) moved, (3,3) diag fixed;
        // col 1: (2,1) (4,1) moved, (1,1) diag fixed, (3,1) counted above
        assert_eq!(changed, 5);
        for jj in 0..3 {
            assert_eq!(m.kernel(3, jj), Precision::Fp16x32, "(3,{jj})");
        }
        assert_eq!(m.kernel(2, 1), Precision::Fp16x32);
        assert_eq!(m.kernel(4, 1), Precision::Fp16x32);
        // untouched tile stays put
        assert_eq!(m.kernel(1, 0), Precision::Fp16);
        // an all-FP64 cross reports zero movement (genuine failure signal)
        let mut full = uniform_map(nt, Precision::Fp64);
        assert_eq!(full.escalate_cross(3, 1), 0);
    }

    #[test]
    fn escalate_all_steps_every_tile_until_fp64() {
        let nt = 4;
        let mut m = uniform_map(nt, Precision::Fp16);
        m.escalate_tile(3, 0);
        // 6 off-diagonal tiles move; the diagonal is already FP64
        assert_eq!(m.escalate_all(), 6);
        assert_eq!(m.kernel(2, 1), Precision::Fp16x32);
        assert_eq!(m.kernel(3, 0), Precision::Fp32);
        assert_eq!(m.escalate_all(), 6);
        assert_eq!(m.kernel(3, 0), Precision::Fp64);
        assert_eq!(m.escalate_all(), 5);
        assert_eq!(m, uniform_map(nt, Precision::Fp64));
        assert_eq!(m.escalate_all(), 0);
    }

    #[test]
    fn render_shape() {
        let m = uniform_map(3, Precision::Fp16);
        let r = m.render();
        assert_eq!(r.lines().count(), 3);
        assert!(r.starts_with("8 \nq 8 \n"), "{r}");
    }
}
