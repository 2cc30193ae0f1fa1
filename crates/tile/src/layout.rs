//! 2D block-cyclic process grids.

use serde::{Deserialize, Serialize};

/// A `P × Q` process grid with 2D block-cyclic tile ownership, the
/// distribution the paper deploys on Summit (§VII-A: "as square as
/// possible where P ≤ Q").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Grid2d {
    p: usize,
    q: usize,
}

impl Grid2d {
    pub fn new(p: usize, q: usize) -> Self {
        assert!(p > 0 && q > 0);
        Grid2d { p, q }
    }

    /// Choose the most-square `P × Q` factorization of `nranks` with
    /// `P ≤ Q`.
    ///
    /// ```
    /// use mixedp_tile::Grid2d;
    /// let g = Grid2d::squarest(384); // 64 Summit nodes × 6 GPUs
    /// assert_eq!((g.p(), g.q()), (16, 24));
    /// ```
    pub fn squarest(nranks: usize) -> Self {
        assert!(nranks > 0);
        let mut p = (nranks as f64).sqrt() as usize;
        while p > 1 && !nranks.is_multiple_of(p) {
            p -= 1;
        }
        Grid2d {
            p: p.max(1),
            q: nranks / p.max(1),
        }
    }

    pub fn p(&self) -> usize {
        self.p
    }

    pub fn q(&self) -> usize {
        self.q
    }

    pub fn nranks(&self) -> usize {
        self.p * self.q
    }

    /// Owner rank of tile `(i, j)` under 2D block-cyclic distribution.
    #[inline]
    pub fn rank_of(&self, i: usize, j: usize) -> usize {
        (i % self.p) * self.q + (j % self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squarest_factorizations() {
        assert_eq!(Grid2d::squarest(1), Grid2d::new(1, 1));
        assert_eq!(Grid2d::squarest(6), Grid2d::new(2, 3));
        assert_eq!(Grid2d::squarest(12), Grid2d::new(3, 4));
        assert_eq!(Grid2d::squarest(64), Grid2d::new(8, 8));
        assert_eq!(Grid2d::squarest(384), Grid2d::new(16, 24));
        assert_eq!(Grid2d::squarest(7), Grid2d::new(1, 7)); // prime
    }

    #[test]
    fn p_le_q() {
        for n in 1..=64 {
            let g = Grid2d::squarest(n);
            assert!(g.p() <= g.q(), "{n}: {g:?}");
            assert_eq!(g.nranks(), n);
        }
    }

    #[test]
    fn rank_of_is_cyclic() {
        let g = Grid2d::new(2, 3);
        assert_eq!(g.rank_of(0, 0), 0);
        assert_eq!(g.rank_of(0, 3), 0);
        assert_eq!(g.rank_of(2, 0), 0);
        assert_eq!(g.rank_of(1, 2), 5);
        for i in 0..10 {
            for j in 0..10 {
                assert!(g.rank_of(i, j) < g.nranks());
            }
        }
    }

    #[test]
    fn rank_balance_is_even_when_nt_multiple() {
        let g = Grid2d::new(2, 3);
        let mut counts = [0usize; 6];
        for i in 0..6 {
            for j in 0..6 {
                counts[g.rank_of(i, j)] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 6));
    }
}
