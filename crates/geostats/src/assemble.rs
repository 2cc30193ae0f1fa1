//! Parallel covariance-matrix tile generation through the task runtime.
//!
//! Every likelihood evaluation of the MLE loop builds `Σ(θ)` tile-wise
//! before factoring it — the loop's second hot phase after the Cholesky
//! itself (paper §V's matrix-generation phase). Tiles are mutually
//! independent, so the phase maps onto a trivial dependency-free
//! [`TaskGraph`] (one task per lower-triangle tile) executed by the same
//! work-stealing scheduler that runs the factorization: generation
//! saturates the workers, and the per-tile cost imbalance (ragged trailing
//! tiles, diagonal vs off-diagonal) is absorbed by stealing.
//!
//! A task writes its tile's distances into the tile's own buffer and
//! overwrites them with covariances by one [`CovarianceModel::cov_into`]
//! call (one per row of the lower triangle on a diagonal tile, whose upper
//! triangle is mirrored: [`Location::dist`] is bitwise symmetric), then adds
//! the nugget on the global diagonal. Every entry therefore equals
//! [`covariance_entry`](crate::covariance::covariance_entry), and each task
//! writes a disjoint tile, so the result is bit-identical for every thread
//! count.

use crate::covariance::{CovarianceModel, NUGGET_REL};
use crate::locations::Location;
use mixedp_runtime::{execute_parallel, execute_serial, TaskGraph};
use mixedp_tile::{SymmTileMatrix, Tile, TileBuf};
use std::sync::Mutex;

/// Build the covariance matrix `Σ(θ)` in FP64 tiles of size `nb`, filling
/// tiles over `nthreads` workers of the task runtime (`nthreads <= 1` uses
/// the deterministic serial executor). Bit-identical to
/// [`SymmTileMatrix::from_fn`] with
/// [`covariance_entry`](crate::covariance::covariance_entry) at any thread
/// count.
pub fn covariance_tiles(
    model: &dyn CovarianceModel,
    locs: &[Location],
    theta: &[f64],
    nb: usize,
    nthreads: usize,
) -> SymmTileMatrix {
    let n = locs.len();
    assert!(n > 0 && nb > 0);
    let nt = n.div_ceil(nb);
    let coords: Vec<(usize, usize)> = (0..nt).flat_map(|i| (0..=i).map(move |j| (i, j))).collect();

    // One dependency-free task per tile. Priority = tile area, so the
    // ragged (smaller) trailing tiles are scheduled last and the tail of
    // the run stays balanced.
    let mut graph = TaskGraph::with_capacity(coords.len());
    for &(i, j) in &coords {
        let r = (n - i * nb).min(nb);
        let c = (n - j * nb).min(nb);
        graph.add_task(vec![], (r * c) as i64);
    }

    let slots: Vec<Mutex<Option<Tile>>> = coords.iter().map(|_| Mutex::new(None)).collect();
    let generate = |id: usize| {
        let (i, j) = coords[id];
        let r = (n - i * nb).min(nb);
        let c = (n - j * nb).min(nb);
        let rows = &locs[i * nb..i * nb + r];
        let cols = &locs[j * nb..j * nb + c];
        let mut data = vec![0.0; r * c];
        if i == j {
            for (ii, (row, a)) in data.chunks_mut(c).zip(rows).enumerate() {
                let lower = &mut row[..=ii];
                for (v, b) in lower.iter_mut().zip(cols) {
                    *v = a.dist(b);
                }
                model.cov_into(theta, lower);
                lower[ii] += theta[0] * NUGGET_REL;
            }
            for ii in 0..r {
                for jj in ii + 1..c {
                    data[ii * c + jj] = data[jj * c + ii];
                }
            }
        } else {
            for (row, a) in data.chunks_mut(c).zip(rows) {
                for (v, b) in row.iter_mut().zip(cols) {
                    *v = a.dist(b);
                }
            }
            model.cov_into(theta, &mut data);
        }
        *slots[id].lock().unwrap() = Some(Tile::from_buf(r, c, TileBuf::F64(data)));
    };

    if nthreads <= 1 {
        execute_serial(&graph, generate);
    } else {
        execute_parallel(&graph, nthreads, generate).expect("covariance tile generation panicked");
    }

    let tiles: Vec<Tile> = slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("tile not generated"))
        .collect();
    SymmTileMatrix::from_tiles(n, nb, tiles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariance::{covariance_entry, Matern2d, SqExp};
    use crate::locations::gen_locations_2d;
    use mixedp_fp::StoragePrecision;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> (SqExp, Vec<Location>) {
        let mut rng = StdRng::seed_from_u64(11);
        (SqExp::new2d(), gen_locations_2d(n, &mut rng))
    }

    /// `covariance_tiles` equals `from_fn` over `covariance_entry` bit for
    /// bit, both triangles of every tile, at 1–8 threads.
    fn assert_matches_from_fn(model: &dyn CovarianceModel, n: usize, nb: usize, theta: &[f64]) {
        let locs = gen_locations_2d(n, &mut StdRng::seed_from_u64(11));
        let reference = SymmTileMatrix::from_fn(
            n,
            nb,
            |i, j| covariance_entry(model, &locs, i, j, theta),
            |_, _| StoragePrecision::F64,
        );
        for threads in [1, 2, 4, 8] {
            let got = covariance_tiles(model, &locs, theta, nb, threads);
            assert_eq!(got.nt(), reference.nt());
            for ti in 0..got.nt() {
                for tj in 0..=ti {
                    let (g, w) = (got.tile(ti, tj), reference.tile(ti, tj));
                    assert_eq!((g.rows(), g.cols()), (w.rows(), w.cols()));
                    for (k, (x, y)) in g.to_f64().iter().zip(w.to_f64()).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{} threads={threads} tile ({ti},{tj}) entry {k}",
                            model.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matches_from_fn_bit_exactly_any_thread_count() {
        // ragged trailing tiles at nb=16
        assert_matches_from_fn(&SqExp::new2d(), 53, 16, &[1.3, 0.2]);
        // Matérn at the recorded fit's θ̂: most entries take the CF2 lanes,
        // with partial batches at every row end
        assert_matches_from_fn(&Matern2d, 71, 16, &[1.21, 0.131, 0.481]);
        assert_matches_from_fn(&Matern2d, 37, 8, &[0.9, 0.05, 2.5]);
    }

    #[test]
    fn single_tile_matrix() {
        let (model, locs) = setup(7);
        let theta = [1.0, 0.1];
        let a = covariance_tiles(&model, &locs, &theta, 32, 4);
        assert_eq!(a.nt(), 1);
        // diagonal carries the nugget
        assert!(a.get(0, 0) > 1.0);
        assert_eq!(a.get(3, 1), a.get(1, 3));
    }
}
