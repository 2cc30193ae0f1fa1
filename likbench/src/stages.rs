//! One likelihood evaluation replayed stage by stage through the public
//! calls `MpBackend::loglik_detailed` makes, in the same order, each timed
//! from outside on the telemetry clock so that the stage windows line up
//! with the spans the program emits.

use crate::workload::{Exec, Workload, WORKERS};
use mixedp_core::{
    factorize_mp_distributed, factorize_mp_recovering, plan_conversions, DistStats, FactorOptions,
    FactorStats, PrecisionMap, WirePolicy,
};
use mixedp_fp::Precision;
use mixedp_geostats::assemble::covariance_tiles;
use mixedp_geostats::loglik::assemble_loglik;
use mixedp_geostats::{CovarianceModel, Location};
use mixedp_kernels::blas;
use mixedp_obs as obs;
use mixedp_tile::{tile_fro_norms, Grid2d, SymmTileMatrix};

/// Stage names, in execution order (the ledger's rows).
pub const STAGES: [&str; 6] = [
    "covariance_tiles",
    "fro_norms",
    "from_norms",
    "plan",
    "factorize",
    "logdet_solve",
];
pub const FACTORIZE: usize = 4;

/// Map shares reported per evaluation, in `pct_*` order.
pub const MAP_PRECISIONS: [Precision; 4] = [
    Precision::Fp64,
    Precision::Fp32,
    Precision::Fp16x32,
    Precision::Fp16,
];

/// What the factorization stage returned.
#[derive(Debug, Clone)]
pub enum Factored {
    Shared(FactorStats),
    Dist(DistStats),
    /// The factorization reported an error (the evaluation is `None`).
    Failed(String),
}

#[derive(Debug, Clone)]
pub struct StagedEval {
    pub loglik: Option<f64>,
    /// `[start, end)` of each stage in [`STAGES`] order, on `obs::now_ns`.
    pub windows: [(u64, u64); 6],
    /// The whole evaluation, on the same clock.
    pub wall: (u64, u64),
    /// Initial precision map shares (%) in [`MAP_PRECISIONS`] order.
    pub map_pct: [f64; 4],
    pub stc_tiles: usize,
    pub factored: Factored,
}

impl StagedEval {
    pub fn stage_s(&self, i: usize) -> f64 {
        let (a, b) = self.windows[i];
        (b - a) as f64 * 1e-9
    }

    pub fn wall_s(&self) -> f64 {
        (self.wall.1 - self.wall.0) as f64 * 1e-9
    }
}

/// The factorization options `MpBackend::loglik_detailed` uses.
pub fn shared_options(nthreads: usize) -> FactorOptions {
    FactorOptions {
        nthreads,
        renarrow_storage: true,
        ..Default::default()
    }
}

/// Re-store every tile at the map's storage precision (what the shared
/// path's `renarrow_storage` does inside each attempt).
fn narrow_to_map(a: &mut SymmTileMatrix, pmap: &PrecisionMap) {
    for i in 0..a.nt() {
        for j in 0..=i {
            let t = a.tile(i, j).converted_to(pmap.storage(i, j));
            *a.tile_mut(i, j) = t;
        }
    }
}

/// The workload's factorization stage: narrow the tiles to the map's
/// storage first on the distributed path, then factor in place.
pub fn factorize(w: &Workload, sigma: &mut SymmTileMatrix, pmap: &PrecisionMap) -> Factored {
    if w.exec == Exec::Dist2x2 {
        narrow_to_map(sigma, pmap);
    }
    factor_prepared(w, sigma, pmap)
}

/// Factor `sigma` in place; on the distributed path its tiles must already
/// be narrowed to the map's storage.
pub fn factor_prepared(w: &Workload, sigma: &mut SymmTileMatrix, pmap: &PrecisionMap) -> Factored {
    match w.exec {
        Exec::Shared => match factorize_mp_recovering(sigma, pmap, &shared_options(WORKERS)) {
            Ok(s) => Factored::Shared(s),
            Err(e) => Factored::Failed(e.to_string()),
        },
        Exec::Dist2x2 => {
            match factorize_mp_distributed(sigma, pmap, &Grid2d::new(2, 2), WirePolicy::Auto) {
                Ok(s) => Factored::Dist(s),
                Err(e) => Factored::Failed(format!("not SPD at column {}", e.column)),
            }
        }
    }
}

/// `log|Σ|` and `ZᵀΣ⁻¹Z` from the factor, exactly as `loglik_detailed`.
fn logdet_solve(sigma: &SymmTileMatrix, z: &[f64]) -> Option<f64> {
    let n = sigma.n();
    let l = sigma.to_dense_lower();
    let ld = l.data();
    let mut log_det = 0.0;
    for i in 0..n {
        let d = ld[i * n + i];
        if d <= 0.0 || !d.is_finite() {
            return None;
        }
        log_det += d.ln();
    }
    log_det *= 2.0;
    let mut v = z.to_vec();
    blas::forward_solve_in_place(ld, n, &mut v);
    let v2: f64 = v.iter().map(|x| x * x).sum();
    if !v2.is_finite() {
        return None;
    }
    Some(assemble_loglik(n, log_det, v2))
}

fn timed<T>(window: &mut (u64, u64), f: impl FnOnce() -> T) -> T {
    let start = obs::now_ns();
    let out = f();
    *window = (start, obs::now_ns());
    out
}

/// Evaluate `ℓ(θ)` stage by stage.
pub fn staged_loglik(
    w: &Workload,
    model: &dyn CovarianceModel,
    locs: &[Location],
    theta: &[f64],
    z: &[f64],
) -> StagedEval {
    // Each stage is timed on its own, so glue between the calls is not
    // booked to any stage and shows as a ledger gap against `wall`.
    let mut windows = [(0u64, 0u64); 6];
    let t0 = obs::now_ns();
    let mut sigma = timed(&mut windows[0], || {
        covariance_tiles(model, locs, theta, w.nb, WORKERS)
    });
    let norms = timed(&mut windows[1], || tile_fro_norms(&sigma));
    let pmap = timed(&mut windows[2], || {
        PrecisionMap::from_norms(&norms, w.u_req, &Precision::ADAPTIVE_SET)
    });
    let plan = timed(&mut windows[3], || plan_conversions(&pmap));
    let factored = timed(&mut windows[4], || factorize(w, &mut sigma, &pmap));
    let loglik = timed(&mut windows[5], || match factored {
        Factored::Failed(_) => None,
        _ => logdet_solve(&sigma, z),
    });

    let pct = pmap.percentages();
    let share = |p: Precision| pct.iter().find(|(q, _)| *q == p).map_or(0.0, |(_, f)| *f);
    let stc_tiles = plan.stc_count();
    StagedEval {
        loglik,
        windows,
        wall: (t0, obs::now_ns()),
        map_pct: MAP_PRECISIONS.map(share),
        stc_tiles,
        factored,
    }
}
