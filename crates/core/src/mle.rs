//! The mixed-precision log-likelihood backend: plugs the adaptive
//! mixed-precision Cholesky into the geostatistics MLE driver (the full
//! application pipeline of the paper — every likelihood evaluation builds
//! `Σ(θ)` tile-wise under the precision map and factors it with Algorithm 1).

use crate::factorize::{factorize_mp_recovering, FactorError, FactorOptions, FactorStats};
use crate::precision_map::PrecisionMap;
use mixedp_fp::Precision;
use mixedp_geostats::assemble::covariance_tiles;
use mixedp_geostats::loglik::{assemble_loglik, LoglikBackend};
use mixedp_geostats::{CovarianceModel, Location};
use mixedp_kernels::solve;
use mixedp_obs as obs;
use mixedp_tile::{tile_fro_norms, SymmTileMatrix};

/// Adaptive mixed-precision likelihood backend.
///
/// `accuracy` is the application-required accuracy `u_req` of the
/// tile-selection rule — the x-axis of Figs 5–6 (1e-4 … 1e-12).
#[derive(Debug, Clone)]
pub struct MpBackend {
    pub accuracy: f64,
    /// Tile size for the covariance matrix.
    pub nb: usize,
    /// Worker threads for the factorization (1 = deterministic serial).
    pub threads: usize,
    /// Candidate precisions (defaults to the paper's adaptive set).
    pub candidates: Vec<Precision>,
    /// Recovery budget: when the adaptive map proves too aggressive for
    /// `Σ(θ)` (non-SPD pivot), the factorization escalates the offending
    /// tiles toward FP64 and retries up to this many times before the
    /// likelihood evaluation reports `None`. `0` restores the old
    /// fail-on-first-breakdown behavior.
    pub escalation_budget: u32,
}

impl MpBackend {
    pub fn new(accuracy: f64, nb: usize, threads: usize) -> Self {
        MpBackend {
            accuracy,
            nb,
            threads,
            candidates: Precision::ADAPTIVE_SET.to_vec(),
            escalation_budget: FactorOptions::default().escalation_budget,
        }
    }

    /// Also expose the precision map chosen for a given `θ` (used by the
    /// Fig 7 experiment).
    pub fn precision_map_for(
        &self,
        model: &dyn CovarianceModel,
        locs: &[Location],
        theta: &[f64],
    ) -> PrecisionMap {
        let sigma = self.build_sigma(model, locs, theta);
        PrecisionMap::from_norms(&tile_fro_norms(&sigma), self.accuracy, &self.candidates)
    }

    fn build_sigma(
        &self,
        model: &dyn CovarianceModel,
        locs: &[Location],
        theta: &[f64],
    ) -> SymmTileMatrix {
        // Generate in FP64 first (needed for the norms that drive the map);
        // the map's storage precisions are applied to the tiles afterwards,
        // exactly as the paper's matrix-generation phase does (§V). Tile
        // generation runs on the same worker pool as the factorization and
        // is bit-identical at any thread count.
        covariance_tiles(model, locs, theta, self.nb, self.threads)
    }

    /// [`LoglikBackend::loglik`] plus the [`FactorStats`] of the run, so
    /// callers see what the factorization cost — in particular whether
    /// (and how) precision escalation recovered a breakdown
    /// (`stats.escalations`, `stats.factor_attempts`). A rejected
    /// evaluation (`None`) bumps the metrics counter
    /// `mle.rejected.<cause>`, with cause `not_spd`, `non_finite`,
    /// `exhausted`, `task_failed`, `bad_diagonal` or `nonfinite_quadform`.
    pub fn loglik_detailed(
        &self,
        model: &dyn CovarianceModel,
        locs: &[Location],
        theta: &[f64],
        z: &[f64],
    ) -> Option<(f64, FactorStats)> {
        static EVALS: obs::LazyCounter = obs::LazyCounter::new("mle.evals");
        let sp = obs::span_start();
        let r = self.loglik_detailed_inner(model, locs, theta, z);
        obs::span_end(sp, obs::EventKind::MleIter, EVALS.inc());
        r
    }

    fn loglik_detailed_inner(
        &self,
        model: &dyn CovarianceModel,
        locs: &[Location],
        theta: &[f64],
        z: &[f64],
    ) -> Option<(f64, FactorStats)> {
        assert_eq!(z.len(), locs.len());
        match self.factor(model, locs, theta) {
            Ok((sigma, stats)) => loglik_from_factor(&sigma, z).map(|ll| (ll, stats)),
            Err(cause) => reject(cause),
        }
    }

    /// Build `Σ(θ)`, choose its precision map and factor it in place: the
    /// tile-wise Cholesky factor, or the rejection cause.
    fn factor(
        &self,
        model: &dyn CovarianceModel,
        locs: &[Location],
        theta: &[f64],
    ) -> Result<(SymmTileMatrix, FactorStats), &'static str> {
        let mut sigma = self.build_sigma(model, locs, theta);
        let norms = tile_fro_norms(&sigma);
        let pmap = PrecisionMap::from_norms(&norms, self.accuracy, &self.candidates);
        // `renarrow_storage` re-stores the FP64 tiles at the map's storage
        // precision (Fig 2b) inside each factorization attempt: the same
        // real narrowing the classic path applied up front, but re-derived
        // from FP64 after every escalation so recovery regains the bits
        // the breakdown needs.
        let opts = FactorOptions {
            nthreads: self.threads,
            escalation_budget: self.escalation_budget,
            renarrow_storage: true,
            ..Default::default()
        };
        match factorize_mp_recovering(&mut sigma, &pmap, &opts) {
            Ok(stats) => Ok((sigma, stats)),
            Err(e) => Err(match e {
                FactorError::NotSpd(_) => "not_spd",
                FactorError::NonFinite { .. } => "non_finite",
                FactorError::EscalationExhausted { .. } => "exhausted",
                FactorError::TaskFailed { .. } | FactorError::WorkerPanicked => "task_failed",
            }),
        }
    }
}

/// `ℓ` from the tile-wise Cholesky factor `l` of `Σ`: `log|Σ|` from the
/// diagonal tiles, then the quadratic form by one forward solve. Both read
/// each tile once in its storage precision; no dense copy of the factor is
/// made.
fn loglik_from_factor(l: &SymmTileMatrix, z: &[f64]) -> Option<f64> {
    let Some(log_det) = solve::cholesky_logdet_tiled(l) else {
        return reject("bad_diagonal");
    };
    let mut v = z.to_vec();
    solve::forward_solve_tiled(l, &mut v);
    let v2: f64 = v.iter().map(|x| x * x).sum();
    if !v2.is_finite() {
        return reject("nonfinite_quadform");
    }
    Some(assemble_loglik(l.n(), log_det, v2))
}

/// Count a rejected likelihood evaluation under `mle.rejected.<cause>`.
fn reject<T>(cause: &str) -> Option<T> {
    obs::metrics::counter(&format!("mle.rejected.{cause}")).inc();
    None
}

impl LoglikBackend for MpBackend {
    fn loglik(
        &self,
        model: &dyn CovarianceModel,
        locs: &[Location],
        theta: &[f64],
        z: &[f64],
    ) -> Option<f64> {
        self.loglik_detailed(model, locs, theta, z)
            .map(|(ll, _)| ll)
    }

    fn label(&self) -> String {
        format!("{:.0e}", self.accuracy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixedp_fp::StoragePrecision;
    use mixedp_geostats::loglik::ExactBackend;
    use mixedp_geostats::{gen_locations_2d, generate_field, SqExp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> (SqExp, Vec<Location>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(21);
        let locs = gen_locations_2d(n, &mut rng);
        let model = SqExp::new2d();
        let z = generate_field(&model, &locs, &[1.0, 0.1], &mut rng);
        (model, locs, z)
    }

    #[test]
    fn tight_accuracy_matches_exact_backend() {
        let (model, locs, z) = setup(144);
        let theta = [1.0, 0.1];
        let exact = ExactBackend.loglik(&model, &locs, &theta, &z).unwrap();
        let mp = MpBackend::new(1e-12, 48, 1)
            .loglik(&model, &locs, &theta, &z)
            .unwrap();
        let rel = ((mp - exact) / exact).abs();
        assert!(rel < 1e-9, "mp {mp} vs exact {exact}");
    }

    #[test]
    fn loose_accuracy_still_close_but_not_identical() {
        // Use the (well-conditioned) Matérn ν = 0.5 kernel: the squared
        // exponential at strong correlation is too ill-conditioned to
        // factor once tiles are degraded to FP32 — the same reason the
        // paper's Matérn runs demand 1e-9 while sqexp tolerates 1e-4.
        let mut rng = StdRng::seed_from_u64(33);
        let locs = gen_locations_2d(196, &mut rng);
        let model = mixedp_geostats::Matern2d;
        let theta = [1.0, 0.1, 0.5];
        let z = generate_field(&model, &locs, &theta, &mut rng);
        let exact = ExactBackend.loglik(&model, &locs, &theta, &z).unwrap();
        let mp = MpBackend::new(1e-4, 28, 1)
            .loglik(&model, &locs, &theta, &z)
            .unwrap();
        let rel = ((mp - exact) / exact).abs();
        assert!(rel < 0.05, "mp {mp} vs exact {exact}");
    }

    #[test]
    fn map_gets_cheaper_as_accuracy_relaxes() {
        let (model, locs, _z) = setup(256);
        let theta = [1.0, 0.02]; // weak correlation: far tiles tiny
        let tight = MpBackend::new(1e-12, 32, 1).precision_map_for(&model, &locs, &theta);
        let loose = MpBackend::new(1e-2, 32, 1).precision_map_for(&model, &locs, &theta);
        let fp64_frac = |m: &PrecisionMap| {
            m.percentages()
                .iter()
                .find(|(p, _)| *p == Precision::Fp64)
                .unwrap()
                .1
        };
        assert!(fp64_frac(&loose) < fp64_frac(&tight));
    }

    /// The likelihood stage as it was before it read the tiles: `ℓ` from
    /// a dense copy of the factor, with the dense log-det and solve.
    fn dense_loglik(l: &SymmTileMatrix, z: &[f64]) -> Option<f64> {
        let n = l.n();
        let dense = l.to_dense_lower();
        let ld = dense.data();
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
        mixedp_kernels::blas::forward_solve_in_place(ld, n, &mut v);
        let v2: f64 = v.iter().map(|x| x * x).sum();
        if !v2.is_finite() {
            return None;
        }
        Some(assemble_loglik(n, log_det, v2))
    }

    /// Assert that `loglik_detailed` gives the dense oracle's bits on the
    /// factor the backend computes, at 1 and 2 threads; returns the stats
    /// and the factor's tile storages of the last run.
    fn assert_matches_dense_oracle(
        accuracy: f64,
        nb: usize,
        model: &dyn CovarianceModel,
        locs: &[Location],
        theta: &[f64],
        z: &[f64],
    ) -> (FactorStats, Vec<StoragePrecision>) {
        let mut last = None;
        for threads in [1, 2] {
            let be = MpBackend::new(accuracy, nb, threads);
            let (ll, stats) = be.loglik_detailed(model, locs, theta, z).unwrap();
            let (l, _) = be.factor(model, locs, theta).unwrap();
            let oracle = dense_loglik(&l, z).unwrap();
            assert_eq!(
                ll.to_bits(),
                oracle.to_bits(),
                "threads {threads}: tiled {ll} vs dense {oracle}"
            );
            let storages = (0..l.nt())
                .flat_map(|i| (0..=i).map(move |j| (i, j)))
                .map(|(i, j)| l.tile(i, j).storage())
                .collect();
            last = Some((stats, storages));
        }
        last.unwrap()
    }

    #[test]
    fn tiled_stage_is_bit_identical_to_dense_oracle_sqexp_1e4() {
        // sqexp at the paper's loose threshold: the map starts with
        // FP16-class tiles, escalation restarts are taken, and FP32-stored
        // tiles are left in the factor. One case has whole tiles
        // (196 = 7 × 28), one ragged ones (300 = 4 × 64 + 44).
        for (n, nb, range) in [(196, 28, 0.03), (300, 64, 0.02)] {
            let mut rng = StdRng::seed_from_u64(5);
            let locs = gen_locations_2d(n, &mut rng);
            let model = SqExp::new2d();
            let theta = [1.0, range];
            let z = generate_field(&model, &locs, &[1.0, 0.1], &mut rng);
            let map = MpBackend::new(1e-4, nb, 1).precision_map_for(&model, &locs, &theta);
            assert!(
                map.percentages()
                    .iter()
                    .any(
                        |&(p, pct)| matches!(p, Precision::Fp16 | Precision::Fp16x32) && pct > 0.0
                    ),
                "n {n}: no FP16-class tile in the map"
            );
            let (stats, storages) =
                assert_matches_dense_oracle(1e-4, nb, &model, &locs, &theta, &z);
            assert!(stats.factor_attempts > 1, "n {n}: no escalation restart");
            assert!(storages.contains(&StoragePrecision::F32), "n {n}");
        }
    }

    #[test]
    fn tiled_stage_is_bit_identical_to_dense_oracle_matern_1e9() {
        let mut rng = StdRng::seed_from_u64(33);
        let locs = gen_locations_2d(300, &mut rng);
        let model = mixedp_geostats::Matern2d;
        let theta = [1.0, 0.1, 0.5];
        let z = generate_field(&model, &locs, &theta, &mut rng);
        let (_, storages) = assert_matches_dense_oracle(1e-9, 64, &model, &locs, &theta, &z);
        assert!(storages.contains(&StoragePrecision::F32));
    }

    #[test]
    fn bad_diagonal_is_rejected_and_counted() {
        let l = SymmTileMatrix::from_fn(
            5,
            2,
            |i, j| match (i, j) {
                (4, 4) => -1.0,
                _ if i == j => 2.0,
                _ => 0.0,
            },
            |_, _| StoragePrecision::F64,
        );
        let z = [1.0; 5];
        let bad_diagonal = obs::metrics::counter("mle.rejected.bad_diagonal");
        let before = bad_diagonal.get();
        assert_eq!(loglik_from_factor(&l, &z), None);
        assert_eq!(dense_loglik(&l, &z), None);
        // other tests may add to the process-wide counter, never subtract
        assert!(bad_diagonal.get() > before, "rejection cause not counted");
    }

    #[test]
    fn label_formats_accuracy() {
        assert_eq!(MpBackend::new(1e-9, 64, 1).label(), "1e-9");
    }

    #[test]
    fn breakdown_recovers_via_escalation() {
        // Strong-correlation squared exponential: the adaptive map at
        // loose accuracy narrows panel tiles below what the conditioning
        // tolerates, so the classic fail-on-first-breakdown path (budget
        // 0) hits NotSpd and the evaluation dies. The recovering backend
        // escalates the implicated rows/columns toward FP64, refactorizes,
        // and completes — with the whole recovery trail visible in
        // FactorStats.
        let mut rng = StdRng::seed_from_u64(5);
        let locs = gen_locations_2d(196, &mut rng);
        let model = SqExp::new2d();
        let theta = [1.0, 0.3];
        let z = generate_field(&model, &locs, &[1.0, 0.1], &mut rng);

        let mut no_recovery = MpBackend::new(1e-4, 28, 1);
        no_recovery.escalation_budget = 0;
        let exhausted = obs::metrics::counter("mle.rejected.exhausted");
        let before = exhausted.get();
        assert!(
            no_recovery
                .loglik_detailed(&model, &locs, &theta, &z)
                .is_none(),
            "this configuration must trigger NotSpd without recovery"
        );
        // The rejection names its cause (other tests may add to the
        // process-wide counter concurrently, never subtract).
        assert!(exhausted.get() > before, "rejection cause not counted");

        let be = MpBackend::new(1e-4, 28, 1);
        let (ll, stats) = be.loglik_detailed(&model, &locs, &theta, &z).unwrap();
        assert!(stats.factor_attempts > 1, "recovery must have restarted");
        assert!(
            !stats.escalations.is_empty(),
            "escalations must be recorded"
        );
        let first = &stats.escalations[0];
        assert_eq!(first.cause, crate::factorize::BreakdownCause::NotSpd);
        assert!(first.escalated_tiles > 0);
        let exact = ExactBackend.loglik(&model, &locs, &theta, &z).unwrap();
        let rel = ((ll - exact) / exact).abs();
        assert!(
            rel < 1e-6,
            "recovered ll {ll} vs exact {exact} (rel {rel:e})"
        );
    }
}
