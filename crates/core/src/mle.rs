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
use mixedp_kernels::blas;
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
        let n = locs.len();
        assert_eq!(z.len(), n);
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
        let stats = match factorize_mp_recovering(&mut sigma, &pmap, &opts) {
            Ok(stats) => stats,
            Err(e) => {
                return reject(match e {
                    FactorError::NotSpd(_) => "not_spd",
                    FactorError::NonFinite { .. } => "non_finite",
                    FactorError::EscalationExhausted { .. } => "exhausted",
                    FactorError::TaskFailed { .. } | FactorError::WorkerPanicked => "task_failed",
                })
            }
        };
        // log|Σ| and the quadratic form via the (widened) factor.
        let l = sigma.to_dense_lower();
        let ld = l.data();
        let mut log_det = 0.0;
        for i in 0..n {
            let d = ld[i * n + i];
            if d <= 0.0 || !d.is_finite() {
                return reject("bad_diagonal");
            }
            log_det += d.ln();
        }
        log_det *= 2.0;
        let mut v = z.to_vec();
        blas::forward_solve_in_place(ld, n, &mut v);
        let v2: f64 = v.iter().map(|x| x * x).sum();
        if !v2.is_finite() {
            return reject("nonfinite_quadform");
        }
        Some((assemble_loglik(n, log_det, v2), stats))
    }
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
