//! Monte-Carlo assessment of MLE parameter recovery (paper §VII-B):
//! generate `R` synthetic datasets from `θ_true`, estimate `θ̂` on each
//! through a given log-likelihood backend, summarize as boxplots per
//! parameter (Figs 5–6).

use crate::boxplot::BoxplotStats;
use crate::covariance::CovarianceModel;
use crate::datagen::generate_field;
use crate::locations::Location;
use crate::loglik::LoglikBackend;
use crate::mle::{estimate, MleConfig, MleResult};
use mixedp_runtime::{execute_parallel, TaskGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Monte-Carlo study configuration.
#[derive(Debug, Clone)]
pub struct MonteCarloConfig {
    pub theta_true: Vec<f64>,
    pub replicas: usize,
    pub seed: u64,
    pub mle: MleConfig,
}

/// Estimates from every replica plus per-parameter boxplots.
#[derive(Debug, Clone)]
pub struct MonteCarloResult {
    /// `estimates[r][p]`: parameter `p` of replica `r`.
    pub estimates: Vec<Vec<f64>>,
    /// Boxplot per parameter across replicas.
    pub boxplots: Vec<BoxplotStats>,
    /// Replicas whose optimizer failed to converge.
    pub non_converged: usize,
}

impl MonteCarloResult {
    /// Median absolute deviation of parameter `p` from `truth`.
    pub fn median_abs_error(&self, p: usize, truth: f64) -> f64 {
        let mut devs: Vec<f64> = self
            .estimates
            .iter()
            .map(|e| (e[p] - truth).abs())
            .collect();
        devs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        devs[devs.len() / 2]
    }
}

/// Run the study: replica `r` uses seed `seed + r` for both its locations
/// and its field, so different backends see *identical* datasets — the
/// comparison across accuracy levels in Figs 5–6 is paired, as in the paper.
/// Replicas run as independent tasks on the task runtime, one worker per
/// available CPU.
pub fn run_monte_carlo(
    model: &dyn CovarianceModel,
    n_locations: usize,
    gen_locs: impl Fn(usize, &mut StdRng) -> Vec<Location> + Sync,
    cfg: &MonteCarloConfig,
    backend: &dyn LoglikBackend,
) -> MonteCarloResult {
    assert_eq!(cfg.theta_true.len(), model.nparams());
    let mut graph = TaskGraph::with_capacity(cfg.replicas);
    for _ in 0..cfg.replicas {
        graph.add_task(vec![], 0);
    }
    let slots: Vec<Mutex<Option<MleResult>>> =
        (0..cfg.replicas).map(|_| Mutex::new(None)).collect();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    execute_parallel(&graph, workers, |r| {
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(r as u64));
        let locs = gen_locs(n_locations, &mut rng);
        let z = generate_field(model, &locs, &cfg.theta_true, &mut rng);
        *slots[r].lock().unwrap() = Some(estimate(model, &locs, &z, &cfg.mle, backend));
    })
    .expect("Monte-Carlo replica panicked");
    let results: Vec<MleResult> = slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("replica not run"))
        .collect();
    let non_converged = results.iter().filter(|r| !r.converged).count();
    let estimates: Vec<Vec<f64>> = results.into_iter().map(|r| r.theta_hat).collect();
    let p = model.nparams();
    let boxplots = (0..p)
        .map(|j| {
            let col: Vec<f64> = estimates.iter().map(|e| e[j]).collect();
            BoxplotStats::from_samples(&col)
        })
        .collect();
    MonteCarloResult {
        estimates,
        boxplots,
        non_converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariance::SqExp;
    use crate::locations::gen_locations_2d;
    use crate::loglik::ExactBackend;

    #[test]
    fn small_monte_carlo_centers_near_truth() {
        let model = SqExp::new2d();
        let mut mle = MleConfig::paper_defaults(2);
        mle.optimizer.tol = 1e-6;
        mle.optimizer.max_evals = 400;
        mle.optimizer.restarts = 1;
        let cfg = MonteCarloConfig {
            theta_true: vec![1.0, 0.1],
            replicas: 6,
            seed: 100,
            mle,
        };
        let r = run_monte_carlo(&model, 225, gen_locations_2d, &cfg, &ExactBackend);
        assert_eq!(r.estimates.len(), 6);
        assert_eq!(r.boxplots.len(), 2);
        // medians near truth with generous tolerance at this tiny scale
        assert!(
            (r.boxplots[0].median - 1.0).abs() < 0.6,
            "{:?}",
            r.boxplots[0]
        );
        assert!(
            (r.boxplots[1].median - 0.1).abs() < 0.08,
            "{:?}",
            r.boxplots[1]
        );
    }

    #[test]
    fn replicas_are_deterministic_given_seed() {
        let model = SqExp::new2d();
        let mut mle = MleConfig::paper_defaults(2);
        mle.optimizer.tol = 1e-4;
        mle.optimizer.max_evals = 60;
        mle.optimizer.restarts = 0;
        let cfg = MonteCarloConfig {
            theta_true: vec![1.0, 0.1],
            replicas: 2,
            seed: 7,
            mle,
        };
        let a = run_monte_carlo(&model, 64, gen_locations_2d, &cfg, &ExactBackend);
        let b = run_monte_carlo(&model, 64, gen_locations_2d, &cfg, &ExactBackend);
        assert_eq!(a.estimates, b.estimates);
        // Paired design: replica r is a direct estimate on the locations
        // and field drawn from seed `seed + r`.
        for (r, got) in a.estimates.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(cfg.seed + r as u64);
            let locs = gen_locations_2d(64, &mut rng);
            let z = generate_field(&model, &locs, &cfg.theta_true, &mut rng);
            let want = estimate(&model, &locs, &z, &cfg.mle, &ExactBackend);
            assert_eq!(got, &want.theta_hat, "replica {r}");
        }
    }
}
