//! The benchmark's workloads and the θ sequence each one evaluates.

use mixedp_bench::App;
use std::collections::HashSet;

/// Scheduler workers of every run (= `nproc` of the 2-core reference host).
pub const WORKERS: usize = 2;

/// The paper's box constraints on every covariance parameter.
pub const THETA_BOUNDS: (f64, f64) = (0.01, 2.0);

/// Timed passes over the θ sequence in an untraced run. Every θ is
/// evaluated once per pass, so each has as many timings as there are
/// passes, one pass length apart in time.
pub const PASSES: usize = 2;

/// Fewest θ per sequence: over all passes, enough timings for a tail
/// percentile with ten samples beyond it.
pub const MIN_EVALS: usize = 10;

/// How the factorization stage of an evaluation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// `factorize_mp_recovering` on the shared-memory scheduler — what
    /// `MpBackend::loglik_detailed` runs.
    Shared,
    /// `factorize_mp_distributed` on a 2×2 rank grid under
    /// `WirePolicy::Auto`, tiles narrowed to the map's storage first.
    Dist2x2,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub app: App,
    pub n: usize,
    pub nb: usize,
    pub u_req: f64,
    pub exec: Exec,
    /// Nominal seconds per evaluation on the 2-core reference host. It
    /// fixes the sequence length from `--seconds`, so a run does the same
    /// work on every commit and a faster program simply finishes sooner.
    pub nominal_eval_s: f64,
    /// Set-ups per untraced run; `setup_s` is their median. A cheap
    /// set-up gets more of them, because its time swings more.
    pub setup_reps: usize,
    /// Accuracy of the distributed probe the traced run adds, if any.
    pub wire_probe_u_req: Option<f64>,
    /// The θ path of a full MLE fit on this workload's data, as
    /// `examples/theta_path.rs` records it: one evaluation per line, θ
    /// components first.
    pub fit_path: &'static str,
}

/// `matern-1e9`: the paper's Matérn threshold; ~85–90% FP64 map, one
/// attempt per evaluation, generation (Bessel) 30–60% of the time. Its
/// traced run also carries the distributed probe (see [`Workload::wire_probe`]).
/// `sqexp-1e4`: the paper's sqexp threshold; time goes to repeated
/// low-precision factorization attempts (escalation), generation < 1%.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "matern-1e9",
        app: App::Matern2d,
        n: 2048,
        nb: 128,
        u_req: 1e-9,
        exec: Exec::Shared,
        nominal_eval_s: 1.0,
        setup_reps: 5,
        wire_probe_u_req: Some(1e-6),
        fit_path: include_str!("paths/matern-1e9.txt"),
    },
    Workload {
        name: "sqexp-1e4",
        app: App::SqExp2d,
        n: 1024,
        nb: 128,
        u_req: 1e-4,
        exec: Exec::Shared,
        nominal_eval_s: 1.8,
        setup_reps: 11,
        wire_probe_u_req: None,
        fit_path: include_str!("paths/sqexp-1e4.txt"),
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// `dist2x2-matern-1e6`: the workload's data at the probe accuracy on a
    /// 2×2 grid with the Auto wire — the only path through `core::wire` and
    /// the distributed executor (~82% FP32 map at 1e-6, so sender-side
    /// conversion has real work). Its timings swing too much with host
    /// load to carry an end-to-end bound, so only the traced run uses it.
    pub fn wire_probe(&self) -> Option<Workload> {
        self.wire_probe_u_req.map(|u_req| Workload {
            name: "dist2x2-matern-1e6",
            u_req,
            exec: Exec::Dist2x2,
            wire_probe_u_req: None,
            ..*self
        })
    }

    /// The same workload at test size (n = 512, nb = 64: an 8×8 tile grid).
    pub fn quick(self) -> Workload {
        Workload {
            n: 512,
            nb: 64,
            nominal_eval_s: f64::INFINITY,
            ..self
        }
    }

    /// Largest relative log-likelihood error against `ExactBackend` that
    /// still counts as a correct evaluation: two orders of magnitude of
    /// slack over the requested accuracy.
    pub fn tolerance(&self) -> f64 {
        100.0 * self.u_req
    }

    /// θ per sequence: `seconds` worth of evaluations over all
    /// [`PASSES`] at the nominal rate, at least `min_evals`.
    pub fn sequence_len(&self, seconds: u64, min_evals: usize) -> usize {
        let nominal = (seconds as f64 / (PASSES as f64 * self.nominal_eval_s)).ceil();
        (nominal as usize).max(min_evals)
    }

    /// The distinct θ of the recorded fit path, in evaluation order.
    pub fn fit_thetas(&self) -> Vec<Vec<f64>> {
        let d = self.app.theta().len();
        let mut seen = HashSet::new();
        self.fit_path
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                l.split_whitespace()
                    .take(d)
                    .map(|x| {
                        let v: f64 = x.parse().expect("θ component of the fit path");
                        v.clamp(THETA_BOUNDS.0, THETA_BOUNDS.1)
                    })
                    .collect::<Vec<f64>>()
            })
            .filter(|t| seen.insert(t.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()))
            .collect()
    }
}

/// `len` distinct θ drawn from a recorded fit `path`.
///
/// A centred systematic sample: the path is cut into `len` equal runs of
/// consecutive evaluations and the middle θ of each is taken. Each phase
/// of the fit (the box presample, the simplex descent, the restarts near
/// the optimum) thus keeps its share of the sequence. The sample does not
/// depend on the seed, which draws the data: one θ of the presample can
/// cost ten times another, so a seed-drawn sample would make runs with
/// different seeds do different amounts of work. The path holds no
/// repeats, so neither does the sequence and a Σ(θ) cache cannot hit.
pub fn theta_sequence(path: &[Vec<f64>], len: usize) -> Vec<Vec<f64>> {
    assert!(
        len <= path.len(),
        "{len} evaluations asked of a fit path of {}",
        path.len()
    );
    let step = path.len() as f64 / len as f64;
    (0..len)
        .map(|k| path[((k as f64 + 0.5) * step) as usize].clone())
        .collect()
}
