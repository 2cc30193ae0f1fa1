//! Records the θ path of an MLE fit on a workload's data: every θ that
//! `geostats::mle::estimate` with `MleConfig::paper_defaults` evaluates,
//! through the workload's `MpBackend`, in evaluation order.
//!
//! ```text
//! cargo run --release --example theta_path --manifest-path likbench/Cargo.toml -- \
//!     <workload> <seed> [evaluations] > path.txt
//! ```
//!
//! With `evaluations` the recording stops after that many evaluations of
//! the fit; otherwise it runs until the optimizer stops. Standard output
//! gets one line per evaluation: the θ components, the log-likelihood
//! (`None` for a failed evaluation) and the seconds it took. Standard error
//! gets the share of evaluations whose every component lies within ±30% of
//! θ_true, and the fit's result if it ran to the end. The benchmark's θ
//! sequences replay a sample of such a path (`src/paths/`).

use likbench::run::setup;
use likbench::workload::{Workload, WORKERS};
use mixedp_core::MpBackend;
use mixedp_geostats::mle::{estimate, MleConfig};
use mixedp_geostats::{CovarianceModel, Location, LoglikBackend};
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Forwards to `MpBackend` and prints each evaluation as it ends.
struct Recording {
    name: &'static str,
    inner: MpBackend,
    theta_true: Vec<f64>,
    limit: usize,
    path: Mutex<Vec<Vec<f64>>>,
}

impl Recording {
    /// The share of the recorded evaluations near θ_true, on standard error.
    fn summary(&self) {
        let path = self.path.lock().expect("path lock");
        let near = path
            .iter()
            .filter(|t| {
                t.iter()
                    .zip(&self.theta_true)
                    .all(|(x, truth)| (x / truth - 1.0).abs() <= 0.3)
            })
            .count();
        eprintln!(
            "{}: {} evaluations, {near} ({:.1}%) within ±30% of θ_true={:?}",
            self.name,
            path.len(),
            100.0 * near as f64 / path.len() as f64,
            self.theta_true,
        );
    }
}

impl LoglikBackend for Recording {
    fn loglik(
        &self,
        model: &dyn CovarianceModel,
        locs: &[Location],
        theta: &[f64],
        z: &[f64],
    ) -> Option<f64> {
        if self.path.lock().expect("path lock").len() == self.limit {
            self.summary();
            std::process::exit(0);
        }
        let t = Instant::now();
        let ll = self.inner.loglik(model, locs, theta, z);
        let secs = t.elapsed().as_secs_f64();
        let cols: Vec<String> = theta.iter().map(|x| format!("{x:e}")).collect();
        let ll_col = ll.map_or("None".to_string(), |v| format!("{v:e}"));
        let mut out = std::io::stdout().lock();
        writeln!(out, "{} {ll_col} {secs:.4}", cols.join(" ")).expect("write stdout");
        out.flush().expect("flush stdout");
        self.path.lock().expect("path lock").push(theta.to_vec());
        ll
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: theta_path <workload> <seed> [evaluations]";
    let w = Workload::find(args.first().expect(usage)).expect("unknown workload");
    let seed: u64 = args.get(1).expect(usage).parse().expect(usage);
    let limit = args.get(2).map_or(usize::MAX, |m| m.parse().expect(usage));
    let d = setup(&w, seed);
    let cfg = MleConfig::paper_defaults(d.theta_true.len());
    let backend = Recording {
        name: w.name,
        inner: MpBackend::new(w.u_req, w.nb, WORKERS),
        theta_true: d.theta_true.clone(),
        limit,
        path: Mutex::new(Vec::new()),
    };
    let fit = estimate(d.model.as_ref(), &d.locs, &d.z, &cfg, &backend);
    backend.summary();
    eprintln!(
        "fit ended: converged={}, θ̂={:?}, ℓ̂={:e}",
        fit.converged, fit.theta_hat, fit.loglik
    );
}
