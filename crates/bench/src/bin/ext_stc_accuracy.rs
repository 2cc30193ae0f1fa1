//! Extension experiment: the *numerical* cost of the conversion policies.
//!
//! Paper §VI argues that "consistently downgrading to the lowest precision
//! could further reduce GPU data transfer, but it might also unnecessarily
//! compromise the accuracy" — the justification for the automated plan.
//! This experiment quantifies that claim with the distributed numerical
//! mode, where cross-rank payloads are genuinely wire-quantized: for each
//! application, factor on a 2×2 rank grid under TTC (lossless wire), the
//! automated plan, and the always-FP16 strawman, and report bytes shipped
//! vs factorization error.
//!
//! With `--fault-seed` (plus `--wire-drop-rate` / `--wire-garble-rate`)
//! the run goes through the fault-tolerant wire: payloads are
//! deterministically dropped or garbled, recovered by bounded retransmit,
//! and the recovery traffic is reported next to the policy numbers.
//!
//! Run: `cargo run --release -p mixedp-bench --bin ext_stc_accuracy \
//!       [--n=768] [--nb=96] [--fault-seed=42 --wire-drop-rate=0.1 \
//!        --wire-garble-rate=0.05 --max-retransmits=8]`

use mixedp_bench::{App, Args};
use mixedp_core::PrecisionMap;
use mixedp_core::{factorize_mp_distributed_ft, DistError, WirePolicy};
use mixedp_fp::{Precision, StoragePrecision};
use mixedp_geostats::covariance::covariance_entry;
use mixedp_kernels::reconstruction_error;
use mixedp_runtime::{FaultPlan, RetryPolicy};
use mixedp_tile::{tile_fro_norms, Grid2d, SymmTileMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let n = args.get_usize("n", 768);
    let nb = args.get_usize("nb", 96);
    let grid = Grid2d::new(2, 2);
    let fault_seed = args.get_usize("fault-seed", 0) as u64;
    let drop_rate = args.get_f64("wire-drop-rate", 0.0);
    let garble_rate = args.get_f64("wire-garble-rate", 0.0);
    let faults = FaultPlan::seeded(fault_seed)
        .with_wire_drop_rate(drop_rate)
        .with_wire_garble_rate(garble_rate);
    let retry = RetryPolicy::default()
        .with_max_attempts(args.get_usize("max-retransmits", 8) as u32)
        .with_backoff_base_ns(1_000);

    println!(
        "Numerical cost of wire policies (distributed mode, {}x{} ranks, n={n}, nb={nb})",
        grid.p(),
        grid.q()
    );
    if faults.is_noop() {
        println!();
    } else {
        println!(
            "wire faults: seed {fault_seed}, drop rate {drop_rate}, garble rate {garble_rate}, \
             <= {} transmissions per payload\n",
            retry.max_attempts
        );
    }
    println!(
        "{:<12} {:>10} {:>12} {:>14} {:>14} {:>14} {:>12}",
        "app", "policy", "wire MB", "vs TTC bytes", "vs naive wire", "‖A-LLᵀ‖/‖A‖", "msgs"
    );
    for app in App::ALL {
        let mut rng = StdRng::seed_from_u64(17);
        let locs = app.locations(n, &mut rng);
        let model = app.model();
        // weak correlation so (a) the ill-conditioned sqexp stays SPD at
        // this scale and (b) the map has FP16-class tiles for the policies
        // to differ on
        let mut theta = app.theta();
        theta[1] = if app == App::SqExp2d { 0.005 } else { 0.03 };
        let a0 = SymmTileMatrix::from_fn(
            n,
            nb,
            |i, j| covariance_entry(model.as_ref(), &locs, i, j, &theta),
            |_, _| StoragePrecision::F64,
        );
        let dense = a0.to_dense_symmetric();
        // a loose threshold so the maps contain FP16-class tiles (the
        // experiment compares *policies*, not the per-application
        // thresholds — those are Figs 5-7's subject). The 2D squared
        // exponential is too ill-conditioned at this scale for 1e-4 (see
        // EXPERIMENTS.md on Fig 5) and gets a tighter one.
        let u_req = 1e-4;
        let pmap = PrecisionMap::from_norms(&tile_fro_norms(&a0), u_req, &Precision::ADAPTIVE_SET);
        for policy in [WirePolicy::Ttc, WirePolicy::Auto, WirePolicy::AlwaysLowest] {
            let mut a = a0.clone();
            match factorize_mp_distributed_ft(&mut a, &pmap, &grid, policy, &faults, &retry) {
                Ok(stats) => {
                    let err = reconstruction_error(&dense, &a.to_dense_lower());
                    let recovery = if faults.is_noop() {
                        String::new()
                    } else {
                        format!(
                            "   dropped {} garbled {} retransmits {} backoff {:.1}us",
                            stats.dropped,
                            stats.garbled,
                            stats.retransmits,
                            stats.backoff_ns as f64 / 1e3
                        )
                    };
                    println!(
                        "{:<12} {:>10} {:>12.2} {:>13.0}% {:>13.0}% {:>14.2e} {:>12}{recovery}",
                        app.label(),
                        format!("{policy:?}"),
                        stats.wire_bytes as f64 / 1e6,
                        // packed payloads vs the rank-deduplicated TTC baseline
                        100.0 * stats.payload_bytes as f64 / stats.ttc_bytes.max(1) as f64,
                        // framed buffers vs the naive per-consumer-fetch wire
                        100.0 * stats.wire_bytes as f64 / stats.consumer_ttc_bytes.max(1) as f64,
                        err,
                        stats.messages
                    );
                }
                Err(e @ DistError::WireFailed { .. }) => {
                    println!(
                        "{:<12} {:>10} {:>12} {:>14} {:>14} {:>14} {:>12}   {e}",
                        app.label(),
                        format!("{policy:?}"),
                        "-",
                        "-",
                        "-",
                        "WIRE FAILED",
                        "-"
                    );
                }
                Err(DistError::NotSpd(_)) => {
                    println!(
                        "{:<12} {:>10} {:>12} {:>14} {:>14} {:>14} {:>12}",
                        app.label(),
                        format!("{policy:?}"),
                        "-",
                        "-",
                        "-",
                        "NOT SPD",
                        "-"
                    );
                }
            }
        }
        println!();
    }
    println!("expected: Auto ships fewer bytes than TTC at (near-)TTC accuracy;");
    println!("AlwaysLowest ships the least but visibly compromises the error — or");
    println!("destroys positive definiteness outright — the paper's §VI warning.");
}
