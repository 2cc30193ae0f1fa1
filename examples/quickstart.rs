//! Quickstart: build a geospatial covariance matrix, pick an adaptive
//! precision map, plan conversions, factorize in mixed precision, and
//! compare the factor against full FP64.
//!
//! Run: `cargo run --release --example quickstart`

use mixedp::kernels::reconstruction_error;
use mixedp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // --- a synthetic 2D Matérn dataset (temperature-field-like) ---
    let n = 512;
    let nb = 64;
    let mut rng = StdRng::seed_from_u64(2024);
    let locs = gen_locations_2d(n, &mut rng);
    let model = Matern2d;
    let theta = [1.0, 0.1, 0.5]; // variance, range, smoothness

    println!("building Σ(θ) for {n} locations (tile size {nb})...");
    let sigma = SymmTileMatrix::from_fn(
        n,
        nb,
        |i, j| covariance_entry(&model, &locs, i, j, &theta),
        |_, _| StoragePrecision::F64,
    );
    let dense = sigma.to_dense_symmetric();

    // --- adaptive precision selection (paper §V) ---
    let norms = tile_fro_norms(&sigma);
    for accuracy in [1e-12, 1e-9, 1e-4] {
        let pmap = PrecisionMap::from_norms(&norms, accuracy, &Precision::ADAPTIVE_SET);
        let plan = plan_conversions(&pmap);

        let mut a = sigma.clone();
        let stats = factorize(&mut a, &pmap, &FactorOptions::single_shot(2)).expect("SPD");
        let err = reconstruction_error(&dense, &a.to_dense_lower());

        let pct: Vec<String> = pmap
            .percentages()
            .iter()
            .map(|(p, f)| format!("{} {:.0}%", p.label(), f))
            .collect();
        println!(
            "\nu_req = {accuracy:>6.0e}:  ‖A − LLᵀ‖/‖A‖ = {err:.2e}   ({} tasks in {:.2}s)",
            stats.tasks_run, stats.wall_s
        );
        println!("  tiles: {}", pct.join(", "));
        println!(
            "  storage: {:.1} MB vs {:.1} MB FP64  |  STC senders: {}",
            stats.storage_bytes_mp as f64 / 1e6,
            stats.storage_bytes_fp64 as f64 / 1e6,
            plan.stc_count(),
        );
    }
    println!("\nThe factorization error tracks the requested accuracy while the");
    println!("storage (and, on GPUs, the data motion) shrinks — the paper's trade.");
}
