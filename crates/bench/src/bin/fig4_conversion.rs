//! Fig 4 reproduction: the automated precision-conversion plan — which
//! tiles use STC, and the communication precision of each broadcast — plus
//! the §VII-A claim that Algorithm 2 costs < 0.1 s at experiment scale.
//!
//! Run: `cargo run --release -p mixedp-bench --bin fig4_conversion \
//!       [--n=4096] [--nb=512] [--acc=1e-8] [--time-nt=400]`

use mixedp_bench::Args;
use mixedp_core::conversion::plan_conversions;
use mixedp_core::PrecisionMap;
use mixedp_fp::Precision;
use mixedp_geostats::covariance::covariance_entry;
use mixedp_geostats::{gen_locations_2d, Matern2d};
use mixedp_tile::{tile_fro_norms, SymmTileMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let n = args.get_usize("n", 4096);
    let nb = args.get_usize("nb", 512);
    let acc = args.get_f64("acc", 1e-8);
    let time_nt = args.get_usize("time-nt", 400);

    let mut rng = StdRng::seed_from_u64(2);
    let locs = gen_locations_2d(n, &mut rng);
    let model = Matern2d;
    let theta = [1.0, 0.1, 0.5];
    let a = SymmTileMatrix::from_fn(
        n,
        nb,
        |i, j| covariance_entry(&model, &locs, i, j, &theta),
        |_, _| mixedp_fp::StoragePrecision::F64,
    );
    let pmap = PrecisionMap::from_norms(&tile_fro_norms(&a), acc, &Precision::ADAPTIVE_SET);
    let plan = plan_conversions(&pmap);

    println!("Fig 4: communication precision per tile; [x] = STC (sender converts once)");
    println!("legend: 8=FP64  4=FP32  q=FP16\n");
    println!("{}", plan.render());
    let total = pmap.nt() * (pmap.nt() + 1) / 2;
    println!(
        "STC tiles: {} of {} ({:.0}%)",
        plan.stc_count(),
        total,
        100.0 * plan.stc_count() as f64 / total as f64
    );

    // §VII-A: "The execution time of Algorithm 2 is less than 0.1 seconds
    // in all experiments" — time it at Summit scale (matrix 798,720 / tile
    // 2048 → NT = 390; we default to NT = 400).
    println!("\nAlgorithm 2 cost at NT={time_nt} (Summit-scale):");
    let big = PrecisionMap::from_fn(time_nt, |i, j| match (i + 3 * j) % 4 {
        0 => Precision::Fp64,
        1 => Precision::Fp32,
        2 => Precision::Fp16x32,
        _ => Precision::Fp16,
    });
    let t0 = Instant::now();
    plan_conversions(&big);
    let t_seq = t0.elapsed().as_secs_f64();
    println!("  sequential: {t_seq:.4} s   (paper claims < 0.1 s) ");
    assert!(
        t_seq < 0.1,
        "Algorithm 2 exceeded the paper's 0.1 s bound: {t_seq}"
    );
}
