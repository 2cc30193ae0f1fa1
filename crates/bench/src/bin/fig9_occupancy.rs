//! Fig 9 reproduction: GPU occupancy over time on one H100 (Haxane) under
//! STC for the four configurations of Fig 8c.
//!
//! Run: `cargo run --release -p mixedp-bench --bin fig9_occupancy \
//!       [--nt=40] [--nb=2048] [--bins=40]`

use mixedp_bench::Args;
use mixedp_core::{simulate_cholesky, uniform_map, CholeskySimOptions, WirePolicy};
use mixedp_fp::Precision;
use mixedp_gpusim::{ClusterSpec, NodeSpec};

fn sparkline(vals: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    vals.iter()
        .map(|&v| BARS[((v.clamp(0.0, 1.0)) * 7.0).round() as usize])
        .collect()
}

fn main() {
    let args = Args::parse();
    let nt = args.get_usize("nt", 40);
    let nb = args.get_usize("nb", 2048);
    let bins = args.get_usize("bins", 40);

    let cluster = ClusterSpec::new(NodeSpec::haxane(), 1);
    println!(
        "Fig 9: GPU occupancy of one H100 (STC, matrix {} = NT {nt} x tile {nb})\n",
        nt * nb
    );
    for (label, p) in [
        ("FP64", Precision::Fp64),
        ("FP32", Precision::Fp32),
        ("FP64/FP16_32", Precision::Fp16x32),
        ("FP64/FP16", Precision::Fp16),
    ] {
        let rep = simulate_cholesky(
            &uniform_map(nt, p),
            &cluster,
            CholeskySimOptions {
                nb,
                strategy: WirePolicy::Auto,
            },
        );
        let series = rep.occupancy_series(0, bins);
        let mean = 100.0 * rep.occupancy();
        println!("{label:<14} mean {mean:5.1}%  {}", sparkline(&series));
    }
    println!("\npaper shape: FP64/FP32 routinely at 100% (transfers fully overlapped);");
    println!("FP64/FP16_32 and FP64/FP16 regularly above 80% (compute so fast that");
    println!("data staging starts to peek through).");
}
