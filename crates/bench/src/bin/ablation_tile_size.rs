//! Ablation: tile size (paper §VII-A — "the optimized tile size is
//! determined empirically and set to 2048").
//!
//! Sweeps `nb` at a fixed matrix size on one V100 for FP64 and FP64/FP16
//! and reports the simulated rate: small tiles lose to per-kernel overhead
//! and low per-tile efficiency, huge tiles lose parallelism (too few tasks
//! for the unit classes to overlap) and transfer granularity.
//!
//! Run: `cargo run --release -p mixedp-bench --bin ablation_tile_size \
//!       [--matrix=98304]`

use mixedp_bench::Args;
use mixedp_core::{simulate_cholesky, uniform_map, CholeskySimOptions, WirePolicy};
use mixedp_fp::Precision;
use mixedp_gpusim::{ClusterSpec, NodeSpec};

fn main() {
    let args = Args::parse();
    let matrix = args.get_usize("matrix", 98_304);
    let cluster = ClusterSpec::new(NodeSpec::summit().single_gpu(), 1);

    println!("Tile-size ablation on one V100, matrix {matrix} (simulated)\n");
    println!(
        "{:>6} {:>5} {:>12} {:>14} {:>14}",
        "nb", "NT", "FP64 Tf/s", "F64/F16 Tf/s", "F64/F16 conv"
    );
    for nb in [512usize, 1024, 2048, 4096, 8192] {
        let nt = matrix / nb;
        if nt < 4 {
            continue;
        }
        let run = |p: Precision| {
            simulate_cholesky(
                &uniform_map(nt, p),
                &cluster,
                CholeskySimOptions {
                    nb,
                    strategy: WirePolicy::Auto,
                },
            )
        };
        let f64r = run(Precision::Fp64);
        let f16r = run(Precision::Fp16);
        println!(
            "{nb:>6} {nt:>5} {:>12.2} {:>14.2} {:>14}",
            f64r.tflops(),
            f16r.tflops(),
            f16r.conversions
        );
    }
    println!("\nexpected: a sweet spot near nb = 2048 for the FP16 configuration —");
    println!("the paper's empirical choice. FP64 is less sensitive (compute-bound");
    println!("at every granularity).");
}
