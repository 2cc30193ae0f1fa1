//! Fig 8 reproduction: Cholesky performance of the two conversion
//! strategies (STC vs TTC) on one GPU (V100 / A100 / H100), under the
//! FP64/FP16_32 and FP64/FP16 extreme configurations, plus the FP64 and
//! FP32 baselines — simulated on the calibrated DES.
//!
//! Run: `cargo run --release -p mixedp-bench --bin fig8_stc_ttc \
//!       [--max-nt=40] [--nb=2048]`

use mixedp_bench::Args;
use mixedp_core::{simulate_cholesky, uniform_map, CholeskySimOptions, WirePolicy};
use mixedp_fp::Precision;
use mixedp_gpusim::{ClusterSpec, GpuGeneration, NodeSpec};

fn main() {
    let args = Args::parse();
    let max_nt = args.get_usize("max-nt", 40);
    let nb = args.get_usize("nb", 2048);

    for g in GpuGeneration::ALL {
        let mut node = match g {
            GpuGeneration::V100 => NodeSpec::summit(),
            GpuGeneration::A100 => NodeSpec::guyot(),
            GpuGeneration::H100 => NodeSpec::haxane(),
        };
        node.gpus = 1;
        let cluster = ClusterSpec::new(node, 1);
        let spec = g.spec();
        println!("=== Fig 8, one {} ===", g.label());
        println!(
            "peaks: FP64 {} / FP32 {} / FP16 {} Tflop/s\n",
            spec.peak_tflops(Precision::Fp64),
            spec.peak_tflops(Precision::Fp32),
            spec.peak_tflops(Precision::Fp16),
        );
        println!(
            "{:>8} {:>9} {:>9} {:>11} {:>11} {:>9} {:>9} {:>9}",
            "matrix", "FP64", "FP32", "F64/F16_32", "F64/F16_32", "F64/F16", "F64/F16", "best"
        );
        println!(
            "{:>8} {:>9} {:>9} {:>11} {:>11} {:>9} {:>9} {:>9}",
            "", "(Tf/s)", "(Tf/s)", "TTC", "STC", "TTC", "STC", "STCvsTTC"
        );

        let mut nt = 8;
        while nt <= max_nt {
            let n = nt * nb;
            let run = |p: Precision, s: WirePolicy| {
                simulate_cholesky(
                    &uniform_map(nt, p),
                    &cluster,
                    CholeskySimOptions { nb, strategy: s },
                )
                .tflops()
            };
            let fp64 = run(Precision::Fp64, WirePolicy::Ttc);
            let fp32 = run(Precision::Fp32, WirePolicy::Ttc);
            let h32_ttc = run(Precision::Fp16x32, WirePolicy::Ttc);
            let h32_stc = run(Precision::Fp16x32, WirePolicy::Auto);
            let h16_ttc = run(Precision::Fp16, WirePolicy::Ttc);
            let h16_stc = run(Precision::Fp16, WirePolicy::Auto);
            let best_speedup = (h32_stc / h32_ttc).max(h16_stc / h16_ttc);
            println!(
                "{n:>8} {fp64:>9.2} {fp32:>9.2} {h32_ttc:>11.2} {h32_stc:>11.2} {h16_ttc:>9.2} {h16_stc:>9.2} {best_speedup:>8.2}x"
            );
            nt += 8;
        }
        // efficiency + headline numbers at the largest size
        let nt = max_nt;
        let fp64 = simulate_cholesky(
            &uniform_map(nt, Precision::Fp64),
            &cluster,
            CholeskySimOptions {
                nb,
                strategy: WirePolicy::Auto,
            },
        )
        .tflops();
        let fp16 = simulate_cholesky(
            &uniform_map(nt, Precision::Fp16),
            &cluster,
            CholeskySimOptions {
                nb,
                strategy: WirePolicy::Auto,
            },
        )
        .tflops();
        println!(
            "\nFP64 efficiency at n={}: {:.1}% of peak | FP64→FP64/FP16 speedup: {:.1}x\n",
            nt * nb,
            100.0 * fp64 / spec.peak_tflops(Precision::Fp64),
            fp16 / fp64
        );
    }
    println!("paper shape: FP64 ≥84%/85%/~62% of peak on V100/A100/H100; STC over");
    println!("TTC up to 1.3x/1.41x/1.27x; FP64→FP64/FP16 ~11x (V100/A100), ~4.7x (H100,");
    println!("size capped by Haxane's 63 GB host memory).");
}
