//! Extension experiment: push the paper's precision ladder one rung lower
//! with H100 FP8 (E4M3 inputs, FP32 accumulation) — the direction the
//! paper's conclusion ("further combine the strengths of mixed precisions")
//! points toward.
//!
//! Prints the Fig-1-style accuracy ladder including FP8, plus the modeled
//! H100 rate (FP8 tensor peak ≈ 2× FP16: 1513 Tflop/s on the PCIe part).
//!
//! Run: `cargo run --release -p mixedp-bench --bin ext_fp8_gemm`

use mixedp_bench::Args;
use mixedp_fp::{Precision, StoragePrecision};
use mixedp_gpusim::{kernel_time_s, GpuGeneration, SimKernel};
use mixedp_kernels::mp::gemm_tile_fp8;
use mixedp_kernels::{gemm_relative_error, gemm_tile_ws, Workspace};
use mixedp_tile::Tile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args = Args::parse();
    let nmax = args.get_usize("nmax", 512);
    let mut rng = StdRng::seed_from_u64(8);

    println!("=== Extension: FP8 (E4M3) GEMM accuracy vs the paper's formats ===\n");
    print!("{:>6}", "n");
    for lbl in ["FP32", "FP16_32", "FP16", "FP8_32"] {
        print!(" {lbl:>12}");
    }
    println!();
    let mut ws = Workspace::new();
    let mut n = 128;
    while n <= nmax {
        let a = Tile::from_f64(
            n,
            n,
            &(0..n * n)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect::<Vec<_>>(),
            StoragePrecision::F64,
        );
        let b = Tile::from_f64(
            n,
            n,
            &(0..n * n)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect::<Vec<_>>(),
            StoragePrecision::F64,
        );
        let mut c_ref = Tile::zeros(n, n, StoragePrecision::F64);
        gemm_tile_ws(Precision::Fp64, &a, &b, &mut c_ref, &mut ws, true);
        print!("{n:>6}");
        for p in [Precision::Fp32, Precision::Fp16x32, Precision::Fp16] {
            let mut c = Tile::zeros(n, n, StoragePrecision::F64);
            gemm_tile_ws(p, &a, &b, &mut c, &mut ws, true);
            print!(" {:>12.3e}", gemm_relative_error(&c, &c_ref));
        }
        let mut c8 = Tile::zeros(n, n, StoragePrecision::F64);
        gemm_tile_fp8(&a, &b, &mut c8);
        print!(" {:>12.3e}", gemm_relative_error(&c8, &c_ref));
        println!();
        n *= 2;
    }

    println!("\nexpected: FP8_32 one to two orders coarser than FP16_32 (4-bit");
    println!("mantissa inputs) but still FP32-accumulated, so errors stay flat in n.");

    // Modeled H100 rate: FP8 tensor ≈ 2× the FP16 peak (1513 Tflop/s PCIe).
    let h100 = GpuGeneration::H100.spec();
    let t16 = kernel_time_s(&h100, SimKernel::Gemm, Precision::Fp16, 8192);
    println!(
        "\nmodeled H100 8192³ GEMM: FP16 {:.1} Tflop/s; an FP8 mode at 2× the",
        2.0 * 8192f64.powi(3) / t16 / 1e12
    );
    println!("tensor rate would halve that time again while the adaptive rule keeps");
    println!("it off the accuracy-critical tiles — the framework extends unchanged:");
    println!("FP8 tiles store FP32 (TRSM limit) and ship 1-byte payloads under STC.");
}
