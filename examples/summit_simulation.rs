//! Simulate the paper's Summit campaign end to end: pick a matrix size,
//! derive an application precision map, plan conversions, and replay the
//! Cholesky DAG on the calibrated cluster simulator — reporting time,
//! sustained Tflop/s, data motion, conversions, energy, and the STC/TTC
//! comparison, from one V100 up to multiple nodes.
//!
//! Run: `cargo run --release --example summit_simulation [-- --nt=60 --nodes=4]`

use mixedp::core::report::summarize;
use mixedp::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |key: &str, default: usize| {
        args.iter()
            .find_map(|a| a.strip_prefix(&format!("--{key}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let nt = get("nt", 60);
    let nodes = get("nodes", 4);
    let nb = 2048;

    println!(
        "simulated Summit: {nodes} node(s) x 6 V100 | matrix {} (NT {nt}, tile {nb})\n",
        nt * nb
    );
    let cluster = ClusterSpec::summit(nodes);

    for (label, pmap) in [
        ("FP64 (baseline)", uniform_map(nt, Precision::Fp64)),
        ("FP64/FP16_32", uniform_map(nt, Precision::Fp16x32)),
        ("FP64/FP16", uniform_map(nt, Precision::Fp16)),
    ] {
        println!("--- {label} ---");
        for (sname, strategy) in [("TTC", WirePolicy::Ttc), ("auto (STC)", WirePolicy::Auto)] {
            let rep = simulate_cholesky(&pmap, &cluster, CholeskySimOptions { nb, strategy });
            println!("  {sname:<11} {}", summarize(&rep));
        }
        println!();
    }
    println!("expected: the automated plan beats all-TTC wherever FP16-class tiles");
    println!("exist (smaller payloads + one conversion per sender), and FP64/FP16");
    println!("delivers the paper's multi-fold speedup over FP64.");
}
