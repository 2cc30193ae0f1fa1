//! Kernel performance snapshot: emits `BENCH_kernels.json` so successive
//! changes can track the perf trajectory of the dense data path.
//!
//! Measures, on raw row-major buffers:
//!   * cache-blocked `gemm_nt_f64` vs the naive `reference_gemm_nt_f64`
//!     (GFLOP/s each, plus the speedup ratio),
//!   * cache-blocked `syrk_ln_f64` vs its reference,
//!   * blocked `potrf_blocked_f64`,
//!   * the tile-path `gemm_tile_ws` per reduced kernel precision on one
//!     128 × 128 tile (FP32, FP16_32, and the f32-emulated pure FP16),
//!
//! and, on the tile path, the steady-state workspace reallocation count per
//! task (the allocation-free invariant: must be 0 after warmup).
//!
//! Run: `cargo run --release -p mixedp-bench --bin bench_kernels`
//! Options: `--n=256 --reps=7 --out=BENCH_kernels.json`

use mixedp_bench::timing::{median_secs, pseudo};
use mixedp_bench::Args;
use mixedp_core::wire::{pack_tile_into, quantize_through_wire, reference_through_wire, Packing};
use mixedp_fp::{CommPrecision, Precision, StoragePrecision};
use mixedp_kernels::{
    blas, gemm_tile_ws, potrf_blocked_f64, potrf_f64, reference_gemm_nt_f64, reference_syrk_ln_f64,
    Workspace,
};
use mixedp_tile::Tile;

struct Entry {
    name: &'static str,
    gflops: f64,
    secs: f64,
}

fn main() {
    let args = Args::parse();
    let n = args.get_usize("n", 256);
    let reps = args.get_usize("reps", 7);
    let out = args.get_str("out", "BENCH_kernels.json");

    let a = pseudo(n * n, 1);
    let b = pseudo(n * n, 2);
    let c0 = pseudo(n * n, 3);
    let mut c = c0.clone();

    let mut entries: Vec<Entry> = Vec::new();
    let mut push = |name, flops: f64, secs: f64| {
        let gflops = flops / secs / 1e9;
        println!("{name:<24} {secs:>10.6} s   {gflops:>8.2} GFLOP/s");
        entries.push(Entry { name, gflops, secs });
    };

    let gemm_flops = 2.0 * (n * n * n) as f64;
    let t = median_secs(reps, || {
        c.copy_from_slice(&c0);
        blas::gemm_nt_f64(&a, &b, &mut c, n, n, n);
    });
    push("gemm_nt_f64_blocked", gemm_flops, t);
    let t_blk = t;

    let t = median_secs(reps, || {
        c.copy_from_slice(&c0);
        reference_gemm_nt_f64(&a, &b, &mut c, n, n, n);
    });
    push("gemm_nt_f64_reference", gemm_flops, t);
    let gemm_speedup = t / t_blk;

    let syrk_flops = (n * (n + 1) * n) as f64;
    let t = median_secs(reps, || {
        c.copy_from_slice(&c0);
        blas::syrk_ln_f64(&a, n, n, &mut c);
    });
    push("syrk_ln_f64_blocked", syrk_flops, t);
    let t_syrk = t;
    let t = median_secs(reps, || {
        c.copy_from_slice(&c0);
        reference_syrk_ln_f64(&a, n, n, &mut c);
    });
    push("syrk_ln_f64_reference", syrk_flops, t);
    let syrk_speedup = t / t_syrk;

    // SPD matrix for the factorizations.
    let mut spd = pseudo(n * n, 4);
    for i in 0..n {
        for j in 0..i {
            let v = 0.5 * (spd[i * n + j] + spd[j * n + i]);
            spd[i * n + j] = v;
            spd[j * n + i] = v;
        }
        spd[i * n + i] += n as f64;
    }
    let potrf_flops = (n * n * n) as f64 / 3.0;
    let mut w = spd.clone();
    let t = median_secs(reps, || {
        w.copy_from_slice(&spd);
        potrf_blocked_f64(&mut w, n, 64).unwrap();
    });
    push("potrf_f64_blocked", potrf_flops, t);
    let t = median_secs(reps, || {
        w.copy_from_slice(&spd);
        potrf_f64(&mut w, n).unwrap();
    });
    push("potrf_f64_reference", potrf_flops, t);

    // Tile-path GEMM per kernel precision on one `nb × nb` tile (the
    // likelihood benchmark's tile size), serial, C stored in F32 as the
    // precision map stores every reduced-precision tile: operand
    // quantization, staging and the emulated arithmetic included.
    let nb = 128.min(n);
    let tile_flops = 2.0 * (nb * nb * nb) as f64;
    let ta = Tile::from_f64(nb, nb, &a[..nb * nb], StoragePrecision::F64);
    let tb = Tile::from_f64(nb, nb, &b[..nb * nb], StoragePrecision::F64);
    let tc0 = Tile::from_f64(nb, nb, &c0[..nb * nb], StoragePrecision::F32);
    let mut ws = Workspace::new();
    for (name, p) in [
        ("gemm_tile_fp32", Precision::Fp32),
        ("gemm_tile_fp16x32", Precision::Fp16x32),
        ("gemm_tile_fp16", Precision::Fp16),
    ] {
        let mut tc = tc0.clone();
        let t = median_secs(reps, || {
            tc.clone_from(&tc0);
            gemm_tile_ws(p, &ta, &tb, &mut tc, &mut ws, false);
        });
        push(name, tile_flops, t);
    }

    // Allocation-free steady state: workspace grow events per task after the
    // first (warmup) task of each shape, on the tile GEMM path.
    let ta = Tile::from_f64(n, n, &a, StoragePrecision::F64);
    let tb = Tile::from_f64(n, n, &b, StoragePrecision::F64);
    let mut ws = Workspace::new();
    let mut tc = Tile::from_f64(n, n, &c0, StoragePrecision::F64);
    gemm_tile_ws(Precision::Fp32, &ta, &tb, &mut tc, &mut ws, false);
    let warm = ws.grow_events();
    let tasks = 32u64;
    for _ in 0..tasks {
        gemm_tile_ws(Precision::Fp32, &ta, &tb, &mut tc, &mut ws, false);
    }
    let allocs_per_task = (ws.grow_events() - warm) as f64 / tasks as f64;
    println!("steady-state workspace reallocations per task: {allocs_per_task}");
    println!("gemm blocked-vs-reference speedup: {gemm_speedup:.2}x");
    println!("syrk blocked-vs-reference speedup: {syrk_speedup:.2}x");

    // Conversion / pack throughput: the wire engine's fused one-pass
    // quantization vs the old two-pass (narrow Tile then widen) route, plus
    // the fused convert-and-pack itself, per wire precision.
    let elems = (n * n) as f64;
    let conv_src = Tile::from_f64(n, n, &a, StoragePrecision::F64);
    let mut conv_rows: Vec<(&'static str, f64, f64, f64)> = Vec::new();
    for (wname, wire) in [
        ("fp16", CommPrecision::Fp16),
        ("fp32", CommPrecision::Fp32),
        ("fp64", CommPrecision::Fp64),
    ] {
        let mut sink = Tile::zeros(1, 1, StoragePrecision::F64);
        let t_fused = median_secs(reps, || {
            sink = quantize_through_wire(&conv_src, wire);
        });
        let t_two = median_secs(reps, || {
            sink = reference_through_wire(&conv_src, wire);
        });
        let mut buf = Vec::new();
        let t_pack = median_secs(reps, || {
            buf.clear();
            pack_tile_into(&conv_src, wire, Packing::Full, &mut buf);
        });
        let row = (
            wname,
            elems / t_fused / 1e6,
            elems / t_two / 1e6,
            elems / t_pack / 1e6,
        );
        println!(
            "convert {wname}: fused {:.1} Melem/s, two-pass {:.1} Melem/s, pack {:.1} Melem/s",
            row.1, row.2, row.3
        );
        conv_rows.push(row);
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"n\": {n},\n  \"reps\": {reps},\n"));
    json.push_str("  \"kernels\": {\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{}\": {{\"gflops\": {:.4}, \"seconds\": {:.6}}}{}\n",
            e.name, e.gflops, e.secs, comma
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"gemm_speedup_vs_reference\": {gemm_speedup:.3},\n"
    ));
    json.push_str(&format!(
        "  \"syrk_speedup_vs_reference\": {syrk_speedup:.3},\n"
    ));
    json.push_str(&format!(
        "  \"workspace_reallocs_per_task\": {allocs_per_task},\n"
    ));
    json.push_str("  \"conversion\": {\n");
    for (i, (wname, fused, two, pack)) in conv_rows.iter().enumerate() {
        let comma = if i + 1 == conv_rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{wname}\": {{\"fused_melems\": {fused:.2}, \"two_pass_melems\": {two:.2}, \"pack_melems\": {pack:.2}}}{comma}\n"
        ));
    }
    json.push_str("  }\n");
    json.push_str("}\n");
    std::fs::write(&out, json).expect("write BENCH_kernels.json");
    println!("wrote {out}");
}
