//! Kernel performance snapshot: emits `BENCH_kernels.json` so successive
//! changes can track the perf trajectory of the dense data path.
//!
//! Measures, on raw row-major buffers:
//!   * packed `gemm_nt_f64` vs the naive `oracle::reference_gemm_nt_f64`
//!     (GFLOP/s each, plus the speedup ratio),
//!   * packed `syrk_ln_f64` and `trsm_rlt_f64` vs their oracles,
//!   * blocked `potrf_blocked_f64`,
//!   * the tile-path `gemm_tile_ws` per kernel precision on one 128 × 128
//!     tile (FP64, FP32, FP16_32, and the f32-emulated pure FP16),
//!   * one-worker factorizations of a Matérn matrix (n = 1024, nb = 128)
//!     under uniform FP64 / FP32 / FP16_32 / FP16 maps, through
//!     `factorize` in single-shot mode — whether lower precision is
//!     cheaper end to end on this host,
//!
//! and, on the tile path, the steady-state workspace reallocation count per
//! task (the allocation-free invariant: must be 0 after warmup). Every
//! timing records its median and minimum over `reps` runs; the packed
//! kernels' lane × row shape per element type is recorded too, since the
//! generated code of neighbouring shapes differs by up to 2×.
//!
//! Run: `cargo run --release -p mixedp-bench --bin bench_kernels`
//! Options: `--n=256 --reps=7 --out=BENCH_kernels.json`

use mixedp_bench::timing::{median_secs, pseudo, sample_secs};
use mixedp_bench::Args;
use mixedp_core::precision_map::uniform_map;
use mixedp_core::wire::{pack_tile_into, quantize_through_wire, reference_through_wire, Packing};
use mixedp_core::{factorize, FactorOptions};
use mixedp_fp::{CommPrecision, Precision, StoragePrecision};
use mixedp_geostats::covariance::covariance_entry;
use mixedp_geostats::{gen_locations_2d, Matern2d};
use mixedp_kernels::oracle::{
    reference_gemm_nt_f64, reference_syrk_ln_f64, reference_trsm_rlt_f64,
};
use mixedp_kernels::{blas, gemm_tile_ws, potrf_blocked_f64, potrf_f64, Workspace};
use mixedp_tile::{SymmTileMatrix, Tile};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Entry {
    name: &'static str,
    gflops: f64,
    /// Median seconds.
    secs: f64,
    min_secs: f64,
}

/// `(min, median)` seconds of `reps` runs of `f` (one untimed warmup).
fn min_median(reps: usize, f: impl FnMut()) -> (f64, f64) {
    let t = sample_secs(reps, f);
    (t[0], t[t.len() / 2])
}

/// One-worker single-shot factorization time of a Matérn matrix under the
/// uniform map with `off_diag` off the diagonal, tiles stored as the map
/// prescribes: `(min, median)` seconds over `reps` runs.
fn uniform_factor_secs(n: usize, nb: usize, off_diag: Precision, reps: usize) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(2024);
    let locs = gen_locations_2d(n, &mut rng);
    let theta = [1.0, 0.1, 0.5];
    let pmap = uniform_map(n.div_ceil(nb), off_diag);
    // A nugget keeps every uniform map, pure FP16 included, SPD in one
    // attempt.
    let a0 = SymmTileMatrix::from_fn(
        n,
        nb,
        |i, j| covariance_entry(&Matern2d, &locs, i, j, &theta) + if i == j { 0.1 } else { 0.0 },
        |i, j| pmap.storage(i, j),
    );
    let opts = FactorOptions::single_shot(1);
    let mut a = a0.clone();
    min_median(reps, || {
        a.clone_from(&a0);
        factorize(&mut a, &pmap, &opts).expect("uniform map factors in one attempt");
    })
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
    // Times `body`, records an entry and returns its median seconds.
    let mut time = |name, flops: f64, body: &mut dyn FnMut()| {
        let (min_secs, secs) = min_median(reps, body);
        let gflops = flops / secs / 1e9;
        println!("{name:<24} {secs:>10.6} s (min {min_secs:.6})   {gflops:>8.2} GFLOP/s");
        entries.push(Entry {
            name,
            gflops,
            secs,
            min_secs,
        });
        secs
    };

    let gemm_flops = 2.0 * (n * n * n) as f64;
    let t_blk = time("gemm_nt_f64_blocked", gemm_flops, &mut || {
        c.copy_from_slice(&c0);
        blas::gemm_nt_f64(&a, &b, &mut c, n, n, n);
    });
    let t = time("gemm_nt_f64_reference", gemm_flops, &mut || {
        c.copy_from_slice(&c0);
        reference_gemm_nt_f64(&a, &b, &mut c, n, n, n);
    });
    let gemm_speedup = t / t_blk;

    let syrk_flops = (n * (n + 1) * n) as f64;
    let t_syrk = time("syrk_ln_f64_blocked", syrk_flops, &mut || {
        c.copy_from_slice(&c0);
        blas::syrk_ln_f64(&a, n, n, &mut c);
    });
    let t = time("syrk_ln_f64_reference", syrk_flops, &mut || {
        c.copy_from_slice(&c0);
        reference_syrk_ln_f64(&a, n, n, &mut c);
    });
    let syrk_speedup = t / t_syrk;

    // `X Lᵀ = B` against a well-conditioned lower factor.
    let mut l = a.clone();
    for i in 0..n {
        l[i * n + i] = 1.0 + n as f64;
    }
    let trsm_flops = (n * n * n) as f64;
    let t_trsm = time("trsm_rlt_f64_blocked", trsm_flops, &mut || {
        c.copy_from_slice(&c0);
        blas::trsm_rlt_f64(&l, n, &mut c, n);
    });
    let t = time("trsm_rlt_f64_reference", trsm_flops, &mut || {
        c.copy_from_slice(&c0);
        reference_trsm_rlt_f64(&l, n, &mut c, n);
    });
    let trsm_speedup = t / t_trsm;

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
    time("potrf_f64_blocked", potrf_flops, &mut || {
        w.copy_from_slice(&spd);
        potrf_blocked_f64(&mut w, n, 64).unwrap();
    });
    time("potrf_f64_reference", potrf_flops, &mut || {
        w.copy_from_slice(&spd);
        potrf_f64(&mut w, n).unwrap();
    });

    // Tile-path GEMM per kernel precision on one `nb × nb` tile (the
    // likelihood benchmark's tile size), serial, C stored as the precision
    // map stores it (F64 for FP64, F32 for every reduced precision):
    // operand quantization, staging and the emulated arithmetic included.
    let nb = 128.min(n);
    let tile_flops = 2.0 * (nb * nb * nb) as f64;
    let ta = Tile::from_f64(nb, nb, &a[..nb * nb], StoragePrecision::F64);
    let tb = Tile::from_f64(nb, nb, &b[..nb * nb], StoragePrecision::F64);
    let mut ws = Workspace::new();
    for (name, p, storage) in [
        ("gemm_tile_fp64", Precision::Fp64, StoragePrecision::F64),
        ("gemm_tile_fp32", Precision::Fp32, StoragePrecision::F32),
        (
            "gemm_tile_fp16x32",
            Precision::Fp16x32,
            StoragePrecision::F32,
        ),
        ("gemm_tile_fp16", Precision::Fp16, StoragePrecision::F32),
    ] {
        let tc0 = Tile::from_f64(nb, nb, &c0[..nb * nb], storage);
        let mut tc = tc0.clone();
        time(name, tile_flops, &mut || {
            tc.clone_from(&tc0);
            gemm_tile_ws(p, &ta, &tb, &mut tc, &mut ws, false);
        });
    }

    // One-worker factorization per uniform map: ROADMAP's "is lower
    // precision cheaper here" table.
    let (fn_, fnb) = (1024, 128);
    let mut factor_rows = Vec::new();
    for (label, p) in [
        ("fp64", Precision::Fp64),
        ("fp32", Precision::Fp32),
        ("fp16x32", Precision::Fp16x32),
        ("fp16", Precision::Fp16),
    ] {
        let (tmin, tmed) = uniform_factor_secs(fn_, fnb, p, reps);
        println!(
            "factorize n={fn_} nb={fnb} 1 worker, uniform {label:<8} {tmed:.4} s (min {tmin:.4})"
        );
        factor_rows.push((label, tmin, tmed));
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
    println!("trsm blocked-vs-reference speedup: {trsm_speedup:.2}x");

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

    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"n\": {n},\n  \"reps\": {reps},\n  \"host_cpus\": {host_cpus},\n"
    ));
    json.push_str(&format!(
        "  \"packed_shape\": {{\"f64\": {{\"lanes\": {}, \"rows\": {}}}, \"f32\": {{\"lanes\": {}, \"rows\": {}}}}},\n",
        blas::F64_LANES,
        blas::F64_ROWS,
        blas::F32_LANES,
        blas::F32_ROWS
    ));
    json.push_str("  \"kernels\": {\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{}\": {{\"gflops\": {:.4}, \"seconds\": {:.6}, \"min_seconds\": {:.6}}}{}\n",
            e.name, e.gflops, e.secs, e.min_secs, comma
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"factorization\": {{\"n\": {fn_}, \"nb\": {fnb}, \"workers\": 1, \"uniform_map\": {{\n"
    ));
    for (i, (label, tmin, tmed)) in factor_rows.iter().enumerate() {
        let comma = if i + 1 == factor_rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{label}\": {{\"median_s\": {tmed:.6}, \"min_s\": {tmin:.6}}}{comma}\n"
        ));
    }
    json.push_str("  }},\n");
    json.push_str(&format!(
        "  \"gemm_speedup_vs_reference\": {gemm_speedup:.3},\n"
    ));
    json.push_str(&format!(
        "  \"syrk_speedup_vs_reference\": {syrk_speedup:.3},\n"
    ));
    json.push_str(&format!(
        "  \"trsm_speedup_vs_reference\": {trsm_speedup:.3},\n"
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
