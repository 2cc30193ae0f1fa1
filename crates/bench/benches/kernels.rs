//! Criterion benches of the tile kernels across precision formats — the
//! CPU-side analogue of the paper's GEMM benchmark (§IV), plus the other
//! Algorithm 1 kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mixedp_fp::{Precision, StoragePrecision};
use mixedp_kernels::oracle::{
    reference_gemm_nt_f64, reference_syrk_ln_f64, reference_trsm_rlt_f64,
};
use mixedp_kernels::{blas, gemm_tile_ws, potrf_tile_ws, syrk_tile_ws, trsm_tile_ws, Workspace};
use mixedp_tile::Tile;

fn rand_vec(len: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        })
        .collect()
}

fn rand_tile(m: usize, k: usize, seed: u64) -> Tile {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let d: Vec<f64> = (0..m * k)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        })
        .collect();
    Tile::from_f64(m, k, &d, StoragePrecision::F64)
}

fn spd_tile(n: usize) -> Tile {
    let mut d = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            d[i * n + j] = 1.0 / (1.0 + (i as f64 - j as f64).abs());
        }
        d[i * n + i] += n as f64;
    }
    Tile::from_f64(n, n, &d, StoragePrecision::F64)
}

fn bench_gemm_precisions(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_tile");
    g.sample_size(10);
    let n = 128;
    let a = rand_tile(n, n, 1);
    let b = rand_tile(n, n, 2);
    g.throughput(Throughput::Elements((2 * n * n * n) as u64));
    let mut ws = Workspace::new();
    for p in [
        Precision::Fp64,
        Precision::Fp32,
        Precision::Tf32,
        Precision::Fp16x32,
        Precision::Fp16,
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(p.label()), &p, |bch, &p| {
            bch.iter(|| {
                let mut cm = Tile::zeros(n, n, StoragePrecision::F64);
                gemm_tile_ws(p, &a, &b, &mut cm, &mut ws, true);
                cm
            })
        });
    }
    g.finish();
}

fn bench_panel_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("panel_kernels");
    g.sample_size(10);
    let n = 128;
    let spd = spd_tile(n);
    let mut ws = Workspace::new();
    g.bench_function("potrf_fp64", |bch| {
        bch.iter(|| {
            let mut t = spd.clone();
            potrf_tile_ws(&mut t, &mut ws).unwrap();
            t
        })
    });
    let mut l = spd.clone();
    potrf_tile_ws(&mut l, &mut ws).unwrap();
    let panel = rand_tile(n, n, 3);
    g.bench_function("trsm_fp64", |bch| {
        bch.iter(|| {
            let mut b = panel.clone();
            trsm_tile_ws(Precision::Fp64, &l, &mut b, &mut ws);
            b
        })
    });
    g.bench_function("trsm_fp32", |bch| {
        bch.iter(|| {
            let mut b = panel.clone();
            trsm_tile_ws(Precision::Fp32, &l, &mut b, &mut ws);
            b
        })
    });
    g.bench_function("syrk_fp64", |bch| {
        bch.iter(|| {
            let mut cm = spd.clone();
            syrk_tile_ws(&panel, &mut cm, &mut ws);
            cm
        })
    });
    g.finish();
}

/// Packed vs naive-reference kernels at the gating shape (256×256×256):
/// the packed GEMM must sustain ≥2× the reference.
fn bench_blocked_vs_reference(c: &mut Criterion) {
    let mut g = c.benchmark_group("blocked_vs_reference");
    g.sample_size(10);
    let n = 256;
    let a = rand_vec(n * n, 1);
    let b = rand_vec(n * n, 2);
    let c0 = rand_vec(n * n, 3);
    g.throughput(Throughput::Elements((2 * n * n * n) as u64));
    g.bench_function("gemm_nt_f64_blocked", |bch| {
        let mut cm = c0.clone();
        bch.iter(|| {
            cm.copy_from_slice(&c0);
            blas::gemm_nt_f64(&a, &b, &mut cm, n, n, n);
            cm[0]
        })
    });
    g.bench_function("gemm_nt_f64_reference", |bch| {
        let mut cm = c0.clone();
        bch.iter(|| {
            cm.copy_from_slice(&c0);
            reference_gemm_nt_f64(&a, &b, &mut cm, n, n, n);
            cm[0]
        })
    });
    g.throughput(Throughput::Elements((n * (n + 1) * n) as u64));
    g.bench_function("syrk_ln_f64_blocked", |bch| {
        let mut cm = c0.clone();
        bch.iter(|| {
            cm.copy_from_slice(&c0);
            blas::syrk_ln_f64(&a, n, n, &mut cm);
            cm[0]
        })
    });
    g.bench_function("syrk_ln_f64_reference", |bch| {
        let mut cm = c0.clone();
        bch.iter(|| {
            cm.copy_from_slice(&c0);
            reference_syrk_ln_f64(&a, n, n, &mut cm);
            cm[0]
        })
    });
    // A well-conditioned lower factor for `X Lᵀ = B`.
    let mut l = a.clone();
    for i in 0..n {
        l[i * n + i] = 1.0 + n as f64;
    }
    g.throughput(Throughput::Elements((n * n * n) as u64));
    g.bench_function("trsm_rlt_f64_blocked", |bch| {
        let mut cm = c0.clone();
        bch.iter(|| {
            cm.copy_from_slice(&c0);
            blas::trsm_rlt_f64(&l, n, &mut cm, n);
            cm[0]
        })
    });
    g.bench_function("trsm_rlt_f64_reference", |bch| {
        let mut cm = c0.clone();
        bch.iter(|| {
            cm.copy_from_slice(&c0);
            reference_trsm_rlt_f64(&l, n, &mut cm, n);
            cm[0]
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_gemm_precisions,
    bench_panel_kernels,
    bench_blocked_vs_reference
);
criterion_main!(benches);
