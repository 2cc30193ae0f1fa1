//! Property-based tests of the dense kernels.

use mixedp_fp::{Precision, StoragePrecision};
use mixedp_kernels::{
    blas, gemm_relative_error, gemm_tile_ws, oracle, potrf_tile_ws, trsm_tile_ws, Workspace,
};
use mixedp_tile::Tile;
use proptest::prelude::*;

fn tile_from(v: &[f64], rows: usize, cols: usize) -> Tile {
    Tile::from_f64(rows, cols, v, StoragePrecision::F64)
}

/// xorshift64 values in `[-1, 1)`.
fn values(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s as f64 / u64::MAX as f64) * 2.0 - 1.0
    }
}

/// A row-major `rows × cols` matrix of `rnd` values — or, with `zeros`,
/// of signed zeros, one random sign per row. Every product of two such
/// rows is then the same signed zero, so only the kernels' neutral
/// elements and operation order decide the sign of each result.
fn matrix(rows: usize, cols: usize, rnd: &mut impl FnMut() -> f64, zeros: bool) -> Vec<f64> {
    (0..rows)
        .flat_map(|_| {
            let zero = if rnd() < 0.0 { -0.0 } else { 0.0 };
            (0..cols)
                .map(|_| if zeros { zero } else { rnd() })
                .collect::<Vec<_>>()
        })
        .collect()
}

fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A lower factor for `X Lᵀ = B`: nonzero diagonal, NaN in the strict
/// upper triangle (which the solves must never read).
fn lower_factor(n: usize, rnd: &mut impl FnMut() -> f64) -> Vec<f64> {
    let mut l = vec![f64::NAN; n * n];
    for i in 0..n {
        for j in 0..i {
            l[i * n + j] = rnd() * 0.5;
        }
        l[i * n + i] = 1.0 + rnd().abs();
    }
    l
}

prop_compose! {
    fn arb_dims()(m in 1usize..12, n in 1usize..12, k in 1usize..12) -> (usize, usize, usize) {
        (m, n, k)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FP64 gemm_tile matches a naive triple loop exactly.
    #[test]
    fn gemm_fp64_matches_naive(
        (m, n, k) in arb_dims(),
        seed in 0u64..1000,
    ) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let av: Vec<f64> = (0..m * k).map(|_| rnd()).collect();
        let bv: Vec<f64> = (0..n * k).map(|_| rnd()).collect();
        let cv: Vec<f64> = (0..m * n).map(|_| rnd()).collect();
        let a = tile_from(&av, m, k);
        let b = tile_from(&bv, n, k);
        let mut c = tile_from(&cv, m, n);
        gemm_tile_ws(Precision::Fp64, &a, &b, &mut c, &mut Workspace::new(), true);
        for i in 0..m {
            for j in 0..n {
                let mut want = cv[i * n + j];
                let mut dot = 0.0;
                for t in 0..k {
                    dot += av[i * k + t] * bv[j * k + t];
                }
                want -= dot;
                prop_assert!((c.get(i, j) - want).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    /// Every reduced-precision GEMM stays within its coarse error budget of
    /// FP64 (normalized data, bounded k).
    #[test]
    fn gemm_reduced_precision_error_budget(seed in 0u64..500) {
        let (m, n, k) = (16usize, 16usize, 16usize);
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let a = tile_from(&(0..m * k).map(|_| rnd()).collect::<Vec<_>>(), m, k);
        let b = tile_from(&(0..n * k).map(|_| rnd()).collect::<Vec<_>>(), n, k);
        let mut c64 = Tile::zeros(m, n, StoragePrecision::F64);
        gemm_tile_ws(Precision::Fp64, &a, &b, &mut c64, &mut Workspace::new(), true);
        for (p, budget) in [
            (Precision::Fp32, 1e-5),
            (Precision::Tf32, 1e-2),
            (Precision::Fp16x32, 1e-2),
            (Precision::Bf16x32, 8e-2),
            (Precision::Fp16, 1e-1),
        ] {
            let mut c = Tile::zeros(m, n, StoragePrecision::F64);
            gemm_tile_ws(p, &a, &b, &mut c, &mut Workspace::new(), true);
            let e = gemm_relative_error(&c, &c64);
            prop_assert!(e < budget, "{p}: {e:e} > {budget:e}");
        }
    }

    /// POTRF then TRSM recovers a planted panel: X L^T = B round trip.
    #[test]
    fn trsm_recovers_planted_solution(seed in 0u64..500, n in 2usize..10, m in 1usize..8) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        // SPD tile
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let v = rnd() * 0.3;
                d[i * n + j] += v;
                d[j * n + i] += v;
            }
            d[i * n + i] += n as f64;
        }
        let mut l = tile_from(&d, n, n);
        potrf_tile_ws(&mut l, &mut Workspace::new()).unwrap();
        let x0v: Vec<f64> = (0..m * n).map(|_| rnd() * 2.0).collect();
        // b = x0 L^T
        let mut bv = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for t in 0..=j {
                    bv[i * n + j] += x0v[i * n + t] * l.get(j, t);
                }
            }
        }
        let mut b = tile_from(&bv, m, n);
        trsm_tile_ws(Precision::Fp64, &l, &mut b, &mut Workspace::new());
        for i in 0..m {
            for j in 0..n {
                prop_assert!((b.get(i, j) - x0v[i * n + j]).abs() < 1e-8);
            }
        }
    }

    /// The packed GEMM is bit-identical to the naive reference at
    /// arbitrary shapes — including non-multiples of the panel's row and
    /// lane blocks.
    #[test]
    fn blocked_gemm_bit_matches_reference(
        m in 1usize..80, n in 1usize..40, k in 1usize..40,
        seed in 0u64..500,
    ) {
        let mut rnd = values(seed);
        let a: Vec<f64> = (0..m * k).map(|_| rnd()).collect();
        let b: Vec<f64> = (0..n * k).map(|_| rnd()).collect();
        let c0: Vec<f64> = (0..m * n).map(|_| rnd()).collect();
        let mut c_blk = c0.clone();
        blas::gemm_nt_f64(&a, &b, &mut c_blk, m, n, k);
        let mut c_ref = c0;
        oracle::reference_gemm_nt_f64(&a, &b, &mut c_ref, m, n, k);
        prop_assert_eq!(bits64(&c_blk), bits64(&c_ref));
    }

    /// The packed SYRK is bit-identical to the reference on the lower
    /// triangle and never touches the strict upper triangle.
    #[test]
    fn blocked_syrk_bit_matches_reference(
        m in 1usize..48, k in 1usize..32, seed in 0u64..500,
    ) {
        let mut rnd = values(seed ^ 0x2545F4914F6CDD1D);
        let a: Vec<f64> = (0..m * k).map(|_| rnd()).collect();
        let c0: Vec<f64> = (0..m * m).map(|_| rnd()).collect();
        let mut c_blk = c0.clone();
        blas::syrk_ln_f64(&a, m, k, &mut c_blk);
        let mut c_ref = c0.clone();
        oracle::reference_syrk_ln_f64(&a, m, k, &mut c_ref);
        prop_assert_eq!(bits64(&c_blk), bits64(&c_ref));
        for i in 0..m {
            for j in (i + 1)..m {
                prop_assert_eq!(c_blk[i * m + j], c0[i * m + j], "upper ({},{})", i, j);
            }
        }
    }

    /// A workspace warmed by one tile shape never leaks stale data into a
    /// later (possibly smaller) kernel: shared-workspace results match
    /// fresh-workspace results bit for bit.
    #[test]
    fn workspace_reuse_never_leaks_stale_data(
        m1 in 1usize..14, n1 in 1usize..14, k1 in 1usize..14,
        m2 in 1usize..14, n2 in 1usize..14, k2 in 1usize..14,
        seed in 0u64..300,
    ) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut tile = |r: usize, c: usize| {
            tile_from(&(0..r * c).map(|_| rnd()).collect::<Vec<_>>(), r, c)
        };
        let (a1, b1) = (tile(m1, k1), tile(n1, k1));
        let (a2, b2) = (tile(m2, k2), tile(n2, k2));
        let c2_0 = tile(m2, n2);
        for p in [Precision::Fp64, Precision::Fp32, Precision::Fp16] {
            let mut ws = Workspace::new();
            // warm the workspace with the first shape
            let mut c1 = Tile::zeros(m1, n1, StoragePrecision::F64);
            gemm_tile_ws(p, &a1, &b1, &mut c1, &mut ws, false);
            // second shape through the warm workspace vs a fresh one
            let mut c_shared = c2_0.clone();
            gemm_tile_ws(p, &a2, &b2, &mut c_shared, &mut ws, false);
            let mut c_fresh = c2_0.clone();
            gemm_tile_ws(p, &a2, &b2, &mut c_fresh, &mut Workspace::new(), false);
            prop_assert_eq!(&c_shared, &c_fresh, "{:?}", p);
        }
    }

    /// Forward + transposed-backward solve round-trips `Σ x = b` through
    /// the factored form.
    #[test]
    fn solve_roundtrip(seed in 0u64..300, n in 2usize..20) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let v = rnd() * 0.2;
                a[i * n + j] += v;
                a[j * n + i] += v;
            }
            a[i * n + i] += n as f64;
        }
        let a0 = a.clone();
        blas::potrf_f64(&mut a, n).unwrap();
        let x0: Vec<f64> = (0..n).map(|_| rnd() * 3.0).collect();
        // b = A x0 (using the symmetric original)
        let mut b = vec![0.0; n];
        for i in 0..n {
            for t in 0..n {
                b[i] += a0[i * n + t] * x0[t];
            }
        }
        blas::forward_solve_in_place(&a, n, &mut b);
        blas::backward_solve_trans_in_place(&a, n, &mut b);
        for (x, y) in b.iter().zip(&x0) {
            prop_assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Packed GEMM in f64 and f32 against the oracles under `to_bits`, at
    /// shapes that cross the row and lane edges, with `k` up to `KC` (one
    /// k-block), and on all-signed-zero operands.
    #[test]
    fn packed_gemm_bits_match_oracle_up_to_kc(
        m in 1usize..24, n in 1usize..40, k in 1usize..=blas::KC,
        seed in 0u64..1000, zero_case in 0u32..4,
    ) {
        let (mut rnd, zeros) = (values(seed), zero_case == 0);
        let a = matrix(m, k, &mut rnd, zeros);
        let b = matrix(n, k, &mut rnd, zeros);
        let c0 = matrix(m, n, &mut rnd, zeros);
        let mut c_blk = c0.clone();
        blas::gemm_nt_f64(&a, &b, &mut c_blk, m, n, k);
        let mut c_ref = c0.clone();
        oracle::reference_gemm_nt_f64(&a, &b, &mut c_ref, m, n, k);
        prop_assert_eq!(bits64(&c_blk), bits64(&c_ref), "f64 ({},{},{})", m, n, k);

        let f = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
        let (a, b, c0) = (f(&a), f(&b), f(&c0));
        let mut c_blk = c0.clone();
        blas::gemm_nt_f32(&a, &b, &mut c_blk, m, n, k);
        let mut c_ref = c0;
        oracle::reference_gemm_nt_f32(&a, &b, &mut c_ref, m, n, k);
        prop_assert_eq!(bits32(&c_blk), bits32(&c_ref), "f32 ({},{},{})", m, n, k);
    }

    /// Packed SYRK against the oracle under `to_bits`, `k` up to `KC`,
    /// signed zeros included.
    #[test]
    fn packed_syrk_bits_match_oracle_up_to_kc(
        m in 1usize..40, k in 1usize..=blas::KC,
        seed in 0u64..1000, zero_case in 0u32..4,
    ) {
        let (mut rnd, zeros) = (values(seed), zero_case == 0);
        let a = matrix(m, k, &mut rnd, zeros);
        let c0 = matrix(m, m, &mut rnd, zeros);
        let mut c_blk = c0.clone();
        blas::syrk_ln_f64(&a, m, k, &mut c_blk);
        let mut c_ref = c0;
        oracle::reference_syrk_ln_f64(&a, m, k, &mut c_ref);
        prop_assert_eq!(bits64(&c_blk), bits64(&c_ref), "({},{})", m, k);
    }

    /// Packed TRSM (accumulator carried into the in-block triangle) in f64
    /// and f32 against the forward-substitution oracle under `to_bits`:
    /// ragged column blocks, rows off the row-block edge, and — with a
    /// signed-zero right-hand side — the neutral start of every sum.
    #[test]
    fn packed_trsm_bits_match_oracle(
        n in 1usize..70, m in 1usize..12,
        seed in 0u64..1000, zero_case in 0u32..4,
    ) {
        let mut rnd = values(seed);
        let l = lower_factor(n, &mut rnd);
        let b0 = matrix(m, n, &mut rnd, zero_case == 0);
        let mut b_blk = b0.clone();
        blas::trsm_rlt_f64(&l, n, &mut b_blk, m);
        let mut b_ref = b0.clone();
        oracle::reference_trsm_rlt_f64(&l, n, &mut b_ref, m);
        prop_assert_eq!(bits64(&b_blk), bits64(&b_ref), "f64 ({},{})", n, m);

        let f = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
        let (l, b0) = (f(&l), f(&b0));
        let mut b_blk = b0.clone();
        blas::trsm_rlt_f32(&l, n, &mut b_blk, m);
        let mut b_ref = b0;
        oracle::reference_trsm_rlt_f32(&l, n, &mut b_ref, m);
        prop_assert_eq!(bits32(&b_blk), bits32(&b_ref), "f32 ({},{})", n, m);
    }
}
