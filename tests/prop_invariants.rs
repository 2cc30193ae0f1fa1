//! Property-based tests of the framework's cross-crate invariants.

use mixedp::core::conversion::plan_conversions;
use mixedp::core::factorize::build_dag;
use mixedp::kernels::reconstruction_error;
use mixedp::prelude::{
    factorize, simulate_cholesky, tile_fro_norms, uniform_map, CholeskySimOptions, ClusterSpec,
    DenseMatrix, FactorOptions, Grid2d, NodeSpec, Precision, PrecisionMap, StoragePrecision,
    SymmTileMatrix,
};
use proptest::prelude::*;

fn arb_precision() -> impl Strategy<Value = Precision> {
    prop_oneof![
        Just(Precision::Fp64),
        Just(Precision::Fp32),
        Just(Precision::Fp16x32),
        Just(Precision::Fp16),
    ]
}

fn arb_pmap(max_nt: usize) -> impl Strategy<Value = PrecisionMap> {
    (2..=max_nt).prop_flat_map(move |nt| {
        proptest::collection::vec(arb_precision(), nt * (nt + 1) / 2).prop_map(move |v| {
            let mut it = v.into_iter();
            PrecisionMap::from_fn(nt, |_, _| it.next().unwrap())
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 2 invariants: comm ≤ storage fidelity; STC ⟺ comm strictly
    /// below storage.
    #[test]
    fn conversion_plan_invariants(pmap in arb_pmap(12)) {
        let plan = plan_conversions(&pmap);
        let nt = pmap.nt();
        for i in 0..nt {
            for j in 0..=i {
                let storage = mixedp::fp::comm_of_storage(pmap.storage(i, j));
                let comm = plan.comm(i, j);
                prop_assert!(comm <= storage, "({i},{j}): {comm:?} > {storage:?}");
                prop_assert_eq!(plan.is_stc(i, j), comm < storage, "({},{})", i, j);
            }
        }
    }

    /// The Cholesky DAG has the textbook task count and a critical path of
    /// exactly 3(NT−1)+1 kernels (POTRF→TRSM→SYRK chains).
    #[test]
    fn dag_structure(nt in 1usize..=14) {
        let dag = build_dag(nt);
        let expect = nt + nt * (nt - 1) + nt * (nt - 1) * nt.saturating_sub(2) / 6;
        prop_assert_eq!(dag.tasks.len(), expect);
        prop_assert_eq!(dag.graph.critical_path_len(), if nt == 1 { 1 } else { 3 * (nt - 1) + 1 });
    }

    /// Random SPD matrices factor under a tight map with near-FP64 accuracy,
    /// and looser maps never beat tighter ones.
    #[test]
    fn factorization_error_monotone(seed in 0u64..50, nt in 2usize..5) {
        let nb = 16;
        let n = nt * nb;
        // random symmetric diagonally-dominant matrix
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let v = rnd() / (1.0 + (i - j) as f64).sqrt();
                d[i * n + j] = v;
                d[j * n + i] = v;
            }
        }
        for i in 0..n {
            d[i * n + i] += n as f64 * 0.5;
        }
        let dense = DenseMatrix::from_vec(n, n, d);
        let a0 = SymmTileMatrix::from_dense(&dense, nb, StoragePrecision::F64);
        let norms = tile_fro_norms(&a0);

        let mut prev_err = 0.0;
        for u_req in [1e-14, 1e-6, 1e-2] {
            let pmap = PrecisionMap::from_norms(&norms, u_req, &Precision::ADAPTIVE_SET);
            let mut a = a0.clone();
            factorize(&mut a, &pmap, &FactorOptions::single_shot(1)).unwrap();
            let err = reconstruction_error(&dense, &a.to_dense_lower());
            prop_assert!(err >= prev_err || (err - prev_err).abs() < 1e-12,
                "error not monotone: {prev_err} -> {err} at u_req {u_req}");
            prev_err = err;
        }
        prop_assert!(prev_err < 0.5);
    }

    /// The block-cyclic grid covers every rank and balances whole multiples.
    #[test]
    fn grid_balance(nranks in 1usize..=64) {
        let g = Grid2d::squarest(nranks);
        prop_assert_eq!(g.nranks(), nranks);
        let nt = g.p() * g.q() * 2;
        let mut counts = vec![0usize; nranks];
        for i in 0..nt {
            for j in 0..nt {
                counts[g.rank_of(i, j)] += 1;
            }
        }
        let (mn, mx) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        prop_assert_eq!(mn, mx, "block-cyclic imbalance at multiples");
    }

    /// Simulated makespan is monotone in matrix size and never beats the
    /// aggregate peak.
    #[test]
    fn simulation_sanity(nt in 4usize..=16) {
        let cluster = ClusterSpec::new(NodeSpec::summit().single_gpu(), 1);
        let o = CholeskySimOptions { nb: 2048, strategy: mixedp::core::WirePolicy::Auto };
        let a = simulate_cholesky(&uniform_map(nt, Precision::Fp32), &cluster, o);
        let b = simulate_cholesky(&uniform_map(nt + 2, Precision::Fp32), &cluster, o);
        prop_assert!(b.makespan_s > a.makespan_s);
        // FP32 GEMMs on the FP32 units overlap FP64 SYRK/POTRF on the FP64
        // units, so the aggregate is bounded by the sum of the unit peaks.
        prop_assert!(a.tflops() <= (15.7 + 7.8) * 1.0001);
        prop_assert!(a.occupancy() <= 1.0 + 1e-9);
    }
}
