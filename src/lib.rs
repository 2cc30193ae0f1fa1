//! # mixedp — adaptive mixed-precision Cholesky for geospatial modeling
//!
//! A from-scratch Rust reproduction of *"Reducing Data Motion and Energy
//! Consumption of Geospatial Modeling Applications Using Automated Precision
//! Conversion"* (IEEE CLUSTER 2023): tile-centric adaptive precision
//! selection, the automated STC/TTC conversion planner (Algorithm 2), a
//! task-based runtime executing the mixed-precision tile Cholesky
//! (Algorithm 1) with bit-accurate emulated arithmetic, a Gaussian-process
//! MLE pipeline on top, and a calibrated discrete-event simulator of the
//! paper's V100/A100/H100 systems for the performance and energy studies.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`fp`] — precision formats and rounding emulation
//! * [`tile`] — tiles, tile matrices, layouts, norms
//! * [`kernels`] — POTRF/TRSM/SYRK/GEMM, reference and mixed-precision
//! * [`geostats`] — covariances, synthetic fields, MLE
//! * [`runtime`] — the task-DAG runtime
//! * [`gpusim`] — the GPU/cluster simulator
//! * [`core`] — precision maps, Algorithm 1 & 2, simulation drivers
//!
//! ## Quickstart
//!
//! ```
//! use mixedp::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // 1. synthetic geospatial dataset
//! let mut rng = StdRng::seed_from_u64(1);
//! let locs = gen_locations_2d(256, &mut rng);
//! let model = Matern2d;
//! let theta = [1.0, 0.1, 0.5];
//!
//! // 2. covariance matrix, tiled
//! let sigma = SymmTileMatrix::from_fn(
//!     locs.len(), 64,
//!     |i, j| covariance_entry(&model, &locs, i, j, &theta),
//!     |_, _| StoragePrecision::F64,
//! );
//!
//! // 3. adaptive precision map + conversion plan
//! let norms = tile_fro_norms(&sigma);
//! let pmap = PrecisionMap::from_norms(&norms, 1e-9, &Precision::ADAPTIVE_SET);
//! let plan = plan_conversions(&pmap);
//!
//! // 4. mixed-precision factorization (real arithmetic)
//! let mut a = sigma.clone();
//! let stats = factorize(&mut a, &pmap, &FactorOptions::single_shot(2)).unwrap();
//! assert!(stats.storage_bytes_mp <= stats.storage_bytes_fp64);
//! assert!(plan.nt() == pmap.nt());
//! ```

pub use mixedp_core as core;
pub use mixedp_fp as fp;
pub use mixedp_geostats as geostats;
pub use mixedp_gpusim as gpusim;
pub use mixedp_kernels as kernels;
pub use mixedp_runtime as runtime;
pub use mixedp_tile as tile;

/// The most common imports in one place.
pub mod prelude {
    pub use mixedp_core::{
        factorize, plan_conversions, simulate_cholesky, uniform_map, CholeskySimOptions,
        FactorOptions, MpBackend, PrecisionMap, WirePolicy,
    };
    pub use mixedp_fp::{CommPrecision, Precision, StoragePrecision};
    pub use mixedp_geostats::covariance::covariance_entry;
    pub use mixedp_geostats::{
        estimate, gen_locations_2d, gen_locations_3d, generate_field, loglik_exact,
        run_monte_carlo, CovarianceModel, Matern2d, MleConfig, MonteCarloConfig, SqExp,
    };
    pub use mixedp_gpusim::{ClusterSpec, GpuGeneration, NodeSpec};
    pub use mixedp_tile::{tile_fro_norms, DenseMatrix, Grid2d, SymmTileMatrix, Tile};
}
