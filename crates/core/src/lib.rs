//! Adaptive mixed-precision Cholesky with automated precision conversion —
//! the paper's contribution (§V, §VI).
//!
//! The pipeline:
//!
//! 1. [`precision_map`] — apply the tile-centric Higham–Mary rule
//!    `‖A_ij‖·NT/‖A‖ ≤ u_req/u_low` to pick a kernel precision per tile
//!    (Fig 2a), with the induced storage-precision map (Fig 2b).
//! 2. [`conversion`] — Algorithm 2: derive the per-tile communication
//!    precision and the STC/TTC decision for every POTRF/TRSM broadcast
//!    (Fig 4).
//! 3. [`factorize()`] — Algorithm 1 executed for real on the task runtime
//!    with per-tile-precision kernels (numerical mode: genuine arithmetic,
//!    used by the accuracy studies of Figs 5–7), on one rank or a grid of
//!    them ([`distributed`]), with precision-escalation recovery.
//! 4. [`simulate`] — the same DAG replayed on the GPU-cluster simulator
//!    with precision-tagged payloads (performance mode: Table II,
//!    Figs 8–12).
//! 5. [`mle`] — the mixed-precision log-likelihood backend that plugs the
//!    factorization into the geostatistics MLE driver.

pub mod band_map;
pub mod conversion;
pub mod distributed;
pub mod factorize;
pub mod mle;
pub mod precision_map;
pub mod refine;
pub mod report;
pub mod simulate;
pub mod tlr;
pub mod wire;

pub use band_map::{banded_map, banded_map_matching_storage};
pub use conversion::{plan_conversions, wire_of, ConversionPlan, WirePolicy};
pub use distributed::{factorize_mp_distributed, DistStats};
pub use factorize::{
    factorize, factorize_mp_recovering, BreakdownCause, EscalationEvent, FactorError,
    FactorOptions, FactorStats,
};
pub use mle::MpBackend;
pub use precision_map::{uniform_map, PrecisionMap};
pub use refine::{solve_refined, RefineError, RefineResult};
pub use report::{validate_run_report, RunReport, RUN_REPORT_VERSION};
pub use simulate::{build_sim_tasks, simulate_cholesky, CholeskySimOptions};
pub use wire::{
    broadcast_hops, broadcast_rounds, framed_tile_bytes, pack_tile_into, packed_bytes,
    quantize_through_wire, unpack_message, unpack_tile, FrameMeta, Packing, WireError,
};
