//! Dense numerical kernels for the tile Cholesky, in reference FP64 and in
//! emulated mixed precision.
//!
//! Algorithm 1 of the paper uses four kernels: POTRF (tile Cholesky), TRSM
//! (triangular solve), SYRK (symmetric rank-k update), GEMM (general matrix
//! multiply). [`blas`] provides packed-panel implementations on raw `f64`
//! (and `f32`) buffers, and [`oracle`] the naive `reference_*` kernels they
//! are tested against; [`mp`] provides tile-level wrappers whose arithmetic follows
//! each precision format's semantics exactly (see crate `mixedp-fp`);
//! [`workspace`] provides the reusable per-worker scratch that makes the
//! tile data path allocation-free in steady state; [`validate`] provides the
//! error norms used by the tests and the GEMM-accuracy benchmark (paper
//! Fig 1).

pub mod blas;
pub mod mp;
pub mod oracle;
pub mod solve;
pub mod validate;
pub mod workspace;

pub use blas::{
    backward_solve_trans_in_place, cholesky_in_place, forward_solve_in_place, gemm_nt_f32,
    gemm_nt_f64, potrf_blocked_f64, potrf_blocked_f64_ws, potrf_f64, syrk_ln_f64, trsm_rlt_f32,
    trsm_rlt_f64, NotSpd,
};
pub use mp::{
    compute_format_index, gemm_tile_ws, gemm_tile_ws_cached, kernel_flops, make_compute_buf,
    potrf_tile_ws, syrk_tile_ws, trsm_effective_precision, trsm_tile_ws, ComputeBuf, KernelKind,
    N_COMPUTE_FORMATS,
};
pub use oracle::{
    reference_gemm_nt_f32, reference_gemm_nt_f64, reference_syrk_ln_f64, reference_trsm_rlt_f32,
    reference_trsm_rlt_f64,
};
pub use solve::{
    backward_solve_trans_tiled, cholesky_logdet_tiled, forward_solve_tiled, spd_solve_tiled,
};
pub use validate::{gemm_relative_error, max_rel_diff, reconstruction_error, tile_is_finite};
pub use workspace::{with_thread_workspace, TrackedBuf, Workspace};
