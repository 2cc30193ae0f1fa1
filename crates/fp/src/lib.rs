//! Floating-point precision formats and software rounding emulation.
//!
//! This crate defines the precision vocabulary used throughout the
//! mixed-precision Cholesky framework:
//!
//! * [`Precision`] — the *kernel* (operation) precision formats the paper
//!   considers on NVIDIA GPUs: FP64, FP32, TF32, BF16_32, FP16_32, FP16.
//! * [`StoragePrecision`] — the format a tile is materialized in. Because
//!   TRSM cannot execute in FP16 on NVIDIA hardware (paper §V), tiles whose
//!   kernels run in FP16/FP16_32/TF32 are *stored* in FP32.
//! * [`CommPrecision`] — the wire format of a communication payload
//!   (FP64 / FP32 / FP16), the domain over which Algorithm 2 of the paper
//!   computes its `comm_precision` map.
//! * Rounding emulation ([`round`]) — bit-accurate round-to-nearest-even
//!   quantization of `f64` values through each format, which is what makes
//!   the accuracy experiments (paper Figs 1, 5, 6) genuine computations
//!   rather than simulations.

pub mod convert;
pub mod format;
pub mod fp8;
pub mod lattice;
pub mod round;

pub use convert::{convert_cost_bytes, quantize_slice, quantize_slice_in_place};
pub use format::{CommPrecision, Precision, StoragePrecision};
pub use fp8::{round_e4m3, round_e5m2};
pub use lattice::{comm_of_storage, comm_requirement, escalate, higher_comm, storage_precision_of};
pub use round::{
    quantize, round_bf16, round_f16, round_f16_f32, round_f32, round_tf32, round_tf32_f32,
};
