//! End-to-end Gaussian-likelihood benchmark of the mixedp pipeline.
//!
//! One run generates a seeded dataset, evaluates a fixed θ sequence
//! through the public MLE pipeline and prints one JSON line: end-to-end
//! metrics from an untraced run (`--trace 0`), or per-layer metrics from a
//! traced run (`--trace 1`). See `NOTES.md` for the workloads and the
//! layer → metric table.

pub mod heap;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod stages;
pub mod stats;
pub mod workload;

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;
