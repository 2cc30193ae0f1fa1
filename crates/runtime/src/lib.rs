//! A task-based runtime with dataflow dependencies and asynchronous
//! scheduling — the PaRSEC-like substrate of the framework (paper §III-B).
//!
//! Algorithms are expressed as directed acyclic graphs ([`graph::TaskGraph`])
//! whose vertices are tasks and whose edges are dependencies. The
//! [`scheduler`] executes a graph over a pool of worker threads with a
//! work-stealing design: per-worker priority deques, steal-half victim
//! rotation, targeted single-worker wake-ups, locality-aware dispatch via
//! per-task affinity hints, and critical-path-derived priorities
//! ([`graph::TaskGraph::critical_path_lengths`]) steering workers toward
//! the longest remaining dependency chain first — the scheduling quality
//! PaRSEC's runtime provides for tile Cholesky. [`trace`] records per-task
//! begin/end intervals plus per-worker steal/idle/wake counters for
//! occupancy and Gantt-style analysis (paper Figs 3, 9).

pub mod fault;
pub mod gantt;
pub mod graph;
pub mod scheduler;
pub mod trace;

pub use fault::{Corruption, FaultPlan, RetryPolicy, TaskFailure, WireFault};
pub use gantt::{render_gantt, render_gantt_with_stats};
pub use graph::{TaskGraph, TaskId};
pub use scheduler::{
    execute_parallel, execute_parallel_ctx, execute_parallel_ctx_opts, execute_serial,
    execute_serial_ctx, execute_serial_ctx_opts, ExecOptions, ExecuteError,
};
pub use trace::{ExecutionTrace, TaskSpan, WorkerStats};
