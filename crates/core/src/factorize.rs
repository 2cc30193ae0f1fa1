//! Algorithm 1: the adaptive mixed-precision tile Cholesky, executed for
//! real on the task runtime (numerical mode).
//!
//! The DAG matches the paper's Fig 3: `POTRF(k,k)` releases the TRSMs of
//! column `k`; `TRSM(m,k)` releases the SYRK on `(m,m)` and the GEMMs it
//! feeds in row/column `m`; in-place tile updates serialize through their
//! last writer. Kernel precisions come from the [`PrecisionMap`]; every
//! kernel's arithmetic follows its format exactly (`mixedp-kernels`), so
//! the factor and everything downstream (log-likelihoods, parameter
//! estimates) carry genuine mixed-precision rounding.

use crate::conversion::WirePolicy;
use crate::distributed::{DistStats, Ranks};
use crate::precision_map::PrecisionMap;
use mixedp_fp::Precision;
use mixedp_kernels::{
    blas::NotSpd, compute_format_index, gemm_tile_ws_cached, make_compute_buf, potrf_tile_ws,
    syrk_tile_ws, tile_is_finite, trsm_tile_ws, ComputeBuf, KernelKind, Workspace,
    N_COMPUTE_FORMATS,
};
use mixedp_obs as obs;
use mixedp_runtime::{
    execute_parallel_ctx_opts, execute_serial_ctx_opts, ExecOptions, ExecuteError, FaultPlan,
    RetryPolicy, TaskGraph, TaskId, WorkerStats,
};
use mixedp_tile::{lower_index, lower_tiles, Grid2d, SymmTileMatrix, Tile};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Poison-tolerant locking for the tile cells and STC caches: a panicking
/// (possibly fault-injected) task must never wedge a retried attempt or a
/// surviving worker on a poisoned lock. Tile state after a mid-kernel panic
/// is numerical garbage, not memory-unsafe — the recovery layers above
/// (task retry, precision escalation) own correctness.
pub(crate) fn lock_pt<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn read_pt<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_pt<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// One kernel instance of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CholeskyTask {
    Potrf { k: usize },
    Trsm { m: usize, k: usize },
    Syrk { m: usize, k: usize },
    Gemm { m: usize, n: usize, k: usize },
}

impl CholeskyTask {
    pub fn kind(&self) -> KernelKind {
        match self {
            CholeskyTask::Potrf { .. } => KernelKind::Potrf,
            CholeskyTask::Trsm { .. } => KernelKind::Trsm,
            CholeskyTask::Syrk { .. } => KernelKind::Syrk,
            CholeskyTask::Gemm { .. } => KernelKind::Gemm,
        }
    }

    /// The elimination step `k` the task belongs to.
    pub fn step(&self) -> usize {
        match *self {
            CholeskyTask::Potrf { k }
            | CholeskyTask::Trsm { k, .. }
            | CholeskyTask::Syrk { k, .. }
            | CholeskyTask::Gemm { k, .. } => k,
        }
    }

    /// The tile this task writes (lower-triangular coordinates).
    pub fn output_tile(&self) -> (usize, usize) {
        match *self {
            CholeskyTask::Potrf { k } => (k, k),
            CholeskyTask::Trsm { m, k } => (m, k),
            CholeskyTask::Syrk { m, .. } => (m, m),
            CholeskyTask::Gemm { m, n, .. } => (m, n),
        }
    }
}

impl std::fmt::Display for CholeskyTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CholeskyTask::Potrf { k } => write!(f, "POTRF({k},{k})"),
            CholeskyTask::Trsm { m, k } => write!(f, "TRSM({m},{k})"),
            CholeskyTask::Syrk { m, k } => write!(f, "SYRK({m},{m})@{k}"),
            CholeskyTask::Gemm { m, n, k } => write!(f, "GEMM({m},{n})@{k}"),
        }
    }
}

/// The Cholesky DAG: the task graph plus each task's payload.
pub struct CholeskyDag {
    pub graph: TaskGraph,
    pub tasks: Vec<CholeskyTask>,
}

/// Build the Algorithm 1 DAG for `nt × nt` tiles.
///
/// Task priorities are the DAG's *weighted critical-path lengths*
/// ([`TaskGraph::critical_path_lengths`]) under the kernels' flop weights
/// ([`KernelKind::weight`]): a ready task outranks another exactly when
/// the chain of work its completion unlocks is longer. This subsumes the
/// old static panel-first heuristic — POTRF/TRSM of iteration `k` sit on
/// longer remaining chains than iteration `k+1` trailing updates, so the
/// panel ordering emerges from the weights — while also ranking *within*
/// a class (e.g. the GEMMs feeding the next panel column outrank GEMMs of
/// far-future columns).
///
/// Each in-place update also carries an affinity hint naming the previous
/// writer of its output tile, so the work-stealing scheduler dispatches it
/// to the worker whose cache is hot.
pub fn build_dag(nt: usize) -> CholeskyDag {
    let ExecDag { graph, nodes } = ExecDag::build(nt, false);
    let tasks = nodes.into_iter().filter_map(Node::kernel).collect();
    CholeskyDag { graph, tasks }
}

/// A node of the DAG an attempt executes: one kernel, or — on a grid with
/// more than one rank — the coalesced broadcast of panel column `k`.
#[derive(Debug, Clone, Copy)]
enum Node {
    Kernel(CholeskyTask),
    PanelBroadcast { k: usize },
}

impl Node {
    fn kernel(self) -> Option<CholeskyTask> {
        match self {
            Node::Kernel(t) => Some(t),
            Node::PanelBroadcast { .. } => None,
        }
    }
}

/// The DAG [`run_attempt`] executes.
struct ExecDag {
    graph: TaskGraph,
    nodes: Vec<Node>,
}

impl ExecDag {
    /// The Algorithm 1 DAG of [`build_dag`]. With `panel_broadcasts`, step
    /// `k` also gets a [`Node::PanelBroadcast`] that waits for column `k`'s
    /// TRSMs and precedes the step's SYRKs and GEMMs; without, the graph,
    /// task ids and priorities are exactly [`build_dag`]'s.
    fn build(nt: usize, panel_broadcasts: bool) -> ExecDag {
        let mut graph = TaskGraph::with_capacity(nt * nt * nt / 6 + nt * nt);
        let mut nodes = Vec::new();
        // last writer of each tile (lower-packed)
        let mut last_write: Vec<Option<TaskId>> = vec![None; nt * (nt + 1) / 2];
        let idx = lower_index;
        // the task that finalized panel tile (m, k) (its TRSM), for reader deps
        let mut trsm_of: Vec<Option<TaskId>> = vec![None; nt * (nt + 1) / 2];

        for k in 0..nt {
            // POTRF(k, k)
            let mut deps = Vec::new();
            let prev = last_write[idx(k, k)];
            if let Some(w) = prev {
                deps.push(w);
            }
            let potrf = graph.add_task_with_affinity(deps, 0, prev);
            nodes.push(Node::Kernel(CholeskyTask::Potrf { k }));
            last_write[idx(k, k)] = Some(potrf);

            for m in (k + 1)..nt {
                // TRSM(m, k): reads L(k,k), updates (m,k) in place
                let mut deps = vec![potrf];
                let prev = last_write[idx(m, k)];
                if let Some(w) = prev {
                    deps.push(w);
                }
                let trsm = graph.add_task_with_affinity(deps, 0, prev);
                nodes.push(Node::Kernel(CholeskyTask::Trsm { m, k }));
                last_write[idx(m, k)] = Some(trsm);
                trsm_of[idx(m, k)] = Some(trsm);
            }
            let mut bcast = None;
            if panel_broadcasts && k + 1 < nt {
                let deps = ((k + 1)..nt).map(|m| trsm_of[idx(m, k)].unwrap());
                bcast = Some(graph.add_task(deps.collect(), 0));
                nodes.push(Node::PanelBroadcast { k });
            }
            for m in (k + 1)..nt {
                // SYRK(m, k): reads (m,k), updates (m,m)
                let mut deps = vec![trsm_of[idx(m, k)].unwrap()];
                deps.extend(bcast);
                let prev = last_write[idx(m, m)];
                if let Some(w) = prev {
                    deps.push(w);
                }
                let syrk = graph.add_task_with_affinity(deps, 0, prev);
                nodes.push(Node::Kernel(CholeskyTask::Syrk { m, k }));
                last_write[idx(m, m)] = Some(syrk);

                // GEMM(m, n, k) for n in k+1..m: reads (m,k), (n,k); updates (m,n)
                for n in (k + 1)..m {
                    let mut deps = vec![trsm_of[idx(m, k)].unwrap(), trsm_of[idx(n, k)].unwrap()];
                    deps.extend(bcast);
                    let prev = last_write[idx(m, n)];
                    if let Some(w) = prev {
                        deps.push(w);
                    }
                    let gemm = graph.add_task_with_affinity(deps, 0, prev);
                    nodes.push(Node::Kernel(CholeskyTask::Gemm { m, n, k }));
                    last_write[idx(m, n)] = Some(gemm);
                }
            }
        }
        // Critical-path priorities: the weighted longest chain below each
        // task. A broadcast weighs like the cheapest kernel.
        let cp = graph.critical_path_lengths(|id| match nodes[id].kernel() {
            Some(t) => t.kind().weight(),
            None => KernelKind::Potrf.weight(),
        });
        graph.set_priorities(&cp);
        ExecDag { graph, nodes }
    }

    /// The kernel of node `id` (`None` for a broadcast node).
    fn task(&self, id: TaskId) -> Option<CholeskyTask> {
        self.nodes[id].kernel()
    }
}

/// Statistics of a numerical factorization run.
#[derive(Debug, Clone)]
pub struct FactorStats {
    /// Kernel bodies actually executed, summed over all attempts. A clean
    /// first pass runs every kernel of the DAG once; a recovered run counts
    /// only what each attempt ran (pruned and kept tasks are not counted).
    pub tasks_run: usize,
    /// Kernels of the DAG per class: potrf, trsm, syrk, gemm.
    pub kernel_counts: [usize; 4],
    pub wall_s: f64,
    /// Storage bytes of the factored matrix under the map vs full FP64.
    pub storage_bytes_mp: u64,
    pub storage_bytes_fp64: u64,
    /// Tile → compute-format quantizations actually executed (producer-side
    /// conversions plus any consumer-side fallbacks), summed over attempts.
    pub conversions_performed: u64,
    /// GEMM operand quantizations skipped because a producer-converted
    /// buffer (STC) was reused instead, summed over attempts.
    pub conversions_avoided: u64,
    /// Payload bytes of the avoided quantizations — the data-motion saving
    /// of STC over convert-at-every-consumer (TTC) — summed over attempts.
    pub conversion_bytes_avoided: u64,
    /// How many attempts the factorization took (1 = clean first pass;
    /// each additional attempt was a recovery restart or resume).
    pub factor_attempts: u32,
    /// The recovery log: one entry per restart, naming the breakdown and
    /// what the precision map escalation cost (paper-style visibility into
    /// what graceful degradation actually did).
    pub escalations: Vec<EscalationEvent>,
    /// Task attempts that panicked and were re-executed by the runtime's
    /// bounded retry policy (recovered task-level faults).
    pub task_retries: u64,
    /// Per-worker scheduler counters of the nested executor, accumulated
    /// elementwise across all factorization attempts (empty for serial
    /// runs). Every attempt dispatches the whole DAG, so `tasks` counts
    /// pruned and kept tasks too.
    pub sched_per_worker: Vec<WorkerStats>,
    /// Sum of `sched_per_worker` — the run's scheduler totals.
    pub sched_totals: WorkerStats,
    /// Wire counters of a multi-rank grid, summed over attempts; `None` on
    /// the 1×1 grid. Boxed: most runs have none, and the counters would
    /// double the size of the stats.
    pub wire: Option<Box<DistStats>>,
}

impl FactorStats {
    /// Add this run's counters to the metrics registry: `factor.*` for
    /// the factorization itself, `scheduler.*` for the nested executor's
    /// accumulated per-worker totals and, on a multi-rank grid, `wire.*`.
    pub fn publish_metrics(&self) {
        static RUNS: obs::LazyCounter = obs::LazyCounter::new("factor.runs");
        static TASKS: obs::LazyCounter = obs::LazyCounter::new("factor.tasks_run");
        static ATTEMPTS: obs::LazyCounter = obs::LazyCounter::new("factor.attempts");
        static ESCALATIONS: obs::LazyCounter = obs::LazyCounter::new("factor.escalations");
        static TASK_RETRIES: obs::LazyCounter = obs::LazyCounter::new("factor.task_retries");
        static CONV_PERFORMED: obs::LazyCounter =
            obs::LazyCounter::new("factor.conversions_performed");
        static CONV_AVOIDED: obs::LazyCounter = obs::LazyCounter::new("factor.conversions_avoided");
        static CONV_BYTES_AVOIDED: obs::LazyCounter =
            obs::LazyCounter::new("factor.conversion_bytes_avoided");
        RUNS.inc();
        TASKS.add(self.tasks_run as u64);
        ATTEMPTS.add(self.factor_attempts as u64);
        ESCALATIONS.add(self.escalations.len() as u64);
        TASK_RETRIES.add(self.task_retries);
        CONV_PERFORMED.add(self.conversions_performed);
        CONV_AVOIDED.add(self.conversions_avoided);
        CONV_BYTES_AVOIDED.add(self.conversion_bytes_avoided);
        self.sched_totals.publish_metrics();
        if let Some(w) = &self.wire {
            w.publish_metrics();
        }
    }

    /// Fraction of GEMM-operand conversions that STC eliminated:
    /// `avoided / (avoided + performed)`. Zero when no reduced-precision
    /// GEMMs ran.
    pub fn stc_avoidance_ratio(&self) -> f64 {
        let total = self.conversions_avoided + self.conversions_performed;
        if total == 0 {
            0.0
        } else {
            self.conversions_avoided as f64 / total as f64
        }
    }
}

/// Why a factorization attempt broke down at some tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakdownCause {
    /// POTRF hit a non-positive pivot: the tile's update path was
    /// quantized too aggressively (or the matrix is genuinely indefinite).
    NotSpd,
    /// The post-kernel health check found NaN/Inf in the output tile.
    NonFinite,
    /// A [`FaultPlan`] corruption we injected ourselves — recovered by a
    /// plain re-run (transient), never charged to the precision map.
    Injected,
}

impl std::fmt::Display for BreakdownCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakdownCause::NotSpd => write!(f, "non-SPD pivot"),
            BreakdownCause::NonFinite => write!(f, "non-finite output"),
            BreakdownCause::Injected => write!(f, "injected corruption"),
        }
    }
}

/// One recovery restart of the factorization: which task broke down, why,
/// and how many precision-map tiles the escalation promoted toward FP64
/// (`0` for transient injected corruption, which re-runs unchanged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscalationEvent {
    /// The factorization attempt that failed (1-based).
    pub factor_attempt: u32,
    pub task: CholeskyTask,
    /// Output tile of the failing task.
    pub tile: (usize, usize),
    pub cause: BreakdownCause,
    /// Tiles whose kernel precision moved one level toward FP64.
    pub escalated_tiles: usize,
}

/// Typed failure modes of the fault-tolerant factorization — every hard
/// abort of the classic path becomes a reported, bounded outcome here.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// Breakdown with the whole precision map already FP64: the matrix is
    /// genuinely not positive definite — no escalation can help.
    NotSpd(NotSpd),
    /// Non-finite output with no escalation left: bad input data (NaN/Inf
    /// in the matrix itself) rather than precision breakdown.
    NonFinite { task: CholeskyTask },
    /// The recovery budget ran out before a clean pass; `last` names the
    /// breakdown that exhausted it.
    EscalationExhausted { budget: u32, last: EscalationEvent },
    /// A task panicked through its whole runtime retry budget. The record
    /// names the kernel instance — never an anonymous "worker panicked".
    TaskFailed {
        task: CholeskyTask,
        attempt: u32,
        cause: String,
    },
    /// A worker thread died outside task execution (scheduler bug).
    WorkerPanicked,
    /// A cross-rank message failed through the whole retransmit budget.
    WireFailed {
        /// Source coordinates of the message's first tile frame.
        i: usize,
        j: usize,
        /// Receiving rank that never got it.
        rank: usize,
        attempts: u32,
    },
    /// The precision map is not for the matrix's tile grid.
    MapMismatch { map_nt: usize, matrix_nt: usize },
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::NotSpd(e) => {
                write!(f, "matrix is not positive definite at column {}", e.column)
            }
            FactorError::NonFinite { task } => {
                write!(
                    f,
                    "non-finite output of {task} with nothing left to escalate"
                )
            }
            FactorError::EscalationExhausted { budget, last } => write!(
                f,
                "escalation budget ({budget}) exhausted; last breakdown: {} at {} (attempt {})",
                last.cause, last.task, last.factor_attempt
            ),
            FactorError::TaskFailed {
                task,
                attempt,
                cause,
            } => write!(f, "{task} failed after {attempt} attempt(s): {cause}"),
            FactorError::WorkerPanicked => write!(f, "a worker thread panicked"),
            FactorError::WireFailed {
                i,
                j,
                rank,
                attempts,
            } => write!(
                f,
                "payload of tile ({i},{j}) to rank {rank} failed {attempts} transmission attempt(s)"
            ),
            FactorError::MapMismatch { map_nt, matrix_nt } => write!(
                f,
                "precision map has {map_nt} tile rows, the matrix {matrix_nt}"
            ),
        }
    }
}

impl std::error::Error for FactorError {}

/// Configuration of [`factorize`].
#[derive(Debug, Clone)]
pub struct FactorOptions {
    /// DAG workers (1 = the deterministic serial scheduler).
    pub nthreads: usize,
    /// Maximum recovery restarts (precision escalations plus transient
    /// corruption re-runs) before giving up with
    /// [`FactorError::EscalationExhausted`].
    pub escalation_budget: u32,
    /// Run the post-kernel NaN/Inf probe on every output tile
    /// ([`mixedp_kernels::tile_is_finite`]); the cost is one streaming
    /// pass per tile, `O(1/nb)` of the kernel's own work.
    pub finite_checks: bool,
    /// Deterministic fault-injection plan (default: no faults).
    pub faults: FaultPlan,
    /// Runtime retry policy for panicking tasks.
    pub retry: RetryPolicy,
    /// Re-apply the map's storage prescription to the *input* tiles at the
    /// start of every attempt (from the caller's, normally FP64, copy).
    /// Without this, a caller that narrowed its tiles before the call has
    /// already destroyed the information a precision escalation needs —
    /// the escalated map would re-factor the same degraded data. The MLE
    /// path sets this so each retry re-narrows `Σ` fresh from FP64 under
    /// the escalated map.
    pub renarrow_storage: bool,
    /// The rank grid the tiles are placed on (owner-computes, 2D
    /// block-cyclic). 1×1 is shared memory.
    pub grid: Grid2d,
    /// Wire precision of cross-rank payloads on a multi-rank grid.
    pub wire: WirePolicy,
}

impl Default for FactorOptions {
    fn default() -> Self {
        FactorOptions {
            nthreads: 1,
            escalation_budget: 24,
            finite_checks: true,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            renarrow_storage: false,
            grid: Grid2d::new(1, 1),
            wire: WirePolicy::Auto,
        }
    }
}

impl FactorOptions {
    pub fn with_threads(nthreads: usize) -> Self {
        FactorOptions {
            nthreads,
            ..Default::default()
        }
    }

    /// A single fault-free attempt: no finite checks, no task retry, and
    /// the first breakdown exhausts the empty escalation budget.
    pub fn single_shot(nthreads: usize) -> Self {
        FactorOptions {
            nthreads,
            escalation_budget: 0,
            finite_checks: false,
            retry: RetryPolicy::no_retry(),
            ..Default::default()
        }
    }
}

/// Factor `a` in place under `pmap`: Algorithm 1 on `opts.nthreads`
/// workers (1 = the deterministic serial scheduler), its tiles placed on
/// `opts.grid`, wrapped in the recovery loop of the mixed-precision
/// literature. Returns stats; the matrix holds `L` tile-wise (each tile in
/// its storage precision) on success, and is left untouched on any error.
///
/// # Data path
///
/// Each worker owns a [`Workspace`] (threaded through the scheduler's
/// per-worker-context API), so kernel staging performs zero heap
/// allocations once the buffers are warm. The kernels themselves run
/// sequentially: all parallelism comes from the DAG's workers.
///
/// # Producer-side conversion caching (STC)
///
/// When `TRSM(m,k)` finalizes panel tile `(m,k)`, it quantizes the tile
/// into every compute format its downstream GEMMs will need — **once** —
/// and shares the buffers via `Arc`. Consuming GEMMs reuse them instead of
/// re-converting per task (the paper's single-time conversion, vs.
/// two-time conversion at every consumer). Buffers are freed as soon as the
/// last consumer has run. Cached and locally-quantized operands go through
/// the same rounding routine, so STC never changes a bit of the result.
///
/// # Placement
///
/// On a grid with more than one rank every attempt builds its own ranks:
/// cross-rank reads travel as packed wire messages at `opts.wire`
/// precision ([`crate::distributed`]), with drops and garbles from
/// `opts.faults` retransmitted under `opts.retry`. A message that fails
/// its whole retransmit budget ends the run with
/// [`FactorError::WireFailed`]. The wire counters of all attempts are
/// summed into [`FactorStats::wire`].
///
/// # Recovery
///
/// A breakdown (non-SPD pivot, or NaN/Inf caught by the post-kernel health
/// check) escalates the offending tile's row/column one level toward FP64
/// in a working copy of the precision map (the whole map, when that cross
/// is already FP64) and runs another attempt — bounded by
/// `opts.escalation_budget` — while task panics are retried by the runtime
/// under `opts.retry`. Every recovery action is recorded in the returned
/// [`FactorStats`] (`factor_attempts`, `escalations`, `task_retries`).
/// [`FactorOptions::single_shot`] is one attempt with no recovery.
///
/// Failure choice is deterministic: kernels are bit-reproducible across
/// schedules, and the loop recovers the breakdown with the smallest task
/// id, so serial and parallel runs take the same escalation path.
///
/// The tile cells live across attempts. On the 1×1 grid, a non-SPD pivot
/// at `POTRF(k)` whose cross escalation moved a tile *resumes*: the next
/// attempt keeps the cells, re-derives only row and column `k` from `a`
/// and reruns only the tasks that write them before step `k`, then every
/// task from step `k` on. Any other recovery (a whole-map escalation, a
/// non-finite or an injected failure, any breakdown on a multi-rank grid)
/// restarts from `a`: a resumed attempt skips `POTRF(k')` for `k' < k`, so
/// a fresh inbox would never receive `L_k'k'`. Either way the factor and
/// the escalation trail are those of restarting every attempt from `a`,
/// except that a fault plan can corrupt only the tasks an attempt runs.
pub fn factorize(
    a: &mut SymmTileMatrix,
    pmap: &PrecisionMap,
    opts: &FactorOptions,
) -> Result<FactorStats, FactorError> {
    let nt = a.nt();
    if pmap.nt() != nt {
        return Err(FactorError::MapMismatch {
            map_nt: pmap.nt(),
            matrix_nt: nt,
        });
    }
    // One rank is shared memory: no broadcast nodes, no inbox.
    let on_grid = opts.grid.nranks() > 1;
    let dag = ExecDag::build(nt, on_grid);
    let mut map = pmap.clone();
    let mut cells = load_cells(a, &map, opts.renarrow_storage);
    let mut resume = None;
    let mut escalations: Vec<EscalationEvent> = Vec::new();
    let mut work = AttemptWork::default();
    let mut wire = DistStats::default();
    let t0 = std::time::Instant::now();
    let mut factor_attempt = 0u32;
    loop {
        factor_attempt += 1;
        let sp = obs::span_start();
        let ranks = on_grid.then(|| Ranks::new(&map, opts, std::mem::take(&mut wire)));
        let attempt = run_attempt(
            &cells,
            &dag,
            &map,
            opts,
            factor_attempt,
            resume,
            ranks.as_ref(),
        );
        obs::span_end(sp, obs::EventKind::FactorAttempt, factor_attempt as u64);
        let out = attempt?;
        if let Some(r) = ranks {
            wire = r.finish()?;
        }
        work.accumulate(&out.work);
        let Some((task_idx, cause)) = out.first_failure() else {
            write_back(a, cells, &map);
            return Ok(finish_stats(
                &dag,
                map.storage_bytes(a.nb()),
                t0,
                work,
                factor_attempt,
                escalations,
                on_grid.then(|| Box::new(wire)),
            ));
        };
        let task = dag.task(task_idx).expect("only kernels break down");
        let tile = task.output_tile();
        resume = None;
        let escalated = if cause == BreakdownCause::Injected {
            // Transient injected corruption: a plain re-run recovers it
            // (rate faults hash the attempt number); never charge the map.
            0
        } else {
            let mut changed = map.escalate_cross(tile.0, tile.1);
            if changed > 0 && cause == BreakdownCause::NotSpd && !on_grid {
                // Only POTRF(k) reports a non-SPD pivot, and its
                // descendants are every task after it: the cells hold
                // steps 0..k, which the escalation changed only in the
                // cross of k.
                resume = Some(tile.0);
            }
            if changed == 0 {
                // The cross already runs in FP64, but narrower tiles
                // outside it fed its updates: step the whole map.
                changed = map.escalate_all();
            }
            if changed == 0 {
                // The whole map is FP64: this is a genuine numerical
                // failure, not precision breakdown.
                return Err(match cause {
                    BreakdownCause::NotSpd => FactorError::NotSpd(NotSpd {
                        column: tile.0 * a.nb(),
                    }),
                    _ => FactorError::NonFinite { task },
                });
            }
            changed
        };
        obs::instant(obs::EventKind::Escalate, escalated as u64);
        let event = EscalationEvent {
            factor_attempt,
            task,
            tile,
            cause,
            escalated_tiles: escalated,
        };
        if escalations.len() as u32 >= opts.escalation_budget {
            return Err(FactorError::EscalationExhausted {
                budget: opts.escalation_budget,
                last: event,
            });
        }
        escalations.push(event);
        // Re-derive what the next attempt recomputes, one tile at a time:
        // the cross of a resumed step, or every tile.
        for (cell, (i, j)) in cells.iter_mut().zip(lower_tiles(nt)) {
            if resume.is_none_or(|k| i == k || j == k) {
                *cell = fresh_cell(a, &map, opts.renarrow_storage, i, j);
            }
        }
    }
}

/// Kept for `likbench/`, which calls it by this name; delete with the next
/// benchmark-side change.
pub use factorize as factorize_mp_recovering;

/// The cell tile `(i, j)` starts an attempt from: a copy of the caller's
/// tile. With `renarrow`, the map's storage prescription is applied to it —
/// a real narrowing, part of the method's error (Fig 2b) — re-derived from
/// the caller's tile each time, so escalation recovers full-precision data
/// rather than previously-degraded bits.
fn fresh_cell(
    a: &SymmTileMatrix,
    pmap: &PrecisionMap,
    renarrow: bool,
    i: usize,
    j: usize,
) -> RwLock<Tile> {
    let t = a.tile(i, j);
    RwLock::new(if renarrow && t.storage() != pmap.storage(i, j) {
        t.converted_to(pmap.storage(i, j))
    } else {
        t.clone()
    })
}

/// Every cell of a first attempt, one per lower tile of `a`, in packed
/// order ([`lower_index`]).
fn load_cells(a: &SymmTileMatrix, pmap: &PrecisionMap, renarrow: bool) -> Vec<RwLock<Tile>> {
    lower_tiles(a.nt())
        .map(|(i, j)| fresh_cell(a, pmap, renarrow, i, j))
        .collect()
}

/// Move a clean attempt's factor into `a`, each tile converted to the
/// storage of its map entry.
fn write_back(a: &mut SymmTileMatrix, cells: Vec<RwLock<Tile>>, pmap: &PrecisionMap) {
    for (cell, (i, j)) in cells.into_iter().zip(lower_tiles(pmap.nt())) {
        let tile = cell.into_inner().unwrap_or_else(|e| e.into_inner());
        *a.tile_mut(i, j) = tile.converted_to(pmap.storage(i, j));
    }
}

/// The work counters of an attempt; the recovery loop sums them.
#[derive(Default)]
struct AttemptWork {
    tasks_run: u64,
    conv_performed: u64,
    conv_avoided: u64,
    conv_bytes_avoided: u64,
    task_retries: u64,
    /// Per-worker counters of the nested executor (empty for serial runs).
    sched: Vec<WorkerStats>,
}

impl AttemptWork {
    /// Add `from`'s counters; per-worker counters elementwise (workers are
    /// identified by index, and attempts all run with the same `nthreads`).
    fn accumulate(&mut self, from: &AttemptWork) {
        self.tasks_run += from.tasks_run;
        self.conv_performed += from.conv_performed;
        self.conv_avoided += from.conv_avoided;
        self.conv_bytes_avoided += from.conv_bytes_avoided;
        self.task_retries += from.task_retries;
        if self.sched.len() < from.sched.len() {
            self.sched.resize(from.sched.len(), WorkerStats::default());
        }
        for (d, s) in self.sched.iter_mut().zip(&from.sched) {
            d.accumulate(s);
        }
    }
}

/// Result of one factorization attempt over the DAG.
struct AttemptOutcome {
    /// Breakdowns observed, sorted by task id (empty = clean attempt: the
    /// cells hold the factor).
    failures: Vec<(TaskId, BreakdownCause)>,
    work: AttemptWork,
}

impl AttemptOutcome {
    /// The breakdown with the smallest task id — the deterministic pick
    /// the recovery loop acts on (task ids are schedule-independent, and
    /// downstream NaN propagation always lands on larger ids than its
    /// root cause).
    fn first_failure(&self) -> Option<(TaskId, BreakdownCause)> {
        self.failures.first().copied()
    }
}

/// Run the Cholesky DAG once under `pmap` over `cells` — the one task body
/// that executes Algorithm 1's kernels. On a clean pass the cells hold the
/// factor; otherwise the failures are reported.
///
/// A task whose id is larger than the smallest failure recorded so far
/// skips its body. Task ids follow step order and every ancestor has a
/// smaller id, so the tasks up to the smallest failure all run and the
/// failure the recovery loop picks is schedule-independent. With
/// `resume = Some(k)` the cells already hold steps `0..k` of an earlier
/// attempt except row and column `k`, re-derived from the caller's tiles:
/// only the tasks of steps `0..k` that write that cross run, then every
/// task from step `k` on. No other task of steps `0..k` reads a cross
/// tile, and the cross tasks read outside it only final panel tiles.
/// Skipped tasks still dispatch, with an empty body.
///
/// `ranks` places the tiles on a multi-rank grid (owner-computes): a task
/// reads a tile another rank owns from its own rank's inbox slot, filled by
/// the owner's broadcast (`dag` must then carry the broadcast nodes). A
/// failed broadcast halts the attempt, since the ranks downstream would
/// wait for payloads that are never sent; a skipped broadcast's readers
/// are its descendants, so they skip too. `None` is shared memory, the 1×1
/// grid.
fn run_attempt(
    cells: &[RwLock<Tile>],
    dag: &ExecDag,
    pmap: &PrecisionMap,
    opts: &FactorOptions,
    factor_attempt: u32,
    resume: Option<usize>,
    ranks: Option<&Ranks>,
) -> Result<AttemptOutcome, FactorError> {
    let nt = pmap.nt();
    let nthreads = opts.nthreads;
    let ncells = cells.len();
    let idx = lower_index;
    let failures: Mutex<Vec<(TaskId, BreakdownCause)>> = Mutex::new(Vec::new());
    // The smallest failure so far. A failure is recorded before its task
    // completes, and the scheduler's dependency release orders that before
    // any descendant starts; a task racing the record from another branch
    // may still run, which moves only the work counters.
    let first_failure = AtomicUsize::new(usize::MAX);
    let record_failure = |task_idx: TaskId, cause: BreakdownCause| {
        lock_pt(&failures).push((task_idx, cause));
        first_failure.fetch_min(task_idx, Ordering::AcqRel);
    };
    let halted = || ranks.is_some_and(Ranks::halted);

    // The placement: `remote(t, at)` is `Some` when the task writing tile
    // `at` runs on another rank than tile `t`'s owner.
    let remote =
        |t: (usize, usize), at: (usize, usize)| ranks.filter(|r| r.owner(t) != r.owner(at));
    let input = |t: (usize, usize), at: (usize, usize)| {
        read_pt(match remote(t, at) {
            Some(r) => r.received(t, r.owner(at)),
            None => &cells[idx(t.0, t.1)],
        })
    };

    // STC cache: per panel tile, one slot per compute format, filled by the
    // tile's TRSM (its final writer) and read by its GEMM consumers on the
    // owner's rank.
    type Slots = [Option<Arc<ComputeBuf>>; N_COMPUTE_FORMATS];
    let caches: Vec<Mutex<Slots>> = (0..ncells).map(|_| Mutex::new(Slots::default())).collect();
    // GEMM reads remaining per panel tile (m,k): A-operand of GEMM(m,n,k)
    // for n in k+1..m, B-operand of GEMM(m',m,k) for m' in m+1..nt.
    let readers: Vec<AtomicU64> = lower_tiles(nt)
        .map(|(i, j)| AtomicU64::new(if i > j { (nt - j - 2) as u64 } else { 0 }))
        .collect();
    let tasks_run = AtomicU64::new(0);
    let conv_performed = AtomicU64::new(0);
    let conv_avoided = AtomicU64::new(0);
    let conv_bytes_avoided = AtomicU64::new(0);

    let release_reader = |ti: usize| {
        if readers[ti].fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last GEMM consumer done: free the cached compute buffers.
            *lock_pt(&caches[ti]) = Slots::default();
        }
    };

    // Post-kernel health pass on the task's output tile: corruption
    // injection first (a deterministic function of (plan, task, factor
    // attempt)), then the finite probe. False when it recorded a failure.
    let check_output = |task_idx: TaskId, t: &CholeskyTask| {
        let (oi, oj) = t.output_tile();
        let mut injected = false;
        if !opts.faults.is_noop() {
            if let Some(c) = opts
                .faults
                .inject_corruption(task_idx as u64, factor_attempt)
            {
                write_pt(&cells[idx(oi, oj)]).set(0, 0, c.value());
                injected = true;
            }
        }
        if opts.finite_checks && !tile_is_finite(&read_pt(&cells[idx(oi, oj)])) {
            record_failure(
                task_idx,
                if injected {
                    BreakdownCause::Injected
                } else {
                    BreakdownCause::NonFinite
                },
            );
            return false;
        }
        true
    };

    let run_task = |ws: &mut Workspace, task_idx: TaskId| {
        if halted() || task_idx > first_failure.load(Ordering::Acquire) {
            return;
        }
        let t = match dag.nodes[task_idx] {
            Node::Kernel(t) => t,
            Node::PanelBroadcast { k } => {
                if let Some(r) = ranks {
                    r.broadcast_panel(k, cells, ws);
                }
                return;
            }
        };
        let (oi, oj) = t.output_tile();
        if resume.is_some_and(|k| t.step() < k && oi != k && oj != k) {
            // Kept from the previous attempt: outside the resumed cross.
            return;
        }
        tasks_run.fetch_add(1, Ordering::Relaxed);
        match t {
            CholeskyTask::Potrf { k } => {
                let mut c = write_pt(&cells[idx(k, k)]);
                if potrf_tile_ws(&mut c, ws).is_err() {
                    drop(c);
                    record_failure(task_idx, BreakdownCause::NotSpd);
                    return;
                }
                drop(c);
                // L_kk is one frame: its broadcast to the column's TRSM
                // owners runs right here, unless it broke down (the
                // receivers' integrity check would reject it).
                if check_output(task_idx, &t) {
                    if let Some(r) = ranks {
                        r.broadcast_diag(k, cells, ws);
                    }
                }
            }
            CholeskyTask::Trsm { m, k } => {
                let ti = idx(m, k);
                {
                    let l = input((k, k), (m, k));
                    let mut b = write_pt(&cells[ti]);
                    trsm_tile_ws(pmap.kernel(m, k), &l, &mut b, ws);
                }
                check_output(task_idx, &t);
                // STC: tile (m,k) is now final. Quantize it once into each
                // compute format a downstream GEMM on this rank will read
                // it in. No GEMM consumer can run before this task
                // completes, so filling the cache here is race-free.
                if readers[ti].load(Ordering::Acquire) > 0 {
                    let mut needed: [Option<Precision>; N_COMPUTE_FORMATS] =
                        [None; N_COMPUTE_FORMATS];
                    let consumers = ((k + 1)..m)
                        .map(|nn| (m, nn))
                        .chain(((m + 1)..nt).map(|mm| (mm, m)));
                    for at in consumers.filter(|&at| remote((m, k), at).is_none()) {
                        let p = pmap.kernel(at.0, at.1);
                        if let Some(s) = compute_format_index(p) {
                            needed[s] = Some(p);
                        }
                    }
                    if needed.iter().any(|p| p.is_some()) {
                        let b = read_pt(&cells[ti]);
                        let mut slots = lock_pt(&caches[ti]);
                        for (s, p) in needed.iter().enumerate() {
                            if let Some(p) = p {
                                let sp = obs::span_start();
                                let buf = Arc::new(make_compute_buf(*p, &b));
                                obs::span_end(sp, obs::EventKind::Convert, buf.bytes() as u64);
                                slots[s] = Some(buf);
                                conv_performed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            }
            CholeskyTask::Syrk { m, k } => {
                {
                    let a_in = input((m, k), (m, m));
                    let mut c = write_pt(&cells[idx(m, m)]);
                    syrk_tile_ws(&a_in, &mut c, ws);
                }
                check_output(task_idx, &t);
            }
            CholeskyTask::Gemm { m, n, k } => {
                let p = pmap.kernel(m, n);
                let (ta, tb) = (idx(m, k), idx(n, k));
                // A received operand is quantized locally: the STC buffers
                // are images of the owner's tile.
                let cached = |t: (usize, usize), ti: usize| match compute_format_index(p) {
                    Some(s) if remote(t, (m, n)).is_none() => lock_pt(&caches[ti])[s].clone(),
                    _ => None,
                };
                let (abuf, bbuf) = (cached((m, k), ta), cached((n, k), tb));
                {
                    let ai = input((m, k), (m, n));
                    let bi = input((n, k), (m, n));
                    let mut c = write_pt(&cells[idx(m, n)]);
                    let local = gemm_tile_ws_cached(
                        p,
                        &ai,
                        abuf.as_deref(),
                        &bi,
                        bbuf.as_deref(),
                        &mut c,
                        ws,
                    );
                    conv_performed.fetch_add(local as u64, Ordering::Relaxed);
                    for buf in [&abuf, &bbuf].into_iter().flatten() {
                        conv_avoided.fetch_add(1, Ordering::Relaxed);
                        conv_bytes_avoided.fetch_add(buf.bytes() as u64, Ordering::Relaxed);
                    }
                }
                check_output(task_idx, &t);
                release_reader(ta);
                release_reader(tb);
            }
        }
    };

    let exec_opts = ExecOptions {
        retry: opts.retry.clone(),
        faults: opts.faults.clone(),
    };
    let map_exec_err = |e: ExecuteError| match e {
        ExecuteError::TaskFailed(f) => match dag.task(f.task) {
            Some(task) => FactorError::TaskFailed {
                task,
                attempt: f.attempt,
                cause: f.cause,
            },
            None => FactorError::WorkerPanicked,
        },
        ExecuteError::WorkerPanicked => FactorError::WorkerPanicked,
    };
    let (task_retries, sched) = if nthreads <= 1 {
        let mut ws = Workspace::new();
        let (_, rt_failures) =
            execute_serial_ctx_opts(&dag.graph, &mut ws, |ws, id| run_task(ws, id), &exec_opts)
                .map_err(map_exec_err)?;
        (rt_failures.len() as u64, Vec::new())
    } else {
        let trace = execute_parallel_ctx_opts(
            &dag.graph,
            nthreads,
            |_wid| Workspace::new(),
            |ws, id| run_task(ws, id),
            &exec_opts,
        )
        .map_err(map_exec_err)?;
        (trace.total_stats().retries, trace.worker_stats().to_vec())
    };

    let mut failures = failures.into_inner().unwrap_or_else(|e| e.into_inner());
    failures.sort_by_key(|&(id, _)| id);
    failures.dedup_by_key(|&mut (id, _)| id);

    Ok(AttemptOutcome {
        failures,
        work: AttemptWork {
            tasks_run: tasks_run.into_inner(),
            conv_performed: conv_performed.into_inner(),
            conv_avoided: conv_avoided.into_inner(),
            conv_bytes_avoided: conv_bytes_avoided.into_inner(),
            task_retries,
            sched,
        },
    })
}

/// Assemble and publish the [`FactorStats`] of a successful run;
/// `storage_bytes` are the final map's mixed-precision and FP64 bytes.
fn finish_stats(
    dag: &ExecDag,
    (mp_bytes, fp64_bytes): (u64, u64),
    t0: std::time::Instant,
    work: AttemptWork,
    factor_attempts: u32,
    escalations: Vec<EscalationEvent>,
    wire: Option<Box<DistStats>>,
) -> FactorStats {
    let mut counts = [0usize; 4];
    for t in dag.nodes.iter().filter_map(|n| n.kernel()) {
        match t.kind() {
            KernelKind::Potrf => counts[0] += 1,
            KernelKind::Trsm => counts[1] += 1,
            KernelKind::Syrk => counts[2] += 1,
            KernelKind::Gemm => counts[3] += 1,
        }
    }
    let mut sched_totals = WorkerStats::default();
    for s in &work.sched {
        sched_totals.accumulate(s);
    }
    let stats = FactorStats {
        tasks_run: work.tasks_run as usize,
        kernel_counts: counts,
        wall_s: t0.elapsed().as_secs_f64(),
        storage_bytes_mp: mp_bytes,
        storage_bytes_fp64: fp64_bytes,
        conversions_performed: work.conv_performed,
        conversions_avoided: work.conv_avoided,
        conversion_bytes_avoided: work.conv_bytes_avoided,
        factor_attempts,
        escalations,
        task_retries: work.task_retries,
        sched_per_worker: work.sched,
        sched_totals,
        wire,
    };
    stats.publish_metrics();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precision_map::{uniform_map, PrecisionMap};
    use mixedp_fp::{Precision, StoragePrecision};
    use mixedp_kernels::reconstruction_error;
    use mixedp_tile::tile_fro_norms;

    fn spd_matrix(n: usize, nb: usize) -> SymmTileMatrix {
        SymmTileMatrix::from_fn(
            n,
            nb,
            |i, j| {
                let d = (i as f64 - j as f64).abs();
                (-0.08 * d).exp() + if i == j { 0.5 } else { 0.0 }
            },
            |_, _| StoragePrecision::F64,
        )
    }

    #[test]
    fn dag_task_count_is_cubic_formula() {
        for nt in [1, 2, 3, 5, 8] {
            let dag = build_dag(nt);
            // POTRF: nt; TRSM: nt(nt-1)/2; SYRK: nt(nt-1)/2;
            // GEMM: sum over k of (nt-k-1 choose 2) = nt(nt-1)(nt-2)/6
            let expect = nt + nt * (nt - 1) + nt * (nt - 1) * nt.saturating_sub(2) / 6;
            assert_eq!(dag.tasks.len(), expect, "nt={nt}");
            assert_eq!(dag.graph.len(), expect);
        }
    }

    #[test]
    fn critical_path_priorities_decrease_along_edges() {
        // cp[parent] = cost(parent) + max(cp[dependents]) with positive
        // costs, so every task strictly outranks each of its dependents —
        // the invariant that makes priority order respect the DAG depth.
        let dag = build_dag(6);
        for (id, node) in dag.graph.iter() {
            for &d in &node.deps {
                assert!(
                    dag.graph.node(d).priority > node.priority,
                    "dep {d} must outrank task {id}"
                );
            }
        }
        // The root POTRF(0,0) heads the longest chain of the whole DAG.
        let max = dag.graph.iter().map(|(_, n)| n.priority).max().unwrap();
        assert_eq!(dag.graph.node(0).priority, max);
        assert!(matches!(dag.tasks[0], CholeskyTask::Potrf { k: 0 }));
    }

    #[test]
    fn affinity_hints_name_previous_writer_of_output_tile() {
        let nt = 5;
        let dag = build_dag(nt);
        let find = |want: CholeskyTask| dag.tasks.iter().position(|t| *t == want).unwrap();
        // First iteration writes are first-touch: no previous writer.
        assert_eq!(
            dag.graph.node(find(CholeskyTask::Potrf { k: 0 })).affinity,
            None
        );
        assert_eq!(
            dag.graph
                .node(find(CholeskyTask::Trsm { m: 2, k: 0 }))
                .affinity,
            None
        );
        // POTRF(1,1) updates (1,1) in place after SYRK(1,1)<-(1,0).
        let syrk = find(CholeskyTask::Syrk { m: 1, k: 0 });
        assert_eq!(
            dag.graph.node(find(CholeskyTask::Potrf { k: 1 })).affinity,
            Some(syrk)
        );
        // TRSM(m,1) updates (m,1) last written by GEMM(m,1,0).
        let gemm = find(CholeskyTask::Gemm { m: 3, n: 1, k: 0 });
        assert_eq!(
            dag.graph
                .node(find(CholeskyTask::Trsm { m: 3, k: 1 }))
                .affinity,
            Some(gemm)
        );
        // GEMM(m,n,1) updates (m,n) last written by GEMM(m,n,0).
        let g0 = find(CholeskyTask::Gemm { m: 4, n: 2, k: 0 });
        assert_eq!(
            dag.graph
                .node(find(CholeskyTask::Gemm { m: 4, n: 2, k: 1 }))
                .affinity,
            Some(g0)
        );
    }

    #[test]
    fn fp64_factorization_matches_reference() {
        let n = 48;
        let a0 = spd_matrix(n, 16);
        let dense = a0.to_dense_symmetric();
        let mut a = a0.clone();
        let m = uniform_map(a.nt(), Precision::Fp64);
        let stats = factorize(&mut a, &m, &FactorOptions::single_shot(1)).unwrap();
        assert_eq!(stats.tasks_run, 3 + 6 + 1); // nt=3: 3 potrf + 3 trsm + 3 syrk + 1 gemm
        let l = a.to_dense_lower();
        let err = reconstruction_error(&dense, &l);
        assert!(err < 1e-13, "reconstruction error {err}");
    }

    #[test]
    fn parallel_matches_serial_fp64_exactly() {
        // FP64 tile kernels do identical arithmetic regardless of
        // interleaving (the DAG fixes all data dependencies).
        let n = 64;
        let mut a1 = spd_matrix(n, 16);
        let mut a2 = a1.clone();
        let m = uniform_map(a1.nt(), Precision::Fp64);
        factorize(&mut a1, &m, &FactorOptions::single_shot(1)).unwrap();
        factorize(&mut a2, &m, &FactorOptions::single_shot(4)).unwrap();
        for i in 0..n {
            for j in 0..=i {
                assert_eq!(a1.get(i, j), a2.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn mixed_precision_error_between_fp64_and_fp16() {
        let n = 80;
        let a0 = spd_matrix(n, 16);
        let dense = a0.to_dense_symmetric();
        let err_of = |p: Precision| {
            let mut a = a0.clone();
            let m = uniform_map(a.nt(), p);
            factorize(&mut a, &m, &FactorOptions::single_shot(2)).unwrap();
            reconstruction_error(&dense, &a.to_dense_lower())
        };
        let e64 = err_of(Precision::Fp64);
        let e32 = err_of(Precision::Fp32);
        let e16 = err_of(Precision::Fp16);
        assert!(e64 < 1e-13);
        assert!(e32 > e64 && e32 < 1e-5, "e32={e32}");
        assert!(e16 > e32, "e16={e16} vs e32={e32}");
        assert!(e16 < 0.05, "FP16 still produces a usable factor: {e16}");
    }

    #[test]
    fn adaptive_map_accuracy_tracks_u_req() {
        let n = 96;
        let a0 = spd_matrix(n, 16);
        let dense = a0.to_dense_symmetric();
        let norms = tile_fro_norms(&a0);
        let err_at = |u_req: f64| {
            let m = PrecisionMap::from_norms(&norms, u_req, &Precision::ADAPTIVE_SET);
            let mut a = a0.clone();
            factorize(&mut a, &m, &FactorOptions::single_shot(2)).unwrap();
            reconstruction_error(&dense, &a.to_dense_lower())
        };
        let tight = err_at(1e-14);
        let loose = err_at(1e-2);
        assert!(tight <= loose, "tight {tight} loose {loose}");
        assert!(tight < 1e-12);
    }

    #[test]
    fn not_spd_is_reported() {
        let mut a = SymmTileMatrix::from_fn(
            8,
            4,
            |i, j| if i == j { -1.0 } else { 0.0 },
            |_, _| StoragePrecision::F64,
        );
        let opts = FactorOptions::single_shot(2);
        let Err(FactorError::NotSpd(err)) =
            factorize(&mut a, &uniform_map(2, Precision::Fp64), &opts)
        else {
            panic!("an indefinite matrix under an FP64 map must be NotSpd");
        };
        assert_eq!(err.column, 0);
    }

    #[test]
    fn map_for_another_tile_grid_is_a_typed_error() {
        let a0 = spd_matrix(64, 16);
        let mut a = a0.clone();
        let err = factorize(
            &mut a,
            &uniform_map(3, Precision::Fp64),
            &FactorOptions::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            FactorError::MapMismatch {
                map_nt: 3,
                matrix_nt: 4
            }
        );
        assert!(err.to_string().contains("3 tile rows"), "{err}");
        for i in 0..64 {
            for j in 0..=i {
                assert_eq!(a.get(i, j).to_bits(), a0.get(i, j).to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn factor_tiles_keep_storage_precision() {
        let mut a = spd_matrix(64, 16);
        let m = uniform_map(a.nt(), Precision::Fp16);
        factorize(&mut a, &m, &FactorOptions::single_shot(1)).unwrap();
        assert_eq!(a.tile(0, 0).storage(), StoragePrecision::F64);
        assert_eq!(a.tile(2, 0).storage(), StoragePrecision::F32);
    }

    #[test]
    fn storage_savings_reported() {
        let mut a = spd_matrix(64, 16);
        let stats = factorize(
            &mut a,
            &uniform_map(4, Precision::Fp16),
            &FactorOptions::single_shot(1),
        )
        .unwrap();
        assert!(stats.storage_bytes_mp < stats.storage_bytes_fp64);
    }

    #[test]
    fn fp64_map_needs_no_conversions() {
        let mut a = spd_matrix(64, 16);
        let stats = factorize(
            &mut a,
            &uniform_map(4, Precision::Fp64),
            &FactorOptions::single_shot(2),
        )
        .unwrap();
        assert_eq!(stats.conversions_performed, 0);
        assert_eq!(stats.conversions_avoided, 0);
        assert_eq!(stats.stc_avoidance_ratio(), 0.0);
    }

    #[test]
    fn stc_avoids_majority_of_panel_conversions() {
        // nt = 8: each panel tile (m,k) feeds nt-k-2 GEMMs, so one producer
        // conversion replaces that many consumer conversions.
        let nt = 8;
        let a0 = spd_matrix(nt * 16, 16);

        // uniform reduced map: every GEMM operand comes from the cache
        let mut a = a0.clone();
        let stats = factorize(
            &mut a,
            &uniform_map(nt, Precision::Fp16x32),
            &FactorOptions::single_shot(1),
        )
        .unwrap();
        let ngemm = stats.kernel_counts[3] as u64;
        assert_eq!(stats.conversions_avoided, 2 * ngemm, "every operand cached");
        assert!(
            stats.stc_avoidance_ratio() > 0.5,
            "uniform map ratio {} (performed {}, avoided {})",
            stats.stc_avoidance_ratio(),
            stats.conversions_performed,
            stats.conversions_avoided
        );
        assert!(stats.conversion_bytes_avoided > 0);

        // adaptive map (the paper's setting), parallel schedule
        let norms = tile_fro_norms(&a0);
        let pmap = PrecisionMap::from_norms(&norms, 1e-4, &Precision::ADAPTIVE_SET);
        let has_reduced_gemm = (0..nt)
            .flat_map(|i| (0..i).map(move |j| (i, j)))
            .any(|(i, j)| pmap.kernel(i, j) != Precision::Fp64);
        let mut a = a0.clone();
        let stats = factorize(&mut a, &pmap, &FactorOptions::single_shot(4)).unwrap();
        if has_reduced_gemm {
            assert!(
                stats.stc_avoidance_ratio() > 0.5,
                "adaptive map ratio {} (performed {}, avoided {})",
                stats.stc_avoidance_ratio(),
                stats.conversions_performed,
                stats.conversions_avoided
            );
        }
    }

    #[test]
    fn stc_parallel_matches_serial_mixed_precision_exactly() {
        // The whole data path — blocked kernels, workspace staging, cached
        // producer conversions — is bit-reproducible across schedules even
        // in reduced precision.
        let n = 96;
        for p in [Precision::Fp16x32, Precision::Fp32, Precision::Fp16] {
            let mut a1 = spd_matrix(n, 16);
            let mut a2 = a1.clone();
            let m = uniform_map(a1.nt(), p);
            factorize(&mut a1, &m, &FactorOptions::single_shot(1)).unwrap();
            factorize(&mut a2, &m, &FactorOptions::single_shot(4)).unwrap();
            for i in 0..n {
                for j in 0..=i {
                    assert_eq!(a1.get(i, j), a2.get(i, j), "{p:?} ({i},{j})");
                }
            }
        }
    }
}
