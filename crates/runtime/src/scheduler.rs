//! Asynchronous dependency-driven execution of a [`TaskGraph`].
//!
//! Tasks become *ready* when their last dependency completes — PaRSEC's
//! asynchronous scheduling model (paper §III-B): no global synchronization
//! points, no predefined order, workers never idle while ready work exists.
//!
//! # Work-stealing design
//!
//! The parallel executor is a work-stealing scheduler:
//!
//! * **Per-worker ready queues.** Each worker owns a priority queue of
//!   ready tasks. Releasing a dependent pushes it to the queue of its
//!   *preferred* worker (see affinity below) — usually the releasing
//!   worker itself — so the common path touches only one uncontended lock
//!   instead of a global heap every handoff.
//! * **Steal-half.** A worker whose queue drains sweeps victims in
//!   rotation order starting after itself and transfers the top half of
//!   the first non-empty queue it finds (capped at a small batch so deep
//!   queues are never bulk-migrated), keeping the best-priority task to
//!   run immediately. Stealing in batches cuts the steal frequency on
//!   steal-heavy DAG shapes (wide layers feeding narrow ones) while
//!   keeping victim lock holds bounded.
//! * **Targeted wake-ups.** Idle workers register in an idle stack and
//!   park on a private condvar. A producer wakes exactly one sleeper —
//!   preferring the queue's owner — instead of `notify_all` storms; a
//!   woken worker that acquires surplus work wakes one more sleeper
//!   (wake-up propagation), so the pool unfolds in O(log n) cascades.
//! * **Termination detection.** Completion of the final task (an atomic
//!   `remaining` counter reaching zero) wakes every sleeper; the protocol
//!   tolerates in-flight steals because exit is decided solely by the
//!   counter, never by empty-queue consensus. Parking double-checks all
//!   queues *after* registering idle, which closes the lost-wake-up race;
//!   a coarse timeout backstop bounds the damage of any residual race to
//!   a bounded stall instead of a hang.
//! * **Locality-aware dispatch.** A task whose
//!   [`TaskNode::affinity`](crate::graph::TaskNode::affinity)
//!   names the previous writer of its in-place output is dispatched to
//!   the worker that executed that writer — the worker whose cache still
//!   holds the tile — and only migrates if someone steals it.
//! * **Critical-path priorities.** Queues order by the task priority,
//!   which the DAG builders derive from
//!   [`TaskGraph::critical_path_lengths`] — the task unlocking the
//!   longest remaining chain runs first.
//!
//! Workers can carry a per-worker mutable *context*
//! ([`execute_parallel_ctx_opts`] / [`execute_serial_ctx_opts`]): the
//! scheduler constructs one context per worker before the run and hands it
//! mutably to every task that worker executes. This is how the kernel layer
//! keeps reusable scratch workspaces — each worker owns its buffers for the
//! whole factorization, so the steady state performs no heap allocation at
//! all (see `mixedp_kernels::workspace`).
//!
//! [`execute_serial_ctx_opts`] remains the deterministic single-threaded
//! oracle: strict priority order, bit-exact run to run.
//!
//! # Telemetry
//!
//! Both executors time a task with one `obs::span_start`/`span_end` pair
//! around all of its attempts, so every executed task leaves exactly one
//! `TaskExec` span in the `mixedp-obs` ring, and with tracing off a task
//! costs no clock read. The span closes before the task's dependents are
//! released, which is what lets [`crate::validate_task_spans`] check
//! dependency order on the span stream.

use crate::fault::{FaultPlan, RetryPolicy, TaskFailure};
use crate::graph::{TaskGraph, TaskId};
use crate::trace::{ExecutionTrace, WorkerStats};
use mixedp_obs as obs;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Execution failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecuteError {
    /// A worker thread died outside task execution (scheduler bug) — task
    /// panics themselves are caught, retried, and reported as
    /// [`ExecuteError::TaskFailed`].
    WorkerPanicked,
    /// A task exhausted its retry budget; the record names the culprit.
    TaskFailed(TaskFailure),
}

impl std::fmt::Display for ExecuteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecuteError::WorkerPanicked => write!(f, "a worker thread panicked"),
            ExecuteError::TaskFailed(t) => write!(
                f,
                "task {} failed after {} attempt(s): {}",
                t.task, t.attempt, t.cause
            ),
        }
    }
}

impl std::error::Error for ExecuteError {}

/// Execution options: the retry policy applied to panicking tasks and the
/// (default no-op) deterministic fault-injection plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecOptions {
    pub retry: RetryPolicy,
    pub faults: FaultPlan,
}

/// Poison-tolerant lock: a panicking worker must never wedge the surviving
/// workers on a poisoned mutex. Task bodies run inside `catch_unwind`, so a
/// poisoned queue/idle lock can only mean the panic struck between guard
/// acquisition and release of pure scheduler bookkeeping — whose state is
/// a heap/stack of plain values, valid at every intermediate step.
fn lock_pt<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Human-readable cause from a panic payload.
fn panic_cause(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Run task `id` under the retry policy and fault plan of `opts`. Every
/// failed attempt is appended to `failures`; once the budget is exhausted
/// the last failure is returned.
///
/// Injected panics fire *before* the task body, so a retried injection
/// re-runs the body on clean inputs. A genuine kernel panic mid-write may
/// leave its output partially updated; retry is then best-effort
/// (idempotent task bodies retry exactly).
fn run_with_retries(
    id: TaskId,
    opts: &ExecOptions,
    failures: &mut Vec<TaskFailure>,
    mut body: impl FnMut(),
) -> Result<(), TaskFailure> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if !opts.faults.is_noop() && opts.faults.inject_panic(id as u64, attempt) {
                panic!(
                    "injected fault (plan seed {}, task {id}, attempt {attempt})",
                    opts.faults.seed()
                );
            }
            body()
        }));
        let Err(payload) = outcome else {
            return Ok(());
        };
        let failure = TaskFailure {
            task: id,
            attempt,
            cause: panic_cause(payload),
        };
        failures.push(failure.clone());
        if attempt >= opts.retry.max_attempts {
            return Err(failure);
        }
        let back = opts.retry.backoff_ns(&opts.faults, id as u64, attempt);
        if back > 0 {
            std::thread::sleep(Duration::from_nanos(back));
        }
    }
}

/// Ready-queue entry ordered by (priority, then younger id first so panel
/// tasks emitted early in an iteration win ties).
#[derive(PartialEq, Eq)]
struct Ready {
    priority: i64,
    id: TaskId,
}

impl Ord for Ready {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Private parking spot of one worker: a wake flag (absorbs wake-ups that
/// race with going to sleep) and the condvar the worker blocks on.
struct Parker {
    flag: Mutex<bool>,
    cv: Condvar,
}

/// Backstop for the (closed, but hard to prove closed forever) lost-wake-up
/// race: a parked worker re-checks the world at this period even if no one
/// wakes it. Large enough to be invisible in steady state, small enough to
/// bound any residual stall.
const PARK_BACKSTOP: Duration = Duration::from_millis(2);

/// Sentinel for "task not executed yet" in the affinity table.
const NO_WORKER: usize = usize::MAX;

/// Upper bound on one steal transfer. Steal-half with no cap lets a fast
/// worker walk off with thousands of entries of a deep queue — each a heap
/// pop under the victim's lock — and the bulk then ping-pongs back when the
/// victim drains. A small cap keeps victim lock holds O(cap) while still
/// amortizing the sweep over many subsequent local pops.
const STEAL_CAP: usize = 16;

/// Spin-then-park: after a failed steal sweep, yield-and-recheck this many
/// times before taking the (comparatively expensive) park path. Ready work
/// that appears within a few scheduling quanta is picked up at steal
/// latency instead of park/unpark latency — the standard work-stealing
/// compromise between wake responsiveness and idle cost.
const SPIN_TRIES: usize = 64;

struct SharedState<'g> {
    graph: &'g TaskGraph,
    /// One ready queue per worker, each a priority heap behind its own lock.
    queues: Vec<Mutex<BinaryHeap<Ready>>>,
    /// Lock-free length hint per queue (maintained on push/pop/steal):
    /// lets the steal sweep and the park-time work check skip empty queues
    /// without touching their locks. A stale hint is harmless — it only
    /// causes one extra lock probe or one spurious loop iteration.
    lens: Vec<AtomicUsize>,
    parkers: Vec<Parker>,
    /// Stack of currently-parked worker ids (the wake targets).
    idle: Mutex<Vec<usize>>,
    /// Lock-free mirror of `idle.len()`: producers skip the idle lock (and
    /// wake-up work entirely) while nobody is parked — the common case on a
    /// saturated pool. SeqCst pairs with the parker's SeqCst work re-check
    /// so at least one side always sees the other (see `park` comments).
    idle_count: AtomicUsize,
    /// Which worker executed each task — the affinity table that routes a
    /// successor to the cache that last wrote its data.
    executed_by: Vec<AtomicUsize>,
    remaining: AtomicUsize,
    /// Set when any task exhausted its retries: workers then *fast-fail* —
    /// they keep draining dependency bookkeeping so nobody waits forever,
    /// but stop invoking task bodies, so failed runs return promptly
    /// instead of executing every remaining task.
    poisoned: AtomicBool,
    /// The first retry-exhausted failure (the one the run reports).
    fatal: Mutex<Option<TaskFailure>>,
}

impl SharedState<'_> {
    fn nworkers(&self) -> usize {
        self.queues.len()
    }

    /// Wake one parked worker, preferring `preferred` (the owner of a queue
    /// that just received work). Returns true if a worker was woken.
    fn wake_one(&self, preferred: usize) -> bool {
        if self.idle_count.load(Ordering::SeqCst) == 0 {
            return false;
        }
        let wid = {
            let mut idle = lock_pt(&self.idle);
            if idle.is_empty() {
                return false;
            }
            let wid = match idle.iter().position(|&w| w == preferred) {
                Some(pos) => idle.swap_remove(pos),
                None => idle.pop().unwrap(),
            };
            self.idle_count.store(idle.len(), Ordering::SeqCst);
            wid
        };
        self.unpark(wid);
        obs::instant(obs::EventKind::Wake, wid as u64);
        true
    }

    /// Wake every parked worker (termination broadcast).
    fn wake_all(&self) {
        let drained: Vec<usize> = {
            let mut idle = lock_pt(&self.idle);
            self.idle_count.store(0, Ordering::SeqCst);
            std::mem::take(&mut *idle)
        };
        for wid in drained {
            self.unpark(wid);
        }
    }

    /// Remove `wid` from the idle stack if a waker didn't already.
    fn deregister_idle(&self, wid: usize) {
        let mut idle = lock_pt(&self.idle);
        if let Some(pos) = idle.iter().position(|&w| w == wid) {
            idle.swap_remove(pos);
            self.idle_count.store(idle.len(), Ordering::SeqCst);
        }
    }

    fn unpark(&self, wid: usize) {
        let p = &self.parkers[wid];
        let mut flag = lock_pt(&p.flag);
        *flag = true;
        p.cv.notify_one();
    }

    /// True if any worker's queue currently holds a ready task. SeqCst so
    /// the parker's read of `lens` and a producer's read of `idle_count`
    /// can never both miss each other's prior writes (store-load race).
    fn any_work_visible(&self) -> bool {
        self.lens.iter().any(|l| l.load(Ordering::SeqCst) > 0)
    }

    fn push_to(&self, target: usize, id: TaskId) {
        lock_pt(&self.queues[target]).push(Ready {
            priority: self.graph.node(id).priority,
            id,
        });
        self.lens[target].fetch_add(1, Ordering::SeqCst);
    }
}

/// Execute every task of `graph` on `nthreads` workers, each carrying a
/// per-worker mutable context built by `mk_ctx(worker_id)`.
///
/// `run(ctx, task)` performs the work; it must synchronize its own data
/// access (the DAG guarantees a task's dependencies have completed before
/// it starts). A panicking task is re-executed up to
/// `opts.retry.max_attempts` times before the run fails with a structured
/// [`ExecuteError::TaskFailed`]; `opts.faults` is a deterministic
/// [`FaultPlan`] for replayable failure injection. Returns the per-worker
/// steal/idle/wake counters and the failed attempts; task timings go to the
/// `mixedp-obs` span stream.
pub fn execute_parallel_ctx_opts<C: Send>(
    graph: &TaskGraph,
    nthreads: usize,
    mk_ctx: impl Fn(usize) -> C + Sync,
    run: impl Fn(&mut C, TaskId) + Sync,
    opts: &ExecOptions,
) -> Result<ExecutionTrace, ExecuteError> {
    assert!(nthreads > 0);
    let n = graph.len();
    if n == 0 {
        return Ok(ExecutionTrace::new(
            vec![WorkerStats::default(); nthreads],
            Vec::new(),
        ));
    }
    let dependents = graph.dependents();
    let dep_counts: Vec<AtomicUsize> = graph
        .dep_counts()
        .into_iter()
        .map(AtomicUsize::new)
        .collect();

    // Seed the roots round-robin so startup work is already spread out.
    // No worker exists yet, so the heaps are built lock-free.
    let mut seed: Vec<BinaryHeap<Ready>> = (0..nthreads).map(|_| BinaryHeap::new()).collect();
    {
        let mut next = 0usize;
        for (id, node) in graph.iter() {
            if node.deps.is_empty() {
                seed[next % nthreads].push(Ready {
                    priority: node.priority,
                    id,
                });
                next += 1;
            }
        }
    }
    let state = SharedState {
        graph,
        lens: seed.iter().map(|h| AtomicUsize::new(h.len())).collect(),
        queues: seed.into_iter().map(Mutex::new).collect(),
        parkers: (0..nthreads)
            .map(|_| Parker {
                flag: Mutex::new(false),
                cv: Condvar::new(),
            })
            .collect(),
        idle: Mutex::new(Vec::with_capacity(nthreads)),
        idle_count: AtomicUsize::new(0),
        executed_by: (0..n).map(|_| AtomicUsize::new(NO_WORKER)).collect(),
        remaining: AtomicUsize::new(n),
        poisoned: AtomicBool::new(false),
        fatal: Mutex::new(None),
    };

    let state = &state;
    let dependents = &dependents;
    let dep_counts = &dep_counts;
    let mk_ctx = &mk_ctx;
    let run = &run;

    let worker = move |wid: usize| {
        obs::set_thread_track(wid as u16);
        let mut ctx = mk_ctx(wid);
        let mut stats = WorkerStats::default();
        let mut my_failures: Vec<TaskFailure> = Vec::new();
        let nw = state.nworkers();
        // Private batch of stolen tasks, worst-priority first so the best
        // is an O(1) pop off the back. Running a stolen chunk privately
        // avoids re-pushing it through a heap (pop victim → push self →
        // pop self would triple the heap traffic); if a peer parks while
        // the stash is non-empty, half of it is published back to the
        // queue below ("share" step), so no work is ever hoarded while
        // anyone idles.
        let mut stash: Vec<Ready> = Vec::new();

        'main: loop {
            // 1. Local queue — the dependents this worker just released
            //    (and affinity dispatches from peers). The length hint
            //    skips the lock when the queue is known empty.
            let mut task = None;
            if state.lens[wid].load(Ordering::Acquire) > 0 {
                let popped = lock_pt(&state.queues[wid]).pop();
                if popped.is_some() {
                    state.lens[wid].fetch_sub(1, Ordering::Release);
                    stats.local_pops += 1;
                }
                task = popped.map(|r| r.id);
            }

            // 2. Private stash from the last steal, best-priority at the back.
            if task.is_none() {
                task = stash.pop().map(|r| r.id);
            }

            // 3. Steal sweep: victims in rotation order after ourselves;
            //    take the top half (capped) of the first non-empty queue.
            //    The length hints let us pass over empty victims without
            //    touching their locks.
            if task.is_none() && nw > 1 {
                for off in 1..nw {
                    let victim = (wid + off) % nw;
                    if state.lens[victim].load(Ordering::Acquire) == 0 {
                        continue;
                    }
                    let mut grabbed: Vec<Ready> = Vec::new();
                    {
                        let mut vq = lock_pt(&state.queues[victim]);
                        let take = vq.len().div_ceil(2).min(STEAL_CAP);
                        for _ in 0..take {
                            grabbed.push(vq.pop().unwrap());
                        }
                        if !grabbed.is_empty() {
                            state.lens[victim].fetch_sub(grabbed.len(), Ordering::Release);
                        }
                    }
                    if grabbed.is_empty() {
                        continue;
                    }
                    stats.steals += 1;
                    stats.stolen_tasks += grabbed.len() as u64;
                    obs::instant(obs::EventKind::Steal, grabbed.len() as u64);
                    // Heap pops come out best-first; keep the best to run
                    // now and stash the rest reversed (best at the back).
                    let mut it = grabbed.into_iter();
                    task = it.next().map(|r| r.id);
                    stash = it.rev().collect();
                    break;
                }
                if task.is_none() {
                    stats.failed_steals += 1;
                }
            }

            let Some(id) = task else {
                if state.remaining.load(Ordering::Acquire) == 0 {
                    break 'main;
                }
                // 4. Spin-then-park: poll for work a few scheduling quanta
                //    before sleeping — new work usually appears at task
                //    granularity, far below park/unpark latency.
                let mut spun = false;
                for _ in 0..SPIN_TRIES {
                    if state.any_work_visible() || state.remaining.load(Ordering::Acquire) == 0 {
                        spun = true;
                        break;
                    }
                    std::thread::yield_now();
                }
                if spun {
                    continue 'main;
                }
                // 5. Park: register idle, then re-check *after* registering
                //    (closes the race with a producer that pushed between
                //    our failed sweep and the registration).
                {
                    let mut idle = lock_pt(&state.idle);
                    idle.push(wid);
                    state.idle_count.store(idle.len(), Ordering::SeqCst);
                }
                if state.any_work_visible() || state.remaining.load(Ordering::Acquire) == 0 {
                    state.deregister_idle(wid);
                    continue 'main;
                }
                stats.parks += 1;
                obs::instant(obs::EventKind::Park, wid as u64);
                {
                    let p = &state.parkers[wid];
                    let mut flag = lock_pt(&p.flag);
                    while !*flag {
                        let (f, timeout) =
                            p.cv.wait_timeout(flag, PARK_BACKSTOP)
                                .unwrap_or_else(|e| e.into_inner());
                        flag = f;
                        if timeout.timed_out() {
                            break;
                        }
                    }
                    *flag = false;
                }
                // Deregister if the backstop (not a waker) got us up.
                state.deregister_idle(wid);
                continue 'main;
            };

            // Execute. Failure injection / kernel bugs must not deadlock
            // the pool: catch the panic, retry under the bounded policy,
            // and on exhaustion record the structured failure, poison the
            // run, and keep the dependency bookkeeping going so every
            // worker drains and exits. Once poisoned, task bodies are
            // skipped entirely (fast-fail) — only the bookkeeping below
            // still runs.
            if !state.poisoned.load(Ordering::Acquire) {
                let sp = obs::span_start();
                let failed_before = my_failures.len();
                let outcome = run_with_retries(id, opts, &mut my_failures, || run(&mut ctx, id));
                obs::span_end(sp, obs::EventKind::TaskExec, id as u64);
                // every failed attempt but a fatal last one was retried
                stats.retries +=
                    (my_failures.len() - failed_before) as u64 - outcome.is_err() as u64;
                if let Err(failure) = outcome {
                    let mut fatal = lock_pt(&state.fatal);
                    if fatal.is_none() {
                        *fatal = Some(failure);
                    }
                    drop(fatal);
                    state.poisoned.store(true, Ordering::Release);
                }
            }
            stats.tasks += 1;
            state.executed_by[id].store(wid, Ordering::Release);

            // Release dependents to their preferred workers.
            let mut kept_local = 0usize;
            for &dep in &dependents[id] {
                if dep_counts[dep].fetch_sub(1, Ordering::AcqRel) == 1 {
                    let target = match state.graph.node(dep).affinity {
                        Some(a) => {
                            let w = state.executed_by[a].load(Ordering::Acquire);
                            if w == NO_WORKER {
                                wid
                            } else {
                                w
                            }
                        }
                        None => wid,
                    };
                    state.push_to(target, dep);
                    if target == wid {
                        kept_local += 1;
                    } else {
                        stats.affinity_dispatches += 1;
                        stats.wakes += state.wake_one(target) as u64;
                    }
                }
            }
            // Share surplus with sleepers: we can only run one task next,
            // so if anyone is parked, publish the private stash back to
            // the (stealable) queue and recruit one sleeper. `wake_one`
            // exits on its lock-free idle hint, so a saturated pool pays
            // one atomic load here, no locks.
            if !stash.is_empty() && state.idle_count.load(Ordering::SeqCst) > 0 {
                let give = stash.len().div_ceil(2);
                {
                    // drain from the front: the stash is worst-first, so
                    // we publish the lower-priority half and keep the best
                    let mut q = lock_pt(&state.queues[wid]);
                    q.extend(stash.drain(..give));
                }
                state.lens[wid].fetch_add(give, Ordering::SeqCst);
                stats.wakes += state.wake_one(wid) as u64;
            } else if kept_local > 1 {
                stats.wakes += state.wake_one(wid) as u64;
            }
            if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                state.wake_all();
            }
        }
        (stats, my_failures)
    };

    let joined: Result<Vec<_>, _> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nthreads).map(|w| s.spawn(move || worker(w))).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let Ok(results) = joined else {
        return Err(ExecuteError::WorkerPanicked);
    };
    if let Some(f) = lock_pt(&state.fatal).take() {
        return Err(ExecuteError::TaskFailed(f));
    }
    if state.poisoned.load(Ordering::Acquire) {
        return Err(ExecuteError::WorkerPanicked);
    }
    let (stats, failures): (Vec<WorkerStats>, Vec<Vec<TaskFailure>>) = results.into_iter().unzip();
    Ok(ExecutionTrace::new(stats, failures.concat()))
}

/// Execute every task of `graph` on `nthreads` workers (context-free form,
/// default [`ExecOptions`]).
pub fn execute_parallel(
    graph: &TaskGraph,
    nthreads: usize,
    run: impl Fn(TaskId) + Sync,
) -> Result<ExecutionTrace, ExecuteError> {
    execute_parallel_ctx_opts(
        graph,
        nthreads,
        |_| (),
        |(), id| run(id),
        &ExecOptions::default(),
    )
}

/// Deterministic single-threaded execution in priority order with a caller
/// supplied mutable context, under default [`ExecOptions`] — the reference
/// semantics for tests. A task that exhausts its retries panics with its
/// [`TaskFailure`].
pub fn execute_serial_ctx<C>(
    graph: &TaskGraph,
    ctx: &mut C,
    run: impl FnMut(&mut C, TaskId),
) -> Vec<TaskId> {
    match execute_serial_ctx_opts(graph, ctx, run, &ExecOptions::default()) {
        Ok((order, _)) => order,
        Err(e) => panic!("{e}"),
    }
}

/// Deterministic single-threaded execution in priority order.
pub fn execute_serial(graph: &TaskGraph, mut run: impl FnMut(TaskId)) -> Vec<TaskId> {
    execute_serial_ctx(graph, &mut (), |(), id| run(id))
}

/// Single-threaded execution in strict priority order under an
/// [`ExecOptions`] fault/retry policy — the oracle for every parallel run,
/// fault-injected or not. Returns the execution order together with every
/// failed attempt (recovered or not); a task that exhausts its retry budget
/// fails the run with [`ExecuteError::TaskFailed`].
pub fn execute_serial_ctx_opts<C>(
    graph: &TaskGraph,
    ctx: &mut C,
    mut run: impl FnMut(&mut C, TaskId),
    opts: &ExecOptions,
) -> Result<(Vec<TaskId>, Vec<TaskFailure>), ExecuteError> {
    let n = graph.len();
    let dependents = graph.dependents();
    let mut counts = graph.dep_counts();
    let mut heap: BinaryHeap<Ready> = graph
        .iter()
        .filter(|(_, node)| node.deps.is_empty())
        .map(|(id, node)| Ready {
            priority: node.priority,
            id,
        })
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut failures: Vec<TaskFailure> = Vec::new();
    while let Some(Ready { id, .. }) = heap.pop() {
        let sp = obs::span_start();
        let outcome = run_with_retries(id, opts, &mut failures, || run(ctx, id));
        obs::span_end(sp, obs::EventKind::TaskExec, id as u64);
        outcome.map_err(ExecuteError::TaskFailed)?;
        order.push(id);
        for &dep in &dependents[id] {
            counts[dep] -= 1;
            if counts[dep] == 0 {
                heap.push(Ready {
                    priority: graph.node(dep).priority,
                    id: dep,
                });
            }
        }
    }
    assert_eq!(order.len(), n, "graph had unreachable tasks (cycle?)");
    Ok((order, failures))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn chain(n: usize) -> TaskGraph {
        let mut g = TaskGraph::new();
        let mut prev = None;
        for _ in 0..n {
            let deps = prev.map(|p| vec![p]).unwrap_or_default();
            prev = Some(g.add_task(deps, 0));
        }
        g
    }

    #[test]
    fn serial_respects_dependencies() {
        let mut g = TaskGraph::new();
        let a = g.add_task(vec![], 0);
        let b = g.add_task(vec![a], 10);
        let c = g.add_task(vec![a], 0);
        let d = g.add_task(vec![b, c], 0);
        let order = execute_serial(&g, |_| {});
        let pos = |x: TaskId| order.iter().position(|&y| y == x).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(d));
        assert!(pos(c) < pos(d));
        // priority: b (10) before c (0)
        assert!(pos(b) < pos(c));
    }

    #[test]
    fn parallel_runs_all_tasks_once() {
        let mut g = TaskGraph::new();
        // a layered DAG: 4 layers of 8 tasks, each depending on the whole
        // previous layer
        let mut prev: Vec<TaskId> = Vec::new();
        for _layer in 0..4 {
            let cur: Vec<TaskId> = (0..8).map(|_| g.add_task(prev.clone(), 0)).collect();
            prev = cur;
        }
        let hits: Vec<AtomicU64> = (0..g.len()).map(|_| AtomicU64::new(0)).collect();
        let trace = execute_parallel(&g, 4, |id| {
            hits[id].fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        // counters are populated and consistent
        let tot = trace.total_stats();
        assert_eq!(tot.tasks, g.len() as u64);
        assert_eq!(tot.local_pops + tot.stolen_tasks, tot.tasks);
    }

    #[test]
    fn parallel_respects_dependencies_under_load() {
        // A chain must execute in exact order even with many threads.
        let g = chain(200);
        let last = AtomicUsize::new(0);
        let violations = AtomicUsize::new(0);
        execute_parallel(&g, 8, |id| {
            // ids in a chain are 0..n in dependency order
            let prev = last.swap(id + 1, Ordering::SeqCst);
            if prev != id {
                violations.fetch_add(1, Ordering::SeqCst);
            }
        })
        .unwrap();
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn parallel_uses_multiple_workers() {
        // independent tasks with a small spin: more than one worker should
        // run some of them
        let mut g = TaskGraph::new();
        for _ in 0..64 {
            g.add_task(vec![], 0);
        }
        let trace = execute_parallel(&g, 4, |_| {
            let mut acc = 0u64;
            for i in 0..500_000u64 {
                acc ^= std::hint::black_box(i).wrapping_mul(0x9E3779B97F4A7C15);
            }
            std::hint::black_box(acc);
        })
        .unwrap();
        let busy = trace.worker_stats().iter().filter(|s| s.tasks > 0).count();
        assert!(busy > 1, "only {busy} worker(s) ran tasks");
    }

    #[test]
    fn empty_graph_ok() {
        let g = TaskGraph::new();
        let t = execute_parallel(&g, 2, |_| {}).unwrap();
        assert_eq!(t.total_stats().tasks, 0);
        assert_eq!(t.worker_stats().len(), 2);
        assert!(execute_serial(&g, |_| {}).is_empty());
    }

    #[test]
    fn worker_panic_is_reported_not_hung() {
        // failure injection: one task panics; the run must return an error
        // (not deadlock, not abort the process)
        let mut g = TaskGraph::new();
        for _ in 0..16 {
            g.add_task(vec![], 0);
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_parallel(&g, 2, |id| {
                if id == 7 {
                    panic!("injected failure");
                }
            })
        }));
        // either the scope propagates the panic (Err from catch_unwind) or
        // we get the structured error — both are acceptable, hanging is not
        if let Ok(inner) = r {
            match inner.unwrap_err() {
                ExecuteError::TaskFailed(f) => {
                    assert_eq!(f.task, 7);
                    assert_eq!(f.attempt, RetryPolicy::default().max_attempts);
                    assert!(f.cause.contains("injected failure"), "{}", f.cause);
                }
                e => panic!("expected TaskFailed, got {e:?}"),
            }
        }
    }

    #[test]
    fn poisoned_run_fast_fails_without_running_remaining_tasks() {
        // A chain forces strict ordering: once the first task panics, no
        // later task body may run — workers drain bookkeeping only.
        let n = 100;
        let g = chain(n);
        let bodies_run = AtomicU64::new(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_parallel(&g, 4, |id| {
                bodies_run.fetch_add(1, Ordering::SeqCst);
                if id == 0 {
                    panic!("injected failure");
                }
            })
        }));
        if let Ok(inner) = r {
            assert!(matches!(inner.unwrap_err(), ExecuteError::TaskFailed(_)));
        }
        // task 0 runs once per attempt of the default retry policy; no task
        // after the poison may run at all
        assert_eq!(
            bodies_run.load(Ordering::SeqCst),
            RetryPolicy::default().max_attempts as u64,
            "tasks after the poison must be drained, not executed"
        );
    }

    #[test]
    fn persistent_injected_panic_reports_task_failed_with_retries_exhausted() {
        let mut g = TaskGraph::new();
        for _ in 0..8 {
            g.add_task(vec![], 0);
        }
        let opts = ExecOptions {
            faults: FaultPlan::seeded(42).with_persistent_panic_at(3),
            retry: RetryPolicy::default(),
        };
        let err = execute_parallel_ctx_opts(&g, 2, |_| (), |_, _| (), &opts).unwrap_err();
        match err {
            ExecuteError::TaskFailed(f) => {
                assert_eq!(f.task, 3);
                assert_eq!(f.attempt, opts.retry.max_attempts);
                assert!(f.cause.contains("injected fault"), "{}", f.cause);
            }
            e => panic!("expected TaskFailed, got {e:?}"),
        }
    }

    #[test]
    fn transient_injected_panic_is_retried_to_success() {
        let mut g = TaskGraph::new();
        for _ in 0..8 {
            g.add_task(vec![], 0);
        }
        // fault only on attempt 1 of task 5: the retry must recover
        let opts = ExecOptions {
            faults: FaultPlan::seeded(7).with_panic_at(5, 1),
            retry: RetryPolicy::default(),
        };
        let ran: Vec<AtomicU64> = (0..g.len()).map(|_| AtomicU64::new(0)).collect();
        let trace = execute_parallel_ctx_opts(
            &g,
            2,
            |_| (),
            |_, id| {
                ran[id].fetch_add(1, Ordering::SeqCst);
            },
            &opts,
        )
        .unwrap();
        assert!(ran.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        assert_eq!(trace.failures().len(), 1);
        assert_eq!(trace.failures()[0].task, 5);
        assert_eq!(trace.failures()[0].attempt, 1);
        assert_eq!(trace.total_stats().retries, 1);
    }

    #[test]
    fn serial_opts_matches_parallel_failure_semantics() {
        let g = chain(10);
        let opts = ExecOptions {
            faults: FaultPlan::seeded(9).with_panic_at(4, 1),
            retry: RetryPolicy::default(),
        };
        let (order, failures) = execute_serial_ctx_opts(&g, &mut (), |_, _| (), &opts).unwrap();
        assert_eq!(order.len(), 10);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].task, 4);

        // persistent fault → typed failure naming the culprit
        let opts = ExecOptions {
            faults: FaultPlan::seeded(9).with_persistent_panic_at(4),
            retry: RetryPolicy::default(),
        };
        let err = execute_serial_ctx_opts(&g, &mut (), |_, _| (), &opts).unwrap_err();
        assert!(matches!(err, ExecuteError::TaskFailed(f) if f.task == 4));
    }

    #[test]
    fn priorities_steer_serial_order() {
        let mut g = TaskGraph::new();
        let ids: Vec<_> = (0..5).map(|i| g.add_task(vec![], i as i64)).collect();
        let order = execute_serial(&g, |_| {});
        // descending priority
        let expect: Vec<TaskId> = ids.into_iter().rev().collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn critical_path_priorities_order_known_dag_in_serial() {
        // Diamond with unequal arms:
        //   a → heavy → tail1 → tail2 → sink
        //   a → light ───────────────→ sink
        // Unit-cost critical-path priorities must run `heavy` before
        // `light` (longer remaining chain), even though `light` has the
        // smaller id among ready tasks at that moment.
        let mut g = TaskGraph::new();
        let a = g.add_task(vec![], 0);
        let light = g.add_task(vec![a], 0);
        let heavy = g.add_task(vec![a], 0);
        let t1 = g.add_task(vec![heavy], 0);
        let t2 = g.add_task(vec![t1], 0);
        let sink = g.add_task(vec![light, t2], 0);
        let cp = g.critical_path_lengths(|_| 1);
        g.set_priorities(&cp);
        let order = execute_serial(&g, |_| {});
        let pos = |x: TaskId| order.iter().position(|&y| y == x).unwrap();
        assert_eq!(order[0], a);
        assert!(
            pos(heavy) < pos(light),
            "critical path must outrank id tie-break: {order:?}"
        );
        assert_eq!(order[order.len() - 1], sink);
        // t1 (cp 3) still outranks light (cp 2); t2 ties with light at
        // cp 2 and legitimately loses the tie-break on id.
        assert!(pos(t1) < pos(light));
    }

    #[test]
    fn affinity_prefers_last_writer_worker() {
        // A two-stage pipeline of independent chains: with affinity hints
        // every successor should run on the worker that ran its
        // predecessor (nothing else competes for the workers' time, and
        // each worker has exactly one chain in hand).
        let nchains = 4usize;
        let len = 50usize;
        let mut g = TaskGraph::new();
        let mut chain_of = Vec::new(); // task -> chain
        let mut prev: Vec<TaskId> = (0..nchains)
            .map(|c| {
                let id = g.add_task(vec![], 0);
                chain_of.push(c);
                id
            })
            .collect();
        for _ in 1..len {
            prev = prev
                .iter()
                .enumerate()
                .map(|(c, &p)| {
                    let id = g.add_task_with_affinity(vec![p], 0, Some(p));
                    chain_of.push(c);
                    id
                })
                .collect();
        }
        // the per-worker context is the worker id: each task records who
        // ran it
        let ran_on: Vec<AtomicUsize> = (0..g.len()).map(|_| AtomicUsize::new(NO_WORKER)).collect();
        execute_parallel_ctx_opts(
            &g,
            nchains,
            |wid| wid,
            |&mut wid, id| {
                ran_on[id].store(wid, Ordering::Relaxed);
                // a touch of work so chains overlap in time
                let mut acc = 0u64;
                for i in 0..5_000u64 {
                    acc ^= std::hint::black_box(i).wrapping_mul(0x9E3779B9);
                }
                std::hint::black_box(acc);
            },
            &ExecOptions::default(),
        )
        .unwrap();
        // Count migrations: consecutive tasks of one chain on different
        // workers. Affinity dispatch should keep these rare (steals can
        // still move work; that's the design, not a bug).
        let worker_of: Vec<usize> = ran_on.iter().map(|w| w.load(Ordering::Relaxed)).collect();
        let mut migrations = 0usize;
        let mut pairs = 0usize;
        for (id, node) in g.iter() {
            if let Some(a) = node.affinity {
                pairs += 1;
                if worker_of[id] != worker_of[a] {
                    migrations += 1;
                }
            }
        }
        assert!(
            migrations * 4 < pairs,
            "too many migrations: {migrations}/{pairs}"
        );
    }

    #[test]
    fn per_worker_context_is_threaded_through() {
        // Each worker's context counts the tasks it ran; the counts must
        // sum to the task total, and the serial form must see one context.
        let mut g = TaskGraph::new();
        for _ in 0..64 {
            g.add_task(vec![], 0);
        }
        // Contexts are dropped inside the workers, so each reports its count
        // to an observable sink on drop.
        let totals: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        execute_parallel_ctx_opts(
            &g,
            4,
            |wid| DropCounter {
                wid,
                count: 0,
                sink: &totals,
            },
            |ctx, _id| ctx.count += 1,
            &ExecOptions::default(),
        )
        .unwrap();
        let sum: u64 = totals.iter().map(|t| t.load(Ordering::Relaxed)).sum();
        assert_eq!(sum, 64);

        let mut serial_count = 0u64;
        execute_serial_ctx(&g, &mut serial_count, |c, _| *c += 1);
        assert_eq!(serial_count, 64);
    }

    struct DropCounter<'a> {
        wid: usize,
        count: u64,
        sink: &'a [AtomicU64],
    }

    impl Drop for DropCounter<'_> {
        fn drop(&mut self) {
            self.sink[self.wid].fetch_add(self.count, Ordering::Relaxed);
        }
    }
}
