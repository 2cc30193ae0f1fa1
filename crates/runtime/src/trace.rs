//! Execution traces: per-worker scheduler counters and failed attempts.
//! Task timings live in the `mixedp-obs` span stream only;
//! [`validate_task_spans`] checks that stream against the executed graph.

use crate::fault::TaskFailure;
use crate::graph::{TaskGraph, TaskId};
use mixedp_obs as obs;

/// Per-worker scheduler counters: where each worker's tasks came from and
/// how often it went idle — the observability layer for the work-stealing
/// scheduler (dispatch quality is invisible in task spans alone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker executed.
    pub tasks: u64,
    /// Tasks popped from the worker's own queue.
    pub local_pops: u64,
    /// Successful steal operations (each grabs up to half a victim's queue).
    pub steals: u64,
    /// Tasks obtained through stealing.
    pub stolen_tasks: u64,
    /// Full victim sweeps that found nothing to steal.
    pub failed_steals: u64,
    /// Times the worker registered idle and parked.
    pub parks: u64,
    /// Targeted wake-ups this worker issued to idle peers.
    pub wakes: u64,
    /// Ready tasks this worker dispatched to another worker's queue
    /// because of an affinity hint.
    pub affinity_dispatches: u64,
    /// Task attempts that failed (panicked) and were re-executed under the
    /// retry policy — each one a recovered fault.
    pub retries: u64,
}

impl WorkerStats {
    /// Add these counters to the metrics registry under `scheduler.*`.
    pub fn publish_metrics(&self) {
        static TASKS: obs::LazyCounter = obs::LazyCounter::new("scheduler.tasks");
        static LOCAL_POPS: obs::LazyCounter = obs::LazyCounter::new("scheduler.local_pops");
        static STEALS: obs::LazyCounter = obs::LazyCounter::new("scheduler.steals");
        static STOLEN: obs::LazyCounter = obs::LazyCounter::new("scheduler.stolen_tasks");
        static FAILED: obs::LazyCounter = obs::LazyCounter::new("scheduler.failed_steals");
        static PARKS: obs::LazyCounter = obs::LazyCounter::new("scheduler.parks");
        static WAKES: obs::LazyCounter = obs::LazyCounter::new("scheduler.wakes");
        static AFFINITY: obs::LazyCounter = obs::LazyCounter::new("scheduler.affinity_dispatches");
        static RETRIES: obs::LazyCounter = obs::LazyCounter::new("scheduler.retries");
        TASKS.add(self.tasks);
        LOCAL_POPS.add(self.local_pops);
        STEALS.add(self.steals);
        STOLEN.add(self.stolen_tasks);
        FAILED.add(self.failed_steals);
        PARKS.add(self.parks);
        WAKES.add(self.wakes);
        AFFINITY.add(self.affinity_dispatches);
        RETRIES.add(self.retries);
    }

    /// Merge another worker's counters into this one (fleet totals).
    pub fn accumulate(&mut self, o: &WorkerStats) {
        self.tasks += o.tasks;
        self.local_pops += o.local_pops;
        self.steals += o.steals;
        self.stolen_tasks += o.stolen_tasks;
        self.failed_steals += o.failed_steals;
        self.parks += o.parks;
        self.wakes += o.wakes;
        self.affinity_dispatches += o.affinity_dispatches;
        self.retries += o.retries;
    }
}

/// What a parallel execution leaves behind besides its task spans: the
/// per-worker scheduler counters and every failed task attempt.
#[derive(Debug, Clone)]
pub struct ExecutionTrace {
    worker_stats: Vec<WorkerStats>,
    failures: Vec<TaskFailure>,
}

impl ExecutionTrace {
    /// One counter set per worker, plus the failed-attempt records of the
    /// run (sorted by task id so the log is schedule-independent). On a
    /// successful run these are the faults that retries recovered from.
    pub fn new(worker_stats: Vec<WorkerStats>, mut failures: Vec<TaskFailure>) -> Self {
        failures.sort_by_key(|f| (f.task, f.attempt));
        ExecutionTrace {
            worker_stats,
            failures,
        }
    }

    /// Every failed task attempt observed during the run, including the
    /// ones a retry subsequently recovered.
    pub fn failures(&self) -> &[TaskFailure] {
        &self.failures
    }

    /// Per-worker scheduler counters, one entry per worker.
    pub fn worker_stats(&self) -> &[WorkerStats] {
        &self.worker_stats
    }

    /// Sum of all workers' counters.
    pub fn total_stats(&self) -> WorkerStats {
        let mut t = WorkerStats::default();
        for s in &self.worker_stats {
            t.accumulate(s);
        }
        t
    }
}

/// Check the `TaskExec` span stream of one traced execution of `graph`:
///
/// * no record was dropped on ring overflow;
/// * every task emitted exactly one `TaskExec` span, whose `arg` is its id;
/// * spans on one track never overlap (a track is one executing thread: a
///   scheduler worker, or the caller's thread for the serial executor);
/// * no span starts before the spans of its dependencies end. Both
///   executors close a task's span before releasing its dependents, and
///   all tracks share one monotonic clock, so this holds on any schedule.
///
/// Records of other kinds are ignored; the stream must not hold the task
/// spans of a second run.
pub fn validate_task_spans(graph: &TaskGraph, trace: &obs::TraceData) -> Result<(), String> {
    if trace.dropped != 0 {
        return Err(format!(
            "{} records dropped on ring overflow",
            trace.dropped
        ));
    }
    let n = graph.len();
    let mut spans: Vec<&obs::Record> = trace
        .records
        .iter()
        .filter(|r| r.kind == obs::EventKind::TaskExec)
        .collect();
    let mut span_of: Vec<Option<&obs::Record>> = vec![None; n];
    for &r in &spans {
        let id = r.arg as usize;
        let slot = span_of
            .get_mut(id)
            .ok_or_else(|| format!("span names task {id}, graph has {n} tasks"))?;
        if slot.replace(r).is_some() {
            return Err(format!("task {id} emitted more than one span"));
        }
    }
    let end = |r: &obs::Record| r.ts_ns + r.dur_ns;
    spans.sort_by_key(|r| (r.track, r.ts_ns));
    for w in spans.windows(2) {
        // `<` lets zero-length spans share a timestamp on coarse clocks
        if w[0].track == w[1].track && w[1].ts_ns < end(w[0]) {
            return Err(format!(
                "task {} starts at {} inside task {} (ending {}) on track {}",
                w[1].arg,
                w[1].ts_ns,
                w[0].arg,
                end(w[0]),
                w[0].track
            ));
        }
    }
    let span = |id: TaskId| span_of[id].ok_or_else(|| format!("task {id} emitted no span"));
    for (id, node) in graph.iter() {
        let s = span(id)?;
        for &d in &node.deps {
            let dep = span(d)?;
            if s.ts_ns < end(dep) {
                return Err(format!(
                    "task {id} starts at {} before its dependency {d} ends at {}",
                    s.ts_ns,
                    end(dep)
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace() {
        let t = ExecutionTrace::new(vec![], vec![]);
        assert!(t.worker_stats().is_empty());
        assert!(t.failures().is_empty());
        assert_eq!(t.total_stats(), WorkerStats::default());
    }

    #[test]
    fn worker_stats_accumulate() {
        let a = WorkerStats {
            tasks: 3,
            local_pops: 2,
            steals: 1,
            stolen_tasks: 1,
            failed_steals: 4,
            parks: 2,
            wakes: 1,
            affinity_dispatches: 1,
            retries: 1,
        };
        let b = WorkerStats {
            tasks: 1,
            stolen_tasks: 1,
            ..Default::default()
        };
        let t = ExecutionTrace::new(vec![a, b], vec![]);
        let tot = t.total_stats();
        assert_eq!(tot.tasks, 4);
        assert_eq!(tot.stolen_tasks, 2);
        assert_eq!(tot.failed_steals, 4);
        assert_eq!(tot.retries, 1);
        assert_eq!(t.worker_stats().len(), 2);
    }

    #[test]
    fn failures_attach_sorted() {
        let t = ExecutionTrace::new(
            vec![WorkerStats::default()],
            vec![
                TaskFailure {
                    task: 9,
                    attempt: 1,
                    cause: "b".into(),
                },
                TaskFailure {
                    task: 2,
                    attempt: 2,
                    cause: "a".into(),
                },
            ],
        );
        assert_eq!(t.failures().len(), 2);
        assert_eq!(t.failures()[0].task, 2);
        assert_eq!(t.failures()[1].task, 9);
    }

    fn span(task: u64, track: u16, a: u64, b: u64) -> obs::Record {
        obs::Record {
            ts_ns: a,
            dur_ns: b - a,
            arg: task,
            kind: obs::EventKind::TaskExec,
            track,
        }
    }

    fn stream(records: Vec<obs::Record>) -> obs::TraceData {
        obs::TraceData {
            records,
            dropped: 0,
        }
    }

    /// a → {b, c}: b and c may run side by side once a has ended.
    fn fork() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add_task(vec![], 0);
        g.add_task(vec![a], 0);
        g.add_task(vec![a], 0);
        g
    }

    #[test]
    fn valid_span_stream_passes() {
        let t = stream(vec![
            span(0, 0, 0, 10),
            span(1, 0, 10, 20),
            span(2, 1, 12, 30),
        ]);
        assert_eq!(validate_task_spans(&fork(), &t), Ok(()));
    }

    #[test]
    fn validator_rejects_each_broken_invariant() {
        let g = fork();
        let check = |records| validate_task_spans(&g, &stream(records)).unwrap_err();
        let e = check(vec![span(0, 0, 0, 10), span(1, 0, 10, 20)]);
        assert!(e.contains("task 2 emitted no span"), "{e}");
        let e = check(vec![
            span(0, 0, 0, 10),
            span(1, 0, 10, 20),
            span(2, 1, 12, 30),
            span(2, 1, 30, 31),
        ]);
        assert!(e.contains("more than one span"), "{e}");
        let e = check(vec![
            span(0, 0, 0, 10),
            span(1, 1, 10, 20),
            span(2, 1, 15, 30),
        ]);
        assert!(e.contains("on track 1"), "{e}");
        let e = check(vec![
            span(0, 0, 0, 10),
            span(1, 0, 10, 20),
            span(2, 1, 9, 30),
        ]);
        assert!(e.contains("before its dependency 0"), "{e}");
        let e = check(vec![span(5, 0, 0, 1)]);
        assert!(e.contains("graph has 3 tasks"), "{e}");
        let mut t = stream(vec![
            span(0, 0, 0, 10),
            span(1, 0, 10, 20),
            span(2, 1, 12, 30),
        ]);
        t.dropped = 1;
        assert!(validate_task_spans(&g, &t).unwrap_err().contains("dropped"));
    }
}
