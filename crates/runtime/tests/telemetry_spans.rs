//! Telemetry span-stream property tests: randomized DAGs executed serially
//! and over 1–16 workers with tracing on. [`validate_task_spans`] checks
//! the invariants the exporters rely on:
//!
//! 1. **exactly-once** — every task produces exactly one `TaskExec` span
//!    carrying its task id, also when it was retried;
//! 2. **per-track ordering** — spans on one track never overlap (a worker
//!    runs one task at a time);
//! 3. **dependency order** — no span starts before its dependencies' spans
//!    end;
//! 4. **no loss** — nothing was dropped on ring overflow.
//!
//! On top of that the Chrome `trace_event` export must validate with one
//! complete span per task, and a ring that does overflow must count every
//! dropped record instead of growing.
//!
//! Every test holds [`obs::test_guard`] — the enable flag, the ring
//! registry, and the metric registry are process-global.

use mixedp_obs as obs;
use mixedp_runtime::{
    execute_parallel, execute_parallel_ctx_opts, execute_serial_ctx_opts, validate_task_spans,
    ExecOptions, FaultPlan, RetryPolicy, TaskGraph,
};
use proptest::prelude::*;

/// Deterministic word stream for shaping random dependencies.
fn pick(words: &[u64], i: usize, salt: u64) -> u64 {
    let w = words[i % words.len()];
    w.rotate_left((salt % 63) as u32) ^ salt.wrapping_mul(0x9E3779B97F4A7C15)
}

/// Random sparse DAG: each task depends on up to 3 distinct earlier tasks.
fn build_graph(n: usize, words: &[u64]) -> TaskGraph {
    let mut g = TaskGraph::with_capacity(n);
    for i in 0..n {
        let mut deps: Vec<usize> = (0..3)
            .filter_map(|k| {
                if i == 0 {
                    None
                } else {
                    Some((pick(words, i, k + 1) % i as u64) as usize)
                }
            })
            .collect();
        deps.sort_unstable();
        deps.dedup();
        g.add_task(deps, 0);
    }
    g
}

/// Run `graph` with tracing on — serially when `workers` is `None` — and
/// assert the span-stream invariants. Returns the number of failed task
/// attempts.
fn check_span_stream(graph: &TaskGraph, workers: Option<usize>, opts: &ExecOptions) -> usize {
    let _g = obs::test_guard();
    let n = graph.len();
    obs::collect(); // drain records left over from other tests
    obs::set_enabled(true);
    let failed = match workers {
        Some(w) => execute_parallel_ctx_opts(graph, w, |_| (), |(), _| {}, opts)
            .map(|t| t.failures().len()),
        None => execute_serial_ctx_opts(graph, &mut (), |(), _| {}, opts).map(|(_, f)| f.len()),
    };
    obs::set_enabled(false);
    let failed = failed.expect("execution failed");
    let t = obs::collect();
    validate_task_spans(graph, &t).unwrap_or_else(|e| panic!("{workers:?} workers: {e}"));

    // parallel spans sit on worker tracks, serial ones on the caller's
    for r in t
        .records
        .iter()
        .filter(|r| r.kind == obs::EventKind::TaskExec)
    {
        match workers {
            Some(w) => assert!(
                r.track != obs::MAIN_TRACK && (r.track as usize) < w,
                "task span on unexpected track {} with {w} workers",
                r.track
            ),
            None => assert_eq!(r.track, obs::MAIN_TRACK, "serial span off the main track"),
        }
    }

    let json = obs::chrome_trace_json(&t);
    let summary = obs::validate_chrome_trace(&json).expect("chrome export must validate");
    assert_eq!(summary.complete_spans, n);
    assert!(summary.tracks >= 1);
    failed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn span_stream_invariants_hold(
        n in 2usize..80,
        workers in 1usize..=16,
        words in prop::collection::vec(0u64..u64::MAX, 8),
    ) {
        let graph = build_graph(n, &words);
        check_span_stream(&graph, None, &ExecOptions::default());
        check_span_stream(&graph, Some(workers), &ExecOptions::default());
    }
}

#[test]
fn retried_task_emits_one_span() {
    // task 5 fails its first attempt; the retry's time belongs to the same
    // span, in both executors
    let graph = build_graph(12, &[3, 141, 5926, 53589]);
    let opts = ExecOptions {
        faults: FaultPlan::seeded(11).with_panic_at(5, 1),
        retry: RetryPolicy::default(),
    };
    for workers in [None, Some(1), Some(3)] {
        assert_eq!(check_span_stream(&graph, workers, &opts), 1, "{workers:?}");
    }
}

#[test]
fn ring_overflow_is_counted_not_grown() {
    let _g = obs::test_guard();
    obs::set_default_ring_capacity(8);
    obs::reset_rings();
    obs::set_enabled(true);
    // emit from fresh worker threads so each gets a capacity-8 ring
    let mut flood = TaskGraph::with_capacity(20);
    for _ in 0..20 {
        flood.add_task(vec![], 0);
    }
    execute_parallel(&flood, 1, |_| {}).expect("execution failed");
    obs::set_enabled(false);
    let t = obs::collect();
    obs::set_default_ring_capacity(obs::ring::DEFAULT_RING_CAPACITY);
    obs::reset_rings();
    for track in t.tracks() {
        let count = t.records.iter().filter(|r| r.track == track).count();
        assert!(
            count <= 8,
            "track {track} grew past its ring capacity ({count} records)"
        );
    }
    // 20 task spans plus any steal/park/wake instants competed for 8 slots
    assert!(
        t.dropped >= 12,
        "overflow must be drop-counted (got {} drops)",
        t.dropped
    );
}

#[test]
fn disabled_run_emits_nothing() {
    let _g = obs::test_guard();
    obs::collect();
    obs::set_enabled(false);
    let mut g = TaskGraph::with_capacity(16);
    for _ in 0..16 {
        g.add_task(vec![], 0);
    }
    execute_parallel(&g, 4, |_| {}).expect("execution failed");
    let t = obs::collect();
    assert!(
        t.records.is_empty(),
        "tracing off must emit no records (got {})",
        t.records.len()
    );
}
