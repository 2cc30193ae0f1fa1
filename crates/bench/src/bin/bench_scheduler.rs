//! Scheduler performance snapshot: emits `BENCH_scheduler.json` so changes
//! to the task runtime can be tracked.
//!
//! Measures:
//!   * dispatch overhead (ns/task) of the work-stealing scheduler on
//!     empty-body DAGs at 8 workers, on both a flat 1-deep graph (pure
//!     queue contention) and the Cholesky DAG (dependency release traffic);
//!   * worker occupancy on the Cholesky DAG at `nt ∈ {8, 16, 32}` with
//!     synthetic task durations proportional to the kernel cost weights,
//!     plus the steal / park / wake / affinity counters of the run.
//!
//! Occupancy and the telemetry on/off deltas are measured at
//! `min(workers, host CPUs)` workers: with more threads than cores, the
//! clock measures how often the OS preempts a thread mid-task, not how well
//! the scheduler feeds workers or what a span costs. Occupancy is read off
//! the traced run's `TaskExec` spans, over every worker of the run, from
//! the first span's start to the last span's end. The counters still come
//! from the full `--workers` run, where stealing is actually exercised.
//!
//! The single-heap executor the work-stealing scheduler replaced is gone;
//! its last measured numbers are copied into the JSON as the frozen
//! `heap_baseline_frozen` field, for reference only.
//!
//! Run: `cargo run --release -p mixedp-bench --bin bench_scheduler`
//! Options: `--workers=8 --reps=5 --quick --out=BENCH_scheduler.json`

use mixedp_bench::timing::{median_secs, spin};
use mixedp_bench::Args;
use mixedp_core::factorize::build_dag;
use mixedp_obs as obs;
use mixedp_runtime::{execute_parallel, TaskGraph, WorkerStats};
use std::time::Instant;

/// The last measurement of the retired single-heap executor (one global
/// `Mutex<BinaryHeap>` ready queue, `notify_all` wake-ups), from the
/// committed quick-mode snapshot on a 1-CPU host: dispatch ns/task and
/// occupancy at 1 worker. Reported as-is; never re-measured.
const HEAP_BASELINE_FROZEN: &str = "{\"quick\": true, \"host_cpus\": 1, \"flat_tasks\": 4000, \"flat_ns_per_task\": 228.2, \"cholesky_dispatch_nt\": 24, \"cholesky_ns_per_task\": 418.7, \"occupancy\": {\"nt8\": 0.9392, \"nt16\": 0.9709, \"nt32\": 0.9608}}";

struct DispatchResult {
    tasks: usize,
    ns_worksteal: f64,
}

/// Time the scheduler over an empty-body graph: all measured time is
/// scheduler overhead (queue ops, dependency release, wake-ups).
fn dispatch_overhead(graph: &TaskGraph, workers: usize, reps: usize) -> DispatchResult {
    let n = graph.len();
    let t_ws = median_secs(reps, || {
        execute_parallel(graph, workers, |_| {}).unwrap();
    });
    DispatchResult {
        tasks: n,
        ns_worksteal: t_ws * 1e9 / n as f64,
    }
}

fn json_dispatch(r: &DispatchResult) -> String {
    format!(
        "{{\"tasks\": {}, \"ns_per_task_worksteal\": {:.1}}}",
        r.tasks, r.ns_worksteal
    )
}

/// Telemetry-off and telemetry-on timing of one graph.
struct OffOn {
    /// Minimum ns per task of each arm.
    off_ns: f64,
    on_ns: f64,
    /// The larger of the two arms' median / minimum: how far a typical run
    /// sits above the best one. A delta smaller than this is noise.
    spread: f64,
}

impl OffOn {
    fn pct(&self) -> f64 {
        100.0 * (self.on_ns - self.off_ns) / self.off_ns
    }
}

/// Telemetry-off and telemetry-on ns per task of `run` over a `tasks`-task
/// graph, from `reps` interleaved off/on runs after one untimed warm-up of
/// each. Interleaving (alternating which arm goes first) spreads host drift
/// over both arms; the minimum drops preemption noise.
fn telemetry_off_on(tasks: usize, reps: usize, mut run: impl FnMut()) -> OffOn {
    let mut times: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for rep in 0..=reps {
        for on in [rep % 2 == 1, rep % 2 == 0] {
            obs::set_enabled(on);
            let t0 = Instant::now();
            run();
            let secs = t0.elapsed().as_secs_f64();
            if rep > 0 {
                times[on as usize].push(secs);
            }
        }
    }
    obs::set_enabled(false);
    obs::reset_rings();
    let ns = |secs: f64| secs * 1e9 / tasks as f64;
    let [off, on] = times.map(|mut t| {
        t.sort_by(f64::total_cmp);
        (t[0], t[t.len() / 2])
    });
    OffOn {
        off_ns: ns(off.0),
        on_ns: ns(on.0),
        spread: (off.1 / off.0).max(on.1 / on.0),
    }
}

/// Time bins of the occupancy timeline; the run average does not depend
/// on the count.
const OCCUPANCY_BINS: usize = 64;

struct OccupancyResult {
    nt: usize,
    tasks: usize,
    occupancy: f64,
    stats: WorkerStats,
}

fn main() {
    let args = Args::parse();
    let quick = args.get_flag("quick");
    let workers = args.get_usize("workers", 8);
    let reps = args.get_usize("reps", if quick { 3 } else { 5 });
    let out = args.get_str("out", "BENCH_scheduler.json");
    // synthetic body duration of one cost unit (GEMM = 6 units)
    let unit_ns = args.get_usize("unit-ns", if quick { 2_000 } else { 20_000 }) as u64;
    let flat_tasks = args.get_usize("flat-tasks", if quick { 4_000 } else { 20_000 });

    println!(
        "scheduler bench: {workers} workers, {reps} reps{}",
        if quick { " (quick)" } else { "" }
    );

    // --- dispatch overhead: flat graph (no edges, pure queue traffic) ----
    let mut flat = TaskGraph::with_capacity(flat_tasks);
    for _ in 0..flat_tasks {
        flat.add_task(vec![], 0);
    }
    let flat_r = dispatch_overhead(&flat, workers, reps);
    let s = execute_parallel(&flat, workers, |_| {})
        .unwrap()
        .total_stats();
    println!(
        "flat {:>6} tasks   worksteal {:>8.1} ns/task   steals {} (tasks {}) failed {} parks {}",
        flat_r.tasks, flat_r.ns_worksteal, s.steals, s.stolen_tasks, s.failed_steals, s.parks
    );

    // --- dispatch overhead: Cholesky DAG (dependency release traffic) ----
    let chol_nt = args.get_usize("dispatch-nt", 24);
    let dag = build_dag(chol_nt);
    let chol_r = dispatch_overhead(&dag.graph, workers, reps);
    println!(
        "chol nt={chol_nt} {:>5} tasks   worksteal {:>8.1} ns/task",
        chol_r.tasks, chol_r.ns_worksteal
    );

    // --- telemetry on/off dispatch delta ---------------------------------
    // Disabled spans cost one relaxed load per task; enabled spans add two
    // clock reads and one ring store. Measure both states on the same
    // graphs so the instrumentation cost is tracked in the JSON alongside
    // the dispatch numbers. Every delta is an interleaved min-of-N at <= one
    // worker per core: oversubscribed workers time OS preemption, not the
    // instrumentation.
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let occ_workers = workers.min(host_cpus);
    let t_reps = reps.max(9);
    let flat_t = telemetry_off_on(flat_r.tasks, t_reps, || {
        execute_parallel(&flat, occ_workers, |_| {}).unwrap();
    });
    let chol_t = telemetry_off_on(chol_r.tasks, t_reps, || {
        execute_parallel(&dag.graph, occ_workers, |_| {}).unwrap();
    });
    for (name, t) in [("flat", &flat_t), ("chol", &chol_t)] {
        println!(
            "telemetry on/off ({name}, {occ_workers} workers): {:.1} -> {:.1} ns/task ({:+.2}%, spread {:.3})",
            t.off_ns,
            t.on_ns,
            t.pct(),
            t.spread
        );
    }
    // Cost-weighted bodies: one ring store amortized over kernel-scale
    // work — the realistic overhead, and the number the <2% acceptance
    // gate (`telemetry_smoke` / `scripts/verify.sh`) tracks.
    let wdag = build_dag(16);
    let wcosts: Vec<u64> = wdag
        .tasks
        .iter()
        .map(|t| t.kind().weight() as u64 * unit_ns)
        .collect();
    let w_t = telemetry_off_on(wdag.graph.len(), t_reps, || {
        execute_parallel(&wdag.graph, occ_workers, |id| spin(wcosts[id])).unwrap();
    });
    println!(
        "telemetry on/off (cost-weighted nt=16, {occ_workers} workers): {:.1} -> {:.1} ns/task ({:+.2}%, spread {:.3})",
        w_t.off_ns,
        w_t.on_ns,
        w_t.pct(),
        w_t.spread
    );

    // --- occupancy on the Cholesky DAG with cost-weighted bodies ---------
    let mut occ_results: Vec<OccupancyResult> = Vec::new();
    for nt in [8usize, 16, 32] {
        let dag = build_dag(nt);
        let costs: Vec<u64> = dag
            .tasks
            .iter()
            .map(|t| t.kind().weight() as u64 * unit_ns)
            .collect();
        // counters from the full --workers run (stealing exercised) ...
        execute_parallel(&dag.graph, workers, |id| spin(costs[id])).unwrap();
        let s = execute_parallel(&dag.graph, workers, |id| spin(costs[id]))
            .unwrap()
            .total_stats();
        // ... occupancy at <= one worker per core, from the span stream of
        // one traced run (enabling tracing pools the workers' rings, whose
        // allocation mid-run would read as idle time)
        obs::set_enabled(true);
        obs::collect();
        execute_parallel(&dag.graph, occ_workers, |id| spin(costs[id])).unwrap();
        obs::set_enabled(false);
        let occ = obs::occupancy_timeline(&obs::collect(), OCCUPANCY_BINS).mean_over(occ_workers);
        println!(
            "occupancy nt={nt:<3} {:>5} tasks   {:>5.1}% ({occ_workers} workers)   steals {:>5} (tasks {:>5})   parks {:>4}   wakes {:>4}   affinity {:>5}",
            dag.graph.len(),
            100.0 * occ,
            s.steals,
            s.stolen_tasks,
            s.parks,
            s.wakes,
            s.affinity_dispatches
        );
        occ_results.push(OccupancyResult {
            nt,
            tasks: dag.graph.len(),
            occupancy: occ,
            stats: s,
        });
    }

    // --- JSON ------------------------------------------------------------
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workers\": {workers},\n  \"host_cpus\": {host_cpus},\n  \"occupancy_workers\": {occ_workers},\n  \"reps\": {reps},\n  \"quick\": {quick},\n  \"unit_ns\": {unit_ns},\n"
    ));
    json.push_str(&format!("  \"flat\": {},\n", json_dispatch(&flat_r)));
    json.push_str(&format!(
        "  \"cholesky_dispatch\": {{\"nt\": {chol_nt}, {}}},\n",
        json_dispatch(&chol_r)
            .trim_start_matches('{')
            .trim_end_matches('}')
    ));
    let tele_rows: Vec<String> = [("flat", &flat_t), ("chol", &chol_t), ("weighted", &w_t)]
        .iter()
        .map(|(name, t)| {
            format!(
                "\"{name}_ns_off\": {:.1}, \"{name}_ns_on\": {:.1}, \"{name}_pct\": {:.2}, \"{name}_spread\": {:.3}",
                t.off_ns,
                t.on_ns,
                t.pct(),
                t.spread
            )
        })
        .collect();
    json.push_str(&format!(
        "  \"telemetry\": {{\"reps\": {t_reps}, \"workers\": {occ_workers}, {}}},\n",
        tele_rows.join(", ")
    ));
    json.push_str("  \"occupancy\": [\n");
    for (i, r) in occ_results.iter().enumerate() {
        let s = &r.stats;
        let comma = if i + 1 == occ_results.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"nt\": {}, \"tasks\": {}, \"occupancy\": {:.4}, \"steals\": {}, \"stolen_tasks\": {}, \"failed_steals\": {}, \"local_pops\": {}, \"parks\": {}, \"wakes\": {}, \"affinity_dispatches\": {}}}{}\n",
            r.nt,
            r.tasks,
            r.occupancy,
            s.steals,
            s.stolen_tasks,
            s.failed_steals,
            s.local_pops,
            s.parks,
            s.wakes,
            s.affinity_dispatches,
            comma
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"heap_baseline_frozen\": {HEAP_BASELINE_FROZEN}\n}}\n"
    ));
    std::fs::write(&out, json).expect("write BENCH_scheduler.json");
    println!("wrote {out}");
}
