//! Scheduler property tests: randomized DAG shapes (wide layers, long
//! chains, diamond ladders, random sparse graphs) executed over 1–16
//! workers, asserting the three invariants the work-stealing scheduler must
//! uphold regardless of interleaving:
//!
//! 1. **exactly-once** — every task body runs exactly one time;
//! 2. **dependency order** — a task never starts before all of its
//!    dependencies have finished;
//! 3. **completion** — the run terminates with all tasks executed (a lost
//!    wake-up would leave a parked worker holding the last ready task's
//!    dependents and hang or stall the run).

use mixedp_runtime::{execute_parallel, execute_serial, TaskGraph};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Deterministic word stream for shaping random dependencies (the proptest
/// shim hands us uniform u64s through a vec strategy).
fn pick(words: &[u64], i: usize, salt: u64) -> u64 {
    let w = words[i % words.len()];
    w.rotate_left((salt % 63) as u32) ^ salt.wrapping_mul(0x9E3779B97F4A7C15)
}

/// Build one of four DAG shapes over `n` tasks. Dependencies always point
/// to smaller ids, so every shape is acyclic by construction.
fn build_shape(shape: usize, n: usize, words: &[u64]) -> TaskGraph {
    let mut g = TaskGraph::with_capacity(n);
    for i in 0..n {
        let deps: Vec<usize> = match shape {
            // long chain: strictly serial, exercises wake hand-off
            0 => {
                if i == 0 {
                    vec![]
                } else {
                    vec![i - 1]
                }
            }
            // wide layer: one root fans out to n-2 independent tasks, one
            // sink fans them all back in — steal-heavy (the root's worker
            // floods its own queue and everyone else must steal)
            1 => {
                if i == 0 {
                    vec![]
                } else if i == n - 1 && n > 2 {
                    (1..n - 1).collect()
                } else {
                    vec![0]
                }
            }
            // diamond ladder: repeated fork-join (a,b depend on the
            // previous join, each join depends on its a,b)
            2 => match i % 3 {
                0 => {
                    if i == 0 {
                        vec![]
                    } else {
                        vec![i - 1, i - 2]
                    }
                }
                1 => {
                    if i == 1 {
                        vec![]
                    } else {
                        vec![i - 1 - ((i - 1) % 3)]
                    }
                }
                _ => {
                    if i == 2 {
                        vec![]
                    } else {
                        vec![i - 2 - ((i - 2) % 3)]
                    }
                }
            },
            // random sparse: up to 3 distinct earlier tasks
            _ => {
                let mut d: Vec<usize> = (0..3)
                    .filter_map(|k| {
                        if i == 0 {
                            None
                        } else {
                            let w = pick(words, i, k as u64 + 1);
                            if w.is_multiple_of(4) && k > 0 {
                                None // leave some tasks with fewer deps
                            } else {
                                Some((w % i as u64) as usize)
                            }
                        }
                    })
                    .collect();
                d.sort_unstable();
                d.dedup();
                d
            }
        };
        // random shapes occasionally carry an affinity hint (must name a
        // dependency) so locality dispatch is exercised under the same
        // invariant checks
        let affinity = if shape >= 3 && !deps.is_empty() && pick(words, i, 7).is_multiple_of(2) {
            Some(deps[0])
        } else {
            None
        };
        g.add_task_with_affinity(deps, 0, affinity);
    }
    // drive the run with real critical-path priorities, as production does
    let cp = g.critical_path_lengths(|_| 1);
    g.set_priorities(&cp);
    g
}

/// Run `graph` on `workers` threads and assert exactly-once execution and
/// dependency order.
fn check_execution(graph: &TaskGraph, workers: usize) {
    let n = graph.len();
    let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    let done: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let trace = execute_parallel(graph, workers, |id| {
        for &d in &graph.node(id).deps {
            assert!(
                done[d].load(Ordering::Acquire),
                "task {id} started before dependency {d} finished"
            );
        }
        runs[id].fetch_add(1, Ordering::Relaxed);
        done[id].store(true, Ordering::Release);
    })
    .expect("execution failed");
    for (id, r) in runs.iter().enumerate() {
        assert_eq!(r.load(Ordering::Relaxed), 1, "task {id} ran {r:?} times");
    }
    assert_eq!(trace.total_stats().tasks as usize, n);
    assert_eq!(trace.worker_stats().len(), workers);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_dags_execute_exactly_once_in_dependency_order(
        shape in 0usize..4,
        n in 1usize..=80,
        workers in 1usize..=16,
        words in prop::collection::vec(0u64..u64::MAX, 8),
    ) {
        let g = build_shape(shape, n, &words);
        check_execution(&g, workers);
    }

    /// Steal-heavy shape at high worker counts specifically: a single
    /// producer floods its own queue, so every completed task is obtained
    /// by the other workers through steals or targeted wakes.
    #[test]
    fn steal_heavy_wide_layers_complete(
        n in 24usize..=120,
        workers in 4usize..=16,
        words in prop::collection::vec(0u64..u64::MAX, 4),
    ) {
        let g = build_shape(1, n, &words);
        check_execution(&g, workers);
    }

    /// Parallel execution visits tasks in some order the serial oracle
    /// could also legalize: both must execute the same task set.
    #[test]
    fn parallel_matches_serial_task_set(
        shape in 0usize..4,
        n in 1usize..=60,
        workers in 2usize..=8,
        words in prop::collection::vec(0u64..u64::MAX, 8),
    ) {
        let g = build_shape(shape, n, &words);
        let serial = execute_serial(&g, |_| {});
        prop_assert_eq!(serial.len(), n);
        check_execution(&g, workers);
    }
}

/// Long-chain liveness across every worker count 1–16: the chain keeps at
/// most one task ready, so all other workers repeatedly park and each
/// completion must wake exactly the right successor owner. A lost wake-up
/// hangs (or, with the parker backstop, crawls) — completing promptly for
/// all 16 counts is the no-lost-wake-up witness.
#[test]
fn long_chain_completes_at_every_worker_count() {
    let mut g = TaskGraph::with_capacity(300);
    for i in 0..300 {
        let deps = if i == 0 { vec![] } else { vec![i - 1] };
        g.add_task(deps, (300 - i) as i64);
    }
    for workers in 1..=16 {
        check_execution(&g, workers);
    }
}

/// Many independent roots with zero dependencies: pure contention on the
/// idle/wake protocol at startup (all work is pushed before workers spawn).
#[test]
fn flat_graph_saturates_all_workers() {
    let mut g = TaskGraph::with_capacity(512);
    for _ in 0..512 {
        g.add_task(vec![], 0);
    }
    for workers in [1, 2, 7, 16] {
        check_execution(&g, workers);
    }
}
