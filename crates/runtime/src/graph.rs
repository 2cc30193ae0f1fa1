//! Task graphs: vertices are tasks, edges are dataflow dependencies.

/// Index of a task within its [`TaskGraph`].
pub type TaskId = usize;

/// One task: its dependencies (tasks that must complete first), a
/// scheduling priority (higher runs earlier among ready tasks), and an
/// optional *affinity hint* — the dependency whose data this task will
/// touch hardest (typically the previous writer of its in-place output).
/// The work-stealing scheduler dispatches the task to the worker that ran
/// the affinity dependency, so the successor of an in-place tile update
/// lands on the core whose cache still holds the tile.
#[derive(Debug, Clone)]
pub struct TaskNode {
    pub deps: Vec<TaskId>,
    pub priority: i64,
    pub affinity: Option<TaskId>,
}

/// A directed acyclic graph of tasks.
///
/// Dependencies must point at already-added tasks (`dep < id`), which makes
/// the graph acyclic by construction — the natural order in which dataflow
/// DAGs like Algorithm 1's are emitted.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    nodes: Vec<TaskNode>,
}

impl TaskGraph {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        TaskGraph {
            nodes: Vec::with_capacity(n),
        }
    }

    /// Add a task depending on `deps`; returns its id.
    ///
    /// # Panics
    /// Panics if any dependency is not an already-added task.
    pub fn add_task(&mut self, deps: Vec<TaskId>, priority: i64) -> TaskId {
        self.add_task_with_affinity(deps, priority, None)
    }

    /// Add a task with a locality hint: `affinity` names the dependency
    /// whose executing worker should preferentially run this task.
    ///
    /// # Panics
    /// Panics if any dependency — or the affinity hint — is not an
    /// already-added task, or if the hint is not among `deps` (the hint's
    /// completion must be what makes the data hot *and* guarantees its
    /// worker id is known by the time this task becomes ready).
    pub fn add_task_with_affinity(
        &mut self,
        deps: Vec<TaskId>,
        priority: i64,
        affinity: Option<TaskId>,
    ) -> TaskId {
        let id = self.nodes.len();
        for &d in &deps {
            assert!(d < id, "dependency {d} of task {id} not yet defined");
        }
        if let Some(a) = affinity {
            assert!(
                deps.contains(&a),
                "affinity {a} of task {id} is not one of its dependencies"
            );
        }
        self.nodes.push(TaskNode {
            deps,
            priority,
            affinity,
        });
        id
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn node(&self, id: TaskId) -> &TaskNode {
        &self.nodes[id]
    }

    /// Overwrite every task's priority (length must match).
    pub fn set_priorities(&mut self, priorities: &[i64]) {
        assert_eq!(priorities.len(), self.nodes.len());
        for (n, &p) in self.nodes.iter_mut().zip(priorities) {
            n.priority = p;
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &TaskNode)> {
        self.nodes.iter().enumerate()
    }

    /// Reverse adjacency: for each task, the tasks that depend on it.
    pub fn dependents(&self) -> Vec<Vec<TaskId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for (id, n) in self.nodes.iter().enumerate() {
            for &d in &n.deps {
                out[d].push(id);
            }
        }
        out
    }

    /// Number of unmet dependencies per task (dependency counters).
    pub fn dep_counts(&self) -> Vec<usize> {
        self.nodes.iter().map(|n| n.deps.len()).collect()
    }

    /// Length (in tasks) of the longest dependency chain — the critical
    /// path, which bounds parallel speedup.
    pub fn critical_path_len(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        let mut best = 0;
        for (id, n) in self.nodes.iter().enumerate() {
            let d = n.deps.iter().map(|&x| depth[x]).max().unwrap_or(0) + 1;
            depth[id] = d;
            best = best.max(d);
        }
        best
    }

    /// Weighted critical-path length of every task: `cp[t]` is the largest
    /// total cost of any dependency chain from `t` (inclusive) to a sink,
    /// with per-task costs supplied by `cost`. Scheduling ready tasks by
    /// descending `cp` is the classic critical-path-first policy: the task
    /// whose completion unlocks the longest remaining chain runs first.
    ///
    /// Costs must be non-negative; `O(V + E)` over the reverse adjacency.
    pub fn critical_path_lengths(&self, mut cost: impl FnMut(TaskId) -> i64) -> Vec<i64> {
        let dependents = self.dependents();
        let mut cp = vec![0i64; self.nodes.len()];
        // Dependents always have larger ids (deps point backwards), so one
        // reverse sweep sees every dependent before its dependency.
        for id in (0..self.nodes.len()).rev() {
            let c = cost(id);
            debug_assert!(c >= 0, "negative task cost for {id}");
            let downstream = dependents[id].iter().map(|&d| cp[d]).max().unwrap_or(0);
            cp[id] = c + downstream;
        }
        cp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = TaskGraph::new();
        let a = g.add_task(vec![], 0);
        let b = g.add_task(vec![a], 1);
        let c = g.add_task(vec![a, b], 2);
        assert_eq!(g.len(), 3);
        assert_eq!(g.node(c).deps, vec![a, b]);
        assert_eq!(g.dep_counts(), vec![0, 1, 2]);
        assert_eq!(g.dependents()[a], vec![b, c]);
        assert_eq!(g.critical_path_len(), 3);
    }

    #[test]
    #[should_panic]
    fn forward_dependency_rejected() {
        let mut g = TaskGraph::new();
        g.add_task(vec![3], 0);
    }

    #[test]
    #[should_panic]
    fn affinity_outside_deps_rejected() {
        let mut g = TaskGraph::new();
        let a = g.add_task(vec![], 0);
        let b = g.add_task(vec![a], 0);
        g.add_task_with_affinity(vec![b], 0, Some(a));
    }

    #[test]
    fn affinity_recorded() {
        let mut g = TaskGraph::new();
        let a = g.add_task(vec![], 0);
        let b = g.add_task_with_affinity(vec![a], 0, Some(a));
        assert_eq!(g.node(b).affinity, Some(a));
        assert_eq!(g.node(a).affinity, None);
    }

    #[test]
    fn diamond_critical_path() {
        let mut g = TaskGraph::new();
        let a = g.add_task(vec![], 0);
        let b = g.add_task(vec![a], 0);
        let c = g.add_task(vec![a], 0);
        let _d = g.add_task(vec![b, c], 0);
        assert_eq!(g.critical_path_len(), 3);
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.critical_path_len(), 0);
        assert!(g.critical_path_lengths(|_| 1).is_empty());
    }

    #[test]
    fn weighted_critical_path_unit_costs_match_depth() {
        // With unit costs, cp[source of the longest chain] equals the
        // task-count critical path.
        let mut g = TaskGraph::new();
        let a = g.add_task(vec![], 0);
        let b = g.add_task(vec![a], 0);
        let c = g.add_task(vec![a], 0);
        let d = g.add_task(vec![b, c], 0);
        let _e = g.add_task(vec![d], 0);
        let cp = g.critical_path_lengths(|_| 1);
        assert_eq!(cp[a], g.critical_path_len() as i64);
        assert_eq!(cp, vec![4, 3, 3, 2, 1]);
    }

    #[test]
    fn weighted_critical_path_steers_through_heavy_branch() {
        // a → b(cost 10) → d ; a → c(cost 1) → d : the heavy branch
        // dominates a's critical path, and b outranks c.
        let mut g = TaskGraph::new();
        let a = g.add_task(vec![], 0);
        let b = g.add_task(vec![a], 0);
        let c = g.add_task(vec![a], 0);
        let d = g.add_task(vec![b, c], 0);
        let costs = [1i64, 10, 1, 1];
        let cp = g.critical_path_lengths(|id| costs[id]);
        assert_eq!(cp[d], 1);
        assert_eq!(cp[b], 11);
        assert_eq!(cp[c], 2);
        assert_eq!(cp[a], 12);
        assert!(cp[b] > cp[c]);
    }

    #[test]
    fn set_priorities_applies() {
        let mut g = TaskGraph::new();
        let a = g.add_task(vec![], 0);
        let b = g.add_task(vec![a], 0);
        g.set_priorities(&[1, 2]);
        assert_eq!(g.node(a).priority, 1);
        assert_eq!(g.node(b).priority, 2);
    }
}
