//! Reporting helpers: data-motion summaries, text tables, and the unified
//! per-run telemetry report ([`RunReport`]) shared by the experiment
//! binaries and `scripts/verify.sh`.

use mixedp_gpusim::{NodeSpec, SimReport};
use mixedp_obs as obs;
use mixedp_runtime::WorkerStats;

/// Schema version of [`RunReport::to_json`]; bump on breaking changes.
pub const RUN_REPORT_VERSION: u64 = 1;

/// Occupancy-timeline bins used by [`RunReport::collect`] (the resolution
/// of paper Fig 9).
pub const RUN_REPORT_OCCUPANCY_BINS: usize = 64;

/// The single merged telemetry view of one run: metrics-registry snapshot,
/// Fig 9 occupancy timeline, Summit-model energy split, and the nested
/// scheduler's per-worker counters — everything an exporter or
/// `scripts/verify.sh` consumes, in one versioned JSON document.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Schema version ([`RUN_REPORT_VERSION`]).
    pub version: u64,
    /// Caller-chosen run label.
    pub label: String,
    /// Worker threads of the run (0 = unknown/serial).
    pub threads: usize,
    /// Wall-clock seconds of the run.
    pub wall_s: f64,
    /// Telemetry records lost to ring overflow during the run.
    pub dropped_records: u64,
    /// Point-in-time metrics registry view.
    pub metrics: obs::MetricsSnapshot,
    /// Per-worker occupancy timeline derived from the span stream.
    pub occupancy: obs::OccupancyTimeline,
    /// Measured seconds folded through the Summit power model.
    pub energy: obs::EnergyReport,
    /// Per-worker scheduler counters (empty when unavailable).
    pub sched_per_worker: Vec<WorkerStats>,
}

impl RunReport {
    /// Assemble a report from a collected span stream plus the measured
    /// data-motion totals. Reads the global metrics registry; energy uses
    /// the Summit node model.
    pub fn collect(
        label: &str,
        threads: usize,
        wall_s: f64,
        trace: &obs::TraceData,
        motion: &obs::MotionInputs,
        sched_per_worker: Vec<WorkerStats>,
    ) -> Self {
        let node = NodeSpec::summit();
        RunReport {
            version: RUN_REPORT_VERSION,
            label: label.to_string(),
            threads,
            wall_s,
            dropped_records: trace.dropped,
            metrics: obs::metrics::snapshot(),
            occupancy: obs::occupancy_timeline(trace, RUN_REPORT_OCCUPANCY_BINS),
            energy: obs::account_energy(&node, trace, motion, wall_s),
            sched_per_worker,
        }
    }

    fn worker_json(s: &WorkerStats) -> String {
        format!(
            "{{\"tasks\": {}, \"local_pops\": {}, \"steals\": {}, \"stolen_tasks\": {}, \
             \"failed_steals\": {}, \"parks\": {}, \"wakes\": {}, \"affinity_dispatches\": {}, \
             \"retries\": {}}}",
            s.tasks,
            s.local_pops,
            s.steals,
            s.stolen_tasks,
            s.failed_steals,
            s.parks,
            s.wakes,
            s.affinity_dispatches,
            s.retries
        )
    }

    /// The versioned JSON document (validated by [`validate_run_report`]).
    pub fn to_json(&self) -> String {
        let workers: Vec<String> = self
            .sched_per_worker
            .iter()
            .map(Self::worker_json)
            .collect();
        format!(
            "{{\"version\": {}, \"label\": \"{}\", \"threads\": {}, \"wall_s\": {:.6e}, \
             \"dropped_records\": {}, \"metrics\": {}, \"occupancy\": {}, \"energy\": {}, \
             \"sched_per_worker\": [{}]}}",
            self.version,
            self.label.replace('\\', "\\\\").replace('"', "\\\""),
            self.threads,
            self.wall_s,
            self.dropped_records,
            self.metrics.to_json(),
            self.occupancy.to_json(),
            self.energy.to_json(),
            workers.join(", ")
        )
    }
}

/// Validate a [`RunReport`] JSON document against the v1 schema: required
/// keys present with the right types, version supported, occupancy values
/// in `[0, 1]`, energy terms non-negative. Returns the parsed version.
pub fn validate_run_report(s: &str) -> Result<u64, String> {
    let v = obs::json::parse(s)?;
    let version = v
        .get("version")
        .and_then(|x| x.as_num())
        .ok_or("missing numeric 'version'")? as u64;
    if version != RUN_REPORT_VERSION {
        return Err(format!("unsupported run-report version {version}"));
    }
    v.get("label")
        .and_then(|x| x.as_str())
        .ok_or("missing string 'label'")?;
    for key in ["threads", "wall_s", "dropped_records"] {
        v.get(key)
            .and_then(|x| x.as_num())
            .ok_or_else(|| format!("missing numeric '{key}'"))?;
    }
    let metrics = v.get("metrics").ok_or("missing 'metrics'")?;
    for key in ["counters", "gauges", "histograms"] {
        if !metrics.get(key).is_some_and(|x| x.is_obj()) {
            return Err(format!("metrics.{key} must be an object"));
        }
    }
    let occ = v.get("occupancy").ok_or("missing 'occupancy'")?;
    let agg = occ
        .get("aggregate")
        .and_then(|x| x.as_arr())
        .ok_or("occupancy.aggregate must be an array")?;
    for x in agg {
        let f = x.as_num().ok_or("occupancy.aggregate holds non-numbers")?;
        if !(0.0..=1.0).contains(&f) {
            return Err(format!("occupancy fraction {f} outside [0, 1]"));
        }
    }
    let energy = v.get("energy").ok_or("missing 'energy'")?;
    for key in [
        "kernel_joules",
        "wire_joules",
        "convert_joules",
        "idle_joules",
        "total_joules",
    ] {
        let f = energy
            .get(key)
            .and_then(|x| x.as_num())
            .ok_or_else(|| format!("missing numeric 'energy.{key}'"))?;
        if f < 0.0 {
            return Err(format!("energy.{key} is negative"));
        }
    }
    let workers = v
        .get("sched_per_worker")
        .and_then(|x| x.as_arr())
        .ok_or("missing array 'sched_per_worker'")?;
    for w in workers {
        for key in ["tasks", "steals", "parks", "wakes", "retries"] {
            w.get(key)
                .and_then(|x| x.as_num())
                .ok_or_else(|| format!("worker entry missing numeric '{key}'"))?;
        }
    }
    Ok(version)
}

/// Human-readable data-motion and performance summary of a simulated run.
pub fn summarize(report: &SimReport) -> String {
    format!(
        "time {:>9.3} s | {:>8.2} Tflop/s | occ {:>5.1}% | H2D {:>8.2} GB | D2H {:>7.2} GB | \
         P2P {:>7.2} GB | NIC {:>7.2} GB | conv {:>7} ({:.3} s) | {:>9.0} J | {:>6.2} Gflops/W",
        report.makespan_s,
        report.tflops(),
        100.0 * report.occupancy(),
        report.h2d_bytes as f64 / 1e9,
        report.d2h_bytes as f64 / 1e9,
        report.p2p_bytes as f64 / 1e9,
        report.nic_bytes as f64 / 1e9,
        report.conversions,
        report.conversion_s,
        report.energy_joules(),
        report.gflops_per_watt(),
    )
}
