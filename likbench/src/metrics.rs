//! The benchmark's metric catalogue (mirrored by `BENCHMARK.json` at the
//! repository root) and the one-line JSON result.

use mixedp_fp::Precision;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("loglik_s", "s"),
    lower("loglik_tail_s", "s"),
    lower("sweep_s", "s"),
    lower("factor_s", "s"),
    lower("peak_heap_mb", "MB"),
];

/// Kernel class × precision pairs the factorization runs (TRSM of an
/// FP16-class tile executes in FP32), as `(span key, seconds metric, calls
/// metric)`; any other pair lands in `kernels.other.*`.
pub const KERNEL_METRICS: [(&str, &str, &str); 8] = [
    (
        "kernels.potrf.fp64",
        "kernels.potrf.fp64.s",
        "kernels.potrf.fp64.calls",
    ),
    (
        "kernels.trsm.fp64",
        "kernels.trsm.fp64.s",
        "kernels.trsm.fp64.calls",
    ),
    (
        "kernels.trsm.fp32",
        "kernels.trsm.fp32.s",
        "kernels.trsm.fp32.calls",
    ),
    (
        "kernels.syrk.fp64",
        "kernels.syrk.fp64.s",
        "kernels.syrk.fp64.calls",
    ),
    (
        "kernels.gemm.fp64",
        "kernels.gemm.fp64.s",
        "kernels.gemm.fp64.calls",
    ),
    (
        "kernels.gemm.fp32",
        "kernels.gemm.fp32.s",
        "kernels.gemm.fp32.calls",
    ),
    (
        "kernels.gemm.fp16x32",
        "kernels.gemm.fp16x32.s",
        "kernels.gemm.fp16x32.calls",
    ),
    (
        "kernels.gemm.fp16",
        "kernels.gemm.fp16.s",
        "kernels.gemm.fp16.calls",
    ),
];

/// Precisions of the direct `gemm_tile_ws` calls, with their metric.
pub const GEMM_TILE_METRICS: [(Precision, &str); 4] = [
    (Precision::Fp64, "kernels.gemm_tile.fp64.gflops"),
    (Precision::Fp32, "kernels.gemm_tile.fp32.gflops"),
    (Precision::Fp16x32, "kernels.gemm_tile.fp16x32.gflops"),
    (Precision::Fp16, "kernels.gemm_tile.fp16.gflops"),
];

/// Reported by the traced run (`--trace 1`). Per-evaluation values are
/// means over the traced evaluations; `_s` stage times are medians.
pub const PER_LAYER: &[MetricDef] = &[
    // geostats
    lower("geostats.covariance_tiles_s", "s"),
    lower("geostats.generate_field_s", "s"),
    // tile, core::precision_map, core::conversion
    lower("tile.fro_norms_s", "s"),
    lower("precision_map.from_norms_s", "s"),
    lower("precision_map.pct_fp64", "%"),
    higher("precision_map.pct_fp32", "%"),
    higher("precision_map.pct_fp16x32", "%"),
    higher("precision_map.pct_fp16", "%"),
    lower("conversion.plan_s", "s"),
    higher("conversion.stc_tiles", "count"),
    // core::factorize
    lower("factorize.s", "s"),
    lower("factorize.attempts", "count"),
    higher("factorize.useful_attempt_ratio", "ratio"),
    lower("factorize.escalated_tiles", "count"),
    lower("factorize.task_retries", "count"),
    lower("factorize.conversions_performed", "count"),
    higher("factorize.conversions_avoided", "count"),
    higher("factorize.stc_avoidance_ratio", "ratio"),
    // kernels / fp (spans; busy seconds summed over workers)
    lower("kernels.potrf.fp64.s", "s"),
    lower("kernels.potrf.fp64.calls", "count"),
    lower("kernels.trsm.fp64.s", "s"),
    lower("kernels.trsm.fp64.calls", "count"),
    lower("kernels.trsm.fp32.s", "s"),
    lower("kernels.trsm.fp32.calls", "count"),
    lower("kernels.syrk.fp64.s", "s"),
    lower("kernels.syrk.fp64.calls", "count"),
    lower("kernels.gemm.fp64.s", "s"),
    lower("kernels.gemm.fp64.calls", "count"),
    lower("kernels.gemm.fp32.s", "s"),
    lower("kernels.gemm.fp32.calls", "count"),
    lower("kernels.gemm.fp16x32.s", "s"),
    lower("kernels.gemm.fp16x32.calls", "count"),
    lower("kernels.gemm.fp16.s", "s"),
    lower("kernels.gemm.fp16.calls", "count"),
    lower("kernels.other.s", "s"),
    lower("kernels.other.calls", "count"),
    lower("kernels.convert.s", "s"),
    lower("kernels.convert.bytes", "bytes"),
    // kernels (direct gemm_tile_ws calls at nb = 128)
    higher("kernels.gemm_tile.fp64.gflops", "GFLOP/s"),
    higher("kernels.gemm_tile.fp32.gflops", "GFLOP/s"),
    higher("kernels.gemm_tile.fp16x32.gflops", "GFLOP/s"),
    higher("kernels.gemm_tile.fp16.gflops", "GFLOP/s"),
    // runtime
    lower("runtime.tasks", "count"),
    lower("runtime.steals", "count"),
    lower("runtime.failed_steals", "count"),
    lower("runtime.parks", "count"),
    lower("runtime.wakes", "count"),
    higher("runtime.occupancy", "ratio"),
    lower("runtime.one_worker_factor_s", "s"),
    // core::wire, core::distributed
    lower("wire.pack.s", "s"),
    lower("wire.unpack.s", "s"),
    lower("wire.frames", "count"),
    lower("wire.payload_bytes", "bytes"),
    lower("wire.link_time_tree_s", "s"),
    lower("wire.auto_vs_ttc_bytes", "ratio"),
    higher("wire.pack_tile.fp16.gbs", "GB/s"),
    higher("wire.unpack_tile.fp16.gbs", "GB/s"),
    lower("wire_bytes", "bytes"),
    lower("wire_messages", "count"),
    // core::mle
    lower("mle.logdet_solve_s", "s"),
    lower("mle.loglik_rel_err", "ratio"),
    lower("mle.far_loglik_rel_err", "ratio"),
    lower("eval_fail_ratio", "ratio"),
    // obs
    lower("obs.trace_overhead_pct", "%"),
    lower("obs.ledger_gap_pct", "%"),
    lower("obs.dropped_records", "count"),
    lower("obs.energy_model_j", "J"),
    lower("obs.energy_convert_j", "J"),
    lower("obs.energy_wire_j", "J"),
    // whole process
    lower("peak_rss_mb", "MB"),
];

/// The result of one run: the last line a run prints.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Why `correct` is false, one line per failed gate.
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Record a correctness gate; a failed one clears `correct`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.failures.push(what());
        }
    }

    /// The JSON object, with every metric of `defs` in catalogue order.
    ///
    /// Panics when the run did not set exactly the catalogued metrics —
    /// a bug in this benchmark, not a property of the program.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let mut set: Vec<&str> = self.metrics.iter().map(|(n, _)| *n).collect();
        set.sort_unstable();
        let mut want: Vec<&str> = defs.iter().map(|d| d.name).collect();
        want.sort_unstable();
        assert_eq!(set, want, "metric set differs from the catalogue");
        let body: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.metrics.iter().find(|(n, _)| *n == d.name).unwrap().1;
                assert!(v.is_finite(), "metric {} is not finite: {v}", d.name);
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}
