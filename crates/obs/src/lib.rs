//! `mixedp-obs` — the unified telemetry layer (DESIGN.md §15).
//!
//! Three pieces:
//!
//! * **Spans and events** ([`record`], [`ring`]): producers call
//!   [`instant`] / [`span_start`]+[`span_end`] behind the global
//!   [`enabled`] flag. Enabled, an emission is one timestamp read plus one
//!   store into a thread-local lock-free ring buffer (bounded memory,
//!   drop-counted overflow); disabled, it is a single relaxed atomic load.
//! * **Metrics** ([`metrics`]): always-on counters/gauges/histograms under
//!   stable dotted names, fed by the per-subsystem counters
//!   (`WorkerStats` / `FactorStats` / `DistStats`) when a run finishes.
//! * **Exporters** ([`chrome`], [`occupancy`], [`energy`]): Chrome
//!   `trace_event` JSON (one track per worker, steal/park/wake instants),
//!   flat JSONL, the Fig 9 occupancy timeline, and the Summit-model energy
//!   accountant.
//!
//! Telemetry never touches numerical data, so results are bit-identical
//! with tracing on or off (asserted by `scripts/verify.sh`).

pub mod chrome;
pub mod energy;
pub mod json;
pub mod metrics;
pub mod occupancy;
pub mod record;
pub mod ring;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub use chrome::{chrome_trace_json, jsonl_log, validate_chrome_trace, ChromeTraceSummary};
pub use energy::{account_energy, EnergyReport, MotionInputs};
pub use metrics::{LazyCounter, MetricsSnapshot};
pub use occupancy::{occupancy_timeline, OccupancyTimeline};
pub use record::{kernel_arg, kernel_arg_decode, EventKind, Record, MAIN_TRACK};
pub use ring::{
    collect, emit_record, reset_rings, set_default_ring_capacity, set_thread_track, test_guard,
    TraceData,
};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is span/event tracing on? One relaxed load — the guard every
/// instrumentation site checks first.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn span/event tracing on or off (metric counters are always on).
/// Turning it on first pools a ring for each thread a run is likely to
/// start, outside any traced run.
pub fn set_enabled(on: bool) {
    if on {
        ring::prefill_free_rings();
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// Nanoseconds since the process-wide telemetry epoch (first use). All
/// records share this clock, so cross-component ordering is meaningful.
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Begin a span: returns the start timestamp, or 0 when tracing is off.
/// A span begun on the very first clock read reports 1, not 0, so it is
/// not mistaken for one begun with tracing off.
#[inline]
pub fn span_start() -> u64 {
    if enabled() {
        now_ns().max(1)
    } else {
        0
    }
}

/// Finish a span begun with [`span_start`]. No-op when tracing is off or
/// when the span began while it was off (`start_ns == 0`).
#[inline]
pub fn span_end(start_ns: u64, kind: EventKind, arg: u64) {
    if start_ns == 0 || !enabled() {
        return;
    }
    let end = now_ns();
    emit_record(Record {
        ts_ns: start_ns,
        dur_ns: end.saturating_sub(start_ns),
        arg,
        kind,
        track: 0, // replaced by the thread's track in emit_record
    });
}

/// Emit a point event (steal, park, wake, escalation, send, …).
#[inline]
pub fn instant(kind: EventKind, arg: u64) {
    if !enabled() {
        return;
    }
    emit_record(Record {
        ts_ns: now_ns(),
        dur_ns: 0,
        arg,
        kind,
        track: 0,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emits_nothing() {
        let _g = test_guard();
        set_enabled(false);
        ring::reset_rings();
        instant(EventKind::Steal, 1);
        let s = span_start();
        assert_eq!(s, 0);
        span_end(s, EventKind::TaskExec, 0);
        assert!(collect().records.is_empty());
    }

    #[test]
    fn enabled_emits_ordered_records() {
        let _g = test_guard();
        ring::reset_rings();
        set_enabled(true);
        let s = span_start();
        assert!(s > 0);
        std::hint::black_box(0u64);
        span_end(s, EventKind::KernelGemm, 7);
        instant(EventKind::Wake, 2);
        set_enabled(false);
        let t = collect();
        assert_eq!(t.records.len(), 2);
        assert_eq!(t.records[0].kind, EventKind::KernelGemm);
        assert_eq!(t.records[0].arg, 7);
        assert_eq!(t.records[0].track, MAIN_TRACK);
        assert!(t.records[1].ts_ns >= t.records[0].ts_ns);
        assert_eq!(t.dropped, 0);
        // drained: a second collect is empty
        assert!(collect().records.is_empty());
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
