//! Per-worker occupancy timelines derived from the span stream — the
//! paper's Fig 9 methodology: the run is cut into equal bins and each
//! worker's busy fraction (time inside `TaskExec` spans) is sampled per
//! bin.

use crate::record::{EventKind, MAIN_TRACK};
use crate::ring::TraceData;

/// Occupancy sampled over equal time bins, per worker track and averaged.
#[derive(Debug, Clone, Default)]
pub struct OccupancyTimeline {
    /// Worker tracks present, ascending.
    pub tracks: Vec<u16>,
    /// Bin width in nanoseconds.
    pub bin_ns: f64,
    /// `tracks.len()` rows of `bins` busy fractions in `[0, 1]`.
    pub per_track: Vec<Vec<f64>>,
    /// Mean across tracks per bin.
    pub aggregate: Vec<f64>,
}

impl OccupancyTimeline {
    /// Run-average occupancy across the tracks that ran a task.
    pub fn mean(&self) -> f64 {
        if self.aggregate.is_empty() {
            return 0.0;
        }
        self.aggregate.iter().sum::<f64>() / self.aggregate.len() as f64
    }

    /// Run-average occupancy of a run on `nworkers` workers: a worker that
    /// ran no task has no track here and counts as idle throughout, where
    /// [`mean`](Self::mean) would leave it out.
    pub fn mean_over(&self, nworkers: usize) -> f64 {
        if nworkers == 0 {
            return 0.0;
        }
        self.mean() * self.tracks.len() as f64 / nworkers as f64
    }

    /// JSON object: `{"bins", "bin_ns", "mean", "aggregate", "workers"}`.
    pub fn to_json(&self) -> String {
        let series = |v: &[f64]| {
            let cells: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            format!("[{}]", cells.join(", "))
        };
        let mut workers = String::from("{");
        for (i, (t, row)) in self.tracks.iter().zip(&self.per_track).enumerate() {
            if i > 0 {
                workers.push_str(", ");
            }
            workers.push_str(&format!("\"{t}\": {}", series(row)));
        }
        workers.push('}');
        format!(
            "{{\"bins\": {}, \"bin_ns\": {:.1}, \"mean\": {:.4}, \"aggregate\": {}, \"workers\": {}}}",
            self.aggregate.len(),
            self.bin_ns,
            self.mean(),
            series(&self.aggregate),
            workers
        )
    }
}

/// Build the Fig 9-style timeline from `TaskExec` spans on worker tracks.
/// The time base is `[first span start, last span end]`.
pub fn occupancy_timeline(t: &TraceData, bins: usize) -> OccupancyTimeline {
    assert!(bins > 0);
    let spans: Vec<_> = t
        .records
        .iter()
        .filter(|r| r.kind == EventKind::TaskExec && r.track != MAIN_TRACK)
        .collect();
    let Some(t0) = spans.iter().map(|r| r.ts_ns).min() else {
        return OccupancyTimeline::default();
    };
    let t1 = spans.iter().map(|r| r.ts_ns + r.dur_ns).max().unwrap();
    let mut tracks: Vec<u16> = spans.iter().map(|r| r.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let horizon = (t1 - t0).max(1) as f64;
    let w = horizon / bins as f64;
    let mut per_track = vec![vec![0.0f64; bins]; tracks.len()];
    for r in &spans {
        let row = tracks.binary_search(&r.track).unwrap();
        let (a, b) = ((r.ts_ns - t0) as f64, (r.ts_ns + r.dur_ns - t0) as f64);
        let first = ((a / w) as usize).min(bins - 1);
        let last = ((b / w) as usize).min(bins - 1);
        for (bin, slot) in per_track[row]
            .iter_mut()
            .enumerate()
            .take(last + 1)
            .skip(first)
        {
            let lo = bin as f64 * w;
            let hi = lo + w;
            *slot += (b.min(hi) - a.max(lo)).max(0.0);
        }
    }
    for row in &mut per_track {
        for v in row.iter_mut() {
            *v = (*v / w).min(1.0);
        }
    }
    let aggregate = (0..bins)
        .map(|b| per_track.iter().map(|row| row[b]).sum::<f64>() / tracks.len().max(1) as f64)
        .collect();
    OccupancyTimeline {
        tracks,
        bin_ns: w,
        per_track,
        aggregate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;

    fn span(track: u16, ts: u64, dur: u64) -> Record {
        Record {
            ts_ns: ts,
            dur_ns: dur,
            arg: 0,
            kind: EventKind::TaskExec,
            track,
        }
    }

    #[test]
    fn saturated_workers_hit_one() {
        let t = TraceData {
            records: vec![span(0, 0, 100), span(1, 0, 100)],
            dropped: 0,
        };
        let o = occupancy_timeline(&t, 4);
        assert_eq!(o.tracks, vec![0, 1]);
        for v in &o.aggregate {
            assert!((v - 1.0).abs() < 1e-9, "{v}");
        }
        assert!((o.mean() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn idle_tail_shows_up() {
        // one worker busy the first half only
        let t = TraceData {
            records: vec![span(0, 0, 50), span(0, 99, 1)],
            dropped: 0,
        };
        let o = occupancy_timeline(&t, 2);
        assert!(o.aggregate[0] > 0.9, "{:?}", o.aggregate);
        assert!(o.aggregate[1] < 0.1, "{:?}", o.aggregate);
    }

    #[test]
    fn idle_worker_counts_against_occupancy() {
        // two workers, one of which runs every task
        let t = TraceData {
            records: vec![span(0, 0, 60), span(0, 60, 40)],
            dropped: 0,
        };
        let o = occupancy_timeline(&t, 4);
        assert!((o.mean() - 1.0).abs() < 1e-9);
        assert!((o.mean_over(2) - 0.5).abs() < 1e-9, "{}", o.mean_over(2));
        assert!((o.mean_over(1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_is_empty_timeline() {
        let o = occupancy_timeline(&TraceData::default(), 8);
        assert!(o.tracks.is_empty());
        assert_eq!(o.mean(), 0.0);
        assert_eq!(o.mean_over(2), 0.0);
    }

    #[test]
    fn json_parses() {
        let t = TraceData {
            records: vec![span(0, 0, 10)],
            dropped: 0,
        };
        let j = occupancy_timeline(&t, 2).to_json();
        crate::json::parse(&j).expect("occupancy JSON parses");
    }
}
