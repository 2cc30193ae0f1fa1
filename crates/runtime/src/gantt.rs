//! ASCII Gantt rendering of telemetry span streams — terminal-friendly
//! visualization of the asynchronous schedule (the view PaRSEC's
//! instrumentation tools provide graphically).

use crate::trace::WorkerStats;
use mixedp_obs as obs;

fn track_label(track: u16) -> String {
    if track == obs::MAIN_TRACK {
        "main".to_string()
    } else {
        format!("w{track}")
    }
}

/// Render the span records as one row per track, `width` columns across
/// the makespan. Each cell shows a digit of the task id (`arg % 10`) that
/// occupied most of that slot (`·` = idle). Instants are skipped; build
/// the input with [`obs::collect`] after a traced run.
pub fn render_gantt(trace: &obs::TraceData, width: usize) -> String {
    assert!(width > 0);
    let tracks = trace.tracks();
    if tracks.is_empty() {
        return String::new();
    }
    let t0 = trace.min_ts();
    let span = (trace.max_end() - t0).max(1) as f64;
    let w = span / width as f64;
    let mut rows: Vec<Vec<(f64, char)>> = vec![vec![(0.0, '·'); width]; tracks.len()];
    for r in trace.spans() {
        let row = tracks.binary_search(&r.track).unwrap();
        let (a, b) = ((r.ts_ns - t0) as f64, (r.ts_ns - t0 + r.dur_ns) as f64);
        let first = ((a / w) as usize).min(width - 1);
        let last = ((b / w) as usize).min(width - 1);
        let glyph = char::from_digit((r.arg % 10) as u32, 10).unwrap();
        for (col, slot) in rows[row].iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = col as f64 * w;
            let hi = lo + w;
            let overlap = (b.min(hi) - a.max(lo)).max(0.0);
            if overlap > slot.0 {
                *slot = (overlap, glyph);
            }
        }
    }
    let label_w = tracks
        .iter()
        .map(|&t| track_label(t).len())
        .max()
        .unwrap_or(2);
    let mut out = String::new();
    for (row, &track) in rows.iter().zip(&tracks) {
        out.push_str(&format!("{:<label_w$} |", track_label(track)));
        for &(_, g) in row {
            out.push(g);
        }
        out.push_str("|\n");
    }
    out
}

/// [`render_gantt`] plus a per-worker scheduler-counter footer (tasks run,
/// local pops vs stolen tasks, steal operations, parks, wake-ups issued) —
/// the work-stealing behavior that the span rows alone cannot show.
pub fn render_gantt_with_stats(
    trace: &obs::TraceData,
    stats: &[WorkerStats],
    width: usize,
) -> String {
    let mut out = render_gantt(trace, width);
    for (widx, s) in stats.iter().enumerate() {
        out.push_str(&format!(
            "w{widx}  tasks {:>5}  local {:>5}  stolen {:>4} ({} steals)  parks {:>3}  wakes {:>3}\n",
            s.tasks, s.local_pops, s.stolen_tasks, s.steals, s.parks, s.wakes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn renders_rows_per_worker() {
        let t = stream(vec![span(1, 0, 0, 50), span(2, 1, 25, 100)]);
        let g = render_gantt(&t, 20);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("w0 |1"));
        assert!(lines[0].contains('·'), "idle tail of worker 0");
        assert!(lines[1].ends_with("2|"));
        // each row has exactly `width` cells between the pipes
        assert_eq!(lines[0].chars().count(), 4 + 20 + 1);
    }

    #[test]
    fn empty_trace_renders_nothing() {
        let t = stream(vec![]);
        assert_eq!(render_gantt(&t, 8), "");
    }

    #[test]
    fn main_track_spans_get_a_labeled_row() {
        let t = stream(vec![span(3, obs::MAIN_TRACK, 100, 150)]);
        let g = render_gantt(&t, 8);
        assert!(g.starts_with("main |3"), "{g}");
    }

    #[test]
    fn absolute_timestamps_are_normalized() {
        // spans far from t=0 still fill the full width
        let base = 5_000_000_000u64;
        let t = stream(vec![span(7, 0, base, base + 80)]);
        let g = render_gantt(&t, 8);
        assert_eq!(g, "w0 |77777777|\n");
    }

    #[test]
    fn stats_footer_lists_counters() {
        let stats = vec![WorkerStats {
            tasks: 1,
            local_pops: 1,
            ..Default::default()
        }];
        let t = stream(vec![span(0, 0, 0, 10)]);
        let g = render_gantt_with_stats(&t, &stats, 8);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("tasks"));
        assert!(lines[1].contains("stolen"));
    }
}
