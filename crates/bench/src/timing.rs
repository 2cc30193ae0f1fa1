//! Shared timing and measurement helpers for the benchmark binaries —
//! previously copy-pasted into `bench_kernels` / `bench_scheduler` /
//! `bench_wire`, now one implementation.

use std::time::Instant;

/// Wall-clock seconds of `reps` runs of `f` (one untimed warmup), sorted
/// ascending.
pub fn sample_secs(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times
}

/// Median wall-clock seconds of `reps` runs of `f` (one untimed warmup).
pub fn median_secs(reps: usize, f: impl FnMut()) -> f64 {
    let times = sample_secs(reps, f);
    times[times.len() / 2]
}

/// Minimum wall-clock seconds of `reps` runs of `f` (one untimed warmup).
/// For fixed-work bodies (busy-wait task bodies, deterministic DAG replay)
/// the minimum is the lowest-noise estimator: every perturbation — clock
/// drift, preemption, a background build — only ever adds time.
pub fn min_secs(reps: usize, f: impl FnMut()) -> f64 {
    sample_secs(reps, f)[0]
}

/// Busy-wait for `ns` nanoseconds (sleep granularity is far too coarse for
/// tile-kernel-scale task bodies).
pub fn spin(ns: u64) {
    let t0 = Instant::now();
    while t0.elapsed().as_nanos() < ns as u128 {
        std::hint::spin_loop();
    }
}

/// Deterministic pseudo-random buffer in `[-0.5, 0.5)` (xorshift64).
pub fn pseudo(len: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        })
        .collect()
}

/// Pull `"<key>": <number>` out of the `section` object of a previously
/// committed benchmark JSON. The files are machine-written by the bench
/// binaries themselves, so a string scan is exact.
pub fn scan_json_f64(json: &str, section: &str, key: &str) -> Option<f64> {
    let sec = json.find(&format!("\"{section}\""))?;
    let rest = &json[sec..];
    let pat = format!("\"{key}\": ");
    let rest = &rest[rest.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_positive() {
        let s = median_secs(3, || {
            std::hint::black_box(0);
        });
        assert!(s >= 0.0);
    }

    #[test]
    fn pseudo_is_deterministic_and_centered() {
        let a = pseudo(128, 7);
        assert_eq!(a, pseudo(128, 7));
        assert!(a.iter().all(|x| (-0.5..0.5).contains(x)));
        assert_ne!(a, pseudo(128, 8));
    }

    #[test]
    fn scan_finds_section_keys() {
        let j = "{\"flat\": {\"ns_per_task_worksteal\": 178.4}, \"chol\": {\"ns_per_task_worksteal\": 289.8}}";
        assert_eq!(
            scan_json_f64(j, "flat", "ns_per_task_worksteal"),
            Some(178.4)
        );
        assert_eq!(
            scan_json_f64(j, "chol", "ns_per_task_worksteal"),
            Some(289.8)
        );
        assert_eq!(scan_json_f64(j, "nope", "ns_per_task_worksteal"), None);
        assert_eq!(scan_json_f64(j, "flat", "missing"), None);
    }
}
