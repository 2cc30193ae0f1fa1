//! The benchmark's own checks: input determinism, the metric catalogue
//! against `BENCHMARK.json`, span aggregation, and a quick end-to-end run.

use likbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use likbench::spans::{aggregate, Busy};
use likbench::workload::{theta_sequence, THETA_BOUNDS, WORKLOADS};
use mixedp_fp::Precision;
use mixedp_obs::json::{self, Value};
use mixedp_obs::{kernel_arg, EventKind, Record, MAIN_TRACK};
use std::process::Command;

#[test]
fn theta_sequence_is_deterministic_distinct_and_in_bounds() {
    for w in WORKLOADS {
        let path = w.fit_thetas();
        let d = w.app.theta().len();
        let a = theta_sequence(&path, 24);
        assert_eq!(a, theta_sequence(&path, 24), "{}", w.name);
        for (i, t) in a.iter().enumerate() {
            assert_eq!(t.len(), d);
            assert!(t
                .iter()
                .all(|&x| (THETA_BOUNDS.0..=THETA_BOUNDS.1).contains(&x)));
            assert!(a[..i].iter().all(|u| u != t), "{}: θ[{i}] repeats", w.name);
            assert!(
                path.contains(t),
                "{}: θ[{i}] is not on the fit path",
                w.name
            );
        }
    }
}

/// The sample keeps each phase of the fit: one θ from every run of
/// `path.len() / len` consecutive evaluations.
#[test]
fn theta_sequence_samples_every_stretch_of_the_fit() {
    for w in WORKLOADS {
        let path = w.fit_thetas();
        for len in [10, 15, 20, path.len()] {
            let idx: Vec<usize> = theta_sequence(&path, len)
                .iter()
                .map(|t| path.iter().position(|p| p == t).expect("on the path"))
                .collect();
            for (k, &i) in idx.iter().enumerate() {
                let lo = k * path.len() / len;
                let hi = ((k + 1) * path.len()).div_ceil(len);
                assert!((lo..hi).contains(&i), "{} len {len}: θ[{k}]", w.name);
            }
        }
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().unwrap().is_ascii_alphanumeric()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    for n in &names {
        assert!(valid_name(n), "bad metric name {n:?}");
    }
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            d.unit.len() <= 16
                && d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {:?} of {}",
            d.unit,
            d.name
        );
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "duplicate metric name");
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

fn assert_catalogue(doc: &Value, key: &str, defs: &[MetricDef]) {
    let listed = doc.get(key).and_then(Value::as_arr).expect(key);
    assert_eq!(listed.len(), defs.len(), "{key}: metric count");
    for (m, d) in listed.iter().zip(defs) {
        assert_eq!(m.get("name").and_then(Value::as_str), Some(d.name));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(d.unit),
            "{}",
            d.name
        );
        assert_eq!(
            m.get("better").and_then(Value::as_str),
            Some(d.better.as_str()),
            "{}",
            d.name
        );
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let doc = benchmark_json();
    assert_catalogue(&doc, "end_to_end", END_TO_END);
    assert_catalogue(&doc, "per_layer", PER_LAYER);
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, ours);
}

fn rec(kind: EventKind, ts_ns: u64, dur_ns: u64, arg: u64, track: u16) -> Record {
    Record {
        ts_ns,
        dur_ns,
        arg,
        kind,
        track,
    }
}

#[test]
fn aggregation_decodes_kernel_args_inside_the_window() {
    let records = [
        rec(
            EventKind::KernelGemm,
            100,
            40,
            kernel_arg(Precision::Fp16x32, 128),
            0,
        ),
        rec(
            EventKind::KernelGemm,
            150,
            60,
            kernel_arg(Precision::Fp16x32, 128),
            1,
        ),
        rec(
            EventKind::KernelGemm,
            160,
            10,
            kernel_arg(Precision::Fp64, 128),
            1,
        ),
        rec(
            EventKind::KernelTrsm,
            170,
            5,
            kernel_arg(Precision::Fp32, 128),
            0,
        ),
        rec(
            EventKind::KernelPotrf,
            180,
            7,
            kernel_arg(Precision::Fp64, 64),
            0,
        ),
        // a worker's tile conversion counts; the driving thread's plan span does not
        rec(EventKind::Convert, 190, 0, 4096, 1),
        rec(EventKind::Convert, 195, 3, 12, MAIN_TRACK),
        rec(EventKind::WirePack, 200, 8, 512, MAIN_TRACK),
        rec(EventKind::WireUnpack, 210, 9, 512, MAIN_TRACK),
        rec(EventKind::TaskExec, 220, 100, 3, 0),
        // outside [100, 300)
        rec(
            EventKind::KernelGemm,
            99,
            1000,
            kernel_arg(Precision::Fp16, 128),
            0,
        ),
        rec(
            EventKind::KernelGemm,
            300,
            1000,
            kernel_arg(Precision::Fp16, 128),
            0,
        ),
    ];
    let t = aggregate(&records, (100, 300));
    let busy = |ns, calls| Busy { ns, calls };
    assert_eq!(t.kernels.len(), 4, "{:?}", t.kernels);
    assert_eq!(t.kernels["kernels.gemm.fp16x32"], busy(100, 2));
    assert_eq!(t.kernels["kernels.gemm.fp64"], busy(10, 1));
    assert_eq!(t.kernels["kernels.trsm.fp32"], busy(5, 1));
    assert_eq!(t.kernels["kernels.potrf.fp64"], busy(7, 1));
    assert_eq!(t.convert, busy(0, 1));
    assert_eq!(t.convert_bytes, 4096);
    assert_eq!(t.pack, busy(8, 1));
    assert_eq!(t.unpack, busy(9, 1));
}

/// Quick mode checks the benchmark, not the program: a run must finish,
/// print every catalogued metric, and exit 0 exactly when its gates pass.
/// (Whether the gates pass at this small size is the program's business;
/// at n = 512 some seeds miss the sqexp tolerance.)
#[test]
fn quick_mode_completes_with_every_metric() {
    for w in WORKLOADS {
        for (trace, defs) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let args = [
                "--workload",
                w.name,
                "--seed",
                "5",
                "--trace",
                trace,
                "--quick",
            ];
            let out = Command::new(env!("CARGO_BIN_EXE_likbench"))
                .args(args)
                .output()
                .expect("spawn likbench");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
            let line = stdout.lines().last().expect("a result line");
            let doc = json::parse(line).expect("result line is JSON");
            let correct = doc.get("correct") == Some(&Value::Bool(true));
            assert_eq!(out.status.success(), correct, "{args:?}");
            assert!(matches!(out.status.code(), Some(0 | 1)), "{args:?}");
            let attempted = doc
                .get("attempted")
                .and_then(Value::as_num)
                .expect("attempted");
            let failed = doc.get("failed").and_then(Value::as_num).expect("failed");
            assert!(attempted >= 1.0 && failed <= attempted, "{args:?}");
            let metrics = doc.get("metrics").expect("metrics");
            for d in defs {
                let m = metrics
                    .get(d.name)
                    .unwrap_or_else(|| panic!("{} missing", d.name));
                assert!(m.get("value").and_then(Value::as_num).is_some());
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit));
            }
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage_error() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "sqexp-1e4", "--seed", "x"],
        &["--seed", "1"],
        &["--workload", "sqexp-1e4", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_likbench"))
            .args(args)
            .output()
            .expect("spawn likbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
