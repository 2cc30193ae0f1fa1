//! `likbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--quick]`
//!
//! Exit codes: 0 all gates passed, 1 a correctness gate failed (the JSON
//! line says `"correct": false`), 2 bad arguments.

use likbench::metrics::{END_TO_END, PER_LAYER};
use likbench::run::{run_traced, run_untraced, Options};
use likbench::workload::{Workload, WORKLOADS};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut quick) = (1u64, 10u64, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let int = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::find(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = int()?,
            "--seconds" => seconds = int()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload: if quick { workload.quick() } else { workload },
        seed,
        seconds,
        trace,
        quick,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("likbench: {e}");
            eprintln!(
                "usage: likbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (report, defs) = if o.trace {
        (run_traced(&o), PER_LAYER)
    } else {
        (run_untraced(&o), END_TO_END)
    };
    for f in &report.failures {
        eprintln!("likbench: gate failed: {f}");
    }
    println!("{}", report.to_json(defs));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
