//! Paper-workload benchmark of the ULP lockstep simulator.
//!
//! ```text
//! perfbench --workload <paper_grid|short_windows|long_recording>
//!           [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Runs one workload through the batch service, checks every output
//! against the golden model, and prints a report followed by one JSON
//! result line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits 1 when any check failed, 2 on bad
//! usage. See `README.md` next to this crate.

mod jobs;
mod measure;
mod rebuild;
mod report;
mod run;
mod spans;
mod stats;

use jobs::{Workload, DEFAULT_SEED, HELD_OUT_SEED};
use measure::Args;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <paper_grid|short_windows|long_recording> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Parsed command line: the run's arguments and whether it is traced.
fn parse(args: &[String]) -> Result<(Args, bool), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok((
        Args {
            workload,
            seed,
            seconds,
            workers,
        },
        trace,
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}\ndefault seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED}");
        return ExitCode::SUCCESS;
    }
    let (args, trace) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (measured, metrics) = if trace {
        (measure::traced(args), report::PER_LAYER)
    } else {
        (measure::end_to_end(args), report::END_TO_END)
    };
    for line in &measured.lines {
        println!("{line}");
    }
    for error in &measured.outcome.errors {
        eprintln!("perfbench: FAILED: {error}");
    }
    let outcome = &measured.outcome;
    let correct = outcome.failed == 0;
    match report::result_line(
        correct,
        outcome.attempted,
        outcome.failed,
        metrics,
        &measured.values,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let (args, trace) = parse(&argv(
            "--workload short_windows --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(args.workload, Workload::ShortWindows);
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 3.0);
        assert!(trace);
        let (args, trace) = parse(&argv("--workload paper_grid")).unwrap();
        assert_eq!(args.seed, DEFAULT_SEED);
        assert!(!trace);
    }

    #[test]
    fn rejects_bad_usage() {
        for bad in [
            "",
            "--workload nope",
            "--workload paper_grid --trace 2",
            "--workload paper_grid --seconds 0",
            "--workload paper_grid --seed",
            "--workload paper_grid --frobnicate 1",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
