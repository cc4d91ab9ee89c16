//! # ulp-bench — the experiment harness of the DATE 2013 reproduction
//!
//! Regenerates every table and figure of the paper's evaluation
//! (Section V) from simulation:
//!
//! | Artifact | Binary | Library entry |
//! |---|---|---|
//! | Table I (power distribution, 8 MOps/s, 1.2 V) | `table1` | [`table1_report`] |
//! | Fig. 3a/b/c (power vs workload, voltage scaled) | `fig3` | [`fig3_report`] |
//! | In-text numbers (speed-up, Ops/cycle, access ratios) | `intext` | [`intext_report`] |
//! | Ablations A1–A6 | `ablation` | [`ablation`] |
//! | (benchmark × design × cores) grid, streamed | `sweep` | [`run_sweep`] / [`run_sweep_with`] |
//! | CI perf gates: same-process ratios that exit non-zero out of bounds | benches `fast_path`, `telemetry_overhead`, `checkpoint_overhead`, `ecg_window` | — |
//!
//! The flow mirrors the paper: run the three ECG benchmarks on both
//! designs ([`gather`]), calibrate the event-energy model against the
//! baseline column of Table I ([`calibrate`]), then *predict* the improved
//! design's power from its own measured activity. `gather` itself executes
//! its six runs through [`run_sweep`], which is a thin client of the
//! work-stealing batch simulation service ([`ulp_service::SimService`]):
//! grids become job batches, results stream back incrementally, and the
//! service's scheduling stats ride along on [`SweepResults`].

pub mod ablation;
mod experiments;
mod report;
mod sweep;

pub use experiments::{calibrate, gather, BenchmarkData, ExperimentData};
pub use report::{
    fig3_report, intext_report, table1_report, Fig3Report, IntextReport, Table1Report,
};
pub use sweep::{
    run_sweep, run_sweep_with, SweepCell, SweepProgress, SweepResults, SweepSpec,
    PAPER_WORKLOAD_MOPS,
};

/// Whether `ULP_BENCH_QUICK` asks the perf gates for their abbreviated CI
/// sizing (fewer rounds). Unset, empty and `0` mean off, anything else on.
pub fn quick_mode() -> bool {
    quick_value(std::env::var("ULP_BENCH_QUICK").ok().as_deref())
}

/// [`quick_mode`] for a given value of the variable.
fn quick_value(value: Option<&str>) -> bool {
    value.is_some_and(|v| !v.is_empty() && v != "0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_is_off_when_unset_empty_or_zero() {
        assert!(!quick_value(None));
        assert!(!quick_value(Some("")));
        assert!(!quick_value(Some("0")));
        assert!(quick_value(Some("1")));
        assert!(quick_value(Some("yes")));
    }
}
