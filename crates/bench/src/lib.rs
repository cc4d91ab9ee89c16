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
//! | CI perf-regression gate over `BENCH_*.json` records | `perfgate` | — |
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
