//! # ulp-shard — workload sharding across platform instances
//!
//! The paper evaluates one fixed 256-sample window (≈ 1 s of ECG) per
//! channel per core; real recordings run for minutes or hours — far
//! beyond one platform's data-memory budget (
//! [`ulp_kernels::layout::MAX_N`] samples per channel). This crate splits
//! one long multi-channel recording along the **time axis** into
//! overlapping shards, executes the shards as independent
//! [`ulp_service::SimService`] jobs, and merges the partial results back
//! into a single logical run:
//!
//! * [`ShardPlan`] — contiguous core regions tiling the recording, each
//!   extended by a *halo* of overlap samples so the morphological
//!   filter/delineator state is re-established inside every shard
//!   ([`required_halo`] gives the exact dependency radius per benchmark);
//! * [`ShardRunner`] — turns the plan into per-shard [`JobSpec`]s (the
//!   full-recording workload [windowed] to each shard's load range) and
//!   streams them through the service's work-stealing pool;
//! * [`merge`] — stitches per-channel outputs (dropping halo duplicates
//!   deterministically), sums [`SimStats`] into recording totals, lifts
//!   MRPDLN marks into sorted, duplicate-free [`DelineationEvent`]s,
//!   folds per-shard activity into [`ulp_power`] so energy-per-recording
//!   is a first-class figure, and, when the run records one, merges the
//!   per-bank DM heat map ([`MergedHeatMap`]): every shard's rows
//!   re-indexed onto the recording's global cycle axis.
//!
//! The subsystem's correctness anchor: with a halo of at least
//! [`required_halo`], a sharded run is **bit-identical** to a single
//! oversized golden-model pass over the whole recording — the merged
//! run's `verify()` checks exactly that, and the crate's equivalence
//! tests assert it across shard sizes and core counts.
//!
//! [`ShardRunner::run`] executes on a caller-owned service (a shared
//! pool, or one armed for fault injection); [`ShardRunner::run_local`]
//! starts a private pool sized to the plan. On the command line, the
//! `sweep` bin's `--shard` axis drives this pipeline.
//!
//! ```no_run
//! use ulp_kernels::{Benchmark, WorkloadConfig};
//! use ulp_shard::{merge_verified, ShardPlan, ShardRunConfig, ShardRunner};
//!
//! // A 10×-paper-length recording, sharded into ≤ 256-sample windows.
//! let mut workload = WorkloadConfig::paper();
//! workload.n = 2560;
//! let plan = ShardPlan::for_workload(Benchmark::Mrpdln, &workload, 256).unwrap();
//! let runner = ShardRunner::new(
//!     ShardRunConfig::new(Benchmark::Mrpdln, true, 8, workload),
//!     plan,
//! )
//! .unwrap();
//! let sharded = runner.run_local(0).unwrap();
//! let merged = merge_verified(&sharded).unwrap();
//! println!(
//!     "{} cycles, {} events",
//!     merged.run.stats.cycles,
//!     merged.events().len()
//! );
//! ```
//!
//! [windowed]: ulp_kernels::WorkloadConfig::windowed
//! [`JobSpec`]: ulp_service::JobSpec
//! [`SimStats`]: ulp_platform::SimStats

mod artifacts;
mod merge;
mod plan;
mod runner;

pub use artifacts::{HeatMapRow, MergedHeatMap};
pub use merge::{
    golden_events, merge, merge_verified, merge_with_golden, sum_stats, DelineationEvent,
    MergeError, MergedRun,
};
pub use plan::{required_halo, PlanError, Shard, ShardPlan};
pub use runner::{ShardError, ShardOutput, ShardRunConfig, ShardRunner, ShardedRun};
