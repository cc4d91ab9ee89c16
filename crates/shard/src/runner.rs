//! Executing a shard plan as batch-service jobs.

use crate::plan::{Shard, ShardPlan};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use ulp_kernels::{Benchmark, BenchmarkRun, RunnerError, WorkloadConfig};
use ulp_service::{JobSpec, ServiceConfig, SimService, SubmitError};
use ulp_telemetry::{EventKind, Telemetry, CLIENT_TRACK};

/// What to run over the recording: the benchmark, the platform design and
/// core count every shard job uses, and whether each shard records a heat
/// map.
#[derive(Debug, Clone)]
pub struct ShardRunConfig {
    /// The benchmark kernel.
    pub benchmark: Benchmark,
    /// `true` = improved design (hardware synchronizer).
    pub with_sync: bool,
    /// Cores per platform (1..=8); one recording channel per core.
    pub cores: usize,
    /// The *full recording* workload: its `n` is the recording length
    /// (typically far beyond one platform's buffer capacity) and must
    /// equal the plan's total.
    pub workload: WorkloadConfig,
    /// Cycles per heat-map row recorded by every shard job
    /// ([`JobSpec::heat_map_window`]); `None` (the default) records none.
    pub heat_map_window: Option<u64>,
    /// Telemetry the run records into: each gathered shard records a
    /// `merged` event on the client track, and the pool
    /// [`ShardRunner::run_local`] starts traces its workers through the
    /// same handle. Disabled by default (zero-cost).
    pub telemetry: Telemetry,
    /// Checkpoint cadence in simulated cycles: `Some(n)` makes every
    /// shard job migratable ([`JobSpec::checkpoint_every`]) — it
    /// snapshots its platform every `n` cycles, and a killed worker's
    /// in-flight shard re-queues from its latest
    /// checkpoint instead of restarting. `None` (the default) runs
    /// shards without checkpoints.
    pub checkpoint_every: Option<u64>,
}

impl ShardRunConfig {
    /// A plain configuration with no heat map.
    pub fn new(
        benchmark: Benchmark,
        with_sync: bool,
        cores: usize,
        workload: WorkloadConfig,
    ) -> ShardRunConfig {
        ShardRunConfig {
            benchmark,
            with_sync,
            cores,
            workload,
            heat_map_window: None,
            telemetry: Telemetry::disabled(),
            checkpoint_every: None,
        }
    }

    /// Records a `window`-cycle heat map on every shard job; the merge
    /// stitches the per-shard rows back onto the recording's global cycle
    /// axis ([`crate::MergedRun::heat_map`]).
    #[must_use]
    pub fn with_heat_map(mut self, window: u64) -> ShardRunConfig {
        self.heat_map_window = Some(window);
        self
    }

    /// Attaches a telemetry handle: gathered shards record `merged`
    /// events, and the [`ShardRunner::run_local`] pool traces its workers
    /// into the same sink.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> ShardRunConfig {
        self.telemetry = telemetry;
        self
    }

    /// Makes every shard job checkpoint (and become migratable) every
    /// `cycles` simulated cycles — see [`ShardRunConfig::checkpoint_every`].
    #[must_use]
    pub fn with_checkpoint_every(mut self, cycles: u64) -> ShardRunConfig {
        self.checkpoint_every = Some(cycles.max(1));
        self
    }
}

/// Errors of a sharded run.
#[derive(Debug)]
pub enum ShardError {
    /// The plan's recording length differs from the workload's `n`.
    PlanMismatch {
        /// Samples in the plan.
        plan_total: usize,
        /// Samples in the workload.
        workload_n: usize,
    },
    /// The service rejected a shard job as invalid (for example a zero
    /// heat-map window); no shard ran.
    InvalidJob {
        /// Index of the rejected shard.
        shard: usize,
        /// Why the service rejected it.
        reason: String,
    },
    /// A shard job failed; the shard index says which.
    Job {
        /// Index of the failing shard.
        shard: usize,
        /// The underlying failure.
        error: RunnerError,
    },
    /// The service pool died (a worker panicked) before every shard
    /// finished.
    PoolDied {
        /// Shard results received before the pool died.
        completed: usize,
        /// Shards the plan expected.
        expected: usize,
    },
    /// The service returned a result whose id was never submitted by this
    /// runner — the pool had foreign submissions in flight.
    ForeignResult {
        /// The unrecognised job id.
        id: u64,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::PlanMismatch {
                plan_total,
                workload_n,
            } => write!(
                f,
                "plan covers {plan_total} samples but the workload describes {workload_n}"
            ),
            ShardError::InvalidJob { shard, reason } => {
                write!(f, "shard {shard} was rejected: {reason}")
            }
            ShardError::Job { shard, error } => write!(f, "shard {shard} failed: {error}"),
            ShardError::PoolDied {
                completed,
                expected,
            } => write!(
                f,
                "the service pool died after {completed} of {expected} shards completed"
            ),
            ShardError::ForeignResult { id } => write!(
                f,
                "received result for job {id}, which this runner never submitted \
                 (the service had foreign submissions in flight)"
            ),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::PlanMismatch { .. }
            | ShardError::InvalidJob { .. }
            | ShardError::PoolDied { .. }
            | ShardError::ForeignResult { .. } => None,
            ShardError::Job { error, .. } => Some(error),
        }
    }
}

/// One completed shard: its time window and the benchmark run over the
/// loaded (core + halo) samples.
#[derive(Debug)]
pub struct ShardOutput {
    /// The shard's position and sample ranges.
    pub shard: Shard,
    /// The simulated run over the shard's load window.
    pub run: BenchmarkRun,
    /// Heat-map rows of the shard job, when the run records a heat map.
    pub heat_map: Option<Vec<Vec<u64>>>,
}

/// All shards of one recording, completed and ordered by time — the input
/// to [`crate::merge::merge`].
#[derive(Debug)]
pub struct ShardedRun {
    /// The configuration the shards ran under.
    pub config: ShardRunConfig,
    /// The plan that produced the shards.
    pub plan: ShardPlan,
    /// One output per shard, in plan (time) order.
    pub shards: Vec<ShardOutput>,
}

/// Turns a [`ShardPlan`] into per-shard [`JobSpec`]s and streams them
/// through a [`SimService`].
///
/// Every shard becomes an ordinary service job whose workload is the full
/// recording's [`WorkloadConfig`] windowed to the shard's load range
/// ([`WorkloadConfig::windowed`]), so the pool schedules, caches and
/// steals shard jobs exactly like grid cells.
#[derive(Debug, Clone)]
pub struct ShardRunner {
    config: ShardRunConfig,
    plan: ShardPlan,
}

impl ShardRunner {
    /// Binds a plan to a run configuration.
    ///
    /// # Errors
    ///
    /// [`ShardError::PlanMismatch`] if the plan does not cover exactly the
    /// workload's recording.
    pub fn new(config: ShardRunConfig, plan: ShardPlan) -> Result<ShardRunner, ShardError> {
        if plan.total() != config.workload.n {
            return Err(ShardError::PlanMismatch {
                plan_total: plan.total(),
                workload_n: config.workload.n,
            });
        }
        Ok(ShardRunner { config, plan })
    }

    /// The bound plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The bound configuration.
    pub fn config(&self) -> &ShardRunConfig {
        &self.config
    }

    /// The per-shard service jobs, in plan order: shard `i`'s workload is
    /// the recording windowed to `load_start..load_end`.
    pub fn job_specs(&self) -> Vec<JobSpec> {
        self.plan
            .shards()
            .iter()
            .map(|s| {
                let workload = self.config.workload.windowed(s.load_start, s.load_len());
                let mut spec =
                    JobSpec::new(self.config.benchmark, self.config.cores, Arc::new(workload))
                        .with_sync(self.config.with_sync);
                spec.heat_map_window = self.config.heat_map_window;
                spec.checkpoint_every = self.config.checkpoint_every;
                spec
            })
            .collect()
    }

    /// Runs every shard on `service` and gathers the outputs in plan
    /// order. The service streams results as workers finish; shards of
    /// different time windows execute concurrently and are re-ordered
    /// here.
    ///
    /// The service must have no other submissions in flight: this method
    /// drains one result per submitted shard, and a result whose id it
    /// never submitted is reported as [`ShardError::ForeignResult`].
    ///
    /// # Errors
    ///
    /// [`ShardError::InvalidJob`] when the service rejects a shard spec;
    /// the first failing shard in plan order (all shards still run);
    /// [`ShardError::PoolDied`] if a service worker panicked with shards
    /// outstanding; [`ShardError::ForeignResult`] on a result this runner
    /// did not submit.
    pub fn run(self, service: &mut SimService) -> Result<ShardedRun, ShardError> {
        let specs = self.job_specs();
        let count = specs.len();
        // Explicit id→slot routing: ids are opaque tokens here, not
        // assumed contiguous, so foreign traffic is detected instead of
        // silently corrupting slot arithmetic.
        // Shards submit on the blocking path: a bounded shared pool
        // throttles the runner instead of rejecting mid-recording, and
        // the only failures left are an invalid spec and a dead pool.
        let mut slot_of: HashMap<u64, usize> = HashMap::with_capacity(count);
        for (index, spec) in specs.into_iter().enumerate() {
            match service.submit_blocking(spec) {
                Ok(id) => {
                    slot_of.insert(id, index);
                }
                Err(SubmitError::Invalid { reason, .. }) => {
                    return Err(ShardError::InvalidJob {
                        shard: index,
                        reason,
                    })
                }
                Err(_) => {
                    return Err(ShardError::PoolDied {
                        completed: 0,
                        expected: count,
                    })
                }
            }
        }
        let mut slots: Vec<Option<Result<ShardOutput, ShardError>>> =
            (0..count).map(|_| None).collect();
        // Gathering a shard is the merge step of its lifecycle: record it
        // on the client track (workers already traced claim/run).
        let track = self.config.telemetry.track(CLIENT_TRACK);
        for completed in 0..count {
            let result = match service.checked_recv() {
                Ok(Some(result)) => result,
                Ok(None) | Err(_) => {
                    return Err(ShardError::PoolDied {
                        completed,
                        expected: count,
                    })
                }
            };
            let Some(&index) = slot_of.get(&result.id) else {
                return Err(ShardError::ForeignResult { id: result.id });
            };
            let shard = self.plan.shards()[index];
            if result.outcome.is_ok() {
                track.record(EventKind::Merged, result.id);
            }
            slots[index] = Some(match result.outcome {
                Ok(out) => Ok(ShardOutput {
                    shard,
                    run: out.run,
                    heat_map: out.heat_map,
                }),
                Err(error) => Err(ShardError::Job {
                    shard: index,
                    error,
                }),
            });
        }
        let mut shards = Vec::with_capacity(count);
        for slot in slots {
            shards.push(slot.expect("every shard ran")?);
        }
        Ok(ShardedRun {
            config: self.config,
            plan: self.plan,
            shards,
        })
    }

    /// [`ShardRunner::run`] on a private pool of `threads` workers
    /// (`0` = one per available hardware thread), capped at the shard
    /// count. The pool records into the configuration's telemetry.
    ///
    /// # Errors
    ///
    /// See [`ShardRunner::run`].
    pub fn run_local(self, threads: usize) -> Result<ShardedRun, ShardError> {
        let workers = ServiceConfig::builder()
            .workers(threads)
            .build()
            .resolved_workers()
            .min(self.plan.len());
        let mut service = SimService::start(
            ServiceConfig::builder()
                .workers(workers)
                .telemetry(self.config.telemetry.clone())
                .build(),
        );
        self.run(&mut service)
    }
}
