//! Executing a shard plan as batch-service jobs.

use crate::plan::{Shard, ShardPlan};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use ulp_kernels::{Benchmark, BenchmarkRun, RunnerError, WorkloadConfig};
use ulp_service::{
    JobArtifacts, JobError, JobSpec, ObserverSelection, Priority, ServiceConfig, ServiceStats,
    SimService, TenantId,
};
use ulp_telemetry::{EventKind, Telemetry, CLIENT_TRACK};

/// What to run over the recording: the benchmark, the platform design and
/// core count every shard job uses, and the observers each shard carries.
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
    /// Instrumentation attached to every shard job (e.g. a
    /// [`ObserverSelection::BankHeatMap`]).
    pub observers: ObserverSelection,
    /// The tenant every shard job is submitted on behalf of — the
    /// recording's owner in a shared, quota-governed pool.
    pub tenant: TenantId,
    /// Telemetry the run records into: each gathered shard records a
    /// `merged` event on the client track, and a private pool started by
    /// [`ShardRunner::run_local`] traces its workers through the same
    /// handle. Disabled by default (zero-cost).
    pub telemetry: Telemetry,
    /// Checkpoint cadence in simulated cycles: `Some(n)` makes every
    /// shard job migratable ([`JobSpec::checkpoint_every`]) — it
    /// snapshots its platform every `n` cycles, and a killed or
    /// preempted worker's in-flight shard re-queues from its latest
    /// checkpoint instead of restarting. `None` (the default) runs
    /// shards without checkpoints.
    pub checkpoint_every: Option<u64>,
    /// Directory the private [`ShardRunner::run_local`] pool persists
    /// checkpoint blobs into ([`ServiceConfig::checkpoint_dir`];
    /// best-effort, latest-wins per job). Ignored by
    /// [`ShardRunner::run`], which executes on a caller-owned service.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Fault injection for the private [`ShardRunner::run_local`] pool:
    /// `Some(w)` marks worker `w` for failure before any shard is
    /// submitted ([`ulp_service::SimService::inject_worker_failure`]).
    /// The worker parks its first migratable shard at that shard's first
    /// checkpoint and exits; the pool is sized to at least two workers so
    /// the survivors finish the recording. Requires
    /// [`ShardRunConfig::checkpoint_every`] to have any effect — without
    /// checkpoints the flag is never observed. Ignored by
    /// [`ShardRunner::run`].
    pub inject_failure: Option<usize>,
}

impl ShardRunConfig {
    /// A plain configuration with no observers.
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
            observers: ObserverSelection::None,
            tenant: TenantId::DEFAULT,
            telemetry: Telemetry::disabled(),
            checkpoint_every: None,
            checkpoint_dir: None,
            inject_failure: None,
        }
    }

    /// Attaches an observer selection to every shard job; the merge
    /// stitches the per-shard artifacts back onto the recording's global
    /// axes ([`crate::MergedRun::artifacts`]).
    #[must_use]
    pub fn with_observers(mut self, observers: ObserverSelection) -> ShardRunConfig {
        self.observers = observers;
        self
    }

    /// Tags every shard job with the recording owner's tenant, for quota
    /// and fair-share accounting on a shared pool.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId) -> ShardRunConfig {
        self.tenant = tenant;
        self
    }

    /// Attaches a telemetry handle: gathered shards record `merged`
    /// events, and a private [`ShardRunner::run_local`] pool traces its
    /// workers into the same sink.
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

    /// Persists checkpoint blobs under `dir` on the private
    /// [`ShardRunner::run_local`] pool — see
    /// [`ShardRunConfig::checkpoint_dir`].
    #[must_use]
    pub fn with_checkpoint_dir(mut self, dir: impl Into<std::path::PathBuf>) -> ShardRunConfig {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Marks worker `worker` of the private [`ShardRunner::run_local`]
    /// pool for failure before the first shard is submitted — see
    /// [`ShardRunConfig::inject_failure`].
    #[must_use]
    pub fn with_injected_failure(mut self, worker: usize) -> ShardRunConfig {
        self.inject_failure = Some(worker);
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
    /// Observer output of the shard job.
    pub artifacts: JobArtifacts,
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
    /// the recording windowed to `load_start..load_end`. Shards run at
    /// [`Priority::High`]: the merge of this recording is blocked on its
    /// *last* shard, so on a shared pool the shards must not be starved
    /// behind a deep normal-priority grid backlog.
    pub fn job_specs(&self) -> Vec<JobSpec> {
        self.plan
            .shards()
            .iter()
            .map(|s| {
                let workload = self.config.workload.windowed(s.load_start, s.load_len());
                let spec =
                    JobSpec::new(self.config.benchmark, self.config.cores, Arc::new(workload))
                        .with_sync(self.config.with_sync)
                        .observers(self.config.observers.clone())
                        .tenant(self.config.tenant)
                        .priority(Priority::High);
                match self.config.checkpoint_every {
                    Some(cycles) => spec.checkpoint_every(cycles),
                    None => spec,
                }
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
    /// The first failing shard in plan order (all shards still run);
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
        // the only failure left is a dead pool.
        let mut slot_of: HashMap<u64, usize> = HashMap::with_capacity(count);
        for (index, spec) in specs.into_iter().enumerate() {
            match service.submit_blocking(spec) {
                Ok(id) => {
                    slot_of.insert(id, index);
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
            if track.is_enabled() && result.outcome.is_ok() {
                track.record(
                    EventKind::Merged,
                    result.id,
                    self.config.tenant.0,
                    Priority::High.index() as u8,
                );
            }
            slots[index] = Some(match result.outcome {
                Ok(out) => Ok(ShardOutput {
                    shard,
                    run: out.run,
                    artifacts: out.artifacts,
                }),
                // Shard jobs never carry deadlines, so the only job-level
                // failure is a runner error — an eviction here would mean
                // the runner submitted a spec it never constructs.
                Err(JobError::Run(error)) => Err(ShardError::Job {
                    shard: index,
                    error,
                }),
                Err(JobError::Evicted { .. }) => {
                    unreachable!("shard jobs are submitted without deadlines")
                }
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
    /// count.
    ///
    /// # Errors
    ///
    /// See [`ShardRunner::run`].
    pub fn run_local(self, threads: usize) -> Result<ShardedRun, ShardError> {
        self.run_local_with_stats(threads).map(|(run, _)| run)
    }

    /// [`ShardRunner::run_local`], also returning the private pool's
    /// final [`ServiceStats`] — the shard CLI surfaces the per-tenant
    /// latency rows from here.
    ///
    /// # Errors
    ///
    /// See [`ShardRunner::run`].
    pub fn run_local_with_stats(
        self,
        threads: usize,
    ) -> Result<(ShardedRun, ServiceStats), ShardError> {
        let workers = ServiceConfig::builder()
            .workers(threads)
            .build()
            .resolved_workers()
            .min(self.plan.len())
            // An injected failure costs one worker: keep at least two so
            // the survivors can finish the recording (a one-worker pool
            // with its only worker killed would strand the re-queued
            // shard).
            .max(if self.config.inject_failure.is_some() {
                2
            } else {
                1
            });
        let telemetry = self.config.telemetry.clone();
        let mut builder = ServiceConfig::builder()
            .workers(workers)
            .telemetry(telemetry);
        if let Some(dir) = &self.config.checkpoint_dir {
            builder = builder.checkpoint_dir(dir.clone());
        }
        let mut service = SimService::start(builder.build());
        if let Some(worker) = self.config.inject_failure {
            service.inject_worker_failure(worker);
        }
        let run = self.run(&mut service)?;
        Ok((run, service.finish()))
    }
}
