//! The service's job model: what a client submits and what it gets back.

use std::sync::Arc;
use std::time::Duration;
use ulp_kernels::{Benchmark, BenchmarkRun, RunnerError, WorkloadConfig};

/// Identifier assigned by [`crate::SimService::submit`], monotonically
/// increasing from 0 in submission order. Results carry it so streamed
/// completions can be matched back to submissions regardless of the order
/// in which workers finish them.
pub type JobId = u64;

/// One unit of work for the service: a benchmark kernel, the platform
/// design and core count to run it on, the workload, and whether to
/// record a per-bank DM heat map of the run. Built with [`JobSpec::new`]
/// plus chained setters:
///
/// ```
/// use std::sync::Arc;
/// use ulp_kernels::{Benchmark, WorkloadConfig};
/// use ulp_service::JobSpec;
///
/// let workload = Arc::new(WorkloadConfig::quick_test());
/// let spec = JobSpec::new(Benchmark::Sqrt32, 4, workload)
///     .with_sync(false)
///     .checkpoint_every(50_000);
/// ```
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The benchmark kernel to execute.
    pub benchmark: Benchmark,
    /// `true` = improved design (hardware synchronizer), `false` =
    /// baseline. Defaults to `true`.
    pub with_sync: bool,
    /// Core count of the platform (1..=8; the kernels assume one private
    /// DM bank per core).
    pub cores: usize,
    /// The workload; shared so a grid of jobs clones a pointer, not the
    /// config.
    pub workload: Arc<WorkloadConfig>,
    /// Cycles per row of a per-bank data-memory heat map recorded over
    /// the run, returned as [`JobOutput::heat_map`]: the run pauses at
    /// every multiple of the window, and each row is the D-Xbar's
    /// per-bank served counts ([`ulp_platform::Platform::dm_bank_served`])
    /// minus those at the previous pause. `None` (the default) records
    /// none. Either way the run takes the engine's batched fast path. A
    /// window of `0` is rejected at submission
    /// ([`crate::SubmitError::Invalid`]).
    pub heat_map_window: Option<u64>,
    /// Placement hint: push the job onto this worker's deque (modulo the
    /// pool size) instead of the round-robin default. The job may still be
    /// *stolen* and executed by another worker — affinity shapes the
    /// initial distribution, not execution.
    pub affinity: Option<usize>,
    /// Checkpoint cadence in simulated cycles. When set, the executing
    /// worker snapshots the platform every `checkpoint_every` cycles
    /// ([`ulp_platform::Platform::snapshot`]; with a heat map, at the
    /// first window boundary at or past each multiple of the cadence),
    /// which makes the job
    /// *migratable*: a killed or panicking worker's in-flight run is
    /// re-queued from its last checkpoint and finished — bit-identically
    /// — by another worker. `None` (the default) runs the job in one
    /// uninterruptible stint. The served counts ride in the checkpoint
    /// and the rows taken up to it travel with the re-queued job, so a
    /// migrated job's heat map is bit-identical too.
    pub checkpoint_every: Option<u64>,
}

impl JobSpec {
    /// A job on the improved (hardware-synchronizer) design with no heat
    /// map and round-robin placement.
    pub fn new(benchmark: Benchmark, cores: usize, workload: Arc<WorkloadConfig>) -> JobSpec {
        JobSpec {
            benchmark,
            with_sync: true,
            cores,
            workload,
            heat_map_window: None,
            affinity: None,
            checkpoint_every: None,
        }
    }

    /// Selects the platform design: `true` = improved (hardware
    /// synchronizer, the default), `false` = baseline.
    #[must_use]
    pub fn with_sync(mut self, with_sync: bool) -> JobSpec {
        self.with_sync = with_sync;
        self
    }

    /// Records a per-bank DM heat map in `window`-cycle rows (see
    /// [`JobSpec::heat_map_window`]).
    #[must_use]
    pub fn heat_map(mut self, window: u64) -> JobSpec {
        self.heat_map_window = Some(window);
        self
    }

    /// Makes the job migratable: the executing worker checkpoints the
    /// platform every `cycles` simulated cycles, so the run can be
    /// parked, re-queued and resumed — on any worker — from its latest
    /// checkpoint (see [`JobSpec::checkpoint_every`]). A cadence of `0`
    /// behaves as `1`.
    #[must_use]
    pub fn checkpoint_every(mut self, cycles: u64) -> JobSpec {
        self.checkpoint_every = Some(cycles.max(1));
        self
    }

    /// Pins the job's initial placement to `worker`'s deque. The index is
    /// validated against the actual pool size at submission —
    /// [`crate::SimService::submit`] clamps it (modulo the worker count),
    /// so a pin computed against a larger pool than the one the job lands
    /// on still places onto a real deque instead of stranding the job.
    #[must_use]
    pub fn pinned(mut self, worker: usize) -> JobSpec {
        self.affinity = Some(worker);
        self
    }
}

/// What a successful job produced.
#[derive(Debug, PartialEq)]
pub struct JobOutput {
    /// Core count the job ran on (mirrors the spec; kept here so a result
    /// is self-describing without the submission side-table).
    pub cores: usize,
    /// The benchmark run: statistics, outputs, golden expectations.
    pub run: BenchmarkRun,
    /// Heat-map rows, when the spec set [`JobSpec::heat_map_window`]:
    /// one row per window (the last taken at run end, possibly
    /// shorter), one served-access count per DM bank.
    pub heat_map: Option<Vec<Vec<u64>>>,
}

/// One completed job, streamed back to the client as soon as the worker
/// finishes it.
#[derive(Debug)]
pub struct JobResult {
    /// The id [`crate::SimService::submit`] returned for this job.
    pub id: JobId,
    /// Index of the worker that *completed* the job. A migrated job
    /// ([`JobResult::migrations`] `> 0`) may have started on a different
    /// worker; latency attribution follows the job, not the workers it
    /// visited.
    pub worker: usize,
    /// How many times the job was parked at a checkpoint and re-queued
    /// before completing — one per worker lost (killed or panicked)
    /// while running it.
    /// Always `0` for jobs without [`JobSpec::checkpoint_every`].
    pub migrations: u32,
    /// Whether the job was ever moved by a steal: claimed directly by a
    /// thief, or relocated to the thief's deque as part of a half-batch
    /// (scheduling observability; stolen results are bit-identical to
    /// local ones).
    pub stolen: bool,
    /// Whether the worker served the job from its platform cache rather
    /// than constructing a platform.
    pub cache_hit: bool,
    /// Wall time the job spent queued before a worker claimed it — for
    /// migrated jobs, the wait since the *latest* re-queue.
    pub queue_wait: Duration,
    /// Wall time the executing worker spent running the job (for
    /// migrated jobs, the final stint).
    pub run_time: Duration,
    /// The run, or the error the kernel runner hit.
    pub outcome: Result<JobOutput, RunnerError>,
}

impl JobResult {
    /// End-to-end latency of the job: queue wait plus run time.
    pub fn latency(&self) -> Duration {
        self.queue_wait + self.run_time
    }
}
