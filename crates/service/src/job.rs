//! The service's job model: what a client submits and what it gets back.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use ulp_kernels::{Benchmark, BenchmarkRun, RunnerError, WorkloadConfig};

/// Identifier assigned by [`crate::SimService::submit`], monotonically
/// increasing from 0 in submission order. Results carry it so streamed
/// completions can be matched back to submissions regardless of the order
/// in which workers finish them.
pub type JobId = u64;

/// One unit of work for the service: a benchmark kernel, the platform
/// design and core count to run it on, the workload, and which observers
/// (if any) to attach to the run. Built with [`JobSpec::new`] plus
/// chained setters:
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
    /// Instrumentation attached to the run.
    pub observers: ObserverSelection,
    /// Placement hint: push the job onto this worker's deque (modulo the
    /// pool size) instead of the round-robin default. The job may still be
    /// *stolen* and executed by another worker — affinity shapes the
    /// initial distribution, not execution.
    pub affinity: Option<usize>,
    /// Checkpoint cadence in simulated cycles. When set, the executing
    /// worker snapshots the platform every `checkpoint_every` cycles
    /// ([`ulp_platform::Platform::snapshot`]), which makes the job
    /// *migratable*: a killed or panicking worker's in-flight run is
    /// re-queued from its last checkpoint and finished — bit-identically
    /// — by another worker. `None` (the default) runs the job in one
    /// uninterruptible stint. Every
    /// [`ObserverSelection`] rides along in the checkpoints, so the
    /// migrated job's artifacts are bit-identical too.
    pub checkpoint_every: Option<u64>,
}

impl JobSpec {
    /// A job on the improved (hardware-synchronizer) design with no
    /// observers and round-robin placement.
    pub fn new(benchmark: Benchmark, cores: usize, workload: Arc<WorkloadConfig>) -> JobSpec {
        JobSpec {
            benchmark,
            with_sync: true,
            cores,
            workload,
            observers: ObserverSelection::None,
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

    /// Attaches an observer selection.
    #[must_use]
    pub fn observers(mut self, observers: ObserverSelection) -> JobSpec {
        self.observers = observers;
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

/// Which observers a job wants attached to its run. Everything here rides
/// on the engine's [`ulp_platform::Observer`] hook layer, so adding a
/// variant never touches the cycle loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum ObserverSelection {
    /// Statistics only (the default — the allocation-free fast path).
    #[default]
    None,
    /// Record per-core fetch PCs for the first `limit` cycles.
    PcTrace {
        /// Maximum traced cycles.
        limit: usize,
    },
    /// Produce a VCD change dump of the whole run.
    Vcd,
    /// Record a per-bank data-memory heat map: served core accesses per
    /// DM bank, bucketed into `window`-cycle rows
    /// ([`ulp_platform::BankHeatMap`]).
    BankHeatMap {
        /// Cycles per heat-map row.
        window: u64,
    },
}

impl ObserverSelection {
    /// The [`JobArtifacts::kind`] string a run under this selection
    /// produces — what a consumer (e.g. the shard merge) should expect on
    /// every result of a job batch sharing one selection.
    pub fn artifact_kind(&self) -> &'static str {
        match self {
            ObserverSelection::None => "none",
            ObserverSelection::PcTrace { .. } => "pc-trace",
            ObserverSelection::Vcd => "vcd",
            ObserverSelection::BankHeatMap { .. } => "bank-heat-map",
        }
    }
}

/// Observer output carried back in a [`JobOutput`], mirroring the job's
/// [`ObserverSelection`].
#[derive(Debug, Clone, Default, PartialEq)]
pub enum JobArtifacts {
    /// No observers were attached.
    #[default]
    None,
    /// Rows of per-core fetch PCs, one row per traced cycle.
    PcTrace(Vec<Vec<Option<u16>>>),
    /// The VCD text of the run.
    Vcd(String),
    /// Heat-map rows: one per cycle window, one served-access count per
    /// DM bank.
    BankHeatMap(Vec<Vec<u64>>),
}

impl JobArtifacts {
    /// Stable name of the variant, matching
    /// [`ObserverSelection::artifact_kind`] for the selection that
    /// produced it. Used by consumers (the shard merge, JSON emitters) to
    /// validate and label artifacts without matching on the enum.
    pub fn kind(&self) -> &'static str {
        match self {
            JobArtifacts::None => "none",
            JobArtifacts::PcTrace(_) => "pc-trace",
            JobArtifacts::Vcd(_) => "vcd",
            JobArtifacts::BankHeatMap(_) => "bank-heat-map",
        }
    }

    /// The PC-trace rows, if this is a [`JobArtifacts::PcTrace`].
    pub fn pc_trace(&self) -> Option<&[Vec<Option<u16>>]> {
        match self {
            JobArtifacts::PcTrace(rows) => Some(rows),
            _ => None,
        }
    }

    /// The VCD text, if this is a [`JobArtifacts::Vcd`].
    pub fn vcd(&self) -> Option<&str> {
        match self {
            JobArtifacts::Vcd(text) => Some(text),
            _ => None,
        }
    }

    /// The heat-map rows, if this is a [`JobArtifacts::BankHeatMap`].
    pub fn bank_heat_map(&self) -> Option<&[Vec<u64>]> {
        match self {
            JobArtifacts::BankHeatMap(rows) => Some(rows),
            _ => None,
        }
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
    /// Observer output, per the job's selection.
    pub artifacts: JobArtifacts,
}

/// Why a job produced no [`JobOutput`].
#[derive(Debug)]
pub enum JobError {
    /// The job executed and the kernel runner hit an error.
    Run(RunnerError),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Run(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Run(err) => Some(err),
        }
    }
}

impl From<RunnerError> for JobError {
    fn from(err: RunnerError) -> JobError {
        JobError::Run(err)
    }
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
    /// The run, or the first error it hit.
    pub outcome: Result<JobOutput, JobError>,
}

impl JobResult {
    /// End-to-end latency of the job: queue wait plus run time.
    pub fn latency(&self) -> Duration {
        self.queue_wait + self.run_time
    }
}
