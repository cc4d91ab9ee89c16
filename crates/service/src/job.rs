//! The service's job model: what a client submits and what it gets back.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use ulp_kernels::{Benchmark, BenchmarkRun, RunnerError, WorkloadConfig};

/// Urgency class of a job. Each worker deque is segregated by priority:
/// owners and thieves always serve the highest non-empty class first, so a
/// [`High`] job overtakes any backlog of [`Normal`]/[`Low`] jobs that are
/// still queued (jobs already claimed by a worker are never preempted).
///
/// The ordering follows scheduling urgency: `High < Normal < Low`, so
/// sorting job specs by priority yields most-urgent-first.
///
/// [`High`]: Priority::High
/// [`Normal`]: Priority::Normal
/// [`Low`]: Priority::Low
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Served before everything else still queued — e.g. shards of a
    /// recording whose merge a client is blocked on.
    High,
    /// The default class for grid cells and ad-hoc jobs.
    #[default]
    Normal,
    /// Background work: served only when no higher class is queued.
    Low,
}

impl Priority {
    /// Number of priority classes (one deque segment per class).
    pub const LEVELS: usize = 3;

    /// Dense index of the class, `0` = most urgent — the scan order of
    /// the per-worker deque segments, and the index into
    /// [`crate::ServiceStats::per_priority`].
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Identity of the client a job is submitted on behalf of. Tenants are
/// the unit of admission control and fairness: each tenant can carry a
/// quota (max in-flight + queued jobs, enforced at submission) and a
/// fair-share weight (its slice of the weighted deficit round-robin claim
/// inside a priority class) — see [`crate::TenantPolicy`]. Jobs that
/// never set one run as [`TenantId::DEFAULT`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The anonymous tenant jobs run as when the spec sets none.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifier assigned by [`crate::SimService::submit`], monotonically
/// increasing from 0 in submission order. Results carry it so streamed
/// completions can be matched back to submissions regardless of the order
/// in which workers finish them.
pub type JobId = u64;

/// One unit of work for the service: a benchmark kernel, the platform
/// design and core count to run it on, the workload, the tenant it is
/// submitted on behalf of, and which observers (if any) to attach to the
/// run. Built with [`JobSpec::new`] plus chained setters:
///
/// ```
/// use std::sync::Arc;
/// use ulp_kernels::{Benchmark, WorkloadConfig};
/// use ulp_service::{JobSpec, Priority, TenantId};
///
/// let workload = Arc::new(WorkloadConfig::quick_test());
/// let spec = JobSpec::new(Benchmark::Sqrt32, 4, workload)
///     .with_sync(false)
///     .priority(Priority::High)
///     .deadline_cycles(500_000)
///     .tenant(TenantId(7));
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
    /// Urgency class: queued [`Priority::High`] jobs are claimed before
    /// queued [`Priority::Normal`] ones, which beat [`Priority::Low`].
    pub priority: Priority,
    /// Simulated-cycle budget. A job whose run takes more platform cycles
    /// than this is completed and returned, but flagged as a deadline miss
    /// ([`JobResult::deadline_missed`]) and counted in
    /// [`crate::ServiceStats::deadline_misses`]. A *queued* job whose
    /// budget provably cannot be met (`deadline_cycles <`
    /// [`JobSpec::min_run_cycles`]) is not run at all: it comes back as
    /// [`JobError::Evicted`]. `None` = no deadline.
    pub deadline_cycles: Option<u64>,
    /// The tenant the job is submitted on behalf of (quota and fair-share
    /// accounting). Defaults to [`TenantId::DEFAULT`].
    pub tenant: TenantId,
    /// Checkpoint cadence in simulated cycles. When set, the executing
    /// worker snapshots the platform every `checkpoint_every` cycles
    /// ([`ulp_platform::Platform::snapshot`]), which makes the job
    /// *migratable*: it can be parked at a checkpoint boundary to yield
    /// to queued [`Priority::High`] work, and a killed or panicking
    /// worker's in-flight run is re-queued from its last checkpoint and
    /// finished — bit-identically — by another worker. `None` (the
    /// default) runs the job in one uninterruptible stint. Every
    /// [`ObserverSelection`] rides along in the checkpoints, so the
    /// migrated job's artifacts are bit-identical too.
    pub checkpoint_every: Option<u64>,
}

impl JobSpec {
    /// A job on the improved (hardware-synchronizer) design with no
    /// observers, round-robin placement, [`Priority::Normal`], no
    /// deadline, and the default tenant.
    pub fn new(benchmark: Benchmark, cores: usize, workload: Arc<WorkloadConfig>) -> JobSpec {
        JobSpec {
            benchmark,
            with_sync: true,
            cores,
            workload,
            observers: ObserverSelection::None,
            affinity: None,
            priority: Priority::Normal,
            deadline_cycles: None,
            tenant: TenantId::DEFAULT,
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

    /// Assigns the job's urgency class (the default is
    /// [`Priority::Normal`]).
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> JobSpec {
        self.priority = priority;
        self
    }

    /// Attaches a simulated-cycle deadline budget: runs longer than
    /// `cycles` are flagged as deadline misses on the result, and queued
    /// jobs whose budget provably cannot be met are evicted
    /// ([`JobError::Evicted`]) instead of run.
    #[must_use]
    pub fn deadline_cycles(mut self, cycles: u64) -> JobSpec {
        self.deadline_cycles = Some(cycles);
        self
    }

    /// Tags the job with the tenant it is submitted on behalf of (the
    /// default is [`TenantId::DEFAULT`]).
    #[must_use]
    pub fn tenant(mut self, tenant: TenantId) -> JobSpec {
        self.tenant = tenant;
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

    /// A sound lower bound on the simulated cycles this job's run must
    /// take: every kernel iterates its full per-channel window, and each
    /// of the `n` samples costs at least one instruction cycle on the
    /// core that owns its channel. A [`JobSpec::deadline_cycles`] budget
    /// below this bound can provably never be met, so the scheduler
    /// evicts such a job at claim time instead of running it to certain
    /// failure.
    pub fn min_run_cycles(&self) -> u64 {
        self.workload.n as u64
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

/// Why a job produced no [`JobOutput`]: it ran and hit an error, or the
/// scheduler evicted it from the queue because its deadline budget could
/// provably no longer be met.
#[derive(Debug)]
pub enum JobError {
    /// The job executed and the kernel runner hit an error.
    Run(RunnerError),
    /// The job was claimed with a [`JobSpec::deadline_cycles`] budget
    /// strictly below the provable [`JobSpec::min_run_cycles`] floor, so
    /// the scheduler dropped it instead of running it to certain failure.
    /// Counted in [`crate::ServiceStats::evictions`].
    Evicted {
        /// The budget the spec carried.
        deadline_cycles: u64,
        /// The lower bound that proved the budget infeasible.
        min_cycles: u64,
    },
}

impl JobError {
    /// `true` if this is a deadline eviction (the job never ran).
    pub fn is_eviction(&self) -> bool {
        matches!(self, JobError::Evicted { .. })
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Run(err) => err.fmt(f),
            JobError::Evicted {
                deadline_cycles,
                min_cycles,
            } => write!(
                f,
                "evicted: deadline budget of {deadline_cycles} cycles cannot be met \
                 (the run takes at least {min_cycles})"
            ),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Run(err) => Some(err),
            JobError::Evicted { .. } => None,
        }
    }
}

impl From<RunnerError> for JobError {
    fn from(err: RunnerError) -> JobError {
        JobError::Run(err)
    }
}

/// One completed job, streamed back to the client as soon as the worker
/// finishes (or evicts) it.
#[derive(Debug)]
pub struct JobResult {
    /// The id [`crate::SimService::submit`] returned for this job.
    pub id: JobId,
    /// Tenant the job was submitted as — results stream in completion
    /// order across all tenants, so clients attribute them from here
    /// rather than from a side table.
    pub tenant: TenantId,
    /// Index of the worker that *completed* the job. A migrated job
    /// ([`JobResult::migrations`] `> 0`) may have started on a different
    /// worker; latency and tenant attribution follow the job, not the
    /// workers it visited.
    pub worker: usize,
    /// How many times the job was parked at a checkpoint and re-queued
    /// before completing — cooperative yields to [`Priority::High`] work
    /// plus recoveries from killed workers. Always `0` for jobs without
    /// [`JobSpec::checkpoint_every`].
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
    /// Wall time the executing worker spent running the job (zero for
    /// evicted jobs — they never run; for migrated jobs, the final
    /// stint).
    pub run_time: Duration,
    /// Whether the run exceeded the spec's [`JobSpec::deadline_cycles`]
    /// budget (always `false` for jobs without a deadline, and for jobs
    /// whose outcome is an error).
    pub deadline_missed: bool,
    /// The run, the first error it hit, or the eviction that kept it from
    /// running.
    pub outcome: Result<JobOutput, JobError>,
}

impl JobResult {
    /// End-to-end latency of the job: queue wait plus run time.
    pub fn latency(&self) -> Duration {
        self.queue_wait + self.run_time
    }
}
