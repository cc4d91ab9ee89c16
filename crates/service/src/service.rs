//! The batch simulation service: a long-lived worker pool with per-worker
//! platform caches, bounded tenant-fair priority deques with work
//! stealing, and streamed results.

use crate::job::{
    JobArtifacts, JobError, JobId, JobOutput, JobResult, JobSpec, ObserverSelection, Priority,
    TenantId,
};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use ulp_kernels::{run_benchmark_reusing, CheckpointControl, RunnerError};
use ulp_platform::{
    BankHeatMap, Checkpoint, Observer, PcTrace, Platform, PlatformConfig, VcdTracer,
};
use ulp_telemetry::{
    worker_track, Counter, EventKind, Histogram, Registry, Telemetry, Track, CLIENT_TRACK, NO_JOB,
};

/// Admission and fair-share policy for one tenant (or the default for
/// tenants without an explicit entry): how many of its jobs may be in the
/// service at once, and how large its slice of the scheduler's weighted
/// deficit round-robin is relative to other tenants in the same priority
/// class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Max jobs the tenant may have in the service at once (queued +
    /// running + completed-but-unreceived results do not count — a slot
    /// frees the moment the worker finishes the job). `0` = unlimited.
    pub quota: usize,
    /// Fair-share weight inside a priority class: a tenant with weight 2
    /// is served two jobs per round for every one job of a weight-1
    /// tenant. `0` behaves as `1`.
    pub weight: u32,
}

impl Default for TenantPolicy {
    /// Unlimited quota, weight 1.
    fn default() -> TenantPolicy {
        TenantPolicy {
            quota: 0,
            weight: 1,
        }
    }
}

impl TenantPolicy {
    /// A policy with quota `quota` (`0` = unlimited) and weight 1.
    pub fn quota(quota: usize) -> TenantPolicy {
        TenantPolicy { quota, weight: 1 }
    }

    /// Sets the fair-share weight.
    #[must_use]
    pub fn with_weight(mut self, weight: u32) -> TenantPolicy {
        self.weight = weight;
        self
    }
}

/// Pool shape and tenant policy of a [`SimService`]. Built with
/// [`ServiceConfig::builder`]:
///
/// ```
/// use ulp_service::{ServiceConfig, TenantId, TenantPolicy};
///
/// let config = ServiceConfig::builder()
///     .workers(4)
///     .queue_capacity(64)
///     .tenant(TenantId(1), TenantPolicy::quota(8).with_weight(2))
///     .build();
/// assert_eq!(config.policy(TenantId(1)).quota, 8);
/// assert_eq!(config.policy(TenantId(2)).quota, 0); // default: unlimited
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Worker threads; `0` = one per available hardware thread.
    pub workers: usize,
    /// Bound on the queued (submitted but unclaimed) backlog; `0` =
    /// unbounded. At capacity, [`SimService::submit`] rejects with
    /// [`SubmitError::AtCapacity`] and [`SimService::submit_blocking`]
    /// blocks until the backlog drains to the watermark (half the
    /// capacity).
    pub queue_capacity: usize,
    /// Policy for tenants without an explicit [`ServiceConfig::tenants`]
    /// entry. The `Default` default is unlimited quota, weight 1.
    pub default_policy: TenantPolicy,
    /// Per-tenant policy overrides.
    pub tenants: Vec<(TenantId, TenantPolicy)>,
    /// Telemetry sink the pool records into: every job-lifecycle phase
    /// becomes a typed event on the submitting client's or executing
    /// worker's track, and the pool's counters (`service_<field>` for
    /// each [`ServiceStats`] counter) live in the sink's metrics
    /// registry. The default ([`Telemetry::disabled`]) makes every event
    /// hook a single branch — no ring, no clock read — and keeps the
    /// counters in a registry private to the pool.
    pub telemetry: Telemetry,
    /// Directory the pool persists checkpoints into: every time a
    /// migratable job checkpoints, the blob
    /// ([`ulp_platform::Checkpoint::to_bytes`]) is written to
    /// `job-<id>.ckpt` in this directory, latest-wins. Persistence is
    /// best-effort — a write failure never fails the job (migration rides
    /// the in-memory checkpoint; the files serve external inspection and
    /// restart tooling) — and files are left behind on completion.
    /// `None` (the default) persists nothing.
    pub checkpoint_dir: Option<std::path::PathBuf>,
}

impl ServiceConfig {
    /// Starts building a configuration (all-default: auto-sized pool,
    /// unbounded queue, unlimited quotas, equal weights).
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            config: ServiceConfig::default(),
        }
    }

    /// The policy governing `tenant`: its override, or the default.
    pub fn policy(&self, tenant: TenantId) -> TenantPolicy {
        self.tenants
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, p)| *p)
            .unwrap_or(self.default_policy)
    }

    /// The concrete pool size this configuration resolves to: `workers`,
    /// or one thread per available hardware thread when `workers == 0`.
    /// Public so clients sizing their own batches (e.g. the sweep runner
    /// capping the pool at the grid size) resolve exactly like the pool.
    pub fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        }
    }
}

/// Chained constructor for [`ServiceConfig`] — see
/// [`ServiceConfig::builder`].
#[derive(Debug, Clone, Default)]
pub struct ServiceConfigBuilder {
    config: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Worker threads; `0` (the default) = one per available hardware
    /// thread.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> ServiceConfigBuilder {
        self.config.workers = workers;
        self
    }

    /// Bounds the queued backlog at `capacity` jobs (`0` = unbounded).
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> ServiceConfigBuilder {
        self.config.queue_capacity = capacity;
        self
    }

    /// Policy for tenants without an explicit [`ServiceConfigBuilder::tenant`]
    /// entry (default: unlimited quota, weight 1).
    #[must_use]
    pub fn default_policy(mut self, policy: TenantPolicy) -> ServiceConfigBuilder {
        self.config.default_policy = policy;
        self
    }

    /// Attaches a telemetry sink (default: [`Telemetry::disabled`]).
    /// Pass [`Telemetry::enabled`] to record job-lifecycle events and
    /// export the pool's counters; keep a clone of the handle to export
    /// them. Pools started with clones of one enabled handle share their
    /// counters: registering a name twice returns the same metric, so
    /// the counters in each pool's [`SimService::stats`] then sum over
    /// all of them. Give each pool its own handle to keep them apart.
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> ServiceConfigBuilder {
        self.config.telemetry = telemetry;
        self
    }

    /// Persists every checkpoint blob under `dir` (see
    /// [`ServiceConfig::checkpoint_dir`]; default: no persistence).
    #[must_use]
    pub fn checkpoint_dir(mut self, dir: impl Into<std::path::PathBuf>) -> ServiceConfigBuilder {
        self.config.checkpoint_dir = Some(dir.into());
        self
    }

    /// Sets (or replaces) the policy for one tenant.
    #[must_use]
    pub fn tenant(mut self, tenant: TenantId, policy: TenantPolicy) -> ServiceConfigBuilder {
        if let Some(entry) = self.config.tenants.iter_mut().find(|(t, _)| *t == tenant) {
            entry.1 = policy;
        } else {
            self.config.tenants.push((tenant, policy));
        }
        self
    }

    /// The finished configuration.
    pub fn build(self) -> ServiceConfig {
        self.config
    }
}

/// Latency distribution of completed jobs (queue wait + run time).
/// `samples` and `max` cover the pool's whole lifetime; the percentiles
/// are computed over a sliding window of the most recent
/// [`LATENCY_WINDOW`] completions, so a long-lived service's memory stays
/// bounded and its percentiles track *current* traffic, not ancient
/// history.
///
/// Small-sample behaviour is well-defined (nearest-rank percentiles are
/// total functions of the window, not estimates):
///
/// - **0 samples**: every field is zero ([`LatencyStats::default`]).
/// - **1 sample**: `p50`, `p95` and `max` all equal that sample — the
///   only observation is every percentile.
/// - **2 samples**: `p50` is the *smaller* sample (nearest-rank:
///   `ceil(0.50 × 2) = 1` → 1st smallest), `p95` and `max` the larger
///   (`ceil(0.95 × 2) = 2` → 2nd smallest).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Completed jobs over the pool's lifetime.
    pub samples: u64,
    /// Median end-to-end latency (nearest-rank, recent window).
    pub p50: Duration,
    /// 95th-percentile end-to-end latency (nearest-rank, recent window —
    /// the tail CI gates on).
    pub p95: Duration,
    /// Worst end-to-end latency ever observed (not windowed).
    pub max: Duration,
}

impl LatencyStats {
    fn compute(total: u64, max_ns: u64, window: &[u64]) -> LatencyStats {
        // Empty window: all-zero stats rather than an indexing panic —
        // an idle pool has a well-defined (zero) distribution.
        if window.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = window.to_vec();
        sorted.sort_unstable();
        // Nearest-rank: the ceil(p/100 * N)-th smallest sample. The
        // `.max(1)` keeps tiny windows in range: for N = 1 every
        // percentile is the single sample (rank 1), never index -1.
        let rank = |p: usize| sorted[(p * sorted.len()).div_ceil(100).max(1) - 1];
        LatencyStats {
            samples: total,
            p50: Duration::from_nanos(rank(50)),
            p95: Duration::from_nanos(rank(95)),
            max: Duration::from_nanos(max_ns),
        }
    }

    /// The distribution as a JSON fragment (durations in nanoseconds).
    fn to_json(self) -> String {
        format!(
            "{{\"samples\":{},\"p50_ns\":{},\"p95_ns\":{},\"max_ns\":{}}}",
            self.samples,
            self.p50.as_nanos(),
            self.p95.as_nanos(),
            self.max.as_nanos()
        )
    }
}

/// Completions the latency percentiles are computed over (the ring's
/// bound). Big enough that quick-mode benches and tests see every sample,
/// small enough that a service running for months holds kilobytes, not
/// gigabytes.
pub const LATENCY_WINDOW: usize = 4096;

/// Fixed-memory recorder behind [`LatencyStats`]: a ring of the last
/// [`LATENCY_WINDOW`] total-latency samples plus lifetime count and max.
#[derive(Clone, Default)]
struct LatencyRing {
    window: Vec<u64>,
    next: usize,
    total: u64,
    max_ns: u64,
}

impl LatencyRing {
    fn record(&mut self, nanos: u64) {
        if self.window.len() < LATENCY_WINDOW {
            self.window.push(nanos);
        } else {
            self.window[self.next] = nanos;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        }
        self.total += 1;
        self.max_ns = self.max_ns.max(nanos);
    }

    fn stats(&self) -> LatencyStats {
        LatencyStats::compute(self.total, self.max_ns, &self.window)
    }
}

/// All of the pool's latency recorders, updated together on every
/// completion: the lifetime aggregate, one ring per priority class, and
/// one ring per tenant that has completed a job.
#[derive(Clone, Default)]
struct LatencyBook {
    aggregate: LatencyRing,
    per_priority: [LatencyRing; Priority::LEVELS],
    per_tenant: Vec<(TenantId, LatencyRing)>,
}

impl LatencyBook {
    fn record(&mut self, tenant: TenantId, priority: Priority, nanos: u64) {
        self.aggregate.record(nanos);
        self.per_priority[priority.index()].record(nanos);
        match self.per_tenant.iter_mut().find(|(t, _)| *t == tenant) {
            Some((_, ring)) => ring.record(nanos),
            None => {
                let mut ring = LatencyRing::default();
                ring.record(nanos);
                self.per_tenant.push((tenant, ring));
            }
        }
    }
}

/// Per-tenant slice of [`ServiceStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant the row describes.
    pub tenant: TenantId,
    /// High-water mark of the tenant's jobs in the service at once
    /// (queued + running) — never exceeds the tenant's configured quota.
    pub peak_admitted: u64,
    /// End-to-end latency distribution of the tenant's completed jobs;
    /// `latency.samples` is the tenant's completed-job count.
    pub latency: LatencyStats,
}

/// Scheduling observability: what the pool did. Snapshot via
/// [`SimService::stats`], final values from [`SimService::finish`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Jobs executed to completion (success or error; evicted jobs are
    /// counted in [`ServiceStats::evictions`] instead).
    pub jobs_run: u64,
    /// Steal events: times an idle worker took a half-batch from another
    /// worker's deque.
    pub steals: u64,
    /// Jobs moved by steals, summed over every steal event (a job
    /// relocated twice counts twice).
    pub jobs_stolen: u64,
    /// Largest half-batch a single steal event moved.
    pub steal_batch_max: u64,
    /// Non-blocking submissions rejected at queue capacity
    /// ([`SubmitError::AtCapacity`]).
    pub rejections: u64,
    /// Non-blocking submissions rejected because the tenant was at its
    /// quota ([`SubmitError::QuotaExceeded`]).
    pub quota_rejections: u64,
    /// Queued jobs evicted because their deadline budget provably could
    /// not be met ([`JobError::Evicted`]).
    pub evictions: u64,
    /// Completed jobs whose run exceeded their simulated-cycle deadline.
    pub deadline_misses: u64,
    /// Jobs served from a worker's platform cache.
    pub platform_cache_hits: u64,
    /// Platforms constructed across all workers (the cache misses).
    pub platforms_built: u64,
    /// Mid-run platform checkpoints taken of migratable jobs
    /// ([`JobSpec::checkpoint_every`]).
    pub checkpoints_taken: u64,
    /// Times a partially-run job was parked at a checkpoint and
    /// re-queued — cooperative yields to [`Priority::High`] work plus
    /// in-flight jobs recovered from killed workers. A job migrated
    /// twice counts twice.
    pub jobs_migrated: u64,
    /// Worker threads lost over the pool's lifetime: injected failures
    /// ([`SimService::inject_worker_failure`]) and panics. Deaths whose
    /// in-flight job was recovered do not kill the pool — the remaining
    /// workers keep draining the queue.
    pub workers_died: u64,
    /// End-to-end latency distribution of completed jobs, pooled over
    /// every class and tenant.
    pub latency: LatencyStats,
    /// Latency distribution per priority class, indexed by
    /// [`Priority::index`] (0 = High).
    pub per_priority: [LatencyStats; Priority::LEVELS],
    /// Latency distribution and admission high-water mark per tenant,
    /// sorted by tenant id. Tenants appear once they have submitted a
    /// job.
    pub per_tenant: Vec<TenantStats>,
    /// Wall time since the pool started.
    pub wall: Duration,
}

impl ServiceStats {
    /// The per-tenant row for `tenant`, if it has submitted any job.
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantStats> {
        self.per_tenant.iter().find(|t| t.tenant == tenant)
    }

    /// The latency distribution of one priority class.
    pub fn priority_latency(&self, priority: Priority) -> &LatencyStats {
        &self.per_priority[priority.index()]
    }

    /// The full snapshot as one JSON object (schema 3: checkpoint and
    /// migration counters next to the schema-2 per-tenant rows), for the
    /// `--stats-json` flag of the sweep and shard CLIs and any other
    /// scripted consumer. Durations are nanoseconds; priority rows are
    /// keyed `"high"`/`"normal"`/`"low"`; tenant rows are sorted by
    /// tenant id.
    pub fn to_json(&self) -> String {
        let per_priority: Vec<String> = ["high", "normal", "low"]
            .iter()
            .zip(self.per_priority.iter())
            .map(|(name, stats)| format!("\"{name}\":{}", stats.to_json()))
            .collect();
        let per_tenant: Vec<String> = self
            .per_tenant
            .iter()
            .map(|row| {
                format!(
                    "{{\"tenant\":{},\"peak_admitted\":{},\"latency\":{}}}",
                    row.tenant.0,
                    row.peak_admitted,
                    row.latency.to_json()
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"schema\":3,\"workers\":{},\"jobs_run\":{},\"steals\":{},",
                "\"jobs_stolen\":{},\"steal_batch_max\":{},\"rejections\":{},",
                "\"quota_rejections\":{},\"evictions\":{},\"deadline_misses\":{},",
                "\"platform_cache_hits\":{},\"platforms_built\":{},",
                "\"checkpoints_taken\":{},\"jobs_migrated\":{},\"workers_died\":{},",
                "\"latency\":{},\"per_priority\":{{{}}},\"per_tenant\":[{}],",
                "\"wall_ns\":{}}}"
            ),
            self.workers,
            self.jobs_run,
            self.steals,
            self.jobs_stolen,
            self.steal_batch_max,
            self.rejections,
            self.quota_rejections,
            self.evictions,
            self.deadline_misses,
            self.platform_cache_hits,
            self.platforms_built,
            self.checkpoints_taken,
            self.jobs_migrated,
            self.workers_died,
            self.latency.to_json(),
            per_priority.join(","),
            per_tenant.join(","),
            self.wall.as_nanos()
        )
    }
}

/// Why [`SimService::submit`] / [`SimService::submit_blocking`] did not
/// enqueue a job. The rejecting variants carry the spec back so the
/// caller can retry it (after draining results, or through the blocking
/// path) without cloning up front.
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded queue is at capacity (backpressure). Only returned by
    /// the non-blocking [`SimService::submit`]; counted in
    /// [`ServiceStats::rejections`].
    AtCapacity {
        /// The job that was not enqueued, returned for retry.
        spec: JobSpec,
        /// The capacity the queue was full at.
        capacity: usize,
    },
    /// The spec's tenant is at its admission quota (queued + running
    /// jobs). Only returned by the non-blocking [`SimService::submit`];
    /// counted in [`ServiceStats::quota_rejections`].
    QuotaExceeded {
        /// The job that was not enqueued, returned for retry.
        spec: JobSpec,
        /// The tenant that hit its quota.
        tenant: TenantId,
        /// The quota it hit.
        quota: usize,
    },
    /// The spec can never run: its workload size is outside the kernel
    /// layout's capacity. Returned by both submission paths before any
    /// admission bookkeeping, so the pool is untouched.
    Invalid {
        /// The rejected job, returned so the caller can fix and resubmit.
        spec: JobSpec,
        /// What is wrong with it.
        reason: String,
    },
    /// A worker thread panicked: the pool accepts no further work. Both
    /// submission paths return this rather than blocking on a drain that
    /// can never come.
    PoolDead,
}

impl SubmitError {
    /// Takes the rejected spec back out for a retry (`None` for
    /// [`SubmitError::PoolDead`] — there is nothing left to retry
    /// against).
    pub fn into_spec(self) -> Option<JobSpec> {
        match self {
            SubmitError::AtCapacity { spec, .. } => Some(spec),
            SubmitError::QuotaExceeded { spec, .. } => Some(spec),
            SubmitError::Invalid { spec, .. } => Some(spec),
            SubmitError::PoolDead => None,
        }
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::AtCapacity { capacity, .. } => write!(
                f,
                "submission rejected: queue at capacity ({capacity} queued jobs)"
            ),
            SubmitError::QuotaExceeded { tenant, quota, .. } => write!(
                f,
                "submission rejected: tenant {tenant} at its quota of {quota} in-flight jobs"
            ),
            SubmitError::Invalid { reason, .. } => write!(f, "submission rejected: {reason}"),
            SubmitError::PoolDead => write!(f, "submission rejected: a service worker died"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The pool died (a worker thread panicked) with results still
/// outstanding — returned by [`SimService::checked_recv`] so clients can
/// surface worker death as a structured error instead of a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolDied {
    /// Submitted jobs whose results had not been received when the pool
    /// died; they are lost.
    pub outstanding: u64,
}

impl fmt::Display for PoolDied {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a service worker died with {} job result(s) outstanding",
            self.outstanding
        )
    }
}

impl std::error::Error for PoolDied {}

/// Cap on *cooperative* migrations of one job (parking at a checkpoint
/// to yield to queued [`Priority::High`] work). Bounds the extra restore
/// cost a job can accrue under sustained urgent traffic and rules out
/// park/resume livelock; recovery from a killed worker is not capped —
/// a job is never lost to the limit.
const MAX_MIGRATIONS: u32 = 3;

/// One queued unit of work: the spec plus the scheduling metadata the
/// deques track for it. `Clone` so the executing worker can park a copy
/// in the pool's in-flight registry ([`Shared::inflight`]) while it
/// runs — the clone is what a recovery re-queues.
#[derive(Clone)]
struct QueuedJob {
    id: JobId,
    spec: JobSpec,
    /// Set once a steal moves the job off the deque it was submitted to;
    /// survives relocation so the executing worker reports it faithfully.
    stolen: bool,
    /// When the job was (last) enqueued — queue-wait latency is measured
    /// from here to the executing worker's claim, across any relocations;
    /// a migration resets it to the re-queue instant.
    enqueued: Instant,
    /// The latest checkpoint of a partially-run migratable job: a worker
    /// claiming this job resumes the platform from here instead of
    /// starting the run over. `None` until the first checkpoint is taken.
    resume: Option<Arc<Checkpoint>>,
    /// Times the job has been parked at a checkpoint and re-queued.
    migrations: u32,
}

impl QueuedJob {
    /// EDF sort key: explicit deadlines first (earliest wins), then
    /// arrival order.
    fn deadline_key(&self) -> u64 {
        self.spec.deadline_cycles.unwrap_or(u64::MAX)
    }
}

/// One tenant's FIFO sub-queue inside a [`ClassQueue`], plus its deficit
/// round-robin bookkeeping.
#[derive(Default)]
struct Lane {
    tenant: TenantId,
    /// Fair-share weight (from the tenant's [`TenantPolicy`]); the quantum
    /// replenished into `deficit` when the round-robin reaches this lane.
    weight: u32,
    /// Jobs this lane may still serve in the current round. Every job
    /// costs one unit (job runtimes are not knowable up front), so weights
    /// buy *claims per round*, not cycles.
    deficit: u32,
    jobs: VecDeque<QueuedJob>,
}

impl Lane {
    /// The lane's claim: earliest-deadline-first among its jobs, oldest
    /// first among jobs with equal (or no) deadlines — so deadline jobs
    /// jump the lane while a pure-FIFO lane stays pure FIFO.
    fn pop_edf(&mut self) -> Option<QueuedJob> {
        let idx = self
            .jobs
            .iter()
            .enumerate()
            .min_by_key(|(i, job)| (job.deadline_key(), *i))?
            .0;
        self.jobs.remove(idx)
    }
}

/// One priority class of a worker's deque: per-tenant FIFO lanes served
/// by weighted deficit round-robin. Replaces the old flat per-class
/// segment, which let one tenant's burst starve everyone behind it.
#[derive(Default)]
struct ClassQueue {
    lanes: Vec<Lane>,
    /// The lane the round-robin serves next.
    cursor: usize,
}

impl ClassQueue {
    fn push(&mut self, job: QueuedJob, weight: u32) {
        let tenant = job.spec.tenant;
        match self.lanes.iter_mut().find(|lane| lane.tenant == tenant) {
            Some(lane) => lane.jobs.push_back(job),
            None => self.lanes.push(Lane {
                tenant,
                weight,
                deficit: 0,
                jobs: VecDeque::from([job]),
            }),
        }
    }

    fn is_empty(&self) -> bool {
        self.lanes.iter().all(|lane| lane.jobs.is_empty())
    }

    /// The weighted deficit round-robin claim (unit job cost): the cursor
    /// lane's quantum is replenished to its weight when it is reached
    /// fresh, each served job costs one unit, and the cursor advances when
    /// the quantum is spent or the lane runs dry — so over a contended
    /// round, tenants are served in proportion to their weights no matter
    /// how lopsided the backlog is.
    fn pop(&mut self) -> Option<QueuedJob> {
        let lanes = self.lanes.len();
        for _ in 0..lanes {
            if self.cursor >= lanes {
                self.cursor = 0;
            }
            let lane = &mut self.lanes[self.cursor];
            if lane.jobs.is_empty() {
                // An empty lane leaves the round; a stale quantum must not
                // carry over to its next burst.
                lane.deficit = 0;
                self.cursor += 1;
                continue;
            }
            if lane.deficit == 0 {
                lane.deficit = lane.weight.max(1);
            }
            lane.deficit -= 1;
            let job = lane.pop_edf();
            if lane.jobs.is_empty() {
                lane.deficit = 0;
            }
            if lane.deficit == 0 {
                self.cursor += 1;
            }
            return job;
        }
        None
    }

    /// A thief's cut: the older half (rounded up) of *every* tenant lane,
    /// so a steal relocates backlog without skewing the per-tenant
    /// balance the round-robin maintains.
    fn steal_half(&mut self) -> Vec<QueuedJob> {
        let mut batch = Vec::new();
        for lane in &mut self.lanes {
            let take = lane.jobs.len().div_ceil(2);
            batch.extend(lane.jobs.drain(..take));
            if lane.jobs.is_empty() {
                lane.deficit = 0;
            }
        }
        batch
    }

    fn clear(&mut self) {
        for lane in &mut self.lanes {
            lane.jobs.clear();
            lane.deficit = 0;
        }
    }
}

/// One worker's deque, segregated by priority class: class 0
/// ([`Priority::High`]) is always served before class 1, and so on.
/// Within a class, tenants are served by weighted deficit round-robin
/// over per-tenant FIFO lanes, with earliest-deadline-first among one
/// tenant's jobs — priorities express urgency, the round-robin bounds any
/// one tenant's damage, EDF spends each tenant's share on its most
/// urgent work. (The platform cache is keyed by `(design, cores)`, so pop
/// order costs no cache warmth.) Thieves take the front half of every
/// lane of the highest non-empty class.
struct WorkerQueue {
    classes: [ClassQueue; Priority::LEVELS],
}

impl WorkerQueue {
    fn new() -> WorkerQueue {
        WorkerQueue {
            classes: Default::default(),
        }
    }

    fn push(&mut self, job: QueuedJob, weight: u32) {
        self.classes[job.spec.priority.index()].push(job, weight);
    }

    /// The owner's claim: the round-robin pop of the most urgent
    /// non-empty class.
    fn pop_own(&mut self) -> Option<QueuedJob> {
        self.classes.iter_mut().find_map(|class| class.pop())
    }

    /// The owner's claim restricted to the [`Priority::High`] class
    /// (class 0) — the pool-wide-priority fast path.
    fn pop_high(&mut self) -> Option<QueuedJob> {
        self.classes[0].pop()
    }

    /// A thief's claim: half of every tenant lane of the most urgent
    /// non-empty class. Taking a batch instead of a single job amortizes
    /// the lock traffic of repeated steals on mixed grids — the thief
    /// runs one job and relocates the rest to its own deque, where they
    /// stay claimable by everyone.
    fn steal_half(&mut self) -> Vec<QueuedJob> {
        for class in &mut self.classes {
            if !class.is_empty() {
                return class.steal_half();
            }
        }
        Vec::new()
    }

    /// [`WorkerQueue::steal_half`] restricted to the [`Priority::High`]
    /// class.
    fn steal_half_high(&mut self) -> Vec<QueuedJob> {
        if self.classes[0].is_empty() {
            return Vec::new();
        }
        self.classes[0].steal_half()
    }

    fn clear(&mut self) {
        for class in &mut self.classes {
            class.clear();
        }
    }
}

/// Per-tenant admission bookkeeping, guarded by [`Shared::work`].
#[derive(Default)]
struct TenantLoad {
    /// The tenant's jobs currently in the service (queued + running) —
    /// the count its quota bounds.
    admitted: u64,
    /// Lifetime high-water mark of `admitted`, surfaced as
    /// [`TenantStats::peak_admitted`] so tests and operators can verify a
    /// quota was never breached.
    peak: u64,
}

/// Guarded by [`Shared::work`]: how many submitted jobs are not yet
/// claimed by a worker, per-tenant admission counts, and whether the
/// service is shutting down.
struct WorkState {
    /// Jobs pushed to some deque and not yet claimed. A worker claims by
    /// decrementing under the lock, then locates the job in the deques —
    /// the counter is the wait condition, the deques hold the payload.
    /// With a bounded queue this is also the backlog the capacity bounds.
    available: u64,
    /// Set by [`SimService::finish`]; workers exit once `available == 0`.
    closed: bool,
    /// Set when the service is dropped without `finish`: queued jobs are
    /// discarded and workers abandon in-flight claims instead of draining
    /// the backlog.
    cancelled: bool,
    /// Worker threads that panicked. A blocking
    /// [`SimService::submit_blocking`] parked on the space condvar checks
    /// this so a dying pool fails it fast instead of leaving it waiting on
    /// a drain that may never come (the result-channel death notice only
    /// reaches `recv`).
    dead_workers: usize,
    /// Per-tenant admitted counts and high-water marks.
    tenants: HashMap<TenantId, TenantLoad>,
}

impl WorkState {
    fn admitted(&self, tenant: TenantId) -> u64 {
        self.tenants.get(&tenant).map_or(0, |load| load.admitted)
    }

    fn admit(&mut self, tenant: TenantId) {
        let load = self.tenants.entry(tenant).or_default();
        load.admitted += 1;
        load.peak = load.peak.max(load.admitted);
    }

    fn release(&mut self, tenant: TenantId) {
        if let Some(load) = self.tenants.get_mut(&tenant) {
            load.admitted = load.admitted.saturating_sub(1);
        }
    }
}

/// What flows back over the result channel: completed jobs, or a death
/// notice a panicking worker emits while unwinding so blocked clients
/// fail fast instead of hanging (surviving workers keep the channel open,
/// so a plain disconnect is not observable in pools of 2+).
enum Message {
    Result(Box<JobResult>),
    WorkerDied,
}

/// The pool's counters and histograms: the only place its statistics
/// live. Each [`ServiceStats`] counter field has one handle here,
/// registered as `service_<field>`, and [`SimService::stats`] reads
/// them. Resolving the handles once at startup keeps the hot path free
/// of name lookups.
struct ServiceMetrics {
    jobs_submitted: Counter,
    jobs_run: Counter,
    steals: Counter,
    jobs_stolen: Counter,
    steal_batch_max: Counter,
    rejections: Counter,
    quota_rejections: Counter,
    evictions: Counter,
    deadline_misses: Counter,
    platform_cache_hits: Counter,
    platforms_built: Counter,
    checkpoints_taken: Counter,
    jobs_migrated: Counter,
    workers_died: Counter,
    /// Simulated cycle each checkpoint was taken at — the distribution
    /// shows how deep into their runs migratable jobs snapshot.
    checkpoint_cycles: Histogram,
    queue_wait_us: Histogram,
    run_us: Histogram,
}

impl ServiceMetrics {
    /// Registers in the telemetry sink's registry, so snapshots export
    /// the counters, or in a private one when telemetry is disabled: the
    /// handles own their cells and keep counting after it is dropped.
    fn new(telemetry: &Telemetry) -> ServiceMetrics {
        let private = Registry::new();
        let registry = telemetry.registry().unwrap_or(&private);
        ServiceMetrics {
            jobs_submitted: registry.counter("service_jobs_submitted"),
            jobs_run: registry.counter("service_jobs_run"),
            steals: registry.counter("service_steals"),
            jobs_stolen: registry.counter("service_jobs_stolen"),
            steal_batch_max: registry.counter("service_steal_batch_max"),
            rejections: registry.counter("service_rejections"),
            quota_rejections: registry.counter("service_quota_rejections"),
            evictions: registry.counter("service_evictions"),
            deadline_misses: registry.counter("service_deadline_misses"),
            platform_cache_hits: registry.counter("service_platform_cache_hits"),
            platforms_built: registry.counter("service_platforms_built"),
            checkpoints_taken: registry.counter("service_checkpoints_taken"),
            jobs_migrated: registry.counter("service_jobs_migrated"),
            workers_died: registry.counter("service_workers_died"),
            checkpoint_cycles: registry.histogram("service_checkpoint_cycles"),
            queue_wait_us: registry.histogram("service_queue_wait_us"),
            run_us: registry.histogram("service_run_us"),
        }
    }
}

/// The telemetry tags of one job spec: (job id, tenant, priority).
fn event_tags(id: JobId, spec: &JobSpec) -> (u64, u32, u8) {
    (id, spec.tenant.0, spec.priority.index() as u8)
}

struct Shared {
    /// Bound on the unclaimed backlog; `0` = unbounded.
    capacity: usize,
    /// Policy for tenants without an override.
    default_policy: TenantPolicy,
    /// Per-tenant policy overrides (small: linear scan beats hashing).
    policies: Vec<(TenantId, TenantPolicy)>,
    /// Whether any quota (default or override) is non-zero: gates the
    /// completion-side condvar wake that quota waiters need.
    has_quotas: bool,
    /// One priority deque per worker (see [`WorkerQueue`]).
    queues: Vec<Mutex<WorkerQueue>>,
    work: Mutex<WorkState>,
    available: Condvar,
    /// Signalled (with [`Shared::work`]) every time a worker claims a job
    /// (frees backlog space) or completes one (frees the tenant's quota
    /// slot), so a [`SimService::submit_blocking`] parked here can
    /// re-check its admission conditions.
    space: Condvar,
    /// [`Priority::High`] jobs queued anywhere in the pool. Lets a claim
    /// serve the High class *pool-wide* — own deque, then a High-only
    /// steal scan — before touching its own lower classes, while keeping
    /// the common no-High case a single relaxed load. Incremented on
    /// submission, decremented when a High job is claimed for execution
    /// (relocated-but-still-queued jobs stay counted).
    queued_high: AtomicU64,
    /// One slot per worker: the migratable job it is currently running,
    /// kept current with the job's latest checkpoint. Recovery paths —
    /// the worker's own injected-failure park and the panic
    /// [`DeathWatch`] — take the slot and re-queue the job from here, so
    /// a lost worker loses at most one checkpoint interval of progress.
    /// Workers running non-migratable jobs leave their slot empty.
    inflight: Vec<Mutex<Option<QueuedJob>>>,
    /// One flag per worker, set by [`SimService::inject_worker_failure`].
    /// A worker observes its flag at the next checkpoint of a migratable
    /// job: it parks the job, re-queues it, and exits — simulating a
    /// worker lost mid-shard.
    kill_flags: Vec<AtomicBool>,
    /// Best-effort checkpoint persistence directory (see
    /// [`ServiceConfig::checkpoint_dir`]).
    checkpoint_dir: Option<std::path::PathBuf>,
    /// Bounded recorders behind [`ServiceStats::latency`],
    /// [`ServiceStats::per_priority`] and [`ServiceStats::per_tenant`].
    latencies: Mutex<LatencyBook>,
    /// The telemetry sink (possibly disabled) every lifecycle event goes
    /// through.
    telemetry: Telemetry,
    /// The pool's counters and histograms, behind [`ServiceStats`].
    metrics: ServiceMetrics,
}

impl Shared {
    fn policy(&self, tenant: TenantId) -> TenantPolicy {
        self.policies
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, p)| *p)
            .unwrap_or(self.default_policy)
    }

    /// Puts a parked or recovered partially-run job back into the pool:
    /// bumps its migration count, restarts its queue-wait clock and lands
    /// it on the next worker's deque (the parking worker may be exiting;
    /// any idle worker can still steal it from there). Admission is *not*
    /// re-taken — the job never left the service, so its tenant slot
    /// stays held until it completes. Shared by cooperative parking,
    /// injected-failure parks and the panic [`DeathWatch`]; the latter
    /// runs during an unwind, so lock failures bail out instead of
    /// panicking (a poisoned pool lock means the pool is beyond rescue).
    fn requeue(&self, from: usize, mut job: QueuedJob) {
        job.migrations += 1;
        job.enqueued = Instant::now();
        if job.spec.priority == Priority::High {
            self.queued_high.fetch_add(1, Ordering::Relaxed);
        }
        self.metrics.jobs_migrated.inc();
        let weight = self.policy(job.spec.tenant).weight;
        let target = (from + 1) % self.queues.len();
        match self.queues[target].lock() {
            Ok(mut queue) => queue.push(job, weight),
            Err(_) => return,
        }
        if let Ok(mut state) = self.work.lock() {
            state.available += 1;
        }
        self.available.notify_one();
    }
}

/// A pool of simulation workers behind a submission handle.
///
/// Jobs ([`JobSpec`]) are distributed over per-worker priority deques
/// (round-robin, or pinned via [`JobSpec::pinned`]); idle workers steal
/// half-batches from busy ones, so mixed-size grids — a 2-core SQRT32
/// cell next to an 8-core full-signal MRPDLN cell — keep every thread
/// busy. Queued [`Priority::High`] jobs are always claimed before queued
/// [`Priority::Normal`] and [`Priority::Low`] ones; *within* a class,
/// workers claim by weighted deficit round-robin across per-tenant FIFO
/// lanes (earliest-deadline-first among one tenant's jobs), so no tenant's
/// burst starves another tenant's queue wait. Admission is tenant-aware
/// too: a [`TenantPolicy::quota`] bounds one tenant's in-flight jobs, and
/// with a [`ServiceConfig::queue_capacity`] bound the submission path
/// exerts explicit backpressure — [`SimService::submit`] rejects with a
/// typed [`SubmitError`] carrying the spec back, and
/// [`SimService::submit_blocking`] parks until admission succeeds. A
/// queued job whose [`JobSpec::deadline_cycles`] budget provably cannot
/// be met is evicted ([`JobError::Evicted`]) instead of run. Each worker
/// keeps one [`Platform`] per `(design, cores)` key and reuses it via
/// [`ulp_kernels::run_benchmark_reusing`], so the dominant allocations
/// happen once per worker, not once per job. Every job runs through that
/// one path with its observer [attached](Platform::attach); a job
/// without a [`JobSpec::checkpoint_every`] cadence simply never
/// checkpoints. Completed
/// [`JobResult`]s stream back through [`SimService::recv`] as workers
/// finish them — a client never waits for the whole batch — and carry
/// per-job queue-wait and run latency; [`ServiceStats`] aggregates them
/// into pooled, per-priority and per-tenant p50/p95/max.
///
/// ```no_run
/// use std::sync::Arc;
/// use ulp_kernels::{Benchmark, WorkloadConfig};
/// use ulp_service::{JobSpec, ServiceConfig, SimService};
///
/// let mut service = SimService::start(ServiceConfig::default());
/// let workload = Arc::new(WorkloadConfig::quick_test());
/// for cores in [2, 4, 8] {
///     let spec = JobSpec::new(Benchmark::Sqrt32, cores, workload.clone());
///     service.submit(spec).expect("unbounded queue admits");
/// }
/// while let Some(result) = service.recv() {
///     let out = result.outcome.expect("job ran");
///     println!("{} cores: {} cycles", out.cores, out.run.stats.cycles);
/// }
/// let stats = service.finish();
/// assert_eq!(stats.jobs_run, 3);
/// ```
pub struct SimService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    results: mpsc::Receiver<Message>,
    next_queue: usize,
    submitted: u64,
    received: u64,
    started: Instant,
    /// Recording handle for client-side lifecycle events (submission and
    /// rejection), resolved once at start.
    client_track: Track,
}

impl SimService {
    /// Starts the worker pool.
    pub fn start(config: ServiceConfig) -> SimService {
        let workers = config.resolved_workers().max(1);
        let has_quotas =
            config.default_policy.quota != 0 || config.tenants.iter().any(|(_, p)| p.quota != 0);
        let telemetry = config.telemetry.clone();
        let metrics = ServiceMetrics::new(&telemetry);
        let client_track = telemetry.track(CLIENT_TRACK);
        let shared = Arc::new(Shared {
            capacity: config.queue_capacity,
            default_policy: config.default_policy,
            policies: config.tenants,
            has_quotas,
            queues: (0..workers)
                .map(|_| Mutex::new(WorkerQueue::new()))
                .collect(),
            work: Mutex::new(WorkState {
                available: 0,
                closed: false,
                cancelled: false,
                dead_workers: 0,
                tenants: HashMap::new(),
            }),
            available: Condvar::new(),
            space: Condvar::new(),
            queued_high: AtomicU64::new(0),
            inflight: (0..workers).map(|_| Mutex::new(None)).collect(),
            kill_flags: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            checkpoint_dir: config.checkpoint_dir,
            latencies: Mutex::new(LatencyBook::default()),
            telemetry,
            metrics,
        });
        let (tx, rx) = mpsc::channel();
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                std::thread::spawn(move || {
                    /// On unwind: first tries to *rescue* the worker's
                    /// in-flight migratable job — taking it from the
                    /// pool's in-flight registry and re-queuing it from
                    /// its latest checkpoint, so the surviving workers
                    /// finish it bit-identically. Only when there is
                    /// nothing to rescue (the job, if any, was not
                    /// checkpointable) does the pool die: it emits
                    /// [`Message::WorkerDied`] so clients blocked in
                    /// `recv` fail instead of waiting on a result that
                    /// will never come, and raises the dead-worker flag +
                    /// wakes the space condvar so a client blocked in the
                    /// backpressured `submit_blocking` fails fast too (it
                    /// waits on a condvar, not the channel).
                    struct DeathWatch {
                        tx: mpsc::Sender<Message>,
                        shared: Arc<Shared>,
                        me: usize,
                    }
                    impl Drop for DeathWatch {
                        fn drop(&mut self) {
                            if !std::thread::panicking() {
                                return;
                            }
                            self.shared.metrics.workers_died.inc();
                            let rescued = self.shared.inflight[self.me]
                                .lock()
                                .ok()
                                .and_then(|mut slot| slot.take());
                            match rescued {
                                Some(job) => self.shared.requeue(self.me, job),
                                None => {
                                    if let Ok(mut state) = self.shared.work.lock() {
                                        state.dead_workers += 1;
                                    }
                                    self.shared.space.notify_all();
                                    let _ = self.tx.send(Message::WorkerDied);
                                }
                            }
                        }
                    }
                    let _watch = DeathWatch {
                        tx: tx.clone(),
                        shared: Arc::clone(&shared),
                        me,
                    };
                    worker_loop(me, &shared, &tx);
                })
            })
            .collect();
        SimService {
            shared,
            workers: handles,
            results: rx,
            next_queue: 0,
            submitted: 0,
            received: 0,
            started: Instant::now(),
            client_track,
        }
    }

    /// The telemetry handle the pool records into (a clone of the one
    /// configured at start; [`Telemetry::disabled`] by default). Export
    /// traces or snapshots through it after — or during — a run.
    pub fn telemetry(&self) -> Telemetry {
        self.shared.telemetry.clone()
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// The configured queue capacity (`0` = unbounded).
    pub fn queue_capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Jobs submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Fault injection: marks `worker` (modulo the pool size) for
    /// failure. The worker observes the flag at the next checkpoint of a
    /// migratable job ([`JobSpec::checkpoint_every`]): it parks the job,
    /// re-queues it from that checkpoint — counted in
    /// [`ServiceStats::jobs_migrated`] — and exits, simulating a worker
    /// lost mid-shard. The surviving workers resume the job and its
    /// result is bit-identical to an undisturbed run. A worker that never
    /// takes a checkpoint (idle, or running only non-migratable jobs)
    /// keeps the flag armed until it does.
    ///
    /// Meant for recovery tests and the CI migration smoke; a pool needs
    /// at least two workers for the killed worker's backlog to drain.
    pub fn inject_worker_failure(&self, worker: usize) {
        let n = self.shared.kill_flags.len();
        self.shared.kill_flags[worker % n].store(true, Ordering::Relaxed);
    }

    /// Non-blocking submission: enqueues the job and returns its id, or
    /// says exactly why admission failed — the bounded backlog is at
    /// capacity ([`SubmitError::AtCapacity`]), the spec's tenant is at
    /// its quota ([`SubmitError::QuotaExceeded`]), or the pool is dead
    /// ([`SubmitError::PoolDead`]). The rejecting variants carry the spec
    /// back, so the caller decides: drop it, retry after draining some
    /// results, or fall back to [`SimService::submit_blocking`]. On an
    /// unbounded queue with no quotas this only ever fails on a dead
    /// pool. The result arrives through [`SimService::recv`] whenever a
    /// worker completes it.
    ///
    /// A core count outside 1..=8 is not rejected here — the job
    /// completes with a [`ulp_platform::ConfigError`] outcome, like any
    /// other configuration the platform/kernels cannot run. An affinity
    /// pin ([`JobSpec::pinned`]) is validated against the actual pool
    /// size: out-of-range indices are clamped (modulo the worker count)
    /// onto a real deque, never a nonexistent one.
    ///
    /// # Errors
    ///
    /// [`SubmitError::AtCapacity`] and [`SubmitError::QuotaExceeded`]
    /// with the spec inside; [`SubmitError::Invalid`], also with the spec
    /// inside, for a workload size outside the kernel layout's capacity
    /// (the kernels would panic the worker on it, so that class of
    /// invalid submission fails in the submitting thread, not the pool);
    /// [`SubmitError::PoolDead`] when a worker panicked.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, SubmitError> {
        self.submit_inner(spec, false)
    }

    /// Blocking submission: like [`SimService::submit`], but parks until
    /// admission succeeds instead of rejecting. At queue capacity it
    /// resumes once workers drain the backlog to the watermark (half the
    /// capacity — the hysteresis stops a saturated client from thrashing
    /// on every single claim); at a tenant quota it resumes as soon as
    /// one of the tenant's jobs completes.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] for a spec [`SimService::submit`] would
    /// reject as invalid, and [`SubmitError::PoolDead`] when a worker
    /// panicked — the only ways a blocking submission fails.
    pub fn submit_blocking(&mut self, spec: JobSpec) -> Result<JobId, SubmitError> {
        self.submit_inner(spec, true)
    }

    fn submit_inner(&mut self, spec: JobSpec, block: bool) -> Result<JobId, SubmitError> {
        let n = spec.workload.n;
        if !(4..=ulp_kernels::layout::MAX_N).contains(&n) {
            return Err(SubmitError::Invalid {
                reason: format!(
                    "workload n = {n} outside the supported range 4..={}",
                    ulp_kernels::layout::MAX_N
                ),
                spec,
            });
        }
        let quota = self.shared.policy(spec.tenant).quota as u64;
        let capacity = self.shared.capacity as u64;
        // Admission control: reserve a backlog slot (and the tenant's
        // quota slot) under the work lock. The slot is reserved *before*
        // the push lands in a deque; the workers' claim/scan retry loop
        // already tolerates that gap (it is the same race as a claim
        // overlapping another worker's scan).
        {
            let mut state = self.shared.work.lock().expect("work lock");
            if !block {
                if state.dead_workers > 0 {
                    return Err(SubmitError::PoolDead);
                }
                if quota != 0 && state.admitted(spec.tenant) >= quota {
                    drop(state);
                    self.shared.metrics.quota_rejections.inc();
                    self.client_track.record(
                        EventKind::QuotaRejected,
                        NO_JOB,
                        spec.tenant.0,
                        spec.priority.index() as u8,
                    );
                    return Err(SubmitError::QuotaExceeded {
                        tenant: spec.tenant,
                        quota: quota as usize,
                        spec,
                    });
                }
                if capacity != 0 && state.available >= capacity {
                    drop(state);
                    self.shared.metrics.rejections.inc();
                    self.client_track.record(
                        EventKind::CapacityRejected,
                        NO_JOB,
                        spec.tenant.0,
                        spec.priority.index() as u8,
                    );
                    return Err(SubmitError::AtCapacity {
                        spec,
                        capacity: self.shared.capacity,
                    });
                }
            } else {
                let watermark = capacity / 2;
                // Hysteresis: once the backlog hits capacity, stay parked
                // until it drains to the watermark.
                let mut draining = false;
                loop {
                    if state.dead_workers > 0 {
                        return Err(SubmitError::PoolDead);
                    }
                    if capacity != 0 && state.available >= capacity {
                        draining = true;
                    }
                    if draining && state.available <= watermark {
                        draining = false;
                    }
                    let over_quota = quota != 0 && state.admitted(spec.tenant) >= quota;
                    if !draining && !over_quota {
                        break;
                    }
                    state = self.shared.space.wait(state).expect("work lock");
                }
            }
            state.available += 1;
            state.admit(spec.tenant);
        }
        let id = self.submitted;
        self.submitted += 1;
        let queue = match spec.affinity {
            Some(worker) => worker % self.shared.queues.len(),
            None => {
                let q = self.next_queue;
                self.next_queue = (self.next_queue + 1) % self.shared.queues.len();
                q
            }
        };
        if spec.priority == Priority::High {
            self.shared.queued_high.fetch_add(1, Ordering::Relaxed);
        }
        let weight = self.shared.policy(spec.tenant).weight;
        self.shared.metrics.jobs_submitted.inc();
        if self.client_track.is_enabled() {
            let (job, tenant, priority) = event_tags(id, &spec);
            self.client_track
                .record(EventKind::Submitted, job, tenant, priority);
            self.client_track
                .record(EventKind::Queued, job, tenant, priority);
        }
        self.shared.queues[queue].lock().expect("queue lock").push(
            QueuedJob {
                id,
                spec,
                stolen: false,
                enqueued: Instant::now(),
                resume: None,
                migrations: 0,
            },
            weight,
        );
        self.shared.available.notify_one();
        Ok(id)
    }

    /// The next completed job, blocking until a worker finishes one.
    /// Returns `None` once every submitted job's result has been received.
    ///
    /// # Panics
    ///
    /// Panics if the pool died (a worker panicked) with results still
    /// outstanding. Clients that must survive worker death (e.g. a shard
    /// runner reporting a structured error) use
    /// [`SimService::checked_recv`] instead.
    pub fn recv(&mut self) -> Option<JobResult> {
        self.checked_recv()
            .expect("a service worker died with jobs outstanding")
    }

    /// Like [`SimService::recv`], but reports pool death as a
    /// [`PoolDied`] error instead of panicking: `Ok(None)` once every
    /// submitted job's result has been received, `Ok(Some(..))` for the
    /// next completed job, `Err(PoolDied)` if a worker panicked with
    /// results still outstanding.
    ///
    /// After `Err(PoolDied)` the pool is dead: no further results will
    /// arrive, and the remaining submitted-but-unreceived jobs are lost.
    ///
    /// # Errors
    ///
    /// [`PoolDied`] when a worker thread panicked before every
    /// outstanding result was delivered.
    pub fn checked_recv(&mut self) -> Result<Option<JobResult>, PoolDied> {
        if self.received == self.submitted {
            return Ok(None);
        }
        match self.results.recv() {
            Ok(Message::Result(result)) => {
                self.received += 1;
                Ok(Some(*result))
            }
            Ok(Message::WorkerDied) | Err(mpsc::RecvError) => Err(PoolDied {
                outstanding: self.submitted - self.received,
            }),
        }
    }

    /// Like [`SimService::recv`] but non-blocking: `None` when no result
    /// is ready right now (or all results were already received).
    pub fn try_recv(&mut self) -> Option<JobResult> {
        if self.received == self.submitted {
            return None;
        }
        match self.results.try_recv() {
            Ok(Message::Result(result)) => {
                self.received += 1;
                Some(*result)
            }
            Ok(Message::WorkerDied) | Err(mpsc::TryRecvError::Disconnected) => {
                panic!("a service worker died with jobs outstanding")
            }
            Err(mpsc::TryRecvError::Empty) => None,
        }
    }

    /// Live snapshot of the scheduling counters and latency
    /// distributions (pooled, per-priority, per-tenant).
    pub fn stats(&self) -> ServiceStats {
        // Snapshot the rings under the lock, sort outside it: workers push
        // one sample per completed job and must not stall behind an
        // O(n log n) percentile computation.
        let book = self.shared.latencies.lock().expect("latency lock").clone();
        let peaks: Vec<(TenantId, u64)> = {
            let state = self.shared.work.lock().expect("work lock");
            state
                .tenants
                .iter()
                .map(|(tenant, load)| (*tenant, load.peak))
                .collect()
        };
        let mut per_tenant: Vec<TenantStats> = book
            .per_tenant
            .iter()
            .map(|(tenant, ring)| TenantStats {
                tenant: *tenant,
                peak_admitted: 0,
                latency: ring.stats(),
            })
            .collect();
        for (tenant, peak) in peaks {
            match per_tenant.iter_mut().find(|t| t.tenant == tenant) {
                Some(entry) => entry.peak_admitted = peak,
                None => per_tenant.push(TenantStats {
                    tenant,
                    peak_admitted: peak,
                    latency: LatencyStats::default(),
                }),
            }
        }
        per_tenant.sort_by_key(|t| t.tenant);
        let m = &self.shared.metrics;
        ServiceStats {
            workers: self.shared.queues.len(),
            jobs_run: m.jobs_run.get(),
            steals: m.steals.get(),
            jobs_stolen: m.jobs_stolen.get(),
            steal_batch_max: m.steal_batch_max.get(),
            rejections: m.rejections.get(),
            quota_rejections: m.quota_rejections.get(),
            evictions: m.evictions.get(),
            deadline_misses: m.deadline_misses.get(),
            platform_cache_hits: m.platform_cache_hits.get(),
            platforms_built: m.platforms_built.get(),
            checkpoints_taken: m.checkpoints_taken.get(),
            jobs_migrated: m.jobs_migrated.get(),
            workers_died: m.workers_died.get(),
            latency: book.aggregate.stats(),
            per_priority: std::array::from_fn(|i| book.per_priority[i].stats()),
            per_tenant,
            wall: self.started.elapsed(),
        }
    }

    /// Shuts the pool down and returns the final statistics. Workers first
    /// drain every job still queued (results of jobs not [received]
    /// beforehand are discarded), then exit and are joined.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked *unrecoverably* — a panicking
    /// worker whose in-flight migratable job was rescued and finished by
    /// the survivors (see [`JobSpec::checkpoint_every`]) counts in
    /// [`ServiceStats::workers_died`] but does not fail the shutdown.
    ///
    /// [received]: SimService::recv
    pub fn finish(mut self) -> ServiceStats {
        self.close(false);
        let mut panicked = false;
        for handle in self.workers.drain(..) {
            panicked |= handle.join().is_err();
        }
        if panicked && self.shared.work.lock().expect("work lock").dead_workers > 0 {
            panic!("service worker panicked");
        }
        self.stats()
    }

    /// Marks the pool closed and wakes every parked worker. With `cancel`,
    /// the queued backlog is discarded (and in-flight claims abandoned)
    /// instead of drained.
    fn close(&self, cancel: bool) {
        let mut state = self.shared.work.lock().expect("work lock");
        state.closed = true;
        if cancel {
            state.cancelled = true;
            state.available = 0;
        }
        drop(state);
        if cancel {
            for queue in &self.shared.queues {
                queue.lock().expect("queue lock").clear();
            }
        }
        self.shared.available.notify_all();
    }
}

impl Drop for SimService {
    /// A service dropped without [`SimService::finish`] (including during
    /// a panic) *cancels* the pool: queued jobs are discarded, each worker
    /// finishes at most its current job, and all workers are joined — so
    /// no thread outlives its handle and an unwinding client is not
    /// stalled behind the remaining backlog. Worker panics are swallowed
    /// here — `finish` is the path that surfaces them.
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.close(true);
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Completion-side admission bookkeeping: releases the tenant's quota
/// slot and wakes quota waiters. Runs for executed *and* evicted jobs —
/// both leave the service.
fn release_admission(shared: &Shared, tenant: TenantId) {
    {
        let mut state = shared.work.lock().expect("work lock");
        state.release(tenant);
    }
    if shared.has_quotas {
        shared.space.notify_all();
    }
}

fn worker_loop(me: usize, shared: &Shared, results: &mpsc::Sender<Message>) {
    // One platform per (design, core-count), reused across jobs: the
    // dominant allocations (memories, cycle buffers) happen at most once
    // per key per worker.
    let mut cache: HashMap<(bool, usize), Platform> = HashMap::new();
    // Checkpoint buffers the worker snapshots into (see `recycle`).
    let mut spares: Vec<Checkpoint> = Vec::new();
    // The worker's recording handle, resolved once: each event is then a
    // clock read and a lock-free ring push (or one branch when disabled).
    let track = shared.telemetry.track(worker_track(me));
    loop {
        // Claim one unit of work (or learn the pool is closed and drained).
        {
            let mut state = shared.work.lock().expect("work lock");
            loop {
                if state.available > 0 {
                    state.available -= 1;
                    break;
                }
                if state.closed {
                    return;
                }
                state = shared.available.wait(state).expect("work lock");
            }
        }
        // With a bounded queue, a claim is exactly what frees backlog
        // space — wake a submitter blocked at capacity to re-check the
        // watermark.
        if shared.capacity != 0 {
            shared.space.notify_all();
        }
        // The claim guarantees a job exists in *some* deque; find it.
        // Priority is pool-wide: when the relaxed counter says a High job
        // is queued anywhere, serve the High class first — own deque,
        // then a High-only steal sweep — before touching lower classes on
        // the own deque. (The microsecond window where a submitter has
        // incremented the counter but not yet pushed simply falls through
        // to the general path.) The general path takes the own deque's
        // most urgent class (via the tenant round-robin), then steals half
        // of every tenant lane of another worker's highest class: the
        // thief runs the most urgent job of the batch now and relocates
        // the rest onto its own deque — still claimable by everyone — so
        // one lock acquisition pays for several future claims instead of
        // one. The retry loop covers the narrow race where another
        // claimant grabs the job this worker would have found mid-scan.
        let job = loop {
            if shared.queued_high.load(Ordering::Relaxed) > 0 {
                if let Some(job) = shared.queues[me].lock().expect("queue lock").pop_high() {
                    break job;
                }
                if let Some(job) = steal_scan(me, shared, true, &track) {
                    break job;
                }
            }
            if let Some(job) = shared.queues[me].lock().expect("queue lock").pop_own() {
                break job;
            }
            if let Some(job) = steal_scan(me, shared, false, &track) {
                break job;
            }
            // A fully failed scan normally means another claimant grabbed
            // the job this worker would have found — retry. But under
            // cancellation the deques were cleared, so the claim can never
            // be satisfied: abandon it and exit.
            if shared.work.lock().expect("work lock").cancelled {
                return;
            }
            std::thread::yield_now();
        };
        if job.spec.priority == Priority::High {
            // Exactly one decrement per High job, at the moment it is
            // claimed for execution (relocations keep it queued).
            shared.queued_high.fetch_sub(1, Ordering::Relaxed);
        }
        // Close the cancellation window: a job popped between `cancelled`
        // being set and the queues being cleared must not start — Drop
        // promises workers finish at most the job they were already
        // running.
        if shared.work.lock().expect("work lock").cancelled {
            return;
        }
        let queue_wait = job.enqueued.elapsed();
        let tags = event_tags(job.id, &job.spec);
        track.record(EventKind::Claimed, tags.0, tags.1, tags.2);
        shared
            .metrics
            .queue_wait_us
            .observe(queue_wait.as_micros() as u64);
        // Deadline-infeasible eviction: a budget strictly below the
        // provable cycle floor can never be met, so running the job would
        // only burn a worker on a certain miss and push every queued
        // job's wait out further. Return it as a typed eviction instead.
        if let Some(budget) = job.spec.deadline_cycles {
            let min_cycles = job.spec.min_run_cycles();
            if budget < min_cycles {
                shared.metrics.evictions.inc();
                track.record(EventKind::Evicted, tags.0, tags.1, tags.2);
                release_admission(shared, job.spec.tenant);
                let _ = results.send(Message::Result(Box::new(JobResult {
                    id: job.id,
                    tenant: job.spec.tenant,
                    worker: me,
                    migrations: job.migrations,
                    stolen: job.stolen,
                    cache_hit: false,
                    queue_wait,
                    run_time: Duration::ZERO,
                    deadline_missed: false,
                    outcome: Err(JobError::Evicted {
                        deadline_cycles: budget,
                        min_cycles,
                    }),
                })));
                continue;
            }
        }
        // A job with a checkpoint cadence is migratable: every snapshot
        // keeps the pool's in-flight registry current, so the job
        // survives this worker. Plain jobs stay unregistered, so a
        // panicking plain job is not requeued.
        let run_start = Instant::now();
        if job.spec.checkpoint_every.is_some() {
            *shared.inflight[me].lock().expect("inflight lock") = Some(job.clone());
        }
        let (cache_hit, run) = run_job(me, &job, &mut cache, &mut spares, shared, &track, tags);
        let registered = shared.inflight[me].lock().expect("inflight lock").take();
        let outcome = match run {
            Ok(Some(output)) => Ok(output),
            Err(err) => Err(err),
            Ok(None) => {
                // Parked at a checkpoint: re-queue the registry copy (it
                // carries the latest checkpoint) instead of completing.
                // No result is sent and the admission slot stays held —
                // the job is still in the service.
                let parked = registered.expect("parked job is registered in-flight");
                track.record(EventKind::Migrated, tags.0, tags.1, tags.2);
                shared.requeue(me, parked);
                if shared.kill_flags[me].swap(false, Ordering::Relaxed) {
                    // Injected failure: this worker is "lost". The
                    // survivors resume the job from its checkpoint.
                    shared.metrics.workers_died.inc();
                    return;
                }
                continue;
            }
        };
        recycle(&mut spares, registered.and_then(|job| job.resume));
        let run_time = run_start.elapsed();
        track.record(EventKind::RunEnd, tags.0, tags.1, tags.2);
        shared.metrics.run_us.observe(run_time.as_micros() as u64);
        let deadline_missed = match (&outcome, job.spec.deadline_cycles) {
            (Ok(out), Some(budget)) => out.run.stats.cycles > budget,
            _ => false,
        };
        if deadline_missed {
            shared.metrics.deadline_misses.inc();
        }
        shared.latencies.lock().expect("latency lock").record(
            job.spec.tenant,
            job.spec.priority,
            (queue_wait + run_time).as_nanos() as u64,
        );
        shared.metrics.jobs_run.inc();
        release_admission(shared, job.spec.tenant);
        // A closed receiver (client finished without draining) is fine —
        // the result is simply discarded.
        let _ = results.send(Message::Result(Box::new(JobResult {
            id: job.id,
            tenant: job.spec.tenant,
            worker: me,
            migrations: job.migrations,
            stolen: job.stolen,
            cache_hit,
            queue_wait,
            run_time,
            deadline_missed,
            outcome: outcome.map_err(JobError::from),
        })));
    }
}

/// One full steal sweep over the other workers' deques: takes half of
/// every tenant lane of the first victim's highest matching class (the
/// [`Priority::High`] class only, with `high_only`), relocates the
/// surplus onto `me`'s own deque — still claimable by everyone — and
/// returns the most urgent stolen job (earliest deadline, then oldest)
/// to run now. `None` when no victim had matching work. Every relocated
/// job is recorded as a [`EventKind::Stolen`] event on the thief's
/// `track`.
fn steal_scan(me: usize, shared: &Shared, high_only: bool, track: &Track) -> Option<QueuedJob> {
    let n = shared.queues.len();
    for offset in 1..n {
        let victim = (me + offset) % n;
        let mut batch = {
            let mut queue = shared.queues[victim].lock().expect("queue lock");
            if high_only {
                queue.steal_half_high()
            } else {
                queue.steal_half()
            }
        };
        if batch.is_empty() {
            continue;
        }
        shared.metrics.steals.inc();
        shared.metrics.jobs_stolen.add(batch.len() as u64);
        shared.metrics.steal_batch_max.raise_to(batch.len() as u64);
        for job in &mut batch {
            job.stolen = true;
            if track.is_enabled() {
                let (id, tenant, priority) = event_tags(job.id, &job.spec);
                track.record(EventKind::Stolen, id, tenant, priority);
            }
        }
        let run_now = batch
            .iter()
            .enumerate()
            .min_by_key(|(_, job)| (job.deadline_key(), job.enqueued))
            .map(|(i, _)| i)
            .expect("non-empty batch");
        let first = batch.remove(run_now);
        if !batch.is_empty() {
            let mut own = shared.queues[me].lock().expect("queue lock");
            for job in batch {
                let weight = shared.policy(job.spec.tenant).weight;
                own.push(job, weight);
            }
        }
        return Some(first);
    }
    None
}

/// The worker's platform for `spec`, cache-hit or freshly built, with the
/// spec's cycle budget adopted either way.
fn cached_platform<'c>(
    spec: &JobSpec,
    cache: &'c mut HashMap<(bool, usize), Platform>,
    shared: &Shared,
    track: &Track,
    tags: (u64, u32, u8),
) -> Result<(bool, &'c mut Platform), RunnerError> {
    use std::collections::hash_map::Entry;
    match cache.entry((spec.with_sync, spec.cores)) {
        Entry::Occupied(e) => {
            shared.metrics.platform_cache_hits.inc();
            track.record(EventKind::PlatformCacheHit, tags.0, tags.1, tags.2);
            let platform = e.into_mut();
            // Reused platforms keep their allocations but must adopt this
            // job's cycle budget, which differs across jobs.
            platform.set_max_cycles(spec.workload.max_cycles);
            Ok((true, platform))
        }
        Entry::Vacant(e) => {
            let cfg = PlatformConfig::paper(spec.with_sync)
                .with_cores(spec.cores)
                .with_max_cycles(spec.workload.max_cycles);
            let platform = Platform::new(cfg)?;
            shared.metrics.platforms_built.inc();
            track.record(EventKind::PlatformBuilt, tags.0, tags.1, tags.2);
            Ok((false, e.insert(platform)))
        }
    }
}

/// Keeps a checkpoint the in-flight registry let go of as a buffer for
/// the worker's next snapshot, when no one else holds it (a migrated
/// job's resume point may still be shared). Two suffice: one being
/// filled while the registry holds the other. Reusing them keeps the
/// ~160 KB memory images from being freed and allocated again around
/// every snapshot.
fn recycle(spares: &mut Vec<Checkpoint>, ckpt: Option<Arc<Checkpoint>>) {
    if let Some(ckpt) = ckpt.and_then(Arc::into_inner) {
        if spares.len() < 2 {
            spares.push(ckpt);
        }
    }
}

/// Runs one job on the worker's cached platform — the only job run path.
/// The selected observer is [attached](Platform::attach), so every
/// checkpoint captures its state, and detached again on every exit, so
/// the cached platform never leaks it into the worker's next job. A
/// resumed job ([`QueuedJob::resume`]) restores the platform from its
/// checkpoint instead of starting over.
///
/// A job with a [`JobSpec::checkpoint_every`] cadence snapshots the
/// platform every that many cycles, into a buffer from `spares`, keeps
/// the pool's in-flight registry pointed at the latest checkpoint, and
/// parks (`Ok(None)`) when the worker is marked for failure or urgent
/// work is queued pool-wide. A job without one never checkpoints.
/// Results are bit-identical either way.
fn run_job(
    me: usize,
    job: &QueuedJob,
    cache: &mut HashMap<(bool, usize), Platform>,
    spares: &mut Vec<Checkpoint>,
    shared: &Shared,
    track: &Track,
    tags: (u64, u32, u8),
) -> (bool, Result<Option<JobOutput>, RunnerError>) {
    let spec = &job.spec;
    // The kernels assume one private DM bank per core (≤ 8); larger
    // baseline platforms would build fine but panic the worker inside the
    // kernel runner, so reject the job with an error outcome instead.
    if spec.cores == 0 || spec.cores > 8 {
        track.record(EventKind::RunStart, tags.0, tags.1, tags.2);
        return (
            false,
            Err(ulp_platform::ConfigError::BadCoreCount(spec.cores).into()),
        );
    }
    let (cache_hit, platform) = match cached_platform(spec, cache, shared, track, tags) {
        Ok(pair) => pair,
        Err(err) => {
            track.record(EventKind::RunStart, tags.0, tags.1, tags.2);
            return (false, Err(err));
        }
    };
    let observer: Option<Box<dyn Observer>> = match &spec.observers {
        ObserverSelection::None => None,
        ObserverSelection::PcTrace { limit } => Some(Box::new(PcTrace::new(*limit))),
        ObserverSelection::Vcd => Some(Box::new(VcdTracer::new(platform))),
        ObserverSelection::BankHeatMap { window } => {
            Some(Box::new(BankHeatMap::for_dm(platform.config(), *window)))
        }
    };
    let handle = observer.map(|observer| platform.attach(observer));
    if job.resume.is_some() {
        track.record(EventKind::Restored, tags.0, tags.1, tags.2);
    }
    track.record(EventKind::RunStart, tags.0, tags.1, tags.2);
    let mut blob = Vec::new();
    let on_checkpoint = |platform: &Platform| {
        let mut ckpt = spares.pop().unwrap_or_default();
        platform.snapshot_into(&mut ckpt);
        shared.metrics.checkpoints_taken.inc();
        shared.metrics.checkpoint_cycles.observe(ckpt.cycle);
        track.record(EventKind::Snapshot, tags.0, tags.1, tags.2);
        // Best-effort persistence: the blob backs external inspection
        // and restart tooling; migration itself rides the in-memory
        // checkpoint, so a full disk must not fail the job.
        if let Some(dir) = &shared.checkpoint_dir {
            ckpt.to_bytes_into(&mut blob);
            let _ = std::fs::write(dir.join(format!("job-{}.ckpt", tags.0)), &blob);
        }
        let ckpt = Arc::new(ckpt);
        let replaced = match shared.inflight[me].lock() {
            Ok(mut slot) => slot
                .as_mut()
                .and_then(|inflight| inflight.resume.replace(ckpt)),
            Err(_) => None,
        };
        recycle(spares, replaced);
        let killed = shared.kill_flags[me].load(Ordering::Relaxed);
        // Cooperative yield: a non-urgent job parks (a bounded number of
        // times) when urgent work is queued anywhere in the pool, so a
        // High job never waits out a long migratable run.
        let yield_to_high = spec.priority != Priority::High
            && job.migrations < MAX_MIGRATIONS
            && shared.queued_high.load(Ordering::Relaxed) > 0;
        if killed || yield_to_high {
            CheckpointControl::Park
        } else {
            CheckpointControl::Continue
        }
    };
    let run = run_benchmark_reusing(
        spec.benchmark,
        platform,
        &spec.workload,
        job.resume.as_deref(),
        spec.checkpoint_every.unwrap_or(u64::MAX).max(1),
        on_checkpoint,
    );
    let observer = handle.and_then(|handle| platform.detach(handle));
    let outcome = run.map(|done| {
        done.map(|run| JobOutput {
            cores: spec.cores,
            run,
            artifacts: observer.map_or(JobArtifacts::None, into_artifacts),
        })
    });
    (cache_hit, outcome)
}

/// The artifact a detached job observer recorded, taken by value.
fn into_artifacts(observer: Box<dyn Observer>) -> JobArtifacts {
    let observer: Box<dyn std::any::Any> = observer;
    let observer = match observer.downcast::<PcTrace>() {
        Ok(trace) => return JobArtifacts::PcTrace(trace.into_rows()),
        Err(other) => other,
    };
    let observer = match observer.downcast::<VcdTracer>() {
        Ok(vcd) => return JobArtifacts::Vcd(vcd.finish()),
        Err(other) => other,
    };
    match observer.downcast::<BankHeatMap>() {
        Ok(map) => JobArtifacts::BankHeatMap(map.into_rows()),
        Err(_) => unreachable!("job observers are PC traces, VCD tracers or heat maps"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_empty_window_is_all_zero() {
        let stats = LatencyStats::compute(0, 0, &[]);
        assert_eq!(stats, LatencyStats::default());
        assert_eq!(stats.samples, 0);
        assert_eq!(stats.p50, Duration::ZERO);
        assert_eq!(stats.p95, Duration::ZERO);
        assert_eq!(stats.max, Duration::ZERO);
    }

    #[test]
    fn latency_stats_single_sample_is_every_percentile() {
        let stats = LatencyStats::compute(1, 700, &[700]);
        assert_eq!(stats.samples, 1);
        assert_eq!(stats.p50, Duration::from_nanos(700));
        assert_eq!(stats.p95, Duration::from_nanos(700));
        assert_eq!(stats.max, Duration::from_nanos(700));
    }

    #[test]
    fn latency_stats_two_samples_split_lower_upper() {
        // Nearest-rank over N = 2: p50 is the 1st smallest (the lower
        // sample), p95 the 2nd (the upper). Order of the window must not
        // matter.
        for window in [[100u64, 900], [900, 100]] {
            let stats = LatencyStats::compute(2, 900, &window);
            assert_eq!(stats.p50, Duration::from_nanos(100));
            assert_eq!(stats.p95, Duration::from_nanos(900));
            assert_eq!(stats.max, Duration::from_nanos(900));
        }
    }

    #[test]
    fn latency_stats_lifetime_fields_exceed_window() {
        // A ring that has wrapped reports lifetime samples/max alongside
        // windowed percentiles.
        let stats = LatencyStats::compute(10_000, 5_000, &[10, 20, 30]);
        assert_eq!(stats.samples, 10_000);
        assert_eq!(stats.max, Duration::from_nanos(5_000));
        assert_eq!(stats.p50, Duration::from_nanos(20));
    }

    #[test]
    fn service_stats_to_json_shape() {
        let mut stats = ServiceStats {
            workers: 2,
            jobs_run: 5,
            ..ServiceStats::default()
        };
        stats.per_tenant.push(TenantStats {
            tenant: TenantId(7),
            peak_admitted: 3,
            latency: LatencyStats::compute(1, 50, &[50]),
        });
        let json = stats.to_json();
        assert!(json.starts_with("{\"schema\":3,\"workers\":2,\"jobs_run\":5,"));
        assert!(json.contains("\"checkpoints_taken\":0,\"jobs_migrated\":0,\"workers_died\":0,"));
        assert!(json.contains("\"per_priority\":{\"high\":{"));
        assert!(json.contains("\"per_tenant\":[{\"tenant\":7,\"peak_admitted\":3,"));
        assert!(json.contains("\"p50_ns\":50"));
        assert!(json.ends_with('}'));
        // Balanced braces/brackets — the cheap structural validity check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces in {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// Only checkpoints no one else holds become spares, and at most two.
    #[test]
    fn recycle_keeps_two_unshared_checkpoints() {
        let mut spares = Vec::new();
        let shared = Arc::new(Checkpoint::default());
        let _other_holder = shared.clone();
        recycle(&mut spares, Some(shared));
        recycle(&mut spares, None);
        assert!(spares.is_empty(), "a shared checkpoint is not reused");
        for _ in 0..3 {
            recycle(&mut spares, Some(Arc::new(Checkpoint::default())));
        }
        assert_eq!(spares.len(), 2);
    }

    /// The one run path, called directly on one worker cache: for every
    /// observer selection a checkpointed run equals a plain one (stats,
    /// outputs and artifacts), a parked run resumed from its registry
    /// checkpoint equals it too, and no observer stays attached to the
    /// cached platform after success, park or error.
    #[test]
    fn run_job_is_cadence_blind_and_always_detaches() {
        use ulp_kernels::{Benchmark, WorkloadConfig};
        use ulp_platform::PlatformError;

        let service = SimService::start(ServiceConfig::builder().workers(1).build());
        let shared = &*service.shared;
        let track = shared.telemetry.track(worker_track(0));
        let mut cache = HashMap::new();
        let mut spares = Vec::new();
        let workload = Arc::new(WorkloadConfig::quick_test());
        let mut short = WorkloadConfig::quick_test();
        short.max_cycles = 100;
        let short = Arc::new(short);
        let queued = |spec: JobSpec| QueuedJob {
            id: 0,
            spec,
            stolen: false,
            enqueued: Instant::now(),
            resume: None,
            migrations: 0,
        };
        for observers in [
            ObserverSelection::None,
            ObserverSelection::PcTrace { limit: 64 },
            ObserverSelection::Vcd,
            ObserverSelection::BankHeatMap { window: 512 },
        ] {
            let kind = observers.artifact_kind();
            let spec = JobSpec::new(Benchmark::Mrpfltr, 2, workload.clone()).observers(observers);
            // The job's outcome, and how many observers it left attached.
            let mut run = |job: &QueuedJob| {
                let outcome = run_job(0, job, &mut cache, &mut spares, shared, &track, (0, 0, 0)).1;
                (outcome, cache[&(true, 2)].attached_observers())
            };

            let (plain, left) = run(&queued(spec.clone()));
            let plain = plain
                .expect("plain job runs")
                .expect("a plain job never parks");
            assert_eq!(plain.artifacts.kind(), kind);
            assert_eq!(left, 0, "{kind}: leaked after success");
            let (sliced, left) = run(&queued(spec.clone().checkpoint_every(500)));
            let sliced = sliced
                .expect("checkpointed job runs")
                .expect("an unmarked worker never parks");
            assert!(plain == sliced, "{kind}: checkpointed run differs");
            assert_eq!(left, 0, "{kind}: leaked after success");

            // Marked for failure, the worker parks at the first
            // checkpoint; the registry copy then carries the resume point.
            let migratable = queued(spec.clone().checkpoint_every(500));
            *shared.inflight[0].lock().unwrap() = Some(migratable.clone());
            shared.kill_flags[0].store(true, Ordering::Relaxed);
            let (parked, left) = run(&migratable);
            shared.kill_flags[0].store(false, Ordering::Relaxed);
            assert!(matches!(parked, Ok(None)), "{kind}: parks");
            assert_eq!(left, 0, "{kind}: leaked after a park");
            let registered = shared.inflight[0].lock().unwrap().take().unwrap();
            assert!(registered.resume.is_some(), "{kind}: checkpoint kept");
            let (resumed, _) = run(&registered);
            let resumed = resumed
                .expect("resumed job runs")
                .expect("resumed job completes");
            assert!(plain == resumed, "{kind}: resumed run differs");

            // A cycle budget far below the run's length times out.
            let (failed, left) = run(&queued(
                JobSpec::new(Benchmark::Mrpfltr, 2, short.clone()).observers(spec.observers),
            ));
            assert!(
                matches!(
                    failed,
                    Err(RunnerError::Platform(PlatformError::Timeout { .. }))
                ),
                "{kind}: {failed:?}"
            );
            assert_eq!(left, 0, "{kind}: leaked after an error");
        }
    }
}
