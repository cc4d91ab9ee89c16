//! The typed job-lifecycle event model.
//!
//! Every phase transition of a service job is one fixed-size [`JobEvent`]:
//! a nanosecond timestamp on the sink's shared epoch, the lifecycle
//! [`EventKind`], the job id, and the track it was recorded on. Events
//! are plain `Copy` data (no strings), so recording one is a clock read
//! and a 24-byte push onto the sink's event store.

/// The track a client-side event is recorded on (submission, merge and
/// stream events happen on the thread that owns the service handle, not
/// on any worker). Worker `i` records on track `i + 1`.
pub const CLIENT_TRACK: u32 = 0;

/// The track index worker `i` records on: `i + 1` (track
/// [`CLIENT_TRACK`] belongs to the submitting client).
pub fn worker_track(worker: usize) -> u32 {
    worker as u32 + 1
}

/// The job id carried by events that fire before a job id exists — a
/// capacity rejection happens at admission, so there is no assigned id
/// to tag.
pub const NO_JOB: u64 = u64::MAX;

/// One lifecycle phase transition or scheduling incident.
///
/// The happy path of a job is the ordered chain `Submitted` → `Queued` →
/// `Claimed` → (`PlatformBuilt` | `PlatformCacheHit`) → `RunStart` →
/// `RunEnd`, optionally followed by client-side `Merged` (the job's cell
/// or recording merged) and `Streamed` (the merged result reported to a
/// consumer). `Stolen` and `CapacityRejected` are incidents: they mark
/// scheduling decisions, not phases every job passes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// The client called submit and admission succeeded.
    Submitted,
    /// The job landed on a worker deque (immediately after `Submitted`;
    /// the queued *span* ends at `Claimed`).
    Queued,
    /// A worker took the job off a deque for execution.
    Claimed,
    /// The executing worker constructed a new platform for the job.
    PlatformBuilt,
    /// The executing worker served the job from its platform cache.
    PlatformCacheHit,
    /// The simulation started.
    RunStart,
    /// The simulation finished (successfully or with a run error).
    RunEnd,
    /// The client merged this job's output into a larger result (a shard
    /// into its recording, a cell into its sweep).
    Merged,
    /// The client reported the job's (merged) result to a consumer — the
    /// streaming callback fired, or the final gather returned it.
    Streamed,
    /// The job was relocated by a work steal (it stays queued; recorded
    /// on the thief's track).
    Stolen,
    /// Admission rejected a submission because the bounded queue was at
    /// capacity. Carries [`NO_JOB`]: no job id was ever assigned.
    CapacityRejected,
    /// The executing worker took a mid-run checkpoint of the job's
    /// platform (the job keeps running unless a `Migrated` event
    /// follows).
    Snapshot,
    /// A worker restored the job's platform from a checkpoint and
    /// resumed the run where an earlier worker parked it.
    Restored,
    /// The job was parked at a checkpoint and re-queued to recover it
    /// from a killed worker. The next
    /// `Claimed`/`Restored` pair may land on a different worker.
    Migrated,
}

impl EventKind {
    /// Stable lowercase name, used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Submitted => "submitted",
            EventKind::Queued => "queued",
            EventKind::Claimed => "claimed",
            EventKind::PlatformBuilt => "platform-build",
            EventKind::PlatformCacheHit => "platform-cache-hit",
            EventKind::RunStart => "run-start",
            EventKind::RunEnd => "run-end",
            EventKind::Merged => "merged",
            EventKind::Streamed => "streamed",
            EventKind::Stolen => "stolen",
            EventKind::CapacityRejected => "capacity-rejected",
            EventKind::Snapshot => "snapshot",
            EventKind::Restored => "restored",
            EventKind::Migrated => "migrated",
        }
    }
}

/// One recorded lifecycle event. `Copy` and pointer-free by design: the
/// sink's event store holds these by value, 24 bytes each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobEvent {
    /// Nanoseconds since the sink's epoch (the moment telemetry was
    /// enabled), so events from every track share one clock.
    pub at_ns: u64,
    /// Which lifecycle transition this is.
    pub kind: EventKind,
    /// The job the event belongs to ([`NO_JOB`] for admission
    /// rejections, which fire before an id is assigned).
    pub job: u64,
    /// The track the event was recorded on: [`CLIENT_TRACK`] for
    /// client-side events, [`worker_track`]`(i)` for worker `i`.
    pub track: u32,
}
