//! End-to-end telemetry for the simulation service stack.
//!
//! This crate gives the service, shard and sweep layers a shared
//! observability spine with three pieces (all three layers record
//! events; the service is the only one that publishes metrics):
//!
//! - **Job-lifecycle tracing** ([`event`]): every phase of a job
//!   (submitted → queued → claimed → platform build or cache hit → run →
//!   merged/streamed, plus steals, migrations and admission rejections)
//!   is a typed, `Copy` [`JobEvent`] pushed onto the sink's one event
//!   store, a mutex-guarded vector bounded at the sink's capacity. At
//!   about seven events per job and jobs that run for milliseconds, the
//!   lock is uncontended; past the bound an event is dropped and counted
//!   instead of stored.
//! - **A metrics registry** ([`metrics`]): named counters and bounded
//!   log2-bucket histograms behind cheap atomic handles. The service
//!   keeps its counters nowhere else: its stats are a read of these
//!   handles, which count whether or not telemetry is enabled. With
//!   telemetry disabled there is no sink registry, so the service
//!   registers them in a private one that nothing exports.
//! - **Exporters** ([`trace`], [`Telemetry::snapshot_json`]): Chrome
//!   trace-event JSON loadable in Perfetto (one named track per worker
//!   plus a client track), and a compact one-line JSON snapshot suitable
//!   for interleaving into streaming output. Both, and every other JSON
//!   document of the workspace, are written by [`json`].
//!
//! The entry point is [`Telemetry`]: a cheap cloneable handle that is
//! either *disabled* (every event record is a branch on a `None` and
//! nothing else, and [`Telemetry::registry`] is `None`) or *enabled*
//! around a shared [`Sink`].
//!
//! ```
//! use ulp_telemetry::{EventKind, Telemetry, CLIENT_TRACK};
//!
//! let telemetry = Telemetry::enabled();
//! let track = telemetry.track(CLIENT_TRACK);
//! track.record(EventKind::Submitted, 1);
//! track.record(EventKind::Queued, 1);
//! let registry = telemetry.registry().expect("enabled");
//! registry.counter("jobs_submitted").inc();
//! assert_eq!(telemetry.events().len(), 2);
//! assert!(telemetry.snapshot_json().contains("\"jobs_submitted\":1"));
//! let json = telemetry.chrome_trace();
//! assert!(json.contains("\"submitted\""));
//! ```

pub mod event;
pub mod json;
pub mod metrics;
pub mod trace;

pub use event::{worker_track, EventKind, JobEvent, CLIENT_TRACK, NO_JOB};
pub use metrics::{Counter, Histogram, Registry};
pub use trace::{chrome_trace, track_name};

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The shared state behind an enabled [`Telemetry`] handle: the common
/// clock epoch, the event store with its bound and drop count, and the
/// metrics registry.
pub struct Sink {
    epoch: Instant,
    capacity: usize,
    events: Mutex<Vec<JobEvent>>,
    dropped: AtomicU64,
    /// Highest track index ever opened + 1.
    track_count: AtomicU32,
    registry: Registry,
}

impl Sink {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn events(&self) -> std::sync::MutexGuard<'_, Vec<JobEvent>> {
        self.events.lock().expect("telemetry events poisoned")
    }
}

/// A recording handle bound to one track. Obtained once (e.g. at the top
/// of a worker loop) so the per-event cost is a clock read and a push
/// under the store's lock.
#[derive(Clone)]
pub struct Track {
    sink: Option<Arc<Sink>>,
    track: u32,
}

impl Track {
    /// Whether records through this handle are stored.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records one lifecycle event stamped now. A no-op (single branch)
    /// when telemetry is disabled; drop-and-count when the store is full.
    #[inline]
    pub fn record(&self, kind: EventKind, job: u64) {
        if let Some(sink) = &self.sink {
            let event = JobEvent {
                at_ns: sink.now_ns(),
                kind,
                job,
                track: self.track,
            };
            let mut events = sink.events();
            if events.len() < sink.capacity {
                events.push(event);
            } else {
                sink.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The telemetry handle threaded through service, shard and sweep
/// configuration. Cloning shares the sink; [`Telemetry::disabled`]
/// handles make every recording call a no-op.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<Sink>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl std::fmt::Debug for Track {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Track")
            .field("enabled", &self.is_enabled())
            .field("track", &self.track)
            .finish()
    }
}

impl Telemetry {
    /// A handle that records nothing; all hooks reduce to one branch.
    pub fn disabled() -> Telemetry {
        Telemetry { sink: None }
    }

    /// An enabled handle whose store holds 2^20 events (24 MiB once
    /// full; it grows as events arrive).
    pub fn enabled() -> Telemetry {
        Telemetry::with_capacity(1 << 20)
    }

    /// An enabled handle whose store holds `capacity` events across all
    /// tracks; later events are dropped and counted.
    pub fn with_capacity(capacity: usize) -> Telemetry {
        Telemetry {
            sink: Some(Arc::new(Sink {
                epoch: Instant::now(),
                capacity,
                events: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
                track_count: AtomicU32::new(0),
                registry: Registry::new(),
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Nanoseconds since the sink's epoch (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.sink.as_ref().map_or(0, |s| s.now_ns())
    }

    /// The recording handle for `track`. Workers call this once with
    /// [`worker_track`]`(index)`; the client side uses [`CLIENT_TRACK`].
    pub fn track(&self, track: u32) -> Track {
        if let Some(sink) = &self.sink {
            sink.track_count.fetch_max(track + 1, Ordering::Relaxed);
        }
        Track {
            sink: self.sink.clone(),
            track,
        }
    }

    /// Number of tracks opened so far.
    pub fn track_count(&self) -> u32 {
        self.sink
            .as_ref()
            .map_or(0, |s| s.track_count.load(Ordering::Relaxed))
    }

    /// Does nothing and returns 0: events reach the store as they are
    /// recorded. It remains only for `perfbench`, which still calls it
    /// and changes only together with the benchmark; it goes with that
    /// call.
    #[deprecated(note = "events are stored when recorded; there is nothing to collect")]
    pub fn collect(&self) -> usize {
        0
    }

    /// Every stored event, in store order (each track's events in the
    /// order they were recorded). Empty when disabled.
    pub fn events(&self) -> Vec<JobEvent> {
        self.sink
            .as_ref()
            .map_or_else(Vec::new, |s| s.events().clone())
    }

    /// Events discarded because the store was full.
    pub fn dropped(&self) -> u64 {
        self.sink
            .as_ref()
            .map_or(0, |s| s.dropped.load(Ordering::Relaxed))
    }

    /// The sink's metrics registry: register metrics here to have them
    /// exported by [`Telemetry::snapshot_json`]. `None` when disabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.sink.as_ref().map(|s| &s.registry)
    }

    /// Renders every stored event as a Chrome trace-event JSON document;
    /// an empty trace when disabled.
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.events(), self.track_count(), self.dropped())
    }

    /// One compact JSON object for live streaming: uptime, event
    /// accounting and the full metrics registry. `{}` when disabled.
    pub fn snapshot_json(&self) -> String {
        json::object(|o| {
            if let Some(sink) = &self.sink {
                let stored = sink.events().len();
                o.uint("uptime_ns", sink.now_ns())
                    .uint("events_collected", stored)
                    .uint("events_dropped", self.dropped())
                    .uint("tracks", self.track_count())
                    .object("metrics", |m| sink.registry.write_json(m));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let track = t.track(CLIENT_TRACK);
        assert!(!track.is_enabled());
        track.record(EventKind::Submitted, 1);
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.now_ns(), 0);
        assert_eq!(t.snapshot_json(), "{}");
        assert!(t.registry().is_none());
    }

    #[test]
    fn events_flow_from_tracks_to_collection() {
        let t = Telemetry::enabled();
        let client = t.track(CLIENT_TRACK);
        let worker = t.track(worker_track(0));
        client.record(EventKind::Submitted, 42);
        client.record(EventKind::Queued, 42);
        worker.record(EventKind::Claimed, 42);
        let events = t.events();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.job == 42));
        let claimed = events
            .iter()
            .find(|e| e.kind == EventKind::Claimed)
            .expect("claimed recorded");
        assert_eq!(claimed.track, worker_track(0));
        assert_eq!(t.track_count(), 2);
    }

    #[test]
    fn timestamps_are_monotone_per_track() {
        let t = Telemetry::enabled();
        let track = t.track(CLIENT_TRACK);
        for i in 0..100 {
            track.record(EventKind::Queued, i);
        }
        let events = t.events();
        for pair in events.windows(2) {
            assert!(pair[0].at_ns <= pair[1].at_ns);
        }
    }

    #[test]
    fn clones_share_the_sink() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        t.track(CLIENT_TRACK).record(EventKind::Submitted, 1);
        t2.registry().unwrap().counter("shared").add(5);
        assert_eq!(t2.events().len(), 1);
        assert_eq!(t.registry().unwrap().counter("shared").get(), 5);
    }

    #[test]
    fn snapshot_json_shape() {
        let t = Telemetry::enabled();
        t.registry().unwrap().counter("jobs").add(3);
        t.track(CLIENT_TRACK).record(EventKind::Submitted, 1);
        let snap = t.snapshot_json();
        assert!(snap.starts_with("{\"uptime_ns\":"));
        assert!(snap.contains("\"events_collected\":1"));
        assert!(snap.contains("\"events_dropped\":0"));
        assert!(snap.contains("\"metrics\":{\"jobs\":3}"));
    }

    #[test]
    fn chrome_trace_of_disabled_is_still_valid_shape() {
        let t = Telemetry::disabled();
        let json = t.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn overflow_surfaces_in_dropped_and_snapshot() {
        let t = Telemetry::with_capacity(4);
        let track = t.track(CLIENT_TRACK);
        for i in 0..10 {
            track.record(EventKind::Queued, i);
        }
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.events().len(), 4);
        assert!(t.snapshot_json().contains("\"events_dropped\":6"));
    }

    /// Threads recording at once through their own tracks: within the
    /// bound nothing is lost and each track keeps its order; past it
    /// exactly the excess is dropped, and both `dropped()` and the
    /// snapshot say so.
    #[test]
    fn concurrent_tracks_lose_nothing_but_the_excess() {
        const THREADS: u32 = 4;
        const PER_THREAD: u64 = 5_000;
        let total = THREADS as u64 * PER_THREAD;
        for capacity in [total as usize, total as usize + 1, 12_345] {
            let t = Telemetry::with_capacity(capacity);
            let start = std::sync::Barrier::new(THREADS as usize);
            std::thread::scope(|s| {
                for thread in 0..THREADS {
                    let track = t.track(worker_track(thread as usize));
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        for seq in 0..PER_THREAD {
                            track.record(EventKind::Queued, seq);
                        }
                    });
                }
            });
            let events = t.events();
            let kept = total.min(capacity as u64);
            assert_eq!(events.len() as u64, kept, "capacity {capacity}");
            assert_eq!(t.dropped(), total - kept, "capacity {capacity}");
            let snapshot = t.snapshot_json();
            assert!(
                snapshot.contains(&format!(
                    "\"events_collected\":{kept},\"events_dropped\":{},",
                    total - kept
                )),
                "{snapshot}"
            );
            // The store never frees a slot, so each track keeps a prefix
            // of what its thread recorded, in order: all of it within the
            // bound.
            for thread in 0..THREADS {
                let seqs: Vec<u64> = events
                    .iter()
                    .filter(|e| e.track == worker_track(thread as usize))
                    .map(|e| e.job)
                    .collect();
                let prefix: Vec<u64> = (0..seqs.len() as u64).collect();
                assert_eq!(seqs, prefix, "track {thread}, capacity {capacity}");
                if kept == total {
                    assert_eq!(seqs.len() as u64, PER_THREAD);
                }
            }
        }
    }
}
