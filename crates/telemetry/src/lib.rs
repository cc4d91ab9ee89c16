//! End-to-end telemetry for the simulation service stack.
//!
//! This crate gives the service, shard and sweep layers a shared
//! observability spine with three pieces (all three layers record
//! events; the service is the only one that publishes metrics):
//!
//! - **Job-lifecycle tracing** ([`event`], [`ring`]): every phase of a
//!   job (submitted → queued → claimed → platform build or cache hit →
//!   run → merged/streamed, plus steals, migrations and admission
//!   rejections) is a typed, `Copy` [`JobEvent`] pushed onto a bounded
//!   lock-free per-track ring. Workers never block and never allocate to
//!   record; a full ring drops and counts instead.
//! - **A metrics registry** ([`metrics`]): named counters and bounded
//!   log2-bucket histograms behind cheap atomic handles. The service
//!   keeps its counters nowhere else: its stats are a read of these
//!   handles, which count whether or not telemetry is enabled. With
//!   telemetry disabled there is no sink registry, so the service
//!   registers them in a private one that nothing exports.
//! - **Exporters** ([`trace`], [`Telemetry::snapshot_json`]): Chrome
//!   trace-event JSON loadable in Perfetto (one named track per worker
//!   plus a client track), and a compact one-line JSON snapshot suitable
//!   for interleaving into streaming output.
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
//! assert_eq!(telemetry.collect(), 2);
//! assert!(telemetry.snapshot_json().contains("\"jobs_submitted\":1"));
//! let json = telemetry.chrome_trace();
//! assert!(json.contains("\"submitted\""));
//! ```

pub mod event;
pub mod metrics;
pub mod ring;
pub mod trace;

pub use event::{worker_track, EventKind, JobEvent, CLIENT_TRACK, NO_JOB};
pub use metrics::{Counter, Histogram, Registry};
pub use ring::EventRing;
pub use trace::{chrome_trace, track_name};

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-track ring capacity (events). At seven events per job a
/// track absorbs ~9k jobs between collections before dropping.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// The shared state behind an enabled [`Telemetry`] handle: the common
/// clock epoch, the per-track rings, the collected-event store and the
/// metrics registry.
pub struct Sink {
    epoch: Instant,
    ring_capacity: usize,
    tracks: Mutex<Vec<Arc<EventRing>>>,
    /// Highest track index ever opened + 1, readable without the lock.
    track_count: AtomicU32,
    collected: Mutex<Vec<JobEvent>>,
    registry: Registry,
}

impl Sink {
    fn new(ring_capacity: usize) -> Sink {
        Sink {
            epoch: Instant::now(),
            ring_capacity,
            tracks: Mutex::new(Vec::new()),
            track_count: AtomicU32::new(0),
            collected: Mutex::new(Vec::new()),
            registry: Registry::new(),
        }
    }

    fn ring(&self, track: u32) -> Arc<EventRing> {
        let mut tracks = self.tracks.lock().expect("telemetry tracks poisoned");
        while tracks.len() <= track as usize {
            tracks.push(Arc::new(EventRing::with_capacity(self.ring_capacity)));
        }
        self.track_count.fetch_max(track + 1, Ordering::Relaxed);
        Arc::clone(&tracks[track as usize])
    }
}

/// A per-thread recording handle bound to one track's ring. Obtained
/// once (e.g. at the top of a worker loop) so the per-event cost is a
/// timestamp read and a ring push — no locks, no lookups.
#[derive(Clone)]
pub struct Track {
    inner: Option<TrackInner>,
}

#[derive(Clone)]
struct TrackInner {
    ring: Arc<EventRing>,
    epoch: Instant,
    track: u32,
}

impl Track {
    /// A handle that records nothing (disabled telemetry).
    pub fn noop() -> Track {
        Track { inner: None }
    }

    /// Whether records through this handle are stored.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one lifecycle event stamped now. A no-op (single branch)
    /// when telemetry is disabled; drop-and-count when the ring is full.
    #[inline]
    pub fn record(&self, kind: EventKind, job: u64) {
        if let Some(inner) = &self.inner {
            inner.ring.push(JobEvent {
                at_ns: inner.epoch.elapsed().as_nanos() as u64,
                kind,
                job,
                track: inner.track,
            });
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
            .field("track", &self.inner.as_ref().map(|i| i.track))
            .finish()
    }
}

impl Telemetry {
    /// A handle that records nothing; all hooks reduce to one branch.
    pub fn disabled() -> Telemetry {
        Telemetry { sink: None }
    }

    /// An enabled handle with the default per-track ring capacity.
    pub fn enabled() -> Telemetry {
        Telemetry::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An enabled handle whose per-track rings hold `ring_capacity`
    /// events (rounded up to a power of two).
    pub fn with_capacity(ring_capacity: usize) -> Telemetry {
        Telemetry {
            sink: Some(Arc::new(Sink::new(ring_capacity))),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Nanoseconds since the sink's epoch (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.sink
            .as_ref()
            .map_or(0, |s| s.epoch.elapsed().as_nanos() as u64)
    }

    /// Opens (creating if needed) the recording handle for `track`.
    /// Workers call this once with [`worker_track`]`(index)`; the
    /// client side uses [`CLIENT_TRACK`].
    pub fn track(&self, track: u32) -> Track {
        match &self.sink {
            None => Track::noop(),
            Some(sink) => Track {
                inner: Some(TrackInner {
                    ring: sink.ring(track),
                    epoch: sink.epoch,
                    track,
                }),
            },
        }
    }

    /// Number of tracks opened so far.
    pub fn track_count(&self) -> u32 {
        self.sink
            .as_ref()
            .map_or(0, |s| s.track_count.load(Ordering::Relaxed))
    }

    /// Drains every track's ring into the collected store, returning how
    /// many events were moved. Call this periodically from the client
    /// thread on long runs so rings never fill.
    pub fn collect(&self) -> usize {
        let Some(sink) = &self.sink else { return 0 };
        let rings: Vec<Arc<EventRing>> = sink
            .tracks
            .lock()
            .expect("telemetry tracks poisoned")
            .clone();
        let mut collected = sink.collected.lock().expect("telemetry events poisoned");
        let mut moved = 0;
        for ring in rings {
            moved += ring.drain_into(&mut collected);
        }
        moved
    }

    /// All events collected so far (collects pending ring contents
    /// first). Empty when disabled.
    pub fn events(&self) -> Vec<JobEvent> {
        self.collect();
        self.sink.as_ref().map_or_else(Vec::new, |s| {
            s.collected
                .lock()
                .expect("telemetry events poisoned")
                .clone()
        })
    }

    /// Total events discarded across all rings because a ring was full.
    pub fn dropped(&self) -> u64 {
        let Some(sink) = &self.sink else { return 0 };
        sink.tracks
            .lock()
            .expect("telemetry tracks poisoned")
            .iter()
            .map(|r| r.dropped())
            .sum()
    }

    /// The sink's metrics registry: register metrics here to have them
    /// exported by [`Telemetry::snapshot_json`]. `None` when disabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.sink.as_ref().map(|s| &s.registry)
    }

    /// Renders everything collected (after a final drain) as a Chrome
    /// trace-event JSON document. `"{}"`-shaped empty trace when
    /// disabled.
    pub fn chrome_trace(&self) -> String {
        self.collect();
        match &self.sink {
            None => chrome_trace(&[], 0, 0),
            Some(sink) => {
                let events = sink
                    .collected
                    .lock()
                    .expect("telemetry events poisoned")
                    .clone();
                chrome_trace(&events, self.track_count(), self.dropped())
            }
        }
    }

    /// One compact JSON object for live streaming: uptime, event
    /// accounting and the full metrics registry. `{}` when disabled.
    pub fn snapshot_json(&self) -> String {
        let Some(sink) = &self.sink else {
            return "{}".to_string();
        };
        self.collect();
        let events = sink
            .collected
            .lock()
            .expect("telemetry events poisoned")
            .len();
        format!(
            "{{\"uptime_ns\":{},\"events_collected\":{},\"events_dropped\":{},\"tracks\":{},\"metrics\":{}}}",
            self.now_ns(),
            events,
            self.dropped(),
            self.track_count(),
            sink.registry.snapshot_json()
        )
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
        assert_eq!(t.collect(), 0);
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
        assert_eq!(t.collect(), 3);
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
}
