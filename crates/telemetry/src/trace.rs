//! Chrome trace-event JSON export.
//!
//! [`chrome_trace`] turns a collected event stream into the Trace Event
//! Format that `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)
//! load directly: one *thread track* per telemetry track (track 0 is the
//! submitting client, track `i + 1` is worker `i`), named with `"M"`
//! metadata events; complete `"X"` spans for the phases that have a
//! well-defined start and end (`queued` from [`EventKind::Queued`] to
//! [`EventKind::Claimed`], `platform-build`/`platform-cache-hit` from
//! claim to platform readiness, `run` from [`EventKind::RunStart`] to
//! [`EventKind::RunEnd`], or to [`EventKind::Migrated`] for the part of a
//! migrated job's run before its worker parked it); and `"i"` instant
//! events for point incidents (submission, steals, rejections, migration,
//! merge and stream).
//!
//! Spans are drawn on the track of the event that *closes* them, so a
//! queued span appears on the claiming worker's row and the viewer shows
//! exactly which worker picked each job up. Timestamps are microseconds
//! (fractional, nanosecond precision) on the sink's shared epoch.

use crate::event::{EventKind, JobEvent, CLIENT_TRACK, NO_JOB};
use crate::json::{self, Array, Object};
use std::collections::BTreeMap;

/// Nanoseconds as the format's microseconds.
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// The event's `args`: the job id, or nothing for [`NO_JOB`].
fn args(o: &mut Object<'_>, job: u64) {
    o.object("args", |a| {
        if job != NO_JOB {
            a.uint("job", job);
        }
    });
}

/// A complete (`"X"`) span from `start_ns` to the event `end` that
/// closes it, drawn on `end`'s track.
fn complete_event(out: &mut Array<'_>, name: &str, end: &JobEvent, start_ns: u64) {
    out.object(|o| {
        o.str("name", name)
            .str("ph", "X")
            .fixed("ts", us(start_ns), 3)
            .fixed("dur", us(end.at_ns.saturating_sub(start_ns)), 3)
            .uint("pid", 1u32)
            .uint("tid", end.track);
        args(o, end.job);
    });
}

/// A thread-scoped instant (`"i"`) at `at_ns`.
fn instant_event(out: &mut Array<'_>, name: &str, at_ns: u64, track: u32, job: u64) {
    out.object(|o| {
        o.str("name", name)
            .str("ph", "i")
            .str("s", "t")
            .fixed("ts", us(at_ns), 3)
            .uint("pid", 1u32)
            .uint("tid", track);
        args(o, job);
    });
}

/// A metadata (`"M"`) event whose `args` hold one member.
fn metadata_event(
    out: &mut Array<'_>,
    name: &str,
    tid: Option<u32>,
    args: impl FnOnce(&mut Object<'_>),
) {
    out.object(|o| {
        o.str("name", name).str("ph", "M").uint("pid", 1u32);
        if let Some(tid) = tid {
            o.uint("tid", tid);
        }
        o.object("args", args);
    });
}

/// The human-readable name of a track: the client row or a worker row.
pub fn track_name(track: u32) -> String {
    if track == CLIENT_TRACK {
        "client".to_string()
    } else {
        format!("worker {}", track - 1)
    }
}

/// Renders `events` as a Chrome trace-event JSON document covering
/// `tracks` thread tracks (pass the sink's track count so idle workers
/// still get a named row). `dropped` is surfaced in `otherData` so a
/// truncated trace is visibly truncated.
pub fn chrome_trace(events: &[JobEvent], tracks: u32, dropped: u64) -> String {
    json::object(|doc| {
        doc.lines("traceEvents", |out| trace_events(out, events, tracks))
            .str("displayTimeUnit", "ms")
            .object("otherData", |o| {
                o.uint("dropped_events", dropped);
            });
    })
}

/// The `traceEvents` array: track metadata, then each job's spans and
/// instants.
fn trace_events(out: &mut Array<'_>, events: &[JobEvent], tracks: u32) {
    // Process + track naming metadata first.
    metadata_event(out, "process_name", None, |a| {
        a.str("name", "ulp-service");
    });
    let highest = events
        .iter()
        .map(|e| e.track)
        .max()
        .map_or(0, |m| m + 1)
        .max(tracks);
    for track in 0..highest {
        metadata_event(out, "thread_name", Some(track), |a| {
            a.str("name", &track_name(track));
        });
        // sort_index keeps the client row on top and workers in order.
        metadata_event(out, "thread_sort_index", Some(track), |a| {
            a.uint("sort_index", track);
        });
    }

    // Group per job, keeping the recorded order within a job (sort by
    // timestamp to be safe across tracks).
    let mut by_job: BTreeMap<u64, Vec<&JobEvent>> = BTreeMap::new();
    for e in events {
        if e.job != NO_JOB {
            by_job.entry(e.job).or_default().push(e);
        } else {
            // Admission rejections have no job id: plain instants.
            instant_event(out, e.kind.name(), e.at_ns, e.track, e.job);
        }
    }

    for job_events in by_job.values_mut() {
        job_events.sort_by_key(|e| (e.at_ns, e.kind));
        let mut queued_at: Option<u64> = None;
        let mut claimed_at: Option<u64> = None;
        let mut run_started: Option<u64> = None;
        for e in job_events.iter() {
            match e.kind {
                EventKind::Queued => queued_at = Some(e.at_ns),
                EventKind::Claimed => {
                    if let Some(start) = queued_at.take() {
                        complete_event(out, "queued", e, start);
                    }
                    claimed_at = Some(e.at_ns);
                }
                EventKind::PlatformBuilt | EventKind::PlatformCacheHit => {
                    if let Some(start) = claimed_at.take() {
                        complete_event(out, e.kind.name(), e, start);
                    }
                }
                EventKind::RunStart => {
                    // A job whose platform could not be had (a rejected
                    // core count, a failed build) starts its run straight
                    // from the claim: no platform phase to show.
                    claimed_at = None;
                    run_started = Some(e.at_ns);
                }
                EventKind::RunEnd => {
                    if let Some(start) = run_started.take() {
                        complete_event(out, "run", e, start);
                    }
                }
                EventKind::Migrated => {
                    // The parked worker's run segment ends here; the
                    // resumed segment opens at the next `RunStart`.
                    if let Some(start) = run_started.take() {
                        complete_event(out, "run", e, start);
                    }
                    instant_event(out, e.kind.name(), e.at_ns, e.track, e.job);
                }
                EventKind::Submitted
                | EventKind::Stolen
                | EventKind::Merged
                | EventKind::Streamed
                | EventKind::CapacityRejected
                | EventKind::Snapshot
                | EventKind::Restored => instant_event(out, e.kind.name(), e.at_ns, e.track, e.job),
            }
        }
        // A job cut off mid-phase (the trace was taken before it finished)
        // still shows its open span as an instant rather than vanishing.
        let last = job_events.last().expect("non-empty");
        for (open, name) in [
            (queued_at, "queued-open"),
            (claimed_at, "platform-open"),
            (run_started, "run-open"),
        ] {
            if let Some(start) = open {
                instant_event(out, name, start, last.track, last.job);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::worker_track;

    fn ev(kind: EventKind, at_ns: u64, job: u64, track: u32) -> JobEvent {
        JobEvent {
            at_ns,
            kind,
            job,
            track,
        }
    }

    #[test]
    fn full_lifecycle_emits_three_spans_on_worker_track() {
        let w = worker_track(0);
        let events = vec![
            ev(EventKind::Submitted, 0, 7, CLIENT_TRACK),
            ev(EventKind::Queued, 10, 7, CLIENT_TRACK),
            ev(EventKind::Claimed, 100, 7, w),
            ev(EventKind::PlatformBuilt, 200, 7, w),
            ev(EventKind::RunStart, 210, 7, w),
            ev(EventKind::RunEnd, 1210, 7, w),
            ev(EventKind::Merged, 1500, 7, CLIENT_TRACK),
        ];
        let json = chrome_trace(&events, 2, 0);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"queued\",\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"platform-build\",\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"run\",\"ph\":\"X\""));
        // The run span: 210ns..1210ns → ts 0.210us dur 1.000us.
        assert!(json.contains("\"ts\":0.210,\"dur\":1.000"));
        // Span args carry the job id only.
        assert!(json.contains("\"dur\":1.000,\"pid\":1,\"tid\":1,\"args\":{\"job\":7}}"));
        // Named tracks for client and the worker.
        assert!(json.contains("\"name\":\"client\""));
        assert!(json.contains("\"name\":\"worker 0\""));
        // Instants for submit and merge on the client row.
        assert!(json.contains("\"name\":\"submitted\",\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"merged\",\"ph\":\"i\""));
        assert!(json.contains("\"dropped_events\":0"));
    }

    #[test]
    fn idle_workers_still_get_named_tracks() {
        let json = chrome_trace(&[], 4, 0);
        for t in 0..4 {
            assert!(json.contains(&format!(
                "\"tid\":{t},\"args\":{{\"name\":\"{}\"}}",
                track_name(t)
            )));
        }
    }

    #[test]
    fn rejections_without_job_ids_are_instants() {
        let e = JobEvent {
            at_ns: 5,
            kind: EventKind::CapacityRejected,
            job: NO_JOB,
            track: CLIENT_TRACK,
        };
        let json = chrome_trace(&[e], 1, 2);
        assert!(json.contains("\"name\":\"capacity-rejected\",\"ph\":\"i\""));
        assert!(json.contains("\"args\":{}}"));
        assert!(!json.contains("\"job\":"));
        assert!(json.contains("\"dropped_events\":2"));
    }

    /// The full trace bytes on a fixed event list: one complete job, a
    /// stolen job whose run is still open, a job still queued, and an
    /// admission rejection without a job id.
    #[test]
    fn chrome_trace_bytes() {
        let (w0, w1) = (worker_track(0), worker_track(1));
        let events = vec![
            ev(EventKind::Submitted, 0, 1, CLIENT_TRACK),
            ev(EventKind::Queued, 10, 1, CLIENT_TRACK),
            ev(EventKind::CapacityRejected, 15, NO_JOB, CLIENT_TRACK),
            ev(EventKind::Claimed, 1_000, 1, w0),
            ev(EventKind::PlatformBuilt, 2_500, 1, w0),
            ev(EventKind::RunStart, 2_600, 1, w0),
            ev(EventKind::RunEnd, 12_600, 1, w0),
            ev(EventKind::Merged, 13_000, 1, CLIENT_TRACK),
            ev(EventKind::Streamed, 13_001, 1, CLIENT_TRACK),
            ev(EventKind::Submitted, 20, 2, CLIENT_TRACK),
            ev(EventKind::Queued, 30, 2, CLIENT_TRACK),
            ev(EventKind::Stolen, 500, 2, w1),
            ev(EventKind::Claimed, 1_500, 2, w1),
            ev(EventKind::PlatformCacheHit, 1_600, 2, w1),
            ev(EventKind::RunStart, 1_700, 2, w1),
            ev(EventKind::Submitted, 40, 3, CLIENT_TRACK),
            ev(EventKind::Queued, 50, 3, CLIENT_TRACK),
        ];
        assert_eq!(
            chrome_trace(&events, 3, 1),
            concat!(
                "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"ulp-service\"}},\n",
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"client\"}},\n",
                "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"sort_index\":0}},\n",
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"worker 0\"}},\n",
                "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"sort_index\":1}},\n",
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"worker 1\"}},\n",
                "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"sort_index\":2}},\n",
                "{\"name\":\"capacity-rejected\",\"ph\":\"i\",\"s\":\"t\",\"ts\":0.015,\"pid\":1,\"tid\":0,\"args\":{}},\n",
                "{\"name\":\"submitted\",\"ph\":\"i\",\"s\":\"t\",\"ts\":0.000,\"pid\":1,\"tid\":0,\"args\":{\"job\":1}},\n",
                "{\"name\":\"queued\",\"ph\":\"X\",\"ts\":0.010,\"dur\":0.990,\"pid\":1,\"tid\":1,\"args\":{\"job\":1}},\n",
                "{\"name\":\"platform-build\",\"ph\":\"X\",\"ts\":1.000,\"dur\":1.500,\"pid\":1,\"tid\":1,\"args\":{\"job\":1}},\n",
                "{\"name\":\"run\",\"ph\":\"X\",\"ts\":2.600,\"dur\":10.000,\"pid\":1,\"tid\":1,\"args\":{\"job\":1}},\n",
                "{\"name\":\"merged\",\"ph\":\"i\",\"s\":\"t\",\"ts\":13.000,\"pid\":1,\"tid\":0,\"args\":{\"job\":1}},\n",
                "{\"name\":\"streamed\",\"ph\":\"i\",\"s\":\"t\",\"ts\":13.001,\"pid\":1,\"tid\":0,\"args\":{\"job\":1}},\n",
                "{\"name\":\"submitted\",\"ph\":\"i\",\"s\":\"t\",\"ts\":0.020,\"pid\":1,\"tid\":0,\"args\":{\"job\":2}},\n",
                "{\"name\":\"stolen\",\"ph\":\"i\",\"s\":\"t\",\"ts\":0.500,\"pid\":1,\"tid\":2,\"args\":{\"job\":2}},\n",
                "{\"name\":\"queued\",\"ph\":\"X\",\"ts\":0.030,\"dur\":1.470,\"pid\":1,\"tid\":2,\"args\":{\"job\":2}},\n",
                "{\"name\":\"platform-cache-hit\",\"ph\":\"X\",\"ts\":1.500,\"dur\":0.100,\"pid\":1,\"tid\":2,\"args\":{\"job\":2}},\n",
                "{\"name\":\"run-open\",\"ph\":\"i\",\"s\":\"t\",\"ts\":1.700,\"pid\":1,\"tid\":2,\"args\":{\"job\":2}},\n",
                "{\"name\":\"submitted\",\"ph\":\"i\",\"s\":\"t\",\"ts\":0.040,\"pid\":1,\"tid\":0,\"args\":{\"job\":3}},\n",
                "{\"name\":\"queued-open\",\"ph\":\"i\",\"s\":\"t\",\"ts\":0.050,\"pid\":1,\"tid\":0,\"args\":{\"job\":3}}],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":1}}",
            )
        );
    }

    #[test]
    fn open_spans_surface_as_instants() {
        let events = vec![ev(EventKind::Queued, 10, 3, CLIENT_TRACK)];
        let json = chrome_trace(&events, 1, 0);
        assert!(json.contains("\"name\":\"queued-open\""));
    }

    /// A job cut off between its claim and its platform keeps the open
    /// platform phase; a job that ran without a platform (a rejected
    /// core count) has no platform phase to leave open.
    #[test]
    fn open_platform_phase_surfaces_as_an_instant() {
        let w = worker_track(0);
        let events = vec![
            ev(EventKind::Queued, 10, 3, CLIENT_TRACK),
            ev(EventKind::Claimed, 2_000, 3, w),
            ev(EventKind::Queued, 20, 4, CLIENT_TRACK),
            ev(EventKind::Claimed, 3_000, 4, w),
            ev(EventKind::RunStart, 3_000, 4, w),
            ev(EventKind::RunEnd, 3_100, 4, w),
        ];
        let json = chrome_trace(&events, 2, 0);
        assert!(json.contains(concat!(
            "{\"name\":\"platform-open\",\"ph\":\"i\",\"s\":\"t\",\"ts\":2.000,",
            "\"pid\":1,\"tid\":1,\"args\":{\"job\":3}}"
        )));
        assert_eq!(json.matches("-open\"").count(), 1, "{json}");
    }

    /// A migrated job's run is drawn in two segments: the first, on the
    /// worker that parked it, closes at `Migrated`; the second, on the
    /// worker that resumed it, closes at `RunEnd`. Neither is left open.
    #[test]
    fn migrated_job_draws_both_run_segments() {
        let (w0, w1) = (worker_track(0), worker_track(1));
        let events = vec![
            ev(EventKind::Queued, 10, 5, CLIENT_TRACK),
            ev(EventKind::Claimed, 100, 5, w0),
            ev(EventKind::PlatformBuilt, 200, 5, w0),
            ev(EventKind::RunStart, 300, 5, w0),
            ev(EventKind::Snapshot, 1_300, 5, w0),
            ev(EventKind::Migrated, 1_400, 5, w0),
            ev(EventKind::Claimed, 2_000, 5, w1),
            ev(EventKind::PlatformCacheHit, 2_100, 5, w1),
            ev(EventKind::Restored, 2_200, 5, w1),
            ev(EventKind::RunStart, 2_300, 5, w1),
            ev(EventKind::RunEnd, 5_300, 5, w1),
        ];
        let json = chrome_trace(&events, 3, 0);
        assert!(json.contains(concat!(
            "{\"name\":\"run\",\"ph\":\"X\",\"ts\":0.300,\"dur\":1.100,",
            "\"pid\":1,\"tid\":1,\"args\":{\"job\":5}}"
        )));
        assert!(json.contains(concat!(
            "{\"name\":\"run\",\"ph\":\"X\",\"ts\":2.300,\"dur\":3.000,",
            "\"pid\":1,\"tid\":2,\"args\":{\"job\":5}}"
        )));
        assert!(json.contains("\"name\":\"migrated\",\"ph\":\"i\""));
        assert!(!json.contains("-open\""), "{json}");
    }
}
