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
//! [`EventKind::RunEnd`]); and `"i"` instant events for point incidents
//! (submission, steals, evictions, rejections, merge and stream).
//!
//! Spans are drawn on the track of the event that *closes* them, so a
//! queued span appears on the claiming worker's row and the viewer shows
//! exactly which worker picked each job up. Timestamps are microseconds
//! (fractional, nanosecond precision) on the sink's shared epoch.

use crate::event::{EventKind, JobEvent, CLIENT_TRACK, NO_JOB};
use std::collections::BTreeMap;

fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

fn priority_name(p: u8) -> &'static str {
    match p {
        0 => "high",
        1 => "normal",
        _ => "low",
    }
}

fn args_json(e: &JobEvent) -> String {
    if e.job == NO_JOB {
        format!(
            "{{\"tenant\":{},\"priority\":\"{}\"}}",
            e.tenant,
            priority_name(e.priority)
        )
    } else {
        format!(
            "{{\"job\":{},\"tenant\":{},\"priority\":\"{}\"}}",
            e.job,
            e.tenant,
            priority_name(e.priority)
        )
    }
}

fn complete_event(name: &str, tid: u32, start_ns: u64, end_ns: u64, args: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid},\"args\":{args}}}",
        us(start_ns),
        us(end_ns.saturating_sub(start_ns)),
    )
}

fn instant_event(e: &JobEvent) -> String {
    format!(
        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{}}}",
        e.kind.name(),
        us(e.at_ns),
        e.track,
        args_json(e)
    )
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
    let mut out: Vec<String> = Vec::new();
    // Process + track naming metadata first.
    out.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"ulp-service\"}}"
            .to_string(),
    );
    let highest = events
        .iter()
        .map(|e| e.track)
        .max()
        .map_or(0, |m| m + 1)
        .max(tracks);
    for track in 0..highest {
        out.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{track},\"args\":{{\"name\":\"{}\"}}}}",
            track_name(track)
        ));
        // sort_index keeps the client row on top and workers in order.
        out.push(format!(
            "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":{track},\"args\":{{\"sort_index\":{track}}}}}"
        ));
    }

    // Group per job, keeping the recorded order within a job (events are
    // collected in ring order; sort by timestamp to be safe across
    // tracks).
    let mut by_job: BTreeMap<u64, Vec<&JobEvent>> = BTreeMap::new();
    for e in events {
        if e.job != NO_JOB {
            by_job.entry(e.job).or_default().push(e);
        } else {
            // Admission rejections have no job id: plain instants.
            out.push(instant_event(e));
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
                        out.push(complete_event(
                            "queued",
                            e.track,
                            start,
                            e.at_ns,
                            &args_json(e),
                        ));
                    }
                    claimed_at = Some(e.at_ns);
                }
                EventKind::PlatformBuilt | EventKind::PlatformCacheHit => {
                    if let Some(start) = claimed_at.take() {
                        out.push(complete_event(
                            e.kind.name(),
                            e.track,
                            start,
                            e.at_ns,
                            &args_json(e),
                        ));
                    }
                }
                EventKind::RunStart => run_started = Some(e.at_ns),
                EventKind::RunEnd => {
                    if let Some(start) = run_started.take() {
                        out.push(complete_event(
                            "run",
                            e.track,
                            start,
                            e.at_ns,
                            &args_json(e),
                        ));
                    }
                }
                EventKind::Evicted => {
                    // An evicted job's queued span ends at the eviction
                    // decision, on the evicting worker's row.
                    if let Some(start) = queued_at.take() {
                        out.push(complete_event(
                            "queued",
                            e.track,
                            start,
                            e.at_ns,
                            &args_json(e),
                        ));
                    }
                    out.push(instant_event(e));
                }
                EventKind::Submitted
                | EventKind::Stolen
                | EventKind::Merged
                | EventKind::Streamed
                | EventKind::QuotaRejected
                | EventKind::CapacityRejected
                | EventKind::Snapshot
                | EventKind::Restored
                | EventKind::Migrated => out.push(instant_event(e)),
            }
        }
        // A job cut off mid-phase (collection raced completion) still
        // shows its open span as an instant rather than vanishing.
        for (open, name) in [(queued_at, "queued"), (run_started, "run")] {
            if let Some(start) = open {
                let last = job_events.last().expect("non-empty");
                let probe = JobEvent {
                    at_ns: start,
                    ..**last
                };
                out.push(format!(
                    "{{\"name\":\"{name}-open\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{}}}",
                    us(start),
                    probe.track,
                    args_json(&probe)
                ));
            }
        }
    }

    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":{dropped}}}}}",
        out.join(",\n")
    )
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
            tenant: 3,
            priority: 1,
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
        // Named tracks for client and the worker.
        assert!(json.contains("\"name\":\"client\""));
        assert!(json.contains("\"name\":\"worker 0\""));
        // Instants for submit and merge on the client row.
        assert!(json.contains("\"name\":\"submitted\",\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"merged\",\"ph\":\"i\""));
        assert!(json.contains("\"dropped_events\":0"));
    }

    #[test]
    fn eviction_closes_the_queued_span() {
        let w = worker_track(1);
        let events = vec![
            ev(EventKind::Queued, 0, 1, CLIENT_TRACK),
            ev(EventKind::Evicted, 500, 1, w),
        ];
        let json = chrome_trace(&events, 3, 0);
        assert!(json.contains("\"name\":\"queued\",\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"evicted\",\"ph\":\"i\""));
        // The span lands on the evicting worker's track (tid 2).
        assert!(json.contains("\"tid\":2"));
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
            kind: EventKind::QuotaRejected,
            job: NO_JOB,
            tenant: 9,
            priority: 0,
            track: CLIENT_TRACK,
        };
        let json = chrome_trace(&[e], 1, 2);
        assert!(json.contains("\"name\":\"quota-rejected\",\"ph\":\"i\""));
        assert!(json.contains("\"tenant\":9"));
        assert!(!json.contains("\"job\":"));
        assert!(json.contains("\"dropped_events\":2"));
    }

    #[test]
    fn open_spans_surface_as_instants() {
        let events = vec![ev(EventKind::Queued, 10, 3, CLIENT_TRACK)];
        let json = chrome_trace(&events, 1, 0);
        assert!(json.contains("\"name\":\"queued-open\""));
    }
}
