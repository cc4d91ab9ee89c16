//! Integration tests of the service's telemetry: every accepted job must
//! leave a complete, well-ordered span set (submitted → queued → claimed
//! → platform → run-start → run-end), under deterministic smoke shapes
//! and under a property test that churns random submit/steal/reject/
//! complete interleavings across 2–4 workers. The churn also checks that
//! the pool's stats and the exported metrics are one store.

mod common;

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use ulp_kernels::{Benchmark, WorkloadConfig};
use ulp_service::{JobSpec, ServiceConfig, SimService, SubmitError};
use ulp_telemetry::{EventKind, JobEvent, Telemetry, NO_JOB};

fn workload(n: usize) -> Arc<WorkloadConfig> {
    let mut w = WorkloadConfig::quick_test();
    w.n = n;
    Arc::new(w)
}

fn traced_pool(workers: usize, telemetry: &Telemetry) -> SimService {
    SimService::start(
        ServiceConfig::builder()
            .workers(workers)
            .telemetry(telemetry.clone())
            .build(),
    )
}

/// The per-job lifecycle events, grouped and time-ordered. Admission
/// rejections (tagged `NO_JOB`) are excluded — they never name a job.
fn events_by_job(telemetry: &Telemetry) -> HashMap<u64, Vec<JobEvent>> {
    let mut by_job: HashMap<u64, Vec<JobEvent>> = HashMap::new();
    for event in telemetry.events() {
        if event.job != NO_JOB {
            by_job.entry(event.job).or_default().push(event);
        }
    }
    for events in by_job.values_mut() {
        events.sort_by_key(|e| e.at_ns);
    }
    by_job
}

/// First timestamp of `kind` within one job's events.
fn at(events: &[JobEvent], kind: EventKind) -> Option<u64> {
    events.iter().find(|e| e.kind == kind).map(|e| e.at_ns)
}

fn count(events: &[JobEvent], kind: EventKind) -> usize {
    events.iter().filter(|e| e.kind == kind).count()
}

/// Asserts one job's span set is complete and causally ordered. Returns
/// an error string so the proptest can surface it through
/// `prop_assert!`.
fn check_chain(id: u64, events: &[JobEvent]) -> Result<(), String> {
    let fail = |msg: String| Err(format!("job {id}: {msg} (events: {events:?})"));
    for kind in [
        EventKind::Submitted,
        EventKind::Queued,
        EventKind::Claimed,
        EventKind::RunStart,
        EventKind::RunEnd,
    ] {
        if count(events, kind) != 1 {
            return fail(format!("expected exactly one {} event", kind.name()));
        }
    }
    let submitted = at(events, EventKind::Submitted).unwrap();
    let queued = at(events, EventKind::Queued).unwrap();
    let claimed = at(events, EventKind::Claimed).unwrap();
    if submitted > queued || queued > claimed {
        return fail("submitted/queued/claimed out of order".into());
    }
    let run_start = at(events, EventKind::RunStart).unwrap();
    let run_end = at(events, EventKind::RunEnd).unwrap();
    if claimed > run_start || run_start > run_end {
        return fail("claimed/run-start/run-end out of order".into());
    }
    // The platform phase (build or cache hit) sits between the claim
    // and the run.
    let platform =
        at(events, EventKind::PlatformBuilt).or_else(|| at(events, EventKind::PlatformCacheHit));
    match platform {
        None => return fail("no platform build or cache-hit event".into()),
        Some(t) if claimed > t || t > run_start => {
            return fail("platform phase outside claimed..run-start".into())
        }
        Some(_) => {}
    }
    Ok(())
}

/// A deterministic smoke: a small two-worker grid leaves one complete
/// chain per job, and the Chrome exporter renders a track per worker with
/// the chains as complete spans.
#[test]
fn every_job_leaves_a_complete_chain() {
    let telemetry = Telemetry::enabled();
    let mut service = traced_pool(2, &telemetry);
    let w = workload(16);
    for i in 0..8 {
        service
            .submit(JobSpec::new(Benchmark::Sqrt32, 2, w.clone()).with_sync(i % 2 == 0))
            .expect("unbounded queue admits");
    }
    let mut done = 0;
    while let Some(result) = service.recv() {
        assert!(result.outcome.is_ok());
        done += 1;
    }
    assert_eq!(done, 8);
    service.finish();

    let by_job = events_by_job(&telemetry);
    assert_eq!(by_job.len(), 8, "every job left events");
    for (&id, events) in &by_job {
        check_chain(id, events).unwrap();
    }
    assert_eq!(telemetry.dropped(), 0);

    let trace = telemetry.chrome_trace();
    assert!(trace.contains("\"worker 0\""));
    assert!(trace.contains("\"queued\""));
    assert!(trace.contains("\"run\""));
}

/// A pool started without a telemetry handle records nothing and exports
/// the empty snapshot — the zero-cost default.
#[test]
fn default_pool_is_untraced() {
    let mut service = SimService::start(ServiceConfig::builder().workers(1).build());
    service
        .submit(JobSpec::new(Benchmark::Sqrt32, 2, workload(16)))
        .expect("unbounded queue admits");
    while service.recv().is_some() {}
    let telemetry = service.telemetry();
    service.finish();
    assert!(!telemetry.is_enabled());
    assert!(telemetry.events().is_empty());
    assert_eq!(telemetry.snapshot_json(), "{}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Churn: random submit interleavings across 2–4 workers with pins
    /// (forcing steals), a bounded queue (forcing rejections) and both
    /// submit paths. Every accepted job must leave a complete,
    /// well-ordered span set; the rejection events must match what the
    /// client saw; nothing may be dropped at these volumes; every stats
    /// counter must equal its `service_<field>` metric.
    #[test]
    fn churned_interleavings_leave_complete_chains(
        workers in 2usize..=4,
        ops in prop::collection::vec(
            // (cores selector, pin selector, use the blocking path)
            (0usize..3, 0usize..5, 0usize..2),
            1..28,
        ),
    ) {
        let telemetry = Telemetry::enabled();
        let mut service = SimService::start(
            ServiceConfig::builder()
                .workers(workers)
                .queue_capacity(2)
                .telemetry(telemetry.clone())
                .build(),
        );
        let w = workload(16);
        let mut accepted = 0usize;
        let mut at_capacity = 0u64;
        for &(cores_sel, pin_sel, blocking_sel) in &ops {
            let mut spec = JobSpec::new(Benchmark::Sqrt32, [1, 2, 4][cores_sel], w.clone())
                .with_sync(cores_sel == 0);
            if pin_sel < 4 {
                // Lopsided pins force other workers to steal.
                spec = spec.pinned(pin_sel % workers);
            }
            if blocking_sel == 1 {
                // The blocking path parks at capacity until the backlog
                // drains, so it only errors on a dead pool.
                service.submit_blocking(spec).expect("pool alive");
            } else {
                match service.submit(spec) {
                    Ok(_) => {}
                    Err(SubmitError::AtCapacity { .. }) => {
                        at_capacity += 1;
                        continue;
                    }
                    Err(other) => panic!("{other}"),
                }
            }
            accepted += 1;
        }
        while let Some(result) = service.recv() {
            if let Err(err) = &result.outcome {
                panic!("job failed: {err}");
            }
        }
        let stats = service.finish();
        common::assert_stats_match_registry(&stats, &telemetry);

        prop_assert_eq!(telemetry.dropped(), 0, "nothing drops at these volumes");
        let by_job = events_by_job(&telemetry);
        prop_assert_eq!(by_job.len(), accepted, "every accepted job left events");
        for (&id, events) in &by_job {
            if let Err(msg) = check_chain(id, events) {
                panic!("{msg}");
            }
        }
        // Capacity rejections leave their own (job-less) events, one per
        // client-visible rejection.
        let rejections = telemetry
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::CapacityRejected)
            .count() as u64;
        prop_assert_eq!(rejections, at_capacity);
    }
}
