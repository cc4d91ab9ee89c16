//! Integration tests of the service's telemetry: every accepted job must
//! leave a complete, well-ordered span set (submitted → queued → claimed,
//! then evicted *or* platform → run-start → run-end) attributed to the
//! tenant that submitted it, under deterministic smoke shapes and under a
//! property test that churns random submit/steal/evict/complete
//! interleavings across 2–4 workers. The churn also checks that the
//! pool's stats and the exported metrics are one store.

mod common;

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use ulp_kernels::{Benchmark, WorkloadConfig};
use ulp_service::{
    JobError, JobId, JobSpec, Priority, ServiceConfig, SimService, SubmitError, TenantId,
    TenantPolicy,
};
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
    telemetry.collect();
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

/// Asserts one job's span set is complete and causally ordered; `evicted`
/// selects which terminal chain is required. Returns an error string so
/// the proptest can surface it through `prop_assert!`.
fn check_chain(id: u64, events: &[JobEvent], evicted: bool) -> Result<(), String> {
    let fail = |msg: String| Err(format!("job {id}: {msg} (events: {events:?})"));
    for kind in [EventKind::Submitted, EventKind::Queued, EventKind::Claimed] {
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
    if evicted {
        if count(events, EventKind::Evicted) != 1 {
            return fail("expected exactly one evicted event".into());
        }
        if count(events, EventKind::RunStart) != 0 || count(events, EventKind::RunEnd) != 0 {
            return fail("an evicted job must never run".into());
        }
        if claimed > at(events, EventKind::Evicted).unwrap() {
            return fail("evicted before claimed".into());
        }
    } else {
        for kind in [EventKind::RunStart, EventKind::RunEnd] {
            if count(events, kind) != 1 {
                return fail(format!("expected exactly one {} event", kind.name()));
            }
        }
        let run_start = at(events, EventKind::RunStart).unwrap();
        let run_end = at(events, EventKind::RunEnd).unwrap();
        if claimed > run_start || run_start > run_end {
            return fail("claimed/run-start/run-end out of order".into());
        }
        // The platform phase (build or cache hit) sits between the claim
        // and the run.
        let platform = at(events, EventKind::PlatformBuilt)
            .or_else(|| at(events, EventKind::PlatformCacheHit));
        match platform {
            None => return fail("no platform build or cache-hit event".into()),
            Some(t) if claimed > t || t > run_start => {
                return fail("platform phase outside claimed..run-start".into())
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// A deterministic smoke: a small two-worker grid leaves one complete
/// chain per job, on the right tenants, and the Chrome exporter renders a
/// track per worker with the chains as complete spans.
#[test]
fn every_job_leaves_a_complete_chain_on_its_tenant() {
    let telemetry = Telemetry::enabled();
    let mut service = traced_pool(2, &telemetry);
    let w = workload(16);
    let mut tenant_of: HashMap<JobId, u32> = HashMap::new();
    for i in 0..8u32 {
        let tenant = TenantId(i % 3);
        let id = service
            .submit(
                JobSpec::new(Benchmark::Sqrt32, 2, w.clone())
                    .with_sync(i % 2 == 0)
                    .tenant(tenant),
            )
            .expect("unbounded queue admits");
        tenant_of.insert(id, tenant.0);
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
        check_chain(id, events, false).unwrap();
        let expected = tenant_of[&id];
        for event in events {
            assert_eq!(
                event.tenant,
                expected,
                "job {id} event {} attributed to tenant {} (submitted as {expected})",
                event.kind.name(),
                event.tenant
            );
        }
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
    assert_eq!(telemetry.collect(), 0);
    assert!(telemetry.events().is_empty());
    assert_eq!(telemetry.snapshot_json(), "{}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Churn: random submit interleavings across 2–4 workers with pins
    /// (forcing steals), infeasible deadlines (forcing evictions), mixed
    /// priorities, tenants (one quota-bounded, forcing rejections) and
    /// both submit paths. Every accepted job must leave a complete,
    /// well-ordered span set; no event may name the wrong tenant; the
    /// rejection events must match what the client saw; nothing may be
    /// dropped at these volumes; every stats counter must equal its
    /// `service_<field>` metric.
    #[test]
    fn churned_interleavings_leave_complete_chains_on_the_right_tenants(
        workers in 2usize..=4,
        ops in prop::collection::vec(
            // (cores selector, priority selector, pin selector,
            //  tenant selector, evict this job, use the blocking path)
            (0usize..3, 0usize..3, 0usize..5, 0usize..3, 0usize..2, 0usize..2),
            1..28,
        ),
    ) {
        let telemetry = Telemetry::enabled();
        let quota_tenant = TenantId(2);
        let mut service = SimService::start(
            ServiceConfig::builder()
                .workers(workers)
                .tenant(quota_tenant, TenantPolicy::quota(2))
                .telemetry(telemetry.clone())
                .build(),
        );
        let w = workload(16);
        let mut tenant_of: HashMap<JobId, u32> = HashMap::new();
        let mut doomed: Vec<JobId> = Vec::new();
        let mut over_quota = 0u64;
        for &(cores_sel, prio_sel, pin_sel, tenant_sel, evict_sel, blocking_sel) in &ops {
            let (evict, blocking) = (evict_sel == 1, blocking_sel == 1);
            let tenant = TenantId(tenant_sel as u32);
            let mut spec = JobSpec::new(Benchmark::Sqrt32, [1, 2, 4][cores_sel], w.clone())
                .with_sync(cores_sel == 0)
                .priority([Priority::High, Priority::Normal, Priority::Low][prio_sel])
                .tenant(tenant);
            if evict {
                // Budget 4 < the 16-cycle floor: provably infeasible, so
                // the claiming worker evicts instead of running.
                spec = spec.deadline_cycles(4);
            }
            if pin_sel < 4 {
                // Lopsided pins force other workers to steal.
                spec = spec.pinned(pin_sel % workers);
            }
            let outcome = if blocking {
                service.submit_blocking(spec).map_err(|_| ())
            } else {
                match service.submit(spec) {
                    Ok(id) => Ok(id),
                    Err(SubmitError::QuotaExceeded { tenant: t, .. }) => {
                        prop_assert_eq!(t, quota_tenant);
                        over_quota += 1;
                        continue;
                    }
                    Err(_) => Err(()),
                }
            };
            // The blocking path parks on quota pressure until slots free,
            // so it only errors on a dead pool — which fails the test.
            let id = outcome.expect("pool alive");
            tenant_of.insert(id, tenant.0);
            if evict {
                doomed.push(id);
            }
        }
        let mut evicted: Vec<JobId> = Vec::new();
        while let Some(result) = service.recv() {
            match &result.outcome {
                Ok(_) => prop_assert!(!doomed.contains(&result.id)),
                Err(JobError::Evicted { .. }) => evicted.push(result.id),
                Err(other) => panic!("job failed: {other}"),
            }
        }
        evicted.sort_unstable();
        doomed.sort_unstable();
        prop_assert_eq!(&evicted, &doomed, "exactly the infeasible jobs evict");
        let stats = service.finish();
        common::assert_stats_match_registry(&stats, &telemetry);

        prop_assert_eq!(telemetry.dropped(), 0, "nothing drops at these volumes");
        let by_job = events_by_job(&telemetry);
        prop_assert_eq!(by_job.len(), tenant_of.len(), "every accepted job left events");
        for (&id, events) in &by_job {
            if let Err(msg) = check_chain(id, events, doomed.contains(&id)) {
                panic!("{msg}");
            }
            let expected = tenant_of[&id];
            for event in events {
                prop_assert_eq!(
                    event.tenant, expected,
                    "job {} event {} attributed to tenant {} (submitted as {})",
                    id, event.kind.name(), event.tenant, expected
                );
            }
        }
        // Quota rejections leave their own (job-less) events, one per
        // client-visible rejection.
        let rejections = telemetry
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::QuotaRejected)
            .count() as u64;
        prop_assert_eq!(rejections, over_quota);
    }
}
