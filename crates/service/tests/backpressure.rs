//! Integration tests of the hardened submission path: bounded queues
//! with explicit backpressure (typed `SubmitError` rejection, blocking
//! `submit_blocking` with a watermark), tenant quotas, priority ordering,
//! deadline accounting and eviction, per-job latency, and a property test
//! that random multi-tenant submit interleavings under bounded queues and
//! quotas never lose or duplicate a job and never breach a quota.

use proptest::prelude::*;
use std::sync::Arc;
use ulp_kernels::{Benchmark, WorkloadConfig};
use ulp_service::{
    JobError, JobId, JobSpec, Priority, ServiceConfig, SimService, SubmitError, TenantId,
    TenantPolicy,
};

fn workload(n: usize) -> Arc<WorkloadConfig> {
    let mut w = WorkloadConfig::quick_test();
    w.n = n;
    Arc::new(w)
}

fn bounded_pool(workers: usize, capacity: usize) -> SimService {
    SimService::start(
        ServiceConfig::builder()
            .workers(workers)
            .queue_capacity(capacity)
            .build(),
    )
}

/// A burst far beyond a tiny queue's capacity: the non-blocking `submit`
/// must reject with `AtCapacity` (counted in the stats), and every job
/// that *was* accepted must come back exactly once.
#[test]
fn submit_rejects_at_capacity_and_accepted_jobs_complete() {
    let capacity = 2;
    let mut service = bounded_pool(1, capacity);
    assert_eq!(service.queue_capacity(), capacity);
    // Jobs long enough that the single worker cannot drain a 32-job
    // burst while it is being submitted.
    let w = workload(128);
    let mut accepted: Vec<JobId> = Vec::new();
    let mut rejected = 0u64;
    for i in 0..32 {
        let spec = JobSpec::new(Benchmark::Sqrt32, 2, w.clone()).with_sync(i % 2 == 0);
        match service.submit(spec) {
            Ok(id) => accepted.push(id),
            Err(SubmitError::AtCapacity { capacity: c, .. }) => {
                assert_eq!(c, capacity);
                rejected += 1;
            }
            Err(other) => panic!("expected AtCapacity, got {other}"),
        }
    }
    assert!(rejected >= 1, "a 32-job burst must overflow capacity 2");
    assert_eq!(accepted.len() as u64 + rejected, 32);

    let mut received: Vec<JobId> = Vec::new();
    while let Some(result) = service.recv() {
        assert!(result.outcome.is_ok());
        received.push(result.id);
    }
    received.sort_unstable();
    assert_eq!(received, accepted, "exactly the accepted jobs complete");

    let stats = service.finish();
    assert_eq!(stats.rejections, rejected);
    assert_eq!(stats.jobs_run, accepted.len() as u64);
}

/// The blocking path never rejects on backpressure: at capacity it parks
/// the submitter until workers drain the backlog to the watermark, then
/// admits.
#[test]
fn blocking_submit_throttles_but_never_rejects() {
    let mut service = bounded_pool(2, 2);
    let w = workload(32);
    for i in 0..12 {
        let spec = JobSpec::new(Benchmark::Sqrt32, 2, w.clone()).with_sync(i % 2 == 0);
        service.submit_blocking(spec).expect("pool alive");
    }
    let mut completed = 0;
    while let Some(result) = service.recv() {
        assert!(result.outcome.is_ok());
        completed += 1;
    }
    assert_eq!(completed, 12);
    let stats = service.finish();
    assert_eq!(stats.jobs_run, 12);
    assert_eq!(
        stats.rejections, 0,
        "blocking submissions are never rejected"
    );
}

/// A rejected spec comes back inside the error so the caller can retry it
/// — here through the blocking path, which must then complete it.
#[test]
fn rejected_spec_is_returned_for_retry() {
    let mut service = bounded_pool(1, 1);
    let w = workload(128);
    // Occupies the worker for tens of milliseconds...
    let blocker = JobSpec::new(Benchmark::Sqrt32, 2, w.clone());
    service.submit_blocking(blocker).expect("pool alive");
    // ...so this one stays queued, filling the capacity-1 queue...
    let filler = JobSpec::new(Benchmark::Sqrt32, 2, w.clone()).with_sync(false);
    service.submit_blocking(filler).expect("pool alive");
    // ...and this one must bounce, spec intact.
    let spec = JobSpec::new(Benchmark::Mrpfltr, 2, w.clone()).priority(Priority::High);
    let rejection = service
        .submit(spec)
        .expect_err("queue of capacity 1 is full");
    match &rejection {
        SubmitError::AtCapacity { capacity, spec } => {
            assert_eq!(*capacity, 1);
            assert_eq!(spec.benchmark, Benchmark::Mrpfltr);
            assert_eq!(spec.priority, Priority::High);
        }
        other => panic!("expected AtCapacity, got {other}"),
    }
    // Retry the very spec the error handed back, on the blocking path.
    let retried = service
        .submit_blocking(rejection.into_spec().expect("spec returned"))
        .expect("pool alive");
    let mut seen = Vec::new();
    while let Some(result) = service.recv() {
        assert!(result.outcome.is_ok());
        seen.push(result.id);
    }
    assert!(seen.contains(&retried));
    let stats = service.finish();
    assert_eq!(stats.jobs_run, 3);
    assert_eq!(stats.rejections, 1);
}

/// A workload size outside the kernel layout is a typed rejection on
/// both submission paths, spec handed back, and leaves the pool able to
/// run valid work.
#[test]
fn invalid_workload_size_is_rejected_with_the_spec_returned() {
    let mut service = bounded_pool(1, 0);
    for n in [2, ulp_kernels::layout::MAX_N + 1] {
        for blocking in [false, true] {
            let spec = JobSpec::new(Benchmark::Sqrt32, 2, workload(n)).tenant(TenantId(5));
            let rejection = if blocking {
                service.submit_blocking(spec)
            } else {
                service.submit(spec)
            }
            .expect_err("invalid size rejected");
            assert!(rejection.to_string().contains(&format!("n = {n}")));
            match rejection {
                SubmitError::Invalid { spec, .. } => {
                    assert_eq!(spec.workload.n, n);
                    assert_eq!(spec.tenant, TenantId(5));
                }
                other => panic!("expected Invalid, got {other}"),
            }
        }
    }
    let id = service
        .submit(JobSpec::new(Benchmark::Sqrt32, 2, workload(48)))
        .expect("valid job admitted");
    let result = service.recv().expect("valid job completes");
    assert_eq!(result.id, id);
    assert!(result.outcome.is_ok());
    assert!(service.recv().is_none(), "rejections were never enqueued");
    assert_eq!(service.finish().jobs_run, 1);
}

/// Priority ordering: with one worker pinned down by a long normal job, a
/// high-priority submission must overtake an already-queued backlog of
/// low-priority jobs.
#[test]
fn high_priority_overtakes_queued_low_backlog() {
    let mut service = bounded_pool(1, 0);
    // The blocker occupies the single worker for many milliseconds while
    // the microsecond-scale submissions below pile up behind it.
    service
        .submit(JobSpec::new(Benchmark::Sqrt32, 2, workload(256)))
        .expect("unbounded queue admits");
    let quick = workload(16);
    let lows: Vec<JobId> = (0..8)
        .map(|_| {
            service
                .submit(JobSpec::new(Benchmark::Sqrt32, 2, quick.clone()).priority(Priority::Low))
                .expect("unbounded queue admits")
        })
        .collect();
    let high = service
        .submit(
            JobSpec::new(Benchmark::Sqrt32, 2, quick.clone())
                .with_sync(false)
                .priority(Priority::High),
        )
        .expect("unbounded queue admits");

    let mut order: Vec<JobId> = Vec::new();
    while let Some(result) = service.recv() {
        assert!(result.outcome.is_ok());
        order.push(result.id);
    }
    let position = |id: JobId| order.iter().position(|&x| x == id).expect("id completed");
    for &low in &lows {
        assert!(
            position(high) < position(low),
            "high-priority job must complete before every queued low job: {order:?}"
        );
    }
    service.finish();
}

/// Priority is pool-wide, not per-deque: a high-priority job pinned onto
/// one worker's deque must overtake a normal-priority backlog pinned onto
/// the *other* worker's deque — the first worker to free up has to serve
/// the High class across deques before its own normal jobs.
///
/// The scheduler guarantees *claim* order, not completion order, so the
/// test keeps worker 1 busy for the whole interesting interval: its
/// blocker (8-core full-window MRPFLTR) outlasts worker 0's short
/// blocker by an order of magnitude, so worker 0 alone claims — and
/// therefore completes — the whole quick backlog, making completion
/// order observe claim order deterministically.
#[test]
fn high_priority_is_served_pool_wide_across_deques() {
    let mut service = bounded_pool(2, 0);
    let blocker = workload(256);
    // Short blocker on worker 0, ~10x longer blocker on worker 1.
    service
        .submit(JobSpec::new(Benchmark::Sqrt32, 2, blocker.clone()).pinned(0))
        .expect("unbounded queue admits");
    service
        .submit(
            JobSpec::new(Benchmark::Mrpfltr, 8, blocker.clone())
                .with_sync(false)
                .pinned(1),
        )
        .expect("unbounded queue admits");
    let quick = workload(16);
    // The normal backlog piles onto worker 0's deque...
    let normals: Vec<JobId> = (0..6)
        .map(|_| {
            service
                .submit(JobSpec::new(Benchmark::Sqrt32, 2, quick.clone()).pinned(0))
                .expect("unbounded queue admits")
        })
        .collect();
    // ...while the lone high-priority job sits on busy worker 1's deque:
    // worker 0, freeing first, must steal it before its own normals.
    let high = service
        .submit(
            JobSpec::new(Benchmark::Sqrt32, 2, quick.clone())
                .with_sync(false)
                .priority(Priority::High)
                .pinned(1),
        )
        .expect("unbounded queue admits");

    let mut order: Vec<JobId> = Vec::new();
    while let Some(result) = service.recv() {
        assert!(result.outcome.is_ok());
        order.push(result.id);
    }
    let position = |id: JobId| order.iter().position(|&x| x == id).expect("id completed");
    for &normal in &normals {
        assert!(
            position(high) < position(normal),
            "the queued high-priority job must be claimed before normal \
             jobs queued on another deque: {order:?}"
        );
    }
    service.finish();
}

/// Deadline accounting: a run over its simulated-cycle budget is flagged
/// and counted; a generous budget and an errored job are not. The missed
/// job's budget sits exactly on the provable floor (`min_run_cycles`), so
/// it is *not* evicted — it runs, and the real run blows the budget.
#[test]
fn deadline_misses_are_flagged_and_counted() {
    let mut service = bounded_pool(1, 0);
    let w = workload(16);
    // Budget == the provable floor: feasible on paper, so the scheduler
    // runs it — and the real run (far more than one cycle per sample)
    // misses.
    let missed = service
        .submit(JobSpec::new(Benchmark::Sqrt32, 2, w.clone()).deadline_cycles(16))
        .expect("unbounded queue admits");
    // No run exhausts u64: never a miss.
    let met = service
        .submit(JobSpec::new(Benchmark::Sqrt32, 2, w.clone()).deadline_cycles(u64::MAX))
        .expect("unbounded queue admits");
    // An errored job (bad core count) has no run to miss a deadline.
    let errored = service
        .submit(JobSpec::new(Benchmark::Sqrt32, 9, w.clone()).deadline_cycles(u64::MAX))
        .expect("unbounded queue admits");

    let mut results = Vec::new();
    while let Some(result) = service.recv() {
        results.push(result);
    }
    let by_id = |id: JobId| results.iter().find(|r| r.id == id).expect("completed");
    assert!(by_id(missed).deadline_missed);
    assert!(by_id(missed).outcome.is_ok(), "missed jobs still complete");
    assert!(!by_id(met).deadline_missed);
    assert!(!by_id(errored).deadline_missed);
    assert!(by_id(errored).outcome.is_err());

    let stats = service.finish();
    assert_eq!(stats.deadline_misses, 1);
    assert_eq!(stats.evictions, 0, "all budgets were >= the floor");
}

/// Deadline eviction: a queued job whose budget is provably infeasible
/// (below `min_run_cycles`) never runs — it comes back as a typed
/// `JobError::Evicted` with zero run time, counted in the stats, and
/// does not hold the worker.
#[test]
fn infeasible_deadline_evicts_instead_of_running() {
    let mut service = bounded_pool(1, 0);
    let w = workload(16);
    let feasible = service
        .submit(JobSpec::new(Benchmark::Sqrt32, 2, w.clone()))
        .expect("unbounded queue admits");
    // Budget 4 < the 16-cycle floor of a 16-sample workload.
    let doomed_spec = JobSpec::new(Benchmark::Sqrt32, 2, w.clone()).deadline_cycles(4);
    assert_eq!(doomed_spec.min_run_cycles(), 16);
    let doomed = service.submit(doomed_spec).expect("unbounded queue admits");

    let mut results = Vec::new();
    while let Some(result) = service.recv() {
        results.push(result);
    }
    let by_id = |id: JobId| results.iter().find(|r| r.id == id).expect("completed");
    assert!(by_id(feasible).outcome.is_ok());
    let evicted = by_id(doomed);
    assert_eq!(evicted.run_time, std::time::Duration::ZERO);
    assert!(!evicted.deadline_missed, "evictions are not misses");
    match &evicted.outcome {
        Err(JobError::Evicted {
            deadline_cycles,
            min_cycles,
        }) => {
            assert_eq!(*deadline_cycles, 4);
            assert_eq!(*min_cycles, 16);
        }
        other => panic!("expected an eviction, got {other:?}"),
    }
    assert!(evicted.outcome.as_ref().err().unwrap().is_eviction());

    let stats = service.finish();
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.deadline_misses, 0);
    assert_eq!(stats.jobs_run, 1, "the evicted job never executed");
    assert_eq!(
        stats.latency.samples, 1,
        "evicted jobs do not pollute the latency distribution"
    );
}

/// Tenant quotas bound admission: with the single worker pinned down, a
/// tenant at its quota is rejected with `QuotaExceeded` (spec returned),
/// while other tenants keep submitting — and the slot frees once the
/// tenant's jobs complete.
#[test]
fn quota_is_enforced_at_admission_and_freed_on_completion() {
    let polite = TenantId(1);
    let greedy = TenantId(2);
    let mut service = SimService::start(
        ServiceConfig::builder()
            .workers(1)
            .tenant(greedy, TenantPolicy::quota(3))
            .build(),
    );
    // Pin the worker down so nothing drains while we probe admission.
    service
        .submit(JobSpec::new(Benchmark::Mrpfltr, 8, workload(256)).tenant(polite))
        .expect("no quota for the polite tenant");
    let quick = workload(16);
    for _ in 0..3 {
        service
            .submit(JobSpec::new(Benchmark::Sqrt32, 2, quick.clone()).tenant(greedy))
            .expect("under quota");
    }
    let over = service
        .submit(JobSpec::new(Benchmark::Sqrt32, 2, quick.clone()).tenant(greedy))
        .expect_err("fourth in-flight job breaches quota 3");
    match &over {
        SubmitError::QuotaExceeded {
            tenant,
            quota,
            spec,
        } => {
            assert_eq!(*tenant, greedy);
            assert_eq!(*quota, 3);
            assert_eq!(spec.benchmark, Benchmark::Sqrt32);
        }
        other => panic!("expected QuotaExceeded, got {other}"),
    }
    // Other tenants are unaffected by the greedy tenant's quota.
    service
        .submit(JobSpec::new(Benchmark::Sqrt32, 2, quick.clone()).tenant(polite))
        .expect("polite tenant admits fine");
    // The blocking path parks on the quota and resumes as completions
    // free slots — the retried spec must eventually land.
    let retried = service
        .submit_blocking(over.into_spec().expect("spec returned"))
        .expect("pool alive");
    let mut received = Vec::new();
    while let Some(result) = service.recv() {
        assert!(result.outcome.is_ok());
        received.push(result.id);
    }
    assert!(received.contains(&retried));
    assert_eq!(received.len(), 6);

    let stats = service.finish();
    assert_eq!(stats.quota_rejections, 1);
    assert_eq!(stats.rejections, 0, "no capacity bound was configured");
    let greedy_stats = stats.tenant(greedy).expect("greedy tenant has stats");
    assert!(
        greedy_stats.peak_admitted <= 3,
        "quota was never breached: peak {}",
        greedy_stats.peak_admitted
    );
    assert_eq!(greedy_stats.latency.samples, 4);
    assert_eq!(
        stats.tenant(polite).expect("polite stats").latency.samples,
        2
    );
}

/// Per-priority and per-tenant latency distributions are populated and
/// consistent with the pooled aggregate.
#[test]
fn latency_fields_match_the_aggregate_distribution() {
    let mut service = bounded_pool(2, 0);
    let w = workload(16);
    let tenant_a = TenantId(10);
    let tenant_b = TenantId(11);
    for i in 0..8 {
        let spec = JobSpec::new(Benchmark::Sqrt32, 2, w.clone())
            .with_sync(i % 2 == 0)
            .priority(if i < 2 {
                Priority::High
            } else {
                Priority::Normal
            })
            .tenant(if i % 2 == 0 { tenant_a } else { tenant_b });
        service.submit(spec).expect("unbounded queue admits");
    }
    let mut latencies = Vec::new();
    while let Some(result) = service.recv() {
        assert!(result.outcome.is_ok());
        assert!(result.run_time > std::time::Duration::ZERO);
        assert_eq!(result.latency(), result.queue_wait + result.run_time);
        latencies.push(result.latency());
    }
    let stats = service.finish();
    assert_eq!(stats.latency.samples, 8);
    assert!(stats.latency.p50 <= stats.latency.p95);
    assert!(stats.latency.p95 <= stats.latency.max);
    // The aggregate max is exactly the worst per-result latency (both are
    // computed from the same recorded samples).
    assert_eq!(stats.latency.max, latencies.iter().copied().max().unwrap());
    // Per-priority rows partition the aggregate.
    assert_eq!(stats.priority_latency(Priority::High).samples, 2);
    assert_eq!(stats.priority_latency(Priority::Normal).samples, 6);
    assert_eq!(stats.priority_latency(Priority::Low).samples, 0);
    // Per-tenant rows partition it too, and no row's max exceeds the
    // pooled max.
    assert_eq!(stats.per_tenant.len(), 2);
    let a = stats.tenant(tenant_a).expect("tenant A has stats");
    let b = stats.tenant(tenant_b).expect("tenant B has stats");
    assert_eq!(a.latency.samples + b.latency.samples, 8);
    assert!(a.latency.max <= stats.latency.max);
    assert!(b.latency.max <= stats.latency.max);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under random pool shapes, queue bounds, tenant quotas, priorities,
    /// pins and submit/submit_blocking interleavings from 2–4 tenants,
    /// the service neither loses nor duplicates jobs (the set of received
    /// ids is exactly the set of accepted ids), never admits a tenant
    /// beyond its quota (checked against the pool's own high-water mark),
    /// and the rejection counters agree with what the client saw.
    #[test]
    fn random_multi_tenant_interleavings_preserve_jobs_and_quotas(
        workers in 1usize..4,
        capacity in 0usize..5,
        quotas in prop::collection::vec(0usize..5, 2..=4),
        ops in prop::collection::vec(
            // (cores selector, priority selector, pin selector,
            //  tenant selector, use the non-blocking path)
            (0usize..3, 0usize..3, 0usize..5, 0usize..4, 0usize..2),
            1..24,
        ),
    ) {
        let mut config = ServiceConfig::builder()
            .workers(workers)
            .queue_capacity(capacity);
        for (i, &quota) in quotas.iter().enumerate() {
            config = config.tenant(
                TenantId(i as u32),
                TenantPolicy::quota(quota).with_weight(1 + i as u32),
            );
        }
        let mut service = SimService::start(config.build());
        let w = workload(16);
        let mut accepted: Vec<JobId> = Vec::new();
        let mut at_capacity = 0u64;
        let mut over_quota = 0u64;
        for &(cores_sel, prio_sel, pin_sel, tenant_sel, non_blocking) in &ops {
            let tenant = TenantId((tenant_sel % quotas.len()) as u32);
            let mut spec = JobSpec::new(Benchmark::Sqrt32, [1, 2, 4][cores_sel], w.clone())
                .with_sync(cores_sel == 0)
                .priority([Priority::High, Priority::Normal, Priority::Low][prio_sel])
                .tenant(tenant);
            if pin_sel < 4 {
                // Deliberately allowed to exceed the pool size (clamped).
                spec = spec.pinned(pin_sel);
            }
            if non_blocking == 1 {
                match service.submit(spec) {
                    Ok(id) => accepted.push(id),
                    Err(SubmitError::AtCapacity { .. }) => at_capacity += 1,
                    Err(SubmitError::QuotaExceeded { tenant: t, .. }) => {
                        prop_assert_eq!(t, tenant);
                        over_quota += 1;
                    }
                    Err(SubmitError::PoolDead) => panic!("pool died"),
                    Err(err @ SubmitError::Invalid { .. }) => panic!("{err}"),
                }
            } else {
                accepted.push(service.submit_blocking(spec).expect("pool alive"));
            }
        }
        let mut received: Vec<JobId> = Vec::new();
        while let Some(result) = service.recv() {
            prop_assert!(result.outcome.is_ok());
            received.push(result.id);
        }
        received.sort_unstable();
        // `accepted` is already sorted: ids are assigned in submission
        // order. Equality means no job lost, none duplicated.
        prop_assert_eq!(&received, &accepted);
        let stats = service.finish();
        prop_assert_eq!(stats.jobs_run, accepted.len() as u64);
        prop_assert_eq!(stats.rejections, at_capacity);
        prop_assert_eq!(stats.quota_rejections, over_quota);
        prop_assert_eq!(stats.latency.samples, accepted.len() as u64);
        // The pool's own high-water marks prove no quota was ever
        // breached, even transiently.
        for (i, &quota) in quotas.iter().enumerate() {
            if quota == 0 {
                continue; // unlimited
            }
            if let Some(t) = stats.tenant(TenantId(i as u32)) {
                prop_assert!(
                    t.peak_admitted <= quota as u64,
                    "tenant {} peaked at {} > quota {}",
                    i, t.peak_admitted, quota
                );
            }
        }
        // Per-tenant completion counts partition the total.
        let tenant_total: u64 = stats.per_tenant.iter().map(|t| t.latency.samples).sum();
        prop_assert_eq!(tenant_total, accepted.len() as u64);
    }
}
