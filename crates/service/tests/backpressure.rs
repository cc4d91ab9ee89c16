//! Integration tests of the submission path: bounded queues with
//! explicit backpressure (typed `SubmitError` rejection, blocking
//! `submit_blocking` with a watermark), per-job latency, and a property
//! test that random submit interleavings under bounded queues never lose
//! or duplicate a job.

use proptest::prelude::*;
use std::sync::Arc;
use ulp_kernels::{Benchmark, WorkloadConfig};
use ulp_service::{JobId, JobSpec, ServiceConfig, SimService, SubmitError};

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
    let spec = JobSpec::new(Benchmark::Mrpfltr, 2, w.clone()).checkpoint_every(1000);
    let rejection = service
        .submit(spec)
        .expect_err("queue of capacity 1 is full");
    match &rejection {
        SubmitError::AtCapacity { capacity, spec } => {
            assert_eq!(*capacity, 1);
            assert_eq!(spec.benchmark, Benchmark::Mrpfltr);
            assert_eq!(spec.checkpoint_every, Some(1000));
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
            let spec = JobSpec::new(Benchmark::Sqrt32, 2, workload(n)).pinned(5);
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
                    assert_eq!(spec.affinity, Some(5));
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

/// The pooled latency distribution is populated and consistent with the
/// per-result latencies.
#[test]
fn latency_fields_match_the_aggregate_distribution() {
    let mut service = bounded_pool(2, 0);
    let w = workload(16);
    for i in 0..8 {
        let spec = JobSpec::new(Benchmark::Sqrt32, 2, w.clone()).with_sync(i % 2 == 0);
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under random pool shapes (1–3 workers), queue bounds (0–4, 0 =
    /// unbounded), pins and submit/submit_blocking interleavings, the
    /// service neither loses nor duplicates jobs (the set of received ids
    /// is exactly the set of accepted ids), and the rejection counter
    /// agrees with what the client saw.
    #[test]
    fn random_interleavings_preserve_jobs(
        workers in 1usize..4,
        capacity in 0usize..5,
        ops in prop::collection::vec(
            // (cores selector, pin selector, use the non-blocking path)
            (0usize..3, 0usize..5, 0usize..2),
            1..24,
        ),
    ) {
        let mut service = bounded_pool(workers, capacity);
        let w = workload(16);
        let mut accepted: Vec<JobId> = Vec::new();
        let mut at_capacity = 0u64;
        for &(cores_sel, pin_sel, non_blocking) in &ops {
            let mut spec = JobSpec::new(Benchmark::Sqrt32, [1, 2, 4][cores_sel], w.clone())
                .with_sync(cores_sel == 0);
            if pin_sel < 4 {
                // Deliberately allowed to exceed the pool size (clamped).
                spec = spec.pinned(pin_sel);
            }
            if non_blocking == 1 {
                match service.submit(spec) {
                    Ok(id) => accepted.push(id),
                    Err(SubmitError::AtCapacity { .. }) => at_capacity += 1,
                    Err(err) => panic!("{err}"),
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
        prop_assert_eq!(stats.latency.samples, accepted.len() as u64);
    }
}
