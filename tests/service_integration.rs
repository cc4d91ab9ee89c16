//! End-to-end smoke of the batch simulation service through the
//! `ulp_lockstep` facade: submit a small mixed grid, stream results back,
//! and check the scheduling counters.

use std::sync::Arc;
use ulp_lockstep::kernels::{Benchmark, WorkloadConfig};
use ulp_lockstep::service::{JobSpec, ServiceConfig, SimService, SubmitError};

#[test]
fn facade_service_streams_a_mixed_grid() {
    let workload = Arc::new(WorkloadConfig::quick_test());
    let mut service = SimService::start(ServiceConfig::builder().workers(2).build());
    for &(with_sync, cores) in &[(true, 2), (false, 2), (true, 8), (true, 2)] {
        service
            .submit(JobSpec::new(Benchmark::Sqrt32, cores, workload.clone()).with_sync(with_sync))
            .expect("unbounded queue admits");
    }

    let mut completed = 0;
    while let Some(result) = service.recv() {
        let out = result.outcome.expect("job ran");
        out.run.verify().expect("outputs match golden model");
        completed += 1;
        // Results stream incrementally: the live counters already reflect
        // at least the jobs this client has seen finish.
        assert!(service.stats().jobs_run >= completed);
    }
    assert_eq!(completed, 4);

    let stats = service.finish();
    assert_eq!(stats.jobs_run, 4);
    assert_eq!(stats.workers, 2);
    // Which worker ran which job is scheduling-dependent, but every job
    // either built a platform or reused a cached one. (Deterministic
    // cache-hit coverage lives in the single-worker service tests.)
    assert_eq!(stats.platform_cache_hits + stats.platforms_built, 4);
    // Every completed job feeds the latency distribution.
    assert_eq!(stats.latency.samples, 4);
    assert!(stats.latency.p50 <= stats.latency.p95);
    assert!(stats.latency.p95 <= stats.latency.max);
}

/// The hardened submission path through the facade: a bounded queue fed
/// by both submission flavours — results stay bit-identical, and the
/// backpressure counters surface in the final stats.
#[test]
fn facade_bounded_queue_backpressure_round_trip() {
    let workload = Arc::new(WorkloadConfig::quick_test());
    let mut service = SimService::start(
        ServiceConfig::builder()
            .workers(2)
            .queue_capacity(2)
            .build(),
    );
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for i in 0..16 {
        let spec = JobSpec::new(Benchmark::Sqrt32, 2, workload.clone()).with_sync(i % 4 == 0);
        if i % 2 == 0 {
            // The blocking path throttles instead of rejecting.
            service.submit_blocking(spec).expect("pool alive");
            accepted += 1;
        } else {
            match service.submit(spec) {
                Ok(_) => accepted += 1,
                Err(SubmitError::AtCapacity { capacity, .. }) => {
                    assert_eq!(capacity, 2);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
    }
    let mut completed = 0u64;
    while let Some(result) = service.recv() {
        let out = result.outcome.expect("job ran");
        out.run.verify().expect("outputs match golden model");
        completed += 1;
    }
    assert_eq!(completed, accepted);
    let stats = service.finish();
    assert_eq!(stats.jobs_run, accepted);
    assert_eq!(stats.rejections, rejected);
    assert_eq!(stats.latency.samples, accepted);
}
