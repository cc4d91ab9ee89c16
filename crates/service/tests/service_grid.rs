//! Integration tests of the batch simulation service: work stealing on
//! mixed-size grids, platform-cache reuse, and bit-identical results
//! against the serial runner.

use std::sync::Arc;
use ulp_kernels::{run_benchmark_on, Benchmark, WorkloadConfig};
use ulp_platform::PlatformConfig;
use ulp_service::{JobResult, JobSpec, ServiceConfig, SimService};

fn quick() -> Arc<WorkloadConfig> {
    Arc::new(WorkloadConfig::quick_test())
}

fn drain(service: &mut SimService) -> Vec<JobResult> {
    let mut results = Vec::new();
    while let Some(result) = service.recv() {
        results.push(result);
    }
    results
}

/// A mixed-size grid — small 2-core cells next to 8-core cells — must
/// complete every job, and every result must be bit-identical to running
/// the same configuration serially through `run_benchmark_on`.
#[test]
fn mixed_size_grid_is_bit_identical_to_serial() {
    let workload = quick();
    let grid: Vec<(Benchmark, bool, usize)> = vec![
        (Benchmark::Sqrt32, true, 2),
        (Benchmark::Mrpfltr, false, 8),
        (Benchmark::Sqrt32, false, 8),
        (Benchmark::Mrpfltr, true, 2),
        (Benchmark::Sqrt32, true, 8),
        (Benchmark::Mrpfltr, false, 2),
    ];

    let mut service = SimService::start(ServiceConfig::builder().workers(2).build());
    let ids: Vec<u64> = grid
        .iter()
        .map(|&(benchmark, with_sync, cores)| {
            service
                .submit(JobSpec::new(benchmark, cores, workload.clone()).with_sync(with_sync))
                .expect("unbounded queue admits")
        })
        .collect();
    assert_eq!(ids, (0..grid.len() as u64).collect::<Vec<_>>());

    let mut results = drain(&mut service);
    assert_eq!(results.len(), grid.len(), "every job completes");
    results.sort_by_key(|r| r.id);

    for (result, &(benchmark, with_sync, cores)) in results.iter().zip(&grid) {
        let out = result.outcome.as_ref().expect("job ran");
        out.run.verify().expect("outputs match golden model");
        assert_eq!(out.run.benchmark, benchmark);
        assert_eq!(out.run.with_sync, with_sync);
        assert_eq!(out.cores, cores);
        let serial = run_benchmark_on(
            benchmark,
            PlatformConfig::paper(with_sync)
                .with_cores(cores)
                .with_max_cycles(workload.max_cycles),
            &workload,
        )
        .expect("serial run");
        assert_eq!(out.run.stats, serial.stats, "{benchmark} @ {cores} cores");
        assert_eq!(out.run.outputs, serial.outputs);
    }

    let stats = service.finish();
    assert_eq!(stats.jobs_run, grid.len() as u64);
    assert_eq!(stats.workers, 2);
    assert_eq!(
        stats.platform_cache_hits + stats.platforms_built,
        grid.len() as u64,
        "every job either built or reused a platform"
    );
}

/// Repeated jobs on one (design, cores) key must be served from the
/// worker's platform cache after the first build — and reuse must not
/// perturb the results.
#[test]
fn repeated_key_jobs_hit_the_platform_cache() {
    let workload = quick();
    let mut service = SimService::start(ServiceConfig::builder().workers(1).build());
    let plain = JobSpec::new(Benchmark::Sqrt32, 2, workload.clone());
    // The same job again on the checkpointed run path: every rerun lands
    // on the cached platform and must reproduce the first run exactly.
    let checkpointed = plain.clone().checkpoint_every(997);
    for spec in [
        &plain,
        &plain,
        &plain,
        &checkpointed,
        &checkpointed,
        &checkpointed,
    ] {
        service
            .submit(spec.clone())
            .expect("unbounded queue admits");
    }
    let results = drain(&mut service);
    assert_eq!(results.len(), 6);
    let runs: Vec<_> = results
        .iter()
        .map(|r| r.outcome.as_ref().expect("job ran"))
        .collect();
    for out in &runs {
        assert_eq!(out.run.stats, runs[0].run.stats, "reuse is deterministic");
        assert_eq!(out.run.outputs, runs[0].run.outputs);
    }
    // First job builds, the other five reuse.
    assert_eq!(results.iter().filter(|r| r.cache_hit).count(), 5);

    let stats = service.finish();
    assert_eq!(stats.jobs_run, 6);
    assert_eq!(stats.platforms_built, 1);
    assert!(
        stats.checkpoints_taken >= 3,
        "checkpointed jobs snapshot: {stats:?}"
    );
    assert!(
        stats.platform_cache_hits >= 5,
        "repeated (design, cores) jobs must hit the cache: {stats:?}"
    );
}

/// A backlog pinned entirely onto one worker's deque must be rebalanced by
/// stealing: with a second idle worker in the pool, at least one job runs
/// on a worker it was not submitted to — and steals move *half-batches*,
/// so one steal event can relocate several jobs at once.
#[test]
fn pinned_backlog_is_rebalanced_by_stealing() {
    let workload = quick();
    let jobs = 8;
    let mut service = SimService::start(ServiceConfig::builder().workers(2).build());
    for _ in 0..jobs {
        // All eight 8-core cells pile onto worker 0; worker 1 starts idle.
        service
            .submit(JobSpec::new(Benchmark::Sqrt32, 8, workload.clone()).pinned(0))
            .expect("unbounded queue admits");
    }
    let results = drain(&mut service);
    assert_eq!(results.len(), jobs, "all jobs complete");
    for result in &results {
        let out = result.outcome.as_ref().expect("job ran");
        out.run.verify().expect("stolen jobs are bit-identical too");
        // Everything was pinned to worker 0, so a job can only reach
        // worker 1 by being stolen. (The converse does not hold: a job
        // relocated by a half-batch steal stays marked stolen even if
        // worker 0 later steals it back.)
        assert!(
            result.worker == 0 || result.stolen,
            "a job on worker 1 must have been stolen: {result:?}"
        );
    }

    let stats = service.finish();
    assert_eq!(stats.jobs_run, jobs as u64);
    assert!(
        stats.steals >= 1,
        "an idle worker must steal from the pinned backlog: {stats:?}"
    );
    // Every steal event moves at least one job, and every result marked
    // stolen was relocated at least once (re-steals can double-count).
    assert!(stats.jobs_stolen >= stats.steals);
    assert!(stats.jobs_stolen >= results.iter().filter(|r| r.stolen).count() as u64);
    assert!(
        (1..=jobs as u64).contains(&stats.steal_batch_max),
        "batch sizes are bounded by the backlog: {stats:?}"
    );
    // With eight jobs piled on one deque, the first steal should take a
    // real batch, not a single job.
    assert!(
        stats.steal_batch_max >= 2,
        "half-batch stealing must move more than one job from a deep \
         pinned backlog: {stats:?}"
    );
}
