//! Latency benchmark of the batch simulation service: drive a *bounded*
//! [`SimService`] to saturation with a mixed-size grid and record the
//! end-to-end latency distribution (queue wait + run time) the pool's own
//! [`ServiceStats`] report. This tracks what one job *feels*: the p50
//! tells the common case, the p95 the tail that determines usable
//! capacity under sustained traffic.
//!
//! The quantity reported is the per-job latency percentile, which only
//! the service itself can attribute (queue wait is accumulated inside
//! the pool). A report, not a gate: an absolute latency means something
//! only on the machine that measured it. `ULP_BENCH_QUICK=1` runs fewer
//! jobs (CI sizing).

use std::sync::Arc;
use std::time::Duration;
use ulp_kernels::{Benchmark, WorkloadConfig};
use ulp_service::{JobSpec, ServiceConfig, SimService};

/// Workers in the pool; small so queueing (not just run time) is visible.
const WORKERS: usize = 2;

/// Queue bound: deep enough to keep every worker busy, shallow enough
/// that the blocking submit path is really exercised at saturation.
const QUEUE_CAPACITY: usize = 8;

/// The smallest workload the kernels support, so per-job latency is
/// dominated by service mechanics plus a short simulation — the shape of
/// a real-time per-window analysis job, not an offline batch.
fn tiny_workload() -> Arc<WorkloadConfig> {
    let mut w = WorkloadConfig::quick_test();
    w.n = 16;
    Arc::new(w)
}

/// One mixed-grid job: mostly cheap 2-core cells with a heavier 8-core
/// cell every third job, alternating designs.
fn spec(i: usize, workload: &Arc<WorkloadConfig>) -> JobSpec {
    let cores = if i.is_multiple_of(3) { 8 } else { 2 };
    JobSpec::new(Benchmark::Sqrt32, cores, workload.clone()).with_sync(i.is_multiple_of(2))
}

fn as_us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let jobs: usize = if ulp_bench::quick_mode() { 72 } else { 288 };
    let workload = tiny_workload();

    let mut service = SimService::start(
        ServiceConfig::builder()
            .workers(WORKERS)
            .queue_capacity(QUEUE_CAPACITY)
            .build(),
    );
    // Warm the platform caches first so the measured distribution reflects
    // steady-state traffic, not the one-off platform constructions.
    for i in 0..(WORKERS * 2) {
        service
            .submit_blocking(spec(i, &workload))
            .expect("pool alive");
    }
    let mut warmed = 0;
    while warmed < WORKERS * 2 {
        service.recv().expect("warm-up job completes");
        warmed += 1;
    }
    let warm_samples = service.stats().latency.samples;

    // Saturate: the blocking submit path throttles this loop to the
    // workers' claim rate once the backlog hits capacity, so the queue
    // stays at the watermark and queue wait is a real component of every
    // job's latency.
    let mut completed = 0u64;
    for i in 0..jobs {
        service
            .submit_blocking(spec(i, &workload))
            .expect("pool alive");
        // Drain opportunistically so the result channel never balloons.
        while let Some(result) = service.try_recv() {
            result.outcome.expect("job runs");
            completed += 1;
        }
    }
    while let Some(result) = service.recv() {
        result.outcome.expect("job runs");
        completed += 1;
    }
    assert_eq!(completed, jobs as u64, "every submitted job completes");

    let stats = service.finish();
    assert_eq!(stats.latency.samples, warm_samples + jobs as u64);
    assert_eq!(stats.rejections, 0, "the blocking path never rejects");

    println!(
        "service_latency: {} jobs on {} workers (queue capacity {}): \
         p50 {:.1} us, p95 {:.1} us, max {:.1} us ({} steal events)",
        jobs,
        stats.workers,
        QUEUE_CAPACITY,
        as_us(stats.latency.p50),
        as_us(stats.latency.p95),
        as_us(stats.latency.max),
        stats.steals,
    );
}
