//! Batch simulation service demo: submit a mixed-size grid of benchmark
//! jobs to a [`SimService`] worker pool and consume the results as a
//! stream, then drive a *bounded* pool to saturation to show explicit
//! backpressure — `AtCapacity` rejections, retry-after-drain handling
//! and the latency percentiles the service accumulates.
//!
//! ```sh
//! cargo run --release --example batch_service
//! ```
//!
//! The grid is deliberately lopsided — cheap 2-core cells next to 8-core
//! cells — which is exactly the shape the service's half-batch work
//! stealing exists for: a worker that finishes its small cells early
//! steals the older half of a busy worker's backlog instead of idling.
//!
//! CI runs this example as its backpressure smoke: the `saturation:` line
//! must report at least one rejection with every accepted job completing.

use std::sync::Arc;
use ulp_lockstep::kernels::{Benchmark, WorkloadConfig};
use ulp_lockstep::service::{JobSpec, ServiceConfig, SimService};
use ulp_lockstep::telemetry::Telemetry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    streaming_grid_demo()?;
    saturation_demo()
}

/// Part 1: the streaming mixed grid from the service's happy path, with
/// a live telemetry handle.
fn streaming_grid_demo() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Arc::new(WorkloadConfig::quick_test());
    // An enabled handle traces every job's lifecycle into the sink's
    // event store; `telemetry.chrome_trace()` would render them as a
    // Perfetto-loadable file (the sweep bin exposes that as
    // `--trace-out`). The default is `Telemetry::disabled()` — zero cost.
    let telemetry = Telemetry::enabled();
    let mut service = SimService::start(
        ServiceConfig::builder()
            .workers(4)
            .telemetry(telemetry.clone())
            .build(),
    );

    // A mixed-size grid: every benchmark, both designs, small and large
    // platforms interleaved.
    let mut submitted = 0;
    for benchmark in Benchmark::ALL {
        for with_sync in [true, false] {
            for cores in [2, 8] {
                service.submit(
                    JobSpec::new(benchmark, cores, workload.clone()).with_sync(with_sync),
                )?;
                submitted += 1;
            }
        }
    }
    println!(
        "submitted {submitted} jobs to {} workers",
        service.workers()
    );
    println!();

    // Results stream back in completion order, not submission order.
    while let Some(result) = service.recv() {
        let output = result.outcome?;
        output.run.verify()?;
        println!(
            "job {:>2} on worker {}{}: {:<7} {:<8} {} cores  {:>8} cycles  {:.2} ops/cycle  \
             wait {:>7.1?}  run {:>7.1?}",
            result.id,
            result.worker,
            if result.stolen {
                " (stolen)"
            } else {
                "         "
            },
            output.run.benchmark.name(),
            if output.run.with_sync {
                "sync"
            } else {
                "baseline"
            },
            output.cores,
            output.run.stats.cycles,
            output.run.stats.ops_per_cycle(),
            result.queue_wait,
            result.run_time,
        );
    }

    let stats = service.finish();
    println!();
    println!(
        "service: {} jobs on {} workers in {:.2} s — {} steals ({} jobs moved, max batch {}), \
         {} platform-cache hits, {} platforms built",
        stats.jobs_run,
        stats.workers,
        stats.wall.as_secs_f64(),
        stats.steals,
        stats.jobs_stolen,
        stats.steal_batch_max,
        stats.platform_cache_hits,
        stats.platforms_built,
    );
    let events = telemetry.events().len();
    println!(
        "telemetry: {events} lifecycle events across {} tracks ({} dropped), \
         trace JSON is {} bytes",
        telemetry.track_count(),
        telemetry.dropped(),
        telemetry.chrome_trace().len(),
    );
    Ok(())
}

/// Part 2: a deliberately tiny bounded queue fed far more jobs than it
/// can hold. `submit` returns [`SubmitError::AtCapacity`] carrying the
/// spec back — this demo counts the rejections and retries each rejected
/// spec once after draining a result (the other standard moves: drop it,
/// or fall back to the blocking `submit_blocking`).
fn saturation_demo() -> Result<(), Box<dyn std::error::Error>> {
    // A heavier workload so the single worker is the bottleneck and the
    // queue really saturates while the submission loop runs.
    let workload = Arc::new(WorkloadConfig {
        n: 128,
        ..WorkloadConfig::quick_test()
    });
    let capacity = 2;
    let mut service = SimService::start(
        ServiceConfig::builder()
            .workers(1)
            .queue_capacity(capacity)
            .build(),
    );

    println!();
    println!(
        "saturating a bounded queue: capacity {capacity}, {} worker",
        service.workers()
    );

    let attempts = 32;
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut completed = 0u64;
    for i in 0..attempts {
        let spec = JobSpec::new(Benchmark::Sqrt32, 2, workload.clone()).with_sync(i % 2 == 0);
        match service.submit(spec) {
            Ok(_) => accepted += 1,
            Err(error) => {
                rejected += 1;
                // Backpressure handling: drain one result (blocking), then
                // retry the returned spec once — it may be rejected again
                // if the queue refilled, in which case it is dropped.
                if let Some(result) = service.recv() {
                    result.outcome?.run.verify()?;
                    completed += 1;
                }
                let spec = error
                    .into_spec()
                    .expect("capacity rejections carry the spec");
                if service.submit(spec).is_ok() {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
    }
    // Drain everything that was accepted.
    while let Some(result) = service.recv() {
        result.outcome?.run.verify()?;
        completed += 1;
    }

    let stats = service.finish();
    assert_eq!(stats.rejections, rejected, "the pool counts what we saw");
    assert_eq!(completed, accepted, "every accepted job completes");
    // CI parses this line: rejections must be observed and every accepted
    // job must come back.
    println!("saturation: attempts={attempts} accepted={accepted} rejected={rejected} completed={completed}");
    println!(
        "latency: p50 {:?}, p95 {:?}, max {:?} over {} jobs",
        stats.latency.p50, stats.latency.p95, stats.latency.max, stats.latency.samples,
    );
    Ok(())
}
