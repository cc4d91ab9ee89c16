//! Telemetry overhead gate: the same uniform service workload timed twice
//! through one process — once with telemetry disabled (the default
//! no-op event tracks; the pool's counters live in a private registry)
//! and once with it enabled (the sink's event store and exported
//! metrics) — and gated on the *ratio* of the two, not an absolute rate.
//! The disabled path is the zero-cost claim: a single branch per event
//! record site. The enabled path is the cheap claim: a clock read and a
//! push under an uncontended lock per event, into a bounded store that
//! drops and counts rather than grows. A ratio above [`MAX_RATIO`] means
//! one of those claims broke.
//!
//! The gated quantity is a ratio of two measurements that must share a
//! process (same platform caches, same thermal state, interleaved
//! rounds). The bench prints the ratio and exits non-zero when it fails;
//! `ULP_BENCH_QUICK=1` runs fewer rounds (CI sizing).

mod common;

use std::sync::Arc;
use ulp_kernels::{Benchmark, WorkloadConfig};
use ulp_service::{JobSpec, ServiceConfig, SimService};
use ulp_telemetry::Telemetry;

/// One worker per pool: the uniform cache-hit path is deterministic, so
/// round times are tight enough to gate a 5% ratio (a mixed multi-worker
/// grid schedules nondeterministically and its ±10% round noise would
/// swamp the quantity under test — every record site fires on one worker
/// just the same).
const WORKERS: usize = 1;

/// The enabled/disabled ratio's bound: telemetry must stay within 5% of
/// the untraced pool.
const MAX_RATIO: f64 = 1.05;

/// The smallest workload the kernels support: jobs stay short, so the
/// per-job service overhead — where every telemetry record site lives —
/// is a visible fraction of the measurement.
fn tiny_workload() -> Arc<WorkloadConfig> {
    let mut w = WorkloadConfig::quick_test();
    w.n = 16;
    Arc::new(w)
}

/// The uniform grid both pools run: identical 2-core cells, so every job
/// after the first hits the platform cache and each round does the same
/// work in the same order.
fn specs(jobs: usize, workload: &Arc<WorkloadConfig>) -> Vec<JobSpec> {
    (0..jobs)
        .map(|_| JobSpec::new(Benchmark::Sqrt32, 2, workload.clone()))
        .collect()
}

/// One batch: submit every spec, stream every result back.
fn run_batch(service: &mut SimService, specs: &[JobSpec]) {
    for spec in specs {
        service
            .submit(spec.clone())
            .expect("unbounded queue admits");
    }
    for _ in 0..specs.len() {
        service
            .recv()
            .expect("job completes")
            .outcome
            .expect("job runs");
    }
}

fn main() {
    // Small batches keep each round's pair adjacent in time (machine
    // noise here drifts on ~100 ms scales, so a tight pair shares one
    // noise phase and its ratio is clean); many rounds then feed the
    // interquartile mean, which converges as 1/sqrt(rounds).
    let jobs = 8;
    let rounds = if ulp_bench::quick_mode() { 100 } else { 200 };
    let workload = tiny_workload();
    let grid = specs(jobs, &workload);

    let telemetry = Telemetry::enabled();
    let mut plain = SimService::start(ServiceConfig::builder().workers(WORKERS).build());
    let mut traced = SimService::start(
        ServiceConfig::builder()
            .workers(WORKERS)
            .telemetry(telemetry.clone())
            .build(),
    );

    // Warm both pools: platform construction is one-off and identical.
    run_batch(&mut plain, &grid);
    run_batch(&mut traced, &grid);
    let ratio = common::measure(
        rounds,
        || common::timed(|| run_batch(&mut traced, &grid)),
        || common::timed(|| run_batch(&mut plain, &grid)),
    );
    plain.finish();
    traced.finish();

    // The traced pool must actually have been tracing, or the ratio
    // gates nothing.
    let events = telemetry.events().len();
    assert!(events > 0, "enabled telemetry recorded no events");

    println!(
        "telemetry_overhead: {} jobs x {} rounds on {} workers: \
         disabled {:.3} ms, enabled {:.3} ms ({} events, {} dropped)",
        jobs,
        rounds,
        WORKERS,
        ratio.best_reference.as_secs_f64() * 1e3,
        ratio.best_subject.as_secs_f64() * 1e3,
        events,
        telemetry.dropped(),
    );
    if !common::check("telemetry_overhead", ratio.value, 0.0..=MAX_RATIO) {
        std::process::exit(1);
    }
}
