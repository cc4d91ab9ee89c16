//! Telemetry overhead gate: the same mixed service workload timed twice
//! through one process — once with telemetry disabled (the default
//! no-op event tracks; the pool's counters live in a private registry)
//! and once with it enabled (per-worker event rings and exported
//! metrics) — and gated on the *ratio* of the two, not an absolute rate.
//! The disabled path is the zero-cost claim: a single branch per event
//! record site. The enabled path is the cheap claim: bounded lock-free
//! rings that drop-and-count rather than block. A ratio above the gate's
//! tolerance means one of those claims broke.
//!
//! Not a criterion harness: the gated quantity is a ratio of two
//! measurements that must share a process (same platform caches, same
//! thermal state, interleaved rounds), so the bench writes its perf-gate
//! record directly, mirroring the criterion shim's `BENCH_*.json` format
//! with `"lower_is_better":true` and a per-record `"tolerance"`.
//!
//! Honours the shared bench environment:
//! * `ULP_BENCH_QUICK=1` — fewer rounds (CI smoke sizing).
//! * `ULP_BENCH_JSON_DIR=<dir>` — write `BENCH_telemetry_overhead_*.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};
use ulp_kernels::{Benchmark, WorkloadConfig};
use ulp_service::{JobSpec, ServiceConfig, SimService};
use ulp_telemetry::Telemetry;

/// One worker per pool: the uniform cache-hit path is deterministic, so
/// round times are tight enough to gate a 5% ratio (a mixed multi-worker
/// grid schedules nondeterministically and its ±10% round noise would
/// swamp the quantity under test — every record site fires on one worker
/// just the same).
const WORKERS: usize = 1;

/// Gate headroom for the enabled/disabled ratio: telemetry must stay
/// within 5% of the untraced pool (the acceptance bound), so the record
/// carries its own tolerance instead of the gate's 20% default.
const RATIO_TOLERANCE: f64 = 0.05;

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

/// Writes one perf-gate record, mirroring the criterion shim's escaping
/// and `BENCH_<label>.json` naming (the label is ASCII-clean, so the
/// shim's collision hash is unnecessary).
fn emit_record(dir: &std::path::Path, label: &str, value: f64, tolerance: f64) {
    let sanitized: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let record = format!(
        "{{\"label\":\"{label}\",\"value\":{value:.4},\"lower_is_better\":true,\
         \"tolerance\":{tolerance}}}\n"
    );
    let path = dir.join(format!("BENCH_{sanitized}.json"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, record)) {
        eprintln!("telemetry_overhead: cannot write {}: {e}", path.display());
    }
}

fn main() {
    let quick = std::env::var_os("ULP_BENCH_QUICK").is_some();
    // Small batches keep each round's pair adjacent in time (machine
    // noise here drifts on ~100 ms scales, so a tight pair shares one
    // noise phase and its ratio is clean); many rounds then feed the
    // trimmed mean, which converges as 1/sqrt(rounds).
    let (jobs, rounds) = if quick { (8, 100) } else { (8, 200) };
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

    // Warm both pools (platform construction is one-off and identical),
    // then measure in adjacent pairs: machine noise drifts over time, so
    // a round's plain and traced batches share the same noise phase and
    // their *ratio* is far tighter than either absolute time. The median
    // of the per-round ratios is the gated statistic — robust to the odd
    // round that caught a descheduling spike on one side.
    run_batch(&mut plain, &grid);
    run_batch(&mut traced, &grid);
    let mut best_plain = Duration::MAX;
    let mut best_traced = Duration::MAX;
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        // Alternate which pool runs first so any systematic first/second
        // position bias (cache residency, frequency ramp) cancels across
        // rounds instead of loading one side of every ratio.
        let (plain_elapsed, traced_elapsed) = if round.is_multiple_of(2) {
            let t = Instant::now();
            run_batch(&mut plain, &grid);
            let plain_elapsed = t.elapsed();
            let t = Instant::now();
            run_batch(&mut traced, &grid);
            (plain_elapsed, t.elapsed())
        } else {
            let t = Instant::now();
            run_batch(&mut traced, &grid);
            let traced_elapsed = t.elapsed();
            let t = Instant::now();
            run_batch(&mut plain, &grid);
            (t.elapsed(), traced_elapsed)
        };
        best_plain = best_plain.min(plain_elapsed);
        best_traced = best_traced.min(traced_elapsed);
        ratios.push(traced_elapsed.as_secs_f64() / plain_elapsed.as_secs_f64());
        // Drain the rings off-measurement, like a live exporter would.
        telemetry.collect();
    }
    plain.finish();
    traced.finish();
    // Interquartile mean of the per-round ratios: drops the rounds where
    // one side caught a descheduling spike, averages the stable middle.
    ratios.sort_by(|a, b| a.total_cmp(b));
    let quartile = ratios.len() / 4;
    let middle = &ratios[quartile..ratios.len() - quartile];
    let ratio = middle.iter().sum::<f64>() / middle.len() as f64;

    // The traced pool must actually have been tracing, or the ratio
    // gates nothing.
    telemetry.collect();
    let events = telemetry.events().len();
    assert!(events > 0, "enabled telemetry recorded no events");

    println!(
        "telemetry_overhead: {} jobs x {} rounds on {} workers: \
         disabled {:.3} ms, enabled {:.3} ms, ratio {:.4} ({} events, {} dropped)",
        jobs,
        rounds,
        WORKERS,
        best_plain.as_secs_f64() * 1e3,
        best_traced.as_secs_f64() * 1e3,
        ratio,
        events,
        telemetry.dropped(),
    );

    if let Some(dir) = std::env::var_os("ULP_BENCH_JSON_DIR") {
        emit_record(
            &std::path::PathBuf::from(dir),
            "telemetry_overhead/ratio",
            ratio,
            RATIO_TOLERANCE,
        );
    }
}
