//! Checkpoint overhead gate: the same uniform service workload timed
//! twice through one process — once on the plain run path (no
//! [`ulp_service::JobSpec::checkpoint_every`]) and once on the
//! checkpointed path (several mid-run platform snapshots per job) — and
//! gated on the *ratio* of the two. Checkpointing buys migratability:
//! a lost worker's job resumes on a survivor. The acceptance claim is that this costs at most 10%
//! throughput at a sane cadence, so opting shards into migration is not
//! a performance decision.
//!
//! The gated quantity is a ratio of two measurements that must share a
//! process (same platform caches, same thermal state, interleaved
//! rounds). The bench prints the ratio and exits non-zero above
//! [`MAX_RATIO`]; `ULP_BENCH_QUICK=1` runs fewer rounds (CI sizing).

mod common;

use std::sync::Arc;
use ulp_kernels::{run_benchmark_on, Benchmark, WorkloadConfig};
use ulp_platform::PlatformConfig;
use ulp_service::{JobSpec, ServiceConfig, SimService};

/// One worker per pool: the uniform cache-hit path is deterministic, so
/// round times are tight enough to gate a 10% ratio.
const WORKERS: usize = 1;

/// The acceptance bound: a checkpointed job may cost at most 10% over an
/// identical job without checkpoints.
const MAX_RATIO: f64 = 1.10;

/// Checkpoints per job: enough that the snapshot cost is really in the
/// measurement (one per job would mostly gate the cadence arithmetic),
/// few enough to model a sane migration cadence rather than a pathological
/// snapshot-every-cycle configuration.
const CHECKPOINTS_PER_JOB: u64 = 4;

/// Uniform 2-core SQRT32 jobs on the quick-test workload — long enough
/// that a per-job snapshot cadence is meaningful, identical so every job
/// after the first hits the platform cache.
fn workload() -> Arc<WorkloadConfig> {
    Arc::new(WorkloadConfig::quick_test())
}

fn specs(jobs: usize, workload: &Arc<WorkloadConfig>, every: Option<u64>) -> Vec<JobSpec> {
    (0..jobs)
        .map(|_| {
            let spec = JobSpec::new(Benchmark::Sqrt32, 2, workload.clone());
            match every {
                Some(cycles) => spec.checkpoint_every(cycles),
                None => spec,
            }
        })
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
    let jobs = 8;
    let rounds = if ulp_bench::quick_mode() { 100 } else { 200 };
    let workload = workload();
    // Cadence from the job's real cycle count — on the same 2-core
    // platform shape the jobs run on — so the checkpointed side takes
    // CHECKPOINTS_PER_JOB snapshots per job regardless of workload sizing.
    let golden = run_benchmark_on(
        Benchmark::Sqrt32,
        PlatformConfig::paper(true).with_cores(2),
        &workload,
    )
    .expect("golden run");
    let every = (golden.stats.cycles / CHECKPOINTS_PER_JOB).max(1);
    let plain_grid = specs(jobs, &workload, None);
    let ckpt_grid = specs(jobs, &workload, Some(every));

    let mut plain = SimService::start(ServiceConfig::builder().workers(WORKERS).build());
    let mut ckpt = SimService::start(ServiceConfig::builder().workers(WORKERS).build());

    // Warm both pools: platform construction is one-off and identical.
    run_batch(&mut plain, &plain_grid);
    run_batch(&mut ckpt, &ckpt_grid);
    let ratio = common::measure(
        rounds,
        || common::timed(|| run_batch(&mut ckpt, &ckpt_grid)),
        || common::timed(|| run_batch(&mut plain, &plain_grid)),
    );
    // The checkpointed pool must actually have been snapshotting, or the
    // ratio gates nothing.
    let stats = ckpt.finish();
    plain.finish();
    assert!(
        stats.checkpoints_taken >= (rounds as u64 + 1) * jobs as u64 * CHECKPOINTS_PER_JOB,
        "checkpointed pool took too few snapshots: {}",
        stats.checkpoints_taken
    );
    assert_eq!(stats.jobs_migrated, 0, "no migration traffic in this bench");

    println!(
        "checkpoint_overhead: {} jobs x {} rounds on {} workers, {} snapshots/job \
         (every {} cycles): plain {:.3} ms, checkpointed {:.3} ms",
        jobs,
        rounds,
        WORKERS,
        CHECKPOINTS_PER_JOB,
        every,
        ratio.best_reference.as_secs_f64() * 1e3,
        ratio.best_subject.as_secs_f64() * 1e3,
    );
    if !common::check("checkpoint_overhead", ratio.value, 0.0..=MAX_RATIO) {
        std::process::exit(1);
    }
}
