//! Mid-run migration of checkpointable jobs: a worker lost mid-shard
//! hands its in-flight run to the survivors through the job's latest
//! checkpoint — the final result (statistics, outputs, heat map) is
//! bit-identical to an undisturbed run, and latency
//! attribution follows the *job*, not the workers it visited.

mod common;

use std::sync::Arc;
use ulp_kernels::{run_benchmark, Benchmark, WorkloadConfig};
use ulp_platform::Checkpoint;
use ulp_service::{JobSpec, ServiceConfig, SimService};
use ulp_telemetry::Telemetry;

/// A run long enough (full 256-sample MRPFLTR on 8 cores — many
/// milliseconds of wall time) that checkpoints and failure injection
/// land mid-run with wide margins.
fn long_workload() -> Arc<WorkloadConfig> {
    let mut w = WorkloadConfig::quick_test();
    w.n = 256;
    Arc::new(w)
}

/// The heat map of an MRPFLTR job on `workload` in `window`-cycle rows,
/// run without a checkpoint cadence on a fresh pool: what a migrated run
/// must reproduce exactly.
fn unmigrated_heat_map(workload: &Arc<WorkloadConfig>, window: u64) -> Option<Vec<Vec<u64>>> {
    let mut service = SimService::start(ServiceConfig::builder().workers(1).build());
    service
        .submit(JobSpec::new(Benchmark::Mrpfltr, 8, workload.clone()).heat_map(window))
        .expect("admits");
    let result = service.recv().expect("reference job completes");
    service.finish();
    result.outcome.expect("reference job runs").heat_map
}

/// Kill a worker mid-shard: its partially-run job re-queues from the
/// last checkpoint and the surviving worker finishes it bit-identically —
/// including its heat map, which must equal the one the same job
/// produces without a cadence. Also pins down attribution
/// semantics: the migrated job completes on a different worker than it
/// started on, yet every latency sample is recorded exactly once. The
/// pool runs with telemetry on, and its death, migration and checkpoint
/// counters must equal the exported `service_<field>` metrics.
#[test]
fn injected_worker_failure_migrates_in_flight_job_bit_identically() {
    let workload = long_workload();
    let window = 4096;
    let golden = run_benchmark(Benchmark::Mrpfltr, true, &workload).expect("golden run");
    let reference = unmigrated_heat_map(&workload, window);
    assert!(reference.is_some(), "the reference job recorded a heat map");
    // ~4 checkpoints per run: the first park loses real progress and the
    // resumed stint still spans several checkpoint boundaries.
    let every = (golden.stats.cycles / 5).max(1);

    let telemetry = Telemetry::enabled();
    let service_config = ServiceConfig::builder()
        .workers(2)
        .telemetry(telemetry.clone())
        .build();
    let mut service = SimService::start(service_config);
    // Armed before any claim: worker 0 parks its first checkpointable
    // job at that job's first checkpoint and exits.
    service.inject_worker_failure(0);
    let spec = JobSpec::new(Benchmark::Mrpfltr, 8, workload.clone())
        .checkpoint_every(every)
        .heat_map(window);
    service.submit(spec.clone().pinned(0)).expect("admits");
    service.submit(spec.pinned(1)).expect("admits");

    let mut migrated = None;
    for _ in 0..2 {
        let result = service
            .recv()
            .expect("both jobs complete despite the killed worker");
        let out = result.outcome.as_ref().expect("job runs");
        assert_eq!(
            out.run.stats, golden.stats,
            "simulation statistics bit-identical to the golden run"
        );
        assert_eq!(out.run.outputs, golden.outputs, "outputs bit-identical");
        assert_eq!(out.run.outputs, out.run.expected, "golden model holds");
        // The heat map's state survived the park/resume round trip
        // inside the checkpoint.
        assert!(
            out.heat_map == reference,
            "heat map differs from the unmigrated run"
        );
        if result.migrations > 0 {
            migrated = Some(result);
        }
    }
    let migrated = migrated.expect("the killed worker's job was migrated");
    // Started on worker 0 (the killed one — only it parks), completed by
    // the survivor.
    assert_eq!(migrated.worker, 1, "completed by the surviving worker");

    let stats = service.finish();
    assert_eq!(stats.jobs_run, 2);
    assert_eq!(stats.workers_died, 1);
    assert!(stats.jobs_migrated >= 1, "the in-flight job re-queued");
    assert!(stats.checkpoints_taken >= 2, "both stints checkpointed");
    // Attribution follows the job: one sample per job, no matter how
    // many workers ran it.
    assert_eq!(stats.latency.samples, 2);
    common::assert_stats_match_registry(&stats, &telemetry);
}

/// An undisturbed checkpointable job — no injected failure —
/// completes in one stint with zero migrations, and its result matches
/// the golden run exactly (checkpointing is observational overhead, not
/// a behaviour change).
#[test]
fn undisturbed_checkpointable_job_never_migrates() {
    let workload = long_workload();
    let golden = run_benchmark(Benchmark::Mrpfltr, true, &workload).expect("golden run");
    let mut service = SimService::start(ServiceConfig::builder().workers(1).build());
    service
        .submit(
            JobSpec::new(Benchmark::Mrpfltr, 8, workload.clone())
                .checkpoint_every((golden.stats.cycles / 4).max(1)),
        )
        .expect("admits");
    let result = service.recv().expect("job completes");
    assert_eq!(result.migrations, 0);
    let out = result.outcome.expect("job runs");
    assert_eq!(out.run.stats, golden.stats);
    assert_eq!(out.run.outputs, golden.outputs);
    let stats = service.finish();
    assert!(stats.checkpoints_taken >= 1, "the cadence fired mid-run");
    assert_eq!(stats.jobs_migrated, 0);
    assert_eq!(stats.workers_died, 0);
}

/// Persisted checkpoints are whole blobs: after a checkpointed run with
/// a checkpoint directory, every `job-<id>.ckpt` parses and no temp file
/// of the write-then-rename is left behind.
#[test]
fn persisted_checkpoints_parse_and_leave_no_temp_files() {
    let workload = Arc::new(WorkloadConfig::quick_test());
    let golden = run_benchmark(Benchmark::Sqrt32, true, &workload).expect("golden run");
    let dir = std::env::temp_dir().join(format!("ulp-ckpt-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("checkpoint dir");
    let mut service = SimService::start(
        ServiceConfig::builder()
            .workers(2)
            .checkpoint_dir(&dir)
            .build(),
    );
    const JOBS: usize = 4;
    for _ in 0..JOBS {
        service
            .submit(
                JobSpec::new(Benchmark::Sqrt32, 2, workload.clone())
                    .checkpoint_every((golden.stats.cycles / 4).max(1)),
            )
            .expect("admits");
    }
    for _ in 0..JOBS {
        service
            .recv()
            .expect("job completes")
            .outcome
            .expect("job runs");
    }
    assert!(service.finish().checkpoints_taken >= JOBS as u64);

    let mut blobs = 0;
    for entry in std::fs::read_dir(&dir).expect("checkpoint dir lists") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.ends_with(".ckpt"), "stray file {name}");
        let blob = std::fs::read(&path).expect("blob reads");
        Checkpoint::from_bytes(&blob).expect("persisted blob parses");
        blobs += 1;
    }
    std::fs::remove_dir_all(&dir).expect("checkpoint dir removed");
    assert_eq!(blobs, JOBS, "one latest blob per job");
}
