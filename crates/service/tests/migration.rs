//! Mid-run migration of checkpointable jobs: a worker lost mid-shard
//! hands its in-flight run to the survivors through the job's latest
//! checkpoint, and a long run parks at a checkpoint to let urgent work
//! overtake it — in both cases the final result (statistics, outputs,
//! observer artifacts) is bit-identical to an undisturbed run, and
//! latency/tenant attribution follows the *job*, not the workers it
//! visited.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};
use ulp_kernels::{run_benchmark, Benchmark, WorkloadConfig};
use ulp_service::{
    JobArtifacts, JobSpec, ObserverSelection, Priority, ServiceConfig, SimService, TenantId,
};
use ulp_telemetry::Telemetry;

/// A run long enough (full 256-sample MRPFLTR on 8 cores — many
/// milliseconds of wall time) that checkpoints, failure injection and
/// preemption all land mid-run with wide margins.
fn long_workload() -> Arc<WorkloadConfig> {
    let mut w = WorkloadConfig::quick_test();
    w.n = 256;
    Arc::new(w)
}

/// The selected observer's artifact for an MRPFLTR job on `workload`,
/// run without a checkpoint cadence on a fresh pool: what a migrated run
/// must reproduce byte for byte.
fn unmigrated_artifacts(
    workload: &Arc<WorkloadConfig>,
    observers: &ObserverSelection,
) -> JobArtifacts {
    let mut service = SimService::start(ServiceConfig::builder().workers(1).build());
    service
        .submit(JobSpec::new(Benchmark::Mrpfltr, 8, workload.clone()).observers(observers.clone()))
        .expect("admits");
    let result = service.recv().expect("reference job completes");
    service.finish();
    result.outcome.expect("reference job runs").artifacts
}

/// Kill a worker mid-shard: its partially-run job re-queues from the
/// last checkpoint and the surviving worker finishes it bit-identically —
/// including the attached observer's artifact, which must equal the one
/// the same job produces without a cadence. Also pins down satellite
/// attribution semantics: the migrated job completes on a different
/// worker than it started on, yet every latency sample and tenant row is
/// recorded exactly once, under the job's own tenant and priority. The
/// pool runs with telemetry on, and its death, migration and checkpoint
/// counters must equal the exported `service_<field>` metrics.
fn injected_failure_migrates_bit_identically(
    workload: Arc<WorkloadConfig>,
    observers: ObserverSelection,
) {
    let golden = run_benchmark(Benchmark::Mrpfltr, true, &workload).expect("golden run");
    let reference = unmigrated_artifacts(&workload, &observers);
    assert_eq!(reference.kind(), observers.artifact_kind());
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
    let spec = |tenant, priority| {
        JobSpec::new(Benchmark::Mrpfltr, 8, workload.clone())
            .tenant(tenant)
            .priority(priority)
            .checkpoint_every(every)
            .observers(observers.clone())
    };
    service
        .submit(spec(TenantId(7), Priority::Low).pinned(0))
        .expect("admits");
    service
        .submit(spec(TenantId(3), Priority::Normal).pinned(1))
        .expect("admits");

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
        // The observer state survived the park/resume round trip inside
        // the checkpoint.
        assert!(
            out.artifacts == reference,
            "{} artifact differs from the unmigrated run",
            reference.kind()
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
    // Attribution follows the job: one sample per job, under the job's
    // own tenant and priority, no matter how many workers ran it.
    assert_eq!(stats.latency.samples, 2);
    assert_eq!(stats.tenant(TenantId(7)).expect("row").latency.samples, 1);
    assert_eq!(stats.tenant(TenantId(3)).expect("row").latency.samples, 1);
    assert_eq!(
        stats.tenant(migrated.tenant).expect("row").latency.samples,
        1
    );
    assert_eq!(stats.per_priority[Priority::Low.index()].samples, 1);
    assert_eq!(stats.per_priority[Priority::Normal.index()].samples, 1);
    assert_eq!(stats.per_priority[Priority::High.index()].samples, 0);
    common::assert_stats_match_registry(&stats, &telemetry);
}

#[test]
fn injected_worker_failure_migrates_in_flight_job_bit_identically() {
    injected_failure_migrates_bit_identically(
        long_workload(),
        ObserverSelection::BankHeatMap { window: 4096 },
    );
}

/// VCD jobs migrate like any other: the tracer's text rides in the
/// checkpoint, so the resumed dump has no seam. A shorter recording
/// keeps the dump (every PC and phase change of 8 cores) small.
#[test]
fn injected_worker_failure_migrates_vcd_job_bit_identically() {
    let mut workload = WorkloadConfig::quick_test();
    workload.n = 64;
    injected_failure_migrates_bit_identically(Arc::new(workload), ObserverSelection::Vcd);
}

/// A queued High job preempts a long migratable run at its next
/// checkpoint: the single worker parks the run, serves the urgent job
/// first, then resumes the parked run from its checkpoint — and the
/// resumed run is still bit-identical to the golden uninterrupted one.
#[test]
fn queued_high_job_preempts_migratable_run_at_a_checkpoint() {
    let workload = long_workload();
    let golden = run_benchmark(Benchmark::Mrpfltr, true, &workload).expect("golden run");
    // Fine cadence: the first checkpoint lands ~2% into the run, leaving
    // the rest of the run for the preemption to interrupt.
    let every = (golden.stats.cycles / 50).max(1);

    let mut service = SimService::start(ServiceConfig::builder().workers(1).build());
    let low = service
        .submit(JobSpec::new(Benchmark::Mrpfltr, 8, workload.clone()).checkpoint_every(every))
        .expect("admits");
    // Wait until the run is demonstrably under way (it has checkpointed
    // at least once), then submit the urgent job.
    let deadline = Instant::now() + Duration::from_secs(60);
    while service.stats().checkpoints_taken == 0 {
        assert!(Instant::now() < deadline, "first checkpoint never arrived");
        std::thread::yield_now();
    }
    let high = service
        .submit(
            JobSpec::new(Benchmark::Sqrt32, 2, Arc::new(WorkloadConfig::quick_test()))
                .priority(Priority::High),
        )
        .expect("admits");

    let first = service.recv().expect("first completion");
    let second = service.recv().expect("second completion");
    assert_eq!(first.id, high, "the urgent job overtakes the parked run");
    assert_eq!(second.id, low, "the parked run completes after it");
    assert!(
        second.migrations >= 1,
        "the long run was parked at least once"
    );
    let out = second.outcome.expect("resumed run completes");
    assert_eq!(
        out.run.stats, golden.stats,
        "bit-identical despite the park"
    );
    assert_eq!(out.run.outputs, golden.outputs);

    let stats = service.finish();
    assert!(stats.jobs_migrated >= 1);
    assert_eq!(stats.workers_died, 0, "cooperative parking kills no worker");
}

/// An undisturbed checkpointable job — no failure, no urgent traffic —
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
