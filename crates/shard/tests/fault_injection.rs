//! Fault injection on a sharded recording: a worker lost mid-shard hands
//! its shard to a survivor at the latest checkpoint, and the merged
//! recording is bit-identical to an undisturbed run.

use ulp_kernels::{Benchmark, WorkloadConfig};
use ulp_service::{ServiceConfig, SimService};
use ulp_shard::{merge_verified, ShardPlan, ShardRunConfig, ShardRunner};

#[test]
fn worker_killed_at_a_checkpoint_leaves_the_merged_recording_unchanged() {
    let workload = WorkloadConfig {
        n: 512,
        ..WorkloadConfig::quick_test()
    };
    let plan = ShardPlan::for_workload(Benchmark::Mrpdln, &workload, 128).unwrap();
    assert_eq!(plan.len(), 4);
    let runner = ShardRunner::new(
        ShardRunConfig::new(Benchmark::Mrpdln, true, 2, workload).with_checkpoint_every(2000),
        plan,
    )
    .unwrap();
    let undisturbed = runner.clone().run_local(2).unwrap();

    // Worker 0 parks its first shard at that shard's first checkpoint and
    // exits; worker 1 resumes the shard and finishes the recording.
    let mut service = SimService::start(ServiceConfig::builder().workers(2).build());
    service.inject_worker_failure(0);
    let migrated = runner.run(&mut service).unwrap();
    let stats = service.finish();

    let merged = merge_verified(&migrated).expect("the migrated run matches the golden pass");
    let reference = merge_verified(&undisturbed).unwrap();
    assert_eq!(merged.run.outputs, reference.run.outputs);
    assert_eq!(merged.run.stats, reference.run.stats);
    for (shard, (got, want)) in migrated.shards.iter().zip(&undisturbed.shards).enumerate() {
        assert_eq!(got.run.outputs, want.run.outputs, "shard {shard}");
        assert_eq!(got.run.stats, want.run.stats, "shard {shard}");
    }

    assert_eq!(stats.workers_died, 1);
    assert!(stats.jobs_migrated >= 1, "{} migrated", stats.jobs_migrated);
    assert!(stats.checkpoints_taken >= 1);
}
