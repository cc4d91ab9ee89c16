//! The sharding subsystem's correctness anchor: a sharded run of a long
//! synthetic ECG produces the same outputs and delineation events as one
//! oversized golden-model pass, and its aggregate statistics equal the sum
//! of the shard runs — across shard sizes and core counts.

use ulp_kernels::{golden_outputs, Benchmark, WorkloadConfig};
use ulp_shard::{
    golden_events, merge, merge_verified, required_halo, ShardPlan, ShardRunConfig, ShardRunner,
};

/// A recording ≥ 8× the paper's 256-sample window, with the quick-test
/// filter parameters so the debug-build suite stays fast.
fn long_workload(n: usize) -> WorkloadConfig {
    WorkloadConfig {
        n,
        ..WorkloadConfig::quick_test()
    }
}

fn sharded(
    benchmark: Benchmark,
    workload: &WorkloadConfig,
    cores: usize,
    samples_per_shard: usize,
) -> ulp_shard::ShardedRun {
    let plan = ShardPlan::for_workload(benchmark, workload, samples_per_shard).unwrap();
    assert!(plan.len() >= 2, "the recording must actually shard");
    ShardRunner::new(
        ShardRunConfig::new(benchmark, true, cores, workload.clone()),
        plan,
    )
    .unwrap()
    .run_local(0)
    .unwrap()
}

/// The acceptance-criterion matrix: MRPDLN over a 2048-sample recording
/// (8× the paper window), two shard sizes × two core counts, each merged
/// run bit-identical to the full-recording golden pass.
#[test]
fn mrpdln_sharded_equals_golden_across_sizes_and_cores() {
    let workload = long_workload(2048);
    for cores in [2, 4] {
        let golden = golden_outputs(Benchmark::Mrpdln, &workload, cores);
        let golden_evts = golden_events(&workload, cores);
        for samples_per_shard in [192, 288] {
            let run = sharded(Benchmark::Mrpdln, &workload, cores, samples_per_shard);
            let merged = merge_verified(&run).unwrap_or_else(|e| {
                panic!("{samples_per_shard}-sample shards on {cores} cores: {e}")
            });
            // Bit-identical stitched outputs...
            assert_eq!(merged.run.outputs, golden);
            // ...identical delineation events (and on a signal this long
            // there must be plenty)...
            let events = merged.events();
            assert_eq!(events, golden_evts, "{samples_per_shard}/{cores}");
            assert!(
                events.len() >= 2 * cores,
                "only {} events over 2048 samples × {cores} channels",
                events.len()
            );
            // ...and aggregate counters equal to the sum of the shards.
            assert_eq!(
                merged.run.stats.cycles,
                merged.shard_cycles.iter().sum::<u64>()
            );
            let (mut cycles, mut ops, mut im, mut dm) = (0, 0, 0, 0);
            for out in &run.shards {
                cycles += out.run.stats.cycles;
                ops += out.run.stats.useful_ops();
                im += out.run.stats.im.total_accesses();
                dm += out.run.stats.dm.total_accesses();
            }
            assert_eq!(merged.run.stats.cycles, cycles);
            assert_eq!(merged.run.stats.useful_ops(), ops);
            assert_eq!(merged.run.stats.im.total_accesses(), im);
            assert_eq!(merged.run.stats.dm.total_accesses(), dm);
            // The op-weighted fold of per-shard activity equals the
            // activity of the summed statistics (up to fp rounding).
            let folded = merged.activity();
            let summed = ulp_power::Activity::from_stats(&merged.run.stats);
            assert!((folded.ops_per_cycle - summed.ops_per_cycle).abs() < 1e-9);
            assert!((folded.im_accesses - summed.im_accesses).abs() < 1e-9);
            assert!((folded.dm_accesses - summed.dm_accesses).abs() < 1e-9);
            assert!((folded.core_active - summed.core_active).abs() < 1e-9);
        }
    }
}

/// MRPFLTR has the widest dependency radius of the three benchmarks; its
/// merged output must still match the full pass sample for sample.
#[test]
fn mrpfltr_sharded_equals_golden() {
    let workload = long_workload(900);
    let run = sharded(Benchmark::Mrpfltr, &workload, 2, 250);
    let merged = merge_verified(&run).unwrap();
    assert_eq!(
        merged.run.outputs,
        golden_outputs(Benchmark::Mrpfltr, &workload, 2)
    );
    assert!(merged.events().is_empty(), "events are MRPDLN-only");
}

/// SQRT32 is point-wise (zero halo): shards merge exactly even with no
/// overlap at all.
#[test]
fn sqrt32_sharded_equals_golden_with_zero_halo() {
    let workload = long_workload(1100);
    let run = sharded(Benchmark::Sqrt32, &workload, 4, 275);
    assert_eq!(run.plan.halo(), 0);
    let merged = merge_verified(&run).unwrap();
    assert_eq!(
        merged.run.outputs,
        golden_outputs(Benchmark::Sqrt32, &workload, 4)
    );
}

/// An *insufficient* halo must be caught by verification — this guards
/// that `required_halo` is not vacuously generous and that `verify` can
/// actually fail.
#[test]
fn undersized_halo_is_detected_by_verification() {
    let workload = long_workload(600);
    // MRPFLTR needs (7-1)+(11-1)+(3-1) = 18 halo samples on the quick
    // config; give it 2.
    assert_eq!(required_halo(Benchmark::Mrpfltr, &workload), 18);
    let plan = ShardPlan::new(600, 150, 2).unwrap();
    let run = ShardRunner::new(
        ShardRunConfig::new(Benchmark::Mrpfltr, true, 2, workload.clone()),
        plan,
    )
    .unwrap()
    .run_local(0)
    .unwrap();
    let merged = merge(&run).expect("the merge itself succeeds; only verification fails");
    assert!(
        merged.run.verify().is_err(),
        "a 2-sample halo cannot re-establish an 18-sample filter state"
    );
}

/// The artifact-merge acceptance criterion: on a buffer-fitting recording,
/// the sharded run's merged per-bank heat map equals the unsharded
/// full-pass heat map — across 2 shard sizes × 2 core counts — up to the
/// analytic warm-up delta. Each shard re-runs the kernel prologue, which
/// performs exactly one DM store per core per run (the loop-index init
/// into the core's own bank), so a `k`-shard run's totals carry `k - 1`
/// extra accesses in bank `c` for each core `c`; every other count is
/// bit-identical.
#[test]
fn sqrt32_sharded_heat_map_equals_full_pass_up_to_prologue_warmup() {
    use std::sync::Arc;
    use ulp_service::{JobSpec, ServiceConfig, SimService};

    // 296 samples fit one platform buffer (≤ MAX_N), so an unsharded
    // full pass exists to compare against; SQRT32 is point-wise, so the
    // zero-halo shards add no recomputed samples.
    let workload = long_workload(296);
    let window = 4096u64;
    for cores in [2usize, 4] {
        let mut service = SimService::start(ServiceConfig::builder().workers(1).build());
        service
            .submit(
                JobSpec::new(Benchmark::Sqrt32, cores, Arc::new(workload.clone())).heat_map(window),
            )
            .expect("unbounded queue admits");
        let out = service
            .recv()
            .expect("the full pass completes")
            .outcome
            .expect("the full pass runs");
        service.finish();
        let full_rows = out.heat_map.expect("a heat map");
        let mut full = vec![0u64; full_rows.first().map_or(0, Vec::len)];
        for row in &full_rows {
            for (t, &v) in full.iter_mut().zip(row) {
                *t += v;
            }
        }

        for samples_per_shard in [74usize, 148] {
            let plan =
                ShardPlan::for_workload(Benchmark::Sqrt32, &workload, samples_per_shard).unwrap();
            let shards = plan.len();
            assert!(shards >= 2, "the recording must actually shard");
            let run = ShardRunner::new(
                ShardRunConfig::new(Benchmark::Sqrt32, true, cores, workload.clone())
                    .with_heat_map(window),
                plan,
            )
            .unwrap()
            .run_local(0)
            .unwrap();
            let merged = merge_verified(&run).unwrap();
            let map = merged
                .heat_map
                .as_ref()
                .expect("the merge carries the selected heat map");

            // Core `c`'s own bank is bank `c`: the warm-up store lands there.
            let mut expected = full.clone();
            for slot in expected.iter_mut().take(cores) {
                *slot += (shards - 1) as u64;
            }
            assert_eq!(
                map.totals(),
                expected,
                "{samples_per_shard}-sample shards on {cores} cores"
            );

            // The merged rows tile the recording's cycle axis gaplessly.
            let mut cursor = 0u64;
            for row in &map.rows {
                assert_eq!(row.start_cycle, cursor);
                cursor = row.end_cycle;
            }
            assert_eq!(cursor, merged.run.stats.cycles);
        }
    }
}

/// Shard length not dividing the recording: the balanced split produces
/// mixed core lengths and the merge still reconstructs the recording
/// exactly.
#[test]
fn non_dividing_shard_length_merges_exactly() {
    // 1000 samples at ≤ 144 → 7 shards of 143/143/143/143/143/143/142.
    let workload = long_workload(1000);
    let run = sharded(Benchmark::Mrpdln, &workload, 2, 144);
    let lens: Vec<usize> = run.plan.shards().iter().map(|s| s.core_len()).collect();
    assert!(lens.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
    assert_eq!(lens.iter().sum::<usize>(), 1000);
    let merged = merge_verified(&run).unwrap();
    assert_eq!(merged.run.outputs[0].len(), 1000);
}

/// Halo longer than the shard's own core region: load windows of
/// neighbouring shards overlap heavily, and dropping the duplicates still
/// yields the exact recording.
#[test]
fn halo_longer_than_shard_merges_exactly() {
    let workload = long_workload(400);
    // 50-sample cores with a 100-sample halo (> 2 shards of overlap).
    let plan = ShardPlan::new(400, 50, 100).unwrap();
    assert!(plan.halo() > plan.shards()[0].core_len());
    let run = ShardRunner::new(
        ShardRunConfig::new(Benchmark::Mrpdln, true, 2, workload.clone()),
        plan,
    )
    .unwrap()
    .run_local(0)
    .unwrap();
    let merged = merge_verified(&run).unwrap();
    assert_eq!(
        merged.run.outputs,
        golden_outputs(Benchmark::Mrpdln, &workload, 2)
    );
}

/// The degenerate single-shard plan: sharding a recording that fits one
/// platform is the identity.
#[test]
fn single_shard_plan_is_identity() {
    let workload = long_workload(250);
    let plan = ShardPlan::for_workload(Benchmark::Mrpdln, &workload, 256).unwrap();
    assert_eq!(plan.len(), 1);
    let run = ShardRunner::new(
        ShardRunConfig::new(Benchmark::Mrpdln, true, 2, workload.clone()),
        plan,
    )
    .unwrap()
    .run_local(1)
    .unwrap();
    let merged = merge_verified(&run).unwrap();
    assert_eq!(merged.run.stats.cycles, merged.shard_cycles[0]);
    assert_eq!(merged.run.outputs[0].len(), 250);
}

/// A plan bound to the wrong recording length is rejected up front.
#[test]
fn plan_workload_mismatch_is_rejected() {
    let workload = long_workload(500);
    let plan = ShardPlan::new(400, 100, 10).unwrap();
    let err = ShardRunner::new(
        ShardRunConfig::new(Benchmark::Sqrt32, true, 2, workload),
        plan,
    )
    .unwrap_err();
    assert!(err.to_string().contains("plan covers 400"));
}

/// A shard spec the service rejects as invalid (here a zero heat-map
/// window) is reported as that rejection, with its reason — not as a dead
/// pool — and the caller's pool keeps serving.
#[test]
fn invalid_shard_job_is_reported_with_its_reason() {
    use ulp_service::{ServiceConfig, SimService};
    use ulp_shard::ShardError;

    let workload = long_workload(96);
    let plan = ShardPlan::for_workload(Benchmark::Sqrt32, &workload, 48).unwrap();
    let config = ShardRunConfig::new(Benchmark::Sqrt32, true, 2, workload);
    let mut service = SimService::start(ServiceConfig::builder().workers(1).build());
    let err = ShardRunner::new(config.clone().with_heat_map(0), plan.clone())
        .unwrap()
        .run(&mut service)
        .unwrap_err();
    match &err {
        ShardError::InvalidJob { shard, reason } => {
            assert_eq!(*shard, 0);
            assert!(reason.contains("heat-map window"), "{reason}");
        }
        other => panic!("expected an invalid-job error, got {other:?}"),
    }
    assert!(err.to_string().contains("shard 0 was rejected"), "{err}");
    let run = ShardRunner::new(config, plan)
        .unwrap()
        .run(&mut service)
        .expect("the pool still serves a valid recording");
    merge_verified(&run).unwrap();
    service.finish();
}
