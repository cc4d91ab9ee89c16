//! Plan → run → merge a recording 10× the paper's evaluation window on
//! the batch simulation service, and price the whole recording with the
//! power model: the end-to-end tour of the workload-sharding subsystem.
//!
//! ```sh
//! cargo run --release --example sharded_recording
//! ```

use ulp_lockstep::kernels::{Benchmark, WorkloadConfig};
use ulp_lockstep::power::PowerModel;
use ulp_lockstep::shard::{merge_verified, required_halo, ShardPlan, ShardRunConfig, ShardRunner};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2560-sample recording (≈ 10 s of ECG at 250 Hz) — 10× the paper's
    // 256-sample window and far beyond one platform's per-channel buffer.
    let mut workload = WorkloadConfig::paper();
    workload.n = 2560;
    let benchmark = Benchmark::Mrpdln;

    // 1. Plan: ≤ 256-sample shards with the delineator's exact warm-up
    //    halo, so merging is provably lossless.
    let halo = required_halo(benchmark, &workload);
    let plan = ShardPlan::for_workload(benchmark, &workload, 256)?;
    println!(
        "plan: {} samples -> {} shards of <= {} core samples, halo {halo}",
        plan.total(),
        plan.len(),
        plan.shards()[0].core_len(),
    );

    // 2. Run: every shard is an ordinary service job; the work-stealing
    //    pool executes them concurrently over cached platforms. Every
    //    shard records a per-bank DM heat map in 4096-cycle rows, the one
    //    artifact a job carries; the merge below puts the rows on the
    //    recording's global cycle axis.
    let runner = ShardRunner::new(
        ShardRunConfig::new(benchmark, true, 8, workload.clone()).with_heat_map(4096),
        plan,
    )?;
    let start = std::time::Instant::now();
    let sharded = runner.run_local(0)?;
    let wall = start.elapsed();

    // 3. Merge: stitch outputs (dropping halo duplicates), sum statistics,
    //    and verify against a single full-recording golden pass.
    let merged = merge_verified(&sharded)?;
    let stats = &merged.run.stats;
    println!(
        "merged: {} cycles over {} shards ({} useful ops, {:.2} ops/cycle), verified bit-exact",
        stats.cycles,
        merged.shard_cycles.len(),
        stats.useful_ops(),
        stats.ops_per_cycle(),
    );
    let events = merged.events();
    println!(
        "delineation: {} events across 8 channels ({} peaks)",
        events.len(),
        events.iter().filter(|e| e.is_peak).count(),
    );
    let heatmap = merged
        .heat_map
        .as_ref()
        .expect("the heat map survives the merge");
    let totals = heatmap.totals();
    let peak = totals.iter().copied().max().unwrap_or(0);
    println!(
        "heat map: {} rows x {} banks on the global cycle axis, {} DM accesses (peak bank {})",
        heatmap.rows.len(),
        heatmap.banks(),
        totals.iter().sum::<u64>(),
        peak,
    );

    // 4. Energy: fold the recording's activity into the power model at
    //    the paper's Table I workload of 8 MOps/s.
    let model = PowerModel::calibrated_default();
    let energy = merged
        .energy_uj(&model, 8.0)
        .expect("8 MOps/s is feasible for the improved design");
    println!(
        "energy: {energy:.1} uJ for the whole recording at 8 MOps/s \
         ({:.2} nJ/op); simulated in {:.2} s wall",
        energy * 1e3 / stats.useful_ops() as f64,
        wall.as_secs_f64(),
    );

    assert!(!events.is_empty(), "a 10 s ECG must contain events");
    Ok(())
}
