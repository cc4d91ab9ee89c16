//! Property tests of the merge machinery on randomized signals: merged
//! delineation events are sorted and duplicate-free, and halo-based
//! stitching reproduces the full-signal golden pass sample for sample —
//! no platform in the loop, so hundreds of cases stay fast.

use proptest::prelude::*;
use ulp_biosignal::{delineate, DelineationConfig};
use ulp_kernels::{Benchmark, WorkloadConfig};
use ulp_platform::SimStats;
use ulp_service::{JobArtifacts, ObserverSelection};
use ulp_shard::{merge, required_halo, ShardPlan, ShardRunConfig, ShardedRun};

fn zero_stats(num_cores: usize, cycles: u64) -> SimStats {
    SimStats {
        cycles,
        num_cores,
        cores: vec![Default::default(); num_cores],
        core_total: ulp_cpu::CoreStats {
            useful_ops: 1,
            ..Default::default()
        },
        im: Default::default(),
        dm: Default::default(),
        ixbar: Default::default(),
        dxbar: Default::default(),
        sync: None,
        lockstep_width_sum: 0,
        lockstep_width_cycles: 0,
    }
}

/// Builds a `ShardedRun` whose per-shard outputs are the *golden*
/// delineator applied to each shard's load window of `signals` — exactly
/// what the platform produces bit for bit, without simulating it.
fn golden_sharded_run(
    signals: &[Vec<i16>],
    plan: ShardPlan,
    dln: &DelineationConfig,
) -> ShardedRun {
    let cores = signals.len();
    let total = plan.total();
    let mut workload = WorkloadConfig::quick_test();
    workload.n = total;
    workload.delineation = *dln;
    let config = ShardRunConfig::new(Benchmark::Mrpdln, false, cores, workload);
    let shards = plan
        .shards()
        .iter()
        .map(|&shard| {
            let outputs: Vec<Vec<u16>> = signals
                .iter()
                .map(|x| {
                    delineate(&x[shard.load_start..shard.load_end], dln)
                        .into_iter()
                        .map(u16::from)
                        .collect()
                })
                .collect();
            ulp_shard::ShardOutput {
                shard,
                run: ulp_kernels::BenchmarkRun {
                    benchmark: Benchmark::Mrpdln,
                    with_sync: false,
                    stats: zero_stats(cores, 100 + shard.index as u64),
                    expected: outputs.clone(),
                    outputs,
                },
                artifacts: JobArtifacts::None,
            }
        })
        .collect();
    ShardedRun {
        config,
        plan,
        shards,
    }
}

fn signal(len: usize) -> impl Strategy<Value = Vec<i16>> {
    prop::collection::vec(-2047i16..=2047, len..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over random signals, shard geometries and channel counts: the
    /// merged mark stream equals the full-signal pass, and the event list
    /// is strictly sorted by (channel, index) — hence duplicate-free.
    #[test]
    fn merged_events_are_sorted_unique_and_golden(
        total in 60usize..400,
        per_shard in 16usize..280,
        seed_a in signal(400),
        seed_b in signal(400),
        threshold in 50i16..400,
    ) {
        let dln = DelineationConfig { scale_small: 2, scale_large: 5, threshold };
        let mut probe = WorkloadConfig::quick_test();
        probe.delineation = dln;
        let halo = required_halo(Benchmark::Mrpdln, &probe);
        prop_assert_eq!(halo, 6);
        let Ok(plan) = ShardPlan::new(total, per_shard, halo) else {
            // Geometry outside platform limits — nothing to merge.
            return;
        };
        let signals = vec![seed_a[..total].to_vec(), seed_b[..total].to_vec()];
        let run = golden_sharded_run(&signals, plan, &dln);
        let merged = merge(&run).expect("a plan-ordered sharded run merges");

        // Stitched outputs are bit-identical to the one-pass golden.
        for (ch, x) in signals.iter().enumerate() {
            let full: Vec<u16> = delineate(x, &dln).into_iter().map(u16::from).collect();
            prop_assert_eq!(&merged.run.outputs[ch], &full, "channel {}", ch);
        }

        // Events are strictly increasing by (channel, index): sorted and
        // duplicate-free by construction of the halo-dropping merge.
        let events = merged.events();
        for pair in events.windows(2) {
            prop_assert!(
                (pair[0].channel, pair[0].index) < (pair[1].channel, pair[1].index),
                "events out of order or duplicated: {:?}", pair
            );
        }
        // Every event indexes a marked sample of the merged stream.
        for e in &events {
            prop_assert!(e.index < total);
            prop_assert!(merged.run.outputs[e.channel][e.index] != 0);
        }

        // Summed statistics are the shard sums.
        let cycle_sum: u64 = run.shards.iter().map(|s| s.run.stats.cycles).sum();
        prop_assert_eq!(merged.run.stats.cycles, cycle_sum);
        prop_assert_eq!(merged.shard_cycles.len(), run.plan.len());
    }

    /// Over random geometries, windows and counter values: the merged
    /// heat-map rows tile the recording's global cycle axis gaplessly, and
    /// the per-bank totals equal the sum of the per-shard totals exactly —
    /// re-indexing moves rows, it never loses or double-counts an access.
    #[test]
    fn merged_heat_map_totals_are_shard_sums(
        total in 60usize..400,
        per_shard in 16usize..280,
        window in 16u64..200,
        seed in any::<u64>(),
    ) {
        let dln = DelineationConfig { scale_small: 2, scale_large: 5, threshold: 100 };
        let Ok(plan) = ShardPlan::new(total, per_shard, 6) else {
            return;
        };
        let signals = vec![vec![0i16; total]];
        let mut run = golden_sharded_run(&signals, plan, &dln);
        run.config.observers = ObserverSelection::BankHeatMap { window };

        // Deterministic per-case counter values (splitmix-style), so the
        // strategy stays a single u64.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut shard_totals = vec![0u64; 16];
        for out in &mut run.shards {
            let cycles = out.run.stats.cycles;
            let rows: Vec<Vec<u64>> = (0..cycles.div_ceil(window))
                .map(|_| (0..16).map(|_| next() % 100).collect())
                .collect();
            for row in &rows {
                for (t, &v) in shard_totals.iter_mut().zip(row) {
                    *t += v;
                }
            }
            out.artifacts = JobArtifacts::BankHeatMap(rows);
        }

        let merged = merge(&run).expect("a plan-ordered sharded run merges");
        let map = merged.artifacts.bank_heat_map().expect("a heat map was selected");
        prop_assert_eq!(map.window, window);
        prop_assert_eq!(map.totals(), shard_totals);

        // Rows tile [0, total cycles) without gap or overlap.
        let mut cursor = 0u64;
        for row in &map.rows {
            prop_assert_eq!(row.start_cycle, cursor, "gap or overlap at {:?}", row);
            prop_assert!(row.end_cycle >= row.start_cycle);
            cursor = row.end_cycle;
        }
        prop_assert_eq!(cursor, merged.run.stats.cycles);
    }
}
