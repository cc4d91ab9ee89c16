//! Cross-crate integration tests: the paper's qualitative claims asserted
//! end to end at realistic signal lengths.

use ulp_lockstep::kernels::{
    run_benchmark, run_benchmark_on, run_benchmark_reusing, Benchmark, BufferLayout,
    CheckpointControl, SyncGranularity, WorkloadConfig,
};
use ulp_lockstep::mem::{BankMapping, ServingPolicy};
use ulp_lockstep::platform::{Platform, PlatformConfig};
use ulp_lockstep::power::{Activity, PowerModel};
use ulp_lockstep::telemetry::json;

/// A mid-size workload: long enough for the baseline's divergence to
/// develop (the full paper-scale run lives in the `table1`/`fig3`/`intext`
/// binaries), short enough for a debug-build test.
fn midsize() -> WorkloadConfig {
    WorkloadConfig {
        n: 128,
        ..WorkloadConfig::paper()
    }
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One paper cell at [`midsize`]: kernel, synchronizer, cores, then its
/// cycle count, an FNV-1a digest of its full `SimStats` (its `Debug`
/// text) and one of its outputs (every core's words, little-endian).
type Cell = (Benchmark, bool, usize, u64, u64, u64);

/// Every paper cell, cycle for cycle. An intentional model change
/// updates this table in the same change; the failure message prints the
/// recomputed table.
#[rustfmt::skip]
const PINNED: [Cell; 18] = [
    (Benchmark::Mrpfltr, true, 2, 148161, 0xb142cacb3bde6421, 0xc94ace6cb12938e0),
    (Benchmark::Mrpfltr, true, 4, 189041, 0x31039b6d9c72c9ba, 0x4c2f39e8b2be6563),
    (Benchmark::Mrpfltr, true, 8, 205651, 0x72246070093928d2, 0x3fe87cfd415a475f),
    (Benchmark::Mrpfltr, false, 2, 131328, 0x9607dcc5a6c00c96, 0xc94ace6cb12938e0),
    (Benchmark::Mrpfltr, false, 4, 226082, 0x95cbffa41bf1c90b, 0x4c2f39e8b2be6563),
    (Benchmark::Mrpfltr, false, 8, 332989, 0xa424de281607bcbe, 0x3fe87cfd415a475f),
    (Benchmark::Mrpdln, true, 2, 140227, 0x545a98656b219fdc, 0xf41a42f3f6e1b1f7),
    (Benchmark::Mrpdln, true, 4, 140314, 0xdc30d5315e01f1ce, 0x54d557e97b568b86),
    (Benchmark::Mrpdln, true, 8, 140452, 0x4e382eb5778ecce4, 0x58f65eceb3127524),
    (Benchmark::Mrpdln, false, 2, 139371, 0xb9316c9308e0c8eb, 0xf41a42f3f6e1b1f7),
    (Benchmark::Mrpdln, false, 4, 188845, 0x8cfc97656d9886df, 0x54d557e97b568b86),
    (Benchmark::Mrpdln, false, 8, 229869, 0xa204b45558b0b106, 0x58f65eceb3127524),
    (Benchmark::Sqrt32, true, 2, 125812, 0x74e9f71b6490547d, 0xee448d1dd512b66d),
    (Benchmark::Sqrt32, true, 4, 144269, 0x75c64473df039013, 0x73ff10a18fd4b033),
    (Benchmark::Sqrt32, true, 8, 152687, 0xd87366220bf265ef, 0x7fb1926485d30a13),
    (Benchmark::Sqrt32, false, 2, 125044, 0xda62187841749d17, 0xee448d1dd512b66d),
    (Benchmark::Sqrt32, false, 4, 223430, 0xba22a99187ad74a4, 0x73ff10a18fd4b033),
    (Benchmark::Sqrt32, false, 8, 227025, 0x17744c8763d1ac2a, 0x7fb1926485d30a13),
];

/// Runs `benchmark` on `platform` under `cfg`, verifies its outputs
/// against the golden DSP pass, and returns its cycles and the digests of
/// [`Cell`].
fn digest(benchmark: Benchmark, platform: PlatformConfig, cfg: &WorkloadConfig) -> (u64, u64, u64) {
    let what = format!(
        "{benchmark} sync={} cores={}",
        platform.synchronizer, platform.num_cores
    );
    let run = run_benchmark_on(benchmark, platform, cfg).unwrap_or_else(|e| panic!("{what}: {e}"));
    run.verify().unwrap_or_else(|e| panic!("{what}: {e}"));
    let stats = fnv1a(format!("{:?}", run.stats).into_bytes());
    let outputs = fnv1a(run.outputs.iter().flatten().flat_map(|w| w.to_le_bytes()));
    (run.stats.cycles, stats, outputs)
}

/// Runs every cell of `cells` under `cfg` (see [`digest`]).
fn grid(cfg: &WorkloadConfig, cells: &[Cell]) -> Vec<Cell> {
    cells
        .iter()
        .map(|&(benchmark, with_sync, cores, ..)| {
            let platform = PlatformConfig::paper(with_sync)
                .with_cores(cores)
                .with_max_cycles(cfg.max_cycles);
            let (cycles, stats, outputs) = digest(benchmark, platform, cfg);
            (benchmark, with_sync, cores, cycles, stats, outputs)
        })
        .collect()
}

/// The configurations of the ablation studies (`ulp_bench::ablation`)
/// that are not paper cells, each named by its study: the platform and
/// workload MRPFLTR runs on. A2's two halves drive both D-Xbar serving
/// policies with and without the synchronizer.
fn ablations(cfg: &WorkloadConfig) -> Vec<(&'static str, PlatformConfig, WorkloadConfig)> {
    let paper = |with_sync| PlatformConfig::paper(with_sync).with_max_cycles(cfg.max_cycles);
    let interleaved = |with_sync| PlatformConfig {
        im_mapping: BankMapping::Interleaved,
        ..paper(with_sync)
    };
    let policy = |with_sync, dxbar_policy| PlatformConfig {
        dxbar_policy,
        ..paper(with_sync)
    };
    let per_element = WorkloadConfig {
        granularity: SyncGranularity::PerElement,
        ..cfg.clone()
    };
    let private = WorkloadConfig {
        layout: BufferLayout::PrivateBank,
        ..cfg.clone()
    };
    vec![
        ("A1 interleaved IM", interleaved(true), cfg.clone()),
        ("A1 interleaved IM", interleaved(false), cfg.clone()),
        (
            "A2 policy only",
            policy(false, ServingPolicy::SyncAware),
            cfg.clone(),
        ),
        (
            "A2 synchronizer only",
            policy(true, ServingPolicy::Baseline),
            cfg.clone(),
        ),
        ("A3 one core", paper(true).with_cores(1), cfg.clone()),
        ("A3 one core", paper(false).with_cores(1), cfg.clone()),
        ("A5 per-element sections", paper(true), per_element),
        ("A6 private-bank buffers", paper(true), private.clone()),
        ("A6 private-bank buffers", paper(false), private),
    ]
}

#[test]
fn all_outputs_bit_exact_at_midsize() {
    let cells = grid(&midsize(), &PINNED);
    let table: String = cells
        .iter()
        .map(|&(b, sync, cores, cycles, stats, outputs)| {
            format!("    (Benchmark::{b:?}, {sync}, {cores}, {cycles}, {stats:#018x}, {outputs:#018x}),\n")
        })
        .collect();
    assert_eq!(cells, PINNED, "recomputed table:\n{table}");
}

/// The paper grid at paper length (n = 256), pinned in
/// `ci/paper-grid.json`: one record per cell with its cycles and the
/// digests of [`Cell`], then one per MRPFLTR [ablation](ablations),
/// named by its study. An intentional model change updates the file in
/// the same change, where its diff shows which cells moved; the failure
/// message prints the recomputed file. CI also runs this in release mode.
#[test]
fn paper_grid_matches_its_pin_at_paper_length() {
    let cfg = WorkloadConfig::paper();
    let cells = grid(&cfg, &PINNED);
    let ablations: Vec<_> = ablations(&cfg)
        .into_iter()
        .map(|(study, platform, workload)| {
            let design = (platform.synchronizer, platform.num_cores);
            (
                study,
                design,
                digest(Benchmark::Mrpfltr, platform, &workload),
            )
        })
        .collect();
    let record = |c: &mut json::Object<'_>, with_sync: bool, cores, (cycles, stats, outputs)| {
        c.str("design", if with_sync { "sync" } else { "baseline" })
            .uint("cores", cores)
            .uint("cycles", cycles)
            .str("stats_fnv1a", &format!("{stats:#018x}"))
            .str("outputs_fnv1a", &format!("{outputs:#018x}"));
    };
    let recomputed = json::object(|o| {
        o.uint("n", cfg.n);
        o.lines("cells", |a| {
            for &(benchmark, with_sync, cores, cycles, stats, outputs) in &cells {
                a.object(|c| {
                    c.str("benchmark", benchmark.name());
                    record(c, with_sync, cores, (cycles, stats, outputs));
                });
            }
            for &(study, (with_sync, cores), digests) in &ablations {
                a.object(|c| {
                    c.str("benchmark", Benchmark::Mrpfltr.name())
                        .str("ablation", study);
                    record(c, with_sync, cores, digests);
                });
            }
        });
    }) + "\n";
    let pinned = include_str!("../ci/paper-grid.json");
    let moved: Vec<&str> = recomputed
        .lines()
        .filter(|now| !pinned.lines().any(|then| then == *now))
        .collect();
    assert!(
        recomputed == pinned,
        "cells that moved:\n{}\nrecomputed ci/paper-grid.json:\n{recomputed}",
        moved.join("\n")
    );
}

/// The cycle every [`PINNED_BLOBS`] cell is parked at: mid-run for each
/// of them at [`midsize`].
const PARK_AT: u64 = 70_000;

/// Every 8-core paper cell parked at [`PARK_AT`]: kernel, synchronizer,
/// then an FNV-1a digest of its `Checkpoint::to_bytes()` blob. The blob
/// holds the whole platform state, so an engine change that is not
/// bit-identical in any register, counter, arbiter pointer or memory word
/// changes it, as does any change of the wire format.
#[rustfmt::skip]
const PINNED_BLOBS: [(Benchmark, bool, u64); 6] = [
    (Benchmark::Mrpfltr, true, 0x7ea8fdc40ae65a8f),
    (Benchmark::Mrpfltr, false, 0x694f87abec9b2626),
    (Benchmark::Mrpdln, true, 0x98106b59b67771e3),
    (Benchmark::Mrpdln, false, 0x359311db9924ea84),
    (Benchmark::Sqrt32, true, 0x007c369a100e3a2d),
    (Benchmark::Sqrt32, false, 0xa4cf3e2a928cc591),
];

#[test]
fn checkpoint_blobs_bit_exact_at_midsize() {
    let cfg = midsize();
    let blobs: Vec<(Benchmark, bool, u64)> = PINNED_BLOBS
        .iter()
        .map(|&(benchmark, with_sync, _)| {
            let platform = PlatformConfig::paper(with_sync)
                .with_cores(8)
                .with_max_cycles(cfg.max_cycles);
            let mut p = Platform::new(platform).expect("valid config");
            let done = run_benchmark_reusing(benchmark, &mut p, &cfg, None, PARK_AT, |_| {
                CheckpointControl::Park
            })
            .unwrap_or_else(|e| panic!("{benchmark} sync={with_sync}: {e}"));
            assert!(
                done.is_none(),
                "{benchmark} sync={with_sync} ends before the park"
            );
            assert_eq!(p.cycle(), PARK_AT);
            (benchmark, with_sync, fnv1a(p.snapshot().to_bytes()))
        })
        .collect();
    let table: String = blobs
        .iter()
        .map(|&(b, sync, blob)| format!("    (Benchmark::{b:?}, {sync}, {blob:#018x}),\n"))
        .collect();
    assert_eq!(blobs, PINNED_BLOBS, "recomputed table:\n{table}");
}

#[test]
fn synchronizer_speeds_up_every_benchmark_at_midsize() {
    let cfg = midsize();
    for benchmark in Benchmark::ALL {
        let with = run_benchmark(benchmark, true, &cfg).unwrap();
        let without = run_benchmark(benchmark, false, &cfg).unwrap();
        let speedup = without.stats.cycles as f64 / with.stats.cycles as f64;
        assert!(
            speedup > 1.05,
            "{benchmark}: speedup only {speedup:.2} ({} vs {})",
            with.stats.cycles,
            without.stats.cycles
        );
        // Section V-B: the improved design lies in the paper's Ops/cycle
        // band and the baseline clearly below it.
        let r_with = with.stats.ops_per_cycle();
        let r_without = without.stats.ops_per_cycle();
        assert!(
            (2.2..=4.0).contains(&r_with),
            "{benchmark}: with-sync ops/cycle {r_with:.2}"
        );
        assert!(r_without < r_with, "{benchmark}");
    }
}

#[test]
fn broadcasting_cuts_im_accesses_and_bounds_dm_overhead() {
    let cfg = midsize();
    let mut total_dm_with = 0u64;
    let mut total_dm_without = 0u64;
    for benchmark in Benchmark::ALL {
        let with = run_benchmark(benchmark, true, &cfg).unwrap();
        let without = run_benchmark(benchmark, false, &cfg).unwrap();
        let reduction =
            1.0 - with.stats.im.total_accesses() as f64 / without.stats.im.total_accesses() as f64;
        assert!(
            reduction > 0.25,
            "{benchmark}: IM access reduction only {:.0} %",
            reduction * 100.0
        );
        total_dm_with += with.stats.dm.total_accesses();
        total_dm_without += without.stats.dm.total_accesses();
    }
    // The paper: "the total number of DM accesses is increased by less
    // than 10%" — aggregated over the benchmarks.
    let dm_increase = total_dm_with as f64 / total_dm_without as f64 - 1.0;
    assert!(
        dm_increase < 0.10,
        "aggregate DM increase {:.1} %",
        dm_increase * 100.0
    );
}

#[test]
fn sync_word_area_is_clean_after_every_run() {
    let cfg = midsize();
    for benchmark in Benchmark::ALL {
        let run = run_benchmark(benchmark, true, &cfg).unwrap();
        let sync = run.stats.sync.expect("synchronizer present");
        assert_eq!(sync.underflows, 0, "{benchmark}: unbalanced sections");
        assert_eq!(
            sync.checkin_requests, sync.checkout_requests,
            "{benchmark}: check-ins must balance check-outs"
        );
    }
}

#[test]
fn power_model_prefers_the_improved_design_everywhere() {
    let cfg = midsize();
    let model = PowerModel::calibrated_default();
    for benchmark in Benchmark::ALL {
        let with = run_benchmark(benchmark, true, &cfg).unwrap();
        let without = run_benchmark(benchmark, false, &cfg).unwrap();
        let act_with = Activity::from_stats(&with.stats);
        let act_without = Activity::from_stats(&without.stats);

        // The improved design extends the feasible workload range...
        assert!(model.max_workload(&act_with) > model.max_workload(&act_without));

        // ...and saves power at every feasible common workload.
        let top = model.max_workload(&act_without);
        for w in [top * 0.1, top * 0.5, top] {
            let saving = model
                .saving_at(&act_with, &act_without, w)
                .expect("feasible on both");
            assert!(
                saving > 0.0,
                "{benchmark}: negative saving {saving:.2} at {w:.0} MOps/s"
            );
        }
    }
}

#[test]
fn both_layouts_and_granularities_stay_bit_exact() {
    use ulp_lockstep::kernels::{BufferLayout, SyncGranularity};
    let mut cfg = WorkloadConfig::quick_test();
    for layout in [BufferLayout::Packed, BufferLayout::PrivateBank] {
        for granularity in [SyncGranularity::PerSample, SyncGranularity::PerElement] {
            cfg.layout = layout;
            cfg.granularity = granularity;
            for benchmark in Benchmark::ALL {
                let run = run_benchmark(benchmark, true, &cfg)
                    .unwrap_or_else(|e| panic!("{benchmark} {layout:?} {granularity:?}: {e}"));
                run.verify()
                    .unwrap_or_else(|e| panic!("{benchmark} {layout:?} {granularity:?}: {e}"));
            }
        }
    }
}
