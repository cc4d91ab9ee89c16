//! Engine gate: the batched fast path against the interpreter, on the
//! paper kernels.
//!
//! Each cell loads a paper kernel and parks it after its first cycle.
//! Then, in alternating rounds, the bench times `restore_from` + `run()`
//! (which batches every lockstep cycle and interprets the rest) against
//! `restore_from` + a `step()` loop (the interpreter alone, the reference
//! `prop_fast_path` holds `run()` to). Both sides simulate the same
//! cycles, so their ratio is the batch's cost per cycle relative to the
//! interpreter's. Each cell's ratio is gated inside a two-sided band:
//!
//! * a slower batch raises the ratio;
//! * cycles lost from the batch to the interpreter raise it too;
//! * a slower interpreter lowers it.
//!
//! A 2× change of either side leaves the band. A fourth gate times
//! `run()` on two cells against each other: the divergent cycles of
//! SQRT32 nosync 8 against the lockstep of MRPDLN sync 8, per simulated
//! core-cycle, so a slower divergent batch fails even when the
//! interpreter slows with it. The bench prints every ratio and exits
//! non-zero if any left its band; `ULP_BENCH_QUICK=1` runs fewer rounds
//! (CI sizing).

mod common;

use std::ops::RangeInclusive;
use ulp_kernels::{run_benchmark_reusing, Benchmark, CheckpointControl, WorkloadConfig};
use ulp_platform::{Checkpoint, Platform, PlatformConfig};

/// A gated cell: kernel, design, cores and the band of its ratio.
struct Cell {
    benchmark: Benchmark,
    with_sync: bool,
    cores: usize,
    band: RangeInclusive<f64>,
}

/// One cell per shape of batch: the widest lockstep (MRPDLN sync 8), and
/// divergent cycles with several fetch groups at 4 and 8 cores. Each band
/// spans about 1.4× either way of the ratio measured on a 2-vCPU x86-64
/// VM (0.177, 0.50, 0.51), so a 2× change of either side falls outside.
const CELLS: [Cell; 3] = [
    Cell {
        benchmark: Benchmark::Mrpdln,
        with_sync: true,
        cores: 8,
        band: 0.126..=0.248,
    },
    Cell {
        benchmark: Benchmark::Mrpfltr,
        with_sync: false,
        cores: 4,
        band: 0.35..=0.72,
    },
    Cell {
        benchmark: Benchmark::Sqrt32,
        with_sync: false,
        cores: 8,
        band: 0.35..=0.72,
    },
];

/// The band of SQRT32 nosync 8's `run()` time per simulated core-cycle
/// over MRPDLN sync 8's ([`CELLS`]`[2]` over [`CELLS`]`[0]`): about 1.4×
/// either way of the ratio measured on a 2-vCPU x86-64 VM (3.11).
const DIVERGENT_BAND: RangeInclusive<f64> = 2.22..=4.36;

/// The cell's kernel loaded and parked after its first cycle, as a
/// checkpoint both sides restore from.
fn parked(cell: &Cell, workload: &WorkloadConfig) -> Checkpoint {
    let cfg = PlatformConfig::paper(cell.with_sync)
        .with_cores(cell.cores)
        .with_max_cycles(workload.max_cycles);
    let mut p = Platform::new(cfg).expect("valid config");
    let parked = run_benchmark_reusing(cell.benchmark, &mut p, workload, None, 1, |_| {
        CheckpointControl::Park
    })
    .expect("first cycle runs");
    assert!(parked.is_none(), "the kernel parks after one cycle");
    p.snapshot()
}

/// Restores `start` and runs it to the end with `run()`; returns the
/// cycle count it ends at.
fn batched(p: &mut Platform, start: &Checkpoint) -> u64 {
    p.restore_from(start).expect("restores");
    p.run().expect("kernel runs").cycles
}

/// Restores `start` and steps it to the end; returns the cycles.
fn stepped(p: &mut Platform, start: &Checkpoint) -> u64 {
    p.restore_from(start).expect("restores");
    while !p.all_halted() {
        p.step();
    }
    p.cycle()
}

fn main() {
    let rounds = if ulp_bench::quick_mode() { 20 } else { 60 };
    let workload = WorkloadConfig::quick_test();
    let mut passed = true;
    for cell in &CELLS {
        let start = parked(cell, &workload);
        let mut batch = Platform::restore(&start).expect("restores");
        let mut interp = Platform::restore(&start).expect("restores");
        // Both sides must simulate the same run, or the ratio compares
        // different work.
        let cycles = batched(&mut batch, &start);
        assert_eq!(cycles, stepped(&mut interp, &start), "same run");
        let ratio = common::measure(
            rounds,
            || common::timed(|| batched(&mut batch, &start)),
            || common::timed(|| stepped(&mut interp, &start)),
        );
        let label = format!(
            "fast_path/{}/{}/{}",
            cell.benchmark.name(),
            if cell.with_sync { "sync" } else { "nosync" },
            cell.cores
        );
        println!(
            "{label}: {cycles} cycles x {rounds} rounds: run() {:.3} ms, step() loop {:.3} ms",
            ratio.best_subject.as_secs_f64() * 1e3,
            ratio.best_reference.as_secs_f64() * 1e3,
        );
        passed &= common::check(&label, ratio.value, cell.band.clone());
    }

    let (lockstep, divergent) = (&CELLS[0], &CELLS[2]);
    let sides = [lockstep, divergent].map(|cell| {
        let start = parked(cell, &workload);
        let mut p = Platform::restore(&start).expect("restores");
        let core_cycles = (batched(&mut p, &start) - start.cycle) * cell.cores as u64;
        (start, p, core_cycles)
    });
    let [(lock_start, mut lock_p, lock_core_cycles), (div_start, mut div_p, div_core_cycles)] =
        sides;
    let ratio = common::measure(
        rounds,
        || common::timed(|| batched(&mut div_p, &div_start)),
        || common::timed(|| batched(&mut lock_p, &lock_start)),
    );
    let per_core_cycle = ratio.value * lock_core_cycles as f64 / div_core_cycles as f64;
    println!(
        "fast_path/divergent_vs_lockstep: run() {:.2} ns per core-cycle on SQRT32/nosync/8, \
         {:.2} on MRPDLN/sync/8",
        ratio.best_subject.as_secs_f64() * 1e9 / div_core_cycles as f64,
        ratio.best_reference.as_secs_f64() * 1e9 / lock_core_cycles as f64,
    );
    passed &= common::check(
        "fast_path/divergent_vs_lockstep",
        per_core_cycle,
        DIVERGENT_BAND,
    );
    if !passed {
        std::process::exit(1);
    }
}
