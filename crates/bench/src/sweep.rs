//! Batched experiment sweeps: run a (benchmark × design × core-count)
//! grid through the batch simulation service.
//!
//! Every grid cell is one deterministic, self-contained simulation, so the
//! sweep is a thin client of [`ulp_service::SimService`]: the grid becomes
//! a batch of [`ulp_service::JobSpec`]s, the service's work-stealing pool
//! executes them over per-worker platform caches, and completed cells
//! stream back incrementally — [`run_sweep_with`] reports each one through
//! a progress callback the moment it lands, while [`run_sweep`] just
//! gathers them. Results are returned in grid order and are bit-identical
//! to serial execution.
//!
//! ```no_run
//! use ulp_bench::{SweepSpec, run_sweep_with};
//! use ulp_kernels::WorkloadConfig;
//!
//! let spec = SweepSpec::full_grid(WorkloadConfig::quick_test());
//! let results = run_sweep_with(&spec, |cell, progress| {
//!     println!("[{}/{}] {}", progress.completed, progress.total, cell.describe());
//! })
//! .unwrap();
//! assert_eq!(results.cells.len(), spec.len());
//! ```

use std::sync::Arc;
use ulp_kernels::{Benchmark, BenchmarkRun, RunnerError, WorkloadConfig};
use ulp_power::{Activity, PowerModel};
use ulp_service::{JobOutput, JobSpec, ServiceConfig, ServiceStats, SimService};
use ulp_shard::{MergedHeatMap, ShardPlan, ShardRunConfig, ShardRunner, ShardedRun};
use ulp_telemetry::{EventKind, Telemetry, CLIENT_TRACK};

/// The paper's Table I workload in MOps/s — what every cell's
/// [`SweepCell::energy_uj`] is priced at.
pub const PAPER_WORKLOAD_MOPS: f64 = 8.0;

/// The grid of a sweep: every combination of benchmark, design, core
/// count and shard size is one simulation (a sharded cell is one *logical*
/// simulation fanned out over several service jobs and merged).
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Benchmarks to run.
    pub benchmarks: Vec<Benchmark>,
    /// Designs to run: `true` = with synchronizer (improved), `false` =
    /// baseline.
    pub designs: Vec<bool>,
    /// Core counts to run (1..=8; the kernels assume one private DM bank
    /// per core).
    pub core_counts: Vec<usize>,
    /// Shard axis: `None` = run the workload as a single window (it must
    /// then fit the platform buffers); `Some(s)` = split the workload's
    /// recording into ≤ `s`-sample shards with the benchmark's required
    /// halo ([`ulp_shard::required_halo`]), run them as independent jobs
    /// and merge — so grids can sweep shard size × cores.
    pub shard_samples: Vec<Option<usize>>,
    /// Workload shared by every cell.
    pub workload: WorkloadConfig,
    /// Cycles per row of the per-bank DM heat map every cell's jobs
    /// record ([`ulp_service::JobSpec::heat_map_window`]); `None` records
    /// none. Sharded cells record it on every shard job and the merge
    /// re-indexes the rows onto the recording's global cycle axis;
    /// unsharded cells lift their single job's rows into the same
    /// [`MergedHeatMap`] — either way [`SweepCell::heat_map`] carries the
    /// result.
    pub heat_map_window: Option<u64>,
    /// Worker threads; `0` = one per available hardware thread. The
    /// service's queued backlog is bounded at four jobs per worker, and
    /// the sweep submits through the *blocking* bounded path, so a huge
    /// grid throttles to the workers' claim rate instead of materializing
    /// its whole job list as queued backlog.
    pub threads: usize,
    /// Telemetry sink the sweep's private service pool records into
    /// (disabled by default — every hook is then a single branch). Pass
    /// an enabled handle and keep a clone: the sweep adds client-side
    /// merge/stream events per job and the pool records the full
    /// lifecycle, exportable via [`Telemetry::chrome_trace`] /
    /// [`Telemetry::snapshot_json`] during or after the run.
    pub telemetry: Telemetry,
    /// Checkpoint cadence in simulated cycles: `Some(n)` makes every
    /// cell's jobs migratable ([`ulp_service::JobSpec::checkpoint_every`]) —
    /// each job snapshots its platform every `n` cycles, so a lost
    /// worker's in-flight job resumes on a survivor with bit-identical
    /// results. `None` (the default) runs without checkpoints.
    pub checkpoint_every: Option<u64>,
    /// Directory the sweep's service pool persists checkpoint blobs into
    /// ([`ulp_service::ServiceConfig::checkpoint_dir`]; best-effort,
    /// latest-wins per job). `None` (the default) persists nothing.
    pub checkpoint_dir: Option<std::path::PathBuf>,
}

impl SweepSpec {
    /// The full paper grid on `workload`: all three benchmarks, both
    /// designs, 2/4/8 cores, unsharded.
    pub fn full_grid(workload: WorkloadConfig) -> SweepSpec {
        SweepSpec {
            benchmarks: Benchmark::ALL.to_vec(),
            designs: vec![true, false],
            core_counts: vec![2, 4, 8],
            shard_samples: vec![None],
            workload,
            heat_map_window: None,
            threads: 0,
            telemetry: Telemetry::disabled(),
            checkpoint_every: None,
            checkpoint_dir: None,
        }
    }

    /// The paper's own evaluation grid: all benchmarks, both designs, the
    /// 8-core platform only.
    pub fn paper_grid(workload: WorkloadConfig) -> SweepSpec {
        SweepSpec {
            core_counts: vec![8],
            ..SweepSpec::full_grid(workload)
        }
    }

    /// Number of grid cells.
    pub fn len(&self) -> usize {
        self.benchmarks.len()
            * self.designs.len()
            * self.core_counts.len()
            * self.shard_samples.len()
    }

    /// Whether the grid is empty — any empty axis empties the whole grid,
    /// and [`run_sweep`] on an empty grid returns immediately without
    /// starting the service.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn cells(&self) -> Vec<(Benchmark, bool, usize, Option<usize>)> {
        let mut cells = Vec::with_capacity(self.len());
        for &benchmark in &self.benchmarks {
            for &with_sync in &self.designs {
                for &cores in &self.core_counts {
                    for &shard in &self.shard_samples {
                        cells.push((benchmark, with_sync, cores, shard));
                    }
                }
            }
        }
        cells
    }
}

/// One completed grid cell.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Core count of this cell's platform.
    pub cores: usize,
    /// Samples per shard when the cell ran sharded; `None` for a single
    /// window. Sharded cells carry merged statistics/outputs and
    /// *full-recording* golden expectations, so `run.verify()` doubles as
    /// the sharded-versus-golden equivalence check.
    pub shard_samples: Option<usize>,
    /// The run itself (statistics, outputs, golden expectations).
    pub run: BenchmarkRun,
    /// The cell's heat map, when [`SweepSpec::heat_map_window`] is set:
    /// merged across shards for a sharded cell, the single job's rows
    /// lifted to the same representation otherwise.
    pub heat_map: Option<MergedHeatMap>,
    /// Energy to process the cell's recording at the paper's Table I
    /// workload ([`PAPER_WORKLOAD_MOPS`]), in microjoules; `None` when
    /// that workload exceeds the design's feasible range.
    pub energy_uj: Option<f64>,
}

impl SweepCell {
    /// One-line human summary of the cell.
    pub fn describe(&self) -> String {
        let shard = match self.shard_samples {
            Some(s) => format!(", {s}-sample shards"),
            None => String::new(),
        };
        format!(
            "{:<7} {:<8} {} cores: {:>9} cycles, {:.2} ops/cycle, width {:.2}{}",
            self.run.benchmark.name(),
            if self.run.with_sync {
                "sync"
            } else {
                "baseline"
            },
            self.cores,
            self.run.stats.cycles,
            self.run.stats.ops_per_cycle(),
            self.run.stats.avg_lockstep_width(),
            shard,
        )
    }
}

/// Incremental completion info handed to the [`run_sweep_with`] callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepProgress {
    /// Successfully completed cells so far, this one included — counts
    /// gaplessly from 1 and reaches `total` exactly when every cell of
    /// the grid succeeded (errored cells are not streamed; the sweep
    /// returns their error instead).
    pub completed: usize,
    /// Total cells in the grid.
    pub total: usize,
    /// Grid-order index of the completed cell (cells complete out of
    /// order; this is where it belongs).
    pub index: usize,
}

/// Everything a finished sweep produced.
#[derive(Debug)]
pub struct SweepResults {
    /// Completed cells, in grid order (benchmark-major, then design, then
    /// core count) regardless of which worker ran them.
    pub cells: Vec<SweepCell>,
    /// Worker threads used.
    pub threads_used: usize,
    /// Platforms constructed across all workers (the rest were reuses).
    pub platforms_built: usize,
    /// Scheduling statistics of the service run that executed the grid.
    pub service: ServiceStats,
}

impl SweepResults {
    /// The first cell (in grid order) at a (benchmark, design, cores)
    /// coordinate; with a multi-valued shard axis this is the cell for
    /// the first shard size — use [`SweepResults::cell_sharded`] for an
    /// exact four-axis lookup.
    pub fn cell(&self, benchmark: Benchmark, with_sync: bool, cores: usize) -> Option<&SweepCell> {
        self.cells.iter().find(|c| {
            c.run.benchmark == benchmark && c.run.with_sync == with_sync && c.cores == cores
        })
    }

    /// The cell for an exact (benchmark, design, cores, shard) coordinate.
    pub fn cell_sharded(
        &self,
        benchmark: Benchmark,
        with_sync: bool,
        cores: usize,
        shard_samples: Option<usize>,
    ) -> Option<&SweepCell> {
        self.cells.iter().find(|c| {
            c.run.benchmark == benchmark
                && c.run.with_sync == with_sync
                && c.cores == cores
                && c.shard_samples == shard_samples
        })
    }

    /// Cycle-count speed-up of the improved design over the baseline at
    /// one (benchmark, cores) coordinate, when both designs were swept.
    pub fn speedup(&self, benchmark: Benchmark, cores: usize) -> Option<f64> {
        let with = self.cell(benchmark, true, cores)?;
        let without = self.cell(benchmark, false, cores)?;
        Some(without.run.stats.cycles as f64 / with.run.stats.cycles as f64)
    }
}

/// Runs every cell of `spec` through the simulation service and returns
/// the cells in grid order. Simulations are deterministic and independent,
/// so the result is bit-identical to running the grid serially.
///
/// # Errors
///
/// The first [`RunnerError`] in grid order; remaining cells still run to
/// completion.
pub fn run_sweep(spec: &SweepSpec) -> Result<SweepResults, RunnerError> {
    run_sweep_with(spec, |_, _| {})
}

/// How one grid cell executes: a single job, or a fan-out of shard jobs
/// merged on completion.
enum CellPlan {
    Single,
    // Boxed: a runner carries a whole workload + plan, a single cell
    // nothing — don't pay the large variant for every cell.
    Sharded(Box<ShardRunner>),
}

/// In-flight state of one cell: the outputs of its jobs (one for a single
/// cell, one per shard for a sharded one) and the first error it hit.
struct CellState {
    outputs: Vec<Option<JobOutput>>,
    remaining: usize,
    error: Option<RunnerError>,
}

/// [`run_sweep`] with streaming: `on_cell` is invoked for every completed
/// cell the moment the service delivers it (in completion order, which is
/// not grid order), before the sweep as a whole finishes — a sharded cell
/// completes when its last shard lands and is merged. The aggregate
/// [`SweepResults`] is identical to [`run_sweep`]'s.
///
/// An empty grid returns immediately — no service, no worker threads.
///
/// # Errors
///
/// See [`run_sweep`].
///
/// # Panics
///
/// Panics if a shard-axis entry yields no valid plan for the workload
/// (e.g. shard + required halo beyond the platform buffer capacity) —
/// invalid geometry is a caller bug, like an out-of-range workload size.
pub fn run_sweep_with(
    spec: &SweepSpec,
    mut on_cell: impl FnMut(&SweepCell, SweepProgress),
) -> Result<SweepResults, RunnerError> {
    let coords = spec.cells();
    if coords.is_empty() {
        return Ok(SweepResults {
            cells: Vec::new(),
            threads_used: 0,
            platforms_built: 0,
            service: ServiceStats::default(),
        });
    }

    // Expand cells into concrete service jobs: sharded cells fan out into
    // one job per shard. `job_map[job_id] = (cell index, slot in cell)`.
    let workload = Arc::new(spec.workload.clone());
    let mut plans = Vec::with_capacity(coords.len());
    let mut states = Vec::with_capacity(coords.len());
    let mut specs: Vec<JobSpec> = Vec::new();
    let mut job_map: Vec<(usize, usize)> = Vec::new();
    // Job ids of every cell (contiguous: ids follow submission order),
    // for the client-side merge/stream events recorded at cell
    // finalization.
    let mut cell_jobs: Vec<std::ops::Range<u64>> = Vec::with_capacity(coords.len());
    let client_track = spec.telemetry.track(CLIENT_TRACK);
    for (cell_idx, &(benchmark, with_sync, cores, shard)) in coords.iter().enumerate() {
        let (plan, jobs) = match shard {
            None => {
                let mut job = JobSpec::new(benchmark, cores, workload.clone()).with_sync(with_sync);
                job.heat_map_window = spec.heat_map_window;
                if let Some(cycles) = spec.checkpoint_every {
                    job = job.checkpoint_every(cycles);
                }
                (CellPlan::Single, vec![job])
            }
            Some(samples) => {
                let plan = ShardPlan::for_workload(benchmark, &spec.workload, samples)
                    .unwrap_or_else(|e| {
                        panic!("invalid shard axis entry {samples} for {benchmark}: {e}")
                    });
                let mut config =
                    ShardRunConfig::new(benchmark, with_sync, cores, spec.workload.clone());
                config.heat_map_window = spec.heat_map_window;
                if let Some(cycles) = spec.checkpoint_every {
                    config = config.with_checkpoint_every(cycles);
                }
                let runner = ShardRunner::new(config, plan)
                    .expect("plan covers the workload by construction");
                let jobs = runner.job_specs();
                (CellPlan::Sharded(Box::new(runner)), jobs)
            }
        };
        states.push(CellState {
            outputs: (0..jobs.len()).map(|_| None).collect(),
            remaining: jobs.len(),
            error: None,
        });
        let first = specs.len() as u64;
        for (slot, job) in jobs.into_iter().enumerate() {
            job_map.push((cell_idx, slot));
            specs.push(job);
        }
        cell_jobs.push(first..specs.len() as u64);
        plans.push(plan);
    }

    // Resolve exactly like the service would, then cap at the job count —
    // a pool larger than the batch would only park the surplus workers.
    let workers = ServiceConfig::builder()
        .workers(spec.threads)
        .build()
        .resolved_workers()
        .min(specs.len())
        .max(1);
    // Submit through the bounded path: the blocking `submit` below parks
    // this thread whenever the backlog hits capacity, so the grid is fed
    // at the workers' claim rate.
    let mut builder = ServiceConfig::builder()
        .workers(workers)
        .queue_capacity(workers * 4)
        .telemetry(spec.telemetry.clone());
    if let Some(dir) = &spec.checkpoint_dir {
        builder = builder.checkpoint_dir(dir.clone());
    }
    let mut service = SimService::start(builder.build());

    let total = coords.len();
    let mut cells: Vec<Option<Result<SweepCell, RunnerError>>> = (0..total).map(|_| None).collect();
    let mut completed = 0;
    // Full-recording golden passes for sharded cells, computed once per
    // (benchmark, cores): cells along the shard and design axes share
    // them, and the golden depends on neither.
    let mut goldens: std::collections::HashMap<(Benchmark, usize), Vec<Vec<u16>>> =
        std::collections::HashMap::new();
    // Every cell is priced by the same calibrated model at the paper's
    // Table I workload.
    let model = PowerModel::calibrated_default();
    // One completed job landing — shared by the drain during submission
    // and the final drain, so cells stream (and the callback fires) while
    // the blocking bounded submission is still feeding the grid, not in a
    // burst after it.
    let mut handle = |result: ulp_service::JobResult| {
        let (cell_idx, slot) = job_map[result.id as usize];
        let state = &mut states[cell_idx];
        match result.outcome {
            Ok(out) => state.outputs[slot] = Some(out),
            // Keep the first error per cell; remaining shards still run.
            Err(e) => {
                state.error.get_or_insert(e);
            }
        }
        state.remaining -= 1;
        if state.remaining > 0 {
            return;
        }
        // The cell's last job landed: finalize it.
        let (_, _, cores, shard) = coords[cell_idx];
        let cell = if let Some(error) = state.error.take() {
            Err(error)
        } else {
            let outputs: Vec<JobOutput> = state
                .outputs
                .iter_mut()
                .map(|o| o.take().expect("slot filled"))
                .collect();
            Ok(match &plans[cell_idx] {
                CellPlan::Single => {
                    let out = outputs.into_iter().next().expect("one job per single cell");
                    let activity = Activity::from_stats(&out.run.stats);
                    let energy_uj = model.energy_for_ops_uj(
                        &activity,
                        PAPER_WORKLOAD_MOPS,
                        out.run.stats.useful_ops(),
                    );
                    // A job asked for a heat map returns one, so its
                    // window is the spec's.
                    let cycles = out.run.stats.cycles;
                    let heat_map = out.heat_map.as_deref().zip(spec.heat_map_window);
                    let heat_map = heat_map
                        .map(|(rows, window)| MergedHeatMap::from_single(rows, window, cycles));
                    SweepCell {
                        cores: out.cores,
                        shard_samples: None,
                        run: out.run,
                        heat_map,
                        energy_uj,
                    }
                }
                CellPlan::Sharded(runner) => {
                    let sharded = ShardedRun {
                        config: runner.config().clone(),
                        plan: runner.plan().clone(),
                        shards: runner
                            .plan()
                            .shards()
                            .iter()
                            .zip(outputs)
                            .map(|(&s, out)| ulp_shard::ShardOutput {
                                shard: s,
                                run: out.run,
                                heat_map: out.heat_map,
                            })
                            .collect(),
                    };
                    let benchmark = sharded.config.benchmark;
                    let expected = goldens
                        .entry((benchmark, cores))
                        .or_insert_with(|| {
                            ulp_kernels::golden_outputs(benchmark, &spec.workload, cores)
                        })
                        .clone();
                    // The sweep built the shards in plan order itself, so a
                    // merge failure is an internal invariant break, not input.
                    let merged = ulp_shard::merge_with_golden(&sharded, expected)
                        .expect("sweep-built shards are plan-ordered and well-shaped");
                    let energy_uj = merged.energy_uj(&model, PAPER_WORKLOAD_MOPS);
                    SweepCell {
                        cores,
                        shard_samples: shard,
                        run: merged.run,
                        heat_map: merged.heat_map,
                        energy_uj,
                    }
                }
            })
        };
        if let Ok(cell) = &cell {
            // The cell's jobs merged into one result: record the
            // client-side lifecycle tail (merge, then — once the
            // callback has seen it — stream) for every job of the cell.
            for id in cell_jobs[cell_idx].clone() {
                client_track.record(EventKind::Merged, id);
            }
            // Errored cells are not streamed (the sweep as a whole
            // returns their error), so `completed` counts exactly the
            // cells the callback sees: it reaches `total` iff every cell
            // succeeded, with no gaps in between.
            completed += 1;
            on_cell(
                cell,
                SweepProgress {
                    completed,
                    total,
                    index: cell_idx,
                },
            );
            for id in cell_jobs[cell_idx].clone() {
                client_track.record(EventKind::Streamed, id);
            }
        }
        cells[cell_idx] = Some(cell);
    };

    for job in specs {
        // Job ids are assigned in submission order, so id indexes job_map.
        service
            .submit_blocking(job)
            .expect("the sweep's private pool outlives its own submissions");
        // Drain whatever finished so far: keeps the callback streaming
        // during the (now backpressure-throttled, sweep-long) submission
        // phase and the result channel shallow.
        while let Some(result) = service.try_recv() {
            handle(result);
        }
    }
    while let Some(result) = service.recv() {
        handle(result);
    }
    let stats = service.finish();

    let mut out = Vec::with_capacity(total);
    for slot in cells {
        out.push(slot.expect("every cell ran")?);
    }
    Ok(SweepResults {
        cells: out,
        threads_used: stats.workers,
        platforms_built: stats.platforms_built as usize,
        service: stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_kernels::run_benchmark_on;
    use ulp_platform::PlatformConfig;

    fn quick_spec() -> SweepSpec {
        SweepSpec {
            benchmarks: vec![Benchmark::Sqrt32, Benchmark::Mrpfltr],
            designs: vec![true, false],
            core_counts: vec![2, 4],
            shard_samples: vec![None],
            workload: WorkloadConfig::quick_test(),
            heat_map_window: None,
            threads: 0,
            telemetry: Telemetry::disabled(),
            checkpoint_every: None,
            checkpoint_dir: None,
        }
    }

    #[test]
    fn sweep_matches_serial_execution_bit_exactly() {
        let spec = quick_spec();
        let results = run_sweep(&spec).expect("sweep runs");
        assert_eq!(results.cells.len(), spec.len());
        for cell in &results.cells {
            cell.run.verify().expect("outputs match golden model");
            let serial = run_benchmark_on(
                cell.run.benchmark,
                PlatformConfig::paper(cell.run.with_sync)
                    .with_cores(cell.cores)
                    .with_max_cycles(spec.workload.max_cycles),
                &spec.workload,
            )
            .expect("serial run");
            assert_eq!(cell.run.stats, serial.stats, "{}", cell.describe());
            assert_eq!(cell.run.outputs, serial.outputs);
        }
    }

    #[test]
    fn sweep_cells_come_back_in_grid_order() {
        let spec = quick_spec();
        let results = run_sweep(&spec).expect("sweep runs");
        let coords: Vec<(Benchmark, bool, usize, Option<usize>)> = results
            .cells
            .iter()
            .map(|c| (c.run.benchmark, c.run.with_sync, c.cores, c.shard_samples))
            .collect();
        assert_eq!(coords, spec.cells());
        assert!(results.threads_used >= 1);
        assert!(results.platforms_built >= 1);
        assert_eq!(results.service.jobs_run as usize, spec.len());
        assert_eq!(results.service.workers, results.threads_used);
    }

    #[test]
    fn sharded_cells_sweep_shard_size_by_cores_and_verify() {
        // A 600-sample recording (beyond MAX_N) swept over two shard
        // sizes × two core counts: every merged cell must match its
        // full-recording golden pass, and cycles must exceed any single
        // shard's (several shards were really merged).
        let spec = SweepSpec {
            benchmarks: vec![Benchmark::Mrpdln],
            designs: vec![true],
            core_counts: vec![2, 4],
            shard_samples: vec![Some(150), Some(288)],
            workload: WorkloadConfig {
                n: 600,
                ..WorkloadConfig::quick_test()
            },
            heat_map_window: None,
            // One worker bounds the queue at four jobs: the 14 shard jobs
            // must flow through a saturated bounded queue and still merge
            // bit-exactly.
            threads: 1,
            telemetry: Telemetry::disabled(),
            checkpoint_every: None,
            checkpoint_dir: None,
        };
        let results = run_sweep(&spec).expect("sharded sweep runs");
        assert_eq!(results.cells.len(), 4);
        assert_eq!(results.threads_used, 1);
        assert_eq!(
            results.service.jobs_run, 14,
            "(4 + 3 shards) x 2 core counts"
        );
        for cell in &results.cells {
            assert!(cell.shard_samples.is_some());
            // verify() compares the stitched outputs against the
            // *full-recording* golden model — the equivalence claim.
            cell.run
                .verify()
                .unwrap_or_else(|e| panic!("{}: {e}", cell.describe()));
            assert_eq!(cell.run.outputs[0].len(), 600);
            assert!(cell.describe().contains("-sample shards"));
        }
        // Exact four-axis lookup distinguishes the shard sizes.
        let small = results
            .cell_sharded(Benchmark::Mrpdln, true, 2, Some(150))
            .unwrap();
        let large = results
            .cell_sharded(Benchmark::Mrpdln, true, 2, Some(288))
            .unwrap();
        assert_ne!(small.run.stats.cycles, large.run.stats.cycles);
        // More shards → more total halo work at equal recording length.
        assert!(small.run.stats.useful_ops() > large.run.stats.useful_ops());
    }

    #[test]
    fn mixed_shard_axis_runs_sharded_and_unsharded_cells_together() {
        let spec = SweepSpec {
            benchmarks: vec![Benchmark::Sqrt32],
            designs: vec![true],
            core_counts: vec![2],
            shard_samples: vec![None, Some(24)],
            workload: WorkloadConfig::quick_test(), // n = 48 fits unsharded
            heat_map_window: None,
            threads: 2,
            telemetry: Telemetry::disabled(),
            checkpoint_every: None,
            checkpoint_dir: None,
        };
        let results = run_sweep(&spec).expect("mixed sweep runs");
        assert_eq!(results.cells.len(), 2);
        let single = &results.cells[0];
        let sharded = &results.cells[1];
        assert_eq!(single.shard_samples, None);
        assert_eq!(sharded.shard_samples, Some(24));
        single.run.verify().unwrap();
        sharded.run.verify().unwrap();
        // SQRT32 is point-wise (zero halo): the sharded outputs equal the
        // single-window outputs exactly.
        assert_eq!(single.run.outputs, sharded.run.outputs);
        // Two shards were simulated: per-cell job accounting shows up in
        // the service stats (1 single + 2 shard jobs).
        assert_eq!(results.service.jobs_run, 3);
        // No heat map was asked for: neither cell carries one.
        assert!(single.heat_map.is_none());
        assert!(sharded.heat_map.is_none());
    }

    /// The artifact-drop regression: with a heat map asked for, *both*
    /// the unsharded and the sharded cell of a mixed grid must carry
    /// their heat map and energy through the sweep — the sharded one
    /// merged onto the recording's global cycle axis.
    #[test]
    fn observer_sweep_carries_artifacts_and_energy_on_every_cell() {
        let spec = SweepSpec {
            benchmarks: vec![Benchmark::Sqrt32],
            designs: vec![true],
            core_counts: vec![2],
            shard_samples: vec![None, Some(24)],
            workload: WorkloadConfig::quick_test(), // n = 48 fits unsharded
            heat_map_window: Some(256),
            threads: 2,
            telemetry: Telemetry::disabled(),
            checkpoint_every: None,
            checkpoint_dir: None,
        };
        let mut streamed = 0;
        let results = run_sweep_with(&spec, |cell, _| {
            // The heat map is present already at streaming time, not
            // only in the gathered aggregate.
            assert!(cell.heat_map.is_some(), "streamed cell");
            streamed += 1;
        })
        .expect("observer sweep runs");
        assert_eq!(streamed, 2);

        let single = &results.cells[0];
        let sharded = &results.cells[1];
        for cell in [single, sharded] {
            let map = cell.heat_map.as_ref().expect("a heat map");
            assert!(map.banks() > 0);
            assert!(map.totals().iter().sum::<u64>() > 0, "the kernel hits DM");
            // Rows tile the cell's cycle axis gaplessly.
            let mut cursor = 0;
            for row in &map.rows {
                assert_eq!(row.start_cycle, cursor);
                cursor = row.end_cycle;
            }
            assert_eq!(cursor, cell.run.stats.cycles);
            let energy = cell.energy_uj.expect("8 MOps/s is feasible with sync");
            assert!(energy > 0.0);
        }
        // The sharded map spans both shards.
        let map = sharded.heat_map.as_ref().unwrap();
        let shards: std::collections::HashSet<usize> = map.rows.iter().map(|r| r.shard).collect();
        assert_eq!(shards.len(), 2, "rows from both shards survive the merge");
    }

    #[test]
    fn speedup_is_positive_where_both_designs_ran() {
        let mut spec = quick_spec();
        spec.benchmarks = vec![Benchmark::Sqrt32];
        spec.core_counts = vec![8];
        let results = run_sweep(&spec).expect("sweep runs");
        let speedup = results.speedup(Benchmark::Sqrt32, 8).expect("both designs");
        assert!(speedup > 1.0, "sync design must win: {speedup}");
        assert!(results.speedup(Benchmark::Mrpdln, 8).is_none());
    }

    #[test]
    fn single_threaded_sweep_works() {
        let mut spec = quick_spec();
        spec.threads = 1;
        spec.benchmarks = vec![Benchmark::Sqrt32];
        let results = run_sweep(&spec).expect("sweep runs");
        assert_eq!(results.threads_used, 1);
        assert_eq!(results.cells.len(), 4);
        // One worker, two designs x two core counts: four platforms, each
        // reused nowhere in this tiny grid but cached per coordinate.
        assert_eq!(results.platforms_built, 4);
        assert_eq!(results.service.steals, 0, "one worker cannot steal");
    }

    #[test]
    fn streaming_reports_every_cell_and_matches_gather() {
        let spec = quick_spec();
        let mut seen: Vec<SweepProgress> = Vec::new();
        let streamed = run_sweep_with(&spec, |cell, progress| {
            assert!(!cell.describe().is_empty());
            seen.push(progress);
        })
        .expect("sweep runs");

        let total = spec.len();
        assert_eq!(seen.len(), total);
        // `completed` counts monotonically 1..=total as cells stream in.
        assert_eq!(
            seen.iter().map(|p| p.completed).collect::<Vec<_>>(),
            (1..=total).collect::<Vec<_>>()
        );
        assert!(seen.iter().all(|p| p.total == total));
        // Every grid index is reported exactly once.
        let mut indices: Vec<usize> = seen.iter().map(|p| p.index).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..total).collect::<Vec<_>>());

        // The streamed aggregate is the non-streaming result, bit-exactly.
        let gathered = run_sweep(&spec).expect("sweep runs");
        assert_eq!(streamed.cells.len(), gathered.cells.len());
        for (a, b) in streamed.cells.iter().zip(&gathered.cells) {
            assert_eq!(a.run.stats, b.run.stats);
            assert_eq!(a.run.outputs, b.run.outputs);
        }
    }

    #[test]
    fn empty_grid_returns_immediately_without_workers() {
        for spec in [
            SweepSpec {
                benchmarks: vec![],
                ..quick_spec()
            },
            SweepSpec {
                designs: vec![],
                ..quick_spec()
            },
            SweepSpec {
                core_counts: vec![],
                ..quick_spec()
            },
            SweepSpec {
                shard_samples: vec![],
                ..quick_spec()
            },
        ] {
            assert_eq!(spec.len(), 0);
            assert!(spec.is_empty());
            let results = run_sweep(&spec).expect("empty sweep is trivially ok");
            assert!(results.cells.is_empty());
            assert_eq!(results.threads_used, 0, "no workers for an empty grid");
            assert_eq!(results.platforms_built, 0);
            assert_eq!(results.service, ServiceStats::default());
            // Lookup paths are well-defined on the empty result.
            assert!(results.cell(Benchmark::Sqrt32, true, 2).is_none());
            assert!(results.speedup(Benchmark::Sqrt32, 2).is_none());
        }
        let full = quick_spec();
        assert!(!full.is_empty());
        assert_eq!(full.len(), 8);
    }
}
