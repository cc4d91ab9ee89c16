//! The three workloads and their job lists. Every input a run uses —
//! ECG seeds, job order, window lengths — is derived here from the
//! command-line seed, so one seed always yields the same job list.

use std::sync::Arc;
use ulp_kernels::{Benchmark, WorkloadConfig};
use ulp_service::JobSpec;
use ulp_shard::{ShardPlan, ShardRunConfig, ShardRunner};
use ulp_telemetry::Telemetry;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2013;
/// Seed kept out of tuning: a gain claimed on the default seed must also
/// hold here.
pub const HELD_OUT_SEED: u64 = 7919;

/// Core counts of the paper grid.
pub const CORE_COUNTS: [usize; 3] = [2, 4, 8];
/// Window lengths of `short_windows` jobs (quick-test filter parameters).
pub const SHORT_NS: [usize; 4] = [16, 24, 32, 48];
/// Jobs of every (cell, n) pair in one `short_windows` pass.
const SHORT_REPEATS: usize = 2;
/// Samples per channel of the `long_recording` recording (~65 s of ECG).
pub const RECORDING_SAMPLES: usize = 16_384;
/// Core samples per shard of the `long_recording` recording.
pub const SAMPLES_PER_SHARD: usize = 256;
/// Samples per channel of the recording that warms the pool up for
/// `long_recording` and sets its checkpoint cadence.
pub const WARMUP_RECORDING_SAMPLES: usize = 1_024;
/// Snapshots each `long_recording` shard should take.
pub const SNAPSHOTS_PER_SHARD: u64 = 3;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper grid at n = 256: 18 cells submitted as one batch.
    PaperGrid,
    /// Closed loop of short jobs, one outstanding per worker.
    ShortWindows,
    /// One long MRPDLN recording, sharded, checkpointed and merged.
    LongRecording,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::ShortWindows,
        Workload::LongRecording,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::ShortWindows => "short_windows",
            Workload::LongRecording => "long_recording",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: a tiny, well-mixed generator, so the benchmark needs no
/// dependency to turn one seed into many.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// Gives `workload` its own ECG recording: fresh beat-grid and noise
    /// seeds.
    fn seed_ecg(&mut self, workload: &mut WorkloadConfig) {
        workload.ecg.seed = self.next_u64();
        workload.ecg.noise_seed = self.next_u64();
    }
}

/// One (kernel, design, cores) cell of the paper grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The kernel.
    pub benchmark: Benchmark,
    /// `true` = the design with the hardware synchronizer.
    pub with_sync: bool,
    /// Cores of the platform.
    pub cores: usize,
}

impl Cell {
    /// `<KERNEL>.<sync|nosync>.<cores>`, as the ledger prints it.
    pub fn label(&self) -> String {
        let design = if self.with_sync { "sync" } else { "nosync" };
        format!("{}.{design}.{}", self.benchmark.name(), self.cores)
    }
}

/// The 18 cells in paper order: kernel, then design, then cores.
pub fn cells() -> Vec<Cell> {
    let mut cells = Vec::with_capacity(18);
    for benchmark in Benchmark::ALL {
        for with_sync in [true, false] {
            for cores in CORE_COUNTS {
                cells.push(Cell {
                    benchmark,
                    with_sync,
                    cores,
                });
            }
        }
    }
    cells
}

/// One service job of a `paper_grid` or `short_windows` pass.
#[derive(Debug, Clone)]
pub struct Job {
    /// Index of the job's cell in [`cells`].
    pub cell: usize,
    /// The cell itself.
    pub spec: Cell,
    /// The job's inputs.
    pub workload: Arc<WorkloadConfig>,
}

impl Job {
    /// The service submission for this job.
    pub fn job_spec(&self) -> JobSpec {
        JobSpec::new(self.spec.benchmark, self.spec.cores, self.workload.clone())
            .with_sync(self.spec.with_sync)
    }

    /// ECG samples the job analyses (window length × channels).
    pub fn samples(&self) -> u64 {
        (self.workload.n * self.spec.cores) as u64
    }
}

/// The `long_recording` recording: what one pass shards, runs and merges.
#[derive(Debug, Clone)]
pub struct Recording {
    /// The full recording (its `n` is the recording length).
    pub workload: WorkloadConfig,
    /// The short recording the pool warms up on.
    pub warmup: WorkloadConfig,
}

impl Recording {
    /// The kernel every shard runs.
    pub const BENCHMARK: Benchmark = Benchmark::Mrpdln;
    /// Cores of every shard's platform.
    pub const CORES: usize = 8;

    /// The shard plan of `workload`.
    ///
    /// # Panics
    ///
    /// Panics if the constants above stop forming a valid plan.
    pub fn plan(workload: &WorkloadConfig) -> ShardPlan {
        ShardPlan::for_workload(Self::BENCHMARK, workload, SAMPLES_PER_SHARD)
            .expect("the recording geometry is a valid shard plan")
    }

    /// A runner for `workload` on the sync design, checkpointing every
    /// `every` cycles when set, recording into `telemetry`.
    pub fn runner(
        workload: &WorkloadConfig,
        plan: ShardPlan,
        every: Option<u64>,
        telemetry: Telemetry,
    ) -> ShardRunner {
        let config = ShardRunConfig::new(Self::BENCHMARK, true, Self::CORES, workload.clone())
            .with_telemetry(telemetry);
        let config = match every {
            Some(cycles) => config.with_checkpoint_every(cycles),
            None => config,
        };
        ShardRunner::new(config, plan).expect("the plan covers the recording")
    }
}

/// The inputs of one workload at one seed.
#[derive(Debug, Clone)]
pub enum JobList {
    /// The jobs of one pass, in submission order.
    Jobs(Vec<Job>),
    /// The recording of one pass.
    Recording(Box<Recording>),
}

impl JobList {
    /// The job list of `workload` at `seed`.
    pub fn generate(workload: Workload, seed: u64) -> JobList {
        let mut rng = Rng::new(seed);
        let cells = cells();
        match workload {
            Workload::PaperGrid => {
                // One recording shared by the whole grid, so cells compare
                // designs and core counts on identical data. Submission
                // order stays fixed: the seed changes the data, not the
                // schedule.
                let mut config = WorkloadConfig::paper();
                rng.seed_ecg(&mut config);
                let workload = Arc::new(config);
                JobList::Jobs(
                    cells
                        .iter()
                        .enumerate()
                        .map(|(cell, &spec)| Job {
                            cell,
                            spec,
                            workload: workload.clone(),
                        })
                        .collect(),
                )
            }
            Workload::ShortWindows => {
                // Every (cell, n) pair the same number of times, in seeded
                // order, so each pass does the same amount of work while
                // no two jobs share input data.
                let mut pairs: Vec<(usize, usize)> = (0..cells.len())
                    .flat_map(|cell| SHORT_NS.into_iter().map(move |n| (cell, n)))
                    .flat_map(|pair| std::iter::repeat_n(pair, SHORT_REPEATS))
                    .collect();
                rng.shuffle(&mut pairs);
                JobList::Jobs(
                    pairs
                        .into_iter()
                        .map(|(cell, n)| {
                            let mut config = WorkloadConfig::quick_test();
                            config.n = n;
                            rng.seed_ecg(&mut config);
                            Job {
                                cell,
                                spec: cells[cell],
                                workload: Arc::new(config),
                            }
                        })
                        .collect(),
                )
            }
            Workload::LongRecording => {
                let mut config = WorkloadConfig::paper();
                config.n = RECORDING_SAMPLES;
                rng.seed_ecg(&mut config);
                let warmup = WorkloadConfig {
                    n: WARMUP_RECORDING_SAMPLES,
                    ..config.clone()
                };
                JobList::Recording(Box::new(Recording {
                    workload: config,
                    warmup,
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(list: &JobList) -> String {
        format!("{list:?}")
    }

    #[test]
    fn one_seed_gives_one_job_list() {
        for workload in Workload::ALL {
            let a = JobList::generate(workload, DEFAULT_SEED);
            let b = JobList::generate(workload, DEFAULT_SEED);
            assert_eq!(fingerprint(&a), fingerprint(&b), "{}", workload.name());
        }
    }

    #[test]
    fn two_seeds_give_different_inputs() {
        for workload in Workload::ALL {
            let a = JobList::generate(workload, DEFAULT_SEED);
            let b = JobList::generate(workload, HELD_OUT_SEED);
            assert_ne!(fingerprint(&a), fingerprint(&b), "{}", workload.name());
        }
        // The inputs themselves differ, not just the configs.
        let channels = |seed| match JobList::generate(Workload::PaperGrid, seed) {
            JobList::Jobs(jobs) => jobs[0].workload.channels(2),
            JobList::Recording(_) => unreachable!(),
        };
        let a = channels(DEFAULT_SEED);
        let b = channels(HELD_OUT_SEED);
        assert_ne!(a[0].samples, b[0].samples);
    }

    #[test]
    fn short_windows_pass_covers_every_cell_and_length_equally() {
        let JobList::Jobs(jobs) = JobList::generate(Workload::ShortWindows, DEFAULT_SEED) else {
            unreachable!()
        };
        assert_eq!(jobs.len(), 18 * SHORT_NS.len() * SHORT_REPEATS);
        for cell in 0..18 {
            for n in SHORT_NS {
                let count = jobs
                    .iter()
                    .filter(|j| j.cell == cell && j.workload.n == n)
                    .count();
                assert_eq!(count, SHORT_REPEATS);
            }
        }
        let mut seeds: Vec<u64> = jobs.iter().map(|j| j.workload.ecg.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), jobs.len(), "no two jobs share input data");
    }

    #[test]
    fn recording_plan_has_the_documented_shape() {
        let JobList::Recording(rec) = JobList::generate(Workload::LongRecording, DEFAULT_SEED)
        else {
            unreachable!()
        };
        let plan = Recording::plan(&rec.workload);
        assert_eq!(plan.len(), RECORDING_SAMPLES / SAMPLES_PER_SHARD);
        assert!(plan.halo() > 0);
    }
}
