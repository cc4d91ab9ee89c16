//! Benchmark execution harness: run a kernel on both platform designs and
//! validate against the golden models.

use crate::builder::{KernelOptions, SyncGranularity};
use crate::layout::{buffer_base, BufferLayout, SHARED_BASE};
use crate::mrpdln_kernel::{mrpdln_source, MrpdlnParams, SHARED_THRESHOLD};
use crate::mrpfltr_kernel::{mrpfltr_source, MrpfltrParams};
use crate::sqrt32_kernel::{sqrt32_source, Sqrt32Params};
use std::fmt;
use ulp_biosignal::{
    combine_two_leads, delineate, generate_channels, generate_channels_window, mrpfltr,
    DelineationConfig, EcgConfig, EcgSignal, MrpfltrConfig,
};
use ulp_isa::asm::{assemble, AsmError};
use ulp_platform::{
    Checkpoint, ConfigError, Platform, PlatformConfig, PlatformError, RestoreError, RunProgress,
    SimStats,
};

/// One of the paper's three reference benchmarks (Section II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Morphological filtering: baseline wander correction and noise
    /// suppression.
    Mrpfltr,
    /// Delineation by multiscale morphological derivatives.
    Mrpdln,
    /// 32-bit integer square root for multi-lead combination.
    Sqrt32,
}

impl Benchmark {
    /// All benchmarks in the paper's presentation order.
    pub const ALL: [Benchmark; 3] = [Benchmark::Mrpfltr, Benchmark::Mrpdln, Benchmark::Sqrt32];

    /// The paper's name for the benchmark.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Mrpfltr => "MRPFLTR",
            Benchmark::Mrpdln => "MRPDLN",
            Benchmark::Sqrt32 => "SQRT32",
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a workload's `n` samples come from when they are a slice of a
/// longer recording: the `n` samples starting at `offset` of a
/// `total`-sample recording generated from the workload's [`EcgConfig`].
///
/// This is the kernel-layer half of workload sharding: a shard's job is an
/// ordinary [`WorkloadConfig`] whose `source` names its time window, so
/// the service executes it like any other job while the inputs (and golden
/// expectations) are bit-identical to the corresponding region of the full
/// recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceWindow {
    /// First sample (inclusive) of the window within the recording.
    pub offset: usize,
    /// Total length of the source recording in samples (may far exceed
    /// [`crate::layout::MAX_N`]; only the window itself must fit the
    /// platform's buffers).
    pub total: usize,
}

/// Workload parameters shared by all benchmark runs.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Samples per channel (≤ [`crate::layout::MAX_N`]).
    pub n: usize,
    /// When set, the `n` samples are the given window of a longer
    /// recording instead of a standalone `n`-sample recording.
    pub source: Option<SourceWindow>,
    /// Synthetic ECG recording parameters (one channel per core).
    pub ecg: EcgConfig,
    /// MRPFLTR structuring elements.
    pub mrpfltr: MrpfltrConfig,
    /// MRPDLN scales and threshold.
    pub delineation: DelineationConfig,
    /// Simulation cycle budget.
    pub max_cycles: u64,
    /// Synchronization-point placement (ablation A5).
    pub granularity: SyncGranularity,
    /// Buffer-to-bank placement (ablation A6).
    pub layout: BufferLayout,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig::paper()
    }
}

impl WorkloadConfig {
    /// The evaluation workload: 256 samples (≈ 1 s of ECG at 250 Hz) per
    /// channel with the default filter parameters.
    pub fn paper() -> WorkloadConfig {
        WorkloadConfig {
            n: 256,
            source: None,
            // Independent per-channel sources (separate sensor streams):
            // the multi-channel scenario with the richest data-dependent
            // divergence, which the synchronization technique targets.
            ecg: EcgConfig {
                independent_channels: true,
                ..EcgConfig::default()
            },
            mrpfltr: MrpfltrConfig::default(),
            delineation: DelineationConfig::default(),
            max_cycles: 400_000_000,
            granularity: SyncGranularity::PerSample,
            layout: BufferLayout::Packed,
        }
    }

    /// A small configuration for fast functional tests.
    pub fn quick_test() -> WorkloadConfig {
        WorkloadConfig {
            n: 48,
            source: None,
            ecg: EcgConfig {
                independent_channels: true,
                ..EcgConfig::default()
            },
            mrpfltr: MrpfltrConfig {
                baseline_open: 7,
                baseline_close: 11,
                noise: 3,
            },
            delineation: DelineationConfig {
                scale_small: 2,
                scale_large: 5,
                threshold: 150,
            },
            max_cycles: 80_000_000,
            granularity: SyncGranularity::PerSample,
            layout: BufferLayout::Packed,
        }
    }

    /// This workload restricted to the `len`-sample window at `offset` of
    /// the recording it currently describes: the result runs on the same
    /// signal data, sliced. Treats the current config as the *full*
    /// recording (its `n` becomes the window's `total`); windowing an
    /// already-windowed workload re-slices the same underlying recording.
    ///
    /// # Panics
    ///
    /// Panics if `offset + len` exceeds the recording length.
    #[must_use]
    pub fn windowed(&self, offset: usize, len: usize) -> WorkloadConfig {
        let (base, total) = match self.source {
            // Re-slicing: offsets compose within the original recording.
            Some(w) => (w.offset, w.total),
            None => (0, self.n),
        };
        assert!(
            base + offset + len <= total,
            "window {}..{} outside recording of {total} samples",
            base + offset,
            base + offset + len
        );
        WorkloadConfig {
            n: len,
            source: Some(SourceWindow {
                offset: base + offset,
                total,
            }),
            ..self.clone()
        }
    }

    /// The per-core input channels of this workload: windowed generation
    /// when `source` is set, a standalone `n`-sample recording otherwise.
    pub fn channels(&self, num_cores: usize) -> Vec<EcgSignal> {
        match self.source {
            Some(w) => {
                generate_channels_window(&self.ecg, num_cores, w.total, w.offset..w.offset + self.n)
            }
            None => generate_channels(&self.ecg, num_cores, self.n),
        }
    }
}

/// Result of one benchmark execution.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkRun {
    /// Which benchmark ran.
    pub benchmark: Benchmark,
    /// Whether the platform had the synchronization feature.
    pub with_sync: bool,
    /// Simulation statistics (the power model's input).
    pub stats: SimStats,
    /// Per-core output buffers as read from data memory.
    pub outputs: Vec<Vec<u16>>,
    /// Per-core golden-model outputs.
    pub expected: Vec<Vec<u16>>,
}

impl BenchmarkRun {
    /// Whether every core's output matches the golden model bit-exactly.
    pub fn is_valid(&self) -> bool {
        self.outputs == self.expected
    }

    /// Validates the outputs.
    ///
    /// # Errors
    ///
    /// [`RunnerError::OutputMismatch`] naming the first mismatching core.
    pub fn verify(&self) -> Result<(), RunnerError> {
        for (core, (got, want)) in self.outputs.iter().zip(&self.expected).enumerate() {
            if got != want {
                let index = got
                    .iter()
                    .zip(want)
                    .position(|(g, w)| g != w)
                    .unwrap_or_default();
                return Err(RunnerError::OutputMismatch {
                    benchmark: self.benchmark,
                    core,
                    index,
                });
            }
        }
        Ok(())
    }
}

/// Errors of the benchmark harness.
#[derive(Debug)]
pub enum RunnerError {
    /// The generated kernel failed to assemble (a bug in the generator).
    Asm(AsmError),
    /// Invalid platform configuration.
    Config(ConfigError),
    /// The simulation failed.
    Platform(PlatformError),
    /// A checkpoint could not be restored onto the platform.
    Restore(RestoreError),
    /// A core's output differs from the golden model.
    OutputMismatch {
        /// The benchmark that mismatched.
        benchmark: Benchmark,
        /// First mismatching core.
        core: usize,
        /// First mismatching element index.
        index: usize,
    },
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::Asm(e) => write!(f, "kernel assembly failed: {e}"),
            RunnerError::Config(e) => write!(f, "platform configuration invalid: {e}"),
            RunnerError::Platform(e) => write!(f, "simulation failed: {e}"),
            RunnerError::Restore(e) => write!(f, "checkpoint restore failed: {e}"),
            RunnerError::OutputMismatch {
                benchmark,
                core,
                index,
            } => write!(
                f,
                "{benchmark}: core {core} output differs from golden model at element {index}"
            ),
        }
    }
}

impl std::error::Error for RunnerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunnerError::Asm(e) => Some(e),
            RunnerError::Config(e) => Some(e),
            RunnerError::Platform(e) => Some(e),
            RunnerError::Restore(e) => Some(e),
            RunnerError::OutputMismatch { .. } => None,
        }
    }
}

impl From<RestoreError> for RunnerError {
    fn from(e: RestoreError) -> Self {
        RunnerError::Restore(e)
    }
}

impl From<AsmError> for RunnerError {
    fn from(e: AsmError) -> Self {
        RunnerError::Asm(e)
    }
}

impl From<ConfigError> for RunnerError {
    fn from(e: ConfigError) -> Self {
        RunnerError::Config(e)
    }
}

impl From<PlatformError> for RunnerError {
    fn from(e: PlatformError) -> Self {
        RunnerError::Platform(e)
    }
}

/// Generates the kernel source for a benchmark.
pub fn kernel_source(benchmark: Benchmark, cfg: &WorkloadConfig, instrumented: bool) -> String {
    let options = KernelOptions {
        instrumented,
        granularity: cfg.granularity,
        layout: cfg.layout,
    };
    match benchmark {
        Benchmark::Mrpfltr => {
            mrpfltr_source(&MrpfltrParams::from_config(cfg.n, &cfg.mrpfltr), &options)
        }
        Benchmark::Mrpdln => mrpdln_source(
            &MrpdlnParams::from_config(cfg.n, &cfg.delineation),
            &options,
        ),
        Benchmark::Sqrt32 => sqrt32_source(&Sqrt32Params { n: cfg.n as u16 }, &options),
    }
}

/// Golden-model outputs for every core of a `num_cores`-channel run of
/// `cfg`, computed purely in Rust — no platform, no [`crate::layout`]
/// capacity limit. This is what a *full-recording* reference pass uses to
/// check a sharded run: `cfg.n` may be arbitrarily long.
pub fn golden_outputs(
    benchmark: Benchmark,
    cfg: &WorkloadConfig,
    num_cores: usize,
) -> Vec<Vec<u16>> {
    let channels = cfg.channels(num_cores);
    (0..num_cores)
        .map(|core| golden_output(benchmark, cfg, &channels, core))
        .collect()
}

/// Golden-model output for one core's channel.
fn golden_output(
    benchmark: Benchmark,
    cfg: &WorkloadConfig,
    channels: &[EcgSignal],
    core: usize,
) -> Vec<u16> {
    let x = &channels[core].samples;
    match benchmark {
        Benchmark::Mrpfltr => mrpfltr(x, &cfg.mrpfltr)
            .into_iter()
            .map(|v| v as u16)
            .collect(),
        Benchmark::Mrpdln => delineate(x, &cfg.delineation)
            .into_iter()
            .map(u16::from)
            .collect(),
        Benchmark::Sqrt32 => {
            let pair = &channels[(core + 1) % channels.len()].samples;
            combine_two_leads(x, pair)
        }
    }
}

/// Runs `benchmark` on the platform with or without the synchronization
/// feature, returning statistics and bit-exact output comparison data.
///
/// The *with-sync* run uses the instrumented kernel on the improved
/// platform; the *without-sync* run uses the uninstrumented kernel on the
/// baseline platform — the two designs of Section V of the paper.
///
/// # Errors
///
/// Any [`RunnerError`] other than `OutputMismatch` (mismatches are
/// reported via [`BenchmarkRun::verify`] so callers can inspect the data).
pub fn run_benchmark(
    benchmark: Benchmark,
    with_sync: bool,
    cfg: &WorkloadConfig,
) -> Result<BenchmarkRun, RunnerError> {
    let platform_cfg = PlatformConfig::paper(with_sync).with_max_cycles(cfg.max_cycles);
    run_benchmark_on(benchmark, platform_cfg, cfg)
}

/// [`run_benchmark`] with an explicit platform configuration (ablation
/// studies: bank mappings, serving policies, core counts). The kernel is
/// instrumented with sync points exactly when the platform has the
/// synchronizer.
///
/// # Errors
///
/// See [`run_benchmark`].
///
/// # Panics
///
/// See [`run_benchmark_reusing`].
pub fn run_benchmark_on(
    benchmark: Benchmark,
    platform_cfg: PlatformConfig,
    cfg: &WorkloadConfig,
) -> Result<BenchmarkRun, RunnerError> {
    let mut platform = Platform::new(platform_cfg)?;
    let run = run_benchmark_reusing(benchmark, &mut platform, cfg, None, u64::MAX, |_| {
        CheckpointControl::Continue
    })?;
    Ok(run.expect("a run that never checkpoints never parks"))
}

/// Decision returned by the checkpoint callback of
/// [`run_benchmark_reusing`]: keep running the next slice, or park the
/// job (the last checkpoint handed to the callback is the resume point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointControl {
    /// Run the next slice.
    Continue,
    /// Stop here; the run resumes later from the checkpoint just taken.
    Park,
}

/// Runs `benchmark` on a caller-owned platform, the one job run path.
///
/// * Without `resume`, the platform is [reset](Platform::reset) and
///   loaded in place, so its memories and cycle buffers are reused
///   instead of reallocated. With `resume`, the platform adopts the
///   checkpoint instead; it only needs to be structurally compatible,
///   since the checkpoint carries the whole machine state.
/// * The run proceeds `every` cycles at a time from the cycle it starts
///   at, and after each slice the paused platform is handed to
///   `on_checkpoint`. It may read the platform's counters
///   (a heat-map job takes one row per slice from
///   [`Platform::dm_bank_served`]) and take its checkpoint
///   ([`Platform::snapshot`], or [`Platform::snapshot_into`] a buffer it
///   reuses). Returning [`CheckpointControl::Park`] abandons the run,
///   yielding `Ok(None)`. Resuming it later from a checkpoint just taken,
///   on any structurally identical platform, produces a [`BenchmarkRun`]
///   bit-identical to an uninterrupted run. `every == u64::MAX` never
///   pauses: the run is a single [`Platform::run_until`].
///
/// Either way the run takes the batched fast path unless the caller has
/// [attached](Platform::attach) an observer. Checkpoints carry no
/// observer, so nothing needs attaching before a resume.
///
/// # Errors
///
/// See [`run_benchmark`]; additionally any [`RestoreError`] via
/// [`RunnerError::Restore`].
///
/// # Panics
///
/// Panics if `every == 0`, if `cfg.n` is outside the buffer layout's
/// capacity, or if the platform has more than 8 cores (one private DM
/// bank per core).
pub fn run_benchmark_reusing(
    benchmark: Benchmark,
    platform: &mut Platform,
    cfg: &WorkloadConfig,
    resume: Option<&Checkpoint>,
    every: u64,
    mut on_checkpoint: impl FnMut(&Platform) -> CheckpointControl,
) -> Result<Option<BenchmarkRun>, RunnerError> {
    assert!(every > 0, "checkpoint interval must be positive");
    let channels = match resume {
        Some(ckpt) => {
            platform.restore_from(ckpt)?;
            cfg.channels(ckpt.config.num_cores)
        }
        None => load_workload(benchmark, platform, cfg)?,
    };
    loop {
        let limit = platform.cycle().saturating_add(every);
        match platform.run_until(limit)? {
            RunProgress::Done(_) => {
                return Ok(Some(collect_run(benchmark, platform, cfg, &channels)));
            }
            RunProgress::Paused => {
                if on_checkpoint(platform) == CheckpointControl::Park {
                    return Ok(None);
                }
            }
        }
    }
}

/// Resets the platform, assembles and loads the kernel, and loads the
/// per-core inputs; returns the generated channels (needed again for the
/// golden comparison after the run).
fn load_workload(
    benchmark: Benchmark,
    platform: &mut Platform,
    cfg: &WorkloadConfig,
) -> Result<Vec<EcgSignal>, RunnerError> {
    assert!(
        cfg.n >= 4 && cfg.n <= crate::layout::MAX_N,
        "n = {} outside supported range",
        cfg.n
    );
    assert!(
        platform.config().num_cores <= 8,
        "kernels assume one private DM bank per core"
    );
    let with_sync = platform.config().synchronizer;
    let num_cores = platform.config().num_cores;
    let channels = cfg.channels(num_cores);

    let source = kernel_source(benchmark, cfg, with_sync);
    let program = assemble(&source)?;
    platform.reset();
    platform.load_program(&program);

    // Load per-core inputs at their configured buffer placement.
    for core in 0..num_cores {
        let x: Vec<u16> = channels[core].samples.iter().map(|&v| v as u16).collect();
        platform.load_dm(buffer_base(cfg.layout, core, 0), &x);
        if benchmark == Benchmark::Sqrt32 {
            let pair: Vec<u16> = channels[(core + 1) % num_cores]
                .samples
                .iter()
                .map(|&v| v as u16)
                .collect();
            platform.load_dm(buffer_base(cfg.layout, core, 1), &pair);
        }
    }
    if benchmark == Benchmark::Mrpdln {
        platform.set_dm(
            SHARED_BASE + SHARED_THRESHOLD,
            cfg.delineation.threshold as u16,
        );
    }
    Ok(channels)
}

/// Extracts the outputs of a completed run and pairs them with the golden
/// model.
fn collect_run(
    benchmark: Benchmark,
    platform: &Platform,
    cfg: &WorkloadConfig,
    channels: &[EcgSignal],
) -> BenchmarkRun {
    let num_cores = platform.config().num_cores;
    let out_buf = match benchmark {
        Benchmark::Mrpfltr | Benchmark::Mrpdln => 5,
        Benchmark::Sqrt32 => 2,
    };
    let outputs: Vec<Vec<u16>> = (0..num_cores)
        .map(|core| platform.dm_slice(buffer_base(cfg.layout, core, out_buf), cfg.n))
        .collect();
    let expected: Vec<Vec<u16>> = (0..num_cores)
        .map(|core| golden_output(benchmark, cfg, channels, core))
        .collect();

    BenchmarkRun {
        benchmark,
        with_sync: platform.config().synchronizer,
        stats: platform.stats(),
        outputs,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_match_golden_on_both_designs() {
        let cfg = WorkloadConfig::quick_test();
        for benchmark in Benchmark::ALL {
            for with_sync in [true, false] {
                let run = run_benchmark(benchmark, with_sync, &cfg)
                    .unwrap_or_else(|e| panic!("{benchmark} sync={with_sync}: {e}"));
                run.verify()
                    .unwrap_or_else(|e| panic!("{benchmark} sync={with_sync}: {e}"));
                assert_eq!(run.outputs.len(), 8);
            }
        }
    }

    #[test]
    fn sync_design_improves_ops_per_cycle_on_every_benchmark() {
        let cfg = WorkloadConfig::quick_test();
        for benchmark in Benchmark::ALL {
            let with = run_benchmark(benchmark, true, &cfg).unwrap();
            let without = run_benchmark(benchmark, false, &cfg).unwrap();
            if benchmark == Benchmark::Mrpdln {
                // The streaming delineator only diverges at classification
                // events, which are too sparse in this 48-sample smoke
                // signal for the baseline to degrade; its speed-up is
                // asserted at realistic lengths by the integration tests.
                // Broadcasting still cuts the IM traffic, and the barrier
                // overhead must stay marginal.
                assert!(
                    with.stats.ops_per_cycle() > 0.98 * without.stats.ops_per_cycle(),
                    "{benchmark}: {:.2} vs {:.2}",
                    with.stats.ops_per_cycle(),
                    without.stats.ops_per_cycle()
                );
            } else {
                assert!(
                    with.stats.ops_per_cycle() > without.stats.ops_per_cycle(),
                    "{benchmark}: {:.2} vs {:.2}",
                    with.stats.ops_per_cycle(),
                    without.stats.ops_per_cycle()
                );
            }
            // IM traffic must never grow; the large reductions need the
            // baseline to actually diverge, which MRPDLN's only does at
            // realistic signal lengths.
            assert!(
                with.stats.im_accesses_per_op() < 1.02 * without.stats.im_accesses_per_op(),
                "{benchmark}: IM/op {:.3} vs {:.3}",
                with.stats.im_accesses_per_op(),
                without.stats.im_accesses_per_op()
            );
        }
    }

    #[test]
    fn reused_platform_matches_fresh_runs() {
        let cfg = WorkloadConfig::quick_test();
        let mut platform =
            Platform::new(PlatformConfig::paper(true).with_max_cycles(cfg.max_cycles)).unwrap();
        for benchmark in Benchmark::ALL {
            let fresh = run_benchmark(benchmark, true, &cfg).unwrap();
            let reused =
                run_benchmark_reusing(benchmark, &mut platform, &cfg, None, u64::MAX, |_| {
                    CheckpointControl::Continue
                })
                .unwrap()
                .expect("never parks");
            reused.verify().unwrap();
            assert_eq!(fresh.stats, reused.stats, "{benchmark}");
            assert_eq!(fresh.outputs, reused.outputs, "{benchmark}");
        }
    }

    #[test]
    fn windowed_workload_runs_on_the_recording_slice() {
        // A window of a longer recording loads exactly the sliced samples,
        // and the golden model scores the same slice — so the run stays
        // bit-exact while the underlying recording exceeds MAX_N.
        let full = WorkloadConfig {
            n: 2 * crate::layout::MAX_N,
            ..WorkloadConfig::quick_test()
        };
        let shard = full.windowed(150, 64);
        assert_eq!(shard.n, 64);
        assert_eq!(
            shard.source,
            Some(SourceWindow {
                offset: 150,
                total: 2 * crate::layout::MAX_N
            })
        );
        let run = run_benchmark(Benchmark::Sqrt32, true, &shard).unwrap();
        run.verify().unwrap();
        // The loaded inputs equal the slice of the full recording; SQRT32
        // is pointwise, so the outputs equal the slice of the full golden.
        let golden_full = golden_outputs(Benchmark::Sqrt32, &full, 8);
        for (core, out) in run.outputs.iter().enumerate() {
            assert_eq!(out[..], golden_full[core][150..214], "core {core}");
        }
        // Re-windowing composes offsets within the original recording.
        let nested = shard.windowed(10, 16);
        assert_eq!(
            nested.source,
            Some(SourceWindow {
                offset: 160,
                total: 2 * crate::layout::MAX_N
            })
        );
    }

    #[test]
    #[should_panic(expected = "outside recording")]
    fn window_past_the_recording_end_panics() {
        let _ = WorkloadConfig::quick_test().windowed(40, 9);
    }

    #[test]
    fn checkpointed_run_without_parking_matches_plain_run() {
        let cfg = WorkloadConfig::quick_test();
        let mut platform =
            Platform::new(PlatformConfig::paper(true).with_max_cycles(cfg.max_cycles)).unwrap();
        let plain = run_benchmark(Benchmark::Mrpfltr, true, &cfg).unwrap();
        let mut checkpoints = 0usize;
        let sliced = run_benchmark_reusing(
            Benchmark::Mrpfltr,
            &mut platform,
            &cfg,
            None,
            50_000,
            |_| {
                checkpoints += 1;
                CheckpointControl::Continue
            },
        )
        .unwrap()
        .expect("run completes");
        assert!(checkpoints > 0, "run is long enough to checkpoint");
        sliced.verify().unwrap();
        assert_eq!(plain.stats, sliced.stats);
        assert_eq!(plain.outputs, sliced.outputs);
    }

    #[test]
    fn parked_run_resumes_on_another_platform_bit_identically() {
        let cfg = WorkloadConfig::quick_test();
        let platform_cfg = PlatformConfig::paper(true).with_max_cycles(cfg.max_cycles);
        for benchmark in Benchmark::ALL {
            let plain = run_benchmark(benchmark, true, &cfg).unwrap();
            // An interval that always pauses at least once before the end.
            let every = (plain.stats.cycles / 3).max(1);

            // First worker: parks the job at its first checkpoint.
            let mut first = Platform::new(platform_cfg.clone()).unwrap();
            let mut parked = None;
            let early = run_benchmark_reusing(benchmark, &mut first, &cfg, None, every, |p| {
                parked = Some(p.snapshot());
                CheckpointControl::Park
            })
            .unwrap();
            assert!(early.is_none(), "{benchmark}: parked, not completed");
            let ckpt = parked.expect("checkpoint taken before parking");
            assert!(ckpt.cycle > 0 && ckpt.cycle < plain.stats.cycles);

            // Second worker: picks the job up from the checkpoint — after
            // having run something unrelated on its cached platform.
            let mut second = Platform::new(platform_cfg.clone()).unwrap();
            run_benchmark_reusing(Benchmark::Sqrt32, &mut second, &cfg, None, u64::MAX, |_| {
                CheckpointControl::Continue
            })
            .unwrap()
            .expect("never parks")
            .verify()
            .unwrap();
            let resumed =
                run_benchmark_reusing(benchmark, &mut second, &cfg, Some(&ckpt), every, |_| {
                    CheckpointControl::Continue
                })
                .unwrap()
                .expect("resumed run completes");
            resumed.verify().unwrap();
            assert_eq!(plain.stats, resumed.stats, "{benchmark}");
            assert_eq!(plain.outputs, resumed.outputs, "{benchmark}");
        }
    }

    #[test]
    fn benchmark_names() {
        assert_eq!(Benchmark::Mrpfltr.to_string(), "MRPFLTR");
        assert_eq!(Benchmark::ALL.len(), 3);
    }

    #[test]
    fn mismatch_error_is_informative() {
        let cfg = WorkloadConfig::quick_test();
        let mut run = run_benchmark(Benchmark::Sqrt32, true, &cfg).unwrap();
        run.outputs[3][7] ^= 1;
        let err = run.verify().unwrap_err();
        assert_eq!(
            err.to_string(),
            "SQRT32: core 3 output differs from golden model at element 7"
        );
    }
}

#[cfg(test)]
mod footprint_tests {
    use super::*;

    /// The SPMD lockstep story assumes the whole kernel image fits in one
    /// blocked IM bank (6144 words); verify it for every benchmark at the
    /// largest supported workload, both variants, both granularities.
    #[test]
    fn kernels_fit_one_im_bank() {
        let mut cfg = WorkloadConfig::paper();
        cfg.n = crate::layout::MAX_N;
        for granularity in [SyncGranularity::PerSample, SyncGranularity::PerElement] {
            cfg.granularity = granularity;
            for benchmark in Benchmark::ALL {
                for instrumented in [true, false] {
                    let source = kernel_source(benchmark, &cfg, instrumented);
                    let program = ulp_isa::asm::assemble(&source).unwrap_or_else(|e| panic!("{e}"));
                    assert!(
                        program.extent() <= ulp_isa::arch::IM_BANK_WORDS,
                        "{benchmark} ({granularity:?}, instrumented={instrumented}): \
                         {} words exceed one IM bank",
                        program.extent()
                    );
                }
            }
        }
    }

    /// Kernel listings disassemble cleanly: every emitted word of every
    /// kernel is a valid instruction (no stray data in the code image).
    #[test]
    fn kernel_images_are_pure_code() {
        let cfg = WorkloadConfig::quick_test();
        for benchmark in Benchmark::ALL {
            let source = kernel_source(benchmark, &cfg, true);
            let program = ulp_isa::asm::assemble(&source).unwrap();
            for (addr, word) in program.iter() {
                assert!(
                    ulp_isa::decode(word).is_ok(),
                    "{benchmark}: word {word:#06x} at {addr:#06x} does not decode"
                );
            }
        }
    }
}
