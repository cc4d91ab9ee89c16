//! Stitching partial shard results back into one logical run.
//!
//! The merge has four jobs, each provably lossless:
//!
//! 1. **Outputs** — per channel, concatenate every shard's *core* region
//!    (dropping the halo samples deterministically: each recording sample
//!    belongs to exactly one shard's core region, so no duplicate can
//!    survive). With a halo of at least [`crate::required_halo`], the
//!    stitched signal is bit-identical to a single full-recording pass.
//! 2. **Statistics** — sum every [`SimStats`] counter across shards, so
//!    aggregate cycle/access counts equal the sum of the shard runs and
//!    per-op rates ([`ulp_power::Activity`]) price the recording as one
//!    run.
//! 3. **Events** — for MRPDLN, lift per-sample marks into globally-indexed
//!    [`DelineationEvent`]s, sorted and duplicate-free by construction.
//! 4. **Heat map** — when the run recorded one, re-index every shard's
//!    heat-map rows onto the merged recording's global cycle axis
//!    ([`crate::MergedHeatMap`]), shifted by the per-shard cycle offsets,
//!    so the per-bank accounting survives sharding end to end.

use crate::artifacts::{merge_heat_map, MergedHeatMap};
use crate::plan::ShardPlan;
use crate::runner::ShardedRun;
use std::fmt;
use ulp_biosignal::Mark;
use ulp_kernels::{golden_outputs, Benchmark, BenchmarkRun, RunnerError, WorkloadConfig};
use ulp_platform::SimStats;
use ulp_power::{Activity, PowerModel};

/// Why a completed [`ShardedRun`] could not be merged: every variant is a
/// structural defect of the input (misordered or malformed shards), not a
/// simulation failure — those surface as [`crate::ShardError::Job`] before
/// the merge is ever reached.
#[derive(Debug)]
pub enum MergeError {
    /// The run has no shards at all.
    NoShards,
    /// Shard `shard`'s core region does not start where the previous
    /// shard's ended — the `shards` vec is misordered, has gaps, or a
    /// shard's outputs have the wrong length. Checked unconditionally
    /// (not a `debug_assert!`): a misordered vec would otherwise stitch
    /// silently-corrupted outputs in release builds.
    MisorderedShard {
        /// Plan index of the offending shard.
        shard: usize,
        /// Where its core region had to start (samples stitched so far).
        expected_start: usize,
        /// Where it actually starts.
        found_start: usize,
    },
    /// Shard `shard` ran on a different core count than shard 0.
    CoreCountMismatch {
        /// Plan index of the offending shard.
        shard: usize,
        /// Core count of shard 0.
        expected: usize,
        /// Core count found.
        found: usize,
    },
    /// Shard `shard` produced fewer output samples than its load window —
    /// slicing its core region would read out of bounds.
    ShardOutputTooShort {
        /// Plan index of the offending shard.
        shard: usize,
        /// Channel with the short buffer.
        channel: usize,
        /// Samples the shard's load window requires.
        needed: usize,
        /// Samples actually present.
        found: usize,
    },
    /// Shard `shard` carries a heat map the run's configuration did not
    /// ask for, or lacks the one it asked for.
    HeatMapPresence {
        /// Plan index of the offending shard.
        shard: usize,
        /// Whether the configuration asked for a heat map.
        expected: bool,
    },
    /// A heat-map row's bank count differs from the first row's, within
    /// a shard or across shards.
    HeatMapShapeMismatch {
        /// Plan index of the shard holding the offending row.
        shard: usize,
        /// Banks per row of the first row of the merged map.
        expected_banks: usize,
        /// Banks per row found.
        found_banks: usize,
    },
    /// The merged outputs diverged from the full-recording golden pass
    /// ([`merge_verified`] only).
    Diverged(RunnerError),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoShards => write!(f, "cannot merge a run with no shards"),
            MergeError::MisorderedShard {
                shard,
                expected_start,
                found_start,
            } => write!(
                f,
                "shard {shard} starts at sample {found_start} but the stitched \
                 recording is at sample {expected_start}: shards are misordered \
                 or have gaps"
            ),
            MergeError::CoreCountMismatch {
                shard,
                expected,
                found,
            } => write!(
                f,
                "shard {shard} ran on {found} cores but shard 0 ran on {expected}"
            ),
            MergeError::ShardOutputTooShort {
                shard,
                channel,
                needed,
                found,
            } => write!(
                f,
                "shard {shard} channel {channel} holds {found} output samples \
                 but its load window spans {needed}"
            ),
            MergeError::HeatMapPresence {
                shard,
                expected: true,
            } => write!(
                f,
                "shard {shard} lacks the heat map the run's configuration asks for"
            ),
            MergeError::HeatMapPresence {
                shard,
                expected: false,
            } => write!(
                f,
                "shard {shard} carries a heat map the run's configuration does not ask for"
            ),
            MergeError::HeatMapShapeMismatch {
                shard,
                expected_banks,
                found_banks,
            } => write!(
                f,
                "shard {shard}'s heat map has a row of {found_banks} banks, \
                 the first row has {expected_banks}"
            ),
            MergeError::Diverged(e) => write!(f, "merged outputs diverged: {e}"),
        }
    }
}

impl std::error::Error for MergeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MergeError::Diverged(e) => Some(e),
            _ => None,
        }
    }
}

/// One delineation event of the merged recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DelineationEvent {
    /// Channel (= core) the event was detected on.
    pub channel: usize,
    /// Sample index within the *full* recording.
    pub index: usize,
    /// `true` for a peak, `false` for a pit.
    pub is_peak: bool,
}

/// A sharded run merged back into one logical recording-length run.
#[derive(Debug)]
pub struct MergedRun {
    /// The run over the whole recording: summed statistics, stitched
    /// per-channel outputs, and the *full-recording* golden expectations —
    /// so [`BenchmarkRun::verify`] checks sharded-versus-golden
    /// equivalence end to end.
    pub run: BenchmarkRun,
    /// Cycles each shard simulated, in plan order (their sum is
    /// `run.stats.cycles`).
    pub shard_cycles: Vec<u64>,
    /// The recording's per-bank DM heat map, when the run recorded one:
    /// every shard's rows re-indexed onto the global cycle axis.
    pub heat_map: Option<MergedHeatMap>,
    /// The plan the shards were cut from.
    pub plan: ShardPlan,
    /// Op-weighted fold of the per-shard activity vectors (see
    /// [`MergedRun::activity`]).
    activity: Activity,
}

impl MergedRun {
    /// Delineation events of the merged recording (empty for benchmarks
    /// other than MRPDLN). Sorted by (channel, index) and duplicate-free:
    /// every sample's mark comes from exactly one shard.
    pub fn events(&self) -> Vec<DelineationEvent> {
        if self.run.benchmark != Benchmark::Mrpdln {
            return Vec::new();
        }
        events_from_marks(&self.run.outputs)
    }

    /// The activity vector of the whole recording: the per-shard activity
    /// vectors folded op-weighted into one
    /// ([`ulp_power::Activity::fold_weighted`]) at merge time. Equal (up
    /// to floating-point rounding) to `Activity::from_stats` of the
    /// summed statistics, since both weight every per-op rate by the ops
    /// that produced it.
    pub fn activity(&self) -> Activity {
        self.activity
    }

    /// Energy to process the recording at workload `w_mops` under
    /// `model`, in microjoules — the folded activity priced by the power
    /// model. `None` if the workload exceeds the design's feasible range.
    pub fn energy_uj(&self, model: &PowerModel, w_mops: f64) -> Option<f64> {
        model.energy_for_ops_uj(&self.activity, w_mops, self.run.stats.useful_ops())
    }
}

/// Extracts globally-indexed events from full-recording mark buffers.
fn events_from_marks(outputs: &[Vec<u16>]) -> Vec<DelineationEvent> {
    let mut events = Vec::new();
    for (channel, marks) in outputs.iter().enumerate() {
        for (index, &word) in marks.iter().enumerate() {
            if word == u16::from(Mark::Peak) || word == u16::from(Mark::Pit) {
                events.push(DelineationEvent {
                    channel,
                    index,
                    is_peak: word == u16::from(Mark::Peak),
                });
            }
        }
    }
    events
}

/// Field-wise sum of shard statistics: every counter adds up, so the
/// merged [`SimStats`] reports exactly the work the shards performed
/// together. `num_cores` is taken from the first shard (all shards run the
/// same platform shape); per-core counters merge index-wise.
///
/// # Panics
///
/// Panics with a message naming the offending shard if `parts` is empty,
/// mixes designs (some shards with synchronizer statistics, some without)
/// or mixes platform shapes (differing core counts) — summing any of
/// those would silently drop or misattribute counters.
pub fn sum_stats(parts: &[&SimStats]) -> SimStats {
    let first = parts
        .first()
        .expect("sum_stats: no shard statistics to sum");
    let mut total = SimStats {
        cycles: 0,
        num_cores: first.num_cores,
        cores: vec![Default::default(); first.cores.len()],
        core_total: Default::default(),
        im: Default::default(),
        dm: Default::default(),
        ixbar: Default::default(),
        dxbar: Default::default(),
        sync: first.sync.map(|_| Default::default()),
        lockstep_width_sum: 0,
        lockstep_width_cycles: 0,
    };
    for (index, part) in parts.iter().enumerate() {
        assert_eq!(
            part.sync.is_some(),
            total.sync.is_some(),
            "sum_stats: shard {index} and shard 0 ran on different designs \
             (synchronizer statistics present on one but not the other)"
        );
        assert_eq!(
            part.cores.len(),
            total.cores.len(),
            "sum_stats: shard {index} has per-core counters for {} cores, \
             shard 0 for {} — an index-wise merge would drop counters",
            part.cores.len(),
            total.cores.len()
        );
        total.cycles += part.cycles;
        total.core_total.merge(&part.core_total);
        for (t, p) in total.cores.iter_mut().zip(&part.cores) {
            t.merge(p);
        }
        total.im.merge(&part.im);
        total.dm.merge(&part.dm);
        total.ixbar.merge(&part.ixbar);
        total.dxbar.merge(&part.dxbar);
        if let (Some(t), Some(p)) = (&mut total.sync, &part.sync) {
            t.merge(p);
        }
        total.lockstep_width_sum += part.lockstep_width_sum;
        total.lockstep_width_cycles += part.lockstep_width_cycles;
    }
    total
}

/// Merges a completed [`ShardedRun`] into one logical run over the whole
/// recording.
///
/// The returned [`MergedRun`]'s `run.expected` is the **full-recording
/// golden pass** (computed in Rust over the entire signal, unconstrained
/// by platform buffer sizes), so `run.verify()` asserts the sharding
/// subsystem's equivalence claim: with an adequate halo, splitting the
/// time axis and stitching the partial outputs loses nothing.
///
/// # Errors
///
/// [`MergeError`] on structurally invalid input (no shards, misordered or
/// misshapen shard outputs). [`RunnerError::OutputMismatch`] is *not*
/// raised here — like the kernel runner, mismatches are left to
/// [`BenchmarkRun::verify`] so callers can inspect the stitched data.
pub fn merge(sharded: &ShardedRun) -> Result<MergedRun, MergeError> {
    let expected = golden_outputs(
        sharded.config.benchmark,
        &sharded.config.workload,
        sharded.config.cores,
    );
    merge_with_golden(sharded, expected)
}

/// [`merge`] with a caller-supplied full-recording golden pass, for
/// callers that merge many sharded runs over the same recording (the
/// sweep's shard axis) and want to compute the golden once per
/// (benchmark, cores) instead of once per cell. `expected` must be what
/// [`golden_outputs`] returns for the run's benchmark, workload and core
/// count — anything else makes `verify()` meaningless.
///
/// # Errors
///
/// See [`merge`].
pub fn merge_with_golden(
    sharded: &ShardedRun,
    expected: Vec<Vec<u16>>,
) -> Result<MergedRun, MergeError> {
    if sharded.shards.is_empty() {
        return Err(MergeError::NoShards);
    }
    let cores = sharded.config.cores;
    let total = sharded.plan.total();
    for (index, out) in sharded.shards.iter().enumerate() {
        if out.run.stats.num_cores != sharded.shards[0].run.stats.num_cores {
            return Err(MergeError::CoreCountMismatch {
                shard: index,
                expected: sharded.shards[0].run.stats.num_cores,
                found: out.run.stats.num_cores,
            });
        }
        for (channel, buf) in out.run.outputs.iter().enumerate() {
            if buf.len() < out.shard.load_len() {
                return Err(MergeError::ShardOutputTooShort {
                    shard: index,
                    channel,
                    needed: out.shard.load_len(),
                    found: buf.len(),
                });
            }
        }
    }
    let mut outputs: Vec<Vec<u16>> = (0..cores).map(|_| Vec::with_capacity(total)).collect();
    for (index, out) in sharded.shards.iter().enumerate() {
        let local = out.shard.local_core();
        for (channel, stitched) in outputs.iter_mut().enumerate() {
            // Always-on (a misordered `shards` vec would otherwise stitch
            // silently-corrupted outputs in release builds).
            if stitched.len() != out.shard.start {
                return Err(MergeError::MisorderedShard {
                    shard: index,
                    expected_start: stitched.len(),
                    found_start: out.shard.start,
                });
            }
            stitched.extend_from_slice(&out.run.outputs[channel][local.clone()]);
        }
    }
    let stats = sum_stats(
        &sharded
            .shards
            .iter()
            .map(|s| &s.run.stats)
            .collect::<Vec<_>>(),
    );
    // Fold each shard's activity vector, weighted by the ops it retired —
    // the recording-level input to the power model.
    let activity = Activity::fold_weighted(
        &sharded
            .shards
            .iter()
            .map(|s| (Activity::from_stats(&s.run.stats), s.run.stats.useful_ops()))
            .collect::<Vec<_>>(),
    );
    let heat_map = merge_heat_map(sharded.config.heat_map_window, &sharded.shards)?;
    Ok(MergedRun {
        run: BenchmarkRun {
            benchmark: sharded.config.benchmark,
            with_sync: sharded.config.with_sync,
            stats,
            outputs,
            expected,
        },
        shard_cycles: sharded.shards.iter().map(|s| s.run.stats.cycles).collect(),
        heat_map,
        plan: sharded.plan.clone(),
        activity,
    })
}

/// [`merge`] plus verification: returns the merged run only if the
/// stitched outputs are bit-identical to the full-recording golden pass.
///
/// # Errors
///
/// A structural [`MergeError`], or [`MergeError::Diverged`] wrapping the
/// [`RunnerError::OutputMismatch`] naming the first differing channel.
pub fn merge_verified(sharded: &ShardedRun) -> Result<MergedRun, MergeError> {
    let merged = merge(sharded)?;
    merged.run.verify().map_err(MergeError::Diverged)?;
    Ok(merged)
}

/// Convenience used by sweeps and tests: the single-pass golden events of
/// a full recording, for comparison with [`MergedRun::events`].
pub fn golden_events(cfg: &WorkloadConfig, cores: usize) -> Vec<DelineationEvent> {
    events_from_marks(&golden_outputs(Benchmark::Mrpdln, cfg, cores))
}
