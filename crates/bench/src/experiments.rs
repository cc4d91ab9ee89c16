//! Data gathering and model calibration shared by all experiments.

use crate::sweep::{run_sweep, SweepSpec};
use ulp_kernels::{Benchmark, BenchmarkRun, RunnerError, WorkloadConfig};
use ulp_power::{Activity, EnergyModel, PowerModel, Table1Targets, VoltageModel};

/// Both designs' runs of one benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkData {
    /// Which benchmark.
    pub benchmark: Benchmark,
    /// Run on the improved design (with synchronizer).
    pub with_sync: BenchmarkRun,
    /// Run on the baseline design.
    pub without_sync: BenchmarkRun,
    /// Activity vector of the improved design.
    pub act_with: Activity,
    /// Activity vector of the baseline design.
    pub act_without: Activity,
}

impl BenchmarkData {
    /// Cycle-count speed-up of the improved design (> 1 is faster).
    pub fn speedup(&self) -> f64 {
        self.without_sync.stats.cycles as f64 / self.with_sync.stats.cycles as f64
    }

    /// Relative reduction of physical IM accesses (0.6 = 60 % fewer).
    pub fn im_access_reduction(&self) -> f64 {
        1.0 - self.with_sync.stats.im.total_accesses() as f64
            / self.without_sync.stats.im.total_accesses() as f64
    }

    /// Relative increase of physical DM accesses.
    pub fn dm_access_increase(&self) -> f64 {
        self.with_sync.stats.dm.total_accesses() as f64
            / self.without_sync.stats.dm.total_accesses() as f64
            - 1.0
    }
}

/// All six runs (3 benchmarks × 2 designs), verified against the golden
/// models.
#[derive(Debug, Clone)]
pub struct ExperimentData {
    /// Per-benchmark data in the paper's order.
    pub benchmarks: Vec<BenchmarkData>,
    /// The workload configuration used.
    pub config: WorkloadConfig,
}

impl ExperimentData {
    /// Data of one benchmark.
    pub fn benchmark(&self, b: Benchmark) -> &BenchmarkData {
        self.benchmarks
            .iter()
            .find(|d| d.benchmark == b)
            .expect("all benchmarks gathered")
    }

    /// Mean activity of the baseline design over the three benchmarks.
    pub fn mean_baseline(&self) -> Activity {
        Activity::mean(
            &self
                .benchmarks
                .iter()
                .map(|d| d.act_without)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean activity of the improved design over the three benchmarks.
    pub fn mean_with_sync(&self) -> Activity {
        Activity::mean(
            &self
                .benchmarks
                .iter()
                .map(|d| d.act_with)
                .collect::<Vec<_>>(),
        )
    }
}

/// Runs every benchmark on both designs and verifies all outputs against
/// the golden models. The six runs execute in parallel through the
/// threaded sweep harness ([`run_sweep`]); every simulation is
/// deterministic and independent, so the data is identical to a serial
/// gather.
///
/// # Errors
///
/// Any [`RunnerError`], including bit-exact output mismatches.
pub fn gather(config: &WorkloadConfig) -> Result<ExperimentData, RunnerError> {
    let results = run_sweep(&SweepSpec::paper_grid(config.clone()))?;
    let take = |benchmark, with_sync| -> Result<BenchmarkRun, RunnerError> {
        let run = results
            .cell(benchmark, with_sync, 8)
            .expect("paper grid covers all six runs")
            .run
            .clone();
        run.verify()?;
        Ok(run)
    };
    let mut benchmarks = Vec::new();
    for benchmark in Benchmark::ALL {
        let with_sync = take(benchmark, true)?;
        let without_sync = take(benchmark, false)?;
        let act_with = Activity::from_stats(&with_sync.stats);
        let act_without = Activity::from_stats(&without_sync.stats);
        benchmarks.push(BenchmarkData {
            benchmark,
            with_sync,
            without_sync,
            act_with,
            act_without,
        });
    }
    Ok(ExperimentData {
        benchmarks,
        config: config.clone(),
    })
}

/// Calibrates the power model: fit the event energies to the paper's
/// Table I **baseline** column using the mean measured baseline activity;
/// the improved design's power is then a prediction from its own activity.
pub fn calibrate(data: &ExperimentData) -> PowerModel {
    let energy = EnergyModel::calibrate(
        &data.mean_baseline(),
        &data.mean_with_sync(),
        &Table1Targets::paper(),
    );
    PowerModel::new(energy, VoltageModel::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_and_calibrate_quick() {
        let data = gather(&WorkloadConfig::quick_test()).expect("all runs valid");
        assert_eq!(data.benchmarks.len(), 3);
        for d in &data.benchmarks {
            // MRPDLN's baseline only degrades at realistic signal lengths
            // (see the runner tests); at this smoke scale require
            // non-regression, elsewhere strict improvement.
            let floor = if d.benchmark == ulp_kernels::Benchmark::Mrpdln {
                0.97
            } else {
                1.0
            };
            assert!(d.speedup() > floor, "{}: {}", d.benchmark, d.speedup());
            if d.benchmark != ulp_kernels::Benchmark::Mrpdln {
                assert!(d.im_access_reduction() > 0.2, "{}", d.benchmark);
            }
            assert!(d.act_with.has_sync && !d.act_without.has_sync);
        }
        let model = calibrate(&data);
        // Calibration reproduces the baseline Table-I column by design.
        let b = model.breakdown(&data.mean_baseline(), 8.0, 1.2);
        assert!((b.im - 0.28).abs() < 1e-9);
        assert!((b.cores - 0.14).abs() < 1e-9);
        // The improved design must come out cheaper in total.
        let i = model.breakdown(&data.mean_with_sync(), 8.0, 1.2);
        assert!(i.total() < b.total());
    }
}
