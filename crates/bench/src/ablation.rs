//! Ablation studies A1–A6.
//!
//! Each study isolates one design decision of the paper's platform and
//! reports its effect on the headline metrics (ops/cycle, IM accesses per
//! op, run cycles).

use std::fmt;
use ulp_kernels::{run_benchmark_on, Benchmark, BufferLayout, SyncGranularity, WorkloadConfig};
use ulp_mem::{BankMapping, ServingPolicy};
use ulp_platform::PlatformConfig;
use ulp_power::{PowerModel, VoltageModel};

/// One measured configuration of an ablation sweep.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Human-readable configuration label.
    pub label: String,
    /// Useful operations per cycle.
    pub ops_per_cycle: f64,
    /// Physical IM accesses per op.
    pub im_per_op: f64,
    /// Physical DM accesses per op.
    pub dm_per_op: f64,
    /// Total run cycles.
    pub cycles: u64,
}

/// A complete ablation study.
#[derive(Debug, Clone)]
pub struct AblationReport {
    /// Study title.
    pub title: String,
    /// Measured configurations.
    pub rows: Vec<AblationRow>,
}

impl fmt::Display for AblationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        writeln!(
            f,
            "{:<42} | {:>8} | {:>8} | {:>8} | {:>10}",
            "configuration", "ops/cyc", "IM/op", "DM/op", "cycles"
        )?;
        writeln!(f, "{}", "-".repeat(88))?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<42} | {:>8.2} | {:>8.3} | {:>8.3} | {:>10}",
                r.label, r.ops_per_cycle, r.im_per_op, r.dm_per_op, r.cycles
            )?;
        }
        Ok(())
    }
}

fn measure(
    label: impl Into<String>,
    benchmark: Benchmark,
    platform: PlatformConfig,
    cfg: &WorkloadConfig,
) -> AblationRow {
    let run = run_benchmark_on(benchmark, platform, cfg).expect("ablation run");
    run.verify().expect("ablation outputs valid");
    let s = &run.stats;
    AblationRow {
        label: label.into(),
        ops_per_cycle: s.ops_per_cycle(),
        im_per_op: s.im_accesses_per_op(),
        dm_per_op: s.dm_accesses_per_op(),
        cycles: s.cycles,
    }
}

/// A1 — instruction-memory bank mapping: how much of the baseline's
/// slowdown is IM-bank serialization? Interleaving spreads consecutive
/// fetch addresses over all banks.
pub fn im_mapping(benchmark: Benchmark, cfg: &WorkloadConfig) -> AblationReport {
    let mut rows = Vec::new();
    for (mname, mapping) in [
        ("blocked", BankMapping::Blocked),
        ("interleaved", BankMapping::Interleaved),
    ] {
        for with_sync in [true, false] {
            let mut p = PlatformConfig::paper(with_sync).with_max_cycles(cfg.max_cycles);
            p.im_mapping = mapping;
            rows.push(measure(
                format!(
                    "IM {mname}, {}",
                    if with_sync { "with sync" } else { "baseline" }
                ),
                benchmark,
                p,
                cfg,
            ));
        }
    }
    AblationReport {
        title: format!("A1 — IM bank mapping ({benchmark})"),
        rows,
    }
}

/// A2 — separating the two halves of the proposal: the synchronizer (ISE +
/// barrier hardware) and the enhanced D-Xbar serving policy.
pub fn policy(benchmark: Benchmark, cfg: &WorkloadConfig) -> AblationReport {
    let combos: [(&str, bool, ServingPolicy); 4] = [
        ("neither (paper baseline)", false, ServingPolicy::Baseline),
        ("policy only", false, ServingPolicy::SyncAware),
        ("synchronizer only", true, ServingPolicy::Baseline),
        ("both (paper improved)", true, ServingPolicy::SyncAware),
    ];
    let rows = combos
        .into_iter()
        .map(|(label, synchronizer, dxbar)| {
            let mut p = PlatformConfig::paper(synchronizer).with_max_cycles(cfg.max_cycles);
            p.dxbar_policy = dxbar;
            measure(label, benchmark, p, cfg)
        })
        .collect();
    AblationReport {
        title: format!("A2 — synchronizer vs serving policy ({benchmark})"),
        rows,
    }
}

/// A3 — core-count sweep (the paper fixes 8 cores).
pub fn cores(benchmark: Benchmark, cfg: &WorkloadConfig) -> AblationReport {
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8] {
        for with_sync in [true, false] {
            let p = PlatformConfig::paper(with_sync)
                .with_cores(n)
                .with_max_cycles(cfg.max_cycles);
            rows.push(measure(
                format!(
                    "{n} cores, {}",
                    if with_sync { "with sync" } else { "baseline" }
                ),
                benchmark,
                p,
                cfg,
            ));
        }
    }
    AblationReport {
        title: format!("A3 — core-count sweep ({benchmark})"),
        rows,
    }
}

/// A5 — synchronization-point granularity: per-sample (default) versus
/// per-element placement.
pub fn granularity(benchmark: Benchmark, cfg: &WorkloadConfig) -> AblationReport {
    let mut rows = Vec::new();
    for (gname, g) in [
        ("per-sample sections", SyncGranularity::PerSample),
        ("per-element sections", SyncGranularity::PerElement),
    ] {
        let mut c = cfg.clone();
        c.granularity = g;
        let p = PlatformConfig::paper(true).with_max_cycles(cfg.max_cycles);
        rows.push(measure(gname, benchmark, p, &c));
    }
    AblationReport {
        title: format!("A5 — sync-point granularity ({benchmark}, with sync)"),
        rows,
    }
}

/// A6 — buffer-to-bank placement: the realistic linker-packed layout
/// (cross-core data-access conflicts possible, the scenario Section IV of
/// the paper addresses) versus the idealized one-private-bank-per-core
/// placement that can never conflict.
pub fn layout(benchmark: Benchmark, cfg: &WorkloadConfig) -> AblationReport {
    let mut rows = Vec::new();
    for (lname, l) in [
        ("linker-packed buffers", BufferLayout::Packed),
        ("private-bank buffers", BufferLayout::PrivateBank),
    ] {
        for with_sync in [true, false] {
            let mut c = cfg.clone();
            c.layout = l;
            let p = PlatformConfig::paper(with_sync).with_max_cycles(cfg.max_cycles);
            rows.push(measure(
                format!(
                    "{lname}, {}",
                    if with_sync { "with sync" } else { "baseline" }
                ),
                benchmark,
                p,
                &c,
            ));
        }
    }
    AblationReport {
        title: format!("A6 — buffer-to-bank placement ({benchmark})"),
        rows,
    }
}

/// A4 — sensitivity of the Fig. 3 saving to the voltage-model parameters
/// (`alpha`, `V_t`). Uses pre-gathered activities, so it needs the
/// calibrated model and the two activity vectors of one benchmark.
pub fn voltage_sensitivity(
    model: &PowerModel,
    with_sync: &ulp_power::Activity,
    without_sync: &ulp_power::Activity,
) -> VoltageSensitivityReport {
    let mut rows = Vec::new();
    for alpha in [1.2, 1.5, 2.0] {
        for v_t in [0.35, 0.45, 0.55] {
            let voltage = VoltageModel {
                alpha,
                v_t,
                ..VoltageModel::default()
            };
            let m = PowerModel::new(model.energy, voltage);
            let crossover = m.max_workload(without_sync);
            let saving = m
                .saving_at(with_sync, without_sync, crossover)
                .expect("crossover feasible");
            rows.push((alpha, v_t, saving));
        }
    }
    VoltageSensitivityReport { rows }
}

/// Result grid of [`voltage_sensitivity`].
#[derive(Debug, Clone)]
pub struct VoltageSensitivityReport {
    /// `(alpha, v_t, saving-at-crossover)` triples.
    pub rows: Vec<(f64, f64, f64)>,
}

impl fmt::Display for VoltageSensitivityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "A4 — voltage-model sensitivity (saving at crossover)")?;
        writeln!(f, "{:>6} | {:>6} | {:>8}", "alpha", "V_t", "saving")?;
        writeln!(f, "{}", "-".repeat(28))?;
        for (alpha, v_t, saving) in &self.rows {
            writeln!(f, "{alpha:>6.1} | {v_t:>6.2} | {:>7.1}%", saving * 100.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{calibrate, gather};

    #[test]
    fn policy_ablation_orders_configurations() {
        let cfg = WorkloadConfig::quick_test();
        let report = policy(Benchmark::Sqrt32, &cfg);
        assert_eq!(report.rows.len(), 4);
        let by_label = |label: &str| {
            report
                .rows
                .iter()
                .find(|r| r.label.starts_with(label))
                .expect("row exists")
        };
        let neither = by_label("neither");
        let both = by_label("both");
        assert!(
            both.ops_per_cycle > neither.ops_per_cycle,
            "full proposal beats baseline"
        );
        assert!(both.im_per_op < neither.im_per_op);
        assert!(report.to_string().contains("A2"));
    }

    #[test]
    fn interleaved_im_helps_the_baseline() {
        let cfg = WorkloadConfig::quick_test();
        let report = im_mapping(Benchmark::Sqrt32, &cfg);
        let find = |label: &str| {
            report
                .rows
                .iter()
                .find(|r| r.label == label)
                .expect("row exists")
        };
        // Interleaving removes most same-bank fetch serialization for the
        // divergent baseline.
        let blocked = find("IM blocked, baseline");
        let inter = find("IM interleaved, baseline");
        assert!(inter.ops_per_cycle >= blocked.ops_per_cycle * 0.95);
        // But interleaving destroys broadcasting: IM accesses go *up* for
        // the lockstep design.
        let blocked_s = find("IM blocked, with sync");
        let inter_s = find("IM interleaved, with sync");
        assert!(blocked_s.im_per_op <= inter_s.im_per_op);
    }

    #[test]
    fn core_sweep_scales_throughput() {
        let cfg = WorkloadConfig::quick_test();
        let report = cores(Benchmark::Sqrt32, &cfg);
        let sync_rows: Vec<&AblationRow> = report
            .rows
            .iter()
            .filter(|r| r.label.ends_with("with sync"))
            .collect();
        assert_eq!(sync_rows.len(), 4);
        assert!(
            sync_rows[3].ops_per_cycle > 2.0 * sync_rows[0].ops_per_cycle,
            "8 cores must scale well beyond 1 core"
        );
    }

    #[test]
    fn granularity_trades_sync_traffic_for_lockstep() {
        let cfg = WorkloadConfig::quick_test();
        let report = granularity(Benchmark::Mrpfltr, &cfg);
        let sample = &report.rows[0];
        let element = &report.rows[1];
        assert!(
            element.dm_per_op > sample.dm_per_op,
            "finer sections cost more sync-word traffic"
        );
        assert!(
            element.im_per_op < sample.im_per_op,
            "finer sections hold lockstep tighter"
        );
    }

    #[test]
    fn voltage_sensitivity_grid() {
        let data = gather(&WorkloadConfig::quick_test()).unwrap();
        let model = calibrate(&data);
        let d = &data.benchmarks[0];
        let report = voltage_sensitivity(&model, &d.act_with, &d.act_without);
        assert_eq!(report.rows.len(), 9);
        for (_, _, saving) in &report.rows {
            assert!(*saving > 0.0 && *saving < 1.0);
        }
        assert!(report.to_string().contains("A4"));
    }
}
