//! Percentiles and simulated-statistics totals.

use ulp_platform::SimStats;

/// Nearest-rank percentile of `values` (`0 < p <= 100`): the smallest
/// sample with at least `p` percent of the samples at or below it. `None`
/// for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank median (the lower middle sample of an even count); `0.0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// Simulated totals over a set of runs: the sums every *sim* metric is
/// derived from. Pure simulator-speed changes must leave these identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimTotals {
    /// Σ platform cycles.
    pub cycles: u64,
    /// Σ platform cycles × cores.
    pub core_cycles: u64,
    /// Σ useful operations.
    pub useful_ops: u64,
    /// Σ core-cycles by state.
    pub core_total_cycles: u64,
    pub active_cycles: u64,
    pub fetch_stall_cycles: u64,
    pub mem_stall_cycles: u64,
    pub sync_stall_cycles: u64,
    pub sleep_cycles: u64,
    /// Memory and crossbar counters.
    pub im_accesses: u64,
    pub im_broadcast_extra: u64,
    pub dm_accesses: u64,
    pub ixbar_conflict_cycles: u64,
    pub dxbar_conflict_cycles: u64,
    pub dxbar_lock_stalls: u64,
    /// Lockstep-width numerator and denominator.
    pub lockstep_width_sum: u64,
    pub lockstep_width_cycles: u64,
    /// Synchronizer counters (zero on the design without it).
    pub sync_busy_cycles: u64,
    pub sync_merged: u64,
}

impl SimTotals {
    /// Adds one run's statistics.
    pub fn add(&mut self, stats: &SimStats) {
        let core = &stats.core_total;
        self.cycles += stats.cycles;
        self.core_cycles += stats.cycles * stats.num_cores as u64;
        self.useful_ops += core.useful_ops;
        self.core_total_cycles += core.total_cycles();
        self.active_cycles += core.active_cycles;
        self.fetch_stall_cycles += core.fetch_stall_cycles;
        self.mem_stall_cycles += core.mem_stall_cycles;
        self.sync_stall_cycles += core.sync_stall_cycles;
        self.sleep_cycles += core.sleep_cycles;
        self.im_accesses += stats.im.total_accesses();
        self.im_broadcast_extra += stats.im.broadcast_extra;
        self.dm_accesses += stats.dm.total_accesses();
        self.ixbar_conflict_cycles += stats.ixbar.conflict_cycles;
        self.dxbar_conflict_cycles += stats.dxbar.conflict_cycles;
        self.dxbar_lock_stalls += stats.dxbar.lock_stalls;
        self.lockstep_width_sum += stats.lockstep_width_sum;
        self.lockstep_width_cycles += stats.lockstep_width_cycles;
        if let Some(sync) = &stats.sync {
            self.sync_busy_cycles += sync.busy_cycles;
            self.sync_merged += sync.merged;
        }
    }

    /// Σ useful ops ÷ Σ cycles — the paper's Ops/cycle.
    pub fn ops_per_cycle(&self) -> f64 {
        ratio(self.useful_ops, self.cycles)
    }

    /// Σ IM accesses ÷ Σ useful ops — the paper's IM claim.
    pub fn im_accesses_per_op(&self) -> f64 {
        ratio(self.im_accesses, self.useful_ops)
    }

    /// Share of core-cycles spent in a state counted by `cycles`.
    pub fn fraction(&self, cycles: u64) -> f64 {
        ratio(cycles, self.core_total_cycles)
    }

    /// Average width of the largest same-PC fetch group.
    pub fn lockstep_width(&self) -> f64 {
        ratio(self.lockstep_width_sum, self.lockstep_width_cycles)
    }
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        // The textbook example: 15, 20, 35, 40, 50.
        let v = [40.0, 15.0, 50.0, 35.0, 20.0];
        assert_eq!(percentile(&v, 5.0), Some(15.0));
        assert_eq!(percentile(&v, 30.0), Some(20.0));
        assert_eq!(percentile(&v, 40.0), Some(20.0));
        assert_eq!(percentile(&v, 50.0), Some(35.0));
        assert_eq!(percentile(&v, 100.0), Some(50.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn nearest_rank_p90_of_ten_is_the_ninth() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(median(&v), 5.0, "lower middle of an even count");
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn ratios_guard_zero_denominators() {
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
        let totals = SimTotals::default();
        assert_eq!(totals.ops_per_cycle(), 0.0);
        assert_eq!(totals.lockstep_width(), 0.0);
    }
}
