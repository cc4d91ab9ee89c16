//! Per-core activity counters.

/// Event and stall counters accumulated by one core.
///
/// These are the per-core inputs to the platform-level statistics
/// ([`ulp-platform`]'s `SimStats`) from which the power model derives
/// per-component energy. All counts are in core clock cycles or events.
///
/// [`ulp-platform`]: https://docs.rs/ulp-platform
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired (completed execute phase).
    pub retired: u64,
    /// Retired instructions that count as *useful operations* for the
    /// paper's MOps/s workload metric (excludes `NOP`, `SLEEP`, `HALT`,
    /// `SINC`, `SDEC`).
    pub useful_ops: u64,
    /// Cycles spent waiting for an instruction fetch grant beyond the
    /// first fetch cycle (IM bank conflicts; the core is clock-gated).
    pub fetch_stall_cycles: u64,
    /// Cycles spent waiting for a data-memory grant beyond the first
    /// execute cycle (DM bank conflicts; the core is clock-gated).
    pub mem_stall_cycles: u64,
    /// Extra execute cycles of `SINC`/`SDEC` spent in the synchronizer
    /// (each accepted operation takes two cycles) plus queueing delay.
    pub sync_stall_cycles: u64,
    /// Cycles spent asleep (externally clock-gated, Section III).
    pub sleep_cycles: u64,
    /// Cycles in which the core was held by the enhanced D-Xbar serving
    /// policy after being served, waiting for its synchronous group.
    pub hold_cycles: u64,
    /// Active (not gated, not asleep) cycles.
    pub active_cycles: u64,
    /// Instruction fetches issued (granted).
    pub fetches: u64,
    /// Data-memory reads performed (`LD`/`LDP`).
    pub dm_reads: u64,
    /// Data-memory writes performed (`ST`/`STP`).
    pub dm_writes: u64,
    /// `SINC` operations completed.
    pub checkins: u64,
    /// `SDEC` operations completed.
    pub checkouts: u64,
    /// Conditional branches whose condition evaluated true.
    pub branches_taken: u64,
    /// Conditional branches whose condition evaluated false.
    pub branches_not_taken: u64,
    /// Interrupts accepted.
    pub interrupts: u64,
}

impl CoreStats {
    /// Total cycles attributed to this core (active + gated + asleep).
    pub fn total_cycles(&self) -> u64 {
        self.cycle_counters().iter().sum()
    }

    /// [`CoreStats::total_cycles`], or `None` if the sum overflows (only
    /// possible for counters that no run produced).
    pub fn checked_total_cycles(&self) -> Option<u64> {
        self.cycle_counters()
            .iter()
            .try_fold(0u64, |sum, &c| sum.checked_add(c))
    }

    /// The counters that each cycle of a core adds one to: exactly one
    /// of them per cycle.
    fn cycle_counters(&self) -> [u64; 6] {
        [
            self.active_cycles,
            self.fetch_stall_cycles,
            self.mem_stall_cycles,
            self.sync_stall_cycles,
            self.hold_cycles,
            self.sleep_cycles,
        ]
    }

    /// Total data-memory accesses (reads + writes), excluding the
    /// synchronizer's accesses to sync words, which the platform counts
    /// separately.
    pub fn dm_accesses(&self) -> u64 {
        self.dm_reads + self.dm_writes
    }

    /// Merges another core's counters into this one (used for aggregates).
    pub fn merge(&mut self, other: &CoreStats) {
        self.retired += other.retired;
        self.useful_ops += other.useful_ops;
        self.fetch_stall_cycles += other.fetch_stall_cycles;
        self.mem_stall_cycles += other.mem_stall_cycles;
        self.sync_stall_cycles += other.sync_stall_cycles;
        self.sleep_cycles += other.sleep_cycles;
        self.hold_cycles += other.hold_cycles;
        self.active_cycles += other.active_cycles;
        self.fetches += other.fetches;
        self.dm_reads += other.dm_reads;
        self.dm_writes += other.dm_writes;
        self.checkins += other.checkins;
        self.checkouts += other.checkouts;
        self.branches_taken += other.branches_taken;
        self.branches_not_taken += other.branches_not_taken;
        self.interrupts += other.interrupts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_merge() {
        let a = CoreStats {
            active_cycles: 10,
            sleep_cycles: 5,
            fetch_stall_cycles: 2,
            dm_reads: 3,
            dm_writes: 1,
            ..Default::default()
        };
        assert_eq!(a.total_cycles(), 17);
        assert_eq!(a.dm_accesses(), 4);

        let mut b = a;
        b.merge(&a);
        assert_eq!(b.total_cycles(), 34);
        assert_eq!(b.dm_accesses(), 8);
    }
}
