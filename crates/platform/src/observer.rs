//! Pluggable run instrumentation for the cycle engine.
//!
//! The engine ([`crate::Platform`]) is observation-free: it advances cores,
//! memories, crossbars and the synchronizer, and nothing else. Everything
//! that *watches* a run — lockstep-width accounting, PC tracing, VCD
//! dumping, custom experiment probes — implements [`Observer`] and is
//! registered with [`crate::Platform::attach`]. Hooks default to no-ops,
//! so an observer only pays for what it overrides, and a platform with no
//! observer attached runs a copy of the cycle with every hook compiled out.
//!
//! Observers are debugging aids for a single platform: [`PcTrace`] and
//! [`crate::VcdTracer`] back `ulprun --trace` / `--trace-vcd`. A platform
//! with an observer attached interprets every cycle, so no job of the
//! layers above attaches one, and observers are not part of a
//! checkpoint. The DM bank heat map a job may carry is not an observer:
//! it is sampled from the D-Xbar's per-bank served counter
//! ([`crate::Platform::dm_bank_served`]) at window boundaries, with the
//! engine on its batched fast path.
//!
//! ```
//! use ulp_platform::{Observer, PcTrace, Platform, PlatformConfig};
//! use ulp_isa::asm::assemble;
//!
//! let mut p = Platform::new(PlatformConfig::paper_with_sync()).unwrap();
//! p.load_program(&assemble("nop\nhalt").unwrap());
//! let handle = p.attach(Box::new(PcTrace::new(16)));
//! p.run().unwrap();
//! let trace = p.observer_as::<PcTrace>(&handle).unwrap();
//! assert!(trace.rows()[0].iter().all(|pc| *pc == Some(0)));
//! ```

use ulp_cpu::{Core, CoreState};
use ulp_mem::{DmRequest, FetchGroup};

/// Hooks into the deterministic cycle loop.
///
/// All hooks receive the 1-based cycle number being simulated. A hook must
/// not assume it sees every run from the start: observers can be attached
/// to a platform that has already stepped.
///
/// Observers are owned by the platform, registered through
/// [`crate::Platform::attach`]: the engine notifies them on every
/// `step`/`run`. The `Any` supertrait lets callers recover the concrete
/// type of an attached observer (see [`crate::Platform::observer_as`]) or
/// take it back by value after [`crate::Platform::detach`].
pub trait Observer: std::any::Any {
    /// Start of a cycle, before interrupt polling and the phase snapshot.
    /// `cores` is the state left by the previous cycle.
    fn on_cycle_start(&mut self, _cycle: u64, _cores: &[Core]) {}

    /// A core's phase at the start of the cycle (the phase snapshot that
    /// decides which engine call the core receives), with its current PC.
    fn on_core_phase(&mut self, _cycle: u64, _core: usize, _pc: u16, _phase: CoreState) {}

    /// The cycle's instruction fetches before arbitration, as groups of
    /// cores fetching the same address, in order of each group's lowest
    /// core id. Called every cycle; empty when no core is in its fetch
    /// phase.
    fn on_fetch(&mut self, _cycle: u64, _groups: &[FetchGroup]) {}

    /// The cycle's data-memory requests after D-Xbar arbitration:
    /// `granted[core]` is `true` for the cores whose request in `dm_reqs`
    /// was served (completed or held) this cycle. Empty when no core is in
    /// a memory-access execute phase.
    fn on_dm(&mut self, _cycle: u64, _dm_reqs: &[DmRequest], _granted: &[bool]) {}

    /// End of a cycle, after every phase has been applied.
    fn on_cycle_end(&mut self, _cycle: u64, _cores: &[Core]) {}
}

/// Lockstep-width accounting (the paper's Fig. 2 metric): per fetch cycle,
/// the size of the largest group of cores fetching the same PC.
///
/// [`crate::Platform`] keeps one of these attached by default because
/// [`crate::SimStats::avg_lockstep_width`] is part of every run's
/// statistics; it is also usable standalone through
/// [`crate::Platform::attach`].
#[derive(Debug, Clone, Default)]
pub struct LockstepWidth {
    sum: u64,
    cycles: u64,
}

impl LockstepWidth {
    /// Creates an idle recorder.
    pub fn new() -> LockstepWidth {
        LockstepWidth::default()
    }

    /// Sum over fetch cycles of the largest same-PC group size.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Number of cycles with at least one fetch request.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Clears the recorded totals.
    pub fn reset(&mut self) {
        self.sum = 0;
        self.cycles = 0;
    }

    /// Records `cycles` fetch cycles whose largest same-PC group has
    /// `width` cores. Used by the engine's uniform batched cycles, which
    /// know the width up front and record a lockstep run at once.
    pub fn note_width(&mut self, width: u64, cycles: u64) {
        self.sum += width * cycles;
        self.cycles += cycles;
    }

    /// Replaces the recorded totals (checkpoint restore).
    pub fn restore(&mut self, sum: u64, cycles: u64) {
        self.sum = sum;
        self.cycles = cycles;
    }
}

impl Observer for LockstepWidth {
    #[inline]
    fn on_fetch(&mut self, _cycle: u64, groups: &[FetchGroup]) {
        if let Some(width) = groups.iter().map(|g| g.width).max() {
            self.note_width(u64::from(width), 1);
        }
    }
}

/// Records per-core fetch PCs for the first `limit` cycles (for lockstep
/// visualisation). Sleeping, halted and non-fetch cycles are recorded as
/// `None`.
#[derive(Debug, Clone, Default)]
pub struct PcTrace {
    rows: Vec<Vec<Option<u16>>>,
    current: Vec<Option<u16>>,
    limit: usize,
}

impl PcTrace {
    /// Creates a trace that records at most `limit` cycles.
    pub fn new(limit: usize) -> PcTrace {
        PcTrace {
            rows: Vec::with_capacity(limit.min(1 << 20)),
            current: Vec::new(),
            limit,
        }
    }

    /// The recorded rows: one per traced cycle, one entry per core.
    pub fn rows(&self) -> &[Vec<Option<u16>>] {
        &self.rows
    }

    /// Takes the recorded rows by value.
    pub fn into_rows(self) -> Vec<Vec<Option<u16>>> {
        self.rows
    }
}

impl Observer for PcTrace {
    fn on_core_phase(&mut self, _cycle: u64, core: usize, pc: u16, phase: CoreState) {
        if self.rows.len() >= self.limit {
            return;
        }
        if core >= self.current.len() {
            self.current.resize(core + 1, None);
        }
        self.current[core] = match phase {
            CoreState::Fetch => Some(pc),
            _ => None,
        };
    }

    fn on_cycle_end(&mut self, _cycle: u64, _cores: &[Core]) {
        if self.rows.len() < self.limit && !self.current.is_empty() {
            self.rows.push(std::mem::take(&mut self.current));
        }
        self.current.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_width_counts_largest_group() {
        let mut w = LockstepWidth::new();
        let group = |addr, members: u32| FetchGroup {
            addr,
            bank: 0,
            members,
            width: members.count_ones(),
        };
        w.on_fetch(1, &[]);
        assert_eq!(w.cycles(), 0, "empty fetch cycles are not counted");
        w.on_fetch(2, &[group(5, 0b011), group(9, 0b100)]);
        assert_eq!((w.sum(), w.cycles()), (2, 1));
        w.on_fetch(3, &[group(1, 0b001), group(2, 0b010), group(3, 0b100)]);
        assert_eq!((w.sum(), w.cycles()), (3, 2));
        w.reset();
        assert_eq!((w.sum(), w.cycles()), (0, 0));
    }

    #[test]
    fn pc_trace_respects_limit() {
        let mut t = PcTrace::new(2);
        for cycle in 1..=4u64 {
            t.on_core_phase(cycle, 0, cycle as u16, CoreState::Fetch);
            t.on_core_phase(cycle, 1, 0, CoreState::Halted);
            t.on_cycle_end(cycle, &[]);
        }
        assert_eq!(t.rows().len(), 2);
        assert_eq!(t.rows()[0], vec![Some(1), None]);
        assert_eq!(t.rows()[1], vec![Some(2), None]);
    }
}
