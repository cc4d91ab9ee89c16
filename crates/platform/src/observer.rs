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
//! Observer output is first-class payload in the layers above the engine:
//! service jobs select observers per job (`ulp_service::ObserverSelection`)
//! and carry the output back as `ulp_service::JobArtifacts`; the
//! workload-sharding merge re-indexes per-shard artifacts onto a
//! recording's global cycle/sample axes (`ulp_shard::MergedArtifacts`),
//! and sweep cells carry the merged result. An observer that buckets by
//! cycle (like [`BankHeatMap`]'s windows) therefore flushes its trailing
//! partial bucket at run end, so shard boundaries stay lossless.
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

use crate::checkpoint::{Reader, Writer};
use crate::config::PlatformConfig;
use crate::error::PlatformError;
use crate::sim::RunSummary;
use crate::stats::SimStats;
use ulp_cpu::{Core, CoreState};
use ulp_mem::{BankMapping, DmRequest, ImRequest};

/// Hooks into the deterministic cycle loop.
///
/// All hooks receive the 1-based cycle number being simulated. A hook must
/// not assume it sees every run from the start: observers can be attached
/// to a platform that has already stepped.
///
/// Observers are owned by the platform, registered through
/// [`crate::Platform::attach`]: the engine notifies them on every
/// `step`/`run`, and they participate in checkpointing via
/// [`Observer::save_state`] / [`Observer::load_state`]. The `Any`
/// supertrait lets callers recover the concrete type of an attached
/// observer (see [`crate::Platform::observer_as`]) or take it back by
/// value after [`crate::Platform::detach`].
pub trait Observer: std::any::Any {
    /// A stable identifier for this observer kind, used to match
    /// checkpointed observer state back to attached observers on restore.
    /// Two observers attached under the same label are matched in attach
    /// order.
    fn label(&self) -> &str {
        "observer"
    }

    /// Serializes the observer's accumulated state for a platform
    /// checkpoint. `None` (the default) means the observer does not
    /// participate in checkpointing — a platform carrying it can still be
    /// snapshotted, but the observer's state is not in the blob.
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Re-applies state produced by [`Observer::save_state`]. Returns
    /// `false` if the bytes are not loadable into this observer (wrong
    /// geometry, corrupt encoding); the restore then fails with
    /// [`crate::RestoreError::ObserverMismatch`].
    fn load_state(&mut self, _state: &[u8]) -> bool {
        false
    }
    /// Start of a cycle, before interrupt polling and the phase snapshot.
    /// `cores` is the state left by the previous cycle.
    fn on_cycle_start(&mut self, _cycle: u64, _cores: &[Core]) {}

    /// A core's phase at the start of the cycle (the phase snapshot that
    /// decides which engine call the core receives), with its current PC.
    fn on_core_phase(&mut self, _cycle: u64, _core: usize, _pc: u16, _phase: CoreState) {}

    /// The cycle's instruction-fetch requests, before arbitration. Empty
    /// when no core is in its fetch phase.
    fn on_fetch(&mut self, _cycle: u64, _fetch_reqs: &[ImRequest]) {}

    /// The cycle's data-memory requests after D-Xbar arbitration:
    /// `granted[core]` is `true` for the cores whose request in `dm_reqs`
    /// was served (completed or held) this cycle. Empty when no core is in
    /// a memory-access execute phase.
    fn on_dm(&mut self, _cycle: u64, _dm_reqs: &[DmRequest], _granted: &[bool]) {}

    /// End of a cycle, after every phase has been applied.
    fn on_cycle_end(&mut self, _cycle: u64, _cores: &[Core]) {}

    /// End of a [`crate::Platform::run`] or [`crate::Platform::run_until`]
    /// run, with its outcome and final statistics. Fires only when the run
    /// truly completes — not when a `run_until` slice pauses, and never
    /// for manual [`crate::Platform::step`] driving.
    fn on_run_end(&mut self, _outcome: &Result<RunSummary, PlatformError>, _stats: &SimStats) {}
}

/// Lockstep-width accounting (the paper's Fig. 2 metric): per fetch cycle,
/// the size of the largest group of cores fetching the same PC.
///
/// [`crate::Platform`] keeps one of these attached by default because
/// [`SimStats::avg_lockstep_width`] is part of every run's statistics; it
/// is also usable standalone through [`crate::Platform::attach`].
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

    /// Records one fetch cycle whose largest same-PC group has `width`
    /// cores, without materializing a request list — what
    /// [`Observer::on_fetch`] would record for such a cycle. Used by the
    /// engine's batched cycles.
    pub fn note_width(&mut self, width: u64) {
        self.sum += width;
        self.cycles += 1;
    }

    /// Replaces the recorded totals (checkpoint restore).
    pub fn restore(&mut self, sum: u64, cycles: u64) {
        self.sum = sum;
        self.cycles = cycles;
    }
}

impl Observer for LockstepWidth {
    fn label(&self) -> &str {
        "lockstep-width"
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut w = Writer::default();
        w.u64(self.sum);
        w.u64(self.cycles);
        Some(w.buf)
    }

    fn load_state(&mut self, state: &[u8]) -> bool {
        let mut r = Reader::new(state);
        let (Some(sum), Some(cycles)) = (r.u64(), r.u64()) else {
            return false;
        };
        if !r.done() {
            return false;
        }
        self.restore(sum, cycles);
        true
    }

    fn on_fetch(&mut self, _cycle: u64, fetch_reqs: &[ImRequest]) {
        if fetch_reqs.is_empty() {
            return;
        }
        // The largest same-address multiplicity, without sorting: each
        // address's first occurrence counts itself and its later
        // repeats, and the scan stops once no later start can do better.
        let mut best = 0;
        for (i, r) in fetch_reqs.iter().enumerate() {
            if best >= fetch_reqs.len() - i {
                break;
            }
            let count = fetch_reqs[i..].iter().filter(|q| q.addr == r.addr).count();
            best = best.max(count);
        }
        self.sum += best as u64;
        self.cycles += 1;
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

fn write_pc_row(w: &mut Writer, row: &[Option<u16>]) {
    w.len(row.len());
    for entry in row {
        match entry {
            None => w.u8(0),
            Some(pc) => {
                w.u8(1);
                w.u16(*pc);
            }
        }
    }
}

fn read_pc_row(r: &mut Reader) -> Option<Vec<Option<u16>>> {
    let n = r.u32()? as usize;
    let mut row = Vec::with_capacity(n.min(16));
    for _ in 0..n {
        row.push(match r.u8()? {
            0 => None,
            1 => Some(r.u16()?),
            _ => return None,
        });
    }
    Some(row)
}

impl Observer for PcTrace {
    fn label(&self) -> &str {
        "pc-trace"
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut w = Writer::default();
        w.u64(self.limit as u64);
        w.len(self.rows.len());
        for row in &self.rows {
            write_pc_row(&mut w, row);
        }
        write_pc_row(&mut w, &self.current);
        Some(w.buf)
    }

    fn load_state(&mut self, state: &[u8]) -> bool {
        let mut r = Reader::new(state);
        let Some(limit) = r.u64() else { return false };
        let Some(nrows) = r.u32() else { return false };
        let mut rows = Vec::with_capacity((nrows as usize).min(1 << 10));
        for _ in 0..nrows {
            let Some(row) = read_pc_row(&mut r) else {
                return false;
            };
            rows.push(row);
        }
        let Some(current) = read_pc_row(&mut r) else {
            return false;
        };
        if !r.done() {
            return false;
        }
        self.limit = limit as usize;
        self.rows = rows;
        self.current = current;
        true
    }

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

/// Per-bank data-memory heat map: how many granted core accesses each DM
/// bank served, bucketed into fixed-length cycle windows.
///
/// Rides entirely on the [`Observer`] hook layer (the `on_dm` hook carries
/// the cycle's requests and grant bitmap), so attaching it never touches
/// the cycle loop. Each row of [`BankHeatMap::rows`] covers `window`
/// cycles; a trailing partial window is flushed at run end. The counts are
/// *served core accesses* — under lockstep, a broadcast that satisfies
/// eight cores with one physical bank access shows up as eight served
/// accesses on one bank, which is exactly the contention picture a heat
/// map is after (physical totals live in
/// [`ulp_mem::BankedMemory::per_bank_accesses`]).
#[derive(Debug, Clone)]
pub struct BankHeatMap {
    banks: usize,
    bank_words: usize,
    mapping: BankMapping,
    window: u64,
    /// Cycles observed in the in-flight window.
    seen: u64,
    current: Vec<u64>,
    rows: Vec<Vec<u64>>,
}

impl BankHeatMap {
    /// A heat map of `banks` banks of `bank_words` words each under
    /// `mapping`, bucketing counts into `window`-cycle rows.
    ///
    /// # Panics
    ///
    /// Panics if `banks`, `bank_words` or `window` is zero.
    pub fn new(banks: usize, bank_words: usize, mapping: BankMapping, window: u64) -> BankHeatMap {
        assert!(banks > 0 && bank_words > 0, "empty memory geometry");
        assert!(window > 0, "zero-cycle window");
        BankHeatMap {
            banks,
            bank_words,
            mapping,
            window,
            seen: 0,
            current: vec![0; banks],
            rows: Vec::new(),
        }
    }

    /// A heat map of the data memory described by `cfg`.
    pub fn for_dm(cfg: &PlatformConfig, window: u64) -> BankHeatMap {
        BankHeatMap::new(
            cfg.dm_banks,
            cfg.dm_words / cfg.dm_banks,
            cfg.dm_mapping,
            window,
        )
    }

    /// The completed windows: one row per `window` cycles (the last row
    /// may cover fewer, flushed at run end), one count per bank.
    pub fn rows(&self) -> &[Vec<u64>] {
        &self.rows
    }

    /// Takes the completed windows by value.
    pub fn into_rows(self) -> Vec<Vec<u64>> {
        self.rows
    }

    /// Total served accesses per bank over all recorded windows, the
    /// flushed rows and the in-flight window combined.
    pub fn totals(&self) -> Vec<u64> {
        let mut totals = self.current.clone();
        for row in &self.rows {
            for (t, &v) in totals.iter_mut().zip(row) {
                *t += v;
            }
        }
        totals
    }

    fn bank_of(&self, addr: u16) -> usize {
        self.mapping.bank_of(addr, self.banks, self.bank_words)
    }

    fn flush(&mut self) {
        let row = std::mem::replace(&mut self.current, vec![0; self.banks]);
        self.rows.push(row);
        self.seen = 0;
    }
}

impl Observer for BankHeatMap {
    fn label(&self) -> &str {
        "bank-heat-map"
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut w = Writer::default();
        w.u32(self.banks as u32);
        w.u32(self.bank_words as u32);
        w.u8(match self.mapping {
            BankMapping::Blocked => 0,
            BankMapping::Interleaved => 1,
        });
        w.u64(self.window);
        w.u64(self.seen);
        for &count in &self.current {
            w.u64(count);
        }
        w.len(self.rows.len());
        for row in &self.rows {
            for &count in row {
                w.u64(count);
            }
        }
        Some(w.buf)
    }

    fn load_state(&mut self, state: &[u8]) -> bool {
        let mut r = Reader::new(state);
        let (Some(banks), Some(bank_words), Some(mapping), Some(window)) =
            (r.u32(), r.u32(), r.u8(), r.u64())
        else {
            return false;
        };
        let mapping = match mapping {
            0 => BankMapping::Blocked,
            1 => BankMapping::Interleaved,
            _ => return false,
        };
        // The geometry is construction state, not accumulated state: a
        // snapshot only loads into a heat map configured identically.
        if banks as usize != self.banks
            || bank_words as usize != self.bank_words
            || mapping != self.mapping
            || window != self.window
        {
            return false;
        }
        let Some(seen) = r.u64() else { return false };
        let mut current = vec![0u64; self.banks];
        for slot in &mut current {
            let Some(count) = r.u64() else { return false };
            *slot = count;
        }
        let Some(nrows) = r.u32() else { return false };
        let mut rows = Vec::with_capacity((nrows as usize).min(1 << 10));
        for _ in 0..nrows {
            let mut row = vec![0u64; self.banks];
            for slot in &mut row {
                let Some(count) = r.u64() else { return false };
                *slot = count;
            }
            rows.push(row);
        }
        if !r.done() {
            return false;
        }
        self.seen = seen;
        self.current = current;
        self.rows = rows;
        true
    }

    fn on_dm(&mut self, _cycle: u64, dm_reqs: &[DmRequest], granted: &[bool]) {
        for r in dm_reqs {
            if granted.get(r.core).copied().unwrap_or(false) {
                let bank = self.bank_of(r.addr);
                self.current[bank] += 1;
            }
        }
    }

    fn on_cycle_end(&mut self, _cycle: u64, _cores: &[Core]) {
        self.seen += 1;
        if self.seen == self.window {
            self.flush();
        }
    }

    fn on_run_end(&mut self, _outcome: &Result<RunSummary, PlatformError>, _stats: &SimStats) {
        // Flush the trailing partial window, if it saw any cycles.
        if self.seen > 0 {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_width_counts_largest_group() {
        let mut w = LockstepWidth::new();
        let req = |core, addr| ImRequest { core, addr };
        w.on_fetch(1, &[]);
        assert_eq!(w.cycles(), 0, "empty fetch cycles are not counted");
        w.on_fetch(2, &[req(0, 5), req(1, 5), req(2, 9)]);
        assert_eq!((w.sum(), w.cycles()), (2, 1));
        w.on_fetch(3, &[req(0, 1), req(1, 2), req(2, 3)]);
        assert_eq!((w.sum(), w.cycles()), (3, 2));
        w.reset();
        assert_eq!((w.sum(), w.cycles()), (0, 0));
    }

    #[test]
    fn bank_heat_map_buckets_served_accesses_per_window() {
        use ulp_mem::Access;
        let mut map = BankHeatMap::new(4, 16, BankMapping::Blocked, 2);
        let req = |core, addr| DmRequest {
            core,
            pc: 0,
            addr,
            access: Access::Read,
        };
        // Cycle 1: cores 0 and 1 served in banks 0 and 2; core 2 stalled.
        map.on_dm(
            1,
            &[req(0, 3), req(1, 35), req(2, 35)],
            &[true, true, false],
        );
        map.on_cycle_end(1, &[]);
        // Cycle 2: the stalled core is served.
        map.on_dm(2, &[req(2, 35)], &[false, false, true]);
        map.on_cycle_end(2, &[]);
        assert_eq!(map.rows(), &[vec![1, 0, 2, 0]]);
        // Cycle 3 starts a new window; flushed as a partial row at run end.
        map.on_dm(3, &[req(3, 60)], &[false, false, false, true]);
        map.on_cycle_end(3, &[]);
        let stats = SimStats {
            cycles: 3,
            num_cores: 4,
            cores: vec![],
            core_total: ulp_cpu::CoreStats::default(),
            im: ulp_mem::MemStats::default(),
            dm: ulp_mem::MemStats::default(),
            ixbar: ulp_mem::IXbarStats::default(),
            dxbar: ulp_mem::DXbarStats::default(),
            sync: None,
            lockstep_width_sum: 0,
            lockstep_width_cycles: 0,
        };
        map.on_run_end(&Ok(RunSummary { cycles: 3 }), &stats);
        assert_eq!(map.rows(), &[vec![1, 0, 2, 0], vec![0, 0, 0, 1]]);
        assert_eq!(map.totals(), vec![1, 0, 2, 1]);
    }

    #[test]
    fn bank_heat_map_interleaved_mapping_and_quiet_run() {
        let map = BankHeatMap::new(4, 16, BankMapping::Interleaved, 8);
        assert_eq!(map.bank_of(5), 1);
        assert_eq!(map.bank_of(7), 3);
        // A heat map that saw nothing reports no rows and zero totals.
        assert!(map.rows().is_empty());
        assert_eq!(map.totals(), vec![0; 4]);
    }

    #[test]
    fn observer_state_round_trips_and_rejects_bad_geometry() {
        // LockstepWidth.
        let mut w = LockstepWidth::new();
        w.note_width(8);
        w.note_width(4);
        let state = w.save_state().unwrap();
        let mut w2 = LockstepWidth::new();
        assert!(w2.load_state(&state));
        assert_eq!((w2.sum(), w2.cycles()), (12, 2));
        assert!(!w2.load_state(&state[..3]), "truncated state rejected");

        // PcTrace, including the in-flight row.
        let mut t = PcTrace::new(4);
        t.on_core_phase(1, 0, 7, CoreState::Fetch);
        t.on_core_phase(1, 1, 0, CoreState::Halted);
        t.on_cycle_end(1, &[]);
        t.on_core_phase(2, 0, 8, CoreState::Fetch);
        let state = t.save_state().unwrap();
        let mut t2 = PcTrace::new(0);
        assert!(t2.load_state(&state));
        assert_eq!(t2.rows(), t.rows());
        t2.on_core_phase(2, 1, 0, CoreState::Halted);
        t2.on_cycle_end(2, &[]);
        assert_eq!(t2.rows()[1], vec![Some(8), None]);

        // BankHeatMap: round trip, then a geometry mismatch.
        let mut map = BankHeatMap::new(4, 16, BankMapping::Blocked, 2);
        map.on_dm(
            1,
            &[DmRequest {
                core: 0,
                pc: 0,
                addr: 3,
                access: ulp_mem::Access::Read,
            }],
            &[true],
        );
        map.on_cycle_end(1, &[]);
        let state = map.save_state().unwrap();
        let mut map2 = BankHeatMap::new(4, 16, BankMapping::Blocked, 2);
        assert!(map2.load_state(&state));
        assert_eq!(map2.totals(), map.totals());
        let mut wrong = BankHeatMap::new(8, 8, BankMapping::Blocked, 2);
        assert!(!wrong.load_state(&state), "geometry mismatch rejected");
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
