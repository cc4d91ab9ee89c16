//! The deterministic cycle loop composing cores, memories, crossbars and
//! the synchronizer.

use crate::checkpoint::Checkpoint;
use crate::config::PlatformConfig;
use crate::error::{ConfigError, PlatformError, RestoreError};
use crate::observer::{LockstepWidth, Observer};
use crate::stats::SimStats;
use std::fmt;
use ulp_cpu::{Core, CoreState, MemAccess, SyncRequest, WakeReason};
use ulp_isa::asm::Program;
use ulp_isa::{decode, CsrOp, Instr, OpClass};
use ulp_mem::{
    Access, BankedMemory, DXbar, DXbarOutcome, DmGrant, DmRequest, FetchGroup, IXbar, ImGrant,
    ImRequest,
};
use ulp_sync::{SyncEvents, Synchronizer};

/// Outcome of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Cycles simulated until the last core halted.
    pub cycles: u64,
}

/// Outcome of a bounded [`Platform::run_until`] slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunProgress {
    /// Every core halted; the run is complete.
    Done(RunSummary),
    /// The cycle limit was reached with cores still active. The platform
    /// can be resumed (another `run_until` / `run`) or checkpointed; the
    /// resumed run is bit-identical to one that never paused.
    Paused,
}

impl RunProgress {
    /// Whether the run completed.
    pub fn is_done(&self) -> bool {
        matches!(self, RunProgress::Done(_))
    }

    /// The completion summary, if the run finished.
    pub fn summary(&self) -> Option<RunSummary> {
        match self {
            RunProgress::Done(s) => Some(*s),
            RunProgress::Paused => None,
        }
    }
}

/// A token identifying an observer registered through
/// [`Platform::attach`]. Pass it to [`Platform::observer_as`] /
/// [`Platform::observer_mut_as`] to inspect the observer mid-run and to
/// [`Platform::detach`] to take it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObserverHandle {
    id: u64,
}

/// Per-cycle scratch buffers of the engine, allocated once at platform
/// construction and reused every cycle, so [`Platform::step`] performs no
/// heap allocation in steady state.
#[derive(Debug, Default)]
struct CycleBuffers {
    /// Phase of every core at the start of the cycle.
    phases: Vec<CoreState>,
    /// Fetch requests of cores in their fetch phase.
    fetch_reqs: Vec<ImRequest>,
    /// Granted fetches (filled by the I-Xbar).
    im_grants: Vec<ImGrant>,
    /// Cores whose fetch was granted this cycle.
    fetched: Vec<bool>,
    /// `SINC`/`SDEC` requests of cores in their execute phase.
    sync_reqs: Vec<(usize, SyncRequest)>,
    /// Events produced by the synchronizer (filled by `step_into`).
    sync_events: SyncEvents,
    /// Data-memory requests of cores in their execute phase.
    dm_reqs: Vec<DmRequest>,
    /// Grants and releases (filled by the D-Xbar).
    dm_outcome: DXbarOutcome,
    /// Cores whose data access was granted this cycle.
    granted: Vec<bool>,
}

impl CycleBuffers {
    fn new(num_cores: usize) -> CycleBuffers {
        CycleBuffers {
            phases: Vec::with_capacity(num_cores),
            fetch_reqs: Vec::with_capacity(num_cores),
            im_grants: Vec::with_capacity(num_cores),
            fetched: vec![false; num_cores],
            sync_reqs: Vec::with_capacity(num_cores),
            sync_events: SyncEvents::default(),
            dm_reqs: Vec::with_capacity(num_cores),
            dm_outcome: DXbarOutcome::default(),
            granted: vec![false; num_cores],
        }
    }
}

/// The multi-core platform simulator (Fig. 1 of the paper).
///
/// See the crate-level documentation for an example. Construction validates
/// the [`PlatformConfig`]; programs and data are loaded through backdoors
/// ([`Platform::load_program`], [`Platform::load_dm`]); [`Platform::run`]
/// advances the deterministic cycle loop until every core halts.
///
/// [`Platform::step`] interprets exactly one cycle and is the reference.
/// Unobserved runs take a fast path that is bit-identical to it: they run
/// whole stretches of cycles as one batch over the groups of cores that
/// share a PC (see [`Platform::run`]), with sleeping cores riding along,
/// and interpret only the cycles a batch cannot carry (synchronizer
/// operations, held cores, interrupts, observers).
///
/// The engine itself carries no instrumentation: tracing and visualisation
/// hook in through [`Observer`]s registered with [`Platform::attach`].
/// The only built-in observer is a [`LockstepWidth`] recorder, because
/// the average lockstep width is part of [`SimStats`].
pub struct Platform {
    cfg: PlatformConfig,
    cores: Vec<Core>,
    imem: BankedMemory,
    dmem: BankedMemory,
    ixbar: IXbar,
    dxbar: DXbar,
    sync: Option<Synchronizer>,
    cycle: u64,
    fault: Option<PlatformError>,
    buffers: CycleBuffers,
    lockstep: LockstepWidth,
    /// The decoded-op table over the loaded program: entry `a` is the op
    /// at IM word `a` if it is batchable (see [`batchable`]), `None` if
    /// it is not or was never loaded. Built from the words being loaded,
    /// so it only spans the program; a fetch past its end or at a `None`
    /// entry is left to the interpreter, which decodes the word itself.
    decoded: Vec<Option<Instr>>,
    /// Observers registered through [`Platform::attach`], notified on
    /// every step/run in attach order. Each entry keeps the id its
    /// [`ObserverHandle`] was minted with.
    attached: Vec<(u64, Box<dyn Observer>)>,
    /// Id for the next [`Platform::attach`] call.
    next_observer: u64,
}

impl fmt::Debug for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Platform")
            .field("cfg", &self.cfg)
            .field("cycle", &self.cycle)
            .field("fault", &self.fault)
            .field(
                "attached",
                &self
                    .attached
                    .iter()
                    .map(|(id, o)| (*id, o.label()))
                    .collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

impl Platform {
    /// Builds a platform from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found in `cfg`.
    pub fn new(cfg: PlatformConfig) -> Result<Platform, ConfigError> {
        cfg.validate()?;
        Ok(Platform {
            cores: (0..cfg.num_cores).map(|i| Core::new(i as u8)).collect(),
            imem: BankedMemory::new(cfg.im_words, cfg.im_banks, cfg.im_mapping),
            dmem: BankedMemory::new(cfg.dm_words, cfg.dm_banks, cfg.dm_mapping),
            ixbar: IXbar::new(cfg.im_banks),
            dxbar: DXbar::new(cfg.dm_banks, cfg.dxbar_policy),
            sync: cfg.synchronizer.then(Synchronizer::new),
            cycle: 0,
            fault: None,
            buffers: CycleBuffers::new(cfg.num_cores),
            lockstep: LockstepWidth::new(),
            decoded: Vec::new(),
            attached: Vec::new(),
            next_observer: 0,
            cfg,
        })
    }

    /// Registers an owned observer with the platform. From now on every
    /// [`Platform::step`], [`Platform::run`] and [`Platform::run_until`]
    /// notifies it (observers fire in attach order), and
    /// [`Platform::snapshot`] captures its state when it implements
    /// [`Observer::save_state`]. This is the only way to observe a run:
    /// read the observer back through the returned handle
    /// ([`Platform::observer_as`], [`Platform::detach`]).
    pub fn attach(&mut self, observer: Box<dyn Observer>) -> ObserverHandle {
        let id = self.next_observer;
        self.next_observer += 1;
        self.attached.push((id, observer));
        ObserverHandle { id }
    }

    /// Removes and returns an attached observer. `None` if the handle was
    /// already detached (handles are platform-specific and single-use).
    pub fn detach(&mut self, handle: ObserverHandle) -> Option<Box<dyn Observer>> {
        let pos = self.attached.iter().position(|(id, _)| *id == handle.id)?;
        Some(self.attached.remove(pos).1)
    }

    /// Number of currently attached observers.
    pub fn attached_observers(&self) -> usize {
        self.attached.len()
    }

    /// Borrows an attached observer downcast to its concrete type.
    /// `None` if the handle is stale or `T` is not the attached type.
    pub fn observer_as<T: Observer>(&self, handle: &ObserverHandle) -> Option<&T> {
        self.attached
            .iter()
            .find(|(id, _)| *id == handle.id)
            .and_then(|(_, o)| (o.as_ref() as &dyn std::any::Any).downcast_ref::<T>())
    }

    /// Mutably borrows an attached observer downcast to its concrete type.
    pub fn observer_mut_as<T: Observer>(&mut self, handle: &ObserverHandle) -> Option<&mut T> {
        self.attached
            .iter_mut()
            .find(|(id, _)| *id == handle.id)
            .and_then(|(_, o)| (o.as_mut() as &mut dyn std::any::Any).downcast_mut::<T>())
    }

    /// The active configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// Replaces the cycle budget in place. Part of the reuse surface
    /// alongside [`Platform::reset`]: a cached platform keyed on
    /// (design, cores) can serve jobs whose workloads carry different
    /// budgets without being rebuilt.
    pub fn set_max_cycles(&mut self, budget: u64) {
        self.cfg.max_cycles = budget;
    }

    /// Returns the platform to its power-on state — cores reset, memories
    /// zeroed, statistics cleared — while keeping every allocation, so the
    /// instance can run another program without rebuilding. Used by the
    /// sweep runner to amortize construction across a grid of runs.
    pub fn reset(&mut self) {
        for (i, core) in self.cores.iter_mut().enumerate() {
            *core = Core::new(i as u8);
        }
        self.imem.clear();
        self.dmem.clear();
        self.ixbar.reset();
        self.dxbar.reset();
        if let Some(sync) = &mut self.sync {
            sync.reset();
        }
        self.cycle = 0;
        self.fault = None;
        self.lockstep.reset();
        self.decoded.clear();
    }

    /// Loads an assembled program into instruction memory.
    pub fn load_program(&mut self, program: &Program) {
        for (addr, word) in program.iter() {
            self.imem.poke(addr, word);
            self.note_decoded(addr, word);
        }
    }

    /// Loads raw words into instruction memory at `base`.
    pub fn load_im(&mut self, base: u16, words: &[u16]) {
        self.imem.load(base, words);
        for (i, &word) in words.iter().enumerate() {
            self.note_decoded(base.wrapping_add(i as u16), word);
        }
    }

    /// Enters a word just written to IM address `addr` into the
    /// decoded-op table, at the word index the memory stores it under.
    fn note_decoded(&mut self, addr: u16, word: u16) {
        let index = usize::from(addr) % self.cfg.im_words;
        if index >= self.decoded.len() {
            self.decoded.resize(index + 1, None);
        }
        self.decoded[index] = batchable(word);
    }

    /// Loads raw words into data memory at `base`.
    pub fn load_dm(&mut self, base: u16, words: &[u16]) {
        self.dmem.load(base, words);
    }

    /// Reads one data-memory word (backdoor; not counted).
    pub fn dm(&self, addr: u16) -> u16 {
        self.dmem.peek(addr)
    }

    /// Reads `len` data-memory words starting at `base` (backdoor).
    pub fn dm_slice(&self, base: u16, len: usize) -> Vec<u16> {
        (0..len)
            .map(|i| self.dmem.peek(base.wrapping_add(i as u16)))
            .collect()
    }

    /// Writes one data-memory word (backdoor; not counted).
    pub fn set_dm(&mut self, addr: u16, value: u16) {
        self.dmem.poke(addr, value);
    }

    /// Immutable access to a core (panics if out of range).
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i]
    }

    /// Mutable access to a core (loader/test hook).
    pub fn core_mut(&mut self, i: usize) -> &mut Core {
        &mut self.cores[i]
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Raises the external interrupt line of core `i`.
    pub fn raise_irq(&mut self, i: usize) {
        self.cores[i].raise_irq();
    }

    /// Whether every core has halted.
    pub fn all_halted(&self) -> bool {
        self.cores.iter().all(|c| c.is_halted())
    }

    /// Advances the platform by one clock cycle, notifying attached
    /// observers at each hook point (after the built-in lockstep
    /// recorder).
    ///
    /// A step is always exactly one interpreted cycle: only the run loops
    /// take the batched fast path, so a `step()` loop is the reference
    /// every run is bit-identical to.
    ///
    /// The engine itself performs zero heap allocations in steady state,
    /// with or without attached observers: all per-cycle working sets
    /// live in buffers owned by the platform and its components, sized
    /// once and reused every cycle, and observers are dispatched straight
    /// from the platform's own list. The unobserved cycle is a
    /// monomorphized copy with every observer hook compiled out.
    pub fn step(&mut self) {
        if self.attached.is_empty() {
            self.step_cycle::<false>(&mut [], 0);
            return;
        }
        let mut attached = std::mem::take(&mut self.attached);
        self.step_cycle::<true>(&mut attached, 0);
        self.attached = attached;
    }

    /// One interpreter cycle. `OBSERVED` gates every observer dispatch at
    /// compile time; the built-in lockstep recorder only implements
    /// `on_fetch`, so that is the one hook the unobserved copy keeps.
    ///
    /// The unobserved copy may instead run a batch (see
    /// [`Platform::batch`]) of up to `batch_limit - cycle` cycles, right
    /// after the cycle's interrupt poll. `step` passes 0, which never
    /// batches. The data-memory phase is [`Platform::serve_data`], which
    /// the batch runs too.
    fn step_cycle<const OBSERVED: bool>(
        &mut self,
        observers: &mut [(u64, Box<dyn Observer>)],
        batch_limit: u64,
    ) {
        let cycle = self.cycle + 1;
        let mut buf = std::mem::take(&mut self.buffers);

        if OBSERVED {
            for (_, o) in observers.iter_mut() {
                o.on_cycle_start(cycle, &self.cores);
            }
        }

        // Interrupt polling happens at instruction boundaries, before the
        // cycle's fetch phase, so a vectoring core fetches its handler in
        // this same cycle.
        for core in &mut self.cores {
            core.poll_interrupt();
        }

        if !OBSERVED && batch_limit >= cycle && self.batch(&mut buf, batch_limit) {
            self.buffers = buf;
            return;
        }

        // Snapshot the phase of every core: each core receives exactly one
        // cycle-consuming call below, based on where it *started* the
        // cycle (fetch completing this cycle executes next cycle). One
        // pass over the snapshot collects every request list and per-phase
        // work flag, so the phases below never rescan cores that have
        // nothing for them.
        buf.phases.clear();
        buf.phases.extend(self.cores.iter().map(|c| c.state()));
        buf.fetch_reqs.clear();
        buf.sync_reqs.clear();
        buf.dm_reqs.clear();
        let mut any_sync_issued = false;
        let mut any_sleeping = false;
        let mut any_held = false;
        // Cores whose execute phase is core-local (neither memory nor
        // sync) and completes at the end of the cycle; bit per core id.
        let mut local_done: u32 = 0;
        for (i, phase) in buf.phases.iter().enumerate() {
            if OBSERVED {
                for (_, o) in observers.iter_mut() {
                    o.on_core_phase(cycle, i, self.cores[i].pc(), *phase);
                }
            }
            match phase {
                CoreState::Fetch => {
                    if let Some(addr) = self.cores[i].fetch_request() {
                        buf.fetch_reqs.push(ImRequest { core: i, addr });
                    }
                }
                CoreState::Execute(_) => {
                    let c = &self.cores[i];
                    if let Some(r) = c.sync_request() {
                        buf.sync_reqs.push((i, r));
                    } else if let Some(r) = dm_request(i, c) {
                        buf.dm_reqs.push(r);
                    } else {
                        local_done |= 1 << i;
                    }
                }
                CoreState::SyncIssued(_) => any_sync_issued = true,
                CoreState::Sleeping => any_sleeping = true,
                CoreState::Held { .. } => any_held = true,
                CoreState::Halted => {}
            }
        }

        self.cycle = cycle;

        // ---- fetch phase ----------------------------------------------
        self.lockstep.on_fetch(cycle, &buf.fetch_reqs);
        if OBSERVED {
            for (_, o) in observers.iter_mut() {
                o.on_fetch(cycle, &buf.fetch_reqs);
            }
        }

        self.ixbar
            .arbitrate_into(&buf.fetch_reqs, &mut self.imem, &mut buf.im_grants);
        buf.fetched.fill(false);
        for g in &buf.im_grants {
            buf.fetched[g.core] = true;
            if let Err(error) = self.cores[g.core].on_fetch_granted(g.word) {
                self.fault.get_or_insert(PlatformError::CoreFault {
                    core: g.core,
                    error,
                });
            }
        }
        for r in &buf.fetch_reqs {
            if !buf.fetched[r.core] {
                self.cores[r.core].note_fetch_stall();
            }
        }

        // ---- execute phase: synchronization ISE ------------------------
        if let Some(sync) = &mut self.sync {
            sync.step_into(&buf.sync_reqs, &mut self.dmem, &mut buf.sync_events);
            let events = &buf.sync_events;
            for &(core, _) in &buf.sync_reqs {
                if events.accepted.contains(&core) {
                    self.cores[core].on_sync_accepted();
                } else {
                    self.cores[core].note_sync_stall();
                }
            }
            // Cores inside the in-flight RMW spend this cycle there.
            if any_sync_issued {
                for (i, phase) in buf.phases.iter().enumerate() {
                    if matches!(phase, CoreState::SyncIssued(_)) {
                        self.cores[i].note_sync_active();
                    }
                }
            }
            // Sleeping cores burn their cycle before any wake edge.
            if any_sleeping {
                for (i, phase) in buf.phases.iter().enumerate() {
                    if matches!(phase, CoreState::Sleeping) {
                        self.cores[i].note_sleep();
                    }
                }
            }
            for &(core, sleep) in &events.completed {
                self.cores[core].complete_sync(sleep);
            }
            for &core in &events.wake {
                if core < self.cores.len() {
                    self.cores[core].wake(WakeReason::Synchronizer);
                }
            }
        } else {
            // Baseline design: the ISA has no synchronization ISE, the
            // instructions degenerate to NOPs.
            for &(core, _) in &buf.sync_reqs {
                self.cores[core].skip_sync_op();
            }
            if any_sleeping {
                for (i, phase) in buf.phases.iter().enumerate() {
                    if matches!(phase, CoreState::Sleeping) {
                        self.cores[i].note_sleep();
                    }
                }
            }
        }

        // ---- execute phase: data memory --------------------------------
        // Held cores burn their cycle before any release edge.
        if any_held {
            for (i, phase) in buf.phases.iter().enumerate() {
                if matches!(phase, CoreState::Held { .. }) {
                    self.cores[i].note_hold();
                }
            }
        }

        self.serve_data(&mut buf);
        if OBSERVED {
            for (_, o) in observers.iter_mut() {
                o.on_dm(cycle, &buf.dm_reqs, &buf.granted);
            }
        }

        // ---- execute phase: everything else -----------------------------
        while local_done != 0 {
            let i = local_done.trailing_zeros() as usize;
            local_done &= local_done - 1;
            self.cores[i].complete_execute(None);
        }

        if OBSERVED {
            for (_, o) in observers.iter_mut() {
                o.on_cycle_end(cycle, &self.cores);
            }
        }
        self.buffers = buf;
    }

    /// The D-Xbar half of an execute cycle, shared by the interpreter and
    /// the lockstep batch: arbitrates `buf.dm_reqs`, completes or holds
    /// every served core (marking it in `buf.granted`), stalls the rest,
    /// and releases the held cores whose synchronous group drained.
    fn serve_data(&mut self, buf: &mut CycleBuffers) {
        self.dxbar
            .arbitrate_into(&buf.dm_reqs, &mut self.dmem, &mut buf.dm_outcome);
        buf.granted.fill(false);
        for g in &buf.dm_outcome.grants {
            match *g {
                DmGrant::Complete { core, data } => {
                    buf.granted[core] = true;
                    self.cores[core].complete_execute(data);
                }
                DmGrant::Hold { core, data } => {
                    buf.granted[core] = true;
                    self.cores[core].hold_with_data(data);
                }
            }
        }
        for r in &buf.dm_reqs {
            if !buf.granted[r.core] {
                self.cores[r.core].note_mem_stall();
            }
        }
        for &core in &buf.dm_outcome.releases {
            self.cores[core].release();
        }
    }

    /// Runs until every core halts, notifying attached observers every
    /// cycle and once more (via [`Observer::on_run_end`]) when the run
    /// ends. Equivalent to `run_until(u64::MAX)`.
    ///
    /// With no observer attached, the run takes the batched fast path. A
    /// batch starts after a cycle's interrupt poll when the synchronizer
    /// is idle, no core is held by the D-Xbar or inside a synchronizer
    /// operation, every executing core holds a batchable op (any op but
    /// `SINC`, `SDEC`, `SLEEP`, `HALT`, `EI`, `WRSR` and `IRET`), no core
    /// has an interrupt both pending and enabled, and some core is awake.
    /// It runs the cycles ahead over the groups of cores that share a PC,
    /// one I-Xbar grant per bank per cycle, with each sleeping core
    /// charged its cycle. It ends after a cycle in which a core was held,
    /// at the cycle budget or slice limit, and before a cycle in which a
    /// fetching group's op is not batchable or does not decode. A batch is
    /// bit-identical to stepping the same cycles. Observed runs interpret
    /// every cycle.
    ///
    /// # Errors
    ///
    /// * [`PlatformError::CoreFault`] — a core fetched an illegal word;
    /// * [`PlatformError::Deadlock`] — every active core is asleep with the
    ///   synchronizer idle (e.g. an unbalanced check-out);
    /// * [`PlatformError::Timeout`] — the configured cycle budget ran out.
    pub fn run(&mut self) -> Result<RunSummary, PlatformError> {
        match self.run_until(u64::MAX)? {
            RunProgress::Done(summary) => Ok(summary),
            RunProgress::Paused => unreachable!("unbounded run cannot pause"),
        }
    }

    /// Runs until every core halts **or** the simulated cycle count
    /// reaches `limit`, whichever comes first. Attached observers are
    /// notified throughout; [`Observer::on_run_end`] fires only when the
    /// run truly completes (not on a pause).
    ///
    /// A paused platform can be resumed with another `run_until` (or
    /// `run`) and/or checkpointed via [`Platform::snapshot`]; slicing a
    /// run this way is **bit-identical** to running it in one piece —
    /// same architectural state, same [`SimStats`] — and to a
    /// [`Platform::step`] loop over the same cycles.
    ///
    /// # Errors
    ///
    /// See [`Platform::run`]. The configured cycle budget takes
    /// precedence: a platform at its budget reports
    /// [`PlatformError::Timeout`], never `Paused`.
    pub fn run_until(&mut self, limit: u64) -> Result<RunProgress, PlatformError> {
        let mut attached = std::mem::take(&mut self.attached);
        let outcome = self.run_loop(limit, &mut attached);
        self.attached = attached;
        outcome
    }

    fn run_loop(
        &mut self,
        limit: u64,
        observers: &mut [(u64, Box<dyn Observer>)],
    ) -> Result<RunProgress, PlatformError> {
        let outcome = loop {
            if self.cycle >= self.cfg.max_cycles {
                break Err(PlatformError::Timeout {
                    budget: self.cfg.max_cycles,
                });
            }
            if self.cycle >= limit {
                // A pause is not a run end: no on_run_end, the run simply
                // has not finished yet.
                return Ok(RunProgress::Paused);
            }
            if observers.is_empty() {
                // A lockstep batch stops where the interpreter would: at
                // the budget or at the slice limit.
                self.step_cycle::<false>(&mut [], limit.min(self.cfg.max_cycles));
            } else {
                self.step_cycle::<true>(observers, 0);
            }
            if let Some(fault) = self.fault {
                break Err(fault);
            }
            if self.all_halted() {
                break Ok(RunSummary { cycles: self.cycle });
            }
            if self.is_deadlocked() {
                break Err(PlatformError::Deadlock { cycle: self.cycle });
            }
        };
        if !observers.is_empty() {
            let stats = self.stats();
            for (_, o) in observers.iter_mut() {
                o.on_run_end(&outcome, &stats);
            }
        }
        outcome.map(RunProgress::Done)
    }

    /// The batch, the unobserved run's fast path. Called at the start of
    /// a cycle that has not been counted yet, right after its interrupt
    /// poll, it runs cycles as the interpreter would, never past `limit`,
    /// while they can only fetch, execute batchable ops and sleep.
    /// Returns whether it ran any cycle; if not, the caller interprets
    /// the cycle.
    ///
    /// It starts only when the synchronizer is idle, no core is `Held` or
    /// `SyncIssued`, no executing core holds a sync op or any other op
    /// that is not batchable (see [`batchable`]), no core has an
    /// interrupt both pending and enabled, and at least one core is
    /// awake. Each cycle then:
    ///
    /// * groups the fetching cores by PC and takes each group's op from
    ///   the decoded-op table, so a granted group decodes nothing;
    /// * grants whole groups through one I-Xbar call
    ///   ([`IXbar::serve_groups`]) and stalls the rest, and records the
    ///   largest group's width as the lockstep width;
    /// * executes the cores that started the cycle in `Execute`: memory
    ///   ops through the interpreter's own data phase
    ///   ([`Platform::serve_data`]), so conflicts, stalls, holds and
    ///   broadcasts are the interpreter's, and every other op
    ///   core-locally;
    /// * charges each sleeping core its cycle.
    ///
    /// The fetch and execute bitmasks carry over to the next cycle. When
    /// one group holds every awake core and none executes, the batch runs
    /// whole fetch/execute pairs instead ([`Platform::batch_uniform`], the
    /// k = 1 case) until a branch or a stall splits the group. The
    /// synchronizer's interpreted phase is a no-op in these cycles: it is
    /// idle and nothing requests it. Nothing inside a batch can wake a
    /// sleeper, put a core to sleep, halt it, fault it or enable an
    /// interrupt, so one poll at the start covers every batched cycle.
    ///
    /// The batch ends after a cycle that held a core (the interpreter
    /// serves held groups), at `limit`, and before any cycle in which a
    /// fetch group's op is not batchable or not in the table, so an
    /// illegal word faults on the interpreter's cycle. An odd limit can
    /// end it between an op's fetch and its execute cycle.
    #[inline(never)]
    fn batch(&mut self, buf: &mut CycleBuffers, limit: u64) -> bool {
        if self.sync.as_ref().is_some_and(Synchronizer::is_busy) {
            return false;
        }
        // Bit per core id: fetching, executing, executing a memory op,
        // and asleep.
        let (mut fetch, mut exec, mut exec_mem, mut asleep) = (0u32, 0u32, 0u32, 0u32);
        for (i, core) in self.cores.iter().enumerate() {
            let bit = 1 << i;
            match core.state() {
                CoreState::Fetch => fetch |= bit,
                CoreState::Execute(instr) if is_batchable(instr) => {
                    exec |= bit;
                    if instr.op_class() == OpClass::Mem {
                        exec_mem |= bit;
                    }
                }
                CoreState::Sleeping => asleep |= bit,
                CoreState::Halted => continue,
                CoreState::Execute(_) | CoreState::Held { .. } | CoreState::SyncIssued(_) => {
                    return false
                }
            }
            if core.interrupt_ready() {
                return false;
            }
        }
        if fetch | exec == 0 {
            return false;
        }
        let start = self.cycle;
        let mut groups = [FetchGroup {
            addr: 0,
            members: 0,
        }; 16];
        let mut ops = [Instr::Nop; 16];
        loop {
            let mut k = 0;
            let mut pending = fetch;
            while pending != 0 {
                let i = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let pc = self.cores[i].pc();
                if let Some(g) = groups[..k].iter_mut().find(|g| g.addr == pc) {
                    g.members |= 1 << i;
                    continue;
                }
                let Some(op) = self.decoded.get(usize::from(pc)).copied().flatten() else {
                    return self.cycle > start;
                };
                groups[k] = FetchGroup {
                    addr: pc,
                    members: 1 << i,
                };
                ops[k] = op;
                k += 1;
            }
            if k == 1 && exec == 0 {
                match self.batch_uniform(buf, groups[0], ops[0], asleep, limit) {
                    Some((f, e)) => {
                        (fetch, exec, exec_mem) = (f, e, e);
                        continue;
                    }
                    None => return true,
                }
            }
            self.cycle += 1;

            // Fetch: whole groups granted or stalled.
            let (mut fetched, mut fetched_mem) = (0u32, 0u32);
            if k > 0 {
                let width = groups[..k].iter().map(|g| g.members.count_ones());
                self.lockstep
                    .note_width(u64::from(width.max().unwrap_or(0)));
                let mut served = self.ixbar.serve_groups(&groups[..k], &mut self.imem);
                while served != 0 {
                    let g = served.trailing_zeros() as usize;
                    served &= served - 1;
                    let (members, op) = (groups[g].members, ops[g]);
                    fetched |= members;
                    if op.op_class() == OpClass::Mem {
                        fetched_mem |= members;
                    }
                    for_each_bit(members, |i| self.cores[i].on_fetch_granted_decoded(op));
                }
                for_each_bit(fetch & !fetched, |i| self.cores[i].note_fetch_stall());
            }

            // Execute: core-local ops complete, memory ops go through the
            // D-Xbar.
            for_each_bit(exec & !exec_mem, |i| self.cores[i].complete_execute(None));
            let (mut mem_stalled, mut held) = (0u32, false);
            if exec_mem != 0 {
                buf.dm_reqs.clear();
                for_each_bit(exec_mem, |i| {
                    buf.dm_reqs.extend(dm_request(i, &self.cores[i]))
                });
                self.serve_data(buf);
                mem_stalled = exec_mem;
                for g in &buf.dm_outcome.grants {
                    match *g {
                        DmGrant::Complete { core, .. } => mem_stalled &= !(1 << core),
                        DmGrant::Hold { .. } => held = true,
                    }
                }
            }
            for_each_bit(asleep, |i| self.cores[i].note_sleep());

            if held || self.cycle == limit {
                return true;
            }
            fetch = (fetch & !fetched) | (exec & !mem_stalled);
            exec = fetched | mem_stalled;
            exec_mem = fetched_mem | mem_stalled;
        }
    }

    /// The batch's uniform case: every awake core fetches the op at one
    /// PC and none executes. Runs fetch/execute pairs, each op's width
    /// and grant known up front, while the group stays together. Returns
    /// `None` where the batch ends, or the fetch and (memory) execute
    /// masks once a memory stall or a branch splits the group.
    fn batch_uniform(
        &mut self,
        buf: &mut CycleBuffers,
        mut group: FetchGroup,
        mut op: Instr,
        asleep: u32,
        limit: u64,
    ) -> Option<(u32, u32)> {
        let members = group.members;
        let width = u64::from(members.count_ones());
        loop {
            self.cycle += 1;
            self.lockstep.note_width(width);
            self.ixbar
                .serve_groups(std::slice::from_ref(&group), &mut self.imem);
            for_each_bit(members, |i| self.cores[i].on_fetch_granted_decoded(op));
            for_each_bit(asleep, |i| self.cores[i].note_sleep());
            if self.cycle == limit {
                return None;
            }
            self.cycle += 1;
            let class = op.op_class();
            let (mut completed, mut held) = (members, false);
            if class == OpClass::Mem {
                buf.dm_reqs.clear();
                for_each_bit(members, |i| {
                    buf.dm_reqs.extend(dm_request(i, &self.cores[i]))
                });
                self.serve_data(buf);
                completed = 0;
                for g in &buf.dm_outcome.grants {
                    match *g {
                        DmGrant::Complete { core, .. } => completed |= 1 << core,
                        DmGrant::Hold { .. } => held = true,
                    }
                }
            } else {
                for_each_bit(members, |i| self.cores[i].complete_execute(None));
            }
            for_each_bit(asleep, |i| self.cores[i].note_sleep());
            if held || self.cycle == limit {
                return None;
            }
            if completed != members {
                return Some((completed, members & !completed));
            }
            let pc = if class == OpClass::Control {
                let pc = self.cores[members.trailing_zeros() as usize].pc();
                let mut split = false;
                for_each_bit(members, |i| split |= self.cores[i].pc() != pc);
                if split {
                    return Some((members, 0));
                }
                pc
            } else {
                group.addr.wrapping_add(1)
            };
            group.addr = pc;
            op = self.decoded.get(usize::from(pc)).copied().flatten()?;
        }
    }

    /// A deadlock: no core can make progress again — every non-halted core
    /// is asleep, nothing is in flight in the synchronizer, and no
    /// interrupt is pending.
    fn is_deadlocked(&self) -> bool {
        let busy_sync = self.sync.as_ref().map(|s| s.is_busy()).unwrap_or(false);
        !busy_sync
            && self.cores.iter().all(|c| c.is_halted() || c.is_sleeping())
            && self.cores.iter().any(|c| c.is_sleeping())
    }

    /// Collects the aggregated statistics of the run so far. The memory,
    /// crossbar and synchronizer counters are plain `Copy` bundles, so
    /// this clones no heap state beyond the per-core counter list.
    pub fn stats(&self) -> SimStats {
        let cores: Vec<_> = self.cores.iter().map(|c| *c.stats()).collect();
        let mut core_total = ulp_cpu::CoreStats::default();
        for c in &cores {
            core_total.merge(c);
        }
        SimStats {
            cycles: self.cycle,
            num_cores: self.cores.len(),
            cores,
            core_total,
            im: *self.imem.stats(),
            dm: *self.dmem.stats(),
            ixbar: *self.ixbar.stats(),
            dxbar: *self.dxbar.stats(),
            sync: self.sync.as_ref().map(|s| *s.stats()),
            lockstep_width_sum: self.lockstep.sum(),
            lockstep_width_cycles: self.lockstep.cycles(),
        }
    }

    // ---- checkpointing ---------------------------------------------------

    /// Captures the complete state of the platform between cycles: cores,
    /// both memories, crossbar arbiters, the synchronizer, the lockstep
    /// and power-relevant counters, and the state of every attached
    /// observer that implements [`Observer::save_state`]. Resuming from
    /// the checkpoint (on this platform or a fresh one) is bit-identical
    /// to never pausing.
    pub fn snapshot(&self) -> Checkpoint {
        let mut ckpt = Checkpoint::default();
        self.snapshot_into(&mut ckpt);
        ckpt
    }

    /// [`Platform::snapshot`] into an existing checkpoint, overwriting all
    /// of it and reusing its memory images' allocations, so a caller that
    /// snapshots repeatedly does not allocate and free them every time.
    pub fn snapshot_into(&self, ckpt: &mut Checkpoint) {
        ckpt.config.clone_from(&self.cfg);
        ckpt.cycle = self.cycle;
        ckpt.fault = self.fault;
        ckpt.cores.clear();
        ckpt.cores.extend(self.cores.iter().map(Core::save));
        self.imem.save_into(&mut ckpt.imem);
        self.dmem.save_into(&mut ckpt.dmem);
        ckpt.ixbar = self.ixbar.save();
        ckpt.dxbar = self.dxbar.save();
        ckpt.sync = self.sync.as_ref().map(Synchronizer::save);
        ckpt.lockstep_sum = self.lockstep.sum();
        ckpt.lockstep_cycles = self.lockstep.cycles();
        ckpt.observers.clear();
        ckpt.observers.extend(
            self.attached
                .iter()
                .filter_map(|(_, o)| o.save_state().map(|state| (o.label().to_string(), state))),
        );
    }

    /// Builds a fresh platform in the checkpointed state. The platform
    /// has no attached observers — observer entries in the checkpoint are
    /// ignored here; to restore instrumented runs, build the platform,
    /// [`Platform::attach`] the observers, then [`Platform::restore_from`].
    ///
    /// # Errors
    ///
    /// See [`Platform::restore_from`].
    pub fn restore(ckpt: &Checkpoint) -> Result<Platform, RestoreError> {
        let mut platform = Platform::new(ckpt.config.clone())
            .map_err(|_| RestoreError::Corrupt { what: "config" })?;
        platform.restore_from(ckpt)?;
        Ok(platform)
    }

    /// Re-applies a checkpoint onto this platform in place, reusing every
    /// allocation — the migration path for cached platforms: a worker
    /// takes a platform keyed on the same design and adopts a partially
    /// run job's state. The checkpoint's full configuration (cycle
    /// budget included) is adopted; only the *structural* shape (cores,
    /// memory geometry, synchronizer, serving policy) must already match.
    ///
    /// Checkpointed observer state is matched against attached observers
    /// by [`Observer::label`] in attach order; entries with no attached
    /// match are ignored, so attach the observers *before* restoring.
    ///
    /// # Errors
    ///
    /// * [`RestoreError::ConfigMismatch`] — structurally different target;
    /// * [`RestoreError::Corrupt`] — internally inconsistent checkpoint;
    /// * [`RestoreError::ObserverMismatch`] — an attached observer
    ///   rejected its checkpointed state.
    ///
    /// On error the platform state is unspecified; [`Platform::reset`] it
    /// (or rebuild) before further use.
    pub fn restore_from(&mut self, ckpt: &Checkpoint) -> Result<(), RestoreError> {
        if ckpt.config.validate().is_err() {
            return Err(RestoreError::Corrupt { what: "config" });
        }
        let (a, b) = (&self.cfg, &ckpt.config);
        if a.num_cores != b.num_cores
            || a.synchronizer != b.synchronizer
            || a.dxbar_policy != b.dxbar_policy
            || a.im_mapping != b.im_mapping
            || a.dm_mapping != b.dm_mapping
            || a.im_words != b.im_words
            || a.im_banks != b.im_banks
            || a.dm_words != b.dm_words
            || a.dm_banks != b.dm_banks
        {
            return Err(RestoreError::ConfigMismatch);
        }
        if ckpt.cores.len() != self.cores.len() {
            return Err(RestoreError::Corrupt { what: "core count" });
        }
        if ckpt.sync.is_some() != self.sync.is_some() {
            return Err(RestoreError::Corrupt {
                what: "sync presence",
            });
        }
        self.cfg = ckpt.config.clone();
        for (core, snap) in self.cores.iter_mut().zip(&ckpt.cores) {
            if !core.load_snapshot(snap) {
                return Err(RestoreError::Corrupt { what: "core state" });
            }
        }
        if !self.imem.load_snapshot(&ckpt.imem) {
            return Err(RestoreError::Corrupt {
                what: "instruction memory",
            });
        }
        // The table spans the words up to the last non-zero one; the
        // zero words past it are left to the interpreter, like any word
        // outside the table.
        let words = &ckpt.imem.words;
        let end = words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |last| last + 1);
        self.decoded.clear();
        self.decoded
            .extend(words[..end].iter().map(|&word| batchable(word)));
        if !self.dmem.load_snapshot(&ckpt.dmem) {
            return Err(RestoreError::Corrupt {
                what: "data memory",
            });
        }
        if !self.ixbar.load_snapshot(&ckpt.ixbar) {
            return Err(RestoreError::Corrupt {
                what: "ixbar state",
            });
        }
        if !self.dxbar.load_snapshot(&ckpt.dxbar) {
            return Err(RestoreError::Corrupt {
                what: "dxbar state",
            });
        }
        if let (Some(sync), Some(snap)) = (&mut self.sync, &ckpt.sync) {
            sync.load_snapshot(snap);
        }
        self.cycle = ckpt.cycle;
        self.fault = ckpt.fault;
        self.lockstep
            .restore(ckpt.lockstep_sum, ckpt.lockstep_cycles);
        let mut used = vec![false; self.attached.len()];
        for (label, state) in &ckpt.observers {
            let target = self
                .attached
                .iter_mut()
                .zip(used.iter_mut())
                .find(|((_, o), used)| !**used && o.label() == label);
            // Entries with no attached observer under this label are
            // ignored: the caller chose not to re-attach that instrument.
            if let Some(((_, observer), used_slot)) = target {
                *used_slot = true;
                if !observer.load_state(state) {
                    return Err(RestoreError::ObserverMismatch {
                        label: label.clone(),
                    });
                }
            }
        }
        Ok(())
    }
}

/// The D-Xbar request of core `i`, if it is in its execute phase with a
/// data-memory op.
fn dm_request(i: usize, core: &Core) -> Option<DmRequest> {
    let r = core.mem_request()?;
    Some(DmRequest {
        core: i,
        pc: core.pc(),
        addr: r.addr,
        access: match r.access {
            MemAccess::Read => Access::Read,
            MemAccess::Write(v) => Access::Write(v),
        },
    })
}

/// The decoded op if `word` may run inside a batch (see [`is_batchable`]).
fn batchable(word: u16) -> Option<Instr> {
    decode(word).ok().filter(|&instr| is_batchable(instr))
}

/// Whether `instr` may run inside a batch: any op the cores can execute
/// without the synchronizer ([`OpClass::Boundary`] is left out) that
/// cannot enable interrupts. A run polls interrupts once per cycle, but a
/// batch only once, at its start; after that poll no awake core has an
/// interrupt both pending and enabled, and with `EI`, `WRSR` and `IRET`
/// left to the interpreter none becomes enabled inside the batch either.
fn is_batchable(instr: Instr) -> bool {
    let enables_irq = matches!(
        instr,
        Instr::Csr {
            op: CsrOp::Ei | CsrOp::WrSr | CsrOp::Iret,
            ..
        }
    );
    instr.op_class() != OpClass::Boundary && !enables_irq
}

/// Calls `f` with the index of every set bit of `mask`, lowest first.
#[inline]
fn for_each_bit(mut mask: u32, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

#[cfg(test)]
mod tests;
