//! The per-core micro-architectural state machine.

use crate::exec::{alu_exec, shift_exec, unary_exec};
use crate::stats::CoreStats;
use crate::types::{CoreError, MemAccess, MemRequest, SyncKind, SyncRequest, WakeReason};
use ulp_isa::{arch, decode, encode, AluOp, CsrOp, Flags, Instr, Reg};

/// Why the core is asleep — determines which wake events are honoured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SleepOrigin {
    /// `SLEEP` instruction: woken by the synchronizer *or* an enabled
    /// interrupt.
    Instruction,
    /// `SDEC` check-out: woken only by the hardware synchronizer.
    Sync,
}

/// The externally visible execution state of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Requesting an instruction fetch for the current PC.
    Fetch,
    /// Holding a fetched instruction; issuing its data/sync request or
    /// completing it this cycle.
    Execute(Instr),
    /// Served by the D-Xbar but held by the enhanced serving policy until
    /// the whole PC-synchronous group has been served (Section IV of the
    /// paper). The read data is latched.
    Held {
        /// The in-flight instruction.
        instr: Instr,
        /// Latched read data for loads.
        data: Option<u16>,
    },
    /// A `SINC`/`SDEC` request was accepted; the synchronizer is performing
    /// its two-cycle read-modify-write.
    SyncIssued(Instr),
    /// Asleep: externally clock-gated until a wake-up event.
    Sleeping,
    /// Halted (by `HALT` or a fatal error); never leaves this state.
    Halted,
}

/// [`CoreState`] with in-flight instructions replaced by their encoded
/// words, so a core's execution state can be checkpointed without this
/// crate owning a byte format. Decoding the word back reproduces the
/// original [`Instr`] exactly — the ISA's encode/decode round-trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStateSnapshot {
    /// Requesting an instruction fetch.
    Fetch,
    /// Executing the instruction encoded by the word.
    Execute(u16),
    /// Served but held by the enhanced serving policy, data latched.
    Held {
        /// Encoded in-flight instruction.
        word: u16,
        /// Latched read data for loads.
        data: Option<u16>,
    },
    /// A sync operation's two-cycle RMW is in flight.
    SyncIssued(u16),
    /// Asleep.
    Sleeping,
    /// Halted.
    Halted,
}

/// The complete mutable state of one [`Core`], exported by [`Core::save`]
/// and re-applied by [`Core::load_snapshot`]. Plain data with public
/// fields; the platform's checkpoint layer owns the byte-level encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreSnapshot {
    /// Hardware core id.
    pub id: u8,
    /// General-purpose register file.
    pub regs: [u16; arch::NUM_REGS],
    /// Program counter.
    pub pc: u16,
    /// Status flags, packed via [`Flags::to_bits`].
    pub flags: u16,
    /// Interrupt-enable bit.
    pub ie: bool,
    /// `RSYNC` sync-array base register.
    pub rsync: u16,
    /// Saved PC of the interrupted context.
    pub epc: u16,
    /// Saved flags of the interrupted context, packed.
    pub eflags: u16,
    /// A raised but not yet accepted interrupt.
    pub irq_pending: bool,
    /// Whether a sleeping core sleeps from `SDEC` (`true`) or `SLEEP`
    /// (`false`) — determines which wake events are honoured.
    pub sleep_from_sync: bool,
    /// Execution state with in-flight instructions encoded.
    pub state: CoreStateSnapshot,
    /// Cycles observed so far (drives `RDCYC`): always
    /// [`CoreStats::total_cycles`] of `stats`.
    pub cycles: u64,
    /// Accumulated activity counters.
    pub stats: CoreStats,
    /// The fatal error that halted the core, if any.
    pub error: Option<CoreError>,
}

/// One 16-bit RISC processing core.
///
/// The core is driven by the platform: each cycle the platform inspects the
/// core's state, performs arbitration, and invokes exactly one of the
/// per-cycle methods (`on_fetch_granted`, `note_fetch_stalls`,
/// `complete_execute`, `note_mem_stall`, `hold_with_data`, `note_hold`,
/// `on_sync_accepted`, `note_sync_active`, `note_sync_stall`, `note_sleep`),
/// plus edge events (`complete_sync`, `release`, `wake`) that do not consume
/// a cycle. `note_fetch_stalls` may also charge a run of stalled cycles in
/// one call.
///
/// A lockstep group is driven as one instead: [`Core::execute_group`]
/// applies each op to every member's own registers, flags and PC and
/// counts nothing, and [`Core::charge_group`] adds the counts the members
/// share (fetches, active and sleep cycles, retired and useful ops) in one
/// call when the run ends, or before an op that reads them.
///
/// A core's cycle count ([`Core::cycles`], read by `RDCYC`) is the sum of
/// its cycle counters ([`CoreStats::total_cycles`]).
///
/// See [`crate::SimpleHost`] for a minimal single-core driver.
#[derive(Debug, Clone)]
pub struct Core {
    id: u8,
    regs: [u16; arch::NUM_REGS],
    pc: u16,
    flags: Flags,
    ie: bool,
    rsync: u16,
    epc: u16,
    eflags: Flags,
    irq_pending: bool,
    sleep_origin: SleepOrigin,
    state: CoreState,
    stats: CoreStats,
    error: Option<CoreError>,
}

impl Core {
    /// Creates a core in its reset state: `PC` at the reset vector, all
    /// registers zero, interrupts disabled.
    pub fn new(id: u8) -> Core {
        Core {
            id,
            regs: [0; arch::NUM_REGS],
            pc: arch::RESET_VECTOR,
            flags: Flags::default(),
            ie: false,
            rsync: 0,
            epc: 0,
            eflags: Flags::default(),
            irq_pending: false,
            sleep_origin: SleepOrigin::Instruction,
            state: CoreState::Fetch,
            stats: CoreStats::default(),
            error: None,
        }
    }

    /// The core's hardware identity (0-based), as read by `RDID`.
    pub fn id(&self) -> u8 {
        self.id
    }

    /// Current program counter (word address).
    pub fn pc(&self) -> u16 {
        self.pc
    }

    /// Overrides the program counter (loader/test hook).
    pub fn set_pc(&mut self, pc: u16) {
        self.pc = pc;
    }

    /// Reads a general-purpose register.
    pub fn reg(&self, r: Reg) -> u16 {
        self.regs[r.index()]
    }

    /// Writes a general-purpose register (loader/test hook).
    pub fn set_reg(&mut self, r: Reg, value: u16) {
        self.regs[r.index()] = value;
    }

    /// Current status flags.
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// The `RSYNC` sync-array base address register.
    pub fn rsync(&self) -> u16 {
        self.rsync
    }

    /// Current execution state.
    pub fn state(&self) -> CoreState {
        self.state
    }

    /// Whether the core has halted (normally or due to an error).
    pub fn is_halted(&self) -> bool {
        matches!(self.state, CoreState::Halted)
    }

    /// Whether the core is asleep.
    pub fn is_sleeping(&self) -> bool {
        matches!(self.state, CoreState::Sleeping)
    }

    /// The fatal error that halted the core, if any.
    pub fn error(&self) -> Option<CoreError> {
        self.error
    }

    /// Accumulated activity counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Total cycles observed by this core (drives `RDCYC`): the sum of
    /// its cycle counters.
    pub fn cycles(&self) -> u64 {
        self.stats.total_cycles()
    }

    /// Asserts the core's external interrupt line.
    pub fn raise_irq(&mut self) {
        self.irq_pending = true;
    }

    /// Whether an interrupt is both pending and enabled: the next poll at
    /// an instruction boundary ([`Core::poll_interrupt`]) accepts it.
    pub fn interrupt_ready(&self) -> bool {
        self.irq_pending && self.ie
    }

    /// Polls for a pending interrupt at an instruction boundary.
    ///
    /// Called by the platform at the start of a cycle for cores in
    /// [`CoreState::Fetch`] or woken from an instruction sleep. Returns
    /// `true` if the interrupt was accepted (the PC now points at the
    /// interrupt vector).
    pub fn poll_interrupt(&mut self) -> bool {
        let at_boundary = matches!(self.state, CoreState::Fetch)
            || (matches!(self.state, CoreState::Sleeping)
                && self.sleep_origin == SleepOrigin::Instruction);
        if !(self.irq_pending && self.ie && at_boundary) {
            return false;
        }
        if matches!(self.state, CoreState::Sleeping) {
            self.state = CoreState::Fetch;
        }
        self.irq_pending = false;
        self.ie = false;
        self.epc = self.pc;
        self.eflags = self.flags;
        self.pc = arch::IRQ_VECTOR;
        self.stats.interrupts += 1;
        true
    }

    // ---- fetch phase -----------------------------------------------------

    /// The instruction-memory address this core wants to fetch, if it is in
    /// the fetch phase.
    pub fn fetch_request(&self) -> Option<u16> {
        match self.state {
            CoreState::Fetch => Some(self.pc),
            _ => None,
        }
    }

    /// Delivers the fetched instruction word (consumes the fetch cycle).
    ///
    /// # Errors
    ///
    /// If the word does not decode, the core halts with
    /// [`CoreError::IllegalInstruction`] and the error is returned.
    pub fn on_fetch_granted(&mut self, word: u16) -> Result<(), CoreError> {
        debug_assert!(matches!(self.state, CoreState::Fetch), "not fetching");
        self.stats.active_cycles += 1;
        self.stats.fetches += 1;
        match decode(word) {
            Ok(instr) => {
                self.state = CoreState::Execute(instr);
                Ok(())
            }
            Err(_) => {
                let err = CoreError::IllegalInstruction { pc: self.pc, word };
                self.error = Some(err);
                self.state = CoreState::Halted;
                Err(err)
            }
        }
    }

    /// Delivers an already-decoded instruction for the granted fetch
    /// (consumes the fetch cycle, exactly like [`Core::on_fetch_granted`]
    /// minus the decode).
    ///
    /// Used by the platform's batched fast path, which decodes each loaded
    /// word once: the caller guarantees `instr` is the decoding of the
    /// word at the fetch address, so this path cannot fault.
    pub fn on_fetch_granted_decoded(&mut self, instr: Instr) {
        debug_assert!(matches!(self.state, CoreState::Fetch), "not fetching");
        self.stats.active_cycles += 1;
        self.stats.fetches += 1;
        self.state = CoreState::Execute(instr);
    }

    /// Records `cycles` cycles spent waiting for a fetch grant
    /// (clock-gated). The platform's batch charges a run of stalled
    /// cycles in one call: a stalled core executes nothing, so no
    /// instruction (`RDCYC` included) can tell when its count was added.
    pub fn note_fetch_stalls(&mut self, cycles: u64) {
        debug_assert!(matches!(self.state, CoreState::Fetch));
        self.stats.fetch_stall_cycles += cycles;
    }

    // ---- execute phase ---------------------------------------------------

    /// The data-memory request of the current instruction, if any.
    ///
    /// `SINC`/`SDEC` report a [`SyncRequest`] via [`Core::sync_request`]
    /// instead — their memory traffic goes through the synchronizer.
    pub fn mem_request(&self) -> Option<MemRequest> {
        let CoreState::Execute(instr) = self.state else {
            return None;
        };
        let req = match instr {
            Instr::Ld { base, offset, .. } => MemRequest {
                addr: self.regs[base.index()].wrapping_add(offset as i16 as u16),
                access: MemAccess::Read,
            },
            Instr::St { rs, base, offset } => MemRequest {
                addr: self.regs[base.index()].wrapping_add(offset as i16 as u16),
                access: MemAccess::Write(self.regs[rs.index()]),
            },
            Instr::LdP { base, .. } => MemRequest {
                addr: self.regs[base.index()],
                access: MemAccess::Read,
            },
            Instr::StP { rs, base } => MemRequest {
                addr: self.regs[base.index()],
                access: MemAccess::Write(self.regs[rs.index()]),
            },
            _ => return None,
        };
        Some(req)
    }

    /// The synchronization request of the current instruction, if it is
    /// part of the synchronization ISE.
    pub fn sync_request(&self) -> Option<SyncRequest> {
        let CoreState::Execute(instr) = self.state else {
            return None;
        };
        match instr {
            Instr::Sinc { index } => Some(SyncRequest {
                index,
                word_addr: self.rsync.wrapping_add(index as u16),
                kind: SyncKind::CheckIn,
            }),
            Instr::Sdec { index } => Some(SyncRequest {
                index,
                word_addr: self.rsync.wrapping_add(index as u16),
                kind: SyncKind::CheckOut,
            }),
            _ => None,
        }
    }

    /// Completes the execute phase of the current instruction, consuming
    /// one cycle. For loads, `read` carries the granted data.
    ///
    /// # Panics
    ///
    /// Panics if the core is not in [`CoreState::Execute`], or if the
    /// instruction is `SINC`/`SDEC` (those complete via
    /// [`Core::complete_sync`]).
    pub fn complete_execute(&mut self, read: Option<u16>) {
        let CoreState::Execute(instr) = self.state else {
            panic!("complete_execute outside execute phase");
        };
        assert!(
            !instr.is_sync(),
            "sync instructions complete via complete_sync"
        );
        self.execute(instr, read);
    }

    /// The execute cycle of `instr`, which the core holds in
    /// [`CoreState::Execute`].
    #[inline(always)]
    fn execute(&mut self, instr: Instr, read: Option<u16>) {
        self.stats.active_cycles += 1;
        self.retire(instr, read);
    }

    /// Counts `instr` retired and applies it.
    #[inline(always)]
    fn retire(&mut self, instr: Instr, read: Option<u16>) {
        self.stats.retired += 1;
        if instr.is_useful_op() {
            self.stats.useful_ops += 1;
        }
        self.apply(instr, read);
    }

    /// Records a cycle spent waiting for a data-memory grant (clock-gated).
    pub fn note_mem_stall(&mut self) {
        debug_assert!(matches!(self.state, CoreState::Execute(_)));
        self.stats.mem_stall_cycles += 1;
    }

    /// The D-Xbar served this core but the enhanced serving policy holds it
    /// until its PC-synchronous group is fully served; read data is latched.
    pub fn hold_with_data(&mut self, data: Option<u16>) {
        let CoreState::Execute(instr) = self.state else {
            panic!("hold_with_data outside execute phase");
        };
        self.stats.active_cycles += 1;
        self.state = CoreState::Held { instr, data };
    }

    /// Records a cycle spent held by the enhanced serving policy.
    pub fn note_hold(&mut self) {
        debug_assert!(matches!(self.state, CoreState::Held { .. }));
        self.stats.hold_cycles += 1;
    }

    /// Releases a held core: the latched instruction completes and the core
    /// returns to fetch. Edge event — consumes no cycle.
    pub fn release(&mut self) {
        let CoreState::Held { instr, data } = self.state else {
            panic!("release without hold");
        };
        self.state = CoreState::Execute(instr);
        self.retire(instr, data);
    }

    // ---- synchronization ISE ----------------------------------------------

    /// The synchronizer accepted this core's request and starts its
    /// two-cycle read-modify-write (first cycle).
    pub fn on_sync_accepted(&mut self) {
        let CoreState::Execute(instr) = self.state else {
            panic!("on_sync_accepted outside execute phase");
        };
        assert!(instr.is_sync(), "not a sync instruction");
        self.stats.active_cycles += 1;
        self.state = CoreState::SyncIssued(instr);
    }

    /// Second (write) cycle of the synchronizer operation.
    pub fn note_sync_active(&mut self) {
        debug_assert!(matches!(self.state, CoreState::SyncIssued(_)));
        self.stats.active_cycles += 1;
    }

    /// Records a cycle spent queued behind the synchronizer.
    pub fn note_sync_stall(&mut self) {
        debug_assert!(matches!(self.state, CoreState::Execute(_)));
        self.stats.sync_stall_cycles += 1;
    }

    /// The synchronizer finished this core's check-in/check-out. With
    /// `sleep`, the core enters sync sleep (check-out while other cores are
    /// still inside the section). Edge event — consumes no cycle.
    pub fn complete_sync(&mut self, sleep: bool) {
        let CoreState::SyncIssued(instr) = self.state else {
            panic!("complete_sync without an issued sync op");
        };
        self.stats.retired += 1;
        match instr {
            Instr::Sinc { .. } => self.stats.checkins += 1,
            Instr::Sdec { .. } => self.stats.checkouts += 1,
            _ => unreachable!("SyncIssued holds only sync instructions"),
        }
        self.pc = self.pc.wrapping_add(1);
        self.state = if sleep {
            self.sleep_origin = SleepOrigin::Sync;
            CoreState::Sleeping
        } else {
            CoreState::Fetch
        };
    }

    /// Retires a `SINC`/`SDEC` as a one-cycle no-op.
    ///
    /// Used by platform configurations *without* the hardware synchronizer
    /// when they encounter instrumented code: the baseline architecture of
    /// the paper has no synchronization ISE, so the operation degenerates
    /// to a NOP (it still consumes fetch + execute like any instruction).
    pub fn skip_sync_op(&mut self) {
        let CoreState::Execute(instr) = self.state else {
            panic!("skip_sync_op outside execute phase");
        };
        assert!(instr.is_sync(), "not a sync instruction");
        self.stats.active_cycles += 1;
        self.stats.retired += 1;
        self.pc = self.pc.wrapping_add(1);
        self.state = CoreState::Fetch;
    }

    // ---- sleep ------------------------------------------------------------

    /// Records a cycle spent asleep (externally clock-gated).
    pub fn note_sleep(&mut self) {
        debug_assert!(matches!(self.state, CoreState::Sleeping));
        self.stats.sleep_cycles += 1;
    }

    /// Wake-up event. Returns `true` if the core actually woke: a sync
    /// sleep (`SDEC`) only honours the synchronizer; an instruction sleep
    /// honours the synchronizer or an interrupt. Edge event — no cycle.
    pub fn wake(&mut self, reason: WakeReason) -> bool {
        if !matches!(self.state, CoreState::Sleeping) {
            return false;
        }
        let honoured = match self.sleep_origin {
            SleepOrigin::Sync => reason == WakeReason::Synchronizer,
            SleepOrigin::Instruction => true,
        };
        if honoured {
            self.state = CoreState::Fetch;
        }
        honoured
    }

    // ---- checkpointing -----------------------------------------------------

    /// Exports the core's complete mutable state. In-flight instructions
    /// are stored as their encoded words ([`CoreStateSnapshot`]); every
    /// instruction a core can be executing came from a decoded word, so
    /// encoding cannot fail.
    pub fn save(&self) -> CoreSnapshot {
        let enc = |instr: Instr| encode(instr).expect("in-flight instructions re-encode");
        let state = match self.state {
            CoreState::Fetch => CoreStateSnapshot::Fetch,
            CoreState::Execute(instr) => CoreStateSnapshot::Execute(enc(instr)),
            CoreState::Held { instr, data } => CoreStateSnapshot::Held {
                word: enc(instr),
                data,
            },
            CoreState::SyncIssued(instr) => CoreStateSnapshot::SyncIssued(enc(instr)),
            CoreState::Sleeping => CoreStateSnapshot::Sleeping,
            CoreState::Halted => CoreStateSnapshot::Halted,
        };
        CoreSnapshot {
            id: self.id,
            regs: self.regs,
            pc: self.pc,
            flags: self.flags.to_bits(),
            ie: self.ie,
            rsync: self.rsync,
            epc: self.epc,
            eflags: self.eflags.to_bits(),
            irq_pending: self.irq_pending,
            sleep_from_sync: self.sleep_origin == SleepOrigin::Sync,
            state,
            cycles: self.stats.total_cycles(),
            stats: self.stats,
            error: self.error,
        }
    }

    /// Re-applies a snapshot taken by [`Core::save`], adopting every field
    /// including the hardware id. Returns `false` (leaving the core
    /// untouched) when an in-flight instruction word fails to decode or
    /// the cycle count is not the sum of the cycle counters — possible
    /// only for a corrupted snapshot.
    pub fn load_snapshot(&mut self, snapshot: &CoreSnapshot) -> bool {
        if snapshot.stats.checked_total_cycles() != Some(snapshot.cycles) {
            return false;
        }
        let state = match snapshot.state {
            CoreStateSnapshot::Fetch => CoreState::Fetch,
            CoreStateSnapshot::Execute(word) => match decode(word) {
                Ok(instr) => CoreState::Execute(instr),
                Err(_) => return false,
            },
            CoreStateSnapshot::Held { word, data } => match decode(word) {
                Ok(instr) => CoreState::Held { instr, data },
                Err(_) => return false,
            },
            CoreStateSnapshot::SyncIssued(word) => match decode(word) {
                Ok(instr) => CoreState::SyncIssued(instr),
                Err(_) => return false,
            },
            CoreStateSnapshot::Sleeping => CoreState::Sleeping,
            CoreStateSnapshot::Halted => CoreState::Halted,
        };
        self.id = snapshot.id;
        self.regs = snapshot.regs;
        self.pc = snapshot.pc;
        self.flags = Flags::from_bits(snapshot.flags);
        self.ie = snapshot.ie;
        self.rsync = snapshot.rsync;
        self.epc = snapshot.epc;
        self.eflags = Flags::from_bits(snapshot.eflags);
        self.irq_pending = snapshot.irq_pending;
        self.sleep_origin = if snapshot.sleep_from_sync {
            SleepOrigin::Sync
        } else {
            SleepOrigin::Instruction
        };
        self.state = state;
        self.stats = snapshot.stats;
        self.error = snapshot.error;
        true
    }

    // ---- lockstep groups ----------------------------------------------------

    /// Adds `shared` to the counters of every core in `members` (bit `i`
    /// stands for `cores[i]`): the counts a lockstep run's members share,
    /// charged in one call. With [`Core::execute_group`], which counts
    /// nothing, a run of `n` fetches and `e` core-local ops charges
    /// `fetches = n`, `retired = e`, its useful ops and `active_cycles =
    /// n + e`; its sleeping cores are charged their `sleep_cycles` the
    /// same way.
    pub fn charge_group(cores: &mut [Core], mut members: u32, shared: &CoreStats) {
        while members != 0 {
            cores[members.trailing_zeros() as usize].stats.merge(shared);
            members &= members - 1;
        }
    }

    /// The op of a lockstep group's broadcast fetch, applied to every core
    /// in `members` (bit `i` stands for `cores[i]`), each in its fetch
    /// phase at the op's address. A core-local op runs its fetch and
    /// execute cycles: each member's registers, flags, PC and branch
    /// counts change as [`Core::complete_execute`]`(None)` would change
    /// them. A memory op leaves each member in [`CoreState::Execute`],
    /// for the platform to complete from its D-Xbar grant. Nothing else
    /// is counted: the caller charges the cycles, fetches and retired ops
    /// the members share through [`Core::charge_group`], before any op
    /// that reads them (`RDCYC` reads its core's cycle count).
    ///
    /// The op is matched once. Each arm runs a loop over the members whose
    /// body is the core's own semantics inlined for that op, so the group
    /// pays one dispatch instead of one per core, and the ops keep a
    /// single definition. `SLEEP` and `HALT` take a generic loop.
    ///
    /// # Panics
    ///
    /// Panics if `op` is `SINC`/`SDEC`.
    pub fn execute_group(cores: &mut [Core], members: u32, op: Instr) {
        assert!(
            !op.is_sync(),
            "sync instructions complete via complete_sync"
        );
        // Each arm passes its op rebuilt as a literal of its variant: with
        // the lane inlined, `apply`'s match folds to that variant's body.
        let lanes = Core::execute_lanes;
        match op {
            Instr::Nop => lanes(cores, members, Instr::Nop),
            Instr::Alu { op, rd, rs } => lanes(cores, members, Instr::Alu { op, rd, rs }),
            Instr::AddI { rd, imm } => lanes(cores, members, Instr::AddI { rd, imm }),
            Instr::CmpI { rd, imm } => lanes(cores, members, Instr::CmpI { rd, imm }),
            Instr::MovI { rd, imm } => lanes(cores, members, Instr::MovI { rd, imm }),
            Instr::MovHi { rd, imm } => lanes(cores, members, Instr::MovHi { rd, imm }),
            Instr::Shift { kind, rd, amount } => {
                lanes(cores, members, Instr::Shift { kind, rd, amount })
            }
            Instr::Unary { op, rd } => lanes(cores, members, Instr::Unary { op, rd }),
            Instr::Branch { cond, offset } => lanes(cores, members, Instr::Branch { cond, offset }),
            Instr::Jal { offset } => lanes(cores, members, Instr::Jal { offset }),
            Instr::Jr { rs } => lanes(cores, members, Instr::Jr { rs }),
            Instr::Jalr { rs } => lanes(cores, members, Instr::Jalr { rs }),
            Instr::Csr { op, rd } => lanes(cores, members, Instr::Csr { op, rd }),
            Instr::Ld { .. } | Instr::St { .. } | Instr::LdP { .. } | Instr::StP { .. } => {
                let mut pending = members;
                while pending != 0 {
                    let core = &mut cores[pending.trailing_zeros() as usize];
                    pending &= pending - 1;
                    debug_assert_eq!(core.state, CoreState::Fetch, "not fetching");
                    core.state = CoreState::Execute(op);
                }
            }
            _ => lanes(cores, members, op),
        }
    }

    /// The loop of one [`Core::execute_group`] arm. Written without a
    /// closure: one closure shared by every arm would be one out-of-line
    /// body, and the op would be matched again per core.
    #[inline(always)]
    fn execute_lanes(cores: &mut [Core], mut members: u32, op: Instr) {
        while members != 0 {
            let core = &mut cores[members.trailing_zeros() as usize];
            members &= members - 1;
            debug_assert_eq!(core.state, CoreState::Fetch, "not fetching");
            core.apply(op, None);
        }
    }

    // ---- instruction semantics ---------------------------------------------

    /// The semantics of `instr`: registers, flags, PC, state and the
    /// counts that differ per core. Counts neither the cycle nor the
    /// retired op.
    #[inline(always)]
    fn apply(&mut self, instr: Instr, read: Option<u16>) {
        let next_pc = self.pc.wrapping_add(1);
        match instr {
            Instr::Nop => {
                self.pc = next_pc;
                self.state = CoreState::Fetch;
            }
            Instr::Alu { op, rd, rs } => {
                let a = self.regs[rd.index()];
                let b = self.regs[rs.index()];
                let r = alu_exec(op, a, b, self.flags);
                self.flags = r.flags;
                if op != AluOp::Cmp {
                    self.regs[rd.index()] = r.value;
                }
                self.pc = next_pc;
                self.state = CoreState::Fetch;
            }
            Instr::AddI { rd, imm } => {
                let r = alu_exec(
                    AluOp::Add,
                    self.regs[rd.index()],
                    imm as i16 as u16,
                    self.flags,
                );
                self.flags = r.flags;
                self.regs[rd.index()] = r.value;
                self.pc = next_pc;
                self.state = CoreState::Fetch;
            }
            Instr::CmpI { rd, imm } => {
                let r = alu_exec(
                    AluOp::Cmp,
                    self.regs[rd.index()],
                    imm as i16 as u16,
                    self.flags,
                );
                self.flags = r.flags;
                self.pc = next_pc;
                self.state = CoreState::Fetch;
            }
            Instr::MovI { rd, imm } => {
                self.regs[rd.index()] = imm as u16;
                self.pc = next_pc;
                self.state = CoreState::Fetch;
            }
            Instr::MovHi { rd, imm } => {
                self.regs[rd.index()] = (imm as u16) << 8 | (self.regs[rd.index()] & 0x00FF);
                self.pc = next_pc;
                self.state = CoreState::Fetch;
            }
            Instr::Shift { kind, rd, amount } => {
                let r = shift_exec(kind, self.regs[rd.index()], amount, self.flags);
                self.flags = r.flags;
                self.regs[rd.index()] = r.value;
                self.pc = next_pc;
                self.state = CoreState::Fetch;
            }
            Instr::Unary { op, rd } => {
                let r = unary_exec(op, self.regs[rd.index()], self.flags);
                self.flags = r.flags;
                self.regs[rd.index()] = r.value;
                self.pc = next_pc;
                self.state = CoreState::Fetch;
            }
            Instr::Ld { rd, .. } => {
                self.regs[rd.index()] = read.expect("load completed without data");
                self.stats.dm_reads += 1;
                self.pc = next_pc;
                self.state = CoreState::Fetch;
            }
            Instr::St { .. } => {
                self.stats.dm_writes += 1;
                self.pc = next_pc;
                self.state = CoreState::Fetch;
            }
            Instr::LdP { rd, base } => {
                let data = read.expect("load completed without data");
                self.regs[base.index()] = self.regs[base.index()].wrapping_add(1);
                // Destination write wins when rd == base.
                self.regs[rd.index()] = data;
                self.stats.dm_reads += 1;
                self.pc = next_pc;
                self.state = CoreState::Fetch;
            }
            Instr::StP { base, .. } => {
                self.regs[base.index()] = self.regs[base.index()].wrapping_add(1);
                self.stats.dm_writes += 1;
                self.pc = next_pc;
                self.state = CoreState::Fetch;
            }
            Instr::Branch { cond, offset } => {
                if cond.eval(self.flags) {
                    self.pc = next_pc.wrapping_add(offset as u16);
                    self.stats.branches_taken += 1;
                } else {
                    self.pc = next_pc;
                    self.stats.branches_not_taken += 1;
                }
                self.state = CoreState::Fetch;
            }
            Instr::Jal { offset } => {
                self.regs[Reg::LR.index()] = next_pc;
                self.pc = next_pc.wrapping_add(offset as u16);
                self.state = CoreState::Fetch;
            }
            Instr::Jr { rs } => {
                self.pc = self.regs[rs.index()];
                self.state = CoreState::Fetch;
            }
            Instr::Jalr { rs } => {
                let target = self.regs[rs.index()];
                self.regs[Reg::LR.index()] = next_pc;
                self.pc = target;
                self.state = CoreState::Fetch;
            }
            Instr::Sleep => {
                self.sleep_origin = SleepOrigin::Instruction;
                self.pc = next_pc;
                self.state = CoreState::Sleeping;
            }
            Instr::Halt => {
                self.state = CoreState::Halted;
            }
            Instr::Csr { op, rd } => {
                match op {
                    CsrOp::RdId => self.regs[rd.index()] = self.id as u16,
                    CsrOp::RdSr => {
                        self.regs[rd.index()] = self.flags.to_bits() | (self.ie as u16) << 4
                    }
                    CsrOp::WrSr => {
                        let v = self.regs[rd.index()];
                        self.flags = Flags::from_bits(v);
                        self.ie = v & 0x10 != 0;
                    }
                    CsrOp::RdSync => self.regs[rd.index()] = self.rsync,
                    CsrOp::WrSync => self.rsync = self.regs[rd.index()],
                    CsrOp::Ei => self.ie = true,
                    CsrOp::Di => self.ie = false,
                    CsrOp::Iret => {
                        self.flags = self.eflags;
                        self.ie = true;
                        self.pc = self.epc;
                        self.state = CoreState::Fetch;
                        return;
                    }
                    CsrOp::RdCyc => self.regs[rd.index()] = self.stats.total_cycles() as u16,
                }
                self.pc = next_pc;
                self.state = CoreState::Fetch;
            }
            Instr::Sinc { .. } | Instr::Sdec { .. } => {
                unreachable!("sync instructions complete via complete_sync")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_isa::encode;

    fn exec_one(core: &mut Core, instr: Instr, read: Option<u16>) {
        core.on_fetch_granted(encode(instr).unwrap()).unwrap();
        match core.state() {
            CoreState::Execute(_) => core.complete_execute(read),
            other => panic!("unexpected state {other:?}"),
        }
    }

    #[test]
    fn reset_state() {
        let core = Core::new(3);
        assert_eq!(core.pc(), arch::RESET_VECTOR);
        assert_eq!(core.state(), CoreState::Fetch);
        assert_eq!(core.id(), 3);
        assert_eq!(core.fetch_request(), Some(arch::RESET_VECTOR));
    }

    #[test]
    fn two_phase_timing() {
        let mut core = Core::new(0);
        exec_one(&mut core, Instr::Nop, None);
        assert_eq!(core.cycles(), 2, "fetch + execute");
        assert_eq!(core.pc(), 1);
        assert_eq!(core.stats().retired, 1);
        assert_eq!(core.stats().useful_ops, 0, "NOP is not useful work");
    }

    #[test]
    fn alu_writeback_and_flags() {
        let mut core = Core::new(0);
        core.set_reg(Reg::R1, 7);
        core.set_reg(Reg::R2, 7);
        exec_one(
            &mut core,
            Instr::Alu {
                op: AluOp::Sub,
                rd: Reg::R1,
                rs: Reg::R2,
            },
            None,
        );
        assert_eq!(core.reg(Reg::R1), 0);
        assert!(core.flags().z);
        assert_eq!(core.stats().useful_ops, 1);
    }

    #[test]
    fn cmp_does_not_write_back() {
        let mut core = Core::new(0);
        core.set_reg(Reg::R1, 9);
        exec_one(
            &mut core,
            Instr::Alu {
                op: AluOp::Cmp,
                rd: Reg::R1,
                rs: Reg::R0,
            },
            None,
        );
        assert_eq!(core.reg(Reg::R1), 9);
        assert!(!core.flags().z);
    }

    #[test]
    fn load_store_requests() {
        let mut core = Core::new(0);
        core.set_reg(Reg::R2, 100);
        core.set_reg(Reg::R3, 0xBEEF);
        core.on_fetch_granted(
            encode(Instr::St {
                rs: Reg::R3,
                base: Reg::R2,
                offset: -2,
            })
            .unwrap(),
        )
        .unwrap();
        assert_eq!(
            core.mem_request(),
            Some(MemRequest {
                addr: 98,
                access: MemAccess::Write(0xBEEF)
            })
        );
        core.complete_execute(None);
        assert_eq!(core.stats().dm_writes, 1);

        core.on_fetch_granted(
            encode(Instr::Ld {
                rd: Reg::R4,
                base: Reg::R2,
                offset: 1,
            })
            .unwrap(),
        )
        .unwrap();
        assert_eq!(
            core.mem_request(),
            Some(MemRequest {
                addr: 101,
                access: MemAccess::Read
            })
        );
        core.complete_execute(Some(0x1234));
        assert_eq!(core.reg(Reg::R4), 0x1234);
        assert_eq!(core.stats().dm_reads, 1);
    }

    #[test]
    fn post_increment() {
        let mut core = Core::new(0);
        core.set_reg(Reg::R2, 50);
        exec_one(
            &mut core,
            Instr::LdP {
                rd: Reg::R1,
                base: Reg::R2,
            },
            Some(7),
        );
        assert_eq!(core.reg(Reg::R1), 7);
        assert_eq!(core.reg(Reg::R2), 51);

        // rd == base: the loaded value wins.
        core.set_reg(Reg::R5, 60);
        exec_one(
            &mut core,
            Instr::LdP {
                rd: Reg::R5,
                base: Reg::R5,
            },
            Some(1000),
        );
        assert_eq!(core.reg(Reg::R5), 1000);
    }

    #[test]
    fn branches_and_jumps() {
        let mut core = Core::new(0);
        // Not taken: Z is clear.
        exec_one(
            &mut core,
            Instr::Branch {
                cond: ulp_isa::Cond::Eq,
                offset: 10,
            },
            None,
        );
        assert_eq!(core.pc(), 1);
        assert_eq!(core.stats().branches_not_taken, 1);

        // Taken: unconditional.
        exec_one(
            &mut core,
            Instr::Branch {
                cond: ulp_isa::Cond::Al,
                offset: 10,
            },
            None,
        );
        assert_eq!(core.pc(), 12);
        assert_eq!(core.stats().branches_taken, 1);

        // JAL links and jumps.
        exec_one(&mut core, Instr::Jal { offset: -5 }, None);
        assert_eq!(core.reg(Reg::LR), 13);
        assert_eq!(core.pc(), 8);

        // JR returns.
        core.set_reg(Reg::R7, 13);
        exec_one(&mut core, Instr::Jr { rs: Reg::R7 }, None);
        assert_eq!(core.pc(), 13);

        // JALR with rs == lr uses the old value as the target.
        core.set_reg(Reg::R7, 40);
        exec_one(&mut core, Instr::Jalr { rs: Reg::R7 }, None);
        assert_eq!(core.pc(), 40);
        assert_eq!(core.reg(Reg::R7), 14);
    }

    #[test]
    fn sync_request_and_lifecycle() {
        let mut core = Core::new(2);
        core.set_reg(Reg::R1, 0x4800);
        exec_one(
            &mut core,
            Instr::Csr {
                op: CsrOp::WrSync,
                rd: Reg::R1,
            },
            None,
        );
        assert_eq!(core.rsync(), 0x4800);

        core.on_fetch_granted(encode(Instr::Sinc { index: 3 }).unwrap())
            .unwrap();
        let req = core.sync_request().unwrap();
        assert_eq!(req.word_addr, 0x4803);
        assert_eq!(req.kind, SyncKind::CheckIn);
        assert_eq!(core.mem_request(), None, "sync ops bypass the D-Xbar");

        core.on_sync_accepted();
        core.note_sync_active();
        core.complete_sync(false);
        assert_eq!(core.stats().checkins, 1);
        assert_eq!(core.state(), CoreState::Fetch);
        // fetch(1) + accept(1) + active(1) = 3 cycles for a check-in.
        assert_eq!(core.cycles(), 3 + 2, "includes the WRSYNC instruction");

        // Check-out that must sleep.
        core.on_fetch_granted(encode(Instr::Sdec { index: 3 }).unwrap())
            .unwrap();
        assert_eq!(core.sync_request().unwrap().kind, SyncKind::CheckOut);
        core.on_sync_accepted();
        core.note_sync_active();
        core.complete_sync(true);
        assert!(core.is_sleeping());
        // A sync sleep ignores interrupts...
        assert!(!core.wake(WakeReason::Interrupt));
        assert!(core.is_sleeping());
        // ...but honours the synchronizer.
        assert!(core.wake(WakeReason::Synchronizer));
        assert_eq!(core.state(), CoreState::Fetch);
        assert_eq!(core.stats().checkouts, 1);
    }

    #[test]
    fn held_core_applies_latched_data_on_release() {
        let mut core = Core::new(0);
        core.set_reg(Reg::R2, 10);
        core.on_fetch_granted(
            encode(Instr::Ld {
                rd: Reg::R1,
                base: Reg::R2,
                offset: 0,
            })
            .unwrap(),
        )
        .unwrap();
        core.hold_with_data(Some(55));
        core.note_hold();
        core.note_hold();
        assert_eq!(core.reg(Reg::R1), 0, "not yet applied");
        core.release();
        assert_eq!(core.reg(Reg::R1), 55);
        assert_eq!(core.stats().hold_cycles, 2);
        assert_eq!(core.state(), CoreState::Fetch);
    }

    #[test]
    fn sleep_and_interrupt() {
        let mut core = Core::new(0);
        exec_one(
            &mut core,
            Instr::Csr {
                op: CsrOp::Ei,
                rd: Reg::R0,
            },
            None,
        );
        exec_one(&mut core, Instr::Sleep, None);
        assert!(core.is_sleeping());
        core.note_sleep();

        core.raise_irq();
        assert!(core.poll_interrupt(), "interrupt wakes instruction sleep");
        assert_eq!(core.pc(), arch::IRQ_VECTOR);
        assert_eq!(core.stats().interrupts, 1);

        // IRET returns to the instruction after SLEEP.
        exec_one(
            &mut core,
            Instr::Csr {
                op: CsrOp::Iret,
                rd: Reg::R0,
            },
            None,
        );
        assert_eq!(core.pc(), 2);
    }

    #[test]
    fn interrupt_ignored_when_disabled() {
        let mut core = Core::new(0);
        core.raise_irq();
        assert!(!core.poll_interrupt());
        assert_eq!(core.pc(), arch::RESET_VECTOR);
    }

    #[test]
    fn halt_is_terminal() {
        let mut core = Core::new(0);
        exec_one(&mut core, Instr::Halt, None);
        assert!(core.is_halted());
        assert_eq!(core.fetch_request(), None);
    }

    #[test]
    fn illegal_instruction_halts() {
        let mut core = Core::new(0);
        let err = core.on_fetch_granted(0xF800).unwrap_err();
        assert_eq!(
            err,
            CoreError::IllegalInstruction {
                pc: 0,
                word: 0xF800
            }
        );
        assert!(core.is_halted());
        assert_eq!(core.error(), Some(err));
    }

    #[test]
    fn csr_roundtrip() {
        let mut core = Core::new(5);
        exec_one(
            &mut core,
            Instr::Csr {
                op: CsrOp::RdId,
                rd: Reg::R3,
            },
            None,
        );
        assert_eq!(core.reg(Reg::R3), 5);

        // WRSR/RDSR round-trip flags and IE.
        core.set_reg(Reg::R1, 0b1_0101);
        exec_one(
            &mut core,
            Instr::Csr {
                op: CsrOp::WrSr,
                rd: Reg::R1,
            },
            None,
        );
        assert!(core.flags().z && core.flags().c);
        exec_one(
            &mut core,
            Instr::Csr {
                op: CsrOp::RdSr,
                rd: Reg::R2,
            },
            None,
        );
        assert_eq!(core.reg(Reg::R2), 0b1_0101);
    }

    #[test]
    fn snapshot_round_trip_mid_instruction() {
        let mut core = Core::new(2);
        core.set_reg(Reg::R2, 10);
        core.on_fetch_granted(
            encode(Instr::Ld {
                rd: Reg::R1,
                base: Reg::R2,
                offset: 0,
            })
            .unwrap(),
        )
        .unwrap();
        core.hold_with_data(Some(55));
        core.note_hold();
        let snap = core.save();
        assert_eq!(
            snap.state,
            CoreStateSnapshot::Held {
                word: encode(Instr::Ld {
                    rd: Reg::R1,
                    base: Reg::R2,
                    offset: 0,
                })
                .unwrap(),
                data: Some(55),
            }
        );

        let mut restored = Core::new(0);
        assert!(restored.load_snapshot(&snap));
        assert_eq!(restored.id(), 2, "snapshot carries the hardware id");
        assert_eq!(restored.cycles(), core.cycles());
        assert_eq!(restored.stats(), core.stats());
        // Both cores release identically: the latched load lands.
        restored.release();
        core.release();
        assert_eq!(restored.reg(Reg::R1), 55);
        assert_eq!(restored.save(), core.save());
    }

    #[test]
    fn snapshot_preserves_sleep_origin() {
        let mut core = Core::new(0);
        core.on_fetch_granted(encode(Instr::Sdec { index: 0 }).unwrap())
            .unwrap();
        core.on_sync_accepted();
        core.note_sync_active();
        core.complete_sync(true);
        assert!(core.is_sleeping());
        let snap = core.save();
        assert!(snap.sleep_from_sync);

        let mut restored = Core::new(0);
        assert!(restored.load_snapshot(&snap));
        // A sync sleep still ignores interrupts after restore.
        assert!(!restored.wake(WakeReason::Interrupt));
        assert!(restored.wake(WakeReason::Synchronizer));
    }

    #[test]
    fn snapshot_rejects_corrupted_instruction_word() {
        let mut core = Core::new(0);
        let mut snap = core.save();
        snap.state = CoreStateSnapshot::Execute(0xF800);
        let before = core.save();
        assert!(!core.load_snapshot(&snap));
        assert_eq!(core.save(), before, "failed load leaves state untouched");
    }

    #[test]
    fn snapshot_rejects_a_cycle_count_off_its_counters() {
        let mut core = Core::new(0);
        exec_one(&mut core, Instr::Nop, None);
        let before = core.save();
        assert_eq!(before.cycles, 2);
        for cycles in [1, 3, u64::MAX] {
            let snap = CoreSnapshot { cycles, ..before };
            assert!(!core.load_snapshot(&snap), "cycles {cycles} loaded");
            assert_eq!(core.save(), before, "failed load leaves state untouched");
        }
        // Counters whose sum overflows match no cycle count.
        let mut snap = before;
        snap.stats.sleep_cycles = u64::MAX;
        snap.cycles = 1;
        assert!(!core.load_snapshot(&snap));
    }

    #[test]
    fn rdcyc_tracks_cycles() {
        let mut core = Core::new(0);
        exec_one(&mut core, Instr::Nop, None);
        exec_one(
            &mut core,
            Instr::Csr {
                op: CsrOp::RdCyc,
                rd: Reg::R1,
            },
            None,
        );
        // RDCYC reads the counter *during* its execute cycle (4th cycle).
        assert_eq!(core.reg(Reg::R1), 4);
    }
}
