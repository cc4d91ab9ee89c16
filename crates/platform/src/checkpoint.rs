//! Serializable, versioned platform checkpoints.
//!
//! A [`Checkpoint`] is the complete architectural and statistical state of
//! a [`crate::Platform`] between cycles: cores, both memories, crossbar
//! arbiters (the D-Xbar's per-bank served counts included), the
//! synchronizer and the power-relevant counters. Attached observers are
//! not part of it. [`crate::Platform::snapshot`] produces one,
//! [`crate::Platform::restore`] / [`crate::Platform::restore_from`]
//! re-apply it, and a resumed run is **bit-identical** to one that never
//! paused — same `SimStats`, same served counts (so the same heat-map
//! rows), same energy.
//!
//! The wire format ([`Checkpoint::to_bytes`] / [`Checkpoint::from_bytes`])
//! is a hand-rolled little-endian encoding: a `ULPK` magic, a schema
//! version, the body length and an FNV-1a checksum of the body, then the
//! body itself: the encoded [`PlatformConfig`] and the component
//! snapshots, closed by the D-Xbar's per-bank served counts. The
//! checksum covers every body byte, so a damaged blob fails with a typed
//! error instead of restoring different state. The byte-level encoding
//! lives only in this module; the component crates export plain-data
//! snapshot structs and know nothing about bytes.

use crate::config::PlatformConfig;
use crate::error::{PlatformError, RestoreError};
use ulp_cpu::{CoreError, CoreSnapshot, CoreStateSnapshot, CoreStats};
use ulp_isa::arch;
use ulp_mem::{
    BankMapping, DXbarSnapshot, DXbarStats, IXbarSnapshot, IXbarStats, MemSnapshot, MemStats,
    ServingPolicy,
};
use ulp_sync::{SyncSnapshot, SyncStats};

/// Version of the checkpoint wire format. Bumped on any layout change;
/// [`Checkpoint::from_bytes`] rejects other versions with
/// [`RestoreError::SchemaMismatch`].
pub const CHECKPOINT_SCHEMA: u32 = 3;

/// Leading magic of every checkpoint blob.
const MAGIC: [u8; 4] = *b"ULPK";

/// The complete state of a [`crate::Platform`] between cycles.
///
/// Plain data with public fields — produced by
/// [`crate::Platform::snapshot`], consumed by
/// [`crate::Platform::restore_from`], serialized by
/// [`Checkpoint::to_bytes`].
///
/// The default is an empty checkpoint: not a restorable state, but a
/// buffer for [`crate::Platform::snapshot_into`] to fill.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// The configuration of the checkpointed platform. Restore adopts it
    /// wholesale (cycle budget included); only the *structural* part
    /// (cores, memories, synchronizer, policy) must match the target.
    pub config: PlatformConfig,
    /// Cycles simulated when the snapshot was taken.
    pub cycle: u64,
    /// A fault latched but not yet surfaced by the run loop.
    pub fault: Option<PlatformError>,
    /// Architectural and counter state of every core.
    pub cores: Vec<CoreSnapshot>,
    /// Instruction memory contents, locks and counters.
    pub imem: MemSnapshot,
    /// Data memory contents, locks and counters.
    pub dmem: MemSnapshot,
    /// I-Xbar rotating-priority pointers and counters.
    pub ixbar: IXbarSnapshot,
    /// D-Xbar pointers, held-group state, counters and per-bank served
    /// counts.
    pub dxbar: DXbarSnapshot,
    /// Synchronizer state; present exactly when the config has one.
    pub sync: Option<SyncSnapshot>,
    /// Built-in lockstep-width recorder: sum over fetch cycles.
    pub lockstep_sum: u64,
    /// Built-in lockstep-width recorder: counted fetch cycles.
    pub lockstep_cycles: u64,
}

impl Checkpoint {
    /// Serializes the checkpoint into the versioned `ULPK` wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut blob = Vec::new();
        self.to_bytes_into(&mut blob);
        blob
    }

    /// [`Checkpoint::to_bytes`] into `blob` (cleared first), reusing its
    /// allocation.
    pub fn to_bytes_into(&self, blob: &mut Vec<u8>) {
        blob.clear();
        let mut w = Writer {
            buf: std::mem::take(blob),
        };
        // Header: magic, schema, then the body length and checksum,
        // filled in once the body is written.
        w.bytes(&MAGIC);
        w.u32(CHECKPOINT_SCHEMA);
        let len_at = w.buf.len();
        w.len(0);
        w.u64(0);
        let body_at = w.buf.len();
        write_config(&mut w, &self.config);
        w.u64(self.cycle);
        write_fault(&mut w, self.fault);
        w.len(self.cores.len());
        for core in &self.cores {
            write_core(&mut w, core);
        }
        write_mem(&mut w, &self.imem);
        write_mem(&mut w, &self.dmem);
        write_ixbar(&mut w, &self.ixbar);
        write_dxbar(&mut w, &self.dxbar);
        match &self.sync {
            None => w.u8(0),
            Some(s) => {
                w.u8(1);
                write_sync(&mut w, s);
            }
        }
        w.u64(self.lockstep_sum);
        w.u64(self.lockstep_cycles);
        // The served counts close the body (see `read_dxbar`).
        w.len(self.dxbar.served.len());
        for &count in &self.dxbar.served {
            w.u64(count);
        }
        let body_len = u32::try_from(w.buf.len() - body_at).expect("checkpoint body fits u32");
        let checksum = fnv1a(&w.buf[body_at..]);
        w.buf[len_at..len_at + 4].copy_from_slice(&body_len.to_le_bytes());
        w.buf[len_at + 4..body_at].copy_from_slice(&checksum.to_le_bytes());
        *blob = w.buf;
    }

    /// Decodes a blob produced by [`Checkpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// * [`RestoreError::Corrupt`] — bad magic, a failed checksum, an
    ///   invalid enum tag or trailing garbage;
    /// * [`RestoreError::SchemaMismatch`] — written by another version;
    /// * [`RestoreError::Truncated`] — the blob ends mid-field.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, RestoreError> {
        let mut r = Reader::new(bytes);
        if r.take(MAGIC.len()).ok_or(RestoreError::Truncated)? != MAGIC {
            return Err(RestoreError::Corrupt { what: "magic" });
        }
        let schema = r.u32().ok_or(RestoreError::Truncated)?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(RestoreError::SchemaMismatch {
                found: schema,
                expected: CHECKPOINT_SCHEMA,
            });
        }
        let body_len = r.len()?;
        let checksum = r.u64().ok_or(RestoreError::Truncated)?;
        let body = r.take(body_len).ok_or(RestoreError::Truncated)?;
        if !r.done() {
            return Err(RestoreError::Corrupt {
                what: "trailing bytes",
            });
        }
        if fnv1a(body) != checksum {
            return Err(RestoreError::Corrupt { what: "checksum" });
        }

        let mut r = Reader::new(body);
        let config = read_config(&mut r)?;
        let cycle = r.u64().ok_or(RestoreError::Truncated)?;
        let fault = read_fault(&mut r)?;
        let num_cores = r.len()?;
        let mut cores = Vec::with_capacity(num_cores.min(16));
        for _ in 0..num_cores {
            cores.push(read_core(&mut r)?);
        }
        let imem = read_mem(&mut r)?;
        let dmem = read_mem(&mut r)?;
        let ixbar = read_ixbar(&mut r)?;
        let mut dxbar = read_dxbar(&mut r)?;
        let sync = match r.u8().ok_or(RestoreError::Truncated)? {
            0 => None,
            1 => Some(read_sync(&mut r)?),
            _ => return Err(RestoreError::Corrupt { what: "sync tag" }),
        };
        let lockstep_sum = r.u64().ok_or(RestoreError::Truncated)?;
        let lockstep_cycles = r.u64().ok_or(RestoreError::Truncated)?;
        let nbanks = r.len()?;
        dxbar.served = Vec::with_capacity(nbanks.min(1 << 10));
        for _ in 0..nbanks {
            dxbar.served.push(r.u64().ok_or(RestoreError::Truncated)?);
        }
        if !r.done() {
            return Err(RestoreError::Corrupt {
                what: "body length",
            });
        }
        Ok(Checkpoint {
            config,
            cycle,
            fault,
            cores,
            imem,
            dmem,
            ixbar,
            dxbar,
            sync,
            lockstep_sum,
            lockstep_cycles,
        })
    }
}

// ---- byte-level primitives ---------------------------------------------

/// Little-endian append-only byte sink.
#[derive(Debug, Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Writes a collection length (all checkpointed collections fit u32).
    fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("checkpoint collection fits u32"));
    }
}

/// Cursor over a checkpoint blob; every read is bounds-checked.
#[derive(Debug)]
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.buf.len() {
            return None;
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|b| u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn len(&mut self) -> Result<usize, RestoreError> {
        Ok(self.u32().ok_or(RestoreError::Truncated)? as usize)
    }

    fn done(&self) -> bool {
        self.buf.is_empty()
    }
}

/// FNV-1a over a byte slice (the body checksum in the blob header). Each
/// byte step is a bijection of the running hash, so any change confined
/// to one byte always changes the checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---- component codecs ---------------------------------------------------

fn write_config(w: &mut Writer, cfg: &PlatformConfig) {
    w.u32(cfg.num_cores as u32);
    w.u8(cfg.synchronizer as u8);
    w.u8(match cfg.dxbar_policy {
        ServingPolicy::Baseline => 0,
        ServingPolicy::SyncAware => 1,
    });
    w.u8(mapping_tag(cfg.im_mapping));
    w.u8(mapping_tag(cfg.dm_mapping));
    w.u64(cfg.im_words as u64);
    w.u32(cfg.im_banks as u32);
    w.u64(cfg.dm_words as u64);
    w.u32(cfg.dm_banks as u32);
    w.u64(cfg.max_cycles);
}

fn mapping_tag(m: BankMapping) -> u8 {
    match m {
        BankMapping::Blocked => 0,
        BankMapping::Interleaved => 1,
    }
}

fn read_mapping(r: &mut Reader) -> Result<BankMapping, RestoreError> {
    match r.u8().ok_or(RestoreError::Truncated)? {
        0 => Ok(BankMapping::Blocked),
        1 => Ok(BankMapping::Interleaved),
        _ => Err(RestoreError::Corrupt {
            what: "bank mapping",
        }),
    }
}

fn read_bool(r: &mut Reader, what: &'static str) -> Result<bool, RestoreError> {
    match r.u8().ok_or(RestoreError::Truncated)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(RestoreError::Corrupt { what }),
    }
}

fn read_config(r: &mut Reader) -> Result<PlatformConfig, RestoreError> {
    let num_cores = r.u32().ok_or(RestoreError::Truncated)? as usize;
    let synchronizer = read_bool(r, "config synchronizer")?;
    let dxbar_policy = match r.u8().ok_or(RestoreError::Truncated)? {
        0 => ServingPolicy::Baseline,
        1 => ServingPolicy::SyncAware,
        _ => {
            return Err(RestoreError::Corrupt {
                what: "serving policy",
            })
        }
    };
    let im_mapping = read_mapping(r)?;
    let dm_mapping = read_mapping(r)?;
    let im_words = r.u64().ok_or(RestoreError::Truncated)? as usize;
    let im_banks = r.u32().ok_or(RestoreError::Truncated)? as usize;
    let dm_words = r.u64().ok_or(RestoreError::Truncated)? as usize;
    let dm_banks = r.u32().ok_or(RestoreError::Truncated)? as usize;
    let max_cycles = r.u64().ok_or(RestoreError::Truncated)?;
    Ok(PlatformConfig {
        num_cores,
        synchronizer,
        dxbar_policy,
        im_mapping,
        dm_mapping,
        im_words,
        im_banks,
        dm_words,
        dm_banks,
        max_cycles,
    })
}

fn write_fault(w: &mut Writer, fault: Option<PlatformError>) {
    match fault {
        None => w.u8(0),
        Some(PlatformError::CoreFault { core, error }) => {
            w.u8(1);
            w.u32(core as u32);
            let CoreError::IllegalInstruction { pc, word } = error;
            w.u16(pc);
            w.u16(word);
        }
        Some(PlatformError::Deadlock { cycle }) => {
            w.u8(2);
            w.u64(cycle);
        }
        Some(PlatformError::Timeout { budget }) => {
            w.u8(3);
            w.u64(budget);
        }
    }
}

fn read_fault(r: &mut Reader) -> Result<Option<PlatformError>, RestoreError> {
    Ok(match r.u8().ok_or(RestoreError::Truncated)? {
        0 => None,
        1 => {
            let core = r.u32().ok_or(RestoreError::Truncated)? as usize;
            let pc = r.u16().ok_or(RestoreError::Truncated)?;
            let word = r.u16().ok_or(RestoreError::Truncated)?;
            Some(PlatformError::CoreFault {
                core,
                error: CoreError::IllegalInstruction { pc, word },
            })
        }
        2 => Some(PlatformError::Deadlock {
            cycle: r.u64().ok_or(RestoreError::Truncated)?,
        }),
        3 => Some(PlatformError::Timeout {
            budget: r.u64().ok_or(RestoreError::Truncated)?,
        }),
        _ => return Err(RestoreError::Corrupt { what: "fault tag" }),
    })
}

fn write_core(w: &mut Writer, c: &CoreSnapshot) {
    w.u8(c.id);
    w.len(c.regs.len());
    for &reg in &c.regs {
        w.u16(reg);
    }
    w.u16(c.pc);
    w.u16(c.flags);
    w.u8(c.ie as u8);
    w.u16(c.rsync);
    w.u16(c.epc);
    w.u16(c.eflags);
    w.u8(c.irq_pending as u8);
    w.u8(c.sleep_from_sync as u8);
    match c.state {
        CoreStateSnapshot::Fetch => w.u8(0),
        CoreStateSnapshot::Execute(word) => {
            w.u8(1);
            w.u16(word);
        }
        CoreStateSnapshot::Held { word, data } => {
            w.u8(2);
            w.u16(word);
            match data {
                None => w.u8(0),
                Some(d) => {
                    w.u8(1);
                    w.u16(d);
                }
            }
        }
        CoreStateSnapshot::SyncIssued(word) => {
            w.u8(3);
            w.u16(word);
        }
        CoreStateSnapshot::Sleeping => w.u8(4),
        CoreStateSnapshot::Halted => w.u8(5),
    }
    w.u64(c.cycles);
    write_core_stats(w, &c.stats);
    match c.error {
        None => w.u8(0),
        Some(CoreError::IllegalInstruction { pc, word }) => {
            w.u8(1);
            w.u16(pc);
            w.u16(word);
        }
    }
}

fn read_core(r: &mut Reader) -> Result<CoreSnapshot, RestoreError> {
    let id = r.u8().ok_or(RestoreError::Truncated)?;
    let nregs = r.len()?;
    if nregs != arch::NUM_REGS {
        return Err(RestoreError::Corrupt {
            what: "core register count",
        });
    }
    let mut regs = [0u16; arch::NUM_REGS];
    for reg in &mut regs {
        *reg = r.u16().ok_or(RestoreError::Truncated)?;
    }
    let pc = r.u16().ok_or(RestoreError::Truncated)?;
    let flags = r.u16().ok_or(RestoreError::Truncated)?;
    let ie = read_bool(r, "core ie")?;
    let rsync = r.u16().ok_or(RestoreError::Truncated)?;
    let epc = r.u16().ok_or(RestoreError::Truncated)?;
    let eflags = r.u16().ok_or(RestoreError::Truncated)?;
    let irq_pending = read_bool(r, "core irq")?;
    let sleep_from_sync = read_bool(r, "core sleep origin")?;
    let state = match r.u8().ok_or(RestoreError::Truncated)? {
        0 => CoreStateSnapshot::Fetch,
        1 => CoreStateSnapshot::Execute(r.u16().ok_or(RestoreError::Truncated)?),
        2 => {
            let word = r.u16().ok_or(RestoreError::Truncated)?;
            let data = match r.u8().ok_or(RestoreError::Truncated)? {
                0 => None,
                1 => Some(r.u16().ok_or(RestoreError::Truncated)?),
                _ => {
                    return Err(RestoreError::Corrupt {
                        what: "held data tag",
                    })
                }
            };
            CoreStateSnapshot::Held { word, data }
        }
        3 => CoreStateSnapshot::SyncIssued(r.u16().ok_or(RestoreError::Truncated)?),
        4 => CoreStateSnapshot::Sleeping,
        5 => CoreStateSnapshot::Halted,
        _ => {
            return Err(RestoreError::Corrupt {
                what: "core state tag",
            })
        }
    };
    let cycles = r.u64().ok_or(RestoreError::Truncated)?;
    let stats = read_core_stats(r)?;
    let error = match r.u8().ok_or(RestoreError::Truncated)? {
        0 => None,
        1 => {
            let pc = r.u16().ok_or(RestoreError::Truncated)?;
            let word = r.u16().ok_or(RestoreError::Truncated)?;
            Some(CoreError::IllegalInstruction { pc, word })
        }
        _ => {
            return Err(RestoreError::Corrupt {
                what: "core error tag",
            })
        }
    };
    Ok(CoreSnapshot {
        id,
        regs,
        pc,
        flags,
        ie,
        rsync,
        epc,
        eflags,
        irq_pending,
        sleep_from_sync,
        state,
        cycles,
        stats,
        error,
    })
}

fn write_core_stats(w: &mut Writer, s: &CoreStats) {
    for v in [
        s.retired,
        s.useful_ops,
        s.fetch_stall_cycles,
        s.mem_stall_cycles,
        s.sync_stall_cycles,
        s.sleep_cycles,
        s.hold_cycles,
        s.active_cycles,
        s.fetches,
        s.dm_reads,
        s.dm_writes,
        s.checkins,
        s.checkouts,
        s.branches_taken,
        s.branches_not_taken,
        s.interrupts,
    ] {
        w.u64(v);
    }
}

fn read_core_stats(r: &mut Reader) -> Result<CoreStats, RestoreError> {
    let mut v = [0u64; 16];
    for slot in &mut v {
        *slot = r.u64().ok_or(RestoreError::Truncated)?;
    }
    Ok(CoreStats {
        retired: v[0],
        useful_ops: v[1],
        fetch_stall_cycles: v[2],
        mem_stall_cycles: v[3],
        sync_stall_cycles: v[4],
        sleep_cycles: v[5],
        hold_cycles: v[6],
        active_cycles: v[7],
        fetches: v[8],
        dm_reads: v[9],
        dm_writes: v[10],
        checkins: v[11],
        checkouts: v[12],
        branches_taken: v[13],
        branches_not_taken: v[14],
        interrupts: v[15],
    })
}

fn write_mem(w: &mut Writer, m: &MemSnapshot) {
    w.len(m.words.len());
    for &word in &m.words {
        w.u16(word);
    }
    w.len(m.locked.len());
    for &addr in &m.locked {
        w.u16(addr);
    }
    w.u64(m.stats.bank_reads);
    w.u64(m.stats.bank_writes);
    w.u64(m.stats.broadcast_extra);
    w.len(m.per_bank.len());
    for &count in &m.per_bank {
        w.u64(count);
    }
}

fn read_mem(r: &mut Reader) -> Result<MemSnapshot, RestoreError> {
    let nwords = r.len()?;
    let mut words = Vec::with_capacity(nwords.min(1 << 20));
    for _ in 0..nwords {
        words.push(r.u16().ok_or(RestoreError::Truncated)?);
    }
    let nlocked = r.len()?;
    let mut locked = Vec::with_capacity(nlocked.min(1 << 16));
    for _ in 0..nlocked {
        locked.push(r.u16().ok_or(RestoreError::Truncated)?);
    }
    let stats = MemStats {
        bank_reads: r.u64().ok_or(RestoreError::Truncated)?,
        bank_writes: r.u64().ok_or(RestoreError::Truncated)?,
        broadcast_extra: r.u64().ok_or(RestoreError::Truncated)?,
    };
    let nbanks = r.len()?;
    let mut per_bank = Vec::with_capacity(nbanks.min(1 << 10));
    for _ in 0..nbanks {
        per_bank.push(r.u64().ok_or(RestoreError::Truncated)?);
    }
    Ok(MemSnapshot {
        words,
        locked,
        stats,
        per_bank,
    })
}

fn write_ixbar(w: &mut Writer, x: &IXbarSnapshot) {
    w.len(x.rr.len());
    for &p in &x.rr {
        w.u32(p as u32);
    }
    for v in [
        x.stats.requests,
        x.stats.grants,
        x.stats.stalls,
        x.stats.conflict_cycles,
        x.stats.transfers,
    ] {
        w.u64(v);
    }
}

fn read_ixbar(r: &mut Reader) -> Result<IXbarSnapshot, RestoreError> {
    let n = r.len()?;
    let mut rr = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        rr.push(r.u32().ok_or(RestoreError::Truncated)? as usize);
    }
    let mut v = [0u64; 5];
    for slot in &mut v {
        *slot = r.u64().ok_or(RestoreError::Truncated)?;
    }
    Ok(IXbarSnapshot {
        rr,
        stats: IXbarStats {
            requests: v[0],
            grants: v[1],
            stalls: v[2],
            conflict_cycles: v[3],
            transfers: v[4],
        },
    })
}

fn write_dxbar(w: &mut Writer, x: &DXbarSnapshot) {
    w.len(x.rr.len());
    for &p in &x.rr {
        w.u32(p as u32);
    }
    w.len(x.held_pc.len());
    for held in &x.held_pc {
        match held {
            None => w.u8(0),
            Some(pc) => {
                w.u8(1);
                w.u16(*pc);
            }
        }
    }
    for v in [
        x.stats.requests,
        x.stats.grants,
        x.stats.stalls,
        x.stats.conflict_cycles,
        x.stats.holds,
        x.stats.releases,
        x.stats.lock_stalls,
        x.stats.transfers,
    ] {
        w.u64(v);
    }
}

fn read_dxbar(r: &mut Reader) -> Result<DXbarSnapshot, RestoreError> {
    let n = r.len()?;
    let mut rr = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        rr.push(r.u32().ok_or(RestoreError::Truncated)? as usize);
    }
    let nheld = r.len()?;
    let mut held_pc = Vec::with_capacity(nheld.min(64));
    for _ in 0..nheld {
        held_pc.push(match r.u8().ok_or(RestoreError::Truncated)? {
            0 => None,
            1 => Some(r.u16().ok_or(RestoreError::Truncated)?),
            _ => {
                return Err(RestoreError::Corrupt {
                    what: "held pc tag",
                })
            }
        });
    }
    let mut v = [0u64; 8];
    for slot in &mut v {
        *slot = r.u64().ok_or(RestoreError::Truncated)?;
    }
    Ok(DXbarSnapshot {
        rr,
        held_pc,
        stats: DXbarStats {
            requests: v[0],
            grants: v[1],
            stalls: v[2],
            conflict_cycles: v[3],
            holds: v[4],
            releases: v[5],
            lock_stalls: v[6],
            transfers: v[7],
        },
        // The served counts close the body; `from_bytes` reads them there.
        served: Vec::new(),
    })
}

fn write_sync(w: &mut Writer, s: &SyncSnapshot) {
    match s.inflight {
        None => w.u8(0),
        Some((addr, cycles_left, latched)) => {
            w.u8(1);
            w.u16(addr);
            w.u8(cycles_left);
            w.u16(latched);
        }
    }
    w.len(s.batch.len());
    for &(core, check_in) in &s.batch {
        w.u32(core as u32);
        w.u8(check_in as u8);
    }
    for v in [
        s.stats.checkin_requests,
        s.stats.checkout_requests,
        s.stats.batches,
        s.stats.merged,
        s.stats.wakeups,
        s.stats.releases,
        s.stats.busy_cycles,
        s.stats.stalled_requests,
        s.stats.underflows,
    ] {
        w.u64(v);
    }
}

fn read_sync(r: &mut Reader) -> Result<SyncSnapshot, RestoreError> {
    let inflight = match r.u8().ok_or(RestoreError::Truncated)? {
        0 => None,
        1 => {
            let addr = r.u16().ok_or(RestoreError::Truncated)?;
            let cycles_left = r.u8().ok_or(RestoreError::Truncated)?;
            let latched = r.u16().ok_or(RestoreError::Truncated)?;
            Some((addr, cycles_left, latched))
        }
        _ => {
            return Err(RestoreError::Corrupt {
                what: "sync inflight tag",
            })
        }
    };
    let n = r.len()?;
    let mut batch = Vec::with_capacity(n.min(16));
    for _ in 0..n {
        let core = r.u32().ok_or(RestoreError::Truncated)? as usize;
        let check_in = read_bool(r, "sync batch kind")?;
        batch.push((core, check_in));
    }
    let mut v = [0u64; 9];
    for slot in &mut v {
        *slot = r.u64().ok_or(RestoreError::Truncated)?;
    }
    Ok(SyncSnapshot {
        inflight,
        batch,
        stats: SyncStats {
            checkin_requests: v[0],
            checkout_requests: v[1],
            batches: v[2],
            merged: v[3],
            wakeups: v[4],
            releases: v[5],
            busy_cycles: v[6],
            stalled_requests: v[7],
            underflows: v[8],
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Platform;
    use ulp_isa::asm::assemble;

    fn snapshot_mid_run() -> Checkpoint {
        let mut p =
            Platform::new(PlatformConfig::paper_with_sync().with_max_cycles(50_000)).unwrap();
        let program = assemble(
            "       movi r1, #40
             loop:  addi r2, #1
                    addi r1, #-1
                    bne  loop
                    sinc #0
                    halt",
        )
        .unwrap();
        p.load_program(&program);
        match p.run_until(60).unwrap() {
            crate::sim::RunProgress::Paused => {}
            other => panic!("expected a pause, got {other:?}"),
        }
        p.snapshot()
    }

    #[test]
    fn blob_round_trip_is_lossless() {
        let ckpt = snapshot_mid_run();
        let bytes = ckpt.to_bytes();
        let decoded = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, ckpt);
        assert!(ckpt.cycle >= 60, "snapshot taken mid-run");
    }

    #[test]
    fn serializing_into_a_used_buffer_writes_the_same_blob() {
        let ckpt = snapshot_mid_run();
        let mut blob = vec![0xAB; 300_000];
        ckpt.to_bytes_into(&mut blob);
        assert_eq!(blob, ckpt.to_bytes());
        let mut smaller = ckpt.clone();
        smaller.dxbar.served.clear();
        smaller.to_bytes_into(&mut blob);
        assert_eq!(blob, smaller.to_bytes());
        assert_eq!(Checkpoint::from_bytes(&blob).unwrap(), smaller);
    }

    #[test]
    fn bad_magic_schema_and_truncation_are_typed() {
        let ckpt = snapshot_mid_run();
        let bytes = ckpt.to_bytes();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            Checkpoint::from_bytes(&bad_magic),
            Err(RestoreError::Corrupt { what: "magic" })
        );

        let mut bad_schema = bytes.clone();
        bad_schema[4] = 0xEE;
        assert!(matches!(
            Checkpoint::from_bytes(&bad_schema),
            Err(RestoreError::SchemaMismatch { expected, .. })
                if expected == CHECKPOINT_SCHEMA
        ));

        for cut in [3, 10, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(
                Checkpoint::from_bytes(&bytes[..cut]),
                Err(RestoreError::Truncated),
                "cut at {cut}"
            );
        }

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            Checkpoint::from_bytes(&trailing),
            Err(RestoreError::Corrupt {
                what: "trailing bytes"
            })
        );
    }

    #[test]
    fn corrupted_body_fails_the_checksum() {
        let ckpt = snapshot_mid_run();
        let bytes = ckpt.to_bytes();
        // The header is 4 magic + 4 schema + 4 length + 8 checksum = 20
        // bytes; flip one byte of the encoded config and one of the
        // served counts that close the body.
        for at in [21, bytes.len() - 5] {
            let mut bad = bytes.clone();
            bad[at] ^= 0xFF;
            assert_eq!(
                Checkpoint::from_bytes(&bad),
                Err(RestoreError::Corrupt { what: "checksum" }),
                "byte {at}"
            );
        }
    }
}
