//! Differential testing of the batched fast path: an unobserved `run()`
//! batches every cycle in which the cores only fetch, execute ops other
//! than the synchronizer's — ALU ops, loads, stores and branches — or
//! sleep, however many PCs they are split across, while `step()` never
//! batches, so a `step()` loop is the reference every run must match bit
//! for bit — registers, flags, PCs, core states, the whole data memory
//! and every [`SimStats`] counter, compared with a plain `==`. The
//! subject is `run()` and `run_until` sliced at random limits, odd ones
//! included, so a slice boundary can fall between the fetch and the
//! execute cycle of a batched op. The programs are random SPMD bodies,
//! the paper's Listing-1 shape (`SINC`/`SDEC` barriers around
//! data-dependent spins, so cores sleep beside running groups), and
//! either with interrupts raised at slice boundaries. Each random case
//! draws the IM bank mapping too: interleaved IM puts consecutive words
//! in different banks, so cycles serve fetch groups in several banks at
//! once. A last property holds the DM bank heat map sampled from the
//! D-Xbar's served counter, with the batch on and a checkpoint move on
//! the way, equal to a reference observer's rows from a `step()` loop.

use proptest::prelude::*;
use std::ops::Range;
use ulp_lockstep::cpu::{Core, CoreState};
use ulp_lockstep::isa::{encode, AluOp, Cond, CsrOp, Flags, Instr, Reg, ShiftKind, UnaryOp};
use ulp_lockstep::kernels::{run_benchmark_reusing, Benchmark, CheckpointControl, WorkloadConfig};
use ulp_lockstep::mem::{BankMapping, DmRequest};
use ulp_lockstep::platform::{
    Checkpoint, Observer, Platform, PlatformConfig, RunProgress, SimStats,
};

/// Cycle budget of the random programs (far above what they need).
const MAX_CYCLES: u64 = 2_000_000;

/// Strategy: one instruction of an SPMD body. Only forward skips and
/// jumps (offset 0 or 1) so every program terminates. Loads and stores
/// reach every D-Xbar outcome through three base registers the prologue
/// sets up: `r2` points at the core's private DM bank (no conflict), `r5`
/// at one word shared by every core (broadcast reads, writes to one
/// word) and `r6` at a per-core word of one shared bank (same-bank
/// conflicts: stalls, and SyncAware holds and releases).
fn body_instr() -> impl Strategy<Value = Instr> {
    // `r7` is also the link register `jal` writes.
    let reg = || prop::sample::select(&[Reg::R0, Reg::R1, Reg::R3, Reg::R4, Reg::R7][..]);
    let base = || prop::sample::select(&[Reg::R2, Reg::R5, Reg::R6][..]);
    prop_oneof![
        (prop::sample::select(&AluOp::ALL[..]), reg(), reg()).prop_map(|(op, rd, rs)| Instr::Alu {
            op,
            rd,
            rs
        }),
        (reg(), -16i8..=15).prop_map(|(rd, imm)| Instr::AddI { rd, imm }),
        (reg(), -16i8..=15).prop_map(|(rd, imm)| Instr::CmpI { rd, imm }),
        (reg(), any::<u8>()).prop_map(|(rd, imm)| Instr::MovI { rd, imm }),
        (reg(), any::<u8>()).prop_map(|(rd, imm)| Instr::MovHi { rd, imm }),
        (prop::sample::select(&ShiftKind::ALL[..]), reg(), 0u8..=15)
            .prop_map(|(kind, rd, amount)| Instr::Shift { kind, rd, amount }),
        (prop::sample::select(&UnaryOp::ALL[..]), reg())
            .prop_map(|(op, rd)| Instr::Unary { op, rd }),
        // The core cycle counter differs from core to core once they
        // diverge, and advances inside a batch exactly as when stepped.
        reg().prop_map(|rd| Instr::Csr {
            op: CsrOp::RdCyc,
            rd
        }),
        (reg(), base(), 0i8..=15).prop_map(|(rd, base, offset)| Instr::Ld { rd, base, offset }),
        (reg(), base(), 0i8..=15).prop_map(|(rs, base, offset)| Instr::St { rs, base, offset }),
        // Forward-only conditional skips give the cores data-dependent
        // divergence, so batches start, stop and restart mid-program.
        (prop::sample::select(&Cond::ALL[..]), 0i16..=1)
            .prop_map(|(cond, offset)| Instr::Branch { cond, offset }),
        (0i16..=1).prop_map(|offset| Instr::Jal { offset }),
        Just(Instr::Nop),
    ]
}

/// Prologue `r2 = id << 11` (private bank base), `r5 = 0x4000` (a word
/// of DM bank 8 every core shares) and `r6 = 0x5000 + id` (a distinct
/// word of DM bank 10 per core), then the body, then HALT. The trailing
/// NOP guarantees a skip over HALT still lands on code.
fn build_program(body: &[Instr]) -> Vec<u16> {
    encode_all(&spmd_program(body))
}

fn encode_all(program: &[Instr]) -> Vec<u16> {
    program
        .iter()
        .map(|&i| encode(i).expect("instruction encodes"))
        .collect()
}

/// [`build_program`] before encoding.
fn spmd_program(body: &[Instr]) -> Vec<Instr> {
    let prologue = [
        Instr::Csr {
            op: CsrOp::RdId,
            rd: Reg::R2,
        },
        Instr::Shift {
            kind: ShiftKind::Shl,
            rd: Reg::R2,
            amount: 11,
        },
        Instr::MovI {
            rd: Reg::R5,
            imm: 0,
        },
        Instr::MovHi {
            rd: Reg::R5,
            imm: 0x40,
        },
        Instr::Csr {
            op: CsrOp::RdId,
            rd: Reg::R6,
        },
        Instr::MovHi {
            rd: Reg::R6,
            imm: 0x50,
        },
    ];
    let epilogue = [Instr::Halt, Instr::Nop, Instr::Halt];
    prologue
        .iter()
        .chain(body)
        .chain(&epilogue)
        .copied()
        .collect()
}

/// Strategy: one instruction of a Listing-1 section body. It writes only
/// `r0`, `r3` and `r7` (the loop structure owns the other registers),
/// reads the core id and the rolling value too, reaches memory only in
/// the core's private bank through `r2`, and skips only forward, so the
/// barrier structure around it stays intact.
fn section_instr() -> impl Strategy<Value = Instr> {
    let rd = || prop::sample::select(&[Reg::R0, Reg::R3, Reg::R7][..]);
    let rs = || prop::sample::select(&[Reg::R0, Reg::R1, Reg::R3, Reg::R4, Reg::R7][..]);
    prop_oneof![
        (prop::sample::select(&AluOp::ALL[..]), rd(), rs()).prop_map(|(op, rd, rs)| Instr::Alu {
            op,
            rd,
            rs
        }),
        (rd(), -16i8..=15).prop_map(|(rd, imm)| Instr::AddI { rd, imm }),
        (rd(), any::<u8>()).prop_map(|(rd, imm)| Instr::MovI { rd, imm }),
        rd().prop_map(|rd| Instr::Csr {
            op: CsrOp::RdCyc,
            rd
        }),
        (rd(), 0i8..=15).prop_map(|(rd, offset)| Instr::Ld {
            rd,
            base: Reg::R2,
            offset
        }),
        (rs(), 0i8..=15).prop_map(|(rs, offset)| Instr::St {
            rs,
            base: Reg::R2,
            offset
        }),
        (prop::sample::select(&Cond::ALL[..]), 0i16..=1)
            .prop_map(|(cond, offset)| Instr::Branch { cond, offset }),
        Just(Instr::Nop),
    ]
}

/// The paper's Listing-1 pattern (`examples/quickstart.rs`): `iters`
/// times, check in with `SINC`, run `pre`, spin `(value & mask) + 1`
/// rounds on a rolling per-core value that starts at the core id and
/// grows by the id plus `step`, run `post`, and check out with `SDEC`,
/// which puts the early cores to sleep until the last one is out (the
/// baseline design runs both as NOPs). Each body ends in a NOP, so a
/// skip at its end never skips the structure.
fn listing1_program(iters: u8, step: i8, mask: u8, pre: &[Instr], post: &[Instr]) -> Vec<Instr> {
    let mov = |rd, rs| Instr::Alu {
        op: AluOp::Mov,
        rd,
        rs,
    };
    let mut p = vec![
        Instr::Csr {
            op: CsrOp::RdId,
            rd: Reg::R1,
        },
        mov(Reg::R2, Reg::R1),
        Instr::Shift {
            kind: ShiftKind::Shl,
            rd: Reg::R2,
            amount: 11,
        },
        // RSYNC = 18432, the sync array in DM bank 9.
        Instr::MovI {
            rd: Reg::R3,
            imm: 0,
        },
        Instr::MovHi {
            rd: Reg::R3,
            imm: 0x48,
        },
        Instr::Csr {
            op: CsrOp::WrSync,
            rd: Reg::R3,
        },
        mov(Reg::R4, Reg::R1),
        Instr::MovI {
            rd: Reg::R6,
            imm: iters,
        },
    ];
    let back = |from: usize, to: usize| (to as i16) - (from as i16 + 1);
    let top = p.len();
    p.push(Instr::Sinc { index: 0 });
    p.extend_from_slice(pre);
    p.push(Instr::Nop);
    p.extend([
        Instr::Alu {
            op: AluOp::Add,
            rd: Reg::R4,
            rs: Reg::R1,
        },
        Instr::AddI {
            rd: Reg::R4,
            imm: step,
        },
        mov(Reg::R5, Reg::R4),
        Instr::MovI {
            rd: Reg::R0,
            imm: mask,
        },
        Instr::Alu {
            op: AluOp::And,
            rd: Reg::R5,
            rs: Reg::R0,
        },
        Instr::AddI {
            rd: Reg::R5,
            imm: 1,
        },
    ]);
    let spin = p.len();
    p.push(Instr::AddI {
        rd: Reg::R5,
        imm: -1,
    });
    p.push(Instr::Branch {
        cond: Cond::Ne,
        offset: back(p.len(), spin),
    });
    p.extend_from_slice(post);
    p.push(Instr::Nop);
    p.push(Instr::Sdec { index: 0 });
    p.push(Instr::AddI {
        rd: Reg::R6,
        imm: -1,
    });
    p.push(Instr::Branch {
        cond: Cond::Ne,
        offset: back(p.len(), top),
    });
    p.push(Instr::Halt);
    p
}

/// Strategy: a Listing-1 program.
fn listing1() -> impl Strategy<Value = Vec<Instr>> {
    (
        1u8..=5,
        -16i8..=15,
        prop::sample::select(&[1u8, 3, 7, 15][..]),
        prop::collection::vec(section_instr(), 0..8),
        prop::collection::vec(section_instr(), 0..8),
    )
        .prop_map(|(iters, step, mask, pre, post)| listing1_program(iters, step, mask, &pre, &post))
}

/// Where [`with_interrupts`] puts `main`.
const MAIN_BASE: u16 = 3;

/// `main` behind an interrupt vector table and an `EI`: the reset
/// vector jumps to `ei` and on into `main` at [`MAIN_BASE`], the
/// interrupt vector to a handler after `main` that counts in `r7` and
/// returns. `main` must be position-independent (every branch in it is
/// relative).
fn with_interrupts(main: &[Instr]) -> Vec<u16> {
    let mut p = vec![
        Instr::Branch {
            cond: Cond::Al,
            offset: 1,
        },
        Instr::Branch {
            cond: Cond::Al,
            offset: main.len() as i16 + 1,
        },
        Instr::Csr {
            op: CsrOp::Ei,
            rd: Reg::R0,
        },
    ];
    p.extend_from_slice(main);
    p.push(Instr::AddI {
        rd: Reg::R7,
        imm: 1,
    });
    p.push(Instr::Csr {
        op: CsrOp::Iret,
        rd: Reg::R0,
    });
    encode_all(&p)
}

/// Full machine state, captured for bit-exact comparison.
#[derive(Debug, PartialEq)]
struct MachineState {
    cycles: u64,
    stats: SimStats,
    regs: Vec<Vec<u16>>,
    pcs: Vec<u16>,
    flags: Vec<Flags>,
    states: Vec<CoreState>,
    dm: Vec<u16>,
}

fn capture(p: &Platform) -> MachineState {
    let cores = p.num_cores();
    MachineState {
        cycles: p.cycle(),
        stats: p.stats(),
        regs: (0..cores)
            .map(|i| Reg::ALL.iter().map(|&r| p.core(i).reg(r)).collect())
            .collect(),
        pcs: (0..cores).map(|i| p.core(i).pc()).collect(),
        flags: (0..cores).map(|i| p.core(i).flags()).collect(),
        states: (0..cores).map(|i| p.core(i).state()).collect(),
        dm: p.dm_slice(0, p.config().dm_words),
    }
}

/// The reference: one `step()` per cycle until every core halts.
fn stepped(mut p: Platform) -> MachineState {
    while !p.all_halted() {
        assert!(p.cycle() < p.config().max_cycles, "reference terminates");
        p.step();
    }
    capture(&p)
}

/// The reference with interrupts: a `step()` loop that raises core
/// `irq % cores`'s interrupt line at the end of every slice that has one,
/// with the slices cycled, until every core halts. `main` is where
/// [`with_interrupts`] put the program.
///
/// `None` when the slices livelock the machine: after some core took an
/// interrupt, a whole slice cycle passes in which no core runs an
/// instruction of `main`. A line raised during a handler is taken right
/// after its `iret`, so a core interrupted more often than its handler
/// round trip takes never runs its program again. Once every other core
/// has halted or sleeps at a barrier it waits on, nothing in `main` runs
/// and such a run never ends. A core merely slowed by its handler still
/// lets the others run, so it is not taken for a livelock.
fn stepped_with_irqs(
    mut p: Platform,
    slices: &[(u64, Option<usize>)],
    main: Range<u16>,
) -> Option<MachineState> {
    let cores = p.num_cores();
    loop {
        let interrupted = (0..cores).any(|i| p.core(i).stats().interrupts > 0);
        let mut ran = false;
        for &(len, irq) in slices {
            let limit = p.cycle() + len;
            while p.cycle() < limit && !p.all_halted() {
                assert!(p.cycle() < p.config().max_cycles, "reference terminates");
                p.step();
                // The PC stays on an instruction until it completes, so a
                // core executing at a PC in `main` runs the program.
                ran |= (0..cores).any(|i| {
                    let core = p.core(i);
                    matches!(
                        core.state(),
                        CoreState::Execute(_) | CoreState::Held { .. } | CoreState::SyncIssued(_)
                    ) && main.contains(&core.pc())
                });
            }
            if p.all_halted() {
                return Some(capture(&p));
            }
            if let Some(core) = irq {
                p.raise_irq(core % cores);
            }
        }
        if interrupted && !ran {
            return None;
        }
    }
}

/// The subject with interrupts: [`stepped_with_irqs`] driven by
/// `run_until` slices.
fn sliced_with_irqs(mut p: Platform, slices: &[(u64, Option<usize>)]) -> MachineState {
    let cores = p.num_cores();
    for &(len, irq) in slices.iter().cycle() {
        let limit = p.cycle() + len;
        match p.run_until(limit).expect("sliced run succeeds") {
            RunProgress::Done(_) => break,
            RunProgress::Paused => assert_eq!(p.cycle(), limit, "pause lands on the limit"),
        }
        if let Some(core) = irq {
            p.raise_irq(core % cores);
        }
    }
    capture(&p)
}

/// The subject: `run_until` slices of the given lengths (cycled), each
/// pausing exactly on its limit, until the run completes.
fn sliced(mut p: Platform, slices: &[u64]) -> MachineState {
    for &len in slices.iter().cycle() {
        let limit = p.cycle() + len;
        match p.run_until(limit).expect("sliced run succeeds") {
            RunProgress::Done(summary) => {
                assert_eq!(summary.cycles, p.cycle());
                break;
            }
            RunProgress::Paused => assert_eq!(p.cycle(), limit, "pause lands on the limit"),
        }
    }
    capture(&p)
}

/// Strategy: the IM bank mapping, the paper's blocked one or interleaved.
fn im_mapping() -> impl Strategy<Value = BankMapping> {
    prop::sample::select(&[BankMapping::Blocked, BankMapping::Interleaved][..])
}

fn random_platform(words: &[u16], cores: usize, with_sync: bool, im: BankMapping) -> Platform {
    let mut cfg = PlatformConfig::paper(with_sync)
        .with_cores(cores)
        .with_max_cycles(MAX_CYCLES);
    cfg.im_mapping = im;
    let mut p = Platform::new(cfg).expect("valid config");
    p.load_im(0, words);
    p
}

/// The reference DM bank heat map: in each cycle, every D-Xbar grant
/// (completed or held) counts once on the bank of its request; a row
/// closes every `window` cycles, and the trailing partial row closes
/// when the run ends.
struct HeatMapRef {
    banks: usize,
    bank_words: usize,
    mapping: BankMapping,
    window: u64,
    seen: u64,
    current: Vec<u64>,
    rows: Vec<Vec<u64>>,
}

impl HeatMapRef {
    fn new(cfg: &PlatformConfig, window: u64) -> HeatMapRef {
        HeatMapRef {
            banks: cfg.dm_banks,
            bank_words: cfg.dm_words / cfg.dm_banks,
            mapping: cfg.dm_mapping,
            window,
            seen: 0,
            current: vec![0; cfg.dm_banks],
            rows: Vec::new(),
        }
    }

    /// The closed rows, then the partial row if the last window saw any
    /// cycles.
    fn rows(&self) -> Vec<Vec<u64>> {
        let mut rows = self.rows.clone();
        if self.seen > 0 {
            rows.push(self.current.clone());
        }
        rows
    }
}

impl Observer for HeatMapRef {
    fn on_dm(&mut self, _cycle: u64, dm_reqs: &[DmRequest], granted: &[bool]) {
        for r in dm_reqs.iter().filter(|r| granted[r.core]) {
            self.current[self.mapping.bank_of(r.addr, self.banks, self.bank_words)] += 1;
        }
    }

    fn on_cycle_end(&mut self, _cycle: u64, _cores: &[Core]) {
        self.seen += 1;
        if self.seen == self.window {
            self.rows
                .push(std::mem::replace(&mut self.current, vec![0; self.banks]));
            self.seen = 0;
        }
    }
}

/// The reference: a `step()` loop with one [`HeatMapRef`] per window
/// attached. Returns each window's rows.
fn stepped_heat_maps(mut p: Platform, windows: &[u64]) -> Vec<Vec<Vec<u64>>> {
    let handles: Vec<_> = windows
        .iter()
        .map(|&window| p.attach(Box::new(HeatMapRef::new(p.config(), window))))
        .collect();
    while !p.all_halted() {
        assert!(p.cycle() < p.config().max_cycles, "reference terminates");
        p.step();
    }
    handles
        .iter()
        .map(|h| p.observer_as::<HeatMapRef>(h).expect("attached").rows())
        .collect()
}

/// Window lengths for a run of `cycles` cycles: a divisor of it (so the
/// run ends on a row boundary), any length up to it, and one longer than
/// the run.
fn heat_map_windows(cycles: u64, seed: u64) -> [u64; 3] {
    let divisors: Vec<u64> = (1..=cycles).filter(|&d| cycles.is_multiple_of(d)).collect();
    [
        divisors[(seed % divisors.len() as u64) as usize],
        1 + (seed >> 8) % cycles,
        cycles + 1 + (seed >> 16) % cycles,
    ]
}

/// Heat-map rows sampled from the D-Xbar's per-bank served counter with
/// the batch on: `run_until` every multiple of `window`, one row per
/// pause (the counter minus its value at the previous pause), and the
/// trailing row when the run ends. When the run reaches `move_at`, it
/// moves onto a fresh platform through a checkpoint blob.
fn sampled_heat_map(mut p: Platform, window: u64, move_at: u64) -> Vec<Vec<u64>> {
    let mut rows = Vec::new();
    let mut last = vec![0; p.dm_bank_served().len()];
    loop {
        let boundary = (p.cycle() / window + 1) * window;
        let limit = if p.cycle() < move_at {
            boundary.min(move_at)
        } else {
            boundary
        };
        let done = p.run_until(limit).expect("sliced run succeeds").is_done();
        if !done && p.cycle() == move_at {
            let ckpt = Checkpoint::from_bytes(&p.snapshot().to_bytes()).expect("blob decodes");
            p = Platform::new(ckpt.config.clone()).expect("valid config");
            p.restore_from(&ckpt).expect("restores");
        }
        if done || p.cycle() == boundary {
            let served = p.dm_bank_served();
            rows.push(
                served
                    .iter()
                    .zip(&last)
                    .map(|(now, then)| now - then)
                    .collect(),
            );
            if done {
                return rows;
            }
            last = served.to_vec();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary SPMD programs (private, shared-word and same-bank
    /// memory traffic, forward skips and jumps, the cycle counter) give
    /// the same machine under `run()`,
    /// under `run_until` slices and under a `step()` loop, at 2, 4 and 8
    /// cores on both designs, on either IM bank mapping.
    #[test]
    fn run_and_sliced_runs_match_a_step_loop(
        body in prop::collection::vec(body_instr(), 1..60),
        slices in prop::collection::vec(1u64..40, 1..6),
        im in im_mapping(),
    ) {
        let words = build_program(&body);
        for cores in [2usize, 4, 8] {
            for with_sync in [true, false] {
                let reference = stepped(random_platform(&words, cores, with_sync, im));
                let mut p = random_platform(&words, cores, with_sync, im);
                let summary = p.run().expect("run terminates");
                prop_assert_eq!(summary.cycles, reference.cycles);
                prop_assert_eq!(
                    &reference, &capture(&p),
                    "run(), cores {} sync {}", cores, with_sync
                );
                let subject = sliced(random_platform(&words, cores, with_sync, im), &slices);
                prop_assert_eq!(
                    &reference, &subject,
                    "run_until {:?}, cores {} sync {}", slices, cores, with_sync
                );
            }
        }
    }

    /// Listing-1 programs — barriers around data-dependent spins, so
    /// cores sleep at the check-out beside groups still spinning, and the
    /// spinning groups split and merge across PCs — give the same machine
    /// under `run()`, under `run_until` slices and under a `step()` loop,
    /// at 2, 4 and 8 cores on both designs, on either IM bank mapping.
    #[test]
    fn listing1_programs_match_a_step_loop(
        program in listing1(),
        slices in prop::collection::vec(1u64..40, 1..6),
        im in im_mapping(),
    ) {
        let words = encode_all(&program);
        for cores in [2usize, 4, 8] {
            for with_sync in [true, false] {
                let reference = stepped(random_platform(&words, cores, with_sync, im));
                let mut p = random_platform(&words, cores, with_sync, im);
                p.run().expect("run terminates");
                prop_assert_eq!(
                    &reference, &capture(&p),
                    "run(), cores {} sync {}", cores, with_sync
                );
                let subject = sliced(random_platform(&words, cores, with_sync, im), &slices);
                prop_assert_eq!(
                    &reference, &subject,
                    "run_until {:?}, cores {} sync {}", slices, cores, with_sync
                );
            }
        }
    }

    /// Interrupts raised on random cores at random slice boundaries, with
    /// interrupts enabled from the start, land on the same cycles under
    /// `run_until` slices as under a `step()` loop: on random SPMD bodies
    /// and on Listing-1 programs, whose barrier sleepers keep a raised
    /// interrupt pending until the synchronizer wakes them. Runs that the
    /// slice list livelocks (see [`stepped_with_irqs`]) are skipped.
    #[test]
    fn interrupts_at_slice_boundaries_match_a_step_loop(
        main in prop_oneof![
            prop::collection::vec(body_instr(), 1..40).prop_map(|body| spmd_program(&body)),
            listing1(),
        ],
        slices in prop::collection::vec((1u64..40, prop::sample::select(&[None, Some(0usize), Some(1), Some(2), Some(5), Some(7)][..])), 1..8),
        im in im_mapping(),
    ) {
        let words = with_interrupts(&main);
        let main = MAIN_BASE..MAIN_BASE + main.len() as u16;
        for cores in [2usize, 8] {
            for with_sync in [true, false] {
                let platform = || random_platform(&words, cores, with_sync, im);
                // A livelocked run has no end to compare.
                let Some(reference) = stepped_with_irqs(platform(), &slices, main.clone()) else {
                    continue;
                };
                let subject = sliced_with_irqs(platform(), &slices);
                prop_assert_eq!(
                    &reference, &subject,
                    "slices {:?}, cores {} sync {}", slices, cores, with_sync
                );
            }
        }
    }
    /// Heat-map rows sampled from the D-Xbar's served counter, with the
    /// batch on and the run moved through a checkpoint blob at a random
    /// cycle, equal a reference observer's rows from a `step()` loop: on
    /// random SPMD bodies (private, broadcast and same-bank traffic, so
    /// SyncAware holds too) and on Listing-1 programs (whose synchronizer
    /// read-modify-writes bypass the D-Xbar), at 2, 4 and 8 cores on both
    /// designs, for windows that divide the run, that need not, and that
    /// are longer than the run.
    #[test]
    fn served_counter_rows_match_a_stepped_heat_map(
        main in prop_oneof![
            prop::collection::vec(body_instr(), 1..60).prop_map(|body| spmd_program(&body)),
            listing1(),
        ],
        seed in any::<u64>(),
        im in im_mapping(),
    ) {
        let words = encode_all(&main);
        for cores in [2usize, 4, 8] {
            for with_sync in [true, false] {
                let platform = || random_platform(&words, cores, with_sync, im);
                let cycles = platform().run().expect("run terminates").cycles;
                let windows = heat_map_windows(cycles, seed);
                let reference = stepped_heat_maps(platform(), &windows);
                let move_at = 1 + (seed >> 24) % cycles;
                for (&window, rows) in windows.iter().zip(&reference) {
                    prop_assert_eq!(rows.len() as u64, cycles.div_ceil(window));
                    prop_assert_eq!(
                        rows, &sampled_heat_map(platform(), window, move_at),
                        "window {} move at {}, cores {} sync {}", window, move_at, cores, with_sync
                    );
                }
            }
        }
    }
}

/// A paper kernel loaded and stopped after its first cycle, through the
/// kernels crate's own loader.
fn loaded_kernel(benchmark: Benchmark, cores: usize, with_sync: bool) -> Platform {
    let workload = WorkloadConfig::quick_test();
    let cfg = PlatformConfig::paper(with_sync)
        .with_cores(cores)
        .with_max_cycles(workload.max_cycles);
    let mut p = Platform::new(cfg).expect("valid config");
    let parked = run_benchmark_reusing(benchmark, &mut p, &workload, None, 1, |_| {
        CheckpointControl::Park
    })
    .expect("first cycle runs");
    assert!(parked.is_none(), "{benchmark} parked after one cycle");
    p
}

/// The paper's three kernels on both designs at 2, 4 and 8 cores: `run()`
/// and `run_until` slices of odd lengths reproduce the `step()` loop's
/// machine exactly, outputs included (they live in the compared DM).
#[test]
fn paper_kernels_match_a_step_loop() {
    for benchmark in Benchmark::ALL {
        for cores in [2usize, 4, 8] {
            for with_sync in [true, false] {
                let start = loaded_kernel(benchmark, cores, with_sync).snapshot();
                let fresh = || Platform::restore(&start).expect("restores");
                let reference = stepped(fresh());
                let mut p = fresh();
                p.run().expect("kernel runs");
                let what = format!("{benchmark} cores {cores} sync {with_sync}");
                assert_eq!(reference, capture(&p), "run(): {what}");
                assert_eq!(
                    reference,
                    sliced(fresh(), &[997, 3, 1]),
                    "run_until: {what}"
                );
            }
        }
    }
}
