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
//! either with interrupts raised at slice boundaries.

use proptest::prelude::*;
use ulp_lockstep::cpu::CoreState;
use ulp_lockstep::isa::{encode, AluOp, Cond, CsrOp, Flags, Instr, Reg, ShiftKind, UnaryOp};
use ulp_lockstep::kernels::{run_benchmark_reusing, Benchmark, CheckpointControl, WorkloadConfig};
use ulp_lockstep::platform::{Platform, PlatformConfig, RunProgress, SimStats};

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

/// `main` behind an interrupt vector table and an `EI`: the reset
/// vector jumps to `ei` and on into `main`, the interrupt vector to a
/// handler that counts in `r7` and returns. `main` must be
/// position-independent (every branch in it is relative).
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
/// with the slices cycled, until every core halts.
fn stepped_with_irqs(mut p: Platform, slices: &[(u64, Option<usize>)]) -> MachineState {
    let cores = p.num_cores();
    for &(len, irq) in slices.iter().cycle() {
        let limit = p.cycle() + len;
        while p.cycle() < limit && !p.all_halted() {
            assert!(p.cycle() < p.config().max_cycles, "reference terminates");
            p.step();
        }
        if p.all_halted() {
            break;
        }
        if let Some(core) = irq {
            p.raise_irq(core % cores);
        }
    }
    capture(&p)
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

fn random_platform(words: &[u16], cores: usize, with_sync: bool) -> Platform {
    let cfg = PlatformConfig::paper(with_sync)
        .with_cores(cores)
        .with_max_cycles(MAX_CYCLES);
    let mut p = Platform::new(cfg).expect("valid config");
    p.load_im(0, words);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary SPMD programs (private, shared-word and same-bank
    /// memory traffic, forward skips and jumps, the cycle counter) give
    /// the same machine under `run()`,
    /// under `run_until` slices and under a `step()` loop, at 2, 4 and 8
    /// cores on both designs.
    #[test]
    fn run_and_sliced_runs_match_a_step_loop(
        body in prop::collection::vec(body_instr(), 1..60),
        slices in prop::collection::vec(1u64..40, 1..6),
    ) {
        let words = build_program(&body);
        for cores in [2usize, 4, 8] {
            for with_sync in [true, false] {
                let reference = stepped(random_platform(&words, cores, with_sync));
                let mut p = random_platform(&words, cores, with_sync);
                let summary = p.run().expect("run terminates");
                prop_assert_eq!(summary.cycles, reference.cycles);
                prop_assert_eq!(
                    &reference, &capture(&p),
                    "run(), cores {} sync {}", cores, with_sync
                );
                let subject = sliced(random_platform(&words, cores, with_sync), &slices);
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
    /// at 2, 4 and 8 cores on both designs.
    #[test]
    fn listing1_programs_match_a_step_loop(
        program in listing1(),
        slices in prop::collection::vec(1u64..40, 1..6),
    ) {
        let words = encode_all(&program);
        for cores in [2usize, 4, 8] {
            for with_sync in [true, false] {
                let reference = stepped(random_platform(&words, cores, with_sync));
                let mut p = random_platform(&words, cores, with_sync);
                p.run().expect("run terminates");
                prop_assert_eq!(
                    &reference, &capture(&p),
                    "run(), cores {} sync {}", cores, with_sync
                );
                let subject = sliced(random_platform(&words, cores, with_sync), &slices);
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
    /// interrupt pending until the synchronizer wakes them.
    #[test]
    fn interrupts_at_slice_boundaries_match_a_step_loop(
        main in prop_oneof![
            prop::collection::vec(body_instr(), 1..40).prop_map(|body| spmd_program(&body)),
            listing1(),
        ],
        slices in prop::collection::vec((1u64..40, prop::sample::select(&[None, Some(0usize), Some(1), Some(2), Some(5), Some(7)][..])), 1..8),
    ) {
        let words = with_interrupts(&main);
        for cores in [2usize, 8] {
            for with_sync in [true, false] {
                let reference = stepped_with_irqs(random_platform(&words, cores, with_sync), &slices);
                let subject = sliced_with_irqs(random_platform(&words, cores, with_sync), &slices);
                prop_assert_eq!(
                    &reference, &subject,
                    "slices {:?}, cores {} sync {}", slices, cores, with_sync
                );
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
