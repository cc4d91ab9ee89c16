//! Differential testing of the lockstep fast path: an unobserved `run()`
//! batches uniform lockstep runs of every op but the synchronizer's —
//! ALU ops, loads, stores and branches — while `step()` never does, so a
//! `step()` loop is the reference every run must match bit for bit —
//! registers, flags, PCs, core states, the whole data memory and every
//! [`SimStats`] counter, compared with a plain `==`. The subject is
//! `run()` and `run_until` sliced at random limits, odd ones included, so
//! a slice boundary can fall between the fetch and the execute cycle of a
//! batched op.

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
        .map(|&i| encode(i).expect("instruction encodes"))
        .collect()
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
