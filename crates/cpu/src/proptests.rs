//! Property-based tests of the lockstep group methods: a group's fetch
//! and execute, with the counts its members share charged in one call,
//! are its members' per-core fetch and execute cycles.

use crate::{Core, CoreSnapshot, CoreStateSnapshot, CoreStats};
use proptest::prelude::*;
use ulp_isa::{decode, encode, AluOp, Cond, CsrOp, Flags, Instr, OpClass, Reg, ShiftKind, UnaryOp};

/// Every op a core completes on its own, with no data-memory grant and no
/// synchronizer: each variant with random in-range fields.
fn core_local_op() -> impl Strategy<Value = Instr> {
    (0u8..13, any::<u16>(), any::<u16>()).prop_map(|(variant, a, b)| {
        let reg = |x: u16| Reg::ALL[usize::from(x) % Reg::ALL.len()];
        let imm5 = (a % 32) as i8 - 16;
        let a = usize::from(a);
        match variant {
            0 => Instr::Nop,
            1 => Instr::Alu {
                op: AluOp::ALL[a % AluOp::ALL.len()],
                rd: reg(b),
                rs: reg(b >> 3),
            },
            2 => Instr::AddI {
                rd: reg(b),
                imm: imm5,
            },
            3 => Instr::CmpI {
                rd: reg(b),
                imm: imm5,
            },
            4 => Instr::MovI {
                rd: reg(b),
                imm: a as u8,
            },
            5 => Instr::MovHi {
                rd: reg(b),
                imm: a as u8,
            },
            6 => Instr::Shift {
                kind: ShiftKind::ALL[a % ShiftKind::ALL.len()],
                rd: reg(b),
                amount: (a >> 8) as u8 % 16,
            },
            7 => Instr::Unary {
                op: UnaryOp::ALL[a % UnaryOp::ALL.len()],
                rd: reg(b),
            },
            8 => Instr::Branch {
                cond: Cond::ALL[a % Cond::ALL.len()],
                offset: (b % 256) as i16 - 128,
            },
            9 => Instr::Jal {
                offset: (b % 2048) as i16 - 1024,
            },
            10 => Instr::Jr { rs: reg(b) },
            11 => Instr::Jalr { rs: reg(b) },
            _ => Instr::Csr {
                op: CsrOp::ALL[a % CsrOp::ALL.len()],
                rd: reg(b),
            },
        }
    })
}

/// Every op a lockstep group executes: a core-local op, or a memory op,
/// each variant with random in-range fields.
fn group_op() -> impl Strategy<Value = Instr> {
    let memory_op = (0u8..4, any::<u16>()).prop_map(|(variant, a)| {
        let reg = |x: u16| Reg::ALL[usize::from(x) % Reg::ALL.len()];
        let (rd, base, offset) = (reg(a), reg(a >> 3), (a >> 6) as i8 % 16);
        match variant {
            0 => Instr::Ld { rd, base, offset },
            1 => Instr::St {
                rs: rd,
                base,
                offset,
            },
            2 => Instr::LdP { rd, base },
            _ => Instr::StP { rs: rd, base },
        }
    });
    (0u8..5, core_local_op(), memory_op).prop_map(|(pick, local, memory)| match pick {
        0 => memory,
        _ => local,
    })
}

/// One core's architectural state: registers, PC, a status byte (flags
/// in the low nibble, interrupt enable in bit 4, saved flags in bits
/// 5-7, a pending interrupt in bit 7), fetch-stall cycles, and a seed for
/// its other counters. The stall cycles make the core's cycle count, which
/// `RDCYC` reads, arbitrary.
type Lane = (Vec<u16>, u16, u8, u32, u32);

fn lane() -> impl Strategy<Value = Lane> {
    (
        prop::collection::vec(any::<u16>(), 8),
        any::<u16>(),
        any::<u8>(),
        any::<u32>(),
        any::<u32>(),
    )
}

/// A core in `state` with the state drawn in `lane`.
fn core(id: usize, lane: &Lane, state: CoreStateSnapshot) -> Core {
    let (regs, pc, flags, stalls, seed) = lane;
    let seed = u64::from(*seed);
    let stats = CoreStats {
        retired: seed,
        useful_ops: seed / 2,
        active_cycles: seed * 3,
        fetch_stall_cycles: u64::from(*stalls),
        branches_taken: seed / 5,
        branches_not_taken: seed / 7,
        ..CoreStats::default()
    };
    let mut core = Core::new(id as u8);
    let snapshot = CoreSnapshot {
        id: id as u8,
        regs: regs.as_slice().try_into().expect("eight registers"),
        pc: *pc,
        flags: u16::from(*flags & 0xF),
        ie: flags & 0x10 != 0,
        rsync: pc.rotate_left(5),
        epc: pc.rotate_left(9),
        eflags: u16::from(flags >> 5),
        irq_pending: flags & 0x80 != 0,
        sleep_from_sync: false,
        state,
        cycles: stats.total_cycles(),
        stats,
        error: None,
    };
    assert!(core.load_snapshot(&snapshot), "valid snapshot");
    core
}

/// Runs one group fetch and execute and the per-core reference on the same
/// cores; returns both sides' snapshots. The members start in their fetch
/// phase. The group side charges the counts its members share first, as
/// the platform does before an op that may read them, then runs
/// `execute_group`; the reference grants each member the fetch and, for a
/// core-local op, completes its execute cycle.
fn both_sides(
    op: Instr,
    members: u32,
    lanes: &[Lane],
    others: &[CoreStateSnapshot],
) -> (Vec<CoreSnapshot>, Vec<CoreSnapshot>) {
    let word = encode(op).expect("in-range fields encode");
    // The op as the core decodes it (encoding drops unused operands).
    let op = decode(word).expect("encoded words decode");
    let cores: Vec<Core> = lanes
        .iter()
        .enumerate()
        .map(|(i, lane)| {
            let state = if members & 1 << i != 0 {
                CoreStateSnapshot::Fetch
            } else {
                others[i % others.len()]
            };
            core(i, lane, state)
        })
        .collect();
    let memory_op = op.op_class() == OpClass::Mem;
    let executed = u64::from(!memory_op);
    let shared = CoreStats {
        fetches: 1,
        active_cycles: 1 + executed,
        retired: executed,
        useful_ops: executed * u64::from(op.is_useful_op()),
        ..CoreStats::default()
    };
    let mut grouped = cores.clone();
    Core::charge_group(&mut grouped, members, &shared);
    Core::execute_group(&mut grouped, members, op);
    let mut per_core = cores;
    for (i, core) in per_core.iter_mut().enumerate() {
        if members & 1 << i != 0 {
            core.on_fetch_granted(word).expect("encoded words decode");
            if !memory_op {
                core.complete_execute(None);
            }
        }
    }
    (
        grouped.iter().map(Core::save).collect(),
        per_core.iter().map(Core::save).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `charge_group` and `execute_group` equal `on_fetch_granted` and,
    /// for a core-local op, `complete_execute(None)` on each member, for
    /// every core-local and memory op over random registers, flags, PCs,
    /// cycle counts and member masks, and leave every other core
    /// untouched.
    #[test]
    fn group_execute_is_per_core_execute(
        op in group_op(),
        lanes in prop::collection::vec(lane(), 1..=16),
        members in any::<u32>(),
        other_op in core_local_op(),
    ) {
        let members = members & ((1u64 << lanes.len()) - 1) as u32;
        let others = [
            CoreStateSnapshot::Fetch,
            CoreStateSnapshot::Execute(encode(other_op).expect("encodes")),
            CoreStateSnapshot::Sleeping,
            CoreStateSnapshot::Halted,
        ];
        let before: Vec<CoreSnapshot> = lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| core(i, lane, others[i % others.len()]).save())
            .collect();
        let (grouped, per_core) = both_sides(op, members, &lanes, &others);
        prop_assert_eq!(&grouped, &per_core, "{:?} over members {:#x}", op, members);
        for (i, snapshot) in grouped.iter().enumerate() {
            if members & 1 << i == 0 {
                prop_assert_eq!(snapshot, &before[i], "non-member {} touched", i);
            }
        }
    }
}

/// Lanes whose flags differ, so one conditional branch is taken by some
/// members and not by others, and whose fetch-stall cycles differ, so
/// `RDCYC` reads a different cycle count on each member.
#[test]
fn group_execute_splits_branches_and_reads_each_cycle_count() {
    let lanes: Vec<Lane> = (0..8u8)
        .map(|i| {
            let z = u8::from(Flags::from_bits(u16::from(i)).z);
            (vec![u16::from(i) * 3; 8], 40, z, 1000 + u32::from(i), 7)
        })
        .collect();
    let others = [CoreStateSnapshot::Fetch];
    let members = 0b1011_0111;
    let branch = Instr::Branch {
        cond: Cond::Eq,
        offset: -9,
    };
    let (grouped, per_core) = both_sides(branch, members, &lanes, &others);
    assert_eq!(grouped, per_core);
    let taken = grouped.iter().filter(|c| c.pc == 40 + 1 - 9).count();
    let not_taken = grouped.iter().filter(|c| c.pc == 41).count();
    assert!(taken > 0 && not_taken > 0, "the branch splits the group");
    for op in [
        Instr::Jal { offset: 100 },
        Instr::Jr { rs: Reg::R2 },
        Instr::Jalr { rs: Reg::LR },
        Instr::Csr {
            op: CsrOp::RdCyc,
            rd: Reg::R1,
        },
    ] {
        let (grouped, per_core) = both_sides(op, members, &lanes, &others);
        assert_eq!(grouped, per_core, "{op:?}");
    }
    let rdcyc = Instr::Csr {
        op: CsrOp::RdCyc,
        rd: Reg::R1,
    };
    let (grouped, _) = both_sides(rdcyc, members, &lanes, &others);
    // Member 1: 1,001 stall cycles, 7 * 3 active ones, then the fetch and
    // the execute cycle of the RDCYC itself.
    assert_eq!(
        grouped[1].regs[1],
        1001 + 21 + 2,
        "RDCYC reads the member's own count"
    );
}
