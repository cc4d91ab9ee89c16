//! Property-based tests of the lockstep group methods: a group's execute
//! cycle is its members' per-core execute cycles.

use crate::{Core, CoreSnapshot, CoreStateSnapshot, CoreStats};
use proptest::prelude::*;
use ulp_isa::{decode, encode, AluOp, Cond, CsrOp, Flags, Instr, Reg, ShiftKind, UnaryOp};

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

/// One core's architectural state: registers, PC, a status byte (flags
/// in the low nibble, interrupt enable in bit 4, saved flags in bits
/// 5-7, a pending interrupt in bit 7), cycle count, and a seed for its
/// counters.
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
    let (regs, pc, flags, cycles, seed) = lane;
    let seed = u64::from(*seed);
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
        cycles: u64::from(*cycles),
        stats: CoreStats {
            retired: seed,
            useful_ops: seed / 2,
            active_cycles: seed * 3,
            branches_taken: seed / 5,
            branches_not_taken: seed / 7,
            ..CoreStats::default()
        },
        error: None,
    };
    assert!(core.load_snapshot(&snapshot), "valid snapshot");
    core
}

/// Runs one group execute and the per-core reference on the same cores;
/// returns both sides' snapshots.
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
                CoreStateSnapshot::Execute(word)
            } else {
                others[i % others.len()]
            };
            core(i, lane, state)
        })
        .collect();
    let mut grouped = cores.clone();
    Core::execute_group(&mut grouped, members, op);
    let mut per_core = cores;
    for (i, core) in per_core.iter_mut().enumerate() {
        if members & 1 << i != 0 {
            core.complete_execute(None);
        }
    }
    (
        grouped.iter().map(Core::save).collect(),
        per_core.iter().map(Core::save).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `execute_group` equals `complete_execute(None)` on each member, for
    /// every core-local op over random registers, flags, PCs, cycle
    /// counts and member masks, and leaves every other core untouched.
    #[test]
    fn group_execute_is_per_core_execute(
        op in core_local_op(),
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
/// members and not by others, and whose cycle counts differ, so `RDCYC`
/// reads a different value on each member.
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
    assert_eq!(
        grouped[1].regs[1], 1002,
        "RDCYC reads the member's own count"
    );
}
