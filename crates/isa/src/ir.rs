//! Instruction classes for the simulator's batched fast path.
//!
//! The interpreter decodes every instruction word on every fetch. The
//! platform's batch instead takes each op, decoded once per loaded word,
//! for a whole group of cores at one PC, and runs the cycles that follow.
//! [`OpClass`] tells it, without further inspection, what each op needs:
//! nothing beyond the core, the data crossbar, a PC known only after
//! execution, or the synchronizer. A batch carries the first three and
//! leaves [`OpClass::Boundary`] to the full cycle machinery.

use crate::instr::{CsrOp, Instr};

/// How an instruction interacts with the rest of the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Core-local: touches only registers, flags and the sequential PC.
    Pure,
    /// A data-memory access (`LD`/`ST`/`LDP`/`STP`): goes through the
    /// D-Xbar, where it may conflict or hit a synchronizer-locked word, so
    /// a lockstep group may leave it split.
    Mem,
    /// Redirects the PC (`B<cond>`/`JAL`/`JR`/`JALR`/`IRET`): core-local,
    /// but the next PC is only known once it has executed, and may differ
    /// from core to core.
    Control,
    /// Involves the synchronizer, the sleep/wake machinery or run
    /// termination (`SINC`/`SDEC`/`SLEEP`/`HALT`): never batched.
    Boundary,
}

impl Instr {
    /// The instruction's [`OpClass`].
    pub fn op_class(self) -> OpClass {
        match self {
            Instr::Ld { .. } | Instr::St { .. } | Instr::LdP { .. } | Instr::StP { .. } => {
                OpClass::Mem
            }
            Instr::Branch { .. }
            | Instr::Jal { .. }
            | Instr::Jr { .. }
            | Instr::Jalr { .. }
            | Instr::Csr {
                op: CsrOp::Iret, ..
            } => OpClass::Control,
            Instr::Sinc { .. } | Instr::Sdec { .. } | Instr::Sleep | Instr::Halt => {
                OpClass::Boundary
            }
            Instr::Nop
            | Instr::Alu { .. }
            | Instr::AddI { .. }
            | Instr::CmpI { .. }
            | Instr::MovI { .. }
            | Instr::MovHi { .. }
            | Instr::Shift { .. }
            | Instr::Unary { .. }
            | Instr::Csr { .. } => OpClass::Pure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::Cond;
    use crate::reg::Reg;

    #[test]
    fn classes_partition_the_isa() {
        assert_eq!(Instr::Nop.op_class(), OpClass::Pure);
        assert_eq!(
            Instr::Ld {
                rd: Reg::R0,
                base: Reg::R1,
                offset: 0
            }
            .op_class(),
            OpClass::Mem
        );
        assert_eq!(
            Instr::Branch {
                cond: Cond::Al,
                offset: -1
            }
            .op_class(),
            OpClass::Control
        );
        assert_eq!(
            Instr::Csr {
                op: CsrOp::Iret,
                rd: Reg::R0
            }
            .op_class(),
            OpClass::Control,
            "IRET redirects the PC: block terminator"
        );
        assert_eq!(
            Instr::Csr {
                op: CsrOp::RdCyc,
                rd: Reg::R0
            }
            .op_class(),
            OpClass::Pure
        );
        assert_eq!(Instr::Sinc { index: 0 }.op_class(), OpClass::Boundary);
        assert_eq!(Instr::Halt.op_class(), OpClass::Boundary);
    }

    #[test]
    fn class_agrees_with_the_existing_predicates() {
        // Every memory instruction is Mem, every sync instruction is a
        // boundary, and control flow is Control — the IR classification
        // must stay consistent with the ISA predicates the interpreter
        // already relies on.
        let samples = [
            Instr::Nop,
            Instr::AddI {
                rd: Reg::R2,
                imm: -3,
            },
            Instr::St {
                rs: Reg::R0,
                base: Reg::R1,
                offset: 2,
            },
            Instr::Jal { offset: 4 },
            Instr::Sdec { index: 1 },
            Instr::Sleep,
        ];
        for instr in samples {
            let class = instr.op_class();
            // `is_mem` counts the sync ISE too (its traffic goes through
            // the synchronizer); the IR splits that off as Boundary.
            assert_eq!(
                class == OpClass::Mem,
                instr.is_mem() && !instr.is_sync(),
                "{instr:?}"
            );
            if instr.is_sync() {
                assert_eq!(class, OpClass::Boundary, "{instr:?}");
            }
            if instr.is_control() {
                assert_eq!(class, OpClass::Control, "{instr:?}");
            }
        }
    }
}
