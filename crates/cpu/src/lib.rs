//! # ulp-cpu — cycle-level model of the 16-bit ULP RISC core
//!
//! Models one processing core of the multi-core platform of Dogan et al.
//! (DATE 2013): a custom 16-bit RISC with a complete instruction set
//! including interrupt and sleep-mode support (Section III of the paper),
//! extended with the synchronization ISE (`SINC`/`SDEC` and the *lock*
//! output, Section IV-B).
//!
//! ## Timing model
//!
//! The core is non-pipelined and two-phase: every instruction takes one
//! **fetch** cycle (an instruction-memory access that may stall on bank
//! conflicts) followed by at least one **execute** cycle (data-memory
//! instructions stall until the D-Xbar grants; the synchronization ISE
//! occupies the hardware synchronizer for two cycles). Eight cores can
//! therefore retire at most 4.0 instructions per cycle — the ceiling the
//! paper reports for its improved architecture.
//!
//! The core is *passive*: the platform drives it each cycle through the
//! request/grant interface of [`Core`] ([`Core::fetch_request`],
//! [`Core::on_fetch_granted`], [`Core::mem_request`],
//! [`Core::complete_execute`], …). For single-core use and for testing the
//! architectural semantics there is [`SimpleHost`], which grants every
//! request immediately.
//!
//! ## Example
//!
//! ```
//! use ulp_cpu::SimpleHost;
//! use ulp_isa::asm::assemble;
//!
//! let program = assemble("
//!         li   r1, 1000
//!         clr  r0
//!     loop:
//!         addi r0, #1
//!         cmp  r0, r1
//!         bne  loop
//!         halt
//! ").unwrap();
//! let mut host = SimpleHost::new(&program.to_vec(0, 16));
//! host.run(20_000).unwrap();
//! assert_eq!(host.core().reg(ulp_isa::Reg::R0), 1000);
//! ```

mod core_model;
mod exec;
#[cfg(test)]
mod proptests;
mod simple;
mod stats;
mod types;

pub use core_model::{Core, CoreSnapshot, CoreState, CoreStateSnapshot};
pub use exec::{alu_exec, shift_exec, unary_exec, AluResult};
pub use simple::{SimpleHost, SimpleHostError};
pub use stats::CoreStats;
pub use types::{CoreError, MemAccess, MemRequest, SyncKind, SyncRequest, WakeReason};
