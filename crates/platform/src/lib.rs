//! # ulp-platform — the 8-core ULP multi-core platform
//!
//! Composes the pieces of the platform in Fig. 1 of Dogan et al. (DATE
//! 2013) under a deterministic cycle loop:
//!
//! * eight (configurable 1–16) 16-bit RISC [`ulp_cpu::Core`]s,
//! * a shared banked instruction memory behind the broadcast-capable
//!   [`ulp_mem::IXbar`],
//! * a shared banked data memory behind the [`ulp_mem::DXbar`] with the
//!   paper's enhanced serving policy,
//! * the hardware [`ulp_sync::Synchronizer`] servicing the `SINC`/`SDEC`
//!   instruction-set extension.
//!
//! The *with synchronizer* and *without synchronizer* designs evaluated in
//! Section V of the paper correspond to
//! [`PlatformConfig::paper_with_sync`] and
//! [`PlatformConfig::paper_without_sync`].
//!
//! ## Example
//!
//! ```
//! use ulp_platform::{Platform, PlatformConfig};
//! use ulp_isa::asm::assemble;
//!
//! // Every core increments its own counter in data memory.
//! let program = assemble("
//!         rdid r1          ; r1 = core id
//!         li   r2, 0x400
//!         add  r2, r1      ; per-core slot
//!         movi r3, #1
//!         st   r3, [r2]
//!         halt
//! ").unwrap();
//!
//! let mut p = Platform::new(PlatformConfig::paper_with_sync()).unwrap();
//! p.load_program(&program);
//! p.run().unwrap();
//! for core in 0..8 {
//!     assert_eq!(p.dm(0x400 + core), 1);
//! }
//! ```

pub mod checkpoint;
mod config;
mod error;
pub mod observer;
mod sim;
mod stats;
pub mod vcd;

pub use checkpoint::{Checkpoint, CHECKPOINT_SCHEMA};
pub use config::PlatformConfig;
pub use error::{ConfigError, PlatformError, RestoreError};
pub use observer::{BankHeatMap, LockstepWidth, Observer, PcTrace};
pub use sim::{ObserverHandle, Platform, RunProgress, RunSummary};
pub use stats::SimStats;
pub use vcd::VcdTracer;
