//! # ulp-mem — banked memories and broadcast-capable crossbars
//!
//! Models the shared memory subsystem of the ULP multi-core platform
//! (Section III of Dogan et al., DATE 2013):
//!
//! * [`BankedMemory`] — a word-addressed memory divided into banks, with a
//!   configurable [`BankMapping`], word-level locking (for the
//!   synchronizer's atomic read-modify-write) and access statistics;
//! * [`IXbar`] — the instruction crossbar: the cores fetching one address
//!   form a [`FetchGroup`] served by a *single* physical bank access
//!   broadcast to all of them, one group per bank per cycle
//!   ([`IXbar::serve_groups`]);
//! * [`DXbar`] — the data crossbar with the same broadcast capability plus
//!   the paper's **enhanced data-serving policy** ([`ServingPolicy`],
//!   Section IV): when PC-synchronous cores conflict in a bank, cores that
//!   are served early are *held* until the whole group has been served, so
//!   the group leaves the conflict still in lockstep.
//!
//! Waiting (stalled or held) cores are clock-gated by the platform; the
//! crossbars report every grant, hold and release so the power model can
//! account for them.

mod banked;
mod dxbar;
mod fastdiv;
mod ixbar;
#[cfg(test)]
mod proptests;

pub use banked::{BankMapping, BankedMemory, MemSnapshot, MemStats};
pub use dxbar::{
    Access, DXbar, DXbarOutcome, DXbarSnapshot, DXbarStats, DmGrant, DmRequest, ServingPolicy,
};
pub use ixbar::{FetchGroup, IXbar, IXbarSnapshot, IXbarStats};
