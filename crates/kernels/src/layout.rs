//! The data-memory map shared by every kernel.
//!
//! ```text
//! DM (32 Ki words, 16 banks x 2 Ki):
//!   banks 0..7            six signal buffers per core, placed by the
//!                         configured BufferLayout (see below); plus each
//!                         core's scalar spill area and stack at the top
//!                         of its own bank
//!   bank 8  (@16384)      shared read-only constants
//!   bank 9  (@18432)      synchronization array (RSYNC base)
//! ```
//!
//! Under the default [`BufferLayout::Packed`] placement, buffer `b` of
//! core `c` lives in bank `(c + b) mod 8`: cores in lockstep touch one
//! buffer kind at a time — eight distinct banks, conflict-free — while
//! divergent cores collide across banks, producing exactly the data access
//! conflicts Section IV of the paper handles. Shared constants are read at
//! identical addresses and therefore broadcast (Section III).

/// Words per data-memory bank.
pub const BANK_WORDS: u16 = 2048;

/// Base address of core `c`'s private bank.
pub const fn core_base(core: usize) -> u16 {
    (core as u16) * BANK_WORDS
}

/// Maximum samples per channel supported by the six-buffer layout.
pub const MAX_N: usize = 300;

/// Number of signal buffers per core.
pub const NUM_BUFFERS: usize = 6;

/// How the six per-core signal buffers are placed across the DM banks
/// (ablation A6 of `ulp_bench::ablation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BufferLayout {
    /// Realistic linker packing: buffer `b` of core `c` lives in bank
    /// `(c + b) mod 8`, so different cores' buffers share banks. Cores in
    /// lockstep access one buffer kind at a time and therefore hit eight
    /// *distinct* banks (conflict-free), while divergent cores collide —
    /// exactly the data-access-conflict scenario Section IV of the paper
    /// addresses with the enhanced serving policy. Default.
    #[default]
    Packed,
    /// Idealized placement: all six buffers of core `c` inside its own
    /// bank `c`. No cross-core DM conflicts can ever occur, which hides
    /// most of the baseline's degradation.
    PrivateBank,
}

/// Word address of element 0 of buffer `buf` (0..6) of core `core`.
pub const fn buffer_base(layout: BufferLayout, core: usize, buf: usize) -> u16 {
    let slot = (buf as u16) * MAX_N as u16;
    match layout {
        BufferLayout::Packed => (((core + buf) % 8) as u16) * BANK_WORDS + slot,
        BufferLayout::PrivateBank => core_base(core) + slot,
    }
}

/// Scalar spill area (loop indices etc.), always in the core's own bank.
pub const VARS: u16 = 1800;

/// Initial stack pointer offset within the private bank.
pub const STACK_TOP: u16 = 2047;

/// Base address of the shared constants bank.
pub const SHARED_BASE: u16 = 8 * BANK_WORDS;

/// Base address of the synchronization array; loaded into `RSYNC` by the
/// kernel prologue.
pub const SYNC_BASE: u16 = 9 * BANK_WORDS;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_banks_cover_cores() {
        for c in 0..8 {
            let base = core_base(c);
            assert_eq!(base % BANK_WORDS, 0);
            assert_eq!((base / BANK_WORDS) as usize, c);
        }
    }

    // Compile-time layout invariants.
    const _: () = assert!(NUM_BUFFERS as u16 * MAX_N as u16 <= VARS);
    const _: () = assert!(VARS < STACK_TOP);
    const _: () = assert!(STACK_TOP < BANK_WORDS);

    #[test]
    fn buffers_fit_and_never_overlap() {
        for layout in [BufferLayout::Packed, BufferLayout::PrivateBank] {
            let mut regions: Vec<(u16, u16)> = Vec::new();
            for core in 0..8 {
                for buf in 0..NUM_BUFFERS {
                    let base = buffer_base(layout, core, buf);
                    regions.push((base, base + MAX_N as u16));
                    // Buffers never spill into the VARS/stack area.
                    assert!(base % BANK_WORDS + MAX_N as u16 <= VARS);
                }
            }
            regions.sort_unstable();
            for w in regions.windows(2) {
                assert!(w[0].1 <= w[1].0, "{layout:?}: overlap {w:?}");
            }
        }
    }

    #[test]
    fn packed_layout_rotates_banks() {
        // Lockstep access to one buffer kind hits eight distinct banks.
        for buf in 0..NUM_BUFFERS {
            let banks: std::collections::BTreeSet<u16> = (0..8)
                .map(|c| buffer_base(BufferLayout::Packed, c, buf) / BANK_WORDS)
                .collect();
            assert_eq!(banks.len(), 8, "buffer {buf}");
        }
        // A single core's buffers are spread over several banks.
        let own: std::collections::BTreeSet<u16> = (0..NUM_BUFFERS)
            .map(|b| buffer_base(BufferLayout::Packed, 3, b) / BANK_WORDS)
            .collect();
        assert!(own.len() >= 4);
    }

    #[test]
    fn private_layout_confines_each_core() {
        for core in 0..8 {
            for buf in 0..NUM_BUFFERS {
                let base = buffer_base(BufferLayout::PrivateBank, core, buf);
                assert_eq!(base / BANK_WORDS, core as u16);
            }
        }
    }

    #[test]
    fn shared_and_sync_banks_are_distinct() {
        assert_eq!(SHARED_BASE / BANK_WORDS, 8);
        assert_eq!(SYNC_BASE / BANK_WORDS, 9);
    }
}
