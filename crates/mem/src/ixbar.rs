//! The instruction crossbar (I-Xbar).
//!
//! Each cycle, every fetching core presents its PC, and the cores that
//! fetch the *same* address form one [`FetchGroup`]: one physical access
//! whose data is **broadcast** to every member. When a bank faces several
//! groups, one group is served per cycle (rotating priority) and the
//! remaining cores stall, clock-gated — exactly the conflict behaviour of
//! Section III of the paper. [`IXbar::serve_groups`] is the one arbiter;
//! the platform's interpreter and its batched cycles both fetch through
//! it, and [`IXbar::serve_group_run`] serves a lockstep run's grants of
//! one group as that many `serve_groups` cycles would.

use crate::banked::BankedMemory;
use crate::fastdiv::{rr_min_distance, rr_next};

/// A same-address fetch group: every core whose bit is set in `members`
/// fetches `addr` this cycle. [`FetchGroup::join`] keeps `width` equal to
/// the member count, and [`FetchGroup::new`] and [`FetchGroup::move_to`]
/// take `addr`'s bank from the caller, who knows it (the platform keeps
/// it in its decoded-op table), so the arbiter counts no bits and maps no
/// address. The default group is empty.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchGroup {
    /// The shared fetch address.
    pub addr: u16,
    /// The IM bank `addr` lies in.
    pub bank: u16,
    /// The requesting cores, one bit per core id.
    pub members: u32,
    /// The number of requesting cores, `members.count_ones()`.
    pub width: u32,
}

impl FetchGroup {
    /// The group of `core` alone, fetching `addr`, which lies in IM bank
    /// `bank` ([`BankedMemory::bank_of`]).
    #[inline]
    pub fn new(addr: u16, bank: usize, core: usize) -> FetchGroup {
        FetchGroup {
            addr,
            bank: bank as u16,
            members: 1 << core,
            width: 1,
        }
    }

    /// Adds `core`, which fetches the group's address and is not yet a
    /// member, to the group.
    #[inline]
    pub fn join(&mut self, core: usize) {
        debug_assert_eq!(self.members & 1 << core, 0, "core {core} already a member");
        self.members |= 1 << core;
        self.width += 1;
    }

    /// Moves the whole group on to fetch `addr`, which lies in IM bank
    /// `bank`.
    #[inline]
    pub fn move_to(&mut self, addr: u16, bank: usize) {
        self.addr = addr;
        self.bank = bank as u16;
    }
}

/// Statistics of the instruction crossbar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IXbarStats {
    /// Fetch requests presented.
    pub requests: u64,
    /// Fetch requests granted.
    pub grants: u64,
    /// Requests left stalling because their bank served another address.
    pub stalls: u64,
    /// Cycles in which at least one bank had a conflict (≥ 2 distinct
    /// addresses requested in the same bank).
    pub conflict_cycles: u64,
    /// Crossbar data transfers (one per grant; drives interconnect energy).
    pub transfers: u64,
}

impl IXbarStats {
    /// Adds another crossbar's counters into this one (multi-run
    /// aggregates, e.g. summing shard statistics). Kept next to the
    /// fields so a new counter cannot be forgotten here.
    pub fn merge(&mut self, other: &IXbarStats) {
        self.requests += other.requests;
        self.grants += other.grants;
        self.stalls += other.stalls;
        self.conflict_cycles += other.conflict_cycles;
        self.transfers += other.transfers;
    }
}

/// The complete mutable state of one [`IXbar`]: the rotating-priority
/// pointers plus the counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IXbarSnapshot {
    /// Rotating-priority pointer per bank.
    pub rr: Vec<usize>,
    /// Aggregate arbitration counters.
    pub stats: IXbarStats,
}

/// The instruction crossbar arbiter.
#[derive(Debug, Clone)]
pub struct IXbar {
    rr: Vec<usize>,
    stats: IXbarStats,
}

impl IXbar {
    /// Creates an arbiter for a memory with `banks` banks.
    pub fn new(banks: usize) -> IXbar {
        IXbar {
            rr: vec![0; banks],
            stats: IXbarStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &IXbarStats {
        &self.stats
    }

    /// Resets the rotating-priority pointers and the statistics, so the
    /// arbiter can be reused for a fresh run.
    pub fn reset(&mut self) {
        self.rr.fill(0);
        self.stats = IXbarStats::default();
    }

    /// Exports the arbiter's mutable state for checkpointing.
    pub fn save(&self) -> IXbarSnapshot {
        IXbarSnapshot {
            rr: self.rr.clone(),
            stats: self.stats,
        }
    }

    /// Re-applies a snapshot taken by [`IXbar::save`]. Returns `false`
    /// (leaving the arbiter untouched) when the snapshot's bank count does
    /// not match this arbiter.
    pub fn load_snapshot(&mut self, snapshot: &IXbarSnapshot) -> bool {
        if snapshot.rr.len() != self.rr.len() {
            return false;
        }
        self.rr.copy_from_slice(&snapshot.rr);
        self.stats = snapshot.stats;
        true
    }

    /// Serves one fetch cycle presented as whole same-address groups and
    /// returns the served groups as a bitmask (bit `g` for `groups[g]`).
    /// The members of the other groups stall. The caller reads the served
    /// words itself; the arbiter only counts the accesses.
    ///
    /// Each group holds at least one core and fetches one address, no two
    /// groups share an address, and each group's `width` and `bank` are
    /// its member count and its address's bank in `imem` (what
    /// [`FetchGroup::new`] and [`FetchGroup::join`] maintain). Per bank,
    /// the core nearest the bank's rotating-priority pointer wins, found
    /// from each group's member mask rotated to the pointer; its whole
    /// group is served by one broadcast read, and the pointer moves past
    /// it. When every group lies in one bank (every paper kernel fits in
    /// IM bank 0), the winner is found by one rotation of the union of
    /// the members. Performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 32 groups.
    #[inline]
    pub fn serve_groups(&mut self, groups: &[FetchGroup], imem: &mut BankedMemory) -> u32 {
        assert!(groups.len() <= 32, "at most 32 fetch groups");
        let (mut all, mut requests, mut one_bank) = (0u32, 0u32, true);
        for g in groups {
            debug_assert_eq!(g.width, g.members.count_ones(), "width is the member count");
            debug_assert_eq!(
                usize::from(g.bank),
                imem.bank_of(g.addr),
                "bank of the address"
            );
            all |= g.members;
            requests += g.width;
            one_bank &= g.bank == groups[0].bank;
        }
        if all == 0 {
            return 0;
        }
        let ncores = ((u32::BITS - all.leading_zeros()) as usize).max(self.rr.len().min(64));
        self.stats.requests += u64::from(requests);
        if !one_bank {
            return self.serve_contended(groups, ncores, imem);
        }
        // One bank: the core nearest its pointer, among every group's
        // members, wins for its group. With one group that is the whole
        // cycle's fetch, served without conflict.
        let bank = usize::from(groups[0].bank);
        let ptr = wrap_pointer(self.rr[bank], ncores);
        let winner = self.grant(bank, ptr, rr_min_distance(all, ptr, ncores), ncores);
        let g = match groups {
            [_] => 0,
            _ => groups
                .iter()
                .position(|g| g.members & 1 << winner != 0)
                .expect("the winner is a member"),
        };
        let width = groups[g].width;
        if width < requests {
            self.stats.conflict_cycles += 1;
        }
        self.broadcast(bank, width, requests, 1, imem);
        1 << g
    }

    /// `n` consecutive [`IXbar::serve_groups`] cycles of `group` alone,
    /// served at once: a lockstep run, whose one group is granted every
    /// fetch cycle. The counters grow by `n` conflict-free broadcast reads
    /// of `group.bank`. Each grant moves the bank's pointer past the
    /// member nearest it, so the grants walk the members in cyclic order
    /// from the first one at or above the starting pointer, and the
    /// pointer ends one past the `(j0 + n - 1) % width`-th member (counted
    /// from the lowest), where `j0` is the number of members below the
    /// starting pointer. `n == 0` serves nothing.
    pub fn serve_group_run(&mut self, group: &FetchGroup, n: u64, imem: &mut BankedMemory) {
        debug_assert_eq!(
            group.width,
            group.members.count_ones(),
            "width is the member count"
        );
        if n == 0 || group.members == 0 {
            return;
        }
        let members = group.members;
        let ncores = ((u32::BITS - members.leading_zeros()) as usize).max(self.rr.len().min(64));
        let bank = usize::from(group.bank);
        let ptr = wrap_pointer(self.rr[bank], ncores);
        let j0 = (u64::from(members) & ((1u64 << ptr) - 1)).count_ones();
        let width = u64::from(group.width);
        let mut last = members;
        for _ in 0..(u64::from(j0) + (n - 1) % width) % width {
            last &= last - 1;
        }
        self.rr[bank] = rr_next(last.trailing_zeros() as usize, ncores);
        self.stats.requests += n * width;
        self.broadcast(bank, group.width, group.width, n, imem);
    }

    /// [`IXbar::serve_groups`] for groups in two or more banks: banks
    /// with several groups serve one and stall the rest.
    fn serve_contended(
        &mut self,
        groups: &[FetchGroup],
        ncores: usize,
        imem: &mut BankedMemory,
    ) -> u32 {
        let mut served = 0u32;
        let mut pending = ((1u64 << groups.len()) - 1) as u32;
        while pending != 0 {
            // The lowest pending group opens its bank; every other
            // pending group in that bank competes with it.
            let first = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let bank = groups[first].bank;
            let ptr = wrap_pointer(self.rr[usize::from(bank)], ncores);
            let mut winner = first;
            let mut best = rr_min_distance(groups[first].members, ptr, ncores);
            let mut requests = groups[first].width;
            let mut rest = pending;
            while rest != 0 {
                let g = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if groups[g].bank != bank {
                    continue;
                }
                debug_assert_ne!(groups[g].addr, groups[first].addr, "groups are distinct");
                pending &= !(1 << g);
                requests += groups[g].width;
                let distance = rr_min_distance(groups[g].members, ptr, ncores);
                if distance < best {
                    (winner, best) = (g, distance);
                }
            }
            let width = groups[winner].width;
            if width < requests {
                self.stats.conflict_cycles += 1;
            }
            self.grant(usize::from(bank), ptr, best, ncores);
            self.broadcast(usize::from(bank), width, requests, 1, imem);
            served |= 1 << winner;
        }
        served
    }

    /// Advances `bank`'s priority pointer past the core at `distance`
    /// from `ptr`, the winner of a group grant, and returns that core.
    #[inline]
    fn grant(&mut self, bank: usize, ptr: usize, distance: u32, ncores: usize) -> usize {
        let winner = ptr + distance as usize;
        let winner = if winner >= ncores {
            winner - ncores
        } else {
            winner
        };
        self.rr[bank] = rr_next(winner, ncores);
        winner
    }

    /// `reads` broadcast reads of `bank`, each serving `width` of its
    /// `requests` requesters; the rest stall.
    #[inline]
    fn broadcast(
        &mut self,
        bank: usize,
        width: u32,
        requests: u32,
        reads: u64,
        imem: &mut BankedMemory,
    ) {
        imem.count_broadcasts(bank, width as usize, reads);
        self.stats.grants += reads * u64::from(width);
        self.stats.transfers += reads * u64::from(width);
        self.stats.stalls += reads * u64::from(requests - width);
    }
}

/// The priority pointer `ptr` wrapped into `0..ncores`. A pointer is
/// stored below the core count of the cycle that set it, which is almost
/// always this cycle's, so the division is rarely needed.
#[inline]
fn wrap_pointer(ptr: usize, ncores: usize) -> usize {
    if ptr < ncores {
        ptr
    } else {
        ptr % ncores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banked::BankMapping;
    use crate::proptests::{fetch_groups, served_cores};

    fn imem() -> BankedMemory {
        BankedMemory::new(1024, 8, BankMapping::Blocked)
    }

    /// Serves one cycle of `(core, addr)` fetches, grouped by address in
    /// request order, and returns the granted cores as a bitmask.
    fn serve(xbar: &mut IXbar, fetches: &[(usize, u16)], m: &mut BankedMemory) -> u32 {
        let groups = fetch_groups(fetches, m);
        served_cores(&groups, xbar.serve_groups(&groups, m))
    }

    #[test]
    fn lockstep_fetch_broadcasts() {
        let mut m = imem();
        let mut xbar = IXbar::new(8);
        let fetches: Vec<(usize, u16)> = (0..8).map(|core| (core, 100)).collect();
        assert_eq!(
            serve(&mut xbar, &fetches, &mut m),
            0xFF,
            "all eight cores served at once"
        );
        assert_eq!(m.stats().bank_reads, 1, "single physical access");
        assert_eq!(m.stats().broadcast_extra, 7);
        assert_eq!(xbar.stats().stalls, 0);
        assert_eq!(xbar.stats().grants, 8);
    }

    #[test]
    fn divergent_fetch_serializes_in_blocked_bank() {
        let mut m = imem();
        let mut xbar = IXbar::new(8);
        // All addresses in bank 0 (blocked: bank = addr / 128) but distinct.
        let fetches: Vec<(usize, u16)> = (0..4).map(|core| (core, core as u16)).collect();
        let granted = serve(&mut xbar, &fetches, &mut m);
        assert_eq!(granted.count_ones(), 1, "one address-group per cycle");
        assert_eq!(xbar.stats().stalls, 3);
        assert_eq!(xbar.stats().conflict_cycles, 1);
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        let mut m = imem();
        let mut xbar = IXbar::new(8);
        // Blocked mapping, 1024/8 = 128 words per bank.
        let granted = serve(&mut xbar, &[(0, 0), (1, 128), (2, 256)], &mut m);
        assert_eq!(granted, 0b111);
        assert_eq!(m.stats().bank_reads, 3);
        assert_eq!(xbar.stats().conflict_cycles, 0);
    }

    #[test]
    fn round_robin_is_fair() {
        let mut m = imem();
        let mut xbar = IXbar::new(8);
        let fetches = [(0, 1), (1, 2)];
        let first = serve(&mut xbar, &fetches, &mut m);
        assert_eq!(first, 1 << 0, "pointer starts at core 0");
        let second = serve(&mut xbar, &fetches, &mut m);
        assert_eq!(second, 1 << 1, "pointer advanced past previous winner");
        let third = serve(&mut xbar, &fetches, &mut m);
        assert_eq!(third, 1 << 0);
    }

    #[test]
    fn partial_groups_merge() {
        let mut m = imem();
        let mut xbar = IXbar::new(8);
        // Cores 0/2 at one address, cores 1/3 at another, same bank.
        let granted = serve(&mut xbar, &[(0, 5), (1, 9), (2, 5), (3, 9)], &mut m);
        assert_eq!(granted, 0b0101, "the whole winning group is served");
        assert_eq!(m.stats().bank_reads, 1);
        assert_eq!(xbar.stats().stalls, 2);
    }

    #[test]
    fn snapshot_round_trip_preserves_rotation() {
        let mut m = imem();
        let mut xbar = IXbar::new(8);
        let fetches = [(0, 1), (1, 2)];
        serve(&mut xbar, &fetches, &mut m);
        let snap = xbar.save();

        let mut restored = IXbar::new(8);
        assert!(restored.load_snapshot(&snap));
        assert_eq!(restored.stats(), xbar.stats());
        // The restored arbiter continues the rotation exactly where the
        // original would: core 1 wins the next conflict.
        assert_eq!(serve(&mut restored, &fetches, &mut m), 1 << 1);
        assert!(!IXbar::new(4).load_snapshot(&snap), "bank count mismatch");
    }

    #[test]
    fn interleaved_mapping_separates_consecutive_addresses() {
        let mut m = BankedMemory::new(1024, 8, BankMapping::Interleaved);
        let mut xbar = IXbar::new(8);
        // Eight consecutive addresses -> eight banks.
        let fetches: Vec<(usize, u16)> = (0..8).map(|core| (core, core as u16)).collect();
        assert_eq!(
            serve(&mut xbar, &fetches, &mut m),
            0xFF,
            "no conflicts under interleaving"
        );
        assert_eq!(xbar.stats().conflict_cycles, 0);
    }

    #[test]
    fn an_empty_cycle_serves_nothing() {
        let mut m = imem();
        let mut xbar = IXbar::new(8);
        assert_eq!(xbar.serve_groups(&[], &mut m), 0);
        assert_eq!(*xbar.stats(), IXbarStats::default());
        assert_eq!(m.stats().bank_reads, 0);
    }
}
