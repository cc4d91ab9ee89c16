//! The instruction crossbar (I-Xbar).
//!
//! Each cycle, every fetching core presents its PC. Requests are grouped
//! per bank; within a bank, all requests for the *same* address merge into
//! one physical access whose data is **broadcast** to every requester. When
//! a bank faces several distinct addresses, one address-group is served per
//! cycle (rotating priority) and the remaining cores stall, clock-gated —
//! exactly the conflict behaviour of Section III of the paper.

use crate::banked::BankedMemory;
use crate::fastdiv::{rr_distance, rr_min_distance, rr_next};

/// One core's instruction fetch request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImRequest {
    /// Requesting core id.
    pub core: usize,
    /// Word address (the core's PC).
    pub addr: u16,
}

/// A granted fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImGrant {
    /// Served core id.
    pub core: usize,
    /// The fetched instruction word.
    pub word: u16,
}

/// A same-address fetch group: every core whose bit is set in `members`
/// fetches `addr` this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchGroup {
    /// The shared fetch address.
    pub addr: u16,
    /// The requesting cores, one bit per core id.
    pub members: u32,
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
/// pointers plus the counters. The per-cycle request scratch is excluded —
/// it is rebuilt from scratch every cycle and carries no history.
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
    /// Scratch: bank of each request, resolved once per cycle so the
    /// per-bank passes never recompute the address mapping.
    req_banks: Vec<usize>,
    stats: IXbarStats,
}

impl IXbar {
    /// Creates an arbiter for a memory with `banks` banks.
    pub fn new(banks: usize) -> IXbar {
        IXbar {
            rr: vec![0; banks],
            req_banks: Vec::new(),
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

    /// Arbitrates one cycle of fetch requests against the instruction
    /// memory, returning the granted fetches.
    ///
    /// Convenience wrapper around [`IXbar::arbitrate_into`] that allocates
    /// a fresh grant buffer per call.
    pub fn arbitrate(&mut self, requests: &[ImRequest], imem: &mut BankedMemory) -> Vec<ImGrant> {
        let mut grants = Vec::with_capacity(requests.len());
        self.arbitrate_into(requests, imem, &mut grants);
        grants
    }

    /// Arbitrates one cycle of fetch requests against the instruction
    /// memory, writing the granted fetches into `grants` (cleared first).
    /// Ungranted requesters stall.
    ///
    /// Within each bank exactly one address-group is served per cycle; the
    /// group is chosen by rotating priority so no core starves. The method
    /// performs no heap allocation beyond growing `grants` up to the core
    /// count, so a caller that reuses the buffer runs allocation-free.
    pub fn arbitrate_into(
        &mut self,
        requests: &[ImRequest],
        imem: &mut BankedMemory,
        grants: &mut Vec<ImGrant>,
    ) {
        grants.clear();
        self.stats.requests += requests.len() as u64;
        if requests.is_empty() {
            return;
        }
        let banks = imem.banks();
        let ncores = requests
            .iter()
            .map(|r| r.core + 1)
            .max()
            .unwrap_or(0)
            .max(self.rr.len().min(64));

        // Lockstep fast path: every requester at the *same* address is the
        // dominant cycle shape of SPMD code — one bank, one address-group,
        // no conflict, everyone served by a single broadcast read.
        let addr = requests[0].addr;
        if requests.iter().all(|r| r.addr == addr) {
            let bank = imem.bank_of(addr);
            let ptr = self.rr[bank] % ncores;
            let winner_core = requests
                .iter()
                .map(|r| r.core)
                .min_by_key(|&c| rr_distance(c, ptr, ncores))
                .expect("non-empty");
            self.rr[bank] = rr_next(winner_core, ncores);
            let word = imem.read_broadcast(addr, requests.len());
            self.stats.grants += requests.len() as u64;
            self.stats.transfers += requests.len() as u64;
            grants.extend(requests.iter().map(|r| ImGrant { core: r.core, word }));
            return;
        }

        let mut req_banks = std::mem::take(&mut self.req_banks);
        req_banks.clear();
        req_banks.extend(requests.iter().map(|r| imem.bank_of(r.addr)));

        // Request bitmap: visit only the banks that actually have a request
        // this cycle (in ascending order, like a full sweep would) instead
        // of scanning every bank of the memory.
        if banks <= u128::BITS as usize {
            let mut pending: u128 = 0;
            for &b in &req_banks {
                pending |= 1 << b;
            }
            while pending != 0 {
                let bank = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                self.serve_bank(bank, ncores, requests, &req_banks, imem, grants);
            }
        } else {
            for bank in 0..banks {
                if req_banks.contains(&bank) {
                    self.serve_bank(bank, ncores, requests, &req_banks, imem, grants);
                }
            }
        }
        self.req_banks = req_banks;
    }

    /// Serves one fetch cycle presented as whole same-address groups,
    /// exactly as [`IXbar::arbitrate_into`] would serve the same requests:
    /// identical statistics, memory counters and rotating-priority
    /// updates, without materializing request or grant buffers. Returns
    /// the served groups as a bitmask (bit `g` for `groups[g]`). This is
    /// the fetch of the platform's batched cycles.
    ///
    /// Each group holds at least one core and fetches one address, and no
    /// two groups share an address. Within a bank, the winning group is the one holding the
    /// core nearest the bank's priority pointer, found from each group's
    /// member mask rotated to the pointer.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 32 groups.
    #[inline]
    pub fn serve_groups(&mut self, groups: &[FetchGroup], imem: &mut BankedMemory) -> u32 {
        assert!(groups.len() <= 32, "at most 32 fetch groups");
        let all = groups.iter().fold(0u32, |m, g| m | g.members);
        if all == 0 {
            return 0;
        }
        let ncores = ((u32::BITS - all.leading_zeros()) as usize).max(self.rr.len().min(64));
        if let [group] = groups {
            // One group: no conflict, the whole group is served.
            let width = all.count_ones();
            self.stats.requests += u64::from(width);
            let bank = imem.bank_of(group.addr);
            let ptr = wrap_pointer(self.rr[bank], ncores);
            self.grant(bank, ptr, rr_min_distance(all, ptr, ncores), ncores);
            self.broadcast(group.addr, width, width, imem);
            return 1;
        }
        self.stats.requests += u64::from(all.count_ones());
        self.serve_contended(groups, ncores, imem)
    }

    /// [`IXbar::serve_groups`] for two or more groups: banks with several
    /// groups serve one and stall the rest.
    fn serve_contended(
        &mut self,
        groups: &[FetchGroup],
        ncores: usize,
        imem: &mut BankedMemory,
    ) -> u32 {
        let mut banks = [0usize; 32];
        for (bank, g) in banks.iter_mut().zip(groups) {
            *bank = imem.bank_of(g.addr);
        }
        let mut served = 0u32;
        let mut pending = ((1u64 << groups.len()) - 1) as u32;
        while pending != 0 {
            // The lowest pending group opens its bank; every other
            // pending group in that bank competes with it.
            let first = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let bank = banks[first];
            let ptr = wrap_pointer(self.rr[bank], ncores);
            let mut winner = first;
            let mut best = rr_min_distance(groups[first].members, ptr, ncores);
            let mut requests = groups[first].members.count_ones();
            let mut rest = pending;
            while rest != 0 {
                let g = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if banks[g] != bank {
                    continue;
                }
                debug_assert_ne!(groups[g].addr, groups[first].addr, "groups are distinct");
                pending &= !(1 << g);
                requests += groups[g].members.count_ones();
                let distance = rr_min_distance(groups[g].members, ptr, ncores);
                if distance < best {
                    (winner, best) = (g, distance);
                }
            }
            let width = groups[winner].members.count_ones();
            if width < requests {
                self.stats.conflict_cycles += 1;
            }
            self.grant(bank, ptr, best, ncores);
            self.broadcast(groups[winner].addr, width, requests, imem);
            served |= 1 << winner;
        }
        served
    }

    /// Advances `bank`'s priority pointer past the core at `distance`
    /// from `ptr`, the winner of a group grant.
    #[inline]
    fn grant(&mut self, bank: usize, ptr: usize, distance: u32, ncores: usize) {
        let winner = ptr + distance as usize;
        let winner = if winner >= ncores {
            winner - ncores
        } else {
            winner
        };
        self.rr[bank] = rr_next(winner, ncores);
    }

    /// One broadcast read of `addr` serving `width` of the bank's
    /// `requests` requesters; the rest stall.
    #[inline]
    fn broadcast(&mut self, addr: u16, width: u32, requests: u32, imem: &mut BankedMemory) {
        imem.read_broadcast(addr, width as usize);
        self.stats.grants += u64::from(width);
        self.stats.transfers += u64::from(width);
        self.stats.stalls += u64::from(requests - width);
    }

    /// Serves one requested bank: picks the winning address-group by
    /// rotating priority, performs the (broadcast) read and emits the
    /// grants. `req_banks[i]` must be the bank of `requests[i]`.
    fn serve_bank(
        &mut self,
        bank: usize,
        ncores: usize,
        requests: &[ImRequest],
        req_banks: &[usize],
        imem: &mut BankedMemory,
        grants: &mut Vec<ImGrant>,
    ) {
        let in_bank = || {
            requests
                .iter()
                .zip(req_banks)
                .filter(move |&(_, &b)| b == bank)
                .map(|(r, _)| r)
        };
        let mut count = 0usize;
        let mut first_addr = None;
        let mut conflict = false;
        for r in in_bank() {
            count += 1;
            match first_addr {
                None => first_addr = Some(r.addr),
                Some(a) if a != r.addr => conflict = true,
                Some(_) => {}
            }
        }
        if conflict {
            self.stats.conflict_cycles += 1;
        }
        // Rotating priority: the first requesting core at or after the
        // pointer picks the winning address-group. Computed in one pass as
        // the requester with the smallest distance from the pointer
        // (distances are distinct — one request per core).
        let ptr = self.rr[bank] % ncores;
        let winner = in_bank()
            .min_by_key(|r| rr_distance(r.core, ptr, ncores))
            .expect("bank has requests");
        let (winner_core, winner_addr) = (winner.core, winner.addr);
        self.rr[bank] = rr_next(winner_core, ncores);

        let served = in_bank().filter(|r| r.addr == winner_addr).count();
        let word = imem.read_broadcast(winner_addr, served);
        self.stats.grants += served as u64;
        self.stats.transfers += served as u64;
        self.stats.stalls += (count - served) as u64;
        grants.extend(
            in_bank()
                .filter(|r| r.addr == winner_addr)
                .map(|r| ImGrant { core: r.core, word }),
        );
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

    fn imem() -> BankedMemory {
        let mut m = BankedMemory::new(1024, 8, BankMapping::Blocked);
        for a in 0..1024u16 {
            m.poke(a, a ^ 0xA5A5);
        }
        m
    }

    #[test]
    fn lockstep_fetch_broadcasts() {
        let mut m = imem();
        let mut xbar = IXbar::new(8);
        let reqs: Vec<ImRequest> = (0..8).map(|core| ImRequest { core, addr: 100 }).collect();
        let grants = xbar.arbitrate(&reqs, &mut m);
        assert_eq!(grants.len(), 8, "all eight cores served at once");
        assert!(grants.iter().all(|g| g.word == 100 ^ 0xA5A5));
        assert_eq!(m.stats().bank_reads, 1, "single physical access");
        assert_eq!(m.stats().broadcast_extra, 7);
        assert_eq!(xbar.stats().stalls, 0);
    }

    #[test]
    fn divergent_fetch_serializes_in_blocked_bank() {
        let mut m = imem();
        let mut xbar = IXbar::new(8);
        // All addresses in bank 0 (blocked: bank = addr / 128) but distinct.
        let reqs: Vec<ImRequest> = (0..4)
            .map(|core| ImRequest {
                core,
                addr: core as u16,
            })
            .collect();
        let grants = xbar.arbitrate(&reqs, &mut m);
        assert_eq!(grants.len(), 1, "one address-group per cycle");
        assert_eq!(xbar.stats().stalls, 3);
        assert_eq!(xbar.stats().conflict_cycles, 1);
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        let mut m = imem();
        let mut xbar = IXbar::new(8);
        // Blocked mapping, 1024/8 = 128 words per bank.
        let reqs = vec![
            ImRequest { core: 0, addr: 0 },
            ImRequest { core: 1, addr: 128 },
            ImRequest { core: 2, addr: 256 },
        ];
        let grants = xbar.arbitrate(&reqs, &mut m);
        assert_eq!(grants.len(), 3);
        assert_eq!(m.stats().bank_reads, 3);
        assert_eq!(xbar.stats().conflict_cycles, 0);
    }

    #[test]
    fn round_robin_is_fair() {
        let mut m = imem();
        let mut xbar = IXbar::new(8);
        let reqs = vec![
            ImRequest { core: 0, addr: 1 },
            ImRequest { core: 1, addr: 2 },
        ];
        let first = xbar.arbitrate(&reqs, &mut m);
        assert_eq!(first[0].core, 0, "pointer starts at core 0");
        let second = xbar.arbitrate(&reqs, &mut m);
        assert_eq!(second[0].core, 1, "pointer advanced past previous winner");
        let third = xbar.arbitrate(&reqs, &mut m);
        assert_eq!(third[0].core, 0);
    }

    #[test]
    fn partial_groups_merge() {
        let mut m = imem();
        let mut xbar = IXbar::new(8);
        // Cores 0/2 at one address, cores 1/3 at another, same bank.
        let reqs = vec![
            ImRequest { core: 0, addr: 5 },
            ImRequest { core: 1, addr: 9 },
            ImRequest { core: 2, addr: 5 },
            ImRequest { core: 3, addr: 9 },
        ];
        let grants = xbar.arbitrate(&reqs, &mut m);
        let served: Vec<usize> = grants.iter().map(|g| g.core).collect();
        assert_eq!(served, vec![0, 2], "the whole winning group is served");
        assert_eq!(m.stats().bank_reads, 1);
    }

    #[test]
    fn snapshot_round_trip_preserves_rotation() {
        let mut m = imem();
        let mut xbar = IXbar::new(8);
        let reqs = vec![
            ImRequest { core: 0, addr: 1 },
            ImRequest { core: 1, addr: 2 },
        ];
        xbar.arbitrate(&reqs, &mut m);
        let snap = xbar.save();

        let mut restored = IXbar::new(8);
        assert!(restored.load_snapshot(&snap));
        assert_eq!(restored.stats(), xbar.stats());
        // The restored arbiter continues the rotation exactly where the
        // original would: core 1 wins the next conflict.
        let next = restored.arbitrate(&reqs, &mut m);
        assert_eq!(next[0].core, 1);
        assert!(!IXbar::new(4).load_snapshot(&snap), "bank count mismatch");
    }

    #[test]
    fn interleaved_mapping_separates_consecutive_addresses() {
        let mut m = BankedMemory::new(1024, 8, BankMapping::Interleaved);
        let mut xbar = IXbar::new(8);
        let reqs: Vec<ImRequest> = (0..8)
            .map(|core| ImRequest {
                core,
                addr: core as u16, // eight consecutive addresses -> eight banks
            })
            .collect();
        let grants = xbar.arbitrate(&reqs, &mut m);
        assert_eq!(grants.len(), 8, "no conflicts under interleaving");
        assert_eq!(xbar.stats().conflict_cycles, 0);
    }
}
