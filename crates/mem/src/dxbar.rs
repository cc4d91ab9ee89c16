//! The data crossbar (D-Xbar) and its serving policies.
//!
//! A data access conflict occurs when a DM bank is accessed by more than
//! one core at different memory locations. The baseline crossbar serves the
//! conflicting cores in sequence; cores that have been served continue code
//! execution immediately, which breaks lockstep. The paper's enhancement
//! (Section IV) changes the serving policy: when the conflicting cores are
//! *synchronous* — detected by comparing their program counters — the cores
//! served early are stalled (held) until every synchronous core has been
//! served, so the group resumes in lockstep.

use crate::banked::BankedMemory;
use crate::fastdiv::{rr_distance, rr_next};

/// The direction and payload of a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Read one word.
    Read,
    /// Write one word.
    Write(u16),
}

/// One core's data-memory request for this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmRequest {
    /// Requesting core id.
    pub core: usize,
    /// The core's current PC (used for synchrony detection).
    pub pc: u16,
    /// Word address.
    pub addr: u16,
    /// Read or write.
    pub access: Access,
}

/// How a served core proceeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmGrant {
    /// Served; the core completes its execute phase this cycle.
    Complete {
        /// Served core id.
        core: usize,
        /// Read data (`None` for writes).
        data: Option<u16>,
    },
    /// Served, but held by the enhanced policy until its synchronous group
    /// drains; the read data is latched by the core.
    Hold {
        /// Served-but-held core id.
        core: usize,
        /// Latched read data (`None` for writes).
        data: Option<u16>,
    },
}

/// The data-serving policy of the D-Xbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServingPolicy {
    /// Serve conflicting cores in sequence; served cores continue
    /// immediately (the architecture *without* the synchronization
    /// feature).
    Baseline,
    /// The paper's enhancement: PC-synchronous cores stay together — cores
    /// served early are held until the whole synchronous group has been
    /// served.
    #[default]
    SyncAware,
}

/// Statistics of the data crossbar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DXbarStats {
    /// Data requests presented (per cycle per core).
    pub requests: u64,
    /// Requests granted (complete or hold).
    pub grants: u64,
    /// Requests stalled by bank conflicts or locks.
    pub stalls: u64,
    /// Cycles in which at least one bank had a conflict.
    pub conflict_cycles: u64,
    /// Grants that were held by the enhanced policy.
    pub holds: u64,
    /// Held cores released (lockstep restored after a conflict).
    pub releases: u64,
    /// Requests stalled because their word was locked by the synchronizer.
    pub lock_stalls: u64,
    /// Crossbar data transfers (one per grant).
    pub transfers: u64,
}

impl DXbarStats {
    /// Adds another crossbar's counters into this one (multi-run
    /// aggregates, e.g. summing shard statistics). Kept next to the
    /// fields so a new counter cannot be forgotten here.
    pub fn merge(&mut self, other: &DXbarStats) {
        self.requests += other.requests;
        self.grants += other.grants;
        self.stalls += other.stalls;
        self.conflict_cycles += other.conflict_cycles;
        self.holds += other.holds;
        self.releases += other.releases;
        self.lock_stalls += other.lock_stalls;
        self.transfers += other.transfers;
    }
}

/// Result of one arbitration cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DXbarOutcome {
    /// Grants issued this cycle (complete or hold).
    pub grants: Vec<DmGrant>,
    /// Cores released from hold this cycle (their latched instruction
    /// completes now; no new grant is issued for them).
    pub releases: Vec<usize>,
}

/// The complete mutable state of one [`DXbar`]: rotating-priority
/// pointers, the held synchronous groups, and the counters. The per-cycle
/// scratch buffers are excluded — they are rebuilt every cycle and carry no
/// history. The serving policy is configuration, not state, and belongs to
/// the platform configuration a checkpoint carries separately.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DXbarSnapshot {
    /// Rotating-priority pointer per bank.
    pub rr: Vec<usize>,
    /// Synchronous-group PC each core is held under (`None` = not held),
    /// indexed by core id. The length is whatever the arbiter had grown to.
    pub held_pc: Vec<Option<u16>>,
    /// Aggregate arbitration counters.
    pub stats: DXbarStats,
    /// Grants served per bank (see [`DXbar::served`]).
    pub served: Vec<u64>,
}

/// The data crossbar arbiter with pluggable serving policy.
#[derive(Debug, Clone)]
pub struct DXbar {
    policy: ServingPolicy,
    rr: Vec<usize>,
    /// Grants served per bank (see [`DXbar::served`]).
    served: Vec<u64>,
    /// Synchronous-group PC each core is held under (`None` = not held),
    /// indexed by core id; grown on demand.
    held_pc: Vec<Option<u16>>,
    /// Scratch: bank and lock state of each request, resolved once per
    /// cycle so the per-bank passes never recompute them.
    req_info: Vec<(usize, bool)>,
    /// Scratch: requests served this cycle with their read data.
    serve: Vec<(DmRequest, Option<u16>)>,
    /// Scratch: per-PC count of requesters left unserved this cycle.
    unserved: Vec<(u16, usize)>,
    stats: DXbarStats,
}

impl DXbar {
    /// Creates an arbiter for a memory with `banks` banks.
    pub fn new(banks: usize, policy: ServingPolicy) -> DXbar {
        DXbar {
            policy,
            rr: vec![0; banks],
            served: vec![0; banks],
            held_pc: Vec::new(),
            req_info: Vec::new(),
            serve: Vec::new(),
            unserved: Vec::new(),
            stats: DXbarStats::default(),
        }
    }

    /// The configured serving policy.
    pub fn policy(&self) -> ServingPolicy {
        self.policy
    }

    /// Statistics so far.
    pub fn stats(&self) -> &DXbarStats {
        &self.stats
    }

    /// Grants served per bank since the last [`DXbar::reset`]: each
    /// completed or held core access counts once on its bank, so a read
    /// broadcast to eight cores counts eight. Sampled at window
    /// boundaries, it gives the DM bank heat map. Kept apart from
    /// [`DXbarStats`], which holds no per-bank figures.
    pub fn served(&self) -> &[u64] {
        &self.served
    }

    /// Core ids currently held by the enhanced policy.
    pub fn held_cores(&self) -> Vec<usize> {
        self.held_pc
            .iter()
            .enumerate()
            .filter(|(_, pc)| pc.is_some())
            .map(|(core, _)| core)
            .collect()
    }

    /// Resets the rotating-priority pointers, drops all held groups and
    /// clears the statistics, so the arbiter can be reused for a fresh run.
    pub fn reset(&mut self) {
        self.rr.fill(0);
        self.served.fill(0);
        self.held_pc.fill(None);
        self.stats = DXbarStats::default();
    }

    /// Exports the arbiter's mutable state for checkpointing.
    pub fn save(&self) -> DXbarSnapshot {
        DXbarSnapshot {
            rr: self.rr.clone(),
            held_pc: self.held_pc.clone(),
            stats: self.stats,
            served: self.served.clone(),
        }
    }

    /// Re-applies a snapshot taken by [`DXbar::save`]. Returns `false`
    /// (leaving the arbiter untouched) when the snapshot's pointers or
    /// served counts do not have one entry per bank of this arbiter.
    /// `held_pc` adopts the snapshot's length — the vector is grown on
    /// demand during execution, so its length is part of the history
    /// being restored.
    pub fn load_snapshot(&mut self, snapshot: &DXbarSnapshot) -> bool {
        if snapshot.rr.len() != self.rr.len() || snapshot.served.len() != self.served.len() {
            return false;
        }
        self.rr.copy_from_slice(&snapshot.rr);
        self.served.copy_from_slice(&snapshot.served);
        self.held_pc.clear();
        self.held_pc.extend_from_slice(&snapshot.held_pc);
        self.stats = snapshot.stats;
        true
    }

    /// Arbitrates one cycle of data requests, allocating a fresh outcome.
    ///
    /// Convenience wrapper around [`DXbar::arbitrate_into`].
    pub fn arbitrate(&mut self, requests: &[DmRequest], dmem: &mut BankedMemory) -> DXbarOutcome {
        let mut outcome = DXbarOutcome::default();
        self.arbitrate_into(requests, dmem, &mut outcome);
        outcome
    }

    /// Arbitrates one cycle of data requests into a caller-provided
    /// outcome buffer (cleared first).
    ///
    /// `requests` must contain at most one request per core and excludes
    /// cores currently held (they have no outstanding request; they are
    /// waiting for their group). Fills `outcome` with the grants for this
    /// cycle and the cores to release. All scratch state is reused across
    /// calls, so a caller that reuses `outcome` runs allocation-free in
    /// steady state.
    ///
    /// A cycle in which no request can be refused or held (every request
    /// alone in its bank, no requested word locked, no core held) is
    /// served in one pass; every other cycle goes through the per-bank
    /// arbitration. Both give the same grants, pointers, memory traffic
    /// and counters.
    pub fn arbitrate_into(
        &mut self,
        requests: &[DmRequest],
        dmem: &mut BankedMemory,
        outcome: &mut DXbarOutcome,
    ) {
        let ncores = self.begin_cycle(requests, outcome);
        if !self.serve_conflict_free(requests, ncores, dmem, outcome) {
            self.serve_per_bank(requests, ncores, dmem, outcome);
        }
    }

    /// [`DXbar::arbitrate_into`] without the conflict-free pass: the
    /// reference the pass is tested against.
    #[cfg(test)]
    pub(crate) fn arbitrate_per_bank_into(
        &mut self,
        requests: &[DmRequest],
        dmem: &mut BankedMemory,
        outcome: &mut DXbarOutcome,
    ) {
        let ncores = self.begin_cycle(requests, outcome);
        self.serve_per_bank(requests, ncores, dmem, outcome);
    }

    /// Clears `outcome`, counts the cycle's requests and returns the
    /// number of cores the rotating priority ranks over.
    fn begin_cycle(&mut self, requests: &[DmRequest], outcome: &mut DXbarOutcome) -> usize {
        outcome.grants.clear();
        outcome.releases.clear();
        self.stats.requests += requests.len() as u64;
        requests
            .iter()
            .map(|r| r.core + 1)
            .max()
            .unwrap_or(1)
            .max(self.rr.len())
    }

    /// Serves the cycle in one pass when no request can be refused or
    /// held: every request is alone in its bank, no requested word is
    /// locked and no core is held. Then each bank's pointer moves past its
    /// only requester, each read is a broadcast to one core, and every
    /// request completes in bank order, as the per-bank path would serve
    /// them. Returns `false`, having changed nothing, otherwise.
    fn serve_conflict_free(
        &mut self,
        requests: &[DmRequest],
        ncores: usize,
        dmem: &mut BankedMemory,
        outcome: &mut DXbarOutcome,
    ) -> bool {
        if dmem.banks() > u128::BITS as usize || self.held_pc.iter().any(Option::is_some) {
            return false;
        }
        // The index of the request in each requested bank; below 128,
        // since no two requests share a bank.
        let mut in_bank = [0u8; u128::BITS as usize];
        let mut requested: u128 = 0;
        for (i, r) in requests.iter().enumerate() {
            let bank = dmem.bank_of(r.addr);
            if requested & 1 << bank != 0 || dmem.is_locked(r.addr) {
                return false;
            }
            requested |= 1 << bank;
            in_bank[bank] = i as u8;
        }
        while requested != 0 {
            let bank = requested.trailing_zeros() as usize;
            requested &= requested - 1;
            let r = requests[usize::from(in_bank[bank])];
            self.rr[bank] = rr_next(r.core, ncores);
            self.served[bank] += 1;
            let data = match r.access {
                Access::Write(value) => {
                    dmem.write(r.addr, value);
                    None
                }
                Access::Read => Some(dmem.read_broadcast(r.addr, 1)),
            };
            outcome
                .grants
                .push(DmGrant::Complete { core: r.core, data });
        }
        self.stats.grants += requests.len() as u64;
        self.stats.transfers += requests.len() as u64;
        true
    }

    /// The general cycle: per requested bank, picks and serves one
    /// address group, then applies the serving policy's holds and
    /// releases.
    fn serve_per_bank(
        &mut self,
        requests: &[DmRequest],
        ncores: usize,
        dmem: &mut BankedMemory,
        outcome: &mut DXbarOutcome,
    ) {
        let banks = dmem.banks();

        // ---- per-bank arbitration: pick and serve one address-group ----
        let mut serve = std::mem::take(&mut self.serve);
        serve.clear();
        if !requests.is_empty() {
            let mut req_info = std::mem::take(&mut self.req_info);
            req_info.clear();
            req_info.extend(
                requests
                    .iter()
                    .map(|r| (dmem.bank_of(r.addr), dmem.is_locked(r.addr))),
            );

            // Request bitmap: visit only the banks that actually have a
            // request this cycle (in ascending order, like a full sweep
            // would) instead of scanning every bank of the memory.
            if banks <= u128::BITS as usize {
                let mut pending: u128 = 0;
                for &(b, _) in &req_info {
                    pending |= 1 << b;
                }
                while pending != 0 {
                    let bank = pending.trailing_zeros() as usize;
                    pending &= pending - 1;
                    self.serve_bank(bank, ncores, requests, &req_info, dmem, &mut serve);
                }
            } else {
                for bank in 0..banks {
                    if req_info.iter().any(|&(b, _)| b == bank) {
                        self.serve_bank(bank, ncores, requests, &req_info, dmem, &mut serve);
                    }
                }
            }
            self.req_info = req_info;
        }
        self.stats.grants += serve.len() as u64;
        self.stats.transfers += serve.len() as u64;

        // ---- serving-policy post-pass: hold/release synchronous groups ----
        match self.policy {
            ServingPolicy::Baseline => {
                outcome.grants.extend(
                    serve
                        .iter()
                        .map(|&(r, data)| DmGrant::Complete { core: r.core, data }),
                );
            }
            ServingPolicy::SyncAware => {
                // Unserved requesters per PC (cores still inside the
                // conflict): the group with that PC must keep waiting.
                let mut unserved = std::mem::take(&mut self.unserved);
                unserved.clear();
                for r in requests {
                    if !serve.iter().any(|(s, _)| s.core == r.core) {
                        match unserved.iter_mut().find(|(pc, _)| *pc == r.pc) {
                            Some((_, n)) => *n += 1,
                            None => unserved.push((r.pc, 1)),
                        }
                    }
                }
                for &(r, data) in &serve {
                    let group_open = unserved.iter().any(|&(pc, n)| pc == r.pc && n > 0);
                    let group_exists = self.held_pc.contains(&Some(r.pc));
                    // Hold when synchronous peers are still unserved, or a
                    // held group for this PC already exists and peers remain.
                    if group_open {
                        self.hold(r.core, r.pc);
                        self.stats.holds += 1;
                        outcome.grants.push(DmGrant::Hold { core: r.core, data });
                    } else {
                        // Last members of the group: complete, and release
                        // any held peers.
                        if group_exists {
                            for (core, held) in self.held_pc.iter_mut().enumerate() {
                                if *held == Some(r.pc) {
                                    *held = None;
                                    self.stats.releases += 1;
                                    outcome.releases.push(core);
                                }
                            }
                        }
                        outcome
                            .grants
                            .push(DmGrant::Complete { core: r.core, data });
                    }
                }
                self.unserved = unserved;
            }
        }
        self.serve = serve;
    }

    /// Serves one requested bank: picks the winning request by rotating
    /// priority among unlocked requesters, performs the access (broadcast
    /// for same-address reads) and records the served requests.
    /// `req_info[i]` must be `(bank, locked)` of `requests[i]`.
    fn serve_bank(
        &mut self,
        bank: usize,
        ncores: usize,
        requests: &[DmRequest],
        req_info: &[(usize, bool)],
        dmem: &mut BankedMemory,
        serve: &mut Vec<(DmRequest, Option<u16>)>,
    ) {
        let mut in_bank = 0usize;
        let mut unlocked = 0usize;
        let mut first_addr = None;
        let mut conflict = false;
        for (r, &(b, locked)) in requests.iter().zip(req_info) {
            if b != bank {
                continue;
            }
            in_bank += 1;
            if !locked {
                unlocked += 1;
                match first_addr {
                    None => first_addr = Some(r.addr),
                    Some(a) if a != r.addr => conflict = true,
                    Some(_) => {}
                }
            }
        }
        let locked_out = in_bank - unlocked;
        self.stats.lock_stalls += locked_out as u64;
        if unlocked == 0 {
            self.stats.stalls += locked_out as u64;
            return;
        }
        if conflict {
            self.stats.conflict_cycles += 1;
        }

        let eligible = || {
            requests
                .iter()
                .zip(req_info)
                .filter(move |&(_, &(b, locked))| b == bank && !locked)
                .map(|(r, _)| r)
        };
        // Rotating priority in one pass: the eligible requester with the
        // smallest distance from the pointer wins (distances are distinct
        // — one request per core).
        let ptr = self.rr[bank] % ncores;
        let winner = *eligible()
            .min_by_key(|r| rr_distance(r.core, ptr, ncores))
            .expect("bank has unlocked requests");
        self.rr[bank] = rr_next(winner.core, ncores);

        match winner.access {
            Access::Write(value) => {
                // Writes never merge: serve exactly the winner.
                dmem.write(winner.addr, value);
                serve.push((winner, None));
                self.served[bank] += 1;
                self.stats.stalls += (in_bank - 1 - locked_out) as u64;
            }
            Access::Read => {
                // Broadcast to every reader of the same address.
                let in_group = |r: &DmRequest| r.addr == winner.addr && r.access == Access::Read;
                let group = eligible().filter(|r| in_group(r)).count();
                let word = dmem.read_broadcast(winner.addr, group);
                self.served[bank] += group as u64;
                self.stats.stalls += (in_bank - group - locked_out) as u64;
                for r in eligible().filter(|r| in_group(r)) {
                    serve.push((*r, Some(word)));
                }
            }
        }
    }

    fn hold(&mut self, core: usize, pc: u16) {
        if core >= self.held_pc.len() {
            self.held_pc.resize(core + 1, None);
        }
        self.held_pc[core] = Some(pc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banked::BankMapping;

    fn dmem() -> BankedMemory {
        let mut m = BankedMemory::new(32 * 1024, 16, BankMapping::Blocked);
        for a in 0..4096u16 {
            m.poke(a, a.wrapping_mul(3));
        }
        m
    }

    fn read_req(core: usize, pc: u16, addr: u16) -> DmRequest {
        DmRequest {
            core,
            pc,
            addr,
            access: Access::Read,
        }
    }

    #[test]
    fn same_address_reads_broadcast() {
        let mut m = dmem();
        let mut x = DXbar::new(16, ServingPolicy::Baseline);
        let reqs: Vec<DmRequest> = (0..8).map(|c| read_req(c, 40, 100)).collect();
        let out = x.arbitrate(&reqs, &mut m);
        assert_eq!(out.grants.len(), 8);
        assert!(out
            .grants
            .iter()
            .all(|g| matches!(g, DmGrant::Complete { data: Some(d), .. } if *d == 300)));
        assert_eq!(m.stats().bank_reads, 1);
    }

    #[test]
    fn baseline_conflict_serves_in_sequence_and_lets_cores_go() {
        let mut m = dmem();
        let mut x = DXbar::new(16, ServingPolicy::Baseline);
        // Two cores, same pc, same bank (bank 0: addr < 2048), distinct addrs.
        let reqs = vec![read_req(0, 40, 10), read_req(1, 40, 20)];
        let out = x.arbitrate(&reqs, &mut m);
        assert_eq!(out.grants.len(), 1);
        assert!(matches!(out.grants[0], DmGrant::Complete { core: 0, .. }));
        assert!(out.releases.is_empty());
        assert_eq!(x.stats().stalls, 1);
    }

    #[test]
    fn sync_aware_holds_until_group_served() {
        let mut m = dmem();
        let mut x = DXbar::new(16, ServingPolicy::SyncAware);
        // Three synchronous cores conflict in bank 0.
        let reqs = vec![
            read_req(0, 40, 10),
            read_req(1, 40, 20),
            read_req(2, 40, 30),
        ];
        let out = x.arbitrate(&reqs, &mut m);
        assert_eq!(out.grants.len(), 1);
        assert!(matches!(out.grants[0], DmGrant::Hold { core: 0, .. }));
        assert_eq!(x.held_cores(), vec![0]);

        // Core 0 is now held; cores 1 and 2 retry.
        let reqs = vec![read_req(1, 40, 20), read_req(2, 40, 30)];
        let out = x.arbitrate(&reqs, &mut m);
        assert!(matches!(out.grants[0], DmGrant::Hold { core: 1, .. }));
        assert_eq!(x.held_cores(), vec![0, 1]);

        // Last member: completes and releases the held peers.
        let reqs = vec![read_req(2, 40, 30)];
        let out = x.arbitrate(&reqs, &mut m);
        assert!(matches!(out.grants[0], DmGrant::Complete { core: 2, .. }));
        let mut rel = out.releases.clone();
        rel.sort_unstable();
        assert_eq!(rel, vec![0, 1]);
        assert!(x.held_cores().is_empty());
        assert_eq!(x.stats().holds, 2);
        assert_eq!(x.stats().releases, 2);
    }

    #[test]
    fn sync_aware_ignores_asynchronous_cores() {
        let mut m = dmem();
        let mut x = DXbar::new(16, ServingPolicy::SyncAware);
        // Different PCs: not synchronous, no holding even under conflict.
        let reqs = vec![read_req(0, 40, 10), read_req(1, 99, 20)];
        let out = x.arbitrate(&reqs, &mut m);
        assert_eq!(out.grants.len(), 1);
        assert!(matches!(out.grants[0], DmGrant::Complete { core: 0, .. }));
    }

    #[test]
    fn sync_aware_cross_bank_skew_is_held_too() {
        let mut m = dmem();
        let mut x = DXbar::new(16, ServingPolicy::SyncAware);
        // Cores 0,1 synchronous. Core 0 alone in bank 1; cores 1,2 conflict
        // in bank 0 (core 2 asynchronous). Core 0 would complete while core
        // 1 stalls -> policy holds core 0 to preserve lockstep.
        let reqs = vec![
            read_req(0, 40, 2048),
            read_req(1, 40, 10),
            read_req(2, 77, 20),
        ];
        let out = x.arbitrate(&reqs, &mut m);
        // Bank 0 round-robin starts at core 0, so core 1 wins bank 0.
        // Both synchronous cores complete this cycle -> no holds.
        let completes: Vec<usize> = out
            .grants
            .iter()
            .filter_map(|g| match g {
                DmGrant::Complete { core, .. } => Some(*core),
                _ => None,
            })
            .collect();
        assert_eq!(completes, vec![1, 0], "bank order: bank0 then bank1");

        // Now make core 2 win bank 0 by advancing the pointer: cores 1,2 in
        // bank 0 again, pointer now at 2.
        let reqs = vec![
            read_req(0, 50, 2048),
            read_req(1, 50, 10),
            read_req(2, 77, 20),
        ];
        let out = x.arbitrate(&reqs, &mut m);
        // core 2 wins bank 0 (round-robin), so synchronous core 1 stalls;
        // core 0 (same pc) must be HELD even though its bank was free.
        assert!(out
            .grants
            .iter()
            .any(|g| matches!(g, DmGrant::Hold { core: 0, .. })));
    }

    #[test]
    fn writes_never_merge() {
        let mut m = dmem();
        let mut x = DXbar::new(16, ServingPolicy::Baseline);
        let reqs = vec![
            DmRequest {
                core: 0,
                pc: 1,
                addr: 10,
                access: Access::Write(111),
            },
            DmRequest {
                core: 1,
                pc: 1,
                addr: 10,
                access: Access::Write(222),
            },
        ];
        let out = x.arbitrate(&reqs, &mut m);
        assert_eq!(out.grants.len(), 1);
        assert_eq!(m.peek(10), 111, "only the winner's write landed");
        assert_eq!(m.stats().bank_writes, 1);
    }

    #[test]
    fn locked_words_stall_requesters() {
        let mut m = dmem();
        m.lock_word(10);
        let mut x = DXbar::new(16, ServingPolicy::Baseline);
        let reqs = vec![read_req(0, 1, 10), read_req(1, 1, 11)];
        let out = x.arbitrate(&reqs, &mut m);
        // Core 0 stalls on the lock; core 1 proceeds.
        assert_eq!(out.grants.len(), 1);
        assert!(matches!(out.grants[0], DmGrant::Complete { core: 1, .. }));
        assert_eq!(x.stats().lock_stalls, 1);
    }

    #[test]
    fn round_robin_rotates_between_conflicting_cores() {
        let mut m = dmem();
        let mut x = DXbar::new(16, ServingPolicy::Baseline);
        let reqs = vec![read_req(0, 1, 10), read_req(1, 1, 20)];
        let first = x.arbitrate(&reqs, &mut m);
        let second = x.arbitrate(&reqs, &mut m);
        let who = |o: &DXbarOutcome| match o.grants[0] {
            DmGrant::Complete { core, .. } => core,
            DmGrant::Hold { core, .. } => core,
        };
        assert_eq!(who(&first), 0);
        assert_eq!(who(&second), 1);
    }

    #[test]
    fn snapshot_round_trip_preserves_holds_and_rotation() {
        let mut m = dmem();
        let mut x = DXbar::new(16, ServingPolicy::SyncAware);
        // Leave core 0 held mid-conflict, then snapshot.
        let reqs = vec![read_req(0, 40, 10), read_req(1, 40, 20)];
        x.arbitrate(&reqs, &mut m);
        assert_eq!(x.held_cores(), vec![0]);
        let snap = x.save();

        let mut restored = DXbar::new(16, ServingPolicy::SyncAware);
        assert!(restored.load_snapshot(&snap));
        assert_eq!(restored.held_cores(), vec![0]);
        assert_eq!(restored.stats(), x.stats());
        assert_eq!(restored.served(), x.served());

        // The restored arbiter finishes the group exactly like the
        // original would: core 1 completes and releases core 0.
        let reqs = vec![read_req(1, 40, 20)];
        let out = restored.arbitrate(&reqs, &mut m);
        assert!(matches!(out.grants[0], DmGrant::Complete { core: 1, .. }));
        assert_eq!(out.releases, vec![0]);
        assert!(
            !DXbar::new(8, ServingPolicy::SyncAware).load_snapshot(&snap),
            "bank count mismatch"
        );
        let mut short = snap.clone();
        short.served.pop();
        assert!(
            !DXbar::new(16, ServingPolicy::SyncAware).load_snapshot(&short),
            "served counts not one per bank"
        );
    }

    /// Every completed or held grant counts once on its bank: a broadcast
    /// read counts each core it serves, a stalled request nothing, and
    /// `reset` clears the counts.
    #[test]
    fn served_counts_each_granted_core_on_its_bank() {
        let mut m = dmem();
        let mut x = DXbar::new(16, ServingPolicy::SyncAware);
        // Cores 0-2 share a read of word 10 and are held, since core 3
        // (same PC, word 20 of the same bank) stalls; core 4 reads bank 1.
        let reqs = [
            read_req(0, 7, 10),
            read_req(1, 7, 10),
            read_req(2, 7, 10),
            read_req(3, 7, 20),
            read_req(4, 9, 2048),
        ];
        x.arbitrate(&reqs, &mut m);
        assert_eq!(x.held_cores(), vec![0, 1, 2]);
        assert_eq!(&x.served()[..3], &[3, 1, 0]);
        x.arbitrate(&[read_req(3, 7, 20)], &mut m);
        assert_eq!(&x.served()[..3], &[4, 1, 0]);
        assert_eq!(x.served().iter().sum::<u64>(), x.stats().grants);
        x.reset();
        assert_eq!(x.served(), &[0; 16]);
    }

    #[test]
    fn reads_and_writes_to_same_bank_conflict() {
        let mut m = dmem();
        let mut x = DXbar::new(16, ServingPolicy::Baseline);
        let reqs = vec![
            read_req(0, 1, 10),
            DmRequest {
                core: 1,
                pc: 1,
                addr: 10,
                access: Access::Write(5),
            },
        ];
        let out = x.arbitrate(&reqs, &mut m);
        // Round-robin winner is core 0 (read); the write must wait.
        assert_eq!(out.grants.len(), 1);
        assert!(matches!(
            out.grants[0],
            DmGrant::Complete {
                core: 0,
                data: Some(_)
            }
        ));
        assert_eq!(m.peek(10), 30, "write deferred");
    }
}
