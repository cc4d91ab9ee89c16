//! Property-based tests of the crossbar arbitration invariants.

use crate::{
    Access, BankMapping, BankedMemory, DXbar, DmGrant, DmRequest, FetchGroup, IXbar, IXbarSnapshot,
    ServingPolicy,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn dm() -> BankedMemory {
    BankedMemory::new(4096, 16, BankMapping::Blocked)
}

/// One D-Xbar request per core with bounded fields.
fn dm_requests() -> impl Strategy<Value = Vec<DmRequest>> {
    prop::collection::btree_set(0usize..8, 1..=8).prop_flat_map(|cores| {
        let cores: Vec<usize> = cores.into_iter().collect();
        let n = cores.len();
        (
            Just(cores),
            prop::collection::vec(0u16..64, n),      // pcs
            prop::collection::vec(0u16..4096, n),    // addrs
            prop::collection::vec(any::<bool>(), n), // write?
            prop::collection::vec(any::<u16>(), n),  // write values
        )
            .prop_map(|(cores, pcs, addrs, writes, values)| {
                cores
                    .into_iter()
                    .zip(pcs)
                    .zip(addrs)
                    .zip(writes)
                    .zip(values)
                    .map(|((((core, pc), addr), write), value)| DmRequest {
                        core,
                        pc,
                        addr,
                        access: if write {
                            Access::Write(value)
                        } else {
                            Access::Read
                        },
                    })
                    .collect()
            })
    })
}

/// A plain request-by-request I-Xbar arbiter, the reference for
/// [`IXbar::serve_groups`]. Each cycle takes one `(core, addr)` fetch per
/// core. Per bank, the requester nearest the bank's rotating-priority
/// pointer wins, every request for its address is served by one broadcast
/// read, the bank's other requests stall, and the pointer moves past the
/// winner. It keeps the state [`IXbar::save`] exports, so the two compare
/// with `==`.
struct RequestArbiter {
    state: IXbarSnapshot,
}

impl RequestArbiter {
    fn new(banks: usize) -> RequestArbiter {
        RequestArbiter {
            state: IXbarSnapshot {
                rr: vec![0; banks],
                ..IXbarSnapshot::default()
            },
        }
    }

    /// Serves one cycle of fetches; returns the granted cores as a bitmask.
    fn arbitrate(&mut self, reqs: &[(usize, u16)], imem: &mut BankedMemory) -> u32 {
        let IXbarSnapshot { rr, stats } = &mut self.state;
        stats.requests += reqs.len() as u64;
        let ncores = reqs
            .iter()
            .map(|&(core, _)| core + 1)
            .max()
            .unwrap_or(0)
            .max(rr.len().min(64));
        let mut granted = 0u32;
        for (bank, ptr) in rr.iter_mut().enumerate() {
            let in_bank: Vec<(usize, u16)> = reqs
                .iter()
                .copied()
                .filter(|&(_, addr)| imem.bank_of(addr) == bank)
                .collect();
            let Some(&(winner, addr)) = in_bank
                .iter()
                .min_by_key(|&&(core, _)| (core + ncores - *ptr % ncores) % ncores)
            else {
                continue;
            };
            *ptr = (winner + 1) % ncores;
            let served: Vec<usize> = in_bank
                .iter()
                .filter(|&&(_, a)| a == addr)
                .map(|&(core, _)| core)
                .collect();
            imem.read_broadcast(addr, served.len());
            if served.len() < in_bank.len() {
                stats.conflict_cycles += 1;
            }
            stats.grants += served.len() as u64;
            stats.transfers += served.len() as u64;
            stats.stalls += (in_bank.len() - served.len()) as u64;
            for core in served {
                granted |= 1 << core;
            }
        }
        granted
    }
}

/// The cycle's fetches as same-address groups, in request order.
pub(crate) fn fetch_groups(reqs: &[(usize, u16)]) -> Vec<FetchGroup> {
    let mut groups: Vec<FetchGroup> = Vec::new();
    for &(core, addr) in reqs {
        match groups.iter_mut().find(|g| g.addr == addr) {
            Some(g) => g.members |= 1 << core,
            None => groups.push(FetchGroup {
                addr,
                members: 1 << core,
            }),
        }
    }
    groups
}

/// The cores of the groups whose bit is set in `served`.
pub(crate) fn served_cores(groups: &[FetchGroup], served: u32) -> u32 {
    groups
        .iter()
        .enumerate()
        .filter(|&(g, _)| served & (1 << g) != 0)
        .fold(0, |mask, (_, g)| mask | g.members)
}

fn granted_core(g: &DmGrant) -> usize {
    match g {
        DmGrant::Complete { core, .. } | DmGrant::Hold { core, .. } => *core,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Single-cycle arbitration: every grant corresponds to exactly one
    /// request, no core is granted twice, and reads broadcast consistent
    /// data.
    #[test]
    fn one_cycle_grants_are_sound(reqs in dm_requests(), sync_aware in any::<bool>()) {
        let mut mem = dm();
        for a in 0..4096u16 {
            mem.poke(a, a.wrapping_mul(7));
        }
        let policy = if sync_aware { ServingPolicy::SyncAware } else { ServingPolicy::Baseline };
        let mut xbar = DXbar::new(16, policy);
        let out = xbar.arbitrate(&reqs, &mut mem);

        let requesters: BTreeSet<usize> = reqs.iter().map(|r| r.core).collect();
        let mut granted = BTreeSet::new();
        for g in &out.grants {
            let core = granted_core(g);
            prop_assert!(requesters.contains(&core), "grant without request");
            prop_assert!(granted.insert(core), "double grant for core {}", core);
            // Reads return the memory content of the requested address.
            let req = reqs.iter().find(|r| r.core == core).expect("requested");
            if req.access == Access::Read {
                let data = match g {
                    DmGrant::Complete { data, .. } | DmGrant::Hold { data, .. } => *data,
                };
                prop_assert_eq!(data, Some(mem.peek(req.addr)), "read data");
            }
        }
        // Nothing is released on the first cycle (nobody was held before).
        prop_assert!(out.releases.is_empty());
        // Baseline never holds.
        if !sync_aware {
            let all_complete = out
                .grants
                .iter()
                .all(|g| matches!(g, DmGrant::Complete { .. }));
            prop_assert!(all_complete, "baseline held a core");
        }
        // Per-bank exclusivity: at most one distinct address group served
        // per bank per cycle.
        let mut served_by_bank: Vec<BTreeSet<u16>> = vec![BTreeSet::new(); 16];
        for g in &out.grants {
            let req = reqs.iter().find(|r| r.core == granted_core(g)).expect("requested");
            served_by_bank[mem.bank_of(req.addr)].insert(req.addr);
        }
        for (bank, addrs) in served_by_bank.iter().enumerate() {
            prop_assert!(addrs.len() <= 1, "bank {} served {:?}", bank, addrs);
        }
    }

    /// Liveness and conservation over repeated cycles: re-presenting the
    /// unserved requests eventually serves every core exactly once, and
    /// every held core is eventually released.
    #[test]
    fn repeated_arbitration_serves_everyone(reqs in dm_requests(), sync_aware in any::<bool>()) {
        let mut mem = dm();
        let policy = if sync_aware { ServingPolicy::SyncAware } else { ServingPolicy::Baseline };
        let mut xbar = DXbar::new(16, policy);
        let mut pending = reqs.clone();
        let mut completed: BTreeSet<usize> = BTreeSet::new();
        let mut held: BTreeSet<usize> = BTreeSet::new();
        for _cycle in 0..64 {
            if pending.is_empty() && held.is_empty() {
                break;
            }
            let out = xbar.arbitrate(&pending, &mut mem);
            for g in &out.grants {
                let core = granted_core(g);
                pending.retain(|r| r.core != core);
                match g {
                    DmGrant::Complete { .. } => {
                        prop_assert!(completed.insert(core), "served twice");
                    }
                    DmGrant::Hold { .. } => {
                        prop_assert!(held.insert(core), "held twice");
                    }
                }
            }
            for core in &out.releases {
                prop_assert!(held.remove(core), "release without hold");
                prop_assert!(completed.insert(*core), "served twice via release");
            }
        }
        prop_assert!(pending.is_empty(), "starved requests: {:?}", pending);
        prop_assert!(held.is_empty(), "cores stuck in hold: {:?}", held);
        prop_assert_eq!(completed.len(), reqs.len());
    }

    /// The I-Xbar serves every fetch exactly once across repeated cycles,
    /// same-address fetches always travel together (broadcast) in one
    /// physical read, and each bank serves at most one address a cycle.
    #[test]
    fn ixbar_broadcast_and_liveness(
        addrs in prop::collection::vec(0u16..1024, 1..=8),
        interleaved in any::<bool>(),
    ) {
        let mapping = if interleaved { BankMapping::Interleaved } else { BankMapping::Blocked };
        let mut mem = BankedMemory::new(1024, 8, mapping);
        let mut xbar = IXbar::new(8);
        let mut pending: Vec<(usize, u16)> = addrs.iter().copied().enumerate().collect();
        let mut served: BTreeSet<usize> = BTreeSet::new();
        for _cycle in 0..16 {
            if pending.is_empty() {
                break;
            }
            let groups = fetch_groups(&pending);
            let before = *mem.stats();
            let served_groups = xbar.serve_groups(&groups, &mut mem);
            prop_assert!(served_groups < 1 << groups.len(), "served an absent group");
            let granted = served_cores(&groups, served_groups);
            let granted_addrs: BTreeSet<u16> = pending
                .iter()
                .filter(|&&(core, _)| granted & (1 << core) != 0)
                .map(|&(_, addr)| addr)
                .collect();
            // All same-address requests of a served address are granted in
            // the same cycle, by one physical read.
            for addr in &granted_addrs {
                let waiting = pending.iter().filter(|r| r.1 == *addr).count();
                let got = pending
                    .iter()
                    .filter(|&&(core, a)| a == *addr && granted & (1 << core) != 0)
                    .count();
                prop_assert_eq!(waiting, got, "partial broadcast at {}", addr);
            }
            let reads = mem.stats().bank_reads - before.bank_reads;
            prop_assert_eq!(reads, granted_addrs.len() as u64, "one read per served address");
            let banks: BTreeSet<usize> = granted_addrs.iter().map(|&a| mem.bank_of(a)).collect();
            prop_assert_eq!(banks.len(), granted_addrs.len(), "two addresses from one bank");
            for core in (0..8).filter(|c| granted & (1 << c) != 0) {
                prop_assert!(served.insert(core), "double fetch");
            }
            pending.retain(|&(core, _)| granted & (1 << core) == 0);
        }
        prop_assert!(pending.is_empty(), "starved fetches");
        prop_assert_eq!(served.len(), addrs.len());
    }

    /// Serving a cycle's fetches as whole same-address groups is the
    /// request-by-request arbitration of [`RequestArbiter`]: the same
    /// grants, statistics, memory counters and priority pointers, cycle
    /// after cycle, on either bank mapping and at up to 16 cores.
    #[test]
    fn group_grants_match_request_arbitration(
        cycles in prop::collection::vec(prop::collection::vec(0u16..96, 16), 1..12),
        interleaved in any::<bool>(),
    ) {
        let mapping = if interleaved { BankMapping::Interleaved } else { BankMapping::Blocked };
        let mut by_request = (RequestArbiter::new(4), BankedMemory::new(64, 4, mapping));
        let mut by_group = (IXbar::new(4), BankedMemory::new(64, 4, mapping));
        for fetches in &cycles {
            let reqs: Vec<(usize, u16)> = fetches
                .iter()
                .copied()
                .enumerate()
                // Addresses past the 64-word memory stand for "not fetching".
                .filter(|&(_, addr)| addr < 64)
                .collect();
            let groups = fetch_groups(&reqs);
            let granted = by_request.0.arbitrate(&reqs, &mut by_request.1);
            let served = by_group.0.serve_groups(&groups, &mut by_group.1);
            prop_assert_eq!(granted, served_cores(&groups, served));
            prop_assert_eq!(&by_request.0.state, &by_group.0.save());
            prop_assert_eq!(by_request.1.save(), by_group.1.save());
        }
    }
}
