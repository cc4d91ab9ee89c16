//! Property-based tests of the crossbar arbitration invariants.

use crate::{
    Access, BankMapping, BankedMemory, DXbar, DXbarOutcome, DXbarSnapshot, DmGrant, DmRequest,
    FetchGroup, IXbar, IXbarSnapshot, ServingPolicy,
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

/// The cycle's fetches from `imem` as same-address groups, in request
/// order.
pub(crate) fn fetch_groups(reqs: &[(usize, u16)], imem: &BankedMemory) -> Vec<FetchGroup> {
    let mut groups: Vec<FetchGroup> = Vec::new();
    for &(core, addr) in reqs {
        match groups.iter_mut().find(|g| g.addr == addr) {
            Some(g) => g.join(core),
            None => groups.push(FetchGroup::new(addr, imem.bank_of(addr), core)),
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

/// One core's D-Xbar draw for a cycle: whether it requests, its PC, an
/// address seed, write or read with the value, and whether its word is
/// locked.
type DmDraw = (u8, u16, u16, bool, u16);

/// A cycle of D-Xbar requests: a layout selector and one draw per core.
fn dm_cycle() -> impl Strategy<Value = (u8, Vec<DmDraw>)> {
    (
        any::<u8>(),
        prop::collection::vec(
            (
                any::<u8>(),
                0u16..3,
                any::<u16>(),
                any::<bool>(),
                any::<u16>(),
            ),
            8,
        ),
    )
}

/// The cycle's requests from its draws, leaving out `held` cores (they
/// have no request while held). Under the disjoint layouts every core
/// addresses its own bank of a 16-bank memory, in an order rotated and
/// strided by the selector so bank order is not always core order; the
/// shared layout puts every address in three banks. Draws whose lock bit
/// is set lock their word in `mems`.
fn dm_requests_of(
    (layout, draws): &(u8, Vec<DmDraw>),
    held: &[Option<u16>],
    mems: [&mut BankedMemory; 2],
) -> Vec<DmRequest> {
    let [a, b] = mems;
    let mut reqs = Vec::new();
    for (core, &(sel, pc, seed, write, value)) in draws.iter().enumerate() {
        if sel % 4 == 0 || held.get(core).copied().flatten().is_some() {
            continue;
        }
        let addr = if layout % 3 != 0 {
            let stride = [1, 3, 5, 7][usize::from(*layout / 3) % 4];
            let bank = (core * stride + usize::from(*layout)) % 16;
            // Word `seed % 256` of the bank under either mapping.
            match a.mapping() {
                BankMapping::Blocked => (bank * 256) as u16 + seed % 256,
                BankMapping::Interleaved => (seed % 256) * 16 + bank as u16,
            }
        } else {
            (seed % 3) * 1031 + seed % 4
        };
        if sel % 16 == 1 {
            a.lock_word(addr);
            b.lock_word(addr);
        }
        reqs.push(DmRequest {
            core,
            pc,
            addr,
            access: if write {
                Access::Write(value)
            } else {
                Access::Read
            },
        });
    }
    reqs
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

    /// `arbitrate_into`, conflict-free pass included, is the per-bank
    /// arbitration alone: the same outcome, memory contents and counters,
    /// and arbiter state (pointers, held cores, counters), cycle after
    /// cycle, under both policies and mappings, from random pointers and
    /// held cores, with locked words and with requests in shared and in
    /// disjoint banks.
    #[test]
    fn conflict_free_pass_matches_per_bank_arbitration(
        cycles in prop::collection::vec(dm_cycle(), 1..16),
        sync_aware in any::<bool>(),
        interleaved in any::<bool>(),
        rr in prop::collection::vec(0usize..8, 16),
        held in prop::collection::vec((0u8..4, 0u16..3), 8),
    ) {
        let policy = if sync_aware { ServingPolicy::SyncAware } else { ServingPolicy::Baseline };
        let mapping = if interleaved { BankMapping::Interleaved } else { BankMapping::Blocked };
        let mut start = DXbarSnapshot { rr, served: vec![0; 16], ..DXbarSnapshot::default() };
        if sync_aware {
            // A held core waits for its group's other members; one that is
            // never requested again stays held, as a core would.
            start.held_pc = held.iter().map(|&(h, pc)| (h == 0).then_some(pc)).collect();
        }
        let mut mem = BankedMemory::new(4096, 16, mapping);
        for a in 0..4096u16 {
            mem.poke(a, a.wrapping_mul(7));
        }
        let mut fast = (DXbar::new(16, policy), mem.clone(), DXbarOutcome::default());
        let mut reference = (DXbar::new(16, policy), mem, DXbarOutcome::default());
        prop_assert!(fast.0.load_snapshot(&start) && reference.0.load_snapshot(&start));
        for cycle in &cycles {
            let held_pc = fast.0.save().held_pc;
            let reqs = dm_requests_of(cycle, &held_pc, [&mut fast.1, &mut reference.1]);
            fast.0.arbitrate_into(&reqs, &mut fast.1, &mut fast.2);
            reference.0.arbitrate_per_bank_into(&reqs, &mut reference.1, &mut reference.2);
            prop_assert_eq!(&fast.2, &reference.2, "outcome of {:?}", reqs);
            prop_assert_eq!(fast.1.save(), reference.1.save());
            prop_assert_eq!(fast.0.save(), reference.0.save());
            for r in &reqs {
                fast.1.unlock_word(r.addr);
                reference.1.unlock_word(r.addr);
            }
        }
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
            let groups = fetch_groups(&pending, &mem);
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
            let groups = fetch_groups(&reqs, &by_group.1);
            let granted = by_request.0.arbitrate(&reqs, &mut by_request.1);
            let served = by_group.0.serve_groups(&groups, &mut by_group.1);
            prop_assert_eq!(granted, served_cores(&groups, served));
            prop_assert_eq!(&by_request.0.state, &by_group.0.save());
            prop_assert_eq!(by_request.1.save(), by_group.1.save());
        }
    }

    /// Cycles whose fetches all fall in one bank, the shape of every
    /// contended cycle of the paper kernels (they fit in IM bank 0),
    /// served as groups by [`IXbar::serve_groups`]'s one-bank case, match
    /// [`RequestArbiter`] from random priority pointers: the same grants,
    /// pointers, statistics and memory counters, cycle after cycle, at 2
    /// to 16 cores, on the paper's IM geometry and a small one, under
    /// either mapping.
    #[test]
    fn one_bank_group_grants_match_request_arbitration(
        cores in 2usize..=16,
        paper in any::<bool>(),
        interleaved in any::<bool>(),
        rr in prop::collection::vec(0usize..16, 8),
        cycles in prop::collection::vec((0usize..8, prop::collection::vec(0u16..10, 16)), 1..12),
    ) {
        let mapping = if interleaved { BankMapping::Interleaved } else { BankMapping::Blocked };
        let (words, banks) = if paper { (48 * 1024, 8) } else { (64, 4) };
        let start = IXbarSnapshot { rr: rr[..banks].to_vec(), ..IXbarSnapshot::default() };
        let mut by_request = (RequestArbiter::new(banks), BankedMemory::new(words, banks, mapping));
        let mut by_group = (IXbar::new(banks), BankedMemory::new(words, banks, mapping));
        by_request.0.state = start.clone();
        prop_assert!(by_group.0.load_snapshot(&start));
        for (bank, draws) in &cycles {
            let bank = bank % banks;
            let reqs: Vec<(usize, u16)> = draws[..cores]
                .iter()
                .enumerate()
                // Draws 8 and 9 stand for "not fetching"; the others pick
                // one of eight words of the bank, so cores share addresses.
                .filter(|&(_, &word)| word < 8)
                .map(|(core, &word)| {
                    let addr = match mapping {
                        BankMapping::Blocked => bank * (words / banks) + usize::from(word),
                        BankMapping::Interleaved => usize::from(word) * banks + bank,
                    };
                    (core, addr as u16)
                })
                .collect();
            let groups = fetch_groups(&reqs, &by_group.1);
            prop_assert!(groups.iter().all(|g| usize::from(g.bank) == bank));
            let granted = by_request.0.arbitrate(&reqs, &mut by_request.1);
            let served = by_group.0.serve_groups(&groups, &mut by_group.1);
            prop_assert_eq!(granted, served_cores(&groups, served), "grants of {:?}", reqs);
            prop_assert_eq!(&by_request.0.state, &by_group.0.save());
            prop_assert_eq!(by_request.1.stats(), by_group.1.stats());
            prop_assert_eq!(by_request.1.save(), by_group.1.save());
        }
    }

    /// A lockstep run served at once by [`IXbar::serve_group_run`] is `n`
    /// [`IXbar::serve_groups`] cycles of its one group: the same priority
    /// pointers, statistics, memory counters and per-bank counts, at 1 to
    /// 16 cores with random member masks, from random starting pointers
    /// (some at or above the core count), on the paper's IM geometry and
    /// a small one under either mapping, for runs of 1 to 64 grants.
    #[test]
    fn a_group_run_is_its_grants_one_by_one(
        cores in 1usize..=16,
        members in any::<u32>(),
        paper in any::<bool>(),
        interleaved in any::<bool>(),
        rr in prop::collection::vec(0usize..32, 8),
        addr in any::<u16>(),
        n in 1u64..=64,
    ) {
        let members = match members & ((1u64 << cores) - 1) as u32 {
            0 => 1 << (cores - 1),
            m => m,
        };
        let mapping = if interleaved { BankMapping::Interleaved } else { BankMapping::Blocked };
        let (words, banks) = if paper { (48 * 1024, 8) } else { (64, 4) };
        let start = IXbarSnapshot { rr: rr[..banks].to_vec(), ..IXbarSnapshot::default() };
        let mut by_grant = (IXbar::new(banks), BankedMemory::new(words, banks, mapping));
        let mut by_run = (IXbar::new(banks), BankedMemory::new(words, banks, mapping));
        prop_assert!(by_grant.0.load_snapshot(&start));
        prop_assert!(by_run.0.load_snapshot(&start));
        let addr = (usize::from(addr) % words) as u16;
        let group = FetchGroup {
            addr,
            bank: by_run.1.bank_of(addr) as u16,
            members,
            width: members.count_ones(),
        };
        for _ in 0..n {
            let served = by_grant.0.serve_groups(std::slice::from_ref(&group), &mut by_grant.1);
            prop_assert_eq!(served, 1);
        }
        by_run.0.serve_group_run(&group, n, &mut by_run.1);
        prop_assert_eq!(by_grant.0.save(), by_run.0.save(), "{} grants to {:#x}", n, members);
        prop_assert_eq!(by_grant.1.stats(), by_run.1.stats());
        prop_assert_eq!(by_grant.1.per_bank_accesses(), by_run.1.per_bank_accesses());
        prop_assert_eq!(by_grant.1.save(), by_run.1.save());
    }
}
