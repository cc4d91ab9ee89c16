//! Per-operation activity vectors extracted from simulation statistics.

use ulp_platform::SimStats;

/// Event counts per *useful operation*, plus the achieved throughput —
/// everything the power model needs to know about a (design, benchmark)
/// pair. Obtained from a simulation run via [`Activity::from_stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Activity {
    /// Useful operations per clock cycle (the paper's Ops/cycle).
    pub ops_per_cycle: f64,
    /// Core active (clocked) cycles per op, summed over all cores.
    pub core_active: f64,
    /// Core clock-gated cycles per op (fetch/memory/sync stalls + holds).
    pub core_gated: f64,
    /// Core sleeping cycles per op.
    pub core_sleep: f64,
    /// Physical IM bank accesses per op.
    pub im_accesses: f64,
    /// Physical DM bank accesses per op (includes synchronizer RMWs).
    pub dm_accesses: f64,
    /// I-Xbar transfers (granted fetches) per op.
    pub ixbar_transfers: f64,
    /// D-Xbar transfers (granted data accesses) per op.
    pub dxbar_transfers: f64,
    /// Synchronizer read-modify-write batches per op.
    pub sync_batches: f64,
    /// Synchronizer busy cycles per op.
    pub sync_busy: f64,
    /// Whether the design includes the synchronization feature (selects
    /// the ISE-extended core energy and the synchronizer component).
    pub has_sync: bool,
}

impl Activity {
    /// Extracts the activity vector of a finished run.
    ///
    /// # Panics
    ///
    /// Panics if the run retired no useful operations.
    pub fn from_stats(stats: &SimStats) -> Activity {
        let ops = stats.core_total.useful_ops as f64;
        assert!(ops > 0.0, "run retired no useful operations");
        let per = |x: u64| x as f64 / ops;
        let gated = stats.core_total.fetch_stall_cycles
            + stats.core_total.mem_stall_cycles
            + stats.core_total.sync_stall_cycles
            + stats.core_total.hold_cycles;
        Activity {
            ops_per_cycle: stats.ops_per_cycle(),
            core_active: per(stats.core_total.active_cycles),
            core_gated: per(gated),
            core_sleep: per(stats.core_total.sleep_cycles),
            im_accesses: per(stats.im.total_accesses()),
            dm_accesses: per(stats.dm.total_accesses()),
            ixbar_transfers: per(stats.ixbar.transfers),
            dxbar_transfers: per(stats.dxbar.transfers),
            sync_batches: per(stats.sync.map(|s| s.batches).unwrap_or(0)),
            sync_busy: per(stats.sync.map(|s| s.busy_cycles).unwrap_or(0)),
            has_sync: stats.sync.is_some(),
        }
    }

    /// A synthetic activity vector for documentation and tests: a design
    /// achieving `ops_per_cycle` with `im_per_op` IM accesses and
    /// `dm_per_op` DM accesses per op, on an 8-core platform.
    pub fn synthetic(
        ops_per_cycle: f64,
        im_per_op: f64,
        dm_per_op: f64,
        has_sync: bool,
    ) -> Activity {
        let cycles_per_op = 8.0 / ops_per_cycle; // 8 cores' worth of cycles
        Activity {
            ops_per_cycle,
            core_active: 2.0,
            core_gated: (cycles_per_op - 2.0).max(0.0),
            core_sleep: 0.0,
            im_accesses: im_per_op,
            dm_accesses: dm_per_op,
            ixbar_transfers: 1.0,
            dxbar_transfers: dm_per_op,
            sync_batches: if has_sync { 0.03 } else { 0.0 },
            sync_busy: if has_sync { 0.06 } else { 0.0 },
            has_sync,
        }
    }

    /// Folds the per-shard activity of one *sharded* run into the activity
    /// of the whole recording: each entry is a shard's activity vector
    /// with the useful operations that shard retired.
    ///
    /// Per-op event rates are op-weighted (total events over total ops)
    /// and the folded `ops_per_cycle` is total ops over total cycles — so
    /// the result equals `Activity::from_stats` of the summed shard
    /// statistics, and the power model prices the sharded recording as one
    /// logical run.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty, mixes designs, or retired no ops.
    pub fn fold_weighted(shards: &[(Activity, u64)]) -> Activity {
        assert!(!shards.is_empty(), "no shard activity vectors");
        let has_sync = shards[0].0.has_sync;
        assert!(
            shards.iter().all(|(a, _)| a.has_sync == has_sync),
            "cannot fold across designs"
        );
        let total_ops: u64 = shards.iter().map(|(_, ops)| ops).sum();
        assert!(total_ops > 0, "sharded run retired no useful operations");
        let fold = |f: fn(&Activity) -> f64| {
            shards
                .iter()
                .map(|(a, ops)| f(a) * *ops as f64)
                .sum::<f64>()
                / total_ops as f64
        };
        let total_cycles: f64 = shards
            .iter()
            .map(|(a, ops)| *ops as f64 / a.ops_per_cycle)
            .sum();
        Activity {
            ops_per_cycle: total_ops as f64 / total_cycles,
            core_active: fold(|a| a.core_active),
            core_gated: fold(|a| a.core_gated),
            core_sleep: fold(|a| a.core_sleep),
            im_accesses: fold(|a| a.im_accesses),
            dm_accesses: fold(|a| a.dm_accesses),
            ixbar_transfers: fold(|a| a.ixbar_transfers),
            dxbar_transfers: fold(|a| a.dxbar_transfers),
            sync_batches: fold(|a| a.sync_batches),
            sync_busy: fold(|a| a.sync_busy),
            has_sync,
        }
    }

    /// Element-wise average of several activity vectors (used to calibrate
    /// against the mid-points of Table I ranges over the three
    /// benchmarks).
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or mixes designs with and without the
    /// synchronization feature.
    pub fn mean(items: &[Activity]) -> Activity {
        assert!(!items.is_empty(), "no activity vectors");
        let has_sync = items[0].has_sync;
        assert!(
            items.iter().all(|a| a.has_sync == has_sync),
            "cannot average across designs"
        );
        let n = items.len() as f64;
        let avg = |f: fn(&Activity) -> f64| items.iter().map(f).sum::<f64>() / n;
        Activity {
            ops_per_cycle: avg(|a| a.ops_per_cycle),
            core_active: avg(|a| a.core_active),
            core_gated: avg(|a| a.core_gated),
            core_sleep: avg(|a| a.core_sleep),
            im_accesses: avg(|a| a.im_accesses),
            dm_accesses: avg(|a| a.dm_accesses),
            ixbar_transfers: avg(|a| a.ixbar_transfers),
            dxbar_transfers: avg(|a| a.dxbar_transfers),
            sync_batches: avg(|a| a.sync_batches),
            sync_busy: avg(|a| a.sync_busy),
            has_sync,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_consistent() {
        let a = Activity::synthetic(2.0, 1.0, 0.2, false);
        assert!((a.core_active + a.core_gated - 4.0).abs() < 1e-9);
        assert!(!a.has_sync);
        assert_eq!(a.sync_batches, 0.0);
    }

    #[test]
    fn mean_averages_fields() {
        let a = Activity::synthetic(2.0, 1.0, 0.2, true);
        let b = Activity::synthetic(4.0, 0.5, 0.4, true);
        let m = Activity::mean(&[a, b]);
        assert!((m.ops_per_cycle - 3.0).abs() < 1e-9);
        assert!((m.im_accesses - 0.75).abs() < 1e-9);
        assert!((m.dm_accesses - 0.3).abs() < 1e-9);
    }

    #[test]
    fn fold_weighted_is_op_weighted_and_cycle_exact() {
        let a = Activity::synthetic(2.0, 1.0, 0.2, true);
        let b = Activity::synthetic(4.0, 0.5, 0.4, true);
        // Shard A retires 300 ops, shard B 100: per-op rates weight 3:1.
        let folded = Activity::fold_weighted(&[(a, 300), (b, 100)]);
        assert!((folded.im_accesses - (300.0 * 1.0 + 100.0 * 0.5) / 400.0).abs() < 1e-9);
        assert!((folded.dm_accesses - (300.0 * 0.2 + 100.0 * 0.4) / 400.0).abs() < 1e-9);
        // ops/cycle folds over total cycles: 300/2 + 100/4 = 175 cycles.
        assert!((folded.ops_per_cycle - 400.0 / 175.0).abs() < 1e-9);
        assert!(folded.has_sync);
        // A single-shard fold is the identity.
        let same = Activity::fold_weighted(&[(a, 42)]);
        assert!((same.ops_per_cycle - a.ops_per_cycle).abs() < 1e-9);
        assert!((same.im_accesses - a.im_accesses).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot fold across designs")]
    fn fold_rejects_mixed_designs() {
        let a = Activity::synthetic(2.0, 1.0, 0.2, true);
        let b = Activity::synthetic(2.0, 1.0, 0.2, false);
        let _ = Activity::fold_weighted(&[(a, 1), (b, 1)]);
    }

    #[test]
    #[should_panic(expected = "cannot average across designs")]
    fn mean_rejects_mixed_designs() {
        let a = Activity::synthetic(2.0, 1.0, 0.2, true);
        let b = Activity::synthetic(2.0, 1.0, 0.2, false);
        let _ = Activity::mean(&[a, b]);
    }

    #[test]
    fn from_stats_maps_counters() {
        use ulp_cpu::CoreStats;
        use ulp_mem::{DXbarStats, IXbarStats, MemStats};
        let core_total = CoreStats {
            useful_ops: 100,
            active_cycles: 210,
            fetch_stall_cycles: 40,
            hold_cycles: 10,
            sleep_cycles: 20,
            ..Default::default()
        };
        let im = MemStats {
            bank_reads: 50,
            ..Default::default()
        };
        let stats = SimStats {
            cycles: 50,
            num_cores: 8,
            cores: vec![],
            core_total,
            im,
            dm: MemStats::default(),
            ixbar: IXbarStats {
                transfers: 105,
                ..Default::default()
            },
            dxbar: DXbarStats::default(),
            sync: None,
            lockstep_width_sum: 0,
            lockstep_width_cycles: 0,
        };
        let a = Activity::from_stats(&stats);
        assert!((a.ops_per_cycle - 2.0).abs() < 1e-9);
        assert!((a.core_active - 2.1).abs() < 1e-9);
        assert!((a.core_gated - 0.5).abs() < 1e-9);
        assert!((a.core_sleep - 0.2).abs() < 1e-9);
        assert!((a.im_accesses - 0.5).abs() < 1e-9);
        assert!((a.ixbar_transfers - 1.05).abs() < 1e-9);
        assert!(!a.has_sync);
    }
}
