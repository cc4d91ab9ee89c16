//! The recording-level heat map: merging per-shard DM heat-map rows back
//! onto the merged run's global cycle axis.
//!
//! The merge of outputs, statistics and events ([`crate::merge`]) makes the
//! *numbers* of a sharded run recording-scale; this module does the same
//! for the one job artifact, the per-bank DM heat map. Every shard job
//! records its rows over its own local cycle axis (cycle 1 is the shard's
//! first cycle), so stitching them back requires the per-shard cycle
//! offsets that only the merge knows: [`MergedHeatMap`] holds every
//! shard's heat-map rows (sampled from the D-Xbar's per-bank served
//! counter, [`ulp_platform::Platform::dm_bank_served`]) re-indexed to the
//! merged recording's cycle axis (shard `i`'s rows start at the sum of the preceding shards' cycle
//! counts), each row carrying its global `[start_cycle, end_cycle)` window
//! explicitly, so per-bank totals and time-resolved heat maps survive
//! sharding losslessly.

use crate::merge::MergeError;
use crate::runner::ShardOutput;

/// One heat-map row on the merged recording's global cycle axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeatMapRow {
    /// Shard (plan index) the row was recorded by.
    pub shard: usize,
    /// First cycle (0-based) of the merged recording this row covers.
    pub start_cycle: u64,
    /// One past the last covered cycle.
    pub end_cycle: u64,
    /// Served core accesses per DM bank within the window.
    pub banks: Vec<u64>,
}

/// A recording-level per-bank DM heat map: every shard's rows re-indexed
/// from shard-local to global cycle windows.
///
/// Rows are in global cycle order and tile the merged cycle axis gaplessly
/// (`rows[i+1].start_cycle == rows[i].end_cycle`, starting at 0 and ending
/// at the merged run's total cycles). Shard boundaries flush partial
/// windows, so a row may cover fewer than `window` cycles.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MergedHeatMap {
    /// Cycles per full row (the jobs' [`ulp_service::JobSpec::heat_map_window`]).
    pub window: u64,
    /// The re-indexed rows, in global cycle order.
    pub rows: Vec<HeatMapRow>,
}

impl MergedHeatMap {
    /// Lifts a *single-window* job's heat-map rows onto the merged
    /// representation: one shard at offset 0, rows spanning `cycles` in
    /// `window`-cycle steps. This is how the sweep gives its unsharded
    /// cells the same heat-map type as its sharded ones.
    pub fn from_single(rows: &[Vec<u64>], window: u64, cycles: u64) -> MergedHeatMap {
        MergedHeatMap {
            window,
            rows: reindex_heat_map(0, 0, cycles, window, rows),
        }
    }

    /// Number of DM banks per row (0 for an empty map).
    pub fn banks(&self) -> usize {
        self.rows.first().map_or(0, |r| r.banks.len())
    }

    /// Total served accesses per bank over the whole recording — the sum
    /// of every shard's per-bank totals, exactly.
    pub fn totals(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.banks()];
        for row in &self.rows {
            for (t, &v) in totals.iter_mut().zip(&row.banks) {
                *t += v;
            }
        }
        totals
    }
}

/// Re-indexes one shard's heat-map rows onto the global cycle axis: row
/// `j` covered local cycles `[j*window, (j+1)*window)` (the last row the
/// remainder up to `cycles`), shifted by `offset`.
fn reindex_heat_map(
    shard: usize,
    offset: u64,
    cycles: u64,
    window: u64,
    rows: &[Vec<u64>],
) -> Vec<HeatMapRow> {
    let count = rows.len();
    rows.iter()
        .enumerate()
        .map(|(j, banks)| {
            let start = (j as u64 * window).min(cycles);
            // The shard's last row is its run-end flush: it ends exactly at
            // the shard's cycle count, keeping the global axis gapless.
            let end = if j + 1 == count {
                cycles
            } else {
                ((j as u64 + 1) * window).min(cycles)
            };
            HeatMapRow {
                shard,
                start_cycle: offset + start,
                end_cycle: offset + end,
                banks: banks.clone(),
            }
        })
        .collect()
}

/// Merges the per-shard heat maps of a completed sharded run onto the
/// merged recording's global cycle axis: `None` when the run recorded no
/// heat map (`window` is `None`). `shards` must be in plan order (the
/// caller — [`crate::merge_with_golden`] — has already validated order
/// and shape).
///
/// # Errors
///
/// [`MergeError::HeatMapPresence`] when a shard carries a heat map the
/// run did not ask for, or lacks the one it did, and
/// [`MergeError::HeatMapShapeMismatch`] when any row's bank count differs
/// from the first row's, within a shard or across shards.
pub(crate) fn merge_heat_map(
    window: Option<u64>,
    shards: &[ShardOutput],
) -> Result<Option<MergedHeatMap>, MergeError> {
    for (index, out) in shards.iter().enumerate() {
        if out.heat_map.is_some() != window.is_some() {
            return Err(MergeError::HeatMapPresence {
                shard: index,
                expected: window.is_some(),
            });
        }
    }
    let Some(window) = window else {
        return Ok(None);
    };
    let mut rows = Vec::new();
    let mut banks: Option<usize> = None;
    let mut offset = 0u64;
    for out in shards {
        let shard_rows = out.heat_map.as_deref().unwrap_or_default();
        for row in shard_rows {
            let expected = *banks.get_or_insert(row.len());
            if row.len() != expected {
                return Err(MergeError::HeatMapShapeMismatch {
                    shard: out.shard.index,
                    expected_banks: expected,
                    found_banks: row.len(),
                });
            }
        }
        let cycles = out.run.stats.cycles;
        rows.extend(reindex_heat_map(
            out.shard.index,
            offset,
            cycles,
            window,
            shard_rows,
        ));
        offset += cycles;
    }
    Ok(Some(MergedHeatMap { window, rows }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reindex_is_gapless_and_clamps_the_tail() {
        // 250 cycles in 100-cycle windows → rows of 100, 100, 50.
        let rows = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
        let out = reindex_heat_map(2, 1000, 250, 100, &rows);
        assert_eq!(out.len(), 3);
        assert_eq!((out[0].start_cycle, out[0].end_cycle), (1000, 1100));
        assert_eq!((out[1].start_cycle, out[1].end_cycle), (1100, 1200));
        assert_eq!((out[2].start_cycle, out[2].end_cycle), (1200, 1250));
        assert!(out.iter().all(|r| r.shard == 2));
    }

    #[test]
    fn from_single_lifts_each_kind_at_offset_zero() {
        let map = MergedHeatMap::from_single(&[vec![7, 0]], 64, 40);
        assert_eq!(map.window, 64);
        assert_eq!(map.rows.len(), 1);
        assert_eq!((map.rows[0].start_cycle, map.rows[0].end_cycle), (0, 40));
        assert_eq!(map.totals(), vec![7, 0]);

        let empty = MergedHeatMap::from_single(&[], 64, 0);
        assert!(empty.rows.is_empty());
        assert_eq!((empty.banks(), empty.totals()), (0, vec![]));
    }
}
