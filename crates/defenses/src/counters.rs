//! Exact and tree-structured counter trackers.
//!
//! - [`CounterPerRow`]: one counter per DRAM row — the gold standard
//!   for detection accuracy and the overhead upper bound in Table I;
//! - [`CounterTree`] (Seyedzadeh et al., CAL 2017): a binary tree over
//!   the row-id space. Counting starts coarse at the root; any node
//!   whose count crosses the split threshold is refined into two
//!   children. Leaves at maximum depth mitigate. The tree bounds
//!   storage while never undercounting a row (a row's path count is an
//!   upper bound on its true count).

use std::collections::HashMap;

use dlk_dram::RowId;

use crate::traits::RowTracker;

/// One exact counter per row.
///
/// # Example
///
/// ```
/// use dlk_defenses::{CounterPerRow, RowTracker};
/// use dlk_dram::RowId;
///
/// let mut tracker = CounterPerRow::new(3);
/// assert!(!tracker.on_activate(RowId(0)));
/// assert!(!tracker.on_activate(RowId(0)));
/// assert!(tracker.on_activate(RowId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct CounterPerRow {
    threshold: u64,
    counts: HashMap<RowId, u64>,
    total_rows_hint: u64,
}

impl CounterPerRow {
    /// Creates a tracker mitigating at `threshold`.
    pub fn new(threshold: u64) -> Self {
        Self { threshold, counts: HashMap::new(), total_rows_hint: 1 << 24 }
    }

    /// Sets the device row count (for storage accounting).
    pub fn with_total_rows(mut self, rows: u64) -> Self {
        self.total_rows_hint = rows;
        self
    }

    /// Exact count of a row.
    pub fn count(&self, row: RowId) -> u64 {
        self.counts.get(&row).copied().unwrap_or(0)
    }
}

impl RowTracker for CounterPerRow {
    fn on_activate(&mut self, row: RowId) -> bool {
        let count = self.counts.entry(row).or_insert(0);
        *count += 1;
        if *count >= self.threshold {
            *count = 0;
            true
        } else {
            false
        }
    }

    fn reset_window(&mut self) {
        self.counts.clear();
    }

    fn storage_bits(&self) -> u64 {
        // A hardware implementation stores a counter for every row.
        self.total_rows_hint * 16
    }

    fn name(&self) -> &'static str {
        "counter-per-row"
    }
}

/// A counter tree over the row-id space.
#[derive(Debug, Clone)]
pub struct CounterTree {
    /// Targeted-refresh threshold at max-depth leaves.
    threshold: u64,
    /// A node splits into children once it reaches this count.
    split_threshold: u64,
    /// Tree depth: leaves cover `row_space >> depth` rows.
    max_depth: u32,
    /// Row-id space size (power of two covering all rows).
    row_space: u64,
    /// Sparse node counters keyed by (depth, index-at-depth).
    nodes: HashMap<(u32, u64), u64>,
}

impl CounterTree {
    /// Creates a tree over `row_space` row ids with the given depth and
    /// thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `row_space` is not a power of two.
    pub fn new(row_space: u64, max_depth: u32, split_threshold: u64, threshold: u64) -> Self {
        assert!(row_space.is_power_of_two(), "row space must be a power of two");
        Self { threshold, split_threshold, max_depth, row_space, nodes: HashMap::new() }
    }

    /// Standard sizing for a threshold over a row space.
    pub fn for_threshold(row_space: u64, trh: u64) -> Self {
        Self::new(row_space, row_space.trailing_zeros(), trh / 8, trh / 2)
    }

    fn index_at_depth(&self, row: RowId, depth: u32) -> u64 {
        // At depth d the space is divided into 2^d buckets.
        let shift = self.row_space.trailing_zeros() - depth;
        (row.0 % self.row_space) >> shift
    }

    /// Number of materialized nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The depth currently tracking `row` (coarse 0 .. fine max_depth).
    pub fn tracking_depth(&self, row: RowId) -> u32 {
        let mut depth = 0;
        for d in 1..=self.max_depth {
            if self.nodes.contains_key(&(d, self.index_at_depth(row, d))) {
                depth = d;
            } else {
                break;
            }
        }
        depth
    }
}

impl RowTracker for CounterTree {
    fn on_activate(&mut self, row: RowId) -> bool {
        // Walk down the materialized path, incrementing each node.
        let mut depth = 0;
        loop {
            let key = (depth, self.index_at_depth(row, depth));
            let count = self.nodes.entry(key).or_insert(0);
            *count += 1;
            let count = *count;
            if depth == self.max_depth {
                if count >= self.threshold {
                    self.nodes.insert(key, 0);
                    return true;
                }
                return false;
            }
            // Descend only if the child level is materialized or this
            // node just crossed the split threshold.
            let child = (depth + 1, self.index_at_depth(row, depth + 1));
            if self.nodes.contains_key(&child) {
                depth += 1;
            } else if count >= self.split_threshold {
                self.nodes.insert(child, 0);
                depth += 1;
            } else {
                return false;
            }
        }
    }

    fn reset_window(&mut self) {
        self.nodes.clear();
    }

    fn storage_bits(&self) -> u64 {
        self.nodes.len().max(1) as u64 * 20
    }

    fn name(&self) -> &'static str {
        "counter-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_row_is_exact() {
        let mut tracker = CounterPerRow::new(5);
        for i in 1..5 {
            assert!(!tracker.on_activate(RowId(9)), "activation {i}");
        }
        assert!(tracker.on_activate(RowId(9)));
        assert_eq!(tracker.count(RowId(9)), 0, "reset after mitigation");
    }

    #[test]
    fn per_row_rows_independent() {
        let mut tracker = CounterPerRow::new(3);
        tracker.on_activate(RowId(0));
        tracker.on_activate(RowId(0));
        assert!(!tracker.on_activate(RowId(1)));
        assert!(tracker.on_activate(RowId(0)));
    }

    #[test]
    fn tree_refines_under_pressure() {
        let mut tree = CounterTree::new(64, 6, 4, 16);
        let row = RowId(37);
        assert_eq!(tree.tracking_depth(row), 0);
        for _ in 0..10 {
            tree.on_activate(row);
        }
        assert!(tree.tracking_depth(row) > 0, "hot row must be refined");
    }

    #[test]
    fn tree_mitigates_hot_row() {
        let mut tree = CounterTree::new(64, 6, 2, 8);
        let row = RowId(5);
        let mut mitigated = false;
        for _ in 0..100 {
            if tree.on_activate(row) {
                mitigated = true;
                break;
            }
        }
        assert!(mitigated);
    }

    #[test]
    fn tree_storage_grows_only_with_activity() {
        let mut tree = CounterTree::new(1 << 20, 20, 8, 64);
        let idle_bits = tree.storage_bits();
        for i in 0..50u64 {
            tree.on_activate(RowId(i * 1000));
        }
        assert!(tree.storage_bits() > idle_bits);
        // Far less than a full per-row table.
        assert!(tree.storage_bits() < (1 << 20) * 16);
    }

    #[test]
    fn cold_rows_never_mitigate() {
        let mut tree = CounterTree::new(64, 6, 4, 16);
        for i in 0..64u64 {
            assert!(!tree.on_activate(RowId(i)));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_space_panics() {
        let _ = CounterTree::new(100, 4, 2, 8);
    }
}
