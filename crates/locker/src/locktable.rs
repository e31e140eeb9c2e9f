//! The SRAM lock-table.
//!
//! Counter-based RowHammer defenses (Graphene, Hydra, TWiCE, ...) keep a
//! *count table*: per-row activation counters that trigger mitigation on
//! overflow. DRAM-Locker replaces counting entirely: the lock-table
//! stores only *membership* — the addresses of rows that must not be
//! activated. A lookup answers "is this row locked?" in one SRAM access;
//! there is no counter state to update, saturate or reset.
//!
//! The table is an open-addressed hash set modelling that SRAM: dense
//! `RowId` slots whose count is the capacity rounded up to a power of
//! two (at most half full, so probe chains stay short), mask-indexed
//! by a Fibonacci-mixed hash with linear probing. Each probe step
//! evaluates occupancy and key equality branch-free and exits through
//! a single predictable branch; lookup/hit counters live in [`Cell`]s
//! so the request-path probe takes `&self` — there is no
//! `is_locked(&mut self)` / `peek(&self)` split anymore. The
//! pre-refactor behavioural twin survives as the test-only
//! `reference::ScanLockTable`, the oracle for the stats-identity tests.

use std::cell::Cell;

use dlk_dram::RowId;

use crate::error::LockerError;

/// Multiplicative (Fibonacci) hash: spreads sequential row ids across
/// the table while keeping the probe index computation to one multiply
/// and one shift.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The lock-table: a capacity-bounded set of locked rows.
///
/// # Example
///
/// ```
/// use dlk_locker::LockTable;
/// use dlk_dram::RowId;
///
/// # fn main() -> Result<(), dlk_locker::LockerError> {
/// let mut table = LockTable::new(1024);
/// table.lock(RowId(7))?;
/// assert!(table.is_locked(RowId(7)));
/// table.unlock(RowId(7));
/// assert!(!table.is_locked(RowId(7)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LockTable {
    /// Slot keys (`RowId` values); meaningful only where the
    /// corresponding `occupied` bit is set.
    keys: Vec<u64>,
    /// One occupancy bit per slot, packed 64 per word.
    occupied: Vec<u64>,
    /// `slots - 1`; slot count is a power of two.
    mask: usize,
    /// High-bits shift of the multiplicative hash.
    shift: u32,
    len: usize,
    capacity: usize,
    lookups: Cell<u64>,
    hits: Cell<u64>,
    /// `(lookups, hits)` already pushed to a registry by
    /// [`LockTable::export_obs`], so repeated exports add deltas only.
    exported: Cell<(u64, u64)>,
}

impl Default for LockTable {
    /// An empty zero-capacity table (every lock is denied).
    fn default() -> Self {
        Self::new(0)
    }
}

impl LockTable {
    /// Creates a lock-table holding at most `capacity` entries. The
    /// slot array is `capacity` rounded up to the next power of two,
    /// doubled — the table never exceeds half occupancy, which bounds
    /// linear-probe chains.
    pub fn new(capacity: usize) -> Self {
        let slots = (capacity.max(1) * 2).next_power_of_two();
        Self {
            keys: vec![0; slots],
            occupied: vec![0; slots.div_ceil(64)],
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
            len: 0,
            capacity,
            lookups: Cell::new(0),
            hits: Cell::new(0),
            exported: Cell::new((0, 0)),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of locked rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rows are locked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of physical slots (power of two; ≥ 2 × capacity).
    pub fn slots(&self) -> usize {
        self.mask + 1
    }

    #[inline]
    fn home_slot(&self, key: u64) -> usize {
        (key.wrapping_mul(HASH_MUL) >> self.shift) as usize & self.mask
    }

    #[inline]
    fn occupied_bit(&self, slot: usize) -> bool {
        self.occupied[slot >> 6] >> (slot & 63) & 1 == 1
    }

    fn set_occupied(&mut self, slot: usize) {
        self.occupied[slot >> 6] |= 1 << (slot & 63);
    }

    fn clear_occupied(&mut self, slot: usize) {
        self.occupied[slot >> 6] &= !(1 << (slot & 63));
    }

    /// Linear probe for `key`: returns `(slot, found)` where `slot` is
    /// either the key's slot or the first empty slot of its chain.
    /// Occupancy and key equality are evaluated branch-free; the loop
    /// exits through one predictable branch per step. Terminates
    /// because the table is never more than half full.
    #[inline]
    fn probe(&self, key: u64) -> (usize, bool) {
        let mut slot = self.home_slot(key);
        loop {
            let occupied = self.occupied_bit(slot);
            let hit = occupied & (self.keys[slot] == key);
            if !occupied | hit {
                return (slot, hit);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Locks a row.
    ///
    /// # Errors
    ///
    /// Returns [`LockerError::TableFull`] at capacity. Locking an
    /// already-locked row is a no-op (idempotent).
    pub fn lock(&mut self, row: RowId) -> Result<(), LockerError> {
        let (slot, found) = self.probe(row.0);
        if found {
            return Ok(());
        }
        if self.len >= self.capacity {
            return Err(LockerError::TableFull { capacity: self.capacity });
        }
        self.keys[slot] = row.0;
        self.set_occupied(slot);
        self.len += 1;
        Ok(())
    }

    /// Unlocks a row. Returns `true` if it was locked.
    pub fn unlock(&mut self, row: RowId) -> bool {
        let (slot, found) = self.probe(row.0);
        if !found {
            return false;
        }
        self.remove_slot(slot);
        true
    }

    /// Deletes the entry at `slot` with the classic backward-shift so
    /// no probe chain is ever broken by a tombstone.
    fn remove_slot(&mut self, mut slot: usize) {
        self.len -= 1;
        loop {
            self.clear_occupied(slot);
            let mut next = slot;
            loop {
                next = (next + 1) & self.mask;
                if !self.occupied_bit(next) {
                    return;
                }
                let home = self.home_slot(self.keys[next]);
                // `next`'s key may move into the hole at `slot` iff its
                // home slot is cyclically outside (slot, next].
                if (next.wrapping_sub(home) & self.mask) >= (next.wrapping_sub(slot) & self.mask) {
                    self.keys[slot] = self.keys[next];
                    self.set_occupied(slot);
                    slot = next;
                    break;
                }
            }
        }
    }

    /// Membership check *with* statistics — the hardware lookup on the
    /// request path. Takes `&self`: the counters are interior, so
    /// read-only holders of the table can still issue counted probes.
    /// Use [`LockTable::peek`] for introspection that should not
    /// perturb stats.
    #[inline]
    pub fn is_locked(&self, row: RowId) -> bool {
        self.lookups.set(self.lookups.get() + 1);
        let (_, hit) = self.probe(row.0);
        self.hits.set(self.hits.get() + u64::from(hit));
        hit
    }

    /// Membership check without touching statistics.
    #[inline]
    pub fn peek(&self, row: RowId) -> bool {
        self.probe(row.0).1
    }

    /// Pushes the probe counters into `registry` as
    /// `<prefix>.lookups` / `<prefix>.hits`. Only the delta since the
    /// previous export is added, so calling this after every run (the
    /// scenario runner does) never double-counts — this is how the
    /// table's private `Cell` counters surface in `metrics.json` and
    /// the `--trace` exposition.
    pub fn export_obs(&self, registry: &dlk_obs::Registry, prefix: &str) {
        let (prev_lookups, prev_hits) = self.exported.get();
        let (lookups, hits) = (self.lookups.get(), self.hits.get());
        registry.counter(&format!("{prefix}.lookups")).add(lookups.saturating_sub(prev_lookups));
        registry.counter(&format!("{prefix}.hits")).add(hits.saturating_sub(prev_hits));
        self.exported.set((lookups, hits));
    }

    /// Total lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups.get()
    }

    /// Lookups that found a locked row.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Iterates over the locked rows (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = RowId> + '_ {
        (0..=self.mask).filter(|&slot| self.occupied_bit(slot)).map(|slot| RowId(self.keys[slot]))
    }

    /// Unlocks everything.
    pub fn clear(&mut self) {
        self.occupied.fill(0);
        self.len = 0;
    }

    /// SRAM bytes consumed at `entry_bytes` per entry.
    pub fn sram_bytes(&self, entry_bytes: usize) -> usize {
        self.len * entry_bytes
    }
}

impl Extend<RowId> for LockTable {
    /// Extends the table, silently stopping at capacity (use
    /// [`LockTable::lock`] for error reporting).
    fn extend<T: IntoIterator<Item = RowId>>(&mut self, iter: T) {
        for row in iter {
            if self.lock(row).is_err() {
                break;
            }
        }
    }
}

/// Pre-refactor oracles, kept for equivalence tests.
#[cfg(test)]
mod reference {
    use dlk_dram::RowId;

    use crate::error::LockerError;

    /// The scalar scan lock-table: a plain `Vec` probed linearly, with
    /// the seed's `is_locked(&mut self)` signature. Behaviourally
    /// identical to [`LockTable`](super::LockTable) — the stats-parity
    /// tests replay recorded probe sequences against both.
    #[derive(Debug, Clone, Default)]
    pub struct ScanLockTable {
        locked: Vec<u64>,
        capacity: usize,
        lookups: u64,
        hits: u64,
    }

    impl ScanLockTable {
        /// Creates a table holding at most `capacity` entries.
        pub fn new(capacity: usize) -> Self {
            Self { locked: Vec::new(), capacity, lookups: 0, hits: 0 }
        }

        /// Locks a row (idempotent), failing at capacity.
        ///
        /// # Errors
        ///
        /// Returns [`LockerError::TableFull`] at capacity.
        pub fn lock(&mut self, row: RowId) -> Result<(), LockerError> {
            if self.locked.contains(&row.0) {
                return Ok(());
            }
            if self.locked.len() >= self.capacity {
                return Err(LockerError::TableFull { capacity: self.capacity });
            }
            self.locked.push(row.0);
            Ok(())
        }

        /// Unlocks a row. Returns `true` if it was locked.
        pub fn unlock(&mut self, row: RowId) -> bool {
            match self.locked.iter().position(|&id| id == row.0) {
                Some(index) => {
                    self.locked.swap_remove(index);
                    true
                }
                None => false,
            }
        }

        /// Counted membership scan.
        pub fn is_locked(&mut self, row: RowId) -> bool {
            self.lookups += 1;
            let hit = self.locked.contains(&row.0);
            if hit {
                self.hits += 1;
            }
            hit
        }

        /// Number of locked rows.
        pub fn len(&self) -> usize {
            self.locked.len()
        }

        /// Total lookups performed.
        pub fn lookups(&self) -> u64 {
            self.lookups
        }

        /// Lookups that found a locked row.
        pub fn hits(&self) -> u64 {
            self.hits
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ScanLockTable;
    use super::*;

    #[test]
    fn export_obs_adds_deltas_only() {
        let registry = dlk_obs::Registry::new();
        let mut table = LockTable::new(8);
        table.lock(RowId(1)).unwrap();
        table.is_locked(RowId(1)); // hit
        table.is_locked(RowId(2)); // miss
        table.export_obs(&registry, "locker.locktable");
        assert_eq!(registry.counter("locker.locktable.lookups").get(), 2);
        assert_eq!(registry.counter("locker.locktable.hits").get(), 1);
        // A second export with no new probes adds nothing...
        table.export_obs(&registry, "locker.locktable");
        assert_eq!(registry.counter("locker.locktable.lookups").get(), 2);
        // ...and new probes export as deltas.
        table.is_locked(RowId(1));
        table.export_obs(&registry, "locker.locktable");
        assert_eq!(registry.counter("locker.locktable.lookups").get(), 3);
        assert_eq!(registry.counter("locker.locktable.hits").get(), 2);
    }

    #[test]
    fn lock_unlock_cycle() {
        let mut table = LockTable::new(8);
        assert!(table.is_empty());
        table.lock(RowId(1)).unwrap();
        table.lock(RowId(2)).unwrap();
        assert_eq!(table.len(), 2);
        assert!(table.is_locked(RowId(1)));
        assert!(!table.is_locked(RowId(3)));
        assert!(table.unlock(RowId(1)));
        assert!(!table.unlock(RowId(1)));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn locking_is_idempotent() {
        let mut table = LockTable::new(1);
        table.lock(RowId(5)).unwrap();
        table.lock(RowId(5)).unwrap(); // no error at capacity: same row
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut table = LockTable::new(2);
        table.lock(RowId(1)).unwrap();
        table.lock(RowId(2)).unwrap();
        let err = table.lock(RowId(3)).unwrap_err();
        assert_eq!(err, LockerError::TableFull { capacity: 2 });
    }

    #[test]
    fn stats_track_lookups_and_hits() {
        let mut table = LockTable::new(8);
        table.lock(RowId(1)).unwrap();
        table.is_locked(RowId(1));
        table.is_locked(RowId(2));
        table.peek(RowId(1)); // must not count
        assert_eq!(table.lookups(), 2);
        assert_eq!(table.hits(), 1);
    }

    #[test]
    fn probe_works_through_a_shared_reference() {
        let mut table = LockTable::new(8);
        table.lock(RowId(9)).unwrap();
        let shared: &LockTable = &table;
        assert!(shared.is_locked(RowId(9)));
        assert!(!shared.is_locked(RowId(10)));
        assert_eq!(shared.lookups(), 2);
        assert_eq!(shared.hits(), 1);
    }

    #[test]
    fn extend_stops_at_capacity() {
        let mut table = LockTable::new(3);
        table.extend((0..10).map(RowId));
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn sram_accounting() {
        let mut table = LockTable::new(1000);
        table.extend((0..100).map(RowId));
        assert_eq!(table.sram_bytes(8), 800);
    }

    #[test]
    fn paper_sram_budget_covers_thousands_of_rows() {
        // 56 KB at 8 B/entry = 7168 lockable rows — plenty for the
        // adjacent rows of a DNN's vulnerable weights.
        let capacity = 56 * 1024 / 8;
        let mut table = LockTable::new(capacity);
        table.extend((0..capacity as u64).map(RowId));
        assert_eq!(table.len(), 7168);
    }

    #[test]
    fn slot_count_rounds_to_power_of_two() {
        // capacity 0: still a valid (always-full) table.
        let mut empty = LockTable::new(0);
        assert_eq!(
            empty.lock(RowId(1)).unwrap_err(),
            LockerError::TableFull { capacity: 0 },
            "capacity-0 tables reject every lock"
        );
        assert!(!empty.is_locked(RowId(1)));
        assert_eq!(empty.slots(), 2);
        // capacity 1 and assorted non-powers-of-two.
        for (capacity, slots) in [(1, 2), (2, 4), (3, 8), (5, 16), (7168, 16384), (1000, 2048)] {
            let table = LockTable::new(capacity);
            assert_eq!(table.slots(), slots, "capacity {capacity}");
            assert!(table.slots().is_power_of_two());
            assert!(table.slots() >= 2 * capacity);
        }
    }

    #[test]
    fn full_table_denies_and_still_probes_correctly() {
        // A full table's probe chains must terminate (≤ half of the
        // slots are occupied) and report exact membership.
        let capacity = 13;
        let mut table = LockTable::new(capacity);
        for row in 0..capacity as u64 {
            table.lock(RowId(row * 1_000_003)).unwrap();
        }
        assert!(table.lock(RowId(42)).is_err(), "full table denies new locks");
        for row in 0..capacity as u64 {
            assert!(table.is_locked(RowId(row * 1_000_003)));
        }
        assert!(!table.is_locked(RowId(42)));
        assert!(!table.is_locked(RowId(u64::MAX)));
    }

    #[test]
    fn backward_shift_deletion_keeps_chains_probeable() {
        // Colliding keys (same home slot) form one probe chain;
        // deleting the head must not orphan the tail.
        let mut table = LockTable::new(64);
        let rows: Vec<RowId> = (0..48u64).map(|i| RowId(i * 7 + 1)).collect();
        for &row in &rows {
            table.lock(row).unwrap();
        }
        // Remove every third entry, then verify all remaining ones.
        for chunk in rows.chunks(3) {
            assert!(table.unlock(chunk[0]));
        }
        for (index, &row) in rows.iter().enumerate() {
            assert_eq!(table.is_locked(row), index % 3 != 0, "row {row:?}");
        }
        assert_eq!(table.len(), 32);
    }

    /// Replaying one recorded probe/lock/unlock sequence against the
    /// open-addressed table and the scalar scan oracle yields
    /// identical results and identical `lookups`/`hits` statistics.
    #[test]
    fn stats_identical_to_scan_reference_under_recorded_sequence() {
        for capacity in [0usize, 1, 2, 5, 64] {
            let mut table = LockTable::new(capacity);
            let mut oracle = ScanLockTable::new(capacity);
            // A deterministic mixed op tape: lock / probe / unlock over
            // a small row universe so hits, misses, collisions and
            // capacity denials all occur.
            let mut state = 0x2545_F491_4F6C_DD1Du64;
            for step in 0..4096u64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let row = RowId(state >> 40 & 0x3F);
                match step % 5 {
                    0 => assert_eq!(table.lock(row).is_ok(), oracle.lock(row).is_ok()),
                    4 => assert_eq!(table.unlock(row), oracle.unlock(row)),
                    _ => assert_eq!(table.is_locked(row), oracle.is_locked(row)),
                }
                assert_eq!(table.len(), oracle.len());
            }
            assert_eq!(table.lookups(), oracle.lookups(), "capacity {capacity}");
            assert_eq!(table.hits(), oracle.hits(), "capacity {capacity}");
            assert!(table.lookups() > 2000);
        }
    }

    #[test]
    fn iter_and_clear_cover_all_slots() {
        let mut table = LockTable::new(16);
        table.extend([3, 11, 200, 7].into_iter().map(RowId));
        let mut seen: Vec<u64> = table.iter().map(|row| row.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![3, 7, 11, 200]);
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.iter().count(), 0);
        assert!(!table.peek(RowId(3)));
        // The table is reusable after clear.
        table.lock(RowId(3)).unwrap();
        assert!(table.is_locked(RowId(3)));
    }
}
