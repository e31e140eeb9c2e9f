//! Subarray row storage.
//!
//! A subarray owns its rows' contents. Rows are allocated lazily (an
//! untouched row reads as all-zero) so that large geometries stay cheap
//! to simulate. Bit indexing is little-endian within each byte: bit `i`
//! of the row lives in byte `i / 8`, bit position `i % 8`.

use crate::error::DramError;

/// Functional storage for one subarray's rows.
///
/// Rows sit in a row-indexed `Vec<Option<Vec<u8>>>`: an access is one
/// index, never a hash. The slot vector grows only as far as the
/// highest row touched, and a row's bytes are allocated only when the
/// row is first written, so an untouched subarray costs nothing.
#[derive(Debug, Clone, Default)]
pub struct Subarray {
    rows: Vec<Option<Vec<u8>>>,
    row_bytes: usize,
}

impl Subarray {
    /// Creates an empty subarray whose rows hold `row_bytes` bytes.
    pub fn new(row_bytes: usize) -> Self {
        Self { rows: Vec::new(), row_bytes }
    }

    /// Row size in bytes.
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// Number of rows that have been materialized (written at least once).
    pub fn materialized_rows(&self) -> usize {
        self.rows.iter().flatten().count()
    }

    /// Reads a full row. Untouched rows read as zeros.
    pub fn read(&self, row: u32) -> Vec<u8> {
        self.peek(row).map_or_else(|| vec![0; self.row_bytes], <[u8]>::to_vec)
    }

    /// Returns a reference to the row's bytes if it has been materialized.
    pub fn peek(&self, row: u32) -> Option<&[u8]> {
        self.rows.get(row as usize).and_then(Option::as_deref)
    }

    /// The row's slot, growing the slot vector to reach it.
    fn slot_mut(&mut self, row: u32) -> &mut Option<Vec<u8>> {
        let index = row as usize;
        if index >= self.rows.len() {
            self.rows.resize_with(index + 1, || None);
        }
        &mut self.rows[index]
    }

    /// The row's bytes, materializing it as zeros on first touch.
    fn row_mut(&mut self, row: u32) -> &mut Vec<u8> {
        let row_bytes = self.row_bytes;
        self.slot_mut(row).get_or_insert_with(|| vec![0; row_bytes])
    }

    /// Overwrites a full row.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::DataSizeMismatch`] if `data` is not exactly
    /// one row long.
    pub fn write(&mut self, row: u32, data: &[u8]) -> Result<(), DramError> {
        if data.len() != self.row_bytes {
            return Err(DramError::DataSizeMismatch { got: data.len(), expected: self.row_bytes });
        }
        self.row_mut(row).copy_from_slice(data);
        Ok(())
    }

    /// Reads `len` bytes starting at byte offset `col`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidColumn`] if the range exceeds the row.
    pub fn read_bytes(&self, row: u32, col: usize, len: usize) -> Result<Vec<u8>, DramError> {
        if col + len > self.row_bytes {
            return Err(DramError::InvalidColumn { col: col + len, row_bytes: self.row_bytes });
        }
        Ok(match self.peek(row) {
            Some(data) => data[col..col + len].to_vec(),
            None => vec![0; len],
        })
    }

    /// Writes bytes starting at byte offset `col`, materializing the row.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidColumn`] if the range exceeds the row.
    pub fn write_bytes(&mut self, row: u32, col: usize, bytes: &[u8]) -> Result<(), DramError> {
        if col + bytes.len() > self.row_bytes {
            return Err(DramError::InvalidColumn {
                col: col + bytes.len(),
                row_bytes: self.row_bytes,
            });
        }
        self.row_mut(row)[col..col + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Flips one bit of a row (RowHammer disturbance). Returns the new
    /// value of the bit.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidColumn`] if `bit` exceeds the row.
    pub fn flip_bit(&mut self, row: u32, bit: usize) -> Result<bool, DramError> {
        if bit >= self.row_bytes * 8 {
            return Err(DramError::InvalidColumn { col: bit / 8, row_bytes: self.row_bytes });
        }
        let row_data = self.row_mut(row);
        let byte = bit / 8;
        let mask = 1u8 << (bit % 8);
        row_data[byte] ^= mask;
        Ok(row_data[byte] & mask != 0)
    }

    /// Reads one bit of a row.
    pub fn read_bit(&self, row: u32, bit: usize) -> Result<bool, DramError> {
        if bit >= self.row_bytes * 8 {
            return Err(DramError::InvalidColumn { col: bit / 8, row_bytes: self.row_bytes });
        }
        Ok(self.peek(row).is_some_and(|data| data[bit / 8] & (1 << (bit % 8)) != 0))
    }

    /// Copies row `src` over row `dst` (the functional effect of a
    /// RowClone AAP within this subarray).
    pub fn copy_row(&mut self, src: u32, dst: u32) {
        let data = self.read(src);
        *self.slot_mut(dst) = Some(data);
    }

    /// Swaps the contents of two rows (three copies through a buffer in
    /// hardware; a plain swap functionally). Both rows end materialized.
    pub fn swap_rows(&mut self, a: u32, b: u32) {
        self.row_mut(a);
        self.row_mut(b);
        self.rows.swap(a as usize, b as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subarray() -> Subarray {
        Subarray::new(16)
    }

    #[test]
    fn untouched_rows_read_zero() {
        let sa = subarray();
        assert_eq!(sa.read(5), vec![0; 16]);
        assert_eq!(sa.materialized_rows(), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut sa = subarray();
        let data: Vec<u8> = (0..16).collect();
        sa.write(3, &data).unwrap();
        assert_eq!(sa.read(3), data);
        assert_eq!(sa.materialized_rows(), 1);
    }

    #[test]
    fn write_wrong_size_rejected() {
        let mut sa = subarray();
        let err = sa.write(0, &[1, 2, 3]).unwrap_err();
        assert_eq!(err, DramError::DataSizeMismatch { got: 3, expected: 16 });
    }

    #[test]
    fn partial_read_write() {
        let mut sa = subarray();
        sa.write_bytes(1, 4, &[0xAA, 0xBB]).unwrap();
        assert_eq!(sa.read_bytes(1, 4, 2).unwrap(), vec![0xAA, 0xBB]);
        assert_eq!(sa.read_bytes(1, 0, 4).unwrap(), vec![0; 4]);
        assert!(sa.read_bytes(1, 15, 2).is_err());
        assert!(sa.write_bytes(1, 15, &[0, 0]).is_err());
    }

    #[test]
    fn flip_bit_toggles() {
        let mut sa = subarray();
        assert!(sa.flip_bit(0, 9).unwrap()); // 0 -> 1
        assert!(sa.read_bit(0, 9).unwrap());
        assert!(!sa.flip_bit(0, 9).unwrap()); // 1 -> 0
        assert!(!sa.read_bit(0, 9).unwrap());
        assert!(sa.flip_bit(0, 16 * 8).is_err());
    }

    #[test]
    fn copy_row_duplicates_contents() {
        let mut sa = subarray();
        sa.write(0, &[7u8; 16]).unwrap();
        sa.copy_row(0, 9);
        assert_eq!(sa.read(9), vec![7u8; 16]);
        // Source unchanged.
        assert_eq!(sa.read(0), vec![7u8; 16]);
    }

    #[test]
    fn swap_rows_exchanges_contents() {
        let mut sa = subarray();
        sa.write(0, &[1u8; 16]).unwrap();
        sa.write(1, &[2u8; 16]).unwrap();
        sa.swap_rows(0, 1);
        assert_eq!(sa.read(0), vec![2u8; 16]);
        assert_eq!(sa.read(1), vec![1u8; 16]);
    }

    #[test]
    fn swap_with_unmaterialized_row_zeroes() {
        let mut sa = subarray();
        sa.write(0, &[1u8; 16]).unwrap();
        sa.swap_rows(0, 7);
        assert_eq!(sa.read(0), vec![0u8; 16]);
        assert_eq!(sa.read(7), vec![1u8; 16]);
        assert_eq!(sa.materialized_rows(), 2);
    }

    #[test]
    fn touching_a_high_row_leaves_lower_rows_untouched() {
        let mut sa = subarray();
        sa.write_bytes(40, 0, &[3]).unwrap();
        assert_eq!(sa.materialized_rows(), 1);
        assert_eq!(sa.peek(39), None);
        assert_eq!(sa.peek(41), None);
        assert_eq!(sa.read_bytes(40, 0, 2).unwrap(), vec![3, 0]);
        assert!(!sa.read_bit(1_000, 0).unwrap(), "rows past the slots read zero");
    }
}
