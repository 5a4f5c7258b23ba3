//! Vector-addressed data memory.
//!
//! The paper's data memory exchanges whole rows with the register file: one
//! address moves one word per register bank (32 words) at a time.  This keeps
//! the memory interface regular — all irregular accesses are absorbed by the
//! banked register file.

use crate::config::ProcessorConfig;
use crate::error::ProcessorError;
use crate::Result;

/// The processor's data memory, organised as rows of one word per bank.
#[derive(Debug, Clone)]
pub struct DataMemory {
    rows: usize,
    width: usize,
    data: Vec<f64>,
}

impl DataMemory {
    /// Creates a zero-initialised data memory for `config`.
    pub fn new(config: &ProcessorConfig) -> Self {
        DataMemory::with_rows(config.data_memory_rows, config.total_banks())
    }

    /// Creates a data memory with an explicit row count.
    ///
    /// Programs whose inputs exceed the configured on-chip capacity are run
    /// against a proportionally larger backing memory; the interface (one row
    /// per transaction) and therefore the cycle counts are unchanged.
    pub fn with_rows(rows: usize, width: usize) -> Self {
        DataMemory {
            rows,
            width,
            data: vec![0.0; rows * width],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Words per row (= number of register banks).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Initialises the memory contents from a flat image (row-major).
    ///
    /// # Errors
    ///
    /// Returns [`ProcessorError::MemoryOutOfRange`] when the image is larger
    /// than the memory.
    pub fn load_image(&mut self, image: &[f64]) -> Result<()> {
        if image.len() > self.data.len() {
            return Err(ProcessorError::MemoryOutOfRange {
                row: image.len() / self.width,
                rows: self.rows,
            });
        }
        self.data[..image.len()].copy_from_slice(image);
        Ok(())
    }

    fn check_row(&self, row: usize) -> Result<()> {
        if row >= self.rows {
            return Err(ProcessorError::MemoryOutOfRange {
                row,
                rows: self.rows,
            });
        }
        Ok(())
    }

    /// Reads row `row` (one load transaction).
    ///
    /// # Errors
    ///
    /// Returns [`ProcessorError::MemoryOutOfRange`] for an invalid row.
    pub fn load_row(&self, row: usize) -> Result<&[f64]> {
        self.check_row(row)?;
        Ok(&self.data[row * self.width..(row + 1) * self.width])
    }

    /// Writes row `row` (one store transaction).
    ///
    /// # Errors
    ///
    /// Returns [`ProcessorError::MemoryOutOfRange`] for an invalid row and a
    /// malformed-instruction error when `values` is not exactly one row wide.
    pub fn store_row(&mut self, row: usize, values: &[f64]) -> Result<()> {
        self.check_row(row)?;
        if values.len() != self.width {
            return Err(ProcessorError::MalformedInstruction {
                cycle: 0,
                reason: format!(
                    "store of {} words into a row of width {}",
                    values.len(),
                    self.width
                ),
            });
        }
        self.data[row * self.width..(row + 1) * self.width].copy_from_slice(values);
        Ok(())
    }

    /// Reads a single word outside any transaction (used to fetch the
    /// program output after execution).
    pub fn peek(&self, row: usize, lane: usize) -> f64 {
        self.data[row * self.width + lane]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_round_trip() {
        let cfg = ProcessorConfig::ptree();
        let mut mem = DataMemory::new(&cfg);
        let image: Vec<f64> = (0..64).map(|i| i as f64).collect();
        mem.load_image(&image).unwrap();
        assert_eq!(mem.peek(0, 5), 5.0);
        assert_eq!(mem.peek(1, 0), 32.0);
        assert_eq!(mem.load_row(1).unwrap()[31], 63.0);
    }

    #[test]
    fn store_and_reload_row() {
        let cfg = ProcessorConfig::ptree();
        let mut mem = DataMemory::new(&cfg);
        let row: Vec<f64> = (0..32).map(|i| (i * 2) as f64).collect();
        mem.store_row(7, &row).unwrap();
        assert_eq!(mem.load_row(7).unwrap(), row.as_slice());
    }

    #[test]
    fn out_of_range_rows_are_rejected() {
        let cfg = ProcessorConfig::ptree();
        let mut mem = DataMemory::new(&cfg);
        assert!(mem.load_row(512).is_err());
        assert!(mem.store_row(9999, &vec![0.0; 32]).is_err());
        assert!(mem.load_image(&vec![0.0; 32 * 513]).is_err());
    }

    #[test]
    fn misshapen_store_is_rejected() {
        let cfg = ProcessorConfig::ptree();
        let mut mem = DataMemory::new(&cfg);
        assert!(mem.store_row(0, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn geometry_matches_config() {
        let cfg = ProcessorConfig::ptree();
        let mem = DataMemory::new(&cfg);
        assert_eq!(mem.rows(), 512);
        assert_eq!(mem.width(), 32);
    }
}
