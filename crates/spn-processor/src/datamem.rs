//! Vector-addressed data memory.
//!
//! The paper's data memory exchanges whole rows with the register file: one
//! address moves one word per register bank (32 words) at a time.  This keeps
//! the memory interface regular — all irregular accesses are absorbed by the
//! banked register file.

use crate::config::ProcessorConfig;

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

    /// Zeroes the first `rows` rows — the address space of a program that
    /// declares `rows` of them — leaving the rest of a larger reused backing
    /// memory alone.
    ///
    /// # Panics
    ///
    /// Panics when the memory has fewer rows.
    pub fn clear_rows(&mut self, rows: usize) {
        self.data[..rows * self.width].fill(0.0);
    }

    /// Row `row`: the words one load transaction moves.
    ///
    /// # Panics
    ///
    /// Panics when the row is out of range; whether a program stays inside
    /// its rows is [`crate::Processor::check`]'s question.
    pub fn row(&self, row: usize) -> &[f64] {
        &self.data[row * self.width..(row + 1) * self.width]
    }

    /// Row `row`, writable: the words one store transaction replaces.
    ///
    /// # Panics
    ///
    /// As for [`DataMemory::row`].
    pub fn row_mut(&mut self, row: usize) -> &mut [f64] {
        &mut self.data[row * self.width..(row + 1) * self.width]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_reload_row() {
        let cfg = ProcessorConfig::ptree();
        let mut mem = DataMemory::new(&cfg);
        let row: Vec<f64> = (0..32).map(|i| (i * 2) as f64).collect();
        mem.row_mut(7).copy_from_slice(&row);
        assert_eq!(mem.row(7), row.as_slice());
        assert_eq!(mem.row(6), [0.0; 32]);
        assert_eq!(mem.row(8), [0.0; 32]);
    }

    #[test]
    fn clearing_a_programs_rows_leaves_the_rest() {
        let mut mem = DataMemory::with_rows(3, 4);
        for row in 0..3 {
            mem.row_mut(row).fill(row as f64 + 1.0);
        }
        mem.clear_rows(2);
        assert_eq!(mem.row(0), [0.0; 4]);
        assert_eq!(mem.row(1), [0.0; 4]);
        assert_eq!(mem.row(2), [3.0; 4]);
    }

    #[test]
    #[should_panic]
    fn a_lane_beyond_the_row_does_not_alias_the_next_row() {
        let mem = DataMemory::new(&ProcessorConfig::ptree());
        let _ = mem.row(0)[32];
    }

    #[test]
    fn geometry_matches_config() {
        let cfg = ProcessorConfig::ptree();
        let mem = DataMemory::new(&cfg);
        assert_eq!(mem.rows(), 512);
        assert_eq!(mem.width(), 32);
    }
}
