//! Banked register file.
//!
//! Each PE tree owns a private register file of `banks_per_tree` banks; the
//! simulator stores all of them in one [`RegisterFile`] addressed by global
//! bank index.  The file holds values only: the port limits of the paper's
//! crossbar and bank design (one read and one committing write per bank per
//! cycle) and the address ranges are rules of the program, enforced once by
//! [`crate::Processor::check`].

use crate::config::ProcessorConfig;

/// The processor's register storage: `total_banks × regs_per_bank` words.
#[derive(Debug, Clone)]
pub struct RegisterFile {
    banks: usize,
    regs_per_bank: usize,
    data: Vec<f64>,
    /// Commit cycle of the write each register holds.
    commit: Vec<u64>,
}

impl RegisterFile {
    /// Creates a zero-initialised register file for `config`.
    pub fn new(config: &ProcessorConfig) -> Self {
        let banks = config.total_banks();
        RegisterFile {
            banks,
            regs_per_bank: config.regs_per_bank,
            data: vec![0.0; banks * config.regs_per_bank],
            commit: vec![0; banks * config.regs_per_bank],
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Registers per bank.
    pub fn regs_per_bank(&self) -> usize {
        self.regs_per_bank
    }

    /// Clears all contents, keeping the allocation (used between queries of
    /// a batched run).
    pub fn reset(&mut self) {
        self.data.fill(0.0);
        self.commit.fill(0);
    }

    fn index(&self, bank: usize, reg: usize) -> usize {
        assert!(
            bank < self.banks && reg < self.regs_per_bank,
            "register address bank {bank} reg {reg} out of range"
        );
        bank * self.regs_per_bank + reg
    }

    /// The value of `reg` of `bank`.
    ///
    /// # Panics
    ///
    /// Panics when the address is out of range.
    pub fn get(&self, bank: usize, reg: usize) -> f64 {
        self.data[self.index(bank, reg)]
    }

    /// Lands a write of `value` to `reg` of `bank` that commits in cycle
    /// `commit`.  The write lands when it issues: of two writes in flight to
    /// one register the later commit is the one that stays, whichever issued
    /// first, and [`crate::Processor::check`] has established that nobody
    /// reads the register before that commit.
    ///
    /// # Panics
    ///
    /// Panics when the address is out of range.
    pub fn write(&mut self, bank: usize, reg: usize, value: f64, commit: u64) {
        let i = self.index(bank, reg);
        if commit >= self.commit[i] {
            self.commit[i] = commit;
            self.data[i] = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regfile() -> RegisterFile {
        RegisterFile::new(&ProcessorConfig::ptree())
    }

    #[test]
    fn read_back_written_value() {
        let mut rf = regfile();
        rf.write(3, 10, 2.5, 0);
        assert_eq!(rf.get(3, 10), 2.5);
        assert_eq!(rf.get(3, 11), 0.0);
        assert_eq!(rf.get(4, 10), 0.0);
    }

    #[test]
    fn the_later_commit_stays_whichever_write_issued_first() {
        let mut rf = regfile();
        // Issued first, commits in cycle 3; issued second, commits in cycle 1.
        rf.write(2, 0, 1.0, 3);
        rf.write(2, 0, 2.0, 1);
        assert_eq!(rf.get(2, 0), 1.0);
        // A later write overwrites, and a reset forgets the commit tags.
        rf.write(2, 0, 3.0, 4);
        assert_eq!(rf.get(2, 0), 3.0);
        rf.reset();
        assert_eq!(rf.get(2, 0), 0.0);
        rf.write(2, 0, 4.0, 0);
        assert_eq!(rf.get(2, 0), 4.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_register_beyond_its_bank_does_not_alias_the_next_bank() {
        regfile().get(0, 64);
    }
}
