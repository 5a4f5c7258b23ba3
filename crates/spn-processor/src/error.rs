use std::fmt;

/// Errors raised by the processor simulator.
///
/// Every variant corresponds to a program that the real hardware could not
/// execute correctly: structural-hazard violations (port conflicts), values
/// read while still in flight in the PE pipeline, or plain malformed
/// instructions.  The compiler is expected to never produce such programs, so
/// these errors double as a verification oracle for the compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProcessorError {
    /// Two reads addressed the same register bank in one cycle.
    ReadPortConflict {
        /// Cycle at which the conflict occurred.
        cycle: u64,
        /// The over-subscribed bank.
        bank: usize,
    },
    /// Two writes tried to commit to the same register bank in one cycle.
    WritePortConflict {
        /// Cycle at which the conflict occurred.
        cycle: u64,
        /// The over-subscribed bank.
        bank: usize,
    },
    /// A PE tried to write to a bank outside its write connectivity.
    IllegalWriteBank {
        /// Cycle of the offending instruction.
        cycle: u64,
        /// Tree containing the PE.
        tree: usize,
        /// PE level within the tree.
        level: usize,
        /// PE index within the level.
        pe: usize,
        /// The unreachable bank.
        bank: usize,
    },
    /// A read observed a register whose producing write had not committed yet.
    ReadBeforeWrite {
        /// Cycle of the offending read.
        cycle: u64,
        /// Bank of the register.
        bank: usize,
        /// Register index within the bank.
        reg: usize,
    },
    /// An instruction field was out of range for the configuration.
    MalformedInstruction {
        /// Cycle (instruction index) of the offending instruction.
        cycle: u64,
        /// Human readable description.
        reason: String,
    },
    /// The program referenced a data-memory row outside the configured size.
    MemoryOutOfRange {
        /// The offending row address.
        row: usize,
        /// Number of rows available.
        rows: usize,
    },
    /// The configuration itself is inconsistent.
    InvalidConfig {
        /// Human readable description.
        reason: String,
    },
    /// The supplied input vector does not match the program's input layout.
    InputMismatch {
        /// Inputs expected by the program.
        expected: usize,
        /// Inputs supplied.
        got: usize,
    },
}

impl fmt::Display for ProcessorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessorError::ReadPortConflict { cycle, bank } => {
                write!(f, "cycle {cycle}: more than one read of bank {bank}")
            }
            ProcessorError::WritePortConflict { cycle, bank } => {
                write!(f, "cycle {cycle}: more than one write committing to bank {bank}")
            }
            ProcessorError::IllegalWriteBank {
                cycle,
                tree,
                level,
                pe,
                bank,
            } => write!(
                f,
                "cycle {cycle}: PE (tree {tree}, level {level}, index {pe}) cannot write bank {bank}"
            ),
            ProcessorError::ReadBeforeWrite { cycle, bank, reg } => write!(
                f,
                "cycle {cycle}: read of bank {bank} reg {reg} while its write is still in flight"
            ),
            ProcessorError::MalformedInstruction { cycle, reason } => {
                write!(f, "cycle {cycle}: malformed instruction: {reason}")
            }
            ProcessorError::MemoryOutOfRange { row, rows } => {
                write!(f, "data memory row {row} out of range ({rows} rows)")
            }
            ProcessorError::InvalidConfig { reason } => {
                write!(f, "invalid processor configuration: {reason}")
            }
            ProcessorError::InputMismatch { expected, got } => {
                write!(f, "program expects {expected} inputs but {got} were supplied")
            }
        }
    }
}

impl std::error::Error for ProcessorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let errors = [
            ProcessorError::ReadPortConflict { cycle: 1, bank: 2 },
            ProcessorError::WritePortConflict { cycle: 1, bank: 2 },
            ProcessorError::IllegalWriteBank {
                cycle: 0,
                tree: 0,
                level: 1,
                pe: 2,
                bank: 9,
            },
            ProcessorError::ReadBeforeWrite {
                cycle: 3,
                bank: 0,
                reg: 1,
            },
            ProcessorError::MalformedInstruction {
                cycle: 2,
                reason: "bad bank".into(),
            },
            ProcessorError::MemoryOutOfRange {
                row: 600,
                rows: 512,
            },
            ProcessorError::InvalidConfig {
                reason: "zero trees".into(),
            },
            ProcessorError::InputMismatch {
                expected: 4,
                got: 3,
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProcessorError>();
    }
}
