//! Compilation statistics.

use serde::{Deserialize, Serialize};

/// What the compiler did to one SPN, for inspection and benchmarking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct CompileReport {
    /// Arithmetic operations in the flattened SPN (the work to schedule).
    pub source_ops: usize,
    /// Number of tiles (PE-tree passes) the operations were packed into.
    pub tiles: usize,
    /// Instructions in the emitted program (issue cycles).
    pub instructions: usize,
    /// Estimated total cycles including the final pipeline drain.
    pub estimated_cycles: u64,
    /// Vector loads of input or spilled rows.
    pub memory_loads: usize,
    /// Vector stores caused by register spilling.
    pub memory_stores: usize,
    /// Forwarding moves inserted to resolve register-bank read conflicts,
    /// including those giving a value several tiles read a further home.
    pub copy_moves: usize,
    /// Values (program inputs held in the data memory, and op results) that
    /// two or more tiles read: each may hold more than one register home.
    pub shared_values: usize,
    /// Completely idle instructions (could not be filled with work).
    pub nop_instructions: usize,
    /// Register offsets that were never free simultaneously (peak pressure
    /// proxy): the maximum number of offsets in use at any point.
    pub peak_live_offsets: usize,
}

impl CompileReport {
    /// Average arithmetic operations issued per instruction.
    pub fn ops_per_instruction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.source_ops as f64 / self.instructions as f64
        }
    }

    /// Average operations per tile (how much the tree packing absorbed).
    pub fn ops_per_tile(&self) -> f64 {
        if self.tiles == 0 {
            0.0
        } else {
            self.source_ops as f64 / self.tiles as f64
        }
    }
}

impl std::fmt::Display for CompileReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ops in {} tiles, {} instructions (~{} cycles), {} loads, {} stores, {} moves",
            self.source_ops,
            self.tiles,
            self.instructions,
            self.estimated_cycles,
            self.memory_loads,
            self.memory_stores,
            self.copy_moves,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_handle_empty_reports() {
        let r = CompileReport::default();
        assert_eq!(r.ops_per_instruction(), 0.0);
        assert_eq!(r.ops_per_tile(), 0.0);
        assert!(!r.to_string().is_empty());
    }

    #[test]
    fn averages_divide() {
        let r = CompileReport {
            source_ops: 100,
            tiles: 25,
            instructions: 10,
            ..Default::default()
        };
        assert_eq!(r.ops_per_instruction(), 10.0);
        assert_eq!(r.ops_per_tile(), 4.0);
    }
}
