//! Processor configuration: datapath geometry and storage sizes.
//!
//! The two configurations evaluated in the paper differ only in the PE
//! arrangement; crossbar, register file and data memory are identical
//! (Table I):
//!
//! | configuration | PEs | arrangement |
//! |---|---|---|
//! | `Ptree` | 30 | 2 trees × 4 levels (8+4+2+1 per tree) |
//! | `Pvect` | 16 | lowest PE level only (2 × 8) |

use serde::{Deserialize, Serialize};

use crate::error::ProcessorError;
use crate::interconnect::{InterconnectConfig, SharedMemoryConfig};
use crate::Result;

/// Position of a processing element inside the datapath.
///
/// Levels are counted from the tree inputs: level `0` PEs read the crossbar,
/// level `levels-1` is the root of the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PePosition {
    /// Index of the PE tree.
    pub tree: usize,
    /// Pipeline level within the tree (0 = leaf level fed by the crossbar).
    pub level: usize,
    /// Index of the PE within its level.
    pub index: usize,
}

/// Geometry and storage sizes of the SPN processor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessorConfig {
    /// Human-readable name of the configuration (used in reports).
    pub name: String,
    /// Number of PE trees.
    pub num_trees: usize,
    /// Number of PE levels per tree (1 = a plain vector of PEs).
    pub tree_levels: usize,
    /// Number of leaf-level PEs per tree (the tree is a complete binary tree
    /// above them, so this must be a power of two).
    pub leaf_pes_per_tree: usize,
    /// Register banks in each tree's private register file.
    pub banks_per_tree: usize,
    /// Registers per bank.
    pub regs_per_bank: usize,
    /// Data memory capacity in rows (one row = one word per bank).
    pub data_memory_rows: usize,
}

impl ProcessorConfig {
    /// The `Ptree` configuration of the paper: 2 trees with 4 PE levels
    /// (30 PEs), 32 register banks × 64 registers, 64 KB data memory.
    pub fn ptree() -> Self {
        ProcessorConfig {
            name: "Ptree".to_string(),
            num_trees: 2,
            tree_levels: 4,
            leaf_pes_per_tree: 8,
            banks_per_tree: 16,
            regs_per_bank: 64,
            // 64 KB of 32-bit words = 16384 words = 512 rows of 32 words.
            data_memory_rows: 512,
        }
    }

    /// The `Pvect` configuration of the paper: only the lowest PE level is
    /// kept (16 PEs); everything else matches [`ProcessorConfig::ptree`].
    pub fn pvect() -> Self {
        ProcessorConfig {
            name: "Pvect".to_string(),
            tree_levels: 1,
            ..ProcessorConfig::ptree()
        }
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ProcessorError::InvalidConfig`] describing the first
    /// inconsistency found.
    pub fn validate(&self) -> Result<()> {
        let fail = |reason: &str| {
            Err(ProcessorError::InvalidConfig {
                reason: reason.to_string(),
            })
        };
        if self.num_trees == 0 {
            return fail("at least one PE tree is required");
        }
        if self.tree_levels == 0 {
            return fail("at least one PE level is required");
        }
        if self.leaf_pes_per_tree == 0 {
            return fail("at least one leaf PE per tree is required");
        }
        if !self.leaf_pes_per_tree.is_power_of_two() {
            return fail("leaf PEs per tree must be a power of two");
        }
        if self.tree_levels > self.leaf_pes_per_tree.trailing_zeros() as usize + 1 {
            return fail("tree has more levels than a complete binary tree allows");
        }
        if self.banks_per_tree == 0 || self.regs_per_bank == 0 {
            return fail("register file must have at least one bank and one register");
        }
        if !self.banks_per_tree.is_power_of_two() {
            return fail("banks per tree must be a power of two");
        }
        if self.data_memory_rows == 0 {
            return fail("data memory must have at least one row");
        }
        if self.total_banks() < self.tree_inputs_per_tree() {
            return fail("crossbar narrower than one tree's inputs");
        }
        Ok(())
    }

    /// Number of PEs at `level` of one tree.
    pub fn pes_at_level(&self, level: usize) -> usize {
        self.leaf_pes_per_tree >> level
    }

    /// Total number of PEs in the datapath.
    pub fn num_pes(&self) -> usize {
        (0..self.tree_levels)
            .map(|l| self.pes_at_level(l))
            .sum::<usize>()
            * self.num_trees
    }

    /// Number of crossbar-fed inputs of one tree (leaf PEs × 2).
    pub fn tree_inputs_per_tree(&self) -> usize {
        self.leaf_pes_per_tree * 2
    }

    /// Total register banks across all trees.
    pub fn total_banks(&self) -> usize {
        self.banks_per_tree * self.num_trees
    }

    /// Total registers in the machine.
    pub(crate) fn total_registers(&self) -> usize {
        self.total_banks() * self.regs_per_bank
    }

    /// Data-memory capacity in words.
    pub(crate) fn data_memory_words(&self) -> usize {
        self.data_memory_rows * self.total_banks()
    }

    /// Global bank indices a PE may write to.
    ///
    /// A PE at level `l`, index `i` of tree `t` reaches `2^(l+1)` consecutive
    /// banks of its tree's private register file, aligned to its position:
    /// leaf PEs reach 2 banks, the next level 4, and so on (fig. 3 of the
    /// paper).  When the tree has fewer banks than `2^(l+1)`, the whole
    /// private file is reachable.
    pub fn writable_banks(&self, pe: PePosition) -> std::ops::Range<usize> {
        let span = (2usize << pe.level).min(self.banks_per_tree);
        let base =
            pe.tree * self.banks_per_tree + (pe.index * span).min(self.banks_per_tree - span);
        base..base + span
    }

    /// Returns `true` when `pe` may write to global bank `bank`.
    pub fn can_write(&self, pe: PePosition, bank: usize) -> bool {
        self.writable_banks(pe).contains(&bank)
    }

    /// Pipeline latency, in cycles, from instruction issue to the commit of a
    /// write produced at `level` (each level adds one register stage).
    pub fn commit_latency(&self, level: usize) -> u64 {
        level as u64
    }

    /// Immediate-storage summary used for Table I style reports:
    /// `(registers, register bits, data memory bytes)` assuming 32-bit words.
    pub fn storage_summary(&self) -> (usize, usize, usize) {
        let regs = self.total_registers();
        (regs, regs * 32, self.data_memory_words() * 4)
    }
}

impl Default for ProcessorConfig {
    fn default() -> Self {
        ProcessorConfig::ptree()
    }
}

/// Geometry of an N-core SPN processor: `cores` identical single-core
/// datapaths ([`MultiCoreConfig::core`]) behind a shared parameter memory
/// and a linear inter-core interconnect.
///
/// The multi-core simulator ([`crate::multicore::MultiCoreProcessor`])
/// executes compiled programs in two modes — batch-sharded (every core runs
/// the full program on a slice of the evidence batch) and partitioned
/// (the flattened op list is split across cores and intermediate operands
/// travel over the interconnect) — and attributes cycles per core to
/// compute, memory stalls and interconnect stalls.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiCoreConfig {
    /// Number of cores (must be at least 1).
    pub cores: usize,
    /// The per-core datapath, shared by all cores.
    pub core: ProcessorConfig,
    /// Latency model of the inter-core interconnect.
    pub interconnect: InterconnectConfig,
    /// Port model of the shared parameter memory.
    pub shared_memory: SharedMemoryConfig,
}

impl MultiCoreConfig {
    /// A multi-core configuration with `cores` copies of `core` and the
    /// default interconnect / shared-memory models.
    pub fn new(cores: usize, core: ProcessorConfig) -> Self {
        MultiCoreConfig {
            cores,
            core,
            interconnect: InterconnectConfig::default(),
            shared_memory: SharedMemoryConfig::default(),
        }
    }

    /// Validates the configuration, including the per-core datapath.
    ///
    /// # Errors
    ///
    /// Returns [`ProcessorError::InvalidConfig`] describing the first
    /// inconsistency found (zero cores, zero shared-memory ports, or an
    /// invalid per-core configuration).
    pub(crate) fn validate(&self) -> Result<()> {
        if self.cores == 0 {
            return Err(ProcessorError::InvalidConfig {
                reason: "at least one core is required".to_string(),
            });
        }
        if self.shared_memory.ports == 0 {
            return Err(ProcessorError::InvalidConfig {
                reason: "shared memory needs at least one port".to_string(),
            });
        }
        self.core.validate()
    }

    /// Report name of the configuration: the core name for one core,
    /// `"<core>x<cores>"` otherwise (e.g. `Ptreex4`).
    pub fn name(&self) -> String {
        if self.cores == 1 {
            self.core.name.clone()
        } else {
            format!("{}x{}", self.core.name, self.cores)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ptree_matches_paper_table() {
        let cfg = ProcessorConfig::ptree();
        cfg.validate().unwrap();
        assert_eq!(cfg.num_pes(), 30);
        assert_eq!(cfg.total_banks(), 32);
        assert_eq!(cfg.total_registers(), 2048);
        let (_, bits, mem) = cfg.storage_summary();
        assert_eq!(bits, 2048 * 32);
        assert_eq!(mem, 64 * 1024);
    }

    #[test]
    fn pvect_matches_paper_table() {
        let cfg = ProcessorConfig::pvect();
        cfg.validate().unwrap();
        assert_eq!(cfg.num_pes(), 16);
        assert_eq!(cfg.total_banks(), 32);
        assert_eq!(cfg.total_registers(), 2048);
    }

    #[test]
    fn pe_counts_per_level_follow_binary_tree() {
        let cfg = ProcessorConfig::ptree();
        assert_eq!(cfg.pes_at_level(0), 8);
        assert_eq!(cfg.pes_at_level(1), 4);
        assert_eq!(cfg.pes_at_level(2), 2);
        assert_eq!(cfg.pes_at_level(3), 1);
        assert_eq!(cfg.tree_inputs_per_tree(), 16);
    }

    #[test]
    fn writable_banks_widen_with_level() {
        let cfg = ProcessorConfig::ptree();
        // Leaf PE 0 of tree 0 writes banks 0..2, leaf PE 7 writes 14..16.
        assert_eq!(
            cfg.writable_banks(PePosition {
                tree: 0,
                level: 0,
                index: 0
            }),
            0..2
        );
        assert_eq!(
            cfg.writable_banks(PePosition {
                tree: 0,
                level: 0,
                index: 7
            }),
            14..16
        );
        // Level-1 PE 1 writes banks 4..8.
        assert_eq!(
            cfg.writable_banks(PePosition {
                tree: 0,
                level: 1,
                index: 1
            }),
            4..8
        );
        // The root reaches the whole private file of its tree.
        assert_eq!(
            cfg.writable_banks(PePosition {
                tree: 1,
                level: 3,
                index: 0
            }),
            16..32
        );
        assert!(cfg.can_write(
            PePosition {
                tree: 1,
                level: 3,
                index: 0
            },
            31
        ));
        assert!(!cfg.can_write(
            PePosition {
                tree: 1,
                level: 0,
                index: 0
            },
            0
        ));
    }

    #[test]
    fn commit_latency_grows_with_level() {
        let cfg = ProcessorConfig::ptree();
        assert_eq!(cfg.commit_latency(0), 0);
        assert_eq!(cfg.commit_latency(3), 3);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = ProcessorConfig::ptree();
        cfg.num_trees = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ProcessorConfig::ptree();
        cfg.leaf_pes_per_tree = 6;
        assert!(cfg.validate().is_err());

        let mut cfg = ProcessorConfig::ptree();
        cfg.tree_levels = 5;
        assert!(cfg.validate().is_err());

        let mut cfg = ProcessorConfig::ptree();
        cfg.regs_per_bank = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ProcessorConfig::ptree();
        cfg.banks_per_tree = 4;
        assert!(
            cfg.validate().is_err(),
            "crossbar narrower than tree inputs"
        );
    }

    #[test]
    fn default_is_ptree() {
        assert_eq!(ProcessorConfig::default(), ProcessorConfig::ptree());
    }

    #[test]
    fn zero_pes_and_zero_cores_are_structured_errors() {
        // A zero-PE core must be rejected with a clear reason instead of
        // being mislabelled as "not a power of two" (or panicking later in
        // tree construction).
        let mut cfg = ProcessorConfig::ptree();
        cfg.leaf_pes_per_tree = 0;
        match cfg.validate() {
            Err(ProcessorError::InvalidConfig { reason }) => {
                assert!(reason.contains("leaf PE"), "unexpected reason: {reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }

        let mc = MultiCoreConfig::new(0, ProcessorConfig::ptree());
        match mc.validate() {
            Err(ProcessorError::InvalidConfig { reason }) => {
                assert!(reason.contains("core"), "unexpected reason: {reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }

        let mut mc = MultiCoreConfig::new(2, ProcessorConfig::ptree());
        mc.shared_memory.ports = 0;
        assert!(mc.validate().is_err());

        // An invalid per-core config propagates through the multi-core check.
        let mut bad_core = ProcessorConfig::ptree();
        bad_core.leaf_pes_per_tree = 0;
        assert!(MultiCoreConfig::new(2, bad_core).validate().is_err());
    }

    #[test]
    fn multicore_name_appends_core_count() {
        let cfg = MultiCoreConfig::new(1, ProcessorConfig::ptree());
        assert_eq!(cfg.name(), "Ptree");
        let cfg = MultiCoreConfig::new(4, ProcessorConfig::ptree());
        assert_eq!(cfg.name(), "Ptreex4");
    }
}
