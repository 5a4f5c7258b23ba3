//! Performance counters reported by the execution models.
//!
//! The paper's headline metric is *effective SPN operations per cycle*: the
//! number of arithmetic operations of the flattened SPN divided by the cycles
//! a platform needs to execute one inference pass.  The same report struct is
//! shared by the custom-processor simulator and the CPU/GPU baseline models
//! so benchmark harnesses can tabulate them side by side.
//!
//! Reports are batch-aware: a batch is charged its per-query report ×
//! queries ([`PerfReport::times`]), shard reports add up via
//! [`PerfReport::merge`], and the [`PerfReport::queries`] field turns the
//! totals into amortised cycles per query
//! ([`PerfReport::cycles_per_query`]).

use serde::{Deserialize, Serialize};

/// Performance summary of executing one or more SPN inference passes on a
/// platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PerfReport {
    /// Name of the platform/configuration that produced the numbers.
    pub platform: String,
    /// Inference passes (evidence queries) the counters cover.
    pub queries: u64,
    /// Total cycles across all counted inference passes.
    pub cycles: u64,
    /// SPN arithmetic operations (adds + multiplies) in the workload.
    pub source_ops: u64,
    /// Arithmetic operations actually issued on the hardware (may exceed
    /// `source_ops` on platforms that replicate work, or equal it).
    pub issued_ops: u64,
    /// Instructions (or instruction bundles) executed.
    pub instructions: u64,
    /// Fully idle issue slots or stall cycles.
    pub stall_cycles: u64,
    /// Data-memory (or DRAM/shared-memory) load transactions.
    pub memory_loads: u64,
    /// Data-memory store transactions.
    pub memory_stores: u64,
    /// Register-file or shared-memory writebacks of intermediate values.
    pub writebacks: u64,
    /// Register-file or shared-memory reads of operands.
    pub operand_reads: u64,
}

impl PerfReport {
    /// Effective throughput: SPN operations per cycle.
    pub fn ops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.source_ops as f64 / self.cycles as f64
        }
    }

    /// Amortised cycles per query; zero when no queries were counted.
    pub fn cycles_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cycles as f64 / self.queries as f64
        }
    }

    /// This report charged `n` times: every counter (queries included)
    /// multiplied by `n`, the platform name kept.  A batch whose queries all
    /// cost the same is charged `per_query.times(queries)`.
    pub fn times(&self, n: u64) -> PerfReport {
        let mut total = PerfReport::default();
        total.add(self, n);
        total
    }

    /// Accumulates `other`'s counters into this report (batched execution).
    ///
    /// The platform name of `self` wins when already set; a report merged
    /// into a fresh `Default` adopts `other`'s name.
    pub fn merge(&mut self, other: &PerfReport) {
        self.add(other, 1);
    }

    /// Adds `n` × `other`'s counters: the one list of what a report counts.
    fn add(&mut self, other: &PerfReport, n: u64) {
        if self.platform.is_empty() {
            self.platform.clone_from(&other.platform);
        }
        self.queries += n * other.queries;
        self.cycles += n * other.cycles;
        self.source_ops += n * other.source_ops;
        self.issued_ops += n * other.issued_ops;
        self.instructions += n * other.instructions;
        self.stall_cycles += n * other.stall_cycles;
        self.memory_loads += n * other.memory_loads;
        self.memory_stores += n * other.memory_stores;
        self.writebacks += n * other.writebacks;
        self.operand_reads += n * other.operand_reads;
    }
}

/// Cycle attribution of one core of a multi-core run.
///
/// The four cycle classes partition the makespan exactly:
/// `compute + memory stall + interconnect stall + idle = makespan`
/// ([`MultiCorePerf::check_accounting`] verifies this, and a property test
/// pins it for random workloads).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct CorePerf {
    /// Core index.
    pub core: usize,
    /// Cycles the core spent executing instructions (including the
    /// program's own stall slots and pipeline drain).
    pub compute_cycles: u64,
    /// Cycles lost to shared-parameter-memory port contention.
    pub memory_stall_cycles: u64,
    /// Cycles exposed waiting on in-flight inter-core transfers (pipeline
    /// fill; steady-state transfers overlap with compute).
    pub interconnect_stall_cycles: u64,
    /// Cycles the core sat idle (no shard left, or waiting for an upstream
    /// pipeline stage beyond the exposed transfer latency).
    pub idle_cycles: u64,
    /// The core's ordinary work counters (its queries, issued ops, memory
    /// traffic, ...); `work.cycles` equals `compute_cycles`.
    pub work: PerfReport,
}

impl CorePerf {
    /// Cycles the core was doing or waiting on something attributable:
    /// compute + memory stalls + interconnect stalls.
    pub fn busy_cycles(&self) -> u64 {
        self.compute_cycles + self.memory_stall_cycles + self.interconnect_stall_cycles
    }

    /// Total cycles accounted for; equals the makespan in a consistent
    /// multi-core report.
    pub(crate) fn accounted_cycles(&self) -> u64 {
        self.busy_cycles() + self.idle_cycles
    }
}

/// Per-core cycle attribution of one multi-core execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MultiCorePerf {
    /// End-to-end cycles of the run: the last cycle any core was busy.
    pub makespan_cycles: u64,
    /// One entry per core, in core order.
    pub per_core: Vec<CorePerf>,
}

impl MultiCorePerf {
    /// Folds the per-core attribution into one batch-level [`PerfReport`]:
    /// work counters are summed across cores, `cycles` is the makespan (so
    /// `cycles_per_query` reflects the parallel speedup), and modeled
    /// memory/interconnect stalls are added to the summed stall count.
    ///
    /// `queries` is passed explicitly because the two execution modes count
    /// differently: sharded runs spread the batch over cores (the sum of
    /// per-core queries), pipelined runs push every query through every core.
    pub fn merged(&self, platform: &str, queries: u64) -> PerfReport {
        let mut merged = PerfReport {
            platform: platform.to_string(),
            ..Default::default()
        };
        for core in &self.per_core {
            merged.merge(&core.work);
            merged.stall_cycles += core.memory_stall_cycles + core.interconnect_stall_cycles;
        }
        merged.queries = queries;
        merged.cycles = self.makespan_cycles;
        merged
    }

    /// Verifies the cycle-accounting invariant: every core's
    /// compute + memory stall + interconnect stall + idle cycles equal the
    /// makespan.
    ///
    /// # Errors
    ///
    /// Returns a description of the first core whose attribution does not
    /// sum to the makespan.
    pub fn check_accounting(&self) -> Result<(), String> {
        for core in &self.per_core {
            if core.accounted_cycles() != self.makespan_cycles {
                return Err(format!(
                    "core {}: compute {} + mem {} + interconnect {} + idle {} = {} != makespan {}",
                    core.core,
                    core.compute_cycles,
                    core.memory_stall_cycles,
                    core.interconnect_stall_cycles,
                    core.idle_cycles,
                    core.accounted_cycles(),
                    self.makespan_cycles
                ));
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for MultiCorePerf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "makespan {} cycles", self.makespan_cycles)?;
        for core in &self.per_core {
            write!(
                f,
                "; core {}: {}c/{}m/{}i/{}idle",
                core.core,
                core.compute_cycles,
                core.memory_stall_cycles,
                core.interconnect_stall_cycles,
                core.idle_cycles
            )?;
        }
        Ok(())
    }
}

impl std::fmt::Display for PerfReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.3} ops/cycle ({} ops in {} cycles, {} loads, {} stores, {} stalls)",
            self.platform,
            self.ops_per_cycle(),
            self.source_ops,
            self.cycles,
            self.memory_loads,
            self.memory_stores,
            self.stall_cycles,
        )?;
        if self.queries > 1 {
            write!(
                f,
                " over {} queries ({:.1} cycles/query)",
                self.queries,
                self.cycles_per_query()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ops: u64, cycles: u64) -> PerfReport {
        PerfReport {
            platform: "test".into(),
            queries: 1,
            cycles,
            source_ops: ops,
            issued_ops: ops,
            ..Default::default()
        }
    }

    #[test]
    fn merge_accumulates_counters_and_queries() {
        let mut total = PerfReport::default();
        total.merge(&report(100, 10));
        total.merge(&report(100, 30));
        assert_eq!(total.platform, "test");
        assert_eq!(total.queries, 2);
        assert_eq!(total.cycles, 40);
        assert_eq!(total.source_ops, 200);
        assert_eq!(total.cycles_per_query(), 20.0);
        assert!(total.to_string().contains("2 queries"));
        // Charging one report n times is merging it n times.
        assert_eq!(report(100, 20).times(2), total);
        assert_eq!(total.times(0).platform, "test");
        assert_eq!(total.times(0).queries, 0);
    }

    #[test]
    fn per_query_metrics_are_zero_without_queries() {
        let empty = PerfReport::default();
        assert_eq!(empty.cycles_per_query(), 0.0);
    }

    #[test]
    fn ops_per_cycle_division() {
        assert_eq!(report(100, 10).ops_per_cycle(), 10.0);
        assert_eq!(report(100, 0).ops_per_cycle(), 0.0);
    }

    #[test]
    fn display_mentions_platform_and_throughput() {
        let s = report(100, 10).to_string();
        assert!(s.contains("test"));
        assert!(s.contains("10.000"));
    }
}
