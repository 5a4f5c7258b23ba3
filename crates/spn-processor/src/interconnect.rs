//! Interconnect and shared-memory contention models for multi-core
//! simulation.
//!
//! The AIA follow-ups to the paper scale the single SPN core into a
//! multi-core SoC; two shared resources dominate the added cost and are
//! modeled here:
//!
//! * **Inter-core interconnect** ([`InterconnectConfig`]): cores sit on a
//!   linear on-chip network.  Moving one operand from core `s` to core `d`
//!   costs a fixed link-setup latency plus one hop latency per core crossed
//!   (`|s - d|` hops).  Transfers between a core and itself are free.
//! * **Shared parameter memory** ([`SharedMemoryConfig`]): all cores load
//!   their data-memory images from one shared parameter store with a fixed
//!   number of row-wide ports.  Cores arbitrate in lockstep waves of
//!   `ports` requesters: the first `ports` cores are served immediately,
//!   the next wave one cycle later, and so on, so core `c` pays
//!   `c / ports` extra stall cycles per memory transaction.  The priority
//!   is fixed, so a later core's pass costs more, and batch-sharded
//!   execution gives it a shorter shard in proportion.
//!
//! Both models are deliberately deterministic closed forms — the multi-core
//! scheduler ([`crate::multicore`]) folds them into each core's pass cost,
//! the shard split and per-core cycle attribution, and the golden-trace
//! tests pin the resulting schedules bit-for-bit.

use serde::{Deserialize, Serialize};

/// Latency model of the linear inter-core interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterconnectConfig {
    /// Fixed cycles to set up any inter-core transfer (serialisation,
    /// link-level handshake).
    pub link_setup: u64,
    /// Additional cycles per hop between adjacent cores.
    pub hop_latency: u64,
}

impl Default for InterconnectConfig {
    /// Two setup cycles plus one cycle per hop — a small mesh-like budget in
    /// the spirit of the AIA multicore SoC's inter-core register sharing.
    fn default() -> Self {
        InterconnectConfig {
            link_setup: 2,
            hop_latency: 1,
        }
    }
}

impl InterconnectConfig {
    /// Cycles to move one operand from core `from` to core `to`.
    ///
    /// Zero when `from == to`; otherwise `link_setup + hops × hop_latency`
    /// with `hops = |from - to|` on the linear topology.
    pub(crate) fn latency(&self, from: usize, to: usize) -> u64 {
        if from == to {
            0
        } else {
            self.link_setup + self.hop_latency * from.abs_diff(to) as u64
        }
    }
}

/// Port model of the shared parameter memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedMemoryConfig {
    /// Row-wide ports available per cycle (must be at least 1).
    pub ports: usize,
}

impl Default for SharedMemoryConfig {
    /// A single shared port: contention grows linearly with the core count,
    /// which is the pessimistic end of the design space.
    fn default() -> Self {
        SharedMemoryConfig { ports: 1 }
    }
}

impl SharedMemoryConfig {
    /// Extra stall cycles core `core` pays per memory transaction under
    /// lockstep wave arbitration (`core / ports`, integer division).
    ///
    /// Callers must have validated `ports >= 1` (see
    /// [`crate::config::MultiCoreConfig::validate`]); this saturates instead
    /// of dividing by zero so a malformed config cannot panic.
    pub(crate) fn wave_penalty(&self, core: usize) -> u64 {
        (core / self.ports.max(1)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_zero_on_core_and_symmetric() {
        let ic = InterconnectConfig::default();
        assert_eq!(ic.latency(2, 2), 0);
        assert_eq!(ic.latency(0, 1), 3); // 2 setup + 1 hop
        assert_eq!(ic.latency(1, 0), 3);
        assert_eq!(ic.latency(0, 3), 5); // 2 setup + 3 hops
    }

    #[test]
    fn hop_latency_scales_with_distance() {
        let ic = InterconnectConfig {
            link_setup: 10,
            hop_latency: 4,
        };
        assert_eq!(ic.latency(1, 5), 10 + 4 * 4);
    }

    #[test]
    fn wave_penalty_follows_port_count() {
        let one = SharedMemoryConfig { ports: 1 };
        assert_eq!(one.wave_penalty(0), 0);
        assert_eq!(one.wave_penalty(3), 3);
        let two = SharedMemoryConfig { ports: 2 };
        assert_eq!(two.wave_penalty(0), 0);
        assert_eq!(two.wave_penalty(1), 0);
        assert_eq!(two.wave_penalty(2), 1);
        assert_eq!(two.wave_penalty(5), 2);
    }

    #[test]
    fn zero_ports_saturates_instead_of_panicking() {
        let bad = SharedMemoryConfig { ports: 0 };
        assert_eq!(bad.wave_penalty(7), 7);
    }
}
