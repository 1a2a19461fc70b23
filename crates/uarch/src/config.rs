//! Simulated processor parameters (paper Table 2).
//!
//! The defaults model the paper's Ice Lake-like core: 16 B/cycle fetch,
//! 12 K-entry 6-way BTB, 64 KiB TAGE + 5 KiB bimodal CBP, 32 KiB L1-I,
//! 1280 KiB L2, 8 MiB LLC, and a 353-entry ROB.

use crate::bimodal::BimodalConfig;
use crate::btb::BtbConfig;
use crate::cache::CacheGeometry;
use crate::cbp::CbpConfig;
use crate::hierarchy::HierarchyConfig;
use crate::ras::RasConfig;
use crate::tage::TageConfig;
use crate::tlb::TlbConfig;
use crate::Cycle;

/// Decoupled front-end parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontEndConfig {
    /// Fetch bandwidth in bytes per cycle (Table 2: 16).
    pub fetch_bytes_per_cycle: u64,
    /// FTQ capacity in fetch blocks (§5.3: 32).
    pub ftq_entries: usize,
    /// Fetch blocks the BPU can predict per cycle (§5.3: double fetch width).
    pub bpu_blocks_per_cycle: usize,
    /// Resteer penalty for discontinuities caught at decode (direct jumps
    /// discovered missing from the BTB), in cycles.
    pub decode_resteer_penalty: Cycle,
    /// Full pipeline flush penalty for mispredictions and BTB misses
    /// resolved at execute, in cycles.
    pub exec_resteer_penalty: Cycle,
}

/// Abstract back-end parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackEndConfig {
    /// Maximum instructions retired per cycle.
    pub retire_width: u64,
    /// Reorder-buffer capacity in instructions (Table 2: 353).
    pub rob_entries: usize,
    /// Average extra cycles charged per data-cache-missing load (a stand-in
    /// for L1-D/L2 data misses after MLP overlap).
    pub data_miss_penalty: Cycle,
    /// Fraction of instructions that are loads.
    pub load_fraction: f64,
    /// Cycles charged per *cold* data miss (off-chip, amortized over the
    /// memory-level parallelism of bulk misses).
    pub cold_miss_penalty: Cycle,
    /// Fraction of loads that touch a not-yet-seen data line while the data
    /// working set is still cold.
    pub cold_touch_rate: f64,
    /// Steady-state data miss rate among loads once the working set is warm.
    pub warm_miss_rate: f64,
    /// Dependency-limited baseline CPI (real code does not sustain the
    /// retire width; ILP limits the useful-work rate).
    pub ilp_cpi: f64,
}

/// Top-level simulated-machine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UarchConfig {
    /// Instruction memory hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Branch target buffer.
    pub btb: BtbConfig,
    /// Return address stack.
    pub ras: RasConfig,
    /// Conditional branch predictor.
    pub cbp: CbpConfig,
    /// Decoupled front-end.
    pub frontend: FrontEndConfig,
    /// Abstract back-end.
    pub backend: BackEndConfig,
}

impl UarchConfig {
    /// The paper's simulated processor (Table 2).
    pub fn ice_lake_like() -> Self {
        UarchConfig {
            hierarchy: HierarchyConfig {
                l1i: CacheGeometry { size_bytes: 32 * 1024, ways: 8, line_bytes: 64 },
                l2: CacheGeometry { size_bytes: 1280 * 1024, ways: 20, line_bytes: 64 },
                llc: CacheGeometry { size_bytes: 8 * 1024 * 1024, ways: 16, line_bytes: 64 },
                // Table 2: L1-I 1 cycle (µop-cache stand-in), L2 13, LLC 50.
                l1i_latency: 1,
                l2_latency: 13,
                llc_latency: 50,
                // Loaded DDR4-2400 latency (row misses + controller
                // queueing on a busy server) ≈ ~108 ns ≈ 280 cycles at
                // 2.6 GHz.
                memory_latency: 280,
                l1i_mshrs: 10,
                l2_mshrs: 32,
            },
            itlb: TlbConfig { entries: 128, ways: 8, walk_latency: 60 },
            btb: BtbConfig { entries: 12 * 1024, ways: 6 },
            ras: RasConfig { entries: 32 },
            cbp: CbpConfig {
                bimodal: BimodalConfig { size_bytes: 5 * 1024 },
                tage: TageConfig {
                    tables: 8,
                    entries_per_table: 4096,
                    tag_bits: 12,
                    min_history: 4,
                    max_history: 512,
                    u_reset_period: 1 << 18,
                },
            },
            frontend: FrontEndConfig {
                fetch_bytes_per_cycle: 16,
                ftq_entries: 32,
                bpu_blocks_per_cycle: 2,
                decode_resteer_penalty: 8,
                exec_resteer_penalty: 16,
            },
            backend: BackEndConfig {
                retire_width: 6,
                rob_entries: 353,
                data_miss_penalty: 14,
                load_fraction: 0.25,
                cold_miss_penalty: 22,
                cold_touch_rate: 0.30,
                warm_miss_rate: 0.02,
                ilp_cpi: 0.85,
            },
        }
    }

    /// A scaled-down machine for fast unit tests: same structure, smaller
    /// capacities (so eviction and thrashing paths are exercised cheaply).
    pub fn tiny_for_tests() -> Self {
        UarchConfig {
            hierarchy: HierarchyConfig {
                l1i: CacheGeometry { size_bytes: 4 * 1024, ways: 4, line_bytes: 64 },
                l2: CacheGeometry { size_bytes: 32 * 1024, ways: 8, line_bytes: 64 },
                llc: CacheGeometry { size_bytes: 128 * 1024, ways: 8, line_bytes: 64 },
                l1i_latency: 1,
                l2_latency: 13,
                llc_latency: 50,
                memory_latency: 280,
                l1i_mshrs: 10,
                l2_mshrs: 32,
            },
            itlb: TlbConfig { entries: 32, ways: 4, walk_latency: 60 },
            btb: BtbConfig { entries: 512, ways: 4 },
            ras: RasConfig { entries: 16 },
            cbp: CbpConfig {
                bimodal: BimodalConfig { size_bytes: 1024 },
                tage: TageConfig {
                    tables: 4,
                    entries_per_table: 256,
                    tag_bits: 9,
                    min_history: 4,
                    max_history: 64,
                    u_reset_period: 1 << 16,
                },
            },
            frontend: FrontEndConfig {
                fetch_bytes_per_cycle: 16,
                ftq_entries: 16,
                bpu_blocks_per_cycle: 2,
                decode_resteer_penalty: 8,
                exec_resteer_penalty: 16,
            },
            backend: BackEndConfig {
                retire_width: 6,
                rob_entries: 64,
                data_miss_penalty: 14,
                load_fraction: 0.25,
                cold_miss_penalty: 22,
                cold_touch_rate: 0.30,
                warm_miss_rate: 0.02,
                ilp_cpi: 0.85,
            },
        }
    }
}

impl Default for UarchConfig {
    fn default() -> Self {
        UarchConfig::ice_lake_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_parameters() {
        let c = UarchConfig::ice_lake_like();
        assert_eq!(c.hierarchy.l1i.size_bytes, 32 * 1024);
        assert_eq!(c.hierarchy.l1i.ways, 8);
        assert_eq!(c.hierarchy.l2.size_bytes, 1280 * 1024);
        assert_eq!(c.hierarchy.l2.ways, 20);
        assert_eq!(c.hierarchy.llc.size_bytes, 8 * 1024 * 1024);
        assert_eq!(c.btb.entries, 12 * 1024);
        assert_eq!(c.btb.ways, 6);
        assert_eq!(c.cbp.bimodal.size_bytes, 5 * 1024);
        assert_eq!(c.frontend.fetch_bytes_per_cycle, 16);
        assert_eq!(c.frontend.ftq_entries, 32);
        assert_eq!(c.backend.rob_entries, 353);
    }

    #[test]
    fn tage_budget_near_64kib() {
        let c = UarchConfig::ice_lake_like();
        let kib = c.cbp.tage.storage_bytes() / 1024;
        // 8 x 4096 x 17 bits ≈ 68 KiB of table state — matching the paper's
        // 64 KiB L-TAGE budget (which additionally includes histories and
        // the loop predictor we omit).
        assert!((55..=72).contains(&kib), "TAGE storage {kib} KiB");
    }

    #[test]
    fn default_is_ice_lake() {
        assert_eq!(UarchConfig::default(), UarchConfig::ice_lake_like());
    }

    #[test]
    fn tiny_config_constructs_components() {
        use crate::btb::Btb;
        use crate::cbp::Cbp;
        use crate::hierarchy::Hierarchy;
        use crate::tlb::Itlb;
        let c = UarchConfig::tiny_for_tests();
        let _ = Hierarchy::new(&c.hierarchy);
        let _ = Btb::new(&c.btb);
        let _ = Cbp::new(&c.cbp);
        let _ = Itlb::new(&c.itlb);
    }
}
