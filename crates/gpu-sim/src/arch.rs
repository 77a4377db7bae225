//! Static GPU architecture descriptions.
//!
//! A [`DeviceSpec`] captures everything the cost model needs to turn a kernel
//! launch into a simulated duration: SM count and clocks for the compute
//! roof, memory bandwidth for the bandwidth roof, and per-SM resource limits
//! for the occupancy calculation. Presets model the GPUs found in the AWS
//! instance families the paper's course used (`g4dn` → T4, `g5` → A10G,
//! `p3` → V100).

use serde::{Deserialize, Serialize};

/// Description of a device's global-memory subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemorySpec {
    /// Global memory capacity in bytes.
    pub capacity_bytes: u64,
    /// Peak global-memory bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed latency charged per memory operation batch, in nanoseconds.
    pub latency_ns: f64,
}

/// Static description of a simulated GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"NVIDIA T4 (sim)"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// FP32 cores (lanes) per SM.
    pub cores_per_sm: u32,
    /// SIMT width; always 32 on NVIDIA hardware.
    pub warp_size: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum threads in a single block.
    pub max_threads_per_block: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// Register file size per SM (32-bit registers).
    pub registers_per_sm: u32,
    /// Global memory subsystem.
    pub memory: MemorySpec,
    /// Host↔device (PCIe) bandwidth in bytes per second.
    pub pcie_bandwidth_bytes_per_sec: f64,
    /// Fixed per-transfer latency over PCIe, nanoseconds.
    pub pcie_latency_ns: f64,
    /// Fixed kernel-launch overhead, nanoseconds.
    pub launch_overhead_ns: f64,
}

impl DeviceSpec {
    /// Peak FP32 throughput in FLOP/s (2 FLOPs per core-cycle via FMA).
    pub fn peak_flops(&self) -> f64 {
        self.sm_count as f64 * self.cores_per_sm as f64 * self.clock_ghz * 1e9 * 2.0
    }

    /// Maximum number of concurrently resident warps per SM.
    pub fn max_warps_per_sm(&self) -> u32 {
        self.max_threads_per_sm / self.warp_size
    }

    /// NVIDIA T4 (AWS `g4dn` family) — the paper's single-GPU workhorse.
    pub fn t4() -> Self {
        Self {
            name: "NVIDIA T4 (sim)".to_owned(),
            sm_count: 40,
            cores_per_sm: 64,
            warp_size: 32,
            clock_ghz: 1.59,
            max_threads_per_sm: 1024,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            shared_mem_per_sm: 64 * 1024,
            registers_per_sm: 65536,
            memory: MemorySpec {
                capacity_bytes: 16 * (1 << 30),
                bandwidth_bytes_per_sec: 320e9,
                latency_ns: 400.0,
            },
            pcie_bandwidth_bytes_per_sec: 12e9,
            pcie_latency_ns: 8_000.0,
            launch_overhead_ns: 4_000.0,
        }
    }

    /// NVIDIA V100 (AWS `p3` family) — used for multi-GPU labs.
    pub fn v100() -> Self {
        Self {
            name: "NVIDIA V100 (sim)".to_owned(),
            sm_count: 80,
            cores_per_sm: 64,
            warp_size: 32,
            clock_ghz: 1.53,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            shared_mem_per_sm: 96 * 1024,
            registers_per_sm: 65536,
            memory: MemorySpec {
                capacity_bytes: 16 * (1 << 30),
                bandwidth_bytes_per_sec: 900e9,
                latency_ns: 300.0,
            },
            pcie_bandwidth_bytes_per_sec: 12e9,
            pcie_latency_ns: 8_000.0,
            launch_overhead_ns: 3_000.0,
        }
    }

    /// A deliberately small device for fast unit tests: tiny memory so
    /// out-of-memory paths are cheap to exercise.
    pub fn test_tiny() -> Self {
        Self {
            name: "TestTiny (sim)".to_owned(),
            sm_count: 2,
            cores_per_sm: 32,
            warp_size: 32,
            clock_ghz: 1.0,
            max_threads_per_sm: 1024,
            max_blocks_per_sm: 8,
            max_threads_per_block: 256,
            shared_mem_per_sm: 16 * 1024,
            registers_per_sm: 32768,
            memory: MemorySpec {
                capacity_bytes: 1 << 20, // 1 MiB
                bandwidth_bytes_per_sec: 10e9,
                latency_ns: 500.0,
            },
            pcie_bandwidth_bytes_per_sec: 1e9,
            pcie_latency_ns: 10_000.0,
            launch_overhead_ns: 5_000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t4_peak_flops_matches_datasheet_ballpark() {
        // T4 datasheet: ~8.1 TFLOPS FP32.
        let flops = DeviceSpec::t4().peak_flops();
        assert!(flops > 7.5e12 && flops < 8.5e12, "got {flops}");
    }

    #[test]
    fn v100_peak_flops_matches_datasheet_ballpark() {
        // V100 datasheet: ~15.7 TFLOPS FP32.
        let flops = DeviceSpec::v100().peak_flops();
        assert!(flops > 14.5e12 && flops < 16.5e12, "got {flops}");
    }

    #[test]
    fn max_warps_per_sm() {
        assert_eq!(DeviceSpec::t4().max_warps_per_sm(), 32);
        assert_eq!(DeviceSpec::v100().max_warps_per_sm(), 64);
    }

    #[test]
    fn tiny_spec_is_small_enough_for_oom_tests() {
        let spec = DeviceSpec::test_tiny();
        assert!(spec.memory.capacity_bytes <= 1 << 20);
        assert_eq!(spec.clone(), spec);
    }
}
