//! Node and cluster assemblies (paper §VII-A experimental systems).

use crate::specs::{GpuGeneration, GpuSpec};

/// One compute node: `gpus` identical GPUs sharing a host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    pub gpu: GpuSpec,
    pub gpus: usize,
    /// Host main memory, bytes (limits the matrix size, as on Haxane).
    pub host_mem_bytes: u64,
    /// Peer GPU↔GPU bandwidth within the node, GB/s.
    pub p2p_gbs: f64,
    /// Network injection bandwidth per node, GB/s.
    pub nic_gbs: f64,
    /// Network latency per message, seconds.
    pub nic_latency_s: f64,
}

impl NodeSpec {
    /// Summit node: 2×Power9 + 6×V100, 256 GB, dual-rail EDR IB.
    pub fn summit() -> Self {
        NodeSpec {
            gpu: GpuGeneration::V100.spec(),
            gpus: 6,
            host_mem_bytes: 256 * (1 << 30),
            p2p_gbs: 50.0, // NVLink2 between GPU pairs
            nic_gbs: 25.0, // 2×EDR InfiniBand
            nic_latency_s: 1.5e-6,
        }
    }

    /// Guyot: 2×EPYC 7742 + 8×A100-SXM4-80GB, 2 TB.
    pub fn guyot() -> Self {
        NodeSpec {
            gpu: GpuGeneration::A100.spec(),
            gpus: 8,
            host_mem_bytes: 2063 * (1 << 30),
            p2p_gbs: 300.0, // NVSwitch
            nic_gbs: 25.0,
            nic_latency_s: 1.5e-6,
        }
    }

    /// Haxane: 2×Xeon Silver + 1×H100 PCIe, 63 GB.
    pub fn haxane() -> Self {
        NodeSpec {
            gpu: GpuGeneration::H100.spec(),
            gpus: 1,
            host_mem_bytes: 63 * (1 << 30),
            p2p_gbs: 64.0,
            nic_gbs: 25.0,
            nic_latency_s: 1.5e-6,
        }
    }

    /// A single-GPU view of this node (for the 1-GPU studies of Figs 8–10).
    pub fn single_gpu(mut self) -> Self {
        self.gpus = 1;
        self
    }
}

/// A cluster of identical nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    pub node: NodeSpec,
    pub nodes: usize,
}

impl ClusterSpec {
    pub fn new(node: NodeSpec, nodes: usize) -> Self {
        assert!(nodes > 0);
        ClusterSpec { node, nodes }
    }

    /// Summit partition with `nodes` nodes (6 GPUs each).
    pub fn summit(nodes: usize) -> Self {
        Self::new(NodeSpec::summit(), nodes)
    }

    pub fn total_gpus(&self) -> usize {
        self.node.gpus * self.nodes
    }

    /// Node index of a global GPU id.
    pub fn node_of(&self, gpu: usize) -> usize {
        gpu / self.node.gpus
    }

    /// Aggregate peak for a precision across the whole cluster, Tflop/s.
    pub fn peak_tflops(&self, p: mixedp_fp::Precision) -> f64 {
        self.node.gpu.peak_tflops(p) * self.total_gpus() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_presets() {
        let n = NodeSpec::summit();
        assert_eq!(n.gpus, 6);
        assert_eq!(n.gpu.generation, GpuGeneration::V100);
        let c = ClusterSpec::summit(64);
        assert_eq!(c.total_gpus(), 384);
        assert_eq!(c.node_of(0), 0);
        assert_eq!(c.node_of(5), 0);
        assert_eq!(c.node_of(6), 1);
        assert_eq!(c.node_of(383), 63);
    }

    #[test]
    fn guyot_haxane() {
        assert_eq!(NodeSpec::guyot().gpus, 8);
        assert_eq!(NodeSpec::haxane().gpus, 1);
        assert!(NodeSpec::haxane().host_mem_bytes < NodeSpec::summit().host_mem_bytes);
    }

    #[test]
    fn cluster_peak_scales() {
        let c1 = ClusterSpec::summit(1);
        let c2 = ClusterSpec::summit(2);
        let p = mixedp_fp::Precision::Fp64;
        assert!((c2.peak_tflops(p) - 2.0 * c1.peak_tflops(p)).abs() < 1e-9);
        // 64 Summit nodes, FP64: 384 × 7.8 ≈ 2995 Tflop/s
        let c = ClusterSpec::summit(64);
        assert!((c.peak_tflops(p) - 2995.2).abs() < 0.1);
    }

    #[test]
    fn single_gpu_view() {
        let n = NodeSpec::summit().single_gpu();
        assert_eq!(n.gpus, 1);
    }
}
