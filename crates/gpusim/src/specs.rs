//! GPU hardware specifications (paper Table I plus the memory-system and
//! power parameters the models need).

use mixedp_fp::Precision;

/// The three GPU generations evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuGeneration {
    /// Tesla V100 (NVLink variant, Summit).
    V100,
    /// A100-SXM4-80GB (Guyot).
    A100,
    /// H100 PCIe (Haxane).
    H100,
}

impl GpuGeneration {
    pub const ALL: [GpuGeneration; 3] = [
        GpuGeneration::V100,
        GpuGeneration::A100,
        GpuGeneration::H100,
    ];

    pub fn label(self) -> &'static str {
        match self {
            GpuGeneration::V100 => "V100 (NVLink)",
            GpuGeneration::A100 => "A100 (SXM)",
            GpuGeneration::H100 => "H100 (PCIe)",
        }
    }

    pub fn spec(self) -> GpuSpec {
        GpuSpec::of(self)
    }
}

/// Full hardware description of one GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    pub generation: GpuGeneration,
    /// Device memory capacity in bytes.
    pub mem_bytes: u64,
    /// Device memory bandwidth, GB/s.
    pub mem_bw_gbs: f64,
    /// Host↔device link bandwidth, GB/s (NVLink on Summit, PCIe elsewhere).
    pub host_link_gbs: f64,
    /// Host↔device transfer latency, seconds.
    pub host_link_latency_s: f64,
    /// Max thermal design power, watts.
    pub tdp_watts: f64,
    /// Idle draw, watts.
    pub idle_watts: f64,
    /// Asymptotic fraction of GEMM peak achievable in practice (Fig 1d:
    /// V100/A100 sustain near peak; H100 PCIe sustains ~82%).
    pub gemm_efficiency: f64,
}

impl GpuSpec {
    pub fn of(g: GpuGeneration) -> Self {
        match g {
            GpuGeneration::V100 => GpuSpec {
                generation: g,
                mem_bytes: 16 * (1 << 30),
                mem_bw_gbs: 900.0,
                // Summit's NVLink2 CPU↔GPU: 50 GB/s per direction — this is
                // what reproduces Table II's tile-move times.
                host_link_gbs: 50.0,
                host_link_latency_s: 10e-6,
                tdp_watts: 300.0,
                idle_watts: 52.0,
                gemm_efficiency: 1.0,
            },
            GpuGeneration::A100 => GpuSpec {
                generation: g,
                mem_bytes: 80 * (1 << 30),
                mem_bw_gbs: 2039.0,
                // PCIe gen4 x16
                host_link_gbs: 32.0,
                host_link_latency_s: 10e-6,
                tdp_watts: 400.0,
                idle_watts: 55.0,
                gemm_efficiency: 0.97,
            },
            GpuGeneration::H100 => GpuSpec {
                generation: g,
                mem_bytes: 80 * (1 << 30),
                mem_bw_gbs: 2000.0,
                // PCIe gen5 x16
                host_link_gbs: 64.0,
                host_link_latency_s: 10e-6,
                tdp_watts: 350.0,
                idle_watts: 61.0,
                gemm_efficiency: 0.82,
            },
        }
    }

    /// Theoretical peak in Tflop/s for GEMM in a precision mode — the body
    /// of paper Table I. On A100/H100, FP64 runs on tensor cores (same peak
    /// as FP32, paper §VII-A); on V100 the tensor-core-only modes fall back
    /// to the nearest supported rate.
    pub fn peak_tflops(&self, p: Precision) -> f64 {
        use GpuGeneration::*;
        use Precision::*;
        match (self.generation, p) {
            (V100, Fp64) => 7.8,
            (V100, Fp32) => 15.7,
            // V100 has no TF32/BF16 units: runs as FP32 (Table I "-").
            (V100, Tf32) | (V100, Bf16x32) => 15.7,
            (V100, Fp16x32) | (V100, Fp16) => 125.0,
            (A100, Fp64) => 19.5, // FP64 tensor cores
            (A100, Fp32) => 19.5,
            (A100, Tf32) => 156.0,
            (A100, Fp16x32) | (A100, Bf16x32) | (A100, Fp16) => 312.0,
            (H100, Fp64) => 51.2, // FP64 tensor cores
            (H100, Fp32) => 51.2,
            (H100, Tf32) => 378.0,
            (H100, Fp16x32) | (H100, Bf16x32) | (H100, Fp16) => 756.0,
        }
    }

    /// Execution-unit class a kernel of precision `p` runs on: 0 = FP64
    /// units, 1 = FP32 CUDA cores, 2 = tensor cores. Kernels serialize
    /// within a class and overlap across classes (concurrent CUDA streams)
    /// — e.g. on V100 an FP32 TRSM and an FP16 tensor GEMM use disjoint
    /// pipelines. On A100/H100, FP64 itself runs on tensor cores (§VII-A),
    /// so FP64 SYRKs contend with FP16 GEMMs there — exactly the effect
    /// that keeps the paper's A100 FP64→FP16 speedup (~11×) below the 16×
    /// peak ratio.
    pub fn unit_class(&self, p: Precision) -> usize {
        use Precision::*;
        match (self.generation, p) {
            (GpuGeneration::V100, Fp64) => 0,
            (GpuGeneration::V100, Fp32) | (GpuGeneration::V100, Tf32) => 1,
            (GpuGeneration::V100, _) => 2,
            (_, Fp32) => 1,
            (_, _) => 2, // FP64 / TF32 / FP16-class: tensor cores
        }
    }

    /// The non-tensor FP64 peak (Table I first row), kept for reporting.
    pub fn peak_fp64_cuda_cores(&self) -> f64 {
        match self.generation {
            GpuGeneration::V100 => 7.8,
            GpuGeneration::A100 => 9.7,
            GpuGeneration::H100 => 25.6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixedp_fp::Precision::*;

    #[test]
    fn table1_values() {
        let v = GpuGeneration::V100.spec();
        assert_eq!(v.peak_tflops(Fp64), 7.8);
        assert_eq!(v.peak_tflops(Fp32), 15.7);
        assert_eq!(v.peak_tflops(Fp16), 125.0);
        let a = GpuGeneration::A100.spec();
        assert_eq!(a.peak_tflops(Fp64), 19.5);
        assert_eq!(a.peak_tflops(Tf32), 156.0);
        assert_eq!(a.peak_tflops(Fp16), 312.0);
        let h = GpuGeneration::H100.spec();
        assert_eq!(h.peak_tflops(Fp64), 51.2);
        assert_eq!(h.peak_tflops(Tf32), 378.0);
        assert_eq!(h.peak_tflops(Bf16x32), 756.0);
    }

    #[test]
    fn fp64_tensor_equals_fp32_on_ampere_hopper() {
        for g in [GpuGeneration::A100, GpuGeneration::H100] {
            let s = g.spec();
            assert_eq!(s.peak_tflops(Fp64), s.peak_tflops(Fp32), "{g:?}");
        }
        let v = GpuGeneration::V100.spec();
        assert!(v.peak_tflops(Fp64) < v.peak_tflops(Fp32));
    }

    #[test]
    fn peaks_increase_across_generations() {
        for p in [Fp64, Fp32, Fp16] {
            let v = GpuGeneration::V100.spec().peak_tflops(p);
            let a = GpuGeneration::A100.spec().peak_tflops(p);
            let h = GpuGeneration::H100.spec().peak_tflops(p);
            assert!(v <= a && a <= h, "{p}");
        }
    }

    #[test]
    fn sane_power_and_memory() {
        for g in GpuGeneration::ALL {
            let s = g.spec();
            assert!(s.idle_watts < s.tdp_watts);
            assert!(s.mem_bytes >= 16 * (1 << 30));
            assert!(s.gemm_efficiency > 0.5 && s.gemm_efficiency <= 1.0);
        }
    }
}
