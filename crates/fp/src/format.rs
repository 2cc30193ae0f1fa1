//! The precision formats of the adaptive framework.

use serde::{Deserialize, Serialize};

/// A kernel (operation) precision format, as enumerated in paper §IV.
///
/// The "x32" variants are the paper's `FP16_32` / `BF16_32`: matrix inputs
/// A and B are held in the 16-bit format while C and the accumulation are
/// FP32 (the tensor-core mixed GEMM mode). `Tf32` rounds inputs to a 10-bit
/// mantissa and accumulates in FP32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Precision {
    /// IEEE binary16 inputs, outputs, and accumulation (pure FP16 GEMM).
    Fp16,
    /// bfloat16 inputs, FP32 accumulation (paper `BF16_32`).
    Bf16x32,
    /// IEEE binary16 inputs, FP32 accumulation (paper `FP16_32`).
    Fp16x32,
    /// TensorFloat-32: 10-bit-mantissa inputs, FP32 accumulation.
    Tf32,
    /// IEEE binary32 throughout.
    Fp32,
    /// IEEE binary64 throughout.
    Fp64,
}

impl Precision {
    /// All formats, lowest to highest (by input fidelity, the order used to
    /// escalate precision in Algorithm 2).
    pub const ALL: [Precision; 6] = [
        Precision::Fp16,
        Precision::Bf16x32,
        Precision::Fp16x32,
        Precision::Tf32,
        Precision::Fp32,
        Precision::Fp64,
    ];

    /// The formats admitted into the adaptive framework (paper §IV end:
    /// "we incorporate FP64, FP32, FP16_32, and FP16"; BF16_32 is dropped
    /// because its performance matches FP16_32 on the considered GPUs, and
    /// TF32 behaves like FP16_32).
    pub const ADAPTIVE_SET: [Precision; 4] = [
        Precision::Fp16,
        Precision::Fp16x32,
        Precision::Fp32,
        Precision::Fp64,
    ];

    /// Unit roundoff of the *input* representation: `2^-(mantissa bits + 1)`.
    ///
    /// For the mixed `_32` modes this is the rounding error committed on A/B
    /// entries; the accumulation error is governed by FP32. The paper notes
    /// (§VII-A) that FP16_32's *effective* epsilon in applications is lower
    /// than FP16's and is determined experimentally — see
    /// [`Precision::effective_epsilon`].
    pub fn unit_roundoff(self) -> f64 {
        match self {
            Precision::Fp64 => f64::from_bits(0x3CA0000000000000), // 2^-53
            Precision::Fp32 => (2.0f64).powi(-24),
            Precision::Tf32 => (2.0f64).powi(-11),
            Precision::Fp16x32 => (2.0f64).powi(-11),
            Precision::Bf16x32 => (2.0f64).powi(-8),
            Precision::Fp16 => (2.0f64).powi(-11),
        }
    }

    /// The `u_low` plugged into the tile-selection rule
    /// `‖A_ij‖·NT/‖A‖ ≤ u_req/u_low` (paper §V).
    ///
    /// FP16_32 benefits from FP32 accumulation, so its block-level error
    /// bound is lower than pure FP16's (Blanchard et al. \[23\]); following
    /// the paper we assign it an experimentally determined effective epsilon
    /// two octaves below FP16's input roundoff. Pure FP16 is penalized by
    /// its FP16 accumulation.
    pub fn effective_epsilon(self) -> f64 {
        match self {
            Precision::Fp16 => (2.0f64).powi(-9), // accumulation in fp16 loses ground
            Precision::Fp16x32 => (2.0f64).powi(-13),
            Precision::Bf16x32 => (2.0f64).powi(-10),
            Precision::Tf32 => (2.0f64).powi(-13),
            Precision::Fp32 => (2.0f64).powi(-24),
            Precision::Fp64 => f64::from_bits(0x3CA0000000000000),
        }
    }

    /// Bytes per element of the A/B input representation (what a GEMM in
    /// this mode reads from memory for its multiplicand operands).
    pub fn input_bytes(self) -> usize {
        match self {
            Precision::Fp64 => 8,
            Precision::Fp32 | Precision::Tf32 => 4,
            Precision::Fp16 | Precision::Fp16x32 | Precision::Bf16x32 => 2,
        }
    }

    /// Short label matching the paper's notation.
    pub fn label(self) -> &'static str {
        match self {
            Precision::Fp64 => "FP64",
            Precision::Fp32 => "FP32",
            Precision::Tf32 => "TF32",
            Precision::Fp16x32 => "FP16_32",
            Precision::Bf16x32 => "BF16_32",
            Precision::Fp16 => "FP16",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The format a tile is materialized in (memory representation).
///
/// FP16-class kernels still need their tile storable for the FP32 TRSM
/// (paper §V, Fig 2b), so only three storage formats exist in the adaptive
/// framework. `F16` exists for the standalone GEMM benchmark path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StoragePrecision {
    F16,
    F32,
    F64,
}

impl StoragePrecision {
    pub fn bytes(self) -> usize {
        match self {
            StoragePrecision::F16 => 2,
            StoragePrecision::F32 => 4,
            StoragePrecision::F64 => 8,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            StoragePrecision::F16 => "FP16",
            StoragePrecision::F32 => "FP32",
            StoragePrecision::F64 => "FP64",
        }
    }
}

impl std::fmt::Display for StoragePrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The wire format of a communication payload — the domain of Algorithm 2's
/// `comm_precision` map (values `FP_16`, `FP_32`, `FP_64` in the paper).
///
/// `Ord` follows fidelity: `Fp16 < Fp32 < Fp64`, so
/// [`crate::lattice::higher_comm`] is just `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CommPrecision {
    Fp16,
    Fp32,
    Fp64,
}

impl CommPrecision {
    pub fn bytes(self) -> usize {
        match self {
            CommPrecision::Fp16 => 2,
            CommPrecision::Fp32 => 4,
            CommPrecision::Fp64 => 8,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            CommPrecision::Fp16 => "FP16",
            CommPrecision::Fp32 => "FP32",
            CommPrecision::Fp64 => "FP64",
        }
    }

    /// The storage format with matching fidelity.
    pub fn as_storage(self) -> StoragePrecision {
        match self {
            CommPrecision::Fp16 => StoragePrecision::F16,
            CommPrecision::Fp32 => StoragePrecision::F32,
            CommPrecision::Fp64 => StoragePrecision::F64,
        }
    }
}

impl std::fmt::Display for CommPrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_roundoff_ordering_matches_fidelity() {
        assert!(Precision::Fp64.unit_roundoff() < Precision::Fp32.unit_roundoff());
        assert!(Precision::Fp32.unit_roundoff() < Precision::Fp16.unit_roundoff());
        assert!(Precision::Fp16x32.unit_roundoff() <= Precision::Fp16.unit_roundoff());
        assert!(Precision::Fp16.unit_roundoff() < Precision::Bf16x32.unit_roundoff());
    }

    #[test]
    fn fp64_unit_roundoff_is_2_pow_minus_53() {
        assert_eq!(Precision::Fp64.unit_roundoff(), (2.0f64).powi(-53));
    }

    #[test]
    fn effective_epsilon_of_fp16x32_is_below_fp16() {
        assert!(
            Precision::Fp16x32.effective_epsilon() < Precision::Fp16.effective_epsilon(),
            "FP16_32 must have a lower effective epsilon than FP16 (paper §VII-A)"
        );
    }

    #[test]
    fn comm_precision_ord_is_fidelity() {
        assert!(CommPrecision::Fp16 < CommPrecision::Fp32);
        assert!(CommPrecision::Fp32 < CommPrecision::Fp64);
        assert_eq!(CommPrecision::Fp16.bytes(), 2);
        assert_eq!(CommPrecision::Fp64.bytes(), 8);
    }

    #[test]
    fn input_bytes_match_formats() {
        assert_eq!(Precision::Fp64.input_bytes(), 8);
        assert_eq!(Precision::Tf32.input_bytes(), 4);
        assert_eq!(Precision::Fp16x32.input_bytes(), 2);
        assert_eq!(Precision::Fp16.input_bytes(), 2);
    }

    #[test]
    fn adaptive_set_excludes_bf16_and_tf32() {
        assert!(!Precision::ADAPTIVE_SET.contains(&Precision::Bf16x32));
        assert!(!Precision::ADAPTIVE_SET.contains(&Precision::Tf32));
        assert_eq!(Precision::ADAPTIVE_SET.len(), 4);
    }

    #[test]
    fn labels_roundtrip_paper_notation() {
        assert_eq!(Precision::Fp16x32.label(), "FP16_32");
        assert_eq!(Precision::Bf16x32.label(), "BF16_32");
        assert_eq!(format!("{}", Precision::Fp64), "FP64");
        assert_eq!(format!("{}", CommPrecision::Fp32), "FP32");
        assert_eq!(format!("{}", StoragePrecision::F16), "FP16");
    }
}
