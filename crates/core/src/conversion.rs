//! Algorithm 2: the automated precision-conversion planner (paper §VI).
//!
//! Every POTRF and TRSM output is broadcast to successor tasks. The planner
//! decides, per tile, the *communication precision* of that broadcast and
//! whether the datatype conversion happens once at the sender (**STC**) or
//! at each receiver (**TTC**):
//!
//! * `comm_precision(t) = min(storage(t), max over successors of their
//!   input requirement)` — never ship more fidelity than the tile stores,
//!   never less than the most demanding consumer can use.
//! * **STC** ⟺ `comm_precision(t) < storage(t)`: the sender down-converts
//!   once and every payload shrinks; all consumers read the wire format
//!   directly.
//! * **TTC** ⟺ `comm_precision(t) = storage(t)`: data ships as stored, and
//!   each consumer needing a different format converts locally.
//!
//! Successor scan (following the loop structure of the paper's Algorithm 2):
//! POTRF(k,k) feeds the TRSMs of column `k` (whose effective precision is
//! FP64 or FP32); TRSM(m,k) feeds the GEMMs of row `m` (tiles `(m, n)`,
//! `k < n < m`) and column `m` (tiles `(n, m)`, `n > m`). The diagonal
//! consumers (DSYRK/DPOTRF, always FP64) read at the tile's storage
//! fidelity through a widening receiver conversion, so they do not raise
//! the wire precision above storage — this is exactly the role of the
//! algorithm's `comm ≥ storage ⇒ comm = storage` early exit.
//!
//! The per-tile computations are independent, but the planner runs
//! sequentially: at every scale the paper uses, a parallel plan was slower
//! (EXPERIMENTS.md, Fig 4).

use crate::precision_map::PrecisionMap;
use mixedp_fp::{comm_of_storage, comm_requirement, higher_comm, CommPrecision};
use mixedp_kernels::trsm_effective_precision;
use mixedp_obs as obs;
use mixedp_tile::lower_index;

/// Wire-precision policy for every payload a run ships between owners —
/// the numerical distributed engine and the simulator share it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WirePolicy {
    /// Ship storage precision, receiver converts (TTC): lossless on the
    /// wire. The baseline of \[18\], \[38\]; the lower bound in Fig 8.
    Ttc,
    /// The automated plan of Algorithm 2 (STC wherever beneficial; the
    /// paper's contribution — upper curve in Fig 8).
    Auto,
    /// Always ship FP16 (the §VI strawman: "consistently downgrading to the
    /// lowest precision ... might also unnecessarily compromise the
    /// accuracy").
    AlwaysLowest,
}

/// Wire precision of broadcasts issued from tile `(i, j)` under `policy`.
pub fn wire_of(
    plan: &ConversionPlan,
    pmap: &PrecisionMap,
    policy: WirePolicy,
    i: usize,
    j: usize,
) -> CommPrecision {
    match policy {
        WirePolicy::Ttc => comm_of_storage(pmap.storage(i, j)),
        WirePolicy::Auto => plan.comm(i, j),
        WirePolicy::AlwaysLowest => CommPrecision::Fp16,
    }
}

/// The planner output: per-tile communication precision plus the STC/TTC
/// classification (Fig 4b).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConversionPlan {
    nt: usize,
    /// Lower-packed wire precision per tile.
    comm: Vec<CommPrecision>,
    /// Lower-packed: true where the sender converts (STC).
    stc: Vec<bool>,
}

impl ConversionPlan {
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Wire precision of broadcasts issued from tile `(i, j)`.
    pub fn comm(&self, i: usize, j: usize) -> CommPrecision {
        self.comm[lower_index(i, j)]
    }

    /// Whether the task on tile `(i, j)` uses sender-side conversion.
    pub fn is_stc(&self, i: usize, j: usize) -> bool {
        self.stc[lower_index(i, j)]
    }

    /// Number of STC tiles (Fig 4's red-bordered tiles).
    pub fn stc_count(&self) -> usize {
        self.stc.iter().filter(|&&b| b).count()
    }

    /// ASCII rendering of the communication-precision map; STC tiles are
    /// bracketed (Fig 4b).
    pub fn render(&self) -> String {
        let mut s = String::new();
        for i in 0..self.nt {
            for j in 0..=i {
                let c = match self.comm(i, j) {
                    CommPrecision::Fp64 => '8',
                    CommPrecision::Fp32 => '4',
                    CommPrecision::Fp16 => 'q',
                };
                if self.is_stc(i, j) {
                    s.push('[');
                    s.push(c);
                    s.push(']');
                } else {
                    s.push(' ');
                    s.push(c);
                    s.push(' ');
                }
                s.push(' ');
            }
            s.push('\n');
        }
        s
    }
}

/// Plan one tile `(m, j)`: returns `(comm, is_stc)`.
fn plan_tile(pmap: &PrecisionMap, m: usize, j: usize) -> (CommPrecision, bool) {
    let nt = pmap.nt();
    let storage = comm_of_storage(pmap.storage(m, j));
    if m == j {
        // Diagonal tile (k, k), POTRF(k, k) → TRSMs of column k. TRSMs run
        // FP64 or FP32 (hardware floor), so comm starts at FP32. The last
        // POTRF has no successors at all: keep storage precision (TTC) —
        // this is what the pseudocode's diagonal-inclusive early exit does.
        let k = m;
        if k + 1 == nt {
            return (storage, false);
        }
        let mut comm = CommPrecision::Fp32;
        for i in (k + 1)..nt {
            if trsm_effective_precision(pmap.kernel(i, k)) == mixedp_fp::Precision::Fp64 {
                comm = CommPrecision::Fp64;
                break;
            }
        }
        let stc = comm < storage;
        return (comm, stc);
    }
    // Off-diagonal tile (m, k), TRSM(m, k) → row-m GEMMs and column-m GEMMs.
    let k = j;
    let mut comm = CommPrecision::Fp16;
    let mut gemm_successors = false;
    // Row broadcast: GEMM(m, n, k) executes at kernel_precision(m, n).
    for n in (k + 1)..m {
        gemm_successors = true;
        comm = higher_comm(comm, comm_requirement(pmap.kernel(m, n)));
        if comm >= storage {
            return (storage, false);
        }
    }
    // Column broadcast: GEMM(n, m, k) executes at kernel_precision(n, m).
    for n in (m + 1)..nt {
        gemm_successors = true;
        comm = higher_comm(comm, comm_requirement(pmap.kernel(n, m)));
        if comm >= storage {
            return (storage, false);
        }
    }
    if !gemm_successors {
        // Only the FP64 SYRK consumes this tile: down-converting would buy
        // no GEMM speedup and only corrupt the trailing diagonal — the case
        // the pseudocode's diagonal-inclusive row scan guards (§VI).
        return (storage, false);
    }
    // All scanned GEMM successors accept `comm` (< storage): STC.
    (comm, true)
}

/// Run Algorithm 2 sequentially.
pub fn plan_conversions(pmap: &PrecisionMap) -> ConversionPlan {
    let sp = obs::span_start();
    let nt = pmap.nt();
    let mut comm = Vec::with_capacity(nt * (nt + 1) / 2);
    let mut stc = Vec::with_capacity(nt * (nt + 1) / 2);
    for i in 0..nt {
        for j in 0..=i {
            let (c, s) = plan_tile(pmap, i, j);
            comm.push(c);
            stc.push(s);
        }
    }
    let plan = ConversionPlan { nt, comm, stc };
    // Metrics, and a `Convert` span whose arg is the STC tile count.
    static PLANS: obs::LazyCounter = obs::LazyCounter::new("convert.plans");
    static STC_TILES: obs::LazyCounter = obs::LazyCounter::new("convert.stc_tiles");
    PLANS.inc();
    STC_TILES.add(plan.stc_count() as u64);
    obs::span_end(sp, obs::EventKind::Convert, plan.stc_count() as u64);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precision_map::uniform_map;
    use mixedp_fp::Precision;

    #[test]
    fn uniform_fp16_everything_is_stc() {
        // The FP64/FP16 extreme of Fig 8: every POTRF sends FP32 (<FP64
        // storage) and every TRSM sends FP16 (<FP32 storage).
        let nt = 6;
        let plan = plan_conversions(&uniform_map(nt, Precision::Fp16));
        for k in 0..(nt - 1) {
            assert_eq!(plan.comm(k, k), CommPrecision::Fp32, "diag {k}");
            assert!(plan.is_stc(k, k), "diag {k}");
        }
        // the last POTRF has no successors: storage precision, TTC
        assert!(!plan.is_stc(nt - 1, nt - 1));
        for i in 1..nt {
            for j in 0..i {
                if (i, j) == (nt - 1, nt - 2) {
                    // only the SYRK consumes it: storage (FP32), TTC
                    assert_eq!(plan.comm(i, j), CommPrecision::Fp32);
                    assert!(!plan.is_stc(i, j));
                    continue;
                }
                assert_eq!(plan.comm(i, j), CommPrecision::Fp16, "({i},{j})");
                assert!(plan.is_stc(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn uniform_fp64_everything_is_ttc() {
        let nt = 5;
        let plan = plan_conversions(&uniform_map(nt, Precision::Fp64));
        for i in 0..nt {
            for j in 0..=i {
                assert_eq!(plan.comm(i, j), CommPrecision::Fp64, "({i},{j})");
                assert!(!plan.is_stc(i, j), "({i},{j})");
            }
        }
        assert_eq!(plan.stc_count(), 0);
    }

    #[test]
    fn uniform_fp32_tiles_cap_at_storage() {
        // FP32 kernels: storage FP32, every successor requires FP32 ⇒ comm
        // = storage, TTC (no conversion anywhere — already matching).
        let nt = 5;
        let plan = plan_conversions(&uniform_map(nt, Precision::Fp32));
        for i in 1..nt {
            for j in 0..i {
                assert_eq!(plan.comm(i, j), CommPrecision::Fp32);
                assert!(!plan.is_stc(i, j));
            }
        }
        // diagonal: all TRSMs run FP32 ⇒ POTRF ships FP32 < FP64 = STC
        assert!(plan.is_stc(0, 0));
        assert_eq!(plan.comm(0, 0), CommPrecision::Fp32);
    }

    #[test]
    fn mixed_row_requirement_forces_ttc() {
        // Tile (3,0): row-3 GEMM targets (3,1),(3,2); make (3,1) FP32 and
        // everything else FP16 ⇒ comm(3,0) escalates to FP32 = storage ⇒ TTC.
        let nt = 5;
        let m = PrecisionMap::from_fn(nt, |i, j| {
            if (i, j) == (3, 1) {
                Precision::Fp32
            } else {
                Precision::Fp16
            }
        });
        let plan = plan_conversions(&m);
        assert_eq!(plan.comm(3, 0), CommPrecision::Fp32);
        assert!(!plan.is_stc(3, 0));
        // a sibling panel tile with all-FP16 successors stays STC
        assert!(plan.is_stc(4, 0));
        assert_eq!(plan.comm(4, 0), CommPrecision::Fp16);
    }

    #[test]
    fn column_requirement_also_scanned() {
        // Tile (2,0) feeds column-2 GEMMs on (3,2),(4,2): make (3,2) FP64.
        // comm(2,0) would rise to FP64 but caps at storage (FP32) ⇒ TTC.
        let nt = 5;
        let m = PrecisionMap::from_fn(nt, |i, j| {
            if (i, j) == (3, 2) {
                Precision::Fp64
            } else {
                Precision::Fp16
            }
        });
        let plan = plan_conversions(&m);
        assert_eq!(plan.comm(2, 0), CommPrecision::Fp32);
        assert!(!plan.is_stc(2, 0));
    }

    #[test]
    fn diagonal_ttc_when_any_fp64_trsm() {
        // Column 0 has one FP64 tile ⇒ its TRSM runs FP64 ⇒ POTRF(0,0)
        // must ship FP64 = storage ⇒ TTC.
        let nt = 4;
        let m = PrecisionMap::from_fn(nt, |i, j| {
            if (i, j) == (2, 0) {
                Precision::Fp64
            } else {
                Precision::Fp16
            }
        });
        let plan = plan_conversions(&m);
        assert_eq!(plan.comm(0, 0), CommPrecision::Fp64);
        assert!(!plan.is_stc(0, 0));
        // other diagonals unaffected
        assert!(plan.is_stc(1, 1));
    }

    #[test]
    fn last_column_tile_has_no_gemm_successors() {
        // Tile (nt-1, nt-2): row GEMM range empty, column empty ⇒ only the
        // FP64 SYRK consumes it ⇒ ship storage precision, TTC (the
        // diagonal-inclusive early exit of the paper's pseudocode).
        let plan = plan_conversions(&uniform_map(4, Precision::Fp32));
        assert_eq!(plan.comm(3, 2), CommPrecision::Fp32);
        assert!(!plan.is_stc(3, 2));
    }

    #[test]
    fn render_marks_stc() {
        let plan = plan_conversions(&uniform_map(3, Precision::Fp16));
        let r = plan.render();
        assert!(r.contains("[q]"), "{r}");
        assert!(r.contains("[4]"), "{r}");
    }
}
