//! Performance mode: replay the Algorithm 1 DAG on the GPU-cluster
//! simulator with precision-tagged payloads (paper Figs 8–12, Table II
//! scenarios).
//!
//! Tiles are distributed 2D block-cyclically over all GPUs of the cluster
//! (owner-computes, §VII-A); every dependency payload carries the wire
//! precision chosen by the wire policy:
//!
//! * [`WirePolicy::Ttc`] — payloads ship at the producer tile's storage
//!   precision; every consumer whose kernel wants a different input format
//!   pays a conversion on its own compute stream (per task).
//! * [`WirePolicy::Auto`] — Algorithm 2's plan: where STC applies, the
//!   producer converts once and payloads shrink to the planned wire
//!   precision; consumers read it directly.
//! * [`WirePolicy::AlwaysLowest`] — every payload ships FP16.

use crate::conversion::{plan_conversions, wire_of, ConversionPlan, WirePolicy};
use crate::factorize::{build_dag, CholeskyTask};
use crate::precision_map::PrecisionMap;
use crate::wire::{framed_tile_bytes, Packing};
use mixedp_fp::{comm_of_storage, comm_requirement, CommPrecision, Precision};
use mixedp_gpusim::{ClusterSpec, SimConfig, SimInput, SimKernel, SimReport, SimTask, Simulator};
use mixedp_kernels::trsm_effective_precision;
use mixedp_tile::Grid2d;

/// Options for a simulated Cholesky run.
#[derive(Debug, Clone, Copy)]
pub struct CholeskySimOptions {
    pub nb: usize,
    pub strategy: WirePolicy,
}

/// Map `CholeskyTask` kernels onto simulator kernel classes.
fn sim_kind(t: &CholeskyTask) -> SimKernel {
    match t {
        CholeskyTask::Potrf { .. } => SimKernel::Potrf,
        CholeskyTask::Trsm { .. } => SimKernel::Trsm,
        CholeskyTask::Syrk { .. } => SimKernel::Syrk,
        CholeskyTask::Gemm { .. } => SimKernel::Gemm,
    }
}

/// Build a [`SimInput`] for a consumer reading tile `(i, j)` with kernel
/// input requirement `req`.
///
/// The payload size is the *real* packed-wire message size
/// ([`framed_tile_bytes`]): message + frame headers plus the fused
/// convert-and-pack payload — lower-triangle-packed when the tile is a
/// factored diagonal block (`i == j`), exactly what the distributed engine
/// ships.
#[allow(clippy::too_many_arguments)]
fn input_for(
    plan: &ConversionPlan,
    pmap: &PrecisionMap,
    strategy: WirePolicy,
    tile_id: u32,
    i: usize,
    j: usize,
    req: CommPrecision,
    nb: usize,
) -> SimInput {
    let wire = wire_of(plan, pmap, strategy, i, j);
    let packing = if i == j {
        Packing::Lower
    } else {
        Packing::Full
    };
    let mut inp = SimInput::plain(tile_id, framed_tile_bytes(nb, nb, wire, packing) as u64);
    if wire != req {
        // Receiver-side conversion (down-cast under TTC, widening for the
        // FP64 diagonal kernels under either strategy) — one element per
        // packed payload slot.
        inp.recv_convert_elems = packing.elems(nb, nb) as u64;
        inp.recv_convert_from = wire.bytes();
        inp.recv_convert_to = req.bytes();
    }
    inp
}

/// Build the simulator task list for an `nt × nt` tile Cholesky.
///
/// Returns the tasks plus the initial host-resident tiles (the generated
/// covariance matrix, in storage precision, on each owner's node).
pub fn build_sim_tasks(
    pmap: &PrecisionMap,
    cluster: &ClusterSpec,
    opts: CholeskySimOptions,
) -> (Vec<SimTask>, Vec<(u32, u32, u64)>) {
    let nt = pmap.nt();
    let nb = opts.nb;
    let plan = plan_conversions(pmap);
    let grid = Grid2d::squarest(cluster.total_gpus());
    let dag = build_dag(nt);
    let tile_id = |i: usize, j: usize| (i * nt + j) as u32;
    let elems = (nb * nb) as u64;

    let mut sim_tasks = Vec::with_capacity(dag.tasks.len());
    for (id, t) in dag.tasks.iter().enumerate() {
        let node = dag.graph.node(id);
        let (out_i, out_j) = t.output_tile();
        let gpu = grid.rank_of(out_i, out_j);
        let out_storage = pmap.storage(out_i, out_j);
        // Under the automated plan, an STC sender (POTRF/TRSM) keeps its
        // output in the *communication* form on device: the one sender-side
        // conversion produces the copy every consumer (and every eviction /
        // refetch) then uses — this is where STC's data-motion savings come
        // from. Non-senders and TTC tiles stay at storage precision.
        let is_sender = matches!(t, CholeskyTask::Potrf { .. } | CholeskyTask::Trsm { .. });
        let stc_sender =
            opts.strategy == WirePolicy::Auto && is_sender && plan.is_stc(out_i, out_j);
        let out_bytes = if stc_sender {
            elems * plan.comm(out_i, out_j).bytes() as u64
        } else {
            elems * out_storage.bytes() as u64
        };

        // Kernel execution precision.
        let precision = match *t {
            CholeskyTask::Potrf { .. } | CholeskyTask::Syrk { .. } => Precision::Fp64,
            CholeskyTask::Trsm { m, k } => trsm_effective_precision(pmap.kernel(m, k)),
            CholeskyTask::Gemm { m, n, .. } => pmap.kernel(m, n),
        };

        // Inputs: communicated payloads plus the in-place output tile (its
        // pre-update content is at storage precision).
        let in_place_bytes = elems * out_storage.bytes() as u64;
        let mut inputs = Vec::new();
        match *t {
            CholeskyTask::Potrf { k } => {
                // in-place on (k,k); first iteration reads the generated tile
                inputs.push(SimInput::plain(tile_id(k, k), in_place_bytes));
            }
            CholeskyTask::Trsm { m, k } => {
                let req = comm_requirement(precision);
                inputs.push(input_for(
                    &plan,
                    pmap,
                    opts.strategy,
                    tile_id(k, k),
                    k,
                    k,
                    req,
                    nb,
                ));
                inputs.push(SimInput::plain(tile_id(m, k), in_place_bytes));
            }
            CholeskyTask::Syrk { m, k } => {
                // DSYRK reads the panel tile at FP64 (widening conversion
                // from whatever the wire carries).
                let req = CommPrecision::Fp64;
                inputs.push(input_for(
                    &plan,
                    pmap,
                    opts.strategy,
                    tile_id(m, k),
                    m,
                    k,
                    req,
                    nb,
                ));
                inputs.push(SimInput::plain(tile_id(m, m), out_bytes));
            }
            CholeskyTask::Gemm { m, n, k } => {
                let req = comm_requirement(precision);
                inputs.push(input_for(
                    &plan,
                    pmap,
                    opts.strategy,
                    tile_id(m, k),
                    m,
                    k,
                    req,
                    nb,
                ));
                inputs.push(input_for(
                    &plan,
                    pmap,
                    opts.strategy,
                    tile_id(n, k),
                    n,
                    k,
                    req,
                    nb,
                ));
                inputs.push(SimInput::plain(tile_id(m, n), out_bytes));
            }
        }

        // Sender-side conversion under the automated plan (STC tiles only):
        // charged once on the producing POTRF/TRSM.
        let mut send_convert = (0u64, 0usize, 0usize);
        if stc_sender {
            let storage = comm_of_storage(pmap.storage(out_i, out_j));
            let wire = plan.comm(out_i, out_j);
            send_convert = (elems, storage.bytes(), wire.bytes());
        }

        sim_tasks.push(SimTask {
            deps: node.deps.iter().map(|&d| d as u32).collect(),
            gpu: gpu as u32,
            kind: sim_kind(t),
            precision,
            nb,
            inputs,
            out_tile: tile_id(out_i, out_j),
            out_bytes,
            send_convert_elems: send_convert.0,
            send_convert_from: send_convert.1,
            send_convert_to: send_convert.2,
            priority: node.priority,
        });
    }

    // Initial tiles: generated matrix, storage precision, on owner's node.
    let mut initial = Vec::with_capacity(nt * (nt + 1) / 2);
    for i in 0..nt {
        for j in 0..=i {
            let owner = grid.rank_of(i, j);
            let node = cluster.node_of(owner) as u32;
            initial.push((
                tile_id(i, j),
                node,
                elems * pmap.storage(i, j).bytes() as u64,
            ));
        }
    }
    (sim_tasks, initial)
}

/// Simulate a full tile Cholesky on `cluster` and return the report.
pub fn simulate_cholesky(
    pmap: &PrecisionMap,
    cluster: &ClusterSpec,
    opts: CholeskySimOptions,
) -> SimReport {
    let (tasks, initial) = build_sim_tasks(pmap, cluster, opts);
    Simulator::new(*cluster, SimConfig::default()).run(&tasks, &initial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precision_map::uniform_map;
    use mixedp_gpusim::NodeSpec;

    fn v100_1gpu() -> ClusterSpec {
        ClusterSpec::new(NodeSpec::summit().single_gpu(), 1)
    }

    fn opts(strategy: WirePolicy) -> CholeskySimOptions {
        CholeskySimOptions { nb: 2048, strategy }
    }

    #[test]
    fn fp64_single_gpu_reaches_high_efficiency() {
        // Fig 8a anchor: FP64 Cholesky on one V100 at large size reaches
        // ≥ ~84% of the 7.8 Tflop/s peak.
        let nt = 20; // matrix 40960
        let rep = simulate_cholesky(
            &uniform_map(nt, Precision::Fp64),
            &v100_1gpu(),
            opts(WirePolicy::Auto),
        );
        let eff = rep.tflops() / 7.8;
        assert!(eff > 0.80 && eff <= 1.0, "FP64 efficiency {eff}");
    }

    #[test]
    fn stc_beats_ttc_in_fp64_fp16_config() {
        // Fig 8's headline: under FP64/FP16 the automated plan (all STC)
        // outperforms all-TTC.
        let nt = 24;
        let m = uniform_map(nt, Precision::Fp16);
        let cl = v100_1gpu();
        let t_ttc = simulate_cholesky(&m, &cl, opts(WirePolicy::Ttc)).makespan_s;
        let t_stc = simulate_cholesky(&m, &cl, opts(WirePolicy::Auto)).makespan_s;
        let speedup = t_ttc / t_stc;
        assert!(speedup > 1.05, "STC speedup {speedup}");
        assert!(speedup < 2.5, "speedup suspiciously large: {speedup}");
    }

    #[test]
    fn mixed_precision_beats_fp64() {
        let nt = 16;
        let cl = v100_1gpu();
        let t64 = simulate_cholesky(
            &uniform_map(nt, Precision::Fp64),
            &cl,
            opts(WirePolicy::Auto),
        )
        .makespan_s;
        let t16 = simulate_cholesky(
            &uniform_map(nt, Precision::Fp16),
            &cl,
            opts(WirePolicy::Auto),
        )
        .makespan_s;
        assert!(t64 / t16 > 3.0, "FP64/FP16 speedup {}", t64 / t16);
    }

    #[test]
    fn stc_reduces_transferred_bytes() {
        // nt = 48 at nb = 2048: the FP32-stored working set (~20 GB)
        // exceeds the V100's 16 GB, so eviction/refetch traffic appears and
        // STC's smaller resident copies pay off.
        let nt = 48;
        let m = uniform_map(nt, Precision::Fp16);
        let cl = v100_1gpu();
        let ttc = simulate_cholesky(&m, &cl, opts(WirePolicy::Ttc));
        let stc = simulate_cholesky(&m, &cl, opts(WirePolicy::Auto));
        assert!(
            stc.h2d_bytes < ttc.h2d_bytes,
            "STC h2d {} vs TTC {}",
            stc.h2d_bytes,
            ttc.h2d_bytes
        );
        // and far fewer conversions (one per panel tile instead of one per
        // consumer)
        assert!(stc.conversions < ttc.conversions);
    }

    #[test]
    fn multi_gpu_scales() {
        let nt = 24;
        let m = uniform_map(nt, Precision::Fp64);
        let one = ClusterSpec::new(NodeSpec::summit().single_gpu(), 1);
        let six = ClusterSpec::new(NodeSpec::summit(), 1);
        let t1 = simulate_cholesky(&m, &one, opts(WirePolicy::Auto)).makespan_s;
        let t6 = simulate_cholesky(&m, &six, opts(WirePolicy::Auto)).makespan_s;
        let s = t1 / t6;
        assert!(s > 3.0 && s <= 6.5, "6-GPU speedup {s}");
    }

    #[test]
    fn cross_node_traffic_appears_only_with_multiple_nodes() {
        let nt = 12;
        let m = uniform_map(nt, Precision::Fp64);
        let o = opts(WirePolicy::Auto);
        let rep1 = simulate_cholesky(&m, &ClusterSpec::summit(1), o);
        assert_eq!(rep1.nic_bytes, 0);
        let rep2 = simulate_cholesky(&m, &ClusterSpec::summit(2), o);
        assert!(rep2.nic_bytes > 0);
    }

    #[test]
    fn energy_lower_for_mixed_precision() {
        let nt = 16;
        let cl = v100_1gpu();
        let e64 = simulate_cholesky(
            &uniform_map(nt, Precision::Fp64),
            &cl,
            opts(WirePolicy::Auto),
        )
        .energy_joules();
        let e16 = simulate_cholesky(
            &uniform_map(nt, Precision::Fp16),
            &cl,
            opts(WirePolicy::Auto),
        )
        .energy_joules();
        assert!(e16 < e64 / 2.0, "energy {e16} vs {e64}");
    }

    #[test]
    fn task_and_tile_counts() {
        let nt = 6;
        let m = uniform_map(nt, Precision::Fp32);
        let (tasks, initial) = build_sim_tasks(&m, &v100_1gpu(), opts(WirePolicy::Auto));
        assert_eq!(
            tasks.len(),
            nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) / 6
        );
        assert_eq!(initial.len(), nt * (nt + 1) / 2);
    }
}
