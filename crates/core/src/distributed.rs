//! Distributed-memory numerical execution: Algorithm 1 with a *real wire* —
//! packed byte payloads, rank-level messages, and tree broadcasts.
//!
//! The same engine as shared memory ([`crate::factorize`]) runs the DAG —
//! same scheduler, kernels and STC cache; shared memory is simply the 1×1
//! grid. Here tiles are owned by ranks of a 2D block-cyclic [`Grid2d`]
//! (owner-computes), and every dependency that crosses ranks travels as an
//! actual [`crate::wire`] message into a per-(tile, rank) inbox slot, which
//! the consuming task reads in place of the owner's tile. `POTRF(k)` ships
//! its one-frame `L_kk` itself; one broadcast node per step ships panel
//! column `k` after its TRSMs and before the step's trailing updates:
//!
//! * **Fused convert-and-pack** — the owner streams each broadcast tile
//!   straight into a little-endian byte buffer at its wire precision
//!   (lower-triangle-packed for factored diagonal tiles); the receiver's
//!   fused unpack materializes its copy in one pass. No intermediate
//!   narrowed `Tile` is ever allocated, and `DistStats.wire_bytes` is the
//!   literal buffer length of every transmission.
//! * **STC dedup + panel coalescing** — each panel tile is packed once and
//!   shipped once per *destination rank*, however many SYRK/GEMM tasks on
//!   that rank consume it; and all frames crossing the same link in a
//!   factorization step ride one header-framed multi-tile message.
//! * **Binomial broadcast trees** — a payload with `D` destination ranks
//!   crosses `D` links in `⌈log₂(D+1)⌉` rounds
//!   ([`crate::wire::broadcast_hops`]) instead of `D` serialized sends from
//!   the owner; [`DistStats`] reports the modeled NIC time both ways.
//!
//! Wire precisions come from the conversion plan ([`WirePolicy`]):
//!
//! * [`WirePolicy::Ttc`] — ship storage precision: cross-rank payloads are
//!   bit-identical to the owner's tile (storage quantization is the
//!   identity on stored data), so the distributed result equals the
//!   shared-memory result *exactly*.
//! * [`WirePolicy::Auto`] — Algorithm 2's plan: STC tiles ship at the
//!   planned (lower) precision; the FP64 diagonal consumers of those tiles
//!   see slightly degraded panels.
//! * [`WirePolicy::AlwaysLowest`] — the strawman the paper argues against
//!   in §VI ("consistently downgrading to the lowest precision could
//!   further reduce GPU data transfer, but it might also unnecessarily
//!   compromise the accuracy"): every payload ships FP16.
//!
//! The `ext_stc_accuracy` binary quantifies the three against each other;
//! `bench_wire` measures the engine itself.

use crate::conversion::{plan_conversions, wire_of, ConversionPlan, WirePolicy};
use crate::factorize::{
    load_cells, lock_pt, read_pt, run_attempt, single_shot_options, write_back, ExecDag,
    DEFAULT_KERNEL_COSTS,
};
use crate::precision_map::PrecisionMap;
use crate::wire::{
    begin_message, broadcast_hops, broadcast_rounds, framed_tile_bytes, packed_bytes, push_frame,
    seal_message, unpack_message, FrameMeta, Packing, FRAME_HEADER_BYTES, MSG_HEADER_BYTES,
};
use mixedp_fp::comm_of_storage;
use mixedp_gpusim::model::link_time_s;
use mixedp_gpusim::NodeSpec;
use mixedp_kernels::{blas::NotSpd, tile_is_finite, Workspace};
use mixedp_obs as obs;
use mixedp_runtime::{FaultPlan, RetryPolicy, WireFault};
use mixedp_tile::{Grid2d, SymmTileMatrix, Tile};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

/// Communication statistics of a distributed numerical run. Byte counts
/// are *measured buffer lengths* of the packed messages, not arithmetic
/// models.
#[derive(Debug, Clone, Default)]
pub struct DistStats {
    /// Cross-rank messages sent — one per *transmission* over a link
    /// (relay hops of a broadcast tree included), so retransmitted
    /// payloads count every attempt.
    pub messages: u64,
    /// Total framed buffer bytes shipped across ranks (message + frame
    /// headers + packed payloads, including retransmissions).
    pub wire_bytes: u64,
    /// Packed element bytes shipped (framing excluded, retransmissions
    /// included).
    pub payload_bytes: u64,
    /// Tile frames shipped (retransmissions included).
    pub frames: u64,
    /// Logical broadcast events (one per communicated tile version).
    pub broadcasts: u64,
    /// Payload bytes a storage-precision (TTC) wire would have shipped,
    /// counted once per `(tile, destination rank)` — the fault-free
    /// rank-deduplicated baseline.
    pub ttc_bytes: u64,
    /// Framed bytes a per-consumer-task TTC wire would have shipped: every
    /// cross-rank input of every TRSM/SYRK/GEMM fetched as its own
    /// storage-precision message. The naive baseline the engine's dedup +
    /// coalescing is measured against.
    pub consumer_ttc_bytes: u64,
    /// Cross-rank fetches that per-consumer wire would have performed (its
    /// message count).
    pub consumer_fetches: u64,
    /// Modeled NIC seconds if every broadcast were root-serialized
    /// (`D` sends per payload), using the Summit NIC link model.
    pub link_time_flat_s: f64,
    /// Modeled NIC seconds for the binomial trees actually used
    /// (`⌈log₂(D+1)⌉` rounds per payload).
    pub link_time_tree_s: f64,
    /// Payloads the (simulated) wire dropped outright.
    pub dropped: u64,
    /// Payloads delivered garbled and rejected by the receiver's decode +
    /// finite-ness integrity check.
    pub garbled: u64,
    /// Retransmissions performed (`dropped + garbled` that were retried).
    pub retransmits: u64,
    /// Simulated jittered-backoff nanoseconds accumulated before
    /// retransmissions (deterministic; no real sleeping in the model).
    pub backoff_ns: u64,
}

impl DistStats {
    /// Add this run's wire counters to the metrics registry (`wire.*`).
    pub fn publish_metrics(&self) {
        static MESSAGES: obs::LazyCounter = obs::LazyCounter::new("wire.messages");
        static WIRE_BYTES: obs::LazyCounter = obs::LazyCounter::new("wire.bytes");
        static PAYLOAD_BYTES: obs::LazyCounter = obs::LazyCounter::new("wire.payload_bytes");
        static FRAMES: obs::LazyCounter = obs::LazyCounter::new("wire.frames");
        static BROADCASTS: obs::LazyCounter = obs::LazyCounter::new("wire.broadcasts");
        static DROPPED: obs::LazyCounter = obs::LazyCounter::new("wire.dropped");
        static GARBLED: obs::LazyCounter = obs::LazyCounter::new("wire.garbled");
        static RETRANSMITS: obs::LazyCounter = obs::LazyCounter::new("wire.retransmits");
        MESSAGES.add(self.messages);
        WIRE_BYTES.add(self.wire_bytes);
        PAYLOAD_BYTES.add(self.payload_bytes);
        FRAMES.add(self.frames);
        BROADCASTS.add(self.broadcasts);
        DROPPED.add(self.dropped);
        GARBLED.add(self.garbled);
        RETRANSMITS.add(self.retransmits);
    }

    /// The measured data-motion totals in the shape the energy accountant
    /// consumes (conversion volume comes from `FactorStats` when the run
    /// had one; distributed-only runs report wire motion alone).
    pub fn motion_inputs(&self) -> obs::MotionInputs {
        obs::MotionInputs {
            wire_bytes: self.wire_bytes,
            wire_messages: self.messages,
            convert_count: 0,
            convert_bytes: 0,
        }
    }
}

/// Typed failure modes of the fault-tolerant distributed factorization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// POTRF hit a non-positive pivot (same meaning as shared memory).
    NotSpd(NotSpd),
    /// A cross-rank message failed through the whole retransmit budget.
    WireFailed {
        /// Source coordinates of the message's first tile frame.
        i: usize,
        j: usize,
        /// Receiving rank that never got it.
        rank: usize,
        attempts: u32,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::NotSpd(e) => {
                write!(f, "matrix is not positive definite at column {}", e.column)
            }
            DistError::WireFailed {
                i,
                j,
                rank,
                attempts,
            } => write!(
                f,
                "payload of tile ({i},{j}) to rank {rank} failed {attempts} transmission attempt(s)"
            ),
        }
    }
}

impl std::error::Error for DistError {}

/// One tile scheduled for broadcast in the current factorization step.
#[derive(Debug, Clone, Copy)]
struct Bcast {
    i: usize,
    j: usize,
    packing: Packing,
    /// Destination ranks (sorted, owner excluded).
    first_dest: usize, // index into a shared dest arena
    ndests: usize,
}

/// Lower-packed index of tile `(i, j)`.
fn idx(i: usize, j: usize) -> usize {
    i * (i + 1) / 2 + j
}

/// Rank-owned placement of an attempt's tiles on a grid with more than one
/// rank: the owner map, the inbox, and the wire that fills it.
pub(crate) struct Ranks<'a> {
    grid: &'a Grid2d,
    pmap: &'a PrecisionMap,
    plan: ConversionPlan,
    policy: WirePolicy,
    faults: &'a FaultPlan,
    retry: &'a RetryPolicy,
    /// `inbox[tile * nranks + rank]`: `rank`'s received copy of a
    /// lower-packed tile. Only final tiles are communicated (a panel tile
    /// once its TRSM ran, `L_kk` once its POTRF ran), each once, so a slot
    /// is written at most once and never invalidated. A slot is a cell like
    /// the owner's, so a task reads either the same way.
    inbox: Vec<OnceLock<RwLock<Tile>>>,
    log: Mutex<WireLog>,
    halted: AtomicBool,
}

/// What the wire has done so far. Broadcasts run in DAG order —
/// `POTRF(k)` → panel broadcast `k` → `POTRF(k+1)` is a dependency chain —
/// so the message sequence, and with it every fault-site key, is the same
/// whatever the worker count.
#[derive(Default)]
struct WireLog {
    stats: DistStats,
    seq: u64,
    error: Option<DistError>,
}

impl<'a> Ranks<'a> {
    fn new(
        grid: &'a Grid2d,
        pmap: &'a PrecisionMap,
        policy: WirePolicy,
        faults: &'a FaultPlan,
        retry: &'a RetryPolicy,
    ) -> Self {
        let nt = pmap.nt();
        Ranks {
            grid,
            pmap,
            plan: plan_conversions(pmap),
            policy,
            faults,
            retry,
            inbox: (0..nt * (nt + 1) / 2 * grid.nranks())
                .map(|_| OnceLock::new())
                .collect(),
            log: Mutex::new(WireLog::default()),
            halted: AtomicBool::new(false),
        }
    }

    /// The rank owning tile `(i, j)` and running the tasks that write it.
    pub(crate) fn owner(&self, (i, j): (usize, usize)) -> usize {
        self.grid.rank_of(i, j)
    }

    /// `rank`'s received copy of tile `(i, j)`.
    pub(crate) fn received(&self, (i, j): (usize, usize), rank: usize) -> &RwLock<Tile> {
        self.inbox[idx(i, j) * self.grid.nranks() + rank]
            .get()
            .expect("broadcast must have delivered every consumed tile")
    }

    pub(crate) fn halted(&self) -> bool {
        self.halted.load(Ordering::Acquire)
    }

    pub(crate) fn halt(&self) {
        self.halted.store(true, Ordering::Release);
    }

    /// The wire's statistics, or the broadcast failure that halted the run.
    fn finish(self) -> Result<DistStats, DistError> {
        let log = self.log.into_inner().unwrap_or_else(|e| e.into_inner());
        match log.error {
            Some(e) => Err(e),
            None => Ok(log.stats),
        }
    }

    /// Per-consumer-task TTC baseline: what a wire with no rank dedup and
    /// no coalescing would ship for one cross-rank input.
    fn count_consumer_fetch(
        &self,
        stats: &mut DistStats,
        cells: &[RwLock<Tile>],
        i: usize,
        j: usize,
    ) {
        let t = read_pt(&cells[idx(i, j)]);
        let packing = if i == j {
            Packing::Lower
        } else {
            Packing::Full
        };
        let ttc_wire = comm_of_storage(self.pmap.storage(i, j));
        stats.consumer_fetches += 1;
        stats.consumer_ttc_bytes += framed_tile_bytes(t.rows(), t.cols(), ttc_wire, packing) as u64;
    }

    /// Broadcast the factored `L_kk` to the TRSM owners of column `k`.
    pub(crate) fn broadcast_diag(&self, k: usize, cells: &[RwLock<Tile>], ws: &mut Workspace) {
        let nranks = self.grid.nranks();
        let nt = self.pmap.nt();
        let owner = self.owner((k, k));
        let mut log = lock_pt(&self.log);
        let mut need = vec![false; nranks];
        for i in (k + 1)..nt {
            let r = self.owner((i, k));
            if r != owner {
                need[r] = true;
                self.count_consumer_fetch(&mut log.stats, cells, k, k);
            }
        }
        let dests: Vec<usize> = (0..nranks).filter(|&r| need[r]).collect();
        let bcast = [Bcast {
            i: k,
            j: k,
            packing: Packing::Lower,
            first_dest: 0,
            ndests: dests.len(),
        }];
        self.run_broadcasts(&mut log, cells, &bcast, &dests, ws);
    }

    /// Broadcast panel column `k`, coalesced. Destination dedup: tile
    /// `(i,k)` ships once per rank owning any of its SYRK/GEMM consumers,
    /// never per consumer task.
    pub(crate) fn broadcast_panel(&self, k: usize, cells: &[RwLock<Tile>], ws: &mut Workspace) {
        let nranks = self.grid.nranks();
        let nt = self.pmap.nt();
        let mut log = lock_pt(&self.log);
        let mut dest_arena: Vec<usize> = Vec::new();
        let mut bcasts: Vec<Bcast> = Vec::new();
        for i in (k + 1)..nt {
            let owner = self.owner((i, k));
            let mut need = vec![false; nranks];
            let mut mark = |r: usize| {
                if r != owner {
                    need[r] = true;
                }
            };
            mark(self.owner((i, i))); // SYRK(i,k)
            for n in (k + 1)..i {
                mark(self.owner((i, n))); // GEMM(i,n,k) reads (i,k)
            }
            for m in (i + 1)..nt {
                mark(self.owner((m, i))); // GEMM(m,i,k) reads (i,k)
            }
            let first_dest = dest_arena.len();
            dest_arena.extend((0..nranks).filter(|&r| need[r]));
            bcasts.push(Bcast {
                i,
                j: k,
                packing: Packing::Full,
                first_dest,
                ndests: dest_arena.len() - first_dest,
            });
        }
        // Per-consumer baseline of the trailing update's panel reads.
        for m in (k + 1)..nt {
            if self.owner((m, m)) != self.owner((m, k)) {
                self.count_consumer_fetch(&mut log.stats, cells, m, k);
            }
            for n in (k + 1)..m {
                let r = self.owner((m, n));
                if r != self.owner((m, k)) {
                    self.count_consumer_fetch(&mut log.stats, cells, m, k);
                }
                if r != self.owner((n, k)) {
                    self.count_consumer_fetch(&mut log.stats, cells, n, k);
                }
            }
        }
        self.run_broadcasts(&mut log, cells, &bcasts, &dest_arena, ws);
    }

    /// Run the broadcasts of one factorization step: per-tile destination
    /// dedup, binomial tree routing, and link-level coalescing (all frames
    /// crossing the same link ride one message). A message that fails its
    /// whole retransmit budget is logged and halts the attempt.
    fn run_broadcasts(
        &self,
        log: &mut WireLog,
        cells: &[RwLock<Tile>],
        bcasts: &[Bcast],
        dest_arena: &[usize],
        ws: &mut Workspace,
    ) {
        let (pmap, faults, retry) = (self.pmap, self.faults, self.retry);
        let wire = |i: usize, j: usize| wire_of(&self.plan, pmap, self.policy, i, j);
        let tile = |i: usize, j: usize| read_pt(&cells[idx(i, j)]);
        // NIC link model for the flat-vs-tree time accounting.
        let nic = NodeSpec::summit();
        let link = |bytes: u64| link_time_s(bytes, nic.nic_gbs, nic.nic_latency_s);
        let stats = &mut log.stats;

        // Bucket hops by link; BTreeMap iteration keeps the transmission
        // order (and thus the fault history) deterministic.
        let mut links: BTreeMap<(usize, usize), Vec<&Bcast>> = BTreeMap::new();
        for b in bcasts {
            let dests = &dest_arena[b.first_dest..b.first_dest + b.ndests];
            if dests.is_empty() {
                continue;
            }
            let t = tile(b.i, b.j);
            let w = wire(b.i, b.j);
            stats.broadcasts += 1;
            // Rank-deduplicated TTC baseline: storage-precision payload,
            // same packing, once per destination rank.
            let ttc_wire = comm_of_storage(pmap.storage(b.i, b.j));
            stats.ttc_bytes +=
                (packed_bytes(t.rows(), t.cols(), ttc_wire, b.packing) * dests.len()) as u64;
            // Modeled NIC time for this payload, flat vs tree.
            let fb = framed_tile_bytes(t.rows(), t.cols(), w, b.packing) as u64;
            stats.link_time_flat_s += dests.len() as f64 * link(fb);
            stats.link_time_tree_s += broadcast_rounds(dests.len() + 1) as f64 * link(fb);
            for hop in broadcast_hops(self.owner((b.i, b.j)), dests) {
                links.entry((hop.from, hop.to)).or_default().push(b);
            }
        }
        for ((from, to), frames) in links {
            // Pack every frame crossing this link into one coalesced
            // message, straight from the tile buffers (fused
            // convert-and-pack), in the worker's reusable byte scratch.
            let mut payload = 0u64;
            let buf: &[u8] = ws.wire.load(|v| {
                begin_message(v);
                for b in &frames {
                    let t = tile(b.i, b.j);
                    let w = wire(b.i, b.j);
                    payload += packed_bytes(t.rows(), t.cols(), w, b.packing) as u64;
                    push_frame(v, b.i, b.j, &t, w, b.packing);
                }
                seal_message(v);
            });
            let first_elem_bytes = wire(frames[0].i, frames[0].j).bytes();

            // Receiver side: typed decode + finite-ness integrity check;
            // only a fully valid message is accepted into the inbox.
            let deliver = |bytes: &[u8]| -> Result<Vec<(FrameMeta, Tile)>, ()> {
                let decoded = unpack_message(bytes, |i, j| tile(i, j).storage()).map_err(|_| ())?;
                if decoded.iter().all(|(_, t)| tile_is_finite(t)) {
                    Ok(decoded)
                } else {
                    Err(())
                }
            };

            let site = (log.seq << 16) | ((to as u64) << 8) | from as u64;
            log.seq += 1;
            let mut attempt = 0u32;
            let received = loop {
                attempt += 1;
                stats.messages += 1;
                stats.wire_bytes += buf.len() as u64;
                stats.payload_bytes += payload;
                stats.frames += frames.len() as u64;
                obs::instant(obs::EventKind::WireSend, buf.len() as u64);
                let accepted = match faults.inject_wire(site, attempt) {
                    Some(WireFault::Drop) => {
                        stats.dropped += 1;
                        None
                    }
                    Some(WireFault::Garble) => {
                        // Damaged in flight: poison the first payload
                        // element (all-ones bit pattern decodes to NaN in
                        // every wire format) and let the receiver's
                        // integrity check reject it.
                        let mut bad = buf.to_vec();
                        let off = MSG_HEADER_BYTES + FRAME_HEADER_BYTES;
                        for b in &mut bad[off..off + first_elem_bytes] {
                            *b = 0xFF;
                        }
                        match deliver(&bad) {
                            Ok(_) => unreachable!("poisoned payload must fail integrity"),
                            Err(()) => {
                                stats.garbled += 1;
                                None
                            }
                        }
                    }
                    None => match deliver(buf) {
                        Ok(decoded) => Some(decoded),
                        Err(()) => {
                            stats.garbled += 1;
                            None
                        }
                    },
                };
                if let Some(decoded) = accepted {
                    break Some(decoded);
                }
                if attempt >= retry.max_attempts {
                    break None;
                }
                stats.retransmits += 1;
                stats.backoff_ns += retry.backoff_ns(faults, site, attempt);
            };
            let Some(decoded) = received else {
                log.error = Some(DistError::WireFailed {
                    i: frames[0].i,
                    j: frames[0].j,
                    rank: to,
                    attempts: attempt,
                });
                self.halt();
                return;
            };
            for (meta, t) in decoded {
                let slot = &self.inbox[idx(meta.i, meta.j) * self.grid.nranks() + to];
                assert!(slot.set(RwLock::new(t)).is_ok(), "tile received twice");
            }
        }
    }
}

/// Distributed mixed-precision factorization over `grid`: the shared
/// engine's scheduler and kernels, one worker per rank (capped at the
/// host's parallelism), with cross-rank reads wire-quantized per `policy`.
///
/// Thin fault-free wrapper over [`factorize_mp_distributed_ft`].
pub fn factorize_mp_distributed(
    a: &mut SymmTileMatrix,
    pmap: &PrecisionMap,
    grid: &Grid2d,
    policy: WirePolicy,
) -> Result<DistStats, NotSpd> {
    match factorize_mp_distributed_ft(
        a,
        pmap,
        grid,
        policy,
        &FaultPlan::none(),
        &RetryPolicy::no_retry(),
    ) {
        Ok(s) => Ok(s),
        Err(DistError::NotSpd(e)) => Err(e),
        Err(e @ DistError::WireFailed { .. }) => {
            unreachable!("a fault-free wire cannot fail: {e}")
        }
    }
}

/// [`factorize_mp_distributed`] with simulated wire faults and bounded
/// retransmission.
///
/// Every link transmission (tree hops included) is probed against `faults`
/// (deterministically, from the message sequence number and the link's
/// endpoint ranks, plus the attempt number):
///
/// * [`WireFault::Drop`] — the message never arrives; the receiver waits a
///   jittered exponential backoff (accounted in [`DistStats::backoff_ns`],
///   never actually slept — this is a simulation) and requests a
///   retransmit.
/// * [`WireFault::Garble`] — the message arrives corrupted; the receiver's
///   integrity check (typed wire decode + [`tile_is_finite`] on every
///   frame) rejects it and requests a retransmit.
///
/// Each retransmission is a real message (counted in `messages` /
/// `wire_bytes`), so fault recovery shows up as communication overhead.
/// When a message fails `retry.max_attempts` consecutive transmissions the
/// run aborts with [`DistError::WireFailed`] naming the payload and the
/// starved rank. Because rate faults hash the attempt number, retransmits
/// of a dropped message usually succeed — and a recovered run's numerical
/// result is **bit-identical** to the fault-free run, since retransmission
/// resends the same deterministic packed payload.
///
/// On any error `a` is left untouched.
pub fn factorize_mp_distributed_ft(
    a: &mut SymmTileMatrix,
    pmap: &PrecisionMap,
    grid: &Grid2d,
    policy: WirePolicy,
    faults: &FaultPlan,
    retry: &RetryPolicy,
) -> Result<DistStats, DistError> {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = grid.nranks().min(host);
    factorize_on_grid(a, pmap, grid, policy, faults, retry, workers)
}

/// [`factorize_mp_distributed_ft`] on `workers` scheduler workers.
fn factorize_on_grid(
    a: &mut SymmTileMatrix,
    pmap: &PrecisionMap,
    grid: &Grid2d,
    policy: WirePolicy,
    faults: &FaultPlan,
    retry: &RetryPolicy,
    workers: usize,
) -> Result<DistStats, DistError> {
    let nt = a.nt();
    assert_eq!(pmap.nt(), nt);
    // One rank is shared memory: no broadcast nodes, no inbox.
    let ranks = (grid.nranks() > 1).then(|| Ranks::new(grid, pmap, policy, faults, retry));
    let dag = ExecDag::build(nt, &DEFAULT_KERNEL_COSTS, ranks.is_some());
    let cells = load_cells(a, pmap, false);
    let out = run_attempt(
        &cells,
        &dag,
        pmap,
        &single_shot_options(workers),
        1,
        None,
        ranks.as_ref(),
    )
    .unwrap_or_else(|e| panic!("worker panicked during factorization: {e}"));
    let stats = ranks.map_or(Ok(DistStats::default()), Ranks::finish)?;
    if let Some((id, _)) = out.first_failure() {
        let (k, _) = dag.task(id).expect("only kernels break down").output_tile();
        return Err(DistError::NotSpd(NotSpd { column: k * a.nb() }));
    }
    write_back(a, cells, pmap);
    stats.publish_metrics();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factorize::factorize_mp;
    use crate::precision_map::uniform_map;
    use mixedp_fp::{Precision, StoragePrecision};
    use mixedp_kernels::reconstruction_error;
    use mixedp_tile::tile_fro_norms;

    fn spd_matrix(n: usize, nb: usize) -> SymmTileMatrix {
        SymmTileMatrix::from_fn(
            n,
            nb,
            |i, j| {
                let d = (i as f64 - j as f64).abs();
                (-0.1 * d).exp() + if i == j { 0.6 } else { 0.0 }
            },
            |_, _| StoragePrecision::F64,
        )
    }

    #[test]
    fn single_rank_matches_shared_memory_exactly() {
        let a0 = spd_matrix(64, 16);
        let m = uniform_map(a0.nt(), Precision::Fp16x32);
        let mut shared = a0.clone();
        factorize_mp(&mut shared, &m, 1).unwrap();
        let mut dist = a0.clone();
        let stats =
            factorize_mp_distributed(&mut dist, &m, &Grid2d::new(1, 1), WirePolicy::Auto).unwrap();
        assert_eq!(stats.messages, 0, "single rank sends nothing");
        assert_eq!(stats.wire_bytes, 0);
        for i in 0..64 {
            for j in 0..=i {
                assert_eq!(shared.get(i, j), dist.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn ttc_wire_is_lossless() {
        // storage-precision payloads are bit-identical to the owner's tile,
        // so distributed-TTC ≡ shared-memory on any grid
        let a0 = spd_matrix(80, 16);
        let m = uniform_map(a0.nt(), Precision::Fp16);
        let mut shared = a0.clone();
        factorize_mp(&mut shared, &m, 1).unwrap();
        let mut dist = a0.clone();
        let stats =
            factorize_mp_distributed(&mut dist, &m, &Grid2d::new(2, 3), WirePolicy::Ttc).unwrap();
        assert!(stats.messages > 0);
        // under TTC the packed payloads are exactly the rank-deduplicated
        // storage-precision baseline; framing is the only overhead
        assert_eq!(stats.payload_bytes, stats.ttc_bytes);
        assert!(stats.wire_bytes > stats.payload_bytes, "framing is real");
        for i in 0..80 {
            for j in 0..=i {
                assert_eq!(shared.get(i, j), dist.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn auto_ships_fewer_bytes_with_bounded_accuracy_cost() {
        let a0 = spd_matrix(96, 16);
        let dense = a0.to_dense_symmetric();
        let norms = tile_fro_norms(&a0);
        let m = PrecisionMap::from_norms(&norms, 1e-6, &Precision::ADAPTIVE_SET);
        let grid = Grid2d::new(2, 2);

        let run = |policy: WirePolicy| {
            let mut a = a0.clone();
            let s = factorize_mp_distributed(&mut a, &m, &grid, policy).unwrap();
            (reconstruction_error(&dense, &a.to_dense_lower()), s)
        };
        let (err_ttc, s_ttc) = run(WirePolicy::Ttc);
        let (err_auto, s_auto) = run(WirePolicy::Auto);
        let (err_low, s_low) = run(WirePolicy::AlwaysLowest);

        // bytes: lowest ≤ auto ≤ ttc
        assert!(s_auto.wire_bytes <= s_ttc.wire_bytes);
        assert!(s_low.wire_bytes <= s_auto.wire_bytes);
        // accuracy: auto stays within a small factor of TTC...
        assert!(
            err_auto <= err_ttc * 10.0 + 1e-12,
            "auto {err_auto:e} vs ttc {err_ttc:e}"
        );
        // ...while the always-lowest strawman is measurably worse than auto
        assert!(
            err_low >= err_auto,
            "always-lowest {err_low:e} should not beat auto {err_auto:e}"
        );
    }

    #[test]
    fn always_lowest_degrades_fp64_configuration_badly() {
        // under a full-FP64 map, AUTO ships (nearly) full precision, but
        // AlwaysLowest crushes every payload to FP16 — the §VI warning.
        let a0 = spd_matrix(64, 16);
        let dense = a0.to_dense_symmetric();
        let m = uniform_map(a0.nt(), Precision::Fp64);
        let grid = Grid2d::new(2, 2);
        let run = |policy: WirePolicy| {
            let mut a = a0.clone();
            factorize_mp_distributed(&mut a, &m, &grid, policy).unwrap();
            reconstruction_error(&dense, &a.to_dense_lower())
        };
        let err_auto = run(WirePolicy::Auto);
        let err_low = run(WirePolicy::AlwaysLowest);
        assert!(err_auto < 1e-10, "auto on FP64 map: {err_auto:e}");
        assert!(
            err_low > err_auto * 100.0,
            "always-lowest must be much worse: {err_low:e} vs {err_auto:e}"
        );
    }

    #[test]
    fn coalesced_auto_cuts_bytes_vs_per_consumer_ttc() {
        // The engine's headline: rank dedup + STC narrowing + coalescing
        // put the measured (framed) wire bytes of the automated plan far
        // below the per-consumer-task TTC baseline, with far fewer
        // messages — at the acceptance scale (nt = 16, 2×2 grid).
        let a0 = spd_matrix(16 * 8, 8);
        assert_eq!(a0.nt(), 16);
        let m = uniform_map(16, Precision::Fp16x32);
        let grid = Grid2d::new(2, 2);
        let mut a = a0.clone();
        let s = factorize_mp_distributed(&mut a, &m, &grid, WirePolicy::Auto).unwrap();
        assert!(
            (s.wire_bytes as f64) <= 0.7 * s.consumer_ttc_bytes as f64,
            "measured {} vs per-consumer baseline {}",
            s.wire_bytes,
            s.consumer_ttc_bytes
        );
        assert!(
            s.messages < s.consumer_fetches,
            "coalescing must cut messages: {} vs {}",
            s.messages,
            s.consumer_fetches
        );
        // on 4 ranks a destination set has ≤ 3 ranks, so the tree can only
        // tie flat sends; the strict win needs wider grids (below)
        assert!(s.link_time_tree_s <= s.link_time_flat_s);
        assert!(s.frames >= s.broadcasts, "a broadcast ships ≥ 1 frame");

        // wider grid: destination sets reach 5–7 ranks, where ⌈log₂(D+1)⌉
        // rounds strictly beat D root-serialized sends
        let mut a8 = a0.clone();
        let s8 =
            factorize_mp_distributed(&mut a8, &m, &Grid2d::new(2, 4), WirePolicy::Auto).unwrap();
        assert!(
            s8.link_time_tree_s < s8.link_time_flat_s,
            "tree broadcasts must beat root-serialized sends on 8 ranks: {} vs {}",
            s8.link_time_tree_s,
            s8.link_time_flat_s
        );
    }

    #[test]
    fn wire_faults_recovered_by_retransmit_are_invisible_in_the_result() {
        // Drops and garbles force retransmissions, but a retransmitted
        // message is the same deterministic packed payload — so the factor
        // matches the fault-free run bit for bit, and the faults show up
        // only as communication overhead in the stats.
        let a0 = spd_matrix(80, 16);
        let m = uniform_map(a0.nt(), Precision::Fp32);
        let grid = Grid2d::new(2, 3);

        let mut clean = a0.clone();
        let s_clean = factorize_mp_distributed(&mut clean, &m, &grid, WirePolicy::Ttc).unwrap();

        let faults = FaultPlan::seeded(42)
            .with_wire_drop_rate(0.25)
            .with_wire_garble_rate(0.15);
        let retry = RetryPolicy::default()
            .with_max_attempts(10)
            .with_backoff_base_ns(1_000);
        let mut faulty = a0.clone();
        let s =
            factorize_mp_distributed_ft(&mut faulty, &m, &grid, WirePolicy::Ttc, &faults, &retry)
                .unwrap();

        assert!(s.dropped > 0, "plan must actually drop payloads");
        assert!(s.garbled > 0, "plan must actually garble payloads");
        assert_eq!(s.retransmits, s.dropped + s.garbled, "every fault retried");
        assert!(s.backoff_ns > 0, "retransmits accrue simulated backoff");
        assert!(
            s.messages > s_clean.messages && s.wire_bytes > s_clean.wire_bytes,
            "retransmissions are real traffic"
        );
        assert_eq!(
            s.ttc_bytes, s_clean.ttc_bytes,
            "baseline counts logical payloads"
        );
        assert_eq!(
            s.consumer_ttc_bytes, s_clean.consumer_ttc_bytes,
            "per-consumer baseline is fault-independent"
        );
        for i in 0..80 {
            for j in 0..=i {
                assert_eq!(clean.get(i, j), faulty.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn wire_fault_stats_replay_exactly_from_the_seed() {
        let a0 = spd_matrix(64, 16);
        let m = uniform_map(a0.nt(), Precision::Fp32);
        let grid = Grid2d::new(2, 2);
        let retry = RetryPolicy::default()
            .with_max_attempts(8)
            .with_backoff_base_ns(500);
        let run = |seed: u64| {
            let faults = FaultPlan::seeded(seed).with_wire_drop_rate(0.3);
            let mut a = a0.clone();
            let s =
                factorize_mp_distributed_ft(&mut a, &m, &grid, WirePolicy::Ttc, &faults, &retry)
                    .unwrap();
            (s.messages, s.dropped, s.retransmits, s.backoff_ns)
        };
        assert_eq!(run(7), run(7), "same seed, same fault history");
        assert_ne!(run(7), run(8), "different seed, different fault history");
    }

    #[test]
    fn exhausted_retransmit_budget_is_a_typed_error() {
        // Drop rate 1.0: every transmission of every message is lost, so
        // the first cross-rank broadcast burns its whole budget and the run
        // reports which payload starved which rank — instead of hanging or
        // factoring garbage.
        let a0 = spd_matrix(64, 16);
        let m = uniform_map(a0.nt(), Precision::Fp32);
        let faults = FaultPlan::seeded(1).with_wire_drop_rate(1.0);
        let retry = RetryPolicy::default().with_max_attempts(3);
        let mut a = a0.clone();
        let err = factorize_mp_distributed_ft(
            &mut a,
            &m,
            &Grid2d::new(2, 2),
            WirePolicy::Ttc,
            &faults,
            &retry,
        )
        .unwrap_err();
        match err {
            DistError::WireFailed { attempts, .. } => assert_eq!(attempts, 3),
            e => panic!("expected WireFailed, got {e:?}"),
        }
        let msg = format!("{err}");
        assert!(msg.contains("transmission attempt"), "{msg}");
    }

    #[test]
    fn grid_shape_does_not_change_ttc_result() {
        let a0 = spd_matrix(60, 12);
        let m = uniform_map(a0.nt(), Precision::Fp32);
        let mut r1 = a0.clone();
        factorize_mp_distributed(&mut r1, &m, &Grid2d::new(1, 4), WirePolicy::Ttc).unwrap();
        let mut r2 = a0.clone();
        factorize_mp_distributed(&mut r2, &m, &Grid2d::new(2, 2), WirePolicy::Ttc).unwrap();
        for i in 0..60 {
            for j in 0..=i {
                assert_eq!(r1.get(i, j), r2.get(i, j));
            }
        }
    }

    /// Every `get(i, j)` of the lower triangle, as raw bits.
    fn bits(a: &SymmTileMatrix) -> Vec<u64> {
        (0..a.n())
            .flat_map(|i| (0..=i).map(move |j| (i, j)))
            .map(|(i, j)| a.get(i, j).to_bits())
            .collect()
    }

    /// The deterministic part of `DistStats` (everything but the modeled
    /// float link times, which follow from the same counts).
    fn counters(s: &DistStats) -> [u64; 12] {
        [
            s.messages,
            s.wire_bytes,
            s.payload_bytes,
            s.frames,
            s.broadcasts,
            s.ttc_bytes,
            s.consumer_ttc_bytes,
            s.consumer_fetches,
            s.dropped,
            s.garbled,
            s.retransmits,
            s.backoff_ns,
        ]
    }

    #[test]
    fn worker_count_changes_neither_factor_nor_wire() {
        // The wire events form a dependency chain (POTRF(k) → panel
        // broadcast k → POTRF(k+1)), so message order and fault sites are
        // the same on 1 and 4 workers — with and without faults.
        let a0 = spd_matrix(96, 16);
        let norms = tile_fro_norms(&a0);
        let m = PrecisionMap::from_norms(&norms, 1e-6, &Precision::ADAPTIVE_SET);
        let grid = Grid2d::new(2, 2);
        let retry = RetryPolicy::default()
            .with_max_attempts(10)
            .with_backoff_base_ns(1_000);
        let faulty = FaultPlan::seeded(42)
            .with_wire_drop_rate(0.25)
            .with_wire_garble_rate(0.15);
        for policy in [WirePolicy::Ttc, WirePolicy::Auto, WirePolicy::AlwaysLowest] {
            for faults in [FaultPlan::none(), faulty.clone()] {
                let run = |workers: usize| {
                    let mut a = a0.clone();
                    let s = factorize_on_grid(&mut a, &m, &grid, policy, &faults, &retry, workers)
                        .unwrap();
                    (bits(&a), counters(&s), s.link_time_tree_s.to_bits())
                };
                let one = run(1);
                assert!(one.1[0] > 0, "{policy:?}: the grid must communicate");
                assert_eq!(one.1[8] > 0, !faults.is_noop(), "faults must drop messages");
                assert_eq!(one, run(4), "{policy:?} faults={}", !faults.is_noop());
            }
        }
    }

    #[test]
    fn exhausted_retransmit_leaves_the_matrix_untouched() {
        // A broadcast that fails mid-factorization halts the attempt on
        // every worker count: a typed error, no worker panic, and the
        // caller's tiles exactly as they were.
        let a0 = spd_matrix(64, 16);
        let m = uniform_map(a0.nt(), Precision::Fp32);
        let faults = FaultPlan::seeded(3).with_wire_drop_rate(0.6);
        let retry = RetryPolicy::default().with_max_attempts(2);
        let grid = Grid2d::new(2, 2);
        for workers in [1, 4] {
            let mut a = a0.clone();
            let err =
                factorize_on_grid(&mut a, &m, &grid, WirePolicy::Ttc, &faults, &retry, workers)
                    .unwrap_err();
            assert!(
                matches!(err, DistError::WireFailed { attempts: 2, .. }),
                "{err:?}"
            );
            assert_eq!(bits(&a), bits(&a0), "{workers} worker(s)");
        }
    }

    #[test]
    fn not_spd_is_typed_on_a_grid() {
        let a0 = SymmTileMatrix::from_fn(
            64,
            16,
            |i, j| {
                if i == j {
                    1.0 - (i / 40) as f64 * 2.0
                } else {
                    0.0
                }
            },
            |_, _| StoragePrecision::F64,
        );
        let m = uniform_map(a0.nt(), Precision::Fp64);
        let mut a = a0.clone();
        let err =
            factorize_mp_distributed(&mut a, &m, &Grid2d::new(2, 2), WirePolicy::Auto).unwrap_err();
        assert_eq!(err.column, 32, "first breakdown is POTRF(2,2)");
        assert_eq!(bits(&a), bits(&a0));
    }
}
