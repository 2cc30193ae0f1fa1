//! Packed-wire engine snapshot: emits `BENCH_wire.json`.
//!
//! Two sections:
//!
//! * **pack/unpack throughput** — fused convert-and-pack GB/s per wire
//!   precision (F64 source tiles), plus the receiver-side fused unpack, and
//!   the fused vs two-pass quantization ratio.
//! * **data motion** — `factorize` at nt ∈ {8, 16} on
//!   1×1 / 2×2 / 2×4 grids under TTC and Auto wiring: measured wire bytes
//!   (framed buffer lengths), packed payload bytes, message/frame counts,
//!   the per-consumer-task TTC baseline, and the modeled NIC time for flat
//!   vs binomial-tree broadcasts.
//!
//! The headline (acceptance) number: at nt=16 on a 2×2 grid, the coalesced
//! Auto plan's measured wire bytes vs the per-consumer TTC baseline — and a
//! bit-identity check of distributed-TTC against the shared-memory
//! factorization.
//!
//! Run: `cargo run --release -p mixedp-bench --bin bench_wire`
//! Options: `--nb=32 --reps=5 --out=BENCH_wire.json`

use mixedp_bench::timing::{median_secs, pseudo};
use mixedp_bench::Args;
use mixedp_core::wire::{
    pack_tile_into, packed_bytes, quantize_through_wire, reference_through_wire, unpack_tile,
    FrameMeta, Packing,
};
use mixedp_core::{factorize, uniform_map, DistStats, FactorOptions, WirePolicy};
use mixedp_fp::{CommPrecision, Precision, StoragePrecision};
use mixedp_obs as obs;
use mixedp_tile::{Grid2d, SymmTileMatrix, Tile};

/// A fault-free single attempt on `grid`, one worker per rank.
fn on_grid(grid: Grid2d, wire: WirePolicy) -> FactorOptions {
    FactorOptions {
        grid,
        wire,
        ..FactorOptions::single_shot(grid.nranks())
    }
}

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

struct PackRow {
    wire: &'static str,
    pack_gbs: f64,
    unpack_gbs: f64,
    fused_gelems: f64,
    two_pass_gelems: f64,
}

struct MotionRow {
    nt: usize,
    grid: &'static str,
    policy: &'static str,
    stats: DistStats,
}

fn main() {
    let args = Args::parse();
    let nb = args.get_usize("nb", 32);
    let reps = args.get_usize("reps", 5);
    let out = args.get_str("out", "BENCH_wire.json");

    // ---- pack/unpack throughput (256x256 F64 source tile) ----------------
    let pn = 256usize;
    let src = Tile::from_f64(pn, pn, &pseudo(pn * pn, 7), StoragePrecision::F64);
    let elems = (pn * pn) as f64;
    let wires = [
        ("fp16", CommPrecision::Fp16),
        ("fp32", CommPrecision::Fp32),
        ("fp64", CommPrecision::Fp64),
    ];
    let mut pack_rows: Vec<PackRow> = Vec::new();
    for (name, wire) in wires {
        let pbytes = packed_bytes(pn, pn, wire, Packing::Full);
        // moved bytes per pass: source read + packed write (what the copy
        // engine on a real node would stream)
        let moved = (src.bytes() + pbytes) as f64;
        let mut buf = Vec::with_capacity(pbytes);
        let t_pack = median_secs(reps, || {
            buf.clear();
            pack_tile_into(&src, wire, Packing::Full, &mut buf);
        });
        let meta = FrameMeta {
            i: 0,
            j: 0,
            rows: pn,
            cols: pn,
            wire,
            packing: Packing::Full,
        };
        let mut sink = Tile::zeros(1, 1, StoragePrecision::F64);
        let t_unpack = median_secs(reps, || {
            sink = unpack_tile(&buf, &meta, StoragePrecision::F64).unwrap();
        });
        let t_fused = median_secs(reps, || {
            sink = quantize_through_wire(&src, wire);
        });
        let t_two = median_secs(reps, || {
            sink = reference_through_wire(&src, wire);
        });
        let row = PackRow {
            wire: name,
            pack_gbs: moved / t_pack / 1e9,
            unpack_gbs: moved / t_unpack / 1e9,
            fused_gelems: elems / t_fused / 1e9,
            two_pass_gelems: elems / t_two / 1e9,
        };
        println!(
            "pack {name}: {:.2} GB/s pack, {:.2} GB/s unpack, quantize fused {:.2} vs two-pass {:.2} Gelem/s",
            row.pack_gbs, row.unpack_gbs, row.fused_gelems, row.two_pass_gelems
        );
        pack_rows.push(row);
    }

    // ---- telemetry on/off pack delta --------------------------------------
    // `pack_tile_into` carries two always-on registry counters plus a span
    // that costs one relaxed load while telemetry is disabled and one ring
    // store while enabled. Re-time the fp32 pack in both states so the
    // instrumentation cost is tracked in the JSON.
    let tele_pbytes = packed_bytes(pn, pn, CommPrecision::Fp32, Packing::Full);
    let tele_moved = (src.bytes() + tele_pbytes) as f64;
    let mut tele_buf = Vec::with_capacity(tele_pbytes);
    let t_off = median_secs(reps, || {
        tele_buf.clear();
        pack_tile_into(&src, CommPrecision::Fp32, Packing::Full, &mut tele_buf);
    });
    obs::set_enabled(true);
    let t_on = median_secs(reps, || {
        tele_buf.clear();
        pack_tile_into(&src, CommPrecision::Fp32, Packing::Full, &mut tele_buf);
    });
    obs::set_enabled(false);
    obs::reset_rings();
    let tele_pct = 100.0 * (t_on - t_off) / t_off;
    println!(
        "telemetry on/off: fp32 pack {:.2} -> {:.2} GB/s ({tele_pct:+.2}%)",
        tele_moved / t_off / 1e9,
        tele_moved / t_on / 1e9
    );

    // ---- data motion ------------------------------------------------------
    let grids = [("1x1", 1usize, 1usize), ("2x2", 2, 2), ("2x4", 2, 4)];
    let policies = [("ttc", WirePolicy::Ttc), ("auto", WirePolicy::Auto)];
    let mut motion: Vec<MotionRow> = Vec::new();
    for nt in [8usize, 16] {
        let a0 = spd_matrix(nt * nb, nb);
        let m = uniform_map(nt, Precision::Fp16x32);
        for (gname, p, q) in grids {
            let grid = Grid2d::new(p, q);
            for (pname, policy) in policies {
                let mut a = a0.clone();
                let stats = *factorize(&mut a, &m, &on_grid(grid, policy))
                    .expect("spd test matrix must factor")
                    .wire
                    .unwrap_or_default();
                println!(
                    "nt={nt} grid={gname} {pname}: {} msgs, {} wire bytes, {} consumer-ttc bytes, link flat {:.3e}s tree {:.3e}s",
                    stats.messages,
                    stats.wire_bytes,
                    stats.consumer_ttc_bytes,
                    stats.link_time_flat_s,
                    stats.link_time_tree_s
                );
                motion.push(MotionRow {
                    nt,
                    grid: gname,
                    policy: pname,
                    stats,
                });
            }
        }
    }

    // ---- headline: nt=16 on 2x2, Auto vs per-consumer TTC -----------------
    let head = motion
        .iter()
        .find(|r| r.nt == 16 && r.grid == "2x2" && r.policy == "auto")
        .unwrap();
    let reduction = 1.0 - head.stats.wire_bytes as f64 / head.stats.consumer_ttc_bytes as f64;
    let msg_reduction = 1.0 - head.stats.messages as f64 / head.stats.consumer_fetches as f64;

    // Bit-identity of distributed TTC against shared memory, same config.
    let a0 = spd_matrix(16 * nb, nb);
    let m = uniform_map(16, Precision::Fp16x32);
    let mut shared = a0.clone();
    factorize(&mut shared, &m, &FactorOptions::single_shot(1))
        .expect("shared-memory factorization");
    let mut dist = a0.clone();
    factorize(&mut dist, &m, &on_grid(Grid2d::new(2, 2), WirePolicy::Ttc))
        .expect("distributed factorization");
    let n = 16 * nb;
    let mut bit_identical = true;
    for i in 0..n {
        for j in 0..=i {
            if shared.get(i, j).to_bits() != dist.get(i, j).to_bits() {
                bit_identical = false;
            }
        }
    }

    println!(
        "headline: auto wire bytes {:.1}% below per-consumer TTC baseline",
        reduction * 100.0
    );
    println!(
        "headline: messages {:.1}% below per-consumer fetch count",
        msg_reduction * 100.0
    );
    println!("headline: distributed TTC bit-identical to shared memory: {bit_identical}");
    assert!(
        reduction >= 0.30,
        "acceptance: coalesced Auto must ship >= 30% fewer bytes than per-consumer TTC (got {:.1}%)",
        reduction * 100.0
    );
    assert!(
        bit_identical,
        "acceptance: TTC wiring must be bit-identical"
    );

    // ---- JSON -------------------------------------------------------------
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"nb\": {nb},\n  \"reps\": {reps},\n"));
    json.push_str("  \"pack_throughput\": {\n");
    for (i, r) in pack_rows.iter().enumerate() {
        let comma = if i + 1 == pack_rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{}\": {{\"pack_gbs\": {:.3}, \"unpack_gbs\": {:.3}, \"quantize_fused_gelems\": {:.3}, \"quantize_two_pass_gelems\": {:.3}}}{}\n",
            r.wire, r.pack_gbs, r.unpack_gbs, r.fused_gelems, r.two_pass_gelems, comma
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"telemetry\": {{\"pack_fp32_gbs_off\": {:.3}, \"pack_fp32_gbs_on\": {:.3}, \"pack_pct\": {tele_pct:.2}}},\n",
        tele_moved / t_off / 1e9,
        tele_moved / t_on / 1e9
    ));
    json.push_str("  \"data_motion\": [\n");
    for (i, r) in motion.iter().enumerate() {
        let comma = if i + 1 == motion.len() { "" } else { "," };
        let s = &r.stats;
        json.push_str(&format!(
            "    {{\"nt\": {}, \"grid\": \"{}\", \"policy\": \"{}\", \"messages\": {}, \"frames\": {}, \"broadcasts\": {}, \"wire_bytes\": {}, \"payload_bytes\": {}, \"ttc_bytes\": {}, \"consumer_ttc_bytes\": {}, \"consumer_fetches\": {}, \"link_time_flat_s\": {:.6e}, \"link_time_tree_s\": {:.6e}}}{}\n",
            r.nt, r.grid, r.policy, s.messages, s.frames, s.broadcasts, s.wire_bytes,
            s.payload_bytes, s.ttc_bytes, s.consumer_ttc_bytes, s.consumer_fetches,
            s.link_time_flat_s, s.link_time_tree_s, comma
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"headline\": {\n");
    json.push_str(&format!(
        "    \"nt\": 16, \"grid\": \"2x2\", \"policy\": \"auto\",\n    \"wire_bytes\": {},\n    \"consumer_ttc_bytes\": {},\n    \"reduction_vs_consumer_ttc\": {:.4},\n    \"message_reduction_vs_consumer_fetches\": {:.4},\n    \"ttc_bit_identical_to_shared_memory\": {}\n",
        head.stats.wire_bytes, head.stats.consumer_ttc_bytes, reduction, msg_reduction, bit_identical
    ));
    json.push_str("  }\n}\n");
    std::fs::write(&out, json).expect("write BENCH_wire.json");
    println!("wrote {out}");
}
