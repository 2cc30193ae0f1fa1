//! Pins the distributed factorization's observable behaviour: the exact
//! `DistStats` data-motion counters committed in `BENCH_wire.json`, and
//! the exact factor bits of lossy-wire runs. Any refactor of the
//! distributed executor must reproduce both unchanged.

use mixedp_core::{factorize_mp_distributed, uniform_map, DistStats, WirePolicy};
use mixedp_fp::{Precision, StoragePrecision};
use mixedp_tile::{Grid2d, SymmTileMatrix};

/// `bench_wire`'s data-motion matrix (tile size `--nb=32`).
const NB: usize = 32;

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

fn run(nt: usize, grid: &Grid2d, policy: WirePolicy) -> (SymmTileMatrix, DistStats) {
    let mut a = spd_matrix(nt * NB, NB);
    let m = uniform_map(nt, Precision::Fp16x32);
    let stats = factorize_mp_distributed(&mut a, &m, grid, policy).expect("SPD matrix");
    (a, stats)
}

/// The integer counters of one `BENCH_wire.json` `data_motion` row.
fn counters(s: &DistStats) -> [u64; 8] {
    [
        s.messages,
        s.frames,
        s.broadcasts,
        s.wire_bytes,
        s.payload_bytes,
        s.ttc_bytes,
        s.consumer_ttc_bytes,
        s.consumer_fetches,
    ]
}

/// (nt, grid, policy, [messages, frames, broadcasts, wire_bytes,
/// payload_bytes, ttc_bytes, consumer_ttc_bytes, consumer_fetches])
type Row = (usize, (usize, usize), WirePolicy, [u64; 8]);

#[test]
fn data_motion_counters_match_bench_wire() {
    #[rustfmt::skip]
    let rows: [Row; 8] = [
        (8, (2, 2), WirePolicy::Ttc, [31, 56, 35, 232112, 230272, 230272, 473552, 114]),
        (8, (2, 2), WirePolicy::Auto, [31, 56, 35, 119024, 117184, 230272, 473552, 114]),
        (8, (2, 4), WirePolicy::Ttc, [67, 92, 35, 381008, 377728, 377728, 597632, 144]),
        (8, (2, 4), WirePolicy::Auto, [67, 92, 35, 194192, 190912, 377728, 597632, 144]),
        (16, (2, 2), WirePolicy::Ttc, [71, 240, 135, 991856, 984960, 984960, 3664416, 884]),
        (16, (2, 2), WirePolicy::Auto, [71, 240, 135, 501424, 494528, 984960, 3664416, 884]),
        (16, (2, 4), WirePolicy::Ttc, [183, 436, 135, 1801168, 1787776, 1787776, 4706688, 1136]),
        (16, (2, 4), WirePolicy::Auto, [183, 436, 135, 909328, 895936, 1787776, 4706688, 1136]),
    ];
    for (nt, (p, q), policy, want) in rows {
        let (_, s) = run(nt, &Grid2d::new(p, q), policy);
        assert_eq!(counters(&s), want, "nt={nt} grid={p}x{q} {policy:?}");
    }
}

/// FNV-1a over `f64::to_bits` of every lower-triangle entry, row by row.
fn factor_digest(a: &SymmTileMatrix) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..a.n() {
        for j in 0..=i {
            for byte in a.get(i, j).to_bits().to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn lossy_wire_factor_bits_are_pinned() {
    // Auto and AlwaysLowest narrow cross-rank payloads, so their factors
    // differ from shared memory; these digests fix them bit for bit.
    let grid = Grid2d::new(2, 2);
    let (auto, _) = run(8, &grid, WirePolicy::Auto);
    let (lowest, _) = run(8, &grid, WirePolicy::AlwaysLowest);
    let got = (factor_digest(&auto), factor_digest(&lowest));
    assert_eq!(
        got,
        (0x1ea8_9562_1d84_a80c, 0x4506_4be9_7740_5220),
        "factor digests {got:#018x?}"
    );
}
