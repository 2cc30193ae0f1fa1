//! The packed-wire data-motion engine: what a cross-rank payload *actually
//! is*, as bytes.
//!
//! The distributed layer used to model communication arithmetically — clone
//! a [`Tile`], multiply a length by a byte width, call it a message. This
//! module makes the wire real:
//!
//! * **Fused convert-and-pack** — [`pack_tile_into`] streams a tile's
//!   elements straight from its storage buffer into a contiguous
//!   little-endian byte buffer at the wire precision, one rounding, zero
//!   intermediate `Tile` allocations. [`unpack_tile`] is the symmetric
//!   fused pass on the receiver. Both are bit-compatible with the two-pass
//!   `converted_to(wire).converted_to(storage)` route (property-tested),
//!   because every step of that route rounds at most once.
//! * **Symmetric lower packing** — [`Packing::Lower`] ships only the
//!   `r(r+1)/2` lower-triangle elements of a (square) diagonal tile. A
//!   factored `L_kk` has a zeroed strict upper triangle, so zero-filling on
//!   unpack reconstructs the tile bit-exactly at ~half the bytes.
//! * **Header framing** — a message is a 16-byte header plus a sequence of
//!   framed tiles ([`FrameMeta`]), so one buffer can carry a whole
//!   coalesced panel. Decoding validates magic, version, tags and lengths
//!   and returns a typed [`WireError`] on truncated or garbled input —
//!   never a panic.
//! * **Binomial broadcast trees** — [`broadcast_hops`] routes one payload
//!   from its owner to `D` destination ranks over `D` links in
//!   `⌈log₂(D+1)⌉` rounds, instead of `D` serialized sends from the root.
//!
//! [`crate::distributed`] builds its rank-level messages on these
//! primitives; `bench_wire` measures them.

use mixedp_fp::{round_f16, round_f16_f32, CommPrecision, StoragePrecision, F16};
use mixedp_obs as obs;
use mixedp_tile::{Tile, TileBuf};

/// Message magic: `b"MPWR"` little-endian ("mixed-precision wire").
pub const WIRE_MAGIC: u32 = u32::from_le_bytes(*b"MPWR");
/// Wire format version.
pub const WIRE_VERSION: u8 = 1;
/// Bytes of the per-message header (magic, version, frame count, body len).
pub const MSG_HEADER_BYTES: usize = 16;
/// Bytes of the per-tile frame header (coords, shape, tags, payload len).
pub const FRAME_HEADER_BYTES: usize = 24;

/// Elements-per-slab of the streaming pack/unpack loops. 1024 elements is
/// at most 8 KiB of source — source slab plus packed output stay within L1
/// while giving the autovectorizer long, branch-free inner loops.
const PACK_SLAB: usize = 1024;

/// How a tile's elements are laid out in its wire payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Packing {
    /// All `rows × cols` elements, row-major.
    Full,
    /// Lower triangle only (`rows` must equal `cols`): row `i` contributes
    /// its first `i + 1` elements. Unpacking zero-fills the strict upper
    /// triangle — exact for factored (lower-triangular) diagonal tiles.
    Lower,
}

impl Packing {
    /// Header tag byte.
    pub const fn tag(self) -> u8 {
        match self {
            Packing::Full => 0,
            Packing::Lower => 1,
        }
    }

    /// Inverse of [`Packing::tag`].
    pub fn from_tag(tag: u8) -> Option<Packing> {
        match tag {
            0 => Some(Packing::Full),
            1 => Some(Packing::Lower),
            _ => None,
        }
    }

    /// Number of elements a `rows × cols` tile packs under this layout.
    pub fn elems(self, rows: usize, cols: usize) -> usize {
        match self {
            Packing::Full => rows * cols,
            Packing::Lower => {
                debug_assert_eq!(rows, cols, "lower packing needs a square tile");
                rows * (rows + 1) / 2
            }
        }
    }
}

/// Header tag byte of a wire precision.
pub const fn comm_tag(wire: CommPrecision) -> u8 {
    match wire {
        CommPrecision::Fp16 => 0,
        CommPrecision::Fp32 => 1,
        CommPrecision::Fp64 => 2,
    }
}

/// Inverse of [`comm_tag`].
pub fn comm_from_tag(tag: u8) -> Option<CommPrecision> {
    match tag {
        0 => Some(CommPrecision::Fp16),
        1 => Some(CommPrecision::Fp32),
        2 => Some(CommPrecision::Fp64),
        _ => None,
    }
}

/// Typed decode failures. Every malformed buffer — truncated mid-header,
/// garbled tags, inconsistent lengths — maps to one of these instead of a
/// panic, so a receiver can reject and request a retransmit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than a well-formed structure requires.
    Truncated { needed: usize, have: usize },
    /// The message does not start with [`WIRE_MAGIC`].
    BadMagic(u32),
    /// Unknown format version.
    BadVersion(u8),
    /// Unknown wire-precision tag in a frame header.
    BadPrecision(u8),
    /// Unknown packing tag in a frame header.
    BadPacking(u8),
    /// A frame's payload length disagrees with its shape/precision/packing.
    PayloadLength { expected: usize, have: usize },
    /// The header's body length disagrees with the frames it contains.
    BodyLength { expected: usize, have: usize },
    /// Lower packing on a non-square tile.
    NotSquare { rows: usize, cols: usize },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated wire buffer: need {needed} bytes, have {have}")
            }
            WireError::BadMagic(m) => write!(f, "bad wire magic {m:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadPrecision(t) => write!(f, "unknown wire precision tag {t}"),
            WireError::BadPacking(t) => write!(f, "unknown packing tag {t}"),
            WireError::PayloadLength { expected, have } => {
                write!(f, "frame payload length {have}, expected {expected}")
            }
            WireError::BodyLength { expected, have } => {
                write!(f, "message body length {have}, header says {expected}")
            }
            WireError::NotSquare { rows, cols } => {
                write!(f, "lower packing needs a square tile, got {rows}x{cols}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Per-frame metadata: which tile, its shape, and how its payload is
/// encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    pub i: usize,
    pub j: usize,
    pub rows: usize,
    pub cols: usize,
    pub wire: CommPrecision,
    pub packing: Packing,
}

/// Payload bytes of a `rows × cols` tile at `wire` precision under
/// `packing` (no framing).
pub fn packed_bytes(rows: usize, cols: usize, wire: CommPrecision, packing: Packing) -> usize {
    packing.elems(rows, cols) * wire.bytes()
}

/// Total bytes of a single-tile message: message header, one frame header,
/// and the packed payload. This is what one tile costs on a real wire.
pub fn framed_tile_bytes(rows: usize, cols: usize, wire: CommPrecision, packing: Packing) -> usize {
    MSG_HEADER_BYTES + FRAME_HEADER_BYTES + packed_bytes(rows, cols, wire, packing)
}

// ---------------------------------------------------------------------------
// Fused convert-and-pack
// ---------------------------------------------------------------------------

/// Append `src` to `out`, converting each element through `conv` into its
/// `W`-byte little-endian wire image. One `resize` up front, then slab-sized
/// branch-free inner loops the compiler can autovectorize.
#[inline]
fn pack_slice<T: Copy, const W: usize>(src: &[T], out: &mut Vec<u8>, conv: impl Fn(T) -> [u8; W]) {
    let start = out.len();
    out.resize(start + src.len() * W, 0);
    let dst = &mut out[start..];
    for (ss, ds) in src.chunks(PACK_SLAB).zip(dst.chunks_mut(PACK_SLAB * W)) {
        for (s, d) in ss.iter().zip(ds.chunks_exact_mut(W)) {
            d.copy_from_slice(&conv(*s));
        }
    }
}

/// Pack a row-major source buffer under `packing`.
#[inline]
fn pack_src<T: Copy, const W: usize>(
    src: &[T],
    rows: usize,
    cols: usize,
    packing: Packing,
    out: &mut Vec<u8>,
    conv: impl Fn(T) -> [u8; W] + Copy,
) {
    match packing {
        Packing::Full => pack_slice(src, out, conv),
        Packing::Lower => {
            assert_eq!(rows, cols, "lower packing needs a square tile");
            for i in 0..rows {
                pack_slice(&src[i * cols..i * cols + i + 1], out, conv);
            }
        }
    }
}

/// Fused convert-and-pack: append the wire payload of `t` at `wire`
/// precision to `out`. Exactly one rounding per element (bit-identical to
/// `t.converted_to(wire.as_storage())`), no intermediate `Tile`.
pub fn pack_tile_into(t: &Tile, wire: CommPrecision, packing: Packing, out: &mut Vec<u8>) {
    static PACK_TILES: obs::LazyCounter = obs::LazyCounter::new("wire.pack_tiles");
    static PACK_BYTES: obs::LazyCounter = obs::LazyCounter::new("wire.pack_bytes");
    let sp = obs::span_start();
    let before = out.len();
    let (r, c) = (t.rows(), t.cols());
    match (t.buf(), wire) {
        (TileBuf::F64(v), CommPrecision::Fp64) => {
            pack_src(v, r, c, packing, out, |x: f64| x.to_le_bytes())
        }
        (TileBuf::F64(v), CommPrecision::Fp32) => {
            pack_src(v, r, c, packing, out, |x: f64| (x as f32).to_le_bytes())
        }
        (TileBuf::F64(v), CommPrecision::Fp16) => pack_src(v, r, c, packing, out, |x: f64| {
            F16::from_f64(x).to_bits().to_le_bytes()
        }),
        (TileBuf::F32(v), CommPrecision::Fp64) => {
            pack_src(v, r, c, packing, out, |x: f32| (x as f64).to_le_bytes())
        }
        (TileBuf::F32(v), CommPrecision::Fp32) => {
            pack_src(v, r, c, packing, out, |x: f32| x.to_le_bytes())
        }
        (TileBuf::F32(v), CommPrecision::Fp16) => pack_src(v, r, c, packing, out, |x: f32| {
            F16::from_f32(x).to_bits().to_le_bytes()
        }),
        (TileBuf::F16(v), CommPrecision::Fp64) => {
            pack_src(v, r, c, packing, out, |x: F16| x.to_f64().to_le_bytes())
        }
        (TileBuf::F16(v), CommPrecision::Fp32) => {
            pack_src(v, r, c, packing, out, |x: F16| x.to_f32().to_le_bytes())
        }
        (TileBuf::F16(v), CommPrecision::Fp16) => {
            pack_src(v, r, c, packing, out, |x: F16| x.to_bits().to_le_bytes())
        }
    }
    let bytes = (out.len() - before) as u64;
    PACK_TILES.inc();
    PACK_BYTES.add(bytes);
    obs::span_end(sp, obs::EventKind::WirePack, bytes);
}

/// Decode `payload` into a row-major element buffer through `conv`,
/// zero-filling the strict upper triangle under [`Packing::Lower`].
#[inline]
fn unpack_dst<T: Copy + Default, const W: usize>(
    payload: &[u8],
    rows: usize,
    cols: usize,
    packing: Packing,
    conv: impl Fn([u8; W]) -> T + Copy,
) -> Vec<T> {
    let decode = |bytes: &[u8], dst: &mut [T]| {
        for (d, s) in dst.iter_mut().zip(bytes.chunks_exact(W)) {
            *d = conv(s.try_into().unwrap());
        }
    };
    match packing {
        Packing::Full => {
            let mut v = vec![T::default(); rows * cols];
            decode(payload, &mut v);
            v
        }
        Packing::Lower => {
            let mut v = vec![T::default(); rows * cols];
            let mut off = 0;
            for i in 0..rows {
                let n = (i + 1) * W;
                decode(&payload[off..off + n], &mut v[i * cols..i * cols + i + 1]);
                off += n;
            }
            v
        }
    }
}

/// Fused unpack: materialize a `rows × cols` tile at `storage` precision
/// from a wire payload. One rounding per element — bit-identical to
/// receiving a `wire.as_storage()` tile and calling
/// `converted_to(storage)` on it.
pub fn unpack_tile(
    payload: &[u8],
    meta: &FrameMeta,
    storage: StoragePrecision,
) -> Result<Tile, WireError> {
    static UNPACK_TILES: obs::LazyCounter = obs::LazyCounter::new("wire.unpack_tiles");
    static UNPACK_BYTES: obs::LazyCounter = obs::LazyCounter::new("wire.unpack_bytes");
    let sp = obs::span_start();
    let r = unpack_tile_inner(payload, meta, storage);
    if r.is_ok() {
        UNPACK_TILES.inc();
        UNPACK_BYTES.add(payload.len() as u64);
    }
    obs::span_end(sp, obs::EventKind::WireUnpack, payload.len() as u64);
    r
}

fn unpack_tile_inner(
    payload: &[u8],
    meta: &FrameMeta,
    storage: StoragePrecision,
) -> Result<Tile, WireError> {
    let (rows, cols, wire) = (meta.rows, meta.cols, meta.wire);
    if meta.packing == Packing::Lower && rows != cols {
        return Err(WireError::NotSquare { rows, cols });
    }
    let expected = packed_bytes(rows, cols, wire, meta.packing);
    if payload.len() != expected {
        return Err(WireError::PayloadLength {
            expected,
            have: payload.len(),
        });
    }
    let p = meta.packing;
    let buf = match (wire, storage) {
        (CommPrecision::Fp16, StoragePrecision::F64) => {
            TileBuf::F64(unpack_dst(payload, rows, cols, p, |b: [u8; 2]| {
                F16::from_bits(u16::from_le_bytes(b)).to_f64()
            }))
        }
        (CommPrecision::Fp16, StoragePrecision::F32) => {
            TileBuf::F32(unpack_dst(payload, rows, cols, p, |b: [u8; 2]| {
                F16::from_bits(u16::from_le_bytes(b)).to_f32()
            }))
        }
        (CommPrecision::Fp16, StoragePrecision::F16) => {
            TileBuf::F16(unpack_dst(payload, rows, cols, p, |b: [u8; 2]| {
                F16::from_bits(u16::from_le_bytes(b))
            }))
        }
        (CommPrecision::Fp32, StoragePrecision::F64) => {
            TileBuf::F64(unpack_dst(payload, rows, cols, p, |b: [u8; 4]| {
                f32::from_le_bytes(b) as f64
            }))
        }
        (CommPrecision::Fp32, StoragePrecision::F32) => {
            TileBuf::F32(unpack_dst(payload, rows, cols, p, f32::from_le_bytes))
        }
        (CommPrecision::Fp32, StoragePrecision::F16) => {
            TileBuf::F16(unpack_dst(payload, rows, cols, p, |b: [u8; 4]| {
                F16::from_f32(f32::from_le_bytes(b))
            }))
        }
        (CommPrecision::Fp64, StoragePrecision::F64) => {
            TileBuf::F64(unpack_dst(payload, rows, cols, p, f64::from_le_bytes))
        }
        (CommPrecision::Fp64, StoragePrecision::F32) => {
            TileBuf::F32(unpack_dst(payload, rows, cols, p, |b: [u8; 8]| {
                f64::from_le_bytes(b) as f32
            }))
        }
        (CommPrecision::Fp64, StoragePrecision::F16) => {
            TileBuf::F16(unpack_dst(payload, rows, cols, p, |b: [u8; 8]| {
                F16::from_f64(f64::from_le_bytes(b))
            }))
        }
    };
    Ok(Tile::from_buf(rows, cols, buf))
}

/// The fused pack→unpack pass: quantize a tile through its wire precision
/// in a single loop — what a payload looks like to its receiver. One
/// rounding into the wire format, one (exact or single-rounding) conversion
/// back out; bit-identical to the old two-`Tile` narrow-then-widen route
/// (see [`reference_through_wire`]) with zero intermediate allocations.
pub fn quantize_through_wire(t: &Tile, wire: CommPrecision) -> Tile {
    let (rows, cols) = (t.rows(), t.cols());
    let buf = match (t.buf(), wire) {
        // Wire at (or above) the element format: lossless round trip.
        (TileBuf::F64(_), CommPrecision::Fp64)
        | (TileBuf::F32(_), CommPrecision::Fp32 | CommPrecision::Fp64)
        | (TileBuf::F16(_), _) => return t.clone(),
        (TileBuf::F64(v), CommPrecision::Fp32) => {
            TileBuf::F64(v.iter().map(|&x| (x as f32) as f64).collect())
        }
        (TileBuf::F64(v), CommPrecision::Fp16) => {
            TileBuf::F64(v.iter().map(|&x| round_f16(x)).collect())
        }
        (TileBuf::F32(v), CommPrecision::Fp16) => {
            TileBuf::F32(v.iter().map(|&x| round_f16_f32(x)).collect())
        }
    };
    Tile::from_buf(rows, cols, buf)
}

/// The pre-engine double-conversion path: materialize a narrowed
/// intermediate `Tile`, then widen it back. Retained as the bit-exactness
/// oracle for [`quantize_through_wire`] and the two-pass baseline in the
/// pack benchmarks.
pub fn reference_through_wire(t: &Tile, wire: CommPrecision) -> Tile {
    let narrowed = t.converted_to(wire.as_storage());
    narrowed.converted_to(t.storage())
}

// ---------------------------------------------------------------------------
// Message framing
// ---------------------------------------------------------------------------

/// Start a message in `buf` (cleared): write the 16-byte header with a
/// zero frame count and body length, to be patched by [`push_frame`] /
/// [`seal_message`].
pub fn begin_message(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&WIRE_MAGIC.to_le_bytes()); // 0..4
    buf.push(WIRE_VERSION); // 4
    buf.push(0); // 5: reserved
    buf.extend_from_slice(&0u16.to_le_bytes()); // 6..8: frame count
    buf.extend_from_slice(&0u64.to_le_bytes()); // 8..16: body length
}

/// Append one framed tile to an open message and bump the header's frame
/// count. The payload is produced by the fused packer.
pub fn push_frame(
    buf: &mut Vec<u8>,
    i: usize,
    j: usize,
    t: &Tile,
    wire: CommPrecision,
    packing: Packing,
) {
    debug_assert!(buf.len() >= MSG_HEADER_BYTES, "begin_message first");
    buf.extend_from_slice(&(i as u32).to_le_bytes());
    buf.extend_from_slice(&(j as u32).to_le_bytes());
    buf.extend_from_slice(&(t.rows() as u32).to_le_bytes());
    buf.extend_from_slice(&(t.cols() as u32).to_le_bytes());
    buf.push(comm_tag(wire));
    buf.push(packing.tag());
    buf.extend_from_slice(&0u16.to_le_bytes()); // reserved
    let plen = packed_bytes(t.rows(), t.cols(), wire, packing);
    buf.extend_from_slice(&(plen as u32).to_le_bytes());
    pack_tile_into(t, wire, packing, buf);
    let count = u16::from_le_bytes([buf[6], buf[7]]) + 1;
    buf[6..8].copy_from_slice(&count.to_le_bytes());
}

/// Close a message: patch the body length. The buffer is then a complete,
/// self-describing wire unit.
pub fn seal_message(buf: &mut [u8]) {
    let body = (buf.len() - MSG_HEADER_BYTES) as u64;
    buf[8..16].copy_from_slice(&body.to_le_bytes());
}

fn take<const N: usize>(bytes: &[u8], off: usize) -> Result<[u8; N], WireError> {
    bytes
        .get(off..off + N)
        .map(|s| s.try_into().unwrap())
        .ok_or(WireError::Truncated {
            needed: off + N,
            have: bytes.len(),
        })
}

/// Walk a framed message, yielding each frame's metadata and payload slice.
/// Validates the header, every tag, and every length; returns the frame
/// count. Malformed input yields a typed [`WireError`] — no panics, no
/// partial sink calls after an error is detected for that frame.
pub fn read_message(
    bytes: &[u8],
    mut sink: impl FnMut(FrameMeta, &[u8]) -> Result<(), WireError>,
) -> Result<usize, WireError> {
    let magic = u32::from_le_bytes(take::<4>(bytes, 0)?);
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = take::<1>(bytes, 4)?[0];
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let count = u16::from_le_bytes(take::<2>(bytes, 6)?) as usize;
    let body = u64::from_le_bytes(take::<8>(bytes, 8)?) as usize;
    if bytes.len() != MSG_HEADER_BYTES + body {
        return Err(WireError::BodyLength {
            expected: body,
            have: bytes.len().saturating_sub(MSG_HEADER_BYTES),
        });
    }
    let mut off = MSG_HEADER_BYTES;
    for _ in 0..count {
        let i = u32::from_le_bytes(take::<4>(bytes, off)?) as usize;
        let j = u32::from_le_bytes(take::<4>(bytes, off + 4)?) as usize;
        let rows = u32::from_le_bytes(take::<4>(bytes, off + 8)?) as usize;
        let cols = u32::from_le_bytes(take::<4>(bytes, off + 12)?) as usize;
        let wire_tag = take::<1>(bytes, off + 16)?[0];
        let pack_tag = take::<1>(bytes, off + 17)?[0];
        let plen = u32::from_le_bytes(take::<4>(bytes, off + 20)?) as usize;
        let wire = comm_from_tag(wire_tag).ok_or(WireError::BadPrecision(wire_tag))?;
        let packing = Packing::from_tag(pack_tag).ok_or(WireError::BadPacking(pack_tag))?;
        if packing == Packing::Lower && rows != cols {
            return Err(WireError::NotSquare { rows, cols });
        }
        let expected = packed_bytes(rows, cols, wire, packing);
        if plen != expected {
            return Err(WireError::PayloadLength {
                expected,
                have: plen,
            });
        }
        let payload = bytes
            .get(off + FRAME_HEADER_BYTES..off + FRAME_HEADER_BYTES + plen)
            .ok_or(WireError::Truncated {
                needed: off + FRAME_HEADER_BYTES + plen,
                have: bytes.len(),
            })?;
        sink(
            FrameMeta {
                i,
                j,
                rows,
                cols,
                wire,
                packing,
            },
            payload,
        )?;
        off += FRAME_HEADER_BYTES + plen;
    }
    if off != bytes.len() {
        return Err(WireError::BodyLength {
            expected: off - MSG_HEADER_BYTES,
            have: body,
        });
    }
    Ok(count)
}

/// Decode a whole message into `(meta, tile)` pairs, materializing every
/// tile at the storage precision chosen by `storage_of(i, j)`.
pub fn unpack_message(
    bytes: &[u8],
    mut storage_of: impl FnMut(usize, usize) -> StoragePrecision,
) -> Result<Vec<(FrameMeta, Tile)>, WireError> {
    let mut out = Vec::new();
    read_message(bytes, |meta, payload| {
        let t = unpack_tile(payload, &meta, storage_of(meta.i, meta.j))?;
        out.push((meta, t));
        Ok(())
    })?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Binomial broadcast trees
// ---------------------------------------------------------------------------

/// One link crossing of a broadcast: `from` forwards the payload to `to`
/// during `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    pub from: usize,
    pub to: usize,
    pub round: u32,
}

/// Rounds a binomial broadcast over `n` participants needs:
/// `⌈log₂(n)⌉` (0 for a single participant).
pub fn broadcast_rounds(n: usize) -> u32 {
    match n {
        0 | 1 => 0,
        _ => usize::BITS - (n - 1).leading_zeros(),
    }
}

/// The hop list of a binomial broadcast from `root` to `dests` (which must
/// not contain `root`). In round `r`, every rank that already holds the
/// payload forwards it to the participant `2^r` positions ahead of it —
/// `|dests|` hops total, `⌈log₂(|dests|+1)⌉` rounds deep, and the root
/// sends only `O(log)` copies instead of `|dests|`. Every relay is itself a
/// destination, so forwarding costs no extra receives.
pub fn broadcast_hops(root: usize, dests: &[usize]) -> Vec<Hop> {
    debug_assert!(!dests.contains(&root));
    let mut parts = Vec::with_capacity(dests.len() + 1);
    parts.push(root);
    parts.extend_from_slice(dests);
    let n = parts.len();
    let mut hops = Vec::with_capacity(dests.len());
    let mut have = 1usize; // parts[..have] hold the payload
    let mut round = 0u32;
    while have < n {
        let senders = have;
        for s in 0..senders {
            let t = s + senders;
            if t >= n {
                break;
            }
            hops.push(Hop {
                from: parts[s],
                to: parts[t],
                round,
            });
        }
        have = (have * 2).min(n);
        round += 1;
    }
    hops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(rows: usize, cols: usize, storage: StoragePrecision, seed: u64) -> Tile {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64) * 2.0 - 1.0
            })
            .collect();
        Tile::from_f64(rows, cols, &data, storage)
    }

    const STORAGES: [StoragePrecision; 3] = [
        StoragePrecision::F16,
        StoragePrecision::F32,
        StoragePrecision::F64,
    ];
    const WIRES: [CommPrecision; 3] = [
        CommPrecision::Fp16,
        CommPrecision::Fp32,
        CommPrecision::Fp64,
    ];

    #[test]
    fn full_roundtrip_matches_two_pass_conversion() {
        for storage in STORAGES {
            for wire in WIRES {
                let t = tile(7, 5, storage, 3);
                let mut buf = Vec::new();
                pack_tile_into(&t, wire, Packing::Full, &mut buf);
                assert_eq!(buf.len(), packed_bytes(7, 5, wire, Packing::Full));
                let meta = FrameMeta {
                    i: 0,
                    j: 0,
                    rows: 7,
                    cols: 5,
                    wire,
                    packing: Packing::Full,
                };
                let got = unpack_tile(&buf, &meta, storage).unwrap();
                let want = t.converted_to(wire.as_storage()).converted_to(storage);
                assert_eq!(got, want, "{storage:?} over {wire:?}");
            }
        }
    }

    #[test]
    fn lower_roundtrip_is_exact_for_triangular_tiles() {
        for storage in STORAGES {
            for wire in WIRES {
                let mut t = tile(6, 6, storage, 9);
                for i in 0..6 {
                    for j in (i + 1)..6 {
                        t.set(i, j, 0.0);
                    }
                }
                let mut buf = Vec::new();
                pack_tile_into(&t, wire, Packing::Lower, &mut buf);
                assert_eq!(buf.len(), 21 * wire.bytes());
                let meta = FrameMeta {
                    i: 2,
                    j: 2,
                    rows: 6,
                    cols: 6,
                    wire,
                    packing: Packing::Lower,
                };
                let got = unpack_tile(&buf, &meta, storage).unwrap();
                let want = reference_through_wire(&t, wire).converted_to(storage);
                assert_eq!(got, want, "{storage:?} over {wire:?}");
            }
        }
    }

    #[test]
    fn quantize_through_wire_matches_reference() {
        for storage in STORAGES {
            for wire in WIRES {
                let t = tile(5, 8, storage, 11);
                assert_eq!(
                    quantize_through_wire(&t, wire),
                    reference_through_wire(&t, wire),
                    "{storage:?} through {wire:?}"
                );
            }
        }
    }

    #[test]
    fn message_roundtrips_multiple_frames() {
        let t1 = tile(4, 4, StoragePrecision::F64, 1);
        let t2 = tile(4, 3, StoragePrecision::F32, 2);
        let mut buf = Vec::new();
        begin_message(&mut buf);
        push_frame(&mut buf, 2, 2, &t1, CommPrecision::Fp32, Packing::Full);
        push_frame(&mut buf, 3, 1, &t2, CommPrecision::Fp16, Packing::Full);
        seal_message(&mut buf);
        let got = unpack_message(&buf, |i, _| {
            if i == 2 {
                StoragePrecision::F64
            } else {
                StoragePrecision::F32
            }
        })
        .unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].0.i, got[0].0.j), (2, 2));
        assert_eq!(got[0].1, quantize_through_wire(&t1, CommPrecision::Fp32));
        assert_eq!((got[1].0.i, got[1].0.j), (3, 1));
        assert_eq!(got[1].1, quantize_through_wire(&t2, CommPrecision::Fp16));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let t = tile(3, 3, StoragePrecision::F64, 5);
        let mut buf = Vec::new();
        begin_message(&mut buf);
        push_frame(&mut buf, 0, 0, &t, CommPrecision::Fp16, Packing::Full);
        seal_message(&mut buf);
        for cut in 0..buf.len() {
            let err = unpack_message(&buf[..cut], |_, _| StoragePrecision::F64).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Truncated { .. } | WireError::BodyLength { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn garbled_headers_are_typed_errors() {
        let t = tile(2, 2, StoragePrecision::F32, 6);
        let mut buf = Vec::new();
        begin_message(&mut buf);
        push_frame(&mut buf, 1, 0, &t, CommPrecision::Fp32, Packing::Full);
        seal_message(&mut buf);

        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            unpack_message(&bad, |_, _| StoragePrecision::F32).unwrap_err(),
            WireError::BadMagic(_)
        ));
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(
            unpack_message(&bad, |_, _| StoragePrecision::F32).unwrap_err(),
            WireError::BadVersion(99)
        ));
        let mut bad = buf.clone();
        bad[MSG_HEADER_BYTES + 16] = 7; // wire tag
        assert!(matches!(
            unpack_message(&bad, |_, _| StoragePrecision::F32).unwrap_err(),
            WireError::BadPrecision(7)
        ));
        let mut bad = buf.clone();
        bad[MSG_HEADER_BYTES + 17] = 9; // packing tag
        assert!(matches!(
            unpack_message(&bad, |_, _| StoragePrecision::F32).unwrap_err(),
            WireError::BadPacking(9)
        ));
        let mut bad = buf.clone();
        bad[MSG_HEADER_BYTES + 20] ^= 0x01; // payload length
        assert!(matches!(
            unpack_message(&bad, |_, _| StoragePrecision::F32).unwrap_err(),
            WireError::PayloadLength { .. }
        ));
    }

    #[test]
    fn broadcast_tree_covers_every_destination_once() {
        for ndest in 0..17 {
            let dests: Vec<usize> = (1..=ndest).collect();
            let hops = broadcast_hops(0, &dests);
            assert_eq!(hops.len(), dests.len());
            let mut have = vec![0usize; ndest + 1];
            have[0] = 1; // root
            let mut max_round = 0;
            for h in &hops {
                assert!(have[h.from] == 1, "{h:?} forwards before receiving");
                assert_eq!(have[h.to], 0, "{h:?} delivers twice");
                have[h.to] = 1;
                max_round = max_round.max(h.round + 1);
            }
            assert!(have.iter().all(|&x| x == 1));
            assert_eq!(max_round, broadcast_rounds(ndest + 1), "ndest={ndest}");
            // the root sends only in O(log) rounds, not to every destination
            let root_sends = hops.iter().filter(|h| h.from == 0).count() as u32;
            assert!(root_sends <= broadcast_rounds(ndest + 1));
        }
    }

    #[test]
    fn rounds_are_logarithmic() {
        assert_eq!(broadcast_rounds(1), 0);
        assert_eq!(broadcast_rounds(2), 1);
        assert_eq!(broadcast_rounds(3), 2);
        assert_eq!(broadcast_rounds(4), 2);
        assert_eq!(broadcast_rounds(5), 3);
        assert_eq!(broadcast_rounds(8), 3);
        assert_eq!(broadcast_rounds(9), 4);
    }

    #[test]
    fn framed_bytes_account_for_headers_and_packing() {
        let full = framed_tile_bytes(16, 16, CommPrecision::Fp32, Packing::Full);
        assert_eq!(full, 16 + 24 + 256 * 4);
        let lower = framed_tile_bytes(16, 16, CommPrecision::Fp32, Packing::Lower);
        assert_eq!(lower, 16 + 24 + 136 * 4);
    }
}
