//! A tile: an owned, row-major block of a matrix in a concrete storage format.

use mixedp_fp::{StoragePrecision, F16};

/// The backing buffer of a [`Tile`], in its genuine memory representation.
#[derive(Debug, Clone, PartialEq)]
pub enum TileBuf {
    F64(Vec<f64>),
    F32(Vec<f32>),
    F16(Vec<F16>),
}

impl TileBuf {
    /// Number of elements in the buffer.
    pub fn len(&self) -> usize {
        match self {
            TileBuf::F64(v) => v.len(),
            TileBuf::F32(v) => v.len(),
            TileBuf::F16(v) => v.len(),
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A row-major `rows × cols` matrix block stored in a concrete precision.
///
/// Reads always widen to `f64`; writes round through the storage format, so
/// a tile "stored in FP32" genuinely only holds binary32 values.
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    rows: usize,
    cols: usize,
    buf: TileBuf,
}

impl Tile {
    /// A zero tile in the given storage format.
    pub fn zeros(rows: usize, cols: usize, storage: StoragePrecision) -> Self {
        let n = rows * cols;
        let buf = match storage {
            StoragePrecision::F64 => TileBuf::F64(vec![0.0; n]),
            StoragePrecision::F32 => TileBuf::F32(vec![0.0; n]),
            StoragePrecision::F16 => TileBuf::F16(vec![F16::ZERO; n]),
        };
        Tile { rows, cols, buf }
    }

    /// Build a tile from `f64` data (row-major, length `rows * cols`),
    /// rounding each element through the storage format.
    pub fn from_f64(rows: usize, cols: usize, data: &[f64], storage: StoragePrecision) -> Self {
        assert_eq!(data.len(), rows * cols, "tile data length mismatch");
        let buf = match storage {
            StoragePrecision::F64 => TileBuf::F64(data.to_vec()),
            StoragePrecision::F32 => TileBuf::F32(data.iter().map(|&x| x as f32).collect()),
            StoragePrecision::F16 => TileBuf::F16(data.iter().map(|&x| F16::from_f64(x)).collect()),
        };
        Tile { rows, cols, buf }
    }

    /// Assemble a tile from an already-materialized backing buffer (e.g. a
    /// wire unpacker's output) without copying or re-rounding.
    pub fn from_buf(rows: usize, cols: usize, buf: TileBuf) -> Self {
        assert_eq!(buf.len(), rows * cols, "tile buffer length mismatch");
        Tile { rows, cols, buf }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn storage(&self) -> StoragePrecision {
        match self.buf {
            TileBuf::F64(_) => StoragePrecision::F64,
            TileBuf::F32(_) => StoragePrecision::F32,
            TileBuf::F16(_) => StoragePrecision::F16,
        }
    }

    /// Size of the tile payload in memory, in bytes.
    pub fn bytes(&self) -> usize {
        self.len() * self.storage().bytes()
    }

    pub fn buf(&self) -> &TileBuf {
        &self.buf
    }

    /// Read element `(i, j)`, widening to `f64`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        let k = i * self.cols + j;
        match &self.buf {
            TileBuf::F64(v) => v[k],
            TileBuf::F32(v) => v[k] as f64,
            TileBuf::F16(v) => v[k].to_f64(),
        }
    }

    /// Write element `(i, j)`, rounding through the storage format.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, x: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        let k = i * self.cols + j;
        match &mut self.buf {
            TileBuf::F64(v) => v[k] = x,
            TileBuf::F32(v) => v[k] = x as f32,
            TileBuf::F16(v) => v[k] = F16::from_f64(x),
        }
    }

    /// Widen the first `dst.len()` entries of row `i` into `dst`.
    pub fn read_row_f64(&self, i: usize, dst: &mut [f64]) {
        assert!(i < self.rows && dst.len() <= self.cols);
        let row = i * self.cols..i * self.cols + dst.len();
        match &self.buf {
            TileBuf::F64(v) => dst.copy_from_slice(&v[row]),
            TileBuf::F32(v) => {
                for (d, &s) in dst.iter_mut().zip(&v[row]) {
                    *d = s as f64;
                }
            }
            TileBuf::F16(v) => {
                for (d, s) in dst.iter_mut().zip(&v[row]) {
                    *d = s.to_f64();
                }
            }
        }
    }

    /// Widen the whole tile to an `f64` vector (row-major).
    pub fn to_f64(&self) -> Vec<f64> {
        match &self.buf {
            TileBuf::F64(v) => v.clone(),
            TileBuf::F32(v) => v.iter().map(|&x| x as f64).collect(),
            TileBuf::F16(v) => v.iter().map(|x| x.to_f64()).collect(),
        }
    }

    /// Widen the tile into a caller-owned buffer (cleared and refilled) —
    /// the allocation-free counterpart of [`Tile::to_f64`]. The buffer's
    /// capacity is reused across calls, so a warmed workspace performs no
    /// heap allocation here.
    pub fn read_f64_into(&self, out: &mut Vec<f64>) {
        out.clear();
        match &self.buf {
            TileBuf::F64(v) => out.extend_from_slice(v),
            TileBuf::F32(v) => out.extend(v.iter().map(|&x| x as f64)),
            TileBuf::F16(v) => out.extend(v.iter().map(|x| x.to_f64())),
        }
    }

    /// Read the tile as `f32` into a caller-owned buffer, skipping the
    /// intermediate `f64` widening entirely. Exact for every storage
    /// format narrower than or equal to f32; for `F64` storage this is the
    /// single binary32 rounding the FP32 compute path prescribes (identical
    /// to the f64 → f32 cast of the widen-then-narrow route, which rounds
    /// only once too).
    pub fn read_f32_into(&self, out: &mut Vec<f32>) {
        out.clear();
        match &self.buf {
            TileBuf::F64(v) => out.extend(v.iter().map(|&x| x as f32)),
            TileBuf::F32(v) => out.extend_from_slice(v),
            TileBuf::F16(v) => out.extend(v.iter().map(|x| x.to_f32())),
        }
    }

    /// Overwrite the tile from `f32` data without routing through `f64`.
    /// Rounding matches `store_f64(widened)` bit-for-bit: f32 → f64 is
    /// exact, so both routes perform one rounding into the storage format.
    pub fn write_f32(&mut self, data: &[f32]) {
        assert_eq!(data.len(), self.len(), "tile data length mismatch");
        match &mut self.buf {
            TileBuf::F64(v) => {
                for (d, &s) in v.iter_mut().zip(data) {
                    *d = s as f64;
                }
            }
            TileBuf::F32(v) => v.copy_from_slice(data),
            TileBuf::F16(v) => {
                for (d, &s) in v.iter_mut().zip(data) {
                    *d = F16::from_f32(s);
                }
            }
        }
    }

    /// Direct mutable access to the backing `f64` buffer, when the tile is
    /// stored in F64 — lets kernels update in place with no copy at all.
    pub fn as_mut_f64_slice(&mut self) -> Option<&mut [f64]> {
        match &mut self.buf {
            TileBuf::F64(v) => Some(v.as_mut_slice()),
            _ => None,
        }
    }

    /// Direct mutable access to the backing `f32` buffer, when the tile is
    /// stored in F32 — lets FP32-class kernels update in place.
    pub fn as_mut_f32_slice(&mut self) -> Option<&mut [f32]> {
        match &mut self.buf {
            TileBuf::F32(v) => Some(v.as_mut_slice()),
            _ => None,
        }
    }

    /// Direct read access to the backing `f64` buffer for F64 tiles.
    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        match &self.buf {
            TileBuf::F64(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// Overwrite the tile contents from `f64` data, rounding through the
    /// current storage format.
    pub fn store_f64(&mut self, data: &[f64]) {
        assert_eq!(data.len(), self.len(), "tile data length mismatch");
        match &mut self.buf {
            TileBuf::F64(v) => v.copy_from_slice(data),
            TileBuf::F32(v) => {
                for (d, &s) in v.iter_mut().zip(data) {
                    *d = s as f32;
                }
            }
            TileBuf::F16(v) => {
                for (d, &s) in v.iter_mut().zip(data) {
                    *d = F16::from_f64(s);
                }
            }
        }
    }

    /// Convert this tile to another storage format (a real datatype
    /// conversion: narrowing loses the appropriate bits). Returns the new
    /// tile; the caller accounts for the conversion cost.
    pub fn converted_to(&self, storage: StoragePrecision) -> Tile {
        if storage == self.storage() {
            return self.clone();
        }
        Tile::from_f64(self.rows, self.cols, &self.to_f64(), storage)
    }

    /// Squared Frobenius norm, accumulated in f64.
    pub fn fro_norm_sq(&self) -> f64 {
        match &self.buf {
            TileBuf::F64(v) => v.iter().map(|&x| x * x).sum(),
            TileBuf::F32(v) => v.iter().map(|&x| (x as f64) * (x as f64)).sum(),
            TileBuf::F16(v) => v
                .iter()
                .map(|x| {
                    let y = x.to_f64();
                    y * y
                })
                .sum(),
        }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.fro_norm_sq().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_bytes() {
        let t = Tile::zeros(4, 6, StoragePrecision::F32);
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 6);
        assert_eq!(t.len(), 24);
        assert_eq!(t.bytes(), 24 * 4);
        assert_eq!(t.fro_norm(), 0.0);
    }

    #[test]
    fn set_get_rounds_through_storage() {
        let mut t = Tile::zeros(2, 2, StoragePrecision::F16);
        t.set(0, 1, 1.0 / 3.0);
        let v = t.get(0, 1);
        assert_eq!(v, mixedp_fp::round_f16(1.0 / 3.0));
        assert_ne!(v, 1.0 / 3.0);
    }

    #[test]
    fn f64_storage_is_exact() {
        let data: Vec<f64> = (0..12).map(|i| (i as f64) * 0.127 - 0.5).collect();
        let t = Tile::from_f64(3, 4, &data, StoragePrecision::F64);
        assert_eq!(t.to_f64(), data);
    }

    #[test]
    fn conversion_narrows_then_is_stable() {
        let data: Vec<f64> = (0..16).map(|i| ((i * 37 % 11) as f64) / 7.0).collect();
        let t64 = Tile::from_f64(4, 4, &data, StoragePrecision::F64);
        let t32 = t64.converted_to(StoragePrecision::F32);
        assert_eq!(t32.storage(), StoragePrecision::F32);
        // converting twice is stable
        let t32b = t32.converted_to(StoragePrecision::F32);
        assert_eq!(t32.to_f64(), t32b.to_f64());
        // narrowing really lost bits
        assert_ne!(t32.to_f64(), data);
        // error bounded by f32 roundoff
        for (a, b) in t32.to_f64().iter().zip(&data) {
            assert!((a - b).abs() <= b.abs() * 6e-8 + 1e-30);
        }
    }

    #[test]
    fn widening_preserves_values() {
        let data: Vec<f64> = vec![0.5, 1.5, -2.25, 4.0];
        let t16 = Tile::from_f64(2, 2, &data, StoragePrecision::F16);
        let t64 = t16.converted_to(StoragePrecision::F64);
        assert_eq!(
            t64.to_f64(),
            data,
            "exactly-representable values survive widening"
        );
    }

    #[test]
    fn fro_norm_matches_manual() {
        let t = Tile::from_f64(1, 3, &[3.0, 4.0, 0.0], StoragePrecision::F64);
        assert_eq!(t.fro_norm(), 5.0);
    }
}
