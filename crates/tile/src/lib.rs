//! Tiles, tile matrices, and data layouts for the mixed-precision framework.
//!
//! A [`Tile`] owns its elements in the *actual* storage format of the
//! precision map (f64 / f32 / IEEE f16 via `half`), so storage-precision
//! effects (paper Fig 2b) are real round-offs, and storage/transfer byte
//! counts are real sizes.
//!
//! [`SymmTileMatrix`] stores the lower triangle of a symmetric matrix as an
//! `NT × NT` grid of tiles — the layout the tile Cholesky of Algorithm 1
//! operates on. [`DenseMatrix`] is a plain row-major matrix used by the
//! reference path and the statistics code. [`Grid2d`] is the 2D block-cyclic
//! process grid (`P × Q`, `P ≤ Q`, as square as possible — paper §VII-A).

pub mod dense;
pub mod layout;
pub mod matrix;
pub mod norms;
pub mod tile;

pub use dense::DenseMatrix;
pub use layout::Grid2d;
pub use matrix::{lower_index, lower_tiles, SymmTileMatrix};
pub use norms::{tile_fro_norms, NormMap};
pub use tile::{Tile, TileBuf};
