//! # taxrec-factors
//!
//! Dense latent-factor storage for parallel stochastic gradient descent.
//!
//! The paper trains three factor matrices (`v^U` users, `w^I` taxonomy
//! nodes, `w^I→` next-item taxonomy nodes) shared across SGD threads,
//! with **a lock per row** (Sec. 6.1). Internal taxonomy nodes are
//! updated ~1000× more often than leaves, so the paper adds a
//! **thread-local cache** for those rows: updates accumulate locally and
//! are reconciled with the global matrix only when the drift exceeds a
//! threshold. This crate provides exactly those pieces:
//!
//! * [`FactorMatrix`] — plain contiguous `rows × k` storage with Gaussian
//!   init, for single-threaded use and snapshots;
//! * [`SharedFactors`] — the same storage behind per-row
//!   `parking_lot::Mutex`es, safely shareable across threads;
//! * [`DriftCache`] — the per-thread write-back cache with an L1-drift
//!   flush threshold (the paper's `th = 0.1`);
//! * [`ops`] — the tiny dense-vector kernels (dot, axpy) every hot loop
//!   uses;
//! * [`CowMatrix`] — chunked copy-on-write storage (`Arc`-shared
//!   fixed-size row chunks) so cloning a whole table is refcount bumps
//!   and mutating or appending a row copies at most one chunk — the
//!   persistent backing of the live `TfModel` and of every table
//!   derived from it for serving (effective factors, scan shards);
//! * [`QuantMatrix`] — an int8-quantized shadow of a factor table in
//!   the same `Arc`-shared chunk layout, feeding first-pass scan
//!   kernels while keeping live publishes O(change).

#![warn(missing_docs)]

pub mod cache;
pub mod cow;
pub mod locked;
pub mod matrix;
pub mod ops;
pub mod quant;

pub use cache::DriftCache;
pub use cow::{CowMatrix, COW_CHUNK_ROWS};
pub use locked::SharedFactors;
pub use matrix::FactorMatrix;
pub use quant::{QuantChunk, QuantMatrix};
