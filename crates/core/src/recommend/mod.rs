//! Batched multi-user top-K recommendation serving.
//!
//! The paper's inference sections (Sec. 5) rank items for *one* user at
//! a time; a serving system faces batches of users per tick. This
//! module is the serving data path every scaling feature builds on:
//!
//! ```text
//!                    ┌───────────────────────────────┐
//!  TfModel ────────► │ RecommendEngine               │
//!   (trained)        │  · Scorer (effective factors) │
//!                    │  · int8 shadow per shard      │
//!                    │  · walk index (radii, lists)  │
//!                    └──────────────┬────────────────┘
//!  requests ─► batch::plan ─► shard │ shard │ shard    (worker threads)
//!                                   ▼       ▼
//!                        per-worker Scratch: query buf,
//!                        block buf, reusable TopK heap
//!                                   │
//!          Backend::Walk       ─ best-first radius walk   ─► TopK
//!          Backend::Exhaustive ─ blocked dot-product scan ─► TopK
//!          Backend::Cascaded   ─ taxonomy beam (Sec. 5.1) ─► truncate
//! ```
//!
//! Three properties the tests pin down:
//!
//! * **batch ≡ per-user** — [`RecommendEngine::recommend_batch`]
//!   returns exactly what per-request [`RecommendEngine::recommend`]
//!   calls would, for both backends, at any thread count;
//! * **heap ≡ full sort** — the blocked heap selection equals sorting
//!   all scores and truncating (property-tested in
//!   `tests/proptest_recommend.rs`);
//! * **cascade(1.0) ≡ exhaustive** — a full-beam cascaded backend
//!   reproduces the exhaustive ranking.
//!
//! Cross-user parallelism uses `std::thread::scope` shards (the same
//! idiom as [`crate::eval`]) rather than a work-stealing pool: requests
//! are planned into contiguous, cost-balanced shards up front by
//! [`batch::plan`], so stealing would only add queue traffic. A batch
//! gets a spawned worker per ~4 000 estimated rows scored, up to its
//! `threads`; below two such spans it runs on the calling thread. The
//! dependency-free choice also matches this workspace's offline build
//! constraints (see `vendor/README.md`).
//!
//! Orthogonally to user batching, the **catalog** itself is partitioned
//! into contiguous, taxonomy-subtree-aligned scan shards
//! ([`shards::CatalogPartition`]; opt in via
//! [`RecommendEngine::with_backend_sharded`]). A shard is an item-id
//! range of the scorer's effective-factor table — the only f32 copy of
//! an item row — plus an int8 shadow of those rows. Every request is
//! served as per-shard blocked top-K scans, one after another inside
//! its batch worker, whose winners are folded by a deterministic merge
//! ([`shards::merge_topk`], tie-break: score descending then item id
//! ascending). A fourth pinned property joins the three above:
//!
//! * **sharded ≡ unsharded** — for any shard count, backend, exclusion
//!   set and `k`, the served scores, ids, and order are bit-for-bit
//!   those of the single-shard engine (`tests/proptest_shards.rs`,
//!   `tests/differential_shards.rs`).
//!
//! The inner dot products dispatch through a runtime-selected
//! [`F32Kernel`] (portable scalar / AVX2, selected once at engine
//! construction, forceable via [`SCAN_KERNEL_ENV`]), and
//! [`Backend::Quantized`] adds an int8 first-pass scan that rescores in
//! exact f32 every row its rigorous error bound leaves in play. Both
//! are *bit-invariant* by construction — the SIMD kernels reproduce the
//! scalar lane-split summation exactly, and the quantized backend
//! always serves the exhaustive ranking — so a fifth law joins the four
//! above:
//!
//! * **kernel ≡ kernel** — forced scalar, forced SIMD, and the
//!   quantized backend serve bit-identical scores, ids, and order
//!   (`tests/differential_kernels.rs`).
//!
//! [`Backend::Walk`] — the default of live serving
//! ([`crate::live::LiveConfig`]) — reads no catalog scan at all: a
//! best-first walk over per-category radius bounds scores only the item
//! rows whose bound `q·e_c + ‖q‖·r` (padded for f32 rounding) can still
//! reach the top-K, with the exhaustive scan's own dot of the scorer's
//! row (see `walk.rs`). A sixth law:
//!
//! * **walk ≡ exhaustive** — bit-identical scores, ids, and order on
//!   tie-heavy, shallow-leaf, tight-bound and live-grown models
//!   (`tests/differential_walk.rs`).
//!
//! [`Backend::Cascaded`] borrows the same bounds for the beam's bottom
//! level (`inference.rs`) and still serves what the full-sort beam
//! serves, bit for bit (`tests/differential_cascade.rs`).

pub mod batch;
mod engine;
mod kernel;
pub mod shards;
mod topk;
mod walk;

pub use engine::{Backend, QuantPoolStats, QuantizedConfig, RecommendEngine, RecommendRequest};
pub use kernel::{F32Kernel, QuantQuery, SCAN_KERNEL_ENV};
pub use topk::{rank_cmp, ranks_before, score_block_into, TopK, SCORE_BLOCK};
pub(crate) use walk::WalkIndex;
