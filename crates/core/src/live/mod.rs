//! Live-model serving: hot-swappable snapshots over an online update
//! stream.
//!
//! The paper's production claims (Sec. 6, Fig. 7c) are about *change*:
//! new items are released continuously and inherit their category's
//! factors; unseen users are folded in against frozen item factors.
//! The offline primitives for both already exist in [`crate::dynamic`];
//! this module turns them into an online data path:
//!
//! ```text
//!  readers ──► ModelCell::load() ──► Arc<LiveEngine> ─── recommend_batch
//!                   ▲                  (immutable snapshot: model,
//!                   │ publish           scorer, dense item matrix,
//!                   │                   folded-user histories, epoch)
//!  UpdateEvent ─► LiveHandle ─► applier thread
//!    AddItem        (queue)      · drain a batch
//!    FoldInUser                  · LiveState::apply per event
//!                                · append to the event log   (WAL)
//!                                · RecommendEngine::grown_from
//!                                · ModelCell::publish (epoch += 1)
//!                                · every N events: .tfm snapshot
//! ```
//!
//! Three design rules, each load-bearing:
//!
//! 1. **Readers never block and never see a mix.** [`ModelCell`] is an
//!    epoch/RCU-style cell: `load()` hands out a clone of the current
//!    `Arc<LiveEngine>`; a snapshot is immutable, so an in-flight batch
//!    keeps scoring against the engine it started with while the
//!    applier publishes the next one. The only shared mutable state is
//!    the `Arc` slot itself, swapped under a briefly-held lock.
//! 2. **Publishes cost `O(change)`, not `O(model)` — end to end.** The
//!    successor engine is derived via
//!    [`crate::recommend::RecommendEngine::grown_from`]: the
//!    effective-factor tables (the only f32 rows the scans read) are
//!    chunked copy-on-write matrices ([`taxrec_factors::CowMatrix`]),
//!    and the scan shards' int8 shadows are chunked the same way; every
//!    chunk is shared with the predecessor snapshot, and a new row
//!    copies at most the one 256-row tail chunk it lands in. The
//!    authoritative [`crate::TfModel`] is **persistent** too: its
//!    factor tables are `CowMatrix`es as well and its path table sits
//!    behind an `Arc`, so the per-publish `model().clone()` bumps refcounts
//!    instead of copying factors, and the events that preceded the
//!    publish copied only the chunks they touched. The applier records
//!    the publish latency histogram, a shared/copied chunk counter
//!    pair and the bytes each publish did not share ([`LiveStats`]) so
//!    `GET /live/stats` and `GET /metrics` *prove* the sharing in
//!    production; `proptest_cow` bounds the copies per publish in CI.
//! 3. **`snapshot + replay(log) ≡ live state`.** Every applied event is
//!    appended to a length-prefixed binary event log before it becomes
//!    visible; events are deterministic (fold-ins carry their seed), so
//!    replaying the log over the last snapshot reproduces the live
//!    model bit-for-bit. Property-tested in
//!    `crates/core/tests/proptest_live.rs`.
//!
//! Entry points: build a [`LiveState`] from a trained model, spawn a
//! [`LiveHandle`], hand its [`ModelCell`] to readers and submit
//! [`UpdateEvent`]s. `taxrec serve` does exactly this; `taxrec replay`
//! drives [`replay`] offline. Because the log is deterministic and
//! lineage-stamped, shipping it over a socket is enough to keep a
//! whole fleet of read replicas converged — see [`replication`].

mod cell;
mod engine;
mod event;
mod queue;
pub mod replication;
pub mod snapshot;
mod state;
mod stats;

pub use cell::ModelCell;
pub use engine::LiveEngine;
pub use event::{
    decode_log, decode_log_lossy, encode_event, encode_log_header, LogHeader, UpdateEvent,
    LOG_HEADER_LEN, MAX_EVENT_FOLD_STEPS,
};
pub use queue::{AppliedUpdate, LiveConfig, LiveHandle};
pub use state::{replay, Applied, LiveState};
pub use stats::{LiveStats, LiveStatsSnapshot};

use taxrec_taxonomy::TaxonomyError;

/// Errors from the live subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum LiveError {
    /// An `AddItem` event named an invalid parent (unknown node or a
    /// frozen leaf).
    Taxonomy(TaxonomyError),
    /// A `FoldInUser` event referenced an item id outside the catalog
    /// as of the event's application point.
    UnknownItem(u32),
    /// A `RefoldUser` event named a user id that is not a folded-in
    /// user (trained users are frozen; ids past the model are unknown).
    UnknownUser(usize),
    /// A `FoldInUser` event asked for more BPR steps than
    /// [`MAX_EVENT_FOLD_STEPS`]. Rejected *before* logging: the log
    /// codec refuses such records at decode time, so accepting one
    /// here would produce an acked event that replay cannot read.
    FoldStepsTooLarge(usize),
    /// The applier thread is gone (shutdown or panic); the update was
    /// not applied.
    QueueClosed,
    /// Event-log or snapshot I/O failed.
    Io(String),
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Taxonomy(e) => write!(f, "add-item: {e}"),
            LiveError::UnknownItem(i) => write!(f, "fold-in history references unknown item {i}"),
            LiveError::UnknownUser(u) => {
                write!(f, "refold references unknown or non-folded user {u}")
            }
            LiveError::FoldStepsTooLarge(s) => write!(
                f,
                "fold-in steps {s} exceeds cap {}",
                event::MAX_EVENT_FOLD_STEPS
            ),
            LiveError::QueueClosed => write!(f, "live update queue is closed"),
            LiveError::Io(m) => write!(f, "live I/O: {m}"),
        }
    }
}

impl std::error::Error for LiveError {}

impl From<TaxonomyError> for LiveError {
    fn from(e: TaxonomyError) -> Self {
        LiveError::Taxonomy(e)
    }
}
