//! The HTTP serving layer, split out of `serve.rs` so each concern is
//! independently testable:
//!
//! * [`pool`] — a bounded work queue and fixed-size worker pool. The
//!   accept loop stays single-threaded (it only moves sockets), but
//!   request handling fans out across N workers, so one stalled or
//!   slow client can no longer serialize every other connection.
//! * [`conn`] — per-connection I/O: request parsing under byte caps,
//!   idle timeouts and an absolute request deadline, response framing.
//! * [`router`] — the pure request → [`router::Response`] map. Every
//!   handler loads its own immutable snapshot from the `ModelCell`, so
//!   concurrent workers read without locks and never observe a
//!   half-published model.
//! * [`metrics`] — lock-free serving counters (per-route requests and
//!   error classes, queue-full rejections, a latency histogram for
//!   p50/p99), registered into the metrics registry that `GET /metrics`
//!   and `GET /live/stats` render.
//!
//! The split mirrors the HTAP read/update separation the live
//! subsystem already encodes: POSTs keep their single-applier
//! durability ordering, while GETs scale with cores.

pub mod conn;
pub mod metrics;
pub mod pool;
pub mod router;
