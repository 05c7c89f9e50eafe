//! The update queue and its applier thread.
//!
//! Durability discipline (what makes the recovery law hold for every
//! *acknowledged* update):
//!
//! 1. an event is **validated** against the current state (no
//!    mutation);
//! 2. valid events are applied and their encodings buffered;
//! 3. the batch's encodings are appended to the WAL and flushed;
//! 4. only then is the successor snapshot published and the submitters
//!    acked.
//!
//! If the WAL write fails, nothing is published or acked, and the
//! applier enters a **read-only degraded mode**: every further update
//! is rejected with an I/O error (readers keep the last published
//! snapshot). A failed post-snapshot log rotation degrades the same
//! way — acking against a log that could not be restarted would lose
//! those events on recovery. An acked update is therefore always
//! durably logged, and a logged event is always one that validated —
//! replay never chokes on its own log.

use super::cell::ModelCell;
use super::engine::LiveEngine;
use super::event::{decode_log, encode_event, encode_log_header, LogHeader, UpdateEvent};
use super::replication::ReplicationHub;
use super::snapshot::encode_live;
use super::state::{Applied, LiveState};
use super::stats::LiveStats;
use super::LiveError;
use crate::obs::Obs;
use crate::recommend::Backend;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Applier configuration.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Inference backend every published snapshot serves with. The
    /// default ([`Backend::default`]) is the exact radius-bound walk: the
    /// same ranking as [`Backend::Exhaustive`], bit for bit, from a few
    /// hundred row reads instead of one per catalog item.
    pub backend: Backend,
    /// Most events folded into one publish. Batching amortises the
    /// per-publish model clone and the WAL flush; each event is still
    /// applied (and logged) individually, so replay semantics are
    /// unaffected.
    pub batch_cap: usize,
    /// Write a snapshot (and rotate the log) every this many applied
    /// events; `0` disables snapshotting.
    pub snapshot_every: u64,
    /// Event log path (the WAL). `None` = in-memory only.
    pub log_path: Option<PathBuf>,
    /// Snapshot path; required for `snapshot_every > 0` to take effect.
    pub snapshot_path: Option<PathBuf>,
    /// Catalog scan shards every published engine partitions its item
    /// matrix into (1 = unsharded). The served ranking is bit-for-bit
    /// identical at any value; see `crate::recommend::shards`.
    pub scan_shards: usize,
    /// Observability bundle: the applier registers its counters and
    /// WAL/publish histograms into `obs.registry()` and traces the
    /// write path through `obs.tracer()`. The default bundle has
    /// tracing disabled and a private registry — callers that scrape
    /// `/metrics` pass the server-wide one.
    pub obs: Arc<Obs>,
    /// Retain committed records for WAL shipping: when true the handle
    /// owns a [`ReplicationHub`] (see
    /// [`LiveHandle::replication`]) that the applier commits every
    /// WAL-acked record into, and a
    /// [`super::replication::ReplicationListener`] can stream from.
    pub replicate: bool,
    /// Cap resident user-factor rows: `Some(n)` moves the user matrix
    /// into a hot/cold [`crate::tier::UserTier`] before the first
    /// publish — at most `n` rows stay hot, the rest live in a cold
    /// file (or as fold recipes) and are faulted back on demand.
    /// `None` keeps every user factor resident (the pre-tiering
    /// behaviour). Served scores are bit-identical either way; see
    /// `crates/core/tests/differential_tiering.rs`.
    pub user_tier_budget: Option<usize>,
    /// Where the tier's cold file is written when `user_tier_budget`
    /// is set. `None` derives a path beside `log_path` (or a
    /// pid-unique temp file when there is no log).
    pub tier_cold_path: Option<PathBuf>,
}

impl Default for LiveConfig {
    fn default() -> LiveConfig {
        LiveConfig {
            backend: Backend::default(),
            batch_cap: 64,
            snapshot_every: 0,
            log_path: None,
            snapshot_path: None,
            scan_shards: 1,
            obs: Arc::new(Obs::new()),
            replicate: false,
            user_tier_budget: None,
            tier_cold_path: None,
        }
    }
}

/// A successfully applied update: what it produced and the epoch at
/// which it became visible to readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppliedUpdate {
    /// The assigned id (item or user).
    pub applied: Applied,
    /// First epoch whose snapshots include this update. By the time the
    /// submitter sees this value, [`ModelCell::load`] already returns
    /// that epoch (replies are sent *after* publish), and the event is
    /// durably in the WAL (if one is configured).
    pub epoch: u64,
}

enum Command {
    Apply(UpdateEvent, mpsc::Sender<Result<AppliedUpdate, LiveError>>),
    Flush(mpsc::Sender<()>),
    Snapshot(mpsc::Sender<Result<bool, LiveError>>),
    Shutdown,
}

/// Owner handle for a running live subsystem: the snapshot cell for
/// readers, the update queue for writers, shared stats, and the applier
/// thread (joined on drop).
#[derive(Debug)]
pub struct LiveHandle {
    cell: Arc<ModelCell>,
    stats: Arc<LiveStats>,
    repl: Option<Arc<ReplicationHub>>,
    tx: mpsc::Sender<Command>,
    thread: Option<JoinHandle<()>>,
}

impl LiveHandle {
    /// Publish `state` as epoch 0 and start the applier thread.
    ///
    /// If `config.log_path` exists and is non-empty its header is
    /// validated and new events are appended — the caller is expected
    /// to have replayed it into `state` first (`taxrec serve` does; see
    /// [`super::replay`]). A fresh log is stamped with `state`'s
    /// current shape as its lineage.
    pub fn spawn(state: LiveState, config: LiveConfig) -> Result<LiveHandle, LiveError> {
        LiveHandle::spawn_inner(state, config, true)
    }

    /// [`spawn`](Self::spawn) for a caller that has **already strictly
    /// decoded** `config.log_path` this startup (and truncated any torn
    /// tail before replaying it into `state`): the verification decode
    /// is skipped, so the WAL is read and decoded exactly once across
    /// recovery and spawn instead of three times. The contract is the
    /// caller's to uphold — appending after undecodable bytes would
    /// hide every later record from replay, which is exactly what the
    /// strict decode in [`spawn`](Self::spawn) exists to prevent.
    pub fn spawn_recovered(state: LiveState, config: LiveConfig) -> Result<LiveHandle, LiveError> {
        LiveHandle::spawn_inner(state, config, false)
    }

    fn spawn_inner(
        mut state: LiveState,
        config: LiveConfig,
        verify_existing_log: bool,
    ) -> Result<LiveHandle, LiveError> {
        let log = match &config.log_path {
            Some(p) => Some(open_log(p, &lineage_of(&state), verify_existing_log)?),
            None => None,
        };
        // Tiering is installed before the first publish so every
        // snapshot ever handed to a reader already routes user-factor
        // reads through the tier (no untiered epoch to race with).
        if let Some(budget) = config.user_tier_budget {
            let cold = match &config.tier_cold_path {
                Some(p) => p.clone(),
                None => default_cold_path(&config),
            };
            let built = crate::tier::UserTier::build(
                &cold,
                &state.model().user_factors,
                budget,
                config.obs.registry(),
            );
            // A temp-dir cold file belongs to nobody once this process
            // exits: unlink it now, the tier reads through its open
            // handle.
            if config.tier_cold_path.is_none() && config.log_path.is_none() {
                let _ = std::fs::remove_file(&cold);
            }
            let tier = built.map_err(|e| {
                LiveError::Io(format!("{}: building user tier: {e}", cold.display()))
            })?;
            state.attach_user_tier(tier);
        }
        let cell = Arc::new(ModelCell::new(LiveEngine::initial_observed(
            &state,
            config.backend.clone(),
            config.scan_shards,
            None,
            config.obs.registry(),
        )));
        let stats = Arc::new(LiveStats::new(config.obs.registry()));
        stats.set_model_bytes(state.model());
        // The replication stream's base is the shape at applier start:
        // a follower that bootstrapped from the same snapshot + log
        // lands exactly here.
        let repl = config.replicate.then(|| {
            Arc::new(ReplicationHub::new(
                lineage_of(&state),
                config.obs.registry(),
            ))
        });
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("taxrec-live-applier".into())
            .spawn({
                let cell = Arc::clone(&cell);
                let stats = Arc::clone(&stats);
                let repl = repl.clone();
                move || applier(state, config, log, cell, stats, repl, rx)
            })
            .map_err(|e| LiveError::Io(format!("spawning applier: {e}")))?;
        Ok(LiveHandle {
            cell,
            stats,
            repl,
            tx,
            thread: Some(thread),
        })
    }

    /// The snapshot cell readers load from. Clone the `Arc` and hand it
    /// to as many reader threads as you like.
    pub fn cell(&self) -> &Arc<ModelCell> {
        &self.cell
    }

    /// Live counters.
    pub fn stats(&self) -> &Arc<LiveStats> {
        &self.stats
    }

    /// The committed-record buffer WAL shipping streams from; `Some`
    /// only when spawned with [`LiveConfig::replicate`] set.
    pub fn replication(&self) -> Option<&Arc<ReplicationHub>> {
        self.repl.as_ref()
    }

    /// Enqueue one event and wait for it to be logged, applied **and
    /// published** (the returned epoch is already visible) or rejected.
    pub fn submit(&self, ev: UpdateEvent) -> Result<AppliedUpdate, LiveError> {
        let (rtx, rrx) = mpsc::channel();
        self.stats.inc_enqueued();
        self.tx
            .send(Command::Apply(ev, rtx))
            .map_err(|_| LiveError::QueueClosed)?;
        rrx.recv().map_err(|_| LiveError::QueueClosed)?
    }

    /// Wait until every event enqueued before this call is applied.
    pub fn flush(&self) -> Result<(), LiveError> {
        let (rtx, rrx) = mpsc::channel();
        self.tx
            .send(Command::Flush(rtx))
            .map_err(|_| LiveError::QueueClosed)?;
        rrx.recv().map_err(|_| LiveError::QueueClosed)
    }

    /// Write a snapshot (and rotate the log) **now**, regardless of the
    /// periodic `snapshot_every` counter — used for graceful shutdown,
    /// so a restart recovers instantly instead of replaying the whole
    /// log. Returns `Ok(false)` when no snapshot path is configured,
    /// and an error if the applier is degraded (its in-memory state may
    /// contain applied-but-unacknowledged events that must not be
    /// persisted as acked).
    pub fn snapshot_now(&self) -> Result<bool, LiveError> {
        let (rtx, rrx) = mpsc::channel();
        self.tx
            .send(Command::Snapshot(rtx))
            .map_err(|_| LiveError::QueueClosed)?;
        rrx.recv().map_err(|_| LiveError::QueueClosed)?
    }
}

impl Drop for LiveHandle {
    fn drop(&mut self) {
        if let Some(hub) = &self.repl {
            hub.close();
        }
        let _ = self.tx.send(Command::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Cold-file path when [`LiveConfig::tier_cold_path`] is unset: beside
/// the WAL when one is configured (so the operator's data dir holds
/// everything), otherwise a temp file unique per process *and* per
/// spawn, unlinked as soon as the tier holds it open — the file is a
/// rebuildable cache, never recovered from.
fn default_cold_path(config: &LiveConfig) -> PathBuf {
    if let Some(log) = &config.log_path {
        return log.with_extension("cold");
    }
    static SPAWNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = SPAWNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("taxrec-tier-{}-{n}.cold", std::process::id()))
}

fn lineage_of(state: &LiveState) -> LogHeader {
    LogHeader {
        base_users: state.model().num_users() as u64,
        base_items: state.model().num_items() as u64,
    }
}

/// Open (or create) the event log for appending. A fresh/empty log is
/// stamped with `lineage`; an existing one must decode **strictly** —
/// its events are assumed already replayed by the caller, and appending
/// preserves its original lineage (the stamp may differ from
/// `lineage`). A log with a torn tail is refused: records appended
/// after undecodable bytes would be invisible to every future replay,
/// silently dropping acked updates. Callers must truncate the torn
/// tail first (`taxrec serve` does on startup). `verify_existing` may
/// be false only when the caller itself strictly decoded the file this
/// startup ([`LiveHandle::spawn_recovered`]).
fn open_log(path: &Path, lineage: &LogHeader, verify_existing: bool) -> Result<File, LiveError> {
    let io = |e: std::io::Error| LiveError::Io(format!("{}: {e}", path.display()));
    let existing_len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    if existing_len > 0 && verify_existing {
        let bytes = std::fs::read(path).map_err(io)?;
        decode_log(&bytes).map_err(|e| {
            LiveError::Io(format!(
                "{}: refusing to append to a damaged event log ({e}); \
                 truncate the torn tail or recover with `taxrec replay --lossy`",
                path.display()
            ))
        })?;
    }
    let mut file = OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .map_err(io)?;
    if existing_len == 0 {
        let mut header = Vec::new();
        encode_log_header(&mut header, lineage);
        file.write_all(&header).map_err(io)?;
        file.flush().map_err(io)?;
    }
    Ok(file)
}

/// Restart the log as a bare header stamped with the just-snapshotted
/// state's lineage (the snapshot captured everything the log
/// contained). Atomic and durable — the temp file is fsynced before
/// the rename and the parent directory after it — so neither a failure
/// mid-rotation nor a power loss just after it can leave a headerless,
/// partial, or zero-length log that a loader would misread.
fn rotate_log(path: &Path, lineage: &LogHeader) -> Result<File, LiveError> {
    let io = |e: std::io::Error| LiveError::Io(format!("{}: {e}", path.display()));
    let mut header = Vec::new();
    encode_log_header(&mut header, lineage);
    let tmp = path.with_extension("log.tmp");
    {
        let mut f = File::create(&tmp).map_err(io)?;
        f.write_all(&header).map_err(io)?;
        f.sync_all().map_err(io)?;
    }
    std::fs::rename(&tmp, path).map_err(io)?;
    sync_parent_dir(path);
    OpenOptions::new().append(true).open(path).map_err(io)
}

/// Best-effort fsync of `path`'s parent directory, making a just-done
/// rename durable across power loss. Errors are ignored: not every
/// platform/filesystem lets a directory be opened and synced, and the
/// rename itself already succeeded.
fn sync_parent_dir(path: &Path) {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if let Ok(dir) = File::open(parent) {
        let _ = dir.sync_all();
    }
}

fn applier(
    mut state: LiveState,
    config: LiveConfig,
    mut log: Option<File>,
    cell: Arc<ModelCell>,
    stats: Arc<LiveStats>,
    repl: Option<Arc<ReplicationHub>>,
    rx: mpsc::Receiver<Command>,
) {
    let mut since_snapshot = 0u64;
    let mut log_buf = Vec::new();
    // Per-batch record bytes + post-apply shape, handed to the
    // replication hub only once the WAL flush and publish succeed.
    let mut repl_batch: Vec<(Vec<u8>, u64, u64)> = Vec::new();
    let tracer = config.obs.tracer();
    // Set when a WAL write fails: acked-but-unlogged events would break
    // the recovery law, so the applier stops accepting updates.
    let mut degraded = false;
    // Arena counters already published, so each apply adds its delta.
    let mut arena_seen = (state.arena_recycles(), state.arena_copies());
    loop {
        let Ok(first) = rx.recv() else { break };
        // Drain a batch: everything already queued, up to the cap, is
        // folded into one WAL flush + publish.
        let mut batch = vec![first];
        while batch.len() < config.batch_cap.max(1) {
            match rx.try_recv() {
                Ok(cmd) => batch.push(cmd),
                Err(_) => break,
            }
        }

        log_buf.clear();
        repl_batch.clear();
        // Write-path trace: one trace per applied batch, with spans for
        // validate/apply, the two WAL halves, and the publish. Dropped
        // unfinished for batches that apply nothing (flush-only, all
        // rejected) so the journal holds real write work only.
        let mut trace = tracer.start("apply");
        let t_validate = trace.as_ref().map(|t| t.clock());
        let mut pending: Vec<(mpsc::Sender<Result<AppliedUpdate, LiveError>>, Applied)> =
            Vec::new();
        let mut flushes = Vec::new();
        let mut snapshot_requests = Vec::new();
        let mut shutdown = false;
        for cmd in batch {
            match cmd {
                Command::Apply(ev, reply) => {
                    if degraded {
                        stats.inc_rejected();
                        let _ = reply.send(Err(LiveError::Io(
                            "event log write failed earlier; updates disabled \
                             (restart the server to recover)"
                                .into(),
                        )));
                        continue;
                    }
                    // Validate first so only applicable events reach
                    // the WAL; then apply. `validate` mirrors `apply`'s
                    // failure cases exactly, so the apply cannot fail.
                    match state.validate(&ev) {
                        Ok(()) => {
                            let record_start = log_buf.len();
                            encode_event(&mut log_buf, &ev);
                            let t_apply = std::time::Instant::now();
                            let applied = state.apply(&ev).expect("validated event must apply");
                            stats.record_apply(&applied, t_apply.elapsed());
                            let arena_now = (state.arena_recycles(), state.arena_copies());
                            stats.add_arena(arena_now.0 - arena_seen.0, arena_now.1 - arena_seen.1);
                            arena_seen = arena_now;
                            if repl.is_some() {
                                repl_batch.push((
                                    log_buf[record_start..].to_vec(),
                                    state.model().num_users() as u64,
                                    state.model().num_items() as u64,
                                ));
                            }
                            // Stats are deferred until the WAL append
                            // succeeds: an event nacked by a WAL failure
                            // must count as rejected, not applied.
                            pending.push((reply, applied));
                        }
                        Err(e) => {
                            stats.inc_rejected();
                            let _ = reply.send(Err(e));
                        }
                    }
                }
                Command::Flush(reply) => flushes.push(reply),
                Command::Snapshot(reply) => snapshot_requests.push(reply),
                Command::Shutdown => shutdown = true,
            }
        }

        if let (Some(t), Some(start)) = (trace.as_mut(), t_validate) {
            t.close("validate_apply", start);
        }

        // WAL before visibility: if the append fails, nothing from this
        // batch is published or acked, and updates are disabled. The
        // two halves of the ack critical path — buffer write and flush
        // — are timed separately into the WAL histograms.
        let mut wal_ok = true;
        if !log_buf.is_empty() {
            if let Some(f) = &mut log {
                let t_span_append = trace.as_ref().map(|t| t.clock());
                let t_append = std::time::Instant::now();
                let appended = f.write_all(&log_buf);
                let append_took = t_append.elapsed();
                if let (Some(t), Some(start)) = (trace.as_mut(), t_span_append) {
                    t.close("wal_append", start);
                }
                let t_span_fsync = trace.as_ref().map(|t| t.clock());
                let t_fsync = std::time::Instant::now();
                let flushed = appended.and_then(|_| f.flush());
                let fsync_took = t_fsync.elapsed();
                if let (Some(t), Some(start)) = (trace.as_mut(), t_span_fsync) {
                    t.close("wal_fsync", start);
                }
                match flushed {
                    Ok(()) => {
                        stats.add_log_bytes(log_buf.len() as u64);
                        stats.record_wal(append_took, fsync_took);
                    }
                    Err(_) => {
                        stats.inc_log_errors();
                        stats.set_degraded();
                        degraded = true;
                        wal_ok = false;
                    }
                }
            }
        }

        if !pending.is_empty() && !wal_ok {
            // Nacked events are never shipped to followers either.
            repl_batch.clear();
            for (reply, _) in pending.drain(..) {
                stats.inc_rejected();
                let _ = reply.send(Err(LiveError::Io(
                    "event log write failed; update not accepted".into(),
                )));
            }
        }

        if !pending.is_empty() {
            for (_, applied) in &pending {
                match applied {
                    Applied::ItemAdded { .. } => stats.inc_items_added(),
                    Applied::UserFolded { .. } => stats.inc_users_folded(),
                    Applied::UserRefolded { .. } => stats.inc_users_refolded(),
                }
                stats.inc_applied();
            }
            since_snapshot += pending.len() as u64;
            // Build the successor outside any lock, swap, then reply:
            // a submitter that hears back can immediately load() an
            // engine containing its update. The whole derivation is
            // structural sharing — `state.model().clone()` and the
            // scorer/shard table clones inside `next_from` bump chunk
            // refcounts, they do not copy factors — so this block is
            // O(rows touched by the batch), independent of how many
            // rows earlier batches appended; the histogram, the chunk
            // counters and the copied-bytes counter prove it in
            // production.
            let t_span_publish = trace.as_ref().map(|t| t.clock());
            let t_publish = std::time::Instant::now();
            let prev = cell.load();
            let next = LiveEngine::next_from(&prev, &state);
            let epoch = next.epoch();
            let (shared, copied) = next.model().chunk_sharing_with(prev.model());
            let copied_bytes = next.copied_bytes_since(&prev);
            stats.set_model_bytes(next.model());
            cell.publish(next);
            stats.inc_publishes();
            stats.record_publish(t_publish.elapsed(), shared, copied, copied_bytes);
            // Release the retired epoch now, not at the end of the
            // block: once its readers are done, the taxonomy arena it
            // shares with the state's spare is free for the next add.
            drop(prev);
            // Commit to the replication stream only now: the batch is
            // durably logged and visible to local readers, so shipping
            // it cannot expose a follower to anything a leader restart
            // would not also recover.
            if let Some(hub) = &repl {
                hub.commit(std::mem::take(&mut repl_batch));
            }
            if let (Some(t), Some(start)) = (trace.as_mut(), t_span_publish) {
                t.close("publish", start);
            }
            // The batch applied real events: the write-path trace is
            // complete, hand it to the sampler.
            if let Some(t) = trace.take() {
                tracer.finish(t);
            }
            for (reply, applied) in pending {
                let _ = reply.send(Ok(AppliedUpdate { applied, epoch }));
            }

            if config.snapshot_every > 0 && since_snapshot >= config.snapshot_every {
                let _ = snapshot_and_rotate(
                    &config,
                    &state,
                    &mut log,
                    &mut since_snapshot,
                    &mut degraded,
                    &stats,
                );
            }
        }

        // Explicit snapshot requests (graceful shutdown): refuse while
        // degraded — the in-memory state may then hold applied-but-
        // unacknowledged events, and persisting them as acked would
        // break the recovery law.
        if !snapshot_requests.is_empty() {
            let result = if degraded {
                Err(LiveError::Io(
                    "event log write failed earlier; refusing to snapshot \
                     possibly-unacknowledged state"
                        .into(),
                ))
            } else {
                snapshot_and_rotate(
                    &config,
                    &state,
                    &mut log,
                    &mut since_snapshot,
                    &mut degraded,
                    &stats,
                )
            };
            for reply in snapshot_requests {
                let _ = reply.send(result.clone());
            }
        }

        for reply in flushes {
            let _ = reply.send(());
        }
        if shutdown {
            break;
        }
    }
}

/// Write a snapshot and restart the log, shared by the periodic path
/// and explicit [`LiveHandle::snapshot_now`] requests.
///
/// The snapshot covers every logged event: the log is restarted
/// (stamped with the snapshot's lineage) so recovery replays only what
/// the snapshot missed. If a crash lands between the two writes, the
/// stale log's lineage no longer matches the snapshot and loaders
/// refuse the pair instead of double-applying. A failed rotation
/// degrades like a failed WAL append: continuing to ack against a log
/// we could not restart would break the recovery law. Returns
/// `Ok(false)` when no snapshot path is configured.
fn snapshot_and_rotate(
    config: &LiveConfig,
    state: &LiveState,
    log: &mut Option<File>,
    since_snapshot: &mut u64,
    degraded: &mut bool,
    stats: &LiveStats,
) -> Result<bool, LiveError> {
    let Some(snap_path) = &config.snapshot_path else {
        return Ok(false);
    };
    match write_snapshot(snap_path, state) {
        Ok(()) => {
            stats.inc_snapshots();
            *since_snapshot = 0;
            if let Some(log_path) = &config.log_path {
                match rotate_log(log_path, &lineage_of(state)) {
                    Ok(f) => *log = Some(f),
                    Err(e) => {
                        stats.inc_log_errors();
                        stats.set_degraded();
                        *degraded = true;
                        *log = None;
                        return Err(e);
                    }
                }
            }
            Ok(true)
        }
        Err(e) => {
            stats.inc_log_errors();
            Err(e)
        }
    }
}

/// Write a live snapshot atomically and durably (temp file fsynced
/// before the rename, parent directory after — same discipline as
/// [`rotate_log`]).
fn write_snapshot(path: &Path, state: &LiveState) -> Result<(), LiveError> {
    let io = |e: std::io::Error| LiveError::Io(format!("{}: {e}", path.display()));
    let tmp = path.with_extension("tfm.tmp");
    {
        let mut f = File::create(&tmp).map_err(io)?;
        f.write_all(&encode_live(state)).map_err(io)?;
        f.sync_all().map_err(io)?;
    }
    std::fs::rename(&tmp, path).map_err(io)?;
    sync_parent_dir(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::live::snapshot::decode_live;
    use crate::live::{decode_log, replay};
    use crate::train::TfTrainer;
    use taxrec_dataset::{DatasetConfig, SyntheticDataset};
    use taxrec_taxonomy::{ItemId, NodeId};

    fn fixture() -> (SyntheticDataset, LiveState) {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(150), 31);
        let m = TfTrainer::new(
            ModelConfig::tf(4, 1).with_factors(6).with_epochs(1),
            &d.taxonomy,
        )
        .fit(&d.train, 1);
        (d, LiveState::new(m))
    }

    fn some_parent(state: &LiveState) -> NodeId {
        let tax = state.model().taxonomy();
        tax.parent(tax.item_node(ItemId(0))).unwrap()
    }

    fn tmpdir(tag: &str) -> crate::TempDir {
        crate::TempDir::new(&format!("taxrec-live-queue-{tag}"))
    }

    #[test]
    fn submit_add_item_becomes_visible() {
        let (_, state) = fixture();
        let parent = some_parent(&state);
        let items_before = state.model().num_items();
        let handle = LiveHandle::spawn(state, LiveConfig::default()).unwrap();
        let got = handle.submit(UpdateEvent::AddItem { parent }).unwrap();
        assert!(matches!(
            got.applied,
            Applied::ItemAdded { item, .. } if item.index() == items_before
        ));
        let snap = handle.cell().load();
        assert_eq!(snap.model().num_items(), items_before + 1);
        assert!(snap.epoch() >= got.epoch);
        assert!(snap.verify_consistent());
    }

    #[test]
    fn rejected_events_do_not_publish() {
        let (_, state) = fixture();
        let leaf = state.model().taxonomy().item_node(ItemId(3));
        let handle = LiveHandle::spawn(state, LiveConfig::default()).unwrap();
        let before = handle.cell().epoch();
        let err = handle.submit(UpdateEvent::AddItem { parent: leaf });
        assert!(err.is_err());
        assert_eq!(handle.cell().epoch(), before);
        assert_eq!(handle.stats().snapshot().rejected, 1);
        assert_eq!(handle.stats().snapshot().applied, 0);
    }

    #[test]
    fn log_and_snapshot_rotation() {
        let (d, state) = fixture();
        let dir = tmpdir("rotation");
        let log_path = dir.join("events.log");
        let snap_path = dir.join("snap.tfm");
        let parent = some_parent(&state);
        let cfg = LiveConfig {
            snapshot_every: 4,
            batch_cap: 1, // deterministic publish-per-event for the test
            log_path: Some(log_path.clone()),
            snapshot_path: Some(snap_path.clone()),
            ..LiveConfig::default()
        };
        let handle = LiveHandle::spawn(state, cfg).unwrap();
        for i in 0..6u64 {
            if i % 2 == 0 {
                handle.submit(UpdateEvent::AddItem { parent }).unwrap();
            } else {
                handle
                    .submit(UpdateEvent::FoldInUser {
                        history: d.train.user(i as usize).to_vec(),
                        steps: 30,
                        seed: i,
                    })
                    .unwrap();
            }
        }
        handle.flush().unwrap();
        let live_model = handle.cell().load().model().clone();
        let stats = handle.stats().snapshot();
        drop(handle);
        assert_eq!(stats.applied, 6);
        assert!(stats.snapshots_written >= 1, "{stats:?}");
        // Recovery: snapshot + remaining log ≡ live state.
        let mut recovered = decode_live(&std::fs::read(&snap_path).unwrap()).unwrap();
        let (header, tail) = decode_log(&std::fs::read(&log_path).unwrap()).unwrap();
        assert!(
            tail.len() < 6,
            "rotated log must not contain snapshotted events"
        );
        // The rotated log's lineage stamps the snapshot it follows.
        assert_eq!(header.base_users as usize, recovered.model().num_users());
        assert_eq!(header.base_items as usize, recovered.model().num_items());
        replay(&mut recovered, &tail).unwrap();
        assert_eq!(recovered.model().num_items(), live_model.num_items());
        assert_eq!(recovered.model().num_users(), live_model.num_users());
        assert_eq!(recovered.model().user_factors, live_model.user_factors);
        assert_eq!(recovered.model().node_factors, live_model.node_factors);
    }

    #[test]
    fn fresh_log_carries_base_lineage() {
        let (_, state) = fixture();
        let dir = tmpdir("lineage");
        let log_path = dir.join("events.log");
        let (users, items) = (state.model().num_users(), state.model().num_items());
        let parent = some_parent(&state);
        let handle = LiveHandle::spawn(
            state,
            LiveConfig {
                log_path: Some(log_path.clone()),
                ..LiveConfig::default()
            },
        )
        .unwrap();
        handle.submit(UpdateEvent::AddItem { parent }).unwrap();
        drop(handle);
        let (header, events) = decode_log(&std::fs::read(&log_path).unwrap()).unwrap();
        assert_eq!(header.base_users as usize, users);
        assert_eq!(header.base_items as usize, items);
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn explicit_snapshot_now_rotates_and_recovers() {
        // Graceful shutdown path: snapshot_now persists the exact live
        // state regardless of the periodic counter, and rotates the log
        // so a restart replays nothing.
        let (d, state) = fixture();
        let dir = tmpdir("snapnow");
        let log_path = dir.join("events.log");
        let snap_path = dir.join("snap.tfm");
        let parent = some_parent(&state);
        let handle = LiveHandle::spawn(
            state,
            LiveConfig {
                snapshot_every: 1000, // periodic path never fires
                log_path: Some(log_path.clone()),
                snapshot_path: Some(snap_path.clone()),
                ..LiveConfig::default()
            },
        )
        .unwrap();
        handle.submit(UpdateEvent::AddItem { parent }).unwrap();
        handle
            .submit(UpdateEvent::FoldInUser {
                history: d.train.user(3).to_vec(),
                steps: 25,
                seed: 9,
            })
            .unwrap();
        assert_eq!(handle.snapshot_now(), Ok(true));
        let live_model = handle.cell().load().model().clone();
        assert_eq!(handle.stats().snapshot().snapshots_written, 1);
        drop(handle);
        // The snapshot alone IS the final state; the rotated log holds
        // zero events and stamps the snapshot's lineage.
        let recovered = decode_live(&std::fs::read(&snap_path).unwrap()).unwrap();
        assert_eq!(recovered.model().user_factors, live_model.user_factors);
        assert_eq!(recovered.model().node_factors, live_model.node_factors);
        let (header, tail) = decode_log(&std::fs::read(&log_path).unwrap()).unwrap();
        assert!(tail.is_empty(), "rotated log must be empty");
        assert_eq!(header.base_users as usize, recovered.model().num_users());
        assert_eq!(header.base_items as usize, recovered.model().num_items());
    }

    #[test]
    fn snapshot_now_without_snapshot_path_is_a_noop() {
        let (_, state) = fixture();
        let handle = LiveHandle::spawn(state, LiveConfig::default()).unwrap();
        assert_eq!(handle.snapshot_now(), Ok(false));
        assert_eq!(handle.stats().snapshot().snapshots_written, 0);
    }

    #[test]
    fn open_log_rejects_foreign_files() {
        let dir = tmpdir("foreign");
        let path = dir.join("not-a-log.bin");
        std::fs::write(&path, b"definitely not an event log").unwrap();
        let lineage = LogHeader {
            base_users: 1,
            base_items: 1,
        };
        assert!(matches!(
            open_log(&path, &lineage, true),
            Err(LiveError::Io(_))
        ));
    }

    #[test]
    fn open_log_refuses_torn_tail() {
        // A crash mid-append leaves a partial record. Appending after it
        // would hide every later record from replay, so open_log must
        // refuse until the tail is truncated away.
        let (_, state) = fixture();
        let dir = tmpdir("torn");
        let log_path = dir.join("events.log");
        let parent = some_parent(&state);
        let lineage = lineage_of(&state);
        let handle = LiveHandle::spawn(
            state,
            LiveConfig {
                log_path: Some(log_path.clone()),
                ..LiveConfig::default()
            },
        )
        .unwrap();
        handle.submit(UpdateEvent::AddItem { parent }).unwrap();
        drop(handle);
        let intact = std::fs::read(&log_path).unwrap();
        // Claim an 8-byte payload but supply only one byte of it.
        let mut torn = intact.clone();
        torn.extend_from_slice(&[8, 0, 0, 0, 1]);
        std::fs::write(&log_path, &torn).unwrap();
        assert!(matches!(
            open_log(&log_path, &lineage, true),
            Err(LiveError::Io(_))
        ));
        // Truncating back to the last whole record makes it appendable.
        std::fs::write(&log_path, &intact).unwrap();
        assert!(open_log(&log_path, &lineage, true).is_ok());
    }

    #[test]
    fn rotation_failure_enters_degraded_mode() {
        // Snapshots land in a healthy dir but the log's dir vanishes, so
        // the post-snapshot rotation fails. The applier must stop acking
        // (degraded mode), not keep appending to a log it cannot restart.
        let (_, state) = fixture();
        let parent = some_parent(&state);
        let log_dir = tmpdir("rotfail-log");
        let snap_dir = tmpdir("rotfail-snap");
        let handle = LiveHandle::spawn(
            state,
            LiveConfig {
                snapshot_every: 2,
                batch_cap: 1,
                log_path: Some(log_dir.join("events.log")),
                snapshot_path: Some(snap_dir.join("snap.tfm")),
                ..LiveConfig::default()
            },
        )
        .unwrap();
        handle.submit(UpdateEvent::AddItem { parent }).unwrap();
        // The open handle keeps the inode alive; only rotation's fresh
        // temp-file write can notice the directory is gone.
        std::fs::remove_dir_all(&log_dir).unwrap();
        handle.submit(UpdateEvent::AddItem { parent }).unwrap();
        let err = handle.submit(UpdateEvent::AddItem { parent });
        assert!(matches!(err, Err(LiveError::Io(_))), "{err:?}");
        let stats = handle.stats().snapshot();
        assert!(stats.log_errors >= 1, "{stats:?}");
        assert_eq!(stats.applied, 2);
    }
}
