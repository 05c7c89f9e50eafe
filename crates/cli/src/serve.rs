//! `taxrec serve` — an HTTP recommendation service over a **live**
//! model (std-only; no framework dependency).
//!
//! ```text
//! taxrec serve --data data/ --model m.tfm --port 8080
//!              [--workers N] [--queue-depth M]
//!              [--live-log events.log] [--snapshot snap.tfm] [--snapshot-every 256]
//!              [--trace-sample 0.01] [--trace-slow-ms 250]
//!              [--user-tier-budget ROWS]
//!              [--replicate-on HOST:PORT | --follow HOST:PORT]
//!
//! GET  /health                             → 200 {"status":"ok"}
//! GET  /model                              → model summary (JSON)
//! GET  /recommend?user=0&top=10            → ranked items (JSON)
//! GET  /recommend?user=0&cascade=0.3       → cascaded beam (cascade < 1)
//! GET  /recommend/batch?users=0-63&top=10  → multi-user batch (JSON)
//! GET  /categories?user=0&level=1          → ranked categories (JSON)
//! GET  /live/stats                         → the metrics registry (JSON)
//! GET  /metrics                            → Prometheus text exposition
//! GET  /live/trace?n=20                    → recent request traces (JSON)
//! POST /items          {"parent": 17}      → add an item under a category
//! POST /users/fold-in  {"history": [[1,2],[3]], "steps": 400, "seed": 7}
//! ```
//!
//! Serving is built on the live subsystem (`taxrec_core::live`) and the
//! worker-pool HTTP layer (`crate::http`): the accept loop hands each
//! `TcpStream` to one of `--workers` threads over a bounded queue
//! (`--queue-depth`); when the queue is full the connection is refused
//! immediately with `503` + `Retry-After` instead of stalling the
//! accept loop. Every GET loads the current epoch's immutable snapshot
//! from a [`taxrec_core::live::ModelCell`] and scores against it —
//! readers scale with cores — while POSTs enqueue update events for the
//! single applier thread, which publishes a new snapshot (and appends
//! the event to the `--live-log` WAL) without blocking readers.
//! `--snapshot`/`--snapshot-every` bound recovery time (see
//! `docs/guide/serving.md`).
//!
//! `--user-tier-budget ROWS` caps resident user-factor rows: the user
//! matrix moves into a hot/cold tier (`taxrec_core::tier`), cold rows
//! are faulted back on demand, and served scores stay bit-identical to
//! a fully-resident server (`docs/guide/architecture.md` § User-factor
//! tiering). Works on leaders and followers alike.
//!
//! Replication (`docs/guide/serving.md` § Replication): a leader
//! (`--replicate-on`) streams every committed WAL record to follower
//! processes (`--follow`), which apply them through the same
//! validate → WAL → publish path and serve reads from their own
//! engines; follower POSTs are refused with a 403 naming the leader.
//!
//! Observability: every metric the server records lives in one
//! [`taxrec_core::obs::MetricsRegistry`], scraped at `GET /metrics`;
//! `--trace-sample R` captures a fraction of recommend/apply requests
//! as structured span trees and `--trace-slow-ms T` always captures
//! requests slower than `T` ms, both readable at `GET /live/trace`
//! (see `docs/guide/observability.md`).
//!
//! Errors are structured JSON — `{"error": "..."}` with 400 (bad
//! request), 404 (unknown route), 405 (wrong method, with `allow`), or
//! 503 (backpressure / applier unavailable).

use crate::http::conn::{self, CLIENT_IO_TIMEOUT};
use crate::http::metrics::HttpMetrics;
use crate::http::pool::{SubmitError, WorkerPool};
use crate::store::DataDir;
use crate::{CliArgs, CliError};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use taxrec_core::live::replication::{self, FollowerStats, ReplicationListener};
use taxrec_core::live::{
    decode_log_lossy, replay, snapshot::decode_live, LiveConfig, LiveEngine, LiveHandle, LiveState,
    LogHeader, UpdateEvent,
};
use taxrec_core::Obs;
use taxrec_dataset::{PurchaseLog, Transaction};
use taxrec_taxonomy::ItemId;

pub use crate::http::router::{route, Response};

/// The replication role this serving process plays (see
/// `docs/guide/serving.md` § Replication).
pub enum ReplRole {
    /// No replication configured (the default).
    Standalone,
    /// Streaming committed WAL records to followers; the listener's
    /// accept loop lives as long as the server.
    Leader {
        /// The replication listener (dropping it closes the stream).
        listener: ReplicationListener,
    },
    /// Applying a leader's record stream; HTTP writes are refused with
    /// a 403 pointing at the leader.
    Follower {
        /// The leader's replication address (`host:port`).
        leader: String,
        /// Follower-side lag/applied/reconnect metrics.
        stats: Arc<FollowerStats>,
    },
}

/// The serving frontend: the live subsystem plus the read-only data-dir
/// state (training histories, item names) and the HTTP metrics shared
/// by every worker.
pub struct LiveServer {
    train: PurchaseLog,
    item_names: Option<Vec<String>>,
    live: LiveHandle,
    obs: Arc<Obs>,
    metrics: Arc<HttpMetrics>,
    fold_seed: std::sync::atomic::AtomicU64,
    repl: ReplRole,
    /// Cores read once at construction: the default and the cap of a
    /// batch read's `threads=`.
    cores: usize,
}

impl LiveServer {
    /// Spawn the live subsystem over `state` and wrap it for HTTP.
    ///
    /// `state.base_users()` must match the training log — trained users
    /// resolve their histories there; folded users carry their own.
    pub fn new(
        state: LiveState,
        train: PurchaseLog,
        item_names: Option<Vec<String>>,
        config: LiveConfig,
    ) -> Result<LiveServer, CliError> {
        LiveServer::new_inner(state, train, item_names, config, false)
    }

    fn new_inner(
        state: LiveState,
        train: PurchaseLog,
        item_names: Option<Vec<String>>,
        config: LiveConfig,
        wal_already_verified: bool,
    ) -> Result<LiveServer, CliError> {
        if state.base_users() != train.num_users() {
            return Err(CliError::Data(format!(
                "model was trained on {} users, data dir has {}",
                state.base_users(),
                train.num_users()
            )));
        }
        // The server and the applier share one registry (and one
        // tracer): /metrics exposes HTTP, applier, and scan families
        // from the same atomics the JSON stats read.
        let obs = Arc::clone(&config.obs);
        let metrics = Arc::new(HttpMetrics::new(obs.registry()));
        let live = if wal_already_verified {
            LiveHandle::spawn_recovered(state, config)
        } else {
            LiveHandle::spawn(state, config)
        }
        .map_err(|e| CliError::Data(format!("starting live subsystem: {e}")))?;
        Ok(LiveServer {
            train,
            item_names,
            live,
            obs,
            metrics,
            fold_seed: std::sync::atomic::AtomicU64::new(0),
            repl: ReplRole::Standalone,
            cores: crate::cores(),
        })
    }

    /// Load everything `taxrec serve` needs from disk: the data dir,
    /// the model (plain `.tfm` or a live snapshot with folded users),
    /// and — if `config.log_path` names an existing log — the events to
    /// replay on top of it before serving resumes.
    ///
    /// The WAL is read and decoded **once**: [`load_wal`] repairs a
    /// crash-torn tail and yields the verified header + events, which
    /// are then threaded through base-state resolution
    /// ([`resolve_base_state`]), replay ([`replay_wal`]) and the
    /// applier spawn ([`LiveHandle::spawn_recovered`]) instead of each
    /// step re-reading and re-decoding the file.
    pub fn load(
        data: &DataDir,
        model_path: &str,
        config: LiveConfig,
    ) -> Result<LiveServer, CliError> {
        let wal = load_wal(&config)?;
        let (mut state, base_desc) = resolve_base_state(model_path, &config, wal.as_ref())?;
        if let Some(wal) = &wal {
            replay_wal(&mut state, wal, &base_desc)?;
        }
        let train = data.train()?;
        LiveServer::new_inner(state, train, data.item_names()?, config, wal.is_some())
    }

    /// The live handle (stats, direct event submission — used by tests
    /// and the bench harness).
    pub fn live(&self) -> &LiveHandle {
        &self.live
    }

    /// The cores read when the server was built: a batch read's
    /// `threads=` defaults to them and is capped at them.
    pub(crate) fn cores(&self) -> usize {
        self.cores
    }

    /// This process's replication role.
    pub fn repl_role(&self) -> &ReplRole {
        &self.repl
    }

    /// The leader address when this server is a follower (HTTP writes
    /// are then refused and redirected there).
    pub(crate) fn follower_leader(&self) -> Option<&str> {
        match &self.repl {
            ReplRole::Follower { leader, .. } => Some(leader),
            _ => None,
        }
    }

    /// Become a replication leader: start streaming committed WAL
    /// records on `listener`. The live subsystem must have been spawned
    /// with [`LiveConfig::replicate`] set (so the applier retains
    /// committed records). Returns the bound address.
    pub fn start_replication(&mut self, listener: TcpListener) -> Result<SocketAddr, CliError> {
        let hub = self.live.replication().cloned().ok_or_else(|| {
            CliError::Usage(
                "replication requires the live subsystem to retain records \
                 (LiveConfig { replicate: true, .. })"
                    .into(),
            )
        })?;
        let listener = ReplicationListener::spawn(listener, hub)
            .map_err(|e| CliError::Data(format!("starting replication listener: {e}")))?;
        let addr = listener.addr();
        self.repl = ReplRole::Leader { listener };
        Ok(addr)
    }

    /// Become a follower of `leader` (a replication address): HTTP
    /// writes are refused from here on, and the returned stats feed
    /// `/live/stats` + `/metrics`. The caller starts the apply loop
    /// with [`spawn_follow`] once the server is behind an `Arc`.
    pub fn set_follower(&mut self, leader: String) -> Arc<FollowerStats> {
        let stats = Arc::new(FollowerStats::new(self.obs.registry()));
        self.repl = ReplRole::Follower {
            leader,
            stats: Arc::clone(&stats),
        };
        stats
    }

    /// The HTTP serving metrics (per-route counters, latency histogram).
    pub fn http_metrics(&self) -> &Arc<HttpMetrics> {
        &self.metrics
    }

    /// The shared observability bundle: the unified metrics registry
    /// (`GET /metrics`) and the request tracer (`GET /live/trace`).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// A process-unique default seed for a seedless `POST
    /// /users/fold-in`. A dedicated atomic, not a stats read: two
    /// workers handling seedless fold-ins concurrently must never
    /// draw the same seed (the old single-threaded accept loop made
    /// the stats-counter default unique by accident).
    pub(crate) fn next_fold_seed(&self) -> u64 {
        self.fold_seed
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Append item `i`'s label to `out` as a JSON string literal.
    pub(crate) fn write_item_label(&self, out: &mut String, i: ItemId) {
        use std::fmt::Write;
        match self.item_names.as_ref().and_then(|n| n.get(i.index())) {
            Some(name) => crate::json::write_json_str(out, name),
            // `i<id>` holds nothing to escape.
            None => {
                let _ = write!(out, "\"{i}\"");
            }
        }
    }

    /// The history a user's Markov term conditions on: the training log
    /// for trained users, the fold-in history for live users.
    pub(crate) fn history_for<'a>(
        &'a self,
        snap: &'a LiveEngine,
        user: usize,
    ) -> &'a [Transaction] {
        if user < snap.base_users() {
            self.train.user(user)
        } else {
            snap.folded_history(user).unwrap_or(&[])
        }
    }

    /// Items to exclude (already purchased), sorted ascending.
    pub(crate) fn exclude_for(&self, snap: &LiveEngine, user: usize) -> Vec<ItemId> {
        if user < snap.base_users() {
            self.train.distinct_items(user)
        } else {
            let mut items: Vec<ItemId> = self
                .history_for(snap, user)
                .iter()
                .flatten()
                .copied()
                .collect();
            items.sort_unstable();
            items.dedup();
            items
        }
    }
}

/// The event log, read and decoded **once** at startup: the verified
/// lineage header and events, with any crash-torn tail already repaired
/// on disk. Every startup consumer — base-state resolution, replay, and
/// the applier's append-mode open — works from this instead of
/// re-reading and re-decoding the file.
struct LoadedWal {
    log_path: std::path::PathBuf,
    header: LogHeader,
    events: Vec<UpdateEvent>,
}

/// Read `config.log_path` (if configured and non-empty) and decode it
/// exactly once, repairing a crash-torn tail first: the torn bytes are
/// truncated off the file (saved aside as `<log>.log.torn`), because
/// the applier must never append after undecodable bytes — records
/// written there would be invisible to every future replay, silently
/// losing acked updates on the *next* recovery. After repair the file
/// strictly decodes to exactly `events`.
fn load_wal(config: &LiveConfig) -> Result<Option<LoadedWal>, CliError> {
    let Some(log_path) = &config.log_path else {
        return Ok(None);
    };
    if std::fs::metadata(log_path).map(|m| m.len()).unwrap_or(0) == 0 {
        return Ok(None);
    }
    let log_bytes = std::fs::read(log_path)?;
    let (header, events, ignored) = decode_log_lossy(&log_bytes)
        .map_err(|e| CliError::Data(format!("{}: {e}", log_path.display())))?;
    if ignored > 0 {
        // The usual cause is a crash mid-append (a partial final
        // record), but `ignored` covers everything past the *first*
        // undecodable byte — after mid-log corruption that can include
        // still-valid later records. Save the cut bytes aside before
        // truncating so nothing is destroyed that a human (or
        // `taxrec replay --lossy`) might still salvage.
        let torn_path = log_path.with_extension("log.torn");
        std::fs::write(&torn_path, &log_bytes[log_bytes.len() - ignored..])?;
        eprintln!(
            "taxrec serve: truncating {ignored} undecodable trailing bytes of {} \
             (crash mid-append?); saved aside as {}",
            log_path.display(),
            torn_path.display()
        );
        let file = std::fs::OpenOptions::new().write(true).open(log_path)?;
        file.set_len((log_bytes.len() - ignored) as u64)?;
        file.sync_all()?;
    }
    Ok(Some(LoadedWal {
        log_path: log_path.clone(),
        header,
        events,
    }))
}

/// Pick the base state the event log replays over. Normally `--model`;
/// but once a snapshot has rotated the log, the log's lineage no longer
/// matches the original model — if `--snapshot` names a snapshot whose
/// shape *does* match, resume from it, so the documented command line
/// (same `--model` every restart) stays restart-safe across rotations.
/// Returns the state and a description of where it came from (for
/// error messages).
fn resolve_base_state(
    model_path: &str,
    config: &LiveConfig,
    wal: Option<&LoadedWal>,
) -> Result<(LiveState, String), CliError> {
    let bytes = std::fs::read(model_path)?;
    let state = decode_live(&bytes).map_err(|e| CliError::Data(format!("{model_path}: {e}")))?;
    let from_model = |state| Ok((state, model_path.to_string()));
    let (Some(wal), Some(snap_path)) = (wal, &config.snapshot_path) else {
        return from_model(state);
    };
    if wal.header.matches_model(state.model()) {
        return from_model(state);
    }
    let snap_bytes = match std::fs::read(snap_path) {
        Ok(b) => b,
        // No snapshot yet → fall through to the guided lineage error.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return from_model(state),
        // An existing-but-unreadable snapshot must surface its real
        // cause, not the misleading "restart with --model <snapshot>".
        Err(e) => {
            return Err(CliError::Data(format!("{}: {e}", snap_path.display())));
        }
    };
    let snap_state = decode_live(&snap_bytes)
        .map_err(|e| CliError::Data(format!("{}: {e}", snap_path.display())))?;
    if wal.header.matches_model(snap_state.model()) {
        eprintln!(
            "taxrec serve: {} was rotated past {model_path}; resuming from snapshot {}",
            wal.log_path.display(),
            snap_path.display()
        );
        return Ok((snap_state, snap_path.display().to_string()));
    }
    from_model(state)
}

/// Replay the already-decoded event log over `state`.
fn replay_wal(state: &mut LiveState, wal: &LoadedWal, model_path: &str) -> Result<(), CliError> {
    // Lineage check: the log's events apply to a specific base state.
    // Replaying them over any other (e.g. the pre-snapshot model after
    // the log was rotated) would silently lose acked updates.
    if !wal.header.matches_model(state.model()) {
        return Err(CliError::Data(format!(
            "{}: event log starts from a state with {} users / {} items, \
             but {model_path} has {} / {} — the log was likely rotated by a \
             snapshot; restart with --model <snapshot> instead",
            wal.log_path.display(),
            wal.header.base_users,
            wal.header.base_items,
            state.model().num_users(),
            state.model().num_items(),
        )));
    }
    replay(state, &wal.events)
        .map_err(|e| CliError::Data(format!("replaying {}: {e}", wal.log_path.display())))?;
    if !wal.events.is_empty() {
        eprintln!(
            "taxrec serve: replayed {} events from {}",
            wal.events.len(),
            wal.log_path.display()
        );
    }
    Ok(())
}

/// Start the follower apply loop on its own thread: connect to the
/// leader recorded by [`LiveServer::set_follower`], stream records into
/// the local applier, reconnect with backoff on socket failures. The
/// thread ends when `stop` is set, or on a fatal replication error
/// (lineage mismatch, local apply failure) — which it logs to stderr.
/// No-op (immediate return) when the server is not a follower.
pub fn spawn_follow(server: Arc<LiveServer>, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("taxrec-repl-follow".into())
        .spawn(move || {
            let ReplRole::Follower { leader, stats } = server.repl_role() else {
                return;
            };
            let (leader, stats) = (leader.clone(), Arc::clone(stats));
            if let Err(e) = replication::follow(&leader, server.live(), &stats, &stop) {
                eprintln!("taxrec serve: follower replication stopped: {e}");
            }
        })
        .expect("spawning follower thread")
}

/// Default worker-pool width: one per core, at least 2 (so a single
/// stalled client never serializes the server even on a 1-core box),
/// capped at 64.
pub fn default_workers() -> usize {
    crate::cores().clamp(2, 64)
}

/// How the pooled accept loop runs. `Default` matches the CLI defaults.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads handling connections (min 1).
    pub workers: usize,
    /// Bounded queue depth between the accept loop and the workers;
    /// connections beyond `workers + queue_depth` in flight are
    /// 503-rejected (min 1).
    pub queue_depth: usize,
    /// Stop after accepting this many connections (tests/benches);
    /// `None` = serve forever.
    pub max_conns: Option<usize>,
    /// Cooperative stop flag: checked whenever a connection arrives, so
    /// a controller sets it and then makes one dummy connection to
    /// unblock the accept loop.
    pub stop: Option<Arc<AtomicBool>>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: default_workers(),
            queue_depth: 64,
            max_conns: None,
            stop: None,
        }
    }
}

/// The pooled accept loop: hand each accepted stream to the worker
/// pool; refuse with `503` + `Retry-After` when the queue is full.
///
/// On exit (stop flag, `max_conns`, or listener error) the shutdown is
/// graceful: the queue is closed and drained — every accepted
/// connection still gets its response — the workers are joined, the
/// applier queue is flushed, and a final snapshot is written (if one is
/// configured) so a restart recovers instantly instead of replaying the
/// whole log.
pub fn serve_on(listener: TcpListener, server: Arc<LiveServer>, opts: ServeOptions) {
    let workers = opts.workers.max(1);
    let queue_depth = opts.queue_depth.max(1);
    server.http_metrics().set_pool(workers, queue_depth);
    let pool: WorkerPool<TcpStream> = WorkerPool::spawn(workers, queue_depth, "taxrec-http", {
        let server = Arc::clone(&server);
        move |stream: TcpStream| conn::handle_connection(stream, &server)
    });
    let mut accepted = 0usize;
    for stream in listener.incoming() {
        if let Some(stop) = &opts.stop {
            if stop.load(Ordering::Relaxed) {
                break;
            }
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_write_timeout(Some(CLIENT_IO_TIMEOUT));
        match pool.submit(stream) {
            Ok(()) => accepted += 1,
            Err(SubmitError::Full(stream)) | Err(SubmitError::Closed(stream)) => {
                conn::reject_busy(stream, 1, server.http_metrics());
            }
        }
        if let Some(max) = opts.max_conns {
            if accepted >= max {
                break;
            }
        }
    }
    // Drain the queue and join the workers before declaring the state
    // final; then persist it.
    pool.shutdown();
    let _ = server.live().flush();
    if let Err(e) = server.live().snapshot_now() {
        eprintln!("taxrec serve: final snapshot failed: {e}");
    }
}

/// `taxrec serve` command: blocks forever handling requests.
pub fn serve(args: &CliArgs) -> Result<String, CliError> {
    let data = DataDir::new(args.require("data")?);
    let trace_sample = args.get("trace-sample", 0.01f64)?;
    if !(0.0..=1.0).contains(&trace_sample) {
        return Err(CliError::Usage(
            "--trace-sample must be between 0.0 and 1.0".into(),
        ));
    }
    let trace_slow_ms = args.get("trace-slow-ms", 250u64)?;
    let replicate_on = args.value("replicate-on").map(str::to_string);
    let follow_addr = args.value("follow").map(str::to_string);
    if replicate_on.is_some() && follow_addr.is_some() {
        return Err(CliError::Usage(
            "--replicate-on and --follow are mutually exclusive \
             (a process is a leader or a follower, not both)"
                .into(),
        ));
    }
    let config = LiveConfig {
        log_path: args.value("live-log").map(Into::into),
        snapshot_path: args.value("snapshot").map(Into::into),
        snapshot_every: args.get("snapshot-every", 256u64)?,
        obs: Obs::shared_with_tracing(trace_sample, trace_slow_ms),
        replicate: replicate_on.is_some(),
        user_tier_budget: args.opt("user-tier-budget")?,
        ..LiveConfig::default()
    };
    if config.snapshot_path.is_some() && config.log_path.is_none() {
        return Err(CliError::Usage(
            "--snapshot requires --live-log (snapshots rotate the event log)".into(),
        ));
    }
    let workers = args.get("workers", default_workers())?;
    let queue_depth = args.get("queue-depth", 64usize)?;
    if workers == 0 {
        return Err(CliError::Usage("--workers must be at least 1".into()));
    }
    if queue_depth == 0 {
        return Err(CliError::Usage("--queue-depth must be at least 1".into()));
    }
    let mut server = LiveServer::load(&data, args.require("model")?, config)?;
    if let Some(repl_addr) = &replicate_on {
        let repl_listener = TcpListener::bind(repl_addr.as_str()).map_err(|e| {
            CliError::Usage(format!("--replicate-on {repl_addr}: cannot bind: {e}"))
        })?;
        let bound = server.start_replication(repl_listener)?;
        eprintln!("taxrec replicating on {bound}");
    }
    if let Some(leader) = &follow_addr {
        // Fail fast on a dead leader or a lineage mismatch before
        // binding the HTTP port: a follower that cannot converge must
        // not serve.
        let snap = server.live().cell().load();
        let (users, items) = (
            snap.model().num_users() as u64,
            snap.model().num_items() as u64,
        );
        drop(snap);
        let hs = replication::probe(leader, users, items)
            .map_err(|e| CliError::Data(format!("--follow {leader}: {e}")))?;
        server.set_follower(leader.clone());
        eprintln!(
            "taxrec following {leader} (resuming at offset {} of {} committed)",
            hs.resume_from, hs.committed
        );
    }
    let server = Arc::new(server);
    let follow_stop = Arc::new(AtomicBool::new(false));
    if matches!(server.repl_role(), ReplRole::Follower { .. }) {
        // The CLI serves until killed; the follower thread dies with
        // the process (the stop flag exists for embedders/tests).
        let _ = spawn_follow(Arc::clone(&server), Arc::clone(&follow_stop));
    }
    let port: u16 = args.get("port", 8080u16)?;
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    eprintln!(
        "taxrec serving on http://{addr} \
         ({workers} workers, queue depth {queue_depth})"
    );
    serve_on(
        listener,
        server,
        ServeOptions {
            workers,
            queue_depth,
            ..ServeOptions::default()
        },
    );
    follow_stop.store(true, Ordering::Relaxed);
    Ok(String::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::json_str;
    use std::io::{Read, Write};
    use taxrec_core::{ModelConfig, TfTrainer};
    use taxrec_dataset::{DatasetConfig, SyntheticDataset};

    fn server_with(config: LiveConfig) -> LiveServer {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(100), 3);
        let model = TfTrainer::new(
            ModelConfig::tf(4, 1).with_factors(4).with_epochs(2),
            &d.taxonomy,
        )
        .fit(&d.train, 1);
        LiveServer::new(LiveState::new(model), d.train, None, config).unwrap()
    }

    fn server() -> LiveServer {
        server_with(LiveConfig::default())
    }

    fn get(s: &LiveServer, path: &str) -> Response {
        route(s, "GET", path, b"")
    }

    fn post(s: &LiveServer, path: &str, body: &str) -> Response {
        route(s, "POST", path, body.as_bytes())
    }

    fn interior_parent(s: &LiveServer) -> u32 {
        let snap = s.live().cell().load();
        let tax = snap.model().taxonomy();
        tax.parent(tax.item_node(ItemId(0))).unwrap().0
    }

    #[test]
    fn health_and_model_routes() {
        let st = server();
        assert_eq!(get(&st, "/health").body, "{\"status\":\"ok\"}");
        let m = get(&st, "/model");
        assert_eq!(m.status, 200);
        assert!(m.body.contains("\"system\":\"TF(4,1)\""), "{}", m.body);
        assert!(m.body.contains("\"epoch\":0"), "{}", m.body);
    }

    #[test]
    fn recommend_route() {
        let st = server();
        let r = get(&st, "/recommend?user=0&top=3");
        assert_eq!(r.status, 200);
        assert_eq!(r.body.matches("\"score\"").count(), 3, "{}", r.body);
        let rc = get(&st, "/recommend?user=0&top=3&cascade=0.3");
        assert_eq!(rc.status, 200);
        assert!(rc.body.contains("recommendations"));
    }

    #[test]
    fn batch_route_matches_single_requests() {
        let st = server();
        let batch = get(&st, "/recommend/batch?users=0-63&top=5&threads=4");
        assert_eq!(batch.status, 200);
        assert!(batch.body.starts_with("{\"batch\":64,"), "{}", batch.body);
        for user in [0usize, 17, 63] {
            let single = get(&st, &format!("/recommend?user={user}&top=5"));
            assert!(
                batch.body.contains(&single.body),
                "batch response diverges for user {user}:\n{}\nnot in\n{}",
                single.body,
                batch.body
            );
        }
    }

    #[test]
    fn batch_route_cascaded() {
        let st = server();
        let r = get(&st, "/recommend/batch?users=1,5,9&top=4&cascade=0.3");
        assert_eq!(r.status, 200);
        assert!(r.body.starts_with("{\"batch\":3,"), "{}", r.body);
        for user in [1usize, 5, 9] {
            let single = get(&st, &format!("/recommend?user={user}&top=4&cascade=0.3"));
            assert!(r.body.contains(&single.body), "user {user}");
        }
    }

    #[test]
    fn huge_top_and_huge_range_do_not_allocate() {
        let st = server();
        let r = get(&st, "/recommend?user=0&top=18446744073709551615");
        assert_eq!(r.status, 200);
        let r = get(&st, "/recommend/batch?users=0-18446744073709551614&top=1");
        assert_eq!(r.status, 400, "{}", r.body);
    }

    #[test]
    fn batch_route_rejects_bad_specs() {
        let st = server();
        for q in [
            "/recommend/batch",
            "/recommend/batch?users=",
            "/recommend/batch?users=abc",
            "/recommend/batch?users=5-2",
            "/recommend/batch?users=0,999999",
            "/recommend/batch?users=0-99999",
        ] {
            let r = get(&st, q);
            assert_eq!(r.status, 400, "{q}");
            assert!(r.body.starts_with("{\"error\":"), "{q}: {}", r.body);
        }
    }

    #[test]
    fn categories_route() {
        let st = server();
        let r = get(&st, "/categories?user=1&level=1");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"categories\""));
        assert_eq!(get(&st, "/categories?user=1&level=99").status, 400);
    }

    #[test]
    fn error_routes_are_structured_json() {
        let st = server();
        for (resp, want_status) in [
            (get(&st, "/recommend"), 400),
            (get(&st, "/recommend?user=999999"), 400),
            (get(&st, "/nope"), 404),
            (post(&st, "/nope", "{}"), 404),
            (post(&st, "/recommend?user=0", ""), 405),
            (get(&st, "/items"), 405),
            (get(&st, "/users/fold-in"), 405),
            (route(&st, "PUT", "/items", b"{}"), 405),
            (route(&st, "DELETE", "/health", b""), 405),
        ] {
            assert_eq!(resp.status, want_status, "{}", resp.body);
            assert!(resp.body.starts_with("{\"error\":"), "{}", resp.body);
        }
        // 405s advertise the allowed method.
        assert!(post(&st, "/recommend", "")
            .body
            .contains("\"allow\":\"GET\""));
        assert!(get(&st, "/items").body.contains("\"allow\":\"POST\""));
    }

    #[test]
    fn post_items_grows_catalog_and_serves_it() {
        let st = server();
        let before = get(&st, "/model");
        let items_before: usize = st.live().cell().load().model().num_items();
        let parent = interior_parent(&st);
        let r = post(&st, "/items", &format!("{{\"parent\": {parent}}}"));
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(
            r.body.contains(&format!("\"item\":{items_before}")),
            "{}",
            r.body
        );
        assert!(r.body.contains("\"epoch\":1"), "{}", r.body);
        let after = get(&st, "/model");
        assert_ne!(before.body, after.body);
        assert!(after.body.contains("\"items_added\":1"), "{}", after.body);

        // Bad parents are client errors with structured bodies.
        let leaf = {
            let snap = st.live().cell().load();
            snap.model().taxonomy().item_node(ItemId(0)).0
        };
        for body in [
            format!("{{\"parent\": {leaf}}}"),
            "{\"parent\": 99999999}".to_string(),
            "{}".to_string(),
            "not json".to_string(),
            String::new(),
        ] {
            let r = post(&st, "/items", &body);
            assert_eq!(r.status, 400, "{body}: {}", r.body);
            assert!(r.body.starts_with("{\"error\":"), "{}", r.body);
        }
    }

    #[test]
    fn post_fold_in_makes_user_servable() {
        let st = server();
        let users_before = st.live().cell().load().model().num_users();
        let r = post(
            &st,
            "/users/fold-in",
            "{\"history\": [[1,2],[3]], \"steps\": 50, \"seed\": 7}",
        );
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(
            r.body.contains(&format!("\"user\":{users_before}")),
            "{}",
            r.body
        );
        // The folded user is immediately servable, conditioned on their
        // fold-in history and excluding its items.
        let rec = get(&st, &format!("/recommend?user={users_before}&top=5"));
        assert_eq!(rec.status, 200, "{}", rec.body);
        assert_eq!(rec.body.matches("\"score\"").count(), 5);
        for bought in ["\"id\":1,", "\"id\":2,", "\"id\":3,"] {
            assert!(!rec.body.contains(bought), "{}", rec.body);
        }
        // And shows up in batch + categories routes too.
        let batch = get(&st, &format!("/recommend/batch?users={users_before}&top=2"));
        assert_eq!(batch.status, 200);
        let cats = get(&st, &format!("/categories?user={users_before}&level=1"));
        assert_eq!(cats.status, 200);

        // Malformed bodies are 400s.
        for body in [
            "{\"history\": []}",
            "{\"history\": [[]]}",
            "{\"history\": [[999999999]]}",
            "{\"history\": \"nope\"}",
            "{\"history\": [[1]], \"steps\": -1}",
            "{}",
        ] {
            let r = post(&st, "/users/fold-in", body);
            assert_eq!(r.status, 400, "{body}: {}", r.body);
        }
    }

    /// Client baskets reach the log sorted and de-duplicated: an
    /// unsorted basket with a repeat folds exactly like its normal form,
    /// and (in a debug build, where negative sampling asserts sorted
    /// baskets) the applier survives it and keeps acking writes.
    #[test]
    fn fold_in_normalises_client_baskets() {
        let st = server();
        let mut users = Vec::new();
        for history in ["[[5,3,3]]", "[[3,5]]"] {
            let body = format!("{{\"history\": {history}, \"steps\": 60, \"seed\": 4}}");
            let r = post(&st, "/users/fold-in", &body);
            assert_eq!(r.status, 200, "{history}: {}", r.body);
            users.push(
                crate::json::parse(&r.body)
                    .unwrap()
                    .get("user")
                    .and_then(crate::json::Json::as_u64)
                    .unwrap() as usize,
            );
        }
        let parent = interior_parent(&st);
        let r = post(&st, "/items", &format!("{{\"parent\": {parent}}}"));
        assert_eq!(r.status, 200, "{}", r.body);
        let snap = st.live().cell().load();
        let factor = |user: usize| {
            let mut out = vec![0.0f32; snap.model().k()];
            snap.model().copy_user_factor(user, &mut out);
            out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        assert_eq!(factor(users[0]), factor(users[1]));
        let normal = vec![vec![ItemId(3), ItemId(5)]];
        for &user in &users {
            assert_eq!(snap.folded_history(user).unwrap(), normal.as_slice());
        }
    }

    /// `GET /live/stats`, parsed.
    fn stats(st: &LiveServer) -> crate::json::Json {
        let r = get(st, "/live/stats");
        assert_eq!(r.status, 200);
        crate::json::parse(&r.body).unwrap_or_else(|e| panic!("{e}: {}", r.body))
    }

    /// An unlabelled counter or gauge in a `/live/stats` body.
    fn stat(stats: &crate::json::Json, family: &str) -> u64 {
        stats
            .get(family)
            .and_then(crate::json::Json::as_u64)
            .unwrap_or_else(|| panic!("no {family} in {}", stats.render()))
    }

    #[test]
    fn live_stats_route_tracks_activity() {
        let st = server();
        let parent = interior_parent(&st);
        let s0 = stats(&st);
        assert_eq!(stat(&s0, "taxrec_live_events_applied_total"), 0);
        assert!(s0.get("taxrec_http_requests_total").is_some());
        post(&st, "/items", &format!("{{\"parent\": {parent}}}"));
        post(&st, "/users/fold-in", "{\"history\": [[0]], \"steps\": 10}");
        let s1 = stats(&st);
        assert_eq!(stat(&s1, "taxrec_live_events_applied_total"), 2);
        assert_eq!(stat(&s1, "taxrec_live_items_added_total"), 1);
        assert_eq!(stat(&s1, "taxrec_live_users_folded_total"), 1);
        // Publish cost is surfaced, and the COW counters prove the
        // successor models shared storage with their predecessors.
        let publish = s1.get("taxrec_live_publish_seconds").expect("publish");
        let p50 = publish.get("p50_us").and_then(crate::json::Json::as_u64);
        assert!(p50 >= Some(1), "{}", s1.render());
        assert!(publish.get("p99_us").is_some(), "{}", s1.render());
        let snap = st.live().stats().snapshot();
        assert_eq!(p50, Some(snap.publish_p50_us));
        let shared = stat(&s1, "taxrec_live_model_shared_chunks_total");
        assert!(shared > 0, "publishes must share chunks: {snap:?}");
        let copied = stat(&s1, "taxrec_live_model_copied_chunks_total");
        assert!(
            (1..=8).contains(&copied),
            "per-event copies must be bounded: {snap:?}"
        );
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn item_labels_are_escaped_into_the_body() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(20), 3);
        let model =
            taxrec_core::untrained_model(ModelConfig::tf(4, 1).with_factors(4), &d.taxonomy, 20, 1);
        // Names for the first half of the catalog only: the rest fall
        // back to `i<id>`.
        let names: Vec<String> = (0..model.num_items() / 2)
            .map(|i| format!("say \"{i}\"\\\n"))
            .collect();
        let top = model.num_items();
        let st = LiveServer::new(
            LiveState::new(model),
            d.train,
            Some(names),
            LiveConfig::default(),
        )
        .unwrap();
        for path in [
            format!("/recommend?user=0&top={top}"),
            format!("/recommend/batch?users=0-2&top={top}"),
        ] {
            let body = get(&st, &path).body;
            assert!(
                body.contains(r#"{"item":"say \"7\"\\\n","id":7,"#),
                "{body}"
            );
            assert!(
                body.contains(&format!(r#"{{"item":"i{0}","id":{0},"#, top - 1)),
                "{body}"
            );
            crate::json::parse(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
        }
    }

    #[test]
    fn fold_in_with_user_field_refolds_in_place() {
        let st = server();
        let r = post(
            &st,
            "/users/fold-in",
            "{\"history\": [[1,2],[3]], \"steps\": 30, \"seed\": 7}",
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let user = crate::json::parse(&r.body)
            .unwrap()
            .get("user")
            .and_then(crate::json::Json::as_u64)
            .unwrap();
        let before = get(&st, &format!("/recommend?user={user}&top=5"));

        // Refold with a replacement history: same user id, new factor,
        // the replaced items (not the originals) excluded from top-K.
        let body =
            format!("{{\"user\": {user}, \"history\": [[5],[8]], \"steps\": 30, \"seed\": 9}}");
        let r = post(&st, "/users/fold-in", &body);
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains(&format!("\"user\":{user}")), "{}", r.body);
        assert!(r.body.contains("\"refolded\":true"), "{}", r.body);
        let after = get(&st, &format!("/recommend?user={user}&top=5"));
        assert_eq!(after.status, 200, "{}", after.body);
        assert_ne!(before.body, after.body, "refold must change the factor");
        for replaced in ["\"id\":5,", "\"id\":8,"] {
            assert!(!after.body.contains(replaced), "{}", after.body);
        }
        // The stats counter distinguishes refolds from first folds.
        let s = stats(&st);
        assert_eq!(stat(&s, "taxrec_live_users_folded_total"), 1);
        assert_eq!(stat(&s, "taxrec_live_users_refolded_total"), 1);

        // Refolding a trained or unknown user is a client error.
        for bad in [0u64, user + 50] {
            let body = format!("{{\"user\": {bad}, \"history\": [[1]], \"steps\": 10}}");
            let r = post(&st, "/users/fold-in", &body);
            assert_eq!(r.status, 400, "user {bad}: {}", r.body);
            assert!(r.body.starts_with("{\"error\":"), "{}", r.body);
        }
    }

    #[test]
    fn live_stats_reports_model_bytes_and_tier() {
        // Untiered server: model bytes per table and sharing kind, and
        // no tier families at all.
        let st = server();
        let s = stats(&st);
        let Some(crate::json::Json::Arr(bytes)) = s.get("taxrec_model_bytes") else {
            panic!("no taxrec_model_bytes array: {}", s.render());
        };
        assert_eq!(bytes.len(), 6, "{}", s.render());
        let user_owned = bytes.iter().find(|b| {
            b.get("table").and_then(crate::json::Json::as_str) == Some("user")
                && b.get("kind").and_then(crate::json::Json::as_str) == Some("owned")
        });
        assert!(user_owned.is_some(), "{}", s.render());
        let total: u64 = bytes
            .iter()
            .filter_map(|b| b.get("value").and_then(crate::json::Json::as_u64))
            .sum();
        assert!(total > 0, "{}", s.render());
        assert!(!s.render().contains("taxrec_tier_"), "{}", s.render());

        // Tiered server: the tier families carry sizes and counters,
        // and reads past the hot budget show up as faults.
        let st = server_with(LiveConfig {
            user_tier_budget: Some(8),
            ..LiveConfig::default()
        });
        for u in 0..40 {
            assert_eq!(get(&st, &format!("/recommend?user={u}&top=3")).status, 200);
        }
        let s = stats(&st);
        assert_eq!(stat(&s, "taxrec_tier_budget_rows"), 8);
        assert_eq!(stat(&s, "taxrec_tier_total_rows"), 100);
        let faults =
            stat(&s, "taxrec_tier_cold_reads_total") + stat(&s, "taxrec_tier_refolds_total");
        assert!(faults > 0, "{}", s.render());
        // The hit rate is hits / (hits + faults); every read counts once.
        let reads = stat(&s, "taxrec_tier_hits_total") + faults;
        assert!(reads >= 40, "{}", s.render());
        // The same families surface in Prometheus text.
        let metrics = get(&st, "/metrics");
        assert_eq!(metrics.status, 200);
        for family in [
            "taxrec_tier_budget_rows",
            "taxrec_tier_cold_reads_total",
            "taxrec_tier_fault_seconds",
            "taxrec_model_bytes",
        ] {
            assert!(metrics.body.contains(family), "missing {family}");
        }
    }

    #[test]
    fn tcp_end_to_end_with_posts() {
        let st = Arc::new(server());
        let parent = interior_parent(&st);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server_thread = std::thread::spawn({
            let st = Arc::clone(&st);
            move || {
                serve_on(
                    listener,
                    st,
                    ServeOptions {
                        workers: 2,
                        queue_depth: 8,
                        max_conns: Some(5),
                        stop: None,
                    },
                )
            }
        });
        let send = |req: String| -> String {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(req.as_bytes()).unwrap();
            let mut buf = String::new();
            conn.read_to_string(&mut buf).unwrap();
            buf
        };
        for path in ["/health", "/recommend?user=2&top=2"] {
            let buf = send(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"));
            assert!(buf.starts_with("HTTP/1.1 200"), "{buf}");
        }
        // POST an item, then a fold-in, over the wire.
        let body = format!("{{\"parent\": {parent}}}");
        let buf = send(format!(
            "POST /items HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
        assert!(buf.starts_with("HTTP/1.1 200"), "{buf}");
        assert!(buf.contains("\"item\":"), "{buf}");
        let body = "{\"history\": [[1,2]], \"steps\": 20, \"seed\": 1}";
        let buf = send(format!(
            "POST /users/fold-in HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
        assert!(buf.starts_with("HTTP/1.1 200"), "{buf}");
        assert!(buf.contains("\"user\":100"), "{buf}");
        // Wrong method over the wire → structured 405.
        let buf = send("DELETE /health HTTP/1.1\r\nHost: x\r\n\r\n".to_string());
        assert!(buf.starts_with("HTTP/1.1 405"), "{buf}");
        assert!(buf.contains("{\"error\":"), "{buf}");
        server_thread.join().unwrap();
        // The pooled loop recorded every wire request.
        let m = st.http_metrics().snapshot();
        assert_eq!(m.connections, 5);
        assert_eq!(m.dropped, 0);
        assert_eq!(m.queue_full, 0);
        // Two hit /health: the GET (200) and the DELETE (405 → 4xx).
        assert_eq!(m.route("/health").requests, 2);
        assert_eq!(m.route("/health").status_4xx, 1);
        assert_eq!(m.route("/items").requests, 1);
    }

    #[test]
    fn torn_wal_tail_is_repaired_and_later_appends_survive_recovery() {
        // Crash mid-append leaves a partial record at the log's tail.
        // Recovery must truncate it before the applier reopens the log
        // for append — otherwise every event acked after the restart
        // lands *behind* the junk and the next recovery silently stops
        // at the junk, dropping acked updates.
        let dir = std::env::temp_dir().join(format!("taxrec-serve-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("events.log");
        let live_cfg = || LiveConfig {
            log_path: Some(log_path.clone()),
            ..LiveConfig::default()
        };

        let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(100), 3);
        let model = TfTrainer::new(
            ModelConfig::tf(4, 1).with_factors(4).with_epochs(2),
            &d.taxonomy,
        )
        .fit(&d.train, 1);
        let items0 = model.num_items();

        // Session 1: one acked event, then a simulated torn append.
        let st = LiveServer::new(
            LiveState::new(model.clone()),
            d.train.clone(),
            None,
            live_cfg(),
        )
        .unwrap();
        let parent = interior_parent(&st);
        assert_eq!(
            post(&st, "/items", &format!("{{\"parent\": {parent}}}")).status,
            200
        );
        drop(st);
        {
            use std::fs::OpenOptions;
            let mut f = OpenOptions::new().append(true).open(&log_path).unwrap();
            // A record claiming a 9-byte payload, cut off after 2 bytes.
            f.write_all(&[9, 0, 0, 0, 1, 3]).unwrap();
        }
        let torn_len = std::fs::metadata(&log_path).unwrap().len();

        // Session 2: recovery repairs the tail, and a fresh event is
        // acked through the repaired log.
        let mut state = LiveState::new(model.clone());
        let wal = load_wal(&live_cfg()).unwrap().expect("log exists");
        replay_wal(&mut state, &wal, "m.tfm").unwrap();
        assert_eq!(state.model().num_items(), items0 + 1);
        assert!(std::fs::metadata(&log_path).unwrap().len() < torn_len);
        // The cut bytes are preserved aside, not destroyed.
        assert_eq!(
            std::fs::read(log_path.with_extension("log.torn")).unwrap(),
            vec![9, 0, 0, 0, 1, 3]
        );
        let st2 = LiveServer::new(state, d.train.clone(), None, live_cfg()).unwrap();
        assert_eq!(
            post(&st2, "/items", &format!("{{\"parent\": {parent}}}")).status,
            200
        );
        drop(st2);

        // Session 3: BOTH acked events survive — the log is strictly
        // intact and replays past where the junk used to sit.
        let (_, events) = taxrec_core::live::decode_log(&std::fs::read(&log_path).unwrap())
            .expect("repaired log must decode strictly");
        assert_eq!(events.len(), 2);
        let mut state = LiveState::new(model);
        let wal = load_wal(&live_cfg()).unwrap().expect("log exists");
        assert_eq!(wal.events.len(), 2, "one read, zero re-decodes");
        replay_wal(&mut state, &wal, "m.tfm").unwrap();
        assert_eq!(state.model().num_items(), items0 + 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_with_original_model_resumes_from_rotated_snapshot() {
        // After a snapshot rotates the log, the log's lineage no longer
        // matches the original --model. A restart under the unchanged
        // command line must resume from the --snapshot automatically
        // instead of hard-erroring until an operator edits the unit file.
        let dir = std::env::temp_dir().join(format!("taxrec-serve-rotate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("m.tfm");
        let cfg = LiveConfig {
            snapshot_every: 2,
            log_path: Some(dir.join("events.log")),
            snapshot_path: Some(dir.join("snap.tfm")),
            ..LiveConfig::default()
        };

        let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(100), 3);
        let model = TfTrainer::new(
            ModelConfig::tf(4, 1).with_factors(4).with_epochs(2),
            &d.taxonomy,
        )
        .fit(&d.train, 1);
        std::fs::write(&model_path, taxrec_core::persist::encode(&model)).unwrap();

        // Session 1: three acked adds → a snapshot lands after the
        // second, rotating the log; the third lives in the rotated log.
        let st = LiveServer::new(
            LiveState::new(model.clone()),
            d.train.clone(),
            None,
            cfg.clone(),
        )
        .unwrap();
        let parent = interior_parent(&st);
        for _ in 0..3 {
            assert_eq!(
                post(&st, "/items", &format!("{{\"parent\": {parent}}}")).status,
                200
            );
        }
        let want_items = st.live().cell().load().model().num_items();
        assert!(st.live().stats().snapshot().snapshots_written >= 1);
        drop(st);

        // Restart with the ORIGINAL model path: the WAL is decoded
        // once, the snapshot is picked as the base, and the rotated
        // log's events replay the third add on top.
        let wal = load_wal(&cfg).unwrap().expect("rotated log exists");
        let (mut state, base_desc) =
            resolve_base_state(model_path.to_str().unwrap(), &cfg, Some(&wal)).unwrap();
        assert_eq!(
            base_desc,
            cfg.snapshot_path.as_ref().unwrap().display().to_string()
        );
        replay_wal(&mut state, &wal, &base_desc).unwrap();
        assert_eq!(state.model().num_items(), want_items);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_then_restart_recovers_live_state() {
        // End-to-end recovery: serve with a WAL, apply updates, kill,
        // reload from the same model + log — identical serving state.
        let dir = std::env::temp_dir().join(format!("taxrec-serve-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("events.log");

        let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(100), 3);
        let model = TfTrainer::new(
            ModelConfig::tf(4, 1).with_factors(4).with_epochs(2),
            &d.taxonomy,
        )
        .fit(&d.train, 1);
        let st = LiveServer::new(
            LiveState::new(model.clone()),
            d.train.clone(),
            None,
            LiveConfig {
                log_path: Some(log_path.clone()),
                ..LiveConfig::default()
            },
        )
        .unwrap();
        let parent = interior_parent(&st);
        assert_eq!(
            post(&st, "/items", &format!("{{\"parent\": {parent}}}")).status,
            200
        );
        assert_eq!(
            post(
                &st,
                "/users/fold-in",
                "{\"history\": [[4]], \"steps\": 25, \"seed\": 2}"
            )
            .status,
            200
        );
        let folded_user = st.live().cell().load().model().num_users() - 1;
        let want = get(&st, &format!("/recommend?user={folded_user}&top=5")).body;
        drop(st);

        // "Restart": replay the WAL over the original model.
        let mut state = LiveState::new(model);
        let (header, events, ignored) =
            decode_log_lossy(&std::fs::read(&log_path).unwrap()).unwrap();
        assert_eq!(ignored, 0);
        assert_eq!(header.base_users as usize, state.model().num_users());
        replay(&mut state, &events).unwrap();
        let st2 = LiveServer::new(state, d.train, None, LiveConfig::default()).unwrap();
        assert_eq!(
            get(&st2, &format!("/recommend?user={folded_user}&top=5")).body,
            want
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backpressure_rejects_with_503_retry_after() {
        // One worker, queue depth 1, and the worker is pinned by a
        // connection that never completes its request: the 3rd+
        // concurrent connection must be refused immediately with a 503
        // carrying Retry-After — not queued without bound, not stalled.
        let st = Arc::new(server());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let server_thread = std::thread::spawn({
            let st = Arc::clone(&st);
            let stop = Arc::clone(&stop);
            move || {
                serve_on(
                    listener,
                    st,
                    ServeOptions {
                        workers: 1,
                        queue_depth: 1,
                        max_conns: None,
                        stop: Some(stop),
                    },
                )
            }
        });
        // Pin the worker: connect and send a partial request line, then
        // wait until it has actually reached the worker.
        let mut pin = TcpStream::connect(addr).unwrap();
        pin.write_all(b"GET /health HT").unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while st.http_metrics().snapshot().connections < 1 {
            assert!(std::time::Instant::now() < deadline, "worker never pinned");
            std::thread::yield_now();
        }
        // Open idle connections one at a time: the first fills the
        // queue, the next must bounce off it. The `queue_full` counter
        // tells us exactly which connection got the 503.
        let mut held = Vec::new();
        let mut rejected = None;
        for _ in 0..10 {
            let c = TcpStream::connect(addr).unwrap();
            let wait = std::time::Instant::now() + std::time::Duration::from_millis(500);
            while st.http_metrics().snapshot().queue_full == 0 && std::time::Instant::now() < wait {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            if st.http_metrics().snapshot().queue_full >= 1 {
                rejected = Some(c);
                break;
            }
            held.push(c);
        }
        let mut c = rejected.expect("queue-full connections were never 503-rejected");
        c.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut buf = String::new();
        let _ = c.read_to_string(&mut buf);
        assert!(buf.starts_with("HTTP/1.1 503"), "{buf}");
        assert!(buf.contains("Retry-After: 1"), "{buf}");
        assert!(buf.contains("server busy"), "{buf}");
        // Unpin everything: the overload must not wedge the server, so
        // a plain health check answers 200 once the queue drains (a 503
        // while the dropped connections are still queued is a retry).
        drop(pin);
        drop(held);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let mut c = TcpStream::connect(addr).unwrap();
            c.set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .unwrap();
            c.write_all(b"GET /health HTTP/1.1\r\n\r\n").unwrap();
            let mut buf = String::new();
            let _ = c.read_to_string(&mut buf);
            if buf.starts_with("HTTP/1.1 200") {
                break;
            }
            assert!(buf.starts_with("HTTP/1.1 503"), "{buf}");
            assert!(
                std::time::Instant::now() < deadline,
                "server unresponsive after the overload drained"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(addr);
        server_thread.join().unwrap();
    }
}
