//! The system under test, assembled in-process through public API only:
//! dataset → trainer → data dir + `.tfm` on disk → `LiveServer::load` →
//! pooled HTTP leader (replicating) + one follower.

use crate::client;
use crate::gen::ReadGen;
use crate::spec::{ReadKind, Workload, WARM_READS};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use taxrec_cli::serve::{serve_on, spawn_follow, LiveServer, ServeOptions};
use taxrec_cli::DataDir;
use taxrec_core::live::replication::FollowerStats;
use taxrec_core::live::{LiveConfig, LiveEngine};
use taxrec_core::recommend::{Backend, RecommendRequest};
use taxrec_core::{persist, CascadeConfig, ModelConfig, Obs, TfTrainer};
use taxrec_dataset::{DatasetConfig, PurchaseLog, SyntheticDataset};
use taxrec_taxonomy::{ItemId, TaxonomyShape};

/// HTTP workers of every node, and clients of the closed loop.
pub const HTTP_WORKERS: usize = 2;

/// Threads handed to every API that takes a thread count: the cores
/// the calling thread may run on (one while a run keeps to one core).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Dataset shape of a workload.
pub fn dataset_config(w: &Workload) -> DatasetConfig {
    DatasetConfig {
        shape: TaxonomyShape {
            level_sizes: w.levels.to_vec(),
            num_items: w.items,
            item_skew: 0.8,
        },
        num_users: w.users,
        mean_transactions: w.mean_transactions,
        ..DatasetConfig::default()
    }
}

/// Model hyper-parameters of a workload.
pub fn model_config(w: &Workload) -> ModelConfig {
    ModelConfig::tf(w.tf.0, w.tf.1)
        .with_factors(w.factors)
        .with_epochs(w.epochs)
}

/// Serve configuration of a workload for a node whose files live in
/// `dir` (each node gets its own registry, WAL, snapshot and cold file).
///
/// No periodic snapshot: the only one of a run is the leader's, cut on
/// request before the recovery tail. A snapshot cycle stops the applier
/// for the ~20 MB encode + fsync and, on a shared core, the readers
/// with it; how long depends on the sandbox's disk that minute, which
/// made every tail metric a measurement of the disk.
pub fn live_config(w: &Workload, dir: &Path, replicate: bool) -> LiveConfig {
    LiveConfig {
        log_path: Some(dir.join("events.log")),
        snapshot_path: Some(dir.join("snapshot.tfm")),
        snapshot_every: 0,
        scan_shards: w.scan_shards,
        obs: Arc::new(Obs::new()),
        replicate,
        user_tier_budget: w.tier_budget,
        ..LiveConfig::default()
    }
}

/// The backend a workload's reads are served with on `snap`: the
/// server's own, or the cascaded beam its batch requests name.
pub fn read_backend(w: &Workload, snap: &LiveEngine) -> Backend {
    match w.read {
        ReadKind::Single { .. } => snap.engine().backend().clone(),
        ReadKind::CascadedBatch { cascade, .. } => Backend::Cascaded(CascadeConfig::uniform(
            snap.model().taxonomy().depth(),
            cascade,
        )),
    }
}

/// Trained users to ask about, each with what it already bought (the
/// exclusion list the router would build).
pub struct Asked {
    pub users: Vec<usize>,
    bought: Vec<Vec<ItemId>>,
}

impl Asked {
    pub fn new(users: Vec<usize>, train: &PurchaseLog) -> Asked {
        let bought = users.iter().map(|&u| train.distinct_items(u)).collect();
        Asked { users, bought }
    }

    /// One engine request per user, `k` items each.
    pub fn requests<'a>(&'a self, train: &'a PurchaseLog, k: usize) -> Vec<RecommendRequest<'a>> {
        self.users
            .iter()
            .zip(&self.bought)
            .map(|(&user, exclude)| RecommendRequest {
                user,
                history: train.user(user),
                k,
                exclude,
            })
            .collect()
    }
}

/// A follower's apply loop and its stop flag.
pub struct Following {
    pub stats: Arc<FollowerStats>,
    /// When the apply loop was started (the node was loaded before).
    pub joined_at: Instant,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

/// One serving process's worth of state: a `LiveServer`, optionally
/// behind the pooled HTTP accept loop, optionally following a leader.
pub struct Node {
    pub server: Arc<LiveServer>,
    /// HTTP address; `None` for a node that only applies.
    pub addr: Option<SocketAddr>,
    http: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
    pub following: Option<Following>,
}

impl Node {
    fn serve(
        server: Arc<LiveServer>,
    ) -> Result<(SocketAddr, Arc<AtomicBool>, JoinHandle<()>), String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let opts = ServeOptions {
            workers: HTTP_WORKERS,
            queue_depth: 64,
            max_conns: None,
            stop: Some(Arc::clone(&stop)),
        };
        let thread = std::thread::Builder::new()
            .name("taxbench-http".into())
            .spawn(move || serve_on(listener, server, opts))
            .map_err(|e| e.to_string())?;
        Ok((addr, stop, thread))
    }

    /// A replicating leader over `model_path`, serving HTTP. Returns the
    /// node and its replication address.
    pub fn leader(
        w: &Workload,
        data: &DataDir,
        model_path: &Path,
        dir: &Path,
    ) -> Result<(Node, SocketAddr), String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let mut server = load(data, model_path, live_config(w, dir, true))?;
        let repl = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let repl_addr = server.start_replication(repl).map_err(|e| e.to_string())?;
        let server = Arc::new(server);
        let (addr, stop, thread) = Node::serve(Arc::clone(&server))?;
        let node = Node {
            server,
            addr: Some(addr),
            http: Some((stop, thread)),
            following: None,
        };
        Ok((node, repl_addr))
    }

    /// A follower of `leader` built from the base model (it joins the
    /// stream at offset 0), with or without its own HTTP listener.
    pub fn follower(
        w: &Workload,
        data: &DataDir,
        model_path: &Path,
        dir: &Path,
        leader: SocketAddr,
        serve_http: bool,
    ) -> Result<Node, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let mut server = load(data, model_path, live_config(w, dir, false))?;
        let stats = server.set_follower(leader.to_string());
        let server = Arc::new(server);
        let stop = Arc::new(AtomicBool::new(false));
        let joined_at = Instant::now();
        let thread = spawn_follow(Arc::clone(&server), Arc::clone(&stop));
        let (addr, http) = if serve_http {
            let (addr, stop, thread) = Node::serve(Arc::clone(&server))?;
            (Some(addr), Some((stop, thread)))
        } else {
            (None, None)
        };
        Ok(Node {
            server,
            addr,
            http,
            following: Some(Following {
                stats,
                joined_at,
                stop,
                thread,
            }),
        })
    }

    /// Ask the follow loop to end at its next frame (at the latest the
    /// next half-second heartbeat, at once when the leader goes away).
    pub fn stop_following(&self) {
        if let Some(f) = &self.following {
            f.stop.store(true, Ordering::Relaxed);
        }
    }

    /// Stop the accept loop (graceful: drains, flushes, final snapshot)
    /// and the follow loop, and wait for both threads.
    pub fn shutdown(mut self) {
        self.stop_following();
        if let (Some((stop, thread)), Some(addr)) = (self.http.take(), self.addr) {
            stop.store(true, Ordering::Relaxed);
            // The flag is only checked when a connection arrives.
            let _ = TcpStream::connect(addr);
            let _ = thread.join();
        }
        if let Some(f) = self.following.take() {
            let _ = f.thread.join();
        }
    }
}

/// `LiveServer::load` with string errors.
pub fn load(data: &DataDir, model_path: &Path, config: LiveConfig) -> Result<LiveServer, String> {
    let model_path = model_path.to_str().ok_or("model path is not UTF-8")?;
    LiveServer::load(data, model_path, config).map_err(|e| format!("LiveServer::load: {e}"))
}

/// Something measured over a stretch of the run: a duration in seconds
/// or a rate per second, and when (so that it can be read at reference
/// speed, see `calib`).
#[derive(Debug, Clone, Copy)]
pub struct Piece {
    pub value: f64,
    pub from: Instant,
    pub to: Instant,
}

impl Piece {
    /// The stretch itself, in seconds.
    pub fn seconds(from: Instant, to: Instant) -> Piece {
        Piece {
            value: (to - from).as_secs_f64(),
            from,
            to,
        }
    }

    /// `count` things done over the stretch, per second.
    pub fn rate(count: f64, from: Instant, to: Instant) -> Piece {
        Piece {
            value: count / (to - from).as_secs_f64().max(1e-9),
            from,
            to,
        }
    }
}

/// What one set-up measured.
#[derive(Debug, Clone)]
pub struct SetupTiming {
    /// Generate + train + write + load + leader and follower up + warm.
    pub total: Piece,
    pub generate: Duration,
    /// SGD steps per second of each epoch of the fit.
    pub epochs: Vec<Piece>,
}

/// The assembled stack of one run.
pub struct Stack {
    pub data: SyntheticDataset,
    pub data_dir: DataDir,
    pub model_path: PathBuf,
    pub leader: Node,
    pub repl_addr: SocketAddr,
    pub follower: Node,
    pub timing: SetupTiming,
}

impl Stack {
    /// Phase 1: build everything under `dir` from the workload and seed
    /// and warm the leader with [`WARM_READS`] reads. Returns the stack
    /// and how many warm reads failed.
    pub fn setup(w: &Workload, seed: u64, dir: &Path) -> Result<(Stack, usize), String> {
        let t0 = Instant::now();
        let data = SyntheticDataset::generate(&dataset_config(w), seed);
        let generate = t0.elapsed();

        let (model, stats) = TfTrainer::new(model_config(w), &data.taxonomy).fit_parallel(
            &data.train,
            seed,
            nproc(),
        );
        // The trainer reports how long each epoch took, not when: the
        // epochs are laid end to end backwards from the fit's return.
        let steps_per_epoch = stats.steps as f64 / stats.epoch_times.len().max(1) as f64;
        let mut epoch_end = Instant::now();
        let mut epochs: Vec<Piece> = stats
            .epoch_times
            .iter()
            .rev()
            .map(|&took| {
                let to = epoch_end;
                epoch_end = to.checked_sub(took).unwrap_or(t0).max(t0);
                Piece::rate(steps_per_epoch, epoch_end, to)
            })
            .collect();
        epochs.reverse();

        let data_dir = DataDir::new(dir.join("data"));
        data_dir
            .save(&data.taxonomy, &data.train, &data.test, None)
            .map_err(|e| e.to_string())?;
        let model_path = dir.join("model.tfm");
        std::fs::write(&model_path, persist::encode(&model)).map_err(|e| e.to_string())?;
        drop(model);

        let (leader, repl_addr) = Node::leader(w, &data_dir, &model_path, &dir.join("leader"))?;
        let follower = Node::follower(
            w,
            &data_dir,
            &model_path,
            &dir.join("follower"),
            repl_addr,
            true,
        )?;

        let mut warm = ReadGen::new(w, seed, 0x5741_524d);
        let addr = leader.addr.expect("leader serves HTTP");
        let failed = (0..WARM_READS)
            .filter(|_| {
                let read = warm.next_read();
                !matches!(client::request(addr, "GET", &read.path, ""), Ok(r) if r.status == 200)
            })
            .count();

        let timing = SetupTiming {
            total: Piece::seconds(t0, Instant::now()),
            generate,
            epochs,
        };
        let stack = Stack {
            data,
            data_dir,
            model_path,
            leader,
            repl_addr,
            follower,
            timing,
        };
        Ok((stack, failed))
    }

    /// Stop every thread the stack started. The leader goes first so
    /// that its closing stream wakes the follower's apply loop.
    pub fn shutdown(self) {
        self.follower.stop_following();
        self.leader.shutdown();
        self.follower.shutdown();
    }
}
