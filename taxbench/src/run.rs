//! One run: the seven phases, identical for every workload, so every
//! end-to-end metric is defined on every workload.

use crate::calib::Calibrator;
use crate::client;
use crate::gen::{self, ReadGen, ReadReq, WriteGen};
use crate::probes;
use crate::sched::OneCore;
use crate::spec::{
    ReadKind, Workload, BATCH_USERS, END_TO_END, PER_LAYER, RECOVERY_TAIL_EVENTS, VERIFY_USERS,
    WARM_READS,
};
use crate::stack::{self, nproc, Asked, Node, Piece, SetupTiming, Stack};
use crate::stats::{self, median, Timed};
use crate::steady::{self, GenHealth, SteadyOutcome, SteadyPlan, WriteKind};
use crate::trace;
use crate::walker::{BareApplier, Walker};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use taxrec_cli::serve::{route, LiveServer};
use taxrec_core::eval::{evaluate, EvalConfig};
use taxrec_core::live::{LiveState, UpdateEvent};
use taxrec_core::recommend::rank_cmp;
use taxrec_core::{persist, Scorer, TfModel};
use taxrec_dataset::Transaction;
use taxrec_taxonomy::ItemId;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the steady phase.
    pub steady: Duration,
    pub trace: bool,
    pub smoke: bool,
    /// Where run directories and span files go.
    pub out_dir: PathBuf,
}

/// Operations of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseCount {
    pub attempted: u64,
    pub failed: u64,
}

impl PhaseCount {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The result of a run.
pub struct RunReport {
    /// `(name, value, unit)` in `BENCHMARK.json` order: the end-to-end
    /// metrics of an untraced run, the per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub phases: Vec<(&'static str, PhaseCount)>,
    /// Every check passed: no failed operation, bodies agree at quiesce,
    /// AUC above the floor, generator healthy.
    pub correct: bool,
    /// Human-readable findings (failed checks, sample counts).
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|(_, c)| c.attempted).sum()
    }
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|(_, c)| c.failed).sum()
    }
}

/// Lengths of the phases other than steady.
struct Pace {
    setups: usize,
    saturate: Duration,
    batch: Duration,
    recovers: usize,
}

impl Pace {
    fn of(cfg: &RunConfig) -> Pace {
        if cfg.smoke {
            Pace {
                setups: 1,
                saturate: Duration::from_millis(500),
                batch: Duration::from_millis(300),
                recovers: 1,
            }
        } else {
            Pace {
                // Set-up is repeated so `setup_s` is a median; a traced
                // run reports no end-to-end metric and sets up once.
                setups: if cfg.trace { 1 } else { 3 },
                saturate: Duration::from_secs(2),
                batch: Duration::from_secs(2),
                recovers: 5,
            }
        }
    }
}

/// Median over `pieces` of each duration read at reference speed.
fn seconds_at_reference(calib: &Calibrator, pieces: &[Piece]) -> f64 {
    let at_ref: Vec<f64> = pieces
        .iter()
        .map(|p| p.value / calib.slowdown(p.from, p.to))
        .collect();
    median(&at_ref)
}

/// Median over `pieces` of each rate read at reference speed.
fn rate_at_reference(calib: &Calibrator, pieces: &[Piece]) -> f64 {
    let at_ref: Vec<f64> = pieces
        .iter()
        .map(|p| p.value * calib.slowdown(p.from, p.to))
        .collect();
    median(&at_ref)
}

/// Length of the stretches the closed loop's throughput is read over.
const SATURATE_BIN: Duration = Duration::from_millis(100);

/// Phase 3: closed loop, two clients, the workload's read generator.
/// Successful requests per second of each [`SATURATE_BIN`] of the phase.
fn saturate(w: &Workload, seed: u64, stack: &Stack, length: Duration) -> (Vec<Piece>, PhaseCount) {
    let addr = stack.leader.addr.expect("leader serves HTTP");
    let train = &stack.data.train;
    let t0 = Instant::now();
    let clients: Vec<(Vec<Instant>, PhaseCount)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..stack::HTTP_WORKERS as u64)
            .map(|c| {
                scope.spawn(move || {
                    let mut gen = ReadGen::new(w, seed, 1 + c);
                    let mut count = PhaseCount::default();
                    let mut done = Vec::new();
                    while t0.elapsed() < length {
                        let req = gen.next_read();
                        let ok = matches!(client::request(addr, "GET", &req.path, ""),
                            Ok(r) if r.status == 200 && steady::check_read_body(w, &req, &r.body, train).is_ok());
                        count.record(ok);
                        if ok {
                            done.push(Instant::now());
                        }
                    }
                    (done, count)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("closed-loop client"))
            .collect()
    });
    let total = PhaseCount {
        attempted: clients.iter().map(|(_, c)| c.attempted).sum(),
        failed: clients.iter().map(|(_, c)| c.failed).sum(),
    };
    // Whole bins only: the last one is cut short by the phase's end.
    let bins = (length.as_nanos() / SATURATE_BIN.as_nanos()).max(1) as u32;
    let mut served = vec![0u32; bins as usize];
    for done in clients.iter().flat_map(|(done, _)| done) {
        let bin = ((*done - t0).as_nanos() / SATURATE_BIN.as_nanos()) as usize;
        if let Some(n) = served.get_mut(bin) {
            *n += 1;
        }
    }
    let pieces = (0..bins)
        .map(|i| {
            Piece::rate(
                f64::from(served[i as usize]),
                t0 + SATURATE_BIN * i,
                t0 + SATURATE_BIN * (i + 1),
            )
        })
        .collect();
    (pieces, total)
}

/// Phase 4: offline batch scoring of `users` Zipf-drawn users on the
/// final snapshot, a sixteenth at a time, over and over for `length`;
/// users per second of each pass.
fn batch(w: &Workload, seed: u64, stack: &Stack, length: Duration, users: usize) -> Vec<Piece> {
    let snap = stack.leader.server.live().cell().load();
    let train = &stack.data.train;
    let asked = Asked::new(ReadGen::new(w, seed, 7).users(users), train);
    let requests = asked.requests(train, w.read.top());
    let backend = stack::read_backend(w, &snap);
    let t0 = Instant::now();
    let mut pieces = Vec::new();
    for pass in requests.chunks(requests.len().div_ceil(16)).cycle() {
        if t0.elapsed() >= length && !pieces.is_empty() {
            break;
        }
        let from = Instant::now();
        std::hint::black_box(snap.engine().recommend_batch_with(pass, nproc(), &backend));
        pieces.push(Piece::rate(pass.len() as f64, from, Instant::now()));
    }
    pieces
}

/// Cut a snapshot now, then apply exactly [`RECOVERY_TAIL_EVENTS`]
/// events, so every run's recovery replays the same-sized tail.
fn snapshot_and_tail(
    w: &Workload,
    seed: u64,
    stack: &Stack,
    folded: usize,
    n: usize,
) -> (Vec<UpdateEvent>, PhaseCount) {
    let live = stack.leader.server.live();
    let mut count = PhaseCount::default();
    count.record(matches!(live.snapshot_now(), Ok(true)));
    let mut gen = WriteGen::new(w, &stack.data, seed, 2, folded);
    let events: Vec<UpdateEvent> = (0..n).map(|_| gen.next_event()).collect();
    for ev in &events {
        count.record(live.submit(ev.clone()).is_ok());
    }
    (events, count)
}

/// Block until `node` has applied `committed` records and reports no
/// lag; returns the stretch from its joining the stream to then.
fn await_caught_up(node: &Node, committed: u64) -> Result<Piece, String> {
    let following = node.following.as_ref().expect("node follows");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let applied = following.stats.records_applied();
        if applied >= committed && following.stats.lag() == 0 {
            return Ok(Piece::seconds(following.joined_at, Instant::now()));
        }
        if Instant::now() > deadline {
            return Err(format!(
                "follower stuck at {applied} of {committed} records"
            ));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// One timed recovery: `LiveServer::load` on a copy of the leader's WAL
/// and snapshot, through the first 200 from the router.
struct Recovery {
    server: LiveServer,
    total: Piece,
    load: Duration,
}

fn recover(w: &Workload, stack: &Stack, leader_dir: &Path, dir: &Path) -> Result<Recovery, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    for file in ["events.log", "snapshot.tfm"] {
        std::fs::copy(leader_dir.join(file), dir.join(file))
            .map_err(|e| format!("copying {file}: {e}"))?;
    }
    let t0 = Instant::now();
    let server = stack::load(
        &stack.data_dir,
        &stack.model_path,
        stack::live_config(w, dir, false),
    )?;
    let load = t0.elapsed();
    let first = route(&server, "GET", "/recommend?user=0&top=10", b"");
    let total = Piece::seconds(t0, Instant::now());
    if first.status != 200 {
        return Err(format!("recovered server answered {}", first.status));
    }
    Ok(Recovery {
        server,
        total,
        load,
    })
}

/// The reference ranking: score every item with a freshly built scorer,
/// full sort by the one shared total order, rendered exactly as the
/// router renders it.
fn oracle_body(
    scorer: &Scorer<&taxrec_core::TfModel>,
    user: usize,
    history: &[Transaction],
    k: usize,
) -> String {
    let mut bought: Vec<ItemId> = history.iter().flatten().copied().collect();
    bought.sort_unstable();
    let query = scorer.query(user, history);
    let mut ranked: Vec<(ItemId, f32)> = scorer
        .score_all_items(&query)
        .into_iter()
        .enumerate()
        .map(|(i, s)| (ItemId(i as u32), s))
        .filter(|(i, _)| bought.binary_search(i).is_err())
        .collect();
    ranked.sort_by(rank_cmp);
    let items: Vec<String> = ranked
        .iter()
        .take(k)
        .map(|(i, s)| format!("{{\"item\":\"{i}\",\"id\":{},\"score\":{s:.4}}}", i.0))
        .collect();
    format!(
        "{{\"user\":{user},\"recommendations\":[{}]}}",
        items.join(",")
    )
}

/// Phase 7: at quiesce, leader HTTP ≡ follower HTTP ≡ oracle ≡ recovered
/// server, byte for byte, for [`VERIFY_USERS`] fixed users.
fn verify(
    w: &Workload,
    seed: u64,
    stack: &Stack,
    recovered: &LiveServer,
    notes: &mut Vec<String>,
) -> PhaseCount {
    let mut count = PhaseCount::default();
    let snap = stack.leader.server.live().cell().load();
    let train = &stack.data.train;
    let base_users = train.num_users();
    let folded = snap.users_folded();
    // Three quarters trained users (half of them the hottest), one
    // quarter folded-in users spread over the fold order.
    let n_folded = (VERIFY_USERS / 4).min(folded);
    let n_trained = (VERIFY_USERS - n_folded).min(base_users);
    let picker = gen::UserPicker::new(base_users, w.zipf, seed);
    let mut users: Vec<usize> = (0..n_trained)
        .map(|i| {
            if i % 2 == 0 {
                picker.user_at_rank(i / 2)
            } else {
                picker.user_at_rank(base_users - 1 - i / 2)
            }
        })
        .collect();
    users.extend((0..n_folded).map(|i| base_users + i * folded / n_folded));

    let scorer = Scorer::new(snap.model());
    let (leader, follower) = (
        stack.leader.addr.expect("leader serves HTTP"),
        stack.follower.addr.expect("follower serves HTTP"),
    );
    let mut check = |what: String, bodies: [Result<String, String>; 3], oracle: Option<String>| {
        let [l, f, r] = bodies;
        let ok = match (&l, &f, &r) {
            (Ok(l), Ok(f), Ok(r)) => l == f && l == r && oracle.as_ref().is_none_or(|o| o == l),
            _ => false,
        };
        if !ok {
            notes.push(format!(
                "verify {what}: leader {l:?} | follower {f:?} | recovered {r:?} | oracle {oracle:?}"
            ));
        }
        count.record(ok);
    };
    let http = |addr, path: &str| match client::request(addr, "GET", path, "") {
        Ok(r) if r.status == 200 => Ok(r.body),
        Ok(r) => Err(format!("status {}", r.status)),
        Err(e) => Err(e),
    };
    let in_process = |path: &str| {
        let r = route(recovered, "GET", path, b"");
        if r.status == 200 {
            Ok(r.body)
        } else {
            Err(format!("status {}", r.status))
        }
    };
    for &user in &users {
        let path = format!("/recommend?user={user}&top=10");
        let history = if user < base_users {
            train.user(user)
        } else {
            snap.folded_history(user).unwrap_or(&[])
        };
        check(
            path.clone(),
            [
                http(leader, &path),
                http(follower, &path),
                in_process(&path),
            ],
            Some(oracle_body(&scorer, user, history, 10)),
        );
    }
    if let ReadKind::CascadedBatch { users: n, .. } = w.read {
        // The workload's own request has no brute-force oracle (the beam
        // is approximate); the three servers must still agree.
        let req = ReadReq::new(w.read, users.iter().copied().take(n).collect());
        // A batch body leads with the serving node's own epoch counter;
        // the ranked lists start at "results".
        let results = |body: Result<String, String>| {
            body.and_then(|b| {
                b.find("\"results\":")
                    .map(|at| b[at..].to_string())
                    .ok_or(b)
            })
        };
        check(
            req.path.clone(),
            [
                results(http(leader, &req.path)),
                results(http(follower, &req.path)),
                results(in_process(&req.path)),
            ],
            None,
        );
    }
    count
}

/// Peak resident set of this process, MB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median and tail of a latency set (in arrival order) in microseconds
/// at reference speed, with a note naming the sample count, the
/// percentile the tail is and the median as the clock read it.
fn summarize_us(
    name: &str,
    samples: &[Timed],
    slowdown: &dyn Fn(u64, u64) -> f64,
    notes: &mut Vec<String>,
) -> (f64, f64) {
    match stats::summarize(samples, slowdown) {
        Some(s) => {
            notes.push(format!(
                "{name}: n = {}, p50 = {:.1} us ({:.1} us on the clock), p{} = {:.1} us (median over {} slice{}), p{} = {:.1} us on the clock",
                s.n,
                s.p50 / 1e3,
                s.raw_p50 / 1e3,
                s.tail_p * 100.0,
                s.tail / 1e3,
                s.slices,
                if s.slices == 1 { "" } else { "s" },
                s.raw_tail.0 * 100.0,
                s.raw_tail.1 / 1e3,
            ));
            (s.p50 / 1e3, s.tail / 1e3)
        }
        None => {
            notes.push(format!("{name}: no samples"));
            (0.0, 0.0)
        }
    }
}

/// Phase 1: set-up, `pace.setups` times over; the last stack is the one
/// measured. Returns it with its directory, every set-up's timing and
/// the warm-read counts.
fn setup_phase(
    cfg: &RunConfig,
    pace: &Pace,
    run_dir: &Path,
) -> Result<(Stack, PathBuf, Vec<SetupTiming>, PhaseCount), String> {
    let mut timings = Vec::new();
    let mut warm = PhaseCount::default();
    let mut last: Option<(Stack, PathBuf)> = None;
    for i in 0..pace.setups {
        if let Some((prev, prev_dir)) = last.take() {
            Stack::shutdown(prev);
            let _ = std::fs::remove_dir_all(prev_dir);
        }
        let dir = run_dir.join(format!("setup-{i}"));
        let (stack, failed) = Stack::setup(&cfg.workload, cfg.seed, &dir)?;
        warm.attempted += WARM_READS as u64;
        warm.failed += failed as u64;
        timings.push(stack.timing.clone());
        last = Some((stack, dir));
    }
    let (stack, dir) = last.expect("at least one set-up");
    Ok((stack, dir, timings, warm))
}

/// The walker of a traced run and its shadows, all started from the
/// model on disk.
fn walker_for<'a>(
    cfg: &'a RunConfig,
    stack: &'a Stack,
    base_model: &TfModel,
    run_dir: &Path,
) -> Result<Walker<'a>, String> {
    let w = &cfg.workload;
    let dir = run_dir.join("shadow");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let shadow = stack::load(
        &stack.data_dir,
        &stack.model_path,
        stack::live_config(w, &dir, false),
    )?;
    let bare = BareApplier::new(LiveState::new(base_model.clone()), w);
    Ok(Walker::new(
        w,
        &stack.data.train,
        Arc::clone(&stack.leader.server),
        shadow,
        bare,
    ))
}

/// The five latency metrics of the steady phase, in output order:
/// `read_p50`, `read_p95`, `add_item_p50`, `fold_in_p50`, `write_p95`.
fn steady_latencies(
    outcome: &SteadyOutcome<'_>,
    calib: &Calibrator,
    notes: &mut Vec<String>,
) -> [f64; 5] {
    let timed = |s: &steady::Sample| Timed {
        at_ns: s.at_ns,
        latency_ns: s.latency_ns,
    };
    let ok_writes = |kinds: &[WriteKind]| -> Vec<Timed> {
        outcome
            .writes
            .iter()
            .filter(|(k, s)| s.ok && kinds.contains(k))
            .map(|(_, s)| timed(s))
            .collect()
    };
    let reads: Vec<Timed> = outcome.reads.iter().filter(|s| s.ok).map(timed).collect();
    let t0 = outcome.t0;
    let slowdown = |from_ns: u64, to_ns: u64| {
        calib.slowdown(
            t0 + Duration::from_nanos(from_ns),
            t0 + Duration::from_nanos(to_ns),
        )
    };
    use WriteKind::{AddItem, FoldIn, Refold};
    let (read_p50, read_p95) = summarize_us("read", &reads, &slowdown, notes);
    let (add_item_p50, _) = summarize_us("add_item", &ok_writes(&[AddItem]), &slowdown, notes);
    let (fold_in_p50, _) = summarize_us("fold_in", &ok_writes(&[FoldIn, Refold]), &slowdown, notes);
    let (_, write_p95) = summarize_us(
        "write",
        &ok_writes(&[AddItem, FoldIn, Refold]),
        &slowdown,
        notes,
    );
    [read_p50, read_p95, add_item_p50, fold_in_p50, write_p95]
}

/// Phase 6: recover at least `repeats` times; a recovery of a few
/// milliseconds is repeated further (to three times as often) so that
/// its median is steady. Returns the last recovered server, every
/// recovery's stretch and the median `LiveServer::load` in milliseconds.
fn recover_phase(
    w: &Workload,
    stack: &Stack,
    leader_dir: &Path,
    run_dir: &Path,
    repeats: usize,
) -> Result<(LiveServer, Vec<Piece>, f64), String> {
    let (mut totals, mut loads) = (Vec::new(), Vec::new());
    let mut spent = Duration::ZERO;
    let mut server = None;
    while totals.len() < repeats || (spent < Duration::from_secs(1) && totals.len() < 3 * repeats) {
        // Only the latest recovered server stays alive (it is verified).
        drop(server.take());
        let dir = run_dir.join(format!("recover-{}", totals.len()));
        let r = recover(w, stack, leader_dir, &dir)?;
        spent += r.total.to - r.total.from;
        totals.push(r.total);
        loads.push(r.load.as_secs_f64() * 1e3);
        server = Some(r.server);
    }
    Ok((
        server.expect("at least one recovery"),
        totals,
        median(&loads),
    ))
}

/// AUC of the trained model on a sample of the test split.
fn train_auc(cfg: &RunConfig, stack: &Stack, base_model: &TfModel) -> f64 {
    let eval = EvalConfig {
        threads: nproc(),
        max_users: Some(if cfg.smoke { 100 } else { 300 }),
        ..EvalConfig::fast()
    };
    evaluate(base_model, &stack.data.train, &stack.data.test, &eval)
        .auc
        .unwrap_or(0.0)
}

/// Run one workload for one seed.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    let run_dir = cfg.out_dir.join(format!(
        "run-{}-{}-{}",
        cfg.workload.name,
        cfg.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let report = run_in(cfg, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    report
}

fn run_in(cfg: &RunConfig, run_dir: &Path) -> Result<RunReport, String> {
    let w = &cfg.workload;
    let pace = Pace::of(cfg);
    let clock = Instant::now();
    // Everything the run starts inherits the one core; the calibration
    // thread watches it.
    let one_core = OneCore::pin();
    let calib = Calibrator::start();
    let mut notes = Vec::new();
    let mut phases: Vec<(&'static str, PhaseCount)> = Vec::new();

    let (stack, stack_dir, setups, warm) = setup_phase(cfg, &pace, run_dir)?;
    let leader_dir = stack_dir.join("leader");
    phases.push(("warm", warm));
    let setup_totals: Vec<Piece> = setups.iter().map(|t| t.total).collect();
    let setup_s = seconds_at_reference(&calib, &setup_totals);
    // The median epoch of all fits.
    let epochs: Vec<Piece> = setups.iter().flat_map(|t| t.epochs.clone()).collect();
    let train_steps_per_s = rate_at_reference(&calib, &epochs);
    let base_model = persist::decode(&std::fs::read(&stack.model_path).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;

    // Phase 2: steady. In a traced run the first half of the window runs
    // without the walker: the ratio of the two halves' read medians is
    // the tracing overhead.
    let reads = gen::read_schedule(w, cfg.seed, cfg.steady);
    let (writes, folded) = gen::write_schedule(w, &stack.data, cfg.seed, cfg.steady);
    let walker = match cfg.trace {
        true => Some((
            walker_for(cfg, &stack, &base_model, run_dir)?,
            cfg.steady / 2,
        )),
        false => None,
    };
    let hub = stack
        .leader
        .server
        .live()
        .replication()
        .expect("leader replicates");
    let follower_stats = &stack
        .follower
        .following
        .as_ref()
        .expect("follower follows")
        .stats;
    let outcome = steady::run(SteadyPlan {
        workload: w,
        leader: stack.leader.addr.expect("leader serves HTTP"),
        train: &stack.data.train,
        reads: &reads,
        writes: &writes,
        window: cfg.steady,
        clock,
        walker,
        lag_of: cfg.trace.then_some((&**hub, &**follower_stats)),
    });
    let mut steady_reads = PhaseCount::default();
    outcome.reads.iter().for_each(|s| steady_reads.record(s.ok));
    let mut steady_writes = PhaseCount::default();
    outcome
        .writes
        .iter()
        .for_each(|(_, s)| steady_writes.record(s.ok));
    phases.push(("steady_reads", steady_reads));
    phases.push(("steady_writes", steady_writes));
    let health = GenHealth::of(&outcome);
    notes.push(format!(
        "generator: lateness p90 = {:.1} us, p99 = {:.1} us, achieved/scheduled = {:.4}, steady took {:.2} s, senders {}",
        health.late_p90_us,
        health.late_p99_us,
        health.achieved_over_scheduled,
        outcome.elapsed.as_secs_f64(),
        if health.realtime {
            "real-time"
        } else {
            "NOT real-time (no CAP_SYS_NICE)"
        }
    ));
    if !health.valid() {
        notes.push(
            "INVALID: the generator was late or fell behind; the numbers measure the scheduler"
                .into(),
        );
    }
    let [read_p50, read_p95, add_item_p50, fold_in_p50, write_p95] =
        steady_latencies(&outcome, &calib, &mut notes);

    // Phase 3: saturate (writes paused).
    let (sat_bins, sat) = saturate(w, cfg.seed, &stack, pace.saturate);
    let read_max_rps = rate_at_reference(&calib, &sat_bins);
    phases.push(("saturate", sat));

    // Phase 4: offline batch.
    let batch_users = if cfg.smoke {
        BATCH_USERS / 8
    } else {
        BATCH_USERS
    };
    let batch_passes = batch(w, cfg.seed, &stack, pace.batch, batch_users);
    let batch_users_per_s = rate_at_reference(&calib, &batch_passes);

    // A fixed tail behind a fresh snapshot, then quiesce.
    let tail_len = if cfg.smoke {
        RECOVERY_TAIL_EVENTS / 4
    } else {
        RECOVERY_TAIL_EVENTS
    };
    let (tail_events, tail) = snapshot_and_tail(w, cfg.seed, &stack, folded, tail_len);
    phases.push(("tail_writes", tail));
    let committed = hub.committed();
    await_caught_up(&stack.follower, committed)?;

    // Phase 5: catch-up of a fresh follower from offset 0.
    let joiner = Node::follower(
        w,
        &stack.data_dir,
        &stack.model_path,
        &run_dir.join("joiner"),
        stack.repl_addr,
        false,
    )?;
    let catchup = await_caught_up(&joiner, committed)?;
    let catchup_events_per_s = rate_at_reference(
        &calib,
        &[Piece::rate(committed as f64, catchup.from, catchup.to)],
    );
    notes.push(format!(
        "catch-up: {committed} records in {:.3} s on the clock",
        catchup.value
    ));

    // Phase 6: recover; the last recovered server is verified.
    let (recovered, recoveries, load_ms) =
        recover_phase(w, &stack, &leader_dir, run_dir, pace.recovers)?;
    let recover_s = seconds_at_reference(&calib, &recoveries);

    // Phase 7: verify, then the memory high-water mark.
    phases.push((
        "verify",
        verify(w, cfg.seed, &stack, &recovered, &mut notes),
    ));
    let auc = train_auc(cfg, &stack, &base_model);
    let auc_floor = if cfg.smoke { 0.5 } else { w.auc_floor };
    notes.push(format!("train.auc = {auc:.4} (floor {auc_floor})"));
    if auc < auc_floor {
        notes.push("INVALID: train.auc is below the workload's floor".into());
    }
    let rss_peak_mb = rss_peak_mb();
    let on_clock = |pieces: &[Piece]| median(&pieces.iter().map(|p| p.value).collect::<Vec<_>>());
    notes.push(format!(
        "on the clock: setup_s {:.4}, train_steps_per_s {:.0}, read_max_rps {:.1}, batch_users_per_s {:.1}, catchup_events_per_s {:.1}, recover_s {:.4}",
        on_clock(&setup_totals),
        on_clock(&epochs),
        on_clock(&sat_bins),
        on_clock(&batch_passes),
        committed as f64 / catchup.value,
        on_clock(&recoveries),
    ));
    notes.push(format!(
        "box: a calibration pass took {:.3} of its reference time over the run; every time and rate above is read at reference speed; one core {}",
        calib.slowdown(clock, Instant::now()),
        if one_core.pinned() { "held" } else { "NOT held (affinity refused)" }
    ));
    // The layer probes measure scaling over threads: they get the
    // cores back (the stack's own threads stay where they are).
    drop(calib);
    drop(one_core);

    let failed: u64 = phases.iter().map(|(_, c)| c.failed).sum();
    if failed > 0 {
        notes.push(format!("INVALID: {failed} operations failed"));
    }
    let walker_failed = outcome.walk.as_ref().map_or(0, |w| w.failed);
    if walker_failed > 0 {
        notes.push(format!(
            "INVALID: {walker_failed} in-process walker calls failed"
        ));
    }
    let correct = failed == 0 && walker_failed == 0 && health.valid() && auc >= auc_floor;

    let metrics: Vec<(&'static str, f64, &'static str)> = if cfg.trace {
        let ctx = probes::Context {
            cfg,
            stack: &stack,
            run_dir,
            leader_dir: &leader_dir,
            outcome: &outcome,
            health,
            tail_events: &tail_events,
            load_ms,
            auc,
            generate_ms: setups[0].generate.as_secs_f64() * 1e3,
            base_model: &base_model,
        };
        let values = probes::per_layer(&ctx, &mut notes)?;
        if let Some(walk) = &outcome.walk {
            let path = cfg
                .out_dir
                .join(format!("spans-{}-{}.jsonl", w.name, cfg.seed));
            trace::write_spans(&path, &walk.spans)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            notes.push(format!(
                "{} spans written to {}",
                walk.spans.len(),
                path.display()
            ));
        }
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                let value = values
                    .get(name)
                    .copied()
                    .unwrap_or_else(|| panic!("no probe reported {name}"));
                (*name, value, *unit)
            })
            .collect()
    } else {
        let values = [
            setup_s,
            train_steps_per_s,
            read_p50,
            read_p95,
            add_item_p50,
            fold_in_p50,
            write_p95,
            read_max_rps,
            batch_users_per_s,
            catchup_events_per_s,
            recover_s,
            rss_peak_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect()
    };

    // Stop every thread this run started. The leader goes before the
    // joiner so that its closing stream wakes the joiner's apply loop.
    drop(outcome);
    drop(recovered);
    joiner.stop_following();
    Stack::shutdown(stack);
    joiner.shutdown();

    Ok(RunReport {
        metrics,
        phases,
        correct,
        notes,
    })
}

/// Stops a `run` that outlives its budget (a hung socket, a stuck
/// follower): the benchmark must end well inside the driver's limit.
pub fn watchdog(limit: Duration) -> Arc<AtomicBool> {
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    std::thread::spawn(move || {
        let t0 = Instant::now();
        while t0.elapsed() < limit {
            if flag.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(200));
        }
        eprintln!("taxbench: run exceeded {} s, giving up", limit.as_secs());
        std::process::exit(3);
    });
    done
}
