//! Phase 2: the open loop. Two sender threads — one replays the read
//! schedule, one the write schedule — so at most two connections are in
//! flight. Latency runs from the **scheduled** send instant to the last
//! response byte; while a sender's previous request is still in flight
//! the next one waits, and that wait is part of its latency.

use crate::client::{self, check_ranked, parse_ranked};
use crate::gen::{http_form, ReadOp, ReadReq, WriteOp};
use crate::sched::{make_realtime, wait_until};
use crate::spec::{ReadKind, Workload};
use crate::stats;
use crate::walker::{WalkRequest, Walker};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use taxrec_cli::json::{self, Json};
use taxrec_core::live::replication::{FollowerStats, ReplicationHub};
use taxrec_core::live::UpdateEvent;
use taxrec_dataset::PurchaseLog;

/// The walker takes one scheduled read in this many …
const WALK_EVERY_READ: usize = 20;
/// … and one scheduled write in this many.
const WALK_EVERY_WRITE: usize = 10;
/// Generator lateness above this at the 90th percentile invalidates
/// the run: the numbers would measure the scheduler, not the program.
/// The limit sits on p90 and not on the p99 that is reported because the
/// box itself stops for tens of milliseconds now and then, which in a
/// bad minute is more than 1 % of the window; a sender that cannot keep
/// its schedule is late on far more than a tenth of its requests.
pub const MAX_LATE_P90: Duration = Duration::from_millis(1);
/// Share of scheduled requests that must be sent inside the window.
pub const MIN_ACHIEVED: f64 = 0.99;

/// The write kinds the metrics tell apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    AddItem,
    FoldIn,
    Refold,
}

impl WriteKind {
    pub fn of(event: &UpdateEvent) -> WriteKind {
        match event {
            UpdateEvent::AddItem { .. } => WriteKind::AddItem,
            UpdateEvent::FoldInUser { .. } => WriteKind::FoldIn,
            UpdateEvent::RefoldUser { .. } => WriteKind::Refold,
        }
    }
}

/// One completed (or failed) request of the open loop.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Scheduled send instant, nanoseconds into the phase.
    pub at_ns: u64,
    /// Scheduled send → last response byte.
    pub latency_ns: u64,
    /// How long after the request became sendable (its scheduled
    /// instant, or the previous response if that came later) the
    /// generator actually started sending it.
    pub late_ns: u64,
    /// The send started inside the phase window.
    pub in_window: bool,
    pub ok: bool,
}

/// Everything the open loop measured.
pub struct SteadyOutcome<'a> {
    pub reads: Vec<Sample>,
    pub writes: Vec<(WriteKind, Sample)>,
    /// The walker with everything it recorded (traced runs).
    pub walk: Option<Walker<'a>>,
    /// `(lag in records, milliseconds since lag was last 0)` every 1 ms.
    pub lag_samples: Vec<(u64, f64)>,
    /// When the window opened: a sample's `at_ns` counts from here.
    pub t0: Instant,
    pub elapsed: Duration,
    /// Both sender threads ran in the real-time scheduling class.
    pub realtime: bool,
}

/// Check one 200 read body against the serving rules.
pub fn check_read_body(
    w: &Workload,
    req: &ReadReq,
    body: &str,
    train: &PurchaseLog,
) -> Result<(), String> {
    let lists = parse_ranked(body)?;
    if lists.len() != req.users.len() {
        return Err(format!(
            "{} lists for {} users",
            lists.len(),
            req.users.len()
        ));
    }
    // The cascaded beam may return fewer than `top` items.
    let (k, exact) = (w.read.top(), matches!(w.read, ReadKind::Single { .. }));
    for (list, &user) in lists.iter().zip(&req.users) {
        if list.user != user {
            return Err(format!(
                "list for user {} where {user} was asked",
                list.user
            ));
        }
        // Steady reads only name trained users, whose purchases are the
        // training log's.
        check_ranked(list, k, exact, &train.distinct_items(user))?;
    }
    Ok(())
}

/// Check one 200 write body: the right shape and, for a fold-in, the id
/// the schedule predicted (writes are applied in schedule order).
pub fn check_write_body(
    event: &UpdateEvent,
    body: &str,
    expect_user: Option<usize>,
) -> Result<(), String> {
    let doc = json::parse(body)?;
    let field = |k: &str| doc.get(k).and_then(Json::as_usize);
    match event {
        UpdateEvent::AddItem { .. } => field("item")
            .map(|_| ())
            .ok_or("add-item reply without item".into()),
        UpdateEvent::FoldInUser { .. } => match (field("user"), expect_user) {
            (Some(got), Some(want)) if got != want => {
                Err(format!("fold-in became user {got}, schedule says {want}"))
            }
            (Some(_), _) => Ok(()),
            (None, _) => Err("fold-in reply without user".into()),
        },
        UpdateEvent::RefoldUser { user, .. } => {
            if field("user") == Some(*user) && doc.get("refolded") == Some(&Json::Bool(true)) {
                Ok(())
            } else {
                Err(format!("refold of {user} not confirmed: {body}"))
            }
        }
    }
}

/// Whether a reply is a 200 whose body passes `check`; says why not on
/// standard error.
fn accepted(
    reply: &Result<client::Reply, String>,
    what: &str,
    check: impl FnOnce(&str) -> Result<(), String>,
) -> bool {
    let refused = match reply {
        Ok(r) if r.status == 200 => match check(&r.body) {
            Ok(()) => return true,
            Err(e) => format!("bad body: {e}"),
        },
        Ok(r) => format!("status {}: {}", r.status, r.body),
        Err(e) => e.clone(),
    };
    eprintln!("taxbench: {what}: {refused}");
    false
}

/// One sender thread: replays a schedule, one request at a time.
struct Sender {
    t0: Instant,
    window: Duration,
    /// Traced run: hand every `walk_every`-th request scheduled at or
    /// after this offset to the walker.
    walk_from_ns: Option<u64>,
    walk_every: usize,
}

impl Sender {
    /// Send every op at its instant. `exchange` sends one and returns
    /// when its last response byte arrived and whether it succeeded;
    /// `walk` hands a sampled op, with the instants its exchange began
    /// and ended, to the walker. Also returns whether the thread got
    /// the real-time class.
    fn replay<Op>(
        &self,
        ops: &[Op],
        at_ns: impl Fn(&Op) -> u64,
        mut exchange: impl FnMut(&Op) -> (Instant, bool),
        mut walk: impl FnMut(&Op, Instant, Instant),
    ) -> (Vec<Sample>, bool) {
        let realtime = make_realtime();
        let mut prev_done = self.t0;
        let mut out = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let at_ns = at_ns(op);
            let scheduled = self.t0 + Duration::from_nanos(at_ns);
            wait_until(scheduled);
            let sent = Instant::now();
            let (done, ok) = exchange(op);
            out.push(Sample {
                at_ns,
                latency_ns: (done - scheduled).as_nanos() as u64,
                late_ns: sent
                    .saturating_duration_since(scheduled.max(prev_done))
                    .as_nanos() as u64,
                in_window: sent < self.t0 + self.window,
                ok,
            });
            if self.walk_from_ns.is_some_and(|from| at_ns >= from) && i % self.walk_every == 0 {
                walk(op, sent, done);
            }
            prev_done = Instant::now();
        }
        (out, realtime)
    }
}

/// Sample, every millisecond until `stop`, how many records the leader
/// has committed that the follower has not applied yet, and for how
/// long the follower has been behind. (The follower's own lag gauge is
/// refreshed only when it applies a record, so it reads 0 while records
/// are in flight.)
fn sample_lag(
    hub: &ReplicationHub,
    follower: &FollowerStats,
    stop: &AtomicBool,
) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    let mut last_level = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let lag = hub.committed().saturating_sub(follower.records_applied());
        let now = Instant::now();
        if lag == 0 {
            last_level = now;
        }
        out.push((lag, (now - last_level).as_secs_f64() * 1e3));
        std::thread::sleep(Duration::from_millis(1));
    }
    out
}

/// Inputs of the open loop.
pub struct SteadyPlan<'a> {
    pub workload: &'a Workload,
    pub leader: SocketAddr,
    pub train: &'a PurchaseLog,
    pub reads: &'a [ReadOp],
    pub writes: &'a [WriteOp],
    pub window: Duration,
    /// Origin of span timestamps.
    pub clock: Instant,
    /// Traced run: the walker, and the offset from which it takes
    /// requests (the part before it runs untraced).
    pub walker: Option<(Walker<'a>, Duration)>,
    /// Traced run: the leader's stream and the follower whose lag
    /// behind it is sampled.
    pub lag_of: Option<(&'a ReplicationHub, &'a FollowerStats)>,
}

/// Run the open loop to the end of both schedules.
pub fn run<'a>(plan: SteadyPlan<'a>) -> SteadyOutcome<'a> {
    let SteadyPlan {
        workload: w,
        leader,
        train,
        reads,
        writes,
        window,
        clock,
        walker,
        lag_of,
    } = plan;
    let base_users = train.num_users();
    let (walk_tx, walk_rx) = mpsc::channel::<WalkRequest>();
    let walk_from_ns = walker.as_ref().map(|(_, from)| from.as_nanos() as u64);
    let stop_lag = AtomicBool::new(false);
    // A short lead so both senders are parked on their first instant
    // when the window opens.
    let t0 = Instant::now() + Duration::from_millis(20);
    let ns_on_clock = |t: Instant| t.saturating_duration_since(clock).as_nanos() as u64;

    let (read_samples, write_samples, walk, lag_samples, realtime) = std::thread::scope(|scope| {
        let walker_thread = walker.map(|(mut walker, _)| {
            scope.spawn(move || {
                for req in walk_rx {
                    walker.walk(req);
                }
                walker
            })
        });
        let lag_thread = lag_of.map(|(hub, follower)| {
            let stop = &stop_lag;
            scope.spawn(move || sample_lag(hub, follower, stop))
        });

        let read_tx = walk_tx.clone();
        let reader = scope.spawn(move || {
            let sender = Sender {
                t0,
                window,
                walk_from_ns,
                walk_every: WALK_EVERY_READ,
            };
            sender.replay(
                reads,
                |op| op.at_ns,
                |op| {
                    let reply = client::request(leader, "GET", &op.req.path, "");
                    let done = Instant::now();
                    let ok = accepted(&reply, &op.req.path, |body| {
                        check_read_body(w, &op.req, body, train)
                    });
                    (done, ok)
                },
                |op, sent, done| {
                    let _ = read_tx.send(WalkRequest::Read {
                        req: op.req.clone(),
                        start_ns: ns_on_clock(sent),
                        end_ns: ns_on_clock(done),
                    });
                },
            )
        });

        let write_tx = walk_tx.clone();
        let writer = scope.spawn(move || {
            let sender = Sender {
                t0,
                window,
                walk_from_ns,
                walk_every: WALK_EVERY_WRITE,
            };
            // Bodies are rendered before the clock matters.
            let forms: Vec<(&WriteOp, (&str, String))> =
                writes.iter().map(|op| (op, http_form(&op.event))).collect();
            let mut folded = 0usize;
            let (samples, realtime) = sender.replay(
                &forms,
                |(op, _)| op.at_ns,
                |(op, (path, body))| {
                    let reply = client::request(leader, "POST", path, body);
                    let done = Instant::now();
                    let is_fold_in = WriteKind::of(&op.event) == WriteKind::FoldIn;
                    let expect_user = is_fold_in.then_some(base_users + folded);
                    let ok = accepted(&reply, path, |body| {
                        check_write_body(&op.event, body, expect_user)
                    });
                    folded += usize::from(is_fold_in && ok);
                    (done, ok)
                },
                |(op, _), sent, done| {
                    let _ = write_tx.send(WalkRequest::Write {
                        event: op.event.clone(),
                        start_ns: ns_on_clock(sent),
                        end_ns: ns_on_clock(done),
                    });
                },
            );
            let kinds = writes.iter().map(|op| WriteKind::of(&op.event));
            (kinds.zip(samples).collect::<Vec<_>>(), realtime)
        });

        let (reads, reader_rt) = reader.join().expect("reader thread");
        let (writes, writer_rt) = writer.join().expect("writer thread");
        // Closing the channel ends the walker once it has drained it.
        drop(walk_tx);
        let walk = walker_thread.map(|t| t.join().expect("walker thread"));
        stop_lag.store(true, Ordering::Relaxed);
        let lag = lag_thread.map_or_else(Vec::new, |t| t.join().expect("lag sampler"));
        (reads, writes, walk, lag, reader_rt && writer_rt)
    });

    SteadyOutcome {
        reads: read_samples,
        writes: write_samples,
        walk,
        lag_samples,
        t0,
        elapsed: t0.elapsed(),
        realtime,
    }
}

/// How healthy the generator itself was.
#[derive(Debug, Clone, Copy)]
pub struct GenHealth {
    pub late_p90_us: f64,
    pub late_p99_us: f64,
    pub achieved_over_scheduled: f64,
    /// Both senders ran in the real-time class (reported, not gated).
    pub realtime: bool,
}

impl GenHealth {
    pub fn of(outcome: &SteadyOutcome<'_>) -> GenHealth {
        let all = outcome
            .reads
            .iter()
            .chain(outcome.writes.iter().map(|(_, s)| s));
        let mut late: Vec<u64> = all.clone().map(|s| s.late_ns).collect();
        late.sort_unstable();
        let scheduled = late.len();
        let achieved = all.filter(|s| s.in_window).count();
        let late_us = |p: f64| match late.is_empty() {
            true => 0.0,
            false => stats::percentile_sorted(&late, p) as f64 / 1e3,
        };
        GenHealth {
            late_p90_us: late_us(0.90),
            late_p99_us: late_us(0.99),
            achieved_over_scheduled: achieved as f64 / scheduled.max(1) as f64,
            realtime: outcome.realtime,
        }
    }

    pub fn valid(&self) -> bool {
        self.late_p90_us <= MAX_LATE_P90.as_secs_f64() * 1e6
            && self.achieved_over_scheduled >= MIN_ACHIEVED
    }
}
