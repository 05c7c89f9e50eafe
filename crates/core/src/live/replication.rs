//! WAL shipping: leader → follower replication over TCP.
//!
//! The durable event log already carries everything a replica needs —
//! a lineage-stamped header and a deterministic, replayable record
//! stream — so replication is literally shipping committed WAL records
//! over a socket. The leader retains every record it has committed
//! since process start in a [`ReplicationHub`]; each follower
//! connection handshakes with the shape of its current model, which
//! (because every applied event grows `users + items` by exactly one)
//! fully determines its offset into the leader's stream. The leader
//! validates that the shape recorded at that offset matches
//! bit-for-bit, then streams the tail and keeps tailing live commits.
//!
//! Protocol (all integers little-endian, `TFR1` magic):
//!
//! ```text
//! follower → leader  hello:  u32 magic, u8 version, u8 mode,
//!                            u64 users, u64 items
//! leader → follower  reply:  u8 status, u64 base_users, u64 base_items,
//!                            u64 committed, u64 resume_from,
//!                            u32 len, len bytes of UTF-8 message
//! leader → follower  frames: u8 tag,
//!                            tag 1 (record):    u64 seq, u64 committed,
//!                                               WAL record bytes
//!                                               (u32 len + payload)
//!                            tag 2 (heartbeat): u64 committed
//! ```
//!
//! `mode` is 0 for a streaming follower, 1 for a probe (handshake
//! only; the leader replies and closes). `seq` is 1-based: record
//! `seq` is the `seq`-th event committed since the leader's stream
//! base. A record frame embeds the exact bytes the leader appended to
//! its WAL, so the framing round-trips bit-for-bit and the follower's
//! apply is the same code path as local replay.
//!
//! Commit discipline: the applier publishes records into the hub only
//! **after** the WAL flush succeeded and the batch was published to
//! readers. An event nacked by a WAL failure is never shipped, and a
//! degraded (read-only) leader stops committing new offsets entirely —
//! followers idle at the last good offset.

use super::event::{decode_payload, LogHeader};
use super::queue::LiveHandle;
use super::{LiveError, UpdateEvent};
use crate::obs::{Counter, Gauge, MetricsRegistry};
use crate::persist::bytes_shim::{get_u32, get_u64, put_u32, put_u64};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Replication protocol magic: `"TFR1"`.
pub const REPL_MAGIC: u32 = 0x5446_5231;
/// Replication protocol version.
pub const REPL_VERSION: u8 = 1;

/// Largest record payload a peer will accept (a fold-in history is
/// bounded by `MAX_EVENT_FOLD_STEPS` baskets, far below this); guards
/// against hostile or corrupt length prefixes allocating unbounded
/// memory.
pub const MAX_FRAME_PAYLOAD: usize = 16 << 20;

/// How long an idle leader connection waits for new commits before
/// emitting a heartbeat frame (which also refreshes the follower's
/// `leader_committed` gauge).
const HEARTBEAT_EVERY: Duration = Duration::from_millis(500);
/// Socket read/write deadline on both sides; with heartbeats every
/// 500 ms, silence this long means the peer is gone.
const SOCKET_DEADLINE: Duration = Duration::from_secs(10);
/// First reconnect delay of the follower's exponential backoff.
const BACKOFF_START: Duration = Duration::from_millis(100);
/// Reconnect backoff cap.
const BACKOFF_CAP: Duration = Duration::from_secs(5);
/// Most records coalesced into one socket write.
const SHIP_BATCH: usize = 256;

/// Why a leader refused a handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The follower's state does not lie on this leader's stream: its
    /// lineage (base model or event history) differs, so streaming
    /// would silently diverge.
    LineageMismatch,
    /// The follower's state predates this leader's retained stream
    /// base; it must re-bootstrap from the leader's latest snapshot.
    BehindRetention,
}

impl RejectReason {
    fn code(self) -> u8 {
        match self {
            RejectReason::LineageMismatch => 1,
            RejectReason::BehindRetention => 2,
        }
    }
    fn from_code(code: u8) -> Option<RejectReason> {
        match code {
            1 => Some(RejectReason::LineageMismatch),
            2 => Some(RejectReason::BehindRetention),
            _ => None,
        }
    }
}

/// A successful handshake, as seen by the follower.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeOk {
    /// Lineage of the leader's stream base (shape at leader start).
    pub base: LogHeader,
    /// Records the leader had committed at handshake time.
    pub committed: u64,
    /// Offset streaming resumes from — the follower's own offset, as
    /// derived from the shape it sent.
    pub resume_from: u64,
}

/// One frame of the post-handshake stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A committed WAL record: 1-based sequence number, the leader's
    /// committed high-water mark, and the decoded event.
    Record {
        /// 1-based position of this record in the leader's stream.
        seq: u64,
        /// Leader's committed record count when the frame was sent.
        committed: u64,
        /// The shipped event, decoded from the exact WAL bytes.
        event: UpdateEvent,
    },
    /// Liveness + lag refresh while no records are flowing.
    Heartbeat {
        /// Leader's committed record count when the frame was sent.
        committed: u64,
    },
}

/// Encode a record frame around already-encoded WAL record bytes
/// (`u32 len + payload`, exactly as appended to the log).
pub fn encode_record_frame(out: &mut Vec<u8>, seq: u64, committed: u64, record_bytes: &[u8]) {
    out.push(1);
    put_u64(out, seq);
    put_u64(out, committed);
    out.extend_from_slice(record_bytes);
}

/// Encode a heartbeat frame.
pub fn encode_heartbeat_frame(out: &mut Vec<u8>, committed: u64) {
    out.push(2);
    put_u64(out, committed);
}

/// Read one frame from the stream. Returns `Err` on EOF, socket
/// timeout, or a malformed frame — all of which the follower treats as
/// "reconnect and re-handshake".
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let tag = read_n::<1>(r)?[0];
    match tag {
        1 => {
            let seq = u64::from_le_bytes(read_n::<8>(r)?);
            let committed = u64::from_le_bytes(read_n::<8>(r)?);
            let len = u32::from_le_bytes(read_n::<4>(r)?) as usize;
            if len > MAX_FRAME_PAYLOAD {
                return Err(bad_data(format!("record frame payload of {len} bytes")));
            }
            let mut payload = vec![0u8; len];
            r.read_exact(&mut payload)?;
            let event = decode_payload(&payload)
                .map_err(|e| bad_data(format!("undecodable record frame: {e}")))?;
            Ok(Frame::Record {
                seq,
                committed,
                event,
            })
        }
        2 => Ok(Frame::Heartbeat {
            committed: u64::from_le_bytes(read_n::<8>(r)?),
        }),
        t => Err(bad_data(format!("unknown replication frame tag {t}"))),
    }
}

fn read_n<const N: usize>(r: &mut impl Read) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn encode_hello(out: &mut Vec<u8>, probe: bool, users: u64, items: u64) {
    put_u32(out, REPL_MAGIC);
    out.push(REPL_VERSION);
    out.push(u8::from(probe));
    put_u64(out, users);
    put_u64(out, items);
}

struct Hello {
    probe: bool,
    users: u64,
    items: u64,
}

fn read_hello(r: &mut impl Read) -> io::Result<Hello> {
    let mut buf = [0u8; 22];
    r.read_exact(&mut buf)?;
    let mut pos = 0usize;
    let magic = get_u32(&buf, &mut pos).map_err(|e| bad_data(e.to_string()))?;
    if magic != REPL_MAGIC {
        return Err(bad_data(format!("bad replication magic {magic:#x}")));
    }
    let version = buf[pos];
    pos += 1;
    if version != REPL_VERSION {
        return Err(bad_data(format!(
            "unsupported replication version {version}"
        )));
    }
    let mode = buf[pos];
    pos += 1;
    let users = get_u64(&buf, &mut pos).map_err(|e| bad_data(e.to_string()))?;
    let items = get_u64(&buf, &mut pos).map_err(|e| bad_data(e.to_string()))?;
    Ok(Hello {
        probe: mode == 1,
        users,
        items,
    })
}

fn encode_reply(
    out: &mut Vec<u8>,
    status: u8,
    base: &LogHeader,
    committed: u64,
    resume_from: u64,
    msg: &str,
) {
    out.push(status);
    put_u64(out, base.base_users);
    put_u64(out, base.base_items);
    put_u64(out, committed);
    put_u64(out, resume_from);
    put_u32(out, msg.len() as u32);
    out.extend_from_slice(msg.as_bytes());
}

fn read_reply(r: &mut impl Read) -> io::Result<Result<HandshakeOk, (RejectReason, String)>> {
    let status = read_n::<1>(r)?[0];
    let base_users = u64::from_le_bytes(read_n::<8>(r)?);
    let base_items = u64::from_le_bytes(read_n::<8>(r)?);
    let committed = u64::from_le_bytes(read_n::<8>(r)?);
    let resume_from = u64::from_le_bytes(read_n::<8>(r)?);
    let len = u32::from_le_bytes(read_n::<4>(r)?) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(bad_data(format!("handshake message of {len} bytes")));
    }
    let mut msg = vec![0u8; len];
    r.read_exact(&mut msg)?;
    let msg = String::from_utf8_lossy(&msg).into_owned();
    if status == 0 {
        return Ok(Ok(HandshakeOk {
            base: LogHeader {
                base_users,
                base_items,
            },
            committed,
            resume_from,
        }));
    }
    let reason = RejectReason::from_code(status)
        .ok_or_else(|| bad_data(format!("unknown handshake status {status}")))?;
    Ok(Err((reason, msg)))
}

/// Leader-side replication metrics, registered into the shared
/// [`MetricsRegistry`] (rendered by `/metrics` and `/live/stats`).
#[derive(Debug)]
pub struct LeaderReplStats {
    committed: Gauge,
    followers: Gauge,
    records_shipped: Counter,
    handshakes_rejected: Counter,
}

impl LeaderReplStats {
    fn new(registry: &MetricsRegistry) -> LeaderReplStats {
        LeaderReplStats {
            committed: registry.gauge(
                "taxrec_replication_committed",
                "WAL records committed to the replication stream since leader start",
                &[],
            ),
            followers: registry.gauge(
                "taxrec_replication_followers",
                "Follower connections currently streaming",
                &[],
            ),
            records_shipped: registry.counter(
                "taxrec_replication_records_shipped_total",
                "WAL records shipped to followers (summed over connections)",
                &[],
            ),
            handshakes_rejected: registry.counter(
                "taxrec_replication_handshakes_rejected_total",
                "Follower handshakes refused (lineage mismatch / behind retention)",
                &[],
            ),
        }
    }

    /// Records committed to the stream since leader start.
    pub fn committed(&self) -> u64 {
        self.committed.get()
    }
    /// Handshakes refused.
    pub fn handshakes_rejected(&self) -> u64 {
        self.handshakes_rejected.get()
    }
}

/// One committed record retained for shipping: the exact WAL bytes and
/// the model shape immediately **after** applying it (which is what a
/// follower that has applied through this record will present at
/// re-handshake).
struct Retained {
    record_bytes: Arc<[u8]>,
    users: u64,
    items: u64,
}

struct HubInner {
    records: Vec<Retained>,
    closed: bool,
}

/// The leader's committed-record buffer, shared between the applier
/// (producer) and follower connections (consumers).
///
/// Retention is process-lifetime: every record committed since the
/// leader started is kept (records are a few hundred bytes; the model
/// they grow dwarfs them), so any follower whose state lies on this
/// stream — including one that bootstrapped from the leader's startup
/// snapshot and caught up from its own local WAL — can resume.
///
/// Offset resolution leans on an invariant of the event model: every
/// event grows `users + items` by exactly one, so a follower's shape
/// sum minus the stream base's shape sum *is* its offset, and the
/// shape recorded per retained record verifies the match exactly
/// (an idempotent re-handshake cannot skip or double-apply).
pub struct ReplicationHub {
    base: LogHeader,
    committed: AtomicU64,
    inner: Mutex<HubInner>,
    more: Condvar,
    stats: LeaderReplStats,
}

impl std::fmt::Debug for ReplicationHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicationHub")
            .field("base", &self.base)
            .field("committed", &self.committed())
            .finish_non_exhaustive()
    }
}

impl ReplicationHub {
    /// A hub whose stream base is the given lineage (the leader's model
    /// shape at applier start), registering leader-side metrics into
    /// `registry`.
    pub fn new(base: LogHeader, registry: &MetricsRegistry) -> ReplicationHub {
        ReplicationHub {
            base,
            committed: AtomicU64::new(0),
            inner: Mutex::new(HubInner {
                records: Vec::new(),
                closed: false,
            }),
            more: Condvar::new(),
            stats: LeaderReplStats::new(registry),
        }
    }

    /// Lineage of the stream base.
    pub fn base(&self) -> LogHeader {
        self.base
    }

    /// Records committed since leader start (the follower-visible
    /// high-water mark).
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Leader-side metrics.
    pub fn stats(&self) -> &LeaderReplStats {
        &self.stats
    }

    /// Append a batch of committed records. Called by the applier only
    /// after the WAL flush succeeded and the batch was published —
    /// never with nacked events. Each entry is the record's exact WAL
    /// bytes plus the model shape after applying it.
    pub fn commit(&self, batch: Vec<(Vec<u8>, u64, u64)>) {
        if batch.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for (bytes, users, items) in batch {
            inner.records.push(Retained {
                record_bytes: bytes.into(),
                users,
                items,
            });
        }
        let committed = inner.records.len() as u64;
        drop(inner);
        self.committed.store(committed, Ordering::Release);
        self.stats.committed.set(committed);
        self.more.notify_all();
    }

    /// Stop the stream: wake every waiting connection so it can wind
    /// down. Idempotent. Called when the leader shuts down.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        drop(inner);
        self.more.notify_all();
    }

    /// True once [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed
    }

    /// Resolve a follower's presented shape to its stream offset, or
    /// refuse with a structured reason.
    pub fn resolve_offset(&self, users: u64, items: u64) -> Result<u64, (RejectReason, String)> {
        let base_sum = self.base.base_users + self.base.base_items;
        let want_sum = users + items;
        if want_sum < base_sum {
            return Err((
                RejectReason::BehindRetention,
                format!(
                    "follower state ({users} users, {items} items) predates this leader's \
                     stream base ({} users, {} items); bootstrap the follower from the \
                     leader's latest snapshot + log",
                    self.base.base_users, self.base.base_items
                ),
            ));
        }
        let offset = want_sum - base_sum;
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let committed = inner.records.len() as u64;
        if offset > committed {
            return Err((
                RejectReason::LineageMismatch,
                format!(
                    "follower state ({users} users, {items} items) is ahead of this \
                     leader's committed stream ({committed} records past {} users, \
                     {} items): different lineage",
                    self.base.base_users, self.base.base_items
                ),
            ));
        }
        let (expect_users, expect_items) = if offset == 0 {
            (self.base.base_users, self.base.base_items)
        } else {
            let r = &inner.records[offset as usize - 1];
            (r.users, r.items)
        };
        if (users, items) != (expect_users, expect_items) {
            return Err((
                RejectReason::LineageMismatch,
                format!(
                    "follower state ({users} users, {items} items) does not match this \
                     leader's stream at offset {offset} ({expect_users} users, \
                     {expect_items} items): different base model or event history"
                ),
            ));
        }
        Ok(offset)
    }

    /// Up to `cap` retained records starting at 0-based offset `from`,
    /// as `(seq, bytes)` with 1-based `seq = offset + 1`.
    fn records_from(&self, from: u64, cap: usize) -> Vec<(u64, Arc<[u8]>)> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .records
            .iter()
            .enumerate()
            .skip(from as usize)
            .take(cap)
            .map(|(i, r)| (i as u64 + 1, Arc::clone(&r.record_bytes)))
            .collect()
    }

    /// Block until more than `seen` records are committed, the hub is
    /// closed, or `timeout` elapses. Returns `(committed, closed)`.
    fn wait_more(&self, seen: u64, timeout: Duration) -> (u64, bool) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let committed = inner.records.len() as u64;
            if committed > seen || inner.closed {
                return (committed, inner.closed);
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return (committed, inner.closed);
            }
            let (guard, _) = self
                .more
                .wait_timeout(inner, left)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
    }
}

/// Serve one follower connection on the leader: handshake, stream the
/// retained tail, then tail live commits (heartbeating while idle)
/// until the socket drops or the hub closes. Returns on any error —
/// the follower reconnects and re-handshakes.
pub fn serve_follower(mut stream: TcpStream, hub: &ReplicationHub) {
    let _ = stream.set_read_timeout(Some(SOCKET_DEADLINE));
    let _ = stream.set_write_timeout(Some(SOCKET_DEADLINE));
    let _ = stream.set_nodelay(true);
    let Ok(hello) = read_hello(&mut stream) else {
        return;
    };
    let mut reply = Vec::new();
    let resume_from = match hub.resolve_offset(hello.users, hello.items) {
        Ok(offset) => {
            encode_reply(&mut reply, 0, &hub.base(), hub.committed(), offset, "");
            offset
        }
        Err((reason, msg)) => {
            hub.stats.handshakes_rejected.inc();
            encode_reply(
                &mut reply,
                reason.code(),
                &hub.base(),
                hub.committed(),
                0,
                &msg,
            );
            let _ = stream.write_all(&reply);
            return;
        }
    };
    if stream.write_all(&reply).is_err() || hello.probe {
        return;
    }

    hub.stats.followers.inc();
    let mut next = resume_from; // 0-based offset of the next record to ship
    let mut buf = Vec::new();
    loop {
        let batch = hub.records_from(next, SHIP_BATCH);
        if batch.is_empty() {
            let (committed, closed) = hub.wait_more(next, HEARTBEAT_EVERY);
            if closed {
                break;
            }
            if committed == next {
                buf.clear();
                encode_heartbeat_frame(&mut buf, committed);
                if stream.write_all(&buf).is_err() {
                    break;
                }
            }
            continue;
        }
        let committed = hub.committed();
        buf.clear();
        let shipped = batch.len() as u64;
        for (seq, bytes) in batch {
            encode_record_frame(&mut buf, seq, committed, &bytes);
            next = seq;
        }
        if stream.write_all(&buf).is_err() {
            break;
        }
        hub.stats.records_shipped.add(shipped);
    }
    hub.stats.followers.dec();
}

/// The leader's replication listener: an accept loop that serves each
/// follower connection on its own thread. Dropping the handle closes
/// the hub and joins the accept loop.
#[derive(Debug)]
pub struct ReplicationListener {
    addr: SocketAddr,
    hub: Arc<ReplicationHub>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ReplicationListener {
    /// Start serving `hub` on an already-bound listener.
    pub fn spawn(
        listener: TcpListener,
        hub: Arc<ReplicationHub>,
    ) -> Result<ReplicationListener, LiveError> {
        let addr = listener
            .local_addr()
            .map_err(|e| LiveError::Io(format!("replication listener: {e}")))?;
        let accept_hub = Arc::clone(&hub);
        let accept_thread = std::thread::Builder::new()
            .name("taxrec-repl-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_hub.is_closed() {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let conn_hub = Arc::clone(&accept_hub);
                    let _ = std::thread::Builder::new()
                        .name("taxrec-repl-conn".into())
                        .spawn(move || serve_follower(stream, &conn_hub));
                }
            })
            .map_err(|e| LiveError::Io(format!("spawning replication accept loop: {e}")))?;
        Ok(ReplicationListener {
            addr,
            hub,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address followers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ReplicationListener {
    fn drop(&mut self) {
        self.hub.close();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Follower-side replication metrics, registered into the shared
/// [`MetricsRegistry`].
#[derive(Debug)]
pub struct FollowerStats {
    lag: Gauge,
    leader_committed: Gauge,
    records_applied: Counter,
    reconnects: Counter,
}

impl FollowerStats {
    /// Register follower gauges/counters into `registry`.
    pub fn new(registry: &MetricsRegistry) -> FollowerStats {
        FollowerStats {
            lag: registry.gauge(
                "taxrec_replication_lag",
                "Leader committed offset minus follower applied offset",
                &[],
            ),
            leader_committed: registry.gauge(
                "taxrec_replication_leader_committed",
                "Leader committed offset as last heard over the stream",
                &[],
            ),
            records_applied: registry.counter(
                "taxrec_replication_records_applied_total",
                "Replicated records applied through the local publish path",
                &[],
            ),
            reconnects: registry.counter(
                "taxrec_replication_reconnects_total",
                "Times the follower re-dialed the leader",
                &[],
            ),
        }
    }

    fn observe(&self, committed: u64, applied: u64) {
        self.leader_committed.set(committed);
        self.lag.set(committed.saturating_sub(applied));
    }

    /// Leader committed minus locally applied, as last heard.
    pub fn lag(&self) -> u64 {
        self.lag.get()
    }
    /// Leader's committed offset as last heard.
    pub fn leader_committed(&self) -> u64 {
        self.leader_committed.get()
    }
    /// Replicated records applied locally.
    pub fn records_applied(&self) -> u64 {
        self.records_applied.get()
    }
    /// Reconnect attempts after the initial connection.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.get()
    }
}

/// One-shot handshake against a leader: validates that this follower's
/// current shape lies on the leader's stream without starting to
/// stream. Used by `taxrec serve --follow` to fail fast on a lineage
/// mismatch at startup.
pub fn probe(addr: &str, users: u64, items: u64) -> Result<HandshakeOk, LiveError> {
    let io = |e: io::Error| LiveError::Io(format!("replication probe {addr}: {e}"));
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    let _ = stream.set_read_timeout(Some(SOCKET_DEADLINE));
    let _ = stream.set_write_timeout(Some(SOCKET_DEADLINE));
    let mut hello = Vec::new();
    encode_hello(&mut hello, true, users, items);
    stream.write_all(&hello).map_err(io)?;
    match read_reply(&mut stream).map_err(io)? {
        Ok(ok) => Ok(ok),
        Err((reason, msg)) => Err(LiveError::Io(format!(
            "leader {addr} refused replication handshake ({reason:?}): {msg}"
        ))),
    }
}

/// Run the follower apply loop until `stop` is set: connect to the
/// leader, handshake with the current model shape, apply streamed
/// records through `handle` (the same validate → WAL → publish path
/// local writes take), and reconnect with exponential backoff on any
/// socket failure. Every reconnect re-handshakes from the follower's
/// **current** shape, so a record is never applied twice or skipped.
///
/// Fatal errors (the loop gives up and returns `Err`): a handshake
/// rejection (lineage mismatch / behind retention) and a local apply
/// failure — both mean this follower cannot converge without operator
/// action.
pub fn follow(
    addr: &str,
    handle: &LiveHandle,
    stats: &FollowerStats,
    stop: &AtomicBool,
) -> Result<(), LiveError> {
    let mut backoff = BACKOFF_START;
    let mut connected_once = false;
    while !stop.load(Ordering::Relaxed) {
        if connected_once {
            stats.reconnects.inc();
            sleep_unless_stopped(backoff, stop);
            backoff = (backoff * 2).min(BACKOFF_CAP);
            if stop.load(Ordering::Relaxed) {
                break;
            }
        }
        connected_once = true;
        let Ok(mut stream) = TcpStream::connect(addr) else {
            continue;
        };
        let _ = stream.set_read_timeout(Some(SOCKET_DEADLINE));
        let _ = stream.set_write_timeout(Some(SOCKET_DEADLINE));
        let _ = stream.set_nodelay(true);
        let snap = handle.cell().load();
        let (users, items) = (
            snap.model().num_users() as u64,
            snap.model().num_items() as u64,
        );
        drop(snap);
        let mut hello = Vec::new();
        encode_hello(&mut hello, false, users, items);
        if stream.write_all(&hello).is_err() {
            continue;
        }
        let mut applied = match read_reply(&mut stream) {
            Ok(Ok(ok)) => {
                stats.observe(ok.committed, ok.resume_from);
                ok.resume_from
            }
            Ok(Err((reason, msg))) => {
                return Err(LiveError::Io(format!(
                    "leader {addr} refused replication handshake ({reason:?}): {msg}"
                )));
            }
            Err(_) => continue,
        };
        backoff = BACKOFF_START;
        let mut reader = io::BufReader::new(stream);
        while !stop.load(Ordering::Relaxed) {
            match read_frame(&mut reader) {
                Ok(Frame::Heartbeat { committed }) => stats.observe(committed, applied),
                Ok(Frame::Record {
                    seq,
                    committed,
                    event,
                }) => {
                    if seq != applied + 1 {
                        // Desynced stream — drop the socket and
                        // re-handshake from our current shape.
                        break;
                    }
                    handle.submit(event).map_err(|e| {
                        LiveError::Io(format!("applying replicated record {seq} from {addr}: {e}"))
                    })?;
                    applied = seq;
                    stats.records_applied.inc();
                    stats.observe(committed.max(applied), applied);
                }
                Err(_) => break,
            }
        }
    }
    Ok(())
}

/// Sleep in small slices so a set `stop` flag cuts the backoff short.
fn sleep_unless_stopped(total: Duration, stop: &AtomicBool) {
    let slice = Duration::from_millis(25);
    let deadline = std::time::Instant::now() + total;
    while !stop.load(Ordering::Relaxed) {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        if left.is_zero() {
            break;
        }
        std::thread::sleep(left.min(slice));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub_with(base_users: u64, base_items: u64) -> ReplicationHub {
        ReplicationHub::new(
            LogHeader {
                base_users,
                base_items,
            },
            &MetricsRegistry::new(),
        )
    }

    fn record(bytes: &[u8], users: u64, items: u64) -> (Vec<u8>, u64, u64) {
        (bytes.to_vec(), users, items)
    }

    #[test]
    fn offset_resolution_follows_shape_sum() {
        let hub = hub_with(10, 5);
        assert_eq!(hub.resolve_offset(10, 5), Ok(0));
        hub.commit(vec![record(b"a", 10, 6), record(b"b", 11, 6)]);
        assert_eq!(hub.resolve_offset(10, 6), Ok(1));
        assert_eq!(hub.resolve_offset(11, 6), Ok(2));
        assert_eq!(hub.committed(), 2);
        assert_eq!(hub.stats().committed(), 2);
    }

    #[test]
    fn offset_resolution_rejects_wrong_lineage() {
        let hub = hub_with(10, 5);
        hub.commit(vec![record(b"a", 10, 6)]);
        // Same shape sum as offset 1, but the wrong split: a different
        // event history.
        let err = hub.resolve_offset(11, 5).unwrap_err();
        assert_eq!(err.0, RejectReason::LineageMismatch);
        // Ahead of everything this leader has committed.
        let err = hub.resolve_offset(14, 9).unwrap_err();
        assert_eq!(err.0, RejectReason::LineageMismatch);
        // Behind the stream base entirely.
        let err = hub.resolve_offset(9, 5).unwrap_err();
        assert_eq!(err.0, RejectReason::BehindRetention);
        // A base-shaped follower with the wrong split is also refused.
        let err = hub.resolve_offset(9, 6).unwrap_err();
        assert_eq!(err.0, RejectReason::LineageMismatch);
    }

    #[test]
    fn handshake_reply_round_trips() {
        let base = LogHeader {
            base_users: 7,
            base_items: 3,
        };
        let mut buf = Vec::new();
        encode_reply(&mut buf, 0, &base, 42, 40, "");
        let got = read_reply(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(
            got,
            HandshakeOk {
                base,
                committed: 42,
                resume_from: 40
            }
        );
        let mut buf = Vec::new();
        encode_reply(&mut buf, 1, &base, 42, 0, "different base model");
        let (reason, msg) = read_reply(&mut &buf[..]).unwrap().unwrap_err();
        assert_eq!(reason, RejectReason::LineageMismatch);
        assert_eq!(msg, "different base model");
    }

    #[test]
    fn heartbeat_frame_round_trips() {
        let mut buf = Vec::new();
        encode_heartbeat_frame(&mut buf, 99);
        assert_eq!(
            read_frame(&mut &buf[..]).unwrap(),
            Frame::Heartbeat { committed: 99 }
        );
    }

    #[test]
    fn frame_rejects_garbage() {
        let mut buf = vec![9u8];
        assert!(read_frame(&mut &buf[..]).is_err());
        buf.clear();
        // Record frame with an absurd length prefix.
        buf.push(1);
        put_u64(&mut buf, 1);
        put_u64(&mut buf, 1);
        put_u32(&mut buf, u32::MAX);
        assert!(read_frame(&mut &buf[..]).is_err());
    }
}
