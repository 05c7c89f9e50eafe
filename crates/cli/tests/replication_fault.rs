//! Fault injection for WAL-shipping replication (ISSUE 8):
//!
//! * a proxy that severs the leader→follower socket mid-handshake and
//!   mid-record: the follower reconnects, re-handshakes from its
//!   current shape, and converges with no record duplicated or skipped;
//! * a leader that degrades (WAL rotation failure) stops committing new
//!   offsets — a nacked event is **never** shipped, and `/live/stats`
//!   reports `"taxrec_live_degraded":1`;
//! * a follower whose state diverged from the leader's stream is
//!   refused at handshake with a structured reason and applies nothing.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use taxrec_cli::serve::{route, spawn_follow, LiveServer};
use taxrec_core::live::replication::{follow, probe, FollowerStats, ReplicationListener};
use taxrec_core::live::{LiveConfig, LiveHandle, LiveState, UpdateEvent};
use taxrec_core::obs::MetricsRegistry;
use taxrec_core::{ModelConfig, TfModel, TfTrainer};
use taxrec_dataset::{DatasetConfig, SyntheticDataset, Transaction};
use taxrec_taxonomy::{ItemId, NodeId};

struct Fixture {
    data: SyntheticDataset,
    model: TfModel,
    parent: NodeId,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(100), 3);
        let model = TfTrainer::new(
            ModelConfig::tf(4, 1).with_factors(4).with_epochs(2),
            &data.taxonomy,
        )
        .fit(&data.train, 1);
        let tax = model.taxonomy();
        let parent = tax.parent(tax.item_node(ItemId(0))).unwrap();
        Fixture {
            data,
            model,
            parent,
        }
    })
}

fn make_event(fix: &Fixture, i: usize) -> UpdateEvent {
    if i.is_multiple_of(2) {
        UpdateEvent::AddItem { parent: fix.parent }
    } else {
        let history: Vec<Transaction> = fix
            .data
            .train
            .user(i % fix.data.train.num_users())
            .iter()
            .take(2)
            .cloned()
            .collect();
        UpdateEvent::FoldInUser {
            history,
            steps: 20 + i % 30,
            seed: i as u64,
        }
    }
}

fn encoded(model: &TfModel) -> Vec<u8> {
    taxrec_core::persist::encode(model)
}

fn wait_for(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !done() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Pump bytes `from` → `to`, severing both sockets after `budget`
/// bytes. `usize::MAX` pumps until EOF.
fn pump(mut from: TcpStream, mut to: TcpStream, mut budget: usize) {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                let send = n.min(budget);
                if to.write_all(&buf[..send]).is_err() {
                    break;
                }
                budget -= send;
                if budget == 0 {
                    break;
                }
            }
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// A TCP proxy in front of `upstream` whose n-th accepted connection
/// cuts the upstream→client direction after `cuts[n]` bytes (later
/// connections are unrestricted). Client→upstream always flows freely.
fn cut_proxy(upstream: SocketAddr, cuts: &'static [usize]) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for (conn_no, client) in listener.incoming().enumerate() {
            let Ok(client) = client else { continue };
            let budget = cuts.get(conn_no).copied().unwrap_or(usize::MAX);
            let Ok(up) = TcpStream::connect(upstream) else {
                let _ = client.shutdown(Shutdown::Both);
                continue;
            };
            let (c2, u2) = (client.try_clone().unwrap(), up.try_clone().unwrap());
            std::thread::spawn(move || pump(c2, u2, usize::MAX));
            std::thread::spawn(move || pump(up, client, budget));
        }
    });
    addr
}

/// The socket is severed mid-handshake-reply (20 bytes of the 37-byte
/// reply) on the first connection and mid-record-frame on the second:
/// the follower must reconnect, re-handshake idempotently from its
/// current shape, and end bit-identical to the leader with every record
/// applied exactly once.
#[test]
fn severed_socket_mid_record_reconnects_without_dup_or_skip() {
    const EVENTS: usize = 30;
    let fix = fixture();
    let leader = LiveHandle::spawn(
        LiveState::new(fix.model.clone()),
        LiveConfig {
            replicate: true,
            ..LiveConfig::default()
        },
    )
    .unwrap();
    let hub = Arc::clone(leader.replication().unwrap());
    let listener =
        ReplicationListener::spawn(TcpListener::bind("127.0.0.1:0").unwrap(), hub).unwrap();
    for i in 0..EVENTS {
        leader.submit(make_event(fix, i)).unwrap();
    }

    // Connection 0 dies inside the handshake reply; connection 1 dies
    // 10 bytes into the first record frame; connection 2+ flow freely.
    let proxy = cut_proxy(listener.addr(), &[20, 47]).to_string();

    let follower = Arc::new(
        LiveHandle::spawn(LiveState::new(fix.model.clone()), LiveConfig::default()).unwrap(),
    );
    let stats = Arc::new(FollowerStats::new(&MetricsRegistry::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let tail = {
        let (follower, stats, stop) =
            (Arc::clone(&follower), Arc::clone(&stats), Arc::clone(&stop));
        std::thread::spawn(move || follow(&proxy, &follower, &stats, &stop))
    };

    wait_for(
        "follower to drain the stream",
        Duration::from_secs(30),
        || stats.records_applied() >= EVENTS as u64,
    );
    // Settle, then check exactly-once: an extra (duplicated) apply
    // would push the counter past EVENTS and change the model shape.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(stats.records_applied(), EVENTS as u64);
    assert!(
        stats.reconnects() >= 2,
        "both cuts must force a reconnect, saw {}",
        stats.reconnects()
    );
    assert_eq!(stats.lag(), 0);
    assert_eq!(
        encoded(follower.cell().load().model()),
        encoded(leader.cell().load().model()),
        "follower diverged from leader across reconnects"
    );

    stop.store(true, Ordering::Relaxed);
    drop(listener);
    tail.join().unwrap().unwrap();
}

/// A leader whose WAL rotation fails degrades to read-only: the nacked
/// event is never committed to the replication stream, the follower
/// idles at the last good offset, and `/live/stats` says so.
#[test]
fn degraded_leader_never_ships_a_nacked_record() {
    let fix = fixture();
    let log_dir = std::env::temp_dir().join(format!("taxrec-repl-deg-log-{}", std::process::id()));
    let snap_dir =
        std::env::temp_dir().join(format!("taxrec-repl-deg-snap-{}", std::process::id()));
    for d in [&log_dir, &snap_dir] {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).unwrap();
    }

    let mut leader = LiveServer::new(
        LiveState::new(fix.model.clone()),
        fix.data.train.clone(),
        None,
        LiveConfig {
            replicate: true,
            snapshot_every: 2,
            batch_cap: 1,
            log_path: Some(log_dir.join("events.log")),
            snapshot_path: Some(snap_dir.join("snap.tfm")),
            ..LiveConfig::default()
        },
    )
    .unwrap();
    let addr = leader
        .start_replication(TcpListener::bind("127.0.0.1:0").unwrap())
        .unwrap();

    let mut follower = LiveServer::new(
        LiveState::new(fix.model.clone()),
        fix.data.train.clone(),
        None,
        LiveConfig::default(),
    )
    .unwrap();
    let stats = follower.set_follower(addr.to_string());
    let follower = Arc::new(follower);
    let stop = Arc::new(AtomicBool::new(false));
    let tail = spawn_follow(Arc::clone(&follower), Arc::clone(&stop));

    let body = format!("{{\"parent\": {}}}", fix.parent.0);
    assert_eq!(
        route(&leader, "POST", "/items", body.as_bytes()).status,
        200
    );
    // The open handle keeps the log inode alive; the post-snapshot
    // rotation's fresh file create is what notices the dir is gone.
    std::fs::remove_dir_all(&log_dir).unwrap();
    // Acked (its WAL append + publish succeed), then the snapshot
    // rotation fails and the applier degrades.
    assert_eq!(
        route(&leader, "POST", "/items", body.as_bytes()).status,
        200
    );
    // Nacked: the degraded leader refuses writes…
    assert_eq!(
        route(&leader, "POST", "/items", body.as_bytes()).status,
        503
    );
    // …and never committed the nacked event to the stream.
    let hub = leader.live().replication().unwrap();
    assert_eq!(hub.committed(), 2);

    wait_for(
        "follower to reach offset 2",
        Duration::from_secs(30),
        || stats.records_applied() >= 2,
    );
    // Longer than a heartbeat interval: had the nacked record been
    // shipped, the follower would have applied it by now.
    std::thread::sleep(Duration::from_millis(800));
    assert_eq!(stats.records_applied(), 2);
    assert_eq!(stats.lag(), 0, "follower converged at the last good offset");

    let leader_stats = route(&leader, "GET", "/live/stats", b"").body;
    assert!(
        leader_stats.contains("\"taxrec_live_degraded\":1"),
        "{leader_stats}"
    );
    assert!(
        leader_stats.contains("\"role\":\"leader\""),
        "{leader_stats}"
    );
    assert!(
        leader_stats.contains("\"taxrec_replication_committed\":2"),
        "{leader_stats}"
    );
    let follower_stats = route(&follower, "GET", "/live/stats", b"").body;
    assert!(
        follower_stats.contains("\"role\":\"follower\""),
        "{follower_stats}"
    );
    assert!(
        follower_stats.contains("\"taxrec_replication_lag\":0"),
        "{follower_stats}"
    );
    // A healthy follower reports its own applier as not degraded.
    assert!(
        follower_stats.contains("\"taxrec_live_degraded\":0"),
        "{follower_stats}"
    );

    stop.store(true, Ordering::Relaxed);
    drop(leader); // closes the hub → follower read fails → stop observed
    tail.join().unwrap();
    let _ = std::fs::remove_dir_all(&snap_dir);
}

/// A diverged follower (same shape sum, different event history) is
/// refused at handshake with a structured lineage error and applies
/// nothing; a shape predating the stream base is told to re-bootstrap.
#[test]
fn lineage_mismatch_is_refused_at_handshake() {
    let fix = fixture();
    let leader = LiveHandle::spawn(
        LiveState::new(fix.model.clone()),
        LiveConfig {
            replicate: true,
            ..LiveConfig::default()
        },
    )
    .unwrap();
    let hub = Arc::clone(leader.replication().unwrap());
    let listener =
        ReplicationListener::spawn(TcpListener::bind("127.0.0.1:0").unwrap(), Arc::clone(&hub))
            .unwrap();
    let addr = listener.addr().to_string();
    // The leader's only committed event is an AddItem…
    leader.submit(make_event(fix, 0)).unwrap();

    // …but this follower applied a local FoldInUser: same shape *sum*
    // as the leader's offset 1, different split → different history.
    let follower =
        LiveHandle::spawn(LiveState::new(fix.model.clone()), LiveConfig::default()).unwrap();
    follower.submit(make_event(fix, 1)).unwrap();
    let snap = follower.cell().load();
    let (users, items) = (
        snap.model().num_users() as u64,
        snap.model().num_items() as u64,
    );
    drop(snap);

    let err = probe(&addr, users, items).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("LineageMismatch"), "{msg}");
    assert!(
        msg.contains("different base model or event history"),
        "{msg}"
    );

    // The streaming path fails fast too — fatal error, nothing applied.
    let stats = FollowerStats::new(&MetricsRegistry::new());
    let stop = AtomicBool::new(false);
    let err = follow(&addr, &follower, &stats, &stop).unwrap_err();
    assert!(err.to_string().contains("LineageMismatch"), "{err}");
    assert_eq!(stats.records_applied(), 0);

    // A shape from before the leader's stream base is told to
    // re-bootstrap from the leader's snapshot + log.
    let err = probe(&addr, 0, 0).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("BehindRetention"), "{msg}");
    assert!(msg.contains("bootstrap"), "{msg}");

    assert!(hub.stats().handshakes_rejected() >= 3);
}
