//! Deterministic in-process load harness for the pooled HTTP server
//! (ISSUE 3 acceptance): K client threads each run a fixed request
//! script against an ephemeral-port server and the test asserts exact
//! outcomes — zero dropped acks, swap-consistent reads across
//! publishes, and stats counters matching the scripted mix exactly.
//!
//! Extended for ISSUE 4: the concurrent soak runs over a **2-shard**
//! catalog (so the sharded scan path is what concurrency exercises,
//! with `verify_consistent` checking the shard layout on every load),
//! and a second test replays one deterministic script against servers
//! at `scan_shards` 1 and 4 (`LiveConfig`) and asserts every served
//! body is byte-identical across the two.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use taxrec_cli::serve::{serve_on, LiveServer, ServeOptions};
use taxrec_core::live::{LiveConfig, LiveState};
use taxrec_core::{ModelConfig, TfTrainer};
use taxrec_dataset::{DatasetConfig, SyntheticDataset};
use taxrec_taxonomy::ItemId;

mod common;
use common::{field_u64, get, post};

const CLIENTS: usize = 4;
const ROUNDS: usize = 6;

/// What one client's script acked.
#[derive(Default)]
struct ClientLog {
    item_ids: Vec<u64>,
    folded_users: Vec<u64>,
    epochs: Vec<u64>,
}

#[test]
fn pooled_server_under_scripted_concurrent_load() {
    let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(80), 11);
    let model = TfTrainer::new(
        ModelConfig::tf(4, 1).with_factors(4).with_epochs(1),
        &d.taxonomy,
    )
    .fit(&d.train, 1);
    let base_users = model.num_users();
    let base_items = model.num_items();
    let parent = {
        let tax = model.taxonomy();
        tax.parent(tax.item_node(ItemId(0))).unwrap().0
    };

    let server = Arc::new(
        LiveServer::new(
            LiveState::new(model),
            d.train.clone(),
            None,
            LiveConfig {
                scan_shards: 2,
                ..LiveConfig::default()
            },
        )
        .unwrap(),
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server_thread = std::thread::spawn({
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        move || {
            serve_on(
                listener,
                server,
                ServeOptions {
                    workers: 4,
                    queue_depth: 16,
                    max_conns: None,
                    stop: Some(stop),
                },
            )
        }
    });

    // Swap-consistency, asserted at the source: a checker thread loads
    // snapshots as fast as it can while the applier publishes, and
    // every loaded engine must be internally consistent (model, scorer
    // and folded histories from ONE publish, never a mix).
    let checker = std::thread::spawn({
        let cell = Arc::clone(server.live().cell());
        let stop = Arc::clone(&stop);
        move || {
            let mut loads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                assert!(
                    cell.load().verify_consistent(),
                    "reader observed an inconsistent snapshot"
                );
                loads += 1;
            }
            loads
        }
    });

    // K clients × fixed script: add an item, fold a user in, read a
    // batch, read health. Every request's outcome is recorded.
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    for r in 0..ROUNDS {
                        let (status, body) =
                            post(addr, "/items", &format!("{{\"parent\": {parent}}}"));
                        assert_eq!(status, 200, "client {c} round {r} add-item ack: {body}");
                        log.item_ids.push(field_u64(&body, "item"));
                        log.epochs.push(field_u64(&body, "epoch"));

                        let hist_a = (c * ROUNDS + r) % base_items;
                        let hist_b = (c + r) % base_items;
                        let (status, body) = post(
                            addr,
                            "/users/fold-in",
                            &format!(
                                "{{\"history\": [[{hist_a}],[{hist_b}]], \"steps\": 30, \
                                 \"seed\": {}}}",
                                c * 1000 + r
                            ),
                        );
                        assert_eq!(status, 200, "client {c} round {r} fold-in ack: {body}");
                        log.folded_users.push(field_u64(&body, "user"));
                        log.epochs.push(field_u64(&body, "epoch"));

                        let (status, body) =
                            get(addr, "/recommend/batch?users=0-15&top=5&threads=1");
                        assert_eq!(status, 200, "client {c} round {r} batch: {body}");
                        // One snapshot served the whole batch: 16 users,
                        // 5 recommendations each, a single epoch stamp.
                        assert_eq!(
                            body.matches("{\"user\":").count(),
                            16,
                            "client {c} round {r}: {body}"
                        );
                        assert_eq!(body.matches("\"score\"").count(), 16 * 5);
                        assert_eq!(body.matches("\"epoch\":").count(), 1);

                        let (status, body) = get(addr, "/health");
                        assert_eq!(status, 200, "client {c} round {r} health: {body}");
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // ── Zero dropped acks ────────────────────────────────────────────
    // Every POST was acked, and the acked ids are exactly the
    // contiguous block the applier must have assigned: nothing lost,
    // nothing double-applied.
    let mut item_ids: Vec<u64> = logs.iter().flat_map(|l| l.item_ids.clone()).collect();
    let mut folded: Vec<u64> = logs.iter().flat_map(|l| l.folded_users.clone()).collect();
    item_ids.sort_unstable();
    folded.sort_unstable();
    let want_items: Vec<u64> =
        (base_items as u64..(base_items + CLIENTS * ROUNDS) as u64).collect();
    let want_users: Vec<u64> =
        (base_users as u64..(base_users + CLIENTS * ROUNDS) as u64).collect();
    assert_eq!(item_ids, want_items, "item acks lost or duplicated");
    assert_eq!(folded, want_users, "fold-in acks lost or duplicated");
    // Within one client, acked epochs never go backwards (each ack's
    // epoch was already visible when the ack arrived).
    for (c, log) in logs.iter().enumerate() {
        for w in log.epochs.windows(2) {
            assert!(w[0] <= w[1], "client {c}: epoch went backwards: {w:?}");
        }
    }

    // ── Stats counters match the scripted mix exactly ────────────────
    let stats = server.live().stats().snapshot();
    let posts = (CLIENTS * ROUNDS * 2) as u64;
    assert_eq!(stats.enqueued, posts);
    assert_eq!(stats.applied, posts);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.items_added, (CLIENTS * ROUNDS) as u64);
    assert_eq!(stats.users_folded, (CLIENTS * ROUNDS) as u64);
    assert_eq!(server.live().stats().pending(), 0);
    assert!(stats.publishes >= 1 && stats.publishes <= posts);

    let m = server.http_metrics().snapshot();
    let per_route = (CLIENTS * ROUNDS) as u64;
    assert_eq!(m.connections, per_route * 4);
    assert_eq!(m.requests, per_route * 4);
    assert_eq!(m.dropped, 0);
    assert_eq!(m.queue_full, 0);
    for route in ["/items", "/users/fold-in", "/recommend/batch", "/health"] {
        let r = m.route(route);
        assert_eq!(r.requests, per_route, "{route}");
        assert_eq!(r.status_4xx, 0, "{route}");
        assert_eq!(r.status_5xx, 0, "{route}");
    }
    assert!(m.p50_us >= 1 && m.p50_us <= m.p99_us);

    // ── Post-quiescence reads are deterministic and correct ──────────
    // Every folded user is servable, their top-K is stable across
    // repeated reads, and the final epoch serves all acked updates.
    let (_, model_body) = get(addr, "/model");
    assert!(
        model_body.contains(&format!("\"items\":{}", base_items + CLIENTS * ROUNDS)),
        "{model_body}"
    );
    assert!(
        model_body.contains(&format!("\"users\":{}", base_users + CLIENTS * ROUNDS)),
        "{model_body}"
    );
    for &user in folded.iter() {
        let (s1, b1) = get(addr, &format!("/recommend?user={user}&top=5"));
        let (s2, b2) = get(addr, &format!("/recommend?user={user}&top=5"));
        assert_eq!((s1, s2), (200, 200), "{b1}");
        assert_eq!(b1, b2, "folded user {user} top-K unstable");
        assert_eq!(b1.matches("\"score\"").count(), 5, "{b1}");
    }

    // ── Graceful shutdown ────────────────────────────────────────────
    stop.store(true, Ordering::Relaxed);
    let _ = TcpStream::connect(addr);
    server_thread.join().unwrap();
    let loads = checker.join().unwrap();
    assert!(loads > 0, "consistency checker never ran");
}

/// Run one deterministic single-client script against a fresh pooled
/// server with `scan_shards` catalog shards; return every `(status,
/// body)` pair in script order.
fn run_script(scan_shards: usize) -> Vec<(u16, String)> {
    // Same dataset/model/seeds for every shard count — the event
    // stream is sequential, so the resulting live state (and thus every
    // served byte) must be identical across shard counts.
    let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(50), 29);
    let model = TfTrainer::new(
        ModelConfig::tf(4, 1).with_factors(4).with_epochs(1),
        &d.taxonomy,
    )
    .fit(&d.train, 2);
    let base_users = model.num_users();
    let parent = {
        let tax = model.taxonomy();
        tax.parent(tax.item_node(ItemId(0))).unwrap().0
    };
    let server = Arc::new(
        LiveServer::new(
            LiveState::new(model),
            d.train.clone(),
            None,
            LiveConfig {
                scan_shards,
                ..LiveConfig::default()
            },
        )
        .unwrap(),
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server_thread = std::thread::spawn({
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        move || {
            serve_on(
                listener,
                server,
                ServeOptions {
                    workers: 2,
                    queue_depth: 16,
                    max_conns: None,
                    stop: Some(stop),
                },
            )
        }
    });

    let mut out = Vec::new();
    for r in 0..4usize {
        out.push(post(addr, "/items", &format!("{{\"parent\": {parent}}}")));
        out.push(post(
            addr,
            "/users/fold-in",
            &format!(
                "{{\"history\": [[{}],[{}]], \"steps\": 30, \"seed\": {}}}",
                (3 * r + 1) % 50,
                (7 * r + 2) % 50,
                1000 + r
            ),
        ));
        out.push(get(addr, &format!("/recommend?user={r}&top=6")));
        out.push(get(
            addr,
            &format!("/recommend?user={}&top=5", base_users + r),
        ));
        out.push(get(addr, "/recommend/batch?users=0-15&top=4&threads=2"));
        out.push(get(addr, &format!("/recommend?user={r}&top=6&cascade=0.4")));
        out.push(get(addr, "/model"));
    }
    stop.store(true, Ordering::Relaxed);
    let _ = TcpStream::connect(addr);
    server_thread.join().unwrap();
    out
}

#[test]
fn scripted_bodies_identical_across_scan_shards() {
    let unsharded = run_script(1);
    let sharded = run_script(4);
    assert_eq!(unsharded.len(), sharded.len());
    for (i, ((s1, b1), (s4, b4))) in unsharded.iter().zip(&sharded).enumerate() {
        assert_eq!(s1, s4, "request {i}: status diverged\n{b1}\nvs\n{b4}");
        assert_eq!(
            b1, b4,
            "request {i}: served body diverged between scan_shards 1 and 4"
        );
        assert_eq!(*s1, 200, "request {i} failed: {b1}");
    }
}
