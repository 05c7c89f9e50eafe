//! Soak/regression test for the pooled server's durability story:
//! concurrent `POST /items` + `POST /users/fold-in` + batch GETs while
//! periodic snapshots rotate the WAL mid-run, then restarts verifying
//! `snapshot + replay ≡ live state` end-to-end — the PR 2 recovery law,
//! now exercised through the multi-threaded connection pool.
//!
//! Extended for ISSUE 4: the soak phase serves from an **unsharded**
//! catalog while every restart loads the same WAL/snapshot artifacts at
//! `scan_shards` 4 — so the byte-for-byte body comparisons across
//! phases double as the proof that sharded and unsharded serving are
//! identical, including after a WAL-replay restart.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use taxrec_cli::json::{self, Json};
use taxrec_cli::serve::{route, serve_on, LiveServer, ServeOptions};
use taxrec_cli::DataDir;
use taxrec_core::live::LiveConfig;

mod common;
use common::{field_u64, get, post};

const CLIENTS: usize = 3;
const ROUNDS: usize = 8;

/// The model-shape fields of `/model` that must survive a restart
/// (epoch and the per-session items_added/users_folded counters reset).
fn model_shape(body: &str) -> (u64, u64) {
    let parsed = json::parse(body).unwrap_or_else(|e| panic!("bad /model JSON ({e}): {body}"));
    (
        parsed.get("users").and_then(Json::as_u64).unwrap(),
        parsed.get("items").and_then(Json::as_u64).unwrap(),
    )
}

#[test]
fn concurrent_soak_with_wal_rotation_then_restart_recovers_exactly() {
    let dir = std::env::temp_dir().join(format!("taxrec-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let data_dir = dir.join("data");
    let model_path = dir.join("m.tfm");
    let s = |p: &std::path::Path| p.to_str().unwrap().to_string();

    // Build the on-disk artifacts the documented way: the real CLI.
    taxrec_cli::run(&[
        "generate".into(),
        "--out".into(),
        s(&data_dir),
        "--users".into(),
        "60".into(),
        "--items".into(),
        "120".into(),
        "--seed".into(),
        "5".into(),
    ])
    .unwrap();
    taxrec_cli::run(&[
        "train".into(),
        "--data".into(),
        s(&data_dir),
        "--model".into(),
        s(&model_path),
        "--factors".into(),
        "4".into(),
        "--epochs".into(),
        "1".into(),
        "--threads".into(),
        "1".into(),
        "--seed".into(),
        "3".into(),
    ])
    .unwrap();

    let config = |scan_shards: usize| LiveConfig {
        log_path: Some(dir.join("events.log")),
        snapshot_path: Some(dir.join("snap.tfm")),
        snapshot_every: 8, // rotations fire repeatedly during the soak
        scan_shards,
        ..LiveConfig::default()
    };
    let data = DataDir::new(s(&data_dir));

    // ── Phase 1: concurrent soak over the pooled server (unsharded) ──
    let server = Arc::new(LiveServer::load(&data, &s(&model_path), config(1)).unwrap());
    let parent = {
        let snap = server.live().cell().load();
        let tax = snap.model().taxonomy();
        tax.parent(tax.item_node(taxrec_taxonomy::ItemId(0)))
            .unwrap()
            .0
    };
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
                    workers: 3,
                    queue_depth: 16,
                    max_conns: None,
                    stop: Some(stop),
                },
            )
        }
    });

    let folded: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut folded = Vec::new();
                    for r in 0..ROUNDS {
                        let (status, body) =
                            post(addr, "/items", &format!("{{\"parent\": {parent}}}"));
                        assert_eq!(status, 200, "client {c} round {r}: {body}");
                        let (status, body) = post(
                            addr,
                            "/users/fold-in",
                            &format!(
                                "{{\"history\": [[{}],[{}]], \"steps\": 25, \"seed\": {}}}",
                                (c * ROUNDS + r) % 120,
                                (c + 3 * r) % 120,
                                c * 100 + r
                            ),
                        );
                        assert_eq!(status, 200, "client {c} round {r}: {body}");
                        folded.push(field_u64(&body, "user"));
                        let (status, body) =
                            get(addr, "/recommend/batch?users=0-7&top=3&threads=1");
                        assert_eq!(status, 200, "client {c} round {r}: {body}");
                    }
                    folded
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    // The WAL really rotated under load, and nothing was rejected.
    let stats = server.live().stats().snapshot();
    assert!(
        stats.snapshots_written >= 1,
        "no snapshot rotated the WAL during the soak: {stats:?}"
    );
    assert_eq!(stats.applied, (CLIENTS * ROUNDS * 2) as u64);
    assert_eq!(stats.rejected, 0);

    // Record what the live state serves, then shut down gracefully
    // (drains the pool, flushes the applier, cuts a final snapshot).
    let queries: Vec<String> = [0u64, 1, 2]
        .iter()
        .chain(folded.iter())
        .map(|u| format!("/recommend?user={u}&top=5"))
        .collect();
    let live_bodies: Vec<String> = queries.iter().map(|q| get(addr, q).1).collect();
    let (_, live_model) = get(addr, "/model");
    let live_shape = model_shape(&live_model);
    assert_eq!(
        live_shape,
        (
            (60 + CLIENTS * ROUNDS) as u64,
            (120 + CLIENTS * ROUNDS) as u64
        )
    );
    stop.store(true, Ordering::Relaxed);
    let _ = TcpStream::connect(addr);
    server_thread.join().unwrap();
    drop(server);

    // ── Phase 2: restart under the unchanged command line, but with
    // the catalog cut into 4 scan shards ─────────────────────────────
    // The final snapshot rotated the log, so the base resolves to the
    // snapshot and replay is empty — served state must be identical,
    // byte for byte, to what the unsharded phase-1 server produced.
    let restarted = LiveServer::load(&data, &s(&model_path), config(4)).unwrap();
    assert_eq!(restarted.live().cell().load().engine().scan_shards(), 4);
    assert_eq!(
        model_shape(&route(&restarted, "GET", "/model", b"").body),
        live_shape
    );
    for (q, want) in queries.iter().zip(&live_bodies) {
        let got = route(&restarted, "GET", q, b"");
        assert_eq!(got.status, 200);
        assert_eq!(
            &got.body, want,
            "4-shard restart diverged from unsharded live serving on {q}"
        );
    }

    // ── Phase 3: more acked updates, then an UNGRACEFUL stop ─────────
    // No snapshot is cut this time (snapshot_every stays unreached and
    // the server is dropped, not drained through serve_on), so these
    // events live only in the WAL tail behind the rotated header.
    let r = route(
        &restarted,
        "POST",
        "/items",
        format!("{{\"parent\": {parent}}}").as_bytes(),
    );
    assert_eq!(r.status, 200, "{}", r.body);
    let r = route(
        &restarted,
        "POST",
        "/users/fold-in",
        b"{\"history\": [[7],[19]], \"steps\": 25, \"seed\": 424242}",
    );
    assert_eq!(r.status, 200, "{}", r.body);
    let new_user = field_u64(&r.body, "user");
    // Recapture every query AFTER the tail updates (the new item can
    // legitimately enter older users' top-K); phase 4 must reproduce
    // these, not the phase-1 bodies.
    let tail_queries: Vec<String> = queries
        .iter()
        .cloned()
        .chain([format!("/recommend?user={new_user}&top=5")])
        .collect();
    let tail_bodies: Vec<String> = tail_queries
        .iter()
        .map(|q| route(&restarted, "GET", q, b"").body)
        .collect();
    let tail_shape = model_shape(&route(&restarted, "GET", "/model", b"").body);
    assert_eq!(tail_shape, (live_shape.0 + 1, live_shape.1 + 1));
    drop(restarted);

    // ── Phase 4: snapshot + non-empty replay ≡ live state, crossing
    // back to an unsharded catalog ───────────────────────────────────
    // The tail events were served (and WAL-logged) by the 4-shard
    // server; replaying them into a 1-shard server must reproduce every
    // body byte for byte — the reverse direction of phase 2.
    let recovered = LiveServer::load(&data, &s(&model_path), config(1)).unwrap();
    assert_eq!(recovered.live().cell().load().engine().scan_shards(), 1);
    assert_eq!(
        model_shape(&route(&recovered, "GET", "/model", b"").body),
        tail_shape
    );
    for (q, want) in tail_queries.iter().zip(&tail_bodies) {
        assert_eq!(
            &route(&recovered, "GET", q, b"").body,
            want,
            "post-replay restart diverged on {q}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
