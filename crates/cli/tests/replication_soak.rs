//! Multi-process differential soak for WAL-shipping replication
//! (ISSUE 8 headline proof): a leader and two followers as real
//! `taxrec serve` child processes, a scripted AddItem/FoldInUser
//! stream, and byte-identical `/recommend` bodies across all three once
//! replication lag drains to zero — surviving a mid-run follower
//! SIGKILL + restart (it recovers from its own WAL, then resumes the
//! stream from its exact offset) and mid-run WAL rotations on the
//! leader (`--snapshot-every 16` under 50 events). Follower 2 serves
//! from a small `--user-tier-budget` hot/cold tier, so the byte-equal
//! check also proves tiered reads on a replica are indistinguishable
//! from fully-resident ones at lag 0.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use taxrec_cli::json::{self, Json};
use taxrec_cli::DataDir;

mod common;
use common::{field_u64, get, post};

const EVENTS_PHASE_1: usize = 20; // all three nodes up
const EVENTS_PHASE_2: usize = 16; // follower 1 dead; leader rotates its WAL
const EVENTS_PHASE_3: usize = 14; // follower 1 restarted and catching up
const EVENTS_TOTAL: usize = EVENTS_PHASE_1 + EVENTS_PHASE_2 + EVENTS_PHASE_3;

/// One `taxrec serve` child with its parsed listen addresses. Killed on
/// drop so a failing assertion never leaves orphan processes.
struct Node {
    child: Child,
    http: SocketAddr,
    repl: Option<SocketAddr>,
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn `taxrec serve` with `args` and parse its bound addresses from
/// stderr (`--port 0` and `--replicate-on 127.0.0.1:0` print what they
/// actually bound). The remaining stderr is drained on a thread so the
/// child never blocks on a full pipe.
fn spawn_node(args: &[String]) -> Node {
    let mut child = Command::new(env!("CARGO_BIN_EXE_taxrec"))
        .arg("serve")
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn taxrec serve");
    let mut reader = BufReader::new(child.stderr.take().unwrap());
    let mut seen = String::new();
    let mut repl = None;
    let http = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            let _ = child.kill();
            let _ = child.wait();
            panic!("taxrec serve {args:?} exited before serving; stderr:\n{seen}");
        }
        seen.push_str(&line);
        if let Some(rest) = line.trim().strip_prefix("taxrec replicating on ") {
            repl = Some(rest.parse().expect("replication addr"));
        }
        if let Some(rest) = line.trim().strip_prefix("taxrec serving on http://") {
            let addr = rest.split_whitespace().next().unwrap();
            break addr.parse().expect("http addr");
        }
    };
    std::thread::spawn(move || {
        let mut sink = [0u8; 4096];
        while matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
    });
    Node { child, http, repl }
}

fn model_shape(addr: SocketAddr) -> (u64, u64) {
    let (status, body) = get(addr, "/model");
    assert_eq!(status, 200, "{body}");
    let parsed = json::parse(&body).unwrap_or_else(|e| panic!("bad /model JSON ({e}): {body}"));
    (
        parsed.get("users").and_then(Json::as_u64).unwrap(),
        parsed.get("items").and_then(Json::as_u64).unwrap(),
    )
}

/// Post one scripted event to the leader; returns the folded user id
/// for fold-in events. Deterministic per index: even = AddItem, odd =
/// FoldInUser with an explicit seed.
fn post_event(leader: SocketAddr, parent: u32, i: usize) -> Option<u64> {
    if i.is_multiple_of(2) {
        let (status, body) = post(leader, "/items", &format!("{{\"parent\": {parent}}}"));
        assert_eq!(status, 200, "event {i}: {body}");
        None
    } else {
        let (status, body) = post(
            leader,
            "/users/fold-in",
            &format!(
                "{{\"history\": [[{}],[{}]], \"steps\": 25, \"seed\": {i}}}",
                (i * 7) % 120,
                (i * 13 + 5) % 120,
            ),
        );
        assert_eq!(status, 200, "event {i}: {body}");
        Some(field_u64(&body, "user"))
    }
}

/// Wait until `node` serves the expected final model shape and reports
/// zero replication lag.
fn wait_converged(name: &str, node: SocketAddr, want_shape: (u64, u64)) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if model_shape(node) == want_shape {
            let (_, stats) = get(node, "/live/stats");
            if field_u64(&stats, "taxrec_replication_lag") == 0 {
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "{name} never converged: shape {:?} (want {want_shape:?})",
            model_shape(node)
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn leader_and_two_followers_serve_identical_bytes() {
    let dir = std::env::temp_dir().join(format!("taxrec-repl-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let data_dir = dir.join("data");
    let model_path = dir.join("m.tfm");
    let s = |p: &std::path::Path| p.to_str().unwrap().to_string();

    // Build the artifacts the documented way: the real CLI.
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
    let tax = DataDir::new(s(&data_dir)).taxonomy().unwrap();
    let parent = tax
        .parent(tax.item_node(taxrec_taxonomy::ItemId(0)))
        .unwrap()
        .0;

    let base_args = |extra: &[String]| -> Vec<String> {
        let mut v = vec![
            "--data".into(),
            s(&data_dir),
            "--model".into(),
            s(&model_path),
            "--port".into(),
            "0".into(),
            "--workers".into(),
            "2".into(),
        ];
        v.extend_from_slice(extra);
        v
    };

    // Leader: durable WAL rotated every 16 events, streaming on an
    // ephemeral replication port.
    let leader_dir = dir.join("leader");
    std::fs::create_dir_all(&leader_dir).unwrap();
    let leader = spawn_node(&base_args(&[
        "--live-log".into(),
        s(&leader_dir.join("events.log")),
        "--snapshot".into(),
        s(&leader_dir.join("snap.tfm")),
        "--snapshot-every".into(),
        "16".into(),
        "--replicate-on".into(),
        "127.0.0.1:0".into(),
    ]));
    let repl_addr = leader.repl.expect("leader printed its replication addr");

    // Follower 1 keeps its own WAL (so a restart recovers locally and
    // resumes the stream mid-offset); follower 2 is purely in-memory.
    let f1_dir = dir.join("f1");
    std::fs::create_dir_all(&f1_dir).unwrap();
    let f1_args = base_args(&[
        "--live-log".into(),
        s(&f1_dir.join("events.log")),
        "--snapshot".into(),
        s(&f1_dir.join("snap.tfm")),
        "--follow".into(),
        repl_addr.to_string(),
    ]);
    let mut follower1 = spawn_node(&f1_args);
    // Follower 2 is purely in-memory AND serves its user factors from a
    // small hot/cold tier: 16 resident rows against 60 trained users
    // plus every fold-in the soak replicates.
    let follower2 = spawn_node(&base_args(&[
        "--follow".into(),
        repl_addr.to_string(),
        "--user-tier-budget".into(),
        "16".into(),
    ]));

    // ── Scripted stream, with a follower SIGKILL + restart and leader
    // WAL rotations in the middle ────────────────────────────────────
    let mut folded: Vec<u64> = Vec::new();
    for i in 0..EVENTS_PHASE_1 {
        folded.extend(post_event(leader.http, parent, i));
    }
    // Hard-kill follower 1 mid-run (SIGKILL: no graceful shutdown, no
    // final snapshot — recovery is WAL replay + stream resume).
    follower1.child.kill().unwrap();
    follower1.child.wait().unwrap();
    for i in EVENTS_PHASE_1..EVENTS_PHASE_1 + EVENTS_PHASE_2 {
        folded.extend(post_event(leader.http, parent, i));
    }
    // Restart follower 1 under the unchanged command line.
    follower1 = spawn_node(&f1_args);
    for i in EVENTS_PHASE_1 + EVENTS_PHASE_2..EVENTS_TOTAL {
        folded.extend(post_event(leader.http, parent, i));
    }

    // ── Convergence: lag drains to 0 on both followers ───────────────
    let want_shape = (
        60 + (EVENTS_TOTAL / 2) as u64,        // odd indices fold users
        120 + EVENTS_TOTAL.div_ceil(2) as u64, // even indices add items
    );
    assert_eq!(model_shape(leader.http), want_shape);
    wait_converged("follower 1", follower1.http, want_shape);
    wait_converged("follower 2", follower2.http, want_shape);

    // ── The differential check: byte-identical top-K everywhere ──────
    // Trained users and every user folded during the soak; /recommend
    // bodies carry no epoch, so equal state must mean equal bytes.
    for user in (0u64..4).chain(folded.iter().copied()) {
        let q = format!("/recommend?user={user}&top=5");
        let (status, want) = get(leader.http, &q);
        assert_eq!(status, 200, "{want}");
        for (name, node) in [("follower 1", &follower1), ("follower 2", &follower2)] {
            let (status, got) = get(node.http, &q);
            assert_eq!(status, 200, "{name}: {got}");
            assert_eq!(got, want, "{name} diverged from leader on {q}");
        }
    }

    // ── Roles: followers refuse writes and point at the leader ───────
    for node in [&follower1, &follower2] {
        let (status, body) = post(node.http, "/items", &format!("{{\"parent\": {parent}}}"));
        assert_eq!(status, 403, "{body}");
        assert!(body.contains("read-only follower"), "{body}");
        assert!(body.contains(&repl_addr.to_string()), "{body}");
        let (_, stats) = get(node.http, "/live/stats");
        assert!(stats.contains("\"role\":\"follower\""), "{stats}");
    }
    // Follower 2's tier really was exercised: every read above went
    // through a 16-row hot set, faulting cold users back on demand.
    let (_, f2_stats) = get(follower2.http, "/live/stats");
    let tier_u64 = |family: &str| field_u64(&f2_stats, family);
    assert_eq!(tier_u64("taxrec_tier_budget_rows"), 16, "{f2_stats}");
    assert_eq!(
        tier_u64("taxrec_tier_total_rows"),
        60 + (EVENTS_TOTAL / 2) as u64,
        "{f2_stats}"
    );
    let faults = tier_u64("taxrec_tier_cold_reads_total") + tier_u64("taxrec_tier_refolds_total");
    assert!(faults > 0, "{f2_stats}");

    let (_, stats) = get(leader.http, "/live/stats");
    assert!(stats.contains("\"role\":\"leader\""), "{stats}");
    assert_eq!(field_u64(&stats, "taxrec_live_degraded"), 0, "{stats}");
    // The leader really rotated its WAL mid-run (snapshots written ≥ 1
    // is surfaced in the same stats body).
    assert!(
        field_u64(&stats, "taxrec_live_snapshots_written_total") >= 1,
        "{stats}"
    );

    drop(follower1);
    drop(follower2);
    drop(leader);
    let _ = std::fs::remove_dir_all(&dir);
}
