//! End-to-end tests of `taxrec evaluate --dataset`: the golden-report
//! gate against the committed baseline artifacts, the thread
//! differential, the trace-compare identity, and (ignored by default)
//! the proof that the quality gate actually trips plus the baseline
//! regeneration procedure.
//!
//! The committed artifacts live at `tests/data/baseline.json` (the
//! query file) and `tests/data/baseline_metrics.json` (the expected
//! metrics). Both derive from a fully deterministic fixture —
//! `generate --seed 7` + `train --deterministic --seed 42` — so every
//! machine reproduces them byte-for-byte. To regenerate after an
//! intended quality shift:
//!
//! ```text
//! cargo test -p taxrec-cli --test eval_harness -- --ignored regen_baseline
//! ```

use std::path::PathBuf;
use taxrec_cli::json::Json;
use taxrec_cli::{run, DataDir};
use taxrec_core::eval::dataset::{evaluate_retrieval, RetrievalDataset, RetrievalQuery};
use taxrec_core::{persist, TfModel};

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// Repo-level committed artifact path (`tests/data/<name>`).
fn committed(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data")
        .join(name)
}

/// Build the deterministic fixture every test (and the committed
/// baseline) runs against. Returns (tmpdir, data dir, model path).
fn fixture(tag: &str) -> (PathBuf, String, String) {
    let dir =
        std::env::temp_dir().join(format!("taxrec-eval-harness-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data").display().to_string();
    let model = dir.join("m.tfm").display().to_string();
    run(&argv(&format!(
        "generate --out {data} --users 300 --items 400 --seed 7"
    )))
    .unwrap();
    // --deterministic: bit-identical model at any thread count, which
    // is what makes the committed metrics reproducible everywhere.
    run(&argv(&format!(
        "train --data {data} --model {model} --tf 4,1 --factors 8 --epochs 3 \
         --threads 2 --seed 42 --deterministic"
    )))
    .unwrap();
    (dir, data, model)
}

const REGEN_HINT: &str = "cargo test -p taxrec-cli --test eval_harness -- --ignored regen_baseline";

/// The golden-report gate: re-deriving the metrics artifact from the
/// committed dataset must reproduce the committed bytes exactly. Any
/// quality drift — metric values, query set, even field order — fails
/// here with the one-line regeneration command.
#[test]
fn golden_report_matches_committed_baseline() {
    let (dir, data, model) = fixture("golden");
    let regen = dir.join("regen_metrics.json").display().to_string();
    let out = run(&argv(&format!(
        "evaluate --data {data} --model {model} --dataset {} \
         --write-baseline {regen} --tolerance 0.02",
        committed("baseline.json").display()
    )))
    .unwrap();
    assert!(out.contains("recall@K"), "{out}");
    let got = std::fs::read_to_string(&regen).unwrap();
    let want = std::fs::read_to_string(committed("baseline_metrics.json")).unwrap();
    assert!(
        got == want,
        "retrieval metrics drifted from tests/data/baseline_metrics.json.\n\
         If this is an intended quality shift, regenerate with:\n  {REGEN_HINT}\n\
         --- committed ---\n{want}\n--- current ---\n{got}"
    );

    // And the CLI gate itself agrees.
    let out = run(&argv(&format!(
        "evaluate --data {data} --model {model} --dataset {} --assert-baseline {}",
        committed("baseline.json").display(),
        committed("baseline_metrics.json").display()
    )))
    .unwrap();
    assert!(out.contains("baseline gate PASSED"), "{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Differential quality: the metrics artifact (latency excluded by
/// construction) is byte-identical at every thread count. The catalog
/// shard law is pinned below the CLI (`differential_shards`,
/// `proptest_shards`, `load_harness`).
#[test]
fn metrics_identical_across_threads() {
    let (dir, data, model) = fixture("differential");
    let mut reports = Vec::new();
    for threads in [1usize, 2, 4] {
        let out = dir
            .join(format!("metrics-t{threads}.json"))
            .display()
            .to_string();
        run(&argv(&format!(
            "evaluate --data {data} --model {model} --dataset {} \
             --threads {threads} --write-baseline {out}",
            committed("baseline.json").display()
        )))
        .unwrap();
        reports.push((threads, std::fs::read_to_string(&out).unwrap()));
    }
    let (_, reference) = &reports[0];
    for (threads, text) in &reports[1..] {
        assert!(text == reference, "metrics differ at threads={threads}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Trace-compare under an identical config is the identity: no query
/// reorders and the B-side metrics equal the A-side metrics.
#[test]
fn trace_compare_identity_reports_no_moves() {
    let (dir, data, model) = fixture("compare");
    let cfg = dir.join("same.json");
    std::fs::write(&cfg, "{}\n").unwrap();
    let out = run(&argv(&format!(
        "evaluate --data {data} --model {model} --dataset {} --compare {} --json",
        committed("baseline.json").display(),
        cfg.display()
    )))
    .unwrap();
    let doc = taxrec_cli::json::parse(&out).unwrap();
    assert_eq!(
        doc.get("reordered_queries").and_then(Json::as_u64),
        Some(0),
        "{out}"
    );
    assert_eq!(
        doc.get("metrics_a").map(Json::render),
        doc.get("metrics_b").map(Json::render),
        "{out}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Proof the gate trips: evaluate a *perturbed* model (different seed,
/// one epoch) against the committed baseline and assert
/// `--assert-baseline` fails with the regression report. The anchors
/// make this robust — their expectation is the baseline model's own
/// top-3, which a differently-trained model will not reproduce.
/// Ignored by default — it exists to show the gate is live, not to run
/// on every `cargo test`.
#[test]
#[ignore = "gate-trip proof; run explicitly (CI does) — cargo test -p taxrec-cli --test eval_harness -- --ignored gate_trips"]
fn gate_trips_on_scoring_perturbation() {
    let (dir, data, _model) = fixture("gate-trip");
    let perturbed = dir.join("perturbed.tfm").display().to_string();
    run(&argv(&format!(
        "train --data {data} --model {perturbed} --tf 4,1 --factors 8 --epochs 1 \
         --threads 2 --seed 99 --deterministic"
    )))
    .unwrap();
    let err = run(&argv(&format!(
        "evaluate --data {data} --model {perturbed} --dataset {} --assert-baseline {}",
        committed("baseline.json").display(),
        committed("baseline_metrics.json").display()
    )))
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("quality gate FAILED"), "{msg}");
    assert!(msg.contains("regenerate"), "{msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regenerate the committed baseline artifacts. The dataset mixes
/// held-out test-split queries (expected = the user's future
/// purchases, history excluded from ranking) with self-consistency
/// anchors (expected = the engine's own top-3 at baseline, so any
/// ranking change is visible as a recall/nDCG drop).
#[test]
#[ignore = "writes tests/data/baseline{,_metrics}.json; run after an intended quality shift"]
fn regen_baseline() {
    let (dir, data, model_path) = fixture("regen");
    let model: TfModel = persist::decode(&std::fs::read(&model_path).unwrap()).unwrap();
    let dd = DataDir::new(&data);
    let train = dd.train().unwrap();
    let test = dd.test().unwrap();

    let num = |v: usize| Json::Num(v as f64);
    let items = |ids: &[u32]| Json::Arr(ids.iter().map(|&i| num(i as usize)).collect());

    // Twelve test-split queries over the first qualifying users, one of
    // them served through the cascaded beam (a per-query `cascade`
    // below 1) so the committed dataset covers both read paths.
    let mut queries = Vec::new();
    let mut picked = 0usize;
    let mut repeat = None;
    for u in 0..test.num_users() {
        if picked == 12 {
            break;
        }
        let mut expected: Vec<u32> = test
            .user(u)
            .iter()
            .flat_map(|t| t.iter())
            .map(|i| i.index() as u32)
            .collect();
        expected.sort_unstable();
        expected.dedup();
        if expected.is_empty() || train.user(u).is_empty() {
            continue;
        }
        expected.truncate(8);
        picked += 1;
        let mut fields = vec![
            ("id".to_string(), Json::str(format!("test-u{u}"))),
            ("user".to_string(), num(u)),
            ("expected_items".to_string(), items(&expected)),
        ];
        if picked == 4 {
            fields.push(("cascade".to_string(), Json::Num(0.6)));
        }
        if picked == 5 {
            repeat = Some((u, expected));
        }
        queries.push(Json::Obj(fields));
    }
    assert_eq!(picked, 12, "fixture too small for 12 test-split queries");

    // Three anchors: ask the engine for each user's top-3 right now
    // and commit that as the expectation (recall@3 = 1.0 by
    // construction at the baseline).
    let anchor_users: Vec<usize> = (0..train.num_users())
        .filter(|&u| !train.user(u).is_empty())
        .take(3)
        .collect();
    let probe = RetrievalDataset {
        name: "probe".into(),
        queries: anchor_users
            .iter()
            .map(|&u| RetrievalQuery {
                id: format!("anchor-u{u}"),
                user: u,
                history: train.user(u).to_vec(),
                expected: vec![taxrec_taxonomy::ItemId(0)],
                k: 3,
                candidate_k: 12,
                cascade: 1.0,
                exclude_history: false,
            })
            .collect(),
    };
    let report = evaluate_retrieval(&model, &probe, 1).unwrap();
    for (u, outcome) in anchor_users.iter().zip(&report.outcomes) {
        let top3: Vec<u32> = outcome.candidates[..3]
            .iter()
            .map(|(i, _)| i.index() as u32)
            .collect();
        queries.push(Json::Obj(vec![
            ("id".to_string(), Json::str(format!("anchor-u{u}"))),
            ("user".to_string(), num(*u)),
            ("expected_items".to_string(), items(&top3)),
            ("k".to_string(), num(3)),
            ("candidate_k".to_string(), num(12)),
            ("exclude_history".to_string(), Json::Bool(false)),
        ]));
    }

    // The fifth test query once more under its own id (it was served
    // through the int8 scan before every exact query went through the
    // walk); kept so the committed metrics keep every id.
    let (u, expected) = repeat.expect("fifth test query picked");
    queries.push(Json::Obj(vec![
        ("id".to_string(), Json::str(format!("test-u{u}-quantized"))),
        ("user".to_string(), num(u)),
        ("expected_items".to_string(), items(&expected)),
    ]));

    let doc = Json::Obj(vec![
        ("name".to_string(), Json::str("baseline")),
        (
            "defaults".to_string(),
            Json::Obj(vec![
                ("k".to_string(), num(10)),
                ("candidate_k".to_string(), num(40)),
                ("exclude_history".to_string(), Json::Bool(true)),
            ]),
        ),
        ("queries".to_string(), Json::Arr(queries)),
    ]);
    std::fs::create_dir_all(committed("")).unwrap();
    std::fs::write(committed("baseline.json"), doc.render() + "\n").unwrap();

    // The metrics artifact goes through the CLI so it is produced by
    // exactly the code path the golden test and CI replay.
    run(&argv(&format!(
        "evaluate --data {data} --model {model_path} --dataset {} \
         --write-baseline {} --tolerance 0.02",
        committed("baseline.json").display(),
        committed("baseline_metrics.json").display()
    )))
    .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
