//! End-to-end observability checks (ISSUE 7 acceptance): `GET
//! /metrics` must emit *valid* Prometheus text exposition — verified
//! by a small purpose-built parser of the v0.0.4 grammar, not by
//! substring spotting — with counters that only ever move up, and a
//! sampled recommend trace must decompose the request into exactly one
//! scan span per configured catalog shard whose durations account for
//! the bulk of the request span.

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use taxrec_cli::json::{self, Json};
use taxrec_cli::serve::{route, spawn_follow, LiveServer, Response};
use taxrec_core::live::{LiveConfig, LiveState};
use taxrec_core::obs::SampleReason;
use taxrec_core::{untrained_model, Backend, ModelConfig, Obs, QuantizedConfig, TfTrainer};
use taxrec_dataset::{DatasetConfig, PurchaseLogBuilder, SyntheticDataset};
use taxrec_taxonomy::{ItemId, TaxonomyGenerator, TaxonomyShape};

// ── A strict-enough Prometheus text parser ──────────────────────────
//
// Grammar checked (text exposition format v0.0.4):
//   exposition  := family*
//   family      := "# HELP" name help NL "# TYPE" name kind NL sample*
//   sample      := name labels? SP value NL
//   labels      := "{" (label "=" quoted ",")* label "=" quoted "}"
// plus: names match [a-zA-Z_:][a-zA-Z0-9_:]*, label values use only
// the \\ \" \n escapes, every sample belongs to the family declared
// above it (histogram samples may suffix _bucket/_sum/_count), each
// family is declared at most once, and histogram buckets are
// cumulative with an +Inf bucket equal to _count.

#[derive(Debug, Clone, PartialEq)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

#[derive(Debug)]
struct Family {
    kind: String,
    samples: Vec<Sample>,
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse one `{label="value",...}` block; the input starts just after
/// the `{`. Returns the labels and the rest of the line after `}`.
type Labels = Vec<(String, String)>;

fn parse_labels(mut s: &str) -> Result<(Labels, &str), String> {
    let mut labels = Vec::new();
    loop {
        let eq = s
            .find('=')
            .ok_or_else(|| format!("label without '=': {s}"))?;
        let name = &s[..eq];
        if !valid_name(name) || name.contains(':') {
            return Err(format!("bad label name {name:?}"));
        }
        s = s[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("label value not quoted after {name}"))?;
        let mut value = String::new();
        let mut chars = s.char_indices();
        let rest_at = loop {
            let (i, c) = chars.next().ok_or("unterminated label value")?;
            match c {
                '"' => break i + 1,
                '\\' => match chars.next().ok_or("dangling backslash")?.1 {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    other => return Err(format!("invalid escape \\{other}")),
                },
                '\n' => return Err("raw newline in label value".into()),
                c => value.push(c),
            }
        };
        labels.push((name.to_string(), value));
        s = &s[rest_at..];
        if let Some(rest) = s.strip_prefix(',') {
            s = rest;
            continue;
        }
        let rest = s
            .strip_prefix('}')
            .ok_or_else(|| format!("label block not closed: {s:?}"))?;
        return Ok((labels, rest));
    }
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => s.parse().map_err(|e| format!("bad value {s:?}: {e}")),
    }
}

/// Whether a sample name belongs to the family `fam` of the given kind.
fn belongs_to(sample: &str, fam: &str, kind: &str) -> bool {
    if kind == "histogram" {
        sample
            .strip_prefix(fam)
            .is_some_and(|suffix| matches!(suffix, "_bucket" | "_sum" | "_count"))
    } else {
        sample == fam
    }
}

fn parse_prometheus(text: &str) -> Result<HashMap<String, Family>, String> {
    let mut families: HashMap<String, Family> = HashMap::new();
    let mut current: Option<String> = None; // family awaiting samples
    let mut pending_help: Option<String> = None; // HELP seen, TYPE not yet
    for line in text.lines() {
        if line.is_empty() {
            return Err("blank line in exposition".into());
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .ok_or_else(|| format!("HELP without text: {line}"))?;
            if !valid_name(name) {
                return Err(format!("bad metric name {name:?}"));
            }
            if families.contains_key(name) {
                return Err(format!("family {name} declared twice"));
            }
            if help.contains('\n') {
                return Err(format!("unescaped newline in help of {name}"));
            }
            if pending_help.is_some() {
                return Err("HELP not followed by TYPE".into());
            }
            pending_help = Some(name.to_string());
            current = None;
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("TYPE without kind: {line}"))?;
            if pending_help.as_deref() != Some(name) {
                return Err(format!("TYPE {name} without a preceding HELP {name}"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("unknown kind {kind:?} for {name}"));
            }
            pending_help = None;
            families.insert(
                name.to_string(),
                Family {
                    kind: kind.to_string(),
                    samples: Vec::new(),
                },
            );
            current = Some(name.to_string());
        } else if line.starts_with('#') {
            return Err(format!("unknown comment line: {line}"));
        } else {
            let fam_name = current
                .clone()
                .ok_or_else(|| format!("sample before any family: {line}"))?;
            let name_end = line
                .find(['{', ' '])
                .ok_or_else(|| format!("sample without value: {line}"))?;
            let name = &line[..name_end];
            if !valid_name(name) {
                return Err(format!("bad sample name {name:?}"));
            }
            let (labels, rest) = if line[name_end..].starts_with('{') {
                parse_labels(&line[name_end + 1..])?
            } else {
                (Vec::new(), &line[name_end..])
            };
            let value = parse_value(
                rest.strip_prefix(' ')
                    .ok_or_else(|| format!("no space before value: {line}"))?,
            )?;
            let fam = families.get_mut(&fam_name).expect("current family exists");
            if !belongs_to(name, &fam_name, &fam.kind) {
                return Err(format!(
                    "sample {name} does not belong to family {fam_name} ({})",
                    fam.kind
                ));
            }
            let sample = Sample {
                name: name.to_string(),
                labels,
                value,
            };
            if fam
                .samples
                .iter()
                .any(|s| s.name == sample.name && s.labels == sample.labels)
            {
                return Err(format!("duplicate series: {line}"));
            }
            fam.samples.push(sample);
        }
    }
    if pending_help.is_some() {
        return Err("trailing HELP without TYPE".into());
    }
    // Histogram invariants, per label set: buckets are cumulative, end
    // at +Inf, and the +Inf bucket equals _count.
    for (name, fam) in &families {
        if fam.kind != "histogram" {
            continue;
        }
        let without_le = |s: &Sample| -> Vec<(String, String)> {
            s.labels
                .iter()
                .filter(|(k, _)| k != "le")
                .cloned()
                .collect()
        };
        let mut series: Vec<Vec<(String, String)>> = Vec::new();
        for s in &fam.samples {
            let labels = without_le(s);
            if !series.contains(&labels) {
                series.push(labels);
            }
        }
        for labels in &series {
            let of_series = |suffix: &str| {
                let full = format!("{name}{suffix}");
                fam.samples
                    .iter()
                    .filter(move |s| s.name == full && without_le(s) == *labels)
            };
            if of_series("_bucket").next().is_none() {
                return Err(format!("histogram {name}{labels:?} has no buckets"));
            }
            let mut prev = -1.0f64;
            let mut prev_count = 0.0f64;
            for b in of_series("_bucket") {
                let le = b
                    .labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| parse_value(v))
                    .ok_or_else(|| format!("bucket of {name} without le"))??;
                if le <= prev {
                    return Err(format!("histogram {name}{labels:?} buckets out of order"));
                }
                if b.value < prev_count {
                    return Err(format!("histogram {name}{labels:?} buckets not cumulative"));
                }
                prev = le;
                prev_count = b.value;
            }
            if prev != f64::INFINITY {
                return Err(format!(
                    "histogram {name}{labels:?} missing the +Inf bucket"
                ));
            }
            let count = of_series("_count")
                .next()
                .ok_or_else(|| format!("histogram {name}{labels:?} missing _count"))?;
            if count.value != prev_count {
                return Err(format!("histogram {name}{labels:?}: +Inf bucket != _count"));
            }
            if of_series("_sum").next().is_none() {
                return Err(format!("histogram {name}{labels:?} missing _sum"));
            }
        }
    }
    Ok(families)
}

/// Every counter series as `(family{label=value,...}, value)`.
fn counter_series(families: &HashMap<String, Family>) -> HashMap<String, f64> {
    families
        .iter()
        .filter(|(_, f)| f.kind == "counter")
        .flat_map(|(name, f)| {
            f.samples.iter().map(move |s| {
                let labels: Vec<String> =
                    s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                (format!("{name}{{{}}}", labels.join(",")), s.value)
            })
        })
        .collect()
}

// ── Fixtures ────────────────────────────────────────────────────────

/// A trained tiny server with everything observable: 2 scan shards and
/// a tracer sampling every request, serving through the default
/// backend.
fn observed_server(scan_shards: usize) -> LiveServer {
    observed_server_on(scan_shards, LiveConfig::default().backend)
}

/// [`observed_server`] serving through `backend`.
fn observed_server_on(scan_shards: usize, backend: Backend) -> LiveServer {
    let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(100), 3);
    let model = TfTrainer::new(
        ModelConfig::tf(4, 1).with_factors(4).with_epochs(2),
        &d.taxonomy,
    )
    .fit(&d.train, 1);
    LiveServer::new(
        LiveState::new(model),
        d.train,
        None,
        LiveConfig {
            scan_shards,
            backend,
            obs: Obs::shared_with_tracing(1.0, 0),
            ..LiveConfig::default()
        },
    )
    .unwrap()
}

/// The JSON value `/live/stats` gives the series of `entry` with
/// exactly `labels`: the entry itself for an unlabelled family, else
/// the array element carrying those label pairs (plus `value`).
fn stats_series<'a>(entry: &'a Json, labels: &[(String, String)]) -> Option<&'a Json> {
    let Json::Arr(series) = entry else {
        return labels.is_empty().then_some(entry);
    };
    series
        .iter()
        .find(|s| {
            let Json::Obj(pairs) = s else { return false };
            pairs.len() == labels.len() + 1
                && labels
                    .iter()
                    .all(|(k, v)| s.get(k).and_then(Json::as_str) == Some(v.as_str()))
        })
        .and_then(|s| s.get("value"))
}

/// Assert `/live/stats` and `/metrics` list the same families with the
/// same numbers: every counter and gauge series equal, every histogram
/// series' `count` equal to its `_count`, and no family in the JSON
/// that `/metrics` lacks. Scrapes again until `/metrics` reads the
/// same on both sides of the `/live/stats` read (the applier may still
/// be finishing the last publish).
fn assert_stats_render_the_registry(name: &str, st: &LiveServer) -> Json {
    const HEADER: &[&str] = &[
        "version",
        "uptime_seconds",
        "role",
        "leader",
        "epoch",
        "base_users",
        "base_items",
    ];
    let (text, stats) = loop {
        let before = get(st, "/metrics").body;
        let stats = get(st, "/live/stats");
        if get(st, "/metrics").body == before {
            assert_eq!(stats.status, 200, "{name}");
            break (before, stats.body);
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    let families = parse_prometheus(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    let parsed = json::parse(&stats).unwrap_or_else(|e| panic!("{name}: {e}: {stats}"));
    for (family, fam) in &families {
        let entry = parsed
            .get(family)
            .unwrap_or_else(|| panic!("{name}: {family} is in /metrics but not /live/stats"));
        for s in &fam.samples {
            let field = match fam.kind.as_str() {
                "histogram" if s.name.ends_with("_count") => Some("count"),
                "histogram" => continue,
                _ => None,
            };
            let value = stats_series(entry, &s.labels)
                .and_then(|v| field.map_or(Some(v), |f| v.get(f)))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name}: no {} {:?} in {stats}", s.name, s.labels));
            assert_eq!(value, s.value, "{name}: {} {:?}", s.name, s.labels);
        }
    }
    let Json::Obj(fields) = &parsed else {
        panic!("{name}: /live/stats is not an object: {stats}")
    };
    for (key, _) in fields {
        assert!(
            HEADER.contains(&key.as_str()) || families.contains_key(key),
            "{name}: /live/stats has {key}, /metrics does not"
        );
    }
    parsed
}

fn quantized() -> Backend {
    Backend::Quantized(QuantizedConfig::default())
}

fn get(s: &LiveServer, path: &str) -> Response {
    route(s, "GET", path, b"")
}

// ── Tests ───────────────────────────────────────────────────────────

#[test]
fn metrics_endpoint_is_valid_prometheus_and_counters_are_monotone() {
    // The int8-first scan is the backend that drives the per-shard and
    // quantized families; the walk's own are checked below.
    let st = observed_server_on(2, quantized());
    // Drive every family: reads across both shards, a 4xx, a write.
    for u in 0..4 {
        assert_eq!(get(&st, &format!("/recommend?user={u}&top=5")).status, 200);
    }
    assert_eq!(get(&st, "/recommend?user=999999").status, 400);
    let parent = {
        let snap = st.live().cell().load();
        let tax = snap.model().taxonomy();
        tax.parent(tax.item_node(ItemId(0))).unwrap().0
    };
    assert_eq!(
        route(
            &st,
            "POST",
            "/items",
            format!("{{\"parent\": {parent}}}").as_bytes(),
        )
        .status,
        200
    );

    let resp = get(&st, "/metrics");
    assert_eq!(resp.status, 200);
    assert!(
        resp.content_type.starts_with("text/plain; version=0.0.4"),
        "{}",
        resp.content_type
    );
    let families = parse_prometheus(&resp.body)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n---\n{}", resp.body));

    // Tentpole coverage: HTTP, applier, publish, WAL, and per-shard
    // scan families all present in the one registry.
    for (family, kind) in [
        ("taxrec_http_requests_total", "counter"),
        ("taxrec_http_responses_4xx_total", "counter"),
        ("taxrec_http_request_seconds", "histogram"),
        ("taxrec_http_workers", "gauge"),
        ("taxrec_live_events_applied_total", "counter"),
        ("taxrec_live_publishes_total", "counter"),
        ("taxrec_live_publish_seconds", "histogram"),
        ("taxrec_live_apply_seconds", "histogram"),
        ("taxrec_live_publish_copied_bytes_total", "counter"),
        ("taxrec_live_arena_recycles_total", "counter"),
        ("taxrec_live_arena_copies_total", "counter"),
        ("taxrec_wal_append_seconds", "histogram"),
        ("taxrec_wal_fsync_seconds", "histogram"),
        ("taxrec_scan_rows_total", "counter"),
        ("taxrec_scan_blocks_total", "counter"),
        ("taxrec_scan_busy_us_total", "counter"),
        ("taxrec_quant_pool_scans_total", "counter"),
        ("taxrec_quant_rescored_rows_total", "counter"),
        ("taxrec_cascade_requests_total", "counter"),
        ("taxrec_cascade_scored_nodes_total", "counter"),
        ("taxrec_cascade_kept_leaves_total", "counter"),
        ("taxrec_walk_requests_total", "counter"),
        ("taxrec_walk_rows_scored_total", "counter"),
        ("taxrec_walk_categories_visited_total", "counter"),
    ] {
        let fam = families
            .get(family)
            .unwrap_or_else(|| panic!("family {family} missing from /metrics"));
        assert_eq!(fam.kind, kind, "{family}");
    }
    // Both scan shards actually scanned rows.
    for shard in ["0", "1"] {
        let rows = families["taxrec_scan_rows_total"]
            .samples
            .iter()
            .find(|s| s.labels == vec![("shard".to_string(), shard.to_string())])
            .unwrap_or_else(|| panic!("no scan series for shard {shard}"));
        assert!(rows.value > 0.0, "shard {shard} scanned no rows");
    }

    // The int8-first scan rescored some rows in f32, and never more
    // than it scanned.
    let total = |family: &str| -> f64 { families[family].samples.iter().map(|s| s.value).sum() };
    let rescored = total("taxrec_quant_rescored_rows_total");
    assert!(rescored > 0.0, "default serving rescored no rows");
    assert!(rescored <= total("taxrec_scan_rows_total"));

    // Counter monotonicity: more traffic never decreases any series.
    // In-process `route()` bypasses the connection layer, so drive its
    // metrics hook directly alongside real routed reads.
    let before = counter_series(&families);
    for u in 0..3 {
        get(&st, &format!("/recommend?user={u}&top=3"));
        st.http_metrics()
            .record_response("/recommend", 200, std::time::Duration::from_micros(40));
    }
    st.http_metrics()
        .record_response("/nope", 404, std::time::Duration::from_micros(5));
    let after = counter_series(&parse_prometheus(&get(&st, "/metrics").body).unwrap());
    assert!(!before.is_empty());
    for (series, v0) in &before {
        let v1 = after
            .get(series)
            .unwrap_or_else(|| panic!("series {series} disappeared"));
        assert!(v1 >= v0, "{series} went backwards: {v0} -> {v1}");
    }
    for advanced in [
        "taxrec_http_requests_total{route=/recommend}",
        "taxrec_scan_rows_total{shard=0}",
        "taxrec_scan_rows_total{shard=1}",
        "taxrec_quant_rescored_rows_total{}",
    ] {
        assert!(
            after[advanced] > before[advanced],
            "{advanced} did not advance: {} -> {}",
            before[advanced],
            after[advanced]
        );
    }
}

#[test]
fn live_stats_renders_the_same_families_as_metrics() {
    let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(100), 3);
    let model = TfTrainer::new(
        ModelConfig::tf(4, 1).with_factors(4).with_epochs(2),
        &d.taxonomy,
    )
    .fit(&d.train, 1);
    let serve = |config: LiveConfig| {
        let config = LiveConfig {
            obs: Obs::shared_with_tracing(1.0, 0),
            ..config
        };
        LiveServer::new(LiveState::new(model.clone()), d.train.clone(), None, config).unwrap()
    };
    let mut leader = serve(LiveConfig {
        replicate: true,
        ..LiveConfig::default()
    });
    let repl = leader
        .start_replication(TcpListener::bind("127.0.0.1:0").unwrap())
        .unwrap();
    let mut follower = serve(LiveConfig::default());
    let follow_stats = follower.set_follower(repl.to_string());
    let follower = Arc::new(follower);
    let stop = Arc::new(AtomicBool::new(false));
    let tail = spawn_follow(Arc::clone(&follower), Arc::clone(&stop));
    let tiered = serve(LiveConfig {
        user_tier_budget: Some(8),
        ..LiveConfig::default()
    });

    // One write of each kind on the writable servers; walk, cascade
    // and batch reads on all three.
    let parent = {
        let snap = leader.live().cell().load();
        let tax = snap.model().taxonomy();
        tax.parent(tax.item_node(ItemId(0))).unwrap().0
    };
    for st in [&leader, &tiered] {
        let add = format!("{{\"parent\": {parent}}}");
        assert_eq!(route(st, "POST", "/items", add.as_bytes()).status, 200);
        let fold = br#"{"history": [[1, 2], [3]], "steps": 20, "seed": 7}"#;
        let r = route(st, "POST", "/users/fold-in", fold);
        assert_eq!(r.status, 200, "{}", r.body);
        let user = json::parse(&r.body)
            .unwrap()
            .get("user")
            .and_then(Json::as_u64);
        let refold = format!(
            "{{\"user\": {}, \"history\": [[4]], \"steps\": 20, \"seed\": 8}}",
            user.unwrap()
        );
        let r = route(st, "POST", "/users/fold-in", refold.as_bytes());
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while follow_stats.records_applied() < 3 || follow_stats.lag() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "follower never caught up"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    for st in [&leader, &*follower, &tiered] {
        for path in [
            "/recommend?user=1&top=5",
            "/recommend?user=2&top=5&cascade=0.3",
            "/recommend/batch?users=0-40&top=3",
        ] {
            assert_eq!(get(st, path).status, 200, "{path}");
        }
    }

    let leader_stats = assert_stats_render_the_registry("leader", &leader);
    let follower_stats = assert_stats_render_the_registry("follower", &follower);
    let tiered_stats = assert_stats_render_the_registry("tiered", &tiered);
    // Every layer's families are present, and each role carries its
    // own.
    for family in [
        "taxrec_walk_requests_total",
        "taxrec_cascade_requests_total",
        "taxrec_scan_rows_total",
        "taxrec_live_apply_seconds",
        "taxrec_live_arena_recycles_total",
        "taxrec_live_publish_copied_bytes_total",
        "taxrec_replication_committed",
    ] {
        assert!(leader_stats.get(family).is_some(), "leader: {family}");
    }
    let role = |stats: &Json| stats.get("role").and_then(Json::as_str).map(str::to_string);
    assert_eq!(role(&leader_stats).as_deref(), Some("leader"));
    assert_eq!(role(&follower_stats).as_deref(), Some("follower"));
    assert_eq!(
        follower_stats.get("leader").and_then(Json::as_str),
        Some(repl.to_string().as_str())
    );
    assert_eq!(
        follower_stats.get("taxrec_replication_lag"),
        Some(&Json::Num(0.0))
    );
    assert!(tiered_stats.get("taxrec_tier_fault_seconds").is_some());
    assert_eq!(role(&tiered_stats).as_deref(), Some("standalone"));

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    drop(leader); // closes the stream, so the follower's read fails
    tail.join().unwrap();
}

#[test]
fn apply_histograms_and_copied_bytes_move_with_each_write() {
    let st = observed_server(2);
    // (applies per event type, bytes copied across publishes) as
    // `/metrics` reports them right now.
    let scrape = |st: &LiveServer| -> ([f64; 3], f64) {
        let families = parse_prometheus(&get(st, "/metrics").body).unwrap();
        let applies = ["add_item", "fold_in", "refold"].map(|event| {
            families["taxrec_live_apply_seconds"]
                .samples
                .iter()
                .find(|s| {
                    s.name == "taxrec_live_apply_seconds_count"
                        && s.labels == vec![("event".to_string(), event.to_string())]
                })
                .unwrap_or_else(|| panic!("no apply series for {event}"))
                .value
        });
        let copied = families["taxrec_live_publish_copied_bytes_total"].samples[0].value;
        (applies, copied)
    };
    assert_eq!(scrape(&st), ([0.0; 3], 0.0));

    let parent = {
        let snap = st.live().cell().load();
        let tax = snap.model().taxonomy();
        tax.parent(tax.item_node(ItemId(0))).unwrap().0
    };
    let add = format!("{{\"parent\": {parent}}}");
    assert_eq!(route(&st, "POST", "/items", add.as_bytes()).status, 200);
    let (applies, after_add) = scrape(&st);
    assert_eq!(applies, [1.0, 0.0, 0.0]);
    // One appended row in each of the two offset tables, the two
    // effective-factor tables and the last scan shard: at least the
    // rows themselves, at most one 256-row chunk each.
    let row_bytes = 4.0 * 4.0; // K = 4 f32s
    assert!(
        (5.0 * row_bytes..=5.0 * 256.0 * row_bytes).contains(&after_add),
        "add-item copied {after_add} bytes"
    );

    let fold = br#"{"history": [[1, 2], [3]], "steps": 20, "seed": 7}"#;
    assert_eq!(route(&st, "POST", "/users/fold-in", fold).status, 200);
    let (applies, after_fold) = scrape(&st);
    assert_eq!(applies, [1.0, 1.0, 0.0]);
    // A fold-in copies the user table's tail chunk and nothing else.
    let fold_bytes = after_fold - after_add;
    assert!(
        (row_bytes..=256.0 * row_bytes).contains(&fold_bytes),
        "fold-in copied {fold_bytes} bytes"
    );

    // A rejected write is neither applied nor published.
    assert_eq!(
        route(&st, "POST", "/items", br#"{"parent": 999999}"#).status,
        400
    );
    assert_eq!(scrape(&st), ([1.0, 1.0, 0.0], after_fold));
}

#[test]
fn cascade_counters_move_only_on_cascaded_reads() {
    let st = observed_server(2);
    // (requests, scored nodes, kept leaves) as `/metrics` reports them.
    let scrape = |st: &LiveServer| -> [f64; 3] {
        let families = parse_prometheus(&get(st, "/metrics").body).unwrap();
        [
            "taxrec_cascade_requests_total",
            "taxrec_cascade_scored_nodes_total",
            "taxrec_cascade_kept_leaves_total",
        ]
        .map(|family| {
            assert_eq!(families[family].kind, "counter", "{family}");
            families[family].samples[0].value
        })
    };
    let catalog = st.live().cell().load().model().num_items() as f64;
    assert_eq!(scrape(&st), [0.0; 3]);

    // The default scan is not a cascade, and neither is `cascade=1.0`
    // (the router serves it through the default backend).
    assert_eq!(get(&st, "/recommend?user=1&top=5").status, 200);
    assert_eq!(get(&st, "/recommend?user=1&top=5&cascade=1.0").status, 200);
    assert_eq!(get(&st, "/recommend/batch?users=0-3&top=5").status, 200);
    assert_eq!(scrape(&st), [0.0; 3]);

    // A pruning beam scores less than the catalog and ranks no more
    // leaves than the request can use.
    assert_eq!(get(&st, "/recommend?user=1&top=5&cascade=0.3").status, 200);
    let [requests, scored, kept] = scrape(&st);
    assert_eq!(requests, 1.0);
    assert!(
        scored > 0.0 && scored < catalog,
        "scored {scored} of {catalog}"
    );
    // `observed_server`'s log: what user 1 bought is excluded.
    let bought = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(100), 3)
        .train
        .distinct_items(1)
        .len() as f64;
    assert!(kept >= 5.0 && kept <= 5.0 + bought, "kept {kept}");

    // A beam that prunes nothing scores every leaf plus the levels
    // above them; one count per user of a batch.
    assert_eq!(
        get(&st, "/recommend/batch?users=0-3&top=5&cascade=0.9999").status,
        200
    );
    let [requests, wide, _] = scrape(&st);
    assert_eq!(requests, 5.0);
    assert!(
        wide - scored >= 4.0 * catalog,
        "full beams scored {} nodes over {catalog} items",
        wide - scored
    );
}

#[test]
fn walk_counters_move_on_default_reads_only() {
    let st = observed_server(2);
    // (requests, rows scored, categories visited) as `/metrics` reports
    // them, and the scan families the walk must leave alone.
    let scrape = |st: &LiveServer| -> ([f64; 3], [f64; 2]) {
        let families = parse_prometheus(&get(st, "/metrics").body).unwrap();
        let total = |family: &str| -> f64 {
            assert_eq!(families[family].kind, "counter", "{family}");
            families[family].samples.iter().map(|s| s.value).sum()
        };
        (
            [
                "taxrec_walk_requests_total",
                "taxrec_walk_rows_scored_total",
                "taxrec_walk_categories_visited_total",
            ]
            .map(total),
            ["taxrec_scan_rows_total", "taxrec_quant_pool_scans_total"].map(total),
        )
    };
    let catalog = st.live().cell().load().model().num_items() as f64;
    assert_eq!(scrape(&st), ([0.0; 3], [0.0; 2]));

    // One count per user: two single reads and a four-user batch.
    assert_eq!(get(&st, "/recommend?user=1&top=5").status, 200);
    assert_eq!(get(&st, "/recommend?user=2&top=5").status, 200);
    assert_eq!(get(&st, "/recommend/batch?users=0-3&top=5").status, 200);
    let ([requests, rows, categories], scans) = scrape(&st);
    assert_eq!(requests, 6.0);
    assert_eq!(scans, [0.0; 2], "the walk ran a catalog scan");
    assert!(categories >= requests, "every walk scores the root");
    // The point of the walk: a small share of the catalog per read.
    assert!(
        rows > 0.0 && rows / requests < catalog / 4.0,
        "{rows} rows over {requests} reads of a {catalog}-item catalog"
    );

    // A cascaded read is not a walk.
    assert_eq!(get(&st, "/recommend?user=1&top=5&cascade=0.3").status, 200);
    assert_eq!(
        get(&st, "/recommend/batch?users=0-3&top=5&cascade=0.3").status,
        200
    );
    assert_eq!(scrape(&st).0, [requests, rows, categories]);
}

#[test]
fn walk_trace_has_one_walk_span() {
    let st = observed_server(2);
    assert_eq!(get(&st, "/recommend?user=0&top=10").status, 200);
    let traces = st.obs().tracer().recent(1);
    assert_eq!(traces.len(), 1, "sample rate 1.0 must capture the request");
    let t = &traces[0];
    assert_eq!(t.kind, "recommend");
    let names: Vec<&str> = t.spans[1..].iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        ["prepare", "query", "walk", "response_framing"],
        "{:?}",
        t.spans
    );
    for s in &t.spans[1..] {
        assert_eq!(s.parent, Some(1), "{s:?}");
    }
    let resp = get(&st, "/live/trace?n=1");
    assert!(resp.body.contains("\"walk\""), "{}", resp.body);
}

#[test]
fn sequential_adds_recycle_the_taxonomy_arena() {
    let st = observed_server(2);
    let scrape = |st: &LiveServer| -> (f64, f64) {
        let families = parse_prometheus(&get(st, "/metrics").body).unwrap();
        (
            families["taxrec_live_arena_recycles_total"].samples[0].value,
            families["taxrec_live_arena_copies_total"].samples[0].value,
        )
    };
    assert_eq!(scrape(&st), (0.0, 0.0));
    let parent = {
        let snap = st.live().cell().load();
        let tax = snap.model().taxonomy();
        tax.parent(tax.item_node(ItemId(0))).unwrap().0
    };
    let add = format!("{{\"parent\": {parent}}}");
    const ADDS: usize = 12;
    for _ in 0..ADDS {
        assert_eq!(route(&st, "POST", "/items", add.as_bytes()).status, 200);
    }
    // No reader holds a snapshot across a write here, so once the first
    // epochs have retired every add reuses the spare arena.
    let (recycles, copies) = scrape(&st);
    assert_eq!(recycles + copies, ADDS as f64);
    assert!(copies <= 2.0, "{copies} arena copies in {ADDS} adds");
    // A rejected add moves neither.
    assert_eq!(
        route(&st, "POST", "/items", br#"{"parent": 999999}"#).status,
        400
    );
    assert_eq!(scrape(&st), (recycles, copies));
}

#[test]
fn recommend_trace_has_one_scan_span_per_shard_summing_to_the_request() {
    // A catalog big enough that scanning dominates the request (4000
    // untrained items at k=32), so span accounting is measurable.
    const SHARDS: usize = 4;
    let shape = TaxonomyShape {
        level_sizes: vec![4, 40, 300],
        num_items: 4000,
        item_skew: 0.5,
    };
    use rand::SeedableRng;
    let tax = TaxonomyGenerator::new(shape)
        .generate(&mut rand::rngs::StdRng::seed_from_u64(7))
        .taxonomy;
    let model = untrained_model(ModelConfig::tf(4, 1).with_factors(32), &tax, 8, 7);
    let mut log = PurchaseLogBuilder::with_capacity(8);
    for _ in 0..8 {
        log.push_user(vec![vec![ItemId(0), ItemId(1)], vec![ItemId(2)]]);
    }
    let st = LiveServer::new(
        LiveState::new(model),
        log.build(),
        None,
        LiveConfig {
            scan_shards: SHARDS,
            backend: quantized(),
            obs: Obs::shared_with_tracing(1.0, 0),
            ..LiveConfig::default()
        },
    )
    .unwrap();

    assert_eq!(get(&st, "/recommend?user=0&top=10").status, 200);
    let traces = st.obs().tracer().recent(1);
    assert_eq!(traces.len(), 1, "sample rate 1.0 must capture the request");
    let t = &traces[0];
    assert_eq!(t.kind, "recommend");
    assert_eq!(t.reason, SampleReason::Sampled);

    // Root span: id 1, no parent, spanning the whole request.
    assert_eq!(t.spans[0].id, 1);
    assert_eq!(t.spans[0].parent, None);
    assert_eq!(t.spans[0].dur_us, t.total_us);
    // Exactly one scan span per configured shard, all parented on the
    // root, with unique ids.
    let scans: Vec<_> = t
        .spans
        .iter()
        .filter(|s| s.name.starts_with("scan["))
        .collect();
    assert_eq!(scans.len(), SHARDS, "{:?}", t.spans);
    for i in 0..SHARDS {
        assert!(
            scans.iter().any(|s| s.name == format!("scan[{i}]")),
            "missing scan[{i}]: {scans:?}"
        );
    }
    let mut ids: Vec<u32> = t.spans.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), t.spans.len(), "span ids must be unique");
    for s in &t.spans[1..] {
        assert_eq!(s.parent, Some(1), "{s:?}");
        assert!(
            s.start_us + s.dur_us <= t.total_us + 1,
            "child span exceeds the request span: {s:?}"
        );
    }
    // The stages must account for the request: children never exceed
    // the root (they are disjoint sub-intervals of it), and the scans
    // dominate this scan-bound request.
    let child_sum: u64 = t.spans[1..].iter().map(|s| s.dur_us).sum();
    let scan_sum: u64 = scans.iter().map(|s| s.dur_us).sum();
    assert!(
        child_sum <= t.total_us + t.spans.len() as u64,
        "stage spans sum past the request: {child_sum} > {}",
        t.total_us
    );
    assert!(
        2 * scan_sum >= t.total_us,
        "scan spans should dominate a {SHARDS}-shard scan-bound request: \
         scans {scan_sum} µs of {} µs total",
        t.total_us
    );

    // The same trace is served over /live/trace as JSON.
    let resp = get(&st, "/live/trace?n=4");
    assert_eq!(resp.status, 200);
    let parsed = json::parse(&resp.body).expect("trace body parses as JSON");
    assert_eq!(parsed.get("enabled"), Some(&Json::Bool(true)));
    assert!(
        resp.body.contains("\"kind\":\"recommend\""),
        "{}",
        resp.body
    );
    assert!(
        resp.body.contains("\"reason\":\"sampled\""),
        "{}",
        resp.body
    );
    for i in 0..SHARDS {
        assert!(resp.body.contains(&format!("scan[{i}]")), "{}", resp.body);
    }
}
