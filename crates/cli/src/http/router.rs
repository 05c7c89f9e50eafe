//! Request routing: the pure `(method, path, body)` →
//! [`Response`] map.
//!
//! Every handler loads its own immutable snapshot from the
//! [`taxrec_core::live::ModelCell`] at entry and keeps it for the whole
//! request — concurrent workers read lock-free and never observe a
//! half-published model, even while the applier publishes successors.

use crate::json::{self, json_str, Json};
use crate::serve::{LiveServer, ReplRole};
use std::fmt::Write;
use taxrec_core::live::{LiveEngine, LiveError, UpdateEvent};
use taxrec_core::obs::SeriesValue;
use taxrec_core::{Backend, RecommendRequest};
use taxrec_dataset::Transaction;
use taxrec_taxonomy::{ItemId, NodeId};

/// Default BPR steps for `POST /users/fold-in` when the body names none.
pub const DEFAULT_FOLD_STEPS: usize = 400;
/// Hard cap on total items in one fold-in history.
pub const MAX_FOLD_ITEMS: usize = 10_000;
/// Hard cap on requested fold-in steps (the event codec enforces the
/// same bound at decode time).
pub const MAX_FOLD_STEPS: usize = taxrec_core::live::MAX_EVENT_FOLD_STEPS;
/// Largest user batch one HTTP request may name.
pub const BATCH_CAP: usize = 4096;

/// The `Content-Type` of every JSON response.
pub const CONTENT_TYPE_JSON: &str = "application/json";
/// The `Content-Type` of the Prometheus text exposition (`/metrics`).
pub const CONTENT_TYPE_PROMETHEUS: &str = "text/plain; version=0.0.4; charset=utf-8";

/// One parsed HTTP response: status line + body.
#[derive(Debug, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (JSON, except `/metrics`).
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
}

impl Response {
    pub(crate) fn ok(body: String) -> Response {
        Response {
            status: 200,
            body,
            content_type: CONTENT_TYPE_JSON,
        }
    }

    /// A 200 with the Prometheus text-exposition content type.
    pub(crate) fn prometheus(body: String) -> Response {
        Response {
            status: 200,
            body,
            content_type: CONTENT_TYPE_PROMETHEUS,
        }
    }

    pub(crate) fn bad(msg: &str) -> Response {
        Response {
            status: 400,
            body: format!("{{\"error\":{}}}", json_str(msg)),
            content_type: CONTENT_TYPE_JSON,
        }
    }

    pub(crate) fn not_found() -> Response {
        Response {
            status: 404,
            body: "{\"error\":\"not found\"}".to_string(),
            content_type: CONTENT_TYPE_JSON,
        }
    }

    pub(crate) fn method_not_allowed(allow: &str) -> Response {
        Response {
            status: 405,
            body: format!(
                "{{\"error\":\"method not allowed\",\"allow\":{}}}",
                json_str(allow)
            ),
            content_type: CONTENT_TYPE_JSON,
        }
    }
}

/// Parse the `cascade` parameter and apply the read-path rule
/// ([`Backend::for_cascade`]): below 1 the taxonomy beam serves; absent,
/// unparseable or 1 and above, the engine's own configured backend
/// (the radius-bound walk on a default server).
fn backend_from(cascade: Option<&str>, depth: usize, default: &Backend) -> Backend {
    Backend::for_cascade(cascade.and_then(|v| v.parse().ok()), depth, default)
}

/// Append one user's recommendations to `out` as a JSON object.
fn write_user_json(out: &mut String, server: &LiveServer, user: usize, recs: &[(ItemId, f32)]) {
    out.reserve(40 + 56 * recs.len());
    let _ = write!(out, "{{\"user\":{user},\"recommendations\":[");
    for (n, (i, s)) in recs.iter().enumerate() {
        out.push_str(if n == 0 { "{\"item\":" } else { ",{\"item\":" });
        server.write_item_label(out, *i);
        let _ = write!(out, ",\"id\":{},\"score\":", i.0);
        json::write_score(out, *s);
        out.push('}');
    }
    out.push_str("]}");
}

/// One user's recommendations as a response.
fn user_response(server: &LiveServer, user: usize, recs: &[(ItemId, f32)]) -> Response {
    let mut body = String::new();
    write_user_json(&mut body, server, user, recs);
    Response::ok(body)
}

fn live_error_response(e: LiveError) -> Response {
    match e {
        // Client errors: bad parent node, unknown item in a history,
        // a refold naming a non-folded user, excessive fold-in steps.
        LiveError::Taxonomy(_)
        | LiveError::UnknownItem(_)
        | LiveError::UnknownUser(_)
        | LiveError::FoldStepsTooLarge(_) => Response::bad(&e.to_string()),
        // Applier gone / IO trouble: the server's fault, not the client's.
        LiveError::QueueClosed | LiveError::Io(_) => Response {
            status: 503,
            body: format!("{{\"error\":{}}}", json_str(&e.to_string())),
            content_type: CONTENT_TYPE_JSON,
        },
    }
}

/// Route one request. Exposed for in-process tests; the TCP workers are
/// a thin shell around this. Thread-safe: takes `&LiveServer`, loads
/// its own snapshot, and touches only atomic counters.
pub fn route(server: &LiveServer, method: &str, path_query: &str, body: &[u8]) -> Response {
    let (path, query) = match path_query.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path_query, ""),
    };
    let get_param = |name: &str| -> Option<&str> {
        query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    };
    const GET_ROUTES: &[&str] = &[
        "/health",
        "/model",
        "/recommend",
        "/recommend/batch",
        "/categories",
        "/live/stats",
        "/live/trace",
        "/metrics",
    ];
    const POST_ROUTES: &[&str] = &["/items", "/users/fold-in"];
    match method {
        "GET" if GET_ROUTES.contains(&path) => {}
        "POST" if POST_ROUTES.contains(&path) => {}
        _ if GET_ROUTES.contains(&path) => return Response::method_not_allowed("GET"),
        _ if POST_ROUTES.contains(&path) => return Response::method_not_allowed("POST"),
        "GET" | "POST" => return Response::not_found(),
        _ => return Response::method_not_allowed("GET, POST"),
    }

    // Followers are read replicas: the only writer to their model is
    // the leader's record stream, so every HTTP write is refused with
    // a pointer at the node that can take it.
    if method == "POST" {
        if let Some(leader) = server.follower_leader() {
            return Response {
                status: 403,
                body: format!(
                    "{{\"error\":\"this node is a read-only follower; \
                     send writes to the leader\",\"leader\":{}}}",
                    json_str(leader)
                ),
                content_type: CONTENT_TYPE_JSON,
            };
        }
    }

    let snap = server.live().cell().load();
    match path {
        "/health" => Response::ok("{\"status\":\"ok\"}".to_string()),
        "/model" => {
            let model = snap.model();
            let cfg = model.config();
            Response::ok(format!(
                "{{\"system\":{},\"factors\":{},\"users\":{},\"items\":{},\"levels\":{:?},\
                 \"epoch\":{},\"items_added\":{},\"users_folded\":{}}}",
                json_str(&cfg.system_name()),
                cfg.factors,
                model.num_users(),
                model.num_items(),
                model.taxonomy().level_sizes(),
                snap.epoch(),
                snap.items_added(),
                snap.users_folded(),
            ))
        }
        "/recommend" => {
            let Some(user) = get_param("user").and_then(|v| v.parse::<usize>().ok()) else {
                return Response::bad("user parameter required");
            };
            if user >= snap.model().num_users() {
                return Response::bad("user out of range");
            }
            let top = get_param("top")
                .and_then(|v| v.parse().ok())
                .unwrap_or(10usize);
            let backend = backend_from(
                get_param("cascade"),
                snap.model().taxonomy().depth(),
                snap.engine().backend(),
            );
            // Trace the full pipeline when this request is sampled (or
            // slow capture is armed): prepare → walk (or per-shard scan
            // → merge, or cascade) → response framing, all under one
            // root span.
            let tracer = server.obs().tracer();
            if let Some(mut t) = tracer.start("recommend") {
                let t_prep = t.clock();
                let bought = server.exclude_for(&snap, user);
                let history = server.history_for(&snap, user);
                t.close("prepare", t_prep);
                let recs = snap.engine().recommend_traced(
                    &RecommendRequest {
                        user,
                        history,
                        k: top,
                        exclude: &bought,
                    },
                    &backend,
                    &mut t,
                );
                let t_frame = t.clock();
                let resp = user_response(server, user, &recs);
                t.close("response_framing", t_frame);
                tracer.finish(t);
                return resp;
            }
            let bought = server.exclude_for(&snap, user);
            let recs = snap.engine().recommend_with(
                &RecommendRequest {
                    user,
                    history: server.history_for(&snap, user),
                    k: top,
                    exclude: &bought,
                },
                &backend,
            );
            user_response(server, user, &recs)
        }
        "/recommend/batch" => {
            let Some(spec) = get_param("users") else {
                return Response::bad("users parameter required (e.g. users=0,1,2 or users=0-63)");
            };
            let users =
                match crate::users::parse_user_list(spec, snap.model().num_users(), BATCH_CAP) {
                    Ok(u) => u,
                    Err(e) => return Response::bad(&e),
                };
            let top = get_param("top")
                .and_then(|v| v.parse().ok())
                .unwrap_or(10usize);
            let threads = get_param("threads")
                .and_then(|v| v.parse().ok())
                .unwrap_or(server.cores())
                .clamp(1, server.cores());
            let backend = backend_from(
                get_param("cascade"),
                snap.model().taxonomy().depth(),
                snap.engine().backend(),
            );

            let excludes: Vec<Vec<ItemId>> = users
                .iter()
                .map(|&u| server.exclude_for(&snap, u))
                .collect();
            let requests: Vec<RecommendRequest<'_>> = users
                .iter()
                .zip(&excludes)
                .map(|(&u, excl)| RecommendRequest {
                    user: u,
                    history: server.history_for(&snap, u),
                    k: top,
                    exclude: excl,
                })
                .collect();
            let results = snap
                .engine()
                .recommend_batch_with(&requests, threads, &backend);
            let mut body = format!(
                "{{\"batch\":{},\"epoch\":{},\"results\":[",
                users.len(),
                snap.epoch(),
            );
            for (n, (&u, recs)) in users.iter().zip(&results).enumerate() {
                if n > 0 {
                    body.push(',');
                }
                write_user_json(&mut body, server, u, recs);
            }
            body.push_str("]}");
            Response::ok(body)
        }
        "/categories" => {
            let Some(user) = get_param("user").and_then(|v| v.parse::<usize>().ok()) else {
                return Response::bad("user parameter required");
            };
            if user >= snap.model().num_users() {
                return Response::bad("user out of range");
            }
            let level = get_param("level")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1usize);
            if level > snap.model().taxonomy().depth() {
                return Response::bad("level deeper than the taxonomy");
            }
            let scorer = snap.engine().scorer();
            let query_vec = scorer.query(user, server.history_for(&snap, user));
            let mut body = format!("{{\"user\":{user},\"level\":{level},\"categories\":[");
            for (n, (node, s)) in scorer
                .rank_level(&query_vec, level)
                .iter()
                .take(10)
                .enumerate()
            {
                body.push_str(if n == 0 { "{\"node\":" } else { ",{\"node\":" });
                let _ = write!(body, "{},\"score\":", node.0);
                json::write_score(&mut body, *s);
                body.push('}');
            }
            body.push_str("]}");
            Response::ok(body)
        }
        "/live/stats" => Response::ok(stats_json(server, &snap)),
        "/metrics" => Response::prometheus(server.obs().registry().render_prometheus()),
        "/live/trace" => {
            let n = get_param("n")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(20)
                .min(1024);
            Response::ok(traces_json(server, n))
        }
        "/items" => {
            let parsed = match parse_body(body) {
                Ok(v) => v,
                Err(e) => return Response::bad(&e),
            };
            let Some(parent) = parsed.get("parent").and_then(Json::as_u64) else {
                return Response::bad("body must be {\"parent\": <interior node id>}");
            };
            let Ok(parent) = u32::try_from(parent) else {
                return Response::bad("parent node id out of range");
            };
            match server.live().submit(UpdateEvent::AddItem {
                parent: NodeId(parent),
            }) {
                Ok(done) => {
                    let taxrec_core::live::Applied::ItemAdded { item, node } = done.applied else {
                        return Response::bad("applier returned a mismatched result");
                    };
                    Response::ok(format!(
                        "{{\"item\":{},\"node\":{},\"epoch\":{}}}",
                        item.0, node.0, done.epoch
                    ))
                }
                Err(e) => live_error_response(e),
            }
        }
        "/users/fold-in" => {
            let parsed = match parse_body(body) {
                Ok(v) => v,
                Err(e) => return Response::bad(&e),
            };
            let history = match fold_in_history(&parsed) {
                Ok(h) => h,
                Err(e) => return Response::bad(&e),
            };
            let steps = match parsed.get("steps") {
                None => DEFAULT_FOLD_STEPS,
                Some(v) => match v.as_usize() {
                    Some(s) if s <= MAX_FOLD_STEPS => s,
                    _ => return Response::bad("steps must be an integer within bounds"),
                },
            };
            let seed = match parsed.get("seed") {
                None => server.next_fold_seed(),
                Some(v) => match v.as_u64() {
                    Some(s) => s,
                    None => return Response::bad("seed must be a non-negative integer below 2^53"),
                },
            };
            let transactions = history.len();
            // An optional "user" names an existing folded-in user to
            // re-fold: the history REPLACES that user's record (it is
            // the full history, not a delta), so resubmitting an
            // extended history never double-counts earlier purchases.
            if let Some(v) = parsed.get("user") {
                let Some(user) = v.as_usize() else {
                    return Response::bad("user must be a non-negative integer");
                };
                return match server.live().submit(UpdateEvent::RefoldUser {
                    user,
                    history,
                    steps,
                    seed,
                }) {
                    Ok(done) => {
                        let taxrec_core::live::Applied::UserRefolded { user } = done.applied else {
                            return Response::bad("applier returned a mismatched result");
                        };
                        Response::ok(format!(
                            "{{\"user\":{user},\"refolded\":true,\
                             \"transactions\":{transactions},\"epoch\":{}}}",
                            done.epoch
                        ))
                    }
                    Err(e) => live_error_response(e),
                };
            }
            match server.live().submit(UpdateEvent::FoldInUser {
                history,
                steps,
                seed,
            }) {
                Ok(done) => {
                    let taxrec_core::live::Applied::UserFolded { user } = done.applied else {
                        return Response::bad("applier returned a mismatched result");
                    };
                    Response::ok(format!(
                        "{{\"user\":{user},\"transactions\":{transactions},\"epoch\":{}}}",
                        done.epoch
                    ))
                }
                Err(e) => live_error_response(e),
            }
        }
        _ => Response::not_found(),
    }
}

/// The `GET /live/stats` body: a header of the facts that are not
/// registry series, then one entry per registry family under its
/// Prometheus name — the same walk `GET /metrics` renders. An
/// unlabelled counter or gauge is a number; a labelled family is an
/// array of its label pairs plus `value`; a histogram value is
/// `{count, sum_us, p50_us, p99_us}`.
fn stats_json(server: &LiveServer, snap: &LiveEngine) -> String {
    let num = |v: u64| Json::Num(v as f64);
    let text = |s: &str| Json::Str(s.to_string());
    let mut body = vec![
        ("version".into(), text(env!("CARGO_PKG_VERSION"))),
        ("uptime_seconds".into(), num(server.obs().uptime_seconds())),
    ];
    match server.repl_role() {
        ReplRole::Standalone => body.push(("role".into(), text("standalone"))),
        ReplRole::Leader { .. } => body.push(("role".into(), text("leader"))),
        ReplRole::Follower { leader, .. } => {
            body.push(("role".into(), text("follower")));
            body.push(("leader".into(), text(leader)));
        }
    }
    body.extend([
        ("epoch".into(), num(snap.epoch())),
        ("base_users".into(), num(snap.base_users() as u64)),
        ("base_items".into(), num(snap.base_items() as u64)),
    ]);
    let value = |v: &SeriesValue| match v {
        SeriesValue::Counter(c) => num(c.get()),
        SeriesValue::Gauge(g) => num(g.get()),
        SeriesValue::Histogram(h) => {
            let q = h.snapshot();
            Json::Obj(vec![
                ("count".into(), num(q.total())),
                ("sum_us".into(), num(h.sum_us())),
                ("p50_us".into(), num(q.quantile_us(0.50))),
                ("p99_us".into(), num(q.quantile_us(0.99))),
            ])
        }
    };
    server.obs().registry().for_each_family(|f| {
        let entry = match f.series.as_slice() {
            [only] if only.labels.is_empty() => value(&only.value),
            series => Json::Arr(
                series
                    .iter()
                    .map(|s| {
                        let mut pairs: Vec<(String, Json)> =
                            s.labels.iter().map(|(k, v)| (k.clone(), text(v))).collect();
                        pairs.push(("value".into(), value(&s.value)));
                        Json::Obj(pairs)
                    })
                    .collect(),
            ),
        };
        body.push((f.name.clone(), entry));
    });
    Json::Obj(body).render()
}

/// The `GET /live/trace` body: the `n` most recent captured traces
/// (newest first) rendered through [`Json::render`].
fn traces_json(server: &LiveServer, n: usize) -> String {
    let tracer = server.obs().tracer();
    let num = |v: u64| Json::Num(v as f64);
    let traces: Vec<Json> = tracer
        .recent(n)
        .into_iter()
        .map(|t| {
            let spans: Vec<Json> = t
                .spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("id".into(), num(s.id as u64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| num(p as u64)),
                        ),
                        ("name".into(), Json::Str(s.name.clone())),
                        ("start_us".into(), num(s.start_us)),
                        ("dur_us".into(), num(s.dur_us)),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("seq".into(), num(t.seq)),
                ("kind".into(), Json::Str(t.kind.to_string())),
                ("total_us".into(), num(t.total_us)),
                ("reason".into(), Json::Str(t.reason.as_str().to_string())),
                ("spans".into(), Json::Arr(spans)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("enabled".into(), Json::Bool(tracer.enabled())),
        ("captured".into(), num(tracer.captured())),
        ("traces".into(), Json::Arr(traces)),
    ])
    .render()
}

fn parse_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "request body is not UTF-8".to_string())?;
    if text.trim().is_empty() {
        return Err("request body required".to_string());
    }
    json::parse(text).map_err(|e| format!("invalid JSON body: {e}"))
}

/// Extract and validate `{"history": [[item, ...], ...]}`, each basket
/// sorted and de-duplicated (the [`UpdateEvent`] history contract).
fn fold_in_history(parsed: &Json) -> Result<Vec<Transaction>, String> {
    let Some(baskets) = parsed.get("history").and_then(Json::as_array) else {
        return Err("body must contain \"history\": [[item ids], ...]".to_string());
    };
    let mut history: Vec<Transaction> = Vec::with_capacity(baskets.len());
    let mut total = 0usize;
    for basket in baskets {
        let Some(items) = basket.as_array() else {
            return Err("history entries must be arrays of item ids".to_string());
        };
        let mut tx: Transaction = Vec::with_capacity(items.len());
        for item in items {
            let Some(id) = item.as_u64().and_then(|v| u32::try_from(v).ok()) else {
                return Err("item ids must be non-negative integers".to_string());
            };
            tx.push(ItemId(id));
        }
        // Fold-in samples negatives by binary search over the basket,
        // and a repeat would dilute the Markov weight 1/|b|: log every
        // basket sorted and de-duplicated.
        tx.sort_unstable();
        tx.dedup();
        total += tx.len();
        if total > MAX_FOLD_ITEMS {
            return Err(format!("history exceeds {MAX_FOLD_ITEMS} items"));
        }
        history.push(tx);
    }
    if total == 0 {
        return Err("history must contain at least one purchase".to_string());
    }
    Ok(history)
}
