//! The traced walk. For a sampled request the walker records the real
//! HTTP exchange as the root span and then makes the same request's
//! calls again in-process, one layer further in each time:
//!
//! ```text
//! http.roundtrip ⊃ router.route ⊃ cell.load + engine.recommend
//!                                   ⊃ scoring.query + shards.scan[i] + shards.merge
//! http.roundtrip(POST) ⊃ router.route ⊃ queue.submit
//!                          ⊃ state.apply + event.encode + live_engine.next_from + cell.publish
//! ```
//!
//! Reads walk the leader's own snapshot. Writes must not be applied to
//! the leader twice, so their inner calls run on shadows: a standalone
//! `LiveServer` (router, queue) and a bare `LiveState` + `ModelCell`
//! (state, event, live_engine, cell), both started from the same model.

use crate::gen::{http_form, ReadReq};
use crate::spec::{ReadKind, Workload};
use crate::stack::{read_backend, Asked};
use crate::trace::{RequestTrace, Span};
use std::sync::Arc;
use std::time::Instant;
use taxrec_cli::serve::{route, LiveServer};
use taxrec_core::live::{encode_event, LiveEngine, LiveState, ModelCell, UpdateEvent};
use taxrec_core::obs::Tracer;
use taxrec_core::recommend::Backend;
use taxrec_dataset::PurchaseLog;

/// A sampled request handed from a sender thread to the walker.
pub enum WalkRequest {
    Read {
        req: ReadReq,
        /// The real exchange, on the run clock.
        start_ns: u64,
        end_ns: u64,
    },
    Write {
        event: UpdateEvent,
        start_ns: u64,
        end_ns: u64,
    },
}

/// A bare applier: the state, the cell readers would load from, and the
/// folded-user count (for retargeting refolds).
pub struct BareApplier {
    pub state: LiveState,
    pub cell: ModelCell,
}

impl BareApplier {
    pub fn new(state: LiveState, w: &Workload) -> BareApplier {
        let cell = ModelCell::new(LiveEngine::initial(
            &state,
            Backend::Exhaustive,
            w.scan_shards,
        ));
        BareApplier { state, cell }
    }

    fn folded(&self) -> usize {
        self.state.model().num_users() - self.state.base_users()
    }
}

/// Re-aim an event generated for the leader at a shadow that has seen
/// fewer fold-ins: a refold names one of the shadow's own folded users,
/// or becomes a fold-in while the shadow has none.
pub fn retarget(event: &UpdateEvent, base_users: usize, shadow_folded: usize) -> UpdateEvent {
    match event {
        UpdateEvent::RefoldUser {
            user,
            history,
            steps,
            seed,
        } => {
            if shadow_folded == 0 {
                UpdateEvent::FoldInUser {
                    history: history.clone(),
                    steps: *steps,
                    seed: *seed,
                }
            } else {
                UpdateEvent::RefoldUser {
                    user: base_users + (user - base_users) % shadow_folded,
                    history: history.clone(),
                    steps: *steps,
                    seed: *seed,
                }
            }
        }
        other => other.clone(),
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The walker's state and what it has recorded so far.
pub struct Walker<'a> {
    workload: &'a Workload,
    train: &'a PurchaseLog,
    leader: Arc<LiveServer>,
    pub shadow: LiveServer,
    pub bare: BareApplier,
    tracer: Tracer,
    next_req: u32,
    pub spans: Vec<Span>,
    /// In-process calls that did not answer 200 / `Ok`.
    pub failed: usize,
}

impl<'a> Walker<'a> {
    pub fn new(
        workload: &'a Workload,
        train: &'a PurchaseLog,
        leader: Arc<LiveServer>,
        shadow: LiveServer,
        bare: BareApplier,
    ) -> Walker<'a> {
        let tracer = Tracer::new();
        tracer.configure(1.0, 0);
        Walker {
            workload,
            train,
            leader,
            shadow,
            bare,
            tracer,
            next_req: 1,
            spans: Vec::new(),
            failed: 0,
        }
    }

    pub fn walk(&mut self, req: WalkRequest) {
        let id = self.next_req;
        self.next_req += 1;
        let trace = match req {
            WalkRequest::Read {
                req,
                start_ns,
                end_ns,
            } => self.walk_read(
                RequestTrace::new(id, "http.roundtrip", start_ns, end_ns),
                &req,
            ),
            WalkRequest::Write {
                event,
                start_ns,
                end_ns,
            } => self.walk_write(
                RequestTrace::new(id, "http.roundtrip", start_ns, end_ns),
                &event,
            ),
        };
        self.spans.extend(trace.into_spans());
    }

    fn walk_read(&mut self, mut t: RequestTrace, req: &ReadReq) -> RequestTrace {
        let c = Instant::now();
        let resp = route(&self.leader, "GET", &req.path, b"");
        let route_id = t.replayed_child(1, "router.route", ns_since(c));
        if resp.status != 200 {
            self.failed += 1;
        }

        let c = Instant::now();
        let snap = self.leader.live().cell().load();
        t.replayed_child(route_id, "cell.load", ns_since(c));

        let engine = snap.engine();
        let asked = Asked::new(req.users.clone(), self.train);
        let requests = asked.requests(self.train, self.workload.read.top());
        match self.workload.read {
            ReadKind::Single { .. } => {
                let mut builder = self
                    .tracer
                    .start("recommend")
                    .expect("tracer samples every request");
                let c = Instant::now();
                let recs = engine.recommend_traced(&requests[0], engine.backend(), &mut builder);
                let eng_id = t.replayed_child(route_id, "engine.recommend", ns_since(c));
                std::hint::black_box(recs);
                self.tracer.finish(builder);
                // The engine's own stage spans really ran inside the call.
                for s in self
                    .tracer
                    .recent(1)
                    .iter()
                    .flat_map(|r| &r.spans)
                    .filter(|s| s.parent.is_some())
                {
                    let name = match s.name.as_str() {
                        "query" => "scoring.query".to_string(),
                        "merge" => "shards.merge".to_string(),
                        scan if scan.starts_with("scan[") => format!("shards.{scan}"),
                        other => format!("engine.{other}"),
                    };
                    t.nested_child(eng_id, &name, s.start_us * 1_000, s.dur_us * 1_000);
                }
            }
            ReadKind::CascadedBatch { threads, .. } => {
                let backend = read_backend(self.workload, &snap);
                let c = Instant::now();
                let recs = engine.recommend_batch_with(&requests, threads, &backend);
                let eng_id = t.replayed_child(route_id, "engine.recommend", ns_since(c));
                std::hint::black_box(recs);
                let mut q = vec![0.0f32; snap.model().k()];
                let c = Instant::now();
                for r in &requests {
                    engine.scorer().query_into(r.user, r.history, &mut q);
                }
                t.replayed_child(eng_id, "scoring.query", ns_since(c));
                std::hint::black_box(q);
            }
        }
        t
    }

    fn walk_write(&mut self, mut t: RequestTrace, event: &UpdateEvent) -> RequestTrace {
        let base_users = self.train.num_users();
        let shadow_folded = |s: &LiveServer| s.live().cell().load().users_folded();

        let ev = retarget(event, base_users, shadow_folded(&self.shadow));
        let (path, body) = http_form(&ev);
        let c = Instant::now();
        let resp = route(&self.shadow, "POST", path, body.as_bytes());
        let route_id = t.replayed_child(1, "router.route", ns_since(c));
        if resp.status != 200 {
            self.failed += 1;
        }

        let ev = retarget(event, base_users, shadow_folded(&self.shadow));
        let c = Instant::now();
        let submitted = self.shadow.live().submit(ev);
        let submit_id = t.replayed_child(route_id, "queue.submit", ns_since(c));
        if submitted.is_err() {
            self.failed += 1;
        }

        let ev = retarget(event, base_users, self.bare.folded());
        let c = Instant::now();
        let applied = self.bare.state.apply(&ev);
        t.replayed_child(submit_id, "state.apply", ns_since(c));
        if applied.is_err() {
            self.failed += 1;
        }

        let mut record = Vec::new();
        let c = Instant::now();
        encode_event(&mut record, &ev);
        t.replayed_child(submit_id, "event.encode", ns_since(c));
        std::hint::black_box(record);

        let prev = self.bare.cell.load();
        let c = Instant::now();
        let next = LiveEngine::next_from(&prev, &self.bare.state);
        t.replayed_child(submit_id, "live_engine.next_from", ns_since(c));

        let c = Instant::now();
        self.bare.cell.publish(next);
        t.replayed_child(submit_id, "cell.publish", ns_since(c));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refolds_are_retargeted_at_the_shadows_own_users() {
        let refold = UpdateEvent::RefoldUser {
            user: 107,
            history: vec![vec![taxrec_taxonomy::ItemId(1)]],
            steps: 10,
            seed: 3,
        };
        assert!(matches!(
            retarget(&refold, 100, 0),
            UpdateEvent::FoldInUser {
                steps: 10,
                seed: 3,
                ..
            }
        ));
        assert!(matches!(
            retarget(&refold, 100, 3),
            UpdateEvent::RefoldUser { user: 101, .. }
        ));
        let add = UpdateEvent::AddItem {
            parent: taxrec_taxonomy::NodeId(4),
        };
        assert_eq!(retarget(&add, 100, 0), add);
    }
}
