//! The batched recommendation engine.
//!
//! [`RecommendEngine`] is the serving-side entry point of the crate: it
//! freezes a trained [`TfModel`] into scan-friendly state once, then
//! answers any number of single or batched top-K requests without
//! further allocation beyond per-worker scratch. See the module docs of
//! [`crate::recommend`] for the data-path overview.

use super::batch::{self, Shard};
use super::kernel::{F32Kernel, QuantQuery};
use super::shards::{self, CatalogPartition};
use super::topk::{TopK, SCORE_BLOCK};
use super::walk::{Frontier, WalkIndex};
use crate::inference::{Beam, CascadeConfig};
use crate::model::TfModel;
use crate::obs::{ScanMetrics, TraceBuilder};
use crate::scoring::Scorer;
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use taxrec_dataset::Transaction;
use taxrec_factors::{QuantMatrix, COW_CHUNK_ROWS};
use taxrec_taxonomy::{ItemId, NodeId};

/// Knobs of the int8-quantized scan backend.
///
/// The quantized pass prunes with approximate int8 scores and
/// rescores in exact f32 only the rows still competing within the
/// rigorous error bound ([`QuantQuery::error_bound`]), so results are
/// exact unconditionally. `pool_size(k) = max(pool_factor · k,
/// k + pool_margin)` is the floor of the per-shard **rescore budget**
/// (`max(pool_size(k), shard_rows / 16)`, see `rescore_budget`): a scan
/// whose exact-rescore count stays within it is counted *sufficient*
/// in [`RecommendEngine::quant_pool_stats`] — the quantized grid is
/// resolving the top of the ranking cheaply — while overruns are
/// counted *insufficient*. The budget is an observability threshold,
/// not a correctness knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizedConfig {
    /// Pool size as a multiple of the requested `k` (default 4).
    pub pool_factor: usize,
    /// Minimum extra candidates beyond `k` (default 32).
    pub pool_margin: usize,
}

impl Default for QuantizedConfig {
    fn default() -> QuantizedConfig {
        QuantizedConfig {
            pool_factor: 4,
            pool_margin: 32,
        }
    }
}

impl QuantizedConfig {
    /// Candidate-pool size for a request wanting `k` items.
    pub fn pool_size(&self, k: usize) -> usize {
        self.pool_factor
            .saturating_mul(k)
            .max(k.saturating_add(self.pool_margin))
    }
}

/// Which inference path serves a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// Score every catalog item (exact): the oracle every other exact
    /// backend is tested against.
    Exhaustive,
    /// Best-first walk over per-category radius bounds
    /// ([`crate::recommend`] module docs): scores only the item rows
    /// whose bound can still reach the top-K — about 150 of 32 000 on a
    /// K = 64 catalog — and always serves the exhaustive ranking. The
    /// exact serving default ([`Backend::default`]).
    Walk,
    /// Beam through the taxonomy with the given per-level keep
    /// fractions (approximate; Sec. 5.1). Keep fractions of 1.0
    /// reproduce the exhaustive ranking. The beam's bottom level is cut
    /// by the walk index's radius bounds, with the ranking of scoring
    /// every item under the kept categories.
    Cascaded(CascadeConfig),
    /// Int8-quantized branch-and-bound scan: approximate int8 scores
    /// prune the catalog and only rows still competing within the
    /// rigorous error bound are rescored in exact f32 — always the
    /// exhaustive ranking, with
    /// [`RecommendEngine::quant_pool_stats`] counting scans whose
    /// rescore count stayed within the configured budget.
    Quantized(QuantizedConfig),
}

impl Default for Backend {
    /// The one exact serving path: the radius-bound walk. Live serving
    /// ([`crate::live::LiveConfig`]), `taxrec recommend` and the
    /// retrieval eval harness all serve exact reads through it.
    fn default() -> Backend {
        Backend::Walk
    }
}

impl Backend {
    /// The read-path rule of every surface (the HTTP `cascade=`
    /// parameter, `taxrec recommend --cascade`, the eval harness's
    /// `cascade` field): a keep fraction below 1 selects the taxonomy
    /// beam over `depth` levels (floored at 0.01); anything else — no
    /// fraction, 1 or more, NaN — serves through `exact`.
    pub fn for_cascade(cascade: Option<f64>, depth: usize, exact: &Backend) -> Backend {
        match cascade {
            Some(f) if f < 1.0 => Backend::Cascaded(CascadeConfig::uniform(depth, f.max(0.01))),
            _ => exact.clone(),
        }
    }
}

/// One user's slot in a batch.
#[derive(Debug, Clone, Copy)]
pub struct RecommendRequest<'a> {
    /// User row in the model.
    pub user: usize,
    /// The user's transaction history, oldest first (the Markov term
    /// conditions on the last `B` baskets).
    pub history: &'a [Transaction],
    /// How many items to return.
    pub k: usize,
    /// Items to skip, **sorted ascending** (typically the user's past
    /// purchases).
    pub exclude: &'a [ItemId],
}

impl<'a> RecommendRequest<'a> {
    /// Request `k` items for `user` with no history or exclusions.
    pub fn simple(user: usize, k: usize) -> RecommendRequest<'a> {
        RecommendRequest {
            user,
            history: &[],
            k,
            exclude: &[],
        }
    }
}

/// Per-worker scratch: allocated once, reused across every request the
/// worker serves.
#[derive(Debug, Default)]
struct Scratch {
    query: Vec<f32>,
    block: Vec<f32>,
    topk: TopK,
    /// Frontier and candidate buffers of the cascaded walk.
    beam: Beam,
    /// Int8 dot buffer of the quantized scan, one chunk at a time.
    qdots: Vec<i32>,
    /// Approximate-score buffer of the quantized scan, one chunk at a
    /// time.
    qapprox: Vec<f32>,
    /// One drained top-K list per catalog shard, reused across requests.
    partials: Vec<Vec<(ItemId, f32)>>,
    /// Bound heap of the radius walk.
    frontier: Frontier,
}

impl Scratch {
    fn new(k_factors: usize) -> Scratch {
        Scratch {
            query: vec![0.0; k_factors],
            block: vec![0.0; SCORE_BLOCK],
            topk: TopK::new(),
            beam: Beam::default(),
            qdots: Vec::new(),
            qapprox: Vec::new(),
            partials: Vec::new(),
            frontier: Frontier::default(),
        }
    }
}

/// One contiguous slice of the catalog, items `[first, first +
/// quant.rows())`: the int8 shadow of their effective factors, chunked
/// at [`COW_CHUNK_ROWS`] boundaries counted from `first`. The f32 rows
/// are not copied here — both scans read each item's row straight from
/// the scorer's effective-factor table.
#[derive(Debug, Clone)]
struct CatalogShard {
    first: usize,
    quant: QuantMatrix,
}

impl CatalogShard {
    /// The item ids this shard owns.
    fn items(&self) -> Range<usize> {
        self.first..self.first + self.quant.rows()
    }
}

/// Exact rescores a quantized scan of a `shard_rows`-row shard may
/// spend and still be counted *sufficient*:
/// `max(cfg.pool_size(k), shard_rows / 16)`.
///
/// The scan rescores against an *evolving* k-th score, so even a
/// zero-error filter rescores ≈ `k · ln(rows / k)` rows in id order —
/// a constant budget is overrun by every shard above a few hundred
/// rows whatever the bound does. One f32 row costs four int8 rows of
/// bandwidth, so `rows / 16` reads "rescoring cost under a quarter of
/// the int8 pass"; `pool_size(k)` stays the floor for small shards.
fn rescore_budget(cfg: &QuantizedConfig, k: usize, shard_rows: u64) -> u64 {
    (cfg.pool_size(k) as u64).max(shard_rows / 16)
}

/// A frozen model ready to serve batched top-K recommendations.
///
/// Construction materialises the effective factors of every taxonomy
/// node once (via [`Scorer`]); that table is the only f32 copy of an
/// item row. The exhaustive scan reads each item's row from it through
/// the taxonomy's item → leaf-node map, in 256-row blocks of item ids,
/// and the only per-shard state is the int8 shadow the quantized first
/// pass scans. [`Backend::Walk`] reads the same rows, a few hundred
/// per request, through a per-category radius index built with the
/// engine.
///
/// ```
/// use taxrec_core::recommend::{Backend, RecommendEngine, RecommendRequest};
/// use taxrec_core::{ModelConfig, TfTrainer};
/// use taxrec_dataset::{DatasetConfig, SyntheticDataset};
///
/// let data = SyntheticDataset::generate(&DatasetConfig::tiny(), 42);
/// let model = TfTrainer::new(
///     ModelConfig::tf(4, 1).with_factors(8).with_epochs(2),
///     &data.taxonomy,
/// )
/// .fit(&data.train, 42);
///
/// let engine = RecommendEngine::new(&model);
/// let requests: Vec<RecommendRequest> = (0..8)
///     .map(|u| RecommendRequest {
///         user: u,
///         history: data.train.user(u),
///         k: 5,
///         exclude: &[],
///     })
///     .collect();
/// let results = engine.recommend_batch(&requests, 2);
/// assert_eq!(results.len(), 8);
/// assert!(results.iter().all(|r| r.len() == 5));
/// ```
///
/// `M` is the model holder: `&TfModel` for the borrowed offline shape,
/// `Arc<TfModel>` for owned snapshots published by [`crate::live`]. The
/// item catalog is partitioned into contiguous, taxonomy-aligned
/// catalog shards (see [`crate::recommend::shards`]); each shard's int8
/// shadow is a chunked [`QuantMatrix`], so the successor engine after a
/// catalog change ([`RecommendEngine::grown_from`]) shares every chunk
/// and appends the new items' codes to the last shard instead of
/// recopying any scan state.
#[derive(Debug)]
pub struct RecommendEngine<M: Deref<Target = TfModel>> {
    scorer: Scorer<M>,
    /// Contiguous catalog shards in item-id order; shard `s` holds the
    /// int8 shadow of items `[first_s, first_{s+1})`.
    shards: Vec<CatalogShard>,
    backend: Backend,
    /// Radius bounds and per-category item lists of [`Backend::Walk`]
    /// and of the cascaded beam's bottom level; grown, not rebuilt, by
    /// [`grown_from`](Self::grown_from).
    walk: WalkIndex,
    /// The f32 dot-product kernel every scan dispatches through,
    /// selected once at construction ([`F32Kernel::select`]) and
    /// inherited by successor engines. Dispatch is bit-invariant.
    kernel: F32Kernel,
    /// Quantized-pool budget counters (scans / within budget / over
    /// budget), carried across successor engines.
    quant_pool: Arc<QuantPoolCounters>,
    /// Per-shard scan counters (rows, blocks, busy µs) registered in
    /// the unified metrics registry. `None` outside an observed serving
    /// context: recording then costs nothing, not even a clock read.
    scan_metrics: Option<Arc<ScanMetrics>>,
}

/// Lock-free counters behind [`RecommendEngine::quant_pool_stats`].
#[derive(Debug, Default)]
struct QuantPoolCounters {
    scans: AtomicU64,
    sufficient: AtomicU64,
    insufficient: AtomicU64,
}

/// Budget outcomes of the quantized backend's shard scans, across
/// every request this engine (and its ancestors) served. Results are
/// bit-identical either way — the budget is pure observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuantPoolStats {
    /// Quantized shard scans served.
    pub scans: u64,
    /// Scans whose exact-rescore work stayed within the pool budget.
    pub sufficient: u64,
    /// Scans whose exact-rescore work overran the pool budget.
    pub insufficient: u64,
}

impl<M: Deref<Target = TfModel>> RecommendEngine<M> {
    /// Engine over the exhaustive backend, unsharded.
    pub fn new(model: M) -> RecommendEngine<M> {
        Self::with_backend(model, Backend::Exhaustive)
    }

    /// Engine over an explicit backend, unsharded (one catalog shard —
    /// the shard merge degenerates to the identity).
    pub fn with_backend(model: M, backend: Backend) -> RecommendEngine<M> {
        Self::with_backend_sharded(model, backend, 1)
    }

    /// Engine whose item catalog is partitioned into `scan_shards`
    /// contiguous, taxonomy-subtree-aligned shards (clamped to
    /// `[1, num_items]`; see [`CatalogPartition::plan`]). The served
    /// ranking is bit-for-bit identical at every shard count — sharding
    /// only changes which item ranges the scans visit one after another.
    pub fn with_backend_sharded(
        model: M,
        backend: Backend,
        scan_shards: usize,
    ) -> RecommendEngine<M> {
        let scorer = Scorer::new(model);
        let model = scorer.model();
        let k = model.k();
        let partition = CatalogPartition::plan(model.taxonomy(), scan_shards);
        let shards = partition
            .ranges()
            .iter()
            .map(|range| CatalogShard {
                first: range.start,
                quant: QuantMatrix::from_rows(
                    k,
                    (range.start..range.end).map(|i| scorer.item_factor(ItemId(i as u32))),
                ),
            })
            .collect();
        let walk = WalkIndex::build(&scorer);
        RecommendEngine {
            scorer,
            shards,
            backend,
            walk,
            kernel: F32Kernel::select(),
            quant_pool: Arc::new(QuantPoolCounters::default()),
            scan_metrics: None,
        }
    }

    /// Build the successor engine for a model that extends `prev`'s
    /// catalog (same contract as [`Scorer::grown_from`]): the
    /// effective-factor tables and the per-shard int8 shadows are cloned
    /// from `prev` (one refcount bump per chunk) and only rows for the
    /// appended items/nodes are computed and pushed — publish cost is
    /// `O(change)`, not `O(catalog)`: an append copies at most the one
    /// 256-row chunk it lands in, per table.
    ///
    /// Appended item ids extend the id space past the last shard's
    /// range, so a live `AddItem` routes to the **last shard's tail**;
    /// every other shard is shared with `prev` by pointer. The walk
    /// index inserts each new item into its parent's list of added
    /// items (copying that list only) and raises the radii of its
    /// `O(depth)` ancestors.
    pub fn grown_from<P: Deref<Target = TfModel>>(
        prev: &RecommendEngine<P>,
        model: M,
        backend: Backend,
    ) -> RecommendEngine<M> {
        let prev_items = prev.model().num_items();
        let scorer = Scorer::grown_from(&prev.scorer, model);
        let mut shards = prev.shards.clone();
        debug_assert!(!shards.is_empty(), "partition always yields a shard");
        let tail = shards.last_mut().expect("at least one shard");
        for i in prev_items..scorer.model().num_items() {
            // Re-quantizes only the touched tail chunk — every other
            // quant chunk stays shared with `prev` by pointer.
            tail.quant.push_row(scorer.item_factor(ItemId(i as u32)));
        }
        let walk = prev.walk.grown(&scorer, prev_items);
        RecommendEngine {
            scorer,
            shards,
            backend,
            walk,
            kernel: prev.kernel,
            quant_pool: prev.quant_pool.clone(),
            scan_metrics: prev.scan_metrics.clone(),
        }
    }

    /// Attach per-shard scan counters; every subsequent scan (and every
    /// successor engine via [`grown_from`](Self::grown_from)) records
    /// rows/blocks/busy-time into them. Counters registered for a
    /// different shard count silently ignore out-of-range shards.
    pub fn set_scan_metrics(&mut self, metrics: Arc<ScanMetrics>) {
        self.scan_metrics = Some(metrics);
    }

    /// The model being served.
    pub fn model(&self) -> &TfModel {
        self.scorer.model()
    }

    /// The underlying scorer (query building, category ranking).
    pub fn scorer(&self) -> &Scorer<M> {
        &self.scorer
    }

    /// The active backend.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The f32 scan kernel every scan dispatches through.
    pub fn scan_kernel(&self) -> F32Kernel {
        self.kernel
    }

    /// Override the scan kernel (tests, forced-kernel chains). Results are
    /// bit-identical under every kernel; only throughput changes.
    pub fn set_scan_kernel(&mut self, kernel: F32Kernel) {
        self.kernel = kernel;
    }

    /// Outcome counters of every quantized first-pass pool this engine
    /// (and the engines it grew from) served.
    pub fn quant_pool_stats(&self) -> QuantPoolStats {
        QuantPoolStats {
            scans: self.quant_pool.scans.load(Ordering::Relaxed),
            sufficient: self.quant_pool.sufficient.load(Ordering::Relaxed),
            insufficient: self.quant_pool.insufficient.load(Ordering::Relaxed),
        }
    }

    /// Items the shards cover (always `model().num_items()`; the live
    /// subsystem's consistency checks assert the two never diverge
    /// across an epoch swap).
    pub fn catalog_len(&self) -> usize {
        self.shards.iter().map(|s| s.quant.rows()).sum()
    }

    /// Number of catalog scan shards this engine partitions the item
    /// matrix into (1 = unsharded).
    pub fn scan_shards(&self) -> usize {
        self.shards.len()
    }

    /// The `(start, end)` item-id range of every shard, in order. The
    /// ranges tile `0..catalog_len()` exactly once — asserted by the
    /// live subsystem's swap-consistency checks.
    pub fn shard_ranges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.shards
            .iter()
            .map(|s| (s.first, s.first + s.quant.rows()))
    }

    /// `(chunks, bytes)` of the derived f32 tables that are *not*
    /// shared by pointer with `prev`'s: the scorer's two
    /// effective-factor tables ([`Scorer::copied_since`]), the only f32
    /// tables the engine holds. For a successor built by
    /// [`grown_from`](Self::grown_from) this is what the publish copied
    /// or appended — at most one chunk per touched table.
    pub fn copied_since<N>(&self, prev: &RecommendEngine<N>) -> [(u64, u64); 2]
    where
        N: std::ops::Deref<Target = TfModel>,
    {
        self.scorer.copied_since(&prev.scorer)
    }

    /// `(shared, copied)` int8 shadow-matrix chunks relative to
    /// `prev`, summed over shards: how many `Arc`-shared quantized
    /// chunks survived [`grown_from`](Self::grown_from) by pointer vs
    /// were re-quantized. The O(change) publish law for the quantized
    /// scan state — mirrors [`taxrec_factors::CowMatrix`] accounting.
    pub fn quant_chunk_sharing_with<N>(&self, prev: &RecommendEngine<N>) -> (u64, u64)
    where
        N: std::ops::Deref<Target = TfModel>,
    {
        self.shards
            .iter()
            .zip(&prev.shards)
            .fold((0, 0), |(s, c), (a, b)| {
                let (ds, dc) = a.quant.shared_chunks_with(&b.quant);
                (s + ds, c + dc)
            })
    }

    /// The int8 shadow of shard `si`'s item rows (tests and
    /// consistency checks; the serving path reads it internally).
    ///
    /// # Panics
    /// If `si >= scan_shards()`.
    pub fn quant_shard(&self, si: usize) -> &taxrec_factors::QuantMatrix {
        &self.shards[si].quant
    }

    /// The effective factor row both scans read for `item`: the
    /// scorer's own row ([`Scorer::item_factor`]), not a copy.
    ///
    /// # Panics
    /// If `item` is outside the catalog.
    pub fn dense_item_factor(&self, item: ItemId) -> &[f32] {
        self.scorer.item_factor(item)
    }

    /// Serve one request. Equivalent to a 1-element
    /// [`recommend_batch`](Self::recommend_batch).
    pub fn recommend(&self, req: &RecommendRequest<'_>) -> Vec<(ItemId, f32)> {
        self.recommend_with(req, &self.backend)
    }

    /// [`recommend`](Self::recommend) through an explicit backend,
    /// overriding the engine default for this request only.
    pub fn recommend_with(
        &self,
        req: &RecommendRequest<'_>,
        backend: &Backend,
    ) -> Vec<(ItemId, f32)> {
        let mut scratch = Scratch::new(self.model().k());
        let mut out = Vec::new();
        self.serve_into(req, backend, &mut scratch, &mut out);
        out
    }

    /// Serve a batch, parallelised over up to `threads` workers.
    ///
    /// Results come back in request order; each entry holds up to
    /// `req.k` `(item, score)` pairs, best first, with `req.exclude`
    /// filtered out. Identical to calling
    /// [`recommend`](Self::recommend) per request, only faster.
    pub fn recommend_batch(
        &self,
        requests: &[RecommendRequest<'_>],
        threads: usize,
    ) -> Vec<Vec<(ItemId, f32)>>
    where
        M: Sync,
    {
        self.recommend_batch_with(requests, threads, &self.backend)
    }

    /// [`recommend_batch`](Self::recommend_batch) through an explicit
    /// backend, overriding the engine default for this batch only.
    ///
    /// `threads` is an upper bound: the batch is cut into no more spans
    /// than its estimated rows pay a spawned worker for (about 4 000
    /// rows each, the walk-served reads of some 20 users), and a batch
    /// that pays for one runs inline on the calling thread.
    pub fn recommend_batch_with(
        &self,
        requests: &[RecommendRequest<'_>],
        threads: usize,
        backend: &Backend,
    ) -> Vec<Vec<(ItemId, f32)>>
    where
        M: Sync,
    {
        let spans = self.plan(requests, threads, backend);
        self.serve_spans(requests, &spans, backend)
    }

    /// The contiguous spans [`recommend_batch_with`](Self::recommend_batch_with)
    /// serves, balanced by [`cost`](Self::cost).
    fn plan(
        &self,
        requests: &[RecommendRequest<'_>],
        threads: usize,
        backend: &Backend,
    ) -> Vec<Shard> {
        let costs: Vec<u64> = requests.iter().map(|r| self.cost(r, backend)).collect();
        let workers = batch::workers(costs.iter().sum(), threads, requests.len());
        batch::plan(&costs, workers)
    }

    /// Serve `requests` cut into `spans` (contiguous, in order, covering
    /// every request): one span on the calling thread, more on one
    /// scoped worker each. Results come back in request order.
    fn serve_spans(
        &self,
        requests: &[RecommendRequest<'_>],
        spans: &[Shard],
        backend: &Backend,
    ) -> Vec<Vec<(ItemId, f32)>>
    where
        M: Sync,
    {
        let mut results: Vec<Vec<(ItemId, f32)>> = Vec::with_capacity(requests.len());
        results.resize_with(requests.len(), Vec::new);

        if spans.len() <= 1 {
            let mut scratch = Scratch::new(self.model().k());
            for (req, out) in requests.iter().zip(results.iter_mut()) {
                self.serve_into(req, backend, &mut scratch, out);
            }
            return results;
        }

        // One worker per span; each gets a disjoint slice of the result
        // vector matching its request span.
        std::thread::scope(|scope| {
            let mut rest: &mut [Vec<(ItemId, f32)>] = &mut results;
            let mut consumed = 0usize;
            for &Shard { start, end } in spans {
                let (mine, tail) = rest.split_at_mut(end - consumed);
                rest = tail;
                consumed = end;
                let span = &requests[start..end];
                scope.spawn(move || {
                    let mut scratch = Scratch::new(self.model().k());
                    for (req, out) in span.iter().zip(mine.iter_mut()) {
                        self.serve_into(req, backend, &mut scratch, out);
                    }
                });
            }
        });
        results
    }

    /// Estimated rows one request scores: the planner's unit.
    fn cost(&self, req: &RecommendRequest<'_>, backend: &Backend) -> u64 {
        let items = self.model().num_items();
        let rows = match backend {
            Backend::Exhaustive => items,
            // The walk, and the beam whose bottom level the walk's
            // bounds cut, score about a hundred category and item rows
            // plus a few per requested item, whatever the catalog size.
            Backend::Walk | Backend::Cascaded(_) => 128 + 2 * req.k.min(items),
            // The quantized first pass reads 4× less per row.
            Backend::Quantized(_) => (items / 4).max(1),
        };
        // Query building touches the conditioning history once per item
        // in the last B baskets.
        let markov: usize = req.history.iter().rev().take(8).map(|b| b.len()).sum();
        (rows + 4 * markov) as u64
    }

    /// [`recommend_with`](Self::recommend_with) recording one span per
    /// pipeline stage into `trace`: `query`, then one `scan[i]` per
    /// catalog shard and `merge` (exhaustive and quantized backends),
    /// `walk` (walk backend) or `cascade_rescore` (cascaded backend).
    /// Identical results to the untraced path.
    pub fn recommend_traced(
        &self,
        req: &RecommendRequest<'_>,
        backend: &Backend,
        trace: &mut TraceBuilder,
    ) -> Vec<(ItemId, f32)> {
        let mut scratch = Scratch::new(self.model().k());
        let mut out = Vec::new();
        self.serve_traced_into(req, backend, &mut scratch, &mut out, Some(trace));
        out
    }

    fn serve_into(
        &self,
        req: &RecommendRequest<'_>,
        backend: &Backend,
        scratch: &mut Scratch,
        out: &mut Vec<(ItemId, f32)>,
    ) {
        self.serve_traced_into(req, backend, scratch, out, None);
    }

    fn serve_traced_into(
        &self,
        req: &RecommendRequest<'_>,
        backend: &Backend,
        scratch: &mut Scratch,
        out: &mut Vec<(ItemId, f32)>,
        mut trace: Option<&mut TraceBuilder>,
    ) {
        debug_assert!(
            req.exclude.windows(2).all(|w| w[0] <= w[1]),
            "exclude list must be sorted"
        );
        let t_query = trace.as_ref().map(|t| t.clock());
        self.scorer
            .query_into(req.user, req.history, &mut scratch.query);
        if let (Some(t), Some(start)) = (trace.as_mut(), t_query) {
            t.close("query", start);
        }
        match backend {
            Backend::Exhaustive => self.exhaustive_into(req, scratch, out, trace),
            Backend::Walk => self.walk_into(req, scratch, out, trace),
            Backend::Quantized(cfg) => self.quantized_into(req, cfg, scratch, out, trace),
            Backend::Cascaded(cfg) => {
                let t_cascade = trace.as_ref().map(|t| t.clock());
                let (scored_nodes, kept_leaves) = scratch.beam.top_items_into(
                    &self.scorer,
                    self.kernel,
                    Some(&self.walk),
                    &scratch.query,
                    cfg,
                    req.k,
                    req.exclude,
                    out,
                );
                if let Some(sm) = self.scan_metrics.as_ref() {
                    sm.record_cascade(scored_nodes as u64, kept_leaves as u64);
                }
                if let (Some(t), Some(start)) = (trace.as_mut(), t_cascade) {
                    t.close("cascade_rescore", start);
                }
            }
        }
    }

    /// Blocked top-K scan of one shard: per block of [`SCORE_BLOCK`]
    /// item ids (counted from the shard's first id), one kernel dot per
    /// row read from the scorer's effective-factor table, then a
    /// thresholded sweep into the (reset) reusable heap. Identical
    /// kernel to the unsharded scan — only the item-id range differs.
    /// Returns `(rows scanned, blocks scored)` for the per-shard scan
    /// counters.
    fn scan_shard(
        &self,
        shard: &CatalogShard,
        query: &[f32],
        exclude: &[ItemId],
        k: usize,
        topk: &mut TopK,
        block: &mut [f32],
    ) -> (u64, u64) {
        topk.reset(k);
        let nodes = &self.model().taxonomy().item_nodes()[shard.items()];
        for (bi, block_nodes) in nodes.chunks(SCORE_BLOCK).enumerate() {
            let first = shard.first + bi * SCORE_BLOCK;
            let scores = &mut block[..block_nodes.len()];
            for (s, &node) in scores.iter_mut().zip(block_nodes) {
                let row = self.scorer.node_factor(NodeId(node));
                *s = self.kernel.dot(query, row);
            }
            let threshold = topk.threshold();
            for (off, &s) in scores.iter().enumerate() {
                // Fast reject: full heaps only admit strictly better
                // scores, and the threshold only rises within a block.
                if s <= threshold && topk.len() >= k {
                    continue;
                }
                let item = ItemId((first + off) as u32);
                if exclude.binary_search(&item).is_ok() {
                    continue;
                }
                topk.offer(item, s);
            }
        }
        (nodes.len() as u64, nodes.len().div_ceil(SCORE_BLOCK) as u64)
    }

    /// Quantized branch-and-bound scan of one shard.
    ///
    /// Per chunk: exact int8 block dots ([`F32Kernel::dot_i8_block`]),
    /// the vectorized affine combine ([`QuantQuery::approx_block`]), then
    /// a pruned exact pass — a row is rescored with the exact f32 dot
    /// of the scorer's row only when its approximate score plus the
    /// rigorous error bound ([`QuantQuery::error_bound`]) still reaches
    /// the evolving k-th exact score. Every row whose true score could
    /// belong to (or tie into) the top-K is therefore rescored —
    /// skipping on a tie would lose the id tie-break — so the result is
    /// exactly the exhaustive ranking under every kernel dispatch: the
    /// integer dots and the pure-f32 combine are dispatch-invariant, and
    /// the exact rescore is the exhaustive scan's own dot of the same
    /// row.
    ///
    /// Returns `(rows scanned, rows rescored in f32)`; the caller holds
    /// the rescore count against [`rescore_budget`].
    #[allow(clippy::too_many_arguments)]
    fn scan_shard_quantized(
        &self,
        shard: &CatalogShard,
        qq: &QuantQuery,
        query: &[f32],
        exclude: &[ItemId],
        k: usize,
        dots: &mut Vec<i32>,
        approx: &mut Vec<f32>,
        topk: &mut TopK,
    ) -> (u64, u64) {
        // Rigorous slack for this (query, table) pair: every row's exact
        // f32 score is within `eps` of its approximate score.
        let eps = qq.error_bound(shard.quant.max_scale(), shard.quant.max_abs_sum());
        topk.reset(k);
        // Rows with approximation strictly below `threshold − eps` cannot
        // reach the k-th exact score and are skipped without touching the
        // f32 table. −∞ until the heap fills (every row competes); +∞ for
        // k = 0 (nothing does).
        let mut cutoff = if k == 0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
        let mut rescored = 0u64;
        dots.clear();
        dots.resize(COW_CHUNK_ROWS, 0);
        approx.clear();
        approx.resize(COW_CHUNK_ROWS, 0.0);
        let nodes = &self.model().taxonomy().item_nodes()[shard.items()];
        let mut base = 0usize;
        for chunk in shard.quant.chunks() {
            let n = chunk.rows();
            let dots = &mut dots[..n];
            let approx = &mut approx[..n];
            self.kernel
                .dot_i8_block(qq.codes(), chunk.flat_codes(), dots);
            qq.approx_block(dots, chunk.mins(), chunk.scales(), approx);
            for (r, &s) in approx.iter().enumerate() {
                if (s as f64) < cutoff {
                    continue;
                }
                let item = ItemId((shard.first + base + r) as u32);
                if exclude.binary_search(&item).is_ok() {
                    continue;
                }
                let row = self.scorer.node_factor(NodeId(nodes[base + r]));
                topk.offer(item, self.kernel.dot(query, row));
                rescored += 1;
                if topk.len() == k {
                    cutoff = topk.threshold() as f64 - eps;
                }
            }
            base += n;
        }
        (shard.quant.rows() as u64, rescored)
    }

    /// Sequential exhaustive serving: one blocked top-K scan per shard,
    /// then the deterministic shard merge. With one shard this
    /// is exactly the classic single-heap scan.
    fn exhaustive_into(
        &self,
        req: &RecommendRequest<'_>,
        scratch: &mut Scratch,
        out: &mut Vec<(ItemId, f32)>,
        mut trace: Option<&mut TraceBuilder>,
    ) {
        // Clamp to the catalog: more than n items can never be returned,
        // and an attacker-supplied huge `k` must not drive the heap
        // reservation (the HTTP layer passes `top=` through unchecked).
        let k = req.k.min(self.catalog_len());
        scratch.partials.resize_with(self.shards.len(), Vec::new);
        for (si, shard) in self.shards.iter().enumerate() {
            let t_metric = self.scan_metrics.as_ref().map(|_| Instant::now());
            let t_span = trace.as_ref().map(|t| t.clock());
            let (rows, blocks) = self.scan_shard(
                shard,
                &scratch.query,
                req.exclude,
                k,
                &mut scratch.topk,
                &mut scratch.block,
            );
            if let (Some(sm), Some(t0)) = (self.scan_metrics.as_ref(), t_metric) {
                sm.record(si, rows, blocks, t0.elapsed());
            }
            if let (Some(t), Some(start)) = (trace.as_mut(), t_span) {
                t.close(&format!("scan[{si}]"), start);
            }
            scratch.topk.drain_sorted_into(&mut scratch.partials[si]);
        }
        let t_merge = trace.as_ref().map(|t| t.clock());
        shards::merge_topk(&mut scratch.partials, k, out);
        if let (Some(t), Some(start)) = (trace.as_mut(), t_merge) {
            t.close("merge", start);
        }
    }

    /// Walk serving: one best-first walk over the radius index across
    /// the whole catalog (catalog shards play no part), then the heap
    /// drained best first. Served bits are the exhaustive scan's.
    fn walk_into(
        &self,
        req: &RecommendRequest<'_>,
        scratch: &mut Scratch,
        out: &mut Vec<(ItemId, f32)>,
        mut trace: Option<&mut TraceBuilder>,
    ) {
        let k = req.k.min(self.catalog_len());
        let t_span = trace.as_ref().map(|t| t.clock());
        let (rows, categories) = self.walk.top_k_into(
            &self.scorer,
            self.kernel,
            &scratch.query,
            req.exclude,
            k,
            &mut scratch.frontier,
            &mut scratch.topk,
        );
        scratch.topk.drain_sorted_into(out);
        if let Some(sm) = self.scan_metrics.as_ref() {
            sm.record_walk(rows, categories);
        }
        if let (Some(t), Some(start)) = (trace.as_mut(), t_span) {
            t.close("walk", start);
        }
    }

    /// Quantized serving: per-shard int8 branch-and-bound scan with
    /// exact f32 rescoring of every row still competing within the
    /// rigorous error bound — so the served ranking is **always**
    /// exactly the exhaustive one, and the shard merge and
    /// sharded ≡ unsharded law apply unchanged.
    fn quantized_into(
        &self,
        req: &RecommendRequest<'_>,
        cfg: &QuantizedConfig,
        scratch: &mut Scratch,
        out: &mut Vec<(ItemId, f32)>,
        mut trace: Option<&mut TraceBuilder>,
    ) {
        let k = req.k.min(self.catalog_len());
        let qq = QuantQuery::from_query(&scratch.query);
        scratch.partials.resize_with(self.shards.len(), Vec::new);
        for (si, shard) in self.shards.iter().enumerate() {
            let t_metric = self.scan_metrics.as_ref().map(|_| Instant::now());
            let t_span = trace.as_ref().map(|t| t.clock());
            let (rows, rescored) = self.scan_shard_quantized(
                shard,
                &qq,
                &scratch.query,
                req.exclude,
                k,
                &mut scratch.qdots,
                &mut scratch.qapprox,
                &mut scratch.topk,
            );
            let sufficient = rescored <= rescore_budget(cfg, k, rows);
            self.quant_pool.scans.fetch_add(1, Ordering::Relaxed);
            if sufficient {
                self.quant_pool.sufficient.fetch_add(1, Ordering::Relaxed);
            } else {
                self.quant_pool.insufficient.fetch_add(1, Ordering::Relaxed);
            }
            if let (Some(sm), Some(t0)) = (self.scan_metrics.as_ref(), t_metric) {
                sm.record(si, rows, shard.quant.num_chunks() as u64, t0.elapsed());
                sm.record_quant(sufficient, rescored);
            }
            if let (Some(t), Some(start)) = (trace.as_mut(), t_span) {
                t.close(&format!("scan[{si}]"), start);
            }
            scratch.topk.drain_sorted_into(&mut scratch.partials[si]);
        }
        let t_merge = trace.as_ref().map(|t| t.clock());
        shards::merge_topk(&mut scratch.partials, k, out);
        if let (Some(t), Some(start)) = (trace.as_mut(), t_merge) {
            t.close("merge", start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use taxrec_taxonomy::{Taxonomy, TaxonomyGenerator, TaxonomyShape};

    fn tax() -> Arc<Taxonomy> {
        Arc::new(
            TaxonomyGenerator::new(TaxonomyShape {
                level_sizes: vec![4, 8, 20],
                num_items: 300,
                item_skew: 0.5,
            })
            .generate(&mut StdRng::seed_from_u64(11))
            .taxonomy,
        )
    }

    fn model(b: usize) -> TfModel {
        // Gaussian node init: untrained factors must still give
        // non-degenerate, distinct scores.
        let cfg = ModelConfig::tf(4, b)
            .with_factors(8)
            .with_node_init_sigma(0.1);
        TfModel::init(cfg, tax(), 64, 17)
    }

    #[test]
    fn single_request_matches_scorer_top_k() {
        let m = model(0);
        let engine = RecommendEngine::new(&m);
        for user in [0usize, 7, 63] {
            let got = engine.recommend(&RecommendRequest::simple(user, 10));
            let q = engine.scorer().query(user, &[]);
            let expect = engine.scorer().top_k_items(&q, 10, &[]);
            assert_eq!(got, expect, "user {user}");
        }
    }

    #[test]
    fn batch_matches_per_user_calls_exhaustive() {
        let m = model(1);
        let engine = RecommendEngine::new(&m);
        let histories: Vec<Vec<Transaction>> = (0..64)
            .map(|u| {
                vec![
                    vec![ItemId((u % 300) as u32)],
                    vec![ItemId(((u * 7) % 300) as u32)],
                ]
            })
            .collect();
        let requests: Vec<RecommendRequest> = (0..64)
            .map(|u| RecommendRequest {
                user: u,
                history: &histories[u],
                k: 10,
                exclude: &[],
            })
            .collect();
        let batched = engine.recommend_batch(&requests, 8);
        assert_eq!(batched.len(), 64);
        for (req, got) in requests.iter().zip(&batched) {
            assert_eq!(got, &engine.recommend(req), "user {}", req.user);
            assert_eq!(got.len(), 10);
        }
    }

    #[test]
    fn batch_matches_per_user_calls_cascaded() {
        let m = model(0);
        let depth = m.taxonomy().depth();
        let engine = RecommendEngine::with_backend(
            &m,
            Backend::Cascaded(CascadeConfig::uniform(depth, 0.4)),
        );
        let requests: Vec<RecommendRequest> =
            (0..64).map(|u| RecommendRequest::simple(u, 10)).collect();
        let batched = engine.recommend_batch(&requests, 5);
        for (req, got) in requests.iter().zip(&batched) {
            assert_eq!(got, &engine.recommend(req), "user {}", req.user);
        }
    }

    #[test]
    fn cascaded_full_beam_matches_exhaustive() {
        let m = model(0);
        let depth = m.taxonomy().depth();
        let exact = RecommendEngine::new(&m);
        let full = RecommendEngine::with_backend(
            &m,
            Backend::Cascaded(CascadeConfig::uniform(depth, 1.0)),
        );
        for user in 0..16 {
            let req = RecommendRequest::simple(user, 8);
            assert_eq!(exact.recommend(&req), full.recommend(&req), "user {user}");
        }
    }

    #[test]
    fn exclusions_are_respected_in_both_backends() {
        let m = model(0);
        let depth = m.taxonomy().depth();
        for backend in [
            Backend::Exhaustive,
            Backend::Walk,
            Backend::Cascaded(CascadeConfig::uniform(depth, 1.0)),
        ] {
            let engine = RecommendEngine::with_backend(&m, backend.clone());
            let top = engine.recommend(&RecommendRequest::simple(3, 5));
            let mut exclude: Vec<ItemId> = top.iter().take(2).map(|r| r.0).collect();
            exclude.sort_unstable();
            let req = RecommendRequest {
                user: 3,
                history: &[],
                k: 5,
                exclude: &exclude,
            };
            let filtered = engine.recommend(&req);
            assert!(
                filtered.iter().all(|(i, _)| !exclude.contains(i)),
                "{backend:?} leaked an excluded item"
            );
            assert_eq!(filtered[0].0, top[2].0, "{backend:?} order changed");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let m = model(1);
        let engine = RecommendEngine::new(&m);
        let requests: Vec<RecommendRequest> =
            (0..31).map(|u| RecommendRequest::simple(u, 7)).collect();
        let base = engine.recommend_batch(&requests, 1);
        for threads in [2usize, 3, 8, 64] {
            assert_eq!(
                engine.recommend_batch(&requests, threads),
                base,
                "{threads} threads"
            );
        }
    }

    fn bits(results: &[Vec<(ItemId, f32)>]) -> Vec<Vec<(u32, u32)>> {
        results
            .iter()
            .map(|r| r.iter().map(|&(i, s)| (i.0, s.to_bits())).collect())
            .collect()
    }

    /// Forced 2-, 3- and 8-span plans serve what one inline span serves,
    /// id for id and bit for bit, over the walk, the beam and the
    /// exhaustive scan. Test-sized batches run inline under the
    /// planner's own rule, so this keeps the spawned path covered.
    #[test]
    fn forced_spans_match_the_inline_batch() {
        let mut m = model(1);
        // User 5 has a zero factor and no history: every item scores
        // exactly 0, so the whole ranking is tie-break.
        m.user_factors.row_mut(5).fill(0.0);
        let depth = m.taxonomy().depth();
        let histories: Vec<Vec<Transaction>> = (0..24)
            .map(|u| match u {
                5 => Vec::new(),
                _ => vec![vec![ItemId((u * 11 % 300) as u32)], vec![ItemId(u as u32)]],
            })
            .collect();
        let exclude = [ItemId(3), ItemId(40), ItemId(41), ItemId(299)];
        let requests: Vec<RecommendRequest> = (0..24)
            .map(|u| RecommendRequest {
                user: u,
                history: &histories[u],
                k: [12, 1, 40][u % 3],
                exclude: if u % 2 == 0 { &exclude } else { &[] },
            })
            .collect();
        for backend in [
            Backend::Walk,
            Backend::Cascaded(CascadeConfig::uniform(depth, 0.3)),
            Backend::Exhaustive,
        ] {
            let engine = RecommendEngine::with_backend(&m, backend.clone());
            let whole = [Shard {
                start: 0,
                end: requests.len(),
            }];
            let inline = engine.serve_spans(&requests, &whole, &backend);
            assert!(inline[5].iter().all(|&(_, s)| s == 0.0), "{backend:?}");
            let costs: Vec<u64> = requests.iter().map(|r| engine.cost(r, &backend)).collect();
            for n in [2usize, 3, 8] {
                let spans = batch::plan(&costs, n);
                assert_eq!(spans.len(), n, "{backend:?}");
                let got = engine.serve_spans(&requests, &spans, &backend);
                assert_eq!(bits(&got), bits(&inline), "{backend:?} {n} spans");
            }
        }
    }

    /// The planner spawns only workers that pay: an 8-user walk or beam
    /// batch runs inline at any `threads`; a batch estimated at over
    /// two spawns' worth of rows gets two; the count never exceeds
    /// `threads` or the requests.
    #[test]
    fn planner_spawns_only_the_workers_that_pay() {
        let m = model(1);
        let depth = m.taxonomy().depth();
        let beam = Backend::Cascaded(CascadeConfig::uniform(depth, 0.3));
        let engine = RecommendEngine::with_backend(&m, Backend::Walk);
        let simple = |n: usize| -> Vec<RecommendRequest> {
            (0..n).map(|u| RecommendRequest::simple(u, 20)).collect()
        };
        let rows = |reqs: &[RecommendRequest], backend: &Backend| -> u64 {
            reqs.iter().map(|r| engine.cost(r, backend)).sum()
        };
        for backend in [&Backend::Walk, &beam] {
            let eight = simple(8);
            for threads in [1usize, 2, 8, 64] {
                assert_eq!(
                    engine.plan(&eight, threads, backend).len(),
                    1,
                    "{backend:?}"
                );
            }
            // The smallest batch over twice the threshold.
            let n = (1..=64)
                .find(|&n| rows(&simple(n), backend) > 2 * batch::SPAWN_ROWS)
                .expect("64 users cover two spawns");
            assert_eq!(engine.plan(&simple(n), 8, backend).len(), 2, "{backend:?}");
            assert_eq!(engine.plan(&simple(n), 1, backend).len(), 1, "{backend:?}");
        }
        // Long histories price three requests far over the threshold:
        // the requests, then `threads`, cap the workers.
        let long: Vec<Transaction> = vec![(0..300).map(ItemId).collect(); 8];
        let heavy: Vec<RecommendRequest> = (0..3)
            .map(|u| RecommendRequest {
                user: u,
                history: &long,
                k: 20,
                exclude: &[],
            })
            .collect();
        assert!(rows(&heavy, &Backend::Walk) > 4 * batch::SPAWN_ROWS);
        assert_eq!(engine.plan(&heavy, 64, &Backend::Walk).len(), 3);
        assert_eq!(engine.plan(&heavy, 2, &Backend::Walk).len(), 2);
        assert_eq!(engine.plan(&heavy, 0, &Backend::Walk).len(), 1);
        assert!(engine.plan(&[], 8, &Backend::Walk).is_empty());
    }

    #[test]
    fn rescore_budget_scales_with_the_shard() {
        let cfg = QuantizedConfig::default();
        assert_eq!(cfg.pool_size(10), 42);
        // Small shards keep the configured floor; from ~700 rows up —
        // where k·ln(rows/k) outgrows any constant — it is rows / 16.
        assert_eq!(rescore_budget(&cfg, 10, 100), 42);
        assert_eq!(rescore_budget(&cfg, 10, 700), 43);
        assert_eq!(rescore_budget(&cfg, 10, 16_000), 1_000);
        // A pool that already covers the shard is never shrunk.
        assert_eq!(rescore_budget(&cfg, 16_000, 16_000), 64_000);
    }

    #[test]
    fn cascade_below_one_is_the_only_way_off_the_exact_path() {
        let exact = Backend::default();
        assert_eq!(exact, Backend::Walk);
        for cascade in [None, Some(1.0), Some(2.0), Some(f64::NAN)] {
            assert_eq!(
                Backend::for_cascade(cascade, 3, &exact),
                exact,
                "{cascade:?}"
            );
        }
        for (cascade, kept) in [(0.3, 0.3), (0.0, 0.01), (-1.0, 0.01)] {
            assert_eq!(
                Backend::for_cascade(Some(cascade), 3, &exact),
                Backend::Cascaded(CascadeConfig::uniform(3, kept))
            );
        }
    }

    #[test]
    fn default_serving_backend_batches_match_per_request_calls() {
        let m = model(1);
        let default = crate::live::LiveConfig::default().backend;
        assert_eq!(default, Backend::Walk);
        let oracle = RecommendEngine::new(&m);
        let requests: Vec<RecommendRequest> =
            (0..33).map(|u| RecommendRequest::simple(u, 6)).collect();
        for backend in [default, Backend::Quantized(QuantizedConfig::default())] {
            let engine = RecommendEngine::with_backend_sharded(&m, backend.clone(), 2);
            let want: Vec<_> = requests.iter().map(|r| engine.recommend(r)).collect();
            for (req, got) in requests.iter().zip(&want) {
                assert_eq!(got, &oracle.recommend(req), "{backend:?} user {}", req.user);
            }
            for threads in [1usize, 2] {
                assert_eq!(
                    engine.recommend_batch(&requests, threads),
                    want,
                    "{backend:?} {threads} threads"
                );
            }
            // Every quantized worker bumps the same three atomics: none
            // may be lost. The walk bumps none of them.
            let stats = engine.quant_pool_stats();
            let scans = match backend {
                Backend::Quantized(_) => 3 * 2 * requests.len() as u64,
                _ => 0,
            };
            assert_eq!(stats.scans, scans, "{backend:?}");
            assert_eq!(stats.sufficient + stats.insufficient, stats.scans);
        }
    }

    #[test]
    fn k_larger_than_catalog_and_empty_batch() {
        let m = model(0);
        let engine = RecommendEngine::new(&m);
        // usize::MAX must not drive the heap reservation (attacker-
        // controlled `top=` reaches this path through the HTTP layer).
        let all = engine.recommend(&RecommendRequest::simple(0, usize::MAX));
        assert_eq!(all.len(), m.num_items());
        for w in all.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert!(engine.recommend_batch(&[], 4).is_empty());
    }

    #[test]
    fn sharded_engine_matches_unsharded_bit_for_bit() {
        let m = model(1);
        let hist = vec![vec![ItemId(4), ItemId(9)], vec![ItemId(2)]];
        let exclude = [ItemId(3), ItemId(17), ItemId(120)];
        let oracle = RecommendEngine::new(&m);
        for s in [2usize, 3, 5, 8] {
            let sharded = RecommendEngine::with_backend_sharded(&m, Backend::Exhaustive, s);
            assert_eq!(sharded.scan_shards(), s);
            assert_eq!(sharded.catalog_len(), m.num_items());
            for (user, k) in [(0usize, 1usize), (5, 10), (30, 400)] {
                let req = RecommendRequest {
                    user,
                    history: &hist,
                    k,
                    exclude: &exclude,
                };
                let want = oracle.recommend(&req);
                let got = sharded.recommend(&req);
                assert_eq!(got.len(), want.len(), "S={s} user={user} k={k}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.0, w.0, "S={s} user={user} k={k}: id order");
                    assert_eq!(
                        g.1.to_bits(),
                        w.1.to_bits(),
                        "S={s} user={user} k={k}: score bits"
                    );
                }
            }
        }
    }

    #[test]
    fn shard_ranges_tile_the_catalog() {
        let m = model(0);
        for s in [1usize, 2, 4, 7] {
            let engine = RecommendEngine::with_backend_sharded(&m, Backend::Exhaustive, s);
            let mut next = 0usize;
            for (start, end) in engine.shard_ranges() {
                assert_eq!(start, next, "S={s}: gap or overlap");
                assert!(end > start, "S={s}: empty shard");
                next = end;
            }
            assert_eq!(next, m.num_items(), "S={s}: items dropped");
        }
    }

    /// The scans read the scorer's effective-factor table itself: every
    /// item's scan row is the scorer's row by address, on a trained
    /// model and after live adds under a deepest category, a level-1
    /// category and the root, across a chunk boundary and at several
    /// shard counts.
    #[test]
    fn scan_rows_are_the_scorers_rows() {
        use taxrec_dataset::{DatasetConfig, SyntheticDataset};
        let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(40), 5);
        let trained = crate::train::TfTrainer::new(
            ModelConfig::tf(4, 1).with_factors(8).with_epochs(1),
            &d.taxonomy,
        )
        .fit(&d.train, 2);
        let same_rows = |engine: &RecommendEngine<Arc<TfModel>>, at: &str| {
            assert_eq!(engine.catalog_len(), engine.model().num_items(), "{at}");
            for i in 0..engine.model().num_items() {
                let item = ItemId(i as u32);
                assert_eq!(
                    engine.dense_item_factor(item).as_ptr(),
                    engine.scorer().item_factor(item).as_ptr(),
                    "{at}: item {i}"
                );
            }
        };
        for s in [1usize, 3] {
            let mut m = trained.clone();
            let mut engine =
                RecommendEngine::with_backend_sharded(Arc::new(m.clone()), Backend::Exhaustive, s);
            same_rows(&engine, &format!("S={s} trained"));
            let t = m.taxonomy();
            let parents = [
                t.parent(t.item_node(ItemId(0))).unwrap(),
                NodeId(t.nodes_at_level(1)[0]),
                NodeId::ROOT,
            ];
            for step in 0..COW_CHUNK_ROWS + 8 {
                m.add_item_mut(parents[step % parents.len()]).unwrap();
                engine =
                    RecommendEngine::grown_from(&engine, Arc::new(m.clone()), Backend::Exhaustive);
            }
            same_rows(&engine, &format!("S={s} grown"));
        }
    }

    #[test]
    fn history_changes_markov_results() {
        let m = model(2);
        let engine = RecommendEngine::new(&m);
        let no_hist = engine.recommend(&RecommendRequest::simple(5, 10));
        let hist = vec![vec![ItemId(1), ItemId(2)], vec![ItemId(3)]];
        let with_hist = engine.recommend(&RecommendRequest {
            user: 5,
            history: &hist,
            k: 10,
            exclude: &[],
        });
        assert_ne!(no_hist, with_hist, "history must shift the ranking");
    }
}
