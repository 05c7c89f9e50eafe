//! Two-tier hot/cold user-factor store with fold-in-on-demand.
//!
//! The paper's serving model assumes every user factor row is resident,
//! which caps deployments at RAM size. [`UserTier`] splits user state
//! into a **hot resident tier** (a fixed budget of rows in a CLOCK
//! arena) and a **cold tier** (positioned reads over an on-disk file in
//! the persist matrix layout). A read that misses the hot tier *faults*
//! the row in from one of two sources:
//!
//! * the **cold file**, for users whose factors were materialised when
//!   the tier was built (a `16 + row·K·4` positioned read, bit-identical
//!   bytes); or
//! * a **fold recipe** ([`FoldRecipe`]: history + steps + seed + the
//!   catalog size at fold time), re-running the deterministic BPR
//!   fold-in of [`crate::dynamic::fold_in_user`] for users folded in (or
//!   re-folded) after the tier was built.
//!
//! Both sources reproduce the row **bit-identically** to its
//! never-evicted self: the cold file stores the exact little-endian f32
//! bytes, and fold-in is a pure function of `(history, steps, seed,
//! n_items)` over item factors that later catalog growth never mutates
//! (`add_item` only appends zero rows). `differential_tiering.rs` proves
//! this by replaying identical streams at tier budgets {∞, half, tiny}.
//!
//! The tier is shared (behind `Arc`) across every published model epoch;
//! each [`crate::TfModel`] carries a frozen row count so `num_users()`
//! stays epoch-consistent while the underlying store grows. Writes go
//! through `set_row` and are idempotent (same id + same factor), which
//! keeps the live applier's validate-by-clone discipline safe.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use taxrec_dataset::Transaction;
use taxrec_factors::CowMatrix;

use crate::obs::{Counter, Gauge, HistogramHandle, MetricsRegistry};

/// Everything needed to deterministically recompute a folded-in user's
/// factor: the full replacement history plus the fold parameters,
/// including the catalog size at the time of the original fold (so
/// negative sampling replays the exact RNG path on a grown catalog).
#[derive(Debug, Clone)]
pub struct FoldRecipe {
    /// The user's complete transaction history at fold time.
    pub history: Arc<[Transaction]>,
    /// BPR fold-in steps.
    pub steps: usize,
    /// RNG seed for the fold.
    pub seed: u64,
    /// `num_items()` when the fold originally ran; negatives are sampled
    /// from `0..n_items` regardless of later catalog growth.
    pub n_items: usize,
}

impl FoldRecipe {
    fn same_as(&self, other: &FoldRecipe) -> bool {
        Arc::ptr_eq(&self.history, &other.history)
            && self.steps == other.steps
            && self.seed == other.seed
            && self.n_items == other.n_items
    }
}

/// A model's view of a shared [`UserTier`]: the tier itself plus the
/// number of user rows this model epoch covers. The tier keeps growing
/// as later epochs fold users in; `rows` freezes `num_users()` per epoch.
#[derive(Debug, Clone)]
pub(crate) struct TierHandle {
    pub(crate) tier: Arc<UserTier>,
    pub(crate) rows: usize,
}

/// One resident row in the CLOCK arena.
#[derive(Debug, Clone, Copy)]
struct Slot {
    user: usize,
    referenced: bool,
}

/// Fixed-budget resident arena with CLOCK (second-chance) eviction.
/// Storage grows lazily up to `budget` rows, then evicts.
#[derive(Debug)]
struct HotArena {
    k: usize,
    budget: usize,
    data: Vec<f32>,
    slots: Vec<Slot>,
    map: HashMap<usize, usize>,
    hand: usize,
}

impl HotArena {
    fn new(k: usize, budget: usize) -> HotArena {
        HotArena {
            k,
            budget: budget.max(1),
            data: Vec::new(),
            slots: Vec::new(),
            map: HashMap::new(),
            hand: 0,
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn row(&self, slot: usize) -> &[f32] {
        &self.data[slot * self.k..(slot + 1) * self.k]
    }

    /// Copy a resident row into `out` and mark it referenced.
    fn get(&mut self, user: usize, out: &mut [f32]) -> bool {
        let Some(&s) = self.map.get(&user) else {
            return false;
        };
        out.copy_from_slice(&self.data[s * self.k..(s + 1) * self.k]);
        self.slots[s].referenced = true;
        true
    }

    /// Copy a resident row into `out` **without** touching the CLOCK
    /// reference bit — snapshot materialisation must not perturb the
    /// eviction order.
    fn peek(&self, user: usize, out: &mut [f32]) -> bool {
        let Some(&s) = self.map.get(&user) else {
            return false;
        };
        out.copy_from_slice(self.row(s));
        true
    }

    /// Insert (or overwrite) a row, evicting via CLOCK when the arena is
    /// at budget. Returns the evicted user id, if any.
    fn admit(&mut self, user: usize, row: &[f32]) -> Option<usize> {
        if let Some(&s) = self.map.get(&user) {
            self.data[s * self.k..(s + 1) * self.k].copy_from_slice(row);
            self.slots[s].referenced = true;
            return None;
        }
        if self.slots.len() < self.budget {
            let s = self.slots.len();
            self.slots.push(Slot {
                user,
                referenced: true,
            });
            self.data.extend_from_slice(row);
            self.map.insert(user, s);
            return None;
        }
        loop {
            let s = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            if self.slots[s].referenced {
                self.slots[s].referenced = false;
                continue;
            }
            let evicted = self.slots[s].user;
            self.map.remove(&evicted);
            self.map.insert(user, s);
            self.slots[s] = Slot {
                user,
                referenced: true,
            };
            self.data[s * self.k..(s + 1) * self.k].copy_from_slice(row);
            return Some(evicted);
        }
    }
}

/// Positioned reads over the cold user-factor file: a 16-byte header
/// (`rows: u64 LE`, `k: u64 LE`) followed by row-major f32 LE — the
/// persist matrix layout, so the bytes round-trip bit-identically.
#[derive(Debug)]
struct ColdStore {
    file: File,
    rows: usize,
    k: usize,
    #[cfg(not(unix))]
    lock: Mutex<()>,
}

impl ColdStore {
    const HEADER: u64 = 16;

    fn read_row(&self, row: usize) -> io::Result<Vec<f32>> {
        assert!(row < self.rows, "cold row {row} out of {}", self.rows);
        let mut buf = vec![0u8; self.k * 4];
        let off = Self::HEADER + (row as u64) * (self.k as u64) * 4;
        self.read_exact_at(&mut buf, off)?;
        Ok(buf
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    #[cfg(unix)]
    fn read_exact_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, off)
    }

    #[cfg(not(unix))]
    fn read_exact_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let _guard = self.lock.lock().unwrap();
        let mut f = &self.file;
        f.seek(SeekFrom::Start(off))?;
        f.read_exact(buf)
    }
}

/// Which source a fault will reconstruct a row from. A recipe, when
/// present, **overrides** the cold file — a re-folded user's cold bytes
/// are stale by definition.
#[derive(Debug)]
enum Source {
    Recipe(FoldRecipe),
    File,
}

#[derive(Debug)]
struct TierInner {
    /// Global row count: max user id ever written, plus one.
    total_rows: usize,
    /// Recipes for users folded in (or re-folded) after the cold file
    /// was written. Keyed by user id; overrides the cold file.
    recipes: HashMap<usize, FoldRecipe>,
    hot: HotArena,
}

#[derive(Debug)]
struct TierStats {
    hits: Counter,
    cold_reads: Counter,
    refolds: Counter,
    evictions: Counter,
    budget_rows: Gauge,
    hot_rows: Gauge,
    total_rows: Gauge,
    cold_rows: Gauge,
    fault_cold: HistogramHandle,
    fault_refold: HistogramHandle,
}

impl TierStats {
    fn register(registry: &MetricsRegistry) -> TierStats {
        TierStats {
            hits: registry.counter(
                "taxrec_tier_hits_total",
                "User-factor reads served from the hot resident tier.",
                &[],
            ),
            cold_reads: registry.counter(
                "taxrec_tier_cold_reads_total",
                "Tier faults served by a positioned read of the cold file.",
                &[],
            ),
            refolds: registry.counter(
                "taxrec_tier_refolds_total",
                "Tier faults served by re-running the deterministic fold-in.",
                &[],
            ),
            evictions: registry.counter(
                "taxrec_tier_evictions_total",
                "Hot-tier rows evicted by the CLOCK policy.",
                &[],
            ),
            budget_rows: registry.gauge(
                "taxrec_tier_budget_rows",
                "Configured hot-tier budget in user rows.",
                &[],
            ),
            hot_rows: registry.gauge(
                "taxrec_tier_hot_rows",
                "User rows currently resident in the hot tier.",
                &[],
            ),
            total_rows: registry.gauge(
                "taxrec_tier_total_rows",
                "Total user rows the tier covers (cold + folded-in).",
                &[],
            ),
            cold_rows: registry.gauge(
                "taxrec_tier_cold_rows",
                "User rows materialised in the cold file.",
                &[],
            ),
            fault_cold: registry.histogram(
                "taxrec_tier_fault_seconds",
                "Latency of hot-tier faults by reconstruction source.",
                &[("source", "cold_read")],
            ),
            fault_refold: registry.histogram(
                "taxrec_tier_fault_seconds",
                "Latency of hot-tier faults by reconstruction source.",
                &[("source", "refold")],
            ),
        }
    }
}

/// The two-tier user-factor store. See the [module docs](self).
///
/// Shared behind `Arc` across model epochs; all methods take `&self`.
#[derive(Debug)]
pub struct UserTier {
    k: usize,
    /// Users `0..cold_rows` have a row in the cold file.
    cold_rows: usize,
    cold: ColdStore,
    inner: Mutex<TierInner>,
    stats: TierStats,
}

impl UserTier {
    /// Build a tier from a fully resident user matrix: write every row
    /// to the cold file at `path`, then start with an **empty** hot
    /// arena of `budget_rows` (cold-start; the workload's skew fills it).
    ///
    /// Metric families (`taxrec_tier_*`) are registered on `registry`.
    pub fn build(
        path: &Path,
        users: &CowMatrix,
        budget_rows: usize,
        registry: &MetricsRegistry,
    ) -> io::Result<Arc<UserTier>> {
        let (rows, k) = (users.rows(), users.k());
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(&(rows as u64).to_le_bytes())?;
        w.write_all(&(k as u64).to_le_bytes())?;
        let mut buf = Vec::with_capacity(k * 4);
        for r in 0..rows {
            buf.clear();
            for &v in users.row(r) {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            w.write_all(&buf)?;
        }
        w.flush()?;
        let file = File::open(path)?;
        let stats = TierStats::register(registry);
        let budget = budget_rows.max(1);
        stats.budget_rows.set(budget as u64);
        stats.cold_rows.set(rows as u64);
        stats.total_rows.set(rows as u64);
        stats.hot_rows.set(0);
        Ok(Arc::new(UserTier {
            k,
            cold_rows: rows,
            cold: ColdStore {
                file,
                rows,
                k,
                #[cfg(not(unix))]
                lock: Mutex::new(()),
            },
            inner: Mutex::new(TierInner {
                total_rows: rows,
                recipes: HashMap::new(),
                hot: HotArena::new(k, budget),
            }),
            stats,
        }))
    }

    fn lock(&self) -> MutexGuard<'_, TierInner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Factor dimensionality `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Configured hot budget in rows.
    pub fn budget_rows(&self) -> usize {
        self.lock().hot.budget
    }

    /// Total rows the tier covers (cold file + users folded in since).
    pub fn total_rows(&self) -> usize {
        self.lock().total_rows
    }

    /// Rows materialised in the cold file at build time.
    pub fn cold_rows(&self) -> usize {
        self.cold_rows
    }

    /// Copy `user`'s factor into `out`, faulting it into the hot tier on
    /// a miss. `refold` reconstructs a recipe-backed row (the caller
    /// supplies it so the serving path can read its materialised
    /// [`crate::Scorer`]'s tables; other callers sum the rows the fold
    /// reads from the model's offsets).
    ///
    /// Faults are computed outside the tier lock; a source that changed
    /// concurrently (a refold racing a fault) is detected and recomputed,
    /// so a stale row is never admitted over a fresher one.
    ///
    /// # Panics
    /// If `user` has no source (never written) or `out.len() != K`.
    pub(crate) fn copy_row<F>(&self, user: usize, out: &mut [f32], mut refold: F)
    where
        F: FnMut(&FoldRecipe) -> Vec<f32>,
    {
        assert_eq!(out.len(), self.k, "out width {} != K {}", out.len(), self.k);
        let mut first = true;
        loop {
            let source = {
                let mut inner = self.lock();
                assert!(
                    user < inner.total_rows,
                    "user {user} out of {} tiered rows",
                    inner.total_rows
                );
                if inner.hot.get(user, out) {
                    if first {
                        self.stats.hits.inc();
                    }
                    return;
                }
                match inner.recipes.get(&user) {
                    Some(r) => Source::Recipe(r.clone()),
                    None => {
                        assert!(user < self.cold_rows, "user {user} has no fault source");
                        Source::File
                    }
                }
            };
            first = false;
            let row = match &source {
                Source::Recipe(r) => {
                    let t = Instant::now();
                    let row = refold(r);
                    self.stats.fault_refold.record(t.elapsed());
                    self.stats.refolds.inc();
                    row
                }
                Source::File => {
                    let t = Instant::now();
                    let row = self
                        .cold
                        .read_row(user)
                        .unwrap_or_else(|e| panic!("cold tier read failed for user {user}: {e}"));
                    self.stats.fault_cold.record(t.elapsed());
                    self.stats.cold_reads.inc();
                    row
                }
            };
            assert_eq!(row.len(), self.k, "faulted row width {} != K", row.len());
            let mut inner = self.lock();
            if inner.hot.get(user, out) {
                // A concurrent fault (or a refold write) admitted the row
                // while we computed; the resident value is at least as
                // fresh as ours — use it.
                return;
            }
            let unchanged = match (&source, inner.recipes.get(&user)) {
                (Source::Recipe(a), Some(b)) => a.same_as(b),
                (Source::File, None) => true,
                _ => false,
            };
            if !unchanged {
                continue;
            }
            if inner.hot.admit(user, &row).is_some() {
                self.stats.evictions.inc();
            }
            self.stats.hot_rows.set(inner.hot.len() as u64);
            out.copy_from_slice(&row);
            return;
        }
    }

    /// Copy `user`'s factor into `out` **without** admitting it or
    /// touching CLOCK reference bits or fault counters — snapshot
    /// materialisation must be invisible to the eviction policy.
    pub(crate) fn peek_row<F>(&self, user: usize, out: &mut [f32], refold: F)
    where
        F: FnOnce(&FoldRecipe) -> Vec<f32>,
    {
        let source = {
            let inner = self.lock();
            assert!(
                user < inner.total_rows,
                "user {user} out of {} tiered rows",
                inner.total_rows
            );
            if inner.hot.peek(user, out) {
                return;
            }
            match inner.recipes.get(&user) {
                Some(r) => Source::Recipe(r.clone()),
                None => {
                    assert!(user < self.cold_rows, "user {user} has no fault source");
                    Source::File
                }
            }
        };
        match source {
            Source::Recipe(r) => out.copy_from_slice(&refold(&r)),
            Source::File => out.copy_from_slice(
                &self
                    .cold
                    .read_row(user)
                    .unwrap_or_else(|e| panic!("cold tier read failed for user {user}: {e}")),
            ),
        }
    }

    /// Write (or overwrite) a row together with the recipe that can
    /// reconstruct it after eviction. Write-allocates into the hot tier.
    /// Idempotent: replaying the same `(user, row, recipe)` — e.g. the
    /// live applier's validate-by-clone — is harmless.
    pub(crate) fn set_row(&self, user: usize, row: &[f32], recipe: FoldRecipe) {
        assert_eq!(row.len(), self.k, "row width {} != K {}", row.len(), self.k);
        let mut inner = self.lock();
        inner.recipes.insert(user, recipe);
        if inner.hot.admit(user, row).is_some() {
            self.stats.evictions.inc();
        }
        if user + 1 > inner.total_rows {
            inner.total_rows = user + 1;
        }
        self.stats.total_rows.set(inner.total_rows as u64);
        self.stats.hot_rows.set(inner.hot.len() as u64);
    }

    /// Point-in-time counters and tier sizes (the `recommend` command's
    /// summary line, tests, benches).
    pub fn stats_snapshot(&self) -> TierStatsSnapshot {
        let (hot_rows, total_rows, budget_rows) = {
            let inner = self.lock();
            (inner.hot.len(), inner.total_rows, inner.hot.budget)
        };
        TierStatsSnapshot {
            budget_rows,
            hot_rows,
            total_rows,
            hits: self.stats.hits.get(),
            cold_reads: self.stats.cold_reads.get(),
            refolds: self.stats.refolds.get(),
            evictions: self.stats.evictions.get(),
        }
    }
}

/// Point-in-time view of a [`UserTier`]'s sizes and counters.
#[derive(Debug, Clone, Copy)]
pub struct TierStatsSnapshot {
    /// Configured hot budget in rows.
    pub budget_rows: usize,
    /// Rows currently resident in the hot tier.
    pub hot_rows: usize,
    /// Total rows covered (cold + folded-in since build).
    pub total_rows: usize,
    /// Reads served from the hot tier.
    pub hits: u64,
    /// Faults served by a cold-file positioned read.
    pub cold_reads: u64,
    /// Faults served by re-running the deterministic fold-in.
    pub refolds: u64,
    /// CLOCK evictions.
    pub evictions: u64,
}

impl TierStatsSnapshot {
    /// Total faults (cold reads + refolds).
    pub fn faults(&self) -> u64 {
        self.cold_reads + self.refolds
    }

    /// Hit rate over all tier reads; 1.0 when nothing has been read.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.faults();
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::distributions::Distribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use taxrec_factors::FactorMatrix;
    use taxrec_taxonomy::ZipfWeights;

    /// A fresh temp dir for one tier's cold file. Built as a temporary,
    /// the guard removes the dir at the end of the `UserTier::build`
    /// statement: the tier reads through the handle it already holds.
    fn tmpdir(tag: &str) -> crate::TempDir {
        crate::TempDir::new(&format!("taxrec-tier-{tag}"))
    }

    fn matrix(rows: usize, k: usize) -> CowMatrix {
        let mut m = FactorMatrix::zeros(rows, k);
        for r in 0..rows {
            for (z, v) in m.row_mut(r).iter_mut().enumerate() {
                *v = (r * 31 + z) as f32 * 0.25 - 3.0;
            }
        }
        CowMatrix::from_dense(m)
    }

    fn registry() -> MetricsRegistry {
        MetricsRegistry::new()
    }

    fn no_refold(_: &FoldRecipe) -> Vec<f32> {
        panic!("unexpected refold")
    }

    #[test]
    fn cold_roundtrip_is_bit_identical() {
        let users = matrix(600, 7);
        let reg = registry();
        let tier =
            UserTier::build(&tmpdir("roundtrip").join("users.cold"), &users, 16, &reg).unwrap();
        let mut out = vec![0.0f32; 7];
        for u in [0usize, 1, 255, 256, 599] {
            tier.copy_row(u, &mut out, no_refold);
            assert_eq!(out.as_slice(), users.row(u), "user {u}");
        }
    }

    #[test]
    fn clock_evicts_and_refaults() {
        let users = matrix(40, 4);
        let reg = registry();
        let tier = UserTier::build(&tmpdir("clock").join("users.cold"), &users, 8, &reg).unwrap();
        let mut out = vec![0.0f32; 4];
        for u in 0..40 {
            tier.copy_row(u, &mut out, no_refold);
            assert_eq!(out.as_slice(), users.row(u));
        }
        let s = tier.stats_snapshot();
        assert_eq!(s.hot_rows, 8);
        assert_eq!(s.cold_reads, 40);
        assert_eq!(s.evictions, 32);
        // Re-read an evicted row: faults again, still bit-identical.
        tier.copy_row(0, &mut out, no_refold);
        assert_eq!(out.as_slice(), users.row(0));
        assert_eq!(tier.stats_snapshot().cold_reads, 41);
        // A resident row hits without faulting.
        tier.copy_row(0, &mut out, no_refold);
        assert_eq!(tier.stats_snapshot().hits, 1);
    }

    #[test]
    fn recipe_overrides_cold_file_and_survives_eviction() {
        let users = matrix(20, 4);
        let reg = registry();
        let tier = UserTier::build(&tmpdir("recipe").join("users.cold"), &users, 2, &reg).unwrap();
        let recipe = FoldRecipe {
            history: Arc::from(Vec::new()),
            steps: 3,
            seed: 9,
            n_items: 5,
        };
        let fresh = vec![1.5f32, -2.0, 0.25, 8.0];
        tier.set_row(3, &fresh, recipe);
        let mut out = vec![0.0f32; 4];
        // Resident right after the write.
        tier.copy_row(3, &mut out, no_refold);
        assert_eq!(out, fresh);
        // Evict it by touching other users, then fault: the recipe (not
        // the stale cold bytes) must reconstruct it.
        for u in 10..16 {
            tier.copy_row(u, &mut out, no_refold);
        }
        tier.copy_row(3, &mut out, |r| {
            assert_eq!(r.steps, 3);
            assert_eq!(r.seed, 9);
            assert_eq!(r.n_items, 5);
            fresh.clone()
        });
        assert_eq!(out, fresh);
        assert_eq!(tier.stats_snapshot().refolds, 1);
    }

    #[test]
    fn set_row_appends_and_grows_total() {
        let users = matrix(10, 3);
        let reg = registry();
        let tier = UserTier::build(&tmpdir("grow").join("users.cold"), &users, 4, &reg).unwrap();
        assert_eq!(tier.total_rows(), 10);
        let recipe = FoldRecipe {
            history: Arc::from(Vec::new()),
            steps: 1,
            seed: 1,
            n_items: 2,
        };
        tier.set_row(10, &[1.0, 2.0, 3.0], recipe.clone());
        // Idempotent replay of the same write.
        tier.set_row(10, &[1.0, 2.0, 3.0], recipe);
        assert_eq!(tier.total_rows(), 11);
        let mut out = vec![0.0f32; 3];
        tier.copy_row(10, &mut out, no_refold);
        assert_eq!(out, [1.0, 2.0, 3.0]);
    }

    /// Serve `reads` rows drawn from `dist` off a fresh tier (its own
    /// registry, so its counters are its alone), checking every row
    /// against the resident matrix; return the tier's final stats.
    fn skewed_reads(
        tag: &str,
        users: &CowMatrix,
        budget: usize,
        dist: &ZipfWeights,
        reads: usize,
    ) -> TierStatsSnapshot {
        let reg = registry();
        let tier = UserTier::build(&tmpdir(tag).join("users.cold"), users, budget, &reg).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let mut out = vec![0.0f32; users.k()];
        for _ in 0..reads {
            let u = dist.sample(&mut rng);
            tier.copy_row(u, &mut out, no_refold);
            assert_eq!(out.as_slice(), users.row(u), "user {u}");
        }
        tier.stats_snapshot()
    }

    #[test]
    fn zipf_reads_hit_a_half_budget_tier() {
        let (n, budget, reads) = (1_000, 500, 5_000);
        let users = matrix(n, 4);
        let zipf = skewed_reads("zipf", &users, budget, &ZipfWeights::new(n, 1.1), reads);
        assert!(zipf.hot_rows <= budget, "{} hot rows", zipf.hot_rows);
        assert!(zipf.total_rows >= 2 * zipf.hot_rows);
        assert!(zipf.hit_rate() >= 0.5, "zipf hit rate {}", zipf.hit_rate());
        // Control: without skew the same half budget cannot keep up, so
        // the hit rate above comes from the skew, not from the budget.
        let uniform = skewed_reads("uniform", &users, budget, &ZipfWeights::new(n, 0.0), reads);
        assert!(
            uniform.hit_rate() < 0.5,
            "uniform hit rate {}",
            uniform.hit_rate()
        );
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn reading_past_total_panics() {
        let users = matrix(4, 2);
        let reg = registry();
        let tier = UserTier::build(&tmpdir("oob").join("users.cold"), &users, 2, &reg).unwrap();
        let mut out = vec![0.0f32; 2];
        tier.copy_row(4, &mut out, no_refold);
    }
}
