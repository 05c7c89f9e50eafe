//! Batch planning: decide how many workers a multi-user request batch
//! pays for, then split it into per-worker shards with balanced
//! estimated cost.
//!
//! Costs are estimated rows scored. They are not uniform: exhaustive
//! inference scores the whole catalog whatever the user, the radius
//! walk and the walk-cut cascaded beam score a few hundred rows that
//! grow with `k`, and the query build scales with the conditioning
//! history. `workers` gives a batch one worker per `SPAWN_ROWS`
//! estimated rows, so spawned spans carry that much on average; a
//! batch that gets one runs on the calling thread. The planner then
//! cuts the batch into that many *contiguous* spans of near-equal total
//! cost (contiguous so results keep the request order and every shard
//! is one cache-friendly slice). Cutting is greedy against the ideal
//! per-shard cost; for uniform costs it degenerates to even chunking.

/// Estimated rows a spawned worker must score to pay for its spawn and
/// join.
///
/// Calibrated on the `batch_cascade` benchmark model (8 000 items under
/// 12/60/300 categories, K = 32, TF(4, 2), top 20, ≈ 200 estimated rows
/// per user) on a 2-core x86-64 box, median of 400 batches, one thread
/// against two:
/// - 8 users (≈ 1 800 rows): two threads never won — cascade 0.3
///   115 → 184 µs, the walk 84 → 133 µs; sharing one core 167 → 249 µs
///   and 101 → 179 µs;
/// - 32 users (≈ 6 600 rows): no clear winner — the beam 487 → 590 µs,
///   the walk 470 → 337 µs, each in two of three repeats; sharing one
///   core the beam 630 → 752 µs;
/// - 64 users (≈ 13 000 rows): two threads won every repeat — the beam
///   1 420 → 965 µs, the walk 784 → 637 µs.
///
/// Repeats swung up to 1.6×. One worker per 4 096 rows keeps such
/// batches inline up to about 40 users and gives 64 users two workers.
pub(crate) const SPAWN_ROWS: u64 = 4096;

/// Workers a batch of `requests` requests estimated at `rows` rows
/// pays for: one per [`SPAWN_ROWS`], never more than `threads` or
/// `requests`, and at least one (the calling thread).
pub(crate) fn workers(rows: u64, threads: usize, requests: usize) -> usize {
    let paid = usize::try_from(rows / SPAWN_ROWS).unwrap_or(usize::MAX);
    paid.min(threads).min(requests).max(1)
}

/// One contiguous span of the request batch, assigned to one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// First request index (inclusive).
    pub start: usize,
    /// Past-the-end request index.
    pub end: usize,
}

impl Shard {
    /// Number of requests in the shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` iff the shard covers no requests.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Split `costs` (one estimate per request, in request order) into at
/// most `workers` contiguous shards of near-equal total cost.
///
/// Every request lands in exactly one shard; empty shards are never
/// emitted, so the result may hold fewer than `workers` entries (e.g.
/// for tiny batches).
pub fn plan(costs: &[u64], workers: usize) -> Vec<Shard> {
    let workers = workers.max(1);
    if costs.is_empty() {
        return Vec::new();
    }
    let total: u64 = costs.iter().sum();

    // Close each shard once it reaches its target: the cost still
    // unassigned divided by the shards still available. Recomputing the
    // target after every close absorbs skew — one oversized request
    // inflates only its own shard, and the rest re-balance.
    let mut shards = Vec::with_capacity(workers.min(costs.len()));
    let mut start = 0usize;
    let mut acc = 0u64;
    let mut closed = 0u64;
    for (i, &c) in costs.iter().enumerate() {
        acc += c;
        let is_last_shard = shards.len() + 1 == workers;
        let target = ((total - closed) / (workers - shards.len()) as u64).max(1);
        if !is_last_shard && acc >= target {
            shards.push(Shard { start, end: i + 1 });
            start = i + 1;
            closed += acc;
            acc = 0;
        }
    }
    if start < costs.len() {
        shards.push(Shard {
            start,
            end: costs.len(),
        });
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers(shards: &[Shard], n: usize) {
        let mut next = 0;
        for s in shards {
            assert_eq!(s.start, next, "gap or overlap at {next}");
            assert!(s.end > s.start, "empty shard");
            next = s.end;
        }
        assert_eq!(next, n, "requests dropped");
    }

    #[test]
    fn uniform_costs_chunk_evenly() {
        let costs = vec![10u64; 16];
        let shards = plan(&costs, 4);
        covers(&shards, 16);
        assert_eq!(shards.len(), 4);
        for s in &shards {
            assert_eq!(s.len(), 4);
        }
    }

    #[test]
    fn skewed_costs_balance() {
        // One huge request followed by many small ones: the huge one
        // should get (nearly) its own shard.
        let mut costs = vec![1000u64];
        costs.extend(std::iter::repeat_n(10, 30));
        let shards = plan(&costs, 4);
        covers(&shards, 31);
        assert_eq!(shards.len(), 4);
        assert_eq!(shards[0].len(), 1, "huge request should close shard 0");
        // The 30 small requests re-balance over the remaining 3 shards.
        for s in &shards[1..] {
            assert!(s.len() >= 8 && s.len() <= 12, "unbalanced shard {s:?}");
        }
    }

    #[test]
    fn more_workers_than_requests() {
        let shards = plan(&[5, 5], 8);
        covers(&shards, 2);
        assert!(shards.len() <= 2);
    }

    #[test]
    fn single_worker_takes_all() {
        let shards = plan(&[1, 2, 3], 1);
        covers(&shards, 3);
        assert_eq!(shards, vec![Shard { start: 0, end: 3 }]);
    }

    #[test]
    fn empty_batch() {
        assert!(plan(&[], 4).is_empty());
    }

    #[test]
    fn a_worker_costs_one_spawn_of_rows() {
        // Below two spawns' worth the batch stays on the calling thread.
        assert_eq!(workers(0, 8, 8), 1);
        assert_eq!(workers(2 * SPAWN_ROWS - 1, 8, 64), 1);
        assert_eq!(workers(2 * SPAWN_ROWS, 8, 64), 2);
        assert_eq!(workers(100 * SPAWN_ROWS, 8, 64), 8);
        // Never more than the threads asked for or the requests.
        assert_eq!(workers(100 * SPAWN_ROWS, 3, 64), 3);
        assert_eq!(workers(100 * SPAWN_ROWS, 8, 5), 5);
        assert_eq!(workers(u64::MAX, usize::MAX, 7), 7);
        assert_eq!(workers(u64::MAX, 0, 7), 1);
        assert_eq!(workers(u64::MAX, 4, 0), 1);
    }

    #[test]
    fn zero_workers_clamped() {
        let shards = plan(&[1, 1], 0);
        covers(&shards, 2);
    }
}
