//! Inputs from the seed: who reads, what is written, and when.
//!
//! Reads (Poisson) and writes (paced) are two independent schedules
//! with their own random streams, so two workloads that differ only in their
//! write mix send the byte-identical read request list. The program
//! under test receives nothing but the generated requests.

use crate::spec::{ReadKind, Workload};
use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;
use taxrec_core::live::UpdateEvent;
use taxrec_dataset::{PurchaseLog, SyntheticDataset, Transaction};
use taxrec_taxonomy::{ItemId, NodeId, Taxonomy, ZipfWeights};

/// Stream separators: reads, writes, tail and batch draws never share
/// random numbers.
const READ_STREAM: u64 = 0x5245_4144;
const WRITE_STREAM: u64 = 0x5752_4954;
/// Most baskets of a donor history a generated fold-in carries.
const MAX_FOLD_BASKETS: usize = 6;

/// Draws user ids: Zipf over popularity ranks, ranks mapped to ids by a
/// seeded permutation so hot users are not id-neighbours.
pub struct UserPicker {
    zipf: ZipfWeights,
    rank_to_user: Vec<u32>,
}

impl UserPicker {
    pub fn new(users: usize, skew: f64, seed: u64) -> UserPicker {
        let mut rank_to_user: Vec<u32> = (0..users as u32).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5045_524d);
        for i in (1..users).rev() {
            rank_to_user.swap(i, rng.gen_range(0..=i));
        }
        UserPicker {
            zipf: ZipfWeights::new(users, skew),
            rank_to_user,
        }
    }

    pub fn pick(&self, rng: &mut StdRng) -> usize {
        self.rank_to_user[self.zipf.sample(rng)] as usize
    }

    /// The user at popularity rank `rank` (0 = hottest).
    pub fn user_at_rank(&self, rank: usize) -> usize {
        self.rank_to_user[rank] as usize
    }
}

/// Generates the workload's read requests (paths for `GET`).
pub struct ReadGen {
    rng: StdRng,
    picker: UserPicker,
    kind: ReadKind,
}

impl ReadGen {
    /// `stream` separates independent request lists of one seed (the
    /// steady schedule, each closed-loop client).
    pub fn new(w: &Workload, seed: u64, stream: u64) -> ReadGen {
        ReadGen {
            rng: StdRng::seed_from_u64(seed ^ READ_STREAM ^ (stream << 32)),
            picker: UserPicker::new(w.users, w.zipf, seed),
            kind: w.read,
        }
    }

    pub fn next_read(&mut self) -> ReadReq {
        match self.kind {
            ReadKind::Single { .. } => {
                let user = self.picker.pick(&mut self.rng);
                ReadReq::new(self.kind, vec![user])
            }
            ReadKind::CascadedBatch { users, .. } => {
                let users = self.users(users);
                ReadReq::new(self.kind, users)
            }
        }
    }

    /// `n` Zipf-drawn users (the offline batch's request list).
    pub fn users(&mut self, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.picker.pick(&mut self.rng)).collect()
    }

    fn exp_gap_ns(&mut self, rate: f64) -> u64 {
        exp_gap_ns(&mut self.rng, rate)
    }
}

fn exp_gap_ns(rng: &mut StdRng, rate: f64) -> u64 {
    let u: f64 = rng.gen();
    (-(1.0 - u).ln() / rate * 1e9) as u64
}

/// One read request: the `GET` path and the users it names, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadReq {
    pub path: String,
    pub users: Vec<usize>,
}

impl ReadReq {
    /// The request of `kind` for `users` (one user for a single read).
    pub fn new(kind: ReadKind, users: Vec<usize>) -> ReadReq {
        let path = match kind {
            ReadKind::Single { top } => format!("/recommend?user={}&top={top}", users[0]),
            ReadKind::CascadedBatch {
                top,
                cascade,
                threads,
                ..
            } => {
                let ids: Vec<String> = users.iter().map(usize::to_string).collect();
                format!(
                    "/recommend/batch?users={}&top={top}&cascade={cascade}&threads={threads}",
                    ids.join(",")
                )
            }
        };
        ReadReq { path, users }
    }
}

/// One scheduled read.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadOp {
    /// Send instant, nanoseconds after the phase starts.
    pub at_ns: u64,
    pub req: ReadReq,
}

/// One scheduled write.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteOp {
    pub at_ns: u64,
    pub event: UpdateEvent,
}

/// Poisson read arrivals at the workload's rate over `duration`.
pub fn read_schedule(w: &Workload, seed: u64, duration: Duration) -> Vec<ReadOp> {
    let mut gen = ReadGen::new(w, seed, 0);
    let mut ops = Vec::new();
    let mut at = gen.exp_gap_ns(w.read_rate);
    while at < duration.as_nanos() as u64 {
        ops.push(ReadOp {
            at_ns: at,
            req: gen.next_read(),
        });
        at += gen.exp_gap_ns(w.read_rate);
    }
    ops
}

/// Generates valid update events: add-items under real categories,
/// fold-ins carrying a trained user's recent baskets, refolds of users
/// an earlier generated fold-in created.
///
/// Folded users get ids in apply order, and every generated event is
/// applied in generation order (one writer, one request at a time), so
/// the `j`-th fold-in is user `base_users + j`.
pub struct WriteGen<'a> {
    rng: StdRng,
    tax: &'a Taxonomy,
    train: &'a PurchaseLog,
    base_items: usize,
    base_users: usize,
    /// Fold-ins generated so far (by this and earlier generators).
    pub folded: usize,
    /// Events generated so far, and where in its cycle the mix starts.
    generated: u64,
    phase: f64,
    weights: [f64; 3],
    fold_steps: usize,
}

impl<'a> WriteGen<'a> {
    pub fn new(
        w: &Workload,
        data: &'a SyntheticDataset,
        seed: u64,
        stream: u64,
        folded: usize,
    ) -> WriteGen<'a> {
        let mut rng = StdRng::seed_from_u64(seed ^ WRITE_STREAM ^ (stream << 32));
        WriteGen {
            phase: rng.gen(),
            generated: 0,
            rng,
            tax: &data.taxonomy,
            train: &data.train,
            base_items: data.taxonomy.num_items(),
            base_users: data.train.num_users(),
            folded,
            weights: [w.add_item_rate, w.fold_in_rate, w.refold_rate],
            fold_steps: w.fold_steps,
        }
    }

    fn history(&mut self) -> Vec<Transaction> {
        loop {
            let donor = self.train.user(self.rng.gen_range(0..self.base_users));
            if donor.iter().any(|b| !b.is_empty()) {
                let from = donor.len().saturating_sub(MAX_FOLD_BASKETS);
                return donor[from..].to_vec();
            }
        }
    }

    /// The next event. Which kind it is follows the golden-ratio
    /// sequence, not a random draw: every stretch of a schedule then
    /// holds the workload's mix almost exactly, where random draws made
    /// one seed's recovery tail replay a fifth more fold-ins than
    /// another's. What the event carries is random.
    pub fn next_event(&mut self) -> UpdateEvent {
        const GOLDEN: f64 = 0.618_033_988_749_894_9;
        let total: f64 = self.weights.iter().sum();
        let draw = (self.phase + self.generated as f64 * GOLDEN).fract() * total;
        self.generated += 1;
        if draw < self.weights[0] {
            // A category picked through a random item: popular
            // categories receive more releases.
            let item = ItemId(self.rng.gen_range(0..self.base_items) as u32);
            let parent = self
                .tax
                .parent(self.tax.item_node(item))
                .unwrap_or(NodeId::ROOT);
            return UpdateEvent::AddItem { parent };
        }
        let history = self.history();
        // Seeds travel through JSON numbers: keep them below 2^53.
        let seed = self.rng.gen::<u64>() >> 11;
        let steps = self.fold_steps;
        if draw < self.weights[0] + self.weights[1] || self.folded == 0 {
            self.folded += 1;
            UpdateEvent::FoldInUser {
                history,
                steps,
                seed,
            }
        } else {
            UpdateEvent::RefoldUser {
                user: self.base_users + self.rng.gen_range(0..self.folded),
                history,
                steps,
                seed,
            }
        }
    }
}

/// Write arrivals at the workload's total write rate, **paced**: the
/// `k`-th write is due at `(k + j) / rate` with a seeded jitter `j` in
/// `[0, 0.5)`.
///
/// Catalog ingest and sign-up pipelines are fed from queues at a steady
/// rate; independent shoppers (the reads) are not, and stay Poisson.
/// Through the one writer connection a Poisson schedule piles writes up
/// behind every multi-millisecond fold-in, and a run's write tail (and,
/// on shared cores, its read tail) was then set by the three or four
/// pile-ups it happened to contain.
pub fn write_schedule(
    w: &Workload,
    data: &SyntheticDataset,
    seed: u64,
    duration: Duration,
) -> (Vec<WriteOp>, usize) {
    let mut gen = WriteGen::new(w, data, seed, 0, 0);
    let mut arrivals = StdRng::seed_from_u64(seed ^ WRITE_STREAM ^ 0x4152_5256);
    let rate = w.write_rate();
    let mut ops = Vec::new();
    let due = |k: usize, jitter: f64| ((k as f64 + jitter) / rate * 1e9) as u64;
    let mut at = due(0, arrivals.gen::<f64>() * 0.5);
    while at < duration.as_nanos() as u64 {
        ops.push(WriteOp {
            at_ns: at,
            event: gen.next_event(),
        });
        at = due(ops.len(), arrivals.gen::<f64>() * 0.5);
    }
    (ops, gen.folded)
}

/// The HTTP form of an update: `(path, JSON body)`.
pub fn http_form(event: &UpdateEvent) -> (&'static str, String) {
    fn history_json(history: &[Transaction]) -> String {
        let baskets: Vec<String> = history
            .iter()
            .map(|b| {
                let ids: Vec<String> = b.iter().map(|i| i.0.to_string()).collect();
                format!("[{}]", ids.join(","))
            })
            .collect();
        format!("[{}]", baskets.join(","))
    }
    match event {
        UpdateEvent::AddItem { parent } => ("/items", format!("{{\"parent\":{}}}", parent.0)),
        UpdateEvent::FoldInUser {
            history,
            steps,
            seed,
        } => (
            "/users/fold-in",
            format!(
                "{{\"history\":{},\"steps\":{steps},\"seed\":{seed}}}",
                history_json(history)
            ),
        ),
        UpdateEvent::RefoldUser {
            user,
            history,
            steps,
            seed,
        } => (
            "/users/fold-in",
            format!(
                "{{\"user\":{user},\"history\":{},\"steps\":{steps},\"seed\":{seed}}}",
                history_json(history)
            ),
        ),
    }
}

/// Canonical bytes of both schedules (the determinism tests compare
/// these).
#[cfg(test)]
pub fn schedule_bytes(reads: &[ReadOp], writes: &[WriteOp]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in reads {
        out.extend_from_slice(&r.at_ns.to_le_bytes());
        out.extend_from_slice(r.req.path.as_bytes());
    }
    for w in writes {
        out.extend_from_slice(&w.at_ns.to_le_bytes());
        taxrec_core::live::encode_event(&mut out, &w.event);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workloads;
    use taxrec_dataset::DatasetConfig;

    fn tiny_data() -> SyntheticDataset {
        SyntheticDataset::generate(&DatasetConfig::tiny(), 5)
    }

    fn tiny(w: &Workload) -> Workload {
        Workload {
            users: 300,
            items: 400,
            ..w.clone()
        }
    }

    #[test]
    fn same_seed_same_schedule_different_seed_differs() {
        let data = tiny_data();
        let w = tiny(&workloads()[1]);
        let d = Duration::from_secs(2);
        let make = |seed| {
            let reads = read_schedule(&w, seed, d);
            let (writes, _) = write_schedule(&w, &data, seed, d);
            schedule_bytes(&reads, &writes)
        };
        let a = make(7);
        assert!(!a.is_empty());
        assert_eq!(a, make(7));
        assert_ne!(a, make(8));
    }

    #[test]
    fn read_and_churn_share_the_read_schedule() {
        let all = workloads();
        let d = Duration::from_secs(2);
        let read = read_schedule(&tiny(&all[0]), 11, d);
        let churn = read_schedule(&tiny(&all[1]), 11, d);
        assert!(read.len() > 100);
        assert_eq!(read, churn);
    }

    #[test]
    fn arrival_counts_follow_the_rates() {
        let data = tiny_data();
        let w = tiny(&workloads()[1]);
        let d = Duration::from_secs(20);
        let reads = read_schedule(&w, 3, d).len() as f64;
        let (writes, folded) = write_schedule(&w, &data, 3, d);
        assert!((reads / (w.read_rate * 20.0) - 1.0).abs() < 0.05, "{reads}");
        let n = writes.len() as f64;
        assert!((n / (w.write_rate() * 20.0) - 1.0).abs() < 0.08, "{n}");
        let folds = writes
            .iter()
            .filter(|op| matches!(op.event, UpdateEvent::FoldInUser { .. }))
            .count();
        assert_eq!(folds, folded);
        // Every refold names a user an earlier fold-in created.
        let mut seen = 0usize;
        for op in &writes {
            match &op.event {
                UpdateEvent::FoldInUser { .. } => seen += 1,
                UpdateEvent::RefoldUser { user, .. } => {
                    assert!((300..300 + seen).contains(user), "{user} of {seen}")
                }
                UpdateEvent::AddItem { .. } => {}
            }
        }
    }

    #[test]
    fn zipf_mass_lands_on_the_hot_ranks() {
        let picker = UserPicker::new(1000, 1.0, 9);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mut hits = vec![0usize; 1000];
        for _ in 0..n {
            hits[picker.pick(&mut rng)] += 1;
        }
        // Zipf(1.0) over 1000 ranks: rank 0 carries 1/H(1000) = 13.4 %
        // of the draws, the top ten ranks 39.1 %.
        let share = |ranks: std::ops::Range<usize>| {
            ranks.map(|r| hits[picker.user_at_rank(r)]).sum::<usize>() as f64 / n as f64
        };
        assert!((share(0..1) - 0.1336).abs() < 0.005, "{}", share(0..1));
        assert!((share(0..10) - 0.3913).abs() < 0.008, "{}", share(0..10));
        // The permutation is a bijection.
        let mut users: Vec<usize> = (0..1000).map(|r| picker.user_at_rank(r)).collect();
        users.sort_unstable();
        assert_eq!(users, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn http_forms_are_what_the_server_parses() {
        let ev = UpdateEvent::RefoldUser {
            user: 12,
            history: vec![vec![ItemId(1), ItemId(2)], vec![ItemId(3)]],
            steps: 100,
            seed: 5,
        };
        assert_eq!(
            http_form(&ev),
            (
                "/users/fold-in",
                "{\"user\":12,\"history\":[[1,2],[3]],\"steps\":100,\"seed\":5}".to_string()
            )
        );
        let add = UpdateEvent::AddItem { parent: NodeId(17) };
        assert_eq!(http_form(&add), ("/items", "{\"parent\":17}".to_string()));
    }
}
