//! The update-event vocabulary and its length-prefixed binary log codec.
//!
//! Layout (all little-endian, same `bytes_shim` idiom as
//! [`crate::persist`]):
//!
//! ```text
//! header  u32 magic = 0x5446_4c31 ("TFL1"), u8 version = 2,
//!         u64 base_users, u64 base_items      — the lineage stamp
//! record  u32 payload_len, payload:
//!   u8 tag = 1 (AddItem):    u32 parent
//!   u8 tag = 2 (FoldInUser): u64 steps, u64 seed,
//!                            u32 baskets, per basket: u32 items, items…
//!   u8 tag = 3 (RefoldUser): u64 user, u64 steps, u64 seed,
//!                            u32 baskets, per basket: u32 items, items…
//! ```
//!
//! The **lineage stamp** records the user/item counts of the state the
//! log's first event applies to. Replaying a log over any other state
//! is a deterministic way to corrupt a model (fold-ins would be
//! re-seeded against the wrong catalog, acked events silently lost), so
//! loaders compare the stamp against the base model before replaying —
//! the classic "snapshot rotated, operator restarted with the original
//! `--model`" footgun becomes a hard error instead of silent data loss.
//!
//! Records are self-delimiting so a log can be appended to forever and
//! replayed from its base. The decoder never panics on arbitrary input
//! (property-tested), and [`decode_log_lossy`] additionally tolerates a
//! truncated final record — the normal shape of a log whose writer died
//! mid-append.

use crate::persist::bytes_shim::{get_u32, get_u64, put_u32, put_u64};
use crate::persist::PersistError;
use taxrec_dataset::Transaction;
use taxrec_taxonomy::{ItemId, NodeId};

const LOG_MAGIC: u32 = 0x5446_4c31; // "TFL1"
const LOG_VERSION: u8 = 2;
/// Bytes occupied by the log header ([`encode_log_header`]).
pub const LOG_HEADER_LEN: usize = 4 + 1 + 8 + 8;

/// Largest `steps` a decoded fold-in event may carry — the same bound
/// the HTTP layer enforces, applied again at decode time so a corrupt
/// or hostile log cannot make replay spin for 2^64 BPR steps.
pub const MAX_EVENT_FOLD_STEPS: usize = 1_000_000;

const TAG_ADD_ITEM: u8 = 1;
const TAG_FOLD_IN: u8 = 2;
const TAG_REFOLD: u8 = 3;

/// The lineage stamp a log carries: the shape of the state its first
/// event applies to (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogHeader {
    /// `model.num_users()` of the base state.
    pub base_users: u64,
    /// `model.num_items()` of the base state.
    pub base_items: u64,
}

impl LogHeader {
    /// Whether this lineage stamp matches `model`'s current shape — the
    /// precondition for replaying the log over that model. Every loader
    /// (`taxrec serve`, `taxrec replay`) checks this before replaying.
    pub fn matches_model(&self, model: &crate::model::TfModel) -> bool {
        self.base_users as usize == model.num_users()
            && self.base_items as usize == model.num_items()
    }
}

/// One update to the live model. Events are **deterministic**: applying
/// the same event sequence to the same starting model always produces
/// the bit-identical result (fold-ins carry their own seed), which is
/// what makes `snapshot + replay(log) ≡ live state` hold.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateEvent {
    /// A newly released item enters the catalog under an existing
    /// category; its factors start at its category's (Fig. 7c).
    AddItem {
        /// The interior category node the item is released under.
        parent: NodeId,
    },
    /// An out-of-matrix user is folded in against frozen item factors
    /// (the paper's new-user story) and becomes servable under a fresh
    /// user id.
    FoldInUser {
        /// The user's observed baskets, oldest first. Each basket must
        /// be sorted and free of duplicates (negative sampling searches
        /// it; the HTTP route normalises client baskets before logging).
        /// Not checked by `validate`, so logs written before the route
        /// normalised still replay.
        history: Vec<Transaction>,
        /// BPR steps for [`crate::dynamic::fold_in_user`] (at most
        /// [`MAX_EVENT_FOLD_STEPS`]).
        steps: usize,
        /// RNG seed — recorded so replay reproduces the exact factor.
        seed: u64,
    },
    /// An already folded-in user's factor is recomputed **from scratch**
    /// against the current catalog from a full replacement history. The
    /// history replaces (never appends to) the stored one, so a user
    /// who was evicted, faulted back, and folded again is never
    /// double-counted.
    RefoldUser {
        /// The folded-in user id (must be ≥ the base model's user count).
        user: usize,
        /// The user's complete baskets, oldest first — replaces the
        /// stored history. Sorted, duplicate-free baskets, as for
        /// [`FoldInUser`](Self::FoldInUser).
        history: Vec<Transaction>,
        /// BPR steps (at most [`MAX_EVENT_FOLD_STEPS`]).
        steps: usize,
        /// RNG seed — recorded so replay reproduces the exact factor.
        seed: u64,
    },
}

/// Write the log file header (magic, version, lineage stamp).
pub fn encode_log_header(out: &mut Vec<u8>, header: &LogHeader) {
    put_u32(out, LOG_MAGIC);
    out.push(LOG_VERSION);
    put_u64(out, header.base_users);
    put_u64(out, header.base_items);
}

/// Append one length-prefixed event record.
pub fn encode_event(out: &mut Vec<u8>, ev: &UpdateEvent) {
    let mut payload = Vec::new();
    match ev {
        UpdateEvent::AddItem { parent } => {
            payload.push(TAG_ADD_ITEM);
            put_u32(&mut payload, parent.0);
        }
        UpdateEvent::FoldInUser {
            history,
            steps,
            seed,
        } => {
            payload.push(TAG_FOLD_IN);
            put_u64(&mut payload, *steps as u64);
            put_u64(&mut payload, *seed);
            encode_baskets(&mut payload, history);
        }
        UpdateEvent::RefoldUser {
            user,
            history,
            steps,
            seed,
        } => {
            payload.push(TAG_REFOLD);
            put_u64(&mut payload, *user as u64);
            put_u64(&mut payload, *steps as u64);
            put_u64(&mut payload, *seed);
            encode_baskets(&mut payload, history);
        }
    }
    put_u32(out, payload.len() as u32);
    out.extend_from_slice(&payload);
}

fn encode_baskets(payload: &mut Vec<u8>, history: &[Transaction]) {
    put_u32(payload, history.len() as u32);
    for basket in history {
        put_u32(payload, basket.len() as u32);
        for item in basket {
            put_u32(payload, item.0);
        }
    }
}

fn decode_header(buf: &[u8], pos: &mut usize) -> Result<LogHeader, PersistError> {
    let magic = get_u32(buf, pos)?;
    if magic != LOG_MAGIC {
        return Err(PersistError::Corrupt(format!(
            "bad event-log magic 0x{magic:08x}, expected 0x{LOG_MAGIC:08x}"
        )));
    }
    match buf.get(*pos) {
        Some(&LOG_VERSION) => *pos += 1,
        Some(&v) => {
            return Err(PersistError::Corrupt(format!(
                "unsupported event-log version {v}, expected {LOG_VERSION}"
            )))
        }
        None => return Err(PersistError::Corrupt("missing event-log version".into())),
    }
    Ok(LogHeader {
        base_users: get_u64(buf, pos)?,
        base_items: get_u64(buf, pos)?,
    })
}

/// Decode a nested basket list (`u32 baskets, per basket u32 items,
/// items…`) with allocation guards: no claimed count can exceed what
/// the remaining bytes could possibly hold. When `max_item` is given,
/// item ids at or above it are rejected. Shared by the event codec and
/// the live-snapshot codec ([`crate::live::snapshot`]).
pub(crate) fn decode_baskets(
    buf: &[u8],
    pos: &mut usize,
    max_item: Option<usize>,
) -> Result<Vec<Transaction>, PersistError> {
    let baskets = get_u32(buf, pos)? as usize;
    if baskets > (buf.len() - *pos) / 4 {
        return Err(PersistError::Corrupt(format!(
            "basket count {baskets} overruns buffer"
        )));
    }
    let mut history = Vec::with_capacity(baskets);
    for _ in 0..baskets {
        let items = get_u32(buf, pos)? as usize;
        if items > (buf.len() - *pos) / 4 {
            return Err(PersistError::Corrupt(format!(
                "item count {items} overruns buffer"
            )));
        }
        let mut basket: Transaction = Vec::with_capacity(items);
        for _ in 0..items {
            let item = ItemId(get_u32(buf, pos)?);
            if max_item.is_some_and(|n| item.index() >= n) {
                return Err(PersistError::Corrupt(format!(
                    "history references unknown item {item}"
                )));
            }
            basket.push(item);
        }
        history.push(basket);
    }
    Ok(history)
}

/// Decode one event payload (everything after the length prefix).
/// Shared with the replication frame codec ([`super::replication`]),
/// which ships the exact WAL record bytes over the wire.
pub(crate) fn decode_payload(payload: &[u8]) -> Result<UpdateEvent, PersistError> {
    let mut pos = 0usize;
    let tag = *payload
        .first()
        .ok_or_else(|| PersistError::Corrupt("empty event payload".into()))?;
    pos += 1;
    let ev = match tag {
        TAG_ADD_ITEM => UpdateEvent::AddItem {
            parent: NodeId(get_u32(payload, &mut pos)?),
        },
        TAG_FOLD_IN => {
            let steps = get_u64(payload, &mut pos)?;
            if steps > MAX_EVENT_FOLD_STEPS as u64 {
                return Err(PersistError::Corrupt(format!(
                    "fold-in steps {steps} exceeds cap {MAX_EVENT_FOLD_STEPS}"
                )));
            }
            let seed = get_u64(payload, &mut pos)?;
            let history = decode_baskets(payload, &mut pos, None)?;
            UpdateEvent::FoldInUser {
                history,
                steps: steps as usize,
                seed,
            }
        }
        TAG_REFOLD => {
            let user = get_u64(payload, &mut pos)?;
            let steps = get_u64(payload, &mut pos)?;
            if steps > MAX_EVENT_FOLD_STEPS as u64 {
                return Err(PersistError::Corrupt(format!(
                    "refold steps {steps} exceeds cap {MAX_EVENT_FOLD_STEPS}"
                )));
            }
            let seed = get_u64(payload, &mut pos)?;
            let history = decode_baskets(payload, &mut pos, None)?;
            UpdateEvent::RefoldUser {
                user: user as usize,
                history,
                steps: steps as usize,
                seed,
            }
        }
        other => return Err(PersistError::Corrupt(format!("unknown event tag {other}"))),
    };
    if pos != payload.len() {
        return Err(PersistError::Corrupt(format!(
            "{} stray bytes inside event record",
            payload.len() - pos
        )));
    }
    Ok(ev)
}

/// Strictly decode a whole event log (header + records). Any damage —
/// including a truncated final record — is an error; use
/// [`decode_log_lossy`] to recover from a crash mid-append.
pub fn decode_log(buf: &[u8]) -> Result<(LogHeader, Vec<UpdateEvent>), PersistError> {
    let mut pos = 0usize;
    let header = decode_header(buf, &mut pos)?;
    let mut events = Vec::new();
    while pos < buf.len() {
        let len = get_u32(buf, &mut pos)? as usize;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= buf.len())
            .ok_or_else(|| PersistError::Corrupt("event record overruns log".into()))?;
        events.push(decode_payload(&buf[pos..end])?);
        pos = end;
    }
    Ok((header, events))
}

/// Decode a log, tolerating a truncated tail: returns every record that
/// decodes cleanly plus the number of trailing bytes that were ignored
/// (0 for an intact log). The header must still be valid — a log whose
/// leading bytes are damaged is unrecoverable, not truncated.
pub fn decode_log_lossy(buf: &[u8]) -> Result<(LogHeader, Vec<UpdateEvent>, usize), PersistError> {
    let mut pos = 0usize;
    let header = decode_header(buf, &mut pos)?;
    let mut events = Vec::new();
    while pos < buf.len() {
        let record_start = pos;
        let Ok(len) = get_u32(buf, &mut pos).map(|l| l as usize) else {
            return Ok((header, events, buf.len() - record_start));
        };
        let Some(end) = pos.checked_add(len).filter(|&e| e <= buf.len()) else {
            return Ok((header, events, buf.len() - record_start));
        };
        match decode_payload(&buf[pos..end]) {
            Ok(ev) => events.push(ev),
            Err(_) => return Ok((header, events, buf.len() - record_start)),
        }
        pos = end;
    }
    Ok((header, events, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    const HDR: LogHeader = LogHeader {
        base_users: 120,
        base_items: 400,
    };

    fn sample_events() -> Vec<UpdateEvent> {
        vec![
            UpdateEvent::AddItem { parent: NodeId(7) },
            UpdateEvent::FoldInUser {
                history: vec![vec![ItemId(1), ItemId(2)], vec![], vec![ItemId(9)]],
                steps: 400,
                seed: 0xDEAD_BEEF,
            },
            UpdateEvent::AddItem { parent: NodeId(3) },
            UpdateEvent::RefoldUser {
                user: 121,
                history: vec![vec![ItemId(4)], vec![ItemId(1), ItemId(2)]],
                steps: 250,
                seed: 77,
            },
        ]
    }

    fn encode_all(events: &[UpdateEvent]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_log_header(&mut buf, &HDR);
        for ev in events {
            encode_event(&mut buf, ev);
        }
        buf
    }

    #[test]
    fn roundtrip() {
        let events = sample_events();
        let buf = encode_all(&events);
        assert_eq!(decode_log(&buf).unwrap(), (HDR, events.clone()));
        assert_eq!(decode_log_lossy(&buf).unwrap(), (HDR, events, 0));
    }

    #[test]
    fn empty_log_is_just_a_header() {
        let buf = encode_all(&[]);
        assert_eq!(buf.len(), LOG_HEADER_LEN);
        let (header, events) = decode_log(&buf).unwrap();
        assert_eq!(header, HDR);
        assert!(events.is_empty());
    }

    #[test]
    fn strict_rejects_truncation_lossy_recovers_prefix() {
        let events = sample_events();
        let buf = encode_all(&events);
        // Cut mid-way through the final record.
        let cut = buf.len() - 2;
        assert!(decode_log(&buf[..cut]).is_err());
        let (header, recovered, ignored) = decode_log_lossy(&buf[..cut]).unwrap();
        assert_eq!(header, HDR);
        assert_eq!(recovered, events[..3].to_vec());
        assert!(ignored > 0);
    }

    #[test]
    fn bad_header_is_fatal_for_both() {
        let mut buf = encode_all(&sample_events());
        buf[0] ^= 0xFF;
        assert!(decode_log(&buf).is_err());
        assert!(decode_log_lossy(&buf).is_err());
        let mut buf2 = encode_all(&[]);
        buf2[4] = 9; // version
        assert!(decode_log(&buf2).is_err());
    }

    #[test]
    fn unknown_tag_and_stray_bytes_rejected() {
        let mut buf = encode_all(&[]);
        put_u32(&mut buf, 1);
        buf.push(42); // unknown tag
        assert!(decode_log(&buf).is_err());

        let mut buf = encode_all(&[]);
        put_u32(&mut buf, 6);
        buf.push(TAG_ADD_ITEM);
        put_u32(&mut buf, 3);
        buf.push(0); // one stray byte inside the record
        assert!(decode_log(&buf).is_err());
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A fold-in record claiming u32::MAX baskets in a 20-byte
        // payload must fail fast instead of reserving gigabytes.
        let mut buf = encode_all(&[]);
        let mut payload = vec![TAG_FOLD_IN];
        put_u64(&mut payload, 1);
        put_u64(&mut payload, 1);
        put_u32(&mut payload, u32::MAX);
        put_u32(&mut buf, payload.len() as u32);
        buf.extend_from_slice(&payload);
        assert!(decode_log(&buf).is_err());
    }

    #[test]
    fn absurd_step_counts_rejected_at_decode() {
        // A flipped bit in a logged steps field must not make replay
        // spin for ~2^60 BPR iterations.
        let mut buf = encode_all(&[]);
        let mut payload = vec![TAG_FOLD_IN];
        put_u64(&mut payload, u64::MAX / 2);
        put_u64(&mut payload, 1);
        put_u32(&mut payload, 1);
        put_u32(&mut payload, 1);
        put_u32(&mut payload, 0); // one basket, one item id 0
        put_u32(&mut buf, payload.len() as u32);
        buf.extend_from_slice(&payload);
        let err = decode_log(&buf).unwrap_err();
        assert!(err.to_string().contains("steps"), "{err}");
        // The same record with a sane step count decodes fine.
        let mut buf = encode_all(&[]);
        encode_event(
            &mut buf,
            &UpdateEvent::FoldInUser {
                history: vec![vec![ItemId(0)]],
                steps: MAX_EVENT_FOLD_STEPS,
                seed: 1,
            },
        );
        assert_eq!(decode_log(&buf).unwrap().1.len(), 1);
    }

    #[test]
    fn log_header_matches_model_shape_exactly() {
        // The lineage stamp is shape equality on BOTH axes. Replication
        // leans on this: a follower handshake presents its shape, and
        // any divergence — including the equal-sum swap where one axis
        // is up and the other down — must read as a different lineage,
        // never as a resumable offset.
        use crate::config::ModelConfig;
        use crate::train::TfTrainer;
        use taxrec_dataset::{DatasetConfig, SyntheticDataset};
        let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(40), 11);
        let model = TfTrainer::new(
            ModelConfig::tf(4, 1).with_factors(4).with_epochs(1),
            &d.taxonomy,
        )
        .fit(&d.train, 1);
        let hdr = LogHeader {
            base_users: model.num_users() as u64,
            base_items: model.num_items() as u64,
        };
        assert!(hdr.matches_model(&model));
        for (du, di) in [(1i64, 0i64), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)] {
            let h = LogHeader {
                base_users: hdr.base_users.wrapping_add_signed(du),
                base_items: hdr.base_items.wrapping_add_signed(di),
            };
            assert!(!h.matches_model(&model), "{h:?} must not match");
        }
    }
}
