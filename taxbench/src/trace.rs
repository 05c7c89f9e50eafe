//! Spans of the traced walk: `(request, id, parent, name, start, end)`
//! kept in memory and written out when the run ends.
//!
//! The program under test is not instrumented here. A span is a call
//! the benchmark itself makes into one layer's public functions. The
//! outermost span of a request is the real HTTP exchange; the spans
//! below it are the same request executed again in-process, one layer
//! further in each time (`replayed`). A replayed child is placed inside
//! its parent directly after its previous sibling, so the file reads as
//! one tree per request and a layer's self time is its span minus the
//! part of it its children cover.

use std::io::Write;
use std::path::Path;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Request the span belongs to.
    pub req: u32,
    /// Unique within the request; the root is 1.
    pub id: u32,
    /// Parent span id; 0 for the root.
    pub parent: u32,
    pub name: String,
    /// Nanoseconds after the run's clock origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Executed after its parent returned rather than inside it.
    pub replayed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one request under construction.
pub struct RequestTrace {
    req: u32,
    spans: Vec<Span>,
}

impl RequestTrace {
    /// Start a request tree at its measured root span.
    pub fn new(req: u32, root_name: &str, start_ns: u64, end_ns: u64) -> RequestTrace {
        RequestTrace {
            req,
            spans: vec![Span {
                req,
                id: 1,
                parent: 0,
                name: root_name.to_string(),
                start_ns,
                end_ns,
                replayed: false,
            }],
        }
    }

    fn push(&mut self, parent: u32, name: &str, start_ns: u64, dur_ns: u64, replayed: bool) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            req: self.req,
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + dur_ns,
            replayed,
        });
        id
    }

    /// Record a call made *after* `parent` returned that repeats part of
    /// the parent's work: placed after the parent's last child (or at
    /// the parent's start). Returns the new span's id.
    pub fn replayed_child(&mut self, parent: u32, name: &str, dur_ns: u64) -> u32 {
        let start = self
            .spans
            .iter()
            .filter(|s| s.parent == parent)
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent as usize - 1].start_ns);
        self.push(parent, name, start, dur_ns, true)
    }

    /// Record a call that really ran inside `parent`, `offset_ns` after
    /// the parent began.
    pub fn nested_child(&mut self, parent: u32, name: &str, offset_ns: u64, dur_ns: u64) -> u32 {
        let start = self.spans[parent as usize - 1].start_ns + offset_ns;
        self.push(parent, name, start, dur_ns, false)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of `spans[idx]`: its duration minus the part of its
/// interval that its direct children (same request) cover. Overlapping
/// children count once; a child reaching past the parent is clipped.
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let s = &spans[idx];
    let mut cover: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.req == s.req && c.parent == s.id)
        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    cover.sort_unstable();
    let mut covered = 0u64;
    let mut reach = s.start_ns;
    for (a, b) in cover {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    s.dur_ns() - covered
}

/// By how much the children of `spans[idx]` run past it, as a share of
/// its duration: 0 when children plus self time account for the parent
/// exactly. Only replayed children can overflow.
pub fn overflow_share(spans: &[Span], idx: usize) -> f64 {
    let s = &spans[idx];
    let children: u64 = spans
        .iter()
        .filter(|c| c.req == s.req && c.parent == s.id)
        .map(Span::dur_ns)
        .sum();
    children.saturating_sub(s.dur_ns()) as f64 / s.dur_ns().max(1) as f64
}

/// Median self time, in microseconds, of every span called `name`;
/// `None` when no such span was recorded.
pub fn median_self_us(spans: &[Span], name: &str) -> Option<f64> {
    let values: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(i, _)| self_time_ns(spans, i) as f64 / 1e3)
        .collect();
    (!values.is_empty()).then(|| crate::stats::median(&values))
}

/// Write one JSON object per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"req\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"replayed\":{}}}",
            s.req, s.id, s.parent, s.name, s.start_ns, s.end_ns, s.replayed
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            req: 1,
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            replayed: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 100, 200),
            span(2, 1, 110, 130),
            span(3, 1, 120, 150), // overlaps span 2: union is [110, 150)
            span(4, 1, 190, 230), // clipped to [190, 200)
            span(5, 2, 111, 120), // a grandchild does not count
            Span {
                req: 2, // another request's child does not count
                ..span(6, 1, 100, 200)
            },
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_time_ns(&spans, 1), 20 - 9);
        assert_eq!(self_time_ns(&spans, 2), 30);
    }

    #[test]
    fn replayed_children_line_up_inside_the_parent() {
        let mut t = RequestTrace::new(7, "http.roundtrip", 1_000, 2_000);
        let route = t.replayed_child(1, "router.route", 600);
        let load = t.replayed_child(route, "cell.load", 10);
        let rec = t.replayed_child(route, "engine.recommend", 500);
        t.nested_child(rec, "shards.scan[0]", 20, 300);
        let s = t.spans();
        assert_eq!((s[1].start_ns, s[1].end_ns), (1_000, 1_600));
        assert_eq!((s[2].start_ns, s[2].end_ns), (1_000, 1_010));
        assert_eq!((s[3].start_ns, s[3].end_ns), (1_010, 1_510));
        assert_eq!((s[4].start_ns, s[4].end_ns), (1_030, 1_330));
        assert_eq!((load, rec), (3, 4));
        assert_eq!(self_time_ns(s, 0), 400);
        assert_eq!(self_time_ns(s, 1), 600 - 510);
        assert_eq!(self_time_ns(s, 3), 200);
        assert_eq!(overflow_share(s, 0), 0.0);
        assert_eq!(median_self_us(s, "router.route"), Some(0.09));
        assert_eq!(median_self_us(s, "missing"), None);
    }

    #[test]
    fn overflow_is_the_share_children_run_past_the_parent() {
        let mut t = RequestTrace::new(1, "root", 0, 100);
        t.replayed_child(1, "a", 80);
        t.replayed_child(1, "b", 40);
        assert_eq!(overflow_share(t.spans(), 0), 0.2);
        assert_eq!(self_time_ns(t.spans(), 0), 0);
    }
}
