//! In-memory spans for the traced run.
//!
//! A span is `(name, start, end, parent, request id)`, timed from the
//! benchmark's side of each call into a layer. Spans stay in memory for
//! the whole run and are written out once, at exit, so recording one is
//! a push onto a vector. A layer's *self time* is its span's duration
//! minus the part of that interval its children cover; the self times
//! of a request's tree add back to its root span's duration, which is
//! how the report checks that every per-request decomposition sums to
//! client latency.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers (e.g. `client.rpc`).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Request (or G_r cell) the span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A list of spans sharing one epoch.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace; every thread of one run shares `epoch`, so their
    /// traces can be concatenated with [`Trace::append`].
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record `[start, end]` and return its index (the handle children
    /// name as their parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent,
            req,
        };
        self.push(span)
    }

    /// Record a span given in epoch nanoseconds.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move every span of `other` (same epoch) to the end of `self`,
    /// re-basing its parent indices.
    pub fn append(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, index-aligned with [`Trace::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Self times grouped by span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            out.entry(span.name).or_default().push(own);
        }
        out
    }

    /// Write one JSON object per span, self time included.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"self_ns\":{own}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's bounds (so
/// overlapping children are not subtracted twice and a child that
/// spills past its parent cannot make the parent's self time negative).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.max(s.start_ns),
                        spans[c].end_ns.min(s.end_ns),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut open: Option<(u64, u64)> = None;
            for (a, b) in iv {
                open = match open {
                    Some((oa, ob)) if a <= ob => Some((oa, ob.max(b))),
                    Some((oa, ob)) => {
                        covered += ob - oa;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((oa, ob)) = open {
                covered += ob - oa;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Place the server's share of one request inside its client span.
///
/// The client sees `rpc` (send → reply); the reply's `micros` says how
/// long the server held the job (enqueue → reply). The server span is
/// centred in the rpc interval — where inside it the transport halves
/// fall is not observable from outside, and self times do not depend on
/// it — and the replayed lane time (model predict or augment) at the
/// request's batch size sits at the end of the server span, clipped to
/// it. The rpc span's self time is then the part outside the server
/// (`outside_us`), and the server span's self time is queue wait.
/// Returns `[server, lane]`; the caller sets the lane span's parent once
/// the server span has an index.
pub fn server_spans(
    rpc: &Span,
    rpc_index: usize,
    micros: u64,
    lane: &'static str,
    lane_ns: u64,
) -> [Span; 2] {
    let server_ns = micros.saturating_mul(1000).min(rpc.dur_ns());
    let start = rpc.start_ns + (rpc.dur_ns() - server_ns) / 2;
    let server = Span {
        name: "batcher.server",
        start_ns: start,
        end_ns: start + server_ns,
        parent: Some(rpc_index),
        req: rpc.req,
    };
    let lane = Span {
        name: lane,
        start_ns: server.end_ns - lane_ns.min(server_ns),
        end_ns: server.end_ns,
        parent: None,
        req: rpc.req,
    };
    [server, lane]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: 10..50 covered once
            span("c", 90, 120, Some(0)), // spills past the root: clipped to 90..100
            span("leaf", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
    }

    /// Holds for sequential siblings, as every request's stages are.
    #[test]
    fn self_times_of_a_tree_sum_to_the_root() {
        let spans = [
            span("root", 0, 1_000, None),
            span("x", 100, 400, Some(0)),
            span("y", 500, 900, Some(0)),
            span("x1", 150, 250, Some(1)),
            span("y1", 600, 700, Some(2)),
            span("y2", 700, 800, Some(2)),
        ];
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn append_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Trace::new(epoch, 4);
        a.push(span("r", 0, 10, None));
        let mut b = Trace::new(epoch, 4);
        let root = b.push(span("r", 20, 30, None));
        b.push(span("c", 21, 25, Some(root)));
        a.append(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_times(), vec![10, 6, 4]);
    }

    /// The outside/server decomposition: rpc self time is latency minus
    /// `micros`, server self time is `micros` minus the lane time, and
    /// the three parts add back to the client latency.
    #[test]
    fn outside_and_server_decompose_client_latency() {
        let rpc = span("client.rpc", 1_000, 3_650, None); // 2650 ns latency
        let [server, mut lane] = server_spans(&rpc, 0, 2, "model.batch", 700); // micros 2
        lane.parent = Some(1);
        let own = self_times(&[rpc, server, lane]);
        assert_eq!(server.dur_ns(), 2_000);
        assert_eq!(own[0], 650, "outside = latency - server");
        assert_eq!(own[1], 1_300, "queue wait = server - lane");
        assert_eq!(own[2], 700);
        assert_eq!(own.iter().sum::<u64>(), rpc.dur_ns());
        // Centred: equal transport halves on both sides.
        assert_eq!(server.start_ns - rpc.start_ns, rpc.end_ns - server.end_ns);
    }

    #[test]
    fn replayed_lane_longer_than_the_server_is_clipped() {
        let rpc = span("client.rpc", 0, 5_000, None);
        let [server, mut lane] = server_spans(&rpc, 0, 1, "model.batch", 4_000);
        lane.parent = Some(1);
        assert_eq!(self_times(&[rpc, server, lane]), vec![4_000, 0, 1_000]);
    }

    #[test]
    fn jsonl_lists_every_span_with_its_self_time() {
        let mut t = Trace::new(Instant::now(), 2);
        let r = t.push(span("root", 0, 10, None));
        t.push(span("kid", 2, 5, Some(r)));
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"self_ns\":7"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"self_ns\":3"));
    }
}
