//! Harness-side spans. A span is opened and closed around a call into
//! one of the program's layers (a client request, `mis2_with_config`,
//! `AmgHierarchy::build`, a correctness check); nothing is recorded inside
//! the program. Spans stay in memory for the whole run and are written
//! out once, at the end.
//!
//! A span is named `<layer>.<what>`; the layer is the text before the
//! first dot. A span's self time is its duration minus the part its
//! child spans cover, and a layer's self time is the sum over its spans,
//! so the layer self times of one op add up to the op's duration exactly.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: u32,
    /// The op (request, session, kernel call) this span belongs to: spans
    /// of one op share it.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle to an open span; `Recorder::end` closes it.
#[must_use]
pub struct Open(u32);

/// One thread's span recorder. When disabled, `begin` and `end` read no
/// clock and store nothing, so the untraced run pays one branch per call.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    next_op: u64,
    op_stride: u64,
}

impl Recorder {
    /// `origin` is the run's common time zero. Client `lane` of `lanes`
    /// numbers its ops `lane, lane + lanes, …`, so ids never collide when
    /// recorders are merged.
    pub fn new(enabled: bool, origin: Instant, lane: usize, lanes: usize) -> Recorder {
        Recorder {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: lane as u64,
            op_stride: lanes.max(1) as u64,
        }
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let op_id = match parent {
            NO_PARENT => {
                self.next_op += self.op_stride;
                self.next_op - self.op_stride
            }
            p => self.spans[p as usize].op_id,
        };
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op_id,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "a span was left open");
        self.spans
    }
}

/// Concatenate per-thread span lists, re-basing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    for list in lists {
        let base = all.len() as u32;
        all.extend(list.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    all
}

/// Self time of every span: duration minus the time its children cover.
/// The children of one span never overlap (a recorder closes spans
/// innermost first), so covered time is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            covered[s.parent as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Self time per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut layers = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *layers.entry(s.layer()).or_insert(0) += own;
    }
    layers
}

/// Total duration of the root spans: the time the ops took.
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(Span::duration_ns)
        .sum()
}

/// Spans kept in a trace file; a hot run records more, and the file notes
/// how many were dropped. Layer totals always cover every span.
pub const MAX_SPANS_WRITTEN: usize = 50_000;

/// The trace document: every span with its self time, and layer totals.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Value {
    let own = self_times(spans);
    let layers = layer_self_ns(spans);
    let total = root_ns(spans);
    Value::obj([
        ("workload", Value::str(workload)),
        ("seed", Value::from(seed)),
        ("spans_recorded", Value::from(spans.len() as u64)),
        (
            "spans_written",
            Value::from(spans.len().min(MAX_SPANS_WRITTEN) as u64),
        ),
        ("op_ns_total", Value::from(total)),
        (
            "layer_self_ns",
            Value::obj(layers.iter().map(|(k, v)| (*k, Value::from(*v)))),
        ),
        (
            "spans",
            Value::Arr(
                spans
                    .iter()
                    .zip(&own)
                    .take(MAX_SPANS_WRITTEN)
                    .map(|(s, own)| {
                        Value::obj([
                            ("name", Value::str(s.name)),
                            ("start_ns", Value::from(s.start_ns)),
                            ("end_ns", Value::from(s.end_ns)),
                            (
                                "parent",
                                match s.parent {
                                    NO_PARENT => Value::Null,
                                    p => Value::from(u64::from(p)),
                                },
                            ),
                            ("op_id", Value::from(s.op_id)),
                            ("self_ns", Value::from(*own)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, op: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: op,
        }
    }

    #[test]
    fn recorder_nests_and_numbers_ops() {
        let mut r = Recorder::new(true, Instant::now(), 1, 2);
        for _ in 0..2 {
            let op = r.begin("op");
            let a = r.begin("core.mis2");
            r.end(a);
            let b = r.begin("check.equal");
            r.end(b);
            r.end(op);
        }
        let spans = r.into_spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].parent, spans[2].parent), (0, 0));
        assert_eq!((spans[4].parent, spans[5].parent), (3, 3));
        // Lane 1 of 2 numbers its ops 1, 3, …
        assert!(spans[..3].iter().all(|s| s.op_id == 1));
        assert!(spans[3..].iter().all(|s| s.op_id == 3));
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].layer(), "core");
        assert_eq!(spans[0].layer(), "op");
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut r = Recorder::new(false, Instant::now(), 0, 1);
        let op = r.begin("op");
        r.end(op);
        assert!(r.into_spans().is_empty());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut r = Recorder::new(true, Instant::now(), 0, 1);
        let outer = r.begin("op");
        let _inner = r.begin("core.mis2");
        r.end(outer);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("op", 0, 100, NO_PARENT, 0),
            span("core.mis2", 10, 70, 0, 0),
            span("core.inner", 20, 30, 1, 0),
            span("check.equal", 70, 95, 0, 0),
        ];
        assert_eq!(self_times(&spans), vec![15, 50, 10, 25]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["op"], 15);
        assert_eq!(layers["core"], 60);
        assert_eq!(layers["check"], 25);
        // Layer self times add up to the op's duration exactly.
        assert_eq!(layers.values().sum::<u64>(), root_ns(&spans));
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span("op", 0, 10, NO_PARENT, 0), span("core.x", 1, 2, 0, 0)];
        let b = vec![span("op", 5, 15, NO_PARENT, 1), span("core.x", 6, 7, 0, 1)];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, 2);
        assert_eq!(all[2].parent, NO_PARENT);
        assert_eq!(root_ns(&all), 20);
    }

    #[test]
    fn trace_document_carries_spans_and_layer_totals() {
        let spans = vec![
            span("op", 0, 100, NO_PARENT, 0),
            span("core.mis2", 10, 70, 0, 0),
        ];
        let doc = to_json("kernel_mesh", 3, &spans);
        let back = crate::json::parse(&doc.render()).unwrap();
        assert_eq!(back.get("workload"), Some(&Value::str("kernel_mesh")));
        assert_eq!(back.get("op_ns_total").unwrap().as_f64(), Some(100.0));
        let layers = back.get("layer_self_ns").unwrap();
        assert_eq!(layers.get("core").unwrap().as_f64(), Some(60.0));
        let Some(Value::Arr(spans)) = back.get("spans") else {
            panic!("`spans` is an array");
        };
        let first = &spans[0];
        assert_eq!(first.get("parent"), Some(&Value::Null));
        assert_eq!(first.get("self_ns").unwrap().as_f64(), Some(40.0));
    }
}
