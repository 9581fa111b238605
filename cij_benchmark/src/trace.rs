//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls into each
//! layer's public functions; nothing inside the product is instrumented. A
//! span carries its name, start, end, the span that caused it and the
//! identifier of the op it belongs to. They stay in memory and are written
//! out (if asked) when the run ends. A layer's *self time* is its spans'
//! duration minus the part their child spans cover.
//!
//! The recorder is single-threaded by design: the ladder re-drives the
//! sequential algorithm, so spans nest strictly and a child never outlives
//! its parent.

use crate::json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layer {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Layer {
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

/// Shared by the ladder and the `TimedReader`s it hands to product kernels,
/// hence the interior mutability.
#[derive(Debug)]
pub struct Tracer(RefCell<Inner>);

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[derive(Debug)]
#[must_use = "an entered span must be exited"]
pub struct Open(u32);

impl Default for Tracer {
    fn default() -> Self {
        Tracer(RefCell::new(Inner {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }))
    }
}

impl Tracer {
    /// Starts a new op: spans entered from here on share its identifier.
    pub fn begin_op(&self) {
        self.0.borrow_mut().op += 1;
    }

    pub fn enter(&self, name: &'static str) -> Open {
        let mut t = self.0.borrow_mut();
        let id = t.spans.len() as u32;
        let span = Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: t.open.last().copied(),
            op: t.op,
        };
        t.spans.push(span);
        t.open.push(id);
        // Read the clock last so bookkeeping lands in the parent's self time.
        t.spans[id as usize].start_ns = t.origin.elapsed().as_nanos() as u64;
        Open(id)
    }

    pub fn exit(&self, open: Open) {
        let mut t = self.0.borrow_mut();
        let now = t.origin.elapsed().as_nanos() as u64;
        let top = t.open.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost-first");
        t.spans[open.0 as usize].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.0.borrow().spans.clone()
    }

    /// Per-name call count, total and self time of everything recorded.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        layers_of(&self.0.borrow().spans)
    }

    /// The recorded spans as a JSON array (written when the run ends).
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.0
                .borrow()
                .spans
                .iter()
                .map(|s| {
                    Value::obj([
                        ("name", Value::Str(s.name.into())),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("op", Value::Num(s.op as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self-time arithmetic: each span's duration is charged to its own name,
/// then subtracted from its parent's self time.
pub fn layers_of(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let layer = out.entry(s.name).or_default();
        layer.calls += 1;
        layer.total_ns += s.duration_ns();
        layer.self_ns += s.duration_ns().saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // op [0,100) → filter [10,70) → two reads [20,30) and [40,55);
        // the second read has a fill [45,50) inside it.
        let spans = vec![
            span("op", 0, 100, None),
            span("filter", 10, 70, Some(0)),
            span("read", 20, 30, Some(1)),
            span("read", 40, 55, Some(1)),
            span("fill", 45, 50, Some(3)),
        ];
        let layers = layers_of(&spans);
        assert_eq!(
            layers["op"],
            Layer {
                calls: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        assert_eq!(
            layers["filter"],
            Layer {
                calls: 1,
                total_ns: 60,
                self_ns: 35
            }
        );
        assert_eq!(
            layers["read"],
            Layer {
                calls: 2,
                total_ns: 25,
                self_ns: 20
            }
        );
        assert_eq!(layers["fill"].self_ns, 5);
        // Self times partition the root's wall.
        let total: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn recorder_nests_and_tags_ops() {
        let t = Tracer::default();
        t.begin_op();
        t.span("outer", || {
            t.span("inner", || std::hint::black_box(1 + 1));
        });
        t.begin_op();
        t.span("outer", || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, 1);
        assert_eq!(spans[2].op, 2);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.layers()["outer"].calls, 2);
        assert!(crate::json::parse(&t.to_json().to_json()).is_ok());
    }
}
