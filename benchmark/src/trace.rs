//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (`<layer>.<step>`), a start and an end, the span that
//! caused it, and the operation it belongs to. Spans stay in memory until the
//! run ends and are then written out as JSON lines. A span's self time is its
//! duration minus the part its child spans cover, so per-layer times add up to
//! the time of the operation.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to: `(pass, index in the pass)`.
    pub op: (usize, usize),
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread. The verify closure handed to the search is a
/// `Fn`, so recording goes through a `RefCell`.
pub struct Tracer {
    epoch: Instant,
    inner: RefCell<Inner>,
}

struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: (usize, usize),
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            inner: RefCell::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
                op: (0, 0),
            }),
        }
    }

    /// Spans recorded from now on belong to this operation.
    pub fn set_op(&self, pass: usize, index: usize) {
        self.inner.borrow_mut().op = (pass, index);
    }

    /// Run `f` inside a span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut inner = self.inner.borrow_mut();
            let index = inner.spans.len();
            let parent = inner.open.last().copied();
            let op = inner.op;
            inner.spans.push(Span {
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                op,
            });
            inner.open.push(index);
            index
        };
        let out = f();
        let mut inner = self.inner.borrow_mut();
        inner.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        inner.open.pop();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }
}

/// Self time per span name and pass, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<usize, f64>> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.ns();
        }
    }
    let mut out: BTreeMap<&'static str, BTreeMap<usize, f64>> = BTreeMap::new();
    for (span, children) in spans.iter().zip(&child_ns) {
        let self_ms = span.ns().saturating_sub(*children) as f64 / 1e6;
        *out.entry(span.name)
            .or_default()
            .entry(span.op.0)
            .or_default() += self_ms;
    }
    out
}

/// Share of the root spans' time that their direct children cover.
pub fn coverage(spans: &[Span]) -> f64 {
    let (mut roots, mut covered) = (0u64, 0u64);
    for span in spans {
        match span.parent {
            None => roots += span.ns(),
            Some(parent) if spans[parent].parent.is_none() => covered += span.ns(),
            Some(_) => {}
        }
    }
    if roots == 0 {
        return 0.0;
    }
    covered as f64 / roots as f64
}

/// Write the spans as JSON lines. The names are fixed identifiers, so they
/// need no escaping.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            text,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"pass\":{},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op.0, s.op.1
        )
        .expect("write to string");
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            Span {
                name: "casper.translate",
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
                op: (0, 0),
            },
            Span {
                name: "synthesis.search",
                start_ns: 1_000_000,
                end_ns: 9_000_000,
                parent: Some(0),
                op: (0, 0),
            },
            Span {
                name: "verifier.verify",
                start_ns: 2_000_000,
                end_ns: 5_000_000,
                parent: Some(1),
                op: (0, 0),
            },
        ];
        let by_name = self_ms_by_name(&spans);
        assert_eq!(by_name["casper.translate"][&0], 2.0);
        assert_eq!(by_name["synthesis.search"][&0], 5.0);
        assert_eq!(by_name["verifier.verify"][&0], 3.0);
        assert_eq!(coverage(&spans), 0.8);
    }

    #[test]
    fn nesting_follows_the_call_stack() {
        let tracer = Tracer::new();
        tracer.set_op(2, 7);
        tracer.span("outer", || {
            tracer.span("inner", || {});
            tracer.span("inner", || {});
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == (2, 7)));
    }
}
