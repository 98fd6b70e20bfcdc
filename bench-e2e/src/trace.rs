//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the tracer was
//! made), the span that was open when it started, and a request id. The
//! spans stay in memory until the run ends; [`Tracer::fold`] then turns
//! them into per-name call counts, durations and self time (a span's
//! duration minus its children's; children that ran concurrently on
//! other threads can cover more than the parent, which then shows no
//! self time). A disabled tracer records nothing and never reads the
//! clock.

use std::io::Write;
use std::time::Instant;

use soteria_rt::json::Json;

use crate::stats::{self, quantile};

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.controller.commit`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, [`NO_PARENT`] for a root span.
    pub parent: u32,
    /// The request (or call) this span serves.
    pub request: u64,
}

/// A handle to an open span; [`Tracer::exit`] closes it.
#[derive(Clone, Copy, Debug)]
#[must_use = "close the span with Tracer::exit"]
pub struct Open(u32);

/// Records spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per-name totals from [`Tracer::fold`].
#[derive(Clone, Debug, Default)]
pub struct SpanStats {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Every duration, nanoseconds (for percentiles).
    pub durations_ns: Vec<f64>,
}

impl SpanStats {
    /// The `q`-quantile of the durations, in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let mut d = self.durations_ns.clone();
        quantile(&mut d, q) / 1e3
    }

    /// Mean duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64 / 1e3
    }
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: stats::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn clock(&self) -> u64 {
        stats::ns_since(self.epoch)
    }

    /// Opens a span named `name` for `request`, nested in the innermost
    /// open span.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.clock();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: Open) {
        if !self.enabled {
            return;
        }
        let end = self.clock();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(span.0), "spans close innermost first");
        if let Some(s) = self.spans.get_mut(span.0 as usize) {
            s.end_ns = end;
        }
    }

    /// Records a span measured elsewhere (on another thread), nested in
    /// the innermost open span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns: since(start),
            end_ns: since(end),
            parent,
            request,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, request);
        let out = f();
        self.exit(open);
        out
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Folds the spans into per-name statistics, in first-seen order.
    pub fn fold(&self) -> Vec<(&'static str, SpanStats)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, SpanStats)> = Vec::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let i = match out.iter().position(|(n, _)| *n == s.name) {
                Some(i) => i,
                None => {
                    out.push((s.name, SpanStats::default()));
                    out.len() - 1
                }
            };
            let d = s.end_ns - s.start_ns;
            let st = &mut out[i].1;
            st.count += 1;
            st.total_ns += d;
            st.self_ns += d.saturating_sub(children);
            st.durations_ns.push(d as f64);
        }
        out
    }

    /// Writes the spans as NDJSON, one object per line.
    ///
    /// # Errors
    ///
    /// Any error of `out`.
    pub fn write_ndjson(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                Json::Null
            } else {
                Json::Num(f64::from(s.parent))
            };
            let line = Json::Obj(vec![
                ("id".into(), Json::Num(id as f64)),
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ("parent".into(), parent),
                ("request".into(), Json::Num(s.request as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", 1, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert!(t.fold().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 3);
        let inner = t.enter("inner", 3);
        t.exit(inner);
        t.exit(outer);
        // Rewrite times for an exact check.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        t.spans[1].start_ns = 10;
        t.spans[1].end_ns = 40;
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, NO_PARENT);
        let folded = t.fold();
        assert_eq!(folded[0].0, "outer");
        assert_eq!((folded[0].1.total_ns, folded[0].1.self_ns), (100, 70));
        assert_eq!((folded[1].1.total_ns, folded[1].1.self_ns), (30, 30));
        let mut nd = Vec::new();
        t.write_ndjson(&mut nd).expect("in-memory write");
        let nd = String::from_utf8(nd).expect("utf-8");
        let lines: Vec<Json> = nd.lines().map(|l| Json::parse(l).expect("json")).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(lines[1].get("request").and_then(Json::as_f64), Some(3.0));
    }
}
