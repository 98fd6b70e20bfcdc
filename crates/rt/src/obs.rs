//! Deterministic observability: structured trace events, typed counters,
//! log2-bucket histograms, and scoped wall-clock timers.
//!
//! # Design
//!
//! Simulation results in this workspace are bit-identical for a seed at
//! any thread count (see `crates/faultsim`). This module extends that
//! guarantee to *observability*: a trace captured from a same-seed run is
//! byte-identical regardless of parallelism, because
//!
//! * trace events carry only **logical** facts (addresses, counters,
//!   seeds, outcomes) — never wall-clock times, pointers, or thread ids;
//! * sequence numbers are assigned by the single [`TraceBuffer`] that
//!   owns the stream, and parallel producers hand their events over in a
//!   fixed merge order (the faultsim campaign merges per-block, exactly
//!   like its floating-point accumulators);
//! * serialization goes through [`crate::json`] (insertion-ordered
//!   objects, shortest-round-trip `f64` formatting), so the same values
//!   always produce the same bytes.
//!
//! Wall-clock durations are real diagnostics too, so [`Timer`] and the
//! `timers` section of [`Metrics`] exist — but they are quarantined:
//! timer histograms never enter a trace, and
//! [`Metrics::snapshot_json`] excludes them unless explicitly asked.
//!
//! # Cost when disabled
//!
//! Every recording entry point starts with a branch on an `enabled`
//! bool. Callers build fields behind [`TraceBuffer::enabled`] checks (or
//! use the closure-taking emitters), so a disabled `Obs` costs one
//! predictable branch per site — hot paths keep their optimized speeds
//! with observability compiled in (`obs_*` kernels in the microbench
//! suite pin this).

use std::collections::VecDeque;
use std::time::Instant;

use crate::json::{Json, JsonError};

/// The largest integer `f64` (and therefore JSON numbers as this
/// workspace writes them) can represent exactly.
const MAX_EXACT_JSON_INT: u64 = 1 << 53;

// ---------------------------------------------------------------------------
// Fields & events
// ---------------------------------------------------------------------------

/// One typed value attached to a [`TraceEvent`].
#[derive(Clone, Debug, PartialEq)]
pub enum Field {
    /// An unsigned count or index. Values above 2^53 serialize as a hex
    /// string (JSON numbers are `f64` here and would silently round).
    U64(u64),
    /// A signed quantity.
    I64(i64),
    /// A ratio or mean. Serialized via the shortest round-trip form, so
    /// equal values always produce equal bytes.
    F64(f64),
    /// A full-width identifier (RNG seed, root hash fragment); always
    /// serialized as `"0x…"` with 16 hex digits.
    Hex(u64),
    /// A short label (policy name, outcome).
    Str(&'static str),
    /// A flag.
    Bool(bool),
}

impl Field {
    fn to_json(&self) -> Json {
        match *self {
            Field::U64(v) if v < MAX_EXACT_JSON_INT => Json::Num(v as f64),
            Field::U64(v) => Json::Str(format!("{v:#x}")),
            Field::I64(v) => Json::Num(v as f64),
            Field::F64(v) => Json::Num(v),
            Field::Hex(v) => Json::Str(format!("{v:#018x}")),
            Field::Str(s) => Json::Str(s.to_string()),
            Field::Bool(b) => Json::Bool(b),
        }
    }
}

macro_rules! impl_field_from {
    ($($t:ty => $variant:ident as $cast:ty),*) => {$(
        impl From<$t> for Field {
            fn from(v: $t) -> Field {
                Field::$variant(v as $cast)
            }
        }
    )*};
}
impl_field_from!(
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64,
    u64 => U64 as u64, usize => U64 as u64,
    i32 => I64 as i64, i64 => I64 as i64,
    f64 => F64 as f64
);
impl From<bool> for Field {
    fn from(v: bool) -> Field {
        Field::Bool(v)
    }
}
impl From<&'static str> for Field {
    fn from(v: &'static str) -> Field {
        Field::Str(v)
    }
}

/// One structured trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Position in the owning stream (strictly increasing per domain;
    /// gaps mean the ring buffer dropped predecessors).
    pub seq: u64,
    /// The emitting subsystem (`"ctl"`, `"dev"`, `"rec"`, `"campaign"`).
    pub domain: &'static str,
    /// The event name within the domain.
    pub name: &'static str,
    /// Typed payload, in emission order.
    pub fields: Vec<(&'static str, Field)>,
}

impl TraceEvent {
    /// Builds an event with `seq = 0` (assigned when a [`TraceBuffer`]
    /// absorbs it).
    pub fn new(
        domain: &'static str,
        name: &'static str,
        fields: Vec<(&'static str, Field)>,
    ) -> Self {
        Self {
            seq: 0,
            domain,
            name,
            fields,
        }
    }

    /// The event as an insertion-ordered JSON object
    /// (`seq`, `domain`, `event`, then the payload fields).
    pub fn to_json(&self) -> Json {
        let mut entries = Vec::with_capacity(3 + self.fields.len());
        entries.push(("seq".to_string(), Json::Num(self.seq as f64)));
        entries.push(("domain".to_string(), Json::Str(self.domain.to_string())));
        entries.push(("event".to_string(), Json::Str(self.name.to_string())));
        for (k, v) in &self.fields {
            entries.push((k.to_string(), v.to_json()));
        }
        Json::Obj(entries)
    }

    /// The event as one compact NDJSON line (no trailing newline).
    pub fn ndjson_line(&self) -> String {
        self.to_json().to_string()
    }
}

// ---------------------------------------------------------------------------
// Trace buffer
// ---------------------------------------------------------------------------

/// Default ring capacity: large enough for every test/CLI scenario in
/// the repo, small enough to bound memory on runaway workloads.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// A ring buffer of [`TraceEvent`]s with a monotonic sequence counter.
///
/// Disabled buffers (the default) record nothing and cost one branch per
/// emission site.
#[derive(Clone, Debug, Default)]
pub struct TraceBuffer {
    enabled: bool,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    events: VecDeque<TraceEvent>,
}

impl TraceBuffer {
    /// A disabled buffer: every `emit` is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled buffer holding at most `capacity` events (oldest
    /// dropped first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace buffer needs capacity");
        Self {
            enabled: true,
            capacity,
            next_seq: 0,
            dropped: 0,
            events: VecDeque::new(),
        }
    }

    /// Whether events are being recorded. Check this before building an
    /// expensive payload.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on (keeping existing events) with the default
    /// capacity if none was set.
    pub fn enable(&mut self) {
        if self.capacity == 0 {
            self.capacity = DEFAULT_TRACE_CAPACITY;
        }
        self.enabled = true;
    }

    /// Records one event, assigning the next sequence number. No-op when
    /// disabled.
    #[inline]
    pub fn emit(&mut self, domain: &'static str, name: &'static str) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent::new(domain, name, Vec::new()));
    }

    /// Records one event with a lazily built payload. The closure runs
    /// only when the buffer is enabled, so field construction stays off
    /// the disabled hot path.
    #[inline]
    pub fn emit_with<F>(&mut self, domain: &'static str, name: &'static str, fields: F)
    where
        F: FnOnce() -> Vec<(&'static str, Field)>,
    {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent::new(domain, name, fields()));
    }

    fn push(&mut self, mut event: TraceEvent) {
        event.seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Absorbs pre-built events (from parallel producers, already in
    /// their deterministic merge order), sequencing each as if emitted
    /// here. No-op when disabled.
    pub fn absorb<I: IntoIterator<Item = TraceEvent>>(&mut self, events: I) {
        if !self.enabled {
            return;
        }
        for e in events {
            self.push(e);
        }
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events are held.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped to the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serializes every held event as NDJSON (one compact object per
    /// line, trailing newline when nonempty).
    pub fn export_ndjson(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.ndjson_line());
            out.push('\n');
        }
        out
    }

    /// Drops all held events (sequence numbers keep advancing).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

// ---------------------------------------------------------------------------
// NDJSON validation
// ---------------------------------------------------------------------------

/// A trace-validation failure: which line and what went wrong.
#[derive(Clone, Debug, PartialEq)]
pub struct NdjsonError {
    /// 1-based line number.
    pub line: usize,
    /// Description (parser errors include the byte offset in the line).
    pub message: String,
}

impl std::fmt::Display for NdjsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for NdjsonError {}

/// Parses and validates an NDJSON trace: every line must be a JSON
/// object carrying `seq` (strictly increasing per `domain`), `domain`,
/// and `event`. Returns the parsed objects in file order.
///
/// # Errors
///
/// Returns [`NdjsonError`] naming the first offending line.
pub fn parse_ndjson(text: &str) -> Result<Vec<Json>, NdjsonError> {
    let mut out = Vec::new();
    let mut last_seq: Vec<(String, f64)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let err = |message: String| NdjsonError {
            line: lineno,
            message,
        };
        let value = Json::parse(line).map_err(|e: JsonError| err(format!("{e}")))?;
        if value.entries().is_none() {
            return Err(err("not a JSON object".to_string()));
        }
        let seq = value
            .get("seq")
            .and_then(Json::as_f64)
            .ok_or_else(|| err("missing numeric \"seq\"".to_string()))?;
        let domain = value
            .get("domain")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing string \"domain\"".to_string()))?
            .to_string();
        if value.get("event").and_then(Json::as_str).is_none() {
            return Err(err("missing string \"event\"".to_string()));
        }
        match last_seq.iter_mut().find(|(d, _)| *d == domain) {
            Some((_, prev)) => {
                if seq <= *prev {
                    return Err(err(format!(
                        "seq {seq} not increasing within domain {domain:?} (prev {prev})"
                    )));
                }
                *prev = seq;
            }
            None => last_seq.push((domain, seq)),
        }
        out.push(value);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Metrics: counters + log2 histograms + timers
// ---------------------------------------------------------------------------

/// A histogram over `u64` values with power-of-two buckets.
///
/// Bucket `i` holds values whose bit length is `i` — bucket 0 is exactly
/// `{0}`, bucket 1 is `{1}`, bucket 2 is `{2,3}`, bucket 3 is `{4..8}`,
/// … — so one `[u64; 65]` covers the whole domain with relative error
/// bounded by 2x, plenty for occupancy and latency shapes.
#[derive(Clone, Debug)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile (0.0–1.0): the exclusive upper
    /// edge of the bucket holding the `ceil(q·count)`-th observation.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 { 0 } else { (1u128 << i) as u64 - 1 };
            }
        }
        self.max
    }

    /// The histogram as JSON: count/min/max/mean plus `[lower bound,
    /// count]` pairs for each nonempty bucket, ascending.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| {
                let lower = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                Json::Arr(vec![Json::Num(lower as f64), Json::Num(n as f64)])
            })
            .collect();
        Json::Obj(vec![
            ("count".to_string(), Json::Num(self.count as f64)),
            ("min".to_string(), Json::Num(self.min().unwrap_or(0) as f64)),
            ("max".to_string(), Json::Num(self.max as f64)),
            ("mean".to_string(), Json::Num(self.mean())),
            ("buckets".to_string(), Json::Arr(buckets)),
        ])
    }
}

/// A started wall-clock measurement; see [`Metrics::timer`].
///
/// Holds no reference to the metrics registry, so hot paths can start a
/// timer, keep using `&mut self`, and hand the result back at the end.
#[derive(Debug)]
pub struct Timer {
    start: Option<Instant>,
}

impl Timer {
    /// Starts a timer — armed only if `enabled` (disarmed timers never
    /// read the clock).
    #[inline]
    pub fn start(enabled: bool) -> Self {
        Self {
            start: enabled.then(Instant::now),
        }
    }

    /// Elapsed nanoseconds, `None` if the timer was disarmed.
    #[inline]
    pub fn stop(self) -> Option<u64> {
        self.start.map(|s| s.elapsed().as_nanos() as u64)
    }
}

/// Insertion-ordered registry of named counters, histograms, and timer
/// histograms. Disabled (the default) registries record nothing.
///
/// Counters and histograms hold logical quantities and are deterministic
/// for a seed; timer histograms hold wall-clock nanoseconds and are
/// **not** — [`Metrics::snapshot_json`] therefore excludes timers unless
/// `include_timers` is set.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    enabled: bool,
    counters: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, Log2Histogram)>,
    timers: Vec<(&'static str, Log2Histogram)>,
}

impl Metrics {
    /// A disabled registry: every recording call is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled registry.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Whether recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on, keeping existing values.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Adds `by` to the named counter (registering it on first use).
    #[inline]
    pub fn inc(&mut self, name: &'static str, by: u64) {
        if !self.enabled {
            return;
        }
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += by,
            None => self.counters.push((name, by)),
        }
    }

    /// Records one observation into the named histogram.
    #[inline]
    pub fn observe(&mut self, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        match self.histograms.iter_mut().find(|(n, _)| *n == name) {
            Some((_, h)) => h.record(value),
            None => {
                let mut h = Log2Histogram::new();
                h.record(value);
                self.histograms.push((name, h));
            }
        }
    }

    /// Starts a scoped timer; pass the result to [`Metrics::observe_timer`].
    #[inline]
    pub fn timer(&self) -> Timer {
        Timer::start(self.enabled)
    }

    /// Folds a finished [`Timer`] into the named timer histogram.
    #[inline]
    pub fn observe_timer(&mut self, name: &'static str, timer: Timer) {
        if let Some(ns) = timer.stop() {
            match self.timers.iter_mut().find(|(n, _)| *n == name) {
                Some((_, h)) => h.record(ns),
                None => {
                    let mut h = Log2Histogram::new();
                    h.record(ns);
                    self.timers.push((name, h));
                }
            }
        }
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }

    /// Merges another registry into this one (counter sums, histogram
    /// merges by bucket). Used to combine per-component registries into
    /// one snapshot.
    pub fn merge(&mut self, other: &Metrics) {
        if !self.enabled {
            return;
        }
        for &(name, v) in &other.counters {
            self.inc(name, v);
        }
        for (name, h) in other.histograms.iter().chain(other.timers.iter()) {
            let dest = if other.histograms.iter().any(|(n, _)| n == name) {
                &mut self.histograms
            } else {
                &mut self.timers
            };
            match dest.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => {
                    for (b, &n) in h.buckets.iter().enumerate() {
                        mine.buckets[b] += n;
                    }
                    mine.count += h.count;
                    mine.sum += h.sum;
                    mine.min = mine.min.min(h.min);
                    mine.max = mine.max.max(h.max);
                }
                None => dest.push((name, h.clone())),
            }
        }
    }

    /// The registry in Prometheus text exposition format, every metric
    /// name prefixed with `prefix_`.
    ///
    /// * Counters render as `counter` metrics.
    /// * Histograms and timer histograms render as `histogram` metrics:
    ///   cumulative `_bucket{le="…"}` lines at each nonempty log2 bucket's
    ///   inclusive upper edge (`2^i − 1`), a `+Inf` bucket, `_sum`, and
    ///   `_count`.
    /// * A metric name may carry its own label set in curly braces
    ///   (e.g. `http_latency_ns{endpoint="healthz"}`); the labels are
    ///   spliced into every emitted sample (`le` is appended for
    ///   buckets), and `# TYPE` headers are emitted once per base name.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        // Splits `latency{endpoint="x"}` into ("latency", `endpoint="x"`).
        fn split_labels(name: &str) -> (&str, Option<&str>) {
            match name.split_once('{') {
                Some((base, rest)) => (base, rest.strip_suffix('}')),
                None => (name, None),
            }
        }
        // `{existing,extra}` / `{existing}` / `{extra}` / `` as available.
        fn braces(labels: Option<&str>, extra: Option<&str>) -> String {
            match (labels, extra) {
                (Some(l), Some(e)) => format!("{{{l},{e}}}"),
                (Some(l), None) => format!("{{{l}}}"),
                (None, Some(e)) => format!("{{{e}}}"),
                (None, None) => String::new(),
            }
        }
        let mut out = String::new();
        let mut typed: Vec<String> = Vec::new();
        let mut type_line = |out: &mut String, full: &str, kind: &str| {
            if !typed.iter().any(|t| t == full) {
                out.push_str(&format!("# TYPE {full} {kind}\n"));
                typed.push(full.to_string());
            }
        };
        for &(name, v) in &self.counters {
            let (base, labels) = split_labels(name);
            let full = format!("{prefix}_{base}");
            type_line(&mut out, &full, "counter");
            out.push_str(&format!("{full}{} {v}\n", braces(labels, None)));
        }
        for (name, h) in self.histograms.iter().chain(self.timers.iter()) {
            let (base, labels) = split_labels(name);
            let full = format!("{prefix}_{base}");
            type_line(&mut out, &full, "histogram");
            let mut cumulative = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cumulative += n;
                // Log2 bucket `i` holds values of bit length `i`, so its
                // inclusive upper edge is `2^i − 1`.
                let upper = if i == 0 { 0 } else { ((1u128 << i) - 1) as u64 };
                let le = format!("le=\"{upper}\"");
                out.push_str(&format!(
                    "{full}_bucket{} {cumulative}\n",
                    braces(labels, Some(&le))
                ));
            }
            out.push_str(&format!(
                "{full}_bucket{} {}\n",
                braces(labels, Some("le=\"+Inf\"")),
                h.count
            ));
            out.push_str(&format!("{full}_sum{} {}\n", braces(labels, None), h.sum));
            out.push_str(&format!(
                "{full}_count{} {}\n",
                braces(labels, None),
                h.count
            ));
        }
        out
    }

    /// The registry as a JSON object: `counters` and `histograms` in
    /// registration order — deterministic for a seed. Set
    /// `include_timers` to append the wall-clock `timers` section
    /// (diagnostics only; never byte-stable).
    pub fn snapshot_json(&self, include_timers: bool) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|&(n, v)| (n.to_string(), Json::Num(v as f64)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(n, h)| (n.to_string(), h.to_json()))
                .collect(),
        );
        let mut entries = vec![
            ("counters".to_string(), counters),
            ("histograms".to_string(), histograms),
        ];
        if include_timers {
            entries.push((
                "timers".to_string(),
                Json::Obj(
                    self.timers
                        .iter()
                        .map(|(n, h)| (n.to_string(), h.to_json()))
                        .collect(),
                ),
            ));
        }
        Json::Obj(entries)
    }
}

// ---------------------------------------------------------------------------
// Obs: the per-component handle
// ---------------------------------------------------------------------------

/// One component's observability handle: a trace stream plus a metrics
/// registry. Constructed disabled; enabling is an explicit opt-in so
/// hot paths stay at full speed by default.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// Structured trace events (deterministic for a seed).
    pub trace: TraceBuffer,
    /// Counters/histograms/timers.
    pub metrics: Metrics,
}

impl Obs {
    /// A fully disabled handle (the default for every component).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Enables both tracing (default ring capacity) and metrics.
    pub fn enable(&mut self) {
        self.trace.enable();
        self.metrics.enable();
    }

    /// `true` if either tracing or metrics is recording.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.trace.enabled() || self.metrics.is_enabled()
    }
}

/// Builds a `Vec<(&'static str, Field)>` payload tersely:
/// `fields![("addr", addr), ("dirty", true)]`.
#[macro_export]
macro_rules! obs_fields {
    ($(($k:expr, $v:expr)),* $(,)?) => {
        vec![$(($k, $crate::obs::Field::from($v))),*]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut t = TraceBuffer::disabled();
        t.emit("d", "e");
        t.emit_with("d", "e", || panic!("fields must not be built"));
        assert!(t.is_empty());
        assert_eq!(t.export_ndjson(), "");
    }

    #[test]
    fn events_sequence_and_serialize() {
        let mut t = TraceBuffer::with_capacity(8);
        t.emit_with("ctl", "write", || obs_fields![("addr", 5u64), ("ok", true)]);
        t.emit("ctl", "flush");
        let lines = t.export_ndjson();
        assert_eq!(
            lines,
            "{\"seq\": 0, \"domain\": \"ctl\", \"event\": \"write\", \"addr\": 5, \"ok\": true}\n\
             {\"seq\": 1, \"domain\": \"ctl\", \"event\": \"flush\"}\n"
        );
        assert_eq!(parse_ndjson(&lines).unwrap().len(), 2);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut t = TraceBuffer::with_capacity(2);
        for _ in 0..5 {
            t.emit("d", "e");
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        // Gapped but increasing seqs still validate.
        assert!(parse_ndjson(&t.export_ndjson()).is_ok());
    }

    #[test]
    fn absorb_sequences_in_merge_order() {
        let mut t = TraceBuffer::with_capacity(8);
        let batch = vec![
            TraceEvent::new("sim", "a", Vec::new()),
            TraceEvent::new("sim", "b", Vec::new()),
        ];
        t.absorb(batch);
        let got: Vec<(u64, &str)> = t.events().map(|e| (e.seq, e.name)).collect();
        assert_eq!(got, vec![(0, "a"), (1, "b")]);
    }

    #[test]
    fn large_u64_and_hex_fields_round_trip_without_precision_loss() {
        let mut t = TraceBuffer::with_capacity(4);
        t.emit_with("d", "e", || {
            obs_fields![
                ("big", u64::MAX),
                ("seed", Field::Hex(0x0123_4567_89ab_cdef))
            ]
        });
        let line = t.export_ndjson();
        let doc = &parse_ndjson(&line).unwrap()[0];
        assert_eq!(
            doc.get("big").unwrap().as_str().unwrap(),
            "0xffffffffffffffff"
        );
        assert_eq!(
            doc.get("seed").unwrap().as_str().unwrap(),
            "0x0123456789abcdef"
        );
    }

    #[test]
    fn ndjson_validator_rejects_bad_traces() {
        // Not an object.
        assert_eq!(parse_ndjson("[1]\n").unwrap_err().line, 1);
        // Missing fields.
        assert!(parse_ndjson("{\"seq\": 0}\n").is_err());
        // Non-monotonic within a domain.
        let bad = "{\"seq\": 1, \"domain\": \"a\", \"event\": \"x\"}\n\
                   {\"seq\": 1, \"domain\": \"a\", \"event\": \"y\"}\n";
        assert_eq!(parse_ndjson(bad).unwrap_err().line, 2);
        // Independent domains keep independent sequences.
        let ok = "{\"seq\": 5, \"domain\": \"a\", \"event\": \"x\"}\n\
                  {\"seq\": 1, \"domain\": \"b\", \"event\": \"y\"}\n\
                  {\"seq\": 6, \"domain\": \"a\", \"event\": \"z\"}\n";
        assert_eq!(parse_ndjson(ok).unwrap().len(), 3);
        // Malformed JSON reports the line.
        assert_eq!(parse_ndjson("{\"seq\": 0,\n").unwrap_err().line, 1);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert!((h.mean() - 1025.0 / 8.0).abs() < 1e-12);
        // Bucket lower bounds: 0→0, 1→1, {2,3}→2, {4..7}→4, {8}→8, 1000→512.
        let json = h.to_json();
        let buckets = json.get("buckets").unwrap().as_array().unwrap();
        let lowers: Vec<f64> = buckets
            .iter()
            .map(|b| b.as_array().unwrap()[0].as_f64().unwrap())
            .collect();
        assert_eq!(lowers, vec![0.0, 1.0, 2.0, 4.0, 8.0, 512.0]);
        assert_eq!(h.quantile_bound(0.5), 3); // 4th of 8 lands in {2,3}
        assert!(h.quantile_bound(1.0) >= 1000);
    }

    #[test]
    fn metrics_counters_histograms_and_merge() {
        let mut a = Metrics::enabled();
        a.inc("reads", 2);
        a.inc("reads", 3);
        a.observe("occ", 4);
        let mut b = Metrics::enabled();
        b.inc("reads", 10);
        b.inc("writes", 1);
        b.observe("occ", 8);
        a.merge(&b);
        assert_eq!(a.counter("reads"), 15);
        assert_eq!(a.counter("writes"), 1);
        assert_eq!(a.histogram("occ").unwrap().count(), 2);
        // Snapshot is insertion-ordered and omits timers by default.
        let snap = a.snapshot_json(false);
        let keys: Vec<&str> = snap
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["counters", "histograms"]);
        let counter_keys: Vec<&str> = snap
            .get("counters")
            .unwrap()
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(counter_keys, vec!["reads", "writes"]);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let mut m = Metrics::disabled();
        m.inc("x", 5);
        m.observe("y", 1);
        let t = m.timer();
        m.observe_timer("z", t);
        assert_eq!(m.counter("x"), 0);
        assert!(m.histogram("y").is_none());
        let snap = m.snapshot_json(true);
        assert_eq!(snap.get("timers").unwrap().entries().unwrap().len(), 0);
    }

    #[test]
    fn timers_are_quarantined_from_deterministic_snapshots() {
        let mut m = Metrics::enabled();
        let t = m.timer();
        std::hint::black_box(0u64);
        m.observe_timer("span", t);
        assert!(m.snapshot_json(false).get("timers").is_none());
        let with = m.snapshot_json(true);
        assert_eq!(with.get("timers").unwrap().entries().unwrap()[0].0, "span");
    }

    #[test]
    fn prometheus_rendering_counters_and_histograms() {
        let mut m = Metrics::enabled();
        m.inc("requests", 3);
        m.inc("rejected{code=\"429\"}", 2);
        m.observe("queue_wait", 0);
        m.observe("queue_wait", 5);
        m.observe("queue_wait", 5);
        let text = m.to_prometheus("svc");
        assert!(text.contains("# TYPE svc_requests counter\n"));
        assert!(text.contains("svc_requests 3\n"));
        // Labels embedded in the metric name pass through.
        assert!(text.contains("# TYPE svc_rejected counter\n"));
        assert!(text.contains("svc_rejected{code=\"429\"} 2\n"));
        // Histogram: 0 lands in bucket le="0", the 5s in le="7"; buckets
        // are cumulative and close with +Inf, sum, count.
        assert!(text.contains("# TYPE svc_queue_wait histogram\n"));
        assert!(text.contains("svc_queue_wait_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("svc_queue_wait_bucket{le=\"7\"} 3\n"));
        assert!(text.contains("svc_queue_wait_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("svc_queue_wait_sum 10\n"));
        assert!(text.contains("svc_queue_wait_count 3\n"));
    }

    #[test]
    fn prometheus_labelled_histogram_merges_le_into_labels() {
        let mut m = Metrics::enabled();
        let t = m.timer();
        m.observe_timer("latency_ns{endpoint=\"healthz\"}", t);
        let text = m.to_prometheus("svc");
        assert!(text.contains("# TYPE svc_latency_ns histogram\n"));
        assert!(
            text.contains("svc_latency_ns_bucket{endpoint=\"healthz\",le=\"+Inf\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("svc_latency_ns_count{endpoint=\"healthz\"} 1\n"));
        // One TYPE header per base name even with several label sets.
        let t2 = m.timer();
        m.observe_timer("latency_ns{endpoint=\"metrics\"}", t2);
        let text = m.to_prometheus("svc");
        assert_eq!(text.matches("# TYPE svc_latency_ns histogram").count(), 1);
    }

    #[test]
    fn disarmed_timer_never_reads_the_clock() {
        let t = Timer::start(false);
        assert_eq!(t.stop(), None);
    }

    #[test]
    fn obs_handle_default_is_fully_disabled() {
        let mut o = Obs::disabled();
        assert!(!o.is_enabled());
        o.trace.emit("d", "e");
        o.metrics.inc("c", 1);
        assert!(o.trace.is_empty());
        assert_eq!(o.metrics.counter("c"), 0);
        o.enable();
        assert!(o.is_enabled());
        o.trace.emit("d", "e");
        assert_eq!(o.trace.len(), 1);
    }
}
