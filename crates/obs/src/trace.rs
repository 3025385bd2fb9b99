//! Flight recorder and Chrome trace-event / Perfetto export.
//!
//! Every thread that emits an event owns a private bounded ring buffer
//! ([`TRACE_RING_CAPACITY`] events, oldest dropped first), registered in
//! a process-global list the exporter drains. The hot path is
//! contention-free: a thread only ever touches its own ring, and the
//! per-ring lock is taken by another thread exclusively during export or
//! [`reset`], so recording never blocks on a peer. When recording is off
//! the entire layer costs one relaxed atomic load per call site, and
//! with the crate's `enabled` feature off it compiles away entirely.
//!
//! Three event kinds are recorded:
//!
//! * **closed spans** — [`SpanGuard`](crate::span::SpanGuard) drops feed
//!   `(name, start, end, depth)` here; recording only *closed* spans
//!   means ring overflow drops whole spans and the exported `B`/`E`
//!   stream stays balanced by construction;
//! * **counter samples** — a named running total at a point in time
//!   (Chrome `C` events, rendered as a value track in Perfetto);
//! * **instants** — point events such as fault-ledger transitions
//!   (Chrome `i` events), optionally tagged with a static detail string.
//!
//! Recording is armed by the presence of a non-empty `SMA_TRACE`
//! environment variable (its value is the output path report binaries
//! pass to [`export_to_env`]) or in-process via [`set_recording`]. Span
//! capture additionally requires the observability level to be at least
//! `Summary` — an inert span guard never reaches the recorder.
//!
//! [`chrome_json`] renders the whole cross-thread forest in the Chrome
//! trace-event JSON format (`{"traceEvents": [...]}`), loadable in
//! Perfetto or `chrome://tracing`, and [`latency_summary`] folds the
//! same spans into per-stage p50/p95/p99 latency via
//! [`HistogramSnapshot`].

use crate::json::JsonValue;
#[cfg(feature = "enabled")]
use crate::metrics::HistogramSnapshot;

#[cfg(feature = "enabled")]
use std::collections::VecDeque;
#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};
#[cfg(feature = "enabled")]
use std::sync::{Arc, Mutex, OnceLock};
#[cfg(feature = "enabled")]
use std::time::Instant;

/// Bounded per-thread ring capacity, in events. Memory is bounded at
/// roughly `threads * TRACE_RING_CAPACITY * size_of::<Event>()`; when a
/// ring is full the oldest event is dropped and counted in
/// [`events_dropped`].
pub const TRACE_RING_CAPACITY: usize = 4096;

/// One closed span as the recorder stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (the leaf, not the `/`-joined path — paths are
    /// reconstructed from containment at export time).
    pub name: &'static str,
    /// Start time in nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// End time in nanoseconds since the recorder epoch.
    pub end_ns: u64,
    /// Nesting depth at close (1 = thread-root span).
    pub depth: u32,
}

/// Per-stage latency distribution derived from recorded spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageLatency {
    /// `/`-joined span path, reconstructed from per-thread containment.
    pub path: String,
    /// Number of recorded closes, summed across threads.
    pub count: u64,
    /// Median latency in microseconds (bucket upper-edge estimate).
    pub p50_us: u64,
    /// 95th-percentile latency in microseconds.
    pub p95_us: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: u64,
    /// Largest recorded latency in microseconds (exact).
    pub max_us: u64,
}

#[cfg(feature = "enabled")]
#[derive(Debug, Clone, Copy)]
enum Event {
    Span(SpanEvent),
    Counter {
        name: &'static str,
        t_ns: u64,
        value: u64,
    },
    Instant {
        name: &'static str,
        detail: Option<&'static str>,
        t_ns: u64,
    },
}

#[cfg(feature = "enabled")]
struct RingState {
    events: VecDeque<Event>,
    dropped: u64,
}

#[cfg(feature = "enabled")]
struct ThreadRing {
    tid: u64,
    label: String,
    state: Mutex<RingState>,
}

#[cfg(feature = "enabled")]
impl ThreadRing {
    fn push(&self, ev: Event) {
        let Ok(mut s) = self.state.lock() else {
            return;
        };
        if s.events.len() >= TRACE_RING_CAPACITY {
            s.events.pop_front();
            s.dropped += 1;
        }
        s.events.push_back(ev);
    }
}

#[cfg(feature = "enabled")]
fn rings() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

#[cfg(feature = "enabled")]
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[cfg(feature = "enabled")]
fn ns_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

#[cfg(feature = "enabled")]
thread_local! {
    static RING: std::cell::OnceCell<Arc<ThreadRing>> = const { std::cell::OnceCell::new() };
}

#[cfg(feature = "enabled")]
fn with_ring(f: impl FnOnce(&ThreadRing)) {
    RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let cur = std::thread::current();
            let mut registry = rings().lock().ok();
            // A named thread takes over a retired ring of its name — one
            // whose owner has exited, so only the registry still holds
            // it. Threads spawned per call (the pruned driver's row
            // bands) then share one bounded ring per name instead of
            // registering one more with every spawn.
            if let (Some(name), Some(r)) = (cur.name(), registry.as_ref()) {
                if let Some(retired) = r
                    .iter()
                    .find(|ring| ring.label == name && Arc::strong_count(ring) == 1)
                {
                    return Arc::clone(retired);
                }
            }
            static NEXT_TID: AtomicU64 = AtomicU64::new(1);
            let tid = NEXT_TID.fetch_add(1, Relaxed);
            let label = match cur.name() {
                Some(n) => n.to_string(),
                None => format!("thread-{tid}"),
            };
            let ring = Arc::new(ThreadRing {
                tid,
                label,
                state: Mutex::new(RingState {
                    events: VecDeque::new(),
                    dropped: 0,
                }),
            });
            if let Some(r) = registry.as_mut() {
                r.push(Arc::clone(&ring));
            }
            ring
        });
        f(ring);
    });
}

/// Recording switch: `u8::MAX` until the environment is consulted.
#[cfg(feature = "enabled")]
static RECORDING: AtomicU8 = AtomicU8::new(u8::MAX);

/// Whether the flight recorder is capturing events. First call reads the
/// `SMA_TRACE` environment variable (any non-empty value arms it); later
/// calls are one relaxed atomic load. Always `false` without the
/// `enabled` feature.
#[inline]
pub fn recording() -> bool {
    #[cfg(feature = "enabled")]
    {
        match RECORDING.load(Relaxed) {
            0 => false,
            u8::MAX => init_from_env(),
            _ => true,
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

#[cfg(feature = "enabled")]
#[cold]
fn init_from_env() -> bool {
    let var = std::env::var("SMA_TRACE").ok();
    let armed = var.as_deref().is_some_and(|v| !v.trim().is_empty());
    if let Some(v) = var.as_deref() {
        // Set-but-blank is the one unparseable spelling this knob has: it
        // looks armed in the environment but records nothing.
        if v.trim().is_empty() {
            crate::env::warn_misparse(
                "SMA_TRACE",
                v,
                "a non-empty output path (e.g. trace.json)",
                "flight recorder stays off",
            );
        }
    }
    if armed {
        let _ = epoch();
    }
    let _ = RECORDING.compare_exchange(u8::MAX, armed as u8, Relaxed, Relaxed);
    RECORDING.load(Relaxed) != 0
}

/// Arm or disarm the recorder in-process (tests, report binaries,
/// conformance combos). No-op without the `enabled` feature.
pub fn set_recording(on: bool) {
    #[cfg(feature = "enabled")]
    {
        if on {
            let _ = epoch();
        }
        RECORDING.store(on as u8, Relaxed);
    }
    #[cfg(not(feature = "enabled"))]
    let _ = on;
}

/// The `SMA_TRACE` output path, if the variable is set and non-empty.
pub fn env_path() -> Option<String> {
    std::env::var("SMA_TRACE")
        .ok()
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
}

/// Record one closed span on the calling thread. Called from the span
/// guard's drop; also usable directly by custom instrumentation.
/// `depth` is the nesting depth at close (1 = thread-root span).
#[inline]
pub fn record_span(name: &'static str, start: std::time::Instant, depth: usize) {
    #[cfg(feature = "enabled")]
    {
        if !recording() {
            return;
        }
        let end_ns = ns_since_epoch(Instant::now());
        let start_ns = ns_since_epoch(start);
        with_ring(|ring| {
            ring.push(Event::Span(SpanEvent {
                name,
                start_ns: start_ns.min(end_ns),
                end_ns,
                depth: depth.min(u32::MAX as usize) as u32,
            }));
        });
    }
    #[cfg(not(feature = "enabled"))]
    let _ = (name, start, depth);
}

/// Record a named running total at the current instant (rendered as a
/// Perfetto counter track). Intended for low-frequency call sites such
/// as cache hit/miss totals or fault-ledger tallies — not per-pixel
/// loops.
#[inline]
pub fn counter(name: &'static str, value: u64) {
    #[cfg(feature = "enabled")]
    {
        if !recording() {
            return;
        }
        let t_ns = ns_since_epoch(Instant::now());
        with_ring(|ring| ring.push(Event::Counter { name, t_ns, value }));
    }
    #[cfg(not(feature = "enabled"))]
    let _ = (name, value);
}

/// Record a point event (e.g. a pipeline phase boundary).
#[inline]
pub fn instant(name: &'static str) {
    instant_with_opt(name, None);
}

/// Record a point event carrying a static detail string (e.g. a
/// fault-ledger transition tagged with its injection site).
#[inline]
pub fn instant_with(name: &'static str, detail: &'static str) {
    instant_with_opt(name, Some(detail));
}

#[inline]
fn instant_with_opt(name: &'static str, detail: Option<&'static str>) {
    #[cfg(feature = "enabled")]
    {
        if !recording() {
            return;
        }
        let t_ns = ns_since_epoch(Instant::now());
        with_ring(|ring| ring.push(Event::Instant { name, detail, t_ns }));
    }
    #[cfg(not(feature = "enabled"))]
    let _ = (name, detail);
}

/// Total events dropped to ring overflow, summed over all threads.
pub fn events_dropped() -> u64 {
    #[cfg(feature = "enabled")]
    {
        let Ok(r) = rings().lock() else { return 0 };
        r.iter()
            .map(|ring| ring.state.lock().map_or(0, |s| s.dropped))
            .sum()
    }
    #[cfg(not(feature = "enabled"))]
    {
        0
    }
}

/// Clear every thread's ring (events and drop counts). Thread
/// registrations are retained, like
/// [`metrics::reset`](crate::metrics::reset).
pub fn reset() {
    #[cfg(feature = "enabled")]
    {
        let Ok(r) = rings().lock() else { return };
        for ring in r.iter() {
            if let Ok(mut s) = ring.state.lock() {
                s.events.clear();
                s.dropped = 0;
            }
        }
    }
}

/// Everything exported for one thread: a snapshot taken under the ring
/// lock, already separated by kind.
#[cfg(feature = "enabled")]
struct ThreadCapture {
    tid: u64,
    label: String,
    spans: Vec<SpanEvent>,
    counters: Vec<(u64, &'static str, u64)>,
    instants: Vec<(u64, &'static str, Option<&'static str>)>,
}

#[cfg(feature = "enabled")]
fn capture_all() -> Vec<ThreadCapture> {
    let Ok(r) = rings().lock() else {
        return Vec::new();
    };
    let mut out = Vec::with_capacity(r.len());
    for ring in r.iter() {
        let Ok(s) = ring.state.lock() else { continue };
        let mut cap = ThreadCapture {
            tid: ring.tid,
            label: ring.label.clone(),
            spans: Vec::new(),
            counters: Vec::new(),
            instants: Vec::new(),
        };
        for ev in s.events.iter() {
            match *ev {
                Event::Span(sp) => cap.spans.push(sp),
                Event::Counter { name, t_ns, value } => cap.counters.push((t_ns, name, value)),
                Event::Instant { name, detail, t_ns } => cap.instants.push((t_ns, name, detail)),
            }
        }
        out.push(cap);
    }
    out.sort_by_key(|c| c.tid);
    out
}

/// Sort spans into emission order: by start time, ties broken by depth
/// (parents first) then by later end first, so a stack replay recovers
/// the original nesting exactly.
#[cfg(feature = "enabled")]
fn sort_spans(spans: &mut [SpanEvent]) {
    spans.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(a.depth.cmp(&b.depth))
            .then(b.end_ns.cmp(&a.end_ns))
    });
}

/// One step of a nesting replay: a span opening (with its reconstructed
/// `/`-joined path and clamped end time) or a span closing.
#[cfg(feature = "enabled")]
enum Replayed {
    Open { span: SpanEvent, path: String },
    Close { end_ns: u64, name: &'static str },
}

/// Replay one thread's sorted spans through an enclosure stack, yielding
/// `Open` steps in `B` order and `Close` steps in `E` (LIFO) order. End
/// times are clamped to the enclosing span so the emitted stream is
/// properly nested even if clock jitter produced a pathological overlap.
#[cfg(feature = "enabled")]
fn replay_spans(spans: &[SpanEvent]) -> Vec<Replayed> {
    let mut out = Vec::with_capacity(spans.len() * 2);
    // Stack of (clamped end_ns, name) for currently open spans.
    let mut stack: Vec<(u64, &'static str)> = Vec::new();
    let mut path = String::new();
    for sp in spans {
        while let Some(&(end_ns, name)) = stack.last() {
            if end_ns <= sp.start_ns {
                out.push(Replayed::Close { end_ns, name });
                stack.pop();
                let keep = stack
                    .iter()
                    .map(|(_, n)| n.len() + 1)
                    .sum::<usize>()
                    .saturating_sub(1);
                path.truncate(keep);
            } else {
                break;
            }
        }
        let clamped_end = match stack.last() {
            Some(&(parent_end, _)) => sp.end_ns.min(parent_end).max(sp.start_ns),
            None => sp.end_ns.max(sp.start_ns),
        };
        if !path.is_empty() {
            path.push('/');
        }
        path.push_str(sp.name);
        out.push(Replayed::Open {
            span: SpanEvent {
                end_ns: clamped_end,
                ..*sp
            },
            path: path.clone(),
        });
        stack.push((clamped_end, sp.name));
    }
    while let Some((end_ns, name)) = stack.pop() {
        out.push(Replayed::Close { end_ns, name });
    }
    out
}

#[cfg(feature = "enabled")]
fn micros(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

#[cfg(feature = "enabled")]
fn meta_event(kind: &str, tid: f64, label: &str) -> JsonValue {
    JsonValue::Obj(vec![
        ("name".into(), JsonValue::Str(kind.into())),
        ("ph".into(), JsonValue::Str("M".into())),
        ("pid".into(), JsonValue::Num(1.0)),
        ("tid".into(), JsonValue::Num(tid)),
        (
            "args".into(),
            JsonValue::Obj(vec![("name".into(), JsonValue::Str(label.into()))]),
        ),
    ])
}

#[cfg(feature = "enabled")]
fn span_edge(ph: &str, name: &str, ts_ns: u64, tid: f64) -> JsonValue {
    JsonValue::Obj(vec![
        ("name".into(), JsonValue::Str(name.into())),
        ("ph".into(), JsonValue::Str(ph.into())),
        ("ts".into(), JsonValue::Num(micros(ts_ns))),
        ("pid".into(), JsonValue::Num(1.0)),
        ("tid".into(), JsonValue::Num(tid)),
    ])
}

/// Render the recorded forest as Chrome trace-event JSON
/// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`), loadable in
/// Perfetto. Per thread, `B`/`E` events are balanced and properly nested
/// by construction; timestamps (microseconds since the recorder epoch)
/// are nondecreasing within each thread. Counter samples map to `C`
/// events, instants to `i`, and each thread gets a `thread_name`
/// metadata record. Without the `enabled` feature the result is a valid
/// document with an empty event list.
pub fn chrome_json() -> String {
    #[cfg_attr(not(feature = "enabled"), allow(unused_mut))]
    let mut events: Vec<JsonValue> = vec![JsonValue::Obj(vec![
        ("name".into(), JsonValue::Str("process_name".into())),
        ("ph".into(), JsonValue::Str("M".into())),
        ("pid".into(), JsonValue::Num(1.0)),
        ("tid".into(), JsonValue::Num(0.0)),
        (
            "args".into(),
            JsonValue::Obj(vec![("name".into(), JsonValue::Str("sma-pipeline".into()))]),
        ),
    ])];
    #[cfg(feature = "enabled")]
    {
        for cap in capture_all() {
            let tid = cap.tid as f64;
            events.push(meta_event("thread_name", tid, &cap.label));
            let mut spans = cap.spans.clone();
            sort_spans(&mut spans);
            // (ts, kind, event): kind 0 = span edge, kind 1 = sample;
            // the span edges are appended in replay order, which is
            // already nondecreasing in ts and nesting-correct.
            let mut timeline: Vec<(u64, u8, JsonValue)> = Vec::new();
            for step in replay_spans(&spans) {
                match step {
                    Replayed::Open { span, .. } => timeline.push((
                        span.start_ns,
                        0,
                        span_edge("B", span.name, span.start_ns, tid),
                    )),
                    Replayed::Close { end_ns, name } => {
                        timeline.push((end_ns, 0, span_edge("E", name, end_ns, tid)))
                    }
                }
            }
            for (t_ns, name, value) in &cap.counters {
                timeline.push((
                    *t_ns,
                    1,
                    JsonValue::Obj(vec![
                        ("name".into(), JsonValue::Str((*name).into())),
                        ("ph".into(), JsonValue::Str("C".into())),
                        ("ts".into(), JsonValue::Num(micros(*t_ns))),
                        ("pid".into(), JsonValue::Num(1.0)),
                        ("tid".into(), JsonValue::Num(tid)),
                        (
                            "args".into(),
                            JsonValue::Obj(vec![("value".into(), JsonValue::Num(*value as f64))]),
                        ),
                    ]),
                ));
            }
            for (t_ns, name, detail) in &cap.instants {
                let mut fields = vec![
                    ("name".into(), JsonValue::Str((*name).into())),
                    ("ph".into(), JsonValue::Str("i".into())),
                    ("s".into(), JsonValue::Str("t".into())),
                    ("ts".into(), JsonValue::Num(micros(*t_ns))),
                    ("pid".into(), JsonValue::Num(1.0)),
                    ("tid".into(), JsonValue::Num(tid)),
                ];
                if let Some(d) = detail {
                    fields.push((
                        "args".into(),
                        JsonValue::Obj(vec![("detail".into(), JsonValue::Str((*d).into()))]),
                    ));
                }
                timeline.push((*t_ns, 1, JsonValue::Obj(fields)));
            }
            // Stable sort: span-edge relative order (kind 0) is
            // preserved at equal timestamps; samples (kind 1) slot after
            // them so they never interleave a B/E pair.
            timeline.sort_by_key(|(t, kind, _)| (*t, *kind));
            events.extend(timeline.into_iter().map(|(_, _, ev)| ev));
        }
    }
    let doc = JsonValue::Obj(vec![
        ("traceEvents".into(), JsonValue::Arr(events)),
        ("displayTimeUnit".into(), JsonValue::Str("ms".into())),
    ]);
    crate::json::write_pretty(&doc)
}

/// Write [`chrome_json`] to the `SMA_TRACE` path, if set. Returns the
/// path written to (`None` when `SMA_TRACE` is unset or empty).
///
/// # Errors
/// Propagates the I/O error if the path cannot be written.
pub fn export_to_env() -> std::io::Result<Option<String>> {
    match env_path() {
        Some(path) => {
            std::fs::write(&path, chrome_json())?;
            Ok(Some(path))
        }
        None => Ok(None),
    }
}

/// Fold recorded spans into per-stage latency distributions: spans are
/// grouped by reconstructed `/`-joined path (merged across threads, in
/// first-seen order) and each group's durations feed a
/// [`HistogramSnapshot`] whose
/// p50/p95/p99 upper-edge estimates are reported in microseconds. Empty
/// without recorded spans.
pub fn latency_summary() -> Vec<StageLatency> {
    #[cfg(feature = "enabled")]
    {
        let mut order: Vec<String> = Vec::new();
        let mut hists: std::collections::HashMap<String, HistogramSnapshot> =
            std::collections::HashMap::new();
        for cap in capture_all() {
            let mut spans = cap.spans.clone();
            sort_spans(&mut spans);
            for step in replay_spans(&spans) {
                if let Replayed::Open { span, path } = step {
                    let h = hists.entry(path.clone()).or_insert_with(|| {
                        order.push(path);
                        HistogramSnapshot::empty()
                    });
                    h.observe((span.end_ns - span.start_ns) / 1000);
                }
            }
        }
        order
            .into_iter()
            .map(|path| {
                let h = hists.get(&path).copied().unwrap_or_default();
                StageLatency {
                    path,
                    count: h.count,
                    p50_us: h.percentile(0.50),
                    p95_us: h.percentile(0.95),
                    p99_us: h.percentile(0.99),
                    max_us: h.max,
                }
            })
            .collect()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Vec::new()
    }
}

/// Structural summary returned by [`validate_chrome_json`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total `B`/`E`/`C`/`i` events (metadata excluded).
    pub events: usize,
    /// Number of distinct `tid`s seen on non-metadata events.
    pub threads: usize,
    /// Number of complete `B`/`E` span pairs.
    pub spans: usize,
    /// Deepest `B` nesting observed on any thread.
    pub max_depth: usize,
}

/// Structurally validate a Chrome trace-event JSON document: every
/// thread's `B`/`E` events must pair up LIFO with matching names, and
/// timestamps must be nondecreasing per thread. This mirrors the check
/// CI applies to exported traces; tests call it directly on
/// [`chrome_json`] output.
///
/// # Errors
/// Returns a description of the first structural violation found.
pub fn validate_chrome_json(text: &str) -> Result<TraceCheck, String> {
    let doc = crate::json::parse(text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = match doc.get("traceEvents") {
        Some(JsonValue::Arr(evs)) => evs,
        _ => return Err("missing traceEvents array".into()),
    };
    let mut stacks: std::collections::HashMap<u64, Vec<String>> = std::collections::HashMap::new();
    let mut last_ts: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    let mut check = TraceCheck {
        events: 0,
        threads: 0,
        spans: 0,
        max_depth: 0,
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = match ev.get("ph").and_then(JsonValue::as_str) {
            Some(s) => s.to_string(),
            None => return Err(format!("event {i} has no ph")),
        };
        if ph == "M" {
            continue;
        }
        let tid = match ev.get("tid").and_then(JsonValue::as_f64) {
            Some(n) => n as u64,
            None => return Err(format!("event {i} ({ph}) has no tid")),
        };
        let ts = match ev.get("ts").and_then(JsonValue::as_f64) {
            Some(n) => n,
            None => return Err(format!("event {i} ({ph}) has no ts")),
        };
        let name = match ev.get("name").and_then(JsonValue::as_str) {
            Some(s) => s.to_string(),
            None => return Err(format!("event {i} ({ph}) has no name")),
        };
        check.events += 1;
        let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
        if ts < *prev {
            return Err(format!(
                "event {i} ({ph} {name:?}) ts {ts} goes backwards on tid {tid} (prev {prev})"
            ));
        }
        *prev = ts;
        match ph.as_str() {
            "B" => {
                let stack = stacks.entry(tid).or_default();
                stack.push(name);
                check.max_depth = check.max_depth.max(stack.len());
            }
            "E" => {
                let stack = stacks.entry(tid).or_default();
                match stack.pop() {
                    Some(open) if open == name => check.spans += 1,
                    Some(open) => {
                        return Err(format!(
                            "event {i}: E {name:?} closes B {open:?} on tid {tid}"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "event {i}: E {name:?} with empty stack on tid {tid}"
                        ))
                    }
                }
            }
            "C" | "i" => {}
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "tid {tid} ends with {} unclosed B events",
                stack.len()
            ));
        }
    }
    check.threads = last_ts.len();
    Ok(check)
}
