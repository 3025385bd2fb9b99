//! Hierarchical span timers.
//!
//! [`span`] returns a RAII guard; nesting is derived from a thread-local
//! stack of active span names, so the registry key is the `/`-joined
//! path from the thread's outermost span down to this one:
//!
//! ```
//! use sma_obs::{set_level, span, ObsLevel};
//! set_level(ObsLevel::Summary);
//! {
//!     let _outer = span("pipeline");
//!     let _inner = span("matching"); // recorded as "pipeline/matching"
//! }
//! let spans = sma_obs::span::snapshot();
//! # #[cfg(feature = "enabled")]
//! assert!(spans.iter().any(|s| s.path == "pipeline/matching"));
//! ```
//!
//! The registry is process-global and thread-aware: every thread (pool
//! and row-band workers included) keeps its own nesting stack, and all
//! of them aggregate by path into one table, so a span entered from
//! eight workers shows up once with `calls = 8`. Guards must drop in LIFO
//! order — the natural consequence of binding them to scopes.

#[cfg(feature = "enabled")]
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

#[cfg(any(feature = "enabled", test))]
use crate::ObsLevel;

/// Aggregated timing for one span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// `/`-joined path from the thread's root span to this one.
    pub path: String,
    /// Number of times a span with this path closed.
    pub calls: u64,
    /// Total wall-clock time across all calls.
    pub total: Duration,
}

#[derive(Default)]
struct SpanTable {
    // path -> (calls, total, first-seen order)
    map: HashMap<String, (u64, Duration, usize)>,
}

fn table() -> &'static Mutex<SpanTable> {
    static TABLE: OnceLock<Mutex<SpanTable>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(SpanTable::default()))
}

#[cfg(feature = "enabled")]
thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII timer for one span. Created by [`span`]; records on drop.
#[must_use = "a span guard times the scope it lives in; bind it to a variable"]
pub struct SpanGuard {
    #[cfg(feature = "enabled")]
    start: Option<std::time::Instant>,
    #[cfg(feature = "enabled")]
    name: &'static str,
}

/// Open a span named `name`. Timing starts now and is recorded when the
/// returned guard drops. When the runtime level is `Off` (or the crate
/// is built without the `enabled` feature) the guard is inert.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    #[cfg(feature = "enabled")]
    {
        let level = crate::level();
        if level == ObsLevel::Off {
            return SpanGuard { start: None, name };
        }
        let depth = STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.push(name);
            s.len()
        });
        if level >= ObsLevel::Trace {
            eprintln!("[sma-obs] {:indent$}> {name}", "", indent = depth - 1);
        }
        SpanGuard {
            start: Some(std::time::Instant::now()),
            name,
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        SpanGuard {}
    }
}

#[cfg(feature = "enabled")]
impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        let elapsed = start.elapsed();
        let (path, depth) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let path = s.join("/");
            let depth = s.len();
            s.pop();
            (path, depth)
        });
        crate::trace::record_span(self.name, start, depth);
        if crate::level() >= ObsLevel::Spans {
            eprintln!(
                "[sma-obs] {:indent$}< {path} {:.3?}",
                "",
                elapsed,
                indent = depth - 1
            );
        }
        let mut t = table().lock().unwrap();
        let next = t.map.len();
        let e = t.map.entry(path).or_insert((0, Duration::ZERO, next));
        e.0 += 1;
        e.1 += elapsed;
    }
}

/// Snapshot all recorded spans in first-seen order.
pub fn snapshot() -> Vec<SpanRow> {
    let t = table().lock().unwrap();
    let mut rows: Vec<(usize, SpanRow)> = t
        .map
        .iter()
        .map(|(path, &(calls, total, order))| {
            (
                order,
                SpanRow {
                    path: path.clone(),
                    calls,
                    total,
                },
            )
        })
        .collect();
    rows.sort_by_key(|(order, _)| *order);
    rows.into_iter().map(|(_, r)| r).collect()
}

/// Forget all recorded spans (tests and multi-phase report binaries).
pub fn reset() {
    table().lock().unwrap().map.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "enabled")]
    #[test]
    fn nested_spans_record_paths() {
        crate::set_level(ObsLevel::Summary);
        {
            let _a = span("span_test_outer");
            let _b = span("span_test_inner");
        }
        let rows = snapshot();
        let inner = rows
            .iter()
            .find(|r| r.path == "span_test_outer/span_test_inner")
            .expect("inner span path recorded");
        assert!(inner.calls >= 1);
        assert!(rows.iter().any(|r| r.path == "span_test_outer"));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn calls_aggregate_across_threads() {
        crate::set_level(ObsLevel::Summary);
        let before = snapshot()
            .iter()
            .find(|r| r.path == "span_test_threaded")
            .map_or(0, |r| r.calls);
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = span("span_test_threaded");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let after = snapshot()
            .iter()
            .find(|r| r.path == "span_test_threaded")
            .map_or(0, |r| r.calls);
        assert_eq!(after - before, 3);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_guard_is_zero_sized_and_silent() {
        assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
        crate::set_level(ObsLevel::Trace); // no-op
        {
            let _g = span("span_test_noop");
        }
        assert!(snapshot().is_empty());
    }
}
