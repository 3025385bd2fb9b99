//! In-memory spans around the benchmark's calls into each layer, and
//! the stage table derived from them.
//!
//! Spans are recorded only on traced passes, from the benchmark's own
//! files: each one wraps a call into a crate's public API (engine set-up,
//! frame-0 artifacts, the streaming run, the per-pair match). They stay
//! in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the reference-probe spans inside a run. They are the
/// benchmark's own work: excluded from pass wall time, from the table's
/// rows, and from their parent's total and self time.
pub const PROBE_SPAN: &str = "probe";

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Traced pass the span belongs to.
    pub pass: usize,
    /// Pair index within the pass, for per-pair spans.
    pub pair: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Recorded spans, in opening order.
    pub spans: Vec<Span>,
    /// Raw wall time of all traced passes (probes excluded), in ns.
    pub pass_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            pass_ns: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a closed span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        pass: usize,
        pair: Option<usize>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            pass,
            pair,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Aggregate the spans into a stage table.
    pub fn stage_table(&self) -> StageTable {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut probe_child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
                if s.name == PROBE_SPAN {
                    probe_child_ns[p] += s.dur_ns();
                }
            }
        }
        let mut rows: BTreeMap<&'static str, StageRow> = BTreeMap::new();
        let mut top_ns = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == PROBE_SPAN {
                continue;
            }
            let row = rows.entry(s.name).or_insert_with(|| StageRow {
                name: s.name,
                parent: s.parent.map(|p| self.spans[p].name),
                ..StageRow::default()
            });
            let own_ns = s.dur_ns().saturating_sub(probe_child_ns[i]);
            row.calls += 1;
            row.total_ns += own_ns;
            row.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
            if s.parent.is_none() {
                top_ns += own_ns;
            }
        }
        StageTable {
            rows: rows.into_values().collect(),
            pass_ns: self.pass_ns,
            unattributed_ns: self.pass_ns.saturating_sub(top_ns),
        }
    }

    /// All spans as a JSON array.
    pub fn spans_json(&self) -> String {
        let mut s = String::from("[");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n  " };
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                s,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"pass\": {}, \"pair\": {}}}",
                sp.name,
                sp.start_ns,
                sp.end_ns,
                opt(sp.parent),
                sp.pass,
                opt(sp.pair)
            );
        }
        s.push(']');
        s
    }
}

/// One layer's aggregate.
#[derive(Debug, Clone, Default)]
pub struct StageRow {
    /// Layer name.
    pub name: &'static str,
    /// Enclosing layer, if any.
    pub parent: Option<&'static str>,
    /// Spans closed.
    pub calls: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus child spans, ns.
    pub self_ns: u64,
}

/// Per-layer self time against traced pass wall time.
#[derive(Debug, Clone, Default)]
pub struct StageTable {
    /// Layers, by name.
    pub rows: Vec<StageRow>,
    /// Traced pass wall time, ns.
    pub pass_ns: u64,
    /// Pass time inside no span, ns.
    pub unattributed_ns: u64,
}

impl StageTable {
    /// Share of pass wall time attributed to named layers.
    pub fn coverage(&self) -> f64 {
        if self.pass_ns == 0 {
            return 0.0;
        }
        1.0 - self.unattributed_ns as f64 / self.pass_ns as f64
    }

    /// Self-time share of one layer (0 when absent).
    pub fn self_share(&self, name: &str) -> f64 {
        if self.pass_ns == 0 {
            return 0.0;
        }
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.self_ns as f64 / self.pass_ns as f64)
    }

    /// The layer with the most self time.
    pub fn top_layer(&self) -> Option<&'static str> {
        self.rows.iter().max_by_key(|r| r.self_ns).map(|r| r.name)
    }

    /// Human-readable table; `scale` converts raw to normalized time.
    pub fn render(&self, scale: f64) -> String {
        let ms = |ns: u64| ns as f64 * 1e-6 * scale;
        let share = |ns: u64| 100.0 * ns as f64 / self.pass_ns.max(1) as f64;
        let mut s = format!(
            "{:<20} {:<14} {:>7} {:>11} {:>11} {:>7}\n",
            "layer", "parent", "calls", "total_ms", "self_ms", "self%"
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{:<20} {:<14} {:>7} {:>11.2} {:>11.2} {:>6.1}%",
                r.name,
                r.parent.unwrap_or("-"),
                r.calls,
                ms(r.total_ns),
                ms(r.self_ns),
                share(r.self_ns)
            );
        }
        let _ = writeln!(
            s,
            "{:<20} {:<14} {:>7} {:>11} {:>11.2} {:>6.1}%",
            "(unattributed)",
            "-",
            "",
            "",
            ms(self.unattributed_ns),
            share(self.unattributed_ns)
        );
        let _ = write!(
            s,
            "pass wall {:.2} ms, coverage {:.2}%",
            ms(self.pass_ns),
            100.0 * self.coverage()
        );
        s
    }

    /// The table as JSON.
    pub fn json(&self) -> String {
        let mut s = String::from("{\"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}{{\"layer\": \"{}\", \"parent\": \"{}\", \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                r.name,
                r.parent.unwrap_or(""),
                r.calls,
                r.total_ns,
                r.self_ns
            );
        }
        let _ = write!(
            s,
            "], \"pass_ns\": {}, \"unattributed_ns\": {}, \"coverage\": {:.6}}}",
            self.pass_ns,
            self.unattributed_ns,
            self.coverage()
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let o = t.origin;
        let at = |ms: u64| o + Duration::from_millis(ms);
        let run = t.record("stream.run", at(0), at(10), None, 0, None);
        t.record("match", at(1), at(5), Some(run), 0, Some(0));
        t.record("match", at(5), at(8), Some(run), 0, Some(1));
        t.record(PROBE_SPAN, at(8), at(9), Some(run), 0, Some(1));
        t.pass_ns = 11_000_000;
        let table = t.stage_table();
        let row = |n: &str| table.rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(row("stream.run").self_ns, 2_000_000);
        assert_eq!(row("stream.run").total_ns, 9_000_000);
        assert_eq!(row("match").self_ns, 7_000_000);
        assert_eq!(row("match").calls, 2);
        assert!(table.rows.iter().all(|r| r.name != PROBE_SPAN));
        assert_eq!(table.unattributed_ns, 2_000_000);
        assert!((table.coverage() - 9.0 / 11.0).abs() < 1e-12);
        assert_eq!(table.top_layer(), Some("match"));
    }
}
