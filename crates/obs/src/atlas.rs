//! Spatial telemetry atlas: per-tile event planes over the image grid.
//!
//! The scalar counters answer *how many* near-tie re-routes or border
//! fallbacks a run took; the atlas answers *where*. When armed for a
//! `width x height` grid with a tile edge of `tile` pixels, each
//! [`AtlasChannel`] owns a `tiles_x x tiles_y` plane of event counts,
//! and instrumented call sites deposit already-materialised coordinate
//! lists into it ([`mark_batch`]) or whole rectangles ([`mark_rect`],
//! counted arithmetically — never per pixel). A per-frame hit/miss
//! series ([`cache_event`]) rides along for the streaming cache.
//!
//! The atlas is disarmed by default: every call site pays one relaxed
//! atomic load and nothing else, so conformance and production runs are
//! unaffected (the planes observe the run; they never steer it). Marks
//! outside the armed geometry are dropped silently, which lets tests
//! with different scene sizes coexist with an armed atlas.
//!
//! The planes are read by reports (`trace_report` renders them as
//! heatmaps and checks them against the scalar counters): near-tie
//! density and border fraction per tile show where the exact kernel
//! ran, the dispatch planes record what actually ran, and quarantine
//! sites flag input regions whose telemetry is untrustworthy.

use crate::json::MetricsDoc;

#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
#[cfg(feature = "enabled")]
use std::sync::{Mutex, OnceLock};

/// Upper bound on the per-frame cache series length; frames beyond this
/// are folded into the last slot so memory stays bounded.
pub const ATLAS_MAX_FRAMES: usize = 4096;

/// One spatial event plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtlasChannel {
    /// Pixels served by an exact-kernel path (full exact drivers, border
    /// fallback, and near-tie / poisoned-plane re-routes).
    DispatchExact,
    /// Pixels served by the scalar moment-plane (integral) fast path.
    DispatchIntegral,
    /// Pixels served by the pruned-search (bound-screened) fast path.
    DispatchPruned,
    /// Border pixels the fast paths handed back to the exact kernel.
    BorderFallback,
    /// Near-tie argmin re-routes (winning margin inside the declared
    /// fast-vs-exact error bound).
    NearTie,
    /// Non-finite input pixels quarantined and repaired.
    Quarantine,
}

impl AtlasChannel {
    /// Every channel, in export order.
    pub const ALL: [AtlasChannel; 6] = [
        AtlasChannel::DispatchExact,
        AtlasChannel::DispatchIntegral,
        AtlasChannel::DispatchPruned,
        AtlasChannel::BorderFallback,
        AtlasChannel::NearTie,
        AtlasChannel::Quarantine,
    ];

    /// Stable dotted-name segment used in exports and heatmap headers.
    pub fn name(self) -> &'static str {
        match self {
            AtlasChannel::DispatchExact => "dispatch_exact",
            AtlasChannel::DispatchIntegral => "dispatch_integral",
            AtlasChannel::DispatchPruned => "dispatch_pruned",
            AtlasChannel::BorderFallback => "border_fallback",
            AtlasChannel::NearTie => "near_tie",
            AtlasChannel::Quarantine => "quarantine",
        }
    }

    fn index(self) -> usize {
        match self {
            AtlasChannel::DispatchExact => 0,
            AtlasChannel::DispatchIntegral => 1,
            AtlasChannel::DispatchPruned => 2,
            AtlasChannel::BorderFallback => 3,
            AtlasChannel::NearTie => 4,
            AtlasChannel::Quarantine => 5,
        }
    }
}

#[cfg(feature = "enabled")]
struct AtlasState {
    width: usize,
    height: usize,
    tile: usize,
    tiles_x: usize,
    tiles_y: usize,
    planes: Vec<Vec<u64>>,
    /// (hits, misses) per frame index.
    cache_frames: Vec<(u64, u64)>,
}

#[cfg(feature = "enabled")]
static ARMED: AtomicBool = AtomicBool::new(false);

#[cfg(feature = "enabled")]
fn state() -> &'static Mutex<Option<AtlasState>> {
    static STATE: OnceLock<Mutex<Option<AtlasState>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

/// Whether the atlas is collecting. One relaxed load; always `false`
/// without the `enabled` feature.
#[inline]
pub fn armed() -> bool {
    #[cfg(feature = "enabled")]
    {
        ARMED.load(Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// Arm the atlas for a `width x height` grid with `tile`-pixel square
/// tiles (minimum 1), discarding any previous state. No-op without the
/// `enabled` feature.
pub fn arm(width: usize, height: usize, tile: usize) {
    #[cfg(feature = "enabled")]
    {
        let tile = tile.max(1);
        let tiles_x = width.div_ceil(tile).max(1);
        let tiles_y = height.div_ceil(tile).max(1);
        let planes = (0..AtlasChannel::ALL.len())
            .map(|_| vec![0u64; tiles_x * tiles_y])
            .collect();
        if let Ok(mut s) = state().lock() {
            *s = Some(AtlasState {
                width,
                height,
                tile,
                tiles_x,
                tiles_y,
                planes,
                cache_frames: Vec::new(),
            });
            ARMED.store(true, Relaxed);
        }
    }
    #[cfg(not(feature = "enabled"))]
    let _ = (width, height, tile);
}

/// Stop collecting and drop the planes.
pub fn disarm() {
    #[cfg(feature = "enabled")]
    {
        ARMED.store(false, Relaxed);
        if let Ok(mut s) = state().lock() {
            *s = None;
        }
    }
}

#[cfg(feature = "enabled")]
fn with_state(f: impl FnOnce(&mut AtlasState)) {
    if let Ok(mut s) = state().lock() {
        if let Some(st) = s.as_mut() {
            f(st);
        }
    }
}

/// Deposit one event at pixel `(x, y)`. Out-of-range marks are dropped.
#[inline]
pub fn mark(ch: AtlasChannel, x: usize, y: usize) {
    #[cfg(feature = "enabled")]
    {
        if !armed() {
            return;
        }
        with_state(|st| {
            if x < st.width && y < st.height {
                let idx = (y / st.tile) * st.tiles_x + x / st.tile;
                st.planes[ch.index()][idx] += 1;
            }
        });
    }
    #[cfg(not(feature = "enabled"))]
    let _ = (ch, x, y);
}

/// Deposit one event per listed pixel under a single lock acquisition.
/// This is the intended call shape: drivers already materialise their
/// border / near-tie / quarantine coordinate lists, so the atlas never
/// adds work inside a pixel loop.
pub fn mark_batch(ch: AtlasChannel, pts: &[(usize, usize)]) {
    #[cfg(feature = "enabled")]
    {
        if !armed() || pts.is_empty() {
            return;
        }
        with_state(|st| {
            let plane = &mut st.planes[ch.index()];
            for &(x, y) in pts {
                if x < st.width && y < st.height {
                    plane[(y / st.tile) * st.tiles_x + x / st.tile] += 1;
                }
            }
        });
    }
    #[cfg(not(feature = "enabled"))]
    let _ = (ch, pts);
}

/// Deposit one event per pixel of the inclusive rectangle
/// `[x0, x1] x [y0, y1]`, computed arithmetically per overlapped tile
/// (cost is O(tiles touched), not O(pixels)). Used by the full-region
/// exact drivers to record dispatch without enumerating pixels.
pub fn mark_rect(ch: AtlasChannel, x0: usize, y0: usize, x1: usize, y1: usize) {
    #[cfg(feature = "enabled")]
    {
        if !armed() || x1 < x0 || y1 < y0 {
            return;
        }
        with_state(|st| {
            let x1 = x1.min(st.width.saturating_sub(1));
            let y1 = y1.min(st.height.saturating_sub(1));
            if x0 > x1 || y0 > y1 {
                return;
            }
            let plane = &mut st.planes[ch.index()];
            for ty in (y0 / st.tile)..=(y1 / st.tile) {
                let ty0 = (ty * st.tile).max(y0);
                let ty1 = ((ty + 1) * st.tile - 1).min(y1);
                let rows = (ty1 - ty0 + 1) as u64;
                for tx in (x0 / st.tile)..=(x1 / st.tile) {
                    let tx0 = (tx * st.tile).max(x0);
                    let tx1 = ((tx + 1) * st.tile - 1).min(x1);
                    let cols = (tx1 - tx0 + 1) as u64;
                    plane[ty * st.tiles_x + tx] += rows * cols;
                }
            }
        });
    }
    #[cfg(not(feature = "enabled"))]
    let _ = (ch, x0, y0, x1, y1);
}

/// Record one streaming-cache lookup outcome for `frame`. Frames beyond
/// [`ATLAS_MAX_FRAMES`] fold into the last slot.
pub fn cache_event(frame: usize, hit: bool) {
    #[cfg(feature = "enabled")]
    {
        if !armed() {
            return;
        }
        with_state(|st| {
            let idx = frame.min(ATLAS_MAX_FRAMES - 1);
            if st.cache_frames.len() <= idx {
                st.cache_frames.resize(idx + 1, (0, 0));
            }
            if hit {
                st.cache_frames[idx].0 += 1;
            } else {
                st.cache_frames[idx].1 += 1;
            }
        });
    }
    #[cfg(not(feature = "enabled"))]
    let _ = (frame, hit);
}

/// Owned copy of the armed atlas: geometry, one plane per channel, and
/// the per-frame cache series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtlasSnapshot {
    /// Grid width in pixels.
    pub width: usize,
    /// Grid height in pixels.
    pub height: usize,
    /// Tile edge in pixels.
    pub tile: usize,
    /// Tiles per row.
    pub tiles_x: usize,
    /// Tile rows.
    pub tiles_y: usize,
    /// Row-major `tiles_x * tiles_y` counts, indexed by
    /// [`AtlasChannel::ALL`] order.
    pub planes: Vec<Vec<u64>>,
    /// `(hits, misses)` per frame index.
    pub cache_frames: Vec<(u64, u64)>,
}

impl AtlasSnapshot {
    /// The tile plane for one channel.
    pub fn plane(&self, ch: AtlasChannel) -> &[u64] {
        &self.planes[ch.index()]
    }

    /// Count at tile `(tx, ty)` for one channel.
    pub fn tile(&self, ch: AtlasChannel, tx: usize, ty: usize) -> u64 {
        self.planes[ch.index()][ty * self.tiles_x + tx]
    }

    /// Total events deposited into one channel.
    pub fn total(&self, ch: AtlasChannel) -> u64 {
        self.plane(ch).iter().sum()
    }

    /// Number of tiles with at least one event in one channel.
    pub fn tiles_nonzero(&self, ch: AtlasChannel) -> usize {
        self.plane(ch).iter().filter(|&&c| c > 0).count()
    }

    /// Render one channel as an ASCII heatmap (one character per tile,
    /// ten brightness steps scaled to the channel's max tile count).
    pub fn heatmap(&self, ch: AtlasChannel) -> String {
        const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        let plane = self.plane(ch);
        let max = plane.iter().copied().max().unwrap_or(0);
        let mut out = format!(
            "{} ({}x{} tiles of {}px, total {}, max/tile {})\n",
            ch.name(),
            self.tiles_x,
            self.tiles_y,
            self.tile,
            self.total(ch),
            max
        );
        for ty in 0..self.tiles_y {
            out.push('|');
            for tx in 0..self.tiles_x {
                let c = plane[ty * self.tiles_x + tx];
                let ch = if c == 0 || max == 0 {
                    RAMP[0]
                } else {
                    // Nonzero tiles always render at least RAMP[1].
                    let step = 1 + (c.saturating_sub(1) * (RAMP.len() as u64 - 2) / max) as usize;
                    RAMP[step.min(RAMP.len() - 1)]
                };
                out.push(ch);
            }
            out.push_str("|\n");
        }
        out
    }

    /// Export the atlas into a metrics document: geometry gauges
    /// (`atlas.width` …), per-channel totals and nonzero-tile counts
    /// (`atlas.<channel>.total`, `.tiles_nonzero`), per-tile counts for
    /// nonzero tiles (`atlas.<channel>.tile.<tx>_<ty>`), and the cache
    /// series (`atlas.cache.hits.f<N>` / `.misses.f<N>`).
    pub fn export_into(&self, doc: &mut MetricsDoc) {
        doc.set_gauge("atlas.width", self.width as f64);
        doc.set_gauge("atlas.height", self.height as f64);
        doc.set_gauge("atlas.tile", self.tile as f64);
        doc.set_gauge("atlas.tiles_x", self.tiles_x as f64);
        doc.set_gauge("atlas.tiles_y", self.tiles_y as f64);
        for ch in AtlasChannel::ALL {
            doc.set_counter(&format!("atlas.{}.total", ch.name()), self.total(ch));
            doc.set_counter(
                &format!("atlas.{}.tiles_nonzero", ch.name()),
                self.tiles_nonzero(ch) as u64,
            );
            for ty in 0..self.tiles_y {
                for tx in 0..self.tiles_x {
                    let c = self.tile(ch, tx, ty);
                    if c > 0 {
                        doc.set_counter(&format!("atlas.{}.tile.{}_{}", ch.name(), tx, ty), c);
                    }
                }
            }
        }
        doc.set_gauge("atlas.cache.frames", self.cache_frames.len() as f64);
        for (i, (hits, misses)) in self.cache_frames.iter().enumerate() {
            if *hits > 0 {
                doc.set_counter(&format!("atlas.cache.hits.f{i}"), *hits);
            }
            if *misses > 0 {
                doc.set_counter(&format!("atlas.cache.misses.f{i}"), *misses);
            }
        }
    }
}

/// Copy out the armed atlas (`None` when disarmed or without the
/// `enabled` feature).
pub fn snapshot() -> Option<AtlasSnapshot> {
    #[cfg(feature = "enabled")]
    {
        if !armed() {
            return None;
        }
        let s = state().lock().ok()?;
        s.as_ref().map(|st| AtlasSnapshot {
            width: st.width,
            height: st.height,
            tile: st.tile,
            tiles_x: st.tiles_x,
            tiles_y: st.tiles_y,
            planes: st.planes.clone(),
            cache_frames: st.cache_frames.clone(),
        })
    }
    #[cfg(not(feature = "enabled"))]
    {
        None
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    // The atlas is process-global; run everything under one test so
    // arm/disarm never races a sibling test in this binary.
    #[test]
    fn marks_rects_and_cache_events_land_in_tiles() {
        arm(32, 16, 8);
        assert!(armed());
        mark(AtlasChannel::NearTie, 0, 0);
        mark(AtlasChannel::NearTie, 7, 7);
        mark(AtlasChannel::NearTie, 8, 0);
        mark(AtlasChannel::NearTie, 99, 0); // out of range: dropped
        mark_batch(AtlasChannel::BorderFallback, &[(0, 0), (31, 15), (16, 8)]);
        // Full-grid rect: every pixel counted exactly once.
        mark_rect(AtlasChannel::DispatchExact, 0, 0, 31, 15);
        // Rect clipped to the grid.
        mark_rect(AtlasChannel::DispatchIntegral, 24, 8, 99, 99);
        cache_event(0, true);
        cache_event(0, false);
        cache_event(2, true);

        let snap = snapshot().expect("armed snapshot");
        assert_eq!((snap.tiles_x, snap.tiles_y), (4, 2));
        assert_eq!(snap.tile(AtlasChannel::NearTie, 0, 0), 2);
        assert_eq!(snap.tile(AtlasChannel::NearTie, 1, 0), 1);
        assert_eq!(snap.total(AtlasChannel::NearTie), 3);
        assert_eq!(snap.total(AtlasChannel::BorderFallback), 3);
        assert_eq!(snap.total(AtlasChannel::DispatchExact), 32 * 16);
        assert_eq!(snap.tile(AtlasChannel::DispatchExact, 0, 0), 64);
        assert_eq!(snap.total(AtlasChannel::DispatchIntegral), 8 * 8);
        assert_eq!(snap.cache_frames, vec![(1, 1), (0, 0), (1, 0)]);

        let map = snap.heatmap(AtlasChannel::NearTie);
        assert!(map.contains("near_tie"));
        assert_eq!(map.lines().count(), 1 + snap.tiles_y);

        let mut doc = MetricsDoc::new("atlas_test");
        snap.export_into(&mut doc);
        assert_eq!(doc.counter("atlas.near_tie.total"), 3);
        assert_eq!(doc.counter("atlas.near_tie.tile.0_0"), 2);
        assert_eq!(doc.counter("atlas.dispatch_exact.total"), 512);
        assert_eq!(doc.counter("atlas.cache.hits.f0"), 1);
        assert_eq!(doc.counter("atlas.cache.misses.f0"), 1);
        assert_eq!(doc.counter("atlas.cache.hits.f2"), 1);

        disarm();
        assert!(!armed());
        assert!(snapshot().is_none());
        mark(AtlasChannel::NearTie, 0, 0); // disarmed: dropped silently
    }
}
