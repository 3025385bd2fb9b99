//! The per-frame artifact cache with budgeted LRU eviction.
//!
//! On an N-frame sequence every interior frame participates in two
//! adjacent pairs, so its derived planes — quarantined inputs, geometry
//! field, discriminant, validity — are worth keeping alive across pairs
//! instead of recomputing per pair. [`ArtifactCache`] holds one
//! [`FrameArtifacts`] set per frame, keyed by frame id, with every plane
//! `Arc`-shared so a cache hit is a pointer copy.
//!
//! Residency is budgeted against the paper's §4.3 memory model: the
//! byte limit is normally derived from
//! [`maspar_sim::memory::MemoryBudget::stream_cache_bytes`] — the
//! aggregate per-PE slack left once the segmented run is resident.
//! Inserting past the budget evicts least-recently-used sets first; a
//! set larger than the whole budget is never admitted (the caller keeps
//! its own `Arc`, so correctness is unaffected — the set just cannot be
//! reused). The resident total therefore never exceeds the budget,
//! which the high-water gauge and a regression test assert.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use sma_core::{FrameArtifacts, SmaConfig, SmaError};
use sma_grid::Grid;

static CACHE_HITS: sma_obs::Counter = sma_obs::Counter::new("stream.cache_hits");
static CACHE_MISSES: sma_obs::Counter = sma_obs::Counter::new("stream.cache_misses");
static PLANES_EVICTED: sma_obs::Counter = sma_obs::Counter::new("stream.planes_evicted");
/// Largest resident byte total the cache ever reached.
static CACHE_BYTES_HIGH_WATER: sma_obs::HighWater =
    sma_obs::HighWater::new("stream.cache_bytes_high_water");

/// Planes in one [`FrameArtifacts`] set (intensity, surface, validity,
/// geometry, discriminant): the unit of `stream.planes_evicted`.
const PLANES_PER_SET: u64 = 5;

/// Host-level resident-byte accounting shared by every cache shard.
///
/// The service layer gives each tenant its own [`ArtifactCache`] shard
/// but budgets them against *one* host figure (the §4.3 aggregate
/// slack). Every shard attached via [`ArtifactCache::with_meter`]
/// reports its admissions and evictions here, so
/// [`UsageMeter::resident_bytes`] is the true cross-tenant total and
/// [`UsageMeter::high_water_bytes`] is the figure the zero-breach
/// acceptance gate checks. Updates are atomic add-then-max, so the high
/// water is a real point-in-time total even when two shards admit
/// simultaneously.
#[derive(Debug, Default)]
pub struct UsageMeter {
    bytes: AtomicUsize,
    high: AtomicUsize,
}

impl UsageMeter {
    /// A fresh meter at zero, ready to share across shards.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn add(&self, n: usize) {
        let now = self.bytes.fetch_add(n, Ordering::Relaxed) + n;
        self.high.fetch_max(now, Ordering::Relaxed);
    }

    fn sub(&self, n: usize) {
        self.bytes.fetch_sub(n, Ordering::Relaxed);
    }

    /// Bytes currently resident across all attached shards.
    pub fn resident_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Largest cross-shard resident total ever reached.
    pub fn high_water_bytes(&self) -> usize {
        self.high.load(Ordering::Relaxed)
    }
}

/// Point-in-time cache statistics. Kept by the cache itself (not read
/// back from the obs registry) so behaviour-sensitive callers — the
/// report's acceptance gates, the identity tests — see the same numbers
/// whether observability is on or off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found their entry resident.
    pub hits: u64,
    /// Lookups that did not find their entry resident. Every miss is
    /// one `prepare` of the frame's set, whether the engine's
    /// prepare-ahead worker made it or the lookup did.
    pub misses: u64,
    /// Entries pushed out by the LRU policy.
    pub evictions: u64,
    /// Largest resident byte total ever reached.
    pub high_water_bytes: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// LRU cache of per-frame artifact sets, keyed by frame id and
/// budgeted in bytes.
#[derive(Debug)]
pub struct ArtifactCache {
    budget_bytes: usize,
    /// `(frame, set, charged bytes)`, most-recently-used last.
    /// Sequences are short-windowed (the live set is a handful of
    /// frames), so a scanned `Vec` beats a hash-map + list LRU here.
    entries: Vec<(usize, Arc<FrameArtifacts>, usize)>,
    resident_bytes: usize,
    stats: CacheStats,
    meter: Option<Arc<UsageMeter>>,
}

impl ArtifactCache {
    /// An empty cache with the given byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            entries: Vec::new(),
            resident_bytes: 0,
            stats: CacheStats::default(),
            meter: None,
        }
    }

    /// Attach a shared [`UsageMeter`]: this cache becomes a shard whose
    /// admissions and evictions roll up into the meter's host total.
    pub fn with_meter(mut self, meter: Arc<UsageMeter>) -> Self {
        self.meter = Some(meter);
        self
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Shrink (or grow) the byte budget in place, evicting
    /// least-recently-used entries until the resident total fits the
    /// new figure. The service layer calls this when a later admission
    /// tightens every tenant's fair share.
    pub fn resize_budget(&mut self, budget_bytes: usize) {
        self.budget_bytes = budget_bytes;
        while self.resident_bytes > self.budget_bytes {
            self.evict_front();
        }
    }

    /// Drop every entry (budget unchanged). Called when a tenant's
    /// sequence finishes, releasing its shard's bytes back to the host
    /// meter. Lifecycle clears are not LRU pressure, so the eviction
    /// statistic is untouched.
    pub fn clear(&mut self) {
        if let Some(m) = &self.meter {
            m.sub(self.resident_bytes);
        }
        self.entries.clear();
        self.resident_bytes = 0;
    }

    fn evict_front(&mut self) {
        let (_, _, evicted_bytes) = self.entries.remove(0);
        self.resident_bytes -= evicted_bytes;
        if let Some(m) = &self.meter {
            m.sub(evicted_bytes);
        }
        self.stats.evictions += 1;
        PLANES_EVICTED.add(PLANES_PER_SET);
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether `frame`'s set is resident, without touching recency or
    /// the hit/miss statistics (used by the prefetch decision).
    pub fn contains(&self, frame: usize) -> bool {
        self.entries.iter().any(|(k, _, _)| *k == frame)
    }

    /// Look up `frame`'s set, marking it most-recently-used on a hit. A
    /// miss only counts the lookup; the caller is expected to compute
    /// and [`ArtifactCache::insert`] the set.
    pub fn get(&mut self, frame: usize) -> Option<Arc<FrameArtifacts>> {
        if let Some(pos) = self.entries.iter().position(|(k, _, _)| *k == frame) {
            let entry = self.entries.remove(pos);
            let out = Arc::clone(&entry.1);
            self.entries.push(entry);
            self.stats.hits += 1;
            CACHE_HITS.incr();
            sma_obs::atlas::cache_event(frame, true);
            return Some(out);
        }
        self.stats.misses += 1;
        CACHE_MISSES.incr();
        sma_obs::atlas::cache_event(frame, false);
        None
    }

    /// Insert `frame`'s set, evicting least-recently-used sets until it
    /// fits. A set larger than the whole budget is not admitted at all —
    /// the resident total never exceeds the budget. Re-inserting a frame
    /// replaces its set.
    pub fn insert(&mut self, frame: usize, artifacts: Arc<FrameArtifacts>) {
        if let Some(pos) = self.entries.iter().position(|(k, _, _)| *k == frame) {
            let (_, _, old_bytes) = self.entries.remove(pos);
            self.resident_bytes -= old_bytes;
            if let Some(m) = &self.meter {
                m.sub(old_bytes);
            }
        }
        let bytes = artifacts.resident_bytes();
        if bytes > self.budget_bytes {
            return;
        }
        while self.resident_bytes + bytes > self.budget_bytes {
            self.evict_front();
        }
        self.entries.push((frame, artifacts, bytes));
        self.resident_bytes += bytes;
        if let Some(m) = &self.meter {
            m.add(bytes);
        }
        if self.resident_bytes > self.stats.high_water_bytes {
            self.stats.high_water_bytes = self.resident_bytes;
        }
        CACHE_BYTES_HIGH_WATER.record(self.resident_bytes as u64);
    }
}

/// Frame `t`'s [`FrameArtifacts`] from `cache`. On a miss the set is
/// `ready` when the caller already prepared it (the engine's
/// prepare-ahead worker) and is computed here otherwise; either way it
/// is then cached. This is the one preparation path shared by
/// [`StreamEngine`](crate::engine::StreamEngine) and the service layer's
/// per-tenant shards — both therefore execute byte-for-byte the same
/// code as pairwise [`sma_core::SmaFrames::prepare`], which is what
/// keeps streamed and served output bit-identical to the solo replay.
///
/// # Errors
/// Propagates [`FrameArtifacts::prepare`] failures.
pub fn cached_frame_artifacts(
    cache: &mut ArtifactCache,
    t: usize,
    intensity: &Grid<f32>,
    surface: &Grid<f32>,
    cfg: &SmaConfig,
    ready: Option<Arc<FrameArtifacts>>,
) -> Result<Arc<FrameArtifacts>, SmaError> {
    if let Some(a) = cache.get(t) {
        return Ok(a);
    }
    let a = match ready {
        Some(a) => a,
        None => Arc::new(FrameArtifacts::prepare(intensity, surface, cfg)?),
    };
    cache.insert(t, Arc::clone(&a));
    Ok(a)
}

/// A mutex-wrapped [`ArtifactCache`] shard, clonable across the worker
/// pool. Workers hold the lock only for lookups and admissions (the
/// artifact computation itself runs outside it), and a poisoned lock is
/// recovered rather than propagated — cache state is Arc-shared planes
/// plus counters, all valid at every instruction boundary.
#[derive(Debug, Clone)]
pub struct SharedArtifactCache {
    inner: Arc<Mutex<ArtifactCache>>,
}

impl SharedArtifactCache {
    /// Wrap `cache` for shared access.
    pub fn new(cache: ArtifactCache) -> Self {
        Self {
            inner: Arc::new(Mutex::new(cache)),
        }
    }

    /// Lock the shard. Recovers a poisoned lock (see type docs).
    pub fn lock(&self) -> MutexGuard<'_, ArtifactCache> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// [`cached_frame_artifacts`] under this shard's lock. The lock is
    /// held across the preparation so a shard never computes one frame
    /// twice; cross-shard parallelism is unaffected (each tenant owns
    /// its shard).
    ///
    /// # Errors
    /// Propagates [`FrameArtifacts::prepare`] failures.
    pub fn frame_artifacts(
        &self,
        t: usize,
        intensity: &Grid<f32>,
        surface: &Grid<f32>,
        cfg: &SmaConfig,
    ) -> Result<Arc<FrameArtifacts>, SmaError> {
        cached_frame_artifacts(&mut self.lock(), t, intensity, surface, cfg, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_core::{MotionModel, SmaConfig};
    use sma_grid::Grid;

    fn artifacts(seed: f32) -> Arc<FrameArtifacts> {
        let img = Grid::from_fn(24, 24, |x, y| {
            (x as f32 * 0.3 + seed).sin() + (y as f32 * 0.2).cos()
        });
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        Arc::new(FrameArtifacts::prepare(&img, &img, &cfg).expect("prepare"))
    }

    #[test]
    fn hit_marks_recent_and_counts() {
        let a = artifacts(0.0);
        let bytes = a.resident_bytes();
        let mut c = ArtifactCache::new(10 * bytes);
        assert!(c.get(0).is_none());
        c.insert(0, Arc::clone(&a));
        assert!(c.get(0).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(c.resident_bytes(), bytes);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let a = artifacts(0.0);
        let bytes = a.resident_bytes();
        // Room for exactly two frame sets.
        let mut c = ArtifactCache::new(2 * bytes);
        c.insert(0, artifacts(0.0));
        c.insert(1, artifacts(1.0));
        // Touch 0 so 1 becomes the LRU victim.
        assert!(c.get(0).is_some());
        c.insert(2, artifacts(2.0));
        assert!(c.contains(0));
        assert!(!c.contains(1));
        assert!(c.contains(2));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.resident_bytes() <= c.budget_bytes());
    }

    #[test]
    fn oversize_entry_is_not_admitted() {
        let a = artifacts(0.0);
        let mut c = ArtifactCache::new(a.resident_bytes() / 2);
        c.insert(0, a);
        assert!(!c.contains(0));
        assert_eq!(c.resident_bytes(), 0);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn high_water_never_exceeds_budget() {
        let a = artifacts(0.0);
        let bytes = a.resident_bytes();
        let budget = 2 * bytes + bytes / 2;
        let mut c = ArtifactCache::new(budget);
        for t in 0..6 {
            c.insert(t, artifacts(t as f32));
        }
        assert!(c.stats().high_water_bytes <= budget);
        assert!(c.stats().evictions >= 4);
    }

    #[test]
    fn reinsert_replaces_without_double_charge() {
        let a = artifacts(0.0);
        let bytes = a.resident_bytes();
        let mut c = ArtifactCache::new(10 * bytes);
        c.insert(0, Arc::clone(&a));
        c.insert(0, a);
        assert_eq!(c.resident_bytes(), bytes);
    }

    /// Regression: re-admitting a frame whose recomputed set differs in size must re-charge the *delta* against the
    /// attached [`UsageMeter`] — shrink must release bytes, growing
    /// back must charge them again, and cache and meter must agree at
    /// every step.
    #[test]
    fn reinsert_recharges_size_delta_against_meter() {
        fn sized_artifacts(edge: usize) -> Arc<FrameArtifacts> {
            let img = Grid::from_fn(edge, edge, |x, y| {
                (x as f32 * 0.3).sin() + (y as f32 * 0.2).cos()
            });
            let cfg = SmaConfig::small_test(MotionModel::Continuous);
            Arc::new(FrameArtifacts::prepare(&img, &img, &cfg).expect("prepare"))
        }
        let big = sized_artifacts(32);
        let small = sized_artifacts(20);
        let (big_bytes, small_bytes) = (big.resident_bytes(), small.resident_bytes());
        assert!(small_bytes < big_bytes, "sizes must differ for the test");

        let meter = UsageMeter::new();
        let mut c = ArtifactCache::new(10 * big_bytes).with_meter(Arc::clone(&meter));

        c.insert(0, Arc::clone(&big));
        assert_eq!(c.resident_bytes(), big_bytes);
        assert_eq!(meter.resident_bytes(), big_bytes);

        // Shrink: the old charge must be fully released first.
        c.insert(0, small);
        assert_eq!(c.resident_bytes(), small_bytes);
        assert_eq!(meter.resident_bytes(), small_bytes);

        // Grow back: the delta is re-charged, no stale residue either way.
        c.insert(0, big);
        assert_eq!(c.resident_bytes(), big_bytes);
        assert_eq!(meter.resident_bytes(), big_bytes);

        // The meter never saw a double charge: high water is the single
        // biggest entry, not old + new coexisting.
        assert_eq!(meter.high_water_bytes(), big_bytes);
    }
}
