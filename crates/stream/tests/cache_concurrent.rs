//! The artifact cache under concurrent access.
//!
//! The service layer shares each tenant's cache shard across a worker
//! pool ([`SharedArtifactCache`]) and rolls every shard's bytes into
//! one host [`UsageMeter`]. These tests hammer those paths from real
//! threads: eviction races must never leave the resident total above
//! the budget or out of sync with the meter, oversize entries must be
//! rejected no matter who inserts them, and the meter's high water must
//! be a true point-in-time cross-shard total when two threads admit
//! simultaneously.

use std::sync::{Arc, Barrier};

use sma_core::{FrameArtifacts, MotionModel, SmaConfig};
use sma_grid::Grid;
use sma_stream::{ArtifactCache, SharedArtifactCache, UsageMeter};

fn cfg() -> SmaConfig {
    SmaConfig::small_test(MotionModel::Continuous)
}

fn image(seed: f32) -> Grid<f32> {
    Grid::from_fn(24, 24, |x, y| {
        (x as f32 * 0.3 + seed).sin() + (y as f32 * 0.2).cos()
    })
}

fn artifacts(seed: f32) -> Arc<FrameArtifacts> {
    let img = image(seed);
    Arc::new(FrameArtifacts::prepare(&img, &img, &cfg()).expect("prepare"))
}

/// Four threads churn one shard through far more frames than the
/// budget holds. However the evictions interleave, the invariants must
/// hold at the end: resident never above budget, the meter agreeing
/// with the cache, and every byte accounted for.
#[test]
fn eviction_races_keep_resident_within_budget() {
    let unit = artifacts(0.0).resident_bytes();
    let meter = UsageMeter::new();
    // Room for three frame sets; 4 threads x 8 frames fight over it.
    let shard =
        SharedArtifactCache::new(ArtifactCache::new(3 * unit).with_meter(Arc::clone(&meter)));
    let barrier = Barrier::new(4);
    std::thread::scope(|scope| {
        for worker in 0..4usize {
            let shard = shard.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for i in 0..8usize {
                    let t = worker * 8 + i;
                    let img = image(t as f32);
                    let _ = shard
                        .frame_artifacts(t, &img, &img, &cfg())
                        .expect("prepare");
                    // Re-fetch a neighbour to interleave hits with
                    // admissions.
                    let _ = shard.lock().get(worker * 8);
                }
            });
        }
    });
    let cache = shard.lock();
    let stats = cache.stats();
    assert!(
        cache.resident_bytes() <= cache.budget_bytes(),
        "resident {} over budget {}",
        cache.resident_bytes(),
        cache.budget_bytes()
    );
    assert_eq!(meter.resident_bytes(), cache.resident_bytes());
    assert!(meter.high_water_bytes() <= cache.budget_bytes());
    // 32 distinct frames through a 3-slot cache: evictions must happen.
    assert!(stats.evictions >= 29, "stats {stats:?}");
    // 32 preparation lookups (all misses) plus 32 re-fetches (hit or
    // miss depending on eviction interleaving).
    assert!(stats.misses >= 32, "stats {stats:?}");
    assert_eq!(stats.hits + stats.misses, 64, "stats {stats:?}");
}

/// Oversize entries are rejected under concurrency too — no thread's
/// insert may sneak one past the budget check, and rejected inserts
/// leave no bytes behind on cache or meter.
#[test]
fn oversize_entries_rejected_from_every_thread() {
    let a = artifacts(0.0);
    let meter = UsageMeter::new();
    let shard = SharedArtifactCache::new(
        ArtifactCache::new(a.resident_bytes() / 2).with_meter(Arc::clone(&meter)),
    );
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let shard = shard.clone();
            let a = Arc::clone(&a);
            scope.spawn(move || {
                shard.lock().insert(t, a);
            });
        }
    });
    let cache = shard.lock();
    assert_eq!(cache.resident_bytes(), 0);
    assert_eq!(meter.resident_bytes(), 0);
    assert_eq!(meter.high_water_bytes(), 0);
    for t in 0..4 {
        assert!(!cache.contains(t));
    }
}

/// Two shards on one meter admit simultaneously: the meter's high water
/// must capture the cross-shard peak (both shards resident at once),
/// which per-shard gauges cannot see, and clearing both shards must
/// return every byte.
#[test]
fn simultaneous_admits_meter_a_cross_shard_high_water() {
    let unit = artifacts(0.0).resident_bytes();
    let meter = UsageMeter::new();
    let shards: Vec<SharedArtifactCache> = (0..2)
        .map(|_| {
            SharedArtifactCache::new(ArtifactCache::new(2 * unit).with_meter(Arc::clone(&meter)))
        })
        .collect();
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for (tenant, shard) in shards.iter().enumerate() {
            let shard = shard.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for t in 0..2usize {
                    shard.lock().insert(t, artifacts((tenant * 2 + t) as f32));
                }
            });
        }
    });
    // Both shards full: the host total is exactly the sum, and the high
    // water saw it.
    assert_eq!(meter.resident_bytes(), 4 * unit);
    assert_eq!(meter.high_water_bytes(), 4 * unit);
    for shard in &shards {
        assert_eq!(shard.lock().resident_bytes(), 2 * unit);
        shard.lock().clear();
    }
    assert_eq!(meter.resident_bytes(), 0, "clear returns bytes to host");
    assert_eq!(meter.high_water_bytes(), 4 * unit, "high water persists");
}

/// `resize_budget` evicts down to the new figure and releases the
/// evicted bytes to the meter — the mechanism behind fair-share
/// shrinking when a later tenant is admitted.
#[test]
fn resize_budget_evicts_down_and_releases_bytes() {
    let unit = artifacts(0.0).resident_bytes();
    let meter = UsageMeter::new();
    let mut cache = ArtifactCache::new(3 * unit).with_meter(Arc::clone(&meter));
    for t in 0..3usize {
        cache.insert(t, artifacts(t as f32));
    }
    assert_eq!(cache.resident_bytes(), 3 * unit);
    // Touch frame 0 so it is the most recent; shrinking to one slot
    // must keep exactly it.
    assert!(cache.get(0).is_some());
    cache.resize_budget(unit);
    assert_eq!(cache.budget_bytes(), unit);
    assert_eq!(cache.resident_bytes(), unit);
    assert!(cache.contains(0));
    assert!(!cache.contains(1));
    assert!(!cache.contains(2));
    assert_eq!(cache.stats().evictions, 2);
    assert_eq!(meter.resident_bytes(), unit);
    // Growing back evicts nothing further.
    cache.resize_budget(3 * unit);
    assert_eq!(cache.resident_bytes(), unit);
    assert_eq!(cache.stats().evictions, 2);
}
