//! # sma-stream
//!
//! Streaming sequence engine for the SMA pipeline.
//!
//! The paper's datasets are *sequences* — four Frederic stereo pairs,
//! 490 Luis frames, 49 Florida frames — but the core API is pairwise:
//! [`sma_core::SmaFrames::prepare`] derives both frames' planes for one
//! pair, so walking a sequence naively prepares every interior frame
//! twice and allocates every plane per pair. This crate closes that
//! gap:
//!
//! * [`cache::ArtifactCache`] — per-frame derived planes
//!   ([`sma_core::FrameArtifacts`]), `Arc`-shared, keyed by frame id,
//!   with LRU eviction budgeted against the §4.3 memory model
//!   ([`maspar_sim::memory::MemoryBudget::stream_cache_bytes`]).
//! * [`engine::StreamEngine`] — drives any pairwise driver over the
//!   sequence, preparing each frame once and overlapping frame `t+2`'s
//!   preparation with matching on pair `(t, t+1)` via one worker thread
//!   per run; the cache counters read the same with that worker on or
//!   off.
//! * `stream_report` (binary) — the throughput comparison emitting
//!   `BENCH_stream.json` / `METRICS_stream.json`, with acceptance gates
//!   for speedup, cache effectiveness and bit-identity.
//!
//! The streaming path is bit-identical to pairwise preparation for
//! every driver — under eviction, pipelining and any observability
//! level — because both paths execute the same per-frame code
//! ([`sma_core::FrameArtifacts::prepare`]) and pair assembly is pointer
//! copies plus an order-independent mask intersection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;

pub use cache::{
    cached_frame_artifacts, ArtifactCache, CacheStats, SharedArtifactCache, UsageMeter,
};
pub use engine::{goddard_cache_budget, sequence_frames, FrameSource, StreamEngine};
