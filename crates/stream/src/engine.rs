//! The pipelined streaming engine over an N-frame sequence.
//!
//! [`StreamEngine::run`] walks the adjacent pairs `(t, t+1)` of a
//! sequence, assembling each pair's [`SmaFrames`] from per-frame
//! [`FrameArtifacts`] held in the [`ArtifactCache`]. Two effects stack:
//!
//! * **Cross-pair reuse** — frame `t`'s artifacts serve pairs
//!   `(t-1, t)` and `(t, t+1)`; the naive per-pair
//!   [`SmaFrames::prepare`] computes them twice.
//! * **Pipelining** — one worker thread per run prepares frame `t+2`'s
//!   artifacts while the matcher runs on pair `(t, t+1)` (the matcher
//!   may run its own row-band threads, see `sma_core::pruned`), so
//!   preparation disappears behind matching whenever matching is the
//!   longer stage. The worker hands the set back to the engine, which
//!   holds it outside the cache until pair `(t+1, t+2)` looks frame
//!   `t+2` up. That lookup misses and inserts the set at the point
//!   where the unpipelined engine would prepare and insert it.
//!
//! Pipelining is therefore a pure latency optimisation. The cache sees
//! one operation sequence with it on or off, so a prefetch never evicts
//! a frame the next pair needs, each frame is prepared once whenever
//! the budget holds one set, and every [`CacheStats`] field is the same
//! either way.
//!
//! Both paths execute byte-for-byte the same preparation code
//! ([`FrameArtifacts::prepare`] is the per-frame half of
//! [`SmaFrames::prepare`], and artifacts evicted and recomputed are
//! pure functions of the frame planes), so streaming output is
//! bit-identical to pairwise preparation for every driver — under
//! eviction, under pipelining, and at any observability level. The
//! conformance suite and this crate's tests assert exactly that.

use std::sync::{mpsc, Arc};

use maspar_sim::memory::{MemoryBudget, GODDARD_PE_MEMORY_BYTES};
use sma_core::{FrameArtifacts, SmaConfig, SmaError, SmaFrames};
use sma_fault::GridError;
use sma_grid::Grid;
use sma_satdata::SceneSequence;

use crate::cache::{ArtifactCache, CacheStats};

/// Borrowed input planes of one sequence frame.
#[derive(Debug, Clone, Copy)]
pub struct FrameSource<'a> {
    /// Intensity image at `t`.
    pub intensity: &'a Grid<f32>,
    /// Surface input at `t` (height map for stereo sequences, the
    /// intensity itself for monocular ones).
    pub surface: &'a Grid<f32>,
}

/// The frame list of a [`SceneSequence`] as borrowed [`FrameSource`]s —
/// the adapter every satdata-driven caller uses.
pub fn sequence_frames(seq: &SceneSequence) -> Vec<FrameSource<'_>> {
    (0..seq.len())
        .map(|t| FrameSource {
            intensity: &seq.frames[t].intensity,
            surface: seq.surface(t),
        })
        .collect()
}

/// The default cache budget for a configuration: the §4.3 model's
/// aggregate slack on the Goddard MP-2 (16 K PEs at 64 KB, 4 x 4 pixels
/// per PE), via [`MemoryBudget::stream_cache_bytes`].
pub fn goddard_cache_budget(cfg: &SmaConfig) -> usize {
    MemoryBudget {
        xvr: 4,
        yvr: 4,
        nzs: cfg.nzs,
        nst: cfg.nst,
        nss: cfg.nss,
        pe_memory_bytes: GODDARD_PE_MEMORY_BYTES,
    }
    .stream_cache_bytes(MemoryBudget::GODDARD_NUM_PES)
}

/// Streaming executor over one frame sequence.
pub struct StreamEngine<'a> {
    frames: Vec<FrameSource<'a>>,
    cfg: SmaConfig,
    cache: ArtifactCache,
    pipelined: bool,
    /// The set the prepare-ahead worker last made, held outside the
    /// cache until its frame is looked up.
    ready: Option<(usize, Arc<FrameArtifacts>)>,
}

/// The engine's ends of the prepare-ahead worker's two channels: frames
/// to prepare go out on `jobs`, their artifact sets come back on `done`
/// in the same order.
struct Prefetch<'a> {
    jobs: mpsc::Sender<FrameSource<'a>>,
    done: mpsc::Receiver<Result<FrameArtifacts, SmaError>>,
}

impl<'a> StreamEngine<'a> {
    /// An engine over `frames` with an explicit cache budget in bytes.
    ///
    /// Pipelining defaults to on when the host reports more than one
    /// hardware thread; on a single-CPU host the prefetch worker cannot
    /// overlap with matching and would only add spawn overhead, so it
    /// defaults off. [`StreamEngine::with_pipelining`] overrides either
    /// way — output is bit-identical regardless.
    ///
    /// # Panics
    /// Panics if the sequence has fewer than two frames.
    pub fn new(frames: Vec<FrameSource<'a>>, cfg: SmaConfig, budget_bytes: usize) -> Self {
        Self::with_cache(frames, cfg, ArtifactCache::new(budget_bytes))
    }

    /// An engine over `frames` reusing an existing cache — e.g. a shard
    /// attached to a host [`crate::cache::UsageMeter`]. Pipelining
    /// defaults as in [`StreamEngine::new`].
    ///
    /// # Panics
    /// Panics if the sequence has fewer than two frames.
    pub fn with_cache(frames: Vec<FrameSource<'a>>, cfg: SmaConfig, cache: ArtifactCache) -> Self {
        assert!(frames.len() >= 2, "a motion sequence needs two frames");
        let parallel_host = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
        Self {
            frames,
            cfg,
            cache,
            pipelined: parallel_host,
            ready: None,
        }
    }

    /// [`StreamEngine::new`] with the [`goddard_cache_budget`] for `cfg`.
    pub fn with_goddard_budget(frames: Vec<FrameSource<'a>>, cfg: SmaConfig) -> Self {
        let budget = goddard_cache_budget(&cfg);
        Self::new(frames, cfg, budget)
    }

    /// Toggle the prepare-ahead worker thread (defaults to on when the
    /// host has more than one hardware thread — see
    /// [`StreamEngine::new`]). With it off the engine still caches
    /// across pairs but prepares frames on the calling thread — the
    /// configuration the naive-vs-streaming benchmark uses to separate
    /// the two effects.
    pub fn with_pipelining(mut self, on: bool) -> Self {
        self.pipelined = on;
        self
    }

    /// Number of frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Cache statistics so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The cache's byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.cache.budget_bytes()
    }

    /// Bytes one frame-artifact set occupies at this configuration —
    /// the sizing unit for explicit cache budgets. Prepares frame 0 out
    /// of band; the cache and its statistics are untouched.
    ///
    /// # Errors
    /// Propagates [`FrameArtifacts::prepare`] failures.
    pub fn artifact_bytes_probe(&self) -> Result<usize, SmaError> {
        let src = self.frames[0];
        Ok(FrameArtifacts::prepare(src.intensity, src.surface, &self.cfg)?.resident_bytes())
    }

    /// Frame `t`'s artifacts, from cache or computed (and cached). On a
    /// miss, the set the prepare-ahead worker made for frame `t` is
    /// cached instead of preparing the frame again.
    ///
    /// # Errors
    /// Propagates [`FrameArtifacts::prepare`] failures.
    pub fn artifacts(&mut self, t: usize) -> Result<Arc<FrameArtifacts>, SmaError> {
        let src = self.frames[t];
        let ready = self.ready.take_if(|(frame, _)| *frame == t);
        crate::cache::cached_frame_artifacts(
            &mut self.cache,
            t,
            src.intensity,
            src.surface,
            &self.cfg,
            ready.map(|(_, set)| set),
        )
    }

    /// The assembled pair `(t, t+1)` — pointer copies once both frames'
    /// artifacts are resident.
    ///
    /// # Errors
    /// Propagates preparation failures.
    pub fn pair(&mut self, t: usize) -> Result<SmaFrames, SmaError> {
        let _span = sma_obs::span("stream_pair_assemble");
        let before = self.artifacts(t)?;
        let after = self.artifacts(t + 1)?;
        SmaFrames::from_artifacts(&before, &after)
    }

    /// Drive `matcher` over every adjacent pair, in order.
    ///
    /// With pipelining on, one scoped worker thread serves the whole
    /// run: while `matcher` runs on pair `(t, t+1)` it prepares frame
    /// `t+2`, unless that frame is resident or already held, and the
    /// engine holds the set until pair `(t+1, t+2)` looks it up (see
    /// the module docs). The worker is joined before `run` returns, on
    /// every path. With pipelining off, no thread is spawned. Either
    /// way the cache sees the same lookups and insertions, so
    /// [`StreamEngine::cache_stats`] does not depend on pipelining.
    ///
    /// # Errors
    /// Propagates preparation and matcher failures. A preparation error
    /// found by the worker surfaces right after the match it overlapped;
    /// a preparation that panicked surfaces as
    /// [`GridError::ShapeMismatch`].
    pub fn run<T>(
        &mut self,
        mut matcher: impl FnMut(usize, &SmaFrames) -> Result<T, SmaError>,
    ) -> Result<Vec<T>, SmaError> {
        let _span = sma_obs::span("stream_run");
        if !self.pipelined {
            return self.run_pairs(&mut matcher, None);
        }
        let cfg = self.cfg;
        std::thread::scope(|scope| {
            let (jobs, job_rx) = mpsc::channel::<FrameSource<'a>>();
            let (done_tx, done) = mpsc::channel();
            let worker = scope.spawn(move || {
                for src in job_rx {
                    let _span = sma_obs::span("stream_prefetch");
                    let made = FrameArtifacts::prepare(src.intensity, src.surface, &cfg);
                    if done_tx.send(made).is_err() {
                        break;
                    }
                }
            });
            let out = self.run_pairs(&mut matcher, Some(Prefetch { jobs, done }));
            // `run_pairs` dropped `jobs`, which ends the worker's loop.
            // A preparation that panicked is already `out`'s error;
            // joining here keeps the scope from raising the panic again.
            let _ = worker.join();
            out
        })
    }

    /// The pair loop of [`StreamEngine::run`], with the prepare-ahead
    /// worker's channels when pipelining is on.
    fn run_pairs<T>(
        &mut self,
        matcher: &mut impl FnMut(usize, &SmaFrames) -> Result<T, SmaError>,
        prefetch: Option<Prefetch<'a>>,
    ) -> Result<Vec<T>, SmaError> {
        let n = self.frames.len();
        let mut out = Vec::with_capacity(n - 1);
        for t in 0..n - 1 {
            let pair = self.pair(t)?;
            let ahead = t + 2;
            let worker = prefetch.as_ref().filter(|_| {
                ahead < n
                    && !self.cache.contains(ahead)
                    && !matches!(self.ready, Some((frame, _)) if frame == ahead)
            });
            if let Some(w) = worker {
                // A send fails only if the worker is gone; the receive
                // below then reports it.
                let _ = w.jobs.send(self.frames[ahead]);
            }
            let matched = {
                let _span = sma_obs::span("stream_match");
                matcher(t, &pair)
            };
            if let Some(w) = worker {
                // A closed channel means the preparation panicked;
                // surface it as the shape-style error the synchronous
                // path would have raised.
                let made = w.done.recv().unwrap_or_else(|_| {
                    Err(SmaError::Grid(GridError::ShapeMismatch {
                        expected: self.frames[0].intensity.dims(),
                        got: self.frames[ahead].intensity.dims(),
                    }))
                })?;
                self.ready = Some((ahead, Arc::new(made)));
            }
            out.push(matched?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_core::{track_all_sequential, MotionModel};
    use sma_satdata::florida_thunderstorm_analog;

    fn small_cfg() -> SmaConfig {
        SmaConfig::small_test(MotionModel::Continuous)
    }

    #[test]
    fn pair_is_bit_identical_to_pairwise_prepare() {
        let seq = florida_thunderstorm_analog(40, 4, 7);
        let frames = sequence_frames(&seq);
        let cfg = small_cfg();
        let mut engine = StreamEngine::with_goddard_budget(frames, cfg);
        for t in 0..seq.len() - 1 {
            let streamed = engine.pair(t).expect("streamed pair");
            let pairwise = SmaFrames::prepare(
                &seq.frames[t].intensity,
                &seq.frames[t + 1].intensity,
                seq.surface(t),
                seq.surface(t + 1),
                &cfg,
            )
            .expect("pairwise pair");
            assert_eq!(
                streamed.geo_before.as_ref(),
                pairwise.geo_before.as_ref(),
                "geo t={t}"
            );
            assert_eq!(streamed.disc_after.as_ref(), pairwise.disc_after.as_ref());
            assert_eq!(
                streamed.surface_before.as_ref(),
                pairwise.surface_before.as_ref()
            );
        }
    }

    #[test]
    fn interior_frames_are_prepared_once() {
        let seq = florida_thunderstorm_analog(40, 6, 3);
        let cfg = small_cfg();
        let mut engine = StreamEngine::with_goddard_budget(sequence_frames(&seq), cfg);
        let results = engine
            .run(|_, frames| {
                track_all_sequential(
                    frames,
                    &cfg,
                    sma_core::sequential::Region::Interior {
                        margin: cfg.margin(),
                    },
                )
            })
            .expect("run");
        assert_eq!(results.len(), 5);
        let stats = engine.cache_stats();
        // Every frame prepared exactly once; interior frames re-fetched.
        assert_eq!(stats.misses, 6, "stats {stats:?}");
        assert!(stats.hits >= 4, "stats {stats:?}");
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn pipelining_does_not_change_results() {
        let seq = florida_thunderstorm_analog(40, 5, 11);
        let cfg = small_cfg();
        let region = sma_core::sequential::Region::Interior {
            margin: cfg.margin(),
        };
        let run = |pipelined: bool| {
            let mut engine = StreamEngine::with_goddard_budget(sequence_frames(&seq), cfg)
                .with_pipelining(pipelined);
            engine
                .run(|_, frames| track_all_sequential(frames, &cfg, region))
                .expect("run")
        };
        let a = run(true);
        let b = run(false);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.estimates, rb.estimates);
        }
    }

    #[test]
    #[should_panic(expected = "two frames")]
    fn single_frame_sequence_rejected() {
        let seq = florida_thunderstorm_analog(40, 2, 1);
        let frames = vec![sequence_frames(&seq)[0]];
        let _ = StreamEngine::with_goddard_budget(frames, small_cfg());
    }
}
