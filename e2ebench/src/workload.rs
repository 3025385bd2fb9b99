//! The workloads: paper-shaped satdata sequences with the paper's window
//! shapes, and the untimed naive replay every streamed pair is checked
//! against.

use sma_core::sequential::{Region, SmaResult};
use sma_core::{FrameArtifacts, PlannerKnobs, SmaConfig, SmaError, SmaFrames};
use sma_satdata::tracers::{pick_tracers, tracer_points};
use sma_satdata::{florida_thunderstorm_analog, hurricane_luis_analog, SceneSequence};
use sma_stream::goddard_cache_budget;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Florida thunderstorm, `Fcont`, 15 x 15 search and template,
    /// Goddard cache budget: the match layer does nearly all the work.
    FloridaCont,
    /// Hurricane Luis, `Fcont`, 9 x 9 search and 11 x 11 template, a
    /// cache of 1.5 artifact sets: eviction and prefetch beside matching.
    LuisTight,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::FloridaCont, Workload::LuisTight];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FloridaCont => "florida_cont",
            Workload::LuisTight => "luis_tight",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's configuration of this workload.
    pub fn spec(self) -> Spec {
        match self {
            Workload::FloridaCont => Spec {
                workload: self,
                size: 96,
                frames: 10,
                scenes: 6,
                cfg: SmaConfig::goes9_florida(),
                budget: Budget::Goddard,
            },
            Workload::LuisTight => Spec {
                workload: self,
                size: 96,
                frames: 12,
                scenes: 6,
                cfg: SmaConfig::hurricane_luis(),
                budget: Budget::ArtifactSets(1.5),
            },
        }
    }

    /// A reduced configuration (same windows and budget rule, smaller
    /// frames, one scene) for tests.
    pub fn small_spec(self) -> Spec {
        let full = self.spec();
        Spec {
            size: 64,
            frames: full.frames / 2,
            scenes: 1,
            ..full
        }
    }
}

/// Artifact-cache budget rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// The §4.3 Goddard MP-2 slack ([`goddard_cache_budget`]).
    Goddard,
    /// A multiple of one frame's artifact bytes.
    ArtifactSets(f64),
}

/// One workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Frame edge in pixels.
    pub size: usize,
    /// Frames per sequence.
    pub frames: usize,
    /// Sequences generated per run (distinct textures from the seed).
    pub scenes: usize,
    /// SMA windows and motion model.
    pub cfg: SmaConfig,
    /// Cache budget rule.
    pub budget: Budget,
}

/// Paper protocol: 32 reference vectors per pair.
const BARBS: usize = 32;

impl Spec {
    /// Tracked region: every pixel whose windows fit in the frame.
    pub fn region(&self) -> Region {
        Region::Interior {
            margin: self.cfg.margin(),
        }
    }

    /// Tracked pixels per pair.
    pub fn tracked_px(&self) -> usize {
        self.size.saturating_sub(2 * self.cfg.margin()).pow(2)
    }

    /// Cache budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        match self.budget {
            Budget::Goddard => goddard_cache_budget(&self.cfg),
            Budget::ArtifactSets(k) => {
                (k * FrameArtifacts::estimate_bytes(self.size, self.size) as f64) as usize
            }
        }
    }

    /// The run's input sequences, a pure function of `seed`.
    pub fn scenes(&self, seed: u64) -> Vec<Scene> {
        (0..self.scenes as u64)
            .map(|i| {
                let s = mix(seed ^ mix(i + 1));
                let seq = match self.workload {
                    Workload::FloridaCont => florida_thunderstorm_analog(self.size, self.frames, s),
                    Workload::LuisTight => hurricane_luis_analog(self.size, self.frames, s),
                };
                let tracers = (0..seq.len() - 1)
                    .map(|t| {
                        let picked = pick_tracers(
                            &seq.frames[t].intensity,
                            &seq.truth_flows[t],
                            BARBS,
                            0.5,
                            5,
                            self.cfg.margin(),
                            mix(s ^ t as u64),
                        );
                        tracer_points(&picked)
                    })
                    .collect();
                Scene { seq, tracers }
            })
            .collect()
    }

    /// The production matcher for one assembled pair.
    pub fn match_pair(&self, frames: &SmaFrames) -> Result<SmaResult, SmaError> {
        sma_core::plan::track_all_planner_with(
            frames,
            &self.cfg,
            self.region(),
            PlannerKnobs::default(),
        )
    }
}

/// One input sequence with its per-pair reference vectors.
#[derive(Debug, Clone)]
pub struct Scene {
    /// Frames and truth flows.
    pub seq: SceneSequence,
    /// The wind-barb tracer pixels of each pair.
    pub tracers: Vec<Vec<(usize, usize)>>,
}

/// splitmix64 finalizer: decorrelates derived seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over every bit of the tracked estimates: equal digests mean
/// bit-identical flows.
pub fn digest(r: &SmaResult) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (x, y) in r.region.pixels() {
        let e = r.estimates.at(x, y);
        let a = &e.affine;
        eat(u64::from(e.valid));
        eat(u64::from(e.displacement.u.to_bits()));
        eat(u64::from(e.displacement.v.to_bits()));
        eat(e.error.to_bits());
        for p in [a.ai, a.bi, a.aj, a.bj, a.ak, a.bk, a.x0, a.y0, a.z0] {
            eat(p.to_bits());
        }
    }
    h
}

/// Accuracy against satdata truth, pooled over every pair of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Accuracy {
    dense_sq: f64,
    dense_n: usize,
    barb_sq: f64,
    barb_n: usize,
    valid_sum: f64,
    pairs: usize,
}

impl Accuracy {
    /// Add one pair's result.
    pub fn add(&mut self, r: &SmaResult, scene: &Scene, t: usize) {
        let flow = r.flow();
        let truth = &scene.seq.truth_flows[t];
        let pts: Vec<(usize, usize)> = r.region.pixels().collect();
        let dense = flow.compare_at(truth, &pts);
        let barb = flow.compare_at(truth, &scene.tracers[t]);
        self.dense_sq += f64::from(dense.rms_endpoint).powi(2) * dense.count as f64;
        self.dense_n += dense.count;
        self.barb_sq += f64::from(barb.rms_endpoint).powi(2) * barb.count as f64;
        self.barb_n += barb.count;
        self.valid_sum += r.valid_fraction();
        self.pairs += 1;
    }

    /// Dense endpoint RMS over every tracked pixel, px.
    pub fn rms_px(&self) -> f64 {
        (self.dense_sq / self.dense_n.max(1) as f64).sqrt()
    }

    /// Endpoint RMS at the wind-barb tracers (the paper's metric), px.
    pub fn barb_rms_px(&self) -> f64 {
        (self.barb_sq / self.barb_n.max(1) as f64).sqrt()
    }

    /// Tracer vectors compared.
    pub fn barbs(&self) -> usize {
        self.barb_n
    }

    /// Mean valid fraction of tracked pixels.
    pub fn valid_frac(&self) -> f64 {
        self.valid_sum / self.pairs.max(1) as f64
    }
}

/// Digests and accuracy of the naive replay.
#[derive(Debug, Clone)]
pub struct Reference {
    /// `digests[scene][pair]`.
    pub digests: Vec<Vec<u64>>,
    /// Accuracy of the replayed flows.
    pub accuracy: Accuracy,
}

/// Untimed naive replay: [`SmaFrames::prepare`] per pair (no cache, no
/// pipelining) plus the same planner call as the streamed passes.
///
/// # Errors
/// Propagates preparation and matcher failures.
pub fn reference(spec: &Spec, scenes: &[Scene]) -> Result<Reference, SmaError> {
    let mut accuracy = Accuracy::default();
    let mut digests = Vec::with_capacity(scenes.len());
    for scene in scenes {
        let seq = &scene.seq;
        let mut row = Vec::with_capacity(seq.len() - 1);
        for t in 0..seq.len() - 1 {
            let frames = SmaFrames::prepare(
                &seq.frames[t].intensity,
                &seq.frames[t + 1].intensity,
                seq.surface(t),
                seq.surface(t + 1),
                &spec.cfg,
            )?;
            let r = spec.match_pair(&frames)?;
            accuracy.add(&r, scene, t);
            row.push(digest(&r));
        }
        digests.push(row);
    }
    Ok(Reference { digests, accuracy })
}
