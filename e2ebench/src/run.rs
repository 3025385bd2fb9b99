//! Timed streaming passes, the output gate, and the metrics.
//!
//! A pass streams one scene through the production path: a
//! [`StreamEngine`] with pipelining on, frame 0 filled, then
//! [`StreamEngine::run`] with the planner as the matcher. Its timed
//! intervals are the set-up and then each pair; the reference probe runs
//! right before set-up, between set-up and run, and right after each
//! pair's match.

use std::fmt::Write as _;
use std::time::Instant;

use sma_grid::BorderPolicy;
use sma_obs::ObsLevel;
use sma_stream::{sequence_frames, CacheStats, StreamEngine};
use sma_surface::GeomField;

use crate::host::{fingerprint, peak_rss_mib, settle_allocator, ProcStat};
use crate::probe::{factor, Probe};
use crate::stats::{iqr_share, median, tail};
use crate::trace::{StageTable, Tracer, PROBE_SPAN};
use crate::workload::{digest, reference, Accuracy, Scene, Spec, Workload};

/// The engine's prefetch worker: on, as it is by default on any
/// multi-core host.
pub(crate) const PIPELINED: bool = true;
/// Minimum stage-table coverage of a traced run.
const MIN_COVERAGE: f64 = 0.95;
/// The paper's accuracy criterion, px.
const MAX_RMS_PX: f64 = 1.0;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time in seconds (split evenly between untraced and
    /// traced passes when tracing).
    pub seconds: f64,
    /// Produce the per-layer metrics from a traced half.
    pub trace: bool,
    /// Use the reduced test configuration.
    pub small: bool,
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every gate passed.
    pub correct: bool,
    /// Streamed pairs attempted.
    pub attempted: u64,
    /// Streamed pairs that errored or were not bit-identical.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Run fingerprint.
    pub fingerprint: Vec<(&'static str, String)>,
    /// Stage table of the traced passes.
    pub stages: Option<StageTable>,
    /// Spans of the traced passes, as JSON.
    pub spans_json: Option<String>,
    /// Per-pass probes and raw times, as JSON.
    pub passes_json: String,
    /// Human-readable report lines.
    pub report: String,
}

impl Outcome {
    /// Look a metric up by name.
    pub fn metric(&self, name: &str) -> Option<Metric> {
        self.metrics.iter().copied().find(|m| m.name == name)
    }
}

/// Timings and outputs of one streamed pass.
#[derive(Debug, Clone)]
struct Pass {
    scene: usize,
    /// Probe ms: before set-up, between set-up and run, then after each
    /// pair's match.
    probes: Vec<f64>,
    /// Raw set-up seconds: engine construction plus frame-0 artifacts.
    setup_s: f64,
    /// Raw run seconds, probes excluded.
    run_s: f64,
    /// Host-normalized run seconds.
    run_norm_s: f64,
    /// Raw per-pair latency, ms: end of the previous probe to the end of
    /// this pair's match.
    pair_ms: Vec<f64>,
    /// Normalization factor of each pair (its two adjacent probes).
    pair_factor: Vec<f64>,
    /// Raw per-pair matcher time, ms.
    match_ms: Vec<f64>,
    /// Per-pair flow digests; empty when the pass failed.
    digests: Vec<u64>,
    error: Option<String>,
    cache: CacheStats,
    /// Minor page faults over the pass (probes included).
    minflt: u64,
}

impl Pass {
    fn f_setup(&self) -> f64 {
        factor(self.probes[0], self.probes[1])
    }

    /// Host-normalized pass seconds (set-up plus run).
    fn norm_s(&self) -> f64 {
        self.setup_s * self.f_setup() + self.run_norm_s
    }

    /// Host-normalized per-pair latencies, ms.
    fn norm_pair_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.pair_ms
            .iter()
            .zip(&self.pair_factor)
            .map(|(ms, f)| ms * f)
    }

    /// Host-normalized per-pair matcher times, ms.
    fn norm_match_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.match_ms
            .iter()
            .zip(&self.pair_factor)
            .map(|(ms, f)| ms * f)
    }
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

/// One pair inside the run: match start and end, then the probe that
/// follows it.
struct PairMark {
    match_start: Instant,
    match_end: Instant,
    probe_ms: f64,
    probe_end: Instant,
}

/// Stream one scene; records spans into `tracer` when given.
///
/// Probes run before set-up, between set-up and run, and inside the
/// matcher callback right after each pair's match, so every pair is an
/// interval of its own with a probe on each side. The prefetch worker
/// prepares one frame (a few ms) while the match runs (tens of ms), so
/// it has finished before the probe starts.
fn stream_pass(
    spec: &Spec,
    scenes: &[Scene],
    scene: usize,
    probe: &mut Probe,
    tracer: Option<&mut Tracer>,
    pass_id: usize,
) -> Pass {
    let frames = sequence_frames(&scenes[scene].seq);
    let stat0 = ProcStat::now();
    let p0 = probe.measure();
    let s0 = Instant::now();
    let mut engine =
        StreamEngine::new(frames, spec.cfg, spec.budget_bytes()).with_pipelining(PIPELINED);
    let a0 = Instant::now();
    let fill = engine.artifacts(0);
    let s1 = Instant::now();
    let p1 = probe.measure();
    let mut marks: Vec<PairMark> = Vec::with_capacity(spec.frames);
    let r0 = Instant::now();
    let results = match fill {
        Ok(_) => engine.run(|_, pair| {
            let match_start = Instant::now();
            let r = spec.match_pair(pair);
            let match_end = Instant::now();
            let probe_ms = probe.measure();
            marks.push(PairMark {
                match_start,
                match_end,
                probe_ms,
                probe_end: Instant::now(),
            });
            r
        }),
        Err(e) => Err(e),
    };
    let r1 = Instant::now();

    let mut probes = vec![p0, p1];
    let mut prev = (r0, p1);
    let mut pair_ms = Vec::with_capacity(marks.len());
    let mut pair_factor = Vec::with_capacity(marks.len());
    let mut match_ms = Vec::with_capacity(marks.len());
    let mut probe_s = 0.0;
    let mut run_norm_s = 0.0;
    for m in &marks {
        let f = factor(prev.1, m.probe_ms);
        let ms = secs(prev.0, m.match_end) * 1e3;
        pair_ms.push(ms);
        pair_factor.push(f);
        match_ms.push(secs(m.match_start, m.match_end) * 1e3);
        run_norm_s += ms * 1e-3 * f;
        probe_s += secs(m.match_end, m.probe_end);
        probes.push(m.probe_ms);
        prev = (m.probe_end, m.probe_ms);
    }
    // The engine's work after the last callback, at the last factor.
    run_norm_s += secs(prev.0, r1) * pair_factor.last().copied().unwrap_or(1.0);
    let run_s = secs(r0, r1) - probe_s;

    if let Some(tr) = tracer {
        let setup = tr.record("stream.setup", s0, s1, None, pass_id, None);
        tr.record("artifacts.fill", a0, s1, Some(setup), pass_id, None);
        let run = tr.record("stream.run", r0, r1, None, pass_id, None);
        for (t, m) in marks.iter().enumerate() {
            tr.record(
                "match",
                m.match_start,
                m.match_end,
                Some(run),
                pass_id,
                Some(t),
            );
            tr.record(
                PROBE_SPAN,
                m.match_end,
                m.probe_end,
                Some(run),
                pass_id,
                Some(t),
            );
        }
        tr.pass_ns += ((secs(s0, s1) + run_s) * 1e9) as u64;
    }
    let (digests, error) = match results {
        Ok(rs) => (rs.iter().map(digest).collect(), None),
        Err(e) => (Vec::new(), Some(e.to_string())),
    };
    Pass {
        scene,
        probes,
        setup_s: secs(s0, s1),
        run_s,
        run_norm_s,
        pair_ms,
        pair_factor,
        match_ms,
        digests,
        error,
        cache: engine.cache_stats(),
        minflt: ProcStat::now().since(stat0).minflt,
    }
}

/// The output gate: every streamed pair must be bit-identical to the
/// naive replay and to the first streamed pass of its scene. A pair with
/// no reference digest (the replay failed) fails too.
struct Gate {
    reference: Vec<Vec<u64>>,
    pairs: usize,
    first: Vec<Option<Vec<u64>>>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Gate {
    fn new(reference: Vec<Vec<u64>>, pairs: usize) -> Self {
        let first = vec![None; reference.len()];
        Self {
            reference,
            pairs,
            first,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    fn check(&mut self, pass: &Pass) {
        self.attempted += self.pairs as u64;
        if let Some(e) = &pass.error {
            self.failed += self.pairs as u64;
            self.notes
                .push(format!("scene {} pass failed: {e}", pass.scene));
            return;
        }
        let want = &self.reference[pass.scene];
        let first = self.first[pass.scene].get_or_insert_with(|| pass.digests.clone());
        for t in 0..self.pairs {
            let got = pass.digests.get(t);
            if got.is_none() || got != want.get(t) || got != first.get(t) {
                self.failed += 1;
                self.notes.push(format!(
                    "scene {} pair {t}: flow differs from the naive replay or the first pass",
                    pass.scene
                ));
            }
        }
    }
}

/// Whole cycles over every scene until `seconds` would be exceeded (at
/// least one cycle).
fn cycles(
    spec: &Spec,
    scenes: &[Scene],
    probe: &mut Probe,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    gate: &mut Gate,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut cycle_s = 0.0;
    while passes.is_empty() || start.elapsed().as_secs_f64() + cycle_s <= seconds {
        let c0 = Instant::now();
        for scene in 0..scenes.len() {
            let id = passes.len();
            let pass = stream_pass(spec, scenes, scene, probe, tracer.as_deref_mut(), id);
            gate.check(&pass);
            passes.push(pass);
        }
        cycle_s = c0.elapsed().as_secs_f64();
    }
    passes
}

/// Per-pass probes and raw times as a JSON array.
fn passes_json(passes: &[Pass]) -> String {
    let rows: Vec<String> = passes
        .iter()
        .map(|p| {
            format!(
                "{{\"scene\": {}, \"probes_ms\": [{}], \"setup_ms\": {:.4}, \"run_ms\": {:.4}, \"minflt\": {}, \"pair_ms\": [{}], \"ok\": {}}}",
                p.scene,
                p.probes
                    .iter()
                    .map(|ms| format!("{ms:.4}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                p.setup_s * 1e3,
                p.run_s * 1e3,
                p.minflt,
                p.pair_ms
                    .iter()
                    .map(|ms| format!("{ms:.3}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                p.error.is_none()
            )
        })
        .collect();
    format!("[{}]", rows.join(",\n  "))
}

/// Per-scene median of normalized pass seconds, summed over scenes.
fn cycle_norm_s(passes: &[Pass], scenes: usize) -> f64 {
    (0..scenes)
        .map(|s| {
            let v: Vec<f64> = passes
                .iter()
                .filter(|p| p.scene == s && p.error.is_none())
                .map(Pass::norm_s)
                .collect();
            median(&v)
        })
        .sum()
}

/// Counter growth between two obs snapshots.
fn delta(
    a: &sma_obs::metrics::MetricsSnapshot,
    b: &sma_obs::metrics::MetricsSnapshot,
    names: &[&str],
) -> f64 {
    names
        .iter()
        .map(|n| b.counter(n).saturating_sub(a.counter(n)) as f64)
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Out-of-band geometry cost of one frame's artifacts: the two
/// [`GeomField::compute_par`] calls `FrameArtifacts::prepare` makes, on
/// the same planes, bracketed by probes. Median normalized ms per frame.
fn geom_ms(spec: &Spec, scene: &Scene, probe: &mut Probe) -> f64 {
    let seq = &scene.seq;
    let v: Vec<f64> = (0..seq.len())
        .map(|t| {
            let before = probe.measure();
            let t0 = Instant::now();
            let geo = GeomField::compute_par(seq.surface(t), spec.cfg.nz, BorderPolicy::Clamp);
            let disc = GeomField::compute_par(
                &seq.frames[t].intensity,
                spec.cfg.nst.max(1),
                BorderPolicy::Clamp,
            );
            let raw = secs(t0, Instant::now());
            std::hint::black_box((geo, disc));
            raw * 1e3 * factor(before, probe.measure())
        })
        .collect();
    median(&v)
}

/// Run one workload.
pub fn run(opts: &Options) -> Outcome {
    let spec = if opts.small {
        opts.workload.small_spec()
    } else {
        opts.workload.spec()
    };
    let _pin = settle_allocator();
    let scenes = spec.scenes(opts.seed);
    let pairs_per_pass = spec.frames - 1;
    // Timings never run with the program's own instrumentation on,
    // whatever SMA_OBS says; the traced half turns it on explicitly.
    sma_obs::set_level(ObsLevel::Off);

    let mut report = String::new();
    let (reference, accuracy) = match reference(&spec, &scenes) {
        Ok(r) => (r.digests, r.accuracy),
        Err(e) => {
            let _ = writeln!(report, "naive replay failed: {e}");
            (vec![Vec::new(); scenes.len()], Accuracy::default())
        }
    };
    let mut gate = Gate::new(reference, pairs_per_pass);
    let mut probe = Probe::new();
    // Warm-up: one untimed cycle over every scene, gated like the rest.
    for scene in 0..scenes.len() {
        let warm = stream_pass(&spec, &scenes, scene, &mut probe, None, 0);
        gate.check(&warm);
    }

    let phase_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let stat0 = ProcStat::now();
    let untraced = cycles(&spec, &scenes, &mut probe, phase_s, None, &mut gate);
    let host = ProcStat::now().since(stat0);

    let ok: Vec<&Pass> = untraced.iter().filter(|p| p.error.is_none()).collect();
    let pairs: f64 = (ok.len() * pairs_per_pass) as f64;
    let norm_pairs: Vec<f64> = ok.iter().flat_map(|p| p.norm_pair_ms()).collect();
    let raw_pairs: Vec<f64> = ok.iter().flat_map(|p| p.pair_ms.iter().copied()).collect();
    let setups: Vec<f64> = ok.iter().map(|p| p.setup_s * p.f_setup()).collect();
    let pass_s: f64 = ok.iter().map(|p| p.norm_s()).sum();
    let (tail_ms, tail_pct) = tail(&norm_pairs);
    let mut probes: Vec<f64> = untraced.iter().flat_map(|p| p.probes.clone()).collect();
    let mut all_passes = untraced.clone();

    let _ = writeln!(
        report,
        "workload {} ({}x{}, {} frames, {} scenes, {:?}, nzs {}, nzt {}), seed {}",
        spec.workload.name(),
        spec.size,
        spec.size,
        spec.frames,
        spec.scenes,
        spec.cfg.model,
        spec.cfg.nzs,
        spec.cfg.nzt,
        opts.seed
    );
    let _ = writeln!(
        report,
        "untimed naive replay and {} untraced passes ({} pairs); pair_ms_tail is p{tail_pct:.1} of {} samples",
        untraced.len(),
        pairs,
        norm_pairs.len()
    );
    let _ = writeln!(
        report,
        "accuracy: dense rms {:.4} px, barb rms {:.4} px over {} tracer vectors, valid {:.4}",
        accuracy.rms_px(),
        accuracy.barb_rms_px(),
        accuracy.barbs(),
        accuracy.valid_frac()
    );

    let metrics;
    let mut stages = None;
    let mut spans_json = None;
    let mut coverage_ok = true;
    if opts.trace {
        let mut tracer = Tracer::new();
        sma_obs::set_level(ObsLevel::Summary);
        sma_obs::metrics::reset();
        sma_obs::span::reset();
        let c0 = sma_obs::metrics::snapshot();
        let traced = cycles(
            &spec,
            &scenes,
            &mut probe,
            phase_s,
            Some(&mut tracer),
            &mut gate,
        );
        let c1 = sma_obs::metrics::snapshot();
        let obs_spans = sma_obs::span::snapshot();
        sma_obs::set_level(ObsLevel::Off);
        let geom = geom_ms(&spec, &scenes[0], &mut probe);
        probes.extend(traced.iter().flat_map(|p| p.probes.iter().copied()));
        all_passes.extend(traced.iter().cloned());

        let t_ok: Vec<&Pass> = traced.iter().filter(|p| p.error.is_none()).collect();
        let t_pairs = (t_ok.len() * pairs_per_pass) as f64;
        let tracked = t_pairs * spec.tracked_px() as f64;
        let hyps_pp = spec.cfg.hypotheses_per_pixel() as f64;
        let f_med = median(
            &t_ok
                .iter()
                .flat_map(|p| p.pair_factor.iter().copied())
                .collect::<Vec<_>>(),
        );
        let match_norm: Vec<f64> = t_ok.iter().flat_map(|p| p.norm_match_ms()).collect();
        let assemble_ms: f64 = t_ok
            .iter()
            .map(|p| p.run_norm_s * 1e3 - p.norm_match_ms().sum::<f64>())
            .sum();
        let cache = t_ok.iter().fold(CacheStats::default(), |mut acc, p| {
            acc.hits += p.cache.hits;
            acc.misses += p.cache.misses;
            acc.evictions += p.cache.evictions;
            acc.high_water_bytes = acc.high_water_bytes.max(p.cache.high_water_bytes);
            acc
        });
        let (prep_calls, prep_ns) = obs_spans
            .iter()
            .filter(|r| r.path.ends_with("frame_artifacts"))
            .fold((0u64, 0u128), |(c, n), r| {
                (c + r.calls, n + r.total.as_nanos())
            });
        let hyps = delta(&c0, &c1, &["sma.hypotheses_evaluated"]);
        let table = tracer.stage_table();
        let setup_frac = table.self_share("stream.setup") + table.self_share("artifacts.fill");
        coverage_ok = table.coverage() >= MIN_COVERAGE;
        let overhead = ratio(
            cycle_norm_s(&traced, scenes.len()),
            cycle_norm_s(&untraced, scenes.len()),
        );
        let pruned_px = delta(&c0, &c1, &["pruned.interior_pixels"]);
        let m = |name, value, unit| Metric { name, value, unit };
        metrics = vec![
            m("surface.geom_ms", geom, "ms"),
            m(
                "artifacts.prepare_ms",
                ratio(prep_ns as f64 * 1e-6, prep_calls as f64) * f_med,
                "ms",
            ),
            m(
                "artifacts.prepares_per_frame",
                ratio(cache.misses as f64, (t_ok.len() * spec.frames) as f64),
                "count",
            ),
            m("stream.assemble_ms", ratio(assemble_ms, t_pairs), "ms"),
            m(
                "stream.hit_rate",
                ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
                "ratio",
            ),
            m(
                "stream.evictions_per_pair",
                ratio(cache.evictions as f64, t_pairs),
                "count",
            ),
            m(
                "stream.high_water_mb",
                cache.high_water_bytes as f64 / (1 << 20) as f64,
                "MiB",
            ),
            m("match.ms", median(&match_norm), "ms"),
            m(
                "match.ns_per_hyp",
                ratio(match_norm.iter().sum::<f64>() * 1e6, hyps),
                "ns",
            ),
            m("match.hyp_evals_per_px", ratio(hyps, tracked), "count"),
            m(
                "match.planes_built_frac",
                ratio(
                    delta(
                        &c0,
                        &c1,
                        &[
                            "pruned.offset_planes_built",
                            "simd.offset_planes_built",
                            "fastpath.offset_planes_built",
                        ],
                    ),
                    t_pairs * hyps_pp,
                ),
                "ratio",
            ),
            m(
                "match.prune_skip_frac",
                ratio(
                    delta(&c0, &c1, &["prune.candidates_skipped"]),
                    pruned_px * hyps_pp,
                ),
                "ratio",
            ),
            m(
                "match.reroute_frac",
                ratio(
                    delta(
                        &c0,
                        &c1,
                        &[
                            "pruned.near_tie_pixels",
                            "simd.near_tie_pixels",
                            "fastpath.near_tie_pixels",
                        ],
                    ),
                    tracked,
                ),
                "ratio",
            ),
            m(
                "match.exact_terms_per_px",
                ratio(delta(&c0, &c1, &["sma.template_terms"]), tracked),
                "count",
            ),
            m(
                "host.minflt_per_pair",
                ratio(host.minflt as f64, pairs),
                "count",
            ),
            m(
                "host.sys_frac",
                ratio(host.stime as f64, (host.utime + host.stime) as f64),
                "ratio",
            ),
            m("host.ref_ms", median(&probes), "ms"),
            m("host.ref_spread", iqr_share(&probes), "ratio"),
            m("host.raw_pair_ms_p50", median(&raw_pairs), "ms"),
            m("stage.match_frac", table.self_share("match"), "ratio"),
            m(
                "stage.assemble_frac",
                table.self_share("stream.run"),
                "ratio",
            ),
            m("stage.setup_frac", setup_frac, "ratio"),
            m("obs.stage_coverage", table.coverage(), "ratio"),
            m("obs.trace_overhead", overhead, "ratio"),
        ];
        let _ = writeln!(
            report,
            "traced passes: {} ({} pairs); stage table (normalized ms):\n{}",
            traced.len(),
            t_pairs,
            table.render(f_med)
        );
        spans_json = Some(tracer.spans_json());
        stages = Some(table);
    } else {
        let m = |name, value, unit| Metric { name, value, unit };
        metrics = vec![
            m("pair_ms_p50", median(&norm_pairs), "ms"),
            m("pair_ms_tail", tail_ms, "ms"),
            m("pairs_per_s", ratio(pairs, pass_s), "1/s"),
            m("setup_s", median(&setups), "s"),
            m("peak_rss_mb", peak_rss_mib(), "MiB"),
            m("rms_px", accuracy.rms_px(), "px"),
            m("barb_rms_px", accuracy.barb_rms_px(), "px"),
            m("valid_frac", accuracy.valid_frac(), "ratio"),
        ];
        let _ = writeln!(
            report,
            "host: probe median {:.4} ms (spread {:.4}), raw pair p50 {:.3} ms, {:.1} minor faults/pair, sys share {:.4}",
            median(&probes),
            iqr_share(&probes),
            median(&raw_pairs),
            ratio(host.minflt as f64, pairs),
            ratio(host.stime as f64, (host.utime + host.stime) as f64)
        );
    }

    let accurate = accuracy.rms_px() < MAX_RMS_PX && accuracy.barb_rms_px() < MAX_RMS_PX;
    let finite = metrics.iter().all(|m| m.value.is_finite());
    for note in gate.notes.iter().take(10) {
        let _ = writeln!(report, "gate: {note}");
    }
    let _ = writeln!(
        report,
        "gate: {} of {} streamed pairs failed (fail_frac {:.4}); rms < {MAX_RMS_PX} px: {}; stage coverage >= {MIN_COVERAGE}: {}",
        gate.failed,
        gate.attempted,
        ratio(gate.failed as f64, gate.attempted as f64),
        if accurate { "yes" } else { "NO" },
        if coverage_ok { "yes" } else { "NO" }
    );
    Outcome {
        correct: gate.failed == 0 && gate.attempted > 0 && accurate && coverage_ok && finite,
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        fingerprint: fingerprint(opts.seed, median(&probes)),
        stages,
        spans_json,
        passes_json: passes_json(&all_passes),
        report,
    }
}
