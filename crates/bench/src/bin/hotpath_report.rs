//! Hot-path wall-clock report: exact kernels vs the integral-image fast
//! path vs the SIMD lane-kernel drivers vs the pruned-search family,
//! emitted as `BENCH_hotpath.json` (plus a stdout table).
//!
//! The medium configuration is the acceptance scenario: a 64 x 64 frame
//! with a 21 x 21 template and 9 x 9 search, where the O(T^2) per-sample
//! accumulation pays 441 multiply-add rows per hypothesis, the
//! moment-plane path pays four corner lookups per moment, and the SIMD
//! path additionally amortizes the 6 x 6 factorization per pixel and
//! hoists the gradient divisions out of the offset loop. The pruned
//! driver then orders the hypothesis sweep from a decimated-lattice seed
//! and rejects most candidates against an admissible lower bound before
//! their offset moment planes are ever built. The large configuration
//! (96 x 96, 31 x 31 template, 11 x 11 search) exercises the same
//! kernels at a realistic satellite-window scale — and gives the pruned
//! driver a 121-hypothesis sweep to cut down.
//!
//! Timing methodology: within a scenario all drivers are measured
//! **interleaved round-robin** — each round runs every driver once and
//! each driver reports its best-of-rounds. Measuring drivers
//! back-to-back in blocks lets slow environmental drift (thermal
//! throttling, frequency steps, cache pressure from a neighbouring job)
//! land on whichever driver happens to run in the last block; the
//! planner, always measured last, once read ~0.87x against the best
//! static driver on the large scenario from block order alone.
//! Round-robin spreads any drift evenly across all drivers.
//!
//! Usage: `hotpath_report [--small]`
//!
//! * `--small` — run only the small scenario with relaxed acceptance
//!   thresholds (the CI smoke tier; the full run is the publishable
//!   report).

use sma_bench::shifted_frames;
use sma_core::fastpath::{track_all_integral, track_all_integral_parallel};
use sma_core::motion::SmaFrames;
use sma_core::sequential::Region;
use sma_core::{
    track_all_parallel, track_all_planner, track_all_pruned, track_all_pruned_parallel,
    track_all_sequential, track_all_simd, track_all_simd_parallel, MotionModel, SmaConfig,
};
use std::hint::black_box;
use std::time::Instant;

/// Invocations per driver per round. A burst keeps the second and
/// third runs warm (branch predictors trained, caches resident on that
/// driver's working set) so the per-burst minimum measures the driver's
/// steady state, while the round-robin rotation between bursts spreads
/// environmental drift across all drivers.
const BURST: usize = 3;

/// Best-of-rounds wall-clock seconds for a set of drivers, measured
/// interleaved: each round invokes every still-sampling driver
/// [`BURST`] times back-to-back, so environmental drift is shared
/// instead of charged to the last block (see module docs) while each
/// sample still reflects a warmed driver. Per driver the sampling
/// budget matches the old per-driver loop: at least 3 invocations, then
/// until 0.2 s of accumulated time or 50 invocations.
fn time_interleaved(drivers: &mut [Box<dyn FnMut() + '_>]) -> Vec<f64> {
    // Warm-up round (page-in, allocator steady state).
    for f in drivers.iter_mut() {
        f();
    }
    let n = drivers.len();
    let mut best = vec![f64::INFINITY; n];
    let mut spent = vec![0.0f64; n];
    let mut reps = vec![0usize; n];
    loop {
        let sampling: Vec<bool> = (0..n)
            .map(|i| reps[i] < 3 || (spent[i] < 0.2 && reps[i] < 50))
            .collect();
        if !sampling.iter().any(|&s| s) {
            break;
        }
        for (i, f) in drivers.iter_mut().enumerate() {
            if !sampling[i] {
                continue;
            }
            for _ in 0..BURST {
                let t = Instant::now();
                f();
                let dt = t.elapsed().as_secs_f64();
                best[i] = best[i].min(dt);
                spent[i] += dt;
                reps[i] += 1;
            }
        }
    }
    best
}

struct Scenario {
    name: &'static str,
    side: usize,
    nzt: usize,
    nzs: usize,
}

struct Row {
    name: &'static str,
    frame: usize,
    template_side: usize,
    search_side: usize,
    exact_seq: f64,
    exact_par: f64,
    integral_seq: f64,
    integral_par: f64,
    simd_seq: f64,
    simd_par: f64,
    pruned_seq: f64,
    pruned_par: f64,
    planner: f64,
}

impl Row {
    /// Fast-path speedup within the parallel drivers. The single source
    /// for every place the ratio appears (table, JSON, metrics,
    /// acceptance gate) so they can never disagree.
    fn speedup_parallel(&self) -> f64 {
        self.exact_par / self.integral_par
    }

    /// Fast-path speedup within the sequential drivers. Distinct from
    /// [`Row::speedup_parallel`] — at two decimal places the pair has
    /// rounded to the same value on some hosts, which is coincidence,
    /// not a shared formula; the JSON carries four decimals so the two
    /// ratios stay visibly independent.
    fn speedup_sequential(&self) -> f64 {
        self.exact_seq / self.integral_seq
    }

    /// SIMD-family speedup over the scalar integral baseline,
    /// sequential driver against sequential driver (the acceptance
    /// ratio). The sequential pair is the clean family comparison: the
    /// "parallel" drivers run through the vendored sequential rayon
    /// shim, whose per-chunk dispatch adds a fixed overhead that lands
    /// much harder on the cheap SIMD rows than on the integral rows —
    /// gating on the parallel pair measured that shim asymmetry, not
    /// the lane kernels.
    fn speedup_simd(&self) -> f64 {
        self.integral_seq / self.simd_seq
    }

    /// The same family ratio over the parallel pair, carried in the
    /// JSON for the sentinel to tolerance-track (the shim dispatch
    /// overhead should stay roughly constant; a collapse here means the
    /// parallel wrappers themselves regressed).
    fn speedup_simd_parallel(&self) -> f64 {
        self.integral_par / self.simd_par
    }

    /// Pruned-search speedup over the exhaustive SIMD sweep, sequential
    /// against sequential (the pruned family's acceptance ratio: same
    /// kernels, bit-identical output, fewer candidate evaluations and
    /// fewer offset-plane builds).
    fn speedup_pruned(&self) -> f64 {
        self.simd_seq / self.pruned_seq
    }

    /// The fastest static driver's time on this scenario — the bar the
    /// adaptive planner is gated against.
    fn best_static(&self) -> f64 {
        [
            self.exact_seq,
            self.exact_par,
            self.integral_seq,
            self.integral_par,
            self.simd_seq,
            self.simd_par,
            self.pruned_seq,
            self.pruned_par,
        ]
        .into_iter()
        .fold(f64::INFINITY, f64::min)
    }

    /// Adaptive planner vs the best static driver. The planner's
    /// interior plan resolves to the fastest admitted family and a
    /// uniform plan collapses to one wholesale driver call, so this
    /// ratio should sit at ~1.0 — the gate allows a small slice of
    /// timer jitter below parity, nothing structural.
    fn speedup_planner(&self) -> f64 {
        self.best_static() / self.planner
    }
}

fn config_for(s: &Scenario) -> SmaConfig {
    SmaConfig {
        nzt: s.nzt,
        nzs: s.nzs,
        ..SmaConfig::small_test(MotionModel::Continuous)
    }
}

fn run_scenario(s: &Scenario) -> Row {
    let cfg = config_for(s);
    let frames: SmaFrames = shifted_frames(s.side, s.side, 1.0, 0.0, &cfg);
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    // One closure per driver, all measured round-robin (see module
    // docs). Order here is only the Row field order, not a measurement
    // order — every round touches every driver.
    let mut drivers: Vec<Box<dyn FnMut() + '_>> = vec![
        Box::new(|| {
            black_box(track_all_sequential(black_box(&frames), &cfg, region)).expect("track");
        }),
        Box::new(|| {
            black_box(track_all_parallel(black_box(&frames), &cfg, region)).expect("track");
        }),
        Box::new(|| {
            black_box(track_all_integral(black_box(&frames), &cfg, region)).expect("track");
        }),
        Box::new(|| {
            black_box(track_all_integral_parallel(
                black_box(&frames),
                &cfg,
                region,
            ))
            .expect("track");
        }),
        Box::new(|| {
            black_box(track_all_simd(black_box(&frames), &cfg, region)).expect("track");
        }),
        Box::new(|| {
            black_box(track_all_simd_parallel(black_box(&frames), &cfg, region)).expect("track");
        }),
        Box::new(|| {
            black_box(track_all_pruned(black_box(&frames), &cfg, region)).expect("track");
        }),
        Box::new(|| {
            black_box(track_all_pruned_parallel(black_box(&frames), &cfg, region)).expect("track");
        }),
        Box::new(|| {
            black_box(track_all_planner(black_box(&frames), &cfg, region)).expect("track");
        }),
    ];
    let t = time_interleaved(&mut drivers);
    drop(drivers);
    Row {
        name: s.name,
        frame: s.side,
        template_side: 2 * s.nzt + 1,
        search_side: 2 * s.nzs + 1,
        exact_seq: t[0],
        exact_par: t[1],
        integral_seq: t[2],
        integral_par: t[3],
        simd_seq: t[4],
        simd_par: t[5],
        pruned_seq: t[6],
        pruned_par: t[7],
        planner: t[8],
    }
}

/// One counted pass per driver family on the gate scenario, recorded at
/// `Summary` level, returning the span table as `(path, calls, seconds)`
/// rows — the per-kernel timing breakdown for the JSON document. Runs
/// after the timed section so the instrumentation never perturbs the
/// wall-clock numbers.
fn kernel_breakdown(s: &Scenario) -> Vec<(String, u64, f64)> {
    let cfg = config_for(s);
    let frames = shifted_frames(s.side, s.side, 1.0, 0.0, &cfg);
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    let prev = sma_obs::level();
    sma_obs::set_level(sma_obs::ObsLevel::Summary);
    sma_obs::span::reset();
    black_box(track_all_sequential(&frames, &cfg, region)).expect("track");
    black_box(track_all_integral(&frames, &cfg, region)).expect("track");
    black_box(track_all_simd(&frames, &cfg, region)).expect("track");
    black_box(track_all_pruned(&frames, &cfg, region)).expect("track");
    let rows = sma_obs::span::snapshot()
        .into_iter()
        .map(|r| (r.path, r.calls, r.total.as_secs_f64()))
        .collect();
    sma_obs::set_level(prev);
    rows
}

/// Prune-rate counters from one pruned run on the gate scenario:
/// candidates skipped against the admissible bound, offset planes
/// actually built, and interior pixels swept — the non-vacuity evidence
/// behind the speedup headline, carried in the JSON document so a
/// regression to "prunes nothing" is visible even when wall-clock noise
/// masks it.
fn prune_counters(s: &Scenario) -> [(&'static str, u64); 3] {
    let cfg = config_for(s);
    let frames = shifted_frames(s.side, s.side, 1.0, 0.0, &cfg);
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    let prev = sma_obs::level();
    sma_obs::set_level(sma_obs::ObsLevel::Summary);
    let names = [
        "prune.candidates_skipped",
        "pruned.offset_planes_built",
        "pruned.interior_pixels",
    ];
    let before: Vec<u64> = {
        let snap = sma_obs::metrics::snapshot();
        names.iter().map(|n| snap.counter(n)).collect()
    };
    black_box(track_all_pruned(&frames, &cfg, region)).expect("track");
    let snap = sma_obs::metrics::snapshot();
    let mut out = [("", 0u64); 3];
    for (i, n) in names.iter().enumerate() {
        out[i] = (*n, snap.counter(n).saturating_sub(before[i]));
    }
    sma_obs::set_level(prev);
    out
}

fn main() {
    let small_only = std::env::args().skip(1).any(|a| a == "--small");
    let scenarios: &[Scenario] = if small_only {
        &[Scenario {
            name: "small_t7",
            side: 40,
            nzt: 3,
            nzs: 2,
        }]
    } else {
        &[
            Scenario {
                name: "small_t7",
                side: 40,
                nzt: 3,
                nzs: 2,
            },
            Scenario {
                name: "medium_t21",
                side: 64,
                nzt: 10,
                nzs: 4,
            },
            Scenario {
                name: "large_t31",
                side: 96,
                nzt: 15,
                nzs: 5,
            },
        ]
    };

    println!("SMA hot path: exact vs integral vs SIMD lane kernels vs pruned search vs planner");
    println!(
        "  {:<12} {:>7} {:>9} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>8} {:>8} {:>8} {:>8}",
        "scenario",
        "frame",
        "template",
        "exact_seq",
        "exact_par",
        "int_seq",
        "int_par",
        "simd_seq",
        "simd_par",
        "prune_seq",
        "prune_par",
        "planner",
        "int_x",
        "simd_x",
        "prune_x",
        "pln_x"
    );

    let mut rows = Vec::new();
    for s in scenarios {
        let r = run_scenario(s);
        println!(
            "  {:<12} {:>4}^2 {:>6}^2 {:>10.4}s {:>10.4}s {:>10.4}s {:>10.4}s {:>10.4}s {:>10.4}s {:>10.4}s {:>10.4}s {:>10.4}s {:>7.1}x {:>7.1}x {:>7.2}x {:>7.2}x",
            r.name,
            r.frame,
            r.template_side,
            r.exact_seq,
            r.exact_par,
            r.integral_seq,
            r.integral_par,
            r.simd_seq,
            r.simd_par,
            r.pruned_seq,
            r.pruned_par,
            r.planner,
            r.speedup_parallel(),
            r.speedup_simd(),
            r.speedup_pruned(),
            r.speedup_planner()
        );
        rows.push(r);
    }

    // Per-kernel span breakdown and prune-rate counters on the gate
    // scenario (medium in full mode, small in smoke mode).
    let gate_scenario = if small_only {
        &scenarios[0]
    } else {
        &scenarios[1]
    };
    let kernels = kernel_breakdown(gate_scenario);
    let prune = prune_counters(gate_scenario);

    // Hand-formatted JSON (no serde in the workspace).
    let mut json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"unit\": \"seconds\",\n  \"mode\": \"{}\",\n  \"scenarios\": [\n",
        if small_only { "small" } else { "full" }
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "      \"frame\": {},\n",
                "      \"template_side\": {},\n",
                "      \"search_side\": {},\n",
                "      \"exact_sequential\": {:.6},\n",
                "      \"exact_parallel\": {:.6},\n",
                "      \"integral_sequential\": {:.6},\n",
                "      \"integral_parallel\": {:.6},\n",
                "      \"simd_sequential\": {:.6},\n",
                "      \"simd_parallel\": {:.6},\n",
                "      \"pruned_sequential\": {:.6},\n",
                "      \"pruned_parallel\": {:.6},\n",
                "      \"planner\": {:.6},\n",
                "      \"speedup_integral_vs_exact_parallel\": {:.4},\n",
                "      \"speedup_integral_vs_exact_sequential\": {:.4},\n",
                "      \"speedup_simd_vs_integral_sequential\": {:.4},\n",
                "      \"speedup_simd_vs_integral_parallel\": {:.4},\n",
                "      \"speedup_pruned_vs_simd_sequential\": {:.4},\n",
                "      \"speedup_planner_vs_best_static\": {:.4}\n",
                "    }}{}\n"
            ),
            r.name,
            r.frame,
            r.template_side,
            r.search_side,
            r.exact_seq,
            r.exact_par,
            r.integral_seq,
            r.integral_par,
            r.simd_seq,
            r.simd_par,
            r.pruned_seq,
            r.pruned_par,
            r.planner,
            r.speedup_parallel(),
            r.speedup_sequential(),
            r.speedup_simd(),
            r.speedup_simd_parallel(),
            r.speedup_pruned(),
            r.speedup_planner(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"kernel_breakdown_scenario\": \"{}\",\n  \"kernels\": [\n",
        gate_scenario.name
    ));
    for (i, (path, calls, secs)) in kernels.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"path\": \"{path}\", \"calls\": {calls}, \"seconds\": {secs:.6} }}{}\n",
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"prune\": {\n");
    for (i, (name, value)) in prune.iter().enumerate() {
        json.push_str(&format!(
            "    \"{name}\": {value}{}\n",
            if i + 1 < prune.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");
    println!("\nwrote BENCH_hotpath.json");

    // The timing rows above are the report's only artifact:
    // `BENCH_hotpath.json` holds the per-scenario wall-clock numbers,
    // and `METRICS_hotpath.json` (counters + gauges) is owned by
    // `obs_report` — one canonical schema per file, no near-duplicate
    // `METRICS_hotpath_report.json`.

    // Acceptance gates. Full mode: the integral fast path must clear
    // 10x over the exact kernels on medium, the SIMD family must clear
    // 3x over the scalar integral baseline on medium (sequential pair —
    // see [`Row::speedup_simd`] for why the parallel pair is not the
    // gate basis), and the pruned search must clear 1.5x over the
    // exhaustive SIMD sweep on medium and 2x on large — the larger
    // sweep (121 hypotheses vs 81) gives the bound more to reject, so
    // the bar rises with the scenario.
    // Smoke mode (--small): relaxed thresholds on the small scenario
    // (the small frame spends proportionally more time in fixed setup
    // and CI runners are noisy); its 5 x 5 sweep is also below the
    // pruning cutover that makes the screen worthwhile, so the pruned
    // gate there is a no-regression parity bar, not a speedup bar.
    // The planner gate is a parity bar on every gated scenario: on
    // these uniform interior scenarios the plan collapses to one
    // wholesale call into the fastest admitted driver, so "never slower
    // than the best static driver" means a ratio of ~1.0. The
    // thresholds sit a few percent below 1.0 only to absorb
    // best-of-rounds timer jitter — any structural slowdown (a planner
    // that re-plans per pixel, or mosaics a uniform region) lands far
    // below them. The large-scenario planner gate pins the ratio where
    // a block-ordered measurement once under-read the planner at
    // ~0.87x; round-robin interleaving keeps it honest.
    let mut checks: Vec<(&str, &str, f64, f64)> = Vec::new();
    if small_only {
        let g = &rows[0];
        checks.push((
            "small_t7",
            "integral vs exact (parallel)",
            g.speedup_parallel(),
            3.0,
        ));
        checks.push((
            "small_t7",
            "simd vs integral (sequential)",
            g.speedup_simd(),
            1.2,
        ));
        checks.push((
            "small_t7",
            "pruned vs simd (sequential)",
            g.speedup_pruned(),
            0.8,
        ));
        checks.push((
            "small_t7",
            "planner vs best static",
            g.speedup_planner(),
            0.9,
        ));
    } else {
        let medium = rows
            .iter()
            .find(|r| r.name == "medium_t21")
            .expect("medium row");
        let large = rows
            .iter()
            .find(|r| r.name == "large_t31")
            .expect("large row");
        checks.push((
            "medium_t21",
            "integral vs exact (parallel)",
            medium.speedup_parallel(),
            10.0,
        ));
        checks.push((
            "medium_t21",
            "simd vs integral (sequential)",
            medium.speedup_simd(),
            3.0,
        ));
        checks.push((
            "medium_t21",
            "pruned vs simd (sequential)",
            medium.speedup_pruned(),
            1.5,
        ));
        checks.push((
            "large_t31",
            "pruned vs simd (sequential)",
            large.speedup_pruned(),
            2.0,
        ));
        checks.push((
            "medium_t21",
            "planner vs best static",
            medium.speedup_planner(),
            0.95,
        ));
        checks.push((
            "large_t31",
            "planner vs best static",
            large.speedup_planner(),
            0.9,
        ));
    }
    let mut ok = true;
    for (scenario, label, got, need) in checks {
        if got >= need {
            println!("acceptance: {scenario} {label} = {got:.2}x (>= {need}x) OK");
        } else {
            println!("acceptance: {scenario} {label} = {got:.2}x (< {need}x) FAIL");
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
