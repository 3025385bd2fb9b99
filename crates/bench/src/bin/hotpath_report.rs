//! Hot-path wall-clock report: exact kernels vs the integral-image fast
//! path vs the SIMD lane kernels vs pruned search, emitted as
//! `BENCH_hotpath.json` (plus a stdout table).
//!
//! The medium configuration is the acceptance scenario: a 64 x 64 frame
//! with a 21 x 21 template and 9 x 9 search, where the O(T^2) per-sample
//! accumulation pays 441 multiply-add rows per hypothesis, the
//! moment-plane path pays four corner lookups per moment, and the SIMD
//! lane kernels additionally amortize the 6 x 6 factorization per pixel
//! and hoist the gradient divisions out of the offset loop. The `simd`
//! column times the pruned driver with its screen disarmed
//! (`SMA_PRUNE=off`): the exhaustive raster sweep over the lane kernels.
//! The `pruned` column arms the screen, which orders the hypothesis
//! sweep from a seed per 2 x 2 block, rejects most candidates against an
//! admissible full-resolution block bound computed before any offset
//! moment plane is built, and builds a plane only for the offsets where
//! some candidate survives. The large configuration
//! (96 x 96, 31 x 31 template, 11 x 11 search) exercises the same
//! kernels at a realistic satellite-window scale — and gives the pruned
//! driver a 121-hypothesis sweep to cut down.
//!
//! Timing methodology: within a scenario all drivers are measured
//! **interleaved round-robin** — each round runs every driver once (a
//! short burst, see [`BURST`]). A driver's reported time is the median
//! of its rounds, and a speed-up is the median of the per-round ratios,
//! so the two drivers of a ratio are always timed under the same host
//! conditions: on a shared 2-vCPU host the small scenario's exact kernel
//! doubles between the host's quiet and slow states while the integral
//! path slows far less, so times taken in different rounds mix states.
//! Measuring drivers back-to-back in blocks lets slow environmental
//! drift (thermal throttling, frequency steps, cache pressure from a
//! neighbouring job) land on whichever driver happens to run in the last
//! block; the last-measured driver once read ~0.87x against an identical
//! call on the large scenario from block order alone.
//!
//! The `pruned` column times the pruned driver's banded sweep, so it
//! depends on the CPU count: each scenario records the band count the
//! driver chose (`pruned_bands`) and the document records
//! `available_parallelism`. The `simd` column, the same driver
//! unscreened, always runs one band.
//!
//! Every scenario is a rigid one-pixel shift of a smooth synthetic
//! surface, where the screen's seeds find the winner at once: the
//! pruned driver's **best case**. Each row says so (`best_case` in the
//! JSON, `*` in the table). No pruning claim rests on these rows alone;
//! the non-rigid end-to-end benchmark (`e2ebench/`) carries it.
//!
//! Usage: `hotpath_report [--small]`
//!
//! * `--small` — run only the small scenario with relaxed acceptance
//!   thresholds (the CI smoke tier; the full run is the publishable
//!   report).

use sma_bench::shifted_frames;
use sma_core::fastpath::track_all_integral;
use sma_core::motion::SmaFrames;
use sma_core::sequential::{Region, SmaResult};
use sma_core::{track_all_pruned, track_all_sequential, MotionModel, SmaConfig, SmaError};
use std::hint::black_box;
use std::time::Instant;

/// Invocations per driver per round. A burst keeps the second and
/// third runs warm (branch predictors trained, caches resident on that
/// driver's working set) so the per-burst minimum measures the driver's
/// steady state, while the round-robin rotation between bursts spreads
/// environmental drift across all drivers.
const BURST: usize = 3;

/// Rounds per scenario, unless [`ROUND_BUDGET_S`] runs out first.
const ROUNDS: usize = 9;

/// Seconds after which no further round starts. Only the scenarios
/// whose exact kernel takes a second or more per call stop early
/// (`large_t31` after one round); the small scenario's nine rounds take
/// under a second.
const ROUND_BUDGET_S: f64 = 10.0;

/// Per driver, the seconds of each round, measured interleaved: after
/// a warm-up round (page-in, allocator steady state), each round invokes
/// every driver [`BURST`] times back-to-back and keeps the fastest, so
/// environmental drift is shared instead of charged to the last block
/// (see module docs) while each sample still reflects a warmed driver.
fn time_interleaved(drivers: &mut [Box<dyn FnMut() + '_>]) -> Vec<Vec<f64>> {
    for f in drivers.iter_mut() {
        f();
    }
    let mut rounds = vec![Vec::new(); drivers.len()];
    let start = Instant::now();
    while rounds[0].len() < ROUNDS
        && (rounds[0].is_empty() || start.elapsed().as_secs_f64() < ROUND_BUDGET_S)
    {
        for (f, secs) in drivers.iter_mut().zip(&mut rounds) {
            let mut best = f64::INFINITY;
            for _ in 0..BURST {
                let t = Instant::now();
                f();
                best = best.min(t.elapsed().as_secs_f64());
            }
            secs.push(best);
        }
    }
    rounds
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median over rounds of `slow / fast`, each pair timed in the
/// same round.
fn median_ratio(slow: &[f64], fast: &[f64]) -> f64 {
    median(slow.iter().zip(fast).map(|(s, f)| s / f).collect())
}

struct Scenario {
    name: &'static str,
    side: usize,
    nzt: usize,
    nzs: usize,
    /// A rigid shift, the pruned driver's best case (see module docs).
    best_case: bool,
}

struct Row {
    name: &'static str,
    best_case: bool,
    frame: usize,
    template_side: usize,
    search_side: usize,
    /// Seconds per round of each driver, timed interleaved.
    exact_seq: Vec<f64>,
    integral_seq: Vec<f64>,
    simd_seq: Vec<f64>,
    pruned_seq: Vec<f64>,
    /// Row bands the pruned driver split this scenario's interior into.
    pruned_bands: u64,
}

impl Row {
    /// Fast-path speedup over the exact kernels. The single source for
    /// every place the ratio appears (table, JSON, acceptance gate) so
    /// they can never disagree.
    fn speedup_integral(&self) -> f64 {
        median_ratio(&self.exact_seq, &self.integral_seq)
    }

    /// SIMD lane-kernel speedup over the scalar integral baseline: the
    /// pruned driver's unscreened raster sweep against the integral
    /// driver.
    fn speedup_simd(&self) -> f64 {
        median_ratio(&self.integral_seq, &self.simd_seq)
    }

    /// Pruned-search speedup over the exhaustive lane-kernel sweep (the
    /// screen's acceptance ratio: same kernels, bit-identical output,
    /// fewer candidate evaluations and fewer offset-plane builds).
    fn speedup_pruned(&self) -> f64 {
        median_ratio(&self.simd_seq, &self.pruned_seq)
    }

    /// Each driver's median seconds over its rounds: exact, integral,
    /// simd, pruned.
    fn medians(&self) -> [f64; 4] {
        [
            &self.exact_seq,
            &self.integral_seq,
            &self.simd_seq,
            &self.pruned_seq,
        ]
        .map(|v| median(v.clone()))
    }
}

fn config_for(s: &Scenario) -> SmaConfig {
    SmaConfig {
        nzt: s.nzt,
        nzs: s.nzs,
        ..SmaConfig::small_test(MotionModel::Continuous)
    }
}

/// The pruned driver with its screen disarmed: the exhaustive raster
/// sweep over the SIMD lane kernels. Restores the armed default.
fn track_unscreened(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    region: Region,
) -> Result<SmaResult, SmaError> {
    sma_grid::prune::set_enabled(false);
    let out = track_all_pruned(frames, cfg, region);
    sma_grid::prune::set_enabled(true);
    out
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
            black_box(track_all_integral(black_box(&frames), &cfg, region)).expect("track");
        }),
        Box::new(|| {
            black_box(track_unscreened(black_box(&frames), &cfg, region)).expect("track");
        }),
        Box::new(|| {
            black_box(track_all_pruned(black_box(&frames), &cfg, region)).expect("track");
        }),
    ];
    let [exact_seq, integral_seq, simd_seq, pruned_seq]: [Vec<f64>; 4] =
        time_interleaved(&mut drivers)
            .try_into()
            .expect("four drivers");
    drop(drivers);
    Row {
        name: s.name,
        best_case: s.best_case,
        frame: s.side,
        template_side: 2 * s.nzt + 1,
        search_side: 2 * s.nzs + 1,
        exact_seq,
        integral_seq,
        simd_seq,
        pruned_seq,
        pruned_bands: pruned_bands(&frames, &cfg, region),
    }
}

/// The row-band count the pruned driver chooses for one call, read from
/// its `pruned.bands` counter.
fn pruned_bands(frames: &SmaFrames, cfg: &SmaConfig, region: Region) -> u64 {
    let prev = sma_obs::level();
    sma_obs::set_level(sma_obs::ObsLevel::Summary);
    let before = sma_obs::metrics::snapshot().counter("pruned.bands");
    black_box(track_all_pruned(frames, cfg, region)).expect("track");
    let bands = sma_obs::metrics::snapshot().counter("pruned.bands") - before;
    sma_obs::set_level(prev);
    bands
}

/// One counted pass per driver on the gate scenario, recorded at
/// `Summary` level, returning the span table as `(path, calls, seconds)`
/// rows — the per-kernel timing breakdown for the JSON document. Runs
/// after the timed section so the instrumentation never perturbs the
/// wall-clock numbers. A pruned call split into row bands adds one
/// `pruned_band` root per spawned band, with that band's
/// `pruned_static`, `pruned_screen`, `pruned_offset_planes` and
/// `pruned_eval` spans beneath it; the first band's stay under
/// `track_pruned`.
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
    black_box(track_all_pruned(&frames, &cfg, region)).expect("track");
    let rows = sma_obs::span::snapshot()
        .into_iter()
        .map(|r| (r.path, r.calls, r.total.as_secs_f64()))
        .collect();
    sma_obs::set_level(prev);
    rows
}

/// Prune-rate counters from one pruned run on the gate scenario:
/// candidates skipped against the admissible block bound, candidates
/// evaluated, offset planes actually built, and interior pixels swept —
/// the non-vacuity evidence behind the speedup
/// headline, carried in the JSON document so a regression to "prunes
/// nothing" is visible even when wall-clock noise masks it.
fn prune_counters(s: &Scenario) -> [(&'static str, u64); 4] {
    let cfg = config_for(s);
    let frames = shifted_frames(s.side, s.side, 1.0, 0.0, &cfg);
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    let prev = sma_obs::level();
    sma_obs::set_level(sma_obs::ObsLevel::Summary);
    let names = [
        "prune.candidates_skipped",
        "sma.hypotheses_evaluated",
        "pruned.offset_planes_built",
        "pruned.interior_pixels",
    ];
    let before: Vec<u64> = {
        let snap = sma_obs::metrics::snapshot();
        names.iter().map(|n| snap.counter(n)).collect()
    };
    black_box(track_all_pruned(&frames, &cfg, region)).expect("track");
    let snap = sma_obs::metrics::snapshot();
    let mut out = [("", 0u64); 4];
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
            best_case: true,
        }]
    } else {
        &[
            Scenario {
                name: "small_t7",
                side: 40,
                nzt: 3,
                nzs: 2,
                best_case: true,
            },
            Scenario {
                name: "medium_t21",
                side: 64,
                nzt: 10,
                nzs: 4,
                best_case: true,
            },
            Scenario {
                name: "large_t31",
                side: 96,
                nzt: 15,
                nzs: 5,
                best_case: true,
            },
        ]
    };

    println!("SMA hot path: exact vs integral vs SIMD lane kernels vs pruned search");
    println!(
        "  {:<12} {:>7} {:>9} {:>11} {:>11} {:>11} {:>11} {:>8} {:>8} {:>8}",
        "scenario",
        "frame",
        "template",
        "exact",
        "integral",
        "simd",
        "pruned",
        "int_x",
        "simd_x",
        "prune_x"
    );

    let mut rows = Vec::new();
    for s in scenarios {
        let r = run_scenario(s);
        let [exact, integral, simd, pruned] = r.medians();
        println!(
            "  {:<12} {:>4}^2 {:>6}^2 {:>10.4}s {:>10.4}s {:>10.4}s {:>10.4}s {:>7.1}x {:>7.1}x {:>7.2}x",
            format!("{}{}", r.name, if r.best_case { "*" } else { "" }),
            r.frame,
            r.template_side,
            exact,
            integral,
            simd,
            pruned,
            r.speedup_integral(),
            r.speedup_simd(),
            r.speedup_pruned()
        );
        rows.push(r);
    }
    if rows.iter().any(|r| r.best_case) {
        println!(
            "  * best case: a rigid one-pixel shift, where the screen's seeds find every winner"
        );
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
        "{{\n  \"bench\": \"hotpath\",\n  \"unit\": \"seconds\",\n  \"mode\": \"{}\",\n  \"available_parallelism\": {},\n  \"scenarios\": [\n",
        if small_only { "small" } else { "full" },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for (i, r) in rows.iter().enumerate() {
        let [exact, integral, simd, pruned] = r.medians();
        json.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "      \"best_case\": {},\n",
                "      \"frame\": {},\n",
                "      \"template_side\": {},\n",
                "      \"search_side\": {},\n",
                "      \"exact_sequential\": {:.6},\n",
                "      \"integral_sequential\": {:.6},\n",
                "      \"simd_sequential\": {:.6},\n",
                "      \"pruned_sequential\": {:.6},\n",
                "      \"pruned_bands\": {},\n",
                "      \"rounds\": {},\n",
                "      \"speedup_integral_vs_exact_sequential\": {:.4},\n",
                "      \"speedup_simd_vs_integral_sequential\": {:.4},\n",
                "      \"speedup_pruned_vs_simd_sequential\": {:.4}\n",
                "    }}{}\n"
            ),
            r.name,
            r.best_case,
            r.frame,
            r.template_side,
            r.search_side,
            exact,
            integral,
            simd,
            pruned,
            r.pruned_bands,
            r.exact_seq.len(),
            r.speedup_integral(),
            r.speedup_simd(),
            r.speedup_pruned(),
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
    // 10x over the exact kernels on medium, the SIMD lane kernels must
    // clear 3x over the scalar integral baseline on medium, and the
    // pruned search must clear 1.5x over the exhaustive SIMD sweep on
    // medium and 2x on large — the larger sweep (121 hypotheses vs 81)
    // gives the bound more to reject, so the bar rises with the
    // scenario.
    // Smoke mode (--small): relaxed thresholds on the small scenario
    // (the small frame spends proportionally more time in fixed setup
    // and CI runners are noisy). Its 5 x 5 sweep sits exactly at the
    // pruning cutover (25 hypotheses), where the screen arms and reads
    // ~3.5-4.5x the exhaustive sweep; the pruned gate there stays a loose
    // no-regression bar against runner noise.
    let mut checks: Vec<(&str, &str, f64, f64)> = Vec::new();
    if small_only {
        let g = &rows[0];
        checks.push(("small_t7", "integral vs exact", g.speedup_integral(), 3.0));
        checks.push(("small_t7", "simd vs integral", g.speedup_simd(), 1.2));
        checks.push(("small_t7", "pruned vs simd", g.speedup_pruned(), 0.8));
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
            "integral vs exact",
            medium.speedup_integral(),
            10.0,
        ));
        checks.push(("medium_t21", "simd vs integral", medium.speedup_simd(), 3.0));
        checks.push(("medium_t21", "pruned vs simd", medium.speedup_pruned(), 1.5));
        checks.push(("large_t31", "pruned vs simd", large.speedup_pruned(), 2.0));
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
