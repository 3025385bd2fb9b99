//! Streaming throughput report: the sequence engine vs naive per-pair
//! recompute, emitted as `BENCH_stream.json` (plus `METRICS_stream.json`
//! and a stdout table).
//!
//! Each scenario replays a satdata analog sequence three ways — naive
//! (`SmaFrames::prepare` per pair, every interior frame prepared twice),
//! streaming (`StreamEngine::run`: artifacts cached across pairs, frame
//! `t+2` prepared on a worker thread while pair `(t, t+1)` matches) and
//! cache-only (the same engine with pipelining off) — verifies the
//! outputs are bit-identical, and times all three interleaved: each
//! round runs every replay once, so host noise lands on all of them
//! alike. A speed-up is the median of the per-round ratios, and a
//! reported time the median of its rounds.
//!
//! Acceptance gates (exit 1 on failure):
//! * every scenario's streaming output is bit-identical to naive;
//! * the `medium` sequence (>= 8 frames) clears 1.5x streaming vs
//!   naive with a cache hit rate > 0;
//! * the tight-budget scenario actually evicts (the LRU path is
//!   exercised, not just configured) and still clears 1.3x streaming
//!   vs naive, so a budget of 1.5 frame sets does not thrash;
//! * every cache high-water stays within its MemoryBudget-derived (or
//!   explicitly tightened) limit.
//!
//! `--small` shrinks frames and sequence lengths for CI.

use sma_core::fastpath::track_all_integral;
use sma_core::sequential::{Region, SmaResult};
use sma_core::{
    track_all_pruned, track_all_sequential, MotionModel, SmaConfig, SmaError, SmaFrames,
};
use sma_obs::json::MetricsDoc;
use sma_satdata::{florida_thunderstorm_analog, hurricane_luis_analog, SceneSequence};
use sma_stream::{goddard_cache_budget, sequence_frames, CacheStats, StreamEngine};
use std::hint::black_box;
use std::time::Instant;

/// Seconds per round of each replay, timed interleaved.
///
/// After an untimed warm-up round (page-in, allocator steady state),
/// every round runs each replay once, in order, so a burst of host noise
/// lands on every replay of that round rather than on one replay's
/// block. On a shared 2-vCPU host one frame's preparation varied 2x
/// between rounds and the per-round naive/streaming ratio of `medium`
/// spread from 1.3 to 2.7, so there are at least 9 rounds, and more (up
/// to 40) until 9 s have been spent, to keep the median steady.
fn time_interleaved(replays: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
    for f in replays.iter_mut() {
        f();
    }
    let mut secs = vec![Vec::new(); replays.len()];
    let mut spent = 0.0f64;
    let mut rounds = 0usize;
    while rounds < 9 || (spent < 9.0 && rounds < 40) {
        for (f, s) in replays.iter_mut().zip(&mut secs) {
            let t = Instant::now();
            f();
            let dt = t.elapsed().as_secs_f64();
            s.push(dt);
            spent += dt;
        }
        rounds += 1;
    }
    secs
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

fn run_driver(
    name: &str,
    frames: &SmaFrames,
    cfg: &SmaConfig,
    region: Region,
) -> Result<SmaResult, SmaError> {
    match name {
        "sequential" => track_all_sequential(frames, cfg, region),
        "fastpath" => track_all_integral(frames, cfg, region),
        // The pruned driver with its screen disarmed: the exhaustive
        // sweep over the SIMD lane kernels. Restores the armed default.
        "simd" => {
            sma_grid::prune::set_enabled(false);
            let out = track_all_pruned(frames, cfg, region);
            sma_grid::prune::set_enabled(true);
            out
        }
        "pruned" => track_all_pruned(frames, cfg, region),
        other => panic!("unknown driver {other}"),
    }
}

/// The report's configuration: a much heavier surface-fit window
/// (`nz = 16`) than the test default, matching the paper's
/// preparation-heavy phase profile (Table 2's surface fit + geometric
/// variables dominate a single pair), and a small search/template so
/// per-pair matching does not drown preparation — the regime where
/// cross-pair reuse has something to reclaim. (On a single-CPU host the
/// streaming win is bounded by `(2P + M) / (P + M) < 2`; preparation
/// needs to outweigh matching comfortably so the 1.5x gate holds with
/// margin against wall-clock noise.)
fn report_cfg() -> SmaConfig {
    SmaConfig {
        nz: 16,
        nzs: 1,
        nzt: 2,
        ..SmaConfig::small_test(MotionModel::Continuous)
    }
}

enum Budget {
    /// §4.3-derived aggregate slack on the Goddard MP-2.
    Goddard,
    /// `frames_and_a_half * artifact_bytes` — forces LRU eviction.
    TightFrames(usize),
}

struct Scenario {
    name: &'static str,
    seq: SceneSequence,
    driver: &'static str,
    cfg: SmaConfig,
    budget: Budget,
}

struct Row {
    name: &'static str,
    dataset: String,
    driver: &'static str,
    frames: usize,
    frame_side: usize,
    naive_s: f64,
    streaming_s: f64,
    cache_only_s: f64,
    /// Median over the timing rounds of naive / streaming seconds.
    speedup: f64,
    budget_bytes: usize,
    stats: CacheStats,
    bit_identical: bool,
}

fn run_scenario(s: &Scenario) -> Row {
    let cfg = &s.cfg;
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    let seq = &s.seq;
    let (side, _) = seq.dims();
    let budget_bytes = match s.budget {
        Budget::Goddard => goddard_cache_budget(cfg),
        Budget::TightFrames(halves) => {
            let probe = StreamEngine::with_goddard_budget(sequence_frames(seq), *cfg)
                .artifact_bytes_probe()
                .expect("probe");
            probe * halves / 2
        }
    };

    // Correctness + statistics pass (untimed, single replay each way).
    let naive: Vec<SmaResult> = (0..seq.len() - 1)
        .map(|t| {
            let pair = SmaFrames::prepare(
                &seq.frames[t].intensity,
                &seq.frames[t + 1].intensity,
                seq.surface(t),
                seq.surface(t + 1),
                cfg,
            )
            .expect("pairwise prepare");
            run_driver(s.driver, &pair, cfg, region).expect("naive run")
        })
        .collect();
    let mut engine = StreamEngine::new(sequence_frames(seq), *cfg, budget_bytes);
    let streamed = engine
        .run(|_, frames| run_driver(s.driver, frames, cfg, region))
        .expect("streamed run");
    let stats = engine.cache_stats();
    let bit_identical = streamed
        .iter()
        .zip(&naive)
        .all(|(a, b)| a.estimates == b.estimates);

    // Timing passes. A fresh engine per repetition: a warm cache would
    // hand streaming the prepared planes for free.
    let mut naive_replay = || {
        for t in 0..seq.len() - 1 {
            let pair = SmaFrames::prepare(
                &seq.frames[t].intensity,
                &seq.frames[t + 1].intensity,
                seq.surface(t),
                seq.surface(t + 1),
                cfg,
            )
            .expect("pairwise prepare");
            black_box(run_driver(s.driver, &pair, cfg, region)).expect("naive run");
        }
    };
    let mut streaming_replay = || {
        let mut engine = StreamEngine::new(sequence_frames(seq), *cfg, budget_bytes);
        black_box(engine.run(|_, frames| run_driver(s.driver, frames, cfg, region)))
            .expect("streamed run");
    };
    let mut cache_only_replay = || {
        let mut engine =
            StreamEngine::new(sequence_frames(seq), *cfg, budget_bytes).with_pipelining(false);
        black_box(engine.run(|_, frames| run_driver(s.driver, frames, cfg, region)))
            .expect("streamed run");
    };
    let [naive_secs, streaming_secs, cache_only_secs]: [Vec<f64>; 3] = time_interleaved(&mut [
        &mut naive_replay,
        &mut streaming_replay,
        &mut cache_only_replay,
    ])
    .try_into()
    .expect("one series per replay");
    let ratios = naive_secs.iter().zip(&streaming_secs).map(|(n, st)| n / st);
    let speedup = median(ratios.collect());

    Row {
        name: s.name,
        dataset: seq.name.clone(),
        driver: s.driver,
        frames: seq.len(),
        frame_side: side,
        naive_s: median(naive_secs),
        streaming_s: median(streaming_secs),
        cache_only_s: median(cache_only_secs),
        speedup,
        budget_bytes,
        stats,
        bit_identical,
    }
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let cfg = report_cfg();
    // The lane-kernel rows search 5 x 5, the smallest sweep at which the
    // pruned driver arms its screen (`PRUNE_MIN_HYPOTHESES`).
    let screen_cfg = SmaConfig { nzs: 2, ..cfg };
    let (side, medium_frames, short_frames) = if small { (48, 8, 5) } else { (64, 10, 6) };

    let scenarios = [
        Scenario {
            name: "medium",
            seq: florida_thunderstorm_analog(side, medium_frames, 17),
            driver: "fastpath",
            cfg,
            budget: Budget::Goddard,
        },
        Scenario {
            name: "medium_exact",
            seq: florida_thunderstorm_analog(side, short_frames, 17),
            driver: "sequential",
            cfg,
            budget: Budget::Goddard,
        },
        Scenario {
            name: "short_luis",
            seq: hurricane_luis_analog(side, short_frames, 23),
            driver: "fastpath",
            cfg,
            budget: Budget::Goddard,
        },
        // The lane-kernel matcher rides the same cache: the stream
        // engine hands each pair the identical prepared artifacts, so it
        // must stay bit-identical to its own naive replay. `short_simd`
        // runs the pruned driver with its screen disarmed, `short_pruned`
        // streams the armed screen.
        Scenario {
            name: "short_simd",
            seq: florida_thunderstorm_analog(side, short_frames, 17),
            driver: "simd",
            cfg: screen_cfg,
            budget: Budget::Goddard,
        },
        Scenario {
            name: "short_pruned",
            seq: florida_thunderstorm_analog(side, short_frames, 17),
            driver: "pruned",
            cfg: screen_cfg,
            budget: Budget::Goddard,
        },
        Scenario {
            name: "tight_budget",
            seq: florida_thunderstorm_analog(side, medium_frames, 17),
            driver: "fastpath",
            cfg,
            // 1.5 artifact sets: inserting frame t+1 evicts frame t.
            budget: Budget::TightFrames(3),
        },
    ];

    println!("SMA streaming engine: cross-pair cache + pipelining vs naive per-pair recompute");
    println!(
        "  {:<14} {:<12} {:>6} {:>6} {:>11} {:>11} {:>11} {:>8} {:>11}",
        "scenario",
        "driver",
        "frames",
        "side",
        "naive",
        "stream",
        "cache_only",
        "speedup",
        "hits/misses"
    );

    let mut rows = Vec::new();
    for s in &scenarios {
        let r = run_scenario(s);
        println!(
            "  {:<14} {:<12} {:>6} {:>4}^2 {:>10.4}s {:>10.4}s {:>10.4}s {:>7.2}x {:>5}/{:<5}",
            r.name,
            r.driver,
            r.frames,
            r.frame_side,
            r.naive_s,
            r.streaming_s,
            r.cache_only_s,
            r.speedup,
            r.stats.hits,
            r.stats.misses,
        );
        rows.push(r);
    }

    // Hand-formatted JSON (no serde in the workspace).
    let mut json =
        String::from("{\n  \"bench\": \"stream\",\n  \"unit\": \"seconds\",\n  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "      \"dataset\": \"{}\",\n",
                "      \"driver\": \"{}\",\n",
                "      \"frames\": {},\n",
                "      \"frame_side\": {},\n",
                "      \"naive_seconds\": {:.6},\n",
                "      \"streaming_seconds\": {:.6},\n",
                "      \"streaming_cache_only_seconds\": {:.6},\n",
                "      \"speedup_streaming_vs_naive\": {:.4},\n",
                "      \"cache_hits\": {},\n",
                "      \"cache_misses\": {},\n",
                "      \"cache_evictions\": {},\n",
                "      \"cache_high_water_bytes\": {},\n",
                "      \"cache_budget_bytes\": {},\n",
                "      \"bit_identical\": {}\n",
                "    }}{}\n"
            ),
            r.name,
            r.dataset,
            r.driver,
            r.frames,
            r.frame_side,
            r.naive_s,
            r.streaming_s,
            r.cache_only_s,
            r.speedup,
            r.stats.hits,
            r.stats.misses,
            r.stats.evictions,
            r.stats.high_water_bytes,
            r.budget_bytes,
            r.bit_identical,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_stream.json", &json).expect("write BENCH_stream.json");
    println!("\nwrote BENCH_stream.json");

    // Shared metrics document: one counted streaming replay of the
    // medium scenario (the timed passes above ran at the ambient
    // SMA_OBS level — off by default — so wall-clocks are unperturbed).
    if std::env::var("SMA_OBS").is_err() {
        sma_obs::set_level(sma_obs::ObsLevel::Summary);
    }
    {
        let region = Region::Interior {
            margin: cfg.margin(),
        };
        let seq = &scenarios[0].seq;
        let mut engine = StreamEngine::with_goddard_budget(sequence_frames(seq), cfg);
        engine
            .run(|_, frames| track_all_integral(frames, &cfg, region))
            .expect("metrics replay");
    }
    let mut doc = MetricsDoc::capture("stream_report");
    for r in &rows {
        doc.set_gauge(&format!("stream.{}.naive_s", r.name), r.naive_s);
        doc.set_gauge(&format!("stream.{}.streaming_s", r.name), r.streaming_s);
        doc.set_gauge(&format!("stream.{}.speedup", r.name), r.speedup);
        doc.set_gauge(
            &format!("stream.{}.cache_high_water_bytes", r.name),
            r.stats.high_water_bytes as f64,
        );
    }
    std::fs::write("METRICS_stream.json", doc.to_json()).expect("write METRICS_stream.json");
    println!("wrote METRICS_stream.json");

    // Acceptance gates.
    let mut failed = false;
    for r in &rows {
        if !r.bit_identical {
            println!(
                "acceptance: {} streaming output DIVERGED from naive FAIL",
                r.name
            );
            failed = true;
        }
        if r.stats.high_water_bytes > r.budget_bytes {
            println!(
                "acceptance: {} cache high water {} over budget {} FAIL",
                r.name, r.stats.high_water_bytes, r.budget_bytes
            );
            failed = true;
        }
    }
    let medium = rows.iter().find(|r| r.name == "medium").unwrap();
    let speedup = medium.speedup;
    if medium.frames >= 8 && speedup >= 1.5 && medium.stats.hit_rate() > 0.0 {
        println!(
            "acceptance: medium ({} frames) streaming vs naive = {:.2}x (>= 1.5x), hit rate {:.2} OK",
            medium.frames,
            speedup,
            medium.stats.hit_rate()
        );
    } else {
        println!(
            "acceptance: medium ({} frames) streaming vs naive = {:.2}x, hit rate {:.2} FAIL",
            medium.frames,
            speedup,
            medium.stats.hit_rate()
        );
        failed = true;
    }
    let tight = rows.iter().find(|r| r.name == "tight_budget").unwrap();
    if tight.stats.evictions > 0 {
        println!(
            "acceptance: tight_budget evicted {} entries (> 0) OK",
            tight.stats.evictions
        );
    } else {
        println!("acceptance: tight_budget never evicted FAIL");
        failed = true;
    }
    if tight.speedup >= 1.3 {
        println!(
            "acceptance: tight_budget streaming vs naive = {:.2}x (>= 1.3x) OK",
            tight.speedup
        );
    } else {
        println!(
            "acceptance: tight_budget streaming vs naive = {:.2}x FAIL",
            tight.speedup
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
