//! Spatial telemetry atlas report: run the nastiest scene we know —
//! a period-2 near-tie pattern with non-finite pokes — through all
//! three driver families plus the streaming engine with the atlas
//! armed, render every channel as an ASCII heatmap, and export the
//! planes as `METRICS_atlas.json`.
//!
//! Usage: `trace_report [--small] [--out PATH]`
//!
//! * `--small` — 28 x 28 frames and a 3-frame sequence (the CI smoke
//!   tier) instead of 64 x 64 and 6 frames;
//! * `--out PATH` — write the metrics document to `PATH` instead of
//!   `METRICS_atlas.json`.
//!
//! The flight recorder is armed for the whole run; the recorded forest
//! is structurally validated in-process (balanced `B`/`E`, monotone
//! timestamps, a second thread from the stream prepare-ahead worker)
//! and written to the `SMA_TRACE` path when that variable is set.
//!
//! Exits nonzero unless every acceptance gate holds: the near-tie,
//! border-fallback, quarantine and all three dispatch channels must be
//! nonzero, the near-tie plane must agree with the scalar re-route
//! counters, and the streaming cache must record at least one hit.

use sma_core::fastpath::track_all_integral;
use sma_core::motion::SmaFrames;
use sma_core::sequential::Region;
use sma_core::{track_all_pruned, track_all_sequential, MotionModel, SmaConfig};
use sma_grid::Grid;
use sma_obs::atlas::{self, AtlasChannel};
use sma_obs::json::MetricsDoc;
use sma_obs::trace;
use sma_stream::{FrameSource, StreamEngine};

/// The near-tie scene: period-2 in x (the +1 / -1 shift hypotheses
/// agree up to rounding), mildly modulated in y, shifted by one pixel
/// between frames, with non-finite pokes the quarantine must repair.
fn tie_scene(side: usize) -> (Grid<f32>, Grid<f32>) {
    let mut before = Grid::from_fn(side, side, |x, y| {
        (x as f32 * std::f32::consts::PI).cos() * (1.0 + 0.2 * (y as f32 * 0.37).sin())
            + 0.4 * (y as f32 * 0.23).cos()
    });
    // Non-finite pokes, interior and border.
    before.set(5, 5, f32::NAN);
    before.set(side / 2, side / 2, f32::INFINITY);
    before.set(side - 2, 1, f32::NEG_INFINITY);
    let after = Grid::from_fn(side, side, |x, y| {
        let xs = (x as isize - 1).clamp(0, side as isize - 1) as usize;
        before.at(xs, y)
    });
    (before, after)
}

fn counter(name: &str) -> u64 {
    sma_obs::metrics::snapshot().counter(name)
}

struct Gate {
    name: String,
    ok: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("METRICS_atlas.json", |s| s.as_str());

    if std::env::var("SMA_OBS").is_err() {
        sma_obs::set_level(sma_obs::ObsLevel::Summary);
    }
    trace::set_recording(true);

    let side = if small { 28 } else { 64 };
    let seq_frames = if small { 3 } else { 6 };
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    println!(
        "trace_report: {side}x{side} near-tie scene, {seq_frames}-frame sequence ({})",
        if small { "small" } else { "full" },
    );

    atlas::arm(side, side, 8);

    let near_tie0 = counter("fastpath.near_tie_pixels") + counter("pruned.near_tie_pixels");
    let border0 =
        counter("fastpath.border_fallback_pixels") + counter("pruned.border_fallback_pixels");

    // Phase 1: the three driver families over the full frame. The
    // border ring falls back to the exact kernel, the period-2 interior
    // re-routes near-ties, and the quarantined pokes land in the
    // quarantine plane during preparation.
    let (before, after) = tie_scene(side);
    let frames = {
        let _s = sma_obs::span("trace_report_prepare");
        SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare")
    };
    let seq = track_all_sequential(&frames, &cfg, Region::Full).expect("sequential");
    let fast = track_all_integral(&frames, &cfg, Region::Full).expect("fastpath");
    let pruned = track_all_pruned(&frames, &cfg, Region::Full).expect("pruned");
    for (x, y) in seq.region.pixels() {
        let s = seq.estimates.at(x, y);
        for (name, r) in [("fastpath", &fast), ("pruned", &pruned)] {
            let f = r.estimates.at(x, y);
            assert_eq!(s.valid, f.valid, "{name} validity diverged at ({x},{y})");
            assert_eq!(
                s.displacement, f.displacement,
                "{name} displacement diverged at ({x},{y})"
            );
        }
    }

    let near_tie_delta =
        counter("fastpath.near_tie_pixels") + counter("pruned.near_tie_pixels") - near_tie0;
    let border_delta = counter("fastpath.border_fallback_pixels")
        + counter("pruned.border_fallback_pixels")
        - border0;

    // Phase 2: the streaming engine over a short shifting sequence, so
    // the per-frame cache hit/miss series has real traffic. Pipelining
    // is forced on: the prepare-ahead worker is the second trace thread.
    let seq_side = if small { 28 } else { 40 };
    let pattern: Vec<Grid<f32>> = (0..seq_frames)
        .map(|t| {
            Grid::from_fn(seq_side, seq_side, |x, y| {
                let xs = (x as isize - t as isize).clamp(0, seq_side as isize - 1) as usize;
                ((xs as f32 * 0.45).sin() * 2.0 + (y as f32 * 0.35).cos() * 1.5)
                    + (xs as f32 * 0.12 + y as f32 * 0.21).sin() * 3.0
            })
        })
        .collect();
    let sources: Vec<FrameSource> = pattern
        .iter()
        .map(|g| FrameSource {
            intensity: g,
            surface: g,
        })
        .collect();
    let mut engine = StreamEngine::with_goddard_budget(sources, cfg).with_pipelining(true);
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    engine
        .run(|_, pair| track_all_integral(pair, &cfg, region).map(|_| ()))
        .expect("stream run");
    let cache = engine.cache_stats();
    println!(
        "stream cache: {} hits, {} misses, {} evictions (hit rate {:.2})",
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.hit_rate()
    );

    // The atlas, rendered and exported.
    let snap = atlas::snapshot().expect("atlas armed");
    println!();
    for ch in AtlasChannel::ALL {
        println!("{}", snap.heatmap(ch));
    }
    let frames_with_hits = snap
        .cache_frames
        .iter()
        .filter(|(hits, _)| *hits > 0)
        .count();
    println!(
        "cache series: {} frame slots, {} with hits",
        snap.cache_frames.len(),
        frames_with_hits
    );

    let mut doc = MetricsDoc::new("trace_report");
    snap.export_into(&mut doc);
    doc.set_counter("stream.cache_hits", cache.hits);
    doc.set_counter("stream.cache_misses", cache.misses);
    doc.set_counter("stream.cache_evictions", cache.evictions);
    std::fs::write(out_path, doc.to_json()).expect("write metrics document");
    println!("\nwrote {out_path}");

    // The flight recorder: validate in-process, then export if asked.
    let json = trace::chrome_json();
    let check = match trace::validate_chrome_json(&json) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("trace_report: recorded trace is structurally invalid: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "trace: {} events, {} spans, {} threads, depth {}, {} dropped",
        check.events,
        check.spans,
        check.threads,
        check.max_depth,
        trace::events_dropped()
    );
    match trace::export_to_env() {
        Ok(Some(path)) => println!("trace: wrote {path}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("trace_report: trace export failed: {e}");
            std::process::exit(1);
        }
    }
    println!("\nper-stage latency (recorded spans):");
    for s in trace::latency_summary() {
        println!(
            "  {:<44} {:>7} p50 {:>8}us p95 {:>8}us p99 {:>8}us max {:>8}us",
            s.path, s.count, s.p50_us, s.p95_us, s.p99_us, s.max_us
        );
    }

    // Acceptance gates.
    let gates = vec![
        Gate {
            name: format!(
                "near-tie plane total {} == scalar re-route counters {near_tie_delta} (nonzero)",
                snap.total(AtlasChannel::NearTie)
            ),
            ok: snap.total(AtlasChannel::NearTie) == near_tie_delta && near_tie_delta > 0,
        },
        Gate {
            name: format!(
                "border-fallback plane total {} == scalar counters {border_delta} (nonzero)",
                snap.total(AtlasChannel::BorderFallback)
            ),
            ok: snap.total(AtlasChannel::BorderFallback) == border_delta && border_delta > 0,
        },
        Gate {
            name: format!(
                "quarantine plane nonzero ({})",
                snap.total(AtlasChannel::Quarantine)
            ),
            ok: snap.total(AtlasChannel::Quarantine) > 0,
        },
        Gate {
            name: format!(
                "all three dispatch planes nonzero (exact {}, integral {}, pruned {})",
                snap.total(AtlasChannel::DispatchExact),
                snap.total(AtlasChannel::DispatchIntegral),
                snap.total(AtlasChannel::DispatchPruned)
            ),
            ok: snap.total(AtlasChannel::DispatchExact) > 0
                && snap.total(AtlasChannel::DispatchIntegral) > 0
                && snap.total(AtlasChannel::DispatchPruned) > 0,
        },
        Gate {
            name: format!("streaming cache recorded hits ({})", cache.hits),
            ok: cache.hits > 0 && frames_with_hits > 0,
        },
        Gate {
            name: format!(
                "trace captured spans on >= 2 threads ({} spans, {} threads)",
                check.spans, check.threads
            ),
            ok: check.spans > 0 && check.threads >= 2,
        },
    ];
    println!("\nacceptance gates:");
    let mut failed = false;
    for g in &gates {
        println!("  [{}] {}", if g.ok { "OK" } else { "FAIL" }, g.name);
        failed |= !g.ok;
    }
    atlas::disarm();
    if failed {
        eprintln!("trace_report: acceptance gates FAILED");
        std::process::exit(1);
    }
    println!("trace_report: all gates hold OK");
}
