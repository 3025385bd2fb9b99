//! End-to-end observability report: run a medium SMA workload through
//! every pipeline layer, print the nested span tree, validate the
//! recorded counters against the analytic operation counts of
//! [`sma_core::timing::SmaWorkload`], and emit the shared
//! `METRICS_hotpath.json` document.
//!
//! Usage: `obs_report [--small] [--out PATH] [--faults [SEED:RATE]]`
//!
//! * `--small` — run the reduced CI workload (32 x 32 frames) instead of
//!   the 64 x 64 medium one;
//! * `--out PATH` — write the metrics document to `PATH` instead of
//!   `METRICS_hotpath.json`;
//! * `--faults [SEED:RATE]` — arm the deterministic fault harness
//!   (default `42:0.02`), punch input dropouts into the frames, print
//!   the fault ledger, and validate the `injected == recovered +
//!   degraded` invariant. The cross-driver equivalence assertions stay
//!   live: degraded fast-path pixels re-route through the exact kernel,
//!   so an armed run must still agree with the sequential reference.
//!
//! If `SMA_OBS` is unset the level defaults to `summary` so the report
//! is useful out of the box; set `SMA_OBS=spans` or `trace` for live
//! span printing. With `SMA_TRACE=PATH` the flight recorder captures
//! the whole run — all five drivers — and the report writes a
//! Chrome trace-event JSON to `PATH` (open in Perfetto), validates its
//! structure, and prints per-stage p50/p95/p99 latency.
//! Exits nonzero if any counter disagrees with the
//! analytic model or the measured per-PE memory high-water exceeds the
//! §4.3 [`MemoryBudget`](maspar_sim::memory::MemoryBudget) prediction.

use maspar_sim::machine::{MachineConfig, MasPar, ReadoutScheme};
use sma_bench::wavy;
use sma_core::fastpath::track_all_integral;
use sma_core::maspar_driver::track_on_maspar;
use sma_core::motion::SmaFrames;
use sma_core::precompute::track_all_segmented;
use sma_core::sequential::Region;
use sma_core::timing::SmaWorkload;
use sma_core::{track_all_pruned, track_all_sequential, MotionModel, SmaConfig};
use sma_grid::pyramid::Pyramid;
use sma_grid::warp::translate;
use sma_grid::BorderPolicy;
use sma_obs::json::MetricsDoc;
use sma_satdata::dropout::apply_dropouts;
use sma_stereo::hierarchical::MatchParams;
use sma_stereo::match_hierarchical;

/// One analytic-count check: recorded delta vs expected value.
struct Check {
    name: &'static str,
    got: u64,
    want: u64,
}

impl Check {
    fn ok(&self) -> bool {
        self.got == self.want
    }
}

fn counter(name: &str) -> u64 {
    sma_obs::metrics::snapshot().counter(name)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("METRICS_hotpath.json", |s| s.as_str());
    let faults: Option<(u64, f64)> = args.iter().position(|a| a == "--faults").map(|i| match args
        .get(i + 1)
        .filter(|s| !s.starts_with("--"))
    {
        None => (42, 0.02),
        Some(spec) => match spec
            .split_once(':')
            .and_then(|(s, r)| Some((s.parse::<u64>().ok()?, r.parse::<f64>().ok()?)))
        {
            Some(parsed) => parsed,
            None => {
                eprintln!("obs_report: --faults expects SEED:RATE, got {spec:?}");
                std::process::exit(2);
            }
        },
    });
    if let Some((seed, rate)) = faults {
        sma_fault::install(seed, rate);
        sma_fault::reset_ledger();
        println!("fault harness armed: seed {seed}, rate {rate}");
    }

    // Default to summary so the report observes something even when the
    // caller did not set SMA_OBS; an explicit SMA_OBS always wins.
    if std::env::var("SMA_OBS").is_err() {
        sma_obs::set_level(sma_obs::ObsLevel::Summary);
    }

    let side = if small { 32 } else { 64 };
    let cfg = if small {
        SmaConfig::small_test(MotionModel::Continuous)
    } else {
        SmaConfig {
            nzs: 3,
            nzt: 4,
            ..SmaConfig::small_test(MotionModel::Continuous)
        }
    };
    let workload = SmaWorkload::from_config(&cfg, side, side);
    println!(
        "obs_report: {side}x{side} frame, {} hypotheses x {} terms per pixel ({})",
        cfg.hypotheses_per_pixel(),
        cfg.terms_per_hypothesis(),
        if small { "small" } else { "medium" },
    );

    let mut checks: Vec<Check> = Vec::new();
    {
        let _pipeline = sma_obs::span("pipeline");

        // Phase: generate the frame pair.
        let (before, after) = {
            let _s = sma_obs::span("generate");
            let b = wavy(side, side);
            let a = translate(&b, -1.0, 0.0, BorderPolicy::Clamp);
            // Disarmed this is an exact copy; armed it punches the
            // deterministic dropout pattern the quarantine must absorb.
            (apply_dropouts(&b, 0), apply_dropouts(&a, 1))
        };

        // Phase: pyramid + hierarchical stereo (spans recorded inside).
        let _pyr = Pyramid::build(&before, 3);
        let _disparity = match_hierarchical(&before, &after, MatchParams::default());

        // Phase: surface fits (4 geometry passes inside prepare).
        let fits_before = counter("surface.patch_fits");
        let frames = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
        checks.push(Check {
            name: "surface.patch_fits delta == surface_fit_ges",
            got: counter("surface.patch_fits") - fits_before,
            want: workload.surface_fit_ges,
        });

        // Phase: hypothesis matching, sequential over the full frame —
        // the run the analytic model counts exactly.
        let hyp0 = counter("sma.hypotheses_evaluated");
        let ge0 = counter("sma.ge_solves");
        let terms0 = counter("sma.template_terms");
        let seq = track_all_sequential(&frames, &cfg, Region::Full).expect("sequential");
        checks.push(Check {
            name: "sma.hypotheses_evaluated delta == hyp_ges",
            got: counter("sma.hypotheses_evaluated") - hyp0,
            want: workload.hyp_ges,
        });
        checks.push(Check {
            name: "sma.ge_solves delta == hyp_ges",
            got: counter("sma.ge_solves") - ge0,
            want: workload.hyp_ges,
        });
        checks.push(Check {
            name: "sma.template_terms delta == hyp_terms",
            got: counter("sma.template_terms") - terms0,
            want: workload.hyp_terms,
        });

        // Phase: every remaining driver variant on the interior (their
        // counters and spans feed the report and the flight recorder;
        // only the sequential Full run feeds the analytic checks). The
        // exact family owes the reference bit identity; the integral and
        // pruned families reassociate floating-point sums, so they are
        // numerically (not bit-) identical: same winner, same
        // displacement.
        let region = Region::Interior {
            margin: cfg.margin(),
        };
        let exact_runs = [("segmented", track_all_segmented(&frames, &cfg, region, 2))];
        let integral_runs = [
            ("fastpath", track_all_integral(&frames, &cfg, region)),
            ("fastpath_pruned", track_all_pruned(&frames, &cfg, region)),
        ];
        let bounds = region.bounds(side, side).expect("non-empty interior");
        for (name, run) in &exact_runs {
            let r = run.as_ref().unwrap_or_else(|e| panic!("{name}: {e}"));
            for (x, y) in bounds.pixels() {
                assert_eq!(
                    seq.estimates.at(x, y),
                    r.estimates.at(x, y),
                    "{name} driver diverged at ({x},{y})"
                );
            }
        }
        for (name, run) in &integral_runs {
            let r = run.as_ref().unwrap_or_else(|e| panic!("{name}: {e}"));
            for (x, y) in bounds.pixels() {
                let (s, f) = (seq.estimates.at(x, y), r.estimates.at(x, y));
                assert_eq!(s.valid, f.valid, "{name} validity diverged at ({x},{y})");
                assert_eq!(
                    s.displacement, f.displacement,
                    "{name} displacement diverged at ({x},{y})"
                );
            }
        }

        // Phase: the simulated MP-2 run, with its §4.3 budget check.
        let mut machine = MasPar::new(MachineConfig {
            nxproc: 8,
            nyproc: 8,
            ..MachineConfig::goddard_mp2()
        });
        let report = track_on_maspar(
            &mut machine,
            &before,
            &after,
            &before,
            &after,
            &cfg,
            region,
            ReadoutScheme::Raster,
        )
        .expect("maspar run");
        let z = report
            .memory
            .max_segment_rows()
            .expect("configuration fits PE memory");
        checks.push(Check {
            name: "maspar.pe_bytes_high_water <= budget total_bytes",
            // Encode the inequality as an equality on its truth value so
            // every check prints uniformly.
            got: u64::from(report.pe_bytes_high_water <= report.memory.total_bytes(z)),
            want: 1,
        });
    }

    // The fault ledger: every injected fault must have resolved to
    // recovered or degraded by the time the pipeline finishes.
    let fault_snap = faults.map(|_| sma_fault::ledger());
    if let Some(snap) = &fault_snap {
        println!("\nfault ledger:");
        println!(
            "  injected {:>8}   recovered {:>8}   degraded {:>8}",
            snap.injected, snap.recovered, snap.degraded
        );
        println!(
            "  natural degradations {:>8}   quarantined pixels {:>8}",
            snap.degraded_natural, snap.quarantined_pixels
        );
        for (site, n) in snap.by_site() {
            if n > 0 {
                println!("    {site:<14} {n:>8}");
            }
        }
        checks.push(Check {
            name: "fault ledger balanced (injected == recovered + degraded)",
            got: u64::from(snap.balanced()),
            want: 1,
        });
        checks.push(Check {
            name: "armed run injected at least one fault",
            got: u64::from(snap.injected > 0 || faults.is_some_and(|(_, r)| r == 0.0)),
            want: 1,
        });
    }

    // The span tree and metric tables.
    println!();
    print!(
        "{}",
        sma_obs::report::render(&sma_obs::span::snapshot(), &sma_obs::metrics::snapshot())
    );

    // Counter validation against the analytic workload model.
    println!("\nanalytic-count validation:");
    let mut failed = false;
    for c in &checks {
        let verdict = if c.ok() { "OK" } else { "MISMATCH" };
        println!(
            "  {:<55} got {:>12} want {:>12} {}",
            c.name, c.got, c.want, verdict
        );
        failed |= !c.ok();
    }

    // The shared metrics document.
    let mut doc = MetricsDoc::capture("obs_report");
    doc.set_gauge("workload.pixels", workload.pixels as f64);
    doc.set_gauge("workload.hyp_ges", workload.hyp_ges as f64);
    doc.set_gauge("workload.hyp_terms", workload.hyp_terms as f64);
    if let (Some((seed, rate)), Some(snap)) = (faults, &fault_snap) {
        doc.set_gauge("fault.seed", seed as f64);
        doc.set_gauge("fault.rate", rate);
        doc.set_gauge("fault.injected", snap.injected as f64);
        doc.set_gauge("fault.recovered", snap.recovered as f64);
        doc.set_gauge("fault.degraded", snap.degraded as f64);
        doc.set_gauge("fault.degraded_natural", snap.degraded_natural as f64);
        doc.set_gauge("fault.quarantined_pixels", snap.quarantined_pixels as f64);
    }
    std::fs::write(out_path, doc.to_json()).expect("write metrics document");
    println!("\nwrote {out_path}");

    // Flight-recorder export: with SMA_TRACE=PATH set the whole run was
    // recorded; render the Chrome trace, self-validate its structure,
    // and print the per-stage latency distribution.
    let lat = sma_obs::trace::latency_summary();
    match sma_obs::trace::export_to_env() {
        Ok(None) => {}
        Ok(Some(path)) => {
            let json = std::fs::read_to_string(&path).expect("re-read exported trace");
            match sma_obs::trace::validate_chrome_json(&json) {
                Ok(check) => println!(
                    "trace: wrote {path} ({} events, {} spans, {} threads, depth {}, {} dropped)",
                    check.events,
                    check.spans,
                    check.threads,
                    check.max_depth,
                    sma_obs::trace::events_dropped(),
                ),
                Err(e) => {
                    eprintln!("obs_report: exported trace is structurally invalid: {e}");
                    std::process::exit(1);
                }
            }
            println!("\nper-stage latency (recorded spans):");
            println!(
                "  {:<44} {:>7} {:>10} {:>10} {:>10} {:>10}",
                "path", "count", "p50_us", "p95_us", "p99_us", "max_us"
            );
            for s in &lat {
                println!(
                    "  {:<44} {:>7} {:>10} {:>10} {:>10} {:>10}",
                    s.path, s.count, s.p50_us, s.p95_us, s.p99_us, s.max_us
                );
            }
        }
        Err(e) => {
            eprintln!("obs_report: trace export failed: {e}");
            std::process::exit(1);
        }
    }

    if failed {
        eprintln!("obs_report: counter validation FAILED");
        std::process::exit(1);
    }
    println!("obs_report: all counters match the analytic model OK");
}
