//! Cross-driver conformance report: replay the fixed corpus through
//! every driver x runtime combination, check the pairwise equivalence
//! matrix against its declared contracts, diff the reference driver
//! against the golden oracle at bit level, and emit
//! `METRICS_conform.json`.
//!
//! Usage: `conform_report [--small] [--out PATH] [--oracle-dir DIR] [--bless]`
//!
//! * `--small` — run only the CI corpus tier;
//! * `--out PATH` — metrics document path (default `METRICS_conform.json`);
//! * `--oracle-dir DIR` — oracle snapshot directory (default: the
//!   crate's `oracle/` directory);
//! * `--bless` — regenerate the oracle snapshots for the cases run
//!   instead of diffing against them. Intentional regeneration is an
//!   API event: record what changed and why in CHANGES.md.
//!
//! Exits nonzero on any contract violation, runtime-combo divergence,
//! read-out-scheme divergence, or oracle drift.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use maspar_sim::machine::ReadoutScheme;
use sma_conform::corpus::{corpus, ConformCase};
use sma_conform::diff::{diff_planes, diff_results, Divergence};
use sma_conform::driver::{run_maspar, DriverKind, RuntimeCombo, ALL_COMBOS, ALL_DRIVERS};
use sma_conform::matrix::{check_pair, Contract, PairVerdict};
use sma_conform::oracle::{result_planes, CaseSnapshot, Plane};
use sma_conform::stages::{attribute, stage_trace, StageTrace, PIPELINE};
use sma_core::sequential::SmaResult;
use sma_grid::WindowBounds;
use sma_obs::json::MetricsDoc;

struct Options {
    small: bool,
    out: String,
    oracle_dir: PathBuf,
    bless: bool,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    Options {
        small: flag("--small"),
        out: value("--out").unwrap_or_else(|| "METRICS_conform.json".to_string()),
        oracle_dir: value("--oracle-dir")
            .map(PathBuf::from)
            .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("oracle")),
        bless: flag("--bless"),
    }
}

fn divergence_str(d: &Divergence) -> String {
    format!(
        "{} at ({}, {}): bits {:#018x} vs {:#018x}",
        d.plane, d.x, d.y, d.a_bits, d.b_bits
    )
}

/// The oracle plane set for one case: the reference driver's result
/// planes plus the derived height and label planes.
fn oracle_planes(case: &ConformCase, seq: &SmaResult) -> Vec<Plane> {
    let mut planes = result_planes(seq);
    planes.push(Plane::from_f32("height", &case.height_plane()));
    planes.push(Plane::from_u8("labels", &case.label_plane()));
    planes
}

fn full_frame(case: &ConformCase) -> WindowBounds {
    let (w, h) = case.dims();
    WindowBounds {
        x0: 0,
        y0: 0,
        x1: w - 1,
        y1: h - 1,
    }
}

fn main() {
    let opts = parse_args();
    // The harness's own counters must record regardless of the ambient
    // SMA_OBS setting; the runtime combos save/restore the level around
    // each driver run, so this baseline survives them.
    sma_obs::set_level(sma_obs::ObsLevel::Summary);
    let cases = corpus(opts.small);
    let mut failures: Vec<String> = Vec::new();
    let mut doc = MetricsDoc::new("conform_report");

    println!(
        "conform_report: {} corpus case(s) ({}), {} drivers x {} runtime combos{}",
        cases.len(),
        if opts.small { "small tier" } else { "full" },
        ALL_DRIVERS.len(),
        ALL_COMBOS.len(),
        if opts.bless { ", BLESSING oracle" } else { "" },
    );

    for case in &cases {
        sma_conform::CASES_RUN.add(1);
        println!("\n=== case {} ({:?}) ===", case.name, case.cfg.model);

        // --- Phase 1: canonical run per driver, with the runtime-combo
        // invariance gate (obs level, armed-rate-0 faults and trace
        // recording must not change one bit). The base is the first
        // combo whose run succeeded; later combos are diffed against it.
        let mut canonical: HashMap<DriverKind, SmaResult> = HashMap::new();
        for d in ALL_DRIVERS {
            let mut base: Option<(RuntimeCombo, SmaResult)> = None;
            for combo in ALL_COMBOS {
                let run = combo.with(|| {
                    let frames = case.frames()?;
                    d.run(case, &frames)
                });
                sma_conform::DRIVER_RUNS.add(1);
                let result = match run {
                    Ok(r) => r,
                    Err(e) => {
                        failures.push(format!(
                            "{}: driver {} failed under combo {}: {e}",
                            case.name,
                            d.name(),
                            combo.name()
                        ));
                        continue;
                    }
                };
                match &base {
                    None => base = Some((combo, result)),
                    Some((base_combo, b)) => {
                        let diff = diff_results(b, &result);
                        if !diff.bit_identical() {
                            let first = diff.first.as_ref().map(divergence_str);
                            failures.push(format!(
                                "{}: driver {} diverges between combos {} and {}: {}",
                                case.name,
                                d.name(),
                                base_combo.name(),
                                combo.name(),
                                first.unwrap_or_default()
                            ));
                        }
                    }
                }
            }
            if let Some((_, b)) = base {
                canonical.insert(d, b);
            }
        }

        // --- Phase 2: read-out-scheme gate — snake and raster sweeps
        // must read out the same answer (§4.2 touches traffic, not
        // values).
        if let Some(raster) = canonical.get(&DriverKind::Maspar) {
            match run_maspar(case, ReadoutScheme::Snake) {
                Ok(snake) => {
                    sma_conform::DRIVER_RUNS.add(1);
                    let diff = diff_results(raster, &snake.result);
                    if !diff.bit_identical() {
                        failures.push(format!(
                            "{}: maspar snake vs raster read-out diverged: {}",
                            case.name,
                            diff.first.as_ref().map(divergence_str).unwrap_or_default()
                        ));
                    }
                }
                Err(e) => failures.push(format!("{}: maspar snake run failed: {e}", case.name)),
            }
        }

        // --- Phase 3: the pairwise equivalence matrix.
        let mut traces: HashMap<DriverKind, StageTrace> = HashMap::new();
        let mut verdicts: Vec<PairVerdict> = Vec::new();
        for (i, &a) in ALL_DRIVERS.iter().enumerate() {
            for &b in &ALL_DRIVERS[i + 1..] {
                let (Some(ra), Some(rb)) = (canonical.get(&a), canonical.get(&b)) else {
                    continue;
                };
                let verdict = check_pair(a, b, ra, rb);
                sma_conform::PAIRS_CHECKED.add(1);
                let key = format!("conform.{}.{}-{}", case.name, a.name(), b.name());
                doc.set_gauge(
                    &format!("{key}.bit_identical"),
                    f64::from(verdict.bit_identical),
                );
                doc.set_gauge(
                    &format!("{key}.within_contract"),
                    f64::from(verdict.within_contract),
                );
                doc.set_gauge(
                    &format!("{key}.diverging_scalars"),
                    verdict.diff.diverging() as f64,
                );
                doc.set_gauge(&format!("{key}.max_ulp"), verdict.diff.max_ulp() as f64);
                if !verdict.bit_identical {
                    sma_conform::PAIRS_DIVERGED.add(1);
                    // Per-stage first-divergence attribution.
                    for d in [a, b] {
                        if let std::collections::hash_map::Entry::Vacant(slot) = traces.entry(d) {
                            match stage_trace(case, d, canonical.get(&d).expect("present")) {
                                Ok(t) => {
                                    slot.insert(t);
                                }
                                Err(e) => failures.push(format!(
                                    "{}: stage trace for {} failed: {e}",
                                    case.name,
                                    d.name()
                                )),
                            }
                        }
                    }
                    let att = match (traces.get(&a), traces.get(&b)) {
                        (Some(ta), Some(tb)) => attribute(ta, tb),
                        _ => None,
                    };
                    if let Some(att) = &att {
                        let stage_idx = PIPELINE
                            .iter()
                            .position(|&s| s == att.stage)
                            .expect("stage in pipeline");
                        doc.set_gauge(&format!("{key}.attr_stage"), stage_idx as f64);
                        if let Some(d) = &att.divergence {
                            doc.set_gauge(&format!("{key}.attr_x"), d.x as f64);
                            doc.set_gauge(&format!("{key}.attr_y"), d.y as f64);
                        }
                        let loc = att
                            .divergence
                            .as_ref()
                            .map(|d| format!(" first {}", divergence_str(d)))
                            .unwrap_or_default();
                        println!(
                            "  {} vs {}: diverges at stage {}{loc} (contract {})",
                            a.name(),
                            b.name(),
                            att.stage.name(),
                            if verdict.within_contract {
                                "OK"
                            } else {
                                "VIOLATED"
                            },
                        );
                    }
                }
                if !verdict.within_contract {
                    sma_conform::CONTRACT_VIOLATIONS.add(1);
                    failures.push(format!(
                        "{}: contract violated for {} vs {}: {}",
                        case.name,
                        a.name(),
                        b.name(),
                        verdict
                            .first_violation
                            .as_ref()
                            .map(divergence_str)
                            .unwrap_or_else(|| "no scalar located".to_string())
                    ));
                }
                verdicts.push(verdict);
            }
        }
        print_matrix(&verdicts);

        // --- Phase 4: the golden oracle.
        let Some(seq) = canonical.get(&DriverKind::Sequential) else {
            continue;
        };
        let live = CaseSnapshot {
            case_name: case.name.to_string(),
            width: case.dims().0 as u32,
            height: case.dims().1 as u32,
            planes: oracle_planes(case, seq),
        };
        let path = opts.oracle_dir.join(format!("{}.sco", case.name));
        if opts.bless {
            if let Err(e) = std::fs::create_dir_all(&opts.oracle_dir) {
                failures.push(format!("{}: cannot create oracle dir: {e}", case.name));
                continue;
            }
            match std::fs::write(&path, live.encode()) {
                Ok(()) => println!("  blessed {}", path.display()),
                Err(e) => failures.push(format!("{}: cannot write oracle: {e}", case.name)),
            }
            continue;
        }
        let stored = match std::fs::read(&path) {
            Ok(bytes) => match CaseSnapshot::decode(&bytes) {
                Ok(s) => s,
                Err(e) => {
                    failures.push(format!("{}: oracle unreadable: {e}", case.name));
                    continue;
                }
            },
            Err(e) => {
                failures.push(format!(
                    "{}: missing oracle {} ({e}); run conform_report --bless",
                    case.name,
                    path.display()
                ));
                continue;
            }
        };
        sma_conform::ORACLE_PLANES.add(live.planes.len() as u64);
        let odiff = diff_planes(
            &stored.planes,
            &live.planes,
            case.dims().0,
            full_frame(case),
        );
        let drifted = odiff.planes.iter().filter(|p| p.diverging > 0).count();
        doc.set_gauge(
            &format!("conform.{}.oracle_drift_planes", case.name),
            drifted as f64,
        );
        if odiff.bit_identical() {
            println!("  oracle: bit-identical ({} planes)", live.planes.len());
        } else {
            sma_conform::ORACLE_DRIFT.add(drifted as u64);
            failures.push(format!(
                "{}: oracle drift in {} plane(s): {} — if intentional, re-bless and note it in CHANGES.md",
                case.name,
                drifted,
                odiff.first.as_ref().map(divergence_str).unwrap_or_default()
            ));
        }
    }

    // Fold the live conform.* counters into the document.
    for (name, v) in sma_obs::metrics::snapshot().counters {
        if name.starts_with("conform.") {
            doc.set_counter(name, v);
        }
    }
    doc.set_gauge("conform.failures", failures.len() as f64);
    std::fs::write(&opts.out, doc.to_json()).expect("write metrics document");
    println!("\nwrote {}", opts.out);

    if !failures.is_empty() {
        eprintln!("\nconform_report: {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  FAIL {f}");
        }
        std::process::exit(1);
    }
    println!(
        "conform_report: all driver pairs within contract, no oracle drift{}",
        if opts.bless { " (oracle blessed)" } else { "" }
    );
}

/// Render the pairwise matrix: `=` bit-identical, `~` within a declared
/// ULP contract, `!` contract violated.
fn print_matrix(verdicts: &[PairVerdict]) {
    let short = |d: DriverKind| match d {
        DriverKind::Sequential => "seq",
        DriverKind::Segmented => "seg",
        DriverKind::Maspar => "mas",
        DriverKind::Fastpath => "fst",
        DriverKind::FastpathPruned => "prn",
    };
    print!("  matrix:      ");
    for d in ALL_DRIVERS {
        print!("{:>4}", short(d));
    }
    println!();
    for a in ALL_DRIVERS {
        print!("  {:>11}  ", short(a));
        for b in ALL_DRIVERS {
            if a == b {
                print!("{:>4}", ".");
                continue;
            }
            let v = verdicts
                .iter()
                .find(|v| (v.a == a && v.b == b) || (v.a == b && v.b == a));
            let cell = match v {
                None => "?",
                Some(v) if !v.within_contract => "!",
                Some(v) if v.bit_identical => "=",
                Some(v) => match v.contract {
                    Contract::UlpBounded(_) => "~",
                    // Bit contract + not identical would be a violation,
                    // caught above.
                    Contract::BitIdentical => "!",
                },
            };
            print!("{cell:>4}");
        }
        println!();
    }
}
