//! `sma` — command-line driver for the Semi-Fluid Motion Analysis
//! reproduction.
//!
//! ```text
//! sma generate <frederic|luis|florida|ocean|ice> [--size N] [--frames T] [--seed S] [--out DIR]
//! sma track    <frederic|luis|florida|ocean|ice> [--size N] [--seed S] [--model continuous|semifluid]
//! sma stereo   [--size N] [--seed S]
//! sma tables
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use sma::core::motion::SmaFrames;
use sma::core::sequential::Region;
use sma::core::timing::{Mp2Rates, SgiRates, SmaWorkload};
use sma::core::{track_all_sequential, MotionModel, SmaConfig};
use sma::grid::io::{ascii_quiver, write_csv, write_pgm};
use sma::satdata::ocean::{ocean_current_analog, sea_ice_analog};
use sma::satdata::{
    florida_thunderstorm_analog, hurricane_frederic_analog, hurricane_luis_analog, SceneSequence,
};
use sma::stereo::{Asa, AsaConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = parse_flags(&args[1..]);
    let result = match command.as_str() {
        "generate" => cmd_generate(&args, &opts),
        "track" => cmd_track(&args, &opts),
        "stereo" => cmd_stereo(&opts),
        "tables" => {
            cmd_tables();
            Ok(())
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  sma generate <frederic|luis|florida|ocean|ice> [--size N] [--frames T] [--seed S] [--out DIR]
  sma track    <frederic|luis|florida|ocean|ice> [--size N] [--seed S] [--model continuous|semifluid]
  sma stereo   [--size N] [--seed S]
  sma tables";

fn parse_flags(rest: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < rest.len() {
        if let Some(key) = rest[i].strip_prefix("--") {
            if i + 1 < rest.len() {
                out.insert(key.to_string(), rest[i + 1].clone());
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn flag_usize(opts: &HashMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} expects an integer, got '{v}'")),
    }
}

fn flag_u64(opts: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} expects an integer, got '{v}'")),
    }
}

fn scene(name: &str, size: usize, frames: usize, seed: u64) -> Result<SceneSequence, String> {
    match name {
        "frederic" => Ok(hurricane_frederic_analog(size, frames, seed)),
        "luis" => Ok(hurricane_luis_analog(size, frames, seed)),
        "florida" => Ok(florida_thunderstorm_analog(size, frames, seed)),
        "ocean" => Ok(ocean_current_analog(size, frames, seed)),
        "ice" => Ok(sea_ice_analog(size, frames, seed)),
        other => Err(format!(
            "unknown scene '{other}' (frederic|luis|florida|ocean|ice)"
        )),
    }
}

fn cmd_generate(args: &[String], opts: &HashMap<String, String>) -> Result<(), String> {
    let name = args.get(1).ok_or("generate needs a scene name")?;
    let size = flag_usize(opts, "size", 96)?;
    let frames = flag_usize(opts, "frames", 4)?.max(2);
    let seed = flag_u64(opts, "seed", 1996)?;
    let out = opts
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("target/scenes/{name}"));
    let seq = scene(name, size, frames, seed)?;
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    for (t, frame) in seq.frames.iter().enumerate() {
        write_pgm(format!("{out}/intensity_t{t}.pgm"), &frame.intensity)
            .map_err(|e| e.to_string())?;
        write_pgm(format!("{out}/height_t{t}.pgm"), &frame.height).map_err(|e| e.to_string())?;
    }
    for (t, flow) in seq.truth_flows.iter().enumerate() {
        write_csv(format!("{out}/truth_u_t{t}.csv"), &flow.u_plane()).map_err(|e| e.to_string())?;
        write_csv(format!("{out}/truth_v_t{t}.csv"), &flow.v_plane()).map_err(|e| e.to_string())?;
    }
    println!(
        "wrote {} frames ({}x{}) + {} truth flows of '{}' to {out}",
        seq.len(),
        size,
        size,
        seq.truth_flows.len(),
        seq.name
    );
    Ok(())
}

fn cmd_track(args: &[String], opts: &HashMap<String, String>) -> Result<(), String> {
    let name = args.get(1).ok_or("track needs a scene name")?;
    let size = flag_usize(opts, "size", 64)?;
    let seed = flag_u64(opts, "seed", 1996)?;
    let model = match opts.get("model").map(String::as_str) {
        None | Some("continuous") => MotionModel::Continuous,
        Some("semifluid") => MotionModel::SemiFluid,
        Some(other) => return Err(format!("unknown model '{other}'")),
    };
    let seq = scene(name, size, 2, seed)?;
    let cfg = SmaConfig::small_test(model);
    let frames = SmaFrames::prepare(
        &seq.frames[0].intensity,
        &seq.frames[1].intensity,
        seq.surface(0),
        seq.surface(1),
        &cfg,
    )
    .map_err(|e| e.to_string())?;
    let margin = cfg.margin() + 2;
    if size <= 2 * margin + 2 {
        return Err(format!(
            "--size {size} too small; need > {}",
            2 * margin + 2
        ));
    }
    let result = track_all_sequential(&frames, &cfg, Region::Interior { margin })
        .map_err(|e| e.to_string())?;
    let flow = result.flow();
    let pts: Vec<(usize, usize)> = result.region.pixels().collect();
    let stats = flow.compare_at(&seq.truth_flows[0], &pts);
    println!("scene {} ({size}x{size}, {model:?})", seq.name);
    println!(
        "tracked {} px, {:.1}% valid",
        result.region.area(),
        100.0 * result.valid_fraction()
    );
    println!("vs ground truth: {stats}");
    println!(
        "paper criterion (RMS < 1 px): {}",
        if stats.subpixel() { "PASS" } else { "FAIL" }
    );
    print!("{}", ascii_quiver(&flow, (size / 14).max(1)));
    Ok(())
}

fn cmd_stereo(opts: &HashMap<String, String>) -> Result<(), String> {
    let size = flag_usize(opts, "size", 96)?;
    let seed = flag_u64(opts, "seed", 1996)?;
    let seq = hurricane_frederic_analog(size, 2, seed);
    let pair = seq.stereo_pair(0).expect("frederic is stereoscopic");
    let out = Asa::new(AsaConfig::default()).run(&pair.left, &pair.right);
    let heights = pair.disparity_to_height(&out.disparity);
    println!("ASA on frederic analog ({size}x{size}):");
    println!("  warp residual: {:.4}", out.residual);
    println!(
        "  height RMS vs truth: {:.3}",
        heights.rms_diff(&seq.frames[0].height)
    );
    Ok(())
}

fn cmd_tables() {
    let mp2 = Mp2Rates::default();
    let sgi = SgiRates::default();
    for (label, cfg) in [
        (
            "Table 2 (Frederic, semi-fluid)",
            SmaConfig::hurricane_frederic(),
        ),
        ("Table 4 (GOES-9, continuous)", SmaConfig::goes9_florida()),
        ("Luis (continuous)", SmaConfig::hurricane_luis()),
    ] {
        let w = SmaWorkload::from_config(&cfg, 512, 512);
        let b = mp2.breakdown(&w);
        let seq_s = sgi.seconds(&w, cfg.model);
        println!("{label}:");
        for p in &b.phases {
            println!("  {:<30} {:>14.3} s", p.name, p.seconds);
        }
        println!("  {:<30} {:>14.3} s", "Total", b.total());
        println!("  speed-up vs SGI model: {:.0}x\n", seq_s / b.total());
    }
}
