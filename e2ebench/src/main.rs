//! `run` — the benchmark command.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload florida_cont --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints a report, one `name = value unit` line per metric, and as its
//! last line the result JSON. Writes the run's fingerprint, metrics and
//! (traced) stage table and spans to `e2ebench/out/`. Exits 1 when any
//! gate fails, 2 on a usage error.

use std::process::ExitCode;

use sma_e2ebench::{fingerprint_json, result_json, run, Options, Workload};

const USAGE: &str =
    "usage: run --workload <florida_cont|luis_tight> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        small: false,
    })
}

/// Write the run's document next to the benchmark sources.
fn write_doc(opts: &Options, fp: &str, result: &str, outcome: &sma_e2ebench::Outcome) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let name = format!(
        "{}-seed{}-trace{}.json",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let stages = outcome.stages.as_ref().map_or("null".into(), |t| t.json());
    let spans = outcome.spans_json.as_deref().unwrap_or("null");
    let doc = format!(
        "{{\"fingerprint\": {fp},\n\"result\": {result},\n\"passes\": {},\n\"stages\": {stages},\n\"spans\": {spans}}}\n",
        outcome.passes_json
    );
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(&name), doc))
    {
        eprintln!("could not write {name}: {e}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    let fp = fingerprint_json(&outcome.fingerprint);
    print!("{}", outcome.report);
    println!("fingerprint: {fp}");
    for m in &outcome.metrics {
        println!("{} = {:.6} {}", m.name, m.value, m.unit);
    }
    let result = result_json(&outcome);
    write_doc(&opts, &fp, &result, &outcome);
    println!("{result}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
