//! Multi-tenant service throughput report: `BENCH_serve.json` (plus
//! `METRICS_serve.json` and a stdout table) at 1 / 8 / 64 concurrent
//! sequences.
//!
//! Each scenario admits N florida-analog tenants into one service and
//! measures the worker pool against a single-worker serial drain of the
//! same admission sequence (`speedup_pool_vs_serial` divides out the
//! host). An untimed pass replays every tenant solo through
//! `sma-stream` and checks bit-identity — the isolation contract the
//! serve layer guarantees — and collects per-pair latencies for the
//! p50/p99 columns.
//!
//! Acceptance gates (exit 1 on failure):
//! * every tenant in every scenario is bit-identical to its solo replay;
//! * zero host-budget breaches and high water within the budget;
//! * the service ledger balances (`shed_requested ==
//!   frames_degraded + pairs_dropped_shed`) in every scenario.
//!
//! `--small` shrinks frames for CI. `--soak` switches to the fault-armed
//! soak: repeated 8-tenant rounds (arm with `SMA_FAULTS=<seed>:<rate>`),
//! every round re-checked for ledger balance and zero cross-tenant
//! divergence, scoped per-tenant counters exported to
//! `METRICS_serve.json`.

use std::time::Instant;

use sma_core::sequential::{Region, SmaResult};
use sma_core::{track_all_pruned, MotionModel, SmaConfig};
use sma_obs::json::MetricsDoc;
use sma_satdata::{florida_thunderstorm_analog, SceneSequence};
use sma_serve::{PairStatus, ServeConfig, ServeOutcome, SmaService, TenantSeq};
use sma_stream::{sequence_frames, StreamEngine};

/// Best-of-reps wall-clock seconds (see `stream_report`: best-of-N
/// converges on the noise-free minimum on shared hosts).
fn time_best(mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    let mut reps = 0usize;
    let mut spent = 0.0f64;
    while reps < 3 || (spent < 1.0 && reps < 10) {
        let t = Instant::now();
        f();
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        spent += dt;
        reps += 1;
    }
    best
}

/// Percentile (nearest-rank) over per-pair latencies, milliseconds.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

struct Fleet {
    sequences: Vec<SceneSequence>,
    cfg: SmaConfig,
    serve_cfg: ServeConfig,
}

impl Fleet {
    /// N analog tenants sized so every fair share holds a resident pair
    /// (two artifact sets): everyone runs at the base SIMD level, no
    /// shedding, which is what the bit-identity check needs.
    fn new(tenants: usize, side: usize, frames: usize, workers: usize) -> Self {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let frame_bytes = sma_core::FrameArtifacts::estimate_bytes(side, side);
        let mut serve_cfg = ServeConfig::new(2 * frame_bytes * tenants);
        serve_cfg.workers = workers;
        serve_cfg.max_retries = 4;
        let sequences = (0..tenants)
            .map(|i| florida_thunderstorm_analog(side, frames, 1000 + i as u64))
            .collect();
        Self {
            sequences,
            cfg,
            serve_cfg,
        }
    }

    fn build(&self) -> SmaService {
        let mut svc = SmaService::new(self.serve_cfg);
        for (i, seq) in self.sequences.iter().enumerate() {
            svc.submit(TenantSeq::from_scene(format!("t{i}"), seq, self.cfg))
                .expect("tenant admitted");
        }
        svc
    }

    /// Solo replay of tenant `i` through the streaming engine at the
    /// service's fair-share budget — the reference stream the served
    /// results must match bit for bit.
    fn solo(&self, i: usize, shard_bytes: usize) -> Vec<SmaResult> {
        let region = Region::Interior {
            margin: self.cfg.margin(),
        };
        let cfg = self.cfg;
        let mut engine = StreamEngine::new(sequence_frames(&self.sequences[i]), cfg, shard_bytes)
            .with_pipelining(false);
        engine
            .run(|_, frames| track_all_pruned(frames, &cfg, region))
            .expect("solo replay")
    }
}

/// Check every tenant of `out` against its solo replay; returns false
/// (and prints the first divergence) when any pixel differs.
fn bit_identical(fleet: &Fleet, out: &ServeOutcome) -> bool {
    for report in &out.tenants {
        let solo = fleet.solo(report.tenant, report.shard_bytes);
        if report.results.len() != solo.len() {
            println!("  tenant {} pair-count mismatch", report.tenant);
            return false;
        }
        for (t, (served, solo)) in report.results.iter().zip(&solo).enumerate() {
            let Some(served) = served.as_ref() else {
                println!("  tenant {} pair {t} produced no result", report.tenant);
                return false;
            };
            if served.estimates != solo.estimates {
                println!(
                    "  tenant {} pair {t} DIVERGED from solo replay",
                    report.tenant
                );
                return false;
            }
        }
    }
    true
}

struct Row {
    name: String,
    tenants: usize,
    frames: usize,
    frame_side: usize,
    pairs_total: usize,
    serial_s: f64,
    pool_s: f64,
    pool_workers: usize,
    frames_per_sec: f64,
    p50_ms: u64,
    p99_ms: u64,
    budget_bytes: usize,
    high_water_bytes: usize,
    breaches: u64,
    balanced: bool,
    bit_identical: bool,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.serial_s / self.pool_s
    }
}

fn run_scenario(tenants: usize, side: usize, frames: usize, pool_workers: usize) -> Row {
    let pool = Fleet::new(tenants, side, frames, pool_workers);
    let serial = Fleet::new(tenants, side, frames, 1);

    // Correctness + latency pass (untimed).
    let out = pool.build().run();
    let mut latencies: Vec<u64> = out
        .tenants
        .iter()
        .flat_map(|t| t.outcomes.iter().map(|o| o.latency_ms))
        .collect();
    latencies.sort_unstable();
    let all_ok = out
        .tenants
        .iter()
        .all(|t| t.outcomes.iter().all(|o| o.status == PairStatus::Ok));
    let identical = all_ok && bit_identical(&pool, &out);

    let serial_s = time_best(|| {
        serial.build().run();
    });
    let pool_s = time_best(|| {
        pool.build().run();
    });
    let pairs_total = tenants * (frames - 1);

    Row {
        name: format!("t{tenants}"),
        tenants,
        frames,
        frame_side: side,
        pairs_total,
        serial_s,
        pool_s,
        pool_workers,
        frames_per_sec: pairs_total as f64 / pool_s,
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        budget_bytes: out.host_budget_bytes,
        high_water_bytes: out.host_high_water_bytes,
        breaches: out.ledger.budget_breaches,
        balanced: out.ledger.balanced(),
        bit_identical: identical,
    }
}

/// The fault-armed soak: repeated 8-tenant rounds, each re-checked for
/// ledger balance, budget discipline, and zero cross-tenant divergence.
/// Returns the number of violations.
fn soak(side: usize, frames: usize, rounds: usize, workers: usize) -> usize {
    if !sma_fault::enabled() {
        println!("soak: SMA_FAULTS not armed — running clean (arm with SMA_FAULTS=<seed>:<rate>)");
    }
    sma_fault::reset_ledger();
    let fleet = Fleet::new(8, side, frames, workers);
    let mut violations = 0usize;
    for round in 0..rounds {
        let out = fleet.build().run();
        let identical = bit_identical(&fleet, &out);
        let clean = out.ledger.balanced()
            && out.ledger.budget_breaches == 0
            && out.host_high_water_bytes <= out.host_budget_bytes
            && out.host_resident_bytes == 0
            && identical;
        println!(
            "  round {round}: completed {} retries {} deadline_cancelled {} \
             high_water {}/{} divergence {} {}",
            out.ledger.pairs_completed,
            out.ledger.retries,
            out.ledger.deadline_cancelled,
            out.host_high_water_bytes,
            out.host_budget_bytes,
            if identical { "none" } else { "DETECTED" },
            if clean { "OK" } else { "FAIL" }
        );
        if !clean {
            violations += 1;
        }
    }
    let fl = sma_fault::ledger();
    println!(
        "  fault ledger: injected {} recovered {} degraded {} balanced {}",
        fl.injected,
        fl.recovered,
        fl.degraded,
        fl.balanced()
    );
    if !fl.balanced() {
        violations += 1;
    }
    violations
}

fn write_metrics(rows: &[Row], side: usize, frames: usize) {
    // Counted 8-tenant replay for the scoped per-tenant counters (the
    // timed passes ran at the ambient SMA_OBS level — off by default —
    // so wall-clocks are unperturbed).
    if std::env::var("SMA_OBS").is_err() {
        sma_obs::set_level(sma_obs::ObsLevel::Summary);
    }
    Fleet::new(8, side, frames, 2).build().run();
    let mut doc = MetricsDoc::capture("serve_report");
    sma_obs::scoped::export_into(&mut doc);
    for r in rows {
        doc.set_gauge(
            &format!("serve.{}.frames_per_sec", r.name),
            r.frames_per_sec,
        );
        doc.set_gauge(&format!("serve.{}.latency_p99_ms", r.name), r.p99_ms as f64);
        doc.set_gauge(
            &format!("serve.{}.speedup_pool_vs_serial", r.name),
            r.speedup(),
        );
        doc.set_gauge(
            &format!("serve.{}.host_high_water_bytes", r.name),
            r.high_water_bytes as f64,
        );
    }
    std::fs::write("METRICS_serve.json", doc.to_json()).expect("write METRICS_serve.json");
    println!("wrote METRICS_serve.json");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let (side, frames) = if small { (32, 4) } else { (40, 4) };
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(2, 8);

    if args.iter().any(|a| a == "--soak") {
        let rounds = if small { 2 } else { 4 };
        println!("SMA serve soak: 8 tenants x {rounds} rounds, {workers} workers");
        let violations = soak(side, frames, rounds, workers);
        write_metrics(&[], side, frames);
        if violations > 0 {
            println!("soak: {violations} violation(s) FAIL");
            std::process::exit(1);
        }
        println!("soak: clean OK");
        return;
    }

    println!("SMA multi-tenant service: worker pool vs serial drain, {workers} workers");
    println!(
        "  {:<6} {:>7} {:>6} {:>10} {:>10} {:>8} {:>10} {:>8} {:>8}",
        "fleet", "tenants", "pairs", "serial", "pool", "speedup", "pairs/s", "p50", "p99"
    );
    let mut rows = Vec::new();
    for tenants in [1usize, 8, 64] {
        let r = run_scenario(tenants, side, frames, workers);
        println!(
            "  {:<6} {:>7} {:>6} {:>9.4}s {:>9.4}s {:>7.2}x {:>10.1} {:>6}ms {:>6}ms",
            r.name,
            r.tenants,
            r.pairs_total,
            r.serial_s,
            r.pool_s,
            r.speedup(),
            r.frames_per_sec,
            r.p50_ms,
            r.p99_ms,
        );
        rows.push(r);
    }

    // Hand-formatted JSON (no serde in the workspace). The sentinel
    // tolerance-compares the speedup_* ratio and exact-compares
    // bit_identical; wall-clocks and latencies are informational.
    let mut json =
        String::from("{\n  \"bench\": \"serve\",\n  \"unit\": \"seconds\",\n  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "      \"tenants\": {},\n",
                "      \"frames_per_tenant\": {},\n",
                "      \"frame_side\": {},\n",
                "      \"pairs_total\": {},\n",
                "      \"serial_seconds\": {:.6},\n",
                "      \"pool_seconds\": {:.6},\n",
                "      \"pool_workers\": {},\n",
                "      \"speedup_pool_vs_serial\": {:.4},\n",
                "      \"frames_per_sec\": {:.1},\n",
                "      \"latency_p50_ms\": {},\n",
                "      \"latency_p99_ms\": {},\n",
                "      \"host_budget_bytes\": {},\n",
                "      \"host_high_water_bytes\": {},\n",
                "      \"budget_breaches\": {},\n",
                "      \"bit_identical\": {}\n",
                "    }}{}\n"
            ),
            r.name,
            r.tenants,
            r.frames,
            r.frame_side,
            r.pairs_total,
            r.serial_s,
            r.pool_s,
            r.pool_workers,
            r.speedup(),
            r.frames_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.budget_bytes,
            r.high_water_bytes,
            r.breaches,
            r.bit_identical,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("\nwrote BENCH_serve.json");

    write_metrics(&rows, side, frames);

    // Acceptance gates.
    let mut failed = false;
    for r in &rows {
        if !r.bit_identical {
            println!("acceptance: {} diverged from solo replays FAIL", r.name);
            failed = true;
        }
        if r.breaches > 0 || r.high_water_bytes > r.budget_bytes {
            println!(
                "acceptance: {} breached the host budget ({} breaches, high water {}/{}) FAIL",
                r.name, r.breaches, r.high_water_bytes, r.budget_bytes
            );
            failed = true;
        }
        if !r.balanced {
            println!("acceptance: {} service ledger unbalanced FAIL", r.name);
            failed = true;
        }
    }
    if !failed {
        println!(
            "acceptance: {} scenarios bit-identical, zero budget breaches, ledgers balanced OK",
            rows.len()
        );
    }
    if failed {
        std::process::exit(1);
    }
}
