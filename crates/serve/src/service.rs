//! The multi-tenant service: admission, scheduling, deadlines,
//! isolation.
//!
//! [`SmaService`] multiplexes N tenant sequences over a fixed worker
//! pool. Each admitted tenant owns a [`SharedArtifactCache`] shard of
//! one host-level byte budget (the §4.3-derived aggregate slack), with
//! fair shares recomputed — only ever *downward* — as tenants are
//! admitted, so a tenant's shard size, degrade level and shed decision
//! are pure functions of the admission sequence, never of scheduling.
//!
//! Per-tenant output is bit-identical to a solo
//! [`sma_stream::StreamEngine`] replay of the same sequence because the
//! service assembles pairs through the same code path
//! ([`sma_stream::cached_frame_artifacts`] +
//! [`SmaFrames::from_artifacts`]) and matches with the same
//! [`crate::degrade::DegradeLevel::run`] driver a solo run uses. Scheduling
//! interleavings move *when* a pair runs, never *what* it computes;
//! retries recompute pure functions; and a fault-stormed tenant is
//! quarantined by its own circuit breaker without touching any other
//! tenant's shard or results. The standing isolation test pins exactly
//! this.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sma_core::cancel::CancelToken;
use sma_core::sequential::SmaResult;
use sma_core::{SmaError, SmaFrames};
use sma_fault::{FaultSite, FaultToken, MasParError};
use sma_stream::{ArtifactCache, SharedArtifactCache, UsageMeter};
use std::sync::Arc;

use crate::breaker::CircuitBreaker;
use crate::config::ServeConfig;
use crate::degrade::{level_for_pressure, DegradeLevel};
use crate::ledger::{ServeLedger, ServeLedgerSnapshot};
use crate::tenant::{FrameOutcome, PairStatus, TenantReport, TenantSeq};

/// Scope string of the per-tenant counters in
/// [`sma_obs::scoped`] (`serve.tenant.<id>.<field>`).
pub const TENANT_SCOPE: &str = "serve.tenant";

fn lock_or_recover<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One admitted tenant and its placement.
struct TenantEntry {
    seq: TenantSeq,
    shard: SharedArtifactCache,
    shard_bytes: usize,
    level: DegradeLevel,
    shed: bool,
}

/// What the service produced once every admitted tenant drained.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Per-tenant reports, in admission order.
    pub tenants: Vec<TenantReport>,
    /// Final service ledger.
    pub ledger: ServeLedgerSnapshot,
    /// The configured host cache budget.
    pub host_budget_bytes: usize,
    /// Peak cross-shard resident bytes (must never exceed the budget).
    pub host_high_water_bytes: usize,
    /// Resident bytes after all shards cleared (0 when nothing leaked).
    pub host_resident_bytes: usize,
}

/// The multi-tenant SMA service. Submit tenants up front (admission
/// control runs at [`SmaService::submit`]), then [`SmaService::run`]
/// drains every admitted sequence over the worker pool.
pub struct SmaService {
    cfg: ServeConfig,
    meter: Arc<UsageMeter>,
    ledger: ServeLedger,
    tenants: Vec<TenantEntry>,
    queued_pairs: usize,
}

impl SmaService {
    /// An empty service with the given configuration.
    pub fn new(cfg: ServeConfig) -> Self {
        Self {
            cfg,
            meter: UsageMeter::new(),
            ledger: ServeLedger::default(),
            tenants: Vec::new(),
            queued_pairs: 0,
        }
    }

    /// Tenants admitted so far.
    pub fn admitted(&self) -> usize {
        self.tenants.len()
    }

    /// The current ledger totals.
    pub fn ledger_snapshot(&self) -> ServeLedgerSnapshot {
        self.ledger.snapshot()
    }

    /// The admitted tenant's placement: `(shard budget bytes, degrade
    /// level, shed)`. `None` for an unknown id.
    pub fn placement(&self, tenant: usize) -> Option<(usize, DegradeLevel, bool)> {
        self.tenants
            .get(tenant)
            .map(|e| (e.shard_bytes, e.level, e.shed))
    }

    /// Admit `seq` if the byte and queue models say it fits.
    ///
    /// The byte model: after admission every tenant's fair share is
    /// `host_budget / n`; the share must hold at least one
    /// frame-artifact set ([`TenantSeq::frame_bytes`], a pure function
    /// of the frame dimensions) or every tenant would thrash. The queue
    /// model bounds total queued pairs. Admission *shrinks* existing
    /// shards to the new fair share and re-derives their degrade
    /// levels; shares never grow back, so placements are deterministic
    /// in the admission sequence alone.
    ///
    /// # Errors
    /// [`SmaError::Overloaded`] when either model rejects the sequence.
    pub fn submit(&mut self, seq: TenantSeq) -> Result<usize, SmaError> {
        let pairs = seq.num_pairs();
        let frame_bytes = seq.frame_bytes().max(1);
        let fair = self.cfg.host_budget_bytes / (self.tenants.len() + 1);
        if self.queued_pairs + pairs > self.cfg.queue_capacity_pairs || fair < frame_bytes {
            self.ledger.rejected(1);
            return Err(SmaError::Overloaded {
                needed_bytes: frame_bytes,
                available_bytes: fair,
                queued_pairs: self.queued_pairs,
                queue_capacity: self.cfg.queue_capacity_pairs,
            });
        }
        for e in &mut self.tenants {
            e.shard_bytes = fair;
            e.shard.lock().resize_budget(fair);
            let needed = 2 * e.seq.frame_bytes().max(1);
            (e.level, e.shed) = level_for_pressure(self.cfg.base_level, needed, fair);
        }
        let shard =
            SharedArtifactCache::new(ArtifactCache::new(fair).with_meter(Arc::clone(&self.meter)));
        let (level, shed) = level_for_pressure(self.cfg.base_level, 2 * frame_bytes, fair);
        let id = self.tenants.len();
        self.tenants.push(TenantEntry {
            seq,
            shard,
            shard_bytes: fair,
            level,
            shed,
        });
        self.queued_pairs += pairs;
        self.ledger.admitted(1);
        Ok(id)
    }

    /// Drain every admitted tenant over `workers` threads and return
    /// the per-tenant reports plus the final ledger. Consumes the
    /// service; its shards are cleared (bytes returned to the host
    /// meter) as tenants finish.
    pub fn run(self) -> ServeOutcome {
        let SmaService {
            cfg,
            meter,
            ledger,
            tenants,
            ..
        } = self;
        let n = tenants.len();
        let sched = Mutex::new(Sched::new(&tenants, &cfg));
        let cvar = Condvar::new();
        let watchdog = Watchdog::default();
        let use_watchdog = matches!(cfg.deadline_ms, Some(ms) if ms > 0);
        std::thread::scope(|scope| {
            let wd = &watchdog;
            if use_watchdog {
                scope.spawn(move || wd.run());
            }
            for _ in 0..cfg.workers.max(1) {
                scope.spawn(|| {
                    worker_loop(&cfg, &tenants, &sched, &cvar, &ledger, &watchdog, &meter);
                });
            }
            // Workers exit when every pair is accounted for; stop the
            // watchdog afterwards so its loop can exit too. The scope
            // joins everything.
            scope.spawn(|| {
                let mut s = lock_or_recover(&sched);
                while s.remaining > 0 {
                    s = cvar.wait(s).unwrap_or_else(|e| e.into_inner());
                }
                drop(s);
                watchdog.stop();
            });
        });
        let sched = sched.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut reports = Vec::with_capacity(n);
        for (i, e) in tenants.into_iter().enumerate() {
            e.shard.lock().clear();
            reports.push(TenantReport {
                tenant: i,
                name: e.seq.name,
                results: sched.results[i].iter().map(Clone::clone).collect(),
                outcomes: sched.outcomes[i].iter().flatten().cloned().collect(),
                shard_bytes: e.shard_bytes,
                level: e.level,
                shed: e.shed,
            });
        }
        ServeOutcome {
            tenants: reports,
            ledger: ledger.snapshot(),
            host_budget_bytes: cfg.host_budget_bytes,
            host_high_water_bytes: meter.high_water_bytes(),
            host_resident_bytes: meter.resident_bytes(),
        }
    }
}

/// Shared scheduler state: one in-flight pair per tenant, round-robin
/// across tenants so no sequence starves.
struct Sched {
    next_pair: Vec<usize>,
    in_flight: Vec<bool>,
    breakers: Vec<CircuitBreaker>,
    results: Vec<Vec<Option<SmaResult>>>,
    outcomes: Vec<Vec<Option<FrameOutcome>>>,
    remaining: usize,
    rr: usize,
}

impl Sched {
    fn new(tenants: &[TenantEntry], cfg: &ServeConfig) -> Self {
        let remaining = tenants.iter().map(|e| e.seq.num_pairs()).sum();
        Self {
            next_pair: vec![0; tenants.len()],
            in_flight: vec![false; tenants.len()],
            breakers: tenants
                .iter()
                .map(|_| CircuitBreaker::new(cfg.circuit_k, cfg.circuit_cooldown_polls))
                .collect(),
            results: tenants
                .iter()
                .map(|e| vec![None; e.seq.num_pairs()])
                .collect(),
            outcomes: tenants
                .iter()
                .map(|e| vec![None; e.seq.num_pairs()])
                .collect(),
            remaining,
            rr: 0,
        }
    }
}

fn record_scoped(tenant: usize, status: &PairStatus, attempts: u32, latency_ms: u64) {
    let field = match status {
        PairStatus::Ok => "pairs_ok",
        PairStatus::Degraded => "pairs_degraded",
        PairStatus::DroppedShed => "pairs_dropped",
        PairStatus::Failed(_) => "pairs_failed",
        PairStatus::CircuitSkipped => "circuit_skipped",
    };
    sma_obs::scoped::incr(TENANT_SCOPE, tenant, field);
    if attempts > 1 {
        sma_obs::scoped::add(TENANT_SCOPE, tenant, "retries", (attempts - 1) as u64);
    }
    sma_obs::scoped::set_max(TENANT_SCOPE, tenant, "latency_ms_max", latency_ms);
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    cfg: &ServeConfig,
    tenants: &[TenantEntry],
    sched: &Mutex<Sched>,
    cvar: &Condvar,
    ledger: &ServeLedger,
    watchdog: &Watchdog,
    meter: &UsageMeter,
) {
    let n = tenants.len();
    loop {
        // Claim phase: find a tenant with a runnable pair, consuming
        // circuit skips and shed drops inline (they need no worker
        // time).
        let (tenant, pair) = {
            let mut s = lock_or_recover(sched);
            'claim: loop {
                if s.remaining == 0 {
                    cvar.notify_all();
                    return;
                }
                let mut progressed = false;
                let mut found = None;
                for k in 0..n {
                    let i = (s.rr + k) % n;
                    if s.in_flight[i] || s.next_pair[i] >= tenants[i].seq.num_pairs() {
                        continue;
                    }
                    if !s.breakers[i].poll() {
                        consume(
                            &mut s,
                            tenants,
                            i,
                            None,
                            PairStatus::CircuitSkipped,
                            None,
                            0,
                            0,
                        );
                        ledger.circuit_skipped(1);
                        record_scoped(i, &PairStatus::CircuitSkipped, 0, 0);
                        progressed = true;
                        continue;
                    }
                    if tenants[i].shed && s.next_pair[i] % 2 == 1 {
                        // Load shedding: past 4x oversubscription the
                        // bottom rung cannot absorb the recompute
                        // traffic, so alternate pairs are dropped —
                        // decision and outcome counted together.
                        ledger.shed_requested(1);
                        ledger.pairs_dropped_shed(1);
                        consume(
                            &mut s,
                            tenants,
                            i,
                            None,
                            PairStatus::DroppedShed,
                            None,
                            0,
                            0,
                        );
                        record_scoped(i, &PairStatus::DroppedShed, 0, 0);
                        progressed = true;
                        continue;
                    }
                    found = Some(i);
                    break;
                }
                if let Some(i) = found {
                    let pair = s.next_pair[i];
                    s.in_flight[i] = true;
                    s.rr = (i + 1) % n;
                    break 'claim (i, pair);
                }
                if progressed {
                    continue;
                }
                s = cvar.wait(s).unwrap_or_else(|e| e.into_inner());
            }
        };

        let entry = &tenants[tenant];
        let (status, level, attempts, latency_ms, result) =
            process_pair(cfg, entry, tenant, pair, watchdog, ledger);
        record_scoped(tenant, &status, attempts, latency_ms);
        {
            let mut s = lock_or_recover(sched);
            s.in_flight[tenant] = false;
            match &status {
                PairStatus::Ok | PairStatus::Degraded => s.breakers[tenant].record_success(),
                PairStatus::Failed(_) => s.breakers[tenant].record_failure(),
                PairStatus::DroppedShed | PairStatus::CircuitSkipped => {}
            }
            consume(
                &mut s, tenants, tenant, result, status, level, attempts, latency_ms,
            );
            if meter.resident_bytes() > cfg.host_budget_bytes {
                ledger.budget_breaches(1);
            }
            cvar.notify_all();
        }
    }
}

/// Record the outcome of tenant `i`'s next pair and advance its cursor;
/// clears the tenant's shard when its last pair lands.
#[allow(clippy::too_many_arguments)]
fn consume(
    s: &mut Sched,
    tenants: &[TenantEntry],
    i: usize,
    result: Option<SmaResult>,
    status: PairStatus,
    level: Option<DegradeLevel>,
    attempts: u32,
    latency_ms: u64,
) {
    let pair = s.next_pair[i];
    s.results[i][pair] = result;
    s.outcomes[i][pair] = Some(FrameOutcome {
        pair,
        status,
        level,
        attempts,
        latency_ms,
    });
    s.next_pair[i] += 1;
    s.remaining -= 1;
    if s.next_pair[i] >= tenants[i].seq.num_pairs() {
        tenants[i].shard.lock().clear();
    }
}

/// Run one pair to a terminal status: `(status, final level, attempts,
/// latency ms, result)`.
///
/// Fault interplay, chosen so clean tenants stay bit-identical to a
/// solo replay even under armed sweeps:
/// * injected `WorkerDeath` — the attempt dies before any work; the
///   pool retries the *same* pair at the *same* level (pure recompute,
///   bit-identical on recovery) with bounded exponential backoff.
/// * injected `DeadlineOverrun` — a spurious watchdog firing: the
///   attempt's token is pre-cancelled, the driver aborts at its next
///   checkpoint, and the retry runs at the same level.
/// * a *real* watchdog cancellation — the pair cannot meet its budget
///   at this level, so it steps down the degrade ladder (fresh
///   attempt); past the bottom rung it is shed.
fn process_pair(
    cfg: &ServeConfig,
    entry: &TenantEntry,
    tenant: usize,
    pair: usize,
    watchdog: &Watchdog,
    ledger: &ServeLedger,
) -> (
    PairStatus,
    Option<DegradeLevel>,
    u32,
    u64,
    Option<SmaResult>,
) {
    let started = Instant::now();
    let base = cfg.base_level;
    let mut level = entry.level;
    let mut shed_flagged = false;
    if level.depth() > base.depth() {
        ledger.shed_requested(1);
        shed_flagged = true;
    }
    let mut attempts: u32 = 0;
    let mut transient_retries: u32 = 0;
    let mut pending: Vec<FaultToken> = Vec::new();
    let key = |attempt: u32| sma_fault::key3(tenant as u64, pair as u64, attempt as u64);
    loop {
        attempts += 1;
        if let Some(tok) = sma_fault::inject(FaultSite::WorkerDeath, key(attempts)) {
            // The worker processing this attempt died; the pool
            // replaces it and the pair is retried from scratch.
            pending.push(tok);
            if transient_retries >= cfg.max_retries {
                ledger.frames_failed(1);
                if shed_flagged {
                    ledger.pairs_dropped_shed(1);
                }
                let err = SmaError::MasPar(MasParError::SegmentFailed {
                    layer: tenant,
                    segment: pair,
                    attempts,
                });
                return (
                    PairStatus::Failed(err),
                    Some(level),
                    attempts,
                    ms(started),
                    None,
                );
            }
            transient_retries += 1;
            ledger.retries(1);
            std::thread::sleep(Duration::from_millis(cfg.backoff_ms(transient_retries)));
            continue;
        }

        let token = CancelToken::new();
        let injected_overrun = sma_fault::inject(FaultSite::DeadlineOverrun, key(attempts));
        let injected = injected_overrun.is_some();
        if let Some(tok) = injected_overrun {
            pending.push(tok);
            let b = cfg.deadline_ms.unwrap_or(0);
            token.cancel(b, b);
        } else if cfg.deadline_ms == Some(0) {
            token.cancel(0, 0);
        }
        let slot = match cfg.deadline_ms {
            Some(budget) if budget > 0 && !injected => {
                Some(watchdog.register(token.clone(), budget))
            }
            _ => None,
        };
        let outcome = {
            let _guard = sma_core::cancel::install(token.clone());
            run_attempt(entry, pair, level)
        };
        if let Some(slot) = slot {
            watchdog.deregister(slot);
        }
        match outcome {
            Ok(result) => {
                for tok in pending.drain(..) {
                    tok.recovered();
                }
                ledger.pairs_completed(1);
                let status = if level.depth() > base.depth() {
                    ledger.frames_degraded(1);
                    PairStatus::Degraded
                } else {
                    PairStatus::Ok
                };
                return (status, Some(level), attempts, ms(started), Some(result));
            }
            Err(SmaError::DeadlineExceeded { .. }) if injected => {
                // Spurious (injected) firing: transient, retried at the
                // same level so recovery is bit-identical.
                if transient_retries >= cfg.max_retries {
                    ledger.frames_failed(1);
                    if shed_flagged {
                        ledger.pairs_dropped_shed(1);
                    }
                    return (
                        PairStatus::Failed(token.error()),
                        Some(level),
                        attempts,
                        ms(started),
                        None,
                    );
                }
                transient_retries += 1;
                ledger.retries(1);
                std::thread::sleep(Duration::from_millis(cfg.backoff_ms(transient_retries)));
            }
            Err(SmaError::DeadlineExceeded { .. }) => {
                // Real overrun: this level cannot meet the budget.
                ledger.deadline_cancelled(1);
                match level.lower() {
                    Some(lower) => {
                        if !shed_flagged {
                            ledger.shed_requested(1);
                            shed_flagged = true;
                        }
                        level = lower;
                    }
                    None => {
                        if !shed_flagged {
                            ledger.shed_requested(1);
                        }
                        ledger.pairs_dropped_shed(1);
                        return (
                            PairStatus::DroppedShed,
                            Some(level),
                            attempts,
                            ms(started),
                            None,
                        );
                    }
                }
            }
            Err(e) => {
                // Non-transient (poisoned frames, config): fail fast,
                // feeding the tenant's circuit breaker.
                ledger.frames_failed(1);
                if shed_flagged {
                    ledger.pairs_dropped_shed(1);
                }
                return (
                    PairStatus::Failed(e),
                    Some(level),
                    attempts,
                    ms(started),
                    None,
                );
            }
        }
    }
}

/// One attempt: assemble the pair through the tenant's shard (the same
/// [`sma_stream::cached_frame_artifacts`] path the streaming engine
/// uses) and run the level's driver.
fn run_attempt(
    entry: &TenantEntry,
    pair: usize,
    level: DegradeLevel,
) -> Result<SmaResult, SmaError> {
    let seq = &entry.seq;
    let before = entry.shard.frame_artifacts(
        pair,
        &seq.frames[pair].intensity,
        &seq.frames[pair].surface,
        &seq.cfg,
    )?;
    let after = entry.shard.frame_artifacts(
        pair + 1,
        &seq.frames[pair + 1].intensity,
        &seq.frames[pair + 1].surface,
        &seq.cfg,
    )?;
    let frames = SmaFrames::from_artifacts(&before, &after)?;
    level.run(&frames, &seq.cfg, seq.region)
}

fn ms(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// One registered attempt the watchdog is timing.
struct DeadlineSlot {
    token: CancelToken,
    deadline: Instant,
    start: Instant,
    budget_ms: u64,
}

/// The deadline watchdog: a registry of `(token, deadline)` slots
/// scanned by one thread that cancels overdue attempts.
#[derive(Default)]
struct Watchdog {
    slots: Mutex<Vec<Option<DeadlineSlot>>>,
    cvar: Condvar,
    stopped: AtomicBool,
}

impl Watchdog {
    fn register(&self, token: CancelToken, budget_ms: u64) -> usize {
        let mut slots = lock_or_recover(&self.slots);
        let start = Instant::now();
        let deadline = start + Duration::from_millis(budget_ms);
        let entry = Some(DeadlineSlot {
            token,
            deadline,
            start,
            budget_ms,
        });
        let idx = match slots.iter().position(Option::is_none) {
            Some(i) => {
                slots[i] = entry;
                i
            }
            None => {
                slots.push(entry);
                slots.len() - 1
            }
        };
        self.cvar.notify_all();
        idx
    }

    fn deregister(&self, slot: usize) {
        lock_or_recover(&self.slots)[slot] = None;
    }

    fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        self.cvar.notify_all();
    }

    fn run(&self) {
        let mut slots = lock_or_recover(&self.slots);
        loop {
            if self.stopped.load(Ordering::Acquire) {
                return;
            }
            let now = Instant::now();
            let mut nearest: Option<Instant> = None;
            for s in slots.iter_mut() {
                if let Some(slot) = s {
                    if slot.deadline <= now {
                        let elapsed =
                            u64::try_from(slot.start.elapsed().as_millis()).unwrap_or(u64::MAX);
                        slot.token.cancel(elapsed, slot.budget_ms);
                        *s = None;
                    } else if nearest.is_none_or(|n| slot.deadline < n) {
                        nearest = Some(slot.deadline);
                    }
                }
            }
            let timeout = nearest
                .map(|d| d.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(20));
            let (guard, _) = self
                .cvar
                .wait_timeout(slots, timeout)
                .unwrap_or_else(|e| e.into_inner());
            slots = guard;
        }
    }
}
