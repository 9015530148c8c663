//! `durable-grant`: a durable pool (`SessionPool::open_with`, group commit,
//! automatic snapshots several times per run) with one light 32-bin tenant
//! shared by both clients: seven `release` calls to one
//! `release_trials(4)`. Sampling costs far less than an fsync, so WAL
//! encoding and the fsync wait carry the load, and it is the only workload
//! where group commit can batch. After the timed part the shard is crashed
//! and `SessionPool::recover` is timed against a fixed WAL tail. The disk
//! is whatever the run's checkout sits on; numbers describe that disk, not
//! a device.

use crate::harness::{
    central_mean, median, min_time, repeated_setup, run_phases, timed, timer_floor_ns, Breakdown,
    ClientLog, Tracer, CLIENTS,
};
use crate::layers::{
    fanout_from, probe_cache_and_scan, probe_route, probe_stream, probe_wal, replay_batch,
    replay_release, Batch, GrantShape, LayerReport, TaskFrom, Twins, WalProbe,
};
use crate::Outcome;
use osdp_core::budget::epsilon_to_units;
use osdp_core::Histogram;
use osdp_engine::{
    histogram_session, LedgerOptions, SessionBuilder, SessionPersistence, SessionPool,
    SessionQuery, SyncPolicy,
};
use osdp_mechanisms::{HistogramMechanism, HistogramTask, OsdpLaplaceL1};
use osdp_persist::StdVfs;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const BINS: usize = 32;
const TENANT: &str = "light";
const POLICY_LABEL: &str = "light-32";
const EPSILON: f64 = 0.5;
const CAP: f64 = 1e6;
const TRIALS: usize = 4;
const BATCH_EVERY: u64 = 8;
/// Grants between automatic snapshot rotations.
const SNAPSHOT_EVERY: u64 = 4096;
/// Grants logged after an explicit snapshot and before the crash, so every
/// recovery replays the same tail.
const RECOVER_TAIL: u64 = 2048;
const RECOVER_REPS: usize = 5;
const WARM_OPS: u64 = 32;
const SAMPLE_EVERY: u64 = 16;

struct Inputs {
    full: Histogram,
    non_sensitive: Histogram,
    session_seed: u64,
}

fn generate(seed: u64) -> Inputs {
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x4455_5241_424c);
    let full: Vec<f64> = (0..BINS).map(|_| f64::from(rng.gen_range(2u32..40))).collect();
    let non_sensitive = full.iter().map(|&x| (x * rng.gen_range(0.2..0.9)).floor()).collect();
    Inputs {
        full: Histogram::from_counts(full),
        non_sensitive: Histogram::from_counts(non_sensitive),
        session_seed: rng.next_u64(),
    }
}

fn builder(inputs: &Inputs) -> SessionBuilder {
    histogram_session(inputs.full.clone(), inputs.non_sensitive.clone())
        .policy_label(POLICY_LABEL)
        .budget(CAP)
        .seed(inputs.session_seed)
}

fn options() -> LedgerOptions {
    LedgerOptions { auto_snapshot_every: Some(SNAPSHOT_EVERY), ..LedgerOptions::default() }
}

fn open(dir: &Path, inputs: &Inputs) -> Result<SessionPool, crate::BoxError> {
    let pool =
        SessionPool::open_with(dir, SyncPolicy::group_commit(), options(), Arc::new(StdVfs))?;
    pool.open_tenant(TENANT, || builder(inputs))?;
    Ok(pool)
}

struct Client {
    id: usize,
    ops: u64,
    units: u64,
    tracer: Option<Tracer>,
    exact: bool,
}

struct Shared<'a> {
    pool: &'a SessionPool,
    session: &'a osdp_engine::OsdpSession,
    task: &'a HistogramTask,
    mechanism: &'a OsdpLaplaceL1,
    twins: &'a [Twins],
}

fn step(s: &Shared<'_>, c: &mut Client, log: &mut ClientLog) {
    let k = c.ops;
    c.ops += 1;
    log.attempted += 1;
    let query = SessionQuery::bound();
    let sampled = c.tracer.is_some() && (k / BATCH_EVERY).is_multiple_of(SAMPLE_EVERY);
    if k % BATCH_EVERY == BATCH_EVERY - 1 {
        let before = s.session.audit_len() as u64;
        let (result, ns) = timed(|| s.pool.release_trials(TENANT, &query, s.mechanism, TRIALS));
        let after = s.session.audit_len() as u64;
        let Ok(estimates) = result else {
            log.failed += 1;
            return;
        };
        log.aux(ns);
        log.done(1);
        let units = epsilon_to_units(s.mechanism.guarantee().epsilon() * TRIALS as f64);
        c.units += units;
        if let Some(tracer) = c.tracer.as_mut() {
            let request = tracer.request();
            let id = tracer.record_root(request, "release_trials", ns);
            if sampled {
                // `release_trials` does not return its audit index: find it
                // among the indices allocated while the call ran.
                let Some(index) = trial_index(s, &estimates, before..after) else {
                    c.exact = false;
                    return;
                };
                let mechanisms: [&dyn HistogramMechanism; 1] = [s.mechanism];
                let batch = Batch {
                    mechanisms: &mechanisms,
                    indices: vec![index],
                    estimates: vec![estimates.as_slice()],
                    policy: POLICY_LABEL,
                    policy_version: 0,
                };
                c.exact &= replay_batch(tracer, id, request, s.task, &batch, &s.twins[c.id])
                    .unwrap_or(false);
            }
        }
        return;
    }
    let (result, ns) = timed(|| s.pool.release(TENANT, &query, s.mechanism));
    let Ok(release) = result else {
        log.failed += 1;
        return;
    };
    log.primary(ns);
    log.done(1);
    let units = epsilon_to_units(release.guarantee.epsilon());
    c.units += units;
    if let Some(tracer) = c.tracer.as_mut() {
        let request = tracer.request();
        let id = tracer.record_root(request, "release", ns);
        if k.is_multiple_of(SAMPLE_EVERY) {
            let from = TaskFrom::Held(s.task);
            c.exact &= replay_release(
                tracer,
                id,
                request,
                s.session,
                from,
                s.mechanism,
                &s.twins[c.id],
                &release,
            )
            .unwrap_or(false);
        }
    }
}

/// The audit index whose trial-0 stream reproduces the returned trial 0.
fn trial_index(
    s: &Shared<'_>,
    estimates: &[Histogram],
    candidates: std::ops::Range<u64>,
) -> Option<u64> {
    let seeds = &s.twins[0].seeds;
    candidates.into_iter().find(|index| {
        let mut rng = seeds.rng_for(&format!("trials/{index}/{}", s.mechanism.name()), 0);
        let mut slot = Histogram::zeros(BINS);
        s.mechanism.release_into(s.task, &mut rng, &mut slot);
        crate::harness::bitwise_equal(slot.counts(), estimates[0].counts())
    })
}

/// Crashes the shard behind `pool` and times `SessionPool::recover` (lock
/// clearing included) [`RECOVER_REPS`] times; every recovered accountant
/// must hold exactly the acknowledged units.
fn crash_and_recover(
    pool: SessionPool,
    dir: &Path,
    inputs: &Inputs,
    acknowledged: u64,
) -> Result<(f64, bool), crate::BoxError> {
    let shard: PathBuf = {
        let session = pool.get(TENANT).ok_or("tenant missing")?;
        let wal = session.persistence().ok_or("tenant is not durable")?;
        wal.crash(0.0)?;
        wal.dir().to_path_buf()
    };
    drop(pool);
    let (mut times, mut exact) = (Vec::new(), true);
    for _ in 0..RECOVER_REPS {
        let (recovered, ns) = timed(|| -> Result<SessionPool, crate::BoxError> {
            osdp_persist::force_unlock(&shard)?;
            Ok(SessionPool::recover(dir, SyncPolicy::group_commit(), |_| builder(inputs))?)
        });
        let recovered = recovered?;
        times.push(ns as f64 / 1e9);
        let session = recovered.get(TENANT).ok_or("tenant not recovered")?;
        exact &= session.accountant().total_spent_units() == acknowledged;
        session.persistence().ok_or("recovered tenant is not durable")?.crash(0.0)?;
    }
    Ok((median(&mut times), exact))
}

pub fn run(args: &crate::Args, scratch: &Path) -> Result<Outcome, crate::BoxError> {
    let inputs = generate(args.seed);
    let setups = scratch.join("setup");
    let mut pools = 0;
    let mut prepare = || {
        pools += 1;
        setups.join(format!("pool-{pools}"))
    };
    let build = |dir: PathBuf| open(&dir, &inputs).map(|pool| (pool, dir));
    let discard = |built: Result<(SessionPool, PathBuf), crate::BoxError>| {
        if let Ok((pool, dir)) = built {
            drop(pool);
            let _ = std::fs::remove_dir_all(dir);
        }
    };
    let (mut setup_times, pool) = repeated_setup(&mut prepare, build, discard);
    let (pool, dir) = pool?;
    let session = pool.get(TENANT).ok_or("tenant missing")?;
    let mechanism = OsdpLaplaceL1::new(EPSILON)?;
    let task = HistogramTask::new(inputs.full.clone(), inputs.non_sensitive.clone())?;
    let replay_wal = SessionPersistence::open_with(
        scratch.join("replay-wal"),
        SyncPolicy::group_commit(),
        LedgerOptions::default(),
    )?;
    let twins: Vec<Twins> = (0..CLIENTS)
        .map(|_| Twins::new(inputs.session_seed, "bound", Some(replay_wal.wal().clone())))
        .collect();
    let shared = Shared {
        pool: &pool,
        session: &session,
        task: &task,
        mechanism: &mechanism,
        twins: &twins,
    };
    let mut clients: Vec<Client> =
        (0..CLIENTS).map(|id| Client { id, ops: 0, units: 0, tracer: None, exact: true }).collect();
    let step = |c: &mut Client, log: &mut ClientLog| step(&shared, c, log);
    let mut notes = vec![format!(
        "durable-grant: SyncPolicy::group_commit() (max batch 64, no added wait), automatic \
         snapshot every {SNAPSHOT_EVERY} grants, recovery over a {RECOVER_TAIL}-grant tail; \
         WAL under {} on this run's disk",
        scratch.display()
    )];

    let wal = session.persistence().ok_or("tenant is not durable")?.clone();
    let stats_before = wal.group_commit_stats();
    let between = |_: &mut [Client]| {
        let (times, last) = repeated_setup(&mut prepare, build, discard);
        setup_times.extend(times);
        discard(last);
    };
    let mut phases = run_phases(&mut clients, args, WARM_OPS, |c| &mut c.tracer, step, between);
    let stats_after = wal.group_commit_stats();
    let batches = stats_after.batches - stats_before.batches;
    let frames = stats_after.durable_frames - stats_before.durable_frames;
    notes.push(format!(
        "group commit: {frames} frames in {batches} fsyncs ({:.2} frames/fsync)",
        frames as f64 / batches.max(1) as f64
    ));

    let mut probe_units = 0;
    let mut layers = None;
    if args.trace {
        let spans: Vec<_> =
            clients.iter_mut().flat_map(|c| c.tracer.take().expect("traced").spans).collect();
        let floor = timer_floor_ns();
        let mut report = LayerReport::default();
        report.set_breakdown(&Breakdown::of(&spans, "release", floor), BINS);
        report.fanout_ns = fanout_from(&spans, "release_trials", floor);
        report.overhead_frac = phases.trace_overhead();
        let (route_ns, units, releases) =
            probe_route(&pool, TENANT, &SessionQuery::bound(), &mechanism, 300)?;
        report.route_ns = route_ns;
        probe_units += units;
        phases.totals.releases += releases;
        phases.totals.attempted += releases;
        probe_cache_and_scan(&session, &SessionQuery::bound(), BINS, &mut report)?;
        let shape = GrantShape {
            mechanism: mechanism.name(),
            policy: POLICY_LABEL,
            query: "bound",
            bins: BINS,
            trials: 1,
            guarantee: mechanism.guarantee(),
        };
        let twin = probe_wal(&scratch.join("twin-wal"), &shape, 400)?;
        // The serving shard's own batching; the twin gives latency and size.
        report.wal = WalProbe { frames_per_fsync: frames as f64 / batches.max(1) as f64, ..twin };
        report.stream = probe_stream(args.seed, 256)?;
        crate::write_trace_or_warn(&args.workload, &spans);
        layers = Some(report);
    }

    let (verdict, verify_s) = min_time(args.trace, || pool.verify_all_ledgers());
    let records = session.audit_len() as u64;
    let mut checks = vec![
        ("verify_all_ledgers upholds the tenant".to_string(), verdict.all_upheld()),
        ("traced replays are bitwise exact".to_string(), clients.iter().all(|c| c.exact)),
    ];
    // A fixed tail after a fresh snapshot, so recovery replays the same
    // amount of WAL on every run.
    pool.snapshot_all()?;
    for _ in 0..RECOVER_TAIL {
        let release = pool.release(TENANT, &SessionQuery::bound(), &mechanism)?;
        probe_units += epsilon_to_units(release.guarantee.epsilon());
    }
    phases.totals.attempted += RECOVER_TAIL;
    phases.totals.releases += RECOVER_TAIL;
    let caller_units = clients.iter().map(|c| c.units).sum::<u64>() + probe_units;
    checks.push(crate::ledger_check(
        TENANT,
        caller_units,
        session.accountant().total_spent_units(),
        session.audit_total_epsilon_units(),
        CAP,
    ));
    if let Some(report) = layers.as_mut() {
        let ledger = session.accountant().ledger().len();
        report.set_history(ledger, session.audit_len(), phases.totals.releases);
    }
    drop(session);
    drop(wal);
    let (recover_s, recovered_exact) = crash_and_recover(pool, &dir, &inputs, caller_units)?;
    checks.push(("recovered spent units == acknowledged units".to_string(), recovered_exact));
    if let Some(report) = layers.as_mut() {
        report.wal.recover_s = recover_s;
        report.wal.replay_frames_per_s = RECOVER_TAIL as f64 / recover_s;
    }
    notes.push(format!("recover: {:.3} ms (median of {RECOVER_REPS})", recover_s * 1e3));
    Ok(Outcome {
        phases,
        checks,
        setup_s: central_mean(&mut setup_times),
        verify_s,
        verify_records: records,
        layers,
        notes,
    })
}
