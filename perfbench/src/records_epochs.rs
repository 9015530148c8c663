//! `records-epochs`: one shared columnar record session (65 536 rows, two
//! integer attributes). Both clients cycle through 24 distinct 64-bin
//! `count_by_int_linear` queries; client 0 also applies a tightening decay
//! epoch every [`BUMP_EVERY`] of its calls. A warm 64-bin release is cheap,
//! so the per-release fixed costs (session glue, budget, audit) carry the
//! load, while every bump invalidates the caches and re-scans all 24
//! queries on the backend. The 24 queries fit the task cache, so misses
//! come only from epochs. The audit log and the ledger grow with every
//! release, so after each measured round the session is checked, sealed
//! and replaced by a fresh one, warmed outside the clock.

use crate::harness::{
    central_mean, min_time, repeated_setup, run_phases, timed, timer_floor_ns, Breakdown,
    ClientLog, Tracer, CLIENTS,
};
use crate::layers::{
    probe_cache_and_scan, probe_fanout, probe_route, probe_stream, probe_wal, replay_release,
    GrantShape, LayerReport, TaskFrom, Twins,
};
use crate::Outcome;
use osdp_core::budget::epsilon_to_units;
use osdp_core::policy::{AttributePolicy, EpochDirection, Policy};
use osdp_core::{Database, Record, Value};
use osdp_engine::{OsdpSession, SessionBuilder, SessionPool, SessionQuery};
use osdp_mechanisms::{HistogramMechanism, OsdpLaplaceL1};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::HashMap;
use std::sync::Arc;

const ROWS: usize = 65_536;
const VALUES: i64 = 4096;
const QUERIES: usize = 24;
const BINS: usize = 64;
/// Client 0 bumps the epoch once per this many of its calls; chosen so
/// that re-scans take roughly a third to a half of client time.
const BUMP_EVERY: u64 = 1536;
/// Policies generated up front; a run stops bumping if it ever uses them
/// all (and the gate reports it).
const MAX_EPOCHS: usize = 4096;
const EPSILON: f64 = 0.25;
const CAP: f64 = 4e6;
const WARM_OPS: u64 = 2 * QUERIES as u64;
/// Client 0 replays every this-many-th release when traced.
const SAMPLE_EVERY: u64 = 64;
const TENANT: &str = "records";

struct Inputs {
    db: Database<Record>,
    policies: Vec<Arc<dyn Policy<Record>>>,
    labels: Vec<String>,
    queries: Vec<SessionQuery>,
    session_seed: u64,
}

fn generate(seed: u64) -> Inputs {
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x5245_434f_5244);
    let db = (0..ROWS)
        .map(|_| {
            Record::builder()
                .field("a", Value::Int(rng.gen_range(0..VALUES)))
                .field("b", Value::Int(rng.gen_range(0..VALUES)))
                .build()
        })
        .collect();
    // Decay: records with `a` at most the horizon are sensitive, and the
    // horizon grows by one per epoch, so every transition tightens.
    let policies = (0..MAX_EPOCHS)
        .map(|v| Arc::new(AttributePolicy::int_at_most("a", 256 + v as i64)) as Arc<dyn Policy<_>>)
        .collect();
    let labels = (0..MAX_EPOCHS).map(|v| format!("decay-v{v}")).collect();
    let queries = (0..QUERIES)
        .map(|i| {
            let field = if i % 2 == 0 { "a" } else { "b" };
            let origin = -5 * (i as i64 / 2);
            SessionQuery::count_by_int_linear(format!("q{i:02}"), field, origin, VALUES / 64, BINS)
        })
        .collect();
    Inputs { db, policies, labels, queries, session_seed: rng.next_u64() }
}

fn build(inputs: &Inputs, db: Database<Record>) -> Result<SessionPool, crate::BoxError> {
    let session = SessionBuilder::new(db)
        .columnar()
        .policy_arc(Arc::clone(&inputs.policies[0]), inputs.labels[0].clone())
        .budget(CAP)
        .seed(inputs.session_seed)
        .build()?;
    let pool = SessionPool::new();
    pool.insert(TENANT, session)?;
    Ok(pool)
}

struct Client {
    id: usize,
    session: Arc<OsdpSession>,
    ops: u64,
    next_epoch: usize,
    units: u64,
    /// Queries served per policy label (bit per query), for miss counting.
    served: HashMap<String, u32>,
    tracer: Option<Tracer>,
    twins: Twins,
    exact: bool,
}

fn step(inputs: &Inputs, mechanism: &OsdpLaplaceL1, c: &mut Client, log: &mut ClientLog) {
    let session = &c.session;
    let k = c.ops;
    c.ops += 1;
    log.attempted += 1;
    if c.id == 0 && k % BUMP_EVERY == BUMP_EVERY - 1 && c.next_epoch < MAX_EPOCHS {
        let v = c.next_epoch;
        let (result, ns) = timed(|| {
            session.set_policy_epoch(
                Arc::clone(&inputs.policies[v]),
                inputs.labels[v].clone(),
                EpochDirection::Tighten,
            )
        });
        if result.is_err() {
            log.failed += 1;
            return;
        }
        c.next_epoch += 1;
        log.done(0);
        log.aux(ns);
        if let Some(tracer) = c.tracer.as_mut() {
            let request = tracer.request();
            tracer.record_root(request, "set_policy_epoch", ns);
        }
        return;
    }
    let q = (k as usize + 12 * c.id) % QUERIES;
    let (result, ns) = timed(|| session.release(&inputs.queries[q], mechanism));
    let Ok(release) = result else {
        log.failed += 1;
        return;
    };
    log.primary(ns);
    log.done(1);
    let units = epsilon_to_units(release.guarantee.epsilon());
    c.units += units;
    match c.served.get_mut(release.policy.as_str()) {
        Some(mask) => *mask |= 1 << q,
        None => {
            c.served.insert(release.policy.clone(), 1 << q);
        }
    }
    if let Some(tracer) = c.tracer.as_mut() {
        let request = tracer.request();
        let id = tracer.record_root(request, "release", ns);
        // Only client 0 bumps epochs, so its replays can never race one.
        if c.id == 0 && k.is_multiple_of(SAMPLE_EVERY) {
            let from = TaskFrom::Cache(&inputs.queries[q]);
            c.exact &=
                replay_release(tracer, id, request, session, from, mechanism, &c.twins, &release)
                    .unwrap_or(false);
        }
    }
}

/// Checks and counts of the sessions sealed so far.
#[derive(Default)]
struct Sealed {
    sessions: usize,
    checks: Vec<(String, bool)>,
    misses: u64,
    ledger: usize,
    records: usize,
    bumps: usize,
}

impl Sealed {
    /// Checks a session the clients are done with, takes its counts and
    /// resets the clients' per-session state. `extra_units` is what probes
    /// spent on it.
    fn seal(&mut self, session: &OsdpSession, clients: &mut [Client], extra_units: u64) {
        let who = format!("{TENANT} session {}", self.sessions);
        self.sessions += 1;
        let caller_units = clients.iter().map(|c| c.units).sum::<u64>() + extra_units;
        self.checks.push(crate::ledger_check(
            &who,
            caller_units,
            session.accountant().total_spent_units(),
            session.audit_total_epsilon_units(),
            CAP,
        ));
        let verdict = session.verify_policy_lifecycle(Some(CAP));
        self.checks
            .push((format!("{who}: verify_policy_lifecycle upholds OSDP"), verdict.upholds_osdp()));
        self.checks.push((
            format!("{who}: decay schedule stayed within its {MAX_EPOCHS} generated epochs"),
            clients[0].next_epoch < MAX_EPOCHS,
        ));
        let mut served: HashMap<&str, u32> = HashMap::new();
        for c in clients.iter() {
            for (label, mask) in &c.served {
                *served.entry(label.as_str()).or_default() |= mask;
            }
        }
        self.misses += served.values().map(|m| u64::from(m.count_ones())).sum::<u64>();
        self.ledger += session.accountant().ledger().len();
        self.records += session.audit_len();
        self.bumps += clients[0].next_epoch - 1;
        for c in clients {
            c.units = 0;
            c.served.clear();
            c.next_epoch = 1;
        }
    }
}

/// The pool's session with every query's task derived, so a fresh session
/// starts warm like the one it replaces.
fn warmed(pool: &SessionPool, inputs: &Inputs) -> Result<Arc<OsdpSession>, crate::BoxError> {
    let session = pool.get(TENANT).ok_or("tenant missing")?;
    for query in &inputs.queries {
        session.derive_task(query)?;
    }
    Ok(session)
}

pub fn run(args: &crate::Args, scratch: &std::path::Path) -> Result<Outcome, crate::BoxError> {
    let inputs = generate(args.seed);
    let prepare = || inputs.db.clone();
    let (mut setup_times, pool) = repeated_setup(prepare, |db| build(&inputs, db), drop);
    let mut pool = pool?;
    let mut session = warmed(&pool, &inputs)?;
    let mechanism = OsdpLaplaceL1::new(EPSILON)?;
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|id| Client {
            id,
            session: Arc::clone(&session),
            ops: 0,
            next_epoch: 1,
            units: 0,
            served: HashMap::new(),
            tracer: None,
            twins: Twins::new(inputs.session_seed, "q00", None),
            exact: true,
        })
        .collect();
    let step = |c: &mut Client, log: &mut ClientLog| step(&inputs, &mechanism, c, log);
    let mut sealed = Sealed::default();
    let mut rotated: Result<(), String> = Ok(());
    let between = |clients: &mut [Client]| {
        let (times, next) = repeated_setup(prepare, |db| build(&inputs, db), drop);
        setup_times.extend(times);
        let next = next.and_then(|pool| Ok((warmed(&pool, &inputs)?, pool)));
        match next {
            Ok((next_session, next_pool)) if rotated.is_ok() => {
                sealed.seal(&session, clients, 0);
                for c in clients.iter_mut() {
                    c.session = Arc::clone(&next_session);
                }
                (pool, session) = (next_pool, next_session);
            }
            Ok(_) => {}
            Err(e) => rotated = Err(e.to_string()),
        }
    };
    let mut phases = run_phases(&mut clients, args, WARM_OPS, |c| &mut c.tracer, step, between);
    rotated?;
    let mut probe_units = 0;
    let mut notes = Vec::new();

    let mut layers = None;
    if args.trace {
        let spans: Vec<_> =
            clients.iter_mut().flat_map(|c| c.tracer.take().expect("traced").spans).collect();
        let floor = timer_floor_ns();
        let mut report = LayerReport::default();
        report.set_breakdown(&Breakdown::of(&spans, "release", floor), BINS);
        report.overhead_frac = phases.trace_overhead();
        let (route_ns, units, releases) =
            probe_route(&pool, TENANT, &inputs.queries[0], &mechanism, 1000)?;
        report.route_ns = route_ns;
        probe_units += units;
        phases.totals.releases += releases;
        phases.totals.attempted += releases;
        probe_cache_and_scan(&session, &inputs.queries[0], ROWS, &mut report)?;
        let label = session.current_policy_label();
        let shape = GrantShape {
            mechanism: mechanism.name(),
            policy: &label,
            query: "q00",
            bins: BINS,
            trials: 1,
            guarantee: mechanism.guarantee(),
        };
        report.wal = probe_wal(&scratch.join("twin-wal"), &shape, 400)?;
        report.fanout_ns = probe_fanout(2);
        report.stream = probe_stream(args.seed, 256)?;
        crate::write_trace_or_warn(&args.workload, &spans);
        layers = Some(report);
    }

    let (verdict, verify_s) = min_time(args.trace, || session.verify_policy_lifecycle(Some(CAP)));
    let verify_records = session.audit_len() as u64;
    sealed.seal(&session, &mut clients, probe_units);
    let mut checks = sealed.checks;
    checks.push(("verify_policy_lifecycle upholds OSDP".to_string(), verdict.upholds_osdp()));
    checks.push(("traced replays are bitwise exact".to_string(), clients.iter().all(|c| c.exact)));
    if let Some(report) = layers.as_mut() {
        let misses = sealed.misses as f64;
        report.cache_miss_ratio = misses / phases.totals.releases as f64;
        let client_s: f64 = phases.traced.iter().chain(&phases.logs).map(|l| l.elapsed_s).sum();
        notes.push(format!(
            "backend re-scans take about {:.0}% of client time ({misses} misses x {:.0} us)",
            100.0 * misses * report.scan_ns / 1e9 / client_s,
            report.scan_ns / 1e3
        ));
        report.set_history(sealed.ledger, sealed.records, phases.totals.releases);
    }
    notes.push(format!("{} sessions, {} epoch bumps applied", sealed.sessions, sealed.bumps));
    Ok(Outcome {
        phases,
        checks,
        setup_s: central_mean(&mut setup_times),
        verify_s,
        verify_records,
        layers,
        notes,
    })
}
