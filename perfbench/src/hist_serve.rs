//! `hist-serve`: an in-memory pool of four DPBench Medcost tenants (4096
//! bins, sampled Close-0.75 policies). Each client owns two tenants and
//! sends seven `release(OsdpLaplaceL1)` calls to one
//! `release_pool([OsdpLaplaceL1, Laplace])`. The noise kernel carries the
//! load; backend, cache and WAL are bypassed. Tenant ownership makes each
//! tenant's outputs a function of the seed, so a serial replay on fresh
//! sessions must reproduce them.

use crate::harness::{
    central_mean, min_time, repeated_setup, run_phases, timed, timer_floor_ns, Breakdown,
    ClientLog, Digest, Tracer, CLIENTS,
};
use crate::layers::{
    fanout_from, probe_cache_and_scan, probe_route, probe_stream, probe_wal, replay_batch,
    replay_release, Batch, GrantShape, LayerReport, TaskFrom, Twins,
};
use crate::Outcome;
use osdp_core::budget::epsilon_to_units;
use osdp_core::Histogram;
use osdp_data::sampling::{sample_policy, PolicyKind};
use osdp_data::BenchmarkDataset;
use osdp_engine::{histogram_session, SessionPool, SessionQuery};
use osdp_mechanisms::{DpLaplaceHistogram, HistogramMechanism, HistogramTask, OsdpLaplaceL1};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

const TENANTS: usize = 4;
const POLICY_LABEL: &str = "Close-0.75";
const EPSILON: f64 = 0.5;
/// Far above what a run spends, so no call is refused.
const CAP: f64 = 1e6;
/// Every eighth call of a client is a pool batch.
const POOL_EVERY: u64 = 8;
const WARM_OPS: u64 = 64;
/// Outputs per tenant that the serial replay must reproduce.
const DIGEST_OPS: usize = 48;
/// A traced client replays every this-many-th single release and batch.
const SAMPLE_EVERY: u64 = 16;

struct TenantInput {
    full: Histogram,
    non_sensitive: Histogram,
    seed: u64,
}

fn tenant_name(t: usize) -> String {
    format!("medcost-{t}")
}

fn generate(seed: u64) -> Vec<TenantInput> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x4853_4552_5645);
    (0..TENANTS)
        .map(|_| {
            let full = BenchmarkDataset::Medcost.generate(&mut rng);
            let policy = sample_policy(PolicyKind::Close, &full, 0.75, &mut rng)
                .expect("Close-0.75 sampling parameters are valid");
            TenantInput { full, non_sensitive: policy.non_sensitive, seed: rng.next_u64() }
        })
        .collect()
}

fn build(inputs: Vec<TenantInput>) -> Result<SessionPool, crate::BoxError> {
    let pool = SessionPool::new();
    for (t, input) in inputs.into_iter().enumerate() {
        let session = histogram_session(input.full, input.non_sensitive)
            .policy_label(POLICY_LABEL)
            .budget(CAP)
            .seed(input.seed)
            .build()?;
        pool.insert(tenant_name(t), session)?;
    }
    Ok(pool)
}

struct Mechanisms {
    single: OsdpLaplaceL1,
    laplace: DpLaplaceHistogram,
}

impl Mechanisms {
    fn new() -> Self {
        Self {
            single: OsdpLaplaceL1::new(EPSILON).expect("valid epsilon"),
            laplace: DpLaplaceHistogram::new(EPSILON).expect("valid epsilon"),
        }
    }

    fn pool(&self) -> [&dyn HistogramMechanism; 2] {
        [&self.single, &self.laplace]
    }
}

/// One client: its two tenants, its position in the traffic mix, and what
/// the digest and the trace need.
struct Client {
    tenants: [String; 2],
    ops: u64,
    /// Per owned tenant: its first outputs, in call order.
    outputs: [Vec<Vec<f64>>; 2],
    units: [u64; 2],
    tracer: Option<Tracer>,
    twins: Vec<Twins>,
    tasks: Vec<HistogramTask>,
    exact: bool,
}

/// What a tenant's `i`-th call is: a pool batch or a single release.
fn is_batch(client_op: u64) -> bool {
    client_op % POOL_EVERY == POOL_EVERY - 1
}

fn step(pool: &SessionPool, mechs: &Mechanisms, c: &mut Client, log: &mut ClientLog) {
    let k = c.ops;
    c.ops += 1;
    let slot = (k % 2) as usize;
    let tenant = c.tenants[slot].as_str();
    let query = SessionQuery::bound();
    let sampled = c.tracer.is_some() && (k / 2) % SAMPLE_EVERY == SAMPLE_EVERY - 1;
    log.attempted += 1;
    if is_batch(k) {
        let pool_mechs = mechs.pool();
        let (result, ns) = timed(|| pool.release_pool(tenant, &query, &pool_mechs, 1));
        let Ok(batch) = result else {
            log.failed += 1;
            return;
        };
        log.aux(ns);
        log.done(batch.len() as u64);
        let units: u64 = batch
            .iter()
            .map(|r| epsilon_to_units(r.guarantee.epsilon() * r.estimates.len() as f64))
            .sum();
        c.units[slot] += units;
        if let Some(tracer) = c.tracer.as_mut() {
            let request = tracer.request();
            let id = tracer.record_root(request, "release_pool", ns);
            if sampled {
                let spec = Batch::of_pool(&pool_mechs, &batch, POLICY_LABEL);
                c.exact &= replay_batch(tracer, id, request, &c.tasks[slot], &spec, &c.twins[slot])
                    .unwrap_or(false);
            }
        }
        for r in &batch {
            if c.outputs[slot].len() < DIGEST_OPS {
                c.outputs[slot].push(r.estimates[0].counts().to_vec());
            }
        }
    } else {
        let (result, ns) = timed(|| pool.release(tenant, &query, &mechs.single));
        let Ok(release) = result else {
            log.failed += 1;
            return;
        };
        log.primary(ns);
        log.done(1);
        let units = epsilon_to_units(release.guarantee.epsilon());
        c.units[slot] += units;
        if let Some(tracer) = c.tracer.as_mut() {
            let request = tracer.request();
            let id = tracer.record_root(request, "release", ns);
            if sampled {
                let Some(session) = pool.get(tenant) else {
                    c.exact = false;
                    return;
                };
                let from = TaskFrom::Held(&c.tasks[slot]);
                c.exact &= replay_release(
                    tracer,
                    id,
                    request,
                    &session,
                    from,
                    &mechs.single,
                    &c.twins[slot],
                    &release,
                )
                .unwrap_or(false);
            }
        }
        if c.outputs[slot].len() < DIGEST_OPS {
            c.outputs[slot].push(release.estimate.counts().to_vec());
        }
    }
}

/// The serial oracle: fresh sessions with the same inputs and seeds, the
/// same per-tenant call sequence, one call at a time.
fn serial_digests(seed: u64, outputs_per_tenant: &[usize]) -> Result<Vec<Digest>, crate::BoxError> {
    let pool = build(generate(seed))?;
    let mechs = Mechanisms::new();
    let mut digests = Vec::new();
    for (t, &want) in outputs_per_tenant.iter().enumerate() {
        let name = tenant_name(t);
        let slot = (t % 2) as u64;
        let mut digest = Digest::default();
        let (mut got, mut i) = (0, 0u64);
        while got < want {
            let k = 2 * i + slot;
            if is_batch(k) {
                for r in pool.release_pool(&name, &SessionQuery::bound(), &mechs.pool(), 1)? {
                    if got < want {
                        digest.add(r.estimates[0].counts());
                        got += 1;
                    }
                }
            } else {
                let r = pool.release(&name, &SessionQuery::bound(), &mechs.single)?;
                digest.add(r.estimate.counts());
                got += 1;
            }
            i += 1;
        }
        digests.push(digest);
    }
    Ok(digests)
}

pub fn run(args: &crate::Args, scratch: &std::path::Path) -> Result<Outcome, crate::BoxError> {
    let inputs = generate(args.seed);
    let mut prepare = || {
        inputs
            .iter()
            .map(|i| TenantInput {
                full: i.full.clone(),
                non_sensitive: i.non_sensitive.clone(),
                seed: i.seed,
            })
            .collect()
    };
    let (mut setup_times, pool) = repeated_setup(&mut prepare, build, drop);
    let pool = pool?;
    let mechs = Mechanisms::new();
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|c| Client {
            tenants: [tenant_name(2 * c), tenant_name(2 * c + 1)],
            ops: 0,
            outputs: [Vec::new(), Vec::new()],
            units: [0, 0],
            tracer: None,
            twins: vec![
                Twins::new(inputs[2 * c].seed, "bound", None),
                Twins::new(inputs[2 * c + 1].seed, "bound", None),
            ],
            tasks: (0..2)
                .map(|s| {
                    let i = &inputs[2 * c + s];
                    HistogramTask::new(i.full.clone(), i.non_sensitive.clone())
                        .expect("sampled sub-histogram is dominated")
                })
                .collect(),
            exact: true,
        })
        .collect();
    let step = |c: &mut Client, log: &mut ClientLog| step(&pool, &mechs, c, log);

    let between =
        |_: &mut [Client]| setup_times.extend(repeated_setup(&mut prepare, build, drop).0);
    let mut phases = run_phases(&mut clients, args, WARM_OPS, |c| &mut c.tracer, step, between);

    let mut layers = None;
    if args.trace {
        let spans: Vec<_> =
            clients.iter_mut().flat_map(|c| c.tracer.take().expect("traced").spans).collect();
        let floor = timer_floor_ns();
        let mut report = LayerReport::default();
        report.set_breakdown(&Breakdown::of(&spans, "release", floor), 4096);
        report.fanout_ns = fanout_from(&spans, "release_pool", floor);
        report.overhead_frac = phases.trace_overhead();
        let probe_tenant = tenant_name(0);
        let (route_ns, units, releases) =
            probe_route(&pool, &probe_tenant, &SessionQuery::bound(), &mechs.single, 300)?;
        report.route_ns = route_ns;
        clients[0].units[0] += units;
        phases.totals.releases += releases;
        phases.totals.attempted += releases;
        let session = pool.get(&probe_tenant).ok_or("probe tenant missing")?;
        probe_cache_and_scan(&session, &SessionQuery::bound(), 4096, &mut report)?;
        let shape = GrantShape {
            mechanism: mechs.single.name(),
            policy: POLICY_LABEL,
            query: "bound",
            bins: 4096,
            trials: 1,
            guarantee: mechs.single.guarantee(),
        };
        report.wal = probe_wal(&scratch.join("twin-wal"), &shape, 400)?;
        report.stream = probe_stream(args.seed, 256)?;
        crate::write_trace_or_warn(&args.workload, &spans);
        layers = Some(report);
    }

    let mut checks = Vec::new();
    checks.push(("traced replays are bitwise exact".to_string(), clients.iter().all(|c| c.exact)));
    let mut want = vec![0; TENANTS];
    for (c, client) in clients.iter().enumerate() {
        for slot in 0..2 {
            let tenant = 2 * c + slot;
            want[tenant] = client.outputs[slot].len();
            let session = pool.get(&tenant_name(tenant)).ok_or("tenant missing")?;
            checks.push(crate::ledger_check(
                &tenant_name(tenant),
                client.units[slot],
                session.accountant().total_spent_units(),
                session.audit_total_epsilon_units(),
                CAP,
            ));
        }
    }
    let oracle = serial_digests(args.seed, &want)?;
    for (c, client) in clients.iter().enumerate() {
        for slot in 0..2 {
            let mut digest = Digest::default();
            client.outputs[slot].iter().for_each(|o| digest.add(o));
            checks.push((
                format!("{} outputs match the serial replay", tenant_name(2 * c + slot)),
                digest == oracle[2 * c + slot] && client.outputs[slot].len() == DIGEST_OPS,
            ));
        }
    }
    let (verdict, verify_s) = min_time(args.trace, || pool.verify_all_ledgers());
    checks.push(("verify_all_ledgers upholds every tenant".to_string(), verdict.all_upheld()));
    let records: usize =
        (0..TENANTS).filter_map(|t| pool.get(&tenant_name(t))).map(|s| s.audit_len()).sum();
    if let Some(report) = layers.as_mut() {
        let ledger = (0..TENANTS)
            .filter_map(|t| pool.get(&tenant_name(t)))
            .map(|s| s.accountant().ledger().len())
            .sum();
        report.set_history(ledger, records, phases.totals.releases);
    }
    Ok(Outcome {
        phases,
        checks,
        setup_s: central_mean(&mut setup_times),
        verify_s,
        verify_records: records as u64,
        layers,
        notes: vec![],
    })
}
