//! `stream-ingest`: two `StreamSession`s, one per client, fed pre-generated
//! 512-row windows at 64 bins. Client 0's stream debits per window and
//! releases every window; client 1's stream is hierarchical: it buffers
//! windows and asks a sliding `range_query` over the trailing
//! [`RANGE_SPAN`] windows every [`RANGE_EVERY`] windows.
//! Every window swaps the backend and clears the task cache, so the backend
//! scans fresh data on every window and the cache always misses.

use crate::harness::{
    central_mean, min_time, rate, repeated_setup, root_duration, run_phases, timed, timer_floor_ns,
    Breakdown, ClientLog, Digest, Tracer, CLIENTS,
};
use crate::layers::{
    probe_cache_and_scan, probe_fanout, probe_route, probe_wal, replay_release, stream_bin,
    stream_session, stream_windows, trailing_range, twin_pool, window, GrantShape, LayerReport,
    TaskFrom, Twins, RANGE_EVERY, RANGE_SPAN, STREAM_BINS, STREAM_ROWS,
};
use crate::Outcome;
use osdp_core::budget::epsilon_to_units;
use osdp_core::StreamBudget;
use osdp_engine::{SessionQuery, StreamSession, WindowOutcome};
use osdp_mechanisms::{HistogramMechanism, OsdpLaplaceL1};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Distinct pre-generated windows per stream, cycled with fresh indices.
const RING: usize = 256;
const EPSILON: f64 = 0.5;
const CAP: f64 = 1e6;
/// Dyadic tree height: enough for 2^24 windows.
const LEVELS: u32 = 24;
/// Warm-up fills one span, so every timed range query covers a full one.
const WARM_WINDOWS: u64 = RANGE_SPAN;
/// Outputs per stream that the serial replay must reproduce.
const DIGEST_OUTPUTS: usize = 48;
/// The per-window client replays every this-many-th window when traced.
const SAMPLE_EVERY: u64 = 16;
/// The hierarchical stream is sealed and replaced by a fresh one after
/// this many windows: its dyadic tree keeps every window's task, so one
/// stream's memory would otherwise grow with throughput.
const HORIZON: u64 = 8192;

struct Inputs {
    rings: Vec<Vec<Vec<i64>>>,
    seeds: Vec<u64>,
}

fn generate(seed: u64) -> Inputs {
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x5354_5245_414d);
    let seeds: Vec<u64> = (0..CLIENTS).map(|_| rng.next_u64()).collect();
    Inputs { rings: seeds.iter().map(|&s| stream_windows(s, RING)).collect(), seeds }
}

fn budget_of(client: usize) -> StreamBudget {
    if client == 0 {
        StreamBudget::PerWindow
    } else {
        StreamBudget::Hierarchical { levels: LEVELS }
    }
}

fn build(inputs: &Inputs) -> Result<Vec<StreamSession<i64>>, crate::BoxError> {
    (0..CLIENTS).map(|c| Ok(stream_session(inputs.seeds[c], budget_of(c), CAP)?)).collect()
}

struct Client<'a> {
    id: usize,
    stream: StreamSession<i64>,
    ring: &'a [Vec<i64>],
    units: u64,
    outputs: Vec<Vec<f64>>,
    nodes: u64,
    ranges: u64,
    tracer: Option<Tracer>,
    twins: Twins,
    /// The window query, rebuilt outside the stream for replays and probes.
    query: SessionQuery<i64>,
    exact: bool,
    seed: u64,
    /// Streams sealed so far, and whether each passed its checks.
    sealed: u64,
    sealed_ok: bool,
    sealed_verify_s: f64,
    sealed_records: usize,
    sealed_ledger: usize,
}

fn step(mechanism: &OsdpLaplaceL1, c: &mut Client<'_>, log: &mut ClientLog) {
    let n = c.stream.windows_ingested();
    let w = window(c.ring, n);
    log.attempted += 1;
    let (result, ns) = timed(|| c.stream.ingest(w, mechanism));
    log.primary(ns);
    match (c.id, result) {
        (0, Ok(WindowOutcome::Released(release))) => {
            log.done(1);
            let units = epsilon_to_units(release.guarantee.epsilon());
            c.units += units;
            if let Some(tracer) = c.tracer.as_mut() {
                let request = tracer.request();
                let id = tracer.record_root(request, "ingest", ns);
                if n.is_multiple_of(SAMPLE_EVERY) {
                    let session = c.stream.session();
                    let from = TaskFrom::Scan(&c.query);
                    c.exact &= replay_release(
                        tracer, id, request, session, from, mechanism, &c.twins, &release,
                    )
                    .unwrap_or(false);
                }
            }
            if c.outputs.len() < DIGEST_OUTPUTS {
                c.outputs.push(release.estimate.counts().to_vec());
            }
        }
        (1, Ok(WindowOutcome::Buffered { .. })) => {
            log.done(0);
            if let Some(tracer) = c.tracer.as_mut() {
                let request = tracer.request();
                tracer.record_root(request, "ingest_buffered", ns);
            }
            if (n + 1).is_multiple_of(RANGE_EVERY) {
                range_query(mechanism, c, log, n + 1);
            }
            if n + 1 == HORIZON {
                seal(c);
            }
        }
        _ => log.failed += 1,
    }
}

fn range_query(mechanism: &OsdpLaplaceL1, c: &mut Client<'_>, log: &mut ClientLog, end: u64) {
    log.attempted += 1;
    let before = c.stream.released_nodes() as u64;
    let (result, ns) = timed(|| c.stream.range_query(trailing_range(end), mechanism));
    let Ok(total) = result else {
        log.failed += 1;
        return;
    };
    let nodes = c.stream.released_nodes() as u64 - before;
    log.aux(ns);
    log.done(nodes);
    let units = nodes * epsilon_to_units(mechanism.guarantee().epsilon());
    c.units += units;
    c.nodes += nodes;
    c.ranges += 1;
    if let Some(tracer) = c.tracer.as_mut() {
        let request = tracer.request();
        tracer.record_root(request, "range_query", ns);
    }
    if c.outputs.len() < DIGEST_OUTPUTS {
        c.outputs.push(total.counts().to_vec());
    }
}

/// Closes a stream: its ledger must match what the client received and
/// pass verification; the next stream starts at window 0 with a seed of
/// its own. The hierarchical stream is sealed at its horizon, in the
/// client's loop but outside every latency sample; the per-window stream
/// after each measured round.
fn seal(c: &mut Client<'_>) {
    let session = c.stream.session();
    let (_, ledger_ok) = crate::ledger_check(
        "sealed stream",
        c.units,
        session.accountant().total_spent_units(),
        session.audit_total_epsilon_units(),
        CAP,
    );
    let (verdict, s) = min_time(false, || session.verify_policy_lifecycle(Some(CAP)));
    c.sealed_ok &= ledger_ok && verdict.upholds_osdp();
    c.sealed_verify_s += s;
    c.sealed_records += session.audit_len();
    c.sealed_ledger += session.accountant().ledger().len();
    c.sealed += 1;
    c.units = 0;
    let seed = c.seed.wrapping_add(c.sealed);
    match stream_session(seed, budget_of(c.id), CAP) {
        Ok(next) => {
            c.stream = next;
            c.twins = Twins::new(seed, "events", None);
        }
        Err(_) => c.sealed_ok = false,
    }
}

fn window_query() -> SessionQuery<i64> {
    SessionQuery::count_by("events", STREAM_BINS, stream_bin)
}

/// The serial oracle: fresh streams with the same seeds and windows, fed
/// one call at a time until each produced as many outputs as the run kept.
fn serial_digests(inputs: &Inputs, want: &[usize]) -> Result<Vec<Digest>, crate::BoxError> {
    let mechanism = OsdpLaplaceL1::new(EPSILON)?;
    let mut digests = Vec::new();
    for (c, mut stream) in build(inputs)?.into_iter().enumerate() {
        let mut digest = Digest::default();
        let mut got = 0;
        while got < want[c] {
            let n = stream.windows_ingested();
            match stream.ingest(window(&inputs.rings[c], n), &mechanism)? {
                WindowOutcome::Released(r) => {
                    digest.add(r.estimate.counts());
                    got += 1;
                }
                _ if (n + 1).is_multiple_of(RANGE_EVERY) => {
                    digest.add(stream.range_query(trailing_range(n + 1), &mechanism)?.counts());
                    got += 1;
                }
                _ => {}
            }
        }
        digests.push(digest);
    }
    Ok(digests)
}

pub fn run(args: &crate::Args, scratch: &std::path::Path) -> Result<Outcome, crate::BoxError> {
    let inputs = generate(args.seed);
    let (mut setup_times, streams) = repeated_setup(|| (), |()| build(&inputs), drop);
    let mechanism = OsdpLaplaceL1::new(EPSILON)?;
    let mut clients: Vec<Client<'_>> = streams?
        .into_iter()
        .enumerate()
        .map(|(id, stream)| Client {
            id,
            stream,
            ring: &inputs.rings[id],
            units: 0,
            outputs: Vec::new(),
            nodes: 0,
            ranges: 0,
            tracer: None,
            twins: Twins::new(inputs.seeds[id], "events", None),
            query: window_query(),
            exact: true,
            seed: inputs.seeds[id],
            sealed: 0,
            sealed_ok: true,
            sealed_verify_s: 0.0,
            sealed_records: 0,
            sealed_ledger: 0,
        })
        .collect();
    let step = |c: &mut Client<'_>, log: &mut ClientLog| step(&mechanism, c, log);

    let between = |clients: &mut [Client<'_>]| {
        // The per-window stream's history grows with every window; it is
        // sealed after each round, as the hierarchical one is at its horizon.
        seal(&mut clients[0]);
        setup_times.extend(repeated_setup(|| (), |()| build(&inputs), drop).0)
    };
    let phases = run_phases(&mut clients, args, WARM_WINDOWS, |c| &mut c.tracer, step, between);
    let windows_per_s = rate(&phases.logs, |l| l.primary_ns.len() as u64);
    let hier = &phases.logs[1];
    let range_share = hier.aux_ns.iter().sum::<u64>() as f64 / 1e9 / hier.elapsed_s;
    let notes = vec![
        format!("{windows_per_s:.0} windows/s over both streams"),
        format!("range queries take {:.0}% of the hierarchical client's time", 100.0 * range_share),
    ];

    let mut layers = None;
    if args.trace {
        let spans: Vec<_> =
            clients.iter_mut().flat_map(|c| c.tracer.take().expect("traced").spans).collect();
        let floor = timer_floor_ns();
        let mut report = LayerReport::default();
        report.set_breakdown(&Breakdown::of(&spans, "ingest", floor), STREAM_BINS);
        report.overhead_frac = phases.trace_overhead();
        report.stream.swap_scan_ns = root_duration(&spans, "ingest_buffered");
        report.stream.window_release_ns =
            root_duration(&spans, "ingest") - report.stream.swap_scan_ns;
        report.stream.nodes_per_range = clients[1].nodes as f64 / clients[1].ranges.max(1) as f64;
        let per_window = &clients[0];
        let session = per_window.stream.session();
        probe_cache_and_scan(session, &per_window.query, STREAM_ROWS, &mut report)?;
        report.cache_miss_ratio = 1.0;
        let task = session.scan(&per_window.query)?.into_task()?;
        let twin = twin_pool(&task, inputs.seeds[0])?;
        report.route_ns =
            probe_route(&twin, "twin", &osdp_engine::SessionQuery::bound(), &mechanism, 300)?.0;
        let label = session.current_policy_label();
        let shape = GrantShape {
            mechanism: mechanism.name(),
            policy: &label,
            query: "events@w0",
            bins: STREAM_BINS,
            trials: 1,
            guarantee: mechanism.guarantee(),
        };
        report.wal = probe_wal(&scratch.join("twin-wal"), &shape, 400)?;
        report.fanout_ns = probe_fanout(2);
        crate::write_trace_or_warn(&args.workload, &spans);
        layers = Some(report);
    }

    let mut checks =
        vec![("traced replays are bitwise exact".to_string(), clients.iter().all(|c| c.exact))];
    let want: Vec<usize> = clients.iter().map(|c| c.outputs.len()).collect();
    let oracle = serial_digests(&inputs, &want)?;
    let (mut verify_s, mut records, mut ledger) = (0.0, 0, 0);
    for (c, client) in clients.iter().enumerate() {
        let who = if c == 0 { "per-window stream" } else { "hierarchical stream" };
        checks.push((
            format!("{} sealed {who}s passed their checks", client.sealed),
            client.sealed_ok,
        ));
        verify_s += client.sealed_verify_s;
        records += client.sealed_records;
        ledger += client.sealed_ledger;
        let session = client.stream.session();
        checks.push(crate::ledger_check(
            who,
            client.units,
            session.accountant().total_spent_units(),
            session.audit_total_epsilon_units(),
            CAP,
        ));
        let mut digest = Digest::default();
        client.outputs.iter().for_each(|o| digest.add(o));
        checks.push((
            format!("{who} outputs match the serial replay"),
            digest == oracle[c] && client.outputs.len() == DIGEST_OUTPUTS,
        ));
        let (verdict, s) = min_time(args.trace, || session.verify_policy_lifecycle(Some(CAP)));
        checks
            .push((format!("{who}: verify_policy_lifecycle upholds OSDP"), verdict.upholds_osdp()));
        verify_s += s;
        records += session.audit_len();
        ledger += session.accountant().ledger().len();
    }
    if let Some(report) = layers.as_mut() {
        report.set_history(ledger, records, phases.totals.releases);
    }
    Ok(Outcome {
        phases,
        checks,
        setup_s: central_mean(&mut setup_times),
        verify_s,
        verify_records: records as u64,
        layers,
        notes,
    })
}
