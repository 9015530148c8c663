//! Per-layer measurement from outside the program: replays of sampled
//! releases through each layer's public functions (as child spans of the
//! traced call), and twin probes for the layers a workload does not cross.

use crate::harness::{bitwise_equal, central_mean, quantile_ns, timed, Breakdown, Span, Tracer};
use osdp_core::budget::epsilon_to_units;
use osdp_core::policy::ClosurePolicy;
use osdp_core::{BudgetAccountant, Database, Guarantee, Histogram};
use osdp_engine::{
    AuditLog, AuditRecord, GrantEvent, LedgerOptions, OsdpSession, PoolRelease, Release,
    SessionPersistence, SessionPool, SessionQuery, SessionWal, StreamSession, SyncPolicy, Window,
};
use osdp_mechanisms::{HistogramMechanism, HistogramTask, OsdpLaplaceL1};
use osdp_noise::SeedSequence;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use rayon::prelude::*;
use std::borrow::Cow;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// Twin layer objects a replay writes into instead of the serving
/// session's own (whose counters must stay equal to what callers got).
pub struct Twins {
    pub budget: BudgetAccountant,
    pub audit: AuditLog,
    /// Only for workloads whose grant path crosses the WAL.
    pub wal: Option<SessionWal>,
    pub seeds: SeedSequence,
    pub query_label: Arc<str>,
}

impl Twins {
    pub fn new(session_seed: u64, query_label: &str, wal: Option<SessionWal>) -> Self {
        Self {
            budget: BudgetAccountant::unlimited(),
            audit: AuditLog::new(),
            wal,
            seeds: SeedSequence::new(session_seed),
            query_label: Arc::from(query_label),
        }
    }
}

/// Where a replayed release gets its task: the bound task (the histogram
/// sessions' cache-free path), the task cache, or a fresh backend scan.
pub enum TaskFrom<'a, R> {
    Held(&'a HistogramTask),
    Cache(&'a SessionQuery<R>),
    Scan(&'a SessionQuery<R>),
}

/// Replays one returned single release through the layers in pipeline
/// order — epoch load, task, budget, audit, WAL, RNG stream, kernel — each
/// as a child span of `parent`. Returns whether the replayed estimate
/// equals the returned one bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn replay_release<R>(
    tracer: &mut Tracer,
    parent: u64,
    request: u64,
    session: &OsdpSession<R>,
    from: TaskFrom<'_, R>,
    mechanism: &dyn HistogramMechanism,
    twins: &Twins,
    release: &Release,
) -> Result<bool, BoxError> {
    let policy: Arc<str> = Arc::from(release.policy.as_str());
    let mechanism_label: Arc<str> = Arc::from(mechanism.name());
    let stream = format!("release/{}", mechanism.name());
    let (version, _) = tracer.span(parent, request, "session", || session.policy_version());
    let task: Cow<'_, HistogramTask> = match from {
        TaskFrom::Held(task) => Cow::Borrowed(task),
        TaskFrom::Cache(query) => {
            let task = tracer.span(parent, request, "cache", || session.derive_task(query)).0?;
            // `derive_task` hands out a copy of the cached task, which the
            // release path does not make; the breakdown takes it off `cache`.
            tracer.span(parent, request, TASK_COPY, || drop(black_box(task.clone())));
            Cow::Owned(task)
        }
        TaskFrom::Scan(query) => Cow::Owned(
            tracer
                .span(parent, request, "backend", || {
                    session.scan(query).and_then(|p| p.into_task())
                })
                .0?,
        ),
    };
    let guarantee = mechanism.guarantee();
    tracer
        .span(parent, request, "budget", || {
            twins.budget.spend(mechanism.name(), &*policy, guarantee.epsilon(), guarantee.kind())
        })
        .0?;
    stamp(tracer, parent, request, twins, &mechanism_label, &policy, task.bins(), 1, guarantee);
    if let Some(wal) = &twins.wal {
        let event = GrantEvent {
            index: release.index,
            mechanism: mechanism.name(),
            policy: &policy,
            query: &twins.query_label,
            bins: task.bins(),
            trials: 1,
            guarantee,
            policy_version: version,
        };
        tracer.span(parent, request, "wal", || wal.log_grant(event)).0?;
    }
    let (mut rng, _) =
        tracer.span(parent, request, "rng", || twins.seeds.rng_for(&stream, release.index));
    let mut estimate = Histogram::zeros(0);
    tracer
        .span(parent, request, "kernel", || mechanism.release_into(&task, &mut rng, &mut estimate));
    Ok(bitwise_equal(estimate.counts(), release.estimate.counts()))
}

#[allow(clippy::too_many_arguments)]
fn stamp(
    tracer: &mut Tracer,
    parent: u64,
    request: u64,
    twins: &Twins,
    mechanism: &Arc<str>,
    policy: &Arc<str>,
    bins: usize,
    trials: usize,
    guarantee: Guarantee,
) {
    tracer.span(parent, request, "audit", || {
        twins.audit.append_versioned(|index, version| AuditRecord {
            index,
            mechanism: Arc::clone(mechanism),
            policy: Arc::clone(policy),
            query: Arc::clone(&twins.query_label),
            bins,
            trials,
            guarantee,
            policy_version: version,
        })
    });
}

/// One batch call to replay: its mechanisms, their audit indices and the
/// per-mechanism trial estimates the caller received.
pub struct Batch<'a> {
    pub mechanisms: &'a [&'a dyn HistogramMechanism],
    pub indices: Vec<u64>,
    pub estimates: Vec<&'a [Histogram]>,
    pub policy: &'a str,
    pub policy_version: u64,
}

impl<'a> Batch<'a> {
    pub fn of_pool(
        mechanisms: &'a [&'a dyn HistogramMechanism],
        releases: &'a [PoolRelease],
        policy: &'a str,
    ) -> Self {
        Batch {
            mechanisms,
            indices: releases.iter().map(|r| r.index).collect(),
            estimates: releases.iter().map(|r| r.estimates.as_slice()).collect(),
            policy,
            policy_version: 0,
        }
    }
}

/// Replays a pool or trial batch serially through the layers (one budget
/// grant, then per mechanism audit and WAL, then per trial RNG stream and
/// kernel). The batch call's span minus these stages is the fan-out cost.
pub fn replay_batch(
    tracer: &mut Tracer,
    parent: u64,
    request: u64,
    task: &HistogramTask,
    batch: &Batch<'_>,
    twins: &Twins,
) -> Result<bool, BoxError> {
    let trials = batch.estimates.first().map_or(0, |e| e.len());
    let policy: Arc<str> = Arc::from(batch.policy);
    let labels: Vec<Arc<str>> = batch.mechanisms.iter().map(|m| Arc::from(m.name())).collect();
    tracer
        .span(parent, request, "budget", || {
            if batch.mechanisms.len() == 1 {
                let (m, g) = (batch.mechanisms[0], batch.mechanisms[0].guarantee());
                twins.budget.spend(
                    format!("{} x{}", m.name(), trials),
                    &*policy,
                    g.epsilon() * trials as f64,
                    g.kind(),
                )
            } else {
                let debits: Vec<_> = batch
                    .mechanisms
                    .iter()
                    .map(|m| {
                        let g = m.guarantee();
                        (
                            format!("{} x{}", m.name(), trials),
                            policy.to_string(),
                            g.epsilon() * trials as f64,
                            g.kind(),
                        )
                    })
                    .collect();
                twins.budget.spend_batch(&debits)
            }
        })
        .0?;
    for (m, (label, index)) in batch.mechanisms.iter().zip(labels.iter().zip(&batch.indices)) {
        let g = m.guarantee();
        stamp(tracer, parent, request, twins, label, &policy, task.bins(), trials, g);
        if let Some(wal) = &twins.wal {
            let event = GrantEvent {
                index: *index,
                mechanism: m.name(),
                policy: &policy,
                query: &twins.query_label,
                bins: task.bins(),
                trials,
                guarantee: g,
                policy_version: batch.policy_version,
            };
            tracer.span(parent, request, "wal", || wal.log_grant(event)).0?;
        }
    }
    let mut exact = true;
    for ((m, index), got) in batch.mechanisms.iter().zip(&batch.indices).zip(&batch.estimates) {
        let stream = format!("trials/{index}/{}", m.name());
        for (trial, expected) in got.iter().enumerate() {
            let (mut rng, _) =
                tracer.span(parent, request, "rng", || twins.seeds.rng_for(&stream, trial as u64));
            let mut slot = Histogram::zeros(task.bins());
            tracer.span(parent, request, "kernel", || m.release_into(task, &mut rng, &mut slot));
            exact &= bitwise_equal(slot.counts(), expected.counts());
        }
    }
    Ok(exact)
}

/// Name of the replay span that times one bare copy of a derived task.
pub const TASK_COPY: &str = "cache_copy";

/// Per-layer figures every workload reports. Layers a workload does not
/// cross are measured on twins at the workload's shape (see README).
#[derive(Debug, Default)]
pub struct LayerReport {
    pub epoch_load_ns: f64,
    pub unattributed_ns: f64,
    pub route_ns: f64,
    pub derive_warm_ns: f64,
    pub cache_miss_ratio: f64,
    pub scan_ns: f64,
    pub rows_per_us: f64,
    pub spend_ns: f64,
    pub ledger_per_release: f64,
    pub append_ns: f64,
    pub records_per_release: f64,
    pub wal: WalProbe,
    pub rng_ns: f64,
    pub kernel_ns: f64,
    pub kernel_ns_per_bin: f64,
    pub fanout_ns: f64,
    pub stream: StreamProbe,
    pub overhead_frac: f64,
    pub unattributed_frac: f64,
    pub replays: f64,
}

impl LayerReport {
    /// Fills the release-path stages from the traced breakdown of `root`
    /// spans (`bins` = the released histogram's bins).
    pub fn set_breakdown(&mut self, b: &Breakdown, bins: usize) {
        self.epoch_load_ns = b.stage("session");
        self.spend_ns = b.stage("budget");
        self.append_ns = b.stage("audit");
        self.rng_ns = b.stage("rng");
        self.kernel_ns = b.stage("kernel");
        self.kernel_ns_per_bin = self.kernel_ns / bins as f64;
        self.unattributed_ns = b.unattributed();
        self.unattributed_frac = self.unattributed_ns / b.root();
        self.replays = b.roots.len() as f64;
    }

    /// The history kept per audited release: accountant ledger entries and
    /// audit records over every session of the run.
    pub fn set_history(&mut self, ledger_entries: usize, records: usize, releases: u64) {
        self.ledger_per_release = ledger_entries as f64 / releases as f64;
        self.records_per_release = records as f64 / releases as f64;
    }

    /// The per-layer metrics, in the order `BENCHMARK.json` lists them
    /// (`verify.ns_per_record` follows, from the run's own verify).
    pub fn metrics(&self) -> Vec<crate::Metric> {
        vec![
            ("session.epoch_load_ns", "ns", self.epoch_load_ns),
            ("session.unattributed_ns", "ns", self.unattributed_ns),
            ("pool.route_ns", "ns", self.route_ns),
            ("cache.derive_warm_ns", "ns", self.derive_warm_ns),
            ("cache.miss_ratio", "fraction", self.cache_miss_ratio),
            ("backend.scan_ns", "ns", self.scan_ns),
            ("backend.rows_per_us", "rows/us", self.rows_per_us),
            ("budget.spend_ns", "ns", self.spend_ns),
            ("budget.ledger_entries_per_release", "count/rel", self.ledger_per_release),
            ("audit.append_ns", "ns", self.append_ns),
            ("audit.records_per_release", "count/rel", self.records_per_release),
            ("wal.log_grant_p50_ns", "ns", self.wal.p50_ns),
            ("wal.log_grant_p99_ns", "ns", self.wal.p99_ns),
            ("wal.frames_per_fsync", "frames", self.wal.frames_per_fsync),
            ("wal.bytes_per_grant", "B", self.wal.bytes_per_grant),
            ("wal.recover_s", "s", self.wal.recover_s),
            ("wal.replay_frames_per_s", "frames/s", self.wal.replay_frames_per_s),
            ("rng.derive_ns", "ns", self.rng_ns),
            ("kernel.release_into_ns", "ns", self.kernel_ns),
            ("kernel.ns_per_bin", "ns", self.kernel_ns_per_bin),
            ("fanout.ns", "ns", self.fanout_ns),
            ("stream.swap_scan_ns", "ns", self.stream.swap_scan_ns),
            ("stream.window_release_ns", "ns", self.stream.window_release_ns),
            ("stream.nodes_per_range", "count", self.stream.nodes_per_range),
            ("trace.overhead_frac", "fraction", self.overhead_frac),
            ("trace.unattributed_frac", "fraction", self.unattributed_frac),
            ("trace.replays", "count", self.replays),
        ]
    }
}

/// Fan-out self time of traced batch calls: the typical batch span minus
/// the typical serial replay of each of its stages.
pub fn fanout_from(spans: &[Span], root: &str, floor_ns: f64) -> f64 {
    Breakdown::of(spans, root, floor_ns).unattributed()
}

/// The bare fan-out layer: one vendored-rayon `for_each` over `slots`
/// no-op items, for workloads that issue no batch calls.
pub fn probe_fanout(slots: usize) -> f64 {
    let mut samples: Vec<f64> = (0..400)
        .map(|_| {
            let ((), ns) = timed(|| {
                (0..slots).into_par_iter().for_each(|i| {
                    black_box(i);
                })
            });
            ns as f64
        })
        .collect();
    central_mean(&mut samples)
}

/// Typical time ([`central_mean`]) of `n` timed calls of `f`.
fn probe_time(n: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..n).map(|_| timed(&mut f).1 as f64).collect();
    central_mean(&mut samples)
}

/// Warm task-cache lookups and backend scans of `query` on `session`.
/// `derive_task` returns a copy of the cached task that the release path
/// does not make, so each lookup is paired with a bare copy of the same
/// task, and the typical difference is reported.
pub fn probe_cache_and_scan<R>(
    session: &OsdpSession<R>,
    query: &SessionQuery<R>,
    rows: usize,
    report: &mut LayerReport,
) -> Result<(), BoxError> {
    let task = session.derive_task(query)?;
    let mut lookup_minus_copy: Vec<f64> = (0..2000)
        .map(|_| {
            let lookup = timed(|| drop(black_box(session.derive_task(query)))).1;
            let copy = timed(|| drop(black_box(task.clone()))).1;
            lookup as f64 - copy as f64
        })
        .collect();
    report.derive_warm_ns = central_mean(&mut lookup_minus_copy);
    report.scan_ns = probe_time(100, || drop(black_box(session.scan(query))));
    report.rows_per_us = rows as f64 / (report.scan_ns / 1e3);
    Ok(())
}

/// Pool routing cost: `SessionPool::release` minus `OsdpSession::release`
/// on the same tenant, alternating in pairs. Returns the typical difference
/// with the ε units and releases the probe spent (real releases).
pub fn probe_route(
    pool: &SessionPool,
    tenant: &str,
    query: &SessionQuery,
    mechanism: &dyn HistogramMechanism,
    pairs: usize,
) -> Result<(f64, u64, u64), BoxError> {
    let session = pool.get(tenant).ok_or("probe tenant missing")?;
    let (mut routed, mut direct) = (Vec::new(), Vec::new());
    for i in 0..pairs {
        let via_pool = || timed(|| pool.release(tenant, query, mechanism));
        let via_session = || timed(|| session.release(query, mechanism));
        let (a, b) = if i % 2 == 0 {
            let a = via_pool();
            (a, via_session())
        } else {
            let b = via_session();
            (via_pool(), b)
        };
        a.0?;
        b.0?;
        routed.push(a.1 as f64);
        direct.push(b.1 as f64);
    }
    let units = 2 * pairs as u64 * epsilon_to_units(mechanism.guarantee().epsilon());
    Ok((central_mean(&mut routed) - central_mean(&mut direct), units, 2 * pairs as u64))
}

/// A one-tenant in-memory pool over `task`, for workloads served without
/// a pool.
pub fn twin_pool(task: &HistogramTask, seed: u64) -> Result<SessionPool, BoxError> {
    let pool = SessionPool::new();
    let session = osdp_engine::histogram_session(task.full().clone(), task.non_sensitive().clone())
        .policy_label("twin")
        .seed(seed)
        .build()?;
    pool.insert("twin", session)?;
    Ok(pool)
}

/// WAL figures: grant-append latency, group-commit batching, bytes per
/// grant, and crash recovery.
#[derive(Debug, Default, Clone)]
pub struct WalProbe {
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub frames_per_fsync: f64,
    pub bytes_per_grant: f64,
    pub recover_s: f64,
    pub replay_frames_per_s: f64,
}

/// The shape of the grants a twin WAL logs.
pub struct GrantShape<'a> {
    pub mechanism: &'a str,
    pub policy: &'a str,
    pub query: &'a str,
    pub bins: usize,
    pub trials: usize,
    pub guarantee: Guarantee,
}

/// Total bytes of the files in a shard directory.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum::<u64>()
        })
        .unwrap_or(0)
}

/// A twin shard under `dir` with the serving plane's durable mode: `grants`
/// sequential `log_grant` calls, then a crash and a timed recovery.
pub fn probe_wal(dir: &Path, shape: &GrantShape<'_>, grants: u64) -> Result<WalProbe, BoxError> {
    let sync = SyncPolicy::group_commit();
    let persistence = SessionPersistence::open_with(dir, sync, LedgerOptions::default())?;
    let wal = persistence.wal().clone();
    let base = dir_bytes(dir);
    let mut latencies = Vec::with_capacity(grants as usize);
    for index in 0..grants {
        let event = GrantEvent {
            index,
            mechanism: shape.mechanism,
            policy: shape.policy,
            query: shape.query,
            bins: shape.bins,
            trials: shape.trials,
            guarantee: shape.guarantee,
            policy_version: 0,
        };
        let (result, ns) = timed(|| wal.log_grant(event));
        result?;
        latencies.push(ns);
    }
    let stats = wal.group_commit_stats();
    let bytes = dir_bytes(dir).saturating_sub(base);
    wal.crash(0.0)?;
    drop(wal);
    drop(persistence);
    let (recover_s, frames) = time_recovery(dir, sync)?;
    if frames != grants {
        return Err(format!("twin WAL recovered {frames} of {grants} grants").into());
    }
    Ok(WalProbe {
        p50_ns: quantile_ns(&mut latencies, 0.5),
        p99_ns: quantile_ns(&mut latencies, 0.99),
        frames_per_fsync: stats.durable_frames as f64 / stats.batches.max(1) as f64,
        bytes_per_grant: bytes as f64 / grants as f64,
        recover_s,
        replay_frames_per_s: frames as f64 / recover_s,
    })
}

/// Clears a crashed shard's lock and times its recovery; returns the time
/// and the number of grants replayed.
fn time_recovery(dir: &Path, sync: SyncPolicy) -> Result<(f64, u64), BoxError> {
    let (result, ns) = timed(|| -> Result<SessionPersistence, BoxError> {
        osdp_persist::force_unlock(dir)?;
        Ok(SessionPersistence::open_with(dir, sync, LedgerOptions::default())?)
    });
    let grants = result?.recovered().tail.len() as u64;
    Ok((ns as f64 / 1e9, grants))
}

/// Streaming figures: swap plus scan (hierarchical ingest), the per-window
/// release on top of it, and dyadic nodes released per range query.
#[derive(Debug, Default, Clone)]
pub struct StreamProbe {
    pub swap_scan_ns: f64,
    pub window_release_ns: f64,
    pub nodes_per_range: f64,
}

/// Rows per stream window, bins per window histogram and the value domain.
pub const STREAM_ROWS: usize = 512;
pub const STREAM_BINS: usize = 64;
const STREAM_DOMAIN: i64 = 512;
/// A hierarchical stream issues a range query every this many windows.
/// Chosen so that range queries take about a third of the hierarchical
/// client's time, as re-scans do on records-epochs (the run prints the
/// share): every window gives 32% on the reference box, every 2 windows
/// 22%.
pub const RANGE_EVERY: u64 = 1;
/// A range query covers the trailing `2^6` windows: one dyadic node when
/// its end is aligned to 64, at most `2 · 6` nodes otherwise.
pub const RANGE_SPAN: u64 = 64;

/// Seeded windows of compact integer rows drawn uniformly from the value
/// domain.
pub fn stream_windows(seed: u64, count: usize) -> Vec<Vec<i64>> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..STREAM_ROWS).map(|_| rng.gen_range(0..STREAM_DOMAIN)).collect())
        .collect()
}

/// Values below this are sensitive in the stream policy.
const STREAM_SENSITIVE_BELOW: i64 = 128;

pub fn stream_bin(v: &i64) -> Option<usize> {
    usize::try_from(*v / (STREAM_DOMAIN / STREAM_BINS as i64)).ok().filter(|&b| b < STREAM_BINS)
}

/// A stream session over compact integer rows with the benchmark policy.
pub fn stream_session(
    seed: u64,
    budget: osdp_core::StreamBudget,
    cap: f64,
) -> osdp_core::Result<StreamSession<i64>> {
    StreamSession::builder("events", STREAM_BINS, stream_bin)
        .policy(ClosurePolicy::new("low-values", |v: &i64| *v < STREAM_SENSITIVE_BELOW), "P-low")
        .stream_budget(budget)
        .budget(cap)
        .seed(seed)
        .build()
}

/// The `n`-th window of a ring of pre-generated windows.
pub fn window(ring: &[Vec<i64>], n: u64) -> Window<i64> {
    Window {
        index: n,
        rows: Database::from_records(ring[(n % ring.len() as u64) as usize].clone()),
    }
}

/// The range a hierarchical stream queries after `ingested` windows.
pub fn trailing_range(ingested: u64) -> std::ops::Range<u64> {
    ingested.saturating_sub(RANGE_SPAN)..ingested
}

/// Twin streams for workloads without one: a per-window stream and a
/// hierarchical stream fed `windows` windows from a seeded ring.
pub fn probe_stream(seed: u64, windows: u64) -> Result<StreamProbe, BoxError> {
    let ring = stream_windows(seed, 64);
    let mechanism = OsdpLaplaceL1::new(0.5)?;
    let mut per_window = stream_session(seed, osdp_core::StreamBudget::PerWindow, 1e9)?;
    let mut hier = stream_session(seed, osdp_core::StreamBudget::Hierarchical { levels: 24 }, 1e9)?;
    let (mut release, mut swap_scan, mut nodes, mut ranges) = (vec![], vec![], 0, 0);
    for n in 0..windows {
        let w = window(&ring, n);
        release.push(timed(|| per_window.ingest(w, &mechanism)).1 as f64);
        let w = window(&ring, n);
        let (r, ns) = timed(|| hier.ingest(w, &mechanism));
        r?;
        swap_scan.push(ns as f64);
        if (n + 1).is_multiple_of(RANGE_EVERY) {
            let before = hier.released_nodes();
            hier.range_query(trailing_range(n + 1), &mechanism)?;
            nodes += hier.released_nodes() - before;
            ranges += 1;
        }
    }
    let swap_scan_ns = central_mean(&mut swap_scan);
    Ok(StreamProbe {
        swap_scan_ns,
        window_release_ns: central_mean(&mut release) - swap_scan_ns,
        nodes_per_range: nodes as f64 / ranges.max(1) as f64,
    })
}
