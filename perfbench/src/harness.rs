//! Measurement machinery shared by every workload: command-line arguments,
//! closed-loop clients, latency statistics, the in-memory span tracer,
//! resident-memory probes and the result line.

use crate::layers::TASK_COPY;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Closed-loop clients per workload: one per core of the reference box.
pub const CLIENTS: usize = 2;

/// The command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && (MIN_SECONDS..=600.0).contains(&s)) {
                        return Err(format!("--seconds must be in [{MIN_SECONDS}, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(30.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Length of the slices a measured window is cut into. Rates and the tail
/// are central means over slices, so a burst of interference from outside
/// the process moves one slice, not the run.
pub const SLICE_S: f64 = 0.25;

/// Rounds the measured window is cut into. Set-up is timed between rounds,
/// so its samples span the run instead of one moment of the machine.
pub const ROUNDS: usize = 12;

/// The shortest `--seconds`: a traced run cuts half of it into [`ROUNDS`]
/// rounds, and each must hold a full slice.
const MIN_SECONDS: f64 = 2.0 * ROUNDS as f64 * SLICE_S;

/// Everything one client did during one phase. Warm-up phases fill the
/// same log so that the ground-truth ε sum covers every call a caller made.
#[derive(Debug)]
pub struct ClientLog {
    start: Instant,
    /// The client's own window, from the barrier to its last reply.
    pub elapsed_s: f64,
    /// Public calls that returned `Ok`.
    pub calls: u64,
    /// Audited releases returned to the caller (a pool batch counts one
    /// per mechanism, a range query one per node it released).
    pub releases: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Latency of the workload's primary call (`release` or `ingest`),
    /// with the slice each sample completed in.
    pub primary_ns: Vec<u64>,
    pub primary_slice: Vec<u32>,
    /// Latency of the workload's secondary call (batch, epoch bump or
    /// range query).
    pub aux_ns: Vec<u64>,
    /// Per slice: `Ok` calls and releases.
    pub slice_calls: Vec<u64>,
    pub slice_releases: Vec<u64>,
}

impl Default for ClientLog {
    fn default() -> Self {
        Self {
            start: Instant::now(),
            elapsed_s: 0.0,
            calls: 0,
            releases: 0,
            attempted: 0,
            failed: 0,
            primary_ns: Vec::new(),
            primary_slice: Vec::new(),
            aux_ns: Vec::new(),
            slice_calls: Vec::new(),
            slice_releases: Vec::new(),
        }
    }
}

impl ClientLog {
    fn slice(&self) -> usize {
        (self.start.elapsed().as_secs_f64() / SLICE_S) as usize
    }

    /// Records a primary-call latency.
    pub fn primary(&mut self, ns: u64) {
        let slice = self.slice();
        self.primary_ns.push(ns);
        self.primary_slice.push(slice as u32);
    }

    /// Records a secondary-call latency.
    pub fn aux(&mut self, ns: u64) {
        self.aux_ns.push(ns);
    }

    /// Appends a later round of the same client: counters add up, and the
    /// round's first `full` slices follow this log's own.
    fn append(&mut self, round: ClientLog, full: usize) {
        let offset = self.slice_calls.len() as u32;
        self.elapsed_s += round.elapsed_s;
        self.calls += round.calls;
        self.releases += round.releases;
        self.attempted += round.attempted;
        self.failed += round.failed;
        self.primary_ns.extend(round.primary_ns);
        // A sample from a partial slice belongs to no slice.
        self.primary_slice.extend(round.primary_slice.iter().map(|&s| {
            if (s as usize) < full {
                offset + s
            } else {
                u32::MAX
            }
        }));
        self.aux_ns.extend(round.aux_ns);
        for (all, mut part) in [
            (&mut self.slice_calls, round.slice_calls),
            (&mut self.slice_releases, round.slice_releases),
        ] {
            part.resize(full, 0);
            all.extend(part);
        }
    }

    /// Counts one `Ok` call that returned `releases` audited releases.
    pub fn done(&mut self, releases: u64) {
        let slice = self.slice();
        if self.slice_calls.len() <= slice {
            self.slice_calls.resize(slice + 1, 0);
            self.slice_releases.resize(slice + 1, 0);
        }
        self.calls += 1;
        self.releases += releases;
        self.slice_calls[slice] += 1;
        self.slice_releases[slice] += releases;
    }
}

/// Counters over warm-up, every window and the calls probes make.
#[derive(Debug, Default)]
pub struct Totals {
    /// Audited releases returned to callers.
    pub releases: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Totals {
    fn absorb(&mut self, log: &ClientLog) {
        self.releases += log.releases;
        self.attempted += log.attempted;
        self.failed += log.failed;
    }
}

/// Slices every client of one round completed in full.
fn full_slices(logs: &[ClientLog]) -> usize {
    let shortest = logs.iter().map(|l| l.elapsed_s).fold(f64::INFINITY, f64::min);
    (shortest / SLICE_S) as usize
}

/// Slices of logs merged over rounds (every client has all of them).
fn merged_slices(logs: &[ClientLog]) -> usize {
    logs.iter().map(|l| l.slice_calls.len()).min().unwrap_or(0)
}

/// [`central_mean`] over full slices of the summed per-slice count, per
/// second.
pub fn slice_rate(logs: &[ClientLog], counts: impl Fn(&ClientLog) -> &Vec<u64>) -> f64 {
    let mut rates: Vec<f64> = (0..merged_slices(logs))
        .map(|i| logs.iter().map(|l| counts(l)[i]).sum::<u64>() as f64)
        .map(|n| n / SLICE_S)
        .collect();
    central_mean(&mut rates)
}

/// [`central_mean`] over full slices of the `q`-quantile of the primary
/// latencies that completed in the slice.
pub fn slice_quantile_ns(logs: &[ClientLog], q: f64) -> f64 {
    let mut per_slice: Vec<Vec<u64>> = vec![Vec::new(); merged_slices(logs)];
    for log in logs {
        for (&ns, &slice) in log.primary_ns.iter().zip(&log.primary_slice) {
            if let Some(samples) = per_slice.get_mut(slice as usize) {
                samples.push(ns);
            }
        }
    }
    let mut quantiles: Vec<f64> = per_slice
        .iter_mut()
        .filter(|samples| !samples.is_empty())
        .map(|samples| quantile_ns(samples, q))
        .collect();
    central_mean(&mut quantiles)
}

/// The smallest of a few timings of a deterministic operation (at least
/// two, at most five, stopping after about a second), with its result; a
/// single timing unless `repeat`.
pub fn min_time<T>(repeat: bool, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut best, mut spent, mut reps) = (f64::INFINITY, 0.0, 0);
    loop {
        let (out, ns) = timed(&mut f);
        let s = ns as f64 / 1e9;
        best = best.min(s);
        spent += s;
        reps += 1;
        if !repeat || reps >= 5 || (reps >= 2 && spent >= 1.0) {
            return (out, best);
        }
    }
}

/// How long a phase runs: a fixed number of operations per client (warm-up,
/// outside any clock) or a time window per client.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Ops(u64),
    Seconds(f64),
}

/// Runs one phase of [`CLIENTS`] closed-loop clients. Every client waits
/// on a shared barrier, then times its own window and issues its next call
/// only after the previous one returned; `step` performs exactly one call.
fn run_clients<S: Send>(
    states: &mut [S],
    phase: Phase,
    step: impl Fn(&mut S, &mut ClientLog) + Sync,
) -> Vec<ClientLog> {
    let barrier = Barrier::new(states.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                let (barrier, step) = (&barrier, &step);
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    barrier.wait();
                    let start = Instant::now();
                    log.start = start;
                    match phase {
                        Phase::Ops(n) => (0..n).for_each(|_| step(state, &mut log)),
                        Phase::Seconds(s) => {
                            let deadline = start + Duration::from_secs_f64(s);
                            while Instant::now() < deadline {
                                step(state, &mut log);
                            }
                        }
                    }
                    log.elapsed_s = start.elapsed().as_secs_f64();
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}

/// What the phases of one run produced.
pub struct Phases {
    pub totals: Totals,
    /// The measured, untraced window, one log per client merged over its
    /// [`ROUNDS`].
    pub logs: Vec<ClientLog>,
    /// The traced window (traced runs only).
    pub traced: Vec<ClientLog>,
    /// Resident memory the first measured round added, in bytes per call.
    pub rss_per_call: Option<f64>,
}

impl Phases {
    /// What tracing cost: 1 − traced ÷ untraced mean release rate.
    pub fn trace_overhead(&self) -> f64 {
        1.0 - rate(&self.traced, |l| l.releases) / rate(&self.logs, |l| l.releases)
    }
}

/// The measured rounds of one window: every client's logs merged over the
/// rounds, and the resident memory the first round added per call.
struct Window {
    logs: Vec<ClientLog>,
    rss_per_call: Option<f64>,
}

/// Runs [`ROUNDS`] rounds that together last `seconds`, calling `between`
/// on the clients after each round while they wait.
fn run_rounds<S: Send>(
    clients: &mut [S],
    seconds: f64,
    step: &(impl Fn(&mut S, &mut ClientLog) + Sync),
    between: &mut impl FnMut(&mut [S]),
    totals: &mut Totals,
) -> Window {
    let mut logs: Vec<ClientLog> = clients.iter().map(|_| ClientLog::default()).collect();
    let mut rss_per_call = None;
    for r in 0..ROUNDS {
        let before = rss_bytes();
        let round = run_clients(clients, Phase::Seconds(seconds / ROUNDS as f64), step);
        // Only the first round grows a fresh heap: later rounds reuse what
        // `between` freed (sealed sessions, set-up builds).
        if r == 0 {
            let growth = before.zip(rss_bytes()).map(|(b, a)| a as f64 - b as f64);
            let calls: u64 = round.iter().map(|l| l.calls).sum();
            rss_per_call = growth.map(|g| g / calls as f64);
        }
        let full = full_slices(&round);
        for (log, part) in logs.iter_mut().zip(round) {
            totals.absorb(&part);
            log.append(part, full);
        }
        between(clients);
    }
    Window { logs, rss_per_call }
}

/// Runs warm-up (`warm_ops` calls per client, outside any clock), then the
/// measured window in [`ROUNDS`] rounds, calling `between` on the clients
/// after each round while they wait. A traced run gives half of `--seconds`
/// to untraced rounds and half to traced ones, installing a tracer on every
/// client through `tracer` in between.
pub fn run_phases<S: Send>(
    clients: &mut [S],
    args: &Args,
    warm_ops: u64,
    tracer: impl Fn(&mut S) -> &mut Option<Tracer>,
    step: impl Fn(&mut S, &mut ClientLog) + Sync,
    mut between: impl FnMut(&mut [S]),
) -> Phases {
    let mut totals = Totals::default();
    for log in run_clients(clients, Phase::Ops(warm_ops), &step) {
        totals.absorb(&log);
    }
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let window = run_rounds(clients, seconds, &step, &mut between, &mut totals);
    let mut traced = Vec::new();
    if args.trace {
        let origin = Instant::now();
        for (c, client) in clients.iter_mut().enumerate() {
            *tracer(client) = Some(Tracer::new(origin, c));
        }
        traced = run_rounds(clients, seconds, &step, &mut between, &mut totals).logs;
    }
    Phases { totals, logs: window.logs, traced, rss_per_call: window.rss_per_call }
}

/// Nanoseconds of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// Runs `build` several times, each time on inputs `prepare` made outside
/// the clock, and returns the build times with the last build. Light
/// builds repeat more often so the typical value rests on enough samples.
/// Workloads call it before the measured window and again after each of
/// its rounds, so the reported [`central_mean`] spans the run instead of
/// one moment of the machine.
pub fn repeated_setup<I, T>(
    mut prepare: impl FnMut() -> I,
    mut build: impl FnMut(I) -> T,
    mut discard: impl FnMut(T),
) -> (Vec<f64>, T) {
    const MIN_REPS: usize = 5;
    const MAX_REPS: usize = 101;
    const BUDGET_S: f64 = 0.15;
    let mut times = Vec::new();
    let mut spent = 0.0;
    loop {
        let input = prepare();
        let start = Instant::now();
        let built = build(input);
        let took = start.elapsed().as_secs_f64();
        times.push(took);
        spent += took;
        if times.len() >= MAX_REPS || (times.len() >= MIN_REPS && spent >= BUDGET_S) {
            return (times, built);
        }
        discard(built);
    }
}

/// The median of `values` (sorted in place); NaN when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The mean of the middle half of `values` (sorted in place): about as
/// robust to outliers as the median, but continuous, so a tiny per-layer
/// time does not snap to the same integer nanosecond run after run. NaN
/// when empty.
pub fn central_mean(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let middle = &values[n / 4..n - n / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The `q`-quantile of nanosecond samples (nearest rank), NaN when empty.
pub fn quantile_ns(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64
}

/// Merges every client's samples of one kind.
pub fn merged(logs: &[ClientLog], pick: impl Fn(&ClientLog) -> &Vec<u64>) -> Vec<u64> {
    logs.iter().flat_map(|l| pick(l).iter().copied()).collect()
}

/// Sum over clients of each client's own rate.
pub fn rate(logs: &[ClientLog], count: impl Fn(&ClientLog) -> u64) -> f64 {
    logs.iter().map(|l| count(l) as f64 / l.elapsed_s).sum()
}

/// Resident set size of this process in bytes, from `/proc/self/statm`.
pub fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

/// FNV-1a over the bit patterns of a histogram sequence: equal digests mean
/// bitwise-equal outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, values: &[f64]) {
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
}

/// Whether two estimates are equal bit for bit.
pub fn bitwise_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A per-run scratch directory inside the checkout, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(workload: &str) -> std::io::Result<Self> {
        let dir = PathBuf::from(".bench_build")
            .join("perfbench-scratch")
            .join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One traced interval. Spans of one request share `request`; a replayed
/// layer call is a child of the public call it reproduces.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder owned by one client (no sharing, no locks);
/// spans are written out after the run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    client: u64,
    next: u64,
    pub spans: Vec<Span>,
}

/// Parent id of a root span.
pub const NO_PARENT: u64 = 0;

impl Tracer {
    pub fn new(origin: Instant, client: usize) -> Self {
        Self { origin, client: client as u64 + 1, next: 0, spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh request id (also usable as a span id).
    pub fn request(&mut self) -> u64 {
        self.next += 1;
        self.client << 40 | self.next
    }

    /// Runs `f` inside a span and returns its result with the span id.
    pub fn span<T>(
        &mut self,
        parent: u64,
        request: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        let id = self.request();
        self.spans.push(Span { id, parent, request, name, start_ns, end_ns });
        (out, id)
    }

    /// Records the root span of a public call that just returned after
    /// `duration_ns`; its id is the request id.
    pub fn record_root(&mut self, request: u64, name: &'static str, duration_ns: u64) -> u64 {
        let end_ns = self.now();
        let start_ns = end_ns.saturating_sub(duration_ns);
        self.spans.push(Span { id: request, parent: NO_PARENT, request, name, start_ns, end_ns });
        request
    }
}

/// Per-stage self times of every traced root span named `root` that has
/// replay children (stage name → samples), and those roots' durations.
pub struct Breakdown {
    pub stages: HashMap<&'static str, Vec<f64>>,
    pub roots: Vec<f64>,
}

impl Breakdown {
    /// `floor_ns` is the cost of one empty span (two clock reads), taken
    /// off every stage span so it lands in no layer. A [`TASK_COPY`] span
    /// counts against the `cache` stage.
    pub fn of(spans: &[Span], root: &str, floor_ns: f64) -> Self {
        let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
        for span in spans {
            if span.parent != NO_PARENT {
                children.entry(span.parent).or_default().push(span);
            }
        }
        let mut out = Breakdown { stages: HashMap::new(), roots: Vec::new() };
        for span in spans.iter().filter(|s| s.name == root && s.parent == NO_PARENT) {
            let Some(kids) = children.get(&span.id) else { continue };
            let mut per_stage: HashMap<&'static str, f64> = HashMap::new();
            for kid in kids {
                // A replay-only task copy is taken off the cache lookup.
                let (stage, sign) =
                    if kid.name == TASK_COPY { ("cache", -1.0) } else { (kid.name, 1.0) };
                *per_stage.entry(stage).or_default() +=
                    sign * (kid.duration_ns() as f64 - floor_ns);
            }
            for (name, ns) in per_stage {
                out.stages.entry(name).or_default().push(ns);
            }
            out.roots.push(span.duration_ns() as f64);
        }
        out
    }

    /// Typical self time of `stage` ([`central_mean`]), NaN when the stage
    /// never ran.
    pub fn stage(&self, stage: &str) -> f64 {
        self.stages.get(stage).map_or(f64::NAN, |v| central_mean(&mut v.clone()))
    }

    /// Typical duration of the traced root call.
    pub fn root(&self) -> f64 {
        central_mean(&mut self.roots.clone())
    }

    /// The typical root minus every typical stage: what the replayed layer
    /// calls do not account for. Stages plus this add up to [`Self::root`].
    pub fn unattributed(&self) -> f64 {
        self.root() - self.stages.keys().map(|name| self.stage(name)).sum::<f64>()
    }
}

/// Typical duration ([`central_mean`]) of the root spans named `name`.
pub fn root_duration(spans: &[Span], name: &str) -> f64 {
    let mut d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && s.parent == NO_PARENT)
        .map(|s| s.duration_ns() as f64)
        .collect();
    central_mean(&mut d)
}

/// The cost of one empty span: median of back-to-back clock-read pairs.
pub fn timer_floor_ns() -> f64 {
    let mut d: Vec<f64> = (0..20_000)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    median(&mut d)
}

/// Writes spans as tab-separated lines to
/// `.bench_build/perfbench-traces/<workload>.tsv` (the latest traced run).
pub fn write_trace(workload: &str, spans: &[Span]) -> std::io::Result<PathBuf> {
    use std::io::Write;
    let dir = PathBuf::from(".bench_build").join("perfbench-traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.tsv"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(path)
}
