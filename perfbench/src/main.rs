//! The OSDP serving-stack benchmark: four seeded, closed-loop workloads
//! against the public API of `osdp-engine`, with a correctness gate and an
//! outside-in per-layer trace. See `README.md` beside this package.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hist-serve --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`).

mod durable_grant;
mod harness;
mod hist_serve;
mod layers;
mod records_epochs;
mod stream_ingest;

use harness::{
    central_mean, merged, slice_quantile_ns, slice_rate, Args, Phases, ScratchDir, Span,
};
use layers::LayerReport;
use std::process::ExitCode;

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// One reported metric: name, unit and value.
pub type Metric = (&'static str, &'static str, f64);

/// What a workload run hands back for reporting.
pub struct Outcome {
    /// Warm-up, measured and traced windows; `totals` also counts the
    /// calls probes and the gate made.
    pub phases: Phases,
    /// Correctness checks: description and verdict.
    pub checks: Vec<(String, bool)>,
    pub setup_s: f64,
    pub verify_s: f64,
    pub verify_records: u64,
    pub layers: Option<LayerReport>,
    /// Context printed to standard error (e.g. durability settings).
    pub notes: Vec<String>,
}

/// Ground truth against the program's own counters: the ε of every `Ok`
/// result a caller received must equal the accountant's units and the
/// audit log's units, and stay within the cap.
pub fn ledger_check(
    who: &str,
    caller_units: u64,
    accountant_units: u64,
    audit_units: u64,
    cap: f64,
) -> (String, bool) {
    (
        format!(
            "{who}: caller ε units {caller_units} == accountant {accountant_units} == audit \
             {audit_units} <= cap"
        ),
        caller_units == accountant_units
            && accountant_units == audit_units
            && accountant_units <= osdp_core::budget::epsilon_to_units(cap),
    )
}

pub fn write_trace_or_warn(workload: &str, spans: &[Span]) {
    match harness::write_trace(workload, spans) {
        Ok(path) => eprintln!("perfbench: {} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: could not write the trace: {e}"),
    }
}

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let mut aux: Vec<f64> =
        merged(&o.phases.logs, |l| &l.aux_ns).iter().map(|&ns| ns as f64).collect();
    vec![
        ("rel_per_s", "rel/s", slice_rate(&o.phases.logs, |l| &l.slice_releases)),
        ("calls_per_s", "call/s", slice_rate(&o.phases.logs, |l| &l.slice_calls)),
        ("call_p50_us", "us", slice_quantile_ns(&o.phases.logs, 0.5) / 1e3),
        ("call_p90_us", "us", slice_quantile_ns(&o.phases.logs, 0.9) / 1e3),
        ("aux_iqm_us", "us", central_mean(&mut aux) / 1e3),
        ("rss_growth_b_per_call", "B/call", o.phases.rss_per_call.unwrap_or(f64::NAN)),
        ("setup_s", "s", o.setup_s),
    ]
}

fn report(args: &Args, mut o: Outcome) -> ExitCode {
    for note in &o.notes {
        eprintln!("perfbench: {note}");
    }
    let primary: usize = o.phases.logs.iter().map(|l| l.primary_ns.len()).sum();
    o.checks.push(("every call succeeded (error_rate = 0)".into(), o.phases.totals.failed == 0));
    o.checks.push((format!("tail rests on >= 1000 samples ({primary})"), primary >= 1000));
    let values = match &o.layers {
        Some(layers) => {
            let mut values = layers.metrics();
            let verify = o.verify_s * 1e9 / o.verify_records as f64;
            values.push(("verify.ns_per_record", "ns", verify));
            values
        }
        None => end_to_end(&o),
    };
    let mut metrics = Vec::new();
    for (name, unit, value) in values {
        o.checks.push((format!("metric {name} measured"), value.is_finite()));
        metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    let correct = o.checks.iter().all(|(_, ok)| *ok);
    for (what, ok) in &o.checks {
        eprintln!("perfbench: [{}] {what}", if *ok { "ok" } else { "FAILED" });
    }
    let metrics = if correct { metrics.join(", ") } else { String::new() };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.phases.totals.attempted.max(1),
        o.phases.totals.failed
    );
    if correct {
        eprintln!(
            "perfbench: {} {} done",
            args.workload,
            if args.trace { "traced" } else { "run" }
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = match ScratchDir::new(&args.workload) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.workload.as_str() {
        "hist-serve" => hist_serve::run(&args, scratch.path()),
        "records-epochs" => records_epochs::run(&args, scratch.path()),
        "durable-grant" => durable_grant::run(&args, scratch.path()),
        "stream-ingest" => stream_ingest::run(&args, scratch.path()),
        other => Err(format!("unknown workload {other}").into()),
    };
    drop(scratch);
    match outcome {
        Ok(outcome) => report(&args, outcome),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
