//! Golden pins for every `OsdpSession` grant path.
//!
//! The parity suites compare release paths with each other, so a change
//! that shifted every path the same way would still pass them. This suite
//! pins each path's **absolute** output on durable, fixed-seed sessions:
//!
//! * a digest of the estimate bits and of the sampled rows;
//! * the audit records (index, policy version, labels, bins, trials);
//! * the grant and refusal records the WAL recovers after a drop.
//!
//! Every path is followed by one attempt the budget refuses, so each
//! path's refusal label and requested ε are pinned as well. The values
//! were captured before the grant paths were folded into one step; they
//! must not move.

use osdp::persist::TenantLedger;
use osdp::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Budget cap of every golden session: wide enough for the granted calls,
/// far below the ε of the refused ones.
const CAP: f64 = 16.0;

/// ε of every refused attempt.
const HUGE: f64 = 1000.0;

fn temp_dir(name: &str) -> PathBuf {
    static UNIQUE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "osdp-golden-{}-{}-{name}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// FNV-1a over the bits of every estimate and the debug form of every
/// sampled row.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn histogram(&mut self, h: &Histogram) {
        self.bytes(&(h.len() as u64).to_le_bytes());
        for c in h.counts() {
            self.bytes(&c.to_bits().to_le_bytes());
        }
    }

    fn histograms(&mut self, hs: &[Histogram]) {
        for h in hs {
            self.histogram(h);
        }
    }
}

fn refused<T: std::fmt::Debug>(result: Result<T, OsdpError>) {
    match result {
        Err(OsdpError::BudgetExhausted { .. }) => {}
        other => panic!("expected a budget refusal, got {other:?}"),
    }
}

fn people() -> Database<Record> {
    (0..240i64)
        .map(|i| {
            Record::builder()
                .field("age", Value::Int((i * 37) % 90))
                .field("zone", Value::Categorical((i % 7) as u32))
                .build()
        })
        .collect()
}

fn record_session(dir: &PathBuf, columnar: bool) -> OsdpSession {
    let mut b = SessionBuilder::new(people());
    if columnar {
        b = b.columnar();
    }
    b.policy(AttributePolicy::int_at_most("age", 17), "minors")
        .budget(CAP)
        .seed(20_201_017)
        .durable(SessionPersistence::open(dir, SyncPolicy::Always).unwrap())
        .build()
        .unwrap()
}

fn audit_lines(session: &OsdpSession) -> Vec<String> {
    session
        .audit_records()
        .iter()
        .map(|r| {
            format!(
                "{} v{} {} | {} | {} | bins={} trials={} {}",
                r.index,
                r.policy_version,
                r.policy,
                r.mechanism,
                r.query,
                r.bins,
                r.trials,
                r.guarantee
            )
        })
        .collect()
}

/// The WAL's recovered grant and refusal records, read independently of
/// any session.
fn wal_lines(dir: &PathBuf) -> (Vec<String>, Vec<String>) {
    let ledger = TenantLedger::peek(dir).unwrap();
    let grants = ledger
        .grants
        .iter()
        .map(|g| {
            format!(
                "{} units={} eps={} trials={} bins={} {:?} | {} | {} | {} | v{}",
                g.index,
                g.units,
                g.epsilon,
                g.trials,
                g.bins,
                g.guarantee,
                g.mechanism,
                g.policy,
                g.query,
                g.policy_version
            )
        })
        .collect();
    let refusals = ledger
        .refusals
        .iter()
        .map(|r| format!("units={} eps={} | {}", r.units, r.epsilon, r.mechanism))
        .collect();
    (grants, refusals)
}

/// Asserts a list of pinned lines, printing the actual list on mismatch so
/// a deliberate change can be re-pinned from the failure output.
fn assert_lines(what: &str, actual: &[String], expected: &[&str]) {
    assert_eq!(actual, expected, "{what} moved; actual:\n{actual:#?}");
}

#[test]
fn record_session_grant_paths_reproduce_their_pinned_outputs() {
    let dir = temp_dir("row");
    let session = record_session(&dir, false);
    let query = SessionQuery::count_by_int_linear("age-decades", "age", 0, 10, 9);
    let l1 = OsdpLaplaceL1::new(0.25).unwrap();
    let laplace = OsdpLaplace::new(0.5).unwrap();
    let dp = DpLaplaceHistogram::new(0.375).unwrap();
    let huge = OsdpLaplaceL1::new(HUGE).unwrap();
    let mut digest = Digest::new();

    // release
    let release = session.release(&query, &l1).unwrap();
    assert_eq!((release.index, release.policy.as_str()), (0, "minors"));
    digest.histogram(&release.estimate);
    refused(session.release(&query, &huge));

    // release_task, over an externally held task
    let task = session.derive_task(&query).unwrap();
    let release = session.release_task("external", &task, &l1).unwrap();
    digest.histogram(&release.estimate);
    refused(session.release_task("external", &task, &huge));

    // release_trials and its serial oracle
    digest.histograms(&session.release_trials(&query, &laplace, 3).unwrap());
    refused(session.release_trials(&query, &huge, 2));
    digest.histograms(&session.release_trials_serial(&query, &dp, 2).unwrap());
    refused(session.release_trials_serial(&query, &huge, 3));

    // release_pool
    let pool: Vec<&dyn HistogramMechanism> = vec![&l1, &dp, &laplace];
    for release in session.release_pool(&query, &pool, 2).unwrap() {
        digest.bytes(release.mechanism.as_bytes());
        digest.bytes(&release.index.to_le_bytes());
        digest.histograms(&release.estimates);
    }
    let refused_pool: Vec<&dyn HistogramMechanism> = vec![&l1, &huge];
    refused(session.release_pool(&query, &refused_pool, 1));

    // A tightening epoch: later stamps carry version 1 and its label.
    let teens: Arc<dyn Policy<Record>> = Arc::new(AttributePolicy::int_at_most("age", 19));
    session.set_policy_epoch(teens, "teens", EpochDirection::Tighten).unwrap();
    digest.histogram(&session.release(&query, &l1).unwrap().estimate);

    // release_records
    let sample = session.release_records(&OsdpRr::new(0.5).unwrap()).unwrap();
    digest.bytes(&(sample.len() as u64).to_le_bytes());
    for row in sample.iter() {
        digest.bytes(format!("{row:?}").as_bytes());
    }
    refused(session.release_records(&OsdpRr::new(HUGE).unwrap()));

    let audit = audit_lines(&session);
    drop(session);
    let (grants, refusals) = wal_lines(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(digest.0, 0x4222_85b3_3fb9_e390, "estimate digest moved: {:#018x}", digest.0);
    assert_lines(
        "audit records",
        &audit,
        &[
            "0 v0 minors | OsdpLaplaceL1 | age-decades | bins=9 trials=1 (P, 0.25)-OSDP",
            "1 v0 minors | OsdpLaplaceL1 | external | bins=9 trials=1 (P, 0.25)-OSDP",
            "2 v0 minors | OsdpLaplace | age-decades | bins=9 trials=3 (P, 0.5)-OSDP",
            "3 v0 minors | Laplace | age-decades | bins=9 trials=2 0.375-DP",
            "4 v0 minors | OsdpLaplaceL1 | age-decades | bins=9 trials=2 (P, 0.25)-OSDP",
            "5 v0 minors | Laplace | age-decades | bins=9 trials=2 0.375-DP",
            "6 v0 minors | OsdpLaplace | age-decades | bins=9 trials=2 (P, 0.5)-OSDP",
            "7 v1 teens | OsdpLaplaceL1 | age-decades | bins=9 trials=1 (P, 0.25)-OSDP",
            "8 v1 teens | OsdpRR (records) | record-sample | bins=0 trials=1 (P, 0.5)-OSDP",
        ],
    );
    assert_lines(
        "WAL grants",
        &grants,
        &[
            "0 units=250000000000 eps=0.25 trials=1 bins=9 Osdp | OsdpLaplaceL1 | minors | age-decades | v0",
            "1 units=250000000000 eps=0.25 trials=1 bins=9 Osdp | OsdpLaplaceL1 | minors | external | v0",
            "2 units=1500000000000 eps=0.5 trials=3 bins=9 Osdp | OsdpLaplace | minors | age-decades | v0",
            "3 units=750000000000 eps=0.375 trials=2 bins=9 Dp | Laplace | minors | age-decades | v0",
            "4 units=500000000000 eps=0.25 trials=2 bins=9 Osdp | OsdpLaplaceL1 | minors | age-decades | v0",
            "5 units=750000000000 eps=0.375 trials=2 bins=9 Dp | Laplace | minors | age-decades | v0",
            "6 units=1000000000000 eps=0.5 trials=2 bins=9 Osdp | OsdpLaplace | minors | age-decades | v0",
            "7 units=250000000000 eps=0.25 trials=1 bins=9 Osdp | OsdpLaplaceL1 | teens | age-decades | v1",
            "8 units=500000000000 eps=0.5 trials=1 bins=0 Osdp | OsdpRR (records) | teens | record-sample | v1",
        ],
    );
    assert_lines(
        "WAL refusals",
        &refusals,
        &[
            "units=1000000000000000 eps=1000 | OsdpLaplaceL1",
            "units=1000000000000000 eps=1000 | OsdpLaplaceL1",
            "units=2000000000000000 eps=2000 | OsdpLaplaceL1",
            "units=3000000000000000 eps=3000 | OsdpLaplaceL1",
            "units=1000250000000000 eps=1000.25 | pool[2]",
            "units=1000000000000000 eps=1000 | OsdpRR (records)",
        ],
    );
}

#[test]
fn columnar_release_reproduces_its_pinned_output() {
    let dir = temp_dir("columnar");
    let session = record_session(&dir, true);
    let query = SessionQuery::count_by_categorical("zones", "zone", 7);
    let l1 = OsdpLaplaceL1::new(0.25).unwrap();
    let mut digest = Digest::new();
    for _ in 0..2 {
        digest.histogram(&session.release(&query, &l1).unwrap().estimate);
    }
    refused(session.release(&query, &OsdpLaplaceL1::new(HUGE).unwrap()));

    let audit = audit_lines(&session);
    drop(session);
    let (grants, refusals) = wal_lines(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(digest.0, 0xa443_3570_a911_e633, "estimate digest moved: {:#018x}", digest.0);
    assert_lines(
        "audit records",
        &audit,
        &[
            "0 v0 minors | OsdpLaplaceL1 | zones | bins=7 trials=1 (P, 0.25)-OSDP",
            "1 v0 minors | OsdpLaplaceL1 | zones | bins=7 trials=1 (P, 0.25)-OSDP",
        ],
    );
    assert_lines(
        "WAL grants",
        &grants,
        &[
            "0 units=250000000000 eps=0.25 trials=1 bins=7 Osdp | OsdpLaplaceL1 | minors | zones | v0",
            "1 units=250000000000 eps=0.25 trials=1 bins=7 Osdp | OsdpLaplaceL1 | minors | zones | v0",
        ],
    );
    assert_lines("WAL refusals", &refusals, &["units=1000000000000000 eps=1000 | OsdpLaplaceL1"]);
}

#[test]
fn histogram_session_grant_paths_reproduce_their_pinned_outputs() {
    let dir = temp_dir("bound");
    let full = Histogram::from_counts(vec![40.0, 10.0, 25.0, 25.0, 3.0]);
    let ns = Histogram::from_counts(vec![30.0, 10.0, 0.0, 20.0, 1.0]);
    let session = histogram_session(full, ns)
        .policy_label("P-sampled")
        .budget(CAP)
        .seed(99)
        .durable(SessionPersistence::open(&dir, SyncPolicy::Always).unwrap())
        .build()
        .unwrap();
    let query = SessionQuery::bound();
    let l1 = OsdpLaplaceL1::new(0.25).unwrap();
    let laplace = OsdpLaplace::new(0.5).unwrap();
    let huge = OsdpLaplaceL1::new(HUGE).unwrap();
    let mut digest = Digest::new();

    digest.histogram(&session.release(&query, &l1).unwrap().estimate);
    refused(session.release(&query, &huge));
    digest.histograms(&session.release_trials(&query, &laplace, 2).unwrap());
    refused(session.release_trials(&query, &huge, 2));
    let pool: Vec<&dyn HistogramMechanism> = vec![&laplace, &l1];
    for release in session.release_pool(&query, &pool, 3).unwrap() {
        digest.histograms(&release.estimates);
    }
    refused(session.release_pool(&query, &[&huge], 1));

    let audit = audit_lines(&session);
    drop(session);
    let (grants, refusals) = wal_lines(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(digest.0, 0x74c7_b8eb_a5a9_b023, "estimate digest moved: {:#018x}", digest.0);
    assert_lines(
        "audit records",
        &audit,
        &[
            "0 v0 P-sampled | OsdpLaplaceL1 | bound | bins=5 trials=1 (P, 0.25)-OSDP",
            "1 v0 P-sampled | OsdpLaplace | bound | bins=5 trials=2 (P, 0.5)-OSDP",
            "2 v0 P-sampled | OsdpLaplace | bound | bins=5 trials=3 (P, 0.5)-OSDP",
            "3 v0 P-sampled | OsdpLaplaceL1 | bound | bins=5 trials=3 (P, 0.25)-OSDP",
        ],
    );
    assert_lines(
        "WAL grants",
        &grants,
        &[
            "0 units=250000000000 eps=0.25 trials=1 bins=5 Osdp | OsdpLaplaceL1 | P-sampled | bound | v0",
            "1 units=1000000000000 eps=0.5 trials=2 bins=5 Osdp | OsdpLaplace | P-sampled | bound | v0",
            "2 units=1500000000000 eps=0.5 trials=3 bins=5 Osdp | OsdpLaplace | P-sampled | bound | v0",
            "3 units=750000000000 eps=0.25 trials=3 bins=5 Osdp | OsdpLaplaceL1 | P-sampled | bound | v0",
        ],
    );
    assert_lines(
        "WAL refusals",
        &refusals,
        &[
            "units=1000000000000000 eps=1000 | OsdpLaplaceL1",
            "units=2000000000000000 eps=2000 | OsdpLaplaceL1",
            "units=1000000000000000 eps=1000 | pool[1]",
        ],
    );
}
