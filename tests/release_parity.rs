//! Parity suite for the zero-allocation release plane.
//!
//! The buffer-reuse paths (`HistogramMechanism::release_into`, the arena
//! trial batches, `OsdpSession::release_pool`) are pure mechanical
//! optimizations: their outputs must be **bitwise identical** to the scalar
//! reference paths, which stay in the codebase as oracles. This suite
//! property-tests that contract across all 8 mechanisms of the paper's pool,
//! and probes the one-scan guarantee of `release_pool` with a counting
//! backend.

use osdp::prelude::*;
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The full 8-mechanism pool: 5 OSDP mechanisms, 2 DP baselines, 1 PDP
/// baseline — every registered `HistogramMechanism` of the workspace.
fn full_pool(eps: f64) -> Vec<Box<dyn HistogramMechanism>> {
    pool_from_names(
        &[
            "OsdpRR",
            "OsdpLaplace",
            "OsdpLaplaceL1",
            "Hybrid",
            "DAWAz",
            "Laplace",
            "DAWA",
            "Suppress100",
        ],
        eps,
    )
    .expect("registry pool")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `release_into` == `release` bitwise, for every mechanism, across
    /// random tasks, seeds and budgets — including identical RNG stream
    /// consumption (checked through the residual RNG state).
    #[test]
    fn release_into_matches_release_bitwise_for_all_mechanisms(
        spec in prop::collection::vec((0u32..400, 0.0f64..=1.0), 1..24),
        seed in 0u64..1_000_000_000,
        eps in 0.05f64..2.0,
    ) {
        let full: Vec<f64> = spec.iter().map(|&(c, _)| c as f64).collect();
        let ns: Vec<f64> = spec.iter().map(|&(c, f)| (c as f64 * f).floor()).collect();
        let task = HistogramTask::new(
            Histogram::from_counts(full),
            Histogram::from_counts(ns),
        ).expect("ns dominated by full by construction");

        // One output buffer reused across every mechanism: release_into must
        // resize and fully overwrite it each time.
        let mut out = Histogram::zeros(0);
        for mechanism in full_pool(eps) {
            let mut reference_rng = ChaCha12Rng::seed_from_u64(seed);
            let reference = mechanism.release(&task, &mut reference_rng);
            let mut reuse_rng = ChaCha12Rng::seed_from_u64(seed);
            mechanism.release_into(&task, &mut reuse_rng, &mut out);

            prop_assert_eq!(reference.len(), out.len(), "{}", mechanism.name());
            for (bin, (a, b)) in reference.counts().iter().zip(out.counts()).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} drifted at bin {}: {} vs {}",
                    mechanism.name(), bin, a, b
                );
            }
            prop_assert_eq!(
                reference_rng.next_u64(),
                reuse_rng.next_u64(),
                "{} consumed a different number of draws",
                mechanism.name()
            );
        }
    }

    /// The arena-based parallel trial batch reproduces the serial scalar
    /// loop bitwise for every mechanism (same seeds, fresh sessions).
    #[test]
    fn parallel_trials_match_the_serial_oracle(
        seed in 0u64..1_000_000_000,
        trials in 1usize..5,
    ) {
        let full = Histogram::from_counts(vec![120.0, 0.0, 37.0, 4.0, 880.0, 55.0, 0.0, 9.0]);
        let ns = Histogram::from_counts(vec![100.0, 0.0, 30.0, 0.0, 600.0, 55.0, 0.0, 3.0]);
        let session = |s: u64| {
            histogram_session(full.clone(), ns.clone()).seed(s).build().expect("valid pair")
        };
        for mechanism in full_pool(1.0) {
            let parallel = session(seed)
                .release_trials(&SessionQuery::bound(), &mechanism, trials)
                .expect("uncapped");
            let serial = session(seed)
                .release_trials_serial(&SessionQuery::bound(), &mechanism, trials)
                .expect("uncapped");
            prop_assert_eq!(&parallel, &serial, "{} parallel != serial", mechanism.name());
        }
    }
}

/// A backend wrapper counting every scan — the probe behind the
/// one-scan-per-pool guarantee.
struct CountingBackend {
    inner: RowBackend<Record>,
    scans: AtomicUsize,
}

impl Backend<Record> for CountingBackend {
    fn name(&self) -> &'static str {
        "counting"
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn scan(&self, plan: &QueryPlan<Record>) -> Result<HistogramPair, OsdpError> {
        self.scans.fetch_add(1, Ordering::SeqCst);
        self.inner.scan(plan)
    }
    fn database(&self) -> Option<&Database<Record>> {
        self.inner.database()
    }
}

fn counted_session(backend: &Arc<CountingBackend>) -> OsdpSession<Record> {
    SessionBuilder::with_backend(Arc::clone(backend) as Arc<dyn Backend<Record>>)
        .policy(AttributePolicy::int_at_most("v", 49), "lower-half")
        .seed(11)
        .build()
        .expect("valid session")
}

#[test]
fn release_pool_performs_exactly_one_backend_scan() {
    let db: Database<Record> =
        (0..200).map(|i| Record::builder().field("v", Value::Int(i % 100)).build()).collect();
    let backend =
        Arc::new(CountingBackend { inner: RowBackend::new(db), scans: AtomicUsize::new(0) });
    let session = counted_session(&backend);
    let query = SessionQuery::count_by_int_linear("deciles", "v", 0, 10, 10);

    let mechanisms = full_pool(1.0);
    let pool: Vec<&dyn HistogramMechanism> = mechanisms.iter().map(|m| m.as_ref()).collect();
    let releases = session.release_pool(&query, &pool, 3).expect("uncapped");
    assert_eq!(releases.len(), 8);
    assert!(releases.iter().all(|r| r.estimates.len() == 3));
    assert_eq!(
        backend.scans.load(Ordering::SeqCst),
        1,
        "an 8-mechanism pool batch must scan exactly once"
    );

    // A second pool batch over the same query: served from the task cache.
    session.release_pool(&query, &pool, 2).expect("uncapped");
    assert_eq!(backend.scans.load(Ordering::SeqCst), 1, "cache hit, no re-scan");

    // A different query identity does scan again.
    let narrower = SessionQuery::count_by_int_linear("halves", "v", 0, 50, 2);
    session.release_pool(&narrower, &pool, 1).expect("uncapped");
    assert_eq!(backend.scans.load(Ordering::SeqCst), 2);
}

#[test]
fn release_pool_matches_sequential_trials_on_histogram_sessions() {
    let full = Histogram::from_counts(vec![300.0, 12.0, 0.0, 77.0, 4096.0]);
    let ns = Histogram::from_counts(vec![290.0, 0.0, 0.0, 60.0, 4000.0]);
    let mechanisms = full_pool(0.5);
    let pool: Vec<&dyn HistogramMechanism> = mechanisms.iter().map(|m| m.as_ref()).collect();

    let batched = histogram_session(full.clone(), ns.clone()).seed(5).build().unwrap();
    let releases = batched.release_pool(&SessionQuery::bound(), &pool, 4).unwrap();

    let sequential = histogram_session(full, ns).seed(5).build().unwrap();
    for (mechanism, release) in pool.iter().zip(&releases) {
        let expected = sequential.release_trials(&SessionQuery::bound(), mechanism, 4).unwrap();
        assert_eq!(release.estimates, expected, "{}", release.mechanism);
    }
    assert_eq!(batched.total_spent(), sequential.total_spent());
    assert_eq!(batched.audit_ledger(), sequential.audit_ledger());
    assert_eq!(batched.audit_records(), sequential.audit_records());
}

/// A histogram pair of `bins` bins with empty bins, fully sensitive bins
/// and partly sensitive bins, deterministic in `bins`.
fn skewed_pair(bins: usize) -> (Histogram, Histogram) {
    let full: Vec<f64> =
        (0..bins).map(|i| if i % 13 == 0 { 0.0 } else { ((i * 7919) % 997) as f64 }).collect();
    let ns: Vec<f64> = full
        .iter()
        .enumerate()
        .map(|(i, &c)| if i % 5 == 0 { 0.0 } else { (c * 0.8).floor() })
        .collect();
    (Histogram::from_counts(full), Histogram::from_counts(ns))
}

/// The pool's helper threads keep their per-thread release scratch (DAWA
/// arenas, recipe flags) from one batch and session to the next. A large
/// batch, a small one and the large one again must each still reproduce the
/// scalar oracle bitwise, so no buffer left behind by an earlier release can
/// leak into a later one.
#[test]
fn release_pool_matches_the_serial_oracle_across_reused_scratch() {
    let mechanisms = full_pool(0.5);
    let pool: Vec<&dyn HistogramMechanism> = mechanisms.iter().map(|m| m.as_ref()).collect();
    let session = |bins: usize, seed: u64| {
        let (full, ns) = skewed_pair(bins);
        histogram_session(full, ns).seed(seed).build().expect("valid pair")
    };
    let (large, large_twin) = (session(4096, 21), session(4096, 21));
    let (small, small_twin) = (session(64, 22), session(64, 22));

    for (batched, twin) in [(&large, &large_twin), (&small, &small_twin), (&large, &large_twin)] {
        let releases = batched.release_pool(&SessionQuery::bound(), &pool, 2).expect("uncapped");
        for (mechanism, release) in pool.iter().zip(&releases) {
            let expected = twin
                .release_trials_serial(&SessionQuery::bound(), *mechanism, 2)
                .expect("uncapped");
            assert_eq!(release.estimates.len(), expected.len());
            for (trial, (got, want)) in release.estimates.iter().zip(&expected).enumerate() {
                let bits =
                    |h: &Histogram| h.counts().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(got),
                    bits(want),
                    "{} trial {trial} drifted from the serial oracle at {} bins",
                    release.mechanism,
                    got.len()
                );
            }
        }
    }
}
