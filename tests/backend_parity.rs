//! Property tests: the columnar backend is an exact drop-in for the row
//! backend.
//!
//! For arbitrary record databases (random field values, random missing
//! fields), arbitrary query domains and arbitrary attribute policies, the
//! `HistogramPair` produced by `ColumnarBackend` must be **bitwise
//! identical** to `RowBackend`'s — full histogram, non-sensitive
//! sub-histogram and dropped mass — and the per-policy partition cache must
//! never change results across repeated releases.

use osdp::prelude::*;
use osdp_core::frame::Column;
use osdp_engine::QueryPlan;
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a database of records with an `age` int field (sometimes missing),
/// a `zone` categorical field and an `opt` bool field (sometimes missing).
fn build_db(rows: &[(i64, u32, bool, u8)]) -> Database<Record> {
    rows.iter()
        .map(|&(age, zone, opt, missing)| {
            let mut b = Record::builder();
            // `missing` bits 0/1 knock out the age/opt fields.
            if missing & 1 == 0 {
                b = b.field("age", Value::Int(age));
            }
            if missing & 2 == 0 {
                b = b.field("opt", Value::Bool(opt));
            }
            b.field("zone", Value::Categorical(zone)).build()
        })
        .collect()
}

fn plan_for(
    query: &SessionQuery<Record>,
    policy: Arc<dyn Policy<Record>>,
    policy_label: &str,
) -> QueryPlan<Record> {
    let SessionQuery::CountBy { label, bins, bin_of, spec } = query.clone() else {
        panic!("parity plans are CountBy queries");
    };
    QueryPlan {
        label,
        bins,
        bin_of,
        bin_spec: spec,
        policy,
        policy_label: policy_label.to_string(),
        policy_version: 0,
    }
}

fn assert_backends_agree(db: &Database<Record>, plan: &QueryPlan<Record>) {
    let row = RowBackend::new(db.clone());
    let col = ColumnarBackend::from_database(db.clone());
    let a = row.scan(plan).expect("row scan");
    let b = col.scan(plan).expect("columnar scan");
    assert_eq!(a, b, "row and columnar scans must be bitwise identical");
    // Conservation: every record is either binned or dropped.
    assert_eq!(a.full.total() + a.dropped, db.len() as f64);
    // Cache stability: scanning again (cache hit) changes nothing, on either
    // backend.
    assert_eq!(row.scan(plan).expect("row rescan"), a);
    assert_eq!(col.scan(plan).expect("columnar rescan"), b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn columnar_matches_row_for_int_threshold_policies(
        rows in prop::collection::vec(((-40i64..120), (0u32..16), (0u64..2).prop_map(|b| b == 1), (0u8..4)), 0..80),
        threshold in -10i64..60,
        bins in 1usize..12,
        width in 1i64..25,
        origin in -20i64..20,
    ) {
        let db = build_db(&rows);
        let policy: Arc<dyn Policy<Record>> =
            Arc::new(AttributePolicy::int_at_most("age", threshold));
        let query = SessionQuery::count_by_int_linear("by-age", "age", origin, width, bins);
        assert_backends_agree(&db, &plan_for(&query, policy, "P-age"));
    }

    #[test]
    fn columnar_matches_row_for_categorical_domains(
        rows in prop::collection::vec(((-40i64..120), (0u32..32), (0u64..2).prop_map(|b| b == 1), (0u8..4)), 0..80),
        bins in 1usize..40,
    ) {
        let db = build_db(&rows);
        // Opt-in policy with missing fields failing closed (the default).
        let policy: Arc<dyn Policy<Record>> = Arc::new(AttributePolicy::opt_in("opt"));
        let query = SessionQuery::count_by_categorical("by-zone", "zone", bins);
        assert_backends_agree(&db, &plan_for(&query, policy, "P-opt"));
    }

    #[test]
    fn columnar_matches_row_for_opaque_policies_and_closure_queries(
        rows in prop::collection::vec(((-40i64..120), (0u32..16), (0u64..2).prop_map(|b| b == 1), (0u8..4)), 0..60),
        modulus in 2i64..9,
        bins in 1usize..10,
    ) {
        let db = build_db(&rows);
        // An opaque closure policy: no compiled form, columnar falls back to
        // its retained rows — results must still match exactly.
        let policy: Arc<dyn Policy<Record>> = Arc::new(ClosurePolicy::new(
            "opaque",
            move |r: &Record| r.int("age").map(|a| a.rem_euclid(modulus) == 0).unwrap_or(true),
        ));
        let query = SessionQuery::count_by("by-zone-closure", bins, move |r: &Record| {
            r.categorical("zone").ok().map(|z| z as usize)
        });
        assert_backends_agree(&db, &plan_for(&query, policy, "P-opaque"));
    }

    #[test]
    fn partition_cache_never_changes_results_across_policies(
        rows in prop::collection::vec(((-40i64..120), (0u32..16), (0u64..2).prop_map(|b| b == 1), (0u8..4)), 0..60),
        t1 in -10i64..40,
        t2 in -10i64..40,
        bins in 1usize..10,
    ) {
        // Interleave scans under two policies on ONE backend instance: each
        // cache entry must keep answering for its own policy.
        let db = build_db(&rows);
        let col = ColumnarBackend::from_database(db.clone());
        let row = RowBackend::new(db);
        let p1: Arc<dyn Policy<Record>> = Arc::new(AttributePolicy::int_at_most("age", t1));
        let p2: Arc<dyn Policy<Record>> = Arc::new(AttributePolicy::int_at_most("age", t2));
        let query = SessionQuery::count_by_int_linear("by-age", "age", 0, 10, bins);
        let plan1 = plan_for(&query, p1, "P1");
        let plan2 = plan_for(&query, p2, "P2");
        let first1 = col.scan(&plan1).unwrap();
        let first2 = col.scan(&plan2).unwrap();
        for _ in 0..3 {
            prop_assert_eq!(&col.scan(&plan1).unwrap(), &first1);
            prop_assert_eq!(&col.scan(&plan2).unwrap(), &first2);
        }
        prop_assert_eq!(&row.scan(&plan1).unwrap(), &first1);
        prop_assert_eq!(&row.scan(&plan2).unwrap(), &first2);
    }
}

/// Bin layouts `(width, bins)` on both sides of the division-free binning
/// limit `bins·width ≤ 2³²`.
const SPANS: [(i64, usize); 8] = [
    (1, 7),
    (10, 9),
    (3, 5),
    // bins·width = u32::MAX and = 2³²: the division-free path.
    (65_537, 65_535),
    (65_536, 65_536),
    // bins·width just above 2³², and widths of at least 2³²: plain division.
    (65_537, 65_536),
    (1 << 32, 3),
    (i64::MAX, 2),
];

/// Origins from the middle and both ends of `i64`.
const ORIGINS: [i64; 6] = [0, -17, 1_000, -(1 << 40), i64::MIN, i64::MAX];

/// A generated row value: `(kind, edge, delta, raw, extra)`. Kinds 0 and 1
/// land within `delta` of bin edge `edge`; kind 2 is any `i64`; kind 3 is an
/// extreme of `i64`. `extra` drives missing fields, weights and flags.
type RowPick = (u8, u32, i8, i64, u32);

fn row_picks() -> impl Strategy<Value = Vec<RowPick>> {
    // 65–300 rows: several 64-row mask words and a ragged tail.
    prop::collection::vec(
        ((0u8..4), (0u32..u32::MAX), (-2i8..3), (i64::MIN..i64::MAX), (0u32..64)),
        65..300,
    )
}

fn value_of((kind, edge, delta, raw, _): RowPick, origin: i64, width: i64, bins: usize) -> i64 {
    match kind {
        0 | 1 => {
            let edge = i128::from(edge % (bins as u32 + 2));
            let v = i128::from(origin) + edge * i128::from(width) + i128::from(delta);
            v.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64
        }
        2 => raw,
        _ => [i64::MIN, i64::MAX, 0, -1][edge as usize % 4],
    }
}

/// The row-at-a-time reference over a frame: rebuilds each row as a
/// record, classifies and bins it with the reference semantics, and adds
/// its weight in row order.
fn reference_pair(
    frame: &ColumnarFrame,
    policy: &dyn Policy<Record>,
    spec: &BinSpec,
    bins: usize,
) -> HistogramPair {
    let mut full = Histogram::zeros(bins);
    let mut non_sensitive = Histogram::zeros(bins);
    let mut dropped = 0.0;
    for i in 0..frame.len() {
        let record = frame
            .columns()
            .iter()
            .fold(Record::builder(), |b, c| match c.value_at(i) {
                Some(v) => b.field(c.name(), v),
                None => b,
            })
            .build();
        let weight = frame.weight(i);
        match spec.bin_of_record(&record) {
            Some(bin) if bin < bins => {
                full.increment(bin, weight);
                if policy.is_non_sensitive(&record) {
                    non_sensitive.increment(bin, weight);
                }
            }
            _ => dropped += weight,
        }
    }
    HistogramPair { full, non_sensitive, dropped }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn columnar_matches_row_across_mask_words_extreme_values_and_spans(
        picks in row_picks(),
        span in 0..SPANS.len(),
        origin in 0..ORIGINS.len(),
    ) {
        let ((width, bins), origin) = (SPANS[span], ORIGINS[origin]);
        let rows: Vec<_> = picks
            .iter()
            .map(|&pick| {
                let extra = pick.4;
                (value_of(pick, origin, width, bins), extra % 16, extra.is_multiple_of(3), (extra % 4) as u8)
            })
            .collect();
        let db = build_db(&rows);
        // A threshold taken from the data keeps both sides of the split
        // populated.
        let threshold = rows[0].0;
        let policy: Arc<dyn Policy<Record>> =
            Arc::new(AttributePolicy::int_at_most("age", threshold));
        let query = SessionQuery::count_by_int_linear("by-age", "age", origin, width, bins);
        assert_backends_agree(&db, &plan_for(&query, policy, "P-age"));
    }

    #[test]
    fn fused_scan_matches_the_row_reference_on_weighted_mask64_and_partial_columns(
        picks in row_picks(),
        span in 0..SPANS.len(),
        origin in 0..ORIGINS.len(),
        shape in 0u8..24,
    ) {
        let ((width, bins), origin) = (SPANS[span], ORIGINS[origin]);
        let values: Vec<i64> = picks.iter().map(|&p| value_of(p, origin, width, bins)).collect();
        // shape % 3: Int, Mask64 or Categorical column; bit 3: fractional
        // weights; bit 4: rows missing the field, which then classify as
        // non-sensitive.
        let (weighted, partial) = (shape & 8 != 0, shape & 16 != 0);
        let column = match shape % 3 {
            0 => Column::Int(values.clone()),
            1 => Column::Mask64(values.iter().map(|&v| v as u64).collect()),
            _ => Column::Categorical(values.iter().map(|&v| v as u32 % (bins as u32 + 3)).collect()),
        };
        let n = picks.len();
        let mut builder = if partial {
            let present = PolicyMask::from_fn(n, |i| !picks[i].4.is_multiple_of(5));
            ColumnarFrame::builder(n).column_with_presence("v", column, present)
        } else {
            ColumnarFrame::builder(n).column("v", column)
        };
        if weighted {
            builder = builder.weights(picks.iter().map(|p| f64::from(p.4) * 0.37).collect());
        }
        let frame = builder.build().unwrap();
        let base = match shape % 3 {
            1 => AttributePolicy::mask_intersects("v", values[0] as u64 | 1),
            _ => AttributePolicy::int_at_most("v", values[0]),
        };
        let policy: Arc<dyn Policy<Record>> = Arc::new(base.with_missing_sensitive(!partial));
        let query = match shape % 3 {
            2 => SessionQuery::count_by_categorical("by-v", "v", bins),
            _ => SessionQuery::count_by_int_linear("by-v", "v", origin, width, bins),
        };
        let plan = plan_for(&query, Arc::clone(&policy), "P-v");
        let spec = plan.bin_spec.clone().unwrap();
        let backend = ColumnarBackend::from_frame(frame);
        let expected = reference_pair(backend.frame(), policy.as_ref(), &spec, bins);
        prop_assert_eq!(backend.scan(&plan).unwrap(), expected);
    }
}
