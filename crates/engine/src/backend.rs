//! Pluggable scan backends: how a session turns *data + policy + query* into
//! a histogram pair.
//!
//! A [`Backend`] owns the data a record-level session releases against and
//! answers one question — [`Backend::scan`]: given a [`QueryPlan`] (bin
//! assignment + policy), produce the full histogram `x` and its non-sensitive
//! sub-histogram `x_ns` (Section 5.1 of the paper). Everything else the
//! session does (budget, audit, sampling) is backend-agnostic, so every
//! future store — sharded, streaming, SQL — plugs in by implementing this one
//! trait instead of re-threading closures through the session.
//!
//! Two implementations ship today:
//!
//! * [`RowBackend`] — the reference row-at-a-time path over any
//!   [`Database<R>`]. It evaluates the boxed bin closure and (on first use
//!   per policy) the virtual policy per record, and caches the resulting
//!   sensitive/non-sensitive partition per `(policy identity, epoch version)`
//!   so repeated releases under one policy never re-classify.
//! * [`ColumnarBackend`] — the vectorized path over a
//!   [`ColumnarFrame`]: compiled policies
//!   ([`osdp_core::frame::CompiledPolicy`]) evaluate column-at-a-time into a
//!   [`PolicyMask`] partition, cached the same way, and a compiled bin spec
//!   ([`osdp_core::BinSpec::count_pair`]) bins and counts every row in one
//!   fused pass over the grouped column. Weighted frames let pre-aggregated
//!   histogram pairs ride the identical code path.
//!   Policies or queries without a compiled form fall back to the retained
//!   rows (when constructed via [`ColumnarBackend::from_database`]), so the
//!   backend never answers differently from [`RowBackend`] — only faster.
//!
//! The two backends are **bit-for-bit equivalent** on any record database:
//! same full histogram, same non-sensitive histogram, same dropped count
//! (property-tested in `tests/backend_parity.rs`).

use osdp_core::error::{OsdpError, Result};
use osdp_core::frame::{BinSpec, ColumnarFrame, PolicyMask};
use osdp_core::policy::Policy;
use osdp_core::{Database, Histogram, Record};
use osdp_mechanisms::HistogramTask;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The result of one backend scan: the paper's `(x, x_ns)` pair plus the
/// record mass the query dropped (bin closure returned `None` or an
/// out-of-range bin).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramPair {
    /// The full histogram `x`.
    pub full: Histogram,
    /// The non-sensitive sub-histogram `x_ns` (bin-wise ≤ `full`).
    pub non_sensitive: Histogram,
    /// Total weight of records the query did not bin.
    pub dropped: f64,
}

impl HistogramPair {
    /// Converts the pair into the mechanism-facing [`HistogramTask`],
    /// revalidating the domination invariant.
    pub fn into_task(self) -> Result<HistogramTask> {
        HistogramTask::new(self.full, self.non_sensitive)
    }
}

/// A compiled query: everything a backend needs to evaluate one histogram
/// release. Sessions assemble plans from a
/// [`crate::SessionQuery`] plus the effective policy; the `Arc`s make the
/// plan cheap to build per release.
pub struct QueryPlan<R = Record> {
    /// Audit-log label of the query.
    pub label: String,
    /// Number of bins in the query domain.
    pub bins: usize,
    /// Row-at-a-time bin assignment (the reference semantics).
    #[allow(clippy::type_complexity)]
    pub bin_of: Arc<dyn Fn(&R) -> Option<usize> + Send + Sync>,
    /// The compiled bin assignment, when the query carries one.
    pub bin_spec: Option<BinSpec>,
    /// The policy the scan classifies under.
    pub policy: Arc<dyn Policy<R>>,
    /// Label of the policy (audit-log field and error messages).
    pub policy_label: String,
    /// The policy epoch version the release was stamped with (cache key
    /// component; 0 for sessions that never transition).
    pub policy_version: u64,
}

impl<R> std::fmt::Debug for QueryPlan<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryPlan")
            .field("label", &self.label)
            .field("bins", &self.bins)
            .field("bin_spec", &self.bin_spec)
            .field("policy_label", &self.policy_label)
            .finish()
    }
}

/// A pluggable data store a record-level session scans against.
pub trait Backend<R = Record>: Send + Sync {
    /// Short, stable backend name (bench labels, debug output).
    fn name(&self) -> &'static str;

    /// Number of records (rows or total weight rounded down for weighted
    /// frames is **not** implied — this is the row count).
    fn len(&self) -> usize;

    /// Whether the backend holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluates the plan: bins every record into the full histogram and
    /// every policy-cleared record into the non-sensitive sub-histogram.
    fn scan(&self, plan: &QueryPlan<R>) -> Result<HistogramPair>;

    /// Row access for record-level releases (`OsdpRR`'s true-sample front
    /// door), when this backend retains the records. Frame-only backends
    /// return `None` and can answer histogram queries only.
    fn database(&self) -> Option<&Database<R>> {
        None
    }

    /// Drops any cached policy partitions. Called by the session when a
    /// policy epoch transition lands, so post-transition scans re-classify
    /// under the new epoch instead of hitting a pre-transition mask.
    /// Pure-cache semantics: in-flight scans finish with the masks they
    /// already hold, later scans recompute. Backends without a partition
    /// cache need not override.
    fn invalidate_partitions(&self) {}
}

/// Partition-cache key: the policy's identity (two different policies
/// registered under one label must not share a cached partition; the label
/// never reaches the classification) and the epoch version (a transition
/// that re-installs a policy at a recycled allocation address must not
/// reach the pre-transition partition).
type PartitionKey = (usize, u64);

/// A partition's derivation slot: `None` until the first successful
/// classification fills it. Racing scans of one key serialize on the
/// slot's own lock, so they classify once.
type PartitionSlot = Arc<Mutex<Option<Arc<PolicyMask>>>>;

/// Shared partition cache: policy identity and epoch version → the slot of
/// its non-sensitive mask, so repeated releases under one policy skip
/// re-classification. Each entry **retains the policy `Arc`** whose address
/// keyed it: the allocation can never be reused while the entry lives, so an
/// address collision always means the same policy object (no ABA through
/// dropped policies).
type PartitionCache<R> = Mutex<HashMap<PartitionKey, (Arc<dyn Policy<R>>, PartitionSlot)>>;

/// Cap on cached partitions per backend. A session scans under one policy
/// per epoch, and a transition invalidates the cache; a caller scanning a
/// shared backend with a fresh policy `Arc` per plan would otherwise grow
/// the cache — and the masks it pins — without bound. When the cap is hit the cache is
/// cleared (it is a pure cache: results are unaffected, only recomputed).
const PARTITION_CACHE_CAP: usize = 64;

/// Looks up the plan's partition in `cache`, computing it with `classify` on
/// a miss. The map lock is held only to find or insert the key's slot; the
/// classification runs under the slot's lock, so racing misses of one key
/// classify exactly once while other keys proceed. A failed classification
/// leaves the slot empty for the next caller to retry.
fn cached_partition<R>(
    cache: &PartitionCache<R>,
    plan: &QueryPlan<R>,
    classify: impl FnOnce() -> Result<PolicyMask>,
) -> Result<Arc<PolicyMask>> {
    let key = (Arc::as_ptr(&plan.policy) as *const () as usize, plan.policy_version);
    let slot = {
        let mut cache = cache.lock();
        if cache.len() >= PARTITION_CACHE_CAP && !cache.contains_key(&key) {
            // In-flight classifications keep their slot and finish
            // unaffected; later callers recompute.
            cache.clear();
        }
        let (policy, slot) = cache
            .entry(key)
            .or_insert_with(|| (Arc::clone(&plan.policy), PartitionSlot::default()));
        debug_assert!(Arc::ptr_eq(policy, &plan.policy), "pinned allocation cannot be reused");
        Arc::clone(slot)
    };
    let mut slot = slot.lock();
    if let Some(mask) = &*slot {
        return Ok(Arc::clone(mask));
    }
    let mask = Arc::new(classify()?);
    *slot = Some(Arc::clone(&mask));
    Ok(mask)
}

/// The shared row-at-a-time scan loop: bins every record through the boxed
/// closure, splitting by the precomputed partition mask. Used by
/// [`RowBackend`] and by [`ColumnarBackend`]'s retained-row fallback, so the
/// two can never drift in drop accounting.
fn scan_rows<R>(db: &Database<R>, mask: &PolicyMask, plan: &QueryPlan<R>) -> HistogramPair {
    let mut full = Histogram::zeros(plan.bins);
    let mut non_sensitive = Histogram::zeros(plan.bins);
    let mut dropped = 0.0;
    for (i, record) in db.iter().enumerate() {
        match (plan.bin_of)(record) {
            Some(bin) if bin < plan.bins => {
                full.increment(bin, 1.0);
                if mask.get(i) {
                    non_sensitive.increment(bin, 1.0);
                }
            }
            _ => dropped += 1.0,
        }
    }
    HistogramPair { full, non_sensitive, dropped }
}

// ---------------------------------------------------------------------------
// RowBackend
// ---------------------------------------------------------------------------

/// The reference row-at-a-time backend over any [`Database<R>`].
///
/// Kept for record types without a columnar projection (trajectories, plain
/// codes) and as the semantics oracle the columnar path is tested against.
pub struct RowBackend<R> {
    db: Database<R>,
    partitions: PartitionCache<R>,
}

impl<R> RowBackend<R> {
    /// Wraps a database.
    pub fn new(db: Database<R>) -> Self {
        Self { db, partitions: Mutex::new(HashMap::new()) }
    }
}

impl<R> std::fmt::Debug for RowBackend<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowBackend").field("records", &self.db.len()).finish()
    }
}

impl<R: Send + Sync> Backend<R> for RowBackend<R> {
    fn name(&self) -> &'static str {
        "row"
    }

    fn len(&self) -> usize {
        self.db.len()
    }

    fn scan(&self, plan: &QueryPlan<R>) -> Result<HistogramPair> {
        let mask =
            cached_partition(&self.partitions, plan, || Ok(self.db.policy_mask(&*plan.policy)))?;
        Ok(scan_rows(&self.db, &mask, plan))
    }

    fn database(&self) -> Option<&Database<R>> {
        Some(&self.db)
    }

    fn invalidate_partitions(&self) {
        self.partitions.lock().clear();
    }
}

// ---------------------------------------------------------------------------
// ColumnarBackend
// ---------------------------------------------------------------------------

/// The vectorized backend over a [`ColumnarFrame`].
///
/// Constructed from a record database (retaining the rows, so opaque
/// closures still work) or directly from a frame (loaders that never
/// materialise records; compiled policies and bin specs only).
pub struct ColumnarBackend {
    frame: ColumnarFrame,
    rows: Option<Database<Record>>,
    partitions: PartitionCache<Record>,
}

impl ColumnarBackend {
    /// Snapshots a record database into columns, retaining the rows as the
    /// fallback for policies and queries without a compiled form.
    pub fn from_database(db: Database<Record>) -> Self {
        let frame = ColumnarFrame::from_database(&db);
        Self { frame, rows: Some(db), partitions: Mutex::new(HashMap::new()) }
    }

    /// Wraps a pre-built frame (possibly weighted). Without retained rows,
    /// every policy must compile ([`Policy::compiled`]) and every query must
    /// carry a [`BinSpec`]; otherwise the scan fails instead of silently
    /// degrading.
    pub fn from_frame(frame: ColumnarFrame) -> Self {
        Self { frame, rows: None, partitions: Mutex::new(HashMap::new()) }
    }

    /// The columnar snapshot this backend scans.
    pub fn frame(&self) -> &ColumnarFrame {
        &self.frame
    }

    /// Classifies the frame under the plan's policy: compiled when the
    /// policy has a vectorized form, from the retained rows otherwise.
    fn classify(&self, plan: &QueryPlan<Record>) -> Result<PolicyMask> {
        if let Some(compiled) = plan.policy.compiled() {
            Ok(compiled.evaluate(&self.frame))
        } else if let Some(rows) = &self.rows {
            Ok(rows.policy_mask(&*plan.policy))
        } else {
            Err(OsdpError::InvalidInput(format!(
                "policy {:?} has no vectorized compilation and this frame-backed \
                 columnar backend retains no rows to fall back on",
                plan.policy_label
            )))
        }
    }
}

impl std::fmt::Debug for ColumnarBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnarBackend")
            .field("rows", &self.frame.len())
            .field("columns", &self.frame.columns().len())
            .field("weighted", &self.frame.weights().is_some())
            .field("row_fallback", &self.rows.is_some())
            .finish()
    }
}

impl Backend<Record> for ColumnarBackend {
    fn name(&self) -> &'static str {
        "columnar"
    }

    fn len(&self) -> usize {
        self.frame.len()
    }

    fn scan(&self, plan: &QueryPlan<Record>) -> Result<HistogramPair> {
        let mask = cached_partition(&self.partitions, plan, || self.classify(plan))?;
        if let Some(spec) = &plan.bin_spec {
            // One fused pass over the grouped column bins and counts every
            // row; no per-record closure calls at all.
            let (full, non_sensitive, dropped) = spec.count_pair(&self.frame, &mask, plan.bins)?;
            Ok(HistogramPair { full, non_sensitive, dropped })
        } else if let Some(rows) = &self.rows {
            // Closure-only query: bin from the retained rows through the
            // exact loop RowBackend runs (weights are only ever attached to
            // loader-built frames, which always carry compiled bin specs).
            debug_assert!(self.frame.weights().is_none());
            Ok(scan_rows(rows, &mask, plan))
        } else {
            Err(OsdpError::InvalidInput(format!(
                "query {:?} has no compiled bin spec and this frame-backed columnar \
                 backend retains no rows to fall back on",
                plan.label
            )))
        }
    }

    fn database(&self) -> Option<&Database<Record>> {
        self.rows.as_ref()
    }

    fn invalidate_partitions(&self) {
        self.partitions.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osdp_core::policy::{AttributePolicy, ClosurePolicy};
    use osdp_core::Value;

    fn ages_db(n: i64) -> Database<Record> {
        (0..n).map(|i| Record::builder().field("age", Value::Int(i % 60)).build()).collect()
    }

    fn minors_plan(policy: Arc<dyn Policy<Record>>, with_spec: bool) -> QueryPlan<Record> {
        let spec = BinSpec::IntLinear { field: "age".into(), origin: 0, width: 10 };
        let closure_spec = spec.clone();
        QueryPlan {
            label: "decades".into(),
            bins: 6,
            bin_of: Arc::new(move |r: &Record| closure_spec.bin_of_record(r)),
            bin_spec: with_spec.then_some(spec),
            policy,
            policy_label: "minors".into(),
            policy_version: 0,
        }
    }

    fn minors_policy() -> Arc<dyn Policy<Record>> {
        Arc::new(AttributePolicy::int_at_most("age", 17))
    }

    #[test]
    fn row_and_columnar_scans_agree() {
        let db = ages_db(600);
        let row = RowBackend::new(db.clone());
        let col = ColumnarBackend::from_database(db);
        let plan = minors_plan(minors_policy(), true);
        let a = row.scan(&plan).unwrap();
        let b = col.scan(&plan).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.full.total(), 600.0);
        assert_eq!(a.dropped, 0.0);
        // 18 of every 60 ages are minor-sensitive.
        assert_eq!(a.non_sensitive.total(), 600.0 - 180.0);
        assert_eq!(row.name(), "row");
        assert_eq!(col.name(), "columnar");
        assert_eq!(row.len(), col.len());
        assert!(!row.is_empty());
    }

    #[test]
    fn partition_cache_is_keyed_by_policy_identity() {
        let db = ages_db(100);
        let backend = ColumnarBackend::from_database(db);
        let policy = minors_policy();
        let plan = minors_plan(Arc::clone(&policy), true);
        let first = backend.scan(&plan).unwrap();
        // Re-scan: served from the cached partition, identical output.
        assert_eq!(backend.scan(&plan).unwrap(), first);
        // A different policy under a *different* label must not collide.
        let seniors: Arc<dyn Policy<Record>> =
            Arc::new(AttributePolicy::sensitive_when("age", |v| v.as_int().unwrap_or(0) >= 40));
        let mut other = minors_plan(seniors, true);
        other.policy_label = "seniors".into();
        let second = backend.scan(&other).unwrap();
        assert_ne!(first.non_sensitive, second.non_sensitive);
        // And the first plan still answers from its own cache entry.
        assert_eq!(backend.scan(&plan).unwrap(), first);
    }

    #[test]
    fn same_label_different_policy_does_not_share_a_partition() {
        let db = ages_db(100);
        let backend = RowBackend::new(db);
        let plan_a = minors_plan(minors_policy(), false);
        let adults: Arc<dyn Policy<Record>> = Arc::new(AttributePolicy::int_at_most("age", 30));
        let mut plan_b = minors_plan(adults, false);
        plan_b.policy_label = "minors".into(); // deliberately the same label
        let a = backend.scan(&plan_a).unwrap();
        let b = backend.scan(&plan_b).unwrap();
        assert_ne!(a.non_sensitive, b.non_sensitive, "identity keeps the cache honest");
    }

    #[test]
    fn columnar_falls_back_to_rows_for_opaque_policies_and_closure_queries() {
        let db = ages_db(200);
        let row = RowBackend::new(db.clone());
        let col = ColumnarBackend::from_database(db);
        let opaque: Arc<dyn Policy<Record>> =
            Arc::new(ClosurePolicy::new("opaque", |r: &Record| {
                r.int("age").map(|a| a % 7 == 0).unwrap_or(true)
            }));
        // No spec AND no compiled policy: full row fallback.
        let plan = minors_plan(opaque, false);
        assert_eq!(row.scan(&plan).unwrap(), col.scan(&plan).unwrap());
    }

    #[test]
    fn frame_only_backends_require_compiled_forms() {
        let frame = ColumnarFrame::builder(3).column_int("age", vec![5, 25, 45]).build().unwrap();
        let backend = ColumnarBackend::from_frame(frame);
        assert!(backend.database().is_none());
        // Compiled policy + spec: fine.
        let plan = minors_plan(minors_policy(), true);
        let pair = backend.scan(&plan).unwrap();
        assert_eq!(pair.full.total(), 3.0);
        assert_eq!(pair.non_sensitive.total(), 2.0);
        // Opaque policy: refused.
        let opaque: Arc<dyn Policy<Record>> =
            Arc::new(ClosurePolicy::new("opaque", |_: &Record| true));
        assert!(backend.scan(&minors_plan(opaque, true)).is_err());
        // Closure-only query: refused.
        assert!(backend.scan(&minors_plan(minors_policy(), false)).is_err());
    }

    #[test]
    fn weighted_frames_scan_with_multiplicities() {
        let frame = ColumnarFrame::builder(3)
            .column_categorical("bin", vec![0, 1, 1])
            .column_bool("non_sensitive", vec![true, false, true])
            .weights(vec![4.0, 2.0, 3.0])
            .build()
            .unwrap();
        let backend = ColumnarBackend::from_frame(frame);
        let spec = BinSpec::Categorical { field: "bin".into() };
        let closure_spec = spec.clone();
        let plan = QueryPlan {
            label: "pair".into(),
            bins: 2,
            bin_of: Arc::new(move |r: &Record| closure_spec.bin_of_record(r)),
            bin_spec: Some(spec),
            policy: Arc::new(AttributePolicy::opt_in("non_sensitive")),
            policy_label: "P".into(),
            policy_version: 0,
        };
        let pair = backend.scan(&plan).unwrap();
        assert_eq!(pair.full.counts(), &[4.0, 5.0]);
        assert_eq!(pair.non_sensitive.counts(), &[4.0, 3.0]);
        assert_eq!(pair.dropped, 0.0);
        pair.into_task().unwrap();
    }

    #[test]
    fn partition_cache_stays_bounded_under_fresh_policy_arcs() {
        let db = ages_db(50);
        let backend = RowBackend::new(db.clone());
        let reference = backend.scan(&minors_plan(minors_policy(), false)).unwrap();
        // Mint far more distinct policy Arcs than the cap: results stay
        // correct and the cache never exceeds the cap.
        for _ in 0..(3 * PARTITION_CACHE_CAP) {
            let pair = backend.scan(&minors_plan(minors_policy(), false)).unwrap();
            assert_eq!(pair, reference);
            assert!(backend.partitions.lock().len() <= PARTITION_CACHE_CAP);
        }
    }

    #[test]
    fn epoch_versions_partition_the_cache_and_invalidate_cleanly() {
        let db = ages_db(100);
        let backend = ColumnarBackend::from_database(db);
        let policy = minors_policy();
        let v0 = minors_plan(Arc::clone(&policy), true);
        let mut v1 = minors_plan(policy, true);
        v1.policy_version = 1;
        let a = backend.scan(&v0).unwrap();
        let b = backend.scan(&v1).unwrap();
        assert_eq!(a, b, "same policy object answers identically across versions");
        assert_eq!(backend.partitions.lock().len(), 2, "versions get distinct entries");
        backend.invalidate_partitions();
        assert_eq!(backend.partitions.lock().len(), 0);
        assert_eq!(backend.scan(&v1).unwrap(), a, "re-derived after invalidation");
    }

    #[test]
    fn dropped_mass_is_reported() {
        let db = ages_db(100); // ages 0..60
        let row = RowBackend::new(db.clone());
        let col = ColumnarBackend::from_database(db);
        let spec = BinSpec::IntLinear { field: "age".into(), origin: 0, width: 10 };
        let closure_spec = spec.clone();
        let plan = QueryPlan {
            label: "three-decades".into(),
            bins: 3, // ages >= 30 fall outside
            bin_of: Arc::new(move |r: &Record| closure_spec.bin_of_record(r)),
            bin_spec: Some(spec),
            policy: minors_policy(),
            policy_label: "minors".into(),
            policy_version: 0,
        };
        let a = row.scan(&plan).unwrap();
        let b = col.scan(&plan).unwrap();
        assert_eq!(a, b);
        assert!(a.dropped > 0.0);
        assert_eq!(a.full.total() + a.dropped, 100.0);
    }
}
