//! Shared, lazily-built artifacts over the engine's immutable dataset.
//!
//! Three families, all built at most once per engine and shared (via `Arc`)
//! by every worker:
//!
//! * **per-class neighbor indexes** — a KD-tree per `(ℓp, class)` and a
//!   bit-packed Hamming index per class. The optimistic rule of §2 reduces to
//!   comparing the `maj`-th order statistics of the per-class distance
//!   multisets, so classification needs exactly one `maj`-NN probe per class;
//! * **lazy Prop 1 region views** — a [`LazyRegions`] per `k`, feeding the
//!   `*_lazy` fast paths of the ℓ2 abductive and counterfactual engines.
//!   Construction is `O(n)`; regions are enumerated nearest-anchor-first per
//!   query and memoized (bounded) as they are visited, which is what lets
//!   the engine serve k ≥ 5 where the eager decomposition is infeasible;
//! * the **boolean view** of a 0/1 continuous dataset, owned by
//!   [`EngineData`] itself.
//!
//! Each family's map mutex is held only long enough to fetch (or create) the
//! per-key cell; the build itself runs under the cell's `OnceLock`, so
//! concurrent requesters of the *same* artifact block and share one build
//! while distinct artifacts (e.g. region views for k = 1 and k = 3) build
//! in parallel.

use knn_core::regions::{LazyRegions, RegionCounters};
use knn_index::{HammingIndex, KdTree};
use knn_space::{BitVec, BooleanDataset, ContinuousDataset, Label, LpMetric, OddK};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Lifetime artifact-build accounting, shared (via `Arc`) across every
/// [`ArtifactStore::carry_over`] generation of one engine so the totals
/// survive mutations. Plain relaxed atomics — always on; the cost is paid
/// only by the worker that actually runs a build.
#[derive(Debug, Default)]
pub struct StoreMetrics {
    build_nanos: AtomicU64,
    built: AtomicU64,
    carried: AtomicU64,
}

impl StoreMetrics {
    /// Total nanoseconds spent inside artifact builders so far. The
    /// engine's per-query artifact phase is the delta of this across one
    /// execution (attribution is approximate when builds race, exact when
    /// one query pays for its own build — the common case).
    pub fn build_nanos(&self) -> u64 {
        self.build_nanos.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> StoreMetricsSnapshot {
        StoreMetricsSnapshot {
            build_us: self.build_nanos.load(Ordering::Relaxed) / 1_000,
            built: self.built.load(Ordering::Relaxed),
            carried: self.carried.load(Ordering::Relaxed),
        }
    }

    /// Runs `build` under the clock, charging its wall time and one build
    /// to the totals.
    fn time<T>(&self, build: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = build();
        self.build_nanos.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.built.fetch_add(1, Ordering::Relaxed);
        value
    }
}

/// Byte/occupancy accounting of one [`ArtifactStore`]'s completed cells
/// (see [`ArtifactStore::resources`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArtifactResources {
    /// Estimated bytes of completed index/region artifacts (KD-trees,
    /// Hamming indexes, lazy region views' dataset copies).
    pub artifact_bytes: usize,
    /// Estimated bytes of the lazy views' bounded region memos.
    pub memo_bytes: usize,
    /// Entries held across all region memos (prune verdicts included).
    pub memo_len: usize,
    /// Combined insert bound of those memos (the fill gauge denominator).
    pub memo_cap: usize,
}

/// An owned copy of [`StoreMetrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreMetricsSnapshot {
    /// Total wall time spent inside artifact builders, µs.
    pub build_us: u64,
    /// Artifact cells built over the engine's lifetime (rebuilds after
    /// invalidation included — contrast with the live
    /// [`ArtifactStore::built_count`]).
    pub built: u64,
    /// Completed cells carried across mutations instead of rebuilt.
    pub carried: u64,
}

/// The engine's immutable dataset: the continuous view always, the boolean
/// view when every coordinate is 0/1.
#[derive(Clone, Debug)]
pub struct EngineData {
    /// Continuous view.
    pub continuous: ContinuousDataset<f64>,
    /// Boolean view, when the data is binary.
    pub boolean: Option<BooleanDataset>,
}

impl EngineData {
    /// Wraps pre-built views.
    pub fn new(continuous: ContinuousDataset<f64>, boolean: Option<BooleanDataset>) -> Self {
        EngineData { continuous, boolean }
    }

    /// Builds from the continuous view alone, deriving the boolean view when
    /// every value is 0 or 1.
    pub fn from_continuous(continuous: ContinuousDataset<f64>) -> Self {
        let all_binary = continuous.iter().all(|(p, _)| p.iter().all(|&v| v == 0.0 || v == 1.0));
        let boolean = all_binary.then(|| {
            let mut ds = BooleanDataset::new(continuous.dim());
            for (p, label) in continuous.iter() {
                ds.push(
                    BitVec::from_bools(&p.iter().map(|&v| v == 1.0).collect::<Vec<_>>()),
                    label,
                );
            }
            ds
        });
        EngineData { continuous, boolean }
    }

    /// The view after appending one labeled point: a clone plus an `O(d)`
    /// update instead of [`EngineData::from_continuous`]'s full re-scan —
    /// the mutation layer's per-epoch derivation cost. Semantics match a
    /// re-derivation exactly: a non-0/1 insert drops the boolean view (the
    /// dataset is no longer binary), and a view inconsistent with the
    /// continuous one (hand-built test data) falls back to re-deriving.
    pub fn with_insert(&self, point: &[f64], label: Label) -> EngineData {
        let binary = point.iter().all(|&v| v == 0.0 || v == 1.0);
        let mut continuous = self.continuous.clone();
        continuous.push(point.to_vec(), label);
        let boolean = match &self.boolean {
            Some(b)
                if binary
                    && b.dim() == self.continuous.dim()
                    && b.len() == self.continuous.len() =>
            {
                let mut b = b.clone();
                b.push(
                    BitVec::from_bools(&point.iter().map(|&v| v == 1.0).collect::<Vec<_>>()),
                    label,
                );
                Some(b)
            }
            Some(_) if binary => return EngineData::from_continuous(continuous),
            // A binary insert cannot make a non-binary dataset binary, and
            // a non-binary insert un-binaries any dataset.
            _ => None,
        };
        EngineData { continuous, boolean }
    }

    /// The view after removing the `id`-th point (see
    /// [`EngineData::with_insert`]). When there was no boolean view, the
    /// removal may have deleted the last non-0/1 point, so fresh-load
    /// semantics require a re-derivation.
    pub fn with_remove(&self, id: usize) -> EngineData {
        let mut continuous = self.continuous.clone();
        continuous.remove(id);
        match &self.boolean {
            Some(b) if b.dim() == self.continuous.dim() && b.len() == self.continuous.len() => {
                let mut b = b.clone();
                b.remove(id);
                EngineData { continuous, boolean: Some(b) }
            }
            _ => EngineData::from_continuous(continuous),
        }
    }
}

/// A keyed family of build-once artifacts: the map mutex guards only cell
/// lookup/creation, and each cell's `OnceLock` serializes same-key builds
/// while distinct keys build concurrently.
#[derive(Debug)]
struct Family<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>,
}

impl<K: Eq + Hash + Clone, V> Default for Family<K, V> {
    fn default() -> Self {
        Family { cells: Mutex::new(HashMap::new()) }
    }
}

impl<K: Eq + Hash + Clone, V> Family<K, V> {
    fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        let cell = self.cells.lock().unwrap().entry(key).or_default().clone();
        cell.get_or_init(|| Arc::new(build())).clone()
    }

    /// How many artifacts of this family have finished building.
    fn built_count(&self) -> usize {
        self.cells.lock().unwrap().values().filter(|c| c.get().is_some()).count()
    }

    /// Folds `weigh` over the *completed* artifacts. In-flight builds
    /// contribute nothing — their memory is transient and unobservable
    /// without blocking on the build.
    fn built_bytes(&self, weigh: impl Fn(&V) -> usize) -> usize {
        self.cells.lock().unwrap().values().filter_map(|c| c.get()).map(|v| weigh(v)).sum()
    }

    /// A new family holding the *completed* artifacts whose key passes
    /// `keep`, each behind a fresh cell. Copying only finished builds
    /// matters: an in-flight build shares its old cell and must complete
    /// into the *old* family only — it is computing over the pre-mutation
    /// dataset, and the new family must never serve it.
    fn carry(&self, keep: impl Fn(&K) -> bool) -> Family<K, V> {
        let cells = self.cells.lock().unwrap();
        let kept = cells
            .iter()
            .filter(|(k, _)| keep(k))
            .filter_map(|(k, cell)| {
                cell.get().map(|v| {
                    let fresh = OnceLock::new();
                    let _ = fresh.set(v.clone());
                    (k.clone(), Arc::new(fresh))
                })
            })
            .collect();
        Family { cells: Mutex::new(kept) }
    }
}

/// Lazily-built shared artifacts (see module docs).
#[derive(Debug, Default)]
pub struct ArtifactStore {
    kd_class: Family<(u32, Label), KdTree>,
    hamming_class: Family<Label, HammingIndex>,
    l2_lazy: Family<u32, LazyRegions<f64>>,
    /// Build-time accounting, shared across carry-over generations.
    metrics: Arc<StoreMetrics>,
    /// Region-enumeration counters every lazy view (any `k`, any
    /// generation) records into, so prune/yield totals are engine-wide.
    region_counters: Arc<RegionCounters>,
}

impl ArtifactStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The KD-tree over the `label` class under ℓp, building it on first use.
    pub fn kd_class_index(&self, data: &EngineData, p: u32, label: Label) -> Arc<KdTree> {
        self.kd_class.get_or_build((p, label), || {
            self.metrics.time(|| KdTree::new(data.continuous.points_of(label), LpMetric::new(p)))
        })
    }

    /// The Hamming index over the `label` class. The caller must have checked
    /// that the boolean view exists.
    pub fn hamming_class_index(&self, data: &EngineData, label: Label) -> Arc<HammingIndex> {
        self.hamming_class.get_or_build(label, || {
            self.metrics.time(|| {
                let ds = data.boolean.as_ref().expect("hamming artifact needs the boolean view");
                HammingIndex::new(ds.points_of(label))
            })
        })
    }

    /// The lazy Prop 1 ℓ2 region view for `k`. Cheap to build; visited
    /// regions are memoized inside the view (bounded), so every worker
    /// sharing this artifact also shares the warm enumeration.
    pub fn l2_lazy_regions(&self, data: &EngineData, k: OddK) -> Arc<LazyRegions<f64>> {
        self.l2_lazy.get_or_build(k.get(), || {
            self.metrics.time(|| {
                LazyRegions::with_counters(&data.continuous, k, self.region_counters.clone())
            })
        })
    }

    /// Build-time accounting (engine-lifetime — survives carry-overs).
    pub fn metrics(&self) -> &Arc<StoreMetrics> {
        &self.metrics
    }

    /// The engine-wide region-enumeration counters (see
    /// [`RegionCounters`]).
    pub fn region_counters(&self) -> &Arc<RegionCounters> {
        &self.region_counters
    }

    /// How many artifacts (across all families) have finished building —
    /// the `artifacts_built` observability counter of the server's `stats`
    /// verb, so operators can tell a cold tenant (expensive first queries
    /// ahead) from a warmed one.
    pub fn built_count(&self) -> usize {
        self.kd_class.built_count() + self.hamming_class.built_count() + self.l2_lazy.built_count()
    }

    /// Estimated bytes and memo occupancy of the completed artifacts — the
    /// `artifact` / `memo` components of the engine's resource gauges. One
    /// pass over the cell maps; never triggers or waits for a build. Byte
    /// figures are estimates (element payloads + container headers), not
    /// allocator-exact — see DESIGN.md §7c for the estimation rules.
    pub fn resources(&self) -> ArtifactResources {
        let mut r = ArtifactResources::default();
        r.artifact_bytes += self.kd_class.built_bytes(|t| t.approx_bytes());
        r.artifact_bytes += self.hamming_class.built_bytes(|h| h.approx_bytes());
        // Lazy views split: the owned dataset copy counts as artifact, the
        // bounded memos as the separately-capped memo component.
        r.artifact_bytes += self.l2_lazy.built_bytes(|l| l.approx_bytes() - l.memo_bytes());
        r.memo_bytes += self.l2_lazy.built_bytes(|l| l.memo_bytes());
        r.memo_len += self.l2_lazy.built_bytes(|l| l.memoized());
        r.memo_cap += self.l2_lazy.built_bytes(|l| l.memo_cap());
        r
    }

    /// The store for the epoch after a mutation of class `mutated`: the
    /// *other* class's neighbor indexes (KD-trees, Hamming index) are
    /// carried over — a mutation cannot change a class it did not touch,
    /// and inserts append / removals preserve the survivors' order, so the
    /// untouched class's index inputs are identical at both epochs. Every
    /// region artifact is dropped: Prop 1 regions are built from
    /// cross-class point pairs, so any mutation invalidates them for every
    /// `k`. (The invalidation matrix lives in DESIGN.md §3d.)
    pub fn carry_over(&self, mutated: Label) -> ArtifactStore {
        let next = ArtifactStore {
            kd_class: self.kd_class.carry(|&(_, label)| label != mutated),
            hamming_class: self.hamming_class.carry(|&label| label != mutated),
            l2_lazy: Family::default(),
            metrics: self.metrics.clone(),
            region_counters: self.region_counters.clone(),
        };
        self.metrics.carried.fetch_add(next.built_count() as u64, Ordering::Relaxed);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> EngineData {
        let ds = ContinuousDataset::from_sets(
            vec![vec![1.0, 1.0], vec![1.0, 0.0]],
            vec![vec![0.0, 0.0], vec![0.0, 1.0]],
        );
        EngineData::from_continuous(ds)
    }

    #[test]
    fn binary_data_gets_boolean_view() {
        let d = toy();
        assert!(d.boolean.is_some());
        assert_eq!(d.boolean.as_ref().unwrap().count_of(Label::Positive), 2);
        let nonbin = EngineData::from_continuous(ContinuousDataset::from_sets(
            vec![vec![0.5]],
            vec![vec![0.0]],
        ));
        assert!(nonbin.boolean.is_none());
    }

    #[test]
    fn artifacts_are_shared_not_rebuilt() {
        let d = toy();
        let store = ArtifactStore::new();
        let a = store.kd_class_index(&d, 2, Label::Positive);
        let b = store.kd_class_index(&d, 2, Label::Positive);
        assert!(Arc::ptr_eq(&a, &b), "same artifact instance on the second request");
        let h1 = store.hamming_class_index(&d, Label::Negative);
        let h2 = store.hamming_class_index(&d, Label::Negative);
        assert!(Arc::ptr_eq(&h1, &h2));
        let l1 = store.l2_lazy_regions(&d, OddK::ONE);
        let l2 = store.l2_lazy_regions(&d, OddK::ONE);
        assert!(Arc::ptr_eq(&l1, &l2));
        assert_eq!(l1.memoized(), 0, "lazy view starts empty — nothing visited yet");
    }

    #[test]
    fn incremental_views_match_full_rederivation() {
        let mut ds = ContinuousDataset::from_sets(vec![vec![1.0, 0.0]], vec![vec![0.0, 1.0]]);
        ds.push(vec![0.5, 0.5], Label::Positive); // non-binary
        let d = EngineData::from_continuous(ds);
        assert!(d.boolean.is_none());
        // Removing the only non-binary point resurrects the boolean view
        // (fresh-load semantics).
        let removed = d.with_remove(2);
        assert!(removed.boolean.is_some());
        assert_eq!(removed.continuous.len(), 2);
        // A binary insert extends the view; a non-binary one drops it.
        let grown = removed.with_insert(&[1.0, 1.0], Label::Negative);
        let b = grown.boolean.as_ref().unwrap();
        assert_eq!((b.len(), b.label(2)), (3, Label::Negative));
        assert!(b.point(2).get(0) && b.point(2).get(1));
        let degraded = grown.with_insert(&[0.25, 1.0], Label::Positive);
        assert!(degraded.boolean.is_none());
        assert_eq!(degraded.continuous.len(), 4);
    }

    #[test]
    fn carry_over_keeps_the_untouched_class_and_drops_the_rest() {
        let d = toy();
        let store = ArtifactStore::new();
        let pos_kd = store.kd_class_index(&d, 2, Label::Positive);
        let neg_kd = store.kd_class_index(&d, 2, Label::Negative);
        let neg_ham = store.hamming_class_index(&d, Label::Negative);
        store.l2_lazy_regions(&d, OddK::ONE);
        store.l2_lazy_regions(&d, OddK::THREE);
        assert_eq!(store.built_count(), 5);

        let next = store.carry_over(Label::Positive);
        assert_eq!(next.built_count(), 2, "negative KD + negative Hamming survive");
        // The surviving artifacts are the same instances, not rebuilds.
        assert!(Arc::ptr_eq(&neg_kd, &next.kd_class_index(&d, 2, Label::Negative)));
        assert!(Arc::ptr_eq(&neg_ham, &next.hamming_class_index(&d, Label::Negative)));
        // The mutated class rebuilds fresh.
        assert!(!Arc::ptr_eq(&pos_kd, &next.kd_class_index(&d, 2, Label::Positive)));
        assert_eq!(next.built_count(), 3);
    }
}
