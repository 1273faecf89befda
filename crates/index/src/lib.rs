//! Exact nearest-neighbor search structures (the FAISS substitute of §9.2).
//!
//! The explanation algorithms only ever need *exact* k-NN queries — the
//! optimistic classifier's tie handling makes approximate search unsound — so
//! this crate provides exact structures with different performance envelopes:
//!
//! * [`BruteForceIndex`] — linear scan, any ℓp, any field; the reference.
//! * [`KdTree`] — axis-aligned splits with branch-and-bound search for dense
//!   `f64` data under any ℓp (per-axis distance lower bounds are valid for
//!   every p ≥ 1); the workhorse behind the Figure 6a sweep.
//! * [`HammingIndex`] — bit-packed linear scan with per-word popcount and
//!   early abort; the discrete-setting workhorse.
//!
//! All structures return `(point index, distance key)` pairs sorted by
//! distance, ties broken by index, so every caller observes identical,
//! deterministic neighbor orders.
//!
//! ```
//! use knn_index::KdTree;
//! use knn_space::LpMetric;
//!
//! let tree = KdTree::new(
//!     vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![5.0, 5.0]],
//!     LpMetric::L2,
//! );
//! let hits = tree.knn(&[0.9, 0.1], 2);            // (index, ℓ2²) pairs
//! assert_eq!(hits[0].0, 1);                        // (1,0) is closest
//! assert_eq!(hits[1].0, 0);
//! ```

#![warn(missing_docs)]

pub mod brute;
pub mod hamming;
pub mod kdtree;

/// Thread-local work tally for resource accounting.
///
/// Search structures bump a plain thread-local counter as they work; the
/// serving engine reads the counter before and after a query's compute phase
/// and attributes the delta to the query's route. Because a single query
/// executes entirely on one worker thread, the delta is exact, and because
/// the counter is a non-atomic `Cell` the bump costs ~1 ns — it never touches
/// shared state, so the byte-determinism contract is untouched.
pub mod tally {
    use std::cell::Cell;

    thread_local! {
        static KD_NODE_VISITS: Cell<u64> = const { Cell::new(0) };
    }

    /// Monotonic count of KD-tree nodes visited on this thread.
    pub fn kd_node_visits() -> u64 {
        KD_NODE_VISITS.with(|c| c.get())
    }

    pub(crate) fn bump_kd_node_visits(n: u64) {
        KD_NODE_VISITS.with(|c| c.set(c.get().wrapping_add(n)));
    }
}

pub use brute::BruteForceIndex;
pub use hamming::HammingIndex;
pub use kdtree::KdTree;

/// Sorts `(index, key)` pairs by key then index, truncating to `k`.
pub(crate) fn finalize_neighbors<D: PartialOrd>(
    mut out: Vec<(usize, D)>,
    k: usize,
) -> Vec<(usize, D)> {
    out.sort_by(|a, b| {
        a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    out.truncate(k);
    out
}
