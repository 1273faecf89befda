//! Property tests: every index structure returns exactly the brute-force
//! k-NN answer (same multiset of distances; same points up to ties) on
//! arbitrary inputs, including duplicate points and k ≥ n.

use knn_index::{BruteForceIndex, HammingIndex, KdTree};
use knn_space::{BitVec, LpMetric};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Workload {
    pts: Vec<Vec<f64>>,
    q: Vec<f64>,
    k: usize,
}

fn workload() -> impl Strategy<Value = Workload> {
    (1..=5usize).prop_flat_map(|dim| {
        (
            prop::collection::vec(prop::collection::vec(-4..=4i32, dim), 1..=24),
            prop::collection::vec(-4..=4i32, dim),
            1..=8usize,
        )
            .prop_map(move |(pts, q, k)| Workload {
                pts: pts
                    .into_iter()
                    .map(|p| p.into_iter().map(|v| v as f64 / 2.0).collect())
                    .collect(),
                q: q.into_iter().map(|v| v as f64 / 2.0).collect(),
                k,
            })
    })
}

/// Sorted distance multiset — the tie-stable way to compare k-NN answers.
fn dists(ans: &[(usize, f64)]) -> Vec<f64> {
    let mut d: Vec<f64> = ans.iter().map(|&(_, d)| d).collect();
    d.sort_by(|a, b| a.partial_cmp(b).unwrap());
    d
}

fn close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kdtree_matches_brute_force(w in workload(), p2 in any::<bool>()) {
        let metric = if p2 { LpMetric::L2 } else { LpMetric::L1 };
        let brute = BruteForceIndex::new(w.pts.clone(), metric);
        let kd = KdTree::new(w.pts.clone(), metric);
        // Both report p-th powers of distances.
        let want = dists(&brute.knn(&w.q, w.k));
        prop_assert!(close(&dists(&kd.knn(&w.q, w.k)), &want),
            "kd {:?} vs brute {:?}", dists(&kd.knn(&w.q, w.k)), want);
    }

    #[test]
    fn hamming_index_matches_naive_scan(
        pts in prop::collection::vec(prop::collection::vec(any::<bool>(), 6), 1..=20),
        q in prop::collection::vec(any::<bool>(), 6),
        k in 1..=6usize,
    ) {
        let bpts: Vec<BitVec> = pts.iter().map(|p| BitVec::from_bools(p)).collect();
        let bq = BitVec::from_bools(&q);
        let idx = HammingIndex::new(bpts.clone());
        let mut naive: Vec<usize> = bpts.iter().map(|p| p.hamming(&bq)).collect();
        naive.sort_unstable();
        naive.truncate(k);
        let mut got: Vec<usize> = idx.knn(&bq, k).into_iter().map(|(_, d)| d).collect();
        got.sort_unstable();
        prop_assert_eq!(got, naive);
    }
}
