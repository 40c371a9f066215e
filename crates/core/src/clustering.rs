//! Hierarchical clustering under the correlation distance (Figure 3).
//!
//! The paper clusters gateway traffic series with distance `1 − cor(·,·)`
//! and cuts the dendrogram at `0.4` — i.e. clusters are groups whose
//! correlation similarity is at least `0.6`, the "high correlation"
//! threshold. This module implements agglomerative average-linkage
//! clustering over an arbitrary distance matrix plus the `cor`-based
//! convenience entry point.

use crate::engine::{
    cor_matrix, cor_matrix_pruned, profile_series, sketch_series, CorMatrixConfig, PruneConfig,
};

/// One merge step of the agglomerative clustering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeStep {
    /// First cluster id merged (ids `0..n` are leaves; `n + k` is the
    /// cluster created by step `k`).
    pub left: usize,
    /// Second cluster id merged.
    pub right: usize,
    /// Average-linkage distance at which the merge happened.
    pub distance: f64,
}

/// The full dendrogram of an agglomerative clustering run.
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    /// Number of leaves.
    pub n: usize,
    /// Merge steps in execution order (`n − 1` of them for `n > 0`).
    pub steps: Vec<MergeStep>,
}

impl Dendrogram {
    /// Cuts the dendrogram at `threshold`: merges with distance
    /// `<= threshold` are applied, and the resulting groups of leaves are
    /// returned (each sorted, groups ordered by smallest member).
    pub fn cut(&self, threshold: f64) -> Vec<Vec<usize>> {
        // Union-find over leaves, replaying cheap merges.
        let mut parent: Vec<usize> = (0..self.n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        // Map cluster ids to a representative leaf.
        let mut rep: Vec<usize> = (0..self.n).collect();
        for step in self.steps.iter() {
            if step.distance <= threshold {
                let a = find(&mut parent, rep[step.left]);
                let b = find(&mut parent, rep[step.right]);
                parent[b] = a;
                rep.push(a);
            } else {
                // Higher merges can't be applied, but later steps may still
                // reference this cluster id; keep a representative.
                rep.push(rep[step.left]);
            }
        }
        let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for leaf in 0..self.n {
            let root = find(&mut parent, leaf);
            groups.entry(root).or_default().push(leaf);
        }
        groups.into_values().collect()
    }
}

/// Agglomerative average-linkage clustering over a symmetric distance
/// matrix given as a flat row-major `n × n` slice.
///
/// # Panics
/// Panics if the matrix is not square.
pub fn average_linkage(dist: &[f64], n: usize) -> Dendrogram {
    assert_eq!(dist.len(), n * n, "distance matrix must be n x n");
    if n == 0 {
        return Dendrogram {
            n,
            steps: Vec::new(),
        };
    }
    // Active clusters: id -> member leaves.
    let mut members: Vec<Option<Vec<usize>>> = (0..n).map(|i| Some(vec![i])).collect();
    let mut active: Vec<usize> = (0..n).collect();
    let mut steps = Vec::with_capacity(n.saturating_sub(1));

    let leaf_dist = |a: usize, b: usize| dist[a * n + b];
    while active.len() > 1 {
        // Find the closest pair by average linkage.
        let mut best = (0usize, 1usize, f64::INFINITY);
        for (ai, &a) in active.iter().enumerate() {
            for &b in &active[ai + 1..] {
                let ma = members[a].as_ref().expect("active cluster");
                let mb = members[b].as_ref().expect("active cluster");
                let mut sum = 0.0;
                for &x in ma {
                    for &y in mb {
                        sum += leaf_dist(x, y);
                    }
                }
                let d = sum / (ma.len() * mb.len()) as f64;
                if d < best.2 {
                    best = (a, b, d);
                }
            }
        }
        let (a, b, d) = best;
        let mut merged = members[a].take().expect("active cluster");
        merged.extend(members[b].take().expect("active cluster"));
        let new_id = members.len();
        members.push(Some(merged));
        active.retain(|&c| c != a && c != b);
        active.push(new_id);
        steps.push(MergeStep {
            left: a,
            right: b,
            distance: d,
        });
    }
    Dendrogram { n, steps }
}

/// Clusters series by correlation distance `1 − cor` with average linkage,
/// cut at `1 − min_similarity` (the paper cuts at distance `0.4`, i.e.
/// similarity `0.6`).
pub fn cluster_correlated(series: &[Vec<f64>], min_similarity: f64) -> Vec<Vec<usize>> {
    let n = series.len();
    let profiles = profile_series(series, None);
    let matrix = cor_matrix(&profiles, &CorMatrixConfig::default(), None);
    let mut dist = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = 1.0 - matrix.get(i, j) as f64;
            dist[i * n + j] = d;
            dist[j * n + i] = d;
        }
    }
    average_linkage(&dist, n).cut(1.0 - min_similarity)
}

/// Connected components of the `cor ≥ min_similarity` graph, computed
/// from the sketch-pruned sparse matrix — the fleet-scale companion to
/// [`cluster_correlated`].
///
/// Average linkage needs *every* pairwise distance, so it cannot ride the
/// pruned path unchanged. The component decomposition can, and it
/// provably **coarsens** the average-linkage cut: a merge applied at
/// average distance `≤ 1 − min_similarity` implies at least one member
/// pair with similarity `≥ min_similarity`, so every cluster
/// [`cluster_correlated`] returns is wholly contained in one component
/// returned here. Use it to split a fleet into independent sub-problems
/// before running the exact clustering per component.
///
/// Components are sorted by smallest member, members ascending (the same
/// shape [`Dendrogram::cut`] returns).
pub fn correlation_components(series: &[Vec<f64>], min_similarity: f64) -> Vec<Vec<usize>> {
    let n = series.len();
    let profiles = profile_series(series, None);
    let config = PruneConfig::at_threshold(min_similarity);
    let sketches = sketch_series(&profiles, &config.sketch, None);
    let (sparse, _) = cor_matrix_pruned(&profiles, &sketches, &config, None);
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (i, j, v) in sparse.entries() {
        // The same f32 comparison the dense consumers make: a pruned pair
        // is provably below threshold even after f32 rounding (see
        // `wtts_stats::sketch`), so the edge set matches a dense scan.
        if v as f64 >= min_similarity {
            let (a, b) = (find(&mut parent, i), find(&mut parent, j));
            if a != b {
                parent[b] = a;
            }
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for leaf in 0..n {
        let root = find(&mut parent, leaf);
        groups.entry(root).or_default().push(leaf);
    }
    groups.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_well_separated_groups() {
        // Group A: rising series; group B: oscillating series.
        let rising = |k: usize| -> Vec<f64> {
            (0..30)
                .map(|i| (i * (k + 1)) as f64 + (i % 3) as f64)
                .collect()
        };
        let wave = |k: usize| -> Vec<f64> {
            (0..30)
                .map(|i| (i as f64 * 0.9 + k as f64 * 0.01).sin() * 100.0)
                .collect()
        };
        let series: Vec<Vec<f64>> = (0..3).map(rising).chain((0..3).map(wave)).collect();
        let clusters = cluster_correlated(&series, 0.6);
        assert_eq!(clusters.len(), 2, "clusters: {clusters:?}");
        assert_eq!(clusters[0], vec![0, 1, 2]);
        assert_eq!(clusters[1], vec![3, 4, 5]);
    }

    #[test]
    fn uncorrelated_series_stay_singletons() {
        let hash = |i: usize, k: f64| ((i as f64 * k).sin() * 43758.5453).fract().abs();
        let series: Vec<Vec<f64>> = [12.9898, 78.233, 39.425, 94.673]
            .into_iter()
            .map(|k| (0..20).map(|i| hash(i, k)).collect())
            .collect();
        let clusters = cluster_correlated(&series, 0.6);
        assert_eq!(clusters.len(), 4, "clusters: {clusters:?}");
    }

    #[test]
    fn cut_threshold_controls_granularity() {
        let series: Vec<Vec<f64>> = (0..4)
            .map(|k| {
                (0..30)
                    .map(|i| (i * (k + 1)) as f64 + ((i + k) % 4) as f64)
                    .collect()
            })
            .collect();
        let tight = cluster_correlated(&series, 0.99999);
        let loose = cluster_correlated(&series, 0.3);
        assert!(tight.len() >= loose.len());
        // All four rising series correlate strongly: one loose cluster.
        assert_eq!(loose.len(), 1);
    }

    #[test]
    fn components_match_clusters_on_separated_groups() {
        let rising = |k: usize| -> Vec<f64> {
            (0..30)
                .map(|i| (i * (k + 1)) as f64 + (i % 3) as f64)
                .collect()
        };
        let wave = |k: usize| -> Vec<f64> {
            (0..30)
                .map(|i| (i as f64 * 0.9 + k as f64 * 0.01).sin() * 100.0)
                .collect()
        };
        let series: Vec<Vec<f64>> = (0..3).map(rising).chain((0..3).map(wave)).collect();
        let components = correlation_components(&series, 0.6);
        assert_eq!(components, cluster_correlated(&series, 0.6));
    }

    #[test]
    fn components_coarsen_average_linkage() {
        // Mixed fixture: components must contain every exact cluster.
        let series: Vec<Vec<f64>> = (0..8)
            .map(|s| {
                (0..36)
                    .map(|t| {
                        ((t * (s % 4 + 1)) % 13) as f64 * 10.0
                            + ((t * 7 + s) % 5) as f64
                            + t as f64 * 1e-3
                    })
                    .collect()
            })
            .collect();
        for phi in [0.4, 0.6, 0.8] {
            let clusters = cluster_correlated(&series, phi);
            let components = correlation_components(&series, phi);
            let comp_of = |leaf: usize| {
                components
                    .iter()
                    .position(|c| c.contains(&leaf))
                    .expect("every leaf in a component")
            };
            for cluster in &clusters {
                let home = comp_of(cluster[0]);
                assert!(
                    cluster.iter().all(|&m| comp_of(m) == home),
                    "cluster {cluster:?} split across components {components:?} at φ={phi}"
                );
            }
        }
    }

    #[test]
    fn dendrogram_has_n_minus_one_steps() {
        let dist = vec![
            0.0, 1.0, 4.0, //
            1.0, 0.0, 5.0, //
            4.0, 5.0, 0.0,
        ];
        let d = average_linkage(&dist, 3);
        assert_eq!(d.steps.len(), 2);
        // First merge is the closest pair (0, 1) at distance 1.
        assert_eq!(d.steps[0].distance, 1.0);
        let firsts = [d.steps[0].left, d.steps[0].right];
        assert!(firsts.contains(&0) && firsts.contains(&1));
        // Second merge at average linkage (4 + 5) / 2.
        assert!((d.steps[1].distance - 4.5).abs() < 1e-12);
    }

    #[test]
    fn cut_respects_threshold() {
        let dist = vec![
            0.0, 0.2, 0.9, //
            0.2, 0.0, 0.8, //
            0.9, 0.8, 0.0,
        ];
        let d = average_linkage(&dist, 3);
        assert_eq!(d.cut(0.4), vec![vec![0, 1], vec![2]]);
        assert_eq!(d.cut(0.05), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(d.cut(1.0), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn empty_and_singleton() {
        let d = average_linkage(&[], 0);
        assert!(d.steps.is_empty());
        assert!(d.cut(1.0).is_empty());
        let d1 = average_linkage(&[0.0], 1);
        assert!(d1.steps.is_empty());
        assert_eq!(d1.cut(0.5), vec![vec![0]]);
    }
}
