//! Motif discovery over calendar windows (Definition 5).
//!
//! A motif is a set `M` of time-aligned windows — days or weeks, drawn from
//! one or many gateways — such that
//!
//! 1. *individual similarity*: every member has `cor ≥ φ` with at least one
//!    other member, and
//! 2. *group similarity*: every pair of members has `cor ≥ ¾φ`.
//!
//! The paper uses φ = 0.8 and additionally merges motifs when **all** cross
//! pairs correlate at `≥ 0.6`. Construction is greedy over the strongest
//! pairs first: each new window must be φ-similar to an existing member and
//! ¾φ-similar to all of them, which maintains both invariants by
//! construction.

use crate::engine::{cor_matrix_pruned, cor_profiled, profile_one, sketch_series, PruneConfig};
use crate::obs::{PipelineObs, NEAR_THRESHOLD_BAND};
use std::collections::HashMap;
use wtts_stats::kernels::{fast_lane_decision, FastDecision};
use wtts_stats::sketch::{CorSketch, SketchConfig};
use wtts_stats::{CorProfile, CorScratch};
use wtts_timeseries::Weekday;

/// Similarity reported for pairs the sketch tier pruned: far below every
/// admissible threshold *and* far outside [`F32_REVERIFY_BAND`], so every
/// membership verdict on a pruned pair is `false` without consulting the
/// exact checker — exactly the verdict the dense path reaches, since a
/// pruned pair's true similarity is provably below the prune threshold
/// (which never exceeds φ, ¾φ or the merge threshold).
const PRUNED_SIM: f32 = -2.0;

/// Half-width of the f64 band around a decision threshold inside which the
/// condensed matrix's `f32` similarity is re-verified in `f64` before a
/// membership verdict.
///
/// Rounding `f64 → f32` moves a similarity by at most half an `f32` ULP
/// (≈ 3·10⁻⁸ near φ = 0.8), so a flipped verdict requires the exact value
/// to lie within that distance of the threshold. The band is two orders of
/// magnitude wider — comfortably conservative, yet narrow enough that
/// re-verification stays rare (the `f64_reverified` counter measures how
/// rare on real data).
pub const F32_REVERIFY_BAND: f64 = 1e-6;

/// Re-verifies near-threshold `f32` similarities in `f64`.
///
/// The exact value is recomputed from the same [`CorProfile`]s that filled
/// the condensed matrix, so it is bit-identical to the pre-rounding `f64`;
/// a small cache keeps each pair's recompute to one.
struct ExactChecker<'a> {
    profiles: &'a [CorProfile],
    slot: &'a [Option<usize>],
    scratch: CorScratch,
    cache: HashMap<(usize, usize), f64>,
}

impl<'a> ExactChecker<'a> {
    fn new(profiles: &'a [CorProfile], slot: &'a [Option<usize>]) -> ExactChecker<'a> {
        ExactChecker {
            profiles,
            slot,
            scratch: CorScratch::new(),
            cache: HashMap::new(),
        }
    }

    /// The exact `f64` similarity of original windows `i` and `j`.
    fn exact(&mut self, i: usize, j: usize) -> f64 {
        let (Some(a), Some(b)) = (self.slot[i], self.slot[j]) else {
            return 0.0;
        };
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&v) = self.cache.get(&key) {
            return v;
        }
        let v = cor_profiled(
            &self.profiles[key.0],
            &self.profiles[key.1],
            &mut self.scratch,
        );
        self.cache.insert(key, v);
        v
    }

    /// Whether the similarity of windows `i` and `j` meets `threshold`,
    /// deciding in `f64` whenever the rounded value `approx` lands within
    /// [`F32_REVERIFY_BAND`] of the threshold.
    ///
    /// The band test is the shared fast-lane rule
    /// ([`wtts_stats::kernels::fast_lane_decision`]), so this checker and
    /// every other `f32` consumer apply identical arithmetic at the
    /// decision boundary.
    fn meets(
        &mut self,
        approx: f32,
        i: usize,
        j: usize,
        threshold: f64,
        obs: Option<&PipelineObs>,
    ) -> bool {
        match fast_lane_decision(approx as f64, threshold, F32_REVERIFY_BAND) {
            FastDecision::AtLeast => true,
            FastDecision::Below => false,
            FastDecision::Reverify => {
                if let Some(o) = obs {
                    o.f64_reverified.incr();
                }
                self.exact(i, j) >= threshold
            }
        }
    }
}

/// Identity of one window in the motif-search input set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowRef {
    /// Gateway the window came from.
    pub gateway: usize,
    /// Week index of the window.
    pub week: u32,
    /// Weekday for daily windows, `None` for weekly windows.
    pub weekday: Option<Weekday>,
}

/// Thresholds for motif discovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotifConfig {
    /// Individual-similarity threshold φ.
    pub phi: f64,
    /// Group similarity is `group_factor * phi` (the paper's ¾).
    pub group_factor: f64,
    /// All-pairs threshold for merging two motifs.
    pub merge_threshold: f64,
    /// Minimum finite samples for a window to participate.
    pub min_observations: usize,
}

impl Default for MotifConfig {
    fn default() -> MotifConfig {
        MotifConfig {
            phi: 0.8,
            group_factor: 0.75,
            merge_threshold: 0.6,
            min_observations: 3,
        }
    }
}

impl MotifConfig {
    /// The group-similarity threshold `¾φ`.
    pub fn group_threshold(&self) -> f64 {
        self.group_factor * self.phi
    }
}

/// A discovered motif: indices into the input window set.
#[derive(Debug, Clone, PartialEq)]
pub struct Motif {
    /// Member indices into the window list passed to [`discover_motifs`].
    pub members: Vec<usize>,
}

impl Motif {
    /// The motif's support (number of member windows).
    pub fn support(&self) -> usize {
        self.members.len()
    }

    /// Distinct gateways contributing to the motif.
    pub fn gateways(&self, refs: &[WindowRef]) -> Vec<usize> {
        let mut g: Vec<usize> = self.members.iter().map(|&i| refs[i].gateway).collect();
        g.sort_unstable();
        g.dedup();
        g
    }

    /// Fraction of members whose gateway contributes more than one window —
    /// the paper reports this as "% occur within the same gateways".
    pub fn same_gateway_fraction(&self, refs: &[WindowRef]) -> f64 {
        if self.members.is_empty() {
            return 0.0;
        }
        let mut counts = std::collections::HashMap::new();
        for &i in &self.members {
            *counts.entry(refs[i].gateway).or_insert(0usize) += 1;
        }
        let repeat: usize = counts.values().filter(|&&c| c > 1).sum();
        repeat as f64 / self.members.len() as f64
    }

    /// Element-wise mean of the member windows — the motif's "shape", what
    /// Figures 11 and 14 plot.
    pub fn average_pattern(&self, windows: &[Vec<f64>]) -> Vec<f64> {
        let len = self.members.first().map(|&i| windows[i].len()).unwrap_or(0);
        let mut sums = vec![0.0; len];
        let mut counts = vec![0usize; len];
        for &i in &self.members {
            for (k, &v) in windows[i].iter().enumerate() {
                if v.is_finite() {
                    sums[k] += v;
                    counts[k] += 1;
                }
            }
        }
        sums.iter()
            .zip(&counts)
            .map(|(&s, &c)| if c > 0 { s / c as f64 } else { f64::NAN })
            .collect()
    }

    /// Exports the motif as a streaming template: its average pattern under
    /// the given name, ready for [`crate::streaming::best_match`] or the
    /// fleet-ingest pipeline. This is the batch → streaming hand-off: motifs
    /// discovered offline become the library live windows are matched
    /// against.
    pub fn to_template(
        &self,
        name: impl Into<String>,
        windows: &[Vec<f64>],
    ) -> crate::streaming::MotifTemplate {
        crate::streaming::MotifTemplate {
            name: name.into(),
            pattern: self.average_pattern(windows),
        }
    }

    /// Share of members falling on weekend days (daily motifs; Figure 16b).
    pub fn weekend_fraction(&self, refs: &[WindowRef]) -> f64 {
        if self.members.is_empty() {
            return 0.0;
        }
        let weekend = self
            .members
            .iter()
            .filter(|&&i| refs[i].weekday.is_some_and(Weekday::is_weekend))
            .count();
        weekend as f64 / self.members.len() as f64
    }
}

/// Discovers motifs among `windows` with the given thresholds.
///
/// `windows[i]` is the sample vector of window `i`; windows with fewer than
/// `config.min_observations` finite samples are ignored. Returns motifs
/// sorted by descending support. Builds a throwaway [`MotifIndex`]; to
/// amortize the index across several runs (daily *and* weekly families,
/// ablation sweeps) or to observe the run, build it once and call
/// [`discover_motifs_indexed`].
///
/// ```
/// use wtts_core::motif::{discover_motifs, MotifConfig};
///
/// // Four evening-shaped days and one noise day.
/// let evening = |k: usize| -> Vec<f64> {
///     (0..8).map(|b| if b >= 6 { 900.0 + (b * 7 + k) as f64 } else { (b + k) as f64 }).collect()
/// };
/// let mut windows: Vec<Vec<f64>> = (0..4).map(evening).collect();
/// windows.push(vec![7.0, 1.0, 9.0, 2.0, 8.0, 3.0, 1.0, 5.0]);
///
/// let motifs = discover_motifs(&windows, &MotifConfig::default());
/// assert_eq!(motifs[0].support(), 4);
/// assert!(!motifs[0].members.contains(&4)); // the noise day stays out
/// ```
pub fn discover_motifs(windows: &[Vec<f64>], config: &MotifConfig) -> Vec<Motif> {
    let index = MotifIndex::observed(windows, config.min_observations, None);
    discover_motifs_indexed(&index, config, None)
}

/// The back half of motif discovery: sorts the φ-candidate pairs by
/// descending similarity, grows motifs greedily and merges them. `sim`
/// must be bit-identical to the dense matrix for every pair that can
/// influence a verdict (see [`discover_motifs_indexed`]).
fn assemble_motifs(
    n: usize,
    mut candidate_pairs: Vec<(usize, usize)>,
    sim: &dyn Fn(usize, usize) -> f32,
    exact: &mut ExactChecker<'_>,
    config: &MotifConfig,
    obs: Option<&PipelineObs>,
) -> Vec<Motif> {
    let group_threshold = config.group_threshold();
    candidate_pairs.sort_by(|a, b| {
        sim(b.0, b.1)
            .partial_cmp(&sim(a.0, a.1))
            .expect("finite similarity")
    });

    // Greedy growth.
    let mut assignment: Vec<Option<usize>> = vec![None; n];
    let mut motifs: Vec<Vec<usize>> = Vec::new();
    for (i, j) in candidate_pairs {
        match (assignment[i], assignment[j]) {
            (None, None) => {
                assignment[i] = Some(motifs.len());
                assignment[j] = Some(motifs.len());
                motifs.push(vec![i, j]);
            }
            (Some(m), None) => {
                if motifs[m]
                    .iter()
                    .all(|&k| exact.meets(sim(j, k), j, k, group_threshold, obs))
                {
                    assignment[j] = Some(m);
                    motifs[m].push(j);
                    if let Some(o) = obs {
                        o.members_grown.incr();
                    }
                }
            }
            (None, Some(m)) => {
                if motifs[m]
                    .iter()
                    .all(|&k| exact.meets(sim(i, k), i, k, group_threshold, obs))
                {
                    assignment[i] = Some(m);
                    motifs[m].push(i);
                    if let Some(o) = obs {
                        o.members_grown.incr();
                    }
                }
            }
            (Some(_), Some(_)) => {}
        }
    }

    // Merge phase: combine motifs whose cross pairs all reach the merge
    // threshold. One pass over motif pairs, smallest into largest.
    let mut merged: Vec<Option<Vec<usize>>> = motifs.into_iter().map(Some).collect();
    for a in 0..merged.len() {
        if merged[a].is_none() {
            continue;
        }
        for b in (a + 1)..merged.len() {
            let (Some(ma), Some(mb)) = (&merged[a], &merged[b]) else {
                continue;
            };
            let all_cross = ma.iter().all(|&i| {
                mb.iter()
                    .all(|&j| exact.meets(sim(i, j), i, j, config.merge_threshold, obs))
            });
            if all_cross {
                let mb = merged[b].take().expect("checked above");
                merged[a].as_mut().expect("checked above").extend(mb);
                if let Some(o) = obs {
                    o.motifs_merged.incr();
                }
            }
        }
    }

    let mut out: Vec<Motif> = merged
        .into_iter()
        .flatten()
        .map(|members| Motif { members })
        .collect();
    out.sort_by_key(|m| std::cmp::Reverse(m.support()));
    out
}

/// The reusable front half of motif discovery: eligibility, per-window
/// [`CorProfile`]s and pruning sketches, built **once** and shared across
/// every discovery run over the same window family — the daily and weekly
/// sweeps, threshold ablations, repeated configs.
///
/// Profiles and sketches depend only on the windows and the eligibility
/// cutoff, not on the thresholds, so one index serves any number of
/// [`discover_motifs_indexed`] calls with different [`MotifConfig`]s.
#[derive(Debug, Clone)]
pub struct MotifIndex {
    n_windows: usize,
    min_observations: usize,
    slot: Vec<Option<usize>>,
    eligible: Vec<usize>,
    profiles: Vec<CorProfile>,
    sketches: Vec<CorSketch>,
}

impl MotifIndex {
    /// Builds the index: one profile and one pruning sketch per window with
    /// at least `min_observations` finite samples. With `obs`, profile and
    /// sketch constructions open spans on [`PipelineObs::profile_build`]
    /// and [`PipelineObs::sketch_build`].
    pub fn observed(
        windows: &[Vec<f64>],
        min_observations: usize,
        obs: Option<&PipelineObs>,
    ) -> MotifIndex {
        let n = windows.len();
        let mut slot: Vec<Option<usize>> = vec![None; n];
        let mut eligible: Vec<usize> = Vec::new();
        let mut profiles: Vec<CorProfile> = Vec::new();
        for (i, w) in windows.iter().enumerate() {
            if w.iter().filter(|v| v.is_finite()).count() >= min_observations {
                slot[i] = Some(profiles.len());
                eligible.push(i);
                profiles.push(profile_one(w, obs));
            }
        }
        let sketches = sketch_series(&profiles, &SketchConfig::default(), obs);
        MotifIndex {
            n_windows: n,
            min_observations,
            slot,
            eligible,
            profiles,
            sketches,
        }
    }

    /// Number of windows the index was built over (eligible or not).
    pub fn n_windows(&self) -> usize {
        self.n_windows
    }

    /// Number of windows that passed the eligibility cutoff.
    pub fn n_eligible(&self) -> usize {
        self.eligible.len()
    }

    /// The eligibility cutoff the index was built with; configs passed to
    /// [`discover_motifs_indexed`] must use the same value.
    pub fn min_observations(&self) -> usize {
        self.min_observations
    }
}

/// Motif discovery over a prebuilt [`MotifIndex`], with sketch pruning.
///
/// Bit-identical to dense discovery — every pair evaluated exactly, which
/// is this same path at prune threshold ≤ 0 — by the following argument:
///
/// * The sparse matrix prunes at `φ_prune = min(φ, ¾φ-group, merge)`, so a
///   pruned pair's exact similarity is provably `< φ_prune − margin`, and
///   its dense `f32` value is `< φ_prune` — below **every** threshold any
///   verdict uses, even after `f64` re-verification. Reporting it as
///   `PRUNED_SIM` therefore yields the same `false` verdict the dense
///   path reaches. If any threshold is ≤ 0 the prune threshold is ≤ 0 and
///   the engine evaluates every pair — the dense path itself.
/// * Surviving pairs carry the engine's bit-identical `f32` similarity, the
///   candidate scan walks them in the same lexicographic order the dense
///   scan uses, and the descending-similarity sort is stable — so the
///   greedy growth sees the exact same pair sequence.
///
/// When `obs` is `Some`, the run opens a span on
/// [`PipelineObs::motif_discovery`] and feeds the prune-tier counters of
/// the matrix build, the candidate-scan counters (`pairs_evaluated` /
/// `candidate_pairs` / `pairs_pruned` over the sketch survivors),
/// `members_grown` / `motifs_merged`, the near-threshold instrument
/// (`near_phi` / `near_group`, within
/// [`NEAR_THRESHOLD_BAND`] of φ and ¾φ)
/// and `f64_reverified`.
///
/// Returns motifs sorted by descending support. Panics if
/// `config.min_observations` differs from the index's.
pub fn discover_motifs_indexed(
    index: &MotifIndex,
    config: &MotifConfig,
    obs: Option<&PipelineObs>,
) -> Vec<Motif> {
    let phi_prune = config
        .phi
        .min(config.group_threshold())
        .min(config.merge_threshold);
    discover_pruned_at(index, config, phi_prune, obs)
}

/// [`discover_motifs_indexed`] with an explicit prune threshold, which must
/// not exceed any decision threshold of `config`; at `phi_prune ≤ 0` every
/// pair is evaluated (the dense oracle of the unit tests).
fn discover_pruned_at(
    index: &MotifIndex,
    config: &MotifConfig,
    phi_prune: f64,
    obs: Option<&PipelineObs>,
) -> Vec<Motif> {
    assert_eq!(
        config.min_observations, index.min_observations,
        "MotifIndex was built with a different eligibility cutoff"
    );
    let _span = obs.map(|o| o.motif_discovery.enter());
    let group_threshold = config.group_threshold();
    let (sparse, _stats) = cor_matrix_pruned(
        &index.profiles,
        &index.sketches,
        &PruneConfig::at_threshold(phi_prune),
        obs,
    );

    let slot = &index.slot;
    let sim = |i: usize, j: usize| -> f32 {
        match (slot[i], slot[j]) {
            (Some(a), Some(b)) => sparse.get(a, b).unwrap_or(PRUNED_SIM),
            _ => 0.0,
        }
    };
    // Membership verdicts near a threshold are decided in f64, never off
    // the rounded f32 (the CondensedMatrix quantization guard).
    let mut exact = ExactChecker::new(&index.profiles, slot);

    // Candidate scan over the survivors only, in lexicographic (row-major
    // upper-triangle) order. Pruned pairs can never be candidates — their
    // dense f32 similarity is below φ_prune ≤ φ and their exact value
    // below φ_prune − margin, so a dense scan rejects them with or without
    // re-verification.
    let mut candidate_pairs: Vec<(usize, usize)> = Vec::new();
    for (a, b, s) in sparse.entries() {
        let (i, j) = (index.eligible[a], index.eligible[b]);
        if let Some(o) = obs {
            o.pairs_evaluated.incr();
            if (s as f64 - config.phi).abs() <= NEAR_THRESHOLD_BAND {
                o.near_phi.incr();
            }
            if (s as f64 - group_threshold).abs() <= NEAR_THRESHOLD_BAND {
                o.near_group.incr();
            }
        }
        if exact.meets(s, i, j, config.phi, obs) {
            candidate_pairs.push((i, j));
            if let Some(o) = obs {
                o.candidate_pairs.incr();
            }
        } else if let Some(o) = obs {
            o.pairs_pruned.incr();
        }
    }

    assemble_motifs(
        index.n_windows,
        candidate_pairs,
        &sim,
        &mut exact,
        config,
        obs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::cor;
    use proptest::prelude::*;

    /// Dense discovery: the indexed path with nothing pruned.
    fn dense_oracle(index: &MotifIndex, config: &MotifConfig) -> Vec<Motif> {
        discover_pruned_at(index, config, 0.0, None)
    }

    /// An evening-shaped window (8 three-hour bins), with variation.
    fn evening(seed: usize) -> Vec<f64> {
        (0..8)
            .map(|b| {
                let base = if b >= 6 { 1_000.0 } else { 10.0 };
                base + ((b * 7 + seed * 13) % 11) as f64
            })
            .collect()
    }

    /// A morning-shaped window.
    fn morning(seed: usize) -> Vec<f64> {
        (0..8)
            .map(|b| {
                let base = if (2..4).contains(&b) { 1_000.0 } else { 10.0 };
                base + ((b * 5 + seed * 17) % 13) as f64
            })
            .collect()
    }

    /// Pure noise windows.
    fn noise(seed: usize) -> Vec<f64> {
        (0..8)
            .map(|b| ((b * 7919 + seed * 104729) % 997) as f64)
            .collect()
    }

    fn refs_for(n: usize) -> Vec<WindowRef> {
        (0..n)
            .map(|i| WindowRef {
                gateway: i / 4,
                week: (i % 4) as u32,
                weekday: Some(Weekday::from_index((i % 7) as u8)),
            })
            .collect()
    }

    #[test]
    fn two_clusters_become_two_motifs() {
        let mut windows: Vec<Vec<f64>> = (0..6).map(evening).collect();
        windows.extend((0..5).map(morning));
        windows.extend((0..4).map(noise));
        let motifs = discover_motifs(&windows, &MotifConfig::default());
        assert!(motifs.len() >= 2, "found {} motifs", motifs.len());
        // The two biggest motifs are the evening and morning clusters.
        assert_eq!(motifs[0].support(), 6);
        assert_eq!(motifs[1].support(), 5);
        let evening_members: Vec<usize> = motifs[0].members.to_vec();
        assert!(evening_members.iter().all(|&i| i < 6));
    }

    #[test]
    fn group_similarity_holds_for_all_pairs() {
        let windows: Vec<Vec<f64>> = (0..8).map(evening).collect();
        let config = MotifConfig::default();
        let motifs = discover_motifs(&windows, &config);
        for m in &motifs {
            for (a, &i) in m.members.iter().enumerate() {
                for &j in &m.members[a + 1..] {
                    let c = cor(&windows[i], &windows[j]);
                    assert!(
                        c >= config.group_threshold() - 1e-6,
                        "pair ({i},{j}) violates group similarity: {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn individual_similarity_holds() {
        let mut windows: Vec<Vec<f64>> = (0..7).map(evening).collect();
        windows.extend((0..7).map(morning));
        let config = MotifConfig::default();
        let motifs = discover_motifs(&windows, &config);
        for m in &motifs {
            for &i in &m.members {
                let has_close = m
                    .members
                    .iter()
                    .any(|&j| j != i && cor(&windows[i], &windows[j]) >= config.phi - 1e-6);
                assert!(has_close, "member {i} has no phi-similar partner");
            }
        }
    }

    #[test]
    fn noise_produces_no_motifs() {
        let windows: Vec<Vec<f64>> = (0..12).map(noise).collect();
        let motifs = discover_motifs(&windows, &MotifConfig::default());
        assert!(
            motifs.iter().all(|m| m.support() <= 3),
            "noise formed a large motif"
        );
    }

    #[test]
    fn support_sorted_descending() {
        let mut windows: Vec<Vec<f64>> = (0..9).map(evening).collect();
        windows.extend((0..4).map(morning));
        let motifs = discover_motifs(&windows, &MotifConfig::default());
        for pair in motifs.windows(2) {
            assert!(pair[0].support() >= pair[1].support());
        }
    }

    #[test]
    fn sparse_windows_excluded() {
        let mut windows: Vec<Vec<f64>> = (0..4).map(evening).collect();
        windows.push(vec![f64::NAN; 8]); // Never joins anything.
        let mut short = vec![f64::NAN; 8];
        short[0] = 1.0;
        windows.push(short);
        let motifs = discover_motifs(&windows, &MotifConfig::default());
        for m in &motifs {
            assert!(m.members.iter().all(|&i| i < 4));
        }
    }

    #[test]
    fn average_pattern_matches_shape() {
        let windows: Vec<Vec<f64>> = (0..5).map(evening).collect();
        let motifs = discover_motifs(&windows, &MotifConfig::default());
        let pattern = motifs[0].average_pattern(&windows);
        assert_eq!(pattern.len(), 8);
        assert!(pattern[7] > pattern[0] * 10.0, "evening bins dominate");
    }

    #[test]
    fn gateway_bookkeeping() {
        let windows: Vec<Vec<f64>> = (0..8).map(evening).collect();
        let refs = refs_for(8);
        let motifs = discover_motifs(&windows, &MotifConfig::default());
        let m = &motifs[0];
        assert_eq!(m.support(), 8);
        assert_eq!(m.gateways(&refs), vec![0, 1]);
        assert!((m.same_gateway_fraction(&refs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weekend_fraction_counts() {
        let windows: Vec<Vec<f64>> = (0..4).map(evening).collect();
        let refs = vec![
            WindowRef {
                gateway: 0,
                week: 0,
                weekday: Some(Weekday::Saturday),
            },
            WindowRef {
                gateway: 0,
                week: 0,
                weekday: Some(Weekday::Sunday),
            },
            WindowRef {
                gateway: 1,
                week: 0,
                weekday: Some(Weekday::Monday),
            },
            WindowRef {
                gateway: 1,
                week: 1,
                weekday: Some(Weekday::Tuesday),
            },
        ];
        let motifs = discover_motifs(&windows, &MotifConfig::default());
        assert_eq!(motifs[0].support(), 4);
        assert!((motifs[0].weekend_fraction(&refs) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn indexed_discovery_matches_dense() {
        let mut windows: Vec<Vec<f64>> = (0..6).map(evening).collect();
        windows.extend((0..5).map(morning));
        windows.extend((0..4).map(noise));
        windows.push(vec![f64::NAN; 8]); // Ineligible window in the mix.
        let configs = [
            MotifConfig::default(),
            MotifConfig {
                phi: 0.6,
                ..MotifConfig::default()
            },
            MotifConfig {
                phi: 0.9,
                merge_threshold: 0.85,
                ..MotifConfig::default()
            },
            // Non-positive merge threshold disables pruning entirely; the
            // pruned path must still agree.
            MotifConfig {
                merge_threshold: -0.5,
                ..MotifConfig::default()
            },
        ];
        let index = MotifIndex::observed(&windows, MotifConfig::default().min_observations, None);
        for config in &configs {
            let dense = dense_oracle(&index, config);
            assert_eq!(
                dense,
                discover_motifs(&windows, config),
                "phi {}",
                config.phi
            );
            let indexed = discover_motifs_indexed(&index, config, None);
            assert_eq!(dense, indexed, "indexed, phi {}", config.phi);
        }
    }

    #[test]
    fn one_index_serves_daily_and_weekly_families() {
        // The satellite: one shared sketch index reused across window
        // families and configs, instead of rebuilding per family.
        let windows: Vec<Vec<f64>> = (0..5).map(evening).chain((0..5).map(morning)).collect();
        let index = MotifIndex::observed(&windows, 3, None);
        assert_eq!(index.n_windows(), 10);
        assert_eq!(index.n_eligible(), 10);
        for phi in [0.6, 0.7, 0.8, 0.9] {
            let config = MotifConfig {
                phi,
                ..MotifConfig::default()
            };
            assert_eq!(
                discover_motifs_indexed(&index, &config, None),
                discover_motifs(&windows, &config),
                "phi {phi}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "eligibility cutoff")]
    fn indexed_discovery_rejects_mismatched_cutoff() {
        let windows: Vec<Vec<f64>> = (0..4).map(evening).collect();
        let index = MotifIndex::observed(&windows, 5, None);
        let _ = discover_motifs_indexed(&index, &MotifConfig::default(), None);
    }

    #[test]
    fn merge_threshold_unifies_similar_motifs() {
        // Two offset but positively-correlated evening variants; with a
        // permissive merge threshold they unify.
        let mut windows: Vec<Vec<f64>> = (0..4).map(evening).collect();
        let late: Vec<Vec<f64>> = (0..4)
            .map(|s| {
                (0..8)
                    .map(|b| {
                        let base = if b >= 5 { 900.0 } else { 15.0 };
                        base + ((b * 3 + s * 7) % 9) as f64
                    })
                    .collect()
            })
            .collect();
        windows.extend(late);
        let strict = discover_motifs(
            &windows,
            &MotifConfig {
                merge_threshold: 0.99,
                ..MotifConfig::default()
            },
        );
        let permissive = discover_motifs(
            &windows,
            &MotifConfig {
                merge_threshold: 0.5,
                ..MotifConfig::default()
            },
        );
        assert!(
            permissive.len() <= strict.len(),
            "permissive merging cannot yield more motifs"
        );
    }

    /// A window sample that may be a NaN hole or a quantized (tie-heavy)
    /// value.
    fn holey_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            5 => 0.0f64..1e7,
            2 => Just(f64::NAN),
            3 => (0u32..4).prop_map(|q| (q * 250) as f64),
        ]
    }

    proptest! {
        /// Sketch-pruned motif discovery returns exactly the motifs of the
        /// dense path — same members, same order — for arbitrary window
        /// sets and thresholds.
        #[test]
        fn pruned_motifs_match_dense(
            data in prop::collection::vec(holey_value(), 40..120),
            len in 6usize..12,
            phi in 0.2f64..0.95,
            merge in 0.1f64..0.9,
        ) {
            let windows: Vec<Vec<f64>> = data.chunks_exact(len).map(|c| c.to_vec()).collect();
            if windows.len() < 2 {
                continue;
            }
            let config = MotifConfig { phi, merge_threshold: merge, ..MotifConfig::default() };
            let index = MotifIndex::observed(&windows, config.min_observations, None);
            prop_assert_eq!(
                dense_oracle(&index, &config),
                discover_motifs_indexed(&index, &config, None)
            );
        }
    }
}
