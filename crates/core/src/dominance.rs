//! Dominant devices (Definition 4).
//!
//! A device is *φ-dominant* for its gateway when the correlation similarity
//! between its traffic and the gateway's overall traffic exceeds φ (the
//! paper uses φ = 0.6, with a stricter φ = 0.8 variant). Dominant devices
//! are ranked by descending similarity; Section 6.2 compares this notion
//! against two baselines — ranking devices by ascending Euclidean distance
//! to the gateway series, and by descending total traffic volume — and
//! shows correlation dominance catches low-volume devices that *shape* the
//! gateway's behavior.

use crate::engine::cor_profiled;
use wtts_stats::{euclidean, CorProfile, CorScratch};
use wtts_timeseries::TimeSeries;

/// The paper's dominance threshold.
pub const DOMINANCE_PHI: f64 = 0.6;

/// One φ-dominant device of a gateway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DominantDevice {
    /// Index of the device within the gateway's device list.
    pub device: usize,
    /// Correlation similarity with the gateway's overall traffic.
    pub similarity: f64,
    /// Dominance rank: 0 = most similar ("first dominant").
    pub rank: usize,
}

/// Finds the φ-dominant devices of a gateway, ranked by descending
/// correlation similarity (Definition 4).
///
/// `device_series` holds each device's overall traffic aligned with
/// `gateway_total`. Only significant correlations count (Definition 1
/// returns 0 otherwise).
///
/// Cost model: the gateway total is profiled once per call (one
/// compaction, rank pass and sort over its `n` minutes), each device once
/// (over its `m` finite minutes), and one [`CorScratch`] serves every
/// device. A device's finite minutes are a subset of the total's whenever
/// the total is the sum of its devices, so each pair takes the subset-mask
/// tier of [`wtts_stats::cor_tests_profiled`]: the device's cached ranks,
/// order and tie runs apply verbatim and the total's cached order is only
/// filtered down to the device's minutes, never sorted again — `O(n)` for
/// the filter plus `O(m log m)` for Kendall's count over the device's
/// integer rank keys per device.
///
/// Similarities are bit-identical to calling
/// [`correlation_similarity`](crate::similarity::correlation_similarity)`(total, device)`
/// per device, on any masks (incomparable masks take the fully filtered
/// tier), so the ranking is too.
pub fn dominant_devices(
    gateway_total: &TimeSeries,
    device_series: &[TimeSeries],
    phi: f64,
) -> Vec<DominantDevice> {
    let total = CorProfile::new(gateway_total.values());
    let mut scratch = CorScratch::new();
    let hits: Vec<(usize, f64)> = device_series
        .iter()
        .enumerate()
        .filter_map(|(i, dev)| {
            let device = CorProfile::new(dev.values());
            let sim = cor_profiled(&total, &device, &mut scratch);
            (sim > phi).then_some((i, sim))
        })
        .collect();
    rank_dominants(hits)
}

/// Ranks `(device, similarity)` hits into [`DominantDevice`]s by descending
/// similarity — the ranking half of Definition 4, shared by the batch path
/// above and the streaming-ingest dominance tracker (which computes its
/// similarities incrementally with `OnlinePearson` instead). Equal
/// similarities rank by ascending device index, so the ranking does not
/// depend on the order the hits arrive in.
pub fn rank_dominants(mut hits: Vec<(usize, f64)>) -> Vec<DominantDevice> {
    hits.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite similarity")
            .then(a.0.cmp(&b.0))
    });
    hits.into_iter()
        .enumerate()
        .map(|(rank, (device, similarity))| DominantDevice {
            device,
            similarity,
            rank,
        })
        .collect()
}

/// Devices ranked by ascending Euclidean distance to the gateway series —
/// the first baseline of Section 6.2. Returns device indices, closest first.
pub fn euclidean_ranking(gateway_total: &TimeSeries, device_series: &[TimeSeries]) -> Vec<usize> {
    let mut order: Vec<(usize, f64)> = device_series
        .iter()
        .enumerate()
        .map(|(i, dev)| (i, euclidean(gateway_total.values(), dev.values())))
        .collect();
    order.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distance"));
    order.into_iter().map(|(i, _)| i).collect()
}

/// Devices ranked by descending total traffic volume — the second baseline.
pub fn volume_ranking(device_series: &[TimeSeries]) -> Vec<usize> {
    let mut order: Vec<(usize, f64)> = device_series
        .iter()
        .enumerate()
        .map(|(i, dev)| (i, dev.total()))
        .collect();
    order.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite volume"));
    order.into_iter().map(|(i, _)| i).collect()
}

/// Counts how many correlation-dominant devices appear at the *same rank
/// position* in a baseline ranking (the paper's agreement criterion: "the
/// first device in one ranking is also the first in the second ranking and
/// so on").
pub fn ranking_agreement(dominants: &[DominantDevice], baseline: &[usize]) -> usize {
    dominants
        .iter()
        .filter(|d| baseline.get(d.rank) == Some(&d.device))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a synthetic gateway: device 0 shapes the total, device 1 is a
    /// constant-ish hum, device 2 is noise.
    fn synthetic() -> (TimeSeries, Vec<TimeSeries>) {
        let n = 500;
        let shaper: Vec<f64> = (0..n)
            .map(|i| {
                if (i / 60) % 4 == 3 {
                    50_000.0 + (i % 7) as f64
                } else {
                    100.0
                }
            })
            .collect();
        let hum: Vec<f64> = (0..n).map(|i| 800.0 + (i % 3) as f64).collect();
        let noise: Vec<f64> = (0..n).map(|i| ((i * 7919) % 1000) as f64).collect();
        let d0 = TimeSeries::per_minute(shaper);
        let d1 = TimeSeries::per_minute(hum);
        let d2 = TimeSeries::per_minute(noise);
        let total = d0.add(&d1).add(&d2);
        (total, vec![d0, d1, d2])
    }

    #[test]
    fn shaper_is_first_dominant() {
        let (total, devices) = synthetic();
        let dom = dominant_devices(&total, &devices, DOMINANCE_PHI);
        assert!(!dom.is_empty());
        assert_eq!(dom[0].device, 0);
        assert_eq!(dom[0].rank, 0);
        assert!(dom[0].similarity > 0.95);
    }

    #[test]
    fn ranks_descend_in_similarity() {
        let (total, devices) = synthetic();
        let dom = dominant_devices(&total, &devices, 0.0);
        for pair in dom.windows(2) {
            assert!(pair[0].similarity >= pair[1].similarity);
            assert_eq!(pair[1].rank, pair[0].rank + 1);
        }
    }

    #[test]
    fn strict_phi_prunes() {
        let (total, devices) = synthetic();
        let loose = dominant_devices(&total, &devices, 0.6);
        let strict = dominant_devices(&total, &devices, 0.8);
        assert!(strict.len() <= loose.len());
        for d in &strict {
            assert!(d.similarity > 0.8);
        }
    }

    #[test]
    fn low_volume_shaper_detected_only_by_correlation() {
        // A device with tiny volume but perfectly tracking the gateway's
        // rhythm — the case the paper highlights (~15% of dominants).
        let n = 500;
        let big_flat: Vec<f64> = (0..n).map(|_| 100_000.0).collect();
        let small_shaper: Vec<f64> = (0..n)
            .map(|i| {
                if (i / 30) % 5 == 0 {
                    900.0 + (i % 5) as f64
                } else {
                    10.0
                }
            })
            .collect();
        let d0 = TimeSeries::per_minute(big_flat);
        let d1 = TimeSeries::per_minute(small_shaper);
        let total = d0.add(&d1);
        let devices = vec![d0, d1];

        let dom = dominant_devices(&total, &devices, 0.6);
        assert_eq!(dom.first().map(|d| d.device), Some(1), "shaper dominates");
        // Volume ranking puts the flat heavyweight first instead.
        let vol = volume_ranking(&devices);
        assert_eq!(vol[0], 0);
        assert_eq!(ranking_agreement(&dom, &vol), 0);
    }

    #[test]
    fn euclidean_agrees_on_the_obvious_case() {
        let (total, devices) = synthetic();
        let dom = dominant_devices(&total, &devices, 0.6);
        let euc = euclidean_ranking(&total, &devices);
        // The dominant shaper is also the Euclidean-closest series here.
        assert_eq!(euc[0], dom[0].device);
        assert!(ranking_agreement(&dom, &euc) >= 1);
    }

    #[test]
    fn no_dominants_when_nothing_correlates() {
        let n = 200;
        let total = TimeSeries::per_minute((0..n).map(|i| (i % 13) as f64).collect());
        let unrelated = TimeSeries::per_minute((0..n).map(|i| ((i * 7919) % 17) as f64).collect());
        let dom = dominant_devices(&total, &[unrelated], 0.6);
        assert!(dom.is_empty());
    }

    #[test]
    fn agreement_counts_matching_positions() {
        let dominants = vec![
            DominantDevice {
                device: 4,
                similarity: 0.9,
                rank: 0,
            },
            DominantDevice {
                device: 2,
                similarity: 0.8,
                rank: 1,
            },
        ];
        assert_eq!(ranking_agreement(&dominants, &[4, 2, 0]), 2);
        assert_eq!(ranking_agreement(&dominants, &[4, 0, 2]), 1);
        assert_eq!(ranking_agreement(&dominants, &[0, 1]), 0);
        assert_eq!(ranking_agreement(&dominants, &[4]), 1, "short baseline");
    }

    #[test]
    fn rank_dominants_sorts_descending() {
        let ranked = rank_dominants(vec![(3, 0.7), (1, 0.95), (8, 0.82)]);
        assert_eq!(
            ranked.iter().map(|d| d.device).collect::<Vec<_>>(),
            vec![1, 8, 3]
        );
        assert_eq!(
            ranked.iter().map(|d| d.rank).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn rank_dominants_breaks_ties_by_device_index() {
        let hits = [(5, 0.8), (2, 0.9), (7, 0.8), (0, 0.8), (4, 0.9), (9, 0.7)];
        let expected = rank_dominants(hits.to_vec());
        assert_eq!(
            expected.iter().map(|d| d.device).collect::<Vec<_>>(),
            vec![2, 4, 0, 5, 7, 9]
        );
        // Every rotation and the reversal of every rotation: each tie is
        // offered in both orders.
        for shift in 0..hits.len() {
            let mut permuted = hits.to_vec();
            permuted.rotate_left(shift);
            assert_eq!(rank_dominants(permuted.clone()), expected);
            permuted.reverse();
            assert_eq!(rank_dominants(permuted), expected);
        }
    }

    #[test]
    fn volume_ranking_orders_by_total() {
        let a = TimeSeries::per_minute(vec![1.0; 10]);
        let b = TimeSeries::per_minute(vec![5.0; 10]);
        let c = TimeSeries::per_minute(vec![3.0; 10]);
        assert_eq!(volume_ranking(&[a, b, c]), vec![1, 2, 0]);
    }
}
