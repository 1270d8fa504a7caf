//! Order statistics over measured samples.
//!
//! A failed operation has no latency; it counts as `+∞`, so it can only
//! push a percentile up, never hide behind the successful samples.

/// The latency recorded for an operation that failed: it missed every
/// latency limit.
pub const FAILED: f64 = f64::INFINITY;

/// Nearest-rank percentile `p` (0–100] of `samples`: the smallest value
/// with at least `p`% of the samples at or below it. `FAILED` samples
/// sort last. Returns `None` for an empty sample set.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1) - 1])
}

/// Median by nearest rank (the lower middle for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 50.0)
}

/// The mean, over groups of samples (one group per fit or per window),
/// of each group's nearest-rank percentile `p`; `None` if every group is
/// empty. A group whose percentile lands on a failure makes the mean
/// `+∞`. Where each group runs at one of two speeds (a fit's memory
/// layout, how a burst happens to be split), this moves in proportion to
/// the share of slow groups, while a pooled percentile jumps from one
/// speed to the other.
pub fn mean_percentile(groups: &[Vec<f64>], p: f64) -> Option<f64> {
    let pcts: Vec<f64> = groups.iter().filter_map(|g| nearest_rank(g, p)).collect();
    mean(&pcts)
}

/// Arithmetic mean; `None` for an empty set.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// NDCG@|served| of a served ranking judged against an exact ranking of
/// the same length: an item is relevant iff the exact ranking holds it.
/// 1.0 when the served list holds every exact item, in any order that
/// keeps all of them.
pub fn ndcg_vs_exact(exact: &[u32], served: &[u32]) -> f64 {
    let gain = |rank: usize| 1.0 / ((rank + 2) as f64).log2();
    let ideal: f64 = (0..exact.len()).map(gain).sum();
    if ideal == 0.0 {
        return 1.0;
    }
    let dcg: f64 = served
        .iter()
        .enumerate()
        .filter(|(_, i)| exact.contains(i))
        .map(|(r, _)| gain(r))
        .sum();
    dcg / ideal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndcg_vs_exact_rewards_early_hits() {
        assert_eq!(ndcg_vs_exact(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(ndcg_vs_exact(&[1, 2, 3], &[3, 2, 1]), 1.0);
        assert_eq!(ndcg_vs_exact(&[], &[]), 1.0);
        let early = ndcg_vs_exact(&[1, 2], &[1, 9]);
        let late = ndcg_vs_exact(&[1, 2], &[9, 1]);
        assert!(early > late && late > 0.0);
        assert_eq!(ndcg_vs_exact(&[1, 2], &[8, 9]), 0.0);
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s = [40.0, 10.0, 50.0, 20.0, 30.0];
        assert_eq!(nearest_rank(&s, 20.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 20.1), Some(20.0));
        assert_eq!(nearest_rank(&s, 50.0), Some(30.0));
        assert_eq!(nearest_rank(&s, 95.0), Some(50.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(50.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        // 2 of 20 failed: p90 is still a real sample, p95 is a failure.
        let mut s: Vec<f64> = (1..=18).map(f64::from).collect();
        s.push(FAILED);
        s.push(FAILED);
        assert_eq!(nearest_rank(&s, 90.0), Some(18.0));
        assert_eq!(nearest_rank(&s, 95.0), Some(FAILED));
        assert_eq!(median(&s), Some(10.0));
        // A failure can never lower a percentile.
        let ok: Vec<f64> = (1..=20).map(f64::from).collect();
        for p in [50.0, 90.0, 95.0, 99.0] {
            assert!(nearest_rank(&s, p).unwrap() >= nearest_rank(&ok, p).unwrap());
        }
    }

    #[test]
    fn mean_percentile_averages_each_groups_percentile() {
        let fast = vec![1.0, 2.0, 3.0];
        let slow = vec![10.0, 20.0, 30.0];
        let g = [fast.clone(), slow.clone(), Vec::new()];
        assert_eq!(mean_percentile(&g, 50.0), Some(11.0));
        assert_eq!(mean_percentile(&g, 100.0), Some(16.5));
        // One slow group of four moves the figure a quarter of the way.
        let g = [fast.clone(), fast.clone(), fast.clone(), slow];
        assert_eq!(mean_percentile(&g, 50.0), Some(6.5));
        // A group whose percentile is a failure makes the figure infinite.
        let g = [fast.clone(), vec![1.0, FAILED, FAILED]];
        assert_eq!(mean_percentile(&g, 50.0), Some(FAILED));
        assert_eq!(mean_percentile(&[Vec::new()], 50.0), None);
    }

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn zero_percentile_rejected() {
        nearest_rank(&[1.0], 0.0);
    }
}
