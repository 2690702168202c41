//! The arithmetic every reported figure goes through: medians, nearest-rank
//! percentiles, the segment-median rate of a timed region, and open-loop lateness.

/// Median of the samples (the upper middle for an even count). Panics on an
/// empty slice: a metric with no sample is a harness bug, not a zero.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Nearest-rank percentile (`p` in 0..=100) of already sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts latencies and returns `(p50, p99)`.
pub fn p50_p99(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (percentile(&samples, 50.0), percentile(&samples, 99.0))
}

/// Cuts a timed region into `segments` equal-count parts and returns each part's
/// rate in completions per second. `completions` holds the time (seconds since
/// the region began) at which each unit of work completed, ascending; segment
/// `k` runs from the completion that closed segment `k-1` (or the region start)
/// to its own last completion.
pub fn segment_rates(completions: &[f64], segments: usize) -> Vec<f64> {
    assert!(segments >= 1 && completions.len() >= segments);
    let mut rates = Vec::with_capacity(segments);
    let mut start_time = 0.0;
    let mut start_index = 0usize;
    for k in 1..=segments {
        let end_index = completions.len() * k / segments;
        let end_time = completions[end_index - 1];
        let span = (end_time - start_time).max(f64::MIN_POSITIVE);
        rates.push((end_index - start_index) as f64 / span);
        start_time = end_time;
        start_index = end_index;
    }
    rates
}

/// Number of equal-count segments a timed region is cut into.
pub const SEGMENTS: usize = 5;

/// When each block of a chain was connected, given when each was first
/// accepted (`None`: the acceptance went unreported — the engine adopts a
/// stashed orphan silently when its parent arrives). A block connects once it
/// and all its ancestors are there, so the connect time is the running maximum
/// of the acceptance times along the chain.
pub fn connect_times(first_accepted: impl IntoIterator<Item = Option<f64>>) -> Vec<f64> {
    let mut latest = 0.0f64;
    first_accepted
        .into_iter()
        .map(|at| {
            latest = latest.max(at.unwrap_or(0.0));
            latest
        })
        .collect()
}

/// How late an open-loop submit ran: the time it was actually sent minus the
/// time it was due, never negative (an early sender waits for the due time).
pub fn lateness(due: f64, sent: f64) -> f64 {
    (sent - due).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_upper_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        // 200 samples: exactly two lie beyond the 99th percentile.
        let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 99.0), 198.0);
        assert_eq!(p50_p99(vec![5.0, 1.0, 3.0]), (3.0, 5.0));
    }

    #[test]
    fn segment_rates_split_by_count_not_by_time() {
        // Ten completions: the first five take 1 s, the last five take 4 s.
        let completions = [0.2, 0.4, 0.6, 0.8, 1.0, 1.8, 2.6, 3.4, 4.2, 5.0];
        let rates = segment_rates(&completions, 2);
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 1.25).abs() < 1e-9);
        // Five segments of two: a stall inside one segment moves only that
        // segment, so the median ignores it.
        let stalled = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 5.0, 5.1, 5.2, 5.3];
        let rates = segment_rates(&stalled, SEGMENTS);
        assert!((median(&rates) - 10.0).abs() < 1e-6, "{rates:?}");
        assert!(
            (rates[SEGMENTS - 1] / rates[0] - 1.0).abs() < 1e-6,
            "{rates:?}"
        );
    }

    #[test]
    fn a_block_connects_when_its_last_ancestor_arrives() {
        // Block 2 arrived early (a side branch that won later), block 3's
        // acceptance went unreported (adopted from the orphan stash).
        let firsts = [Some(1.0), Some(5.0), Some(2.0), None, Some(7.0)];
        assert_eq!(connect_times(firsts), vec![1.0, 5.0, 5.0, 5.0, 7.0]);
    }

    #[test]
    fn lateness_counts_only_delay() {
        assert_eq!(lateness(1.0, 1.5), 0.5);
        assert_eq!(lateness(1.0, 0.5), 0.0);
    }
}
