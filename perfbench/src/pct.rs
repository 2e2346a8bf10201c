//! Percentiles with a sample-count rule.
//!
//! A latency percentile is only reported when at least [`TAIL_MIN`]
//! samples lie strictly beyond it: with fewer, one slow op decides the
//! figure and two runs of the same code disagree.

/// Samples that must lie beyond a reported percentile.
pub const TAIL_MIN: usize = 10;

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank quantile `q` of `samples` (unsorted), together with the
/// number of samples beyond it. `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let r = rank(sorted.len(), q);
    Some((sorted[r], sorted.len() - 1 - r))
}

/// Quantile `q` of `samples`, refused unless at least [`TAIL_MIN`]
/// samples lie beyond it.
pub fn tail_quantile(samples: &[f64], q: f64) -> Result<f64, String> {
    match quantile(samples, q) {
        Some((v, beyond)) if beyond >= TAIL_MIN => Ok(v),
        Some((_, beyond)) => Err(format!(
            "p{:.0} rests on {} samples beyond it out of {} (need {TAIL_MIN})",
            q * 100.0,
            beyond,
            samples.len()
        )),
        None => Err("no samples".to_string()),
    }
}

/// Median (nearest rank) of `samples`; 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).map_or(0.0, |(v, _)| v)
}

/// Repeats of each op that count as its quiet samples.
pub const QUIET_REPEATS: usize = 5;

/// A repeated op list, timed at quiet speed.
#[derive(Debug, Clone, PartialEq)]
pub struct Quiet {
    /// Each op's [`QUIET_REPEATS`] fastest latencies.
    pub samples: Vec<f64>,
    /// Duration of the whole list, every repeat of an op taking the mean of
    /// its quiet samples.
    pub wall_s: f64,
}

/// Quiet figures of a list that runs the same `per_round` ops, each with
/// identical work, round after round; `ms` holds their latencies in list
/// order.
///
/// On a shared machine one and the same op takes anywhere from 1× to 2× its
/// best time, in spells of milliseconds whose share drifts over minutes.
/// Every op meets quiet moments in a run of many rounds, so its fastest few
/// repeats show the code's own speed, which a slower program slows alike.
/// A slowdown that leaves at least [`QUIET_REPEATS`] repeats of every op
/// untouched (a periodic stall, contention that comes and goes, state that
/// builds up over the list) does not reach these figures.
pub fn quiet(ms: &[f64], per_round: usize) -> Quiet {
    let rounds = ms.len().checked_div(per_round).unwrap_or(0);
    let mut samples = Vec::new();
    let mut wall_ms = 0.0;
    for op in 0..per_round.min(ms.len()) {
        let mut repeats: Vec<f64> = ms[op..].iter().step_by(per_round).copied().collect();
        repeats.sort_by(f64::total_cmp);
        repeats.truncate(QUIET_REPEATS);
        wall_ms += repeats.iter().sum::<f64>() / repeats.len() as f64 * rounds as f64;
        samples.extend(repeats);
    }
    Quiet {
        samples,
        wall_s: wall_ms / 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), Some((50.0, 50)));
        assert_eq!(quantile(&s, 0.9), Some((90.0, 10)));
        assert_eq!(quantile(&s, 1.0), Some((100.0, 0)));
        assert_eq!(median(&s), 50.0);
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail_quantile(&s, 0.9), Ok(90.0));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let enough: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(tail_quantile(&enough, 0.9).is_ok());
        let short: Vec<f64> = (0..99).map(f64::from).collect();
        let err = tail_quantile(&short, 0.9).unwrap_err();
        assert!(err.contains("9 samples beyond"), "{err}");
        assert!(tail_quantile(&[], 0.9).is_err());
    }

    #[test]
    fn quiet_keeps_each_ops_fastest_repeats() {
        // Two ops (10 ms and 100 ms) over eight rounds; three rounds ran at
        // half speed.
        let mut ms = Vec::new();
        for round in 0..8 {
            let slow = if [1, 4, 6].contains(&round) { 2.0 } else { 1.0 };
            ms.extend([10.0 * slow, 100.0 * slow]);
        }
        let q = quiet(&ms, 2);
        assert_eq!(q.samples, [vec![10.0; 5], vec![100.0; 5]].concat());
        assert!((q.wall_s - 0.88).abs() < 1e-12, "{}", q.wall_s);
    }

    #[test]
    fn quiet_with_few_rounds_keeps_them_all() {
        let q = quiet(&[3.0, 1.0, 2.0, 4.0], 1);
        assert_eq!(q.samples, [1.0, 2.0, 3.0, 4.0]);
        assert!((q.wall_s - 0.01).abs() < 1e-12);
        assert!(quiet(&[], 3).samples.is_empty());
        assert_eq!(quiet(&[1.0], 0).wall_s, 0.0);
    }

    #[test]
    fn median_needs_twenty_samples() {
        assert!(tail_quantile(&[1.0; 20], 0.5).is_ok());
        assert!(tail_quantile(&[1.0; 19], 0.5).is_err());
    }
}
