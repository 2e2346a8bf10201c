//! The contention calculus of Section 2.1.
//!
//! The **contention** of slot `t` is `C(t) = Σ_j p_j(t)`, the sum of the
//! broadcast probabilities of all jobs present in the slot. Lemma 2: when
//! every `p_i(t) ≤ 1/2`,
//!
//! ```text
//!   C(t) / e^{2 C(t)}  ≤  p_suc(t)  ≤  2 C(t) / e^{C(t)}
//! ```
//!
//! so constant contention means constant success probability, sub-constant
//! contention means success probability `Θ(C)`, and super-constant
//! contention kills the slot exponentially fast (Corollary 3). Experiment
//! E1 measures these bounds empirically.

/// Lemma 1 (folklore): for `0 ≤ x < 1`, `e^{-x/(1-x)} ≤ 1 - x ≤ e^{-x}`.
/// Returns `(lower, upper)` for the middle quantity `1 - x`.
pub fn lemma1_bounds(x: f64) -> (f64, f64) {
    assert!((0.0..1.0).contains(&x), "x must be in [0,1)");
    ((-x / (1.0 - x)).exp(), (-x).exp())
}

/// Lemma 2's bounds on the per-slot success probability given contention
/// `c`, valid when every individual probability is at most 1/2. Returns
/// `(lower, upper) = (c·e^{-2c}, 2c·e^{-c})`.
pub fn success_prob_bounds(c: f64) -> (f64, f64) {
    assert!(c >= 0.0, "contention is a sum of probabilities");
    (c * (-2.0 * c).exp(), 2.0 * c * (-c).exp())
}

/// The exact probability that **exactly one** of the independent
/// transmitters fires: `Σ_i p_i Π_{j≠i} (1 - p_j)`.
///
/// Computed in one pass via the product of `(1 - p_j)` and the sum of
/// odds `p_i / (1 - p_i)`, with an `O(n)` fallback handling `p_i = 1`.
pub fn exact_success_prob(probs: &[f64]) -> f64 {
    for &p in probs {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    }
    let ones = probs.iter().filter(|&&p| p == 1.0).count();
    match ones {
        0 => {
            let prod: f64 = probs.iter().map(|&p| 1.0 - p).product();
            let odds: f64 = probs.iter().map(|&p| p / (1.0 - p)).sum();
            prod * odds
        }
        // Exactly one certain transmitter: success iff everyone else stays
        // silent.
        1 => probs
            .iter()
            .filter(|&&p| p != 1.0)
            .map(|&p| 1.0 - p)
            .product(),
        // Two certain transmitters always collide.
        _ => 0.0,
    }
}

/// The contention of a slot: the plain sum of broadcast probabilities.
pub fn contention(probs: &[f64]) -> f64 {
    probs.iter().sum()
}

/// Check Lemma 2 numerically for a uniform population: `n` jobs each
/// transmitting with probability `p ≤ 1/2`. Returns
/// `(lower, exact, upper)`; the lemma asserts `lower ≤ exact ≤ upper`.
pub fn lemma2_check(n: usize, p: f64) -> (f64, f64, f64) {
    assert!(p <= 0.5, "Lemma 2 requires p_i <= 1/2");
    let c = p * n as f64;
    let (lo, hi) = success_prob_bounds(c);
    let exact = n as f64 * p * (1.0 - p).powi(n as i32 - 1);
    (lo, exact, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma1_sandwich() {
        for &x in &[0.0, 0.1, 0.25, 0.5, 0.9, 0.99] {
            let (lo, hi) = lemma1_bounds(x);
            let mid = 1.0 - x;
            assert!(lo <= mid + 1e-15 && mid <= hi + 1e-15, "x={x}");
        }
    }

    #[test]
    fn lemma2_sandwich_over_grid() {
        // Sweep population size and probability; the exact singleton-success
        // probability must respect the paper's bounds whenever p <= 1/2.
        for &n in &[1usize, 2, 4, 16, 64, 256, 1024] {
            for &p in &[0.001, 0.01, 0.1, 0.25, 0.5] {
                let (lo, exact, hi) = lemma2_check(n, p);
                assert!(
                    lo <= exact + 1e-12 && exact <= hi + 1e-12,
                    "n={n} p={p}: {lo} <= {exact} <= {hi}"
                );
            }
        }
    }

    #[test]
    fn exact_success_prob_basics() {
        assert_eq!(exact_success_prob(&[]), 0.0);
        assert!((exact_success_prob(&[0.3]) - 0.3).abs() < 1e-15);
        // Two jobs at p and q: p(1-q) + q(1-p).
        let e = exact_success_prob(&[0.2, 0.5]);
        assert!((e - (0.2 * 0.5 + 0.5 * 0.8)).abs() < 1e-15);
    }

    #[test]
    fn certain_transmitters() {
        assert_eq!(exact_success_prob(&[1.0]), 1.0);
        assert!((exact_success_prob(&[1.0, 0.25]) - 0.75).abs() < 1e-15);
        assert_eq!(exact_success_prob(&[1.0, 1.0]), 0.0);
        assert_eq!(exact_success_prob(&[1.0, 1.0, 0.3]), 0.0);
    }

    #[test]
    fn high_contention_kills_success() {
        // Corollary 3 third bullet: with C = 20 the success probability is
        // essentially zero.
        let probs = vec![0.5; 40]; // C = 20
        assert!(exact_success_prob(&probs) < 1e-5);
        let (_, hi) = success_prob_bounds(20.0);
        assert!(hi < 1e-7);
    }

    #[test]
    fn low_contention_linear_regime() {
        // Corollary 3 second bullet: C < 1 gives p_suc = Θ(C).
        let probs = vec![0.001; 100]; // C = 0.1
        let exact = exact_success_prob(&probs);
        assert!(exact > 0.09 && exact < 0.1, "exact={exact}");
    }

    #[test]
    fn contention_adds_probabilities() {
        assert!((contention(&[0.1, 0.2, 0.3]) - 0.6).abs() < 1e-15);
    }
}
