//! Deterministic seed derivation.
//!
//! Every seed in a simulation — one per Monte-Carlo trial, and inside a
//! trial one key per job, class, cohort set and jammer — is derived from a
//! single master seed via a splittable [`SeedSeq`]. Printing the master
//! seed makes any experiment exactly replayable, including across threads,
//! because derived seeds depend only on `(master, label, index)` and never
//! on scheduling order.
//!
//! Inside a trial the engine draws only from counter-based positions
//! ([`crate::crng::CounterRng`] at `(key, slot, phase)`; DESIGN.md §3f).
//! The sequential ChaCha8 stream of [`SeedSeq::rng`] is for work outside
//! the slot loop — workload and instance generation — and the crate's
//! `clippy.toml` keeps that type out of everything else.

use rand_chacha::rand_core::SeedableRng;

/// Labels for the independent random-stream domains of one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamLabel {
    /// Per-job protocol randomness; index = job id.
    Job,
    /// The jamming adversary's per-slot draws (index 0).
    Jammer,
    /// Per-trial master seeds in a Monte-Carlo batch; index = trial number.
    Trial,
    /// Workload/instance generation.
    Workload,
    /// Aggregate cohort draws under [`crate::engine::Fidelity::Cohort`]
    /// (index 0).
    Cohort,
    /// Per-class counter-RNG keys for phase-synchronized aggregate classes
    /// ([`crate::classes::ClassDriver`]); index = the class grouping key.
    /// Class draws are made from [`crate::crng::CounterRng`] streams keyed
    /// on `(class_seed, slot, phase)`, so they are replayable and
    /// shard/partition-invariant by construction.
    Class,
    /// Anything else; caller supplies a unique discriminant via `index`.
    Misc,
}

impl StreamLabel {
    fn tag(self) -> u64 {
        match self {
            StreamLabel::Job => 0x4a4f42,      // "JOB"
            StreamLabel::Jammer => 0x4a414d,   // "JAM"
            StreamLabel::Trial => 0x545249,    // "TRI"
            StreamLabel::Workload => 0x574b4c, // "WKL"
            StreamLabel::Cohort => 0x434f48,   // "COH"
            StreamLabel::Class => 0x434c53,    // "CLS"
            StreamLabel::Misc => 0x4d4953,     // "MIS"
        }
    }
}

/// A splittable deterministic seed sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSeq {
    master: u64,
}

impl SeedSeq {
    /// Wrap a master seed.
    pub fn new(master: u64) -> Self {
        Self { master }
    }

    /// The wrapped master seed (print this for replayability).
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derive the 64-bit child seed for `(label, index)`.
    ///
    /// Uses SplitMix64-style finalization over the mixed inputs, which is
    /// cheap, stateless, and gives well-distributed, independent-looking
    /// child seeds for distinct inputs.
    pub fn derive(&self, label: StreamLabel, index: u64) -> u64 {
        let mut z = self
            .master
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(label.tag().wrapping_mul(0xbf58476d1ce4e5b9))
            .wrapping_add(index.wrapping_mul(0x94d049bb133111eb));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A sequential ChaCha8 stream for `(label, index)`, for draws made
    /// outside the slot loop (workload and instance generation).
    #[allow(clippy::disallowed_types)]
    pub fn rng(&self, label: StreamLabel, index: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(self.derive(label, index))
    }

    /// The `SeedSeq` governing one Monte-Carlo trial.
    pub fn trial(&self, trial: u64) -> SeedSeq {
        SeedSeq::new(self.derive(StreamLabel::Trial, trial))
    }

    /// The per-trial counter-RNG key for job `id`.
    ///
    /// This is the `key` fed to [`crate::crng::CounterRng`] for every
    /// protocol-visible draw the job makes; together with a slot number
    /// and a [`crate::crng::Phase`] it pins down any single draw the
    /// engine ever made for that job (see DESIGN.md §3f).
    pub fn job_key(&self, id: u64) -> u64 {
        self.derive(StreamLabel::Job, id)
    }
}

/// Draw from `Binomial(n, p)` — the number of successes in `n` independent
/// Bernoulli(`p`) coins — without a distributions dependency.
///
/// Uses the geometric-gap method: successive failure-run lengths are sampled
/// as `floor(ln(U) / ln(1 - p))`, so the cost is `O(n·p + 1)` expected draws
/// rather than `n`. That is exactly the cohort engine's regime (`n` up to
/// 10⁵⁺ with `n·p` of order 1); for `p > 1/2` the complement
/// `n − Binomial(n, 1 − p)` keeps the cost bounded. The method is exact for
/// all `n` and `p` — no normal/Poisson approximation thresholds.
pub fn sample_binomial(n: u64, p: f64, rng: &mut impl rand::RngCore) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if p > 0.5 {
        return n - sample_binomial(n, 1.0 - p, rng);
    }
    // U uniform on the half-open (0, 1]: zero is excluded so ln(U) is
    // finite, and U = 1 (gap 0, back-to-back successes) stays reachable.
    let mut unit_open = || (((rng.next_u64() >> 11) + 1) as f64) * (1.0 / (1u64 << 53) as f64);
    let ln_q = (1.0 - p).ln(); // finite and < 0 for 0 < p <= 0.5
    let mut successes = 0u64;
    let mut pos = 0u64;
    loop {
        let gap = (unit_open().ln() / ln_q).floor();
        // A huge gap can exceed u64 range; saturate past n and stop.
        pos = pos.saturating_add(if gap >= u64::MAX as f64 {
            u64::MAX
        } else {
            gap as u64
        });
        if pos >= n {
            return successes;
        }
        successes += 1;
        pos += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn derivation_is_deterministic() {
        let a = SeedSeq::new(7).derive(StreamLabel::Job, 3);
        let b = SeedSeq::new(7).derive(StreamLabel::Job, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_labels_and_indices_differ() {
        let s = SeedSeq::new(7);
        let mut seen = std::collections::HashSet::new();
        for label in [
            StreamLabel::Job,
            StreamLabel::Jammer,
            StreamLabel::Trial,
            StreamLabel::Workload,
            StreamLabel::Cohort,
            StreamLabel::Class,
            StreamLabel::Misc,
        ] {
            for idx in 0..100 {
                assert!(
                    seen.insert(s.derive(label, idx)),
                    "collision at {label:?}/{idx}"
                );
            }
        }
    }

    #[test]
    fn rng_streams_are_reproducible() {
        let mut r1 = SeedSeq::new(99).rng(StreamLabel::Job, 5);
        let mut r2 = SeedSeq::new(99).rng(StreamLabel::Job, 5);
        for _ in 0..16 {
            assert_eq!(r1.next_u64(), r2.next_u64());
        }
    }

    #[test]
    fn trial_seeds_chain() {
        let root = SeedSeq::new(1);
        assert_ne!(root.trial(0).master(), root.trial(1).master());
        assert_eq!(root.trial(4).master(), root.trial(4).master());
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = SeedSeq::new(3).rng(StreamLabel::Cohort, 0);
        assert_eq!(sample_binomial(0, 0.5, &mut rng), 0);
        assert_eq!(sample_binomial(100, 0.0, &mut rng), 0);
        assert_eq!(sample_binomial(100, -0.5, &mut rng), 0);
        assert_eq!(sample_binomial(100, 1.0, &mut rng), 100);
        assert_eq!(sample_binomial(100, 1.5, &mut rng), 100);
        for _ in 0..1_000 {
            assert!(sample_binomial(7, 0.3, &mut rng) <= 7);
        }
    }

    #[test]
    fn binomial_moments_match() {
        // Sample mean and variance within 5 sigma of n·p and n·p·q, on both
        // sides of the p = 1/2 complement switch and in the sparse regime
        // the cohort engine lives in (n·p ≈ 1 with huge n).
        let mut rng = SeedSeq::new(17).rng(StreamLabel::Cohort, 0);
        for (n, p) in [(40u64, 0.25f64), (40, 0.75), (100_000, 1e-5), (9, 0.5)] {
            let trials = 40_000u64;
            let (mut sum, mut sum_sq) = (0f64, 0f64);
            for _ in 0..trials {
                let x = sample_binomial(n, p, &mut rng) as f64;
                sum += x;
                sum_sq += x * x;
            }
            let mean = sum / trials as f64;
            let var = sum_sq / trials as f64 - mean * mean;
            let (m, v) = (n as f64 * p, n as f64 * p * (1.0 - p));
            let mean_tol = 5.0 * (v / trials as f64).sqrt();
            assert!(
                (mean - m).abs() < mean_tol,
                "mean {mean} vs {m} (n={n} p={p})"
            );
            // Variance-of-variance bound is loose; 15% is ample at 40k.
            assert!(
                (var - v).abs() < 0.15 * v.max(0.5),
                "var {var} vs {v} (n={n} p={p})"
            );
        }
    }
}
