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
//!
//! [`sample_binomial`] turns one position into an exact `Binomial(n, p)`
//! count for the class drivers and cohorts. Its expected cost is O(1) in
//! `n`: BTRS when the mean `n·min(p, 1−p)` is 10 or more, and below that
//! the geometric-gap loop, whose draws are bit-identical to the gap-only
//! sampler that preceded BTRS.

use crate::crng::unit_f64;
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
/// For `p > 1/2` the complement `n − Binomial(n, 1 − p)` is drawn, so the
/// work below always sees `p ≤ 1/2`. Two exact methods split on the mean
/// `n·p` at 10:
///
/// * below it, the geometric-gap method: successive failure-run lengths are
///   sampled as `floor(ln(U) / ln(1 - p))`, one word and one `ln` per
///   success, so `O(n·p + 1)` expected words — cheap in the cohort engine's
///   sparse regime (`n` up to 10⁵⁺ with `n·p` of order 1);
/// * at and above it, Hörmann's transformed rejection with squeeze (BTRS),
///   which reads two words per attempt and accepts within about 1.2
///   attempts on average, whatever `n` is.
///
/// Both are exact for all `n` and `p` — no normal/Poisson approximation.
/// The number of words read varies from draw to draw in both.
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
    if n as f64 * p >= BTRS_MIN_MEAN {
        return btrs(n, p, rng);
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

/// The smallest mean `n·p` (with `p ≤ 1/2`) that [`sample_binomial`] draws
/// by BTRS; Hörmann's constants are validated from 10 up.
const BTRS_MIN_MEAN: f64 = 10.0;

/// BTRS (W. Hörmann, "The generation of binomial random variates", 1993)
/// for `n·p ≥ BTRS_MIN_MEAN` and `0 < p ≤ 1/2`.
///
/// Terminates with probability one: with `n·p ≥ 10` and `p ≤ 1/2`,
/// `n·p·q ≥ 5`, so `b > 6.8`, `a > 0` and `v_r > 0.3` are finite and every
/// attempt with `u` near 0 and `v ≤ v_r` lands in the squeeze (`k` near
/// `n·p`), an event of probability bounded away from 0. A NaN `p` never
/// gets here: `NaN >= BTRS_MIN_MEAN` is false.
fn btrs(n: u64, p: f64, rng: &mut impl rand::RngCore) -> u64 {
    let nf = n as f64;
    let q = 1.0 - p;
    let spq = (nf * p * q).sqrt();
    let b = 1.15 + 2.53 * spq;
    let a = -0.0873 + 0.0248 * b + 0.01 * p;
    let c = nf * p + 0.5;
    let v_r = 0.92 - 4.2 / b;
    let alpha = (2.83 + 5.1 / b) * spq;
    let r = p / q;
    let m = ((nf + 1.0) * p).floor();
    loop {
        let u = unit_f64(rng.next_u64()) - 0.5;
        let v = unit_f64(rng.next_u64());
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + c).floor();
        // Also rejects the one infinite k, at u = -1/2 (us = 0).
        if !(0.0..=nf).contains(&k) {
            continue;
        }
        // (`min`: past 2^53, `nf` may round above n.)
        if us >= 0.07 && v <= v_r {
            return (k as u64).min(n);
        }
        // ln(f(k) / f(m)) for the Binomial pmf f, written with Stirling
        // tails so no term cancels at large n (n up to 2^40 and beyond).
        let bound = (m + 0.5) * ((m + 1.0) / (r * (nf - m + 1.0))).ln()
            + (nf + 1.0) * ((k - m) / (nf - k + 1.0)).ln_1p()
            + (k + 0.5) * (r * (nf - k + 1.0) / (k + 1.0)).ln()
            + stirling_tail(m)
            + stirling_tail(nf - m)
            - stirling_tail(k)
            - stirling_tail(nf - k);
        if (v * alpha / (a / (us * us) + b)).ln() <= bound {
            return (k as u64).min(n);
        }
    }
}

/// `ln(k!) − [(k + ½)·ln(k + 1) − (k + 1) + ½·ln(2π)]`, the error of
/// Stirling's formula for `ln(k!)`: a table below 10, then the series.
fn stirling_tail(k: f64) -> f64 {
    const TABLE: [f64; 10] = [
        0.081_061_466_795_327_2,
        0.041_340_695_955_409_2,
        0.027_677_925_684_998_3,
        0.020_790_672_103_765_09,
        0.016_644_691_189_821_1,
        0.013_876_128_823_070_7,
        0.011_896_709_945_891_7,
        0.010_411_265_261_972_0,
        0.009_255_462_182_712_73,
        0.008_330_563_433_362_87,
    ];
    if k < 10.0 {
        return TABLE[k as usize];
    }
    let x = k + 1.0;
    let x2 = x * x;
    (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / x2) / x2) / x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crng::{CounterRng, Phase};
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

    /// Whether `sample_binomial(n, p)` draws by BTRS (else by gaps).
    fn above_line(n: u64, p: f64) -> bool {
        n as f64 * p.min(1.0 - p) >= BTRS_MIN_MEAN
    }

    /// The exact `Binomial(n, p)` pmf on the window where it exceeds
    /// 1e-20 of its mode: `(first k, pmf values)`, walked out from the
    /// mode by the ratio `f(k+1)/f(k) = (n−k)/(k+1) · p/q` and normalized.
    fn exact_pmf(n: u64, p: f64) -> (u64, Vec<f64>) {
        let r = p / (1.0 - p);
        let mode = (((n as f64 + 1.0) * p).floor() as u64).min(n);
        let mut up = vec![1.0];
        let mut k = mode;
        while k < n && *up.last().unwrap() > 1e-20 {
            up.push(up.last().unwrap() * (n - k) as f64 / (k + 1) as f64 * r);
            k += 1;
        }
        let mut down = Vec::new();
        let (mut k, mut w) = (mode, 1.0);
        while k > 0 && w > 1e-20 {
            w *= k as f64 / (n - k + 1) as f64 / r;
            down.push(w);
            k -= 1;
        }
        let first = mode - down.len() as u64;
        let mut pmf: Vec<f64> = down.into_iter().rev().chain(up).collect();
        let total: f64 = pmf.iter().sum();
        pmf.iter_mut().for_each(|f| *f /= total);
        (first, pmf)
    }

    /// Draws per goodness-of-fit cell.
    const GOF_DRAWS: u64 = 100_000;

    /// Pearson's chi-square statistic of `GOF_DRAWS` draws against the
    /// exact `Binomial(n, p)` law, and its critical value at a 1e-5
    /// false-alarm rate. Adjacent values are pooled until every bin expects
    /// at least 10 draws; the two end bins take the tails. The critical
    /// value is the Wilson–Hilferty approximation to the chi-square
    /// quantile. Draw `i` comes from the fresh position `(key, i, Act)`,
    /// as the class drivers and cohorts draw.
    fn chi_square(n: u64, p: f64, key: u64, draw: impl Fn(&mut CounterRng) -> u64) -> (f64, f64) {
        const MIN_EXPECTED: f64 = 10.0;
        const Z: f64 = 4.265; // upper 1e-5 normal quantile
        let (first, pmf) = exact_pmf(n, p);
        // `edges[j]` is the largest value in bin j; the last bin is open.
        let (mut edges, mut expected) = (Vec::new(), Vec::new());
        let mut acc = 0.0;
        for (i, f) in pmf.iter().enumerate() {
            acc += f * GOF_DRAWS as f64;
            if acc >= MIN_EXPECTED {
                edges.push(first + i as u64);
                expected.push(acc);
                acc = 0.0;
            }
        }
        *expected.last_mut().unwrap() += acc;
        *edges.last_mut().unwrap() = u64::MAX;
        let mut observed = vec![0u64; edges.len()];
        for i in 0..GOF_DRAWS {
            let x = draw(&mut CounterRng::new(key, i, Phase::Act));
            assert!(x <= n, "draw {x} exceeds n = {n}");
            observed[edges.partition_point(|&e| e < x)] += 1;
        }
        let stat = observed
            .iter()
            .zip(&expected)
            .map(|(&o, &e)| (o as f64 - e).powi(2) / e)
            .sum();
        let df = (edges.len() - 1) as f64;
        let h = 2.0 / (9.0 * df);
        (stat, df * (1.0 - h + Z * h.sqrt()).powi(3))
    }

    /// The goodness-of-fit grid: `n·min(p, 1−p)` just below, at and just
    /// above the BTRS line and well above it, for p from 10⁻⁶ to 0.7 (both
    /// sides of the complement switch), plus n = 2^40 at the line and far
    /// above it.
    fn gof_grid() -> Vec<(u64, f64)> {
        let mut grid = Vec::new();
        for mean in [9.9, 10.0, 10.1, 50.0, 5e4] {
            for p in [1e-6, 0.01, 0.3, 0.5, 0.7] {
                // The n whose mean is nearest `mean` on its side of the
                // line: 10 lands on it or just past it.
                let n = mean / f64::min(p, 1.0 - p);
                let n = if mean < BTRS_MIN_MEAN {
                    n.floor()
                } else {
                    n.ceil()
                } as u64;
                grid.push((n, p));
            }
        }
        grid.push((1 << 40, 10.0 / (1u64 << 40) as f64));
        grid.push((1 << 40, 5e4 / (1u64 << 40) as f64));
        grid
    }

    #[test]
    fn binomial_matches_exact_law() {
        // 27 cells at 1e-5 each: a correct sampler fails somewhere with
        // probability below 3e-4 for a fresh key.
        let grid = gof_grid();
        assert_eq!(grid.iter().filter(|&&(n, p)| !above_line(n, p)).count(), 5);
        assert!(grid.iter().any(|&(n, p)| n as f64 * p == BTRS_MIN_MEAN));
        for (cell, &(n, p)) in grid.iter().enumerate() {
            let (stat, crit) =
                chi_square(n, p, 0xB1 + cell as u64, |rng| sample_binomial(n, p, rng));
            assert!(
                stat <= crit,
                "n={n} p={p}: chi-square {stat:.1} > {crit:.1} (above line: {})",
                above_line(n, p)
            );
        }
    }

    #[test]
    fn binomial_law_test_rejects_a_two_percent_mutant() {
        // A sampler that draws with p·1.02 above the line must fail the
        // same test on every cell there.
        let mutant = |n: u64, p: f64, rng: &mut CounterRng| {
            let p = if above_line(n, p) { p * 1.02 } else { p };
            sample_binomial(n, p, rng)
        };
        for (cell, &(n, p)) in gof_grid().iter().enumerate() {
            if !above_line(n, p) {
                continue;
            }
            let (stat, crit) = chi_square(n, p, 0xB1 + cell as u64, |rng| mutant(n, p, rng));
            assert!(
                stat > crit,
                "mutant passes at n={n} p={p}: {stat:.1} <= {crit:.1}"
            );
        }
    }

    /// An `RngCore` that counts the words it hands out and panics past a
    /// budget, so a draw that never terminates fails instead of hanging.
    struct Counted {
        inner: CounterRng,
        words: u64,
        budget: u64,
    }

    impl RngCore for Counted {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            assert!(
                self.words <= self.budget,
                "draw read over {} words",
                self.budget
            );
            self.inner.next_u64()
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {
            unreachable!("sample_binomial reads whole words")
        }
    }

    #[test]
    fn binomial_cost_is_bounded_in_n() {
        // BTRS reads two words per attempt and accepts within ~1.2 attempts;
        // the gap loop reads one word per success plus one, so just under
        // the line about n·p + 1. No draw may read more than 40.
        let cases = [
            (1_000_000u64, 0.5, true),
            (1 << 40, 10.0 / (1u64 << 40) as f64, true),
            (100_000, 1.0 / 3.0, true),
            (1_000_000, 0.999_98, true),
            (20, 0.5, true),
            (1_000, 0.0101, true),
            (1_000, 0.0099, false),
            (99, 0.1, false),
        ];
        for (n, p, btrs) in cases {
            assert_eq!(above_line(n, p), btrs, "n={n} p={p}");
            let mean_cap = if btrs { 3.0 } else { 12.0 };
            let mut total = 0;
            for i in 0..10_000 {
                let mut rng = Counted {
                    inner: CounterRng::new(0xC057, i, Phase::Act),
                    words: 0,
                    budget: 40,
                };
                assert!(sample_binomial(n, p, &mut rng) <= n);
                total += rng.words;
            }
            let mean = total as f64 / 10_000.0;
            assert!(mean <= mean_cap, "n={n} p={p}: {mean} words per draw");
        }
    }
}
