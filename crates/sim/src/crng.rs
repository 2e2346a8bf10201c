//! Counter-based randomness for the engine hot path.
//!
//! Every protocol-visible draw in the engine is produced by a
//! Philox-style counter generator keyed on `(job_key, slot, phase)`,
//! where `job_key` is derived from the trial seed and job id by
//! [`SeedSeq::job_key`](crate::rng::SeedSeq::job_key). A draw is a pure
//! function of its position — no stream state is stored per job — which
//! buys three properties the sequential-stream design could not offer:
//!
//! 1. **Batching.** The vectorized slot kernel
//!    ([`Fidelity::Vectorized`](crate::engine::Fidelity)) evaluates
//!    thousands of independent Bernoulli draws per slot without
//!    materializing per-job generators.
//! 2. **Order independence.** No draw depends on any other draw, so the
//!    order (or partition) in which jobs are visited cannot change a
//!    result.
//! 3. **O(1) replay.** Any `(trial, job, slot)` decision can be
//!    recomputed after the fact — see [`replay_bernoulli`] and
//!    [`replay_oneshot`] — without re-running the trial.
//!
//! The block cipher is Philox2x64-10 (Salmon et al., SC'11 "Parallel
//! random numbers: as easy as 1, 2, 3"), hand-rolled here because the
//! vendored `rand` is deliberately minimal. Ten rounds is the
//! recommended-strength variant; the 128-bit counter gives each
//! `(slot, phase, block)` position its own independent block.

use rand::RngCore;

/// First Philox2x64 round multiplier (Random123 reference constants).
const PHILOX_M: u64 = 0xD2B7_4407_B1CE_6E93;
/// Weyl sequence increment applied to the key each round.
const PHILOX_W: u64 = 0x9E37_79B9_7F4A_7C15;
/// Round count of the recommended-strength Philox2x64-10 variant.
const PHILOX_ROUNDS: u32 = 10;

/// One Philox2x64-10 block: encrypt a 128-bit counter under a 64-bit
/// key, producing two statistically independent 64-bit outputs.
#[inline]
#[must_use]
pub fn philox2x64(mut ctr: [u64; 2], mut key: u64) -> [u64; 2] {
    for _ in 0..PHILOX_ROUNDS {
        let prod = u128::from(ctr[0]) * u128::from(PHILOX_M);
        let hi = (prod >> 64) as u64;
        let lo = prod as u64;
        ctr = [hi ^ key ^ ctr[1], lo];
        key = key.wrapping_add(PHILOX_W);
    }
    ctr
}

/// Which protocol callback a draw belongs to.
///
/// Each phase owns a disjoint region of the counter space, so a
/// callback's draws never alias another callback's draws in the same
/// slot no matter how many words either consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum Phase {
    /// Draws made by `Protocol::on_activate` (slot = release slot).
    Activate = 0,
    /// Draws made by `Protocol::act`.
    Act = 1,
    /// Draws made by `Protocol::on_feedback`.
    Feedback = 2,
}

/// Bits reserved at the top of the counter's high word for the phase
/// tag, leaving 2^61 blocks (2^62 output words) per phase per slot.
const PHASE_SHIFT: u32 = 61;

/// A positioned view into the counter stream: an [`RngCore`] that
/// yields the draw sequence for one `(job, slot, phase)` position.
///
/// Construction is free (no rounds are run until the first draw) and
/// the generator carries no heap state, so the engine builds one on the
/// stack per protocol callback. Two `CounterRng`s at the same position
/// yield identical sequences; any difference in key, slot, or phase
/// yields independent sequences.
#[derive(Debug, Clone)]
pub struct CounterRng {
    key: u64,
    slot: u64,
    phase_base: u64,
    block: u64,
    spare: Option<u64>,
}

impl CounterRng {
    /// Position a generator at `(key, slot, phase)`.
    #[inline]
    #[must_use]
    pub fn new(key: u64, slot: u64, phase: Phase) -> Self {
        Self {
            key,
            slot,
            phase_base: (phase as u64) << PHASE_SHIFT,
            block: 0,
            spare: None,
        }
    }
}

impl RngCore for CounterRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        if let Some(word) = self.spare.take() {
            return word;
        }
        let out = philox2x64([self.slot, self.phase_base | self.block], self.key);
        self.block += 1;
        self.spare = Some(out[1]);
        out[0]
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// The first raw 64-bit word of the `(key, slot, phase)` position —
/// exactly what a fresh [`CounterRng`]'s first `next_u64` returns.
#[inline]
#[must_use]
pub fn draw(key: u64, slot: u64, phase: Phase) -> u64 {
    philox2x64([slot, (phase as u64) << PHASE_SHIFT], key)[0]
}

/// Replay a Bernoulli(`p`) transmission decision made in `act` at
/// `slot` by a job with per-trial key `key`.
///
/// Bit-identical to `CounterRng::new(key, slot, Phase::Act).gen_bool(p)`
/// — the formula below mirrors the vendored `Rng::gen_bool` exactly
/// (53-bit mantissa draw compared against `p`). This is the pure
/// function the vectorized kernel evaluates in bulk, and the O(1)
/// replay entry point for probe/debug tooling.
#[inline]
#[must_use]
pub fn replay_bernoulli(key: u64, slot: u64, p: f64) -> bool {
    let x = draw(key, slot, Phase::Act);
    unit_f64(x) < p
}

/// Replay the transmission slot chosen at activation by a one-shot
/// protocol (UNIFORM with k = 1) released at `release` with window
/// `window`: returns the absolute slot of its single transmission.
///
/// Bit-identical to the engine path, where `on_activate` draws
/// `gen_range(0..window)` from `CounterRng::new(key, release,
/// Phase::Activate)` (the vendored `gen_range` reduces `next_u64()`
/// modulo the span).
#[inline]
#[must_use]
pub fn replay_oneshot(key: u64, release: u64, window: u64) -> u64 {
    release + draw(key, release, Phase::Activate) % window
}

/// Map a raw word to the unit interval the way the vendored
/// `Rng::gen_bool` does: take the top 53 bits as an f64 in `[0, 1)`.
#[inline]
#[must_use]
pub fn unit_f64(x: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn philox_known_answer_is_stable() {
        // Pinned outputs: any change to rounds/constants breaks every
        // stored seed's realization, which DESIGN.md §3f forbids
        // within a release line. Values are self-generated but pinned.
        assert_eq!(
            philox2x64([0, 0], 0),
            [0xCA00_A045_9843_D731, 0x66C2_4222_C9A8_45B5],
            "philox2x64([0,0], 0) drifted"
        );
        assert_eq!(
            philox2x64([0xDEAD_BEEF, 42], 0x1234_5678_9ABC_DEF0),
            [0x0BBA_E58E_E72D_B185, 0xFB54_0C62_C60D_4DC1],
            "philox2x64 drifted on a nonzero position"
        );
    }

    #[test]
    fn same_position_same_sequence() {
        let mut a = CounterRng::new(7, 42, Phase::Act);
        let mut b = CounterRng::new(7, 42, Phase::Act);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn positions_are_independent() {
        let base: Vec<u64> = {
            let mut r = CounterRng::new(1, 1, Phase::Act);
            (0..4).map(|_| r.next_u64()).collect()
        };
        for (key, slot, phase) in [
            (2u64, 1u64, Phase::Act),
            (1, 2, Phase::Act),
            (1, 1, Phase::Activate),
            (1, 1, Phase::Feedback),
        ] {
            let mut r = CounterRng::new(key, slot, phase);
            let other: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
            assert_ne!(base, other, "({key}, {slot}, {phase:?}) collided");
        }
    }

    #[test]
    fn draw_matches_first_word() {
        let mut r = CounterRng::new(11, 13, Phase::Feedback);
        assert_eq!(r.next_u64(), draw(11, 13, Phase::Feedback));
    }

    #[test]
    fn replay_bernoulli_matches_gen_bool() {
        for key in 0..64u64 {
            for slot in [0u64, 1, 100, u64::MAX - 1] {
                for p in [0.0, 0.01, 0.5, 0.99, 1.0] {
                    let mut r = CounterRng::new(key, slot, Phase::Act);
                    assert_eq!(r.gen_bool(p), replay_bernoulli(key, slot, p));
                }
            }
        }
    }

    #[test]
    fn replay_oneshot_matches_gen_range() {
        for key in 0..64u64 {
            for (release, window) in [(0u64, 1u64), (5, 7), (1000, 4096)] {
                let mut r = CounterRng::new(key, release, Phase::Activate);
                let offset = r.gen_range(0..window);
                assert_eq!(release + offset, replay_oneshot(key, release, window));
            }
        }
    }

    #[test]
    fn fill_bytes_is_le_prefix_of_words() {
        let mut a = CounterRng::new(3, 9, Phase::Act);
        let mut buf = [0u8; 12];
        a.fill_bytes(&mut buf);
        let mut b = CounterRng::new(3, 9, Phase::Act);
        let w0 = b.next_u64().to_le_bytes();
        let w1 = b.next_u64().to_le_bytes();
        assert_eq!(&buf[..8], &w0);
        assert_eq!(&buf[8..], &w1[..4]);
    }

    #[test]
    fn bernoulli_rate_is_calibrated() {
        // 2^14 positions at p = 0.3: the hit rate must be within a few
        // standard deviations (sigma ~ 0.0036) of p.
        let n = 1u64 << 14;
        let hits = (0..n).filter(|&s| replay_bernoulli(99, s, 0.3)).count();
        #[allow(clippy::cast_precision_loss)]
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate} far from 0.3");
    }
}
