//! Binary exponential backoff (the classic randomized backoff of
//! Metcalfe–Boggs Ethernet and IEEE 802.11).
//!
//! On activation the job transmits immediately. After its `k`-th failed
//! attempt it draws a uniform delay from `{0, …, min(2^k, cap) − 1}` slots
//! and retries. The engine retires the job at its deadline — BEB itself has
//! no notion of one, which is exactly the unfairness the paper targets:
//! "a newly-arrived player may get to send its message quickly, ahead of
//! players that arrived previously … and ratcheted down their broadcast
//! probabilities."

use dcr_sim::engine::{Action, JobCtx, Protocol, Wake};
use dcr_sim::message::Payload;
use dcr_sim::slot::Feedback;
use rand::{Rng, RngCore};
use serde::{DeError, Deserialize, Serialize, Value};

/// The BEB protocol for one job.
///
/// The retry slot is drawn the moment a collision is reported, so the job
/// knows its next attempt in advance and `next_wake` lets the engine sleep
/// it through the backoff gap.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BinaryExponentialBackoff {
    /// Number of failed attempts so far.
    attempts: u32,
    /// Local slot of the next transmission attempt.
    next_tx: u64,
    /// Cap on the backoff window (802.11 uses 1024; `u64::MAX/2` ≈ none).
    cap: u64,
    transmitted_this_slot: bool,
    succeeded: bool,
}

impl BinaryExponentialBackoff {
    /// BEB with the given backoff-window cap (must be a power of two).
    pub fn with_cap(cap: u64) -> Self {
        assert!(cap.is_power_of_two());
        Self {
            attempts: 0,
            next_tx: 0,
            cap,
            transmitted_this_slot: false,
            succeeded: false,
        }
    }

    /// 802.11-flavoured default: window capped at 1024.
    pub fn new() -> Self {
        Self::with_cap(1024)
    }

    /// Failed attempts so far (for tests).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Current backoff window size `min(2^attempts, cap)`.
    fn window(&self) -> u64 {
        1u64.checked_shl(self.attempts)
            .map_or(self.cap, |w| w.min(self.cap))
    }

    /// Factory closure for [`dcr_sim::engine::Engine::add_jobs`].
    pub fn factory(cap: u64) -> impl FnMut(&dcr_sim::job::JobSpec) -> Box<dyn Protocol> {
        move |_spec| Box::new(Self::with_cap(cap))
    }
}

impl Default for BinaryExponentialBackoff {
    fn default() -> Self {
        Self::new()
    }
}

impl Protocol for BinaryExponentialBackoff {
    fn act(&mut self, ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
        self.transmitted_this_slot = false;
        if self.succeeded || ctx.local_time < self.next_tx {
            // BEB reacts only to its own collisions; it sleeps through the
            // backoff gap (no carrier sensing in this model).
            return Action::Sleep;
        }
        self.transmitted_this_slot = true;
        Action::Transmit(Payload::Data(ctx.id))
    }

    fn on_feedback(&mut self, ctx: &JobCtx, fb: &Feedback, rng: &mut dyn RngCore) {
        if !self.transmitted_this_slot {
            return;
        }
        match fb {
            Feedback::Success { src, payload } if *src == ctx.id && payload.is_data() => {
                self.succeeded = true;
            }
            _ => {
                // Collision (or jam): back off. Draw the retry delay now so
                // the next attempt slot is known in advance.
                self.attempts += 1;
                let w = self.window();
                self.next_tx = ctx.local_time + 1 + rng.gen_range(0..w);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.succeeded
    }

    fn tx_probability(&self, _ctx: &JobCtx) -> Option<f64> {
        // Expected a-priori probability of transmitting in a slot of the
        // current backoff window.
        if self.succeeded {
            Some(0.0)
        } else if self.attempts == 0 {
            Some(1.0)
        } else {
            Some(1.0 / self.window() as f64)
        }
    }

    fn next_wake(&self, ctx: &JobCtx) -> Option<Wake> {
        if self.succeeded {
            Some(Wake::NEVER)
        } else if self.next_tx > ctx.local_time {
            Some(Wake::Asleep(self.next_tx))
        } else {
            // An attempt is due this slot or just happened; its feedback
            // (and any re-draw) lands before the next poll.
            Some(Wake::Asleep(ctx.local_time + 1))
        }
    }

    fn save_state(&self) -> Option<Value> {
        Some(self.to_value())
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let saved = Self::from_value(state)?;
        if !saved.cap.is_power_of_two() {
            return Err(DeError::msg("BEB cap must be a power of two"));
        }
        *self = saved;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcr_sim::engine::{Engine, EngineConfig};
    use dcr_sim::job::JobSpec;
    use dcr_sim::runner::count_trials;

    #[test]
    fn lone_job_succeeds_in_first_slot() {
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(
            JobSpec::new(0, 0, 8),
            Box::new(BinaryExponentialBackoff::new()),
        );
        let r = e.run();
        assert_eq!(r.outcome(0).slot(), Some(0));
    }

    #[test]
    fn two_jobs_collide_then_resolve() {
        // Both transmit at slot 0 and collide; backoff separates them
        // quickly in a roomy window.
        let (hits, total) = count_trials(100, 5, |_, seed| {
            let mut e = Engine::new(EngineConfig::default(), seed);
            e.add_job(
                JobSpec::new(0, 0, 64),
                Box::new(BinaryExponentialBackoff::new()),
            );
            e.add_job(
                JobSpec::new(1, 0, 64),
                Box::new(BinaryExponentialBackoff::new()),
            );
            e.run().successes() == 2
        });
        assert!(hits as f64 / total as f64 > 0.95, "{hits}/{total}");
    }

    #[test]
    fn batch_resolves_with_enough_room() {
        let (hits, total) = count_trials(30, 9, |_, seed| {
            let mut e = Engine::new(EngineConfig::default(), seed);
            for i in 0..16 {
                e.add_job(
                    JobSpec::new(i, 0, 4096),
                    Box::new(BinaryExponentialBackoff::new()),
                );
            }
            e.run().successes() == 16
        });
        assert!(hits as f64 / total as f64 > 0.9, "{hits}/{total}");
    }

    #[test]
    fn attempts_grow_under_continuous_collision() {
        // Two jobs with cap 1: they re-collide every slot (window stays 1,
        // countdown always 0) — attempts must climb, nobody succeeds.
        let mut e = Engine::new(EngineConfig::default(), 3);
        e.add_job(
            JobSpec::new(0, 0, 32),
            Box::new(BinaryExponentialBackoff::with_cap(1)),
        );
        e.add_job(
            JobSpec::new(1, 0, 32),
            Box::new(BinaryExponentialBackoff::with_cap(1)),
        );
        let r = e.run();
        assert_eq!(r.successes(), 0);
        assert_eq!(r.counts.collision, 32);
    }

    #[test]
    #[should_panic]
    fn cap_must_be_power_of_two() {
        let _ = BinaryExponentialBackoff::with_cap(3);
    }
}
