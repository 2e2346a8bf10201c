//! The natural algorithm **UNIFORM** (Section 2.2).
//!
//! Each job picks `k = Θ(1)` slots uniformly at random in its window and
//! broadcasts its data message there. The paper proves this is simultaneously
//!
//! * good in aggregate — on γ-slack-feasible instances with `γ < 1/6`, a
//!   constant fraction of the `n` messages succeed w.h.p. (Lemma 4), and
//! * hopeless individually — on the harmonic instance
//!   (`dcr_workloads::generators::harmonic`) the small-window jobs face
//!   contention `≈ ln n` in every slot of their windows and succeed with
//!   probability only `O(ln n / n^{1-δ})` (Lemma 5).
//!
//! Experiments E2 and E3 reproduce both facts.

use dcr_sim::engine::{Action, CohortTx, JobCtx, Protocol, Wake};
use dcr_sim::message::Payload;
use dcr_sim::probe::{EventBuf, ProbeEvent};
use rand::{Rng, RngCore};
use serde::{DeError, Deserialize, Serialize, Value};

/// The UNIFORM protocol with `k` broadcast attempts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Uniform {
    attempts: usize,
    /// Chosen local slots, sorted; populated at activation.
    chosen: Vec<u64>,
    succeeded: bool,
    probe: EventBuf,
}

impl Uniform {
    /// UNIFORM with `k` attempts per window (the paper's `Θ(1)`; `k = 1`
    /// is the canonical variant).
    pub fn new(attempts: usize) -> Self {
        assert!(attempts >= 1);
        Self {
            attempts,
            chosen: Vec::new(),
            succeeded: false,
            probe: EventBuf::default(),
        }
    }

    /// The canonical single-attempt UNIFORM.
    pub fn single() -> Self {
        Self::new(1)
    }
}

impl Protocol for Uniform {
    fn on_activate(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) {
        if ctx.probed {
            self.probe.arm();
            self.probe.phase("uniform");
        }
        // Sample `min(k, w)` distinct local slots by rejection — k is a
        // small constant, so this is O(k²) expected.
        let k = (self.attempts as u64).min(ctx.window) as usize;
        while self.chosen.len() < k {
            let slot = rng.gen_range(0..ctx.window);
            if !self.chosen.contains(&slot) {
                self.chosen.push(slot);
            }
        }
        self.chosen.sort_unstable();
    }

    fn act(&mut self, ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
        if !self.succeeded && self.chosen.binary_search(&ctx.local_time).is_ok() {
            Action::Transmit(Payload::Data(ctx.id))
        } else {
            // Non-adaptive: feedback is only needed on our own attempts,
            // so the radio stays off otherwise (UNIFORM is the energy
            // floor in experiment E13).
            Action::Sleep
        }
    }

    fn on_feedback(&mut self, ctx: &JobCtx, fb: &dcr_sim::slot::Feedback, _rng: &mut dyn RngCore) {
        if let dcr_sim::slot::Feedback::Success { src, payload } = fb {
            if *src == ctx.id && payload.is_data() {
                self.succeeded = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.succeeded
    }

    fn drain_events(&mut self, out: &mut Vec<ProbeEvent>) {
        self.probe.drain_into(out);
    }

    fn tx_probability(&self, ctx: &JobCtx) -> Option<f64> {
        // A-priori per-slot probability: k/w (the quantity the paper sums
        // into C(t) when analysing UNIFORM).
        Some(self.attempts.min(ctx.window as usize) as f64 / ctx.window as f64)
    }

    fn cohort_tx(&self, ctx: &JobCtx) -> Option<CohortTx> {
        // The canonical k = 1 variant is exactly the engine's one-shot
        // aggregate model (one attempt, uniform over the window). k ≥ 2
        // draws distinct slots without replacement, which does not reduce
        // to one binomial per slot, so it stays on the exact path — as do
        // probed jobs, whose event streams must keep flowing.
        if ctx.probed || self.attempts != 1 {
            return None;
        }
        Some(CohortTx::OneShot)
    }

    fn next_wake(&self, ctx: &JobCtx) -> Option<Wake> {
        // All attempt slots are drawn at activation, so the schedule is
        // fully known: sleep until the next chosen slot (or forever once
        // all attempts are spent or the message is delivered).
        if self.succeeded {
            return Some(Wake::NEVER);
        }
        let next = self.chosen.partition_point(|&s| s <= ctx.local_time);
        Some(Wake::Asleep(
            self.chosen.get(next).copied().unwrap_or(u64::MAX),
        ))
    }

    fn save_state(&self) -> Option<Value> {
        Some(self.to_value())
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let saved = Self::from_value(state)?;
        if saved.attempts == 0 {
            return Err(DeError::msg("UNIFORM needs at least one attempt"));
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
    use dcr_sim::runner::run_trials;

    #[test]
    fn lone_uniform_job_always_succeeds() {
        for seed in 0..20 {
            let mut e = Engine::new(EngineConfig::default(), seed);
            e.add_job(JobSpec::new(0, 0, 16), Box::new(Uniform::single()));
            let r = e.run();
            assert!(r.outcome(0).is_success(), "seed {seed}");
        }
    }

    #[test]
    fn chosen_slots_are_distinct_and_in_window() {
        let mut e = Engine::new(EngineConfig::default(), 3);
        e.add_job(JobSpec::new(0, 0, 8), Box::new(Uniform::new(3)));
        let _ = e.run();
        // Behavioural check via success: with window 8 >= 3 attempts the
        // lone job must succeed (first attempt already does it).
    }

    #[test]
    fn attempts_capped_by_window() {
        // k = 10 attempts in a window of 4: must not panic or loop forever.
        let mut e = Engine::new(EngineConfig::default(), 5);
        e.add_job(JobSpec::new(0, 0, 4), Box::new(Uniform::new(10)));
        let r = e.run();
        assert!(r.outcome(0).is_success());
    }

    #[test]
    fn two_jobs_large_window_usually_both_succeed() {
        // Collision probability is ~ k²/w; with w = 256 it is tiny.
        let (hits, total) = dcr_sim::runner::count_trials(200, 11, |_, seed| {
            let mut e = Engine::new(EngineConfig::default(), seed);
            e.add_job(JobSpec::new(0, 0, 256), Box::new(Uniform::single()));
            e.add_job(JobSpec::new(1, 0, 256), Box::new(Uniform::single()));
            let r = e.run();
            r.successes() == 2
        });
        assert!(hits as f64 / total as f64 > 0.95, "{hits}/{total}");
    }

    #[test]
    fn batch_same_slot_count_collides_heavily() {
        // n jobs, window exactly n: contention 1 per slot; Lemma 4 regime
        // says Θ(n) succeed, but far from all.
        let n = 64u32;
        let fractions: Vec<f64> = run_trials(20, 13, |_, seed| {
            let mut e = Engine::new(EngineConfig::default(), seed);
            for i in 0..n {
                e.add_job(
                    JobSpec::new(i, 0, u64::from(n)),
                    Box::new(Uniform::single()),
                );
            }
            e.run().success_fraction()
        })
        .into_iter()
        .map(|t| t.value)
        .collect();
        let mean = fractions.iter().sum::<f64>() / fractions.len() as f64;
        // e^{-1} ≈ 0.37 of slots become singletons; empirically the success
        // fraction sits in a comfortably constant band.
        assert!(mean > 0.2 && mean < 0.6, "mean={mean}");
    }

    #[test]
    fn stops_after_success() {
        // After a success the job reports done and transmits no more; the
        // engine retires it, so a k=4 job in an otherwise empty channel
        // produces exactly one data success.
        let mut e = Engine::new(EngineConfig::default().with_trace(), 17);
        e.add_job(JobSpec::new(0, 0, 64), Box::new(Uniform::new(4)));
        let r = e.run();
        assert_eq!(r.counts.data_success, 1);
    }
}
