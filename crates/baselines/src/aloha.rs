//! Slotted ALOHA: transmit each slot with a fixed probability.
//!
//! The memoryless baseline — useful as a contention "dial" in experiment
//! E1 (measuring Lemma 2's contention/success relationship) and as a naive
//! comparator in the end-to-end shootout.

use dcr_sim::engine::{Action, CohortTx, JobCtx, Protocol};
use dcr_sim::message::Payload;
use dcr_sim::slot::Feedback;
use rand::{Rng, RngCore};
use serde::{DeError, Deserialize, Serialize, Value};

/// Transmit the data message with probability `p` in every slot until it
/// gets through.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FixedProbability {
    p: f64,
    succeeded: bool,
}

impl FixedProbability {
    /// ALOHA with per-slot probability `p ∈ (0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0,1]");
        Self {
            p,
            succeeded: false,
        }
    }

    /// Per-slot probability scaled to the job's window at activation:
    /// `min(1/2, c/w)` — transmitting an expected `c` times per window.
    pub fn per_window(c: f64) -> impl FnMut(&dcr_sim::job::JobSpec) -> Box<dyn Protocol> {
        move |spec| {
            let p = (c / spec.window() as f64).min(0.5);
            Box::new(Self::new(p.max(f64::MIN_POSITIVE)))
        }
    }

    /// Factory closure with a fixed `p` for every job.
    pub fn factory(p: f64) -> impl FnMut(&dcr_sim::job::JobSpec) -> Box<dyn Protocol> {
        move |_spec| Box::new(Self::new(p))
    }
}

impl Protocol for FixedProbability {
    fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
        if !self.succeeded && rng.gen_bool(self.p) {
            Action::Transmit(Payload::Data(ctx.id))
        } else {
            // Memoryless and non-adaptive: no need to listen between
            // attempts.
            Action::Sleep
        }
    }

    fn on_feedback(&mut self, ctx: &JobCtx, fb: &Feedback, _rng: &mut dyn RngCore) {
        if let Feedback::Success { src, payload } = fb {
            if *src == ctx.id && payload.is_data() {
                self.succeeded = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.succeeded
    }

    fn tx_probability(&self, _ctx: &JobCtx) -> Option<f64> {
        Some(if self.succeeded { 0.0 } else { self.p })
    }

    fn cohort_tx(&self, ctx: &JobCtx) -> Option<CohortTx> {
        // ALOHA is *exactly* the cohort model: Bernoulli(p) every slot,
        // never listening, until delivery. Probed jobs stay on the exact
        // path so their event streams keep flowing.
        if ctx.probed {
            None
        } else {
            Some(CohortTx::Constant { p: self.p })
        }
    }

    fn save_state(&self) -> Option<Value> {
        Some(self.to_value())
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let saved = Self::from_value(state)?;
        if !(saved.p > 0.0 && saved.p <= 1.0) {
            return Err(DeError::msg("p must be in (0,1]"));
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
    fn lone_job_eventually_succeeds() {
        let (hits, total) = count_trials(50, 3, |_, seed| {
            let mut e = Engine::new(EngineConfig::default(), seed);
            e.add_job(
                JobSpec::new(0, 0, 256),
                Box::new(FixedProbability::new(0.1)),
            );
            e.run().outcome(0).is_success()
        });
        assert_eq!(hits, total);
    }

    #[test]
    fn contention_one_gives_constant_throughput() {
        // n jobs at p = 1/n: C = 1, so per-slot success ≈ 1/e. Over many
        // slots the throughput should be visibly constant.
        let n = 32u32;
        let mut e = Engine::new(EngineConfig::default().with_trace(), 5);
        for i in 0..n {
            // Window long enough that nobody leaves early skews little.
            e.add_job(
                JobSpec::new(i, 0, 100),
                Box::new(FixedProbability::new(1.0 / f64::from(n))),
            );
        }
        let r = e.run();
        let rate = r.counts.success as f64 / r.slots_run as f64;
        assert!(rate > 0.2 && rate < 0.55, "rate={rate}");
    }

    #[test]
    fn per_window_scaling() {
        let mut factory = FixedProbability::per_window(4.0);
        let spec = JobSpec::new(0, 0, 400);
        let proto = factory(&spec);
        let ctx = dcr_sim::engine::JobCtx {
            id: 0,
            window: 400,
            local_time: 0,
            aligned_time: None,
            probed: false,
            key: 0,
        };
        assert!((proto.tx_probability(&ctx).unwrap() - 0.01).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "p must be")]
    fn zero_probability_rejected() {
        let _ = FixedProbability::new(0.0);
    }
}
