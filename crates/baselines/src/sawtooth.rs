//! Sawtooth backoff — the asymptotically makespan-optimal non-monotone
//! backoff (see the paper's Related Work: "a non-monotone algorithm called
//! *sawtooth* is asymptotically optimal [8, 45, 52]").
//!
//! The schedule proceeds in doubling **runs** `r = 1, 2, 3, …`. Run `r`
//! sweeps window sizes `2^r, 2^{r-1}, …, 1` downward (the sawtooth); in a
//! window of size `s` the job transmits in one uniformly random slot. The
//! downward sweep is what fixes monotone backoff's flaw: whatever the true
//! contention `n` is, every run of size `2^r ≥ n` contains a window whose
//! size is within a factor 2 of the remaining contention.

use dcr_sim::engine::{Action, JobCtx, Protocol, Wake};
use dcr_sim::message::Payload;
use dcr_sim::probe::{EventBuf, ProbeEvent};
use dcr_sim::slot::Feedback;
use rand::{Rng, RngCore};
use serde::{DeError, Deserialize, Serialize, Value};

/// The sawtooth backoff protocol for one job.
///
/// Each window's attempt slot is drawn when the window is entered, so the
/// window is known in advance and `next_wake` lets the engine sleep the job
/// to its attempt slot and then to the next window boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sawtooth {
    /// Current run index (window sizes go up to `2^run`).
    run: u32,
    /// Exponent of the current window within the run (`size = 2^exp`).
    exp: u32,
    /// Local slot one past the current window's last slot.
    window_end: u64,
    /// Local slot of the current window's transmission attempt.
    fire_at: u64,
    succeeded: bool,
    primed: bool,
    probe: EventBuf,
}

impl Sawtooth {
    /// A fresh sawtooth starting at run 1.
    pub fn new() -> Self {
        Self {
            run: 1,
            exp: 1,
            window_end: 0,
            fire_at: 0,
            succeeded: false,
            primed: false,
            probe: EventBuf::default(),
        }
    }

    /// Factory closure for [`dcr_sim::engine::Engine::add_jobs`].
    pub fn factory() -> impl FnMut(&dcr_sim::job::JobSpec) -> Box<dyn Protocol> {
        move |_spec| Box::new(Self::new())
    }

    /// Advance to the next window in the sawtooth schedule, entered at
    /// local slot `now`.
    fn next_window(&mut self, now: u64, rng: &mut dyn RngCore) {
        if !self.primed {
            self.primed = true;
        } else if self.exp == 0 {
            // Run finished: next run, starting from its largest window.
            self.run += 1;
            self.exp = self.run.min(62);
        } else {
            self.exp -= 1;
        }
        let size = 1u64 << self.exp;
        let draw = rng.gen_range(1..=size);
        self.window_end = now + size;
        self.fire_at = now + size - draw;
        // Window entry happens at the same local slot in dense and
        // event-driven runs (`next_wake` targets `window_end` exactly), so
        // the phase stream is scheduling-mode independent.
        if self.probe.enabled() {
            self.probe.phase(&format!("run{}-w{size}", self.run));
        }
    }

    /// Current window size (for tests).
    pub fn window_size(&self) -> u64 {
        1u64 << self.exp
    }
}

impl Default for Sawtooth {
    fn default() -> Self {
        Self::new()
    }
}

impl Protocol for Sawtooth {
    fn on_activate(&mut self, ctx: &JobCtx, _rng: &mut dyn RngCore) {
        if ctx.probed {
            self.probe.arm();
        }
    }

    fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
        if self.succeeded {
            return Action::Sleep;
        }
        if !self.primed || ctx.local_time >= self.window_end {
            self.next_window(ctx.local_time, rng);
        }
        if ctx.local_time == self.fire_at {
            Action::Transmit(Payload::Data(ctx.id))
        } else {
            // Non-adaptive schedule: sleep between attempts.
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

    fn drain_events(&mut self, out: &mut Vec<ProbeEvent>) {
        self.probe.drain_into(out);
    }

    fn tx_probability(&self, _ctx: &JobCtx) -> Option<f64> {
        if self.succeeded {
            Some(0.0)
        } else {
            Some(1.0 / self.window_size() as f64)
        }
    }

    fn next_wake(&self, ctx: &JobCtx) -> Option<Wake> {
        if self.succeeded {
            return Some(Wake::NEVER);
        }
        if !self.primed {
            return None;
        }
        if self.fire_at > ctx.local_time {
            Some(Wake::Asleep(self.fire_at))
        } else {
            Some(Wake::Asleep(self.window_end))
        }
    }

    fn save_state(&self) -> Option<Value> {
        Some(self.to_value())
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let saved = Self::from_value(state)?;
        if saved.exp > 62 {
            return Err(DeError::msg("sawtooth window exponent above 62"));
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
    fn lone_job_succeeds_quickly() {
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(JobSpec::new(0, 0, 16), Box::new(Sawtooth::new()));
        let r = e.run();
        assert!(r.outcome(0).is_success());
        // First window has size 2: success within the first 2 slots.
        assert!(r.outcome(0).slot().unwrap() < 2);
    }

    #[test]
    fn window_sweep_shape() {
        // Drive next_window directly and observe the sawtooth sequence
        // 2, 1, | 4, 2, 1, | 8, 4, 2, 1 …
        let mut s = Sawtooth::new();
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let mut sizes = Vec::new();
        let mut now = 0;
        for _ in 0..9 {
            s.next_window(now, &mut rng);
            sizes.push(s.window_size());
            now = s.window_end; // pretend the window elapsed
        }
        assert_eq!(sizes, vec![2, 1, 4, 2, 1, 8, 4, 2, 1]);
    }

    #[test]
    fn batch_resolves() {
        let (hits, total) = count_trials(30, 11, |_, seed| {
            let mut e = Engine::new(EngineConfig::default(), seed);
            for i in 0..16 {
                e.add_job(JobSpec::new(i, 0, 4096), Box::new(Sawtooth::new()));
            }
            e.run().successes() == 16
        });
        assert!(hits as f64 / total as f64 > 0.9, "{hits}/{total}");
    }

    #[test]
    fn stops_after_success() {
        let mut e = Engine::new(EngineConfig::default().with_trace(), 7);
        e.add_job(JobSpec::new(0, 0, 128), Box::new(Sawtooth::new()));
        let r = e.run();
        assert_eq!(r.counts.data_success, 1);
    }
}
