//! The *windowed backoff* family (Bender et al., "Adversarial contention
//! resolution for simple channels"; the paper's refs [13, 14, 91]).
//!
//! A windowed protocol runs through a fixed sequence of windows
//! `W_1, W_2, …`; in each window of size `s` the job transmits in one
//! uniformly random slot, then moves to the next window if it failed.
//! Binary exponential backoff is the `s_{i+1} = 2·s_i` member; the paper's
//! related-work section rests on the classical fact that **every monotone
//! schedule is makespan-suboptimal** (`Θ(n log n)` or worse for a batch of
//! `n`) while the non-monotone sawtooth achieves `Θ(n)` — experiment E14
//! reproduces that separation.

use dcr_sim::engine::{Action, JobCtx, Protocol, Wake};
use dcr_sim::message::Payload;
use dcr_sim::slot::Feedback;
use rand::{Rng, RngCore};
use serde::{DeError, Deserialize, Serialize, Value};

/// A window-size schedule: `size(i)` is the size of the `i`-th window
/// (0-based), capped at `2^40` to avoid overflow in degenerate sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Schedule {
    /// `s_i = base^i · s_0` — geometric growth (`Geometric { base: 2, first: 1 }`
    /// is classic binary exponential backoff in windowed form).
    Geometric {
        /// Growth factor (≥ 2).
        base: u64,
        /// First window size (≥ 1).
        first: u64,
    },
    /// `s_i = first + step·i` — linear growth ("polynomial backoff" with
    /// exponent 1; known to be stable but slow).
    Linear {
        /// First window size (≥ 1).
        first: u64,
        /// Additive increment per window.
        step: u64,
    },
    /// `s_i = first · (i+1)^2` — quadratic growth.
    Quadratic {
        /// First window size (≥ 1).
        first: u64,
    },
    /// All windows the same size (slotted-ALOHA-like; never adapts).
    Fixed {
        /// The window size (≥ 1).
        size: u64,
    },
}

impl Schedule {
    /// Size of the `i`-th window.
    pub fn size(&self, i: u32) -> u64 {
        const CAP: u64 = 1 << 40;
        match *self {
            Schedule::Geometric { base, first } => {
                let mut s = first.max(1);
                for _ in 0..i {
                    s = s.saturating_mul(base.max(2));
                    if s >= CAP {
                        return CAP;
                    }
                }
                s
            }
            Schedule::Linear { first, step } => first
                .max(1)
                .saturating_add(step.saturating_mul(u64::from(i)))
                .min(CAP),
            Schedule::Quadratic { first } => {
                let k = u64::from(i) + 1;
                first.max(1).saturating_mul(k.saturating_mul(k)).min(CAP)
            }
            Schedule::Fixed { size } => size.max(1),
        }
    }

    /// Classic binary exponential backoff in windowed form.
    pub fn beb() -> Self {
        Schedule::Geometric { base: 2, first: 1 }
    }
}

/// A windowed-backoff protocol for one job.
///
/// The attempt slot of each window is drawn *when the window is entered*
/// (one `gen_range` per window), so the whole window is known in advance:
/// `next_wake` can tell the engine to sleep straight to the attempt slot
/// and then to the next window boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WindowedBackoff {
    schedule: Schedule,
    /// Current window index.
    window_idx: u32,
    /// Local slot one past the current window's last slot.
    window_end: u64,
    /// Local slot of the current window's transmission attempt.
    fire_at: u64,
    started: bool,
    succeeded: bool,
}

impl WindowedBackoff {
    /// Build a windowed backoff with the given schedule.
    pub fn new(schedule: Schedule) -> Self {
        Self {
            schedule,
            window_idx: 0,
            window_end: 0,
            fire_at: 0,
            started: false,
            succeeded: false,
        }
    }

    /// Factory closure for [`dcr_sim::engine::Engine::add_jobs`].
    pub fn factory(schedule: Schedule) -> impl FnMut(&dcr_sim::job::JobSpec) -> Box<dyn Protocol> {
        move |_spec| Box::new(Self::new(schedule))
    }

    fn next_window(&mut self, now: u64, rng: &mut dyn RngCore) {
        if self.started {
            self.window_idx += 1;
        }
        self.started = true;
        let size = self.schedule.size(self.window_idx);
        let draw = rng.gen_range(1..=size);
        self.window_end = now + size;
        self.fire_at = now + size - draw;
    }
}

impl Protocol for WindowedBackoff {
    fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
        if self.succeeded {
            return Action::Sleep;
        }
        if !self.started || ctx.local_time >= self.window_end {
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

    fn tx_probability(&self, _ctx: &JobCtx) -> Option<f64> {
        if self.succeeded {
            Some(0.0)
        } else {
            Some(1.0 / self.schedule.size(self.window_idx).max(1) as f64)
        }
    }

    fn next_wake(&self, ctx: &JobCtx) -> Option<Wake> {
        if self.succeeded {
            return Some(Wake::NEVER);
        }
        if !self.started {
            return None;
        }
        if self.fire_at > ctx.local_time {
            Some(Wake::Asleep(self.fire_at))
        } else {
            // Attempt made (and failed, or the engine would have retired
            // us): next event is the roll at the window boundary.
            Some(Wake::Asleep(self.window_end))
        }
    }

    fn save_state(&self) -> Option<Value> {
        Some(self.to_value())
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        *self = Self::from_value(state)?;
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
    fn schedule_arithmetic() {
        let g = Schedule::beb();
        assert_eq!(g.size(0), 1);
        assert_eq!(g.size(3), 8);
        let l = Schedule::Linear { first: 4, step: 3 };
        assert_eq!(l.size(0), 4);
        assert_eq!(l.size(5), 19);
        let q = Schedule::Quadratic { first: 2 };
        assert_eq!(q.size(0), 2);
        assert_eq!(q.size(2), 18);
        let f = Schedule::Fixed { size: 7 };
        assert_eq!(f.size(0), 7);
        assert_eq!(f.size(100), 7);
    }

    #[test]
    fn schedule_growth_saturates_instead_of_overflowing() {
        let g = Schedule::Geometric { base: 2, first: 1 };
        assert_eq!(g.size(63), 1 << 40);
        let l = Schedule::Linear {
            first: u64::MAX - 1,
            step: 10,
        };
        assert_eq!(l.size(3), 1 << 40);
    }

    #[test]
    fn lone_job_succeeds_immediately() {
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(
            JobSpec::new(0, 0, 16),
            Box::new(WindowedBackoff::new(Schedule::beb())),
        );
        let r = e.run();
        assert_eq!(r.outcome(0).slot(), Some(0), "first window has size 1");
    }

    #[test]
    fn batch_resolves_under_every_schedule() {
        for schedule in [
            Schedule::beb(),
            Schedule::Linear { first: 1, step: 4 },
            Schedule::Quadratic { first: 1 },
            Schedule::Fixed { size: 64 },
        ] {
            let (hits, total) = count_trials(20, 7, |_, seed| {
                let mut e = Engine::new(EngineConfig::default(), seed);
                for i in 0..16 {
                    e.add_job(
                        JobSpec::new(i, 0, 1 << 14),
                        Box::new(WindowedBackoff::new(schedule)),
                    );
                }
                e.run().successes() == 16
            });
            assert!(
                hits as f64 / total as f64 > 0.85,
                "{schedule:?}: {hits}/{total}"
            );
        }
    }

    #[test]
    fn fixed_small_window_livelocks_a_batch() {
        // Fixed windows of size 2 with 16 jobs: contention 8 per slot,
        // essentially nobody ever gets through — the degenerate end of the
        // family.
        let mut e = Engine::new(EngineConfig::default(), 3);
        for i in 0..16 {
            e.add_job(
                JobSpec::new(i, 0, 2048),
                Box::new(WindowedBackoff::new(Schedule::Fixed { size: 2 })),
            );
        }
        let r = e.run();
        assert!(r.successes() <= 2, "{}", r.successes());
    }
}
