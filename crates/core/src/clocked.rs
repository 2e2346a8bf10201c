//! **CLOCKED** — the global-clock shortcut for arbitrary windows.
//!
//! Section 4 of the paper observes: "if all jobs had access to a global
//! clock — that is, all jobs agreed on the index of the current slot —
//! then each job could trim its own window without any help. Then, the
//! algorithm from Section 3 could be used." PUNCTUAL exists precisely
//! because that clock is *not* available; this module implements the
//! with-clock variant so the cost of clocklessness is measurable
//! (experiment E12).
//!
//! Behaviour per job: trim the remaining window to the largest aligned
//! power-of-2 window (`trimmed(W)`, Lemma 15 guarantees `≥ |W|/4`), sleep
//! until it starts, then run the ALIGNED machinery inside it — the same
//! [`AlignedJob`] adapter, wake plan and heard parks as
//! [`crate::aligned::protocol::AlignedProtocol`], virtual time being the
//! aligned slot. Jobs whose trimmed class falls below the protocol floor —
//! or whose ALIGNED run is truncated — fall back to random transmissions
//! at the anarchist rate `λ·log₂w / w`, mirroring PUNCTUAL's fallback so
//! E12 isolates exactly one variable: who supplies the clock.

use crate::aligned::params::AlignedParams;
use crate::aligned::protocol::AlignedJob;
use crate::punctual::trim::trim_class;
use dcr_sim::engine::{Action, Heard, JobCtx, Protocol, Wake};
use dcr_sim::message::Payload;
use dcr_sim::slot::Feedback;
use rand::{Rng, RngCore};

/// Parameters for CLOCKED.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockedParams {
    /// The embedded ALIGNED parameters (including the class floor).
    pub aligned: AlignedParams,
    /// λ multiplier for the fallback transmission rate.
    pub lambda: u64,
}

use serde::{Deserialize, Serialize};

impl ClockedParams {
    /// Defaults matching `PunctualParams::laptop()`'s embedded ALIGNED.
    pub fn laptop() -> Self {
        Self {
            aligned: AlignedParams::new(1, 2, 8),
            lambda: 4,
        }
    }

    /// Fallback per-slot probability `min(1/2, λ·log₂w / w)`.
    pub fn fallback_probability(&self, w: u64) -> f64 {
        let wf = w.max(2) as f64;
        ((self.lambda as f64) * wf.log2() / wf).min(0.5)
    }
}

#[derive(Debug)]
enum Phase {
    /// Waiting for the trimmed window to start.
    Waiting { trim_start: u64, class: u32 },
    /// Running ALIGNED inside the trimmed window.
    Running(AlignedJob),
    /// Random transmissions at the anarchist rate, asleep otherwise.
    Fallback,
    /// Delivered.
    Done,
}

/// The CLOCKED protocol for one job. Requires
/// [`dcr_sim::engine::EngineConfig::expose_aligned_clock`].
#[derive(Debug)]
pub struct ClockedProtocol {
    params: ClockedParams,
    phase: Phase,
    last_prob: f64,
}

impl ClockedProtocol {
    /// Build the protocol.
    pub fn new(params: ClockedParams) -> Self {
        Self {
            params,
            phase: Phase::Fallback, // replaced at activation
            last_prob: 0.0,
        }
    }

    /// Factory closure for [`dcr_sim::engine::Engine::add_jobs`].
    pub fn factory(
        params: ClockedParams,
    ) -> impl FnMut(&dcr_sim::job::JobSpec) -> Box<dyn Protocol> {
        move |_spec| Box::new(ClockedProtocol::new(params))
    }
}

impl Protocol for ClockedProtocol {
    fn on_activate(&mut self, ctx: &JobCtx, _rng: &mut dyn RngCore) {
        let now = ctx.aligned_now();
        self.phase = match trim_class(now, now + ctx.window) {
            Some((trim_start, class)) if class >= self.params.aligned.min_class => {
                Phase::Waiting { trim_start, class }
            }
            _ => Phase::Fallback,
        };
    }

    fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
        self.last_prob = 0.0;
        let now = ctx.aligned_now();
        if let Phase::Waiting { trim_start, class } = self.phase {
            if now < trim_start {
                return Action::Sleep;
            }
            let job = AlignedJob::new(self.params.aligned, ctx.id, class, trim_start);
            self.phase = Phase::Running(job);
        }
        match &mut self.phase {
            Phase::Running(job) => {
                let action = job.decide(now, rng);
                if job.gave_up() {
                    // Truncated, or the schedule ran out in a slot it slept
                    // through: spend the rest of the window in the fallback,
                    // exactly like PUNCTUAL's anarchist resolution.
                    self.phase = Phase::Fallback;
                }
                action
            }
            Phase::Fallback => {
                let p = self.params.fallback_probability(ctx.window);
                self.last_prob = p;
                if rng.gen_bool(p) {
                    Action::Transmit(Payload::Data(ctx.id))
                } else {
                    Action::Sleep
                }
            }
            Phase::Waiting { .. } | Phase::Done => Action::Sleep,
        }
    }

    fn on_feedback(&mut self, ctx: &JobCtx, fb: &Feedback, _rng: &mut dyn RngCore) {
        if let Feedback::Success { src, payload } = fb {
            if *src == ctx.id && payload.is_data() {
                self.phase = Phase::Done;
                return;
            }
        }
        if let Phase::Running(job) = &mut self.phase {
            job.observe(ctx.aligned_now(), fb);
            if job.gave_up() {
                self.phase = Phase::Fallback;
            }
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    fn tx_probability(&self, ctx: &JobCtx) -> Option<f64> {
        Some(match &self.phase {
            Phase::Running(job) => job.declared_at(ctx.aligned_now()),
            _ => self.last_prob,
        })
    }

    fn next_wake(&self, ctx: &JobCtx) -> Option<Wake> {
        match &self.phase {
            Phase::Waiting { trim_start, .. } => Some(Wake::Asleep(
                ctx.local_time + (trim_start - ctx.aligned_now()),
            )),
            Phase::Running(job) => Some(job.next_wake(ctx)),
            // The fallback draws a coin in every slot.
            Phase::Fallback => None,
            Phase::Done => Some(Wake::NEVER),
        }
    }

    fn on_heard(&mut self, ctx: &JobCtx, heard: Heard<'_>) -> u64 {
        let Phase::Running(job) = &mut self.phase else {
            unreachable!("only a running job parks through slots it hears")
        };
        job.on_heard(ctx, heard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcr_sim::engine::{Engine, EngineConfig};
    use dcr_sim::jamming::{JamPolicy, Jammer};
    use dcr_sim::job::JobSpec;
    use dcr_sim::runner::count_trials;

    fn run(jobs: &[JobSpec], seed: u64) -> dcr_sim::metrics::SimReport {
        let mut e = Engine::new(EngineConfig::aligned(), seed);
        e.add_jobs(jobs, ClockedProtocol::factory(ClockedParams::laptop()));
        e.run()
    }

    #[test]
    fn unaligned_batch_delivers() {
        // 6 jobs with a decidedly unaligned window [37, 37 + 2048·3).
        let jobs: Vec<JobSpec> = (0..6).map(|i| JobSpec::new(i, 37, 37 + 6144)).collect();
        let (hits, total) = count_trials(20, 5, |_, seed| run(&jobs, seed).successes() == 6);
        assert!(hits as f64 / total as f64 > 0.8, "{hits}/{total}");
    }

    #[test]
    fn tiny_window_uses_fallback_and_often_delivers() {
        // Window far below the class floor: pure fallback.
        let jobs = vec![JobSpec::new(0, 5, 5 + 128)];
        let (hits, total) = count_trials(40, 7, |_, seed| run(&jobs, seed).successes() == 1);
        assert!(hits as f64 / total as f64 > 0.8, "{hits}/{total}");
    }

    #[test]
    fn staggered_unaligned_windows_share_the_channel() {
        let jobs: Vec<JobSpec> = (0..4)
            .map(|i| {
                let r = u64::from(i) * 97 + 13;
                JobSpec::new(i, r, r + 4096)
            })
            .collect();
        let (hits, total) = count_trials(20, 9, |_, seed| run(&jobs, seed).successes() >= 3);
        assert!(hits as f64 / total as f64 > 0.8, "{hits}/{total}");
    }

    #[test]
    fn a_run_that_gives_up_falls_back() {
        // Every data message is jammed, so the ALIGNED run in the trimmed
        // window [2048, 4096) runs out and gives up, in a step it sleeps
        // through. Its fallback keeps transmitting to the end of the job's
        // window, so a deadline past 4096 adds transmissions.
        let tx = |deadline| {
            let mut e = Engine::new(EngineConfig::aligned(), 3);
            e.set_jammer(Jammer::new(JamPolicy::DataOnly, 1.0));
            let jobs = [JobSpec::new(0, 37, deadline)];
            e.add_jobs(&jobs, ClockedProtocol::factory(ClockedParams::laptop()));
            e.run().accesses[0].transmissions
        };
        assert!(tx(37 + 6144) > tx(4096));
    }

    #[test]
    fn fallback_probability_capped() {
        let p = ClockedParams::laptop();
        assert!(p.fallback_probability(4) <= 0.5);
        assert!(p.fallback_probability(1 << 20) < 1e-4);
    }
}
