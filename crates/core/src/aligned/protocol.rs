//! The per-job ALIGNED protocol.
//!
//! [`AlignedJob`] is the reusable state machine and the one adapter to the
//! engine: it consumes a stream of *virtual* slots (plain aligned slots in
//! Section 3 and in CLOCKED's trimmed window; one aligned slot per round
//! inside PUNCTUAL), answers each with the engine [`Action`] — sleeping
//! through every slot it need not hear — and, where virtual time is the
//! aligned slot, plans its wakes and catches up on parks through the slots
//! it hears. [`AlignedProtocol`] is the [`dcr_sim::engine::Protocol`] for
//! the pure aligned setting.

use crate::aligned::cohort::{aligned_class_tag, AlignedCohort};
use crate::aligned::estimator::Estimation;
use crate::aligned::params::AlignedParams;
use crate::aligned::tracker::{ActiveStep, StepKind, Tracker};
use crate::aligned::CTRL_ESTIMATE;
use dcr_sim::classes::{ClassCtx, ClassDriver};
use dcr_sim::engine::{Action, CohortTx, Heard, JobCtx, Protocol, Wake};
use dcr_sim::job::JobId;
use dcr_sim::message::{ControlMsg, Payload};
use dcr_sim::probe::{EventBuf, ProbeEvent};
use dcr_sim::slot::Feedback;
use rand::{Rng, RngCore};

/// The ALIGNED state machine for one job, in virtual time.
#[derive(Debug, Clone)]
pub struct AlignedJob {
    params: AlignedParams,
    id: JobId,
    class: u32,
    window_start: u64,
    tracker: Tracker,
    /// Subphase bookkeeping: the broadcast subphase (identified by its
    /// global start step) we last drew a slot for, and the drawn offset.
    drawn_subphase: Option<u64>,
    drawn_offset: u64,
    /// The virtual slot the next `decide` is expected for; a jump past it
    /// (a parked stretch of slots it sleeps through) is replayed via
    /// [`Tracker::fast_forward`].
    next_vt: u64,
    succeeded: bool,
    gave_up: bool,
    /// Probability with which the job intended to transmit this slot
    /// (diagnostic, feeds the engine's contention trace).
    last_prob: f64,
    /// Probe event buffer (disarmed unless the engine asks for events).
    probe: EventBuf,
    /// The estimate has been published as a `SizeEstimate` event.
    reported_estimate: bool,
    /// The class currently noted as having preempted ours (debounces
    /// `Preemption` events to one per takeover).
    preempted_by: Option<u32>,
}

impl AlignedJob {
    /// Create the state machine for a job whose (virtual) window is
    /// `[window_start, window_start + 2^class)`, aligned.
    pub fn new(params: AlignedParams, id: JobId, class: u32, window_start: u64) -> Self {
        assert!(
            class >= params.min_class,
            "job class {class} below protocol min_class {}",
            params.min_class
        );
        let tracker = Tracker::new(params, class, window_start);
        Self {
            params,
            id,
            class,
            window_start,
            tracker,
            drawn_subphase: None,
            drawn_offset: 0,
            next_vt: window_start,
            succeeded: false,
            gave_up: false,
            last_prob: 0.0,
            probe: EventBuf::default(),
            reported_estimate: false,
            preempted_by: None,
        }
    }

    /// Arm the probe buffer: the job will emit `PhaseEnter`, `SizeEstimate`
    /// and `Preemption` events from the slots it attends. Call at
    /// activation, before the first `decide`.
    pub fn arm_probe(&mut self) {
        self.probe.arm();
        self.probe.phase("estimation");
    }

    /// Move buffered probe events into `out` (engine drain path; also used
    /// by PUNCTUAL to forward its embedded follower's events).
    pub fn drain_probe(&mut self, out: &mut Vec<ProbeEvent>) {
        self.probe.drain_into(out);
    }

    /// Hand the internal buffer to an absorbing parent buffer.
    pub(crate) fn probe_mut(&mut self) -> &mut EventBuf {
        &mut self.probe
    }

    /// Publish the size estimate the first time it becomes available.
    /// The estimate flips in an *attended* estimation slot (an estimation
    /// run's last step is never dozed or skipped), so the emission slot is
    /// identical across scheduling modes.
    fn maybe_report_estimate(&mut self) {
        if !self.probe.enabled() || self.reported_estimate {
            return;
        }
        if let Some(n_est) = self.tracker.estimate_of(self.class) {
            self.reported_estimate = true;
            self.probe.push(ProbeEvent::SizeEstimate {
                class: self.class,
                n_est,
                n_true: 0, // ground truth enriched by the engine
            });
            self.probe.phase("broadcast");
        }
    }

    /// This job's class `ℓ`.
    pub fn class(&self) -> u32 {
        self.class
    }

    /// The protocol parameters this job runs with.
    pub fn params(&self) -> &AlignedParams {
        &self.params
    }

    /// True once the data message got through.
    pub fn succeeded(&self) -> bool {
        self.succeeded
    }

    /// True if the class's schedule completed (or was cut) without this
    /// job succeeding — the paper's "give up and yield" outcome.
    pub fn gave_up(&self) -> bool {
        self.gave_up
    }

    /// True when the job will take no further action.
    pub fn finished(&self) -> bool {
        self.succeeded || self.gave_up
    }

    /// The tracker's public estimate for this job's class, once available.
    pub fn estimate(&self) -> Option<u64> {
        self.tracker.estimate_of(self.class)
    }

    /// Intended transmission probability of the last decided slot.
    pub fn last_prob(&self) -> f64 {
        self.last_prob
    }

    /// Decide the action for virtual slot `vt`. Call once per virtual
    /// slot, in order, starting at `window_start` — except that slots
    /// answered with [`Action::Sleep`] may be skipped wholesale: a jump
    /// forward replays the gap through the tracker in bulk. Follow with
    /// [`AlignedJob::observe`] for the same slot unless the answer was
    /// `Sleep`, which is nothing to hear: a broadcast step (its feedback
    /// never enters the replicated state), an idle slot, or a slot past
    /// the window. The tracker has already consumed such a slot, and a
    /// give-up found in it — the schedule ran out, or the window is over —
    /// shows in [`AlignedJob::gave_up`] as `decide` returns.
    pub fn decide(&mut self, vt: u64, rng: &mut dyn RngCore) -> Action {
        self.last_prob = 0.0;
        if vt >= self.window_start + (1u64 << self.class) {
            // Window over: truncated.
            if !self.succeeded {
                self.gave_up = true;
            }
            return Action::Sleep;
        }
        if vt > self.next_vt {
            // Parked through a dozable stretch: replay it in bulk.
            self.tracker.fast_forward(self.next_vt, vt);
        }
        self.next_vt = vt + 1;
        let step = self.tracker.begin_slot(vt);
        let Some(ActiveStep {
            class,
            window_start,
            kind,
        }) = step
        else {
            // No tracked class owns the slot: nothing to hear or advance.
            return self.doze(vt);
        };
        if let StepKind::Estimation { phase, .. } = kind {
            // Estimation feedback (anyone's) feeds the replicated
            // estimator: the slot must be heard.
            if class == self.class && window_start == self.window_start && !self.finished() {
                self.preempted_by = None;
                let p = Estimation::tx_probability(phase);
                self.last_prob = p;
                if rng.gen_bool(p) {
                    return Action::Transmit(self.control_payload());
                }
            } else if self.probe.enabled() {
                self.note_preemption(class);
            }
            return Action::Listen;
        }
        if class == self.class && window_start == self.window_start && !self.finished() {
            self.preempted_by = None;
            let StepKind::Broadcast(pos) = kind else {
                unreachable!("estimation handled above")
            };
            // New subphase? Draw this job's slot for it.
            let subphase_start_step = self.tracker.steps_of(self.class) - pos.offset;
            if self.drawn_subphase != Some(subphase_start_step) {
                self.drawn_subphase = Some(subphase_start_step);
                self.drawn_offset = rng.gen_range(0..pos.len);
            }
            self.last_prob = 1.0 / pos.len as f64;
            if pos.offset == self.drawn_offset {
                return Action::Transmit(self.data_payload());
            }
        }
        // A broadcast step with nothing of ours in it (or another class's):
        // its feedback never enters the replicated state, so consume it
        // now and keep the radio off.
        self.doze(vt)
    }

    /// Emit one `Preemption` event when a *different* class's estimation
    /// run interrupts our in-progress broadcast (the pecking order: smaller
    /// classes take over at their window boundaries). Only called from
    /// attended (non-`Sleep`) paths, so the emission slot is identical
    /// across scheduling modes.
    fn note_preemption(&mut self, by_class: u32) {
        let ours_underway = self.tracker.steps_of(self.class) > 0
            && !self.tracker.is_complete(self.class)
            && !self.finished();
        if ours_underway && by_class != self.class && self.preempted_by != Some(by_class) {
            self.preempted_by = Some(by_class);
            self.probe.push(ProbeEvent::Preemption {
                class: self.class,
                by_class,
            });
        }
    }

    /// Advance the tracker past a slot whose feedback is irrelevant
    /// (non-estimation `end_slot` ignores it) and sleep through it. Give-up
    /// is detected here for completion steps the job sleeps through, at
    /// the same slot `observe` would have caught it.
    fn doze(&mut self, vt: u64) -> Action {
        self.tracker.end_slot(vt, &Feedback::Silent);
        if !self.succeeded && self.tracker.is_complete(self.class) {
            self.gave_up = true;
        }
        Action::Sleep
    }

    /// Replay the virtual slots from the one after the last decided slot
    /// up to `vt`, which the job was parked through while it only
    /// listened (a [`Wake::Hearing`] plan of [`AlignedJob::next_wake_vt`]).
    /// `heard` holds the `(vt, feedback)` pairs of the non-silent ones in
    /// ascending order; every other slot was silent. Returns how many of
    /// the slots the job would have listened in.
    pub fn catch_up<'a>(
        &mut self,
        vt: u64,
        heard: impl IntoIterator<Item = (u64, &'a Feedback)>,
    ) -> u64 {
        let mut heard = heard.into_iter().peekable();
        let mut listens = 0;
        for t in self.next_vt..vt {
            let fb = heard
                .next_if(|&(s, _)| s == t)
                .map_or(Feedback::Silent, |(_, fb)| *fb);
            if let Some(ActiveStep {
                kind: StepKind::Estimation { .. },
                ..
            }) = self.tracker.begin_slot(t)
            {
                // An own estimation step whose coin said listen: the only
                // kind of step the plan parks through while hearing.
                listens += 1;
                self.preempted_by = None;
            }
            self.tracker.end_slot(t, &fb);
        }
        self.next_vt = self.next_vt.max(vt);
        listens
    }

    /// The transmission probability the job declares at `vt`: that of the
    /// last decided slot, or — while parked through own estimation steps
    /// it hears — that of the step it would have decided at `vt`.
    pub fn declared_at(&self, vt: u64) -> f64 {
        if vt < self.next_vt {
            return self.last_prob;
        }
        self.tracker
            .phase_ahead(self.class, vt - self.next_vt)
            .map_or(0.0, Estimation::tx_probability)
    }

    /// Feed back the channel observation for virtual slot `vt`.
    pub fn observe(&mut self, vt: u64, fb: &Feedback) {
        self.tracker.end_slot(vt, fb);
        if let Feedback::Success { src, payload } = fb {
            if *src == self.id && payload.is_data() {
                self.succeeded = true;
            }
        }
        // If my class's algorithm is finished and my message never got
        // through (estimation concluded "empty class", or the schedule ran
        // out), I give up — control returns to larger classes.
        if !self.succeeded && self.tracker.is_complete(self.class) {
            self.gave_up = true;
        }
        self.maybe_report_estimate();
    }

    /// The wake plan in virtual time: the next virtual slot (strictly
    /// after `now`, the last decided slot) at which this job must act.
    /// [`Wake::Asleep`] when every slot in between would be answered with
    /// [`Action::Sleep`]; [`Wake::NEVER`] once finished.
    ///
    /// `coin_key` must position every `decide` RNG: `decide(vt, rng)` is
    /// handed `CounterRng::new(coin_key, vt, Phase::Act)`, as wherever
    /// virtual time is the engine's aligned slot. With it the plan may
    /// instead park the job through own estimation steps whose coin says
    /// listen ([`Wake::Hearing`]); those are replayed with
    /// [`AlignedJob::catch_up`].
    pub fn next_wake_vt(&self, now: u64, coin_key: u64) -> Wake {
        if self.finished() {
            return Wake::NEVER;
        }
        let wake = self.tracker.next_wake_hint(
            now,
            self.class,
            self.window_start,
            self.drawn_subphase,
            self.drawn_offset,
            coin_key,
        );
        if self.tracker.estimating_next(self.class, self.window_start) {
            Wake::Hearing(wake)
        } else {
            Wake::Asleep(wake)
        }
    }

    /// [`Protocol::next_wake`] for a job whose virtual time is the aligned
    /// slot (`decide` and `observe` are called with
    /// [`JobCtx::aligned_now`], and `decide` with the engine's `act` RNG):
    /// the plan of [`AlignedJob::next_wake_vt`] in local slots.
    pub fn next_wake(&self, ctx: &JobCtx) -> Wake {
        let now = ctx.aligned_now();
        match self.next_wake_vt(now, ctx.key) {
            Wake::Asleep(u64::MAX) => Wake::NEVER,
            Wake::Asleep(vt) => Wake::Asleep(ctx.local_time + (vt - now)),
            Wake::Hearing(vt) => Wake::Hearing(ctx.local_time + (vt - now)),
        }
    }

    /// [`Protocol::on_heard`] for a job whose virtual time is the aligned
    /// slot: [`AlignedJob::catch_up`] to `ctx`'s slot.
    pub fn on_heard(&mut self, ctx: &JobCtx, heard: Heard<'_>) -> u64 {
        // Local slots map onto virtual time by the release slot.
        let release = ctx.aligned_now() - ctx.local_time;
        self.catch_up(
            ctx.aligned_now(),
            heard.iter().map(|(t, fb)| (release + t, fb)),
        )
    }

    /// The control ping transmitted during estimation steps.
    pub fn control_payload(&self) -> Payload {
        Payload::Control(ControlMsg {
            kind: CTRL_ESTIMATE,
            a: u64::from(self.class),
            b: 0,
            c: 0,
        })
    }

    /// The data payload.
    pub fn data_payload(&self) -> Payload {
        Payload::Data(self.id)
    }
}

/// [`dcr_sim::engine::Protocol`] adapter for the pure aligned setting
/// (Section 3): virtual time is the engine's aligned clock.
#[derive(Debug)]
pub struct AlignedProtocol {
    params: AlignedParams,
    job: Option<AlignedJob>,
}

impl AlignedProtocol {
    /// Build the protocol; the job state is created at activation, when the
    /// window (which must be power-of-2-aligned) becomes known.
    pub fn new(params: AlignedParams) -> Self {
        Self { params, job: None }
    }

    /// Factory closure for [`dcr_sim::engine::Engine::add_jobs`].
    pub fn factory(
        params: AlignedParams,
    ) -> impl FnMut(&dcr_sim::job::JobSpec) -> Box<dyn Protocol> {
        move |_spec| Box::new(AlignedProtocol::new(params))
    }

    /// Access the inner state machine (for tests/diagnostics).
    pub fn job(&self) -> Option<&AlignedJob> {
        self.job.as_ref()
    }
}

impl Protocol for AlignedProtocol {
    fn on_activate(&mut self, ctx: &JobCtx, _rng: &mut dyn RngCore) {
        let now = ctx.aligned_now();
        assert!(
            ctx.window.is_power_of_two() && now.is_multiple_of(ctx.window),
            "AlignedProtocol requires power-of-2-aligned windows"
        );
        let class = ctx.window.trailing_zeros();
        let mut job = AlignedJob::new(self.params, ctx.id, class, now);
        if ctx.probed {
            job.arm_probe();
        }
        self.job = Some(job);
    }

    fn drain_events(&mut self, out: &mut Vec<ProbeEvent>) {
        if let Some(job) = self.job.as_mut() {
            job.drain_probe(out);
        }
    }

    fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
        let job = self.job.as_mut().expect("activated");
        job.decide(ctx.aligned_now(), rng)
    }

    fn on_feedback(&mut self, ctx: &JobCtx, fb: &Feedback, _rng: &mut dyn RngCore) {
        let job = self.job.as_mut().expect("activated");
        job.observe(ctx.aligned_now(), fb);
    }

    fn cohort_tx(&self, ctx: &JobCtx) -> Option<CohortTx> {
        // Aggregate only where the per-job path would be legal anyway: the
        // aligned clock is exposed and the window is power-of-2-aligned.
        // Returning `None` keeps the job on the exact path (whose
        // `on_activate` then reports any misconfiguration as usual).
        let now = ctx.aligned_time?;
        if !ctx.window.is_power_of_two() || !now.is_multiple_of(ctx.window) {
            return None;
        }
        if ctx.window.trailing_zeros() < self.params.min_class {
            return None;
        }
        Some(CohortTx::Class {
            tag: aligned_class_tag(&self.params),
        })
    }

    fn class_driver(&self, ctx: &JobCtx, cctx: &ClassCtx) -> Option<Box<dyn ClassDriver>> {
        // `cohort_tx` already vetted alignment; the class window starts at
        // the shared release slot.
        let class = cctx.window.trailing_zeros();
        let mut driver = AlignedCohort::new(self.params, class, cctx.release, cctx.class_seed);
        if ctx.probed {
            driver.arm_probe();
        }
        Some(Box::new(driver))
    }

    fn is_done(&self) -> bool {
        self.job.as_ref().is_some_and(|j| j.finished())
    }

    fn tx_probability(&self, ctx: &JobCtx) -> Option<f64> {
        self.job.as_ref().map(|j| j.declared_at(ctx.aligned_now()))
    }

    fn next_wake(&self, ctx: &JobCtx) -> Option<Wake> {
        self.job.as_ref().map(|job| job.next_wake(ctx))
    }

    fn on_heard(&mut self, ctx: &JobCtx, heard: Heard<'_>) -> u64 {
        self.job.as_mut().expect("activated").on_heard(ctx, heard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcr_sim::engine::{Engine, EngineConfig};
    use dcr_sim::job::JobSpec;
    use dcr_sim::runner::count_trials;

    /// Single-class parameters: `min_class == class`, so no slots are spent
    /// estimating empty smaller classes. (Multi-class configurations need
    /// `λ·Σ_{ℓ≥min} ℓ²/2^ℓ < 1` — see `AlignedParams::overhead_fraction`.)
    fn batch_params(class: u32) -> AlignedParams {
        AlignedParams::new(1, 2, class)
    }

    fn run_batch(n: u32, class: u32, seed: u64) -> dcr_sim::metrics::SimReport {
        let w = 1u64 << class;
        let mut e = Engine::new(EngineConfig::aligned(), seed);
        for i in 0..n {
            e.add_job(
                JobSpec::new(i, 0, w),
                Box::new(AlignedProtocol::new(batch_params(class))),
            );
        }
        e.run()
    }

    #[test]
    fn single_job_succeeds() {
        // One job, window 2^7 = 128. Estimation costs λℓ² = 49 steps, the
        // broadcast ~55 more: the job must deliver in essentially every run.
        let (hits, total) = count_trials(50, 1234, |_, seed| {
            run_batch(1, 7, seed).outcome(0).is_success()
        });
        assert!(hits >= total - 1, "{hits}/{total}");
    }

    #[test]
    fn small_batch_all_succeed() {
        // 4 jobs in a window of 2^9: plenty of slack.
        let (hits, total) = count_trials(30, 99, |_, seed| {
            let r = run_batch(4, 9, seed);
            r.successes() == 4
        });
        assert!(hits >= total - 1, "{hits}/{total}");
    }

    #[test]
    fn overloaded_window_gives_up_cleanly() {
        // 64 jobs in a window of 64 slots: impossible (estimation alone
        // eats most of the window). Jobs must give up without panicking,
        // and the engine must terminate at the horizon.
        let r = run_batch(64, 6, 5);
        assert!(r.successes() < 64);
        assert_eq!(r.slots_run, 64);
    }

    #[test]
    fn two_classes_pecking_order() {
        // One job in each class-8 window of [0, 1024), plus one job owning
        // the whole [0, 4096) window. min_class = 8 keeps the deterministic
        // estimation overhead (Σ_{ℓ≥8} ℓ²/2^ℓ ≈ 0.64) inside the budget, so
        // everyone should usually finish.
        let p = AlignedParams::new(1, 2, 8);
        let (hits, total) = count_trials(20, 777, |_, seed| {
            let mut e = Engine::new(EngineConfig::aligned(), seed);
            for i in 0..4u32 {
                e.add_job(
                    JobSpec::new(i, u64::from(i) * 256, u64::from(i + 1) * 256),
                    Box::new(AlignedProtocol::new(p)),
                );
            }
            e.add_job(
                JobSpec::new(4, 0, 1 << 12),
                Box::new(AlignedProtocol::new(p)),
            );
            let r = e.run();
            r.successes() == 5
        });
        assert!(hits as f64 / total as f64 > 0.8, "{hits}/{total}");
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn unaligned_window_rejected() {
        let mut e = Engine::new(EngineConfig::aligned(), 1);
        e.add_job(
            JobSpec::new(0, 4, 12),
            Box::new(AlignedProtocol::new(batch_params(2))),
        );
        let _ = e.run();
    }

    #[test]
    fn estimate_visible_after_estimation() {
        // Drive the state machine directly: 3 jobs of class 4 at vt 0,
        // min_class = 4 so every slot belongs to the jobs' own class.
        let p = AlignedParams::new(1, 2, 4);
        let mut jobs: Vec<AlignedJob> = (0..3).map(|i| AlignedJob::new(p, i, 4, 0)).collect();
        let mut rng = rand::rngs::mock::StepRng::new(0, 0x9e3779b97f4a7c15);
        for vt in 0..p.est_len(4) {
            let acts: Vec<Action> = jobs.iter_mut().map(|j| j.decide(vt, &mut rng)).collect();
            let tx: Vec<usize> = acts
                .iter()
                .enumerate()
                .filter(|(_, a)| matches!(a, Action::Transmit(_)))
                .map(|(i, _)| i)
                .collect();
            let fb = match tx.len() {
                0 => Feedback::Silent,
                1 => Feedback::Success {
                    src: tx[0] as u32,
                    payload: jobs[tx[0]].control_payload(),
                },
                _ => Feedback::Noise,
            };
            for j in jobs.iter_mut() {
                j.observe(vt, &fb);
            }
        }
        let est = jobs[0].estimate().unwrap();
        for j in &jobs {
            assert_eq!(j.estimate(), Some(est), "all jobs share the estimate");
        }
    }
}
