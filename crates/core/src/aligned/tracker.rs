//! The replicated pecking-order tracker (Lemma 7).
//!
//! Every live job maintains a [`Tracker`] over the classes at or below its
//! own. The tracker is a *pure function of public information* — slot
//! indices (available under the aligned assumption) and channel feedback —
//! so any two jobs whose trackers start at a common critical time agree on
//! which class owns every slot and on every class's schedule. That is
//! exactly the paper's Lemma 7 invariant, and `proptest` checks it
//! (see `tests/tracker_agreement.rs` in this crate).
//!
//! Per slot the owner class is the **smallest class with unfinished work**;
//! the work for a class within its current window is: `λℓ²` estimation
//! steps, then — once the estimate `n_ℓ` is publicly computable from the
//! observed success counts — `λ(2n_ℓ−2) + λℓ²` broadcast steps (Lemma 6).
//! Window boundaries reset (truncate) a class's state unconditionally.

use crate::aligned::broadcast::{BroadcastLayout, SubphasePos};
use crate::aligned::estimator::Estimation;
use crate::aligned::params::AlignedParams;
use dcr_sim::crng::replay_bernoulli;
use dcr_sim::slot::Feedback;

/// What kind of active step a class is taking in the current slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// An estimation step in `phase` (1-based).
    Estimation {
        /// Phase index, `1..=ℓ`.
        phase: u32,
        /// Step within the phase, `0..λℓ`.
        step_in_phase: u64,
    },
    /// A broadcast step at the given subphase position.
    Broadcast(SubphasePos),
}

/// The active step assignment for one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveStep {
    /// The class that owns the slot.
    pub class: u32,
    /// Start of that class's current window (virtual time).
    pub window_start: u64,
    /// What the class does with the slot.
    pub kind: StepKind,
}

/// Per-class replicated state.
#[derive(Debug, Clone)]
struct ClassState {
    class: u32,
    window_start: u64,
    steps: u64,
    /// Estimation-phase split of `steps`, maintained incrementally so the
    /// per-slot hot path (`kind_of`, `end_slot`) never divides:
    /// `steps = phase0 * est_phase_len + step_in_phase` while estimating.
    phase0: u32,
    step_in_phase: u64,
    est: Estimation,
    estimate: Option<u64>,
    layout: Option<BroadcastLayout>,
    complete: bool,
}

impl ClassState {
    fn fresh(class: u32, window_start: u64) -> Self {
        Self {
            class,
            window_start,
            steps: 0,
            phase0: 0,
            step_in_phase: 0,
            est: Estimation::new(class),
            estimate: None,
            layout: None,
            complete: false,
        }
    }
}

/// A deterministic replay of the pecking-order schedule for classes
/// `params.min_class ..= top_class`.
#[derive(Debug, Clone)]
pub struct Tracker {
    params: AlignedParams,
    top_class: u32,
    classes: Vec<ClassState>,
    /// The class selected by the last `begin_slot`, consumed by `end_slot`.
    pending: Option<(u64, usize)>,
    /// Cache: every class below this index is complete. Between window
    /// boundaries completion is monotone, so this only advances; it rewinds
    /// to 0 at each multiple of `2^min_class` (the only slots where any
    /// class can reset).
    first_live: usize,
}

impl Tracker {
    /// Create a tracker starting at virtual time `start`, which must be a
    /// critical time for `top_class` (and therefore for every smaller
    /// class) — i.e. `start % 2^top_class == 0`. In the aligned protocol
    /// this is the job's own release slot.
    pub fn new(params: AlignedParams, top_class: u32, start: u64) -> Self {
        assert!(top_class >= params.min_class, "top_class below min_class");
        assert!(top_class < 63, "class out of range");
        assert_eq!(
            start % (1u64 << top_class),
            0,
            "tracker must start at a critical time for its top class"
        );
        let classes = (params.min_class..=top_class)
            .map(|c| ClassState::fresh(c, start))
            .collect();
        Self {
            params,
            top_class,
            classes,
            pending: None,
            first_live: 0,
        }
    }

    /// The largest tracked class.
    pub fn top_class(&self) -> u32 {
        self.top_class
    }

    /// Begin slot `t`: apply window-boundary resets, then return the active
    /// step among the tracked classes (or `None` if they are all complete —
    /// some larger, untracked class may own the slot).
    ///
    /// Must be followed by [`Tracker::end_slot`] for the same `t`.
    pub fn begin_slot(&mut self, t: u64) -> Option<ActiveStep> {
        assert!(self.pending.is_none(), "begin_slot without end_slot");
        // Window boundaries of every tracked class are multiples of
        // `2^min_class`; on all other slots the reset scan cannot fire and
        // completion below `first_live` still holds.
        if t & ((1u64 << self.params.min_class) - 1) == 0 {
            for cs in &mut self.classes {
                // `w` is a power of two, so the boundary test is a mask —
                // this runs per tracked class and must not divide.
                let mask = (1u64 << cs.class) - 1;
                if t & mask == 0 && cs.window_start != t {
                    // A new window begins: truncate whatever was in flight.
                    *cs = ClassState::fresh(cs.class, t);
                }
            }
            self.first_live = 0;
        }
        while self.first_live < self.classes.len() && self.classes[self.first_live].complete {
            self.first_live += 1;
        }
        if self.first_live == self.classes.len() {
            return None;
        }
        let idx = self.first_live;
        let cs = &self.classes[idx];
        let kind = self.kind_of(cs);
        self.pending = Some((t, idx));
        Some(ActiveStep {
            class: cs.class,
            window_start: cs.window_start,
            kind,
        })
    }

    fn kind_of(&self, cs: &ClassState) -> StepKind {
        let est_len = self.params.est_len(cs.class);
        if cs.steps < est_len {
            StepKind::Estimation {
                phase: cs.phase0 + 1,
                step_in_phase: cs.step_in_phase,
            }
        } else {
            let layout = cs
                .layout
                .as_ref()
                .expect("layout exists once estimation finished");
            StepKind::Broadcast(layout.position(cs.steps - est_len))
        }
    }

    /// Finish slot `t` with the observed channel feedback, advancing the
    /// active class's schedule. A no-op if `begin_slot` returned `None`.
    pub fn end_slot(&mut self, t: u64, fb: &Feedback) {
        let Some((begun, idx)) = self.pending.take() else {
            return;
        };
        assert_eq!(begun, t, "end_slot for a different slot than begin_slot");
        let params = self.params;
        let cs = &mut self.classes[idx];
        let est_len = params.est_len(cs.class);
        if cs.steps < est_len {
            cs.est.record(cs.phase0 + 1, fb.is_success());
            cs.step_in_phase += 1;
            if cs.step_in_phase == params.est_phase_len(cs.class) {
                cs.phase0 += 1;
                cs.step_in_phase = 0;
            }
        }
        cs.steps += 1;
        if cs.steps == est_len && cs.estimate.is_none() {
            let estimate = cs.est.estimate(params.tau);
            cs.estimate = Some(estimate);
            cs.layout = Some(BroadcastLayout::new(&params, cs.class, estimate));
            if estimate == 0 {
                cs.complete = true;
            }
        }
        if let Some(layout) = &cs.layout {
            if cs.steps >= est_len + layout.total() {
                cs.complete = true;
            }
        }
    }

    /// Advance the replicated schedule over the feedback-free gap
    /// `[from, to)` in `O(#segments)` instead of slot-by-slot. Callers must
    /// guarantee the gap contains no estimation step of any tracked class
    /// and no window-boundary reset — which [`Tracker::next_wake_hint`]'s
    /// wake plan does by construction (every multiple of `2^min_class`
    /// starts a fresh estimation of the smallest class, so hints never
    /// reach past one).
    pub fn fast_forward(&mut self, from: u64, to: u64) {
        assert!(self.pending.is_none(), "fast_forward with a slot in flight");
        let min_w = 1u64 << self.params.min_class;
        assert!(
            from.div_ceil(min_w) * min_w >= to,
            "gap [{from}, {to}) crosses a window-boundary reset"
        );
        let mut t = from;
        while t < to {
            let Some(idx) = self.classes.iter().position(|cs| !cs.complete) else {
                // All tracked classes idle for the rest of the gap.
                return;
            };
            let est_len = self.params.est_len(self.classes[idx].class);
            let cs = &mut self.classes[idx];
            assert!(
                cs.steps >= est_len,
                "fast_forward across an estimation step of class {}",
                cs.class
            );
            let layout = cs.layout.as_ref().expect("estimated class has a layout");
            let total = est_len + layout.total();
            let take = (total - cs.steps).min(to - t);
            cs.steps += take;
            t += take;
            if cs.steps == total {
                cs.complete = true;
            }
        }
    }

    /// The next virtual slot strictly after `now` at which a job of
    /// `(my_class, my_window_start)` must take part in the slot-by-slot
    /// protocol: the earliest slot that is any tracked class's estimation
    /// step (real feedback feeds the replicated estimator), a
    /// window-boundary reset, or one of the job's own broadcast events —
    /// a subphase entry (where it draws its slot), its drawn slot, or its
    /// schedule's completion step (where giving up is detected). Every
    /// slot in between is a feedback-free broadcast or idle slot that
    /// [`Tracker::fast_forward`] can replay in bulk.
    ///
    /// The job's own estimation steps need not be attended either when
    /// they run from `now + 1` on (see [`Tracker::estimating_next`]): the
    /// plan then wakes at the first step whose coin under `coin_key` —
    /// `replay_bernoulli(coin_key, slot, 2^-phase)`, virtual time being
    /// the engine's slot — says transmit, at the last estimation step
    /// (where the estimate appears), or at the window-boundary reset,
    /// whichever comes first. The steps before it are heard, not dozed:
    /// the caller replays them with their feedback. Other classes'
    /// estimation steps stay attended.
    ///
    /// `drawn_subphase`/`drawn_offset` are the caller's subphase draw
    /// bookkeeping (see `AlignedJob`), needed to locate its drawn slot.
    pub fn next_wake_hint(
        &self,
        now: u64,
        my_class: u32,
        my_window_start: u64,
        drawn_subphase: Option<u64>,
        drawn_offset: u64,
        coin_key: u64,
    ) -> u64 {
        assert!(
            self.pending.is_none(),
            "next_wake_hint with a slot in flight"
        );
        let min_w = 1u64 << self.params.min_class;
        // Every multiple of 2^min_class resets the smallest class into a
        // fresh estimation, so no plan extends past the next one.
        let boundary = (now | (min_w - 1)) + 1;
        // Walk the unfinished classes in pecking order. Each one owns the
        // slots from `t` until its schedule ends; a class whose broadcast
        // segment passes without an event for this job is finished by then,
        // and the next unfinished class takes over where it ended.
        let mut t = now + 1;
        for cs in self.classes.iter().filter(|cs| !cs.complete) {
            if t >= boundary {
                break;
            }
            let est_len = self.params.est_len(cs.class);
            if cs.steps < est_len {
                let mine = cs.class == my_class && cs.window_start == my_window_start;
                return if mine && t == now + 1 {
                    self.first_coin(cs, t, boundary.min(t + est_len - 1 - cs.steps), coin_key)
                } else {
                    t
                };
            }
            let layout = cs.layout.as_ref().expect("estimated class has a layout");
            let remaining = est_len + layout.total() - cs.steps;
            let seg_end = (t + remaining).min(boundary);
            if cs.class == my_class && cs.window_start == my_window_start {
                // Within the segment, active steps map 1:1 onto slots.
                let bstep = cs.steps - est_len;
                let pos = layout.position(bstep);
                if drawn_subphase != Some(cs.steps - pos.offset) {
                    // A subphase this job has not drawn a slot for is
                    // under way at t: wake to draw.
                    return t;
                }
                let mut event = u64::MAX;
                if drawn_offset >= pos.offset {
                    event = t + (drawn_offset - pos.offset); // the drawn slot
                }
                let sp = layout.subphases()[pos.subphase];
                let next_entry = t + (sp.start + sp.len - bstep);
                if next_entry < seg_end {
                    event = event.min(next_entry);
                }
                if seg_end == t + remaining {
                    // The schedule's last step, where give-up is detected.
                    event = event.min(seg_end - 1);
                }
                if event < seg_end {
                    return event;
                }
                // The boundary truncates the segment before any event.
                return boundary;
            }
            // Another class's broadcast segment: nothing to do or hear.
            t = seg_end;
        }
        boundary
    }

    /// The first slot in `[t, end)` at which class `cs`, estimating from
    /// step `cs.steps` at slot `t` on, draws a transmit coin under `key`;
    /// `end` if none does.
    fn first_coin(&self, cs: &ClassState, t: u64, end: u64, key: u64) -> u64 {
        let phase_len = self.params.est_phase_len(cs.class);
        let (mut phase, mut step) = (cs.phase0 + 1, cs.step_in_phase);
        let mut p = Estimation::tx_probability(phase);
        for slot in t..end {
            if replay_bernoulli(key, slot, p) {
                return slot;
            }
            step += 1;
            if step == phase_len {
                (phase, step) = (phase + 1, 0);
                p = Estimation::tx_probability(phase);
            }
        }
        end
    }

    /// Whether the slot after the last one ended is an estimation step of
    /// class `class`'s window starting at `window_start` — so the wake
    /// plan for a job of that class parks it through steps it hears.
    /// Meaningful when that slot is no window-boundary reset, which holds
    /// whenever the plan parks the job at all.
    pub fn estimating_next(&self, class: u32, window_start: u64) -> bool {
        self.classes[self.first_live..]
            .iter()
            .find(|cs| !cs.complete)
            .is_some_and(|cs| {
                cs.class == class
                    && cs.window_start == window_start
                    && cs.steps < self.params.est_len(cs.class)
            })
    }

    /// The estimation phase of `class`'s step `offset` steps after the
    /// next one, if that step is still an estimation step.
    pub fn phase_ahead(&self, class: u32, offset: u64) -> Option<u32> {
        let cs = self.class_state(class);
        if cs.steps + offset >= self.params.est_len(class) {
            return None;
        }
        let phase_len = self.params.est_phase_len(class);
        Some(cs.phase0 + 1 + ((cs.step_in_phase + offset) / phase_len) as u32)
    }

    /// Publicly computed estimate for `class`'s current window, if its
    /// estimation has finished.
    pub fn estimate_of(&self, class: u32) -> Option<u64> {
        self.class_state(class).estimate
    }

    /// Active steps `class` has taken in its current window.
    pub fn steps_of(&self, class: u32) -> u64 {
        self.class_state(class).steps
    }

    /// Whether `class`'s algorithm for its current window has completed.
    pub fn is_complete(&self, class: u32) -> bool {
        self.class_state(class).complete
    }

    /// Start of `class`'s current window.
    pub fn window_start_of(&self, class: u32) -> u64 {
        self.class_state(class).window_start
    }

    fn class_state(&self, class: u32) -> &ClassState {
        assert!(class >= self.params.min_class && class <= self.top_class);
        &self.classes[(class - self.params.min_class) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcr_sim::job::JobId;
    use dcr_sim::message::Payload;

    fn success(src: JobId) -> Feedback {
        Feedback::Success {
            src,
            payload: Payload::Data(src),
        }
    }

    fn params() -> AlignedParams {
        AlignedParams::new(1, 2, 1)
    }

    /// Drive a tracker through `n` slots with all-silent feedback.
    fn drive_silent(tracker: &mut Tracker, from: u64, n: u64) {
        for t in from..from + n {
            let _ = tracker.begin_slot(t);
            tracker.end_slot(t, &Feedback::Silent);
        }
    }

    #[test]
    fn silent_world_completes_estimation_then_idles() {
        // Single class 5 (window 32), λ=1: estimation takes 25 slots; an
        // all-silent channel yields estimate 0, so slots 25..31 are idle,
        // and the window restart at 32 starts a fresh estimation.
        let mut tr = Tracker::new(AlignedParams::new(1, 2, 5), 5, 0);
        for t in 0..25u64 {
            let step = tr.begin_slot(t).unwrap();
            assert_eq!(step.class, 5);
            assert!(matches!(step.kind, StepKind::Estimation { .. }), "t={t}");
            tr.end_slot(t, &Feedback::Silent);
        }
        assert!(tr.is_complete(5));
        assert_eq!(tr.estimate_of(5), Some(0));
        for t in 25..32u64 {
            assert!(tr.begin_slot(t).is_none(), "t={t} should be idle");
            tr.end_slot(t, &Feedback::Silent);
        }
        let step = tr.begin_slot(32).unwrap();
        assert_eq!(step.window_start, 32);
        assert_eq!(tr.steps_of(5), 0);
        tr.end_slot(32, &Feedback::Silent);
    }

    #[test]
    fn small_class_preempts_and_big_class_truncates() {
        // Classes 1..=2, λ=1. Class 1 (window 2) restarts every even slot
        // and owns it; class 2 (window 4) only ever gets the odd slots —
        // 2 active steps per window, short of its 4 estimation steps, so it
        // is truncated at every window boundary. This is the pecking-order
        // pathology that forces γ (hence min_class) to be large.
        let mut tr = Tracker::new(params(), 2, 0);
        for t in 0..12u64 {
            let step = tr.begin_slot(t).unwrap();
            let expect = if t % 2 == 0 { 1 } else { 2 };
            assert_eq!(step.class, expect, "t={t}");
            tr.end_slot(t, &Feedback::Silent);
            if t % 4 == 3 {
                // End of a class-2 window: only 2 of 4 estimation steps ran.
                assert_eq!(tr.steps_of(2), 2);
                assert!(!tr.is_complete(2));
            }
        }
    }

    #[test]
    fn successes_produce_estimate_and_broadcast_schedule() {
        // Single class 7 (window 128), λ=1, τ=2. Estimation: 7 phases × 7
        // steps = 49. Successes in phase 1 ⇒ estimate τ·2¹ = 4 ⇒ broadcast
        // λ(2·4−2) + λ·49 = 55 steps; complete at step 104 < 128.
        let mut tr = Tracker::new(AlignedParams::new(1, 2, 7), 7, 0);
        for t in 0..49u64 {
            let s = tr.begin_slot(t).unwrap();
            let phase = (t / 7) as u32 + 1;
            assert!(
                matches!(s.kind, StepKind::Estimation { phase: p, .. } if p == phase),
                "t={t}"
            );
            let fb = if phase == 1 {
                success(0)
            } else {
                Feedback::Silent
            };
            tr.end_slot(t, &fb);
        }
        assert_eq!(tr.estimate_of(7), Some(4));
        assert!(!tr.is_complete(7));
        for t in 49..104u64 {
            let s = tr.begin_slot(t).unwrap();
            assert!(matches!(s.kind, StepKind::Broadcast(_)), "t={t}");
            tr.end_slot(t, &Feedback::Silent);
        }
        assert!(tr.is_complete(7));
        // Remaining window is idle.
        assert!(tr.begin_slot(104).is_none());
        tr.end_slot(104, &Feedback::Silent);
    }

    #[test]
    fn window_boundary_truncates() {
        // Class 2 (window 4), λ=2: est_len = 8 > 4, so the class is always
        // truncated mid-estimation — at t=4 the state must reset.
        let mut tr = Tracker::new(AlignedParams::new(2, 2, 2), 2, 0);
        drive_silent(&mut tr, 0, 4);
        assert_eq!(tr.steps_of(2), 4);
        let s = tr.begin_slot(4).unwrap();
        assert_eq!(s.window_start, 4);
        assert_eq!(tr.steps_of(2), 0, "reset at new window");
        tr.end_slot(4, &Feedback::Silent);
    }

    #[test]
    fn two_trackers_agree_lemma7() {
        // A class-3 tracker and a class-2 tracker started at the same
        // critical time and fed identical feedback agree on every slot the
        // smaller one can see.
        let p = AlignedParams::new(1, 2, 1);
        let mut big = Tracker::new(p, 3, 8);
        let mut small = Tracker::new(p, 2, 8);
        for t in 8..16 {
            let a = big.begin_slot(t);
            let b = small.begin_slot(t);
            let fb = if t % 3 == 0 {
                success(1)
            } else {
                Feedback::Silent
            };
            match (a, b) {
                (Some(sa), Some(sb)) => assert_eq!(sa, sb, "t={t}"),
                (Some(sa), None) => {
                    assert!(sa.class > 2, "small idle but big active on small class")
                }
                (None, None) => {}
                (None, Some(_)) => panic!("big idle while small active"),
            }
            big.end_slot(t, &fb);
            small.end_slot(t, &fb);
        }
    }

    #[test]
    #[should_panic(expected = "critical time")]
    fn misaligned_start_rejected() {
        let _ = Tracker::new(params(), 3, 4); // 4 % 8 != 0
    }

    #[test]
    #[should_panic(expected = "begin_slot without end_slot")]
    fn double_begin_panics() {
        let mut tr = Tracker::new(params(), 2, 0);
        let _ = tr.begin_slot(0);
        let _ = tr.begin_slot(1);
    }
}
