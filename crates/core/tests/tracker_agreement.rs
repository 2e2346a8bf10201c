//! Property tests for the pecking-order tracker's Lemma 7 invariant:
//! any two trackers started at a common critical time and fed the same
//! public channel history agree on every slot's owner and on every class's
//! schedule — regardless of what the (arbitrary, even nonsensical)
//! feedback stream contains. A last property checks the wake plan an
//! [`AlignedJob`] derives from its tracker against dense stepping, over
//! dozed parks and parks through the own estimation steps it only hears.

use dcr_core::aligned::params::AlignedParams;
use dcr_core::aligned::protocol::AlignedJob;
use dcr_core::aligned::tracker::Tracker;
use dcr_sim::crng::{CounterRng, Phase};
use dcr_sim::engine::{Action, Wake};
use dcr_sim::job::JobId;
use dcr_sim::message::Payload;
use dcr_sim::slot::Feedback;
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// An RNG that counts the words drawn from it.
#[derive(Clone)]
struct Counting<R> {
    inner: R,
    words: u64,
}

/// The job's `decide` RNG at virtual slot `vt`: its counter position
/// `(key, vt, Act)`, as in the engine's pure aligned setting.
fn act_rng(key: u64, vt: u64) -> Counting<CounterRng> {
    Counting {
        inner: CounterRng::new(key, vt, Phase::Act),
        words: 0,
    }
}

impl<R: RngCore> RngCore for Counting<R> {
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.words += 1;
        self.inner.fill_bytes(dest)
    }
}

/// Arbitrary feedback: silent, noise, or a success from some job id.
fn arb_feedback() -> impl Strategy<Value = Feedback> {
    prop_oneof![
        Just(Feedback::Silent),
        Just(Feedback::Noise),
        (0u32..8).prop_map(|id| Feedback::Success {
            src: id as JobId,
            payload: Payload::Data(id as JobId),
        }),
    ]
}

proptest! {
    /// Lemma 7: a class-`small` tracker and a class-`big` tracker replay
    /// identically on all slots the smaller one can see.
    #[test]
    fn trackers_agree_on_shared_classes(
        feedback in prop::collection::vec(arb_feedback(), 1..256),
        lambda in 1u64..3,
        min_class in 1u32..4,
        extra_small in 0u32..3,
        extra_big in 0u32..3,
        start_block in 0u64..4,
    ) {
        let small_top = min_class + extra_small;
        let big_top = small_top + extra_big;
        let params = AlignedParams::new(lambda, 2, min_class);
        // A critical time for the bigger class is critical for both.
        let start = start_block << big_top;
        let mut small = Tracker::new(params, small_top, start);
        let mut big = Tracker::new(params, big_top, start);

        for (i, fb) in feedback.iter().enumerate() {
            let t = start + i as u64;
            let a = small.begin_slot(t);
            let b = big.begin_slot(t);
            match (a, b) {
                (Some(sa), Some(sb)) => {
                    // If the big tracker assigns the slot to a class the
                    // small tracker can see, they must agree exactly.
                    if sb.class <= small_top {
                        prop_assert_eq!(sa, sb, "slot {}", t);
                    } else {
                        // Big gave the slot to a larger class: every class
                        // the small tracker sees must be complete.
                        prop_assert!(sa.class <= small_top);
                        // ...which contradicts `small` finding work, so
                        // this case must not happen:
                        prop_assert!(false, "small active while big defers at {}", t);
                    }
                }
                (Some(sa), None) => {
                    prop_assert!(
                        false,
                        "big idle while small runs class {} at {}",
                        sa.class,
                        t
                    );
                }
                (None, Some(sb)) => {
                    // Fine: the slot belongs to a class only big tracks.
                    prop_assert!(sb.class > small_top, "slot {}", t);
                }
                (None, None) => {}
            }
            small.end_slot(t, fb);
            big.end_slot(t, fb);
        }

        // Shared classes end with identical schedules and estimates.
        for class in min_class..=small_top {
            prop_assert_eq!(small.steps_of(class), big.steps_of(class));
            prop_assert_eq!(small.estimate_of(class), big.estimate_of(class));
            prop_assert_eq!(small.is_complete(class), big.is_complete(class));
            prop_assert_eq!(small.window_start_of(class), big.window_start_of(class));
        }
    }

    /// Replay determinism: the same history always yields the same tracker
    /// state (no hidden randomness or iteration-order dependence).
    #[test]
    fn tracker_replay_is_deterministic(
        feedback in prop::collection::vec(arb_feedback(), 1..128),
        lambda in 1u64..3,
    ) {
        let params = AlignedParams::new(lambda, 2, 2);
        let run = || {
            let mut tr = Tracker::new(params, 5, 0);
            let mut owners = Vec::new();
            for (i, fb) in feedback.iter().enumerate() {
                owners.push(tr.begin_slot(i as u64).map(|s| (s.class, s.kind)));
                tr.end_slot(i as u64, fb);
            }
            (owners, tr.estimate_of(5), tr.steps_of(5))
        };
        prop_assert_eq!(run(), run());
    }

    /// The active-step count of any class never exceeds Lemma 6's total
    /// for its (public) estimate, and completion happens exactly at it.
    #[test]
    fn steps_never_exceed_lemma6_total(
        feedback in prop::collection::vec(arb_feedback(), 1..512),
        lambda in 1u64..3,
    ) {
        let params = AlignedParams::new(lambda, 2, 2);
        let top = 6u32;
        let mut tr = Tracker::new(params, top, 0);
        for (i, fb) in feedback.iter().enumerate() {
            let t = i as u64;
            let _ = tr.begin_slot(t);
            tr.end_slot(t, fb);
            for class in 2..=top {
                let steps = tr.steps_of(class);
                if let Some(est) = tr.estimate_of(class) {
                    let total = params.total_active(class, est);
                    prop_assert!(steps <= total, "class {} steps {} > {}", class, steps, total);
                    if steps == total {
                        prop_assert!(tr.is_complete(class));
                    }
                } else {
                    prop_assert!(steps <= params.est_len(class));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The wake plan is exact. One job under test shares a channel with
    /// other ALIGNED jobs in every class it tracks, all stepped densely. A
    /// lone data transmission is jammed with probability about
    /// `jam_eighths / 8`, so some schedules run out and their jobs give up.
    /// The job's `decide` RNG is its counter position `(seed, vt, Act)`,
    /// so the plan may park it through own estimation steps whose coin
    /// says listen.
    ///
    /// Each time the job is observed at `now`, a clone of it steps through
    /// every slot before `next_wake_vt(now)`. In an asleep park each slot
    /// must be a `Sleep` that draws no RNG word; in a heard park each must
    /// be an own estimation step that draws its one coin, `false`, and
    /// listens. Either way the clone must stay
    /// unfinished. At the wake the job catches up on the heard park from
    /// the non-silent feedback alone, crediting the clone's listens; then
    /// the job and the clone must act alike, draw the same RNG words and
    /// end in the same state.
    #[test]
    fn wake_plan_matches_dense_stepping(
        lambda in 1u64..3,
        min_class in 6u32..9,
        extra in 0u32..3,
        start_block in 0u64..3,
        per_window in prop::collection::vec(0u32..4, 3..4),
        jams in prop::collection::vec(0u8..8, 1..64),
        jam_eighths in 0u8..9,
        seed in 0u64..1_000_000,
    ) {
        let params = AlignedParams::new(lambda, 2, min_class);
        let class = min_class + extra;
        let start = start_block << class;
        let end = start + (1u64 << class);
        // `per_window[k]` other jobs in every class-(min_class + k) window.
        let mut others = Vec::new();
        for (k, &count) in per_window.iter().take(extra as usize + 1).enumerate() {
            let c = min_class + k as u32;
            for ws in (start..end).step_by(1 << c) {
                for _ in 0..count {
                    let id = others.len() as JobId + 1;
                    others.push((AlignedJob::new(params, id, c, ws), id, ws..ws + (1 << c)));
                }
            }
        }
        let mut world_rng = ChaCha8Rng::seed_from_u64(!seed);
        let mut job = AlignedJob::new(params, 0, class, start);
        let mut wake = start;
        // The clone stepping densely since the last wake, whether that
        // park is heard, the clone's listens in it, and the non-silent
        // feedback the job missed.
        let mut dense: Option<AlignedJob> = None;
        let mut heard_park = false;
        let mut listened = 0u64;
        let mut missed: Vec<(u64, Feedback)> = Vec::new();
        for vt in start..end {
            let mut tx = Vec::new();
            let mut attended = Vec::new();
            for (i, (o, id, window)) in others.iter_mut().enumerate() {
                if !window.contains(&vt) || o.finished() {
                    continue;
                }
                match o.decide(vt, &mut world_rng) {
                    Action::Sleep => continue,
                    Action::Transmit(payload) => tx.push((*id, payload)),
                    Action::Listen => {}
                }
                attended.push(i);
            }
            let dense_act = dense.as_mut().map(|d| {
                let mut r = act_rng(seed, vt);
                (d.decide(vt, &mut r), r.words)
            });
            let act = if vt == wake {
                if heard_park {
                    let credited = job.catch_up(vt, missed.iter().map(|(t, fb)| (*t, fb)));
                    prop_assert_eq!(credited, listened, "listens credited at wake {}", vt);
                }
                let mut rng = act_rng(seed, vt);
                let act = job.decide(vt, &mut rng);
                if let Action::Transmit(payload) = act {
                    tx.push((0, payload));
                }
                Some((act, rng.words))
            } else {
                if let (Some((dense_act, words)), Some(d)) = (dense_act, dense.as_ref()) {
                    if heard_park {
                        prop_assert_eq!(dense_act, Action::Listen, "slot {} before wake {}", vt, wake);
                        prop_assert_eq!(words, 1, "a heard slot drew other than its one coin");
                    } else {
                        prop_assert_eq!(dense_act, Action::Sleep, "slot {} before wake {}", vt, wake);
                        prop_assert_eq!(words, 0, "a dozed slot drew randomness");
                    }
                    prop_assert_eq!(d.finished(), job.finished(), "outcome moved in skipped slot {}", vt);
                }
                None
            };
            let fb = match tx.as_slice() {
                [] => Feedback::Silent,
                [(src, payload)]
                    if !payload.is_data() || jams[vt as usize % jams.len()] >= jam_eighths =>
                {
                    Feedback::Success {
                        src: *src,
                        payload: *payload,
                    }
                }
                _ => Feedback::Noise,
            };
            for &i in &attended {
                others[i].0.observe(vt, &fb);
            }
            let Some((act, words)) = act else {
                if let (Some((Action::Listen, _)), Some(d)) = (dense_act, dense.as_mut()) {
                    d.observe(vt, &fb);
                    listened += 1;
                    if fb != Feedback::Silent {
                        missed.push((vt, fb));
                    }
                }
                continue;
            };
            if act != Action::Sleep {
                job.observe(vt, &fb);
            }
            if let (Some((dense_act, dense_words)), Some(d)) = (dense_act, dense.as_mut()) {
                prop_assert_eq!(dense_act, act, "action at wake {}", vt);
                prop_assert_eq!(dense_words, words, "RNG words drawn at wake {}", vt);
                if act != Action::Sleep {
                    d.observe(vt, &fb);
                }
                prop_assert_eq!(format!("{d:?}"), format!("{job:?}"), "state at wake {}", vt);
            }
            let plan = job.next_wake_vt(vt, seed);
            if plan == Wake::NEVER {
                prop_assert!(job.finished());
                break;
            }
            wake = plan.at();
            prop_assert!(wake > vt && wake <= end, "wake {} after {}", wake, vt);
            heard_park = wake > vt + 1 && matches!(plan, Wake::Hearing(_));
            (listened, missed) = (0, Vec::new());
            dense = Some(job.clone());
        }
    }
}
