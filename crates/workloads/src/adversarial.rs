//! Adversarial instance families.
//!
//! The harmonic instance of Lemma 5 is one point in a family of
//! worst-case-flavoured workloads; this module provides the recurring
//! shapes used in the adversarial-queuing literature the paper cites
//! ([6, 13, 34, 35]) adapted to the deadline model:
//!
//! * [`rolling_harmonic`] — the Lemma 5 burst repeated over time, so
//!   protocols face a *sustained* stream of urgency gradients rather than
//!   a single batch;
//! * [`laminar`] — a perfectly nested (laminar) window family, the
//!   worst case for pecking-order deferral depth;
//! * [`staircase`] — windows whose releases march forward while deadlines
//!   stay put, maximizing the EDF pressure at the common deadline.
//!
//! Beyond instance *shapes*, the module pairs instances with the adversary
//! built to hurt them: an [`AttackScenario`] bundles an instance with a
//! serializable [`AdversarySpec`] and a `p_jam`, so experiments (E18's
//! stateful-adversary panel) and regression tests pull attack + workload
//! as one named unit instead of re-deriving the pairing ad hoc.

use crate::instance::Instance;
use dcr_sim::jamming::{AdversarySpec, Jammer};
use dcr_sim::job::JobSpec;

/// The Lemma 5 harmonic burst (`w_j = j·inv_gamma`, all released together)
/// repeated every `period` slots, `bursts` times.
///
/// Feasible for the same reason the single burst is, provided
/// `period ≥ n·inv_gamma` (each burst's EDF schedule finishes before the
/// next burst arrives).
pub fn rolling_harmonic(n: usize, inv_gamma: u64, period: u64, bursts: usize) -> Instance {
    assert!(inv_gamma >= 1 && n >= 1 && bursts >= 1);
    assert!(
        period >= n as u64 * inv_gamma,
        "period must cover one burst's schedule for feasibility"
    );
    let mut jobs = Vec::with_capacity(n * bursts);
    for b in 0..bursts {
        let base = b as u64 * period;
        for j in 1..=n {
            jobs.push(JobSpec::new(0, base, base + j as u64 * inv_gamma));
        }
    }
    Instance::new(
        format!("rolling_harmonic(n={n},1/γ={inv_gamma},p={period}×{bursts})"),
        jobs,
    )
}

/// A laminar (perfectly nested) family: `depth` windows
/// `[0, s), [0, 2s), [0, 4s), …` each holding `per_level` jobs — every
/// job's window strictly contains all smaller ones, so pecking-order
/// deferral chains through every level.
pub fn laminar(depth: u32, smallest: u64, per_level: usize) -> Instance {
    assert!(depth >= 1 && smallest >= 1);
    let mut jobs = Vec::new();
    for level in 0..depth {
        let w = smallest << level;
        for _ in 0..per_level {
            jobs.push(JobSpec::new(0, 0, w));
        }
    }
    Instance::new(
        format!("laminar(depth={depth},s={smallest},k={per_level})"),
        jobs,
    )
}

/// A staircase: `n` jobs with releases `0, step, 2·step, …` all sharing
/// one common deadline — the latest arrival has the least room, and an
/// EDF-oblivious protocol that serves early arrivals first starves the
/// tail.
pub fn staircase(n: usize, step: u64, deadline: u64) -> Instance {
    assert!(n >= 1);
    assert!(
        deadline > (n as u64 - 1) * step,
        "last job must have a non-empty window"
    );
    let jobs = (0..n)
        .map(|i| JobSpec::new(0, i as u64 * step, deadline))
        .collect();
    Instance::new(format!("staircase(n={n},step={step},d={deadline})"), jobs)
}

/// An instance paired with the adversary built to attack it.
#[derive(Debug, Clone)]
pub struct AttackScenario {
    /// Short name for tables and artifact cells.
    pub name: String,
    /// The workload under attack.
    pub instance: Instance,
    /// The adversary configuration (serializable for artifacts).
    pub adversary: AdversarySpec,
    /// Jam success probability handed to the jammer.
    pub p_jam: f64,
}

impl AttackScenario {
    /// Instantiate the scenario's jammer (fresh adversary state per call,
    /// so Monte-Carlo trials stay independent).
    pub fn jammer(&self) -> Jammer {
        self.adversary.jammer(self.p_jam)
    }
}

/// The paper's "skew the estimate `n_ℓ`" attack, packaged: an aligned
/// batch of `n` jobs with window `2^class`, against a reactive jammer that
/// destroys the first `k` successes of every busy stretch it observes —
/// exactly the estimation pings that anchor each window.
pub fn estimation_skew_attack(class: u32, n: usize, k: u64, p_jam: f64) -> AttackScenario {
    AttackScenario {
        name: format!("skew(k={k})"),
        instance: crate::generators::batch(n, 1u64 << class),
        adversary: AdversarySpec::Reactive {
            k,
            // An estimation subphase never goes quiet for long while jobs
            // remain; a full window-scale silence marks a fresh phase.
            reset_gap: 1u64 << (class / 2),
        },
        p_jam,
    }
}

/// A finite-ammunition blitz against the Lemma 5 urgency gradient: the
/// rolling harmonic stream faces a budgeted jammer that, when `data_only`,
/// lets all coordination traffic through and spends its whole budget on
/// data deliveries.
pub fn budget_blitz_attack(
    n: usize,
    inv_gamma: u64,
    bursts: usize,
    budget: u64,
    data_only: bool,
    p_jam: f64,
) -> AttackScenario {
    let period = n as u64 * inv_gamma;
    AttackScenario {
        name: format!("blitz(B={budget}{})", if data_only { ",data" } else { "" }),
        instance: rolling_harmonic(n, inv_gamma, period, bursts),
        adversary: AdversarySpec::Budgeted { budget, data_only },
        p_jam,
    }
}

/// Bursty channel outages over an aligned batch: a Gilbert–Elliott chain
/// spending a `duty` fraction of slots in its bad state, in bursts of mean
/// length `burst_len`, striking every slot (idle included) while bad.
pub fn burst_outage_attack(
    class: u32,
    n: usize,
    duty: f64,
    burst_len: f64,
    p_jam: f64,
) -> AttackScenario {
    assert!((0.0..1.0).contains(&duty), "duty must be in [0,1)");
    assert!(burst_len >= 1.0, "mean burst length must be >= 1");
    let p_exit = 1.0 / burst_len;
    let p_enter = (p_exit * duty / (1.0 - duty)).min(1.0);
    AttackScenario {
        name: format!("burst(L={burst_len},duty={duty})"),
        instance: crate::generators::batch(n, 1u64 << class),
        adversary: AdversarySpec::Bursty { p_enter, p_exit },
        p_jam,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::is_gamma_slack_feasible;

    #[test]
    fn rolling_harmonic_is_feasible() {
        let inst = rolling_harmonic(16, 4, 16 * 4, 5);
        assert_eq!(inst.n(), 80);
        assert!(is_gamma_slack_feasible(&inst.jobs, 0.25));
    }

    #[test]
    #[should_panic(expected = "period")]
    fn rolling_harmonic_rejects_overlapping_bursts() {
        let _ = rolling_harmonic(16, 4, 10, 2);
    }

    #[test]
    fn laminar_nesting_structure() {
        let inst = laminar(4, 8, 2);
        assert_eq!(inst.n(), 8);
        let h = inst.window_histogram();
        assert_eq!(h[&8], 2);
        assert_eq!(h[&64], 2);
        // Laminar with power-of-two smallest is aligned.
        assert!(inst.is_aligned());
        // Feasibility: 8 jobs, tightest window 8 holds 2 of them; with
        // L = 2 the nested load is 2·2 in 8, then 4·2 in 16, ... fine:
        assert!(is_gamma_slack_feasible(&inst.jobs, 0.5));
    }

    #[test]
    fn staircase_windows_shrink() {
        let inst = staircase(5, 10, 100);
        assert_eq!(inst.jobs[0].window(), 100);
        assert_eq!(inst.jobs[4].window(), 60);
        assert!(is_gamma_slack_feasible(&inst.jobs, 1.0 / 8.0));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn staircase_rejects_impossible_tail() {
        let _ = staircase(11, 10, 100);
    }

    #[test]
    fn estimation_skew_pairs_reactive_with_aligned_batch() {
        let s = estimation_skew_attack(10, 8, 3, 0.5);
        assert!(s.instance.is_aligned());
        assert_eq!(s.instance.n(), 8);
        assert!(matches!(s.adversary, AdversarySpec::Reactive { k: 3, .. }));
        // Reactive jammers never strike idle slots: fast-forward stays on.
        assert!(!s.jammer().strikes_idle());
    }

    #[test]
    fn budget_blitz_stays_feasible() {
        let s = budget_blitz_attack(8, 4, 3, 16, true, 1.0);
        assert!(is_gamma_slack_feasible(&s.instance.jobs, 0.25));
        assert!(matches!(
            s.adversary,
            AdversarySpec::Budgeted {
                budget: 16,
                data_only: true
            }
        ));
    }

    #[test]
    fn burst_outage_hits_requested_duty() {
        let s = burst_outage_attack(10, 8, 0.25, 16.0, 1.0);
        let AdversarySpec::Bursty { p_enter, p_exit } = s.adversary else {
            panic!("expected bursty adversary");
        };
        assert!((p_exit - 1.0 / 16.0).abs() < 1e-12);
        let duty = p_enter / (p_enter + p_exit);
        assert!((duty - 0.25).abs() < 1e-12, "duty={duty}");
        // Gilbert–Elliott faults strike idle slots.
        assert!(s.jammer().strikes_idle());
    }

    #[test]
    fn scenario_jammer_gets_fresh_state_per_call() {
        use dcr_sim::jamming::SlotView;
        use dcr_sim::rng::{SeedSeq, StreamLabel};
        let s = budget_blitz_attack(4, 2, 1, 1, false, 1.0);
        let mut rng = SeedSeq::new(9).rng(StreamLabel::Jammer, 0);
        let mut j1 = s.jammer();
        let view = SlotView::Single {
            src: 0,
            payload: dcr_sim::message::Payload::Data(0),
        };
        assert!(j1.jams(view, &mut rng)); // budget spent
        assert!(!j1.jams(view, &mut rng));
        // A second jammer starts with a full budget again.
        assert!(s.jammer().jams(view, &mut rng));
    }
}
