//! Shared helpers for the experiment modules.

use dcr_core::{AlignedParams, AlignedProtocol};
use dcr_sim::engine::{Action, Engine, EngineConfig, JobCtx, Protocol};
use dcr_sim::jamming::{JamPolicy, Jammer};
use dcr_sim::message::{ControlMsg, Payload};
use dcr_sim::metrics::SimReport;
use dcr_sim::probe::{ProbeEvent, ProbeSpec, SinkSpec};
use dcr_sim::slot::Feedback;
use dcr_sim::trace::{SlotOutcome, SlotRecord};
use dcr_workloads::generators::batch;
use dcr_workloads::Instance;
use rand::{Rng, RngCore};
use serde::{DeError, Deserialize, Serialize, Value};

/// A station that transmits a **control** message with fixed probability
/// `p` in every slot, forever. Because it never sends a data payload the
/// engine never retires it, which makes it the right tool for holding the
/// channel at a precise contention level (experiment E1).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PersistentP(pub f64);

/// `ControlMsg::kind` used by [`PersistentP`] probes.
pub const CTRL_PROBE: u16 = 99;

impl Protocol for PersistentP {
    fn act(&mut self, _ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
        if rng.gen_bool(self.0) {
            Action::Transmit(Payload::Control(ControlMsg::of_kind(CTRL_PROBE)))
        } else {
            Action::Listen
        }
    }

    fn tx_probability(&self, _ctx: &JobCtx) -> Option<f64> {
        Some(self.0)
    }

    // Needed by E21, which keeps sentinels live across its branch point.
    fn save_state(&self) -> Option<Value> {
        Some(self.to_value())
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let saved = Self::from_value(state)?;
        if !(0.0..=1.0).contains(&saved.0) {
            return Err(DeError::msg("p must be in [0,1]"));
        }
        *self = saved;
        Ok(())
    }
}

/// Run `instance` with per-job protocols from `factory`.
pub fn run_instance<F>(
    instance: &Instance,
    config: EngineConfig,
    jammer: Option<Jammer>,
    seed: u64,
    factory: F,
) -> SimReport
where
    F: FnMut(&dcr_sim::job::JobSpec) -> Box<dyn Protocol>,
{
    let mut engine = Engine::new(config, seed);
    if let Some(j) = jammer {
        engine.set_jammer(j);
    }
    engine.add_jobs(&instance.jobs, factory);
    engine.run()
}

/// Reconstruct the [`Feedback`] a listener saw from a trace record.
pub fn feedback_of(rec: &SlotRecord) -> Feedback {
    match rec.outcome {
        SlotOutcome::Silent | SlotOutcome::SilentGap { .. } => Feedback::Silent,
        SlotOutcome::Success { src, .. } => Feedback::Success {
            src,
            payload: rec.payload.expect("success records carry payloads"),
        },
        SlotOutcome::Collision { .. } | SlotOutcome::Jammed { .. } => Feedback::Noise,
    }
}

/// Find the PUNCTUAL round anchor in a trace: the first busy-busy-silent
/// run (start pair plus its guard slot — the same disambiguation the
/// protocol's synchronizer uses, since anarchy slots can extend a busy run
/// leftward). Returns the slot index of the round start.
pub fn find_round_anchor(trace: &[SlotRecord]) -> Option<u64> {
    let busy = |r: &SlotRecord| !r.is_silent();
    for win in trace.windows(3) {
        if busy(&win[0])
            && busy(&win[1])
            && !busy(&win[2])
            && win[1].slot == win[0].slot + 1
            && win[2].slot == win[1].slot + 1
        {
            return Some(win[0].slot);
        }
    }
    None
}

/// Run a batch of `n` [`AlignedProtocol`] jobs of class `class`, all in
/// the window `[0, 2^class)`, on the exact event-driven engine. With
/// `p_jam > 0` an all-successes adversary kills each lone transmission
/// with probability `p_jam` (the Section 3 jammer).
pub fn aligned_batch(
    params: AlignedParams,
    class: u32,
    n: usize,
    p_jam: f64,
    seed: u64,
) -> SimReport {
    run_aligned_batch(EngineConfig::aligned(), params, class, n, p_jam, seed)
}

/// [`aligned_batch`] with an events probe armed. Returns the first
/// `SizeEstimate` event's `(n_est, n_true)` — `None` if the class never
/// reported (the window ended mid-estimation).
pub fn probed_estimate(
    params: AlignedParams,
    class: u32,
    n: usize,
    p_jam: f64,
    seed: u64,
) -> Option<(u64, u64)> {
    let config = EngineConfig::aligned().with_probe(ProbeSpec::new().with(SinkSpec::Events));
    let r = run_aligned_batch(config, params, class, n, p_jam, seed);
    r.probes
        .as_ref()
        .and_then(|p| p.events())
        .expect("events sink configured")
        .iter()
        .find_map(|rec| match rec.event {
            ProbeEvent::SizeEstimate { n_est, n_true, .. } => Some((n_est, n_true)),
            _ => None,
        })
}

fn run_aligned_batch(
    config: EngineConfig,
    params: AlignedParams,
    class: u32,
    n: usize,
    p_jam: f64,
    seed: u64,
) -> SimReport {
    let jammer = (p_jam > 0.0).then(|| Jammer::new(JamPolicy::AllSuccesses, p_jam));
    run_instance(
        &batch(n, 1 << class),
        config,
        jammer,
        seed,
        AlignedProtocol::factory(params),
    )
}

/// Mean of an iterator of f64 (NaN when empty).
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for x in xs {
        sum += x;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcr_sim::job::JobSpec;

    #[test]
    fn persistent_probe_holds_contention() {
        let mut e = Engine::new(EngineConfig::default().with_trace(), 3);
        for i in 0..10 {
            e.add_job(JobSpec::new(i, 0, 500), Box::new(PersistentP(0.1)));
        }
        let r = e.run();
        // Nobody ever succeeds with data; jobs live the whole window.
        assert_eq!(r.successes(), 0);
        assert_eq!(r.slots_run, 500);
        // Contention declared every slot ≈ 1.0.
        let t = r.trace().unwrap();
        assert!((t[100].declared_contention - 1.0).abs() < 1e-9);
    }

    #[test]
    fn anchor_detection() {
        let mk = |slot, busy| SlotRecord {
            slot,
            outcome: if busy {
                SlotOutcome::Collision { n_tx: 2 }
            } else {
                SlotOutcome::Silent
            },
            live_jobs: 0,
            declared_contention: 0.0,
            payload: None,
        };
        let trace = vec![
            mk(0, false),
            mk(1, true),
            mk(2, false),
            mk(3, true),
            mk(4, true),
            mk(5, false),
        ];
        assert_eq!(find_round_anchor(&trace), Some(3));
        let silent = vec![mk(0, false), mk(1, false)];
        assert_eq!(find_round_anchor(&silent), None);
    }

    #[test]
    fn mean_helper() {
        assert!((mean([1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!(mean(std::iter::empty()).is_nan());
    }
}
