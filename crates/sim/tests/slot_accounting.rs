//! Every executed slot is counted exactly once: a paused prefix at its
//! pause, the rest at `finish`, a restored branch only after its
//! checkpoint.
//!
//! This lives in its own test binary with a single test because
//! [`slots_executed_total`] is process-wide: a test running beside it in
//! the same process would add its own slots to the delta.

use dcr_sim::engine::{slots_executed_total, thread_slots_executed};
use dcr_sim::prelude::*;
use rand::Rng;

/// Transmit data with probability 0.1 every slot. Memoryless: the engine
/// retires the job on its success, so its state is the unit value.
#[derive(serde::Serialize, serde::Deserialize)]
struct Memoryless;

impl Protocol for Memoryless {
    fn act(&mut self, ctx: &JobCtx, rng: &mut dyn rand::RngCore) -> Action {
        if rng.gen_bool(0.1) {
            Action::Transmit(Payload::Data(ctx.id))
        } else {
            Action::Listen
        }
    }

    fn save_state(&self) -> Option<serde::Value> {
        Some(serde::Serialize::to_value(self))
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::DeError> {
        *self = serde::Deserialize::from_value(state)?;
        Ok(())
    }
}

#[test]
fn prefixes_and_suffixes_are_counted_once() {
    // Releases straddle the slot-500 branch point, so every branch runs
    // on past it.
    let jobs: Vec<JobSpec> = (0..24u32)
        .map(|i| {
            let release = u64::from(i) * 60;
            JobSpec::new(i, release, release + 600)
        })
        .collect();
    let config = EngineConfig::default();
    let base = AdversarySpec::Policy(JamPolicy::Never);

    // A run paused on the way counts its slots once.
    let (total0, thread0) = (slots_executed_total(), thread_slots_executed());
    let mut e = Engine::new(config.clone(), 7);
    e.add_jobs(&jobs, |_| Box::new(Memoryless));
    let paused = e.run_to(500);
    assert_eq!(slots_executed_total() - total0, paused);
    let report = e.finish();
    assert_eq!(slots_executed_total() - total0, report.slots_run);
    assert_eq!(thread_slots_executed() - thread0, report.slots_run);

    // A branched sweep counts its shared prefix once, then each suffix.
    let branches: Vec<BranchSpec> = [0.0, 0.3, 0.7]
        .iter()
        .map(|&p_jam| BranchSpec {
            label: format!("p{p_jam}"),
            adversary: AdversarySpec::Policy(JamPolicy::AllSuccesses),
            p_jam,
        })
        .collect();
    let (total0, thread0) = (slots_executed_total(), thread_slots_executed());
    let out = run_branched(
        &config,
        99,
        &jobs,
        |_| Box::new(Memoryless),
        &base,
        0.0,
        500,
        &branches,
    )
    .expect("branched run");
    assert!(out.reports.iter().all(|r| r.slots_run > out.prefix_slot));
    let want = out.prefix_slot
        + out
            .reports
            .iter()
            .map(|r| r.slots_run - out.prefix_slot)
            .sum::<u64>();
    assert_eq!(slots_executed_total() - total0, want);
    // The suffixes ran on runner workers and were credited at join.
    assert_eq!(thread_slots_executed() - thread0, want);
}
