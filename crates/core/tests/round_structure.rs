//! System-level invariants of PUNCTUAL's round structure, checked on real
//! engine traces. The synchronization scheme rests on these:
//!
//! 1. once the round train is established, busy runs never exceed 3 slots
//!    (anarchy + the two start slots);
//! 2. every busy run of length ≥ 2 ends at round position 1 — which is
//!    exactly what lets a newcomer recover the phase from "busy, busy,
//!    silent";
//! 3. position-2 guard slots are silent while any synchronized job lives.

use dcr_core::punctual::{PunctualParams, ROUND_LEN};
use dcr_core::PunctualProtocol;
use dcr_sim::engine::{Engine, EngineConfig};
use dcr_sim::job::JobSpec;
use dcr_sim::trace::SlotRecord;
use proptest::prelude::*;

fn run_traced(n: u32, w: u64, stagger: u64, seed: u64) -> Vec<SlotRecord> {
    let mut e = Engine::new(EngineConfig::default().with_trace(), seed);
    for i in 0..n {
        let r = u64::from(i) * stagger;
        e.add_job(
            JobSpec::new(i, r, r + w),
            Box::new(PunctualProtocol::new(PunctualParams::laptop())),
        );
    }
    e.run().trace().expect("trace enabled").to_vec()
}

fn busy(rec: &SlotRecord) -> bool {
    // A run-length-encoded silent gap is silence, not traffic.
    !rec.is_silent()
}

/// The anchor (round-start slot) per the trace: first busy-busy-silent.
fn anchor_of(trace: &[SlotRecord]) -> Option<u64> {
    trace
        .windows(3)
        .find_map(|w| (busy(&w[0]) && busy(&w[1]) && !busy(&w[2])).then_some(w[0].slot))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn busy_runs_bounded_and_phase_aligned(
        n in 1u32..12,
        w_exp in 12u32..14,
        stagger in 0u64..64,
        seed in 0u64..10_000,
    ) {
        let w = 1u64 << w_exp;
        let trace = run_traced(n, w, stagger, seed);
        let Some(anchor) = anchor_of(&trace) else {
            // Tiny population can die before ever forming a round train;
            // nothing to check.
            return Ok(());
        };

        // Scan busy runs after the anchor. Ignore the tail after the last
        // job retires (the train stops there).
        let last_busy = trace.iter().rev().find(|r| busy(r)).map(|r| r.slot).unwrap_or(0);
        let mut run_len = 0u64;
        for rec in trace.iter().filter(|r| r.slot >= anchor && r.slot <= last_busy) {
            if busy(rec) {
                run_len += 1;
                prop_assert!(
                    run_len <= 3,
                    "busy run of length {} at slot {}",
                    run_len,
                    rec.slot
                );
            } else {
                if run_len >= 2 {
                    // The run must have ended at round position 1.
                    let end_pos = (rec.slot - 1 - anchor) % ROUND_LEN;
                    prop_assert_eq!(
                        end_pos,
                        1,
                        "busy run ending at slot {} (pos {})",
                        rec.slot - 1,
                        end_pos
                    );
                }
                run_len = 0;
            }
        }
    }

    #[test]
    fn guard_slot_two_always_silent(
        n in 1u32..10,
        seed in 0u64..10_000,
    ) {
        let w = 1u64 << 13;
        let trace = run_traced(n, w, 17, seed);
        let Some(anchor) = anchor_of(&trace) else { return Ok(()); };
        for rec in trace.iter().filter(|r| r.slot > anchor) {
            if (rec.slot - anchor) % ROUND_LEN == 2 {
                prop_assert!(
                    !busy(rec),
                    "guard slot {} busy: {:?}",
                    rec.slot,
                    rec.outcome
                );
            }
        }
    }
}

/// Pinned replay of the shrunk case in `round_structure.proptest-regressions`
/// (`n = 3, w_exp = 12, stagger = 1, seed = 0`): three jobs arriving one
/// slot apart is the tightest stagger that still races the two start slots
/// against a newly released job. Replayed across a seed sweep so the
/// invariants are exercised deterministically regardless of the proptest
/// implementation in use, which may not read the regression file.
#[test]
fn regression_tight_stagger_round_train() {
    let (n, w, stagger) = (3u32, 1u64 << 12, 1u64);
    for seed in 0..64u64 {
        let trace = run_traced(n, w, stagger, seed);
        let Some(anchor) = anchor_of(&trace) else {
            continue;
        };
        let last_busy = trace
            .iter()
            .rev()
            .find(|r| busy(r))
            .map(|r| r.slot)
            .unwrap_or(0);
        let mut run_len = 0u64;
        for rec in trace
            .iter()
            .filter(|r| r.slot >= anchor && r.slot <= last_busy)
        {
            if busy(rec) {
                run_len += 1;
                assert!(
                    run_len <= 3,
                    "seed {seed}: busy run of length {run_len} at slot {}",
                    rec.slot
                );
            } else {
                if run_len >= 2 {
                    let end_pos = (rec.slot - 1 - anchor) % ROUND_LEN;
                    assert_eq!(
                        end_pos,
                        1,
                        "seed {seed}: busy run ending at slot {} (pos {end_pos})",
                        rec.slot - 1
                    );
                }
                run_len = 0;
            }
        }
    }
}
