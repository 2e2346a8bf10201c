//! Per-slot execution records.
//!
//! Slot records are off by default (the hot path only bumps counters). A
//! probe sink that wants slots receives one [`SlotRecord`] per executed
//! slot or skipped gap; [`crate::engine::EngineConfig::with_trace`]
//! attaches a ring that never evicts, and
//! [`crate::metrics::SimReport::trace`] reads it back, to regenerate
//! Figure 1 of the paper or to debug a protocol slot by slot.

use crate::job::JobId;
use crate::message::Payload;
use crate::metrics::SlotCounts;
use serde::{Deserialize, Serialize};

/// How one slot resolved, with enough detail to reconstruct schedules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SlotOutcome {
    /// No transmissions, not jammed.
    Silent,
    /// A delivered transmission.
    Success {
        /// Transmitting job.
        src: JobId,
        /// Whether the delivered message was a data message.
        was_data: bool,
    },
    /// `n_tx >= 2` transmissions collided.
    Collision {
        /// Number of simultaneous transmissions.
        n_tx: u32,
    },
    /// The adversary jammed the slot (hiding `n_tx` underlying transmissions,
    /// possibly zero or one).
    Jammed {
        /// Number of transmissions the jam obscured.
        n_tx: u32,
    },
    /// A run of `len >= 2` consecutive silent slots starting at the record's
    /// `slot`, emitted by the engine's fast-forward over stretches where no
    /// job needed polling (idle gaps between arrivals, or every live job
    /// parked). Run-length encoding keeps trace memory proportional to
    /// *active* slots rather than the horizon.
    SilentGap {
        /// Number of consecutive silent slots covered.
        len: u64,
    },
}

/// A full record of one slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotRecord {
    /// Global slot index.
    pub slot: u64,
    /// Channel resolution.
    pub outcome: SlotOutcome,
    /// Number of jobs live (activated, window not yet over, not finished)
    /// during the slot.
    pub live_jobs: u32,
    /// Sum of the transmission probabilities the live protocols *declared*
    /// for this slot (the paper's contention `C(t)`), where available.
    /// Protocols that do not implement [`crate::engine::Protocol::tx_probability`]
    /// contribute their realized action (1.0 if they transmitted, else 0.0).
    pub declared_contention: f64,
    /// The payload delivered, if the slot was a success. Kept out of
    /// `SlotOutcome` so the common case stays `Copy`-cheap to filter on.
    pub payload: Option<Payload>,
}

impl SlotRecord {
    /// True if the slot delivered a data message.
    pub fn is_data_success(&self) -> bool {
        matches!(self.outcome, SlotOutcome::Success { was_data: true, .. })
    }

    /// Number of consecutive slots this record covers, starting at `slot`:
    /// 1 for every outcome except [`SlotOutcome::SilentGap`].
    pub fn covered_slots(&self) -> u64 {
        match self.outcome {
            SlotOutcome::SilentGap { len } => len,
            _ => 1,
        }
    }

    /// True if the record carries no transmission (a single silent slot or a
    /// silent gap).
    pub fn is_silent(&self) -> bool {
        matches!(
            self.outcome,
            SlotOutcome::Silent | SlotOutcome::SilentGap { .. }
        )
    }
}

/// Tally a trace's slot outcomes. A complete trace tallies to its run's
/// [`crate::metrics::SimReport::counts`].
pub fn tally(trace: &[SlotRecord]) -> SlotCounts {
    let mut t = SlotCounts::default();
    for rec in trace {
        match rec.outcome {
            SlotOutcome::Silent => t.silent += 1,
            SlotOutcome::Success { was_data, .. } => {
                t.success += 1;
                if was_data {
                    t.data_success += 1;
                }
            }
            SlotOutcome::Collision { .. } => t.collision += 1,
            SlotOutcome::Jammed { .. } => t.jammed += 1,
            SlotOutcome::SilentGap { len } => t.silent += len,
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(slot: u64, outcome: SlotOutcome) -> SlotRecord {
        SlotRecord {
            slot,
            outcome,
            live_jobs: 0,
            declared_contention: 0.0,
            payload: None,
        }
    }

    #[test]
    fn tally_counts_each_kind() {
        let trace = vec![
            rec(0, SlotOutcome::Silent),
            rec(
                1,
                SlotOutcome::Success {
                    src: 1,
                    was_data: true,
                },
            ),
            rec(2, SlotOutcome::Collision { n_tx: 3 }),
            rec(3, SlotOutcome::Jammed { n_tx: 1 }),
            rec(4, SlotOutcome::Silent),
            rec(5, SlotOutcome::SilentGap { len: 1000 }),
        ];
        let t = tally(&trace);
        assert_eq!(
            t,
            SlotCounts {
                silent: 1002,
                success: 1,
                collision: 1,
                jammed: 1,
                data_success: 1
            }
        );
    }

    #[test]
    fn control_success_does_not_count_as_data() {
        let trace = vec![rec(
            0,
            SlotOutcome::Success {
                src: 0,
                was_data: false,
            },
        )];
        let t = tally(&trace);
        assert_eq!(t.success, 1);
        assert_eq!(t.data_success, 0);
    }

    #[test]
    fn gap_records_cover_their_run_length() {
        let gap = rec(10, SlotOutcome::SilentGap { len: 42 });
        assert_eq!(gap.covered_slots(), 42);
        assert!(gap.is_silent());
        assert!(!gap.is_data_success());
        let plain = rec(0, SlotOutcome::Silent);
        assert_eq!(plain.covered_slots(), 1);
        assert!(plain.is_silent());
        assert!(!rec(1, SlotOutcome::Collision { n_tx: 2 }).is_silent());
    }

    #[test]
    fn data_success_detection() {
        let mut r = rec(
            0,
            SlotOutcome::Success {
                src: 2,
                was_data: true,
            },
        );
        assert!(r.is_data_success());
        r.outcome = SlotOutcome::Success {
            src: 2,
            was_data: false,
        };
        assert!(!r.is_data_success());
    }
}
