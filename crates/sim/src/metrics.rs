//! Simulation outcomes and aggregate metrics.
//!
//! A [`SimReport`] holds the engine's running counters; everything observed
//! slot by slot (the trace, declared contention, protocol events) lives in
//! its probe outputs ([`crate::probe`]), and [`SimReport::trace`] reads the
//! slot trace back from there.

use crate::job::{JobId, JobSpec};
use crate::probe::{ProbeOutput, ProbeReport};
use crate::trace::SlotRecord;
use serde::{Deserialize, Serialize};

/// The fate of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// The job's data message was delivered in `slot` (inside its window).
    Success {
        /// The slot of the successful delivery.
        slot: u64,
    },
    /// The window closed without a successful delivery.
    Missed,
}

impl JobOutcome {
    /// True if the deadline was met.
    #[inline]
    pub fn is_success(&self) -> bool {
        matches!(self, JobOutcome::Success { .. })
    }

    /// Delivery slot, if successful.
    #[inline]
    pub fn slot(&self) -> Option<u64> {
        match self {
            JobOutcome::Success { slot } => Some(*slot),
            JobOutcome::Missed => None,
        }
    }
}

/// Per-slot channel activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotCounts {
    /// Slots with no transmission and no jam. Slots the engine fast-forwards
    /// over (idle gaps between arrivals, stretches where every live job is
    /// parked on a wake hint) are accumulated here in O(1), so `total()`
    /// always equals the number of slots the run covered.
    pub silent: u64,
    /// Slots that delivered a message.
    pub success: u64,
    /// Slots with a genuine collision (>= 2 transmissions).
    pub collision: u64,
    /// Slots the adversary jammed.
    pub jammed: u64,
    /// Successful slots that carried a data message (subset of `success`).
    pub data_success: u64,
}

impl SlotCounts {
    /// Total slots accounted for.
    pub fn total(&self) -> u64 {
        self.silent + self.success + self.collision + self.jammed
    }
}

/// Per-job channel-access counters — the "energy" complexity that much of
/// the contention-resolution literature optimizes (transmitting and
/// listening both cost radio power; sleeping is free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessCounts {
    /// Slots in which the job transmitted.
    pub transmissions: u64,
    /// Slots in which the job listened without transmitting.
    pub listens: u64,
}

impl AccessCounts {
    /// Total radio-active slots.
    pub fn total(&self) -> u64 {
        self.transmissions + self.listens
    }
}

/// Adversary-side counters for one run: how often the jammer *attempted* a
/// jam and how often the `p_jam` coin let the attempt succeed. Successful
/// jams also appear as [`SlotCounts::jammed`]; attempts that failed their
/// coin flip are visible only here, which is what makes attack efficacy
/// (`succeeded / attempted` vs the configured `p_jam`) measurable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JamStats {
    /// Slots in which the adversary attempted a jam.
    pub attempted: u64,
    /// Attempts that succeeded (equals [`SlotCounts::jammed`]).
    pub succeeded: u64,
}

impl JamStats {
    /// Empirical jam success rate `succeeded / attempted`, or `None` when
    /// the adversary never attempted (avoids manufacturing a NaN).
    pub fn efficacy(&self) -> Option<f64> {
        (self.attempted > 0).then(|| self.succeeded as f64 / self.attempted as f64)
    }
}

/// Scheduler-side counters for one run: how much work the event-driven
/// engine avoided. Sits next to [`SimReport::engine_nanos`] so throughput
/// numbers (the `slotloop` bench) can be attributed to skipped slots.
/// Scheduling-dependent by nature — like `engine_nanos`, excluded from
/// cross-mode equivalence comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedStats {
    /// All-parked/idle stretches fast-forwarded in O(1).
    pub gap_skips: u64,
    /// Total slots covered by those stretches (subset of
    /// [`SlotCounts::silent`]).
    pub gap_slots: u64,
    /// Jobs parked on a wake hint (total [`crate::sched::WakeQueue`]
    /// insertions over the run).
    pub parks: u64,
    /// Peak number of simultaneously parked jobs.
    pub peak_parked: u64,
}

impl SchedStats {
    /// Fraction of the run's slots covered by O(1) gap skips (0.0 for an
    /// empty run) — the share of the timeline the slot loop never walked.
    pub fn skipped_fraction(&self, slots_run: u64) -> f64 {
        if slots_run == 0 {
            return 0.0;
        }
        self.gap_slots as f64 / slots_run as f64
    }
}

/// The result of running one simulation to completion.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// The jobs that were simulated, in the order they were added.
    pub jobs: Vec<JobSpec>,
    /// Outcome per job, indexed by job id.
    outcomes: Vec<JobOutcome>,
    /// Channel activity counters.
    pub counts: SlotCounts,
    /// Per-job channel-access counters, indexed by job id.
    pub accesses: Vec<AccessCounts>,
    /// Number of slots simulated.
    pub slots_run: u64,
    /// Adversary attempt/success counters (all zero on a clean channel).
    /// Defaults on deserialization so pre-existing artifacts still load.
    #[serde(default)]
    pub jam_stats: JamStats,
    /// The master seed used (for replay).
    pub seed: u64,
    /// Wall-clock nanoseconds the engine spent in its slot loop. Volatile
    /// across runs of identical code — exclude it from determinism
    /// comparisons (everything else in the report is a pure function of
    /// the instance and seed).
    pub engine_nanos: u64,
    /// Scheduler work-avoidance counters (gap skips, parked jobs).
    /// Scheduling-dependent like `engine_nanos`; defaults on
    /// deserialization so pre-existing artifacts still load.
    #[serde(default)]
    pub sched_stats: SchedStats,
    /// Probe sink outputs if `EngineConfig::probe` was set (see
    /// [`crate::probe`]); the slot trace is one of them ([`Self::trace`]).
    pub probes: Option<ProbeReport>,
}

impl SimReport {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        jobs: Vec<JobSpec>,
        outcomes: Vec<JobOutcome>,
        counts: SlotCounts,
        accesses: Vec<AccessCounts>,
        slots_run: u64,
        jam_stats: JamStats,
        seed: u64,
        engine_nanos: u64,
        sched_stats: SchedStats,
        probes: Option<ProbeReport>,
    ) -> Self {
        Self {
            jobs,
            outcomes,
            counts,
            accesses,
            slots_run,
            jam_stats,
            seed,
            engine_nanos,
            sched_stats,
            probes,
        }
    }

    /// The full slot trace: the records of the first ring sink that
    /// dropped nothing ([`crate::engine::EngineConfig::with_trace`]
    /// attaches one), or `None` when the run kept no complete trace.
    pub fn trace(&self) -> Option<&[SlotRecord]> {
        self.probes.as_ref()?.outputs.iter().find_map(|o| match o {
            ProbeOutput::Ring {
                records,
                dropped: 0,
            } => Some(records.as_slice()),
            _ => None,
        })
    }

    /// Engine slot throughput in slots per wall-clock second (0.0 when the
    /// run was too fast to time).
    pub fn slots_per_sec(&self) -> f64 {
        if self.engine_nanos == 0 {
            return 0.0;
        }
        self.slots_run as f64 / (self.engine_nanos as f64 / 1e9)
    }

    /// Outcome of job `id`. Panics if `id` was not simulated.
    pub fn outcome(&self, id: JobId) -> JobOutcome {
        self.outcomes[id as usize]
    }

    /// All outcomes, indexed by job id.
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// Number of jobs that met their deadline.
    pub fn successes(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_success()).count()
    }

    /// Number of jobs that missed their deadline.
    pub fn misses(&self) -> usize {
        self.outcomes.len() - self.successes()
    }

    /// Fraction of jobs that met their deadline (1.0 for an empty instance).
    pub fn success_fraction(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        self.successes() as f64 / self.outcomes.len() as f64
    }

    /// Success fraction restricted to jobs with window size exactly `w`.
    pub fn success_fraction_for_window(&self, w: u64) -> Option<f64> {
        let mut total = 0usize;
        let mut ok = 0usize;
        for job in &self.jobs {
            if job.window() == w {
                total += 1;
                if self.outcome(job.id).is_success() {
                    ok += 1;
                }
            }
        }
        (total > 0).then(|| ok as f64 / total as f64)
    }

    /// Iterator over `(spec, outcome)` pairs.
    pub fn per_job(&self) -> impl Iterator<Item = (&JobSpec, JobOutcome)> + '_ {
        self.jobs.iter().map(|j| (j, self.outcome(j.id)))
    }

    /// Latency (delivery slot − release) of each successful job.
    pub fn latencies(&self) -> Vec<u64> {
        self.per_job()
            .filter_map(|(j, o)| o.slot().map(|s| s - j.release))
            .collect()
    }

    /// Channel accesses of job `id`.
    pub fn accesses_of(&self, id: JobId) -> AccessCounts {
        self.accesses[id as usize]
    }

    /// Mean transmissions per job (NaN for an empty instance).
    pub fn mean_transmissions(&self) -> f64 {
        if self.accesses.is_empty() {
            return f64::NAN;
        }
        self.accesses
            .iter()
            .map(|a| a.transmissions as f64)
            .sum::<f64>()
            / self.accesses.len() as f64
    }

    /// Mean radio-active (transmit + listen) slots per job.
    pub fn mean_accesses(&self) -> f64 {
        if self.accesses.is_empty() {
            return f64::NAN;
        }
        self.accesses.iter().map(|a| a.total() as f64).sum::<f64>() / self.accesses.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        let jobs = vec![
            JobSpec::new(0, 0, 8),
            JobSpec::new(1, 0, 8),
            JobSpec::new(2, 4, 8),
        ];
        let outcomes = vec![
            JobOutcome::Success { slot: 3 },
            JobOutcome::Missed,
            JobOutcome::Success { slot: 5 },
        ];
        SimReport::new(
            jobs,
            outcomes,
            SlotCounts {
                silent: 4,
                success: 2,
                collision: 1,
                jammed: 1,
                data_success: 2,
            },
            vec![
                AccessCounts {
                    transmissions: 1,
                    listens: 3,
                },
                AccessCounts {
                    transmissions: 8,
                    listens: 0,
                },
                AccessCounts {
                    transmissions: 1,
                    listens: 1,
                },
            ],
            8,
            JamStats {
                attempted: 2,
                succeeded: 1,
            },
            42,
            4_000,
            SchedStats {
                gap_skips: 1,
                gap_slots: 4,
                parks: 2,
                peak_parked: 2,
            },
            None,
        )
    }

    #[test]
    fn success_accounting() {
        let r = report();
        assert_eq!(r.successes(), 2);
        assert_eq!(r.misses(), 1);
        assert!((r.success_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn per_window_fraction() {
        let r = report();
        assert_eq!(r.success_fraction_for_window(8), Some(0.5));
        assert_eq!(r.success_fraction_for_window(4), Some(1.0));
        assert_eq!(r.success_fraction_for_window(16), None);
    }

    #[test]
    fn latencies_are_relative_to_release() {
        let r = report();
        assert_eq!(r.latencies(), vec![3, 1]);
    }

    #[test]
    fn counts_total() {
        assert_eq!(report().counts.total(), 8);
    }

    fn empty() -> SimReport {
        SimReport::new(
            vec![],
            vec![],
            SlotCounts::default(),
            vec![],
            0,
            JamStats::default(),
            0,
            0,
            SchedStats::default(),
            None,
        )
    }

    #[test]
    fn empty_instance_success_fraction_is_one() {
        let r = empty();
        assert_eq!(r.success_fraction(), 1.0);
        assert!(r.mean_accesses().is_nan());
    }

    #[test]
    fn slot_throughput() {
        // 8 slots in 4000 ns -> 2e6 slots/s.
        let r = report();
        assert!((r.slots_per_sec() - 2e6).abs() < 1e-6);
        // Untimed run reports zero rather than dividing by zero.
        assert_eq!(empty().slots_per_sec(), 0.0);
    }

    #[test]
    fn jam_stats_efficacy() {
        let r = report();
        assert_eq!(r.jam_stats.efficacy(), Some(0.5));
        // A clean channel has no attempts and therefore no efficacy.
        assert_eq!(empty().jam_stats.efficacy(), None);
    }

    #[test]
    fn sched_stats_skipped_fraction() {
        let r = report();
        assert!((r.sched_stats.skipped_fraction(r.slots_run) - 0.5).abs() < 1e-12);
        // Empty run reports zero rather than dividing by zero.
        assert_eq!(empty().sched_stats.skipped_fraction(0), 0.0);
    }

    #[test]
    fn trace_is_the_first_ring_that_dropped_nothing() {
        use crate::trace::SlotOutcome;
        let rec = |slot| SlotRecord {
            slot,
            outcome: SlotOutcome::Silent,
            live_jobs: 0,
            declared_contention: 0.0,
            payload: None,
        };
        let ring = |slots: Vec<u64>, dropped| ProbeOutput::Ring {
            records: slots.into_iter().map(rec).collect(),
            dropped,
        };
        let mut r = report();
        assert_eq!(r.trace(), None);
        r.probes = Some(ProbeReport {
            outputs: vec![
                ProbeOutput::Events(vec![]),
                ring(vec![7], 7),
                ring(vec![0, 1], 0),
                ring(vec![5], 0),
            ],
        });
        assert_eq!(r.trace().map(|t| t.len()), Some(2));
        r.probes.as_mut().unwrap().outputs.truncate(2);
        assert_eq!(r.trace(), None, "a ring that evicted is no full trace");
    }

    #[test]
    fn access_accounting() {
        let r = report();
        assert_eq!(r.accesses_of(1).transmissions, 8);
        assert!((r.mean_transmissions() - 10.0 / 3.0).abs() < 1e-12);
        assert!((r.mean_accesses() - 14.0 / 3.0).abs() < 1e-12);
    }
}
