//! ASCII Gantt rendering of execution traces.
//!
//! A debugging and presentation aid: given a traced [`SimReport`], render
//! one row per job showing its window, transmissions, and delivery, plus a
//! channel row summarizing each slot. Used by the Figure-1 regeneration
//! and handy when stepping through protocol behaviour.
//!
//! ```text
//! channel |  ·xx·S··S·······
//! job 0   |  [--T----D    ]
//! job 1   |     [T--D  ]
//! ```
//!
//! Legend: `S` success, `x` collision, `!` jam, `·` silence; per job:
//! `[`/`]` window bounds, `T` transmission attempt, `D` delivery, `-`
//! in-window idle.

use crate::metrics::SimReport;
use crate::trace::{SlotOutcome, SlotRecord};

/// Options for [`render_gantt`].
#[derive(Debug, Clone, Copy)]
pub struct GanttOptions {
    /// First slot to render.
    pub from: u64,
    /// One past the last slot to render.
    pub to: u64,
    /// Render at most this many jobs (in id order).
    pub max_jobs: usize,
}

impl GanttOptions {
    /// Render the whole report (clamped to 240 columns and 32 jobs).
    pub fn whole(report: &SimReport) -> Self {
        Self {
            from: 0,
            to: report.slots_run.min(240),
            max_jobs: 32,
        }
    }
}

fn channel_char(rec: &SlotRecord) -> char {
    match rec.outcome {
        SlotOutcome::Silent => '·',
        SlotOutcome::Success { .. } => 'S',
        SlotOutcome::Collision { .. } => 'x',
        SlotOutcome::Jammed { .. } => '!',
        // Only the gap's first slot carries a record; the rest of the run
        // keeps the channel row's silent default. A `··×N` label is
        // overlaid afterwards when the visible span has room for it.
        SlotOutcome::SilentGap { .. } => '·',
    }
}

/// Render the trace as an ASCII Gantt chart. Returns an error string if
/// the report carries no trace.
pub fn render_gantt(report: &SimReport, opts: GanttOptions) -> Result<String, String> {
    let trace = report
        .trace()
        .ok_or("report has no trace; run with EngineConfig::with_trace")?;
    let from = opts.from;
    let to = opts.to.min(report.slots_run);
    if to <= from {
        return Err(format!("empty slot range [{from}, {to})"));
    }
    let width = (to - from) as usize;

    // Channel row. The trace may be sparse at the tail (engine stops when
    // all jobs finish), so index by slot.
    let mut channel = vec!['·'; width];
    // Per-slot transmitter (successes only — collisions don't identify
    // sources on a real channel, and the trace honours that).
    let mut success_src: Vec<Option<u32>> = vec![None; width];
    for rec in trace {
        if rec.slot < from || rec.slot >= to {
            continue;
        }
        let i = (rec.slot - from) as usize;
        channel[i] = channel_char(rec);
        if let SlotOutcome::Success { src, .. } = rec.outcome {
            success_src[i] = Some(src);
        }
    }
    // Collapse fast-forwarded gaps into a visible `··×N` run-length label.
    // The gap still occupies exactly its covered columns (clamped to the
    // render range), so column alignment with the job rows is preserved;
    // gaps whose visible span is too narrow for the label stay plain `·`s.
    for rec in trace {
        let SlotOutcome::SilentGap { len } = rec.outcome else {
            continue;
        };
        let start = rec.slot.max(from);
        let end = (rec.slot + len).min(to);
        if end <= start {
            continue;
        }
        let label: Vec<char> = format!("··×{len}").chars().collect();
        let span = (end - start) as usize;
        if span >= label.len() {
            let base = (start - from) as usize;
            channel[base..base + label.len()].copy_from_slice(&label);
        }
    }

    let mut out = String::new();
    let label_w = 8;
    out.push_str(&format!(
        "{:<label_w$}|{}\n",
        "channel",
        channel.iter().collect::<String>()
    ));

    for (spec, outcome) in report.per_job().take(opts.max_jobs) {
        let mut row = vec![' '; width];
        for (i, cell) in row.iter_mut().enumerate() {
            let slot = from + i as u64;
            if spec.contains(slot) {
                *cell = '-';
            }
        }
        let mark = |row: &mut Vec<char>, slot: u64, c: char| {
            if slot >= from && slot < to {
                row[(slot - from) as usize] = c;
            }
        };
        mark(&mut row, spec.release, '[');
        if spec.deadline > 0 {
            mark(&mut row, spec.deadline - 1, ']');
        }
        // Mark this job's successful delivery.
        if let Some(slot) = outcome.slot() {
            mark(&mut row, slot, 'D');
        }
        // Mark observable transmissions (successes attributed to this job).
        for (i, src) in success_src.iter().enumerate() {
            if *src == Some(spec.id) && row[i] != 'D' {
                row[i] = 'T';
            }
        }
        out.push_str(&format!(
            "{:<label_w$}|{}\n",
            format!("job {}", spec.id),
            row.iter().collect::<String>()
        ));
    }
    if report.jobs.len() > opts.max_jobs {
        out.push_str(&format!(
            "… {} more jobs not shown\n",
            report.jobs.len() - opts.max_jobs
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Action, Engine, EngineConfig, JobCtx, Protocol, Wake};
    use crate::job::JobSpec;
    use crate::message::Payload;

    struct AtLocal(u64);
    impl Protocol for AtLocal {
        fn act(&mut self, ctx: &JobCtx, _rng: &mut dyn rand::RngCore) -> Action {
            if ctx.local_time == self.0 {
                Action::Transmit(Payload::Data(ctx.id))
            } else {
                Action::Listen
            }
        }
    }

    fn traced_report() -> SimReport {
        let mut e = Engine::new(EngineConfig::default().with_trace(), 1);
        e.add_job(JobSpec::new(0, 0, 8), Box::new(AtLocal(2)));
        e.add_job(JobSpec::new(1, 3, 12), Box::new(AtLocal(4)));
        e.run()
    }

    #[test]
    fn renders_channel_and_jobs() {
        let r = traced_report();
        let g = render_gantt(&r, GanttOptions::whole(&r)).unwrap();
        let lines: Vec<&str> = g.lines().collect();
        assert!(lines[0].starts_with("channel"));
        assert_eq!(lines.len(), 3);
        // Job 0 delivered at slot 2.
        let job0 = lines[1];
        assert_eq!(job0.chars().nth("job 0   |".len() + 2), Some('D'));
        // Job 1's window starts at slot 3.
        let job1 = lines[2];
        assert_eq!(job1.chars().nth("job 1   |".len() + 3), Some('['));
    }

    #[test]
    fn success_marks_match_outcomes() {
        let r = traced_report();
        let g = render_gantt(&r, GanttOptions::whole(&r)).unwrap();
        assert_eq!(g.matches('D').count(), r.successes());
    }

    #[test]
    fn no_trace_is_an_error() {
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(0)));
        let r = e.run();
        assert!(render_gantt(
            &r,
            GanttOptions {
                from: 0,
                to: 4,
                max_jobs: 4
            }
        )
        .is_err());
    }

    #[test]
    fn empty_range_is_an_error() {
        let r = traced_report();
        assert!(render_gantt(
            &r,
            GanttOptions {
                from: 5,
                to: 5,
                max_jobs: 4
            }
        )
        .is_err());
    }

    #[test]
    fn silent_gaps_render_as_collapsed_runs() {
        // Two event-driven jobs far apart: the engine fast-forwards the gap
        // into a single SilentGap record.
        struct WakeAt(u64);
        impl Protocol for WakeAt {
            fn act(&mut self, ctx: &JobCtx, _rng: &mut dyn rand::RngCore) -> Action {
                if ctx.local_time == self.0 {
                    Action::Transmit(Payload::Data(ctx.id))
                } else {
                    Action::Sleep
                }
            }
            fn next_wake(&self, ctx: &JobCtx) -> Option<Wake> {
                Some(if ctx.local_time < self.0 {
                    Wake::Asleep(self.0)
                } else {
                    Wake::NEVER
                })
            }
        }
        let mut e = Engine::new(EngineConfig::default().with_trace(), 1);
        e.add_job(JobSpec::new(0, 0, 4), Box::new(WakeAt(0)));
        e.add_job(JobSpec::new(1, 100, 104), Box::new(WakeAt(0)));
        let r = e.run();
        let gap_len = r
            .trace()
            .unwrap()
            .iter()
            .find_map(|rec| match rec.outcome {
                SlotOutcome::SilentGap { len } => Some(len),
                _ => None,
            })
            .expect("fast-forwarded stretch must be traced as a gap");
        let g = render_gantt(
            &r,
            GanttOptions {
                from: 0,
                to: 101,
                max_jobs: 4,
            },
        )
        .unwrap();
        let channel = g.lines().next().unwrap();
        assert!(
            channel.contains(&format!("··×{gap_len}")),
            "gap must render as a collapsed run: {channel}"
        );
        // The label overlays the gap's columns; width is unchanged.
        assert_eq!(channel.chars().count(), "channel ".len() + 1 + 101);
    }

    #[test]
    fn narrow_gaps_stay_plain_silence() {
        // A 2-slot visible span cannot hold "··×N"; it must not overflow
        // into neighbouring columns.
        let rec = |slot, outcome| SlotRecord {
            slot,
            outcome,
            live_jobs: 0,
            declared_contention: 0.0,
            payload: None,
        };
        let trace = vec![
            rec(
                0,
                SlotOutcome::Success {
                    src: 0,
                    was_data: true,
                },
            ),
            rec(1, SlotOutcome::SilentGap { len: 2 }),
            rec(
                3,
                SlotOutcome::Success {
                    src: 0,
                    was_data: false,
                },
            ),
        ];
        use crate::metrics::{JamStats, JobOutcome, SchedStats, SlotCounts};
        use crate::probe::{ProbeOutput, ProbeReport};
        let report = SimReport::new(
            vec![JobSpec::new(0, 0, 4)],
            vec![JobOutcome::Success { slot: 0 }],
            SlotCounts::default(),
            vec![Default::default()],
            4,
            JamStats::default(),
            1,
            0,
            SchedStats::default(),
            Some(ProbeReport {
                outputs: vec![ProbeOutput::Ring {
                    records: trace,
                    dropped: 0,
                }],
            }),
        );
        let g = render_gantt(
            &report,
            GanttOptions {
                from: 0,
                to: 4,
                max_jobs: 1,
            },
        )
        .unwrap();
        let channel = g.lines().next().unwrap();
        assert_eq!(channel, "channel |S··S");
    }

    #[test]
    fn job_cap_is_reported() {
        let mut e = Engine::new(EngineConfig::default().with_trace(), 1);
        for i in 0..5 {
            e.add_job(
                JobSpec::new(i, u64::from(i) * 10, u64::from(i) * 10 + 5),
                Box::new(AtLocal(1)),
            );
        }
        let r = e.run();
        let g = render_gantt(
            &r,
            GanttOptions {
                from: 0,
                to: 40,
                max_jobs: 2,
            },
        )
        .unwrap();
        assert!(g.contains("3 more jobs not shown"));
    }
}
