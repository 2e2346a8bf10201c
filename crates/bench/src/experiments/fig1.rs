//! **F1 — Figure 1**: pecking-order scheduling of aligned windows.
//!
//! The paper's Figure 1 shows three window sizes sharing the channel:
//! estimation steps (yellow squares, here `E`), broadcast steps (blue
//! circles, here `B`), idle/deferred time (`·`), with smaller windows
//! always preempting larger ones. We regenerate it from a real ALIGNED
//! execution: run the protocol, then replay a global
//! [`dcr_core::aligned::tracker::Tracker`] over the recorded channel
//! feedback to label every slot with its owning class and step kind.

use crate::config::ExpConfig;
use crate::experiments::util::{feedback_of, run_instance};
use crate::report::{ExpOutput, ReportBuilder};
use dcr_core::aligned::params::AlignedParams;
use dcr_core::aligned::protocol::AlignedProtocol;
use dcr_core::aligned::tracker::{StepKind, Tracker};
use dcr_sim::engine::EngineConfig;
use dcr_stats::Table;
use dcr_workloads::generators::{aligned_classes, ClassSpec};

/// Classes displayed (small, medium, large).
const CLASSES: [u32; 3] = [9, 10, 11];
/// Slots compressed into one output character.
const CHARS_PER_CELL: u64 = 16;

/// Run F1 and render the schedule.
pub fn run(cfg: &ExpConfig) -> ExpOutput {
    let mut rb = ReportBuilder::new("fig1", "F1 (Figure 1): pecking-order schedule", cfg);
    let params = AlignedParams::new(1, 2, CLASSES[0]);
    let horizon = 1u64 << (CLASSES[2] + 1); // two large windows
    rb.param("classes", format!("{CLASSES:?}"))
        .param("horizon", horizon)
        .param("chars_per_cell", CHARS_PER_CELL);
    let instance = aligned_classes(
        &[
            ClassSpec {
                class: CLASSES[0],
                jobs_per_window: 1,
            },
            ClassSpec {
                class: CLASSES[1],
                jobs_per_window: 2,
            },
            ClassSpec {
                class: CLASSES[2],
                jobs_per_window: 3,
            },
        ],
        horizon,
        None,
    );
    let report = run_instance(
        &instance,
        EngineConfig::aligned().with_trace(),
        None,
        cfg.seed,
        AlignedProtocol::factory(params),
    );
    let trace = report.trace().expect("trace enabled");

    // Replay a global tracker over the public history to label each slot.
    // Run-length-encoded silent gaps expand to one silent slot each: the
    // channel really was silent for every slot a gap record covers.
    let mut tracker = Tracker::new(params, CLASSES[2], 0);
    // (class index, kind char) per slot; ' ' = idle.
    let mut labels: Vec<Option<(u32, char)>> = Vec::with_capacity(trace.len());
    for rec in trace {
        for slot in rec.slot..rec.slot + rec.covered_slots() {
            let step = tracker.begin_slot(slot);
            labels.push(step.map(|s| {
                let c = match s.kind {
                    StepKind::Estimation { .. } => 'E',
                    StepKind::Broadcast(_) => 'B',
                };
                (s.class, c)
            }));
            tracker.end_slot(slot, &feedback_of(rec));
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "F1 (Figure 1): pecking-order schedule, classes {:?}, horizon {horizon} slots\n\
         one char = {CHARS_PER_CELL} slots; E = estimation, B = broadcast, · = deferred/idle\n\n",
        CLASSES
    ));
    for &class in CLASSES.iter() {
        let mut row = format!("w=2^{class:<2} |");
        let mut cell_start = 0u64;
        while (cell_start as usize) < labels.len() {
            let cell_end = (cell_start + CHARS_PER_CELL).min(labels.len() as u64);
            let mut est = 0;
            let mut bc = 0;
            for l in &labels[cell_start as usize..cell_end as usize] {
                match l {
                    Some((c, 'E')) if *c == class => est += 1,
                    Some((c, 'B')) if *c == class => bc += 1,
                    _ => {}
                }
            }
            row.push(if est >= bc && est > 0 {
                'E'
            } else if bc > 0 {
                'B'
            } else {
                '·'
            });
            cell_start = cell_end;
        }
        out.push_str(&row);
        out.push('\n');
    }

    // Summary: active steps per class in its first window, like the figure
    // caption ("the first large window is active for 7 timesteps").
    let mut table = Table::new(vec![
        "class",
        "window",
        "est steps",
        "estimate n_l",
        "bcast steps",
        "success rate",
    ])
    .with_title("\nPer-class summary (first window of each class):");
    for &class in CLASSES.iter() {
        let w = 1u64 << class;
        let est_steps = params.est_len(class);
        // Re-derive the first-window estimate from the replay labels.
        let mut replay = Tracker::new(params, class, 0);
        let mut estimate = None;
        'replay: for rec in trace {
            for slot in rec.slot..rec.slot + rec.covered_slots() {
                if slot >= w {
                    break 'replay;
                }
                let _ = replay.begin_slot(slot);
                replay.end_slot(slot, &feedback_of(rec));
                if estimate.is_none() {
                    estimate = replay.estimate_of(class);
                }
            }
        }
        let est = estimate.unwrap_or(0);
        let rate = report.success_fraction_for_window(w).unwrap_or(f64::NAN);
        rb.row(format!("class={class}"), "estimate_n_l", est as f64)
            .row(
                format!("class={class}"),
                "est_steps",
                params.est_len(class) as f64,
            )
            .row(format!("class={class}"), "success_rate", rate);
        table.row(vec![
            class.to_string(),
            w.to_string(),
            est_steps.to_string(),
            est.to_string(),
            params.broadcast_len(class, est).to_string(),
            format!("{rate:.2}"),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\noverall delivery: {}/{} jobs; seed {}\n",
        report.successes(),
        instance.n(),
        cfg.seed
    ));
    rb.row("overall", "jobs_delivered", report.successes() as f64)
        .row("overall", "jobs_total", instance.n() as f64)
        .check(
            "all_jobs_delivered",
            report.successes() == instance.n(),
            format!("{}/{} delivered", report.successes(), instance.n()),
        );
    rb.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_rows_and_summary() {
        let out = run(&ExpConfig::quick()).text;
        assert!(out.contains("w=2^9"));
        assert!(out.contains("w=2^11"));
        assert!(out.contains("Per-class summary"));
        // The small class must show estimation activity.
        let small_row = out.lines().find(|l| l.starts_with("w=2^9")).unwrap();
        assert!(small_row.contains('E'), "{small_row}");
    }

    #[test]
    fn structured_report_mirrors_summary() {
        let out = run(&ExpConfig::quick());
        let r = &out.report;
        assert_eq!(r.experiment, "fig1");
        for class in CLASSES {
            assert!(r.row(&format!("class={class}"), "success_rate").is_some());
        }
        assert!(r.timing.slots_simulated > 0);
    }
}
