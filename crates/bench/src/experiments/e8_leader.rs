//! **E8 — Lemmas 16–17**: leader election.
//!
//! Two claims: (Lemma 16) the total contention in every leader-election
//! slot stays below any constant ε for slack-feasible instances — the
//! pullback probability `1/(w·polylog w)` is that small on purpose; and
//! (Lemma 17) a class with `|S| ≥ w/log³w` jobs elects a leader w.h.p.
//! during the pullback. We sweep the batch size across the density
//! threshold and measure election frequency and per-election-slot declared
//! contention from the engine's trace.

use crate::config::ExpConfig;
use crate::experiments::util::find_round_anchor;
use crate::report::{ExpOutput, ReportBuilder};
use dcr_core::punctual::messages::KIND_CLAIM;
use dcr_core::punctual::{PunctualParams, ROUND_LEN};
use dcr_core::PunctualProtocol;
use dcr_sim::engine::{Engine, EngineConfig};
use dcr_sim::job::JobSpec;
use dcr_sim::message::Payload;
use dcr_sim::runner::run_trials;
use dcr_sim::trace::SlotOutcome;
use dcr_stats::{Proportion, Table};

const WINDOW: u64 = 1 << 14;

fn params() -> PunctualParams {
    PunctualParams::laptop()
}

/// One trial: (leader elected?, mean election-slot contention, delivered
/// fraction).
fn trial(n: u32, seed: u64) -> (bool, f64, f64) {
    let mut e = Engine::new(EngineConfig::default().with_trace(), seed);
    for i in 0..n {
        e.add_job(
            JobSpec::new(i, 0, WINDOW),
            Box::new(PunctualProtocol::new(params())),
        );
    }
    let r = e.run();
    let trace = r.trace().expect("trace");
    let anchor = find_round_anchor(trace).unwrap_or(0);

    // Number of slots `s` in `[start, end)` with `(s - anchor) % ROUND_LEN
    // == 7`; silent-gap records can cover many rounds in one record.
    let pos7_in = |start: u64, end: u64| -> u64 {
        if end <= start {
            return 0;
        }
        let first = start + (7 + ROUND_LEN - (start - anchor) % ROUND_LEN) % ROUND_LEN;
        if first >= end {
            0
        } else {
            (end - 1 - first) / ROUND_LEN + 1
        }
    };
    let mut elected = false;
    let mut declared_sum = 0.0;
    let mut election_slots = 0u64;
    for rec in trace {
        let end = rec.slot + rec.covered_slots();
        if end <= anchor {
            continue;
        }
        if rec.is_silent() {
            // Every covered election slot counts; a fast-forwarded gap means
            // every job was asleep, i.e. zero declared contention there.
            election_slots += pos7_in(rec.slot.max(anchor), end);
            if rec.slot >= anchor && (rec.slot - anchor) % ROUND_LEN == 7 {
                declared_sum += rec.declared_contention;
            }
        } else if rec.slot >= anchor && (rec.slot - anchor) % ROUND_LEN == 7 {
            election_slots += 1;
            declared_sum += rec.declared_contention;
            if let SlotOutcome::Success { .. } = rec.outcome {
                if matches!(rec.payload, Some(Payload::Control(c)) if c.kind == KIND_CLAIM) {
                    elected = true;
                }
            }
        }
    }
    let mean_c = if election_slots == 0 {
        0.0
    } else {
        declared_sum / election_slots as f64
    };
    (elected, mean_c, r.success_fraction())
}

struct Cell {
    elected: Proportion,
    contention: f64,
    delivered: f64,
}

/// Trials per cell, floored at 40 even in quick mode: the election-rate
/// check compares a ~0.8 proportion against a 0.6 threshold, and at
/// quick's 10 trials that comparison is a coin flip on the seed
/// realization, not a check of the election logic.
fn cell_trials(cfg: &ExpConfig) -> u64 {
    cfg.cell_trials(60).max(40)
}

fn sweep(cfg: &ExpConfig, n: u32) -> Cell {
    let trials = cell_trials(cfg);
    let results = run_trials(trials, cfg.seed ^ (u64::from(n) << 16), |_, seed| {
        trial(n, seed)
    });
    let hits = results.iter().filter(|t| t.value.0).count() as u64;
    Cell {
        elected: Proportion::new(hits, trials),
        contention: results.iter().map(|t| t.value.1).sum::<f64>() / trials as f64,
        delivered: results.iter().map(|t| t.value.2).sum::<f64>() / trials as f64,
    }
}

/// Run E8.
pub fn run(cfg: &ExpConfig) -> ExpOutput {
    let wr = WINDOW / ROUND_LEN;
    let threshold = (wr as f64 / (wr as f64).log2()) as u32;
    let ns: &[u32] = if cfg.quick {
        &[1, 64]
    } else {
        &[1, 4, 16, 32, 64, 96]
    };
    let mut rb = ReportBuilder::new("e8", "E8 (Lemmas 16-17): leader election", cfg);
    rb.param("window", WINDOW)
        .param("density_threshold", threshold)
        .param("ns", format!("{ns:?}"))
        .param("trials_per_cell", cell_trials(cfg));
    let mut table = Table::new(vec![
        "n (jobs)",
        "P[leader elected]",
        "mean election-slot contention",
        "delivered fraction",
    ])
    .with_title(format!(
        "E8 (Lemmas 16–17): leader election, w={WINDOW} ({wr} rounds), \
         density threshold w_r/log w_r ≈ {threshold}, seed {}",
        cfg.seed
    ));
    let mut cells = Vec::new();
    for &n in ns {
        let c = sweep(cfg, n);
        let id = format!("n={n}");
        rb.prop(&id, "p_leader_elected", &c.elected)
            .row(&id, "election_slot_contention", c.contention)
            .row(&id, "delivered_fraction", c.delivered)
            .add_trials(cell_trials(cfg));
        table.row(vec![
            n.to_string(),
            c.elected.to_string(),
            format!("{:.3}", c.contention),
            format!("{:.3}", c.delivered),
        ]);
        cells.push((n, c));
    }
    let mut out = table.render();
    let max_contention = cells
        .iter()
        .map(|(_, c)| c.contention)
        .fold(0.0f64, f64::max);
    out.push_str(&format!(
        "\nshape checks: election probability → 1 above the threshold; \
         election-slot contention stays ≤ ε (max observed {max_contention:.3}, Lemma 16 \
         wants an arbitrarily small constant)\n"
    ));
    rb.row("overall", "max_election_contention", max_contention)
        .check(
            "lemma16_contention_small",
            max_contention < 0.5,
            format!("max election-slot contention {max_contention:.3}"),
        );
    if let Some((_, dense)) = cells.iter().max_by_key(|(n, _)| *n) {
        rb.check(
            "lemma17_dense_class_elects",
            dense.elected.estimate() > 0.6,
            format!("dense-class election rate {}", dense.elected),
        );
    }
    rb.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_class_elects_leader() {
        // quick mode still gets `cell_trials`' 40-trial floor, enough
        // that the 0.6 threshold is not a coin flip on the realization.
        let c = sweep(&ExpConfig::quick(), 64);
        assert!(c.elected.estimate() > 0.6, "{}", c.elected);
    }

    #[test]
    fn election_contention_stays_small() {
        let c = sweep(&ExpConfig::quick(), 64);
        assert!(c.contention < 0.5, "contention={}", c.contention);
    }

    #[test]
    fn lone_job_still_delivers() {
        let c = sweep(&ExpConfig::quick(), 1);
        assert!(c.delivered > 0.85, "delivered={}", c.delivered);
    }
}
