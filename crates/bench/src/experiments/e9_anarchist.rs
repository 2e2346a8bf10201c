//! **E9 — Lemmas 18–19 + Corollary 20**: anarchists are few and succeed.
//!
//! Claims: (Lemma 18) at most `O(w/log³w)` jobs of window size `w` are ever
//! anarchists in any interval — when a class is dense, leader election
//! succeeds and everyone follows instead; (Corollary 20) a job that *does*
//! become an anarchist still delivers w.h.p., because at least half the
//! anarchy slots have contention ≤ 1/2 (Lemma 19).
//!
//! Measurement: data deliveries are classified by the round position they
//! occurred in (anarchy slot vs. aligned/timekeeper slots). A *forced
//! anarchy* configuration (pullback budget cut to one election slot, so
//! leader election almost never happens) exercises Corollary 20; the
//! normal configuration exercises Lemma 18.

use crate::config::ExpConfig;
use crate::experiments::util::find_round_anchor;
use crate::report::{ExpOutput, ReportBuilder};
use dcr_core::punctual::{PunctualParams, ROUND_LEN};
use dcr_core::PunctualProtocol;
use dcr_sim::engine::{Engine, EngineConfig};
use dcr_sim::job::JobSpec;
use dcr_sim::runner::run_trials;
use dcr_sim::trace::SlotOutcome;
use dcr_stats::Table;

const WINDOW: u64 = 1 << 14;

fn normal_params() -> PunctualParams {
    PunctualParams::laptop()
}

/// Pullback cut to a single election slot: elections essentially never
/// happen, so every job releases the slingshot.
fn forced_anarchy_params() -> PunctualParams {
    let mut p = normal_params();
    p.pullback_len_logexp = 0; // λ·log⁰ = λ slots of pullback
    p.lambda = 1;
    p
}

struct Trial {
    delivered: f64,
    anarchy_deliveries: u64,
    other_deliveries: u64,
}

fn trial(n: u32, params: PunctualParams, seed: u64) -> Trial {
    let mut e = Engine::new(EngineConfig::default().with_trace(), seed);
    for i in 0..n {
        e.add_job(
            JobSpec::new(i, 0, WINDOW),
            Box::new(PunctualProtocol::new(params)),
        );
    }
    let r = e.run();
    let trace = r.trace().expect("trace");
    let anchor = find_round_anchor(trace).unwrap_or(0);
    let mut anarchy = 0;
    let mut other = 0;
    for rec in trace {
        if let SlotOutcome::Success { was_data: true, .. } = rec.outcome {
            if rec.slot >= anchor && (rec.slot - anchor) % ROUND_LEN == 9 {
                anarchy += 1;
            } else {
                other += 1;
            }
        }
    }
    Trial {
        delivered: r.success_fraction(),
        anarchy_deliveries: anarchy,
        other_deliveries: other,
    }
}

struct Cell {
    delivered: f64,
    anarchy_share: f64,
}

fn sweep(cfg: &ExpConfig, n: u32, params: PunctualParams) -> Cell {
    let trials = cfg.cell_trials(50);
    let results = run_trials(trials, cfg.seed ^ (u64::from(n) << 24), |_, seed| {
        let t = trial(n, params, seed);
        let total = t.anarchy_deliveries + t.other_deliveries;
        let share = if total == 0 {
            0.0
        } else {
            t.anarchy_deliveries as f64 / total as f64
        };
        (t.delivered, share)
    });
    Cell {
        delivered: results.iter().map(|t| t.value.0).sum::<f64>() / trials as f64,
        anarchy_share: results.iter().map(|t| t.value.1).sum::<f64>() / trials as f64,
    }
}

/// Run E9.
pub fn run(cfg: &ExpConfig) -> ExpOutput {
    let ns: &[u32] = if cfg.quick { &[4, 64] } else { &[2, 8, 32, 64] };
    let mut rb = ReportBuilder::new("e9", "E9 (Lemmas 18-19, Cor. 20): anarchist behaviour", cfg);
    rb.param("window", WINDOW)
        .param("ns", format!("{ns:?}"))
        .param("trials_per_cell", cfg.cell_trials(50));
    let mut out = String::new();

    let mut t1 = Table::new(vec![
        "n",
        "delivered",
        "share of deliveries in anarchy slots",
    ])
    .with_title(format!(
        "E9a (Lemma 18): normal PUNCTUAL, w={WINDOW}, seed {} — dense classes \
             should deliver via the leader's aligned slots, not anarchy",
        cfg.seed
    ));
    let mut normal_cells = Vec::new();
    for &n in ns {
        let c = sweep(cfg, n, normal_params());
        let id = format!("normal,n={n}");
        rb.row(&id, "delivered_fraction", c.delivered)
            .row(&id, "anarchy_share", c.anarchy_share)
            .add_trials(cfg.cell_trials(50));
        t1.row(vec![
            n.to_string(),
            format!("{:.3}", c.delivered),
            format!("{:.3}", c.anarchy_share),
        ]);
        normal_cells.push(c);
    }
    out.push_str(&t1.render());

    let mut t2 = Table::new(vec!["n", "delivered", "share in anarchy slots"]).with_title(format!(
        "\nE9b (Corollary 20): pullback crippled to force anarchy — anarchists must \
             still deliver w.h.p., seed {}",
        cfg.seed
    ));
    let mut forced_cells = Vec::new();
    for &n in ns {
        let c = sweep(cfg, n, forced_anarchy_params());
        let id = format!("forced,n={n}");
        rb.row(&id, "delivered_fraction", c.delivered)
            .row(&id, "anarchy_share", c.anarchy_share)
            .add_trials(cfg.cell_trials(50));
        t2.row(vec![
            n.to_string(),
            format!("{:.3}", c.delivered),
            format!("{:.3}", c.anarchy_share),
        ]);
        forced_cells.push(c);
    }
    out.push_str(&t2.render());
    out.push_str(
        "\nshape checks: E9a anarchy share small and shrinking with n; \
         E9b delivery stays high with anarchy share ≈ 1 at small n\n",
    );
    if let Some(dense) = normal_cells.last() {
        rb.check(
            "lemma18_dense_class_avoids_anarchy",
            dense.anarchy_share < 0.5,
            format!("anarchy share at max n: {:.3}", dense.anarchy_share),
        );
    }
    if let Some(forced) = forced_cells.first() {
        rb.check(
            "cor20_forced_anarchists_deliver",
            forced.delivered > 0.8,
            format!("forced-anarchy delivery at min n: {:.3}", forced.delivered),
        );
    }
    rb.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_anarchists_succeed() {
        // Corollary 20: even pure anarchists deliver w.h.p. at moderate
        // density.
        let c = sweep(&ExpConfig::quick(), 4, forced_anarchy_params());
        assert!(c.delivered > 0.8, "delivered={}", c.delivered);
        assert!(c.anarchy_share > 0.6, "share={}", c.anarchy_share);
    }

    #[test]
    fn dense_class_avoids_anarchy() {
        let c = sweep(&ExpConfig::quick(), 64, normal_params());
        assert!(
            c.anarchy_share < 0.5,
            "dense class should deliver via ALIGNED: share={}",
            c.anarchy_share
        );
    }
}
