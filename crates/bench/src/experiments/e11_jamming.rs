//! **E11 — Section 3 "Jamming"**: ALIGNED survives stochastic jamming with
//! `p_jam ≤ 1/2`.
//!
//! Claim: the estimation and broadcast analyses (Lemmas 8–13) all tolerate
//! an adversary that sees slot contents and jams with success probability
//! `p_jam ≤ 1/2`. We sweep `p_jam` through and past the analyzed range for
//! the all-successes adversary, and compare targeting policies
//! (control-only — the paper's "skew the estimate" adversary — vs
//! data-only) at `p_jam = 1/2`.

use crate::config::ExpConfig;
use crate::experiments::util::run_instance;
use crate::report::{ExpOutput, ReportBuilder};
use dcr_core::aligned::params::AlignedParams;
use dcr_core::aligned::protocol::AlignedProtocol;
use dcr_sim::engine::EngineConfig;
use dcr_sim::jamming::{JamPolicy, Jammer};
use dcr_sim::runner::run_trials;
use dcr_stats::{Proportion, Table};
use dcr_workloads::generators::batch;

const CLASS: u32 = 11;
const N_JOBS: usize = 8;

fn params() -> AlignedParams {
    // λ=2 provides the margin the jamming analysis spends.
    AlignedParams::new(2, 2, CLASS)
}

/// E11a: the all-successes adversary at `p_jam`.
fn sweep_pjam(cfg: &ExpConfig, p_jam: f64) -> Proportion {
    let seed = cfg.seed ^ ((p_jam * 1000.0) as u64);
    delivery(JamPolicy::AllSuccesses, p_jam, cfg.cell_trials(160), seed)
}

/// E11b: targeting policy `policy` at `p_jam`.
fn sweep_policy(cfg: &ExpConfig, policy: JamPolicy, p_jam: f64) -> Proportion {
    delivery(policy, p_jam, cfg.cell_trials(120), cfg.seed ^ 0xE11)
}

/// Per-job delivery rate of `trials` batches of `N_JOBS` in one window.
fn delivery(policy: JamPolicy, p_jam: f64, trials: u64, seed: u64) -> Proportion {
    let instance = batch(N_JOBS, 1 << CLASS);
    let results = run_trials(trials, seed, |_, seed| {
        run_instance(
            &instance,
            EngineConfig::aligned(),
            Some(Jammer::new(policy, p_jam)),
            seed,
            AlignedProtocol::factory(params()),
        )
        .successes() as u64
    });
    Proportion::new(
        results.iter().map(|t| t.value).sum(),
        results.len() as u64 * N_JOBS as u64,
    )
}

/// Run E11.
pub fn run(cfg: &ExpConfig) -> ExpOutput {
    let pjams: &[f64] = if cfg.quick {
        &[0.0, 0.5, 0.75]
    } else {
        &[0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9]
    };
    let mut rb = ReportBuilder::new("e11", "E11: ALIGNED under stochastic jamming", cfg);
    rb.param("class", CLASS)
        .param("n_jobs", N_JOBS)
        .param("p_jam_grid", format!("{pjams:?}"));
    let mut t1 = Table::new(vec!["p_jam", "per-job delivery rate"]).with_title(format!(
        "E11a: ALIGNED (λ=2) under all-successes jamming, batch of {N_JOBS} in w=2^{CLASS}, \
         seed {}",
        cfg.seed
    ));
    let mut inside = Vec::new();
    let mut beyond = Vec::new();
    for &p in pjams {
        let prop = sweep_pjam(cfg, p);
        if p <= 0.5 {
            inside.push(prop.estimate());
        } else {
            beyond.push(prop.estimate());
        }
        rb.prop(format!("p_jam={p}"), "per_job_delivery", &prop)
            .add_trials(cfg.cell_trials(160));
        t1.row(vec![format!("{p:.2}"), prop.to_string()]);
    }
    let mut out = t1.render();

    let mut t2 = Table::new(vec!["policy", "per-job delivery rate"]).with_title(format!(
        "\nE11b: targeting policies at p_jam = 0.5 (engine adversary sees message contents), \
         seed {}",
        cfg.seed
    ));
    for (name, policy) in [
        ("never", JamPolicy::Never),
        ("all successes", JamPolicy::AllSuccesses),
        ("control only (skew estimates)", JamPolicy::ControlOnly),
        ("data only", JamPolicy::DataOnly),
    ] {
        let prop = sweep_policy(cfg, policy, 0.5);
        rb.prop(format!("policy={name}"), "per_job_delivery", &prop)
            .add_trials(cfg.cell_trials(120));
        t2.row(vec![name.to_string(), prop.to_string()]);
    }
    out.push_str(&t2.render());
    let worst_inside = inside.iter().copied().fold(1.0f64, f64::min);
    out.push_str(&format!(
        "\nshape check: delivery stays high for p_jam ≤ 0.5 (min {worst_inside:.3}) and degrades \
         beyond the analyzed regime\n"
    ));
    rb.row("overall", "worst_delivery_inside_regime", worst_inside)
        .check(
            "jamming_tolerated_inside_regime",
            worst_inside > 0.8,
            format!("worst delivery at p_jam <= 0.5: {worst_inside:.3}"),
        );
    rb.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_channel_delivers() {
        let p = sweep_pjam(&ExpConfig::quick(), 0.0);
        assert!(p.estimate() > 0.97, "{p}");
    }

    #[test]
    fn half_jamming_tolerated() {
        let p = sweep_pjam(&ExpConfig::quick(), 0.5);
        assert!(p.estimate() > 0.85, "{p}");
    }

    #[test]
    fn control_only_jamming_does_not_break_estimates() {
        // The paper's worried-about adversary: jam only control messages to
        // skew n_ℓ. The τ inflation and equalizer phases must absorb it.
        let p = sweep_policy(&ExpConfig::quick(), JamPolicy::ControlOnly, 0.5);
        assert!(p.estimate() > 0.8, "{p}");
    }
}
