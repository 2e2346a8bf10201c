//! # dcr-bench — the experiment harness
//!
//! Regenerates every figure and quantitative claim of *Contention
//! Resolution with Message Deadlines* (SPAA 2020). The paper is a theory
//! paper — its "evaluation" is its lemmas — so each experiment here turns
//! one claim into a measured table whose *shape* must match the claim. The
//! experiment ↔ claim map lives in `DESIGN.md` §4 and the measured results
//! in `EXPERIMENTS.md` at the workspace root.
//!
//! Run everything with `cargo run --release -p dcr-bench --bin experiments`
//! (add an experiment id like `e7` to run one; `--quick` shrinks trial
//! counts; `--seed N` replays).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

#[cfg(test)]
mod code_identity;
pub mod config;
pub mod experiments;
pub mod report;
pub mod runspec;

pub use config::ExpConfig;
pub use report::{ExpOutput, ReportBuilder};

/// All experiment ids in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig1", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
    "e14", "e15", "e16", "e17", "e18", "e19", "e20", "e21", "a1", "a2",
];

/// Run one experiment by id, returning its full [`ExpOutput`]: the
/// rendered text plus the structured [`dcr_stats::ExperimentReport`]
/// artifact (per-cell metrics with confidence intervals, claim checks,
/// timing, provenance).
pub fn run_experiment_report(id: &str, cfg: &ExpConfig) -> Option<ExpOutput> {
    let out = match id {
        "fig1" => experiments::fig1::run(cfg),
        "e1" => experiments::e1_contention::run(cfg),
        "e2" => experiments::e2_uniform::run(cfg),
        "e3" => experiments::e3_starvation::run(cfg),
        "e4" => experiments::e4_estimation::run(cfg),
        "e5" => experiments::e5_active_steps::run(cfg),
        "e6" => experiments::e6_truncation::run(cfg),
        "e7" => experiments::e7_aligned_hp::run(cfg),
        "e8" => experiments::e8_leader::run(cfg),
        "e9" => experiments::e9_anarchist::run(cfg),
        "e10" => experiments::e10_endtoend::run(cfg),
        "e11" => experiments::e11_jamming::run(cfg),
        "e12" => experiments::e12_clock::run(cfg),
        "e13" => experiments::e13_energy::run(cfg),
        "e14" => experiments::e14_makespan::run(cfg),
        "e15" => experiments::e15_punctual_jamming::run(cfg),
        "e16" => experiments::e16_adversarial::run(cfg),
        "e17" => experiments::e17_latency::run(cfg),
        "e18" => experiments::e18_breakdown::run(cfg),
        "e19" => experiments::e19_estimation_fidelity::run(cfg),
        "e20" => experiments::e20_scale::run(cfg),
        "e21" => experiments::e21_branch_frontier::run(cfg),
        "a1" => experiments::a1_no_deferral::run(cfg),
        "a2" => experiments::a2_params::run(cfg),
        _ => return None,
    };
    Some(out)
}
