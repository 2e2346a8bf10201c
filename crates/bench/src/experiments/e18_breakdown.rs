//! **E18 — breakdown sweep**: where each protocol's jamming tolerance
//! ends, and what stateful adversaries buy over stateless ones.
//!
//! Theorem 14's robustness claim is a *threshold* statement: ALIGNED
//! tolerates stochastic jamming for `p_jam ≤ 1/2`, and the analysis spends
//! its λ margin to get there. This experiment maps the whole curve instead
//! of two points: per-job delivery as `p_jam` sweeps from 0 to 1 for
//! ALIGNED, PUNCTUAL, UNIFORM, and the backoff baselines (E18a); delivery
//! under Gilbert–Elliott bursty channel faults as the burst length grows
//! at fixed outage duty (E18b); and a panel of stateful adversaries —
//! reactive estimation-skew, finite-budget blitz — at the paper's
//! threshold `p_jam = 1/2` (E18c), using the adversary counters surfaced
//! in `SimReport::jam_stats` to report attack *cost* next to attack
//! *damage*.

use crate::config::ExpConfig;
use crate::experiments::util::run_instance;
use crate::report::{ExpOutput, ReportBuilder};
use dcr_baselines::{BinaryExponentialBackoff, Sawtooth};
use dcr_core::aligned::params::AlignedParams;
use dcr_core::aligned::protocol::AlignedProtocol;
use dcr_core::punctual::PunctualParams;
use dcr_core::uniform::Uniform;
use dcr_core::PunctualProtocol;
use dcr_sim::engine::EngineConfig;
use dcr_sim::jamming::{AdversarySpec, JamPolicy};
use dcr_sim::runner::run_trials;
use dcr_stats::{Proportion, Table};
use dcr_workloads::adversarial::{burst_outage_attack, estimation_skew_attack, AttackScenario};
use dcr_workloads::generators::batch;
use dcr_workloads::Instance;

const CLASS: u32 = 13;
const N_JOBS: usize = 8;

/// Trials in each of the two E18b cells that `long_blackouts_bite`
/// compares, in quick and full mode alike. Sized from a 40-seed
/// calibration: the L = 128 cell delivers 0.934 on average, 0.016 inside
/// the check's margin, with a trial-level sd of about 0.24, so 48 trials
/// fail the check on ~40% of seeds (10 trials on ~40% of quick seeds);
/// at 3,072 the seed-to-seed sd is 0.0043 and the margin sits 3.7 of
/// them away.
const CHECK_TRIALS: u64 = 3_072;

/// λ=2 buys the margin the jamming analysis spends (same as E11).
fn aligned_params() -> AlignedParams {
    AlignedParams::new(2, 2, CLASS)
}

/// One measured cell: delivery proportion plus aggregate adversary cost.
struct Cell {
    delivered: Proportion,
    /// Mean jam attempts per trial (the attack's cost).
    mean_attempted: f64,
    /// Aggregate attempt/success totals (for efficacy checks).
    attempted: u64,
    succeeded: u64,
    trials: u64,
}

fn measure(
    cfg: &ExpConfig,
    trials: u64,
    instance: &Instance,
    proto: &str,
    adversary: AdversarySpec,
    p_jam: f64,
    salt: u64,
) -> Cell {
    let results = run_trials(trials, cfg.seed ^ 0xE18 ^ salt, |_, seed| {
        let jammer = Some(adversary.jammer(p_jam));
        let r = match proto {
            "aligned" => run_instance(
                instance,
                EngineConfig::aligned(),
                jammer,
                seed,
                AlignedProtocol::factory(aligned_params()),
            ),
            "punctual" => run_instance(
                instance,
                EngineConfig::default(),
                jammer,
                seed,
                PunctualProtocol::factory(PunctualParams::laptop()),
            ),
            "uniform" => run_instance(instance, EngineConfig::default(), jammer, seed, |_| {
                Box::new(Uniform::single())
            }),
            "beb" => run_instance(
                instance,
                EngineConfig::default(),
                jammer,
                seed,
                BinaryExponentialBackoff::factory(1024),
            ),
            "sawtooth" => run_instance(
                instance,
                EngineConfig::default(),
                jammer,
                seed,
                Sawtooth::factory(),
            ),
            _ => unreachable!("unknown protocol {proto}"),
        };
        (
            r.successes() as u64,
            r.jam_stats.attempted,
            r.jam_stats.succeeded,
        )
    });
    let successes: u64 = results.iter().map(|t| t.value.0).sum();
    let attempted: u64 = results.iter().map(|t| t.value.1).sum();
    let succeeded: u64 = results.iter().map(|t| t.value.2).sum();
    Cell {
        delivered: Proportion::new(successes, trials * instance.n() as u64),
        mean_attempted: attempted as f64 / trials as f64,
        attempted,
        succeeded,
        trials,
    }
}

/// Run E18.
pub fn run(cfg: &ExpConfig) -> ExpOutput {
    let pjams: &[f64] = if cfg.quick {
        &[0.0, 0.5, 1.0]
    } else {
        &[0.0, 0.25, 0.5, 0.75, 0.9, 1.0]
    };
    let burst_lens: &[f64] = if cfg.quick {
        &[2.0, 128.0]
    } else {
        &[2.0, 8.0, 32.0, 128.0]
    };
    let protos = ["aligned", "punctual", "uniform", "beb", "sawtooth"];
    let instance = batch(N_JOBS, 1 << CLASS);
    let all = AdversarySpec::Policy(JamPolicy::AllSuccesses);
    let trials = cfg.cell_trials(48);

    let mut rb = ReportBuilder::new(
        "e18",
        "E18: breakdown sweep — adversary strength vs delivery",
        cfg,
    );
    rb.param("class", CLASS)
        .param("n_jobs", N_JOBS)
        .param("lambda", 2)
        .param("p_jam_grid", format!("{pjams:?}"))
        .param("burst_len_grid", format!("{burst_lens:?}"))
        .param("trials_per_cell", trials)
        .param("trials_per_check_cell", CHECK_TRIALS);

    // ── E18a: stochastic p_jam sweep, all protocols ──────────────────────
    let mut t1 = Table::new(vec!["protocol", "p_jam", "per-job delivery"]).with_title(format!(
        "E18a: all-successes jamming swept through the breakdown point, \
         batch of {N_JOBS} in w=2^{CLASS}, seed {}",
        cfg.seed
    ));
    let mut aligned_at_half = f64::NAN;
    let mut aligned_at_one = f64::NAN;
    let mut efficacy: Option<(u64, u64)> = None;
    for proto in protos {
        for (i, &p) in pjams.iter().enumerate() {
            let cell = measure(cfg, trials, &instance, proto, all, p, (i as u64) << 8);
            rb.prop(
                format!("{proto},p_jam={p}"),
                "per_job_delivery",
                &cell.delivered,
            )
            .add_trials(cell.trials);
            t1.row(vec![
                proto.to_string(),
                format!("{p:.2}"),
                cell.delivered.to_string(),
            ]);
            if proto == "aligned" {
                if p == 0.5 {
                    aligned_at_half = cell.delivered.estimate();
                    efficacy = Some((cell.attempted, cell.succeeded));
                }
                if p == 1.0 {
                    aligned_at_one = cell.delivered.estimate();
                }
            }
        }
    }
    let mut out = t1.render();

    // ── E18b: Gilbert–Elliott bursts at fixed 50% outage duty ────────────
    let mut t2 = Table::new(vec!["burst len", "per-job delivery"]).with_title(format!(
        "\nE18b: ALIGNED under Gilbert–Elliott outages (duty 0.5, p_jam = 1), \
         scattered noise vs long blackouts, seed {}",
        cfg.seed
    ));
    let mut burst_deliveries = Vec::new();
    for (i, &len) in burst_lens.iter().enumerate() {
        let scen = burst_outage_attack(CLASS, N_JOBS, 0.5, len, 1.0);
        let checked = i == 0 || i == burst_lens.len() - 1;
        let cell = measure(
            cfg,
            if checked { CHECK_TRIALS } else { trials },
            &scen.instance,
            "aligned",
            scen.adversary,
            scen.p_jam,
            0xB0 ^ ((i as u64) << 16),
        );
        rb.prop(
            format!("aligned,burst_len={len}"),
            "per_job_delivery",
            &cell.delivered,
        )
        .add_trials(cell.trials);
        burst_deliveries.push(cell.delivered.estimate());
        t2.row(vec![format!("{len:.0}"), cell.delivered.to_string()]);
    }
    out.push_str(&t2.render());

    // ── E18c: stateful adversaries at the threshold ──────────────────────
    let budget = 6 * N_JOBS as u64;
    let scenarios: Vec<AttackScenario> = vec![
        AttackScenario {
            name: "stochastic".into(),
            instance: instance.clone(),
            adversary: all,
            p_jam: 0.5,
        },
        estimation_skew_attack(CLASS, N_JOBS, 4, 0.5),
        estimation_skew_attack(CLASS, N_JOBS, 16, 0.5),
        AttackScenario {
            name: format!("budget(B={budget})"),
            instance: instance.clone(),
            adversary: AdversarySpec::Budgeted {
                budget,
                data_only: false,
            },
            p_jam: 0.5,
        },
        AttackScenario {
            name: format!("budget(B={budget},data)"),
            instance: instance.clone(),
            adversary: AdversarySpec::Budgeted {
                budget,
                data_only: true,
            },
            p_jam: 0.5,
        },
    ];
    let mut t3 = Table::new(vec!["adversary", "per-job delivery", "jam attempts/trial"])
        .with_title(format!(
            "\nE18c: stateful adversaries vs ALIGNED at p_jam = 0.5, seed {}",
            cfg.seed
        ));
    let mut budget_ok = true;
    for (i, scen) in scenarios.iter().enumerate() {
        let cell = measure(
            cfg,
            trials,
            &scen.instance,
            "aligned",
            scen.adversary,
            scen.p_jam,
            0xC0 ^ ((i as u64) << 24),
        );
        rb.prop(
            format!("aligned,adv={}", scen.name),
            "per_job_delivery",
            &cell.delivered,
        )
        .row(
            format!("aligned,adv={}", scen.name),
            "mean_jam_attempts",
            cell.mean_attempted,
        )
        .add_trials(cell.trials);
        if let AdversarySpec::Budgeted { budget, .. } = scen.adversary {
            budget_ok &= cell.mean_attempted <= budget as f64 + 1e-9;
        }
        t3.row(vec![
            scen.name.clone(),
            cell.delivered.to_string(),
            format!("{:.1}", cell.mean_attempted),
        ]);
    }
    out.push_str(&t3.render());

    // ── Claim checks ─────────────────────────────────────────────────────
    let drop_past_half = aligned_at_half - aligned_at_one;
    out.push_str(&format!(
        "\nshape check: ALIGNED holds ≥0.9 delivery through p_jam = 0.5 \
         ({aligned_at_half:.3}) and collapses by p_jam = 1 ({aligned_at_one:.3}); \
         scattered bursts are absorbed while long blackouts bite\n"
    ));
    rb.row("aligned", "delivery_at_half", aligned_at_half)
        .row("aligned", "delivery_at_one", aligned_at_one)
        .row("aligned", "drop_past_half", drop_past_half)
        .check(
            "aligned_survives_half_jamming",
            aligned_at_half >= 0.9,
            format!("ALIGNED per-job delivery at p_jam = 0.5: {aligned_at_half:.3}"),
        )
        .check(
            "aligned_degrades_past_half",
            aligned_at_one < 0.5 && drop_past_half > 0.3,
            format!(
                "delivery falls {drop_past_half:.3} from p_jam 0.5 to 1.0 \
                 (ends at {aligned_at_one:.3})"
            ),
        )
        .check(
            "budget_respected",
            budget_ok,
            format!("budgeted adversaries never exceed B = {budget} attempts"),
        );
    let scattered = *burst_deliveries.first().unwrap_or(&f64::NAN);
    let blackout = *burst_deliveries.last().unwrap_or(&f64::NAN);
    rb.row("aligned", "delivery_scattered_bursts", scattered)
        .row("aligned", "delivery_long_blackouts", blackout)
        .check(
            "scattered_outages_absorbed",
            scattered >= 0.9,
            format!(
                "short bursts (L={}) at 50% duty look like stochastic jamming: \
                 delivery {scattered:.3}",
                burst_lens[0]
            ),
        )
        .check(
            "long_blackouts_bite",
            blackout <= scattered - 0.05,
            format!(
                "same outage duty in L={} blackouts: delivery {blackout:.3} vs \
                 {scattered:.3} scattered",
                burst_lens[burst_lens.len() - 1]
            ),
        );
    if let Some((attempted, succeeded)) = efficacy {
        let ratio = succeeded as f64 / attempted.max(1) as f64;
        rb.row("aligned,p_jam=0.5", "jam_efficacy", ratio).check(
            "jam_efficacy_matches_p_jam",
            attempted > 0 && (ratio - 0.5).abs() < 0.08,
            format!("succeeded/attempted = {succeeded}/{attempted} = {ratio:.3} vs p_jam 0.5"),
        );
    }
    rb.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_survives_the_analyzed_regime() {
        let cfg = ExpConfig::quick();
        let inst = batch(N_JOBS, 1 << CLASS);
        let all = AdversarySpec::Policy(JamPolicy::AllSuccesses);
        let cell = measure(&cfg, cfg.cell_trials(48), &inst, "aligned", all, 0.5, 0);
        assert!(cell.delivered.estimate() >= 0.9, "{}", cell.delivered);
    }

    #[test]
    fn everyone_collapses_at_certain_jamming() {
        // p_jam = 1 with an all-successes adversary kills every delivery
        // regardless of protocol: the breakdown endpoint is exact.
        let cfg = ExpConfig::quick();
        let inst = batch(N_JOBS, 1 << CLASS);
        let all = AdversarySpec::Policy(JamPolicy::AllSuccesses);
        for proto in ["aligned", "uniform"] {
            let cell = measure(&cfg, cfg.cell_trials(48), &inst, proto, all, 1.0, 1);
            assert_eq!(cell.delivered.estimate(), 0.0, "{proto}");
        }
    }

    #[test]
    fn uniform_has_no_margin_at_half() {
        // UNIFORM transmits once; at p_jam = 0.5 half its deliveries die.
        // The contrast with ALIGNED's retry margin is the point of E18a.
        let cfg = ExpConfig::quick();
        let inst = batch(N_JOBS, 1 << CLASS);
        let all = AdversarySpec::Policy(JamPolicy::AllSuccesses);
        let uniform = measure(&cfg, cfg.cell_trials(48), &inst, "uniform", all, 0.5, 2);
        assert!(uniform.delivered.estimate() < 0.8, "{}", uniform.delivered);
    }

    #[test]
    fn budgeted_attack_cost_is_capped() {
        let cfg = ExpConfig::quick();
        let inst = batch(N_JOBS, 1 << CLASS);
        let spec = AdversarySpec::Budgeted {
            budget: 5,
            data_only: false,
        };
        let cell = measure(&cfg, cfg.cell_trials(48), &inst, "aligned", spec, 1.0, 3);
        assert!(cell.mean_attempted <= 5.0 + 1e-9, "{}", cell.mean_attempted);
        assert!(cell.attempted > 0);
    }

    #[test]
    fn quick_run_produces_passing_artifact() {
        let out = run(&ExpConfig::quick());
        assert!(out.report.all_checks_passed(), "{}", out.text);
        assert!(out.report.rows.len() > 20);
    }
}
