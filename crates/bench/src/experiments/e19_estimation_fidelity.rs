//! **E19 — probe-layer fidelity**: estimation accuracy and leader-election
//! latency, measured through the streaming probe layer instead of by
//! reaching into protocol internals.
//!
//! Two claims, both re-checks of earlier experiments through the new
//! observation channel:
//!
//! * (Lemma 8, cf. E4) the `SizeEstimate` event every ALIGNED job emits
//!   when its class's estimation concludes satisfies `2n ≤ n_est ≤ τ²n`,
//!   and the engine-enriched `n_true` equals the instance's class size;
//! * (Lemma 17, cf. E8) a dense class elects a leader, and the
//!   `LeaderElected` event lands within the pullback budget — the paper's
//!   `O(λ log⁷ w)` election slots, concretely `sync + (budget + c)·R`
//!   slots for round length `R`.
//!
//! With `--probe DIR` the run also writes `e19_perfetto.json`, a Chrome
//! trace-event file of one probed ALIGNED run (CI loads it and asserts it
//! parses and carries at least one `SizeEstimate` instant).

use crate::config::ExpConfig;
use crate::experiments::util::probed_estimate;
use crate::report::{ExpOutput, ReportBuilder};
use dcr_core::punctual::params::ROUND_LEN;
use dcr_core::{AlignedParams, AlignedProtocol, PunctualParams, PunctualProtocol};
use dcr_sim::engine::{Engine, EngineConfig};
use dcr_sim::job::JobSpec;
use dcr_sim::probe::{ProbeEvent, ProbeSpec, SinkSpec};
use dcr_sim::runner::run_trials;
use dcr_stats::{Proportion, Table};

/// The paper's τ for Lemma 8 (matches E4).
const TAU: u64 = 64;
/// Class for the estimation half: λℓ² = 144 ≪ 4096 (matches E4).
const CLASS: u32 = 12;
/// Window for the leader-election half (matches E8).
const WINDOW: u64 = 1 << 14;

/// One probed PUNCTUAL run; returns the earliest `LeaderElected` slot.
fn leader_trial(n: u32, seed: u64) -> Option<u64> {
    let config = EngineConfig::default().with_probe(ProbeSpec::new().with(SinkSpec::Events));
    let mut e = Engine::new(config, seed);
    for i in 0..n {
        e.add_job(
            JobSpec::new(i, 0, WINDOW),
            Box::new(PunctualProtocol::new(PunctualParams::laptop())),
        );
    }
    let r = e.run();
    let probes = r.probes.as_ref().expect("probe configured");
    probes
        .events()
        .expect("events sink configured")
        .iter()
        .filter(|rec| matches!(rec.event, ProbeEvent::LeaderElected))
        .map(|rec| rec.slot)
        .min()
}

struct EstCell {
    in_band: Proportion,
    truth_ok: Proportion,
    reported: Proportion,
}

fn est_sweep(cfg: &ExpConfig, n: u32) -> EstCell {
    let trials = cfg.cell_trials(120);
    let params = AlignedParams::new(1, TAU, CLASS);
    let results = run_trials(trials, cfg.seed ^ (u64::from(n) << 24), |_, seed| {
        probed_estimate(params, CLASS, n as usize, 0.0, seed)
    });
    let mut in_band = 0u64;
    let mut truth_ok = 0u64;
    let mut reported = 0u64;
    for t in &results {
        let Some((n_est, n_true)) = t.value else {
            continue;
        };
        reported += 1;
        if n_est >= 2 * u64::from(n) && n_est <= TAU * TAU * u64::from(n) {
            in_band += 1;
        }
        if n_true == u64::from(n) {
            truth_ok += 1;
        }
    }
    EstCell {
        in_band: Proportion::new(in_band, reported.max(1)),
        truth_ok: Proportion::new(truth_ok, reported.max(1)),
        reported: Proportion::new(reported, trials),
    }
}

struct LeaderCell {
    elected: Proportion,
    within_bound: Proportion,
    mean_slot: f64,
}

/// Empirical election deadline: synchronization, then the full pullback
/// claim budget plus a few rounds of takeover slack.
fn election_bound() -> u64 {
    let p = PunctualParams::laptop();
    p.sync_listen_slots + (p.pullback_election_slots(WINDOW) + 6) * ROUND_LEN
}

/// Trials for the leader sweep, floored at 40 even in quick mode: the
/// election-rate check compares a ~0.8 proportion against a 0.6
/// threshold, and at quick's 10 trials that comparison is a coin flip
/// on the seed realization, not a check of the election logic.
fn leader_trials(cfg: &ExpConfig) -> u64 {
    cfg.cell_trials(40).max(40)
}

fn leader_sweep(cfg: &ExpConfig, n: u32) -> LeaderCell {
    let trials = leader_trials(cfg);
    let results = run_trials(trials, cfg.seed ^ (u64::from(n) << 16), |_, seed| {
        leader_trial(n, seed)
    });
    let bound = election_bound();
    let mut elected = 0u64;
    let mut within = 0u64;
    let mut slot_sum = 0.0;
    for t in &results {
        let Some(slot) = t.value else { continue };
        elected += 1;
        if slot <= bound {
            within += 1;
        }
        slot_sum += slot as f64;
    }
    LeaderCell {
        elected: Proportion::new(elected, trials),
        within_bound: Proportion::new(within, elected.max(1)),
        mean_slot: if elected == 0 {
            f64::NAN
        } else {
            slot_sum / elected as f64
        },
    }
}

/// Write one probed ALIGNED run's Perfetto trace to `dir/e19_perfetto.json`.
fn write_perfetto(cfg: &ExpConfig, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
    let params = AlignedParams::new(1, TAU, CLASS);
    let w = 1u64 << CLASS;
    let config = EngineConfig::aligned().with_probe(
        ProbeSpec::new()
            .with(SinkSpec::ChromeTrace)
            .with(SinkSpec::Events),
    );
    let mut e = Engine::new(config, cfg.seed);
    for i in 0..8 {
        e.add_job(
            JobSpec::new(i, 0, w),
            Box::new(AlignedProtocol::new(params)),
        );
    }
    let r = e.run();
    let json = r
        .probes
        .as_ref()
        .and_then(|p| p.chrome_trace())
        .expect("chrome trace configured");
    std::fs::create_dir_all(dir)?;
    let path = dir.join("e19_perfetto.json");
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Run E19.
pub fn run(cfg: &ExpConfig) -> ExpOutput {
    let ns: &[u32] = if cfg.quick { &[1, 64] } else { &[1, 8, 64] };
    let mut rb = ReportBuilder::new("e19", "E19: probe-layer estimation fidelity", cfg);
    rb.param("tau", TAU)
        .param("class", CLASS)
        .param("leader_window", WINDOW)
        .param("election_bound_slots", election_bound())
        .param("ns", format!("{ns:?}"));

    let mut table = Table::new(vec![
        "n (jobs)",
        "P[reported]",
        "P[2n ≤ n_est ≤ τ²n]",
        "P[n_true exact]",
    ])
    .with_title(format!(
        "E19a (Lemma 8 via SizeEstimate events): class ℓ={CLASS}, τ={TAU}, seed {}",
        cfg.seed
    ));
    let mut worst_band: f64 = 1.0;
    let mut worst_truth: f64 = 1.0;
    for &n in ns {
        let c = est_sweep(cfg, n);
        worst_band = worst_band.min(c.in_band.estimate());
        worst_truth = worst_truth.min(c.truth_ok.estimate());
        let id = format!("n={n}");
        rb.prop(&id, "p_in_band", &c.in_band)
            .prop(&id, "p_truth_exact", &c.truth_ok)
            .prop(&id, "p_reported", &c.reported)
            .add_trials(cfg.cell_trials(120));
        table.row(vec![
            n.to_string(),
            format!("{:.3}", c.reported.estimate()),
            c.in_band.to_string(),
            format!("{:.3}", c.truth_ok.estimate()),
        ]);
    }
    let mut out = table.render();

    let dense_n = 64;
    let leaders = leader_sweep(cfg, dense_n);
    out.push_str(&format!(
        "\nE19b (Lemma 17 via LeaderElected events): n={dense_n}, w={WINDOW}: \
         elected {}, within {}-slot bound {}, mean election slot {:.0}\n",
        leaders.elected,
        election_bound(),
        leaders.within_bound,
        leaders.mean_slot
    ));
    rb.prop("leader", "p_elected", &leaders.elected)
        .prop("leader", "p_within_bound", &leaders.within_bound)
        .row("leader", "mean_election_slot", leaders.mean_slot)
        .add_trials(leader_trials(cfg));

    rb.check(
        "lemma8_band_via_probe",
        worst_band > 0.8,
        format!("worst in-band rate {worst_band:.3}"),
    )
    .check(
        "ground_truth_enrichment_exact",
        worst_truth > 0.99,
        format!("worst n_true-exact rate {worst_truth:.3}"),
    )
    .check(
        "lemma17_dense_class_elects",
        leaders.elected.estimate() > 0.6,
        format!("election rate {}", leaders.elected),
    )
    .check(
        "election_within_pullback_budget",
        leaders.within_bound.estimate() > 0.9,
        format!("within-bound rate {}", leaders.within_bound),
    );

    if let Some(dir) = &cfg.probe_dir {
        match write_perfetto(cfg, dir) {
            Ok(path) => out.push_str(&format!("\nwrote Perfetto trace to {}\n", path.display())),
            Err(e) => out.push_str(&format!("\nfailed to write Perfetto trace: {e}\n")),
        }
    }
    rb.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_report_and_land_in_band() {
        let c = est_sweep(&ExpConfig::quick(), 8);
        assert!(c.reported.estimate() > 0.9, "{}", c.reported);
        assert!(c.in_band.estimate() > 0.8, "{}", c.in_band);
    }

    #[test]
    fn engine_enriches_ground_truth() {
        let c = est_sweep(&ExpConfig::quick(), 8);
        assert!(c.truth_ok.estimate() > 0.99, "{}", c.truth_ok);
    }

    #[test]
    fn dense_class_elects_within_bound() {
        // quick mode still gets `leader_trials`' 40-trial floor, enough
        // that the 0.6 threshold is not a coin flip on the realization.
        let c = leader_sweep(&ExpConfig::quick(), 64);
        assert!(c.elected.estimate() > 0.6, "{}", c.elected);
        assert!(c.within_bound.estimate() > 0.9, "{}", c.within_bound);
    }

    #[test]
    fn perfetto_artifact_contains_size_estimates() {
        let dir = std::env::temp_dir().join("dcr_e19_probe_test");
        let path = write_perfetto(&ExpConfig::quick(), &dir).expect("write");
        let json = std::fs::read_to_string(&path).expect("read back");
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert!(parsed.get("traceEvents").is_some());
        assert!(json.contains(r#""name":"SizeEstimate""#));
        std::fs::remove_dir_all(&dir).ok();
    }
}
