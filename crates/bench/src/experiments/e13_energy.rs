//! **E13 — channel-access (energy) cost**: what each protocol pays per
//! delivered message.
//!
//! The contention-resolution literature the paper builds on (its refs
//! [17, 29, 59]) treats transmissions and listening slots as the energy
//! currency. The deadline guarantees of ALIGNED/PUNCTUAL are bought with
//! coordination traffic; this table quantifies the exchange rate against
//! the deadline-oblivious baselines on one common batch.

use crate::config::ExpConfig;
use crate::experiments::util::run_instance;
use crate::report::{ExpOutput, ReportBuilder};
use dcr_baselines::{BinaryExponentialBackoff, FixedProbability, Sawtooth};
use dcr_core::aligned::params::AlignedParams;
use dcr_core::aligned::protocol::AlignedProtocol;
use dcr_core::punctual::PunctualParams;
use dcr_core::uniform::Uniform;
use dcr_core::PunctualProtocol;
use dcr_sim::engine::EngineConfig;
use dcr_sim::runner::run_trials;
use dcr_stats::Table;
use dcr_workloads::generators::batch;

const N_JOBS: usize = 16;
const WINDOW: u64 = 1 << 13;

struct Row {
    delivered: f64,
    tx_per_job: f64,
    radio_on: f64,
}

fn measure(cfg: &ExpConfig, proto: &str) -> Row {
    let instance = batch(N_JOBS, WINDOW);
    let trials = cfg.cell_trials(40);
    let results = run_trials(trials, cfg.seed ^ 0xE13, |_, seed| {
        let r = match proto {
            "aligned" => run_instance(
                &instance,
                EngineConfig::aligned(),
                None,
                seed,
                AlignedProtocol::factory(AlignedParams::new(1, 2, 13)),
            ),
            "punctual" => run_instance(
                &instance,
                EngineConfig::default(),
                None,
                seed,
                PunctualProtocol::factory(PunctualParams::laptop()),
            ),
            "beb" => run_instance(
                &instance,
                EngineConfig::default(),
                None,
                seed,
                BinaryExponentialBackoff::factory(1024),
            ),
            "sawtooth" => run_instance(
                &instance,
                EngineConfig::default(),
                None,
                seed,
                Sawtooth::factory(),
            ),
            "aloha(3/w)" => run_instance(
                &instance,
                EngineConfig::default(),
                None,
                seed,
                FixedProbability::per_window(3.0),
            ),
            "uniform" => run_instance(&instance, EngineConfig::default(), None, seed, |_| {
                Box::new(Uniform::single())
            }),
            _ => unreachable!(),
        };
        (
            r.success_fraction(),
            r.mean_transmissions(),
            r.mean_accesses(),
        )
    });
    let n = results.len() as f64;
    Row {
        delivered: results.iter().map(|t| t.value.0).sum::<f64>() / n,
        tx_per_job: results.iter().map(|t| t.value.1).sum::<f64>() / n,
        radio_on: results.iter().map(|t| t.value.2).sum::<f64>() / n,
    }
}

/// Run E13.
pub fn run(cfg: &ExpConfig) -> ExpOutput {
    let mut rb = ReportBuilder::new("e13", "E13: channel-access (energy) cost", cfg);
    rb.param("n_jobs", N_JOBS)
        .param("window", WINDOW)
        .param("trials_per_cell", cfg.cell_trials(40));
    let mut table = Table::new(vec![
        "protocol",
        "delivered",
        "tx per job",
        "radio-on slots per job",
    ])
    .with_title(format!(
        "E13: energy — batch of {N_JOBS} jobs, window {WINDOW}, seed {}",
        cfg.seed
    ));
    let mut uniform_tx = f64::NAN;
    for proto in [
        "aligned",
        "punctual",
        "sawtooth",
        "beb",
        "aloha(3/w)",
        "uniform",
    ] {
        let row = measure(cfg, proto);
        if proto == "uniform" {
            uniform_tx = row.tx_per_job;
        }
        rb.row(proto, "delivered_fraction", row.delivered)
            .row(proto, "tx_per_job", row.tx_per_job)
            .row(proto, "radio_on_per_job", row.radio_on)
            .add_trials(cfg.cell_trials(40));
        table.row(vec![
            proto.to_string(),
            format!("{:.3}", row.delivered),
            format!("{:.1}", row.tx_per_job),
            format!("{:.0}", row.radio_on),
        ]);
    }
    let mut out = table.render();
    out.push_str(
        "\nshape check: the deadline-aware protocols trade extra control \
         transmissions (estimation pings; starts/beacons/claims for PUNCTUAL) \
         and always-on listening for their per-job guarantee; UNIFORM is the \
         energy floor (1 tx, ~0 listen) and the fairness disaster of E3\n",
    );
    rb.check(
        "uniform_is_energy_floor",
        uniform_tx <= 1.0 + 1e-9,
        format!("uniform tx/job {uniform_tx:.3}"),
    );
    rb.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_energy_floor() {
        let cfg = ExpConfig::quick();
        let uniform = measure(&cfg, "uniform");
        let aligned = measure(&cfg, "aligned");
        assert!(uniform.tx_per_job < aligned.tx_per_job);
        assert!(uniform.tx_per_job <= 1.0 + 1e-9);
    }

    #[test]
    fn aligned_delivers_batch_reliably() {
        let row = measure(&ExpConfig::quick(), "aligned");
        assert!(row.delivered > 0.95, "delivered={}", row.delivered);
    }

    #[test]
    fn punctual_radio_cost_includes_round_overhead() {
        // PUNCTUAL transmits starts every round: its tx count dwarfs the
        // others' (that is the honest cost of clockless coordination).
        let cfg = ExpConfig::quick();
        let punctual = measure(&cfg, "punctual");
        let beb = measure(&cfg, "beb");
        assert!(punctual.tx_per_job > beb.tx_per_job);
    }
}
