//! **E4 — Lemmas 8–10**: size-estimation accuracy.
//!
//! Claim (Lemma 8, with the paper's `τ = 64`): if the estimation protocol
//! completes, then w.h.p. in `w` the estimate satisfies
//! `2n̂ ≤ n_ℓ ≤ τ²n̂`, including under stochastic jamming with
//! `p_jam ≤ 1/2`. We sweep the true class size `n̂` over decades and three
//! jamming levels, and report how often the estimate lands in the paper's
//! band (and in the tighter "within ×8 of 2n̂" band that the broadcast
//! phase actually cares about).

use crate::config::ExpConfig;
use crate::experiments::util::probed_estimate;
use crate::report::{ExpOutput, ReportBuilder};
use dcr_core::aligned::params::AlignedParams;
use dcr_sim::runner::run_trials;
use dcr_stats::{Proportion, Table};

/// Estimation-only parameters: the paper's τ = 64 needs λℓ² ≤ w, nothing
/// more, because we only examine the estimate.
fn params(class: u32, tau: u64) -> AlignedParams {
    AlignedParams::new(1, tau, class)
}

struct Cell {
    in_paper_band: Proportion,
    overestimate: Proportion,
    mean_ratio: f64,
}

fn sweep(cfg: &ExpConfig, class: u32, n_hat: usize, p_jam: f64, tau: u64) -> Cell {
    let trials = cfg.cell_trials(240);
    let p = params(class, tau);
    let results = run_trials(
        trials,
        cfg.seed ^ ((n_hat as u64) << 20) ^ ((p_jam * 100.0) as u64),
        |_, seed| probed_estimate(p, class, n_hat, p_jam, seed).map_or(0, |(n_est, _)| n_est),
    );
    let mut in_band = 0u64;
    let mut over = 0u64;
    let mut ratio_sum = 0.0;
    for t in &results {
        let est = t.value;
        if est >= 2 * n_hat as u64 && est <= tau * tau * n_hat as u64 {
            in_band += 1;
        }
        if est >= 2 * n_hat as u64 {
            over += 1;
        }
        ratio_sum += est as f64 / n_hat as f64;
    }
    Cell {
        in_paper_band: Proportion::new(in_band, trials),
        overestimate: Proportion::new(over, trials),
        mean_ratio: ratio_sum / trials as f64,
    }
}

/// Run E4.
pub fn run(cfg: &ExpConfig) -> ExpOutput {
    let tau = 64; // the paper's constant for Lemma 8
    let class = 12; // estimation alone: λℓ² = 144 ≪ 4096
    let n_hats: &[usize] = if cfg.quick {
        &[1, 8, 64]
    } else {
        &[1, 2, 4, 8, 16, 32, 64, 128]
    };
    let jams = [0.0, 0.25, 0.5];
    let mut rb = ReportBuilder::new("e4", "E4 (Lemma 8): size-estimation accuracy", cfg);
    rb.param("tau", tau)
        .param("class", class)
        .param("n_hats", format!("{n_hats:?}"))
        .param("jam_levels", format!("{jams:?}"))
        .param("trials_per_cell", cfg.cell_trials(240));

    let mut table = Table::new(vec![
        "n̂",
        "p_jam",
        "P[2n̂ ≤ est ≤ τ²n̂]",
        "P[est ≥ 2n̂]",
        "mean est/n̂",
    ])
    .with_title(format!(
        "E4 (Lemma 8): size estimation, class ℓ={class}, τ={tau}, λ=1, seed {}",
        cfg.seed
    ));
    let mut worst_band: f64 = 1.0;
    for &n_hat in n_hats {
        for &p_jam in &jams {
            let cell = sweep(cfg, class, n_hat, p_jam, tau);
            worst_band = worst_band.min(cell.in_paper_band.estimate());
            let id = format!("n={n_hat},p_jam={p_jam}");
            rb.prop(&id, "p_in_paper_band", &cell.in_paper_band)
                .prop(&id, "p_overestimate", &cell.overestimate)
                .row(&id, "mean_ratio", cell.mean_ratio)
                .add_trials(cfg.cell_trials(240));
            table.row(vec![
                n_hat.to_string(),
                format!("{p_jam:.2}"),
                cell.in_paper_band.to_string(),
                format!("{:.3}", cell.overestimate.estimate()),
                format!("{:.1}", cell.mean_ratio),
            ]);
        }
    }
    let mut out = table.render();
    out.push_str(&format!(
        "\nworst in-band rate: {worst_band:.3} (Lemma 8 claims 1 − 1/w^Θ(λ))\n"
    ));
    rb.row("overall", "worst_in_band_rate", worst_band).check(
        "lemma8_band",
        worst_band > 0.8,
        format!("worst in-band rate {worst_band:.3}"),
    );
    rb.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::util::aligned_batch;

    #[test]
    fn estimates_land_in_paper_band_without_jamming() {
        let cell = sweep(&ExpConfig::quick(), 12, 8, 0.0, 64);
        assert!(
            cell.in_paper_band.estimate() > 0.9,
            "{}",
            cell.in_paper_band
        );
    }

    #[test]
    fn estimates_survive_half_jamming() {
        let cell = sweep(&ExpConfig::quick(), 12, 8, 0.5, 64);
        assert!(
            cell.in_paper_band.estimate() > 0.8,
            "{}",
            cell.in_paper_band
        );
    }

    #[test]
    fn estimate_is_biased_upward() {
        // The τ inflation makes underestimates rare (that is its purpose).
        let cell = sweep(&ExpConfig::quick(), 12, 16, 0.0, 64);
        assert!(cell.overestimate.estimate() > 0.95, "{}", cell.overestimate);
        assert!(cell.mean_ratio > 2.0);
    }

    #[test]
    fn empty_class_run_is_trivial() {
        // With zero jobs there is nobody to report an estimate; the run
        // must terminate immediately and cleanly.
        assert_eq!(probed_estimate(params(10, 64), 10, 0, 0.0, 5), None);
        let r = aligned_batch(params(10, 64), 10, 0, 0.0, 5);
        assert_eq!(r.successes(), 0);
        assert_eq!(r.slots_run, 0);
    }
}
