//! **E14 — makespan scaling of the backoff families** (the paper's
//! related-work backdrop, refs [8, 13, 45, 52, 91]).
//!
//! Why does the paper need new algorithms at all? Because the classic
//! backoff family is makespan-suboptimal: for a batch of `n` jobs,
//! monotone windowed backoff (geometric/linear/quadratic) needs
//! `ω(n)` slots — binary exponential backoff provably `Θ(n log n)` —
//! while the non-monotone *sawtooth* finishes in `Θ(n)`. We sweep `n`
//! over two decades, measure the slot of the last delivery, and fit the
//! scaling exponent `makespan ∝ n^β` (with BEB also showing its log
//! factor as `β` slightly above 1 and a larger constant).

use crate::config::ExpConfig;
use crate::report::{ExpOutput, ReportBuilder};
use dcr_baselines::windowed::{Schedule, WindowedBackoff};
use dcr_baselines::Sawtooth;
use dcr_sim::engine::{Engine, EngineConfig, Protocol};
use dcr_sim::job::JobSpec;
use dcr_sim::runner::run_trials;
use dcr_stats::{loglog_slope, Summary, Table};

/// Makespan of one batch run: slot index of the last delivery (or the
/// horizon if someone never finished).
fn makespan(n: u32, proto: &str, seed: u64) -> u64 {
    // Horizon generous enough that essentially every run completes.
    let horizon = u64::from(n) * 64 + 4096;
    let mut e = Engine::new(EngineConfig::default(), seed);
    for i in 0..n {
        let p: Box<dyn Protocol> = match proto {
            "sawtooth" => Box::new(Sawtooth::new()),
            "geometric (BEB)" => Box::new(WindowedBackoff::new(Schedule::beb())),
            "linear" => Box::new(WindowedBackoff::new(Schedule::Linear { first: 1, step: 1 })),
            "quadratic" => Box::new(WindowedBackoff::new(Schedule::Quadratic { first: 1 })),
            _ => unreachable!(),
        };
        e.add_job(JobSpec::new(i, 0, horizon), p);
    }
    let r = e.run();
    r.per_job()
        .map(|(_, o)| o.slot().map_or(horizon, |s| s + 1))
        .max()
        .unwrap_or(0)
}

fn sweep(cfg: &ExpConfig, n: u32, proto: &str) -> Summary {
    let trials = cfg.cell_trials(40);
    let results = run_trials(trials, cfg.seed ^ (u64::from(n) << 18), |_, seed| {
        makespan(n, proto, seed) as f64
    });
    Summary::from_iter(results.into_iter().map(|t| t.value))
}

/// Run E14.
pub fn run(cfg: &ExpConfig) -> ExpOutput {
    // Quick mode still sweeps up to n=1024: quadratic's superlinearity
    // only separates from sawtooth's Θ(n) in the last couple of octaves,
    // and a fit truncated at n=256 puts the `_slower_than_sawtooth`
    // checks inside the fit noise.
    let ns: &[u32] = if cfg.quick {
        &[16, 64, 256, 1024]
    } else {
        &[16, 32, 64, 128, 256, 512, 1024]
    };
    let protos = ["sawtooth", "geometric (BEB)", "linear", "quadratic"];
    let mut rb = ReportBuilder::new("e14", "E14: batch makespan of the backoff family", cfg);
    rb.param("ns", format!("{ns:?}"))
        .param("trials_per_cell", cfg.cell_trials(40));
    let mut out = String::new();
    let mut fits = Vec::new();
    for proto in protos {
        let mut table = Table::new(vec!["n", "mean makespan", "sd", "makespan / n"])
            .with_title(format!("E14: batch makespan, {proto}, seed {}", cfg.seed));
        let mut points = Vec::new();
        for &n in ns {
            let s = sweep(cfg, n, proto);
            points.push((f64::from(n), s.mean()));
            let id = format!("{proto},n={n}");
            rb.row(&id, "mean_makespan", s.mean())
                .row(&id, "makespan_per_job", s.mean() / f64::from(n))
                .add_trials(cfg.cell_trials(40));
            table.row(vec![
                n.to_string(),
                format!("{:.0}", s.mean()),
                format!("{:.0}", s.std_dev()),
                format!("{:.2}", s.mean() / f64::from(n)),
            ]);
        }
        out.push_str(&table.render());
        if let Some(fit) = loglog_slope(&points, None) {
            out.push_str(&format!(
                "makespan ∝ n^{:.2} (R²={:.2})\n\n",
                fit.slope, fit.r2
            ));
            rb.row(proto, "loglog_slope", fit.slope);
            fits.push((proto, fit.slope));
        }
    }
    out.push_str(
        "shape check: sawtooth's makespan/n column is flat (Θ(n)); the monotone \
         schedules grow super-linearly — the separation that motivates the paper's \
         non-monotone machinery\n",
    );
    let sawtooth_slope = fits.iter().find(|(p, _)| *p == "sawtooth").map(|(_, s)| *s);
    if let Some(s) = sawtooth_slope {
        rb.check(
            "sawtooth_linear",
            s < 1.25,
            format!("sawtooth makespan exponent {s:.2}"),
        );
    }
    for (proto, s) in &fits {
        if *proto != "sawtooth" {
            if let Some(st) = sawtooth_slope {
                rb.check(
                    &format!(
                        "{}_slower_than_sawtooth",
                        proto.replace([' ', '(', ')'], "")
                    ),
                    *s >= st - 0.05,
                    format!("{proto} exponent {s:.2} vs sawtooth {st:.2}"),
                );
            }
        }
    }
    rb.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sawtooth_is_linear_ish() {
        let cfg = ExpConfig::quick();
        let small = sweep(&cfg, 32, "sawtooth");
        let large = sweep(&cfg, 256, "sawtooth");
        let ratio_small = small.mean() / 32.0;
        let ratio_large = large.mean() / 256.0;
        // Θ(n): the per-job cost must not blow up with n.
        assert!(
            ratio_large < 2.5 * ratio_small,
            "sawtooth per-job cost grew: {ratio_small} -> {ratio_large}"
        );
    }

    #[test]
    fn monotone_schedules_are_superlinear() {
        let cfg = ExpConfig::quick();
        for proto in ["geometric (BEB)", "linear"] {
            let small = sweep(&cfg, 32, proto);
            let large = sweep(&cfg, 256, proto);
            assert!(
                large.mean() / 256.0 > small.mean() / 32.0,
                "{proto} should have growing per-job cost"
            );
        }
    }

    #[test]
    fn makespan_positive_and_batch_completes() {
        let m = makespan(16, "sawtooth", 3);
        assert!(m >= 16, "16 deliveries need at least 16 slots, got {m}");
        assert!(m < 16 * 64 + 4096, "must complete before the horizon");
    }
}
