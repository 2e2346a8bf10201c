//! Trace explorer: step inside one PUNCTUAL execution two ways — the ASCII
//! Gantt renderer for a quick terminal look, and the streaming probe layer
//! for a Perfetto/Chrome trace you can scrub interactively.
//!
//! ```sh
//! cargo run --release --example trace_explorer [seed]
//! ```
//!
//! The run writes `trace_explorer_perfetto.json`; open it at
//! <https://ui.perfetto.dev> (or `chrome://tracing`) to see one track per
//! job carrying its protocol-phase spans (sync-listen → slingshot →
//! follow/leader/anarchist) and instant markers for leader elections,
//! anarchist conversions, and size estimates.

use contention_deadlines::protocols::{PunctualParams, PunctualProtocol};
use contention_deadlines::sim::gantt::{render_gantt, GanttOptions};
use contention_deadlines::sim::prelude::*;
use contention_deadlines::workloads::generators::staggered;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2026);

    // Four jobs with staggered, unaligned arrivals sharing a 2^13 window.
    let instance = staggered(4, 23, 1 << 13);

    let probe = ProbeSpec::new()
        .with(SinkSpec::ChromeTrace)
        .with(SinkSpec::Events);
    let mut engine = Engine::new(EngineConfig::default().with_trace().with_probe(probe), seed);
    engine.add_jobs(
        &instance.jobs,
        PunctualProtocol::factory(PunctualParams::laptop()),
    );
    let report = engine.run();

    println!(
        "PUNCTUAL, 4 staggered jobs, w = 8192, seed {seed}: {}/{} delivered\n",
        report.successes(),
        report.jobs.len()
    );

    // Phase 1: synchronization. The first ~40 slots show the listen
    // period and the first start pairs of the round train.
    println!("--- slots 0..120: synchronization and the first rounds ---");
    println!("    (x = collision — the start pairs; S = success — beacons/claims)");
    match render_gantt(
        &report,
        GanttOptions {
            from: 0,
            to: 120,
            max_jobs: 4,
        },
    ) {
        Ok(g) => println!("{g}"),
        Err(e) => println!("({e})"),
    }

    // Phase 2: around the first data delivery.
    if let Some(first) = report.per_job().filter_map(|(_, o)| o.slot()).min() {
        let from = first.saturating_sub(40);
        println!(
            "--- slots {from}..{}: around the first delivery (D) ---",
            from + 120
        );
        match render_gantt(
            &report,
            GanttOptions {
                from,
                to: from + 120,
                max_jobs: 4,
            },
        ) {
            Ok(g) => println!("{g}"),
            Err(e) => println!("({e})"),
        }
    }

    // Probe-event walkthrough: the protocol's own narration of the run.
    let probes = report.probes.as_ref().expect("probe configured");
    println!("--- probe events (what each job said it was doing) ---");
    for rec in probes.events().expect("events sink configured") {
        let job = rec.job.map_or("engine".to_string(), |j| format!("job {j}"));
        match &rec.event {
            ProbeEvent::PhaseEnter { phase } => {
                println!("slot {:>5}  {job:>7}  → phase {phase}", rec.slot);
            }
            ProbeEvent::LeaderElected => {
                println!("slot {:>5}  {job:>7}  * elected leader", rec.slot);
            }
            ProbeEvent::AnarchistConversion { from } => {
                println!(
                    "slot {:>5}  {job:>7}  ! went anarchist (from {from})",
                    rec.slot
                );
            }
            ProbeEvent::SizeEstimate {
                class,
                n_est,
                n_true,
            } => {
                println!(
                    "slot {:>5}  {job:>7}  estimate: class {class} has ≈{n_est} (truth {n_true})",
                    rec.slot
                );
            }
            ProbeEvent::Preemption { class, by_class } => {
                println!(
                    "slot {:>5}  {job:>7}  class {class} preempted by class {by_class}",
                    rec.slot
                );
            }
            ProbeEvent::JobRetired {
                success, latency, ..
            } => {
                let verdict = if *success { "delivered" } else { "missed" };
                println!(
                    "slot {:>5}  {job:>7}  {verdict} after {latency} slots",
                    rec.slot
                );
            }
        }
    }

    // The same run as a Perfetto file, for interactive scrubbing.
    let path = "trace_explorer_perfetto.json";
    let json = probes.chrome_trace().expect("chrome trace configured");
    match std::fs::write(path, json) {
        Ok(()) => println!("\nwrote {path} — open it at https://ui.perfetto.dev"),
        Err(e) => println!("\nfailed to write {path}: {e}"),
    }

    // Channel totals.
    println!(
        "\nchannel totals: {} successes / {} collisions / {} silent over {} slots",
        report.counts.success, report.counts.collision, report.counts.silent, report.slots_run
    );
    println!(
        "per-job radio cost: mean {:.1} transmissions, {:.0} radio-on slots",
        report.mean_transmissions(),
        report.mean_accesses()
    );
    println!("\nTry different seeds to watch leader elections land in different rounds.");
}
