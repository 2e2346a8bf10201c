//! PUNCTUAL on dynamic, unaligned traffic: Poisson arrivals with mixed
//! window sizes, no global clock — the paper's general setting (Section 4).
//! Compares deadline-miss rates against sawtooth backoff and the offline
//! EDF genie, and shows the round/leadership machinery working from a
//! channel trace.
//!
//! ```sh
//! cargo run --release --example punctual_dynamic
//! ```

use contention_deadlines::baselines::scheduled::scheduled_protocols;
use contention_deadlines::baselines::Sawtooth;
use contention_deadlines::protocols::{PunctualParams, PunctualProtocol};
use contention_deadlines::sim::prelude::*;
use contention_deadlines::workloads::generators::{poisson, thin_to_feasible};
use contention_deadlines::workloads::Instance;

fn make_traffic(seed: u64) -> Instance {
    let mut rng = SeedSeq::new(seed).rng(contention_deadlines::sim::rng::StreamLabel::Workload, 0);
    let raw = poisson(0.02, 1 << 16, &[1 << 12, 1 << 14], &mut rng);
    thin_to_feasible(raw, 1.0 / 16.0)
}

fn main() {
    let instance = make_traffic(7);
    println!(
        "traffic: {} jobs over {} slots (Poisson, windows 4096/16384, 1/16-slack)\n",
        instance.n(),
        instance.horizon()
    );

    // PUNCTUAL, with a trace so we can inspect the round machinery.
    let mut engine = Engine::new(EngineConfig::default().with_trace(), 1);
    engine.add_jobs(
        &instance.jobs,
        PunctualProtocol::factory(PunctualParams::laptop()),
    );
    let punctual = engine.run();

    // Sawtooth backoff (deadline-oblivious comparator).
    let mut engine = Engine::new(EngineConfig::default(), 1);
    engine.add_jobs(&instance.jobs, Sawtooth::factory());
    let sawtooth = engine.run();

    // Offline EDF genie (upper bound).
    let protos = scheduled_protocols(&instance.jobs).expect("feasible");
    let mut it = protos.into_iter();
    let mut engine = Engine::new(EngineConfig::default(), 1);
    engine.add_jobs(&instance.jobs, move |_| Box::new(it.next().unwrap()));
    let genie = engine.run();

    println!("protocol  delivered  missed");
    for (name, r) in [
        ("punctual", &punctual),
        ("sawtooth", &sawtooth),
        ("edf-genie", &genie),
    ] {
        println!("{name:<9} {:>9} {:>7}", r.successes(), r.misses());
    }

    // Peek at the round machinery: the trace shows the start-pair cadence.
    let trace = punctual.trace().unwrap();
    let busy_pairs = trace
        .windows(2)
        .filter(|w| !w[0].is_silent() && !w[1].is_silent() && w[1].slot == w[0].slot + 1)
        .count();
    println!(
        "\nround machinery: {} busy start-pairs observed across {} slots \
         (one per 10-slot round while any job is live)",
        busy_pairs, punctual.slots_run
    );
    println!(
        "channel breakdown: {} successes / {} collisions / {} silent",
        punctual.counts.success, punctual.counts.collision, punctual.counts.silent
    );
}
