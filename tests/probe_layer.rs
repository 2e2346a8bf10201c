//! Probe-layer end-to-end guarantees on long runs: the ring sink holds a
//! million-slot run in fixed memory, keeping exactly the tail of the
//! record stream, in both scheduling modes, and beside the unbounded ring
//! that `with_trace` appends.

use contention_deadlines::protocols::Uniform;
use contention_deadlines::sim::jamming::{JamPolicy, Jammer};
use contention_deadlines::sim::prelude::*;

const HORIZON: u64 = 1_000_000;

/// Four UNIFORM jobs over a 10⁶-slot window, with every would-be success
/// jammed so no job retires early: the run is pinned to the full horizon.
fn engine(config: EngineConfig, seed: u64) -> Engine {
    let mut e = Engine::new(config, seed);
    e.set_jammer(Jammer::new(JamPolicy::AllSuccesses, 1.0));
    for i in 0..4 {
        e.add_job(JobSpec::new(i, 0, HORIZON), Box::new(Uniform::new(8)));
    }
    e
}

/// The ring at `index` in the run's probe outputs (outputs follow the
/// order the sinks were configured in).
fn ring(r: &SimReport, index: usize) -> (&[SlotRecord], u64) {
    match &r.probes.as_ref().expect("probed run").outputs[index] {
        ProbeOutput::Ring { records, dropped } => (records, *dropped),
        other => panic!("output {index} is not a ring: {other:?}"),
    }
}

#[test]
fn ring_sink_bounds_memory_over_a_million_dense_slots() {
    let capacity = 1024u64;
    let probe = ProbeSpec::new().with(SinkSpec::Ring { capacity });
    let r = engine(EngineConfig::default().dense().with_probe(probe), 21).run();
    assert_eq!(r.slots_run, HORIZON);
    let (records, dropped) = ring(&r, 0);
    // Dense mode pushes one record per slot; the ring retains exactly the
    // last `capacity` of them and counts the rest.
    assert_eq!(records.len() as u64, capacity);
    assert_eq!(dropped, HORIZON - capacity);
    assert_eq!(records[0].slot, HORIZON - capacity);
    assert_eq!(records.last().unwrap().slot, HORIZON - 1);
}

#[test]
fn ring_sink_stays_bounded_with_gap_records() {
    // Event-driven mode run-length-encodes parked stretches, so the record
    // stream is tiny; a deliberately small capacity still forces drops and
    // the bound still holds.
    let capacity = 16u64;
    let probe = ProbeSpec::new().with(SinkSpec::Ring { capacity });
    let r = engine(EngineConfig::default().with_probe(probe), 22).run();
    assert_eq!(r.slots_run, HORIZON);
    let (records, dropped) = ring(&r, 0);
    assert!(records.len() as u64 <= capacity);
    assert!(dropped > 0, "32 attempt slots plus gaps must overflow 16");
    // The retained tail still ends at the run's last covered slot.
    let last = records.last().unwrap();
    assert_eq!(last.slot + last.covered_slots(), HORIZON);
}

#[test]
fn bounded_ring_and_trace_ride_together_in_either_order() {
    let capacity = 16u64;
    let bounded = || ProbeSpec::new().with(SinkSpec::Ring { capacity });
    let trace_first = engine(
        EngineConfig::default().with_trace().with_probe(bounded()),
        23,
    )
    .run();
    let ring_first = engine(
        EngineConfig::default().with_probe(bounded()).with_trace(),
        23,
    )
    .run();
    for (r, trace_at, ring_at) in [(&trace_first, 0, 1), (&ring_first, 1, 0)] {
        let trace = r.trace().expect("traced run");
        assert_eq!(ring(r, trace_at), (trace, 0));
        assert_eq!(
            trace.iter().map(SlotRecord::covered_slots).sum::<u64>(),
            HORIZON
        );
        let (tail, dropped) = ring(r, ring_at);
        assert_eq!(tail, &trace[trace.len() - capacity as usize..]);
        assert_eq!(dropped, trace.len() as u64 - capacity);
    }
    assert_eq!(trace_first.trace(), ring_first.trace());
}
