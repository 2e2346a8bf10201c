//! Serde round-trips for the public data types — traces, reports, and
//! parameter sets are meant to be archived as JSON next to experiment
//! output, so serialization must be lossless.

use contention_deadlines::protocols::{AlignedParams, PunctualParams};
use contention_deadlines::sim::prelude::*;
use contention_deadlines::workloads::generators::{batch, harmonic};
use contention_deadlines::workloads::Instance;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + for<'de> serde::Deserialize<'de>,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn job_spec_roundtrips() {
    let j = JobSpec::new(7, 100, 612);
    assert_eq!(roundtrip(&j), j);
}

#[test]
fn instance_roundtrips() {
    let inst = harmonic(12, 4);
    let back: Instance = roundtrip(&inst);
    assert_eq!(back.jobs, inst.jobs);
    assert_eq!(back.name, inst.name);
}

#[test]
fn params_roundtrip() {
    let a = AlignedParams::new(2, 8, 9);
    assert_eq!(roundtrip(&a), a);
    let p = PunctualParams::laptop();
    assert_eq!(roundtrip(&p), p);
    let paper = PunctualParams::paper();
    assert_eq!(roundtrip(&paper), paper);
}

#[test]
fn sim_report_roundtrips_with_trace() {
    use contention_deadlines::protocols::Uniform;
    let inst = batch(4, 64);
    let mut e = Engine::new(EngineConfig::default().with_trace(), 9);
    e.add_jobs(&inst.jobs, |_| Box::new(Uniform::single()));
    let report = e.run();

    let json = serde_json::to_string(&report).expect("serialize");
    let back: contention_deadlines::sim::metrics::SimReport =
        serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.outcomes(), report.outcomes());
    assert_eq!(back.counts, report.counts);
    assert_eq!(back.accesses, report.accesses);
    assert_eq!(back.slots_run, report.slots_run);
    let trace = report.trace().expect("traced run");
    assert_eq!(back.trace(), Some(trace));

    // The layout before the trace became a probe sink kept it in a `trace`
    // field after `contention_stats`, with `probes: null`. Such a report
    // still loads; the keys the report no longer has are ignored.
    let (head, _) = json.split_once(r#","probes":"#).expect("probes key");
    let declared: f64 = trace.iter().map(|rec| rec.declared_contention).sum();
    let records = serde_json::to_string(trace).expect("serialize trace");
    let json = format!(
        r#"{head},"contention_stats":{{"declared_sum":{declared},"measured_slots":{}}},"trace":{records},"probes":null}}"#,
        report.slots_run
    );
    let back: contention_deadlines::sim::metrics::SimReport =
        serde_json::from_str(&json).expect("deserialize legacy report");
    assert_eq!(back.outcomes(), report.outcomes());
    assert_eq!(back.counts, report.counts);
    assert_eq!(back.sched_stats, report.sched_stats);
    assert!(back.probes.is_none() && back.trace().is_none());
}

#[test]
fn payload_and_feedback_roundtrip() {
    let payloads = [
        Payload::Data(3),
        Payload::Control(ControlMsg {
            kind: 21,
            a: 1,
            b: 2,
            c: 3,
        }),
    ];
    for p in payloads {
        assert_eq!(roundtrip(&p), p);
    }
    let feedbacks = [
        Feedback::Silent,
        Feedback::Noise,
        Feedback::Success {
            src: 5,
            payload: Payload::Data(5),
        },
    ];
    for f in feedbacks {
        assert_eq!(roundtrip(&f), f);
    }
}

#[test]
fn jam_policy_roundtrips() {
    for policy in [
        JamPolicy::Never,
        JamPolicy::AllSuccesses,
        JamPolicy::ControlOnly,
        JamPolicy::DataOnly,
        JamPolicy::Random { attempt: 0.25 },
    ] {
        assert_eq!(roundtrip(&policy), policy);
    }
}

#[test]
fn adversary_spec_roundtrips() {
    for spec in [
        AdversarySpec::Policy(JamPolicy::Random { attempt: 0.1 }),
        AdversarySpec::Budgeted {
            budget: 12,
            data_only: true,
        },
        AdversarySpec::Reactive {
            k: 3,
            reset_gap: 32,
        },
        AdversarySpec::Bursty {
            p_enter: 0.05,
            p_exit: 0.25,
        },
    ] {
        assert_eq!(roundtrip(&spec), spec);
    }
}

#[test]
fn sim_report_with_jam_stats_roundtrips() {
    use contention_deadlines::protocols::Uniform;
    let inst = batch(4, 64);
    let mut e = Engine::new(EngineConfig::default(), 11);
    e.set_jammer(Jammer::new(JamPolicy::AllSuccesses, 0.5));
    e.add_jobs(&inst.jobs, |_| Box::new(Uniform::single()));
    let report = e.run();
    assert!(report.jam_stats.attempted > 0);
    let back: contention_deadlines::sim::metrics::SimReport = roundtrip(&report);
    assert_eq!(back.jam_stats, report.jam_stats);
}

#[test]
fn sim_report_without_jam_stats_field_still_loads() {
    // Artifacts archived before the adversary and scheduler counters
    // existed lack those fields; deserialization must default them, not
    // fail.
    use contention_deadlines::protocols::Uniform;
    use contention_deadlines::sim::metrics::SchedStats;
    let inst = batch(2, 32);
    let mut e = Engine::new(EngineConfig::default(), 13);
    e.add_jobs(&inst.jobs, |_| Box::new(Uniform::single()));
    let report = e.run();
    assert_ne!(report.sched_stats, SchedStats::default());
    let mut json: serde_json::Value = serde_json::to_value(&report).expect("serialize");
    let legacy = ["jam_stats", "sched_stats"];
    match &mut json {
        serde_json::Value::Object(pairs) => {
            pairs.retain(|(key, _)| !legacy.contains(&key.as_str()))
        }
        other => panic!("SimReport should serialize to an object, got {other:?}"),
    }
    let back: contention_deadlines::sim::metrics::SimReport =
        serde_json::from_value(&json).expect("deserialize legacy report");
    assert_eq!(back.jam_stats, JamStats::default());
    assert_eq!(back.sched_stats, SchedStats::default());
    assert_eq!(back.counts, report.counts);
}

#[test]
fn probe_spec_roundtrips() {
    let spec = ProbeSpec::new()
        .with(SinkSpec::Ring { capacity: 4096 })
        .with(SinkSpec::Aggregate)
        .with(SinkSpec::ChromeTrace)
        .with(SinkSpec::Sample { period: 64 })
        .with(SinkSpec::Events);
    assert_eq!(roundtrip(&spec), spec);
    assert_eq!(roundtrip(&ProbeSpec::default()), ProbeSpec::default());
}

#[test]
fn sim_report_with_probes_roundtrips() {
    // ProbeOutput carries histograms (no PartialEq), so compare the
    // serialized form: serialize → deserialize → serialize must be stable.
    use contention_deadlines::protocols::Uniform;
    let inst = batch(4, 64);
    let probe = ProbeSpec::new()
        .with(SinkSpec::Ring { capacity: 16 })
        .with(SinkSpec::Aggregate)
        .with(SinkSpec::Events);
    let mut e = Engine::new(EngineConfig::default().with_probe(probe), 9);
    e.add_jobs(&inst.jobs, |_| Box::new(Uniform::single()));
    let report = e.run();
    assert!(report.probes.is_some());
    let json = serde_json::to_string(&report).expect("serialize");
    let back: contention_deadlines::sim::metrics::SimReport =
        serde_json::from_str(&json).expect("deserialize");
    let json2 = serde_json::to_string(&back).expect("re-serialize");
    assert_eq!(json, json2);
    assert_eq!(back.sched_stats, report.sched_stats);
}

#[test]
fn sim_report_without_sched_stats_field_still_loads() {
    // Artifacts archived before the probe layer existed lack `sched_stats`
    // and `probes`; deserialization must default them, not fail.
    use contention_deadlines::protocols::Uniform;
    let inst = batch(2, 32);
    let mut e = Engine::new(EngineConfig::default(), 13);
    e.add_jobs(&inst.jobs, |_| Box::new(Uniform::single()));
    let report = e.run();
    let mut json: serde_json::Value = serde_json::to_value(&report).expect("serialize");
    match &mut json {
        serde_json::Value::Object(pairs) => {
            pairs.retain(|(key, _)| key != "sched_stats" && key != "probes")
        }
        other => panic!("SimReport should serialize to an object, got {other:?}"),
    }
    let back: contention_deadlines::sim::metrics::SimReport =
        serde_json::from_value(&json).expect("deserialize legacy report");
    assert_eq!(back.sched_stats, SchedStats::default());
    assert!(back.probes.is_none());
    assert_eq!(back.counts, report.counts);
}

#[test]
fn experiment_report_roundtrips() {
    use dcr_stats::{CheckResult, ExperimentReport, MetricRow, Param, Provenance, Timing};
    let report = ExperimentReport {
        schema_version: dcr_stats::report::SCHEMA_VERSION,
        experiment: "e1".into(),
        title: "demo".into(),
        seed: 0x5eed_2020,
        quick: true,
        params: vec![Param {
            name: "slots".into(),
            value: "4000".into(),
        }],
        rows: vec![
            MetricRow {
                cell: "C=1".into(),
                metric: "p_success".into(),
                value: 0.37,
                ci_lo: Some(0.35),
                ci_hi: Some(0.39),
                n: Some(4000),
            },
            MetricRow {
                cell: "C=1".into(),
                metric: "bound_lo".into(),
                value: 0.135,
                ci_lo: None,
                ci_hi: None,
                n: None,
            },
        ],
        checks: vec![CheckResult {
            name: "lemma2_sandwich".into(),
            passed: true,
            detail: "violations 0/11".into(),
        }],
        timing: Timing {
            wall_secs: 1.5,
            trials: 60,
            secs_per_trial: 0.025,
            slots_simulated: 44_000,
            slots_per_sec: 29_333.3,
        },
        provenance: Provenance {
            git_rev: Some("abc123".into()),
            git_dirty: Some(false),
            rustc_version: Some("rustc 1.75.0".into()),
            threads: 8,
        },
    };
    assert_eq!(roundtrip(&report), report);
}

#[test]
fn live_experiment_artifact_roundtrips_and_has_provenance() {
    // A real artifact from the harness: serialization is lossless and the
    // provenance block is populated in-process (rustc/git are best-effort
    // but thread count is always known).
    let out =
        dcr_bench::run_experiment_report("e5", &dcr_bench::ExpConfig::quick()).expect("e5 exists");
    let report = out.report;
    assert_eq!(roundtrip(&report), report);
    assert!(report.provenance.threads >= 1);
    assert!(report.timing.wall_secs >= 0.0);
    assert!(report.timing.slots_simulated == 0 || report.timing.slots_per_sec > 0.0);
    // The deterministic view round-trips too (the form archived for diffs).
    let view = report.deterministic_view();
    assert_eq!(roundtrip(&view), view);
}

#[test]
fn windowed_schedule_roundtrips() {
    use contention_deadlines::baselines::Schedule;
    for s in [
        Schedule::beb(),
        Schedule::Linear { first: 2, step: 3 },
        Schedule::Quadratic { first: 1 },
        Schedule::Fixed { size: 9 },
    ] {
        assert_eq!(roundtrip(&s), s);
    }
}

#[test]
fn derived_fields_refuse_missing_keys() {
    // A missing key is an error naming the field unless the field is an
    // `Option` or `#[serde(default)]`; an explicit `null` keeps its meaning
    // (NaN for an `f64`) and unknown keys are ignored.
    #[derive(Debug, serde::Serialize, serde::Deserialize)]
    struct Rate {
        p: f64,
        cap: Option<u64>,
        #[serde(default)]
        tries: u32,
    }
    let parse = |json: &str| serde_json::from_str::<Rate>(json);
    let err = parse(r#"{"cap": 3, "tries": 2}"#).unwrap_err();
    assert!(
        err.to_string().contains("missing field `p` in Rate"),
        "{err}"
    );
    let r = parse(r#"{"p": 0.25, "extra": true}"#).expect("optional and default keys may go");
    assert_eq!((r.p, r.cap, r.tries), (0.25, None, 0));
    assert!(parse(r#"{"p": null}"#).expect("explicit null").p.is_nan());

    // The same holds inside struct variants.
    let bursty = r#"{"Bursty": {"p_enter": 0.1}}"#;
    let err = serde_json::from_str::<AdversarySpec>(bursty).unwrap_err();
    assert!(
        err.to_string()
            .contains("missing field `p_exit` in AdversarySpec::Bursty"),
        "{err}"
    );
}
