//! End-to-end test of the experiment service: submit over HTTP, stream
//! SSE, compare the served report byte-for-byte against an in-process
//! run, and prove the content-addressed cache serves resubmissions
//! without executing a single engine slot.

use dcr_bench::runspec::{self, ExperimentSpec};
use dcr_server::{Server, ServerConfig};
use dcr_stats::ExperimentReport;
use serde::Serialize as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One blocking HTTP exchange, returning `(status, headers, body)`.
fn request_raw(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set timeout");
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let (headers, body) = raw
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    (status, headers, body)
}

/// One blocking HTTP exchange (connection-per-request, like the server).
fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let (status, _headers, body) = request_raw(addr, method, path, body);
    (status, body)
}

/// Read one sample value out of a Prometheus text exposition.
fn metric_value(exposition: &str, sample: &str) -> f64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(sample)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("sample {sample:?} not found in:\n{exposition}"))
}

/// Read a full SSE stream (the server closes it after the terminal
/// event) and parse it into `(event, data)` frames.
fn read_sse(addr: SocketAddr, path: &str) -> Vec<(String, String)> {
    let (status, body) = request(addr, "GET", path, None);
    assert_eq!(status, 200, "SSE endpoint should answer 200: {body}");
    let mut frames = Vec::new();
    let mut event = String::new();
    for line in body.lines() {
        if let Some(name) = line.strip_prefix("event: ") {
            event = name.to_string();
        } else if let Some(data) = line.strip_prefix("data: ") {
            frames.push((event.clone(), data.to_string()));
        }
    }
    frames
}

fn field<'a>(json: &'a serde::Value, name: &str) -> &'a serde::Value {
    json.as_object()
        .and_then(|pairs| pairs.iter().find(|(k, _)| k == name))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing field {name} in {json:?}"))
}

fn quick_spec() -> ExperimentSpec {
    serde_json::from_str(
        r#"{
            "protocol": {"Aligned": {"lambda": 1, "tau": 2, "min_class": 6}},
            "workload": {"Batch": {"n": 8, "w": 64}},
            "fidelity": "Exact",
            "scheduling": "EventDriven",
            "adversary": {"spec": {"Policy": "AllSuccesses"}, "p_jam": 0.25},
            "probe": {"sinks": ["Events"]},
            "max_slots": 100000,
            "seed": 7,
            "trials": 30
        }"#,
    )
    .expect("fixture spec parses")
}

/// A spec whose engine state is fully checkpointable (ALOHA jobs carry
/// one flag of protocol state) and whose staggered releases keep jobs
/// live well past any reasonable prefix boundary.
fn branchable_spec() -> ExperimentSpec {
    serde_json::from_str(
        r#"{
            "protocol": {"Aloha": {"p": 0.05}},
            "workload": {"Staggered": {"n": 32, "stride": 16, "w": 256}},
            "fidelity": "Exact",
            "scheduling": "EventDriven",
            "adversary": {"spec": {"Policy": "Never"}, "p_jam": 0.0},
            "probe": null,
            "max_slots": 100000,
            "seed": 21,
            "trials": 4
        }"#,
    )
    .expect("fixture spec parses")
}

fn start_server_with_timeout(tag: &str, io_timeout: Option<Duration>) -> SocketAddr {
    // Server threads write log lines straight to stderr, which libtest
    // cannot capture; keep test output readable. (Log *rendering* is
    // covered by dcr-telemetry's own tests.)
    dcr_telemetry::logger::set_max_level(None);
    let cache_dir =
        std::env::temp_dir().join(format!("dcr-server-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir,
        workers: 1,
        io_timeout,
    })
    .expect("bind ephemeral port");
    server.run_background().expect("spawn server")
}

fn start_server(tag: &str) -> SocketAddr {
    start_server_with_timeout(tag, Some(Duration::from_secs(10)))
}

fn wait_done(addr: SocketAddr, id: &str) -> serde::Value {
    for _ in 0..600 {
        let (status, body) = request(addr, "GET", &format!("/experiments/{id}"), None);
        assert_eq!(status, 200, "{body}");
        let json: serde::Value = serde_json::from_str(&body).expect("status json");
        match field(&json, "status").as_str().expect("status string") {
            "done" => return json,
            "failed" => panic!("experiment failed: {body}"),
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    panic!("experiment {id} did not finish in time");
}

/// The whole submit → stream → report → cache-hit flow, sequential in
/// one test so the process-wide engine slot counter can prove the cache
/// hit executed nothing.
#[test]
fn submit_stream_report_and_cache_hit() {
    let addr = start_server("flow");
    let spec = quick_spec();
    let spec_json = serde_json::to_string(&spec).expect("serialize spec");

    // Submit. The id is the content key.
    let (status, body) = request(addr, "POST", "/experiments", Some(&spec_json));
    assert_eq!(status, 202, "{body}");
    let posted: serde::Value = serde_json::from_str(&body).expect("post response");
    let id = field(&posted, "id").as_str().expect("id").to_string();
    assert_eq!(field(&posted, "cached"), &serde::Value::Bool(false));

    // The SSE stream delivers progress and probe events, then `done`.
    let frames = read_sse(addr, &format!("/experiments/{id}/events"));
    let count = |name: &str| frames.iter().filter(|(e, _)| e == name).count();
    assert!(count("progress") >= 1, "no progress events in {frames:?}");
    assert!(count("probe") >= 1, "no probe events in {frames:?}");
    assert_eq!(count("done"), 1, "missing done event in {frames:?}");

    // The served report matches a direct in-process run byte-for-byte
    // (modulo the volatile timing/provenance block, by contract).
    let done = wait_done(addr, &id);
    let served: ExperimentReport =
        serde_json::from_value(field(&done, "report")).expect("report parses");
    let direct = runspec::run_spec(&spec).expect("in-process run");
    assert_eq!(
        serde_json::to_string(&served.deterministic_view()).unwrap(),
        serde_json::to_string(&direct.report.deterministic_view()).unwrap(),
        "server must serve the same bytes the in-process path computes"
    );

    // Resubmitting the identical spec — with fields reordered, even — is
    // a cache hit that executes zero engine slots.
    let reordered = r#"{"trials": 30, "seed": 7, "max_slots": 100000, "probe": {"sinks": ["Events"]},
            "adversary": {"p_jam": 0.25, "spec": {"Policy": "AllSuccesses"}},
            "scheduling": "EventDriven", "fidelity": "Exact",
            "workload": {"Batch": {"w": 64, "n": 8}},
            "protocol": {"Aligned": {"min_class": 6, "tau": 2, "lambda": 1}}}"#;
    let slots_before = dcr_sim::engine::slots_executed_total();
    let (status, body) = request(addr, "POST", "/experiments", Some(reordered));
    assert_eq!(status, 202, "{body}");
    let reposted: serde::Value = serde_json::from_str(&body).expect("repost response");
    assert_eq!(
        field(&reposted, "id").as_str().expect("id"),
        id,
        "reordered fields must content-address to the same experiment"
    );
    assert_eq!(field(&reposted, "cached"), &serde::Value::Bool(true));
    assert_eq!(field(&reposted, "status").as_str(), Some("done"));
    assert_eq!(
        dcr_sim::engine::slots_executed_total(),
        slots_before,
        "a cache hit must not execute any engine slots"
    );

    // The replayed SSE stream for the cached run is complete too.
    let frames = read_sse(addr, &format!("/experiments/{id}/events"));
    assert!(frames.iter().any(|(e, _)| e == "probe"));
    assert!(frames.iter().any(|(e, _)| e == "done"));
}

/// Bad submissions are 400s with a reason, not failed experiments —
/// including spec/workload incompatibilities that only surface when the
/// workload is built.
#[test]
fn invalid_specs_are_rejected_at_submission() {
    let addr = start_server("reject");

    let (status, body) = request(addr, "POST", "/experiments", Some("{not json"));
    assert_eq!(status, 400, "{body}");

    let mut bad_trials = quick_spec();
    bad_trials.trials = 0;
    let json = serde_json::to_string(&bad_trials).unwrap();
    let (status, body) = request(addr, "POST", "/experiments", Some(&json));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("trials"), "unexpected error body: {body}");

    // ALIGNED on a non-power-of-two window: caught by the workload
    // compatibility check, before any slot is simulated.
    let unaligned = r#"{
        "protocol": {"Aligned": {"lambda": 1, "tau": 2, "min_class": 1}},
        "workload": {"Batch": {"n": 4, "w": 12}},
        "fidelity": "Exact", "scheduling": "EventDriven",
        "adversary": null, "probe": null, "max_slots": null,
        "seed": 1, "trials": 5
    }"#;
    let (status, body) = request(addr, "POST", "/experiments", Some(unaligned));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("aligned"), "unexpected error body: {body}");

    let (status, _) = request(addr, "GET", "/experiments/deadbeef", None);
    assert_eq!(status, 404);

    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert!(body.contains("code_version"), "{body}");
}

/// `GET /metrics` serves the armed workspace registry in Prometheus
/// text format: request counters under normalized routes, latency
/// histograms, cache and experiment outcomes, simulator trial counters,
/// and process metrics — with deterministic family ordering.
#[test]
fn metrics_expose_server_and_sim_activity() {
    let addr = start_server("metrics");
    let mut spec = quick_spec();
    spec.seed = 11; // distinct content key from the other tests
    let spec_json = serde_json::to_string(&spec).expect("serialize spec");

    let (status, body) = request(addr, "POST", "/experiments", Some(&spec_json));
    assert_eq!(status, 202, "{body}");
    let posted: serde::Value = serde_json::from_str(&body).expect("post response");
    let id = field(&posted, "id").as_str().expect("id").to_string();
    wait_done(addr, &id);

    // Resubmission: a cache hit the exposition must reflect.
    let (status, body) = request(addr, "POST", "/experiments", Some(&spec_json));
    assert_eq!(status, 202, "{body}");

    let (status, headers, text) = request_raw(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(
        headers
            .to_ascii_lowercase()
            .contains("content-type: text/plain; version=0.0.4; charset=utf-8"),
        "wrong exposition content type:\n{headers}"
    );

    assert!(metric_value(&text, "dcr_server_cache_hits_total") >= 1.0);
    assert!(metric_value(&text, "dcr_server_cache_misses_total") >= 1.0);
    assert!(metric_value(&text, "dcr_server_cache_stores_total") >= 1.0);
    assert!(
        metric_value(
            &text,
            "dcr_server_requests_total{method=\"POST\",route=\"/experiments\",status=\"202\"}",
        ) >= 2.0
    );
    assert!(
        metric_value(
            &text,
            "dcr_server_request_duration_seconds_count{route=\"/experiments\"}",
        ) >= 2.0
    );
    assert!(metric_value(&text, "dcr_server_experiments_total{outcome=\"done\"}") >= 1.0);
    // The submission ran `trials` Monte-Carlo trials through dcr-sim's
    // armed lazy counters, each executing at least one channel slot.
    assert!(metric_value(&text, "dcr_sim_trials_completed_total") >= spec.trials as f64);
    assert!(metric_value(&text, "dcr_sim_slots_simulated_total") >= spec.trials as f64);
    assert!(metric_value(&text, "dcr_process_uptime_seconds") > 0.0);

    // A checkpoint branch drives the snapshot/restore/branch counters.
    let mut spec = branchable_spec();
    spec.seed = 13; // distinct content key from the dedicated branch test
    let spec_json = serde_json::to_string(&spec).expect("serialize spec");
    let (status, body) = request(addr, "POST", "/experiments", Some(&spec_json));
    assert_eq!(status, 202, "{body}");
    let posted: serde::Value = serde_json::from_str(&body).expect("post response");
    let id = field(&posted, "id").as_str().expect("id").to_string();
    wait_done(addr, &id);
    let branch_body = r#"{"prefix_slots": 200, "branches": [
        {"spec": {"Policy": "AllSuccesses"}, "p_jam": 0.5}
    ]}"#;
    let (status, body) = request(
        addr,
        "POST",
        &format!("/experiments/{id}/branch"),
        Some(branch_body),
    );
    assert_eq!(status, 200, "{body}");
    let (_, _, text) = request_raw(addr, "GET", "/metrics", None);
    assert!(metric_value(&text, "dcr_sim_checkpoints_saved_total") >= 1.0);
    assert!(metric_value(&text, "dcr_sim_checkpoints_restored_total") >= 1.0);
    assert!(metric_value(&text, "dcr_sim_branch_runs_total") >= 1.0);
    assert!(
        metric_value(
            &text,
            "dcr_server_requests_total{method=\"POST\",route=\"/experiments/:id/branch\",status=\"200\"}",
        ) >= 1.0
    );

    // Family blocks render in sorted order (byte-deterministic layout).
    let families: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let mut sorted = families.clone();
    sorted.sort_unstable();
    assert_eq!(families, sorted, "families must render in sorted order");
}

/// Slowloris regression: a client that stalls mid-request is answered
/// with 408 when the socket deadline expires, instead of holding a
/// connection thread forever — and the expiry is counted.
#[test]
fn slow_requests_time_out_instead_of_pinning_threads() {
    let addr = start_server_with_timeout("slowloris", Some(Duration::from_millis(200)));

    // Half a request line, then silence.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client timeout");
    stream.write_all(b"GET /healthz HT").expect("partial write");
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("server responds and closes");
    assert!(
        raw.starts_with("HTTP/1.1 408"),
        "expected 408, got: {raw:?}"
    );

    // Stalling inside the header block is the same slowloris shape.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client timeout");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: test\r\nx-slow: ")
        .expect("partial header write");
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("server responds and closes");
    assert!(
        raw.starts_with("HTTP/1.1 408"),
        "expected 408, got: {raw:?}"
    );

    // Well-behaved clients are unaffected, and the expiries were counted.
    let (status, _) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let (_, _, text) = request_raw(addr, "GET", "/metrics", None);
    assert!(
        metric_value(&text, "dcr_server_errors_total{kind=\"read_timeout\"}") >= 2.0,
        "deadline expiries must be counted:\n{text}"
    );
}

/// A request head over `MAX_HEAD` is refused with 431 and counted as a
/// bad request, instead of being buffered whole; the server stays up.
#[test]
fn oversized_request_heads_are_refused() {
    let addr = start_server("oversized-head");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client timeout");
    let pad = "a".repeat(4 * dcr_server::http::MAX_HEAD);
    write!(stream, "GET /healthz HTTP/1.1\r\nx-pad: {pad}\r\n\r\n").expect("write request");
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("server responds and closes");
    assert!(
        raw.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
        "expected 431, got: {raw:?}"
    );
    assert!(
        raw.ends_with(r#"{"error":"request head too large"}"#),
        "{raw}"
    );

    let (status, _) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let (_, _, text) = request_raw(addr, "GET", "/metrics", None);
    assert!(
        metric_value(&text, "dcr_server_errors_total{kind=\"bad_request\"}") >= 1.0,
        "the refusal must be counted:\n{text}"
    );
    assert!(
        text.contains(r#"route="other",status="431""#),
        "the refusal must be recorded with its status:\n{text}"
    );
}

/// The checkpoint/branch route end-to-end: fork a finished experiment's
/// trial-0 run at a prefix boundary, fan the suffix across perturbed
/// adversaries, and verify the served branches are byte-identical to an
/// in-process [`runspec::branch_spec`] call — plus the persistence side
/// effects (content-addressed checkpoint blob, lineage log line).
#[test]
fn branch_route_forks_checkpoints_and_records_lineage() {
    let addr = start_server("branch");
    let spec = branchable_spec();
    let spec_json = serde_json::to_string(&spec).expect("serialize spec");

    let (status, body) = request(addr, "POST", "/experiments", Some(&spec_json));
    assert_eq!(status, 202, "{body}");
    let posted: serde::Value = serde_json::from_str(&body).expect("post response");
    let id = field(&posted, "id").as_str().expect("id").to_string();
    wait_done(addr, &id);

    let branches_json = r#"[
        {"spec": {"Policy": "AllSuccesses"}, "p_jam": 0.5},
        {"spec": {"Bursty": {"p_enter": 0.1, "p_exit": 0.3}}, "p_jam": 0.9}
    ]"#;
    let (status, body) = request(
        addr,
        "POST",
        &format!("/experiments/{id}/branch"),
        Some(&format!(
            r#"{{"prefix_slots": 200, "branches": {branches_json}}}"#
        )),
    );
    assert_eq!(status, 200, "{body}");
    let resp: serde::Value = serde_json::from_str(&body).expect("branch response");
    assert_eq!(field(&resp, "id").as_str(), Some(id.as_str()));
    let ck_key = field(&resp, "checkpoint")
        .as_str()
        .expect("checkpoint key")
        .to_string();
    assert!(dcr_server::cache::valid_key(&ck_key), "key {ck_key:?}");
    let prefix_slot = match field(&resp, "prefix_slot") {
        serde::Value::Number(serde::value::Number::U(v)) => *v,
        other => panic!("prefix_slot not a u64: {other:?}"),
    };
    assert!(prefix_slot >= 200, "prefix_slot {prefix_slot}");
    let served = match field(&resp, "branches") {
        serde::Value::Array(items) => items.clone(),
        other => panic!("branches not an array: {other:?}"),
    };
    assert_eq!(served.len(), 2);

    // The served branches must be byte-identical to an in-process
    // branched run of the same spec (engine wall-clock aside), and the
    // served checkpoint key must be the content hash of that run's
    // checkpoint — full determinism across the HTTP boundary.
    let branches: Vec<runspec::AdversaryCell> =
        serde_json::from_str(branches_json).expect("branch cells");
    let local = runspec::branch_spec(&spec, 200, &branches).expect("in-process branch");
    assert_eq!(local.prefix_slot, prefix_slot);
    assert_eq!(
        ck_key,
        dcr_stats::content_hash(&local.checkpoint.to_value())
    );
    for (want, got) in local.reports.iter().zip(&served) {
        assert_eq!(
            serde_json::to_string(field(got, "outcomes")).expect("served outcomes"),
            serde_json::to_string(&serde::Serialize::to_value(&want.outcomes().to_vec()))
                .expect("local outcomes"),
        );
        assert_eq!(
            serde_json::to_string(field(got, "counts")).expect("served counts"),
            serde_json::to_string(&serde::Serialize::to_value(&want.counts)).expect("local counts"),
        );
    }

    // Persistence side effects: the checkpoint blob round-trips from the
    // cache directory, and the lineage log records the fork.
    let cache_dir =
        std::env::temp_dir().join(format!("dcr-server-test-{}-branch", std::process::id()));
    let blob = std::fs::read_to_string(cache_dir.join(format!("{ck_key}.ckpt.json")))
        .expect("checkpoint blob on disk");
    let stored: dcr_sim::prelude::Checkpoint =
        serde_json::from_str(&blob).expect("checkpoint parses");
    assert_eq!(stored, local.checkpoint);
    let lineage = std::fs::read_to_string(cache_dir.join("lineage.log")).expect("lineage log");
    let line = lineage
        .lines()
        .find(|l| l.contains(&ck_key))
        .expect("lineage line for this fork");
    let record: serde::Value = serde_json::from_str(line).expect("lineage line parses");
    assert_eq!(field(&record, "base").as_str(), Some(id.as_str()));

    // Unknown experiment and malformed bodies are typed client errors.
    let (status, _) = request(
        addr,
        "POST",
        &format!("/experiments/{}/branch", "0".repeat(64)),
        Some(r#"{"prefix_slots": 10, "branches": []}"#),
    );
    assert_eq!(status, 404);
    let (status, _) = request(
        addr,
        "POST",
        &format!("/experiments/{id}/branch"),
        Some(r#"{"prefix_slots": 10, "branches": []}"#),
    );
    assert_eq!(status, 400, "empty branch list is a client error");
}
