//! The `service-mix` workload: an in-process experiment server and one
//! closed-loop client keeping one request in flight.
//!
//! One op is one cycle: POST a fresh spec, follow its SSE stream to
//! `done`, GET the report, and re-POST the identical spec, which must come
//! back `cached:true`. Every 8th op also branches the experiment from a
//! checkpoint into 4 adversaries; every 16th op also scrapes `/metrics`.
//! After the timed cycles, untimed checks compare every report with an
//! in-process `run_spec` of the same spec, re-read every cached report,
//! and repeat every branch request.

use crate::trace::{self, span};
use crate::{ratio, Args, Outcome};
use dcr_bench::runspec::{
    self, AdversaryCell, ExperimentSpec, FidelitySpec, ProtocolSpec, SchedulingSpec, WorkloadSpec,
};
use dcr_server::{Server, ServerConfig};
use dcr_sim::jamming::JamPolicy;
use dcr_sim::rng::{SeedSeq, StreamLabel};
use dcr_sim::AdversarySpec;
use dcr_stats::ExperimentReport;
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Server worker threads draining the experiment queue, pinned.
pub const SERVER_WORKERS: usize = 1;

/// Ops per host second on the reference machine (2 cores); the timed
/// list is `seconds × OPS_PER_SEC` ops.
const OPS_PER_SEC: f64 = 330.0;

/// Cycles per round. The op mix (protocols, branch and scrape cadence)
/// repeats every 16 cycles; cycle `j` of every round simulates the same
/// spec, so its repeats do identical work. The timed list is a whole
/// number of rounds.
const ROUND_OPS: u64 = 32;

/// Untimed warm-up cycles per set-up: two rounds, so every kind of step
/// has run before timing starts.
const WARM_OPS: u64 = 2 * ROUND_OPS;

/// Round number of the first warm-up round, so warm-up specs never equal a
/// timed one.
const WARM_ROUND: u64 = 1 << 32;

/// Slot cap of round 0's specs. Every spec's last deadline is 4096, so the
/// cap never binds; adding the round number to it makes each round's spec
/// new to the cache while the simulated work repeats exactly.
const FRESH_CAP: u64 = 1 << 20;

const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The fresh spec of cycle `j` of `round`: one of four checkpointable
/// protocols on a small batch under a bursty channel, seeded from the run
/// seed and `j`.
fn spec_of(seed: u64, j: u64, round: u64) -> ExperimentSpec {
    let protocol = match j % 4 {
        0 => ProtocolSpec::Beb,
        1 => ProtocolSpec::Sawtooth,
        2 => ProtocolSpec::Aloha { p: 1.0 / 32.0 },
        _ => ProtocolSpec::Uniform { attempts: 2 },
    };
    ExperimentSpec {
        protocol,
        workload: WorkloadSpec::Batch { n: 32, w: 4096 },
        fidelity: FidelitySpec::Exact,
        scheduling: SchedulingSpec::EventDriven,
        adversary: Some(AdversaryCell {
            spec: AdversarySpec::Bursty {
                p_enter: 0.01,
                p_exit: 0.1,
            },
            p_jam: 0.5,
        }),
        probe: None,
        max_slots: Some(FRESH_CAP + round),
        seed: SeedSeq::new(seed).derive(StreamLabel::Workload, j),
        trials: 12,
    }
}

/// The body of the branch request: a checkpoint a quarter into the window,
/// fanned into four adversaries.
fn branch_body() -> String {
    let cells = [
        (AdversarySpec::Policy(JamPolicy::Never), 0.0),
        (AdversarySpec::Policy(JamPolicy::AllSuccesses), 0.5),
        (
            AdversarySpec::Bursty {
                p_enter: 0.02,
                p_exit: 0.1,
            },
            0.8,
        ),
        (
            AdversarySpec::Reactive {
                k: 2,
                reset_gap: 16,
            },
            0.7,
        ),
    ];
    let branches: Vec<String> = cells
        .iter()
        .map(|&(spec, p_jam)| {
            serde_json::to_string(&AdversaryCell { spec, p_jam }).expect("serialize branch")
        })
        .collect();
    format!(
        "{{\"prefix_slots\":1024,\"branches\":[{}]}}",
        branches.join(",")
    )
}

/// Send one request and read the response (status, body).
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut reader = BufReader::new(stream);
    let status = read_status(&mut reader)?;
    let mut len = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse::<usize>().ok();
            }
        }
    }
    let len = len.ok_or_else(|| std::io::Error::other("response without content-length"))?;
    let mut buf = vec![0u8; len];
    reader.read_exact(&mut buf)?;
    let text = String::from_utf8(buf).map_err(|_| std::io::Error::other("non-UTF-8 body"))?;
    Ok((status, text))
}

fn read_status(reader: &mut impl BufRead) -> std::io::Result<u16> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    line.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))
}

/// Follow `/experiments/:id/events` until its `done` frame; returns the
/// number of frames seen. A `failed` frame or an early close is an error.
fn follow_events(addr: SocketAddr, id: &str) -> std::io::Result<u64> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(
        format!("GET /experiments/{id}/events HTTP/1.1\r\nhost: localhost\r\n\r\n").as_bytes(),
    )?;
    let mut reader = BufReader::new(stream);
    if read_status(&mut reader)? != 200 {
        return Err(std::io::Error::other("event stream refused"));
    }
    let mut frames = 0;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("event stream closed before done"));
        }
        if let Some(event) = line.strip_prefix("event:") {
            frames += 1;
            match event.trim() {
                "done" => return Ok(frames),
                "failed" => return Err(std::io::Error::other("experiment failed")),
                _ => {}
            }
        }
    }
}

fn parse(body: &str) -> Option<Value> {
    serde_json::from_str(body).ok()
}

/// POST a spec; returns `(id, cached)` for a 202.
fn submit(addr: SocketAddr, spec_json: &str) -> Result<(String, bool), String> {
    let (status, body) =
        request(addr, "POST", "/experiments", spec_json).map_err(|e| e.to_string())?;
    let v = parse(&body)
        .filter(|_| status == 202)
        .ok_or(format!("POST {status}: {body}"))?;
    let id = v
        .get("id")
        .and_then(Value::as_str)
        .ok_or("POST without id")?;
    let cached = v
        .get("cached")
        .and_then(Value::as_bool)
        .ok_or("POST without cached")?;
    Ok((id.to_string(), cached))
}

/// Slots a served report simulated, from its own slot rows.
fn report_slots(report: &str, trials: u64) -> Option<u64> {
    let rep: ExperimentReport = serde_json::from_value(&parse(report)?).ok()?;
    let per_trial = rep.row("all", "slots_per_trial")?.value;
    Some((per_trial * trials as f64).round() as u64)
}

/// The `report` object of a GET body, re-serialized.
fn report_of(body: &str) -> Option<String> {
    let v = parse(body)?;
    serde_json::to_string(v.get("report")?).ok()
}

/// A branch response with every wall-clock `engine_nanos` zeroed.
fn branch_view(body: &str) -> Option<String> {
    fn zero(v: &mut Value) {
        match v {
            Value::Object(fields) => {
                for (k, x) in fields.iter_mut() {
                    if k == "engine_nanos" {
                        *x = Value::Number(serde::value::Number::U(0));
                    } else {
                        zero(x);
                    }
                }
            }
            Value::Array(xs) => xs.iter_mut().for_each(zero),
            _ => {}
        }
    }
    let mut v = parse(body)?;
    zero(&mut v);
    serde_json::to_string(&v).ok()
}

/// What one timed cycle leaves for the checks.
struct OpRecord {
    spec: ExperimentSpec,
    id: String,
    /// The `report` object of the GET after `done`.
    report: String,
    /// Slots the report simulated.
    slots: u64,
    /// Branch response, on every 8th op.
    branch: Option<String>,
}

/// Counts over the timed cycles (step timings are spans).
#[derive(Default)]
struct Steps {
    posts: u64,
    hits: u64,
    branches: u64,
    scrapes: u64,
    frames: u64,
    reports: u64,
    report_bytes: u64,
    exposition_bytes: u64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run cycle `j` of `round`; `Err` names the first step that failed.
fn cycle(
    addr: SocketAddr,
    seed: u64,
    j: u64,
    round: u64,
    steps: &mut Steps,
) -> Result<OpRecord, String> {
    let spec = spec_of(seed, j, round);
    let json = serde_json::to_string(&spec).map_err(|e| format!("{e:?}"))?;

    let (id, cached) = {
        let _s = span("server.post");
        submit(addr, &json)?
    };
    steps.posts += 1;
    if cached {
        return Err("fresh spec came back cached".into());
    }

    let frames = {
        let _s = span("server.done");
        follow_events(addr, &id).map_err(|e| e.to_string())?
    };
    steps.frames += frames;

    let (status, body) = {
        let _s = span("server.get");
        request(addr, "GET", &format!("/experiments/{id}"), "").map_err(|e| e.to_string())?
    };
    let report = report_of(&body)
        .filter(|_| status == 200)
        .ok_or(format!("GET {status}"))?;
    steps.reports += 1;
    steps.report_bytes += report.len() as u64;
    let slots = report_slots(&report, spec.trials).ok_or("report without slot rows")?;

    let (again, cached) = {
        let _s = span("server.hit");
        submit(addr, &json)?
    };
    steps.posts += 1;
    if !cached || again != id {
        return Err("identical re-POST was not a cache hit".into());
    }
    steps.hits += 1;

    let mut branch = None;
    if j % 8 == 7 {
        let (status, body) = {
            let _s = span("checkpoint.branch");
            request(
                addr,
                "POST",
                &format!("/experiments/{id}/branch"),
                &branch_body(),
            )
            .map_err(|e| e.to_string())?
        };
        steps.branches += 1;
        if status != 200 {
            return Err(format!("branch {status}: {body}"));
        }
        branch = Some(body);
    }
    if j % 16 == 15 {
        let (status, body) = {
            let _s = span("telemetry.scrape");
            request(addr, "GET", "/metrics", "").map_err(|e| e.to_string())?
        };
        steps.scrapes += 1;
        if status != 200 {
            return Err(format!("metrics {status}"));
        }
        steps.exposition_bytes += body.len() as u64;
    }
    Ok(OpRecord {
        spec,
        id,
        report,
        slots,
        branch,
    })
}

/// A served instance on its own cache directory.
fn start_server(dir: &Path) -> SocketAddr {
    let _ = std::fs::remove_dir_all(dir);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: dir.to_path_buf(),
        workers: SERVER_WORKERS,
        io_timeout: Some(IO_TIMEOUT),
    })
    .expect("bind the experiment server");
    server
        .run_background()
        .expect("start the experiment server")
}

/// Removes the run's scratch directory when the workload ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the shared parent only if another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Files and bytes under `dir`, and the bytes of its checkpoint files.
fn disk_usage(dir: &Path) -> (u64, u64, u64) {
    let (mut files, mut bytes, mut ckpt) = (0, 0, 0);
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let len = entry.metadata().map_or(0, |m| m.len());
        files += 1;
        bytes += len;
        if entry.file_name().to_string_lossy().ends_with(".ckpt.json") {
            ckpt += len;
        }
    }
    (files, bytes, ckpt)
}

/// Run `n` timed cycles against `addr`; fills `out`'s op latencies, slot
/// count and attempts.
fn timed(addr: SocketAddr, seed: u64, n: u64, out: &mut Outcome) -> (Vec<OpRecord>, Steps, f64) {
    let mut steps = Steps::default();
    let mut records = Vec::new();
    let start = Instant::now();
    for i in 0..n {
        let t = Instant::now();
        match cycle(addr, seed, i % ROUND_OPS, i / ROUND_OPS, &mut steps) {
            Ok(r) => {
                out.slots += r.slots;
                records.push(r);
            }
            Err(e) => {
                out.failed += 1;
                out.note(&format!("op {i}: {e}"));
            }
        }
        out.op_ms.push(ms_since(t));
    }
    out.attempted += n;
    (records, steps, start.elapsed().as_secs_f64())
}

/// Untimed checks of the timed cycles; each check is one attempt in `out`,
/// and each mismatch one failure.
fn check(addr: SocketAddr, records: &[OpRecord], out: &mut Outcome) {
    for (i, r) in records.iter().enumerate() {
        // The served report equals an in-process run of the same spec.
        let local = {
            let _c = span("runspec.check");
            runspec::check(&r.spec).is_ok()
        } && {
            let _r = span("runspec.run");
            runspec::run_spec(&r.spec).ok()
        }
        .is_some_and(|o| {
            let served: Option<ExperimentReport> =
                parse(&r.report).and_then(|v| serde_json::from_value(&v).ok());
            served.is_some_and(|s| {
                serde_json::to_string(&s.deterministic_view()).ok()
                    == serde_json::to_string(&o.report.deterministic_view()).ok()
            })
        });
        // A cache hit serves the identical report.
        let json = serde_json::to_string(&r.spec).unwrap_or_default();
        let hit = submit(addr, &json).is_ok_and(|(id, cached)| cached && id == r.id)
            && request(addr, "GET", &format!("/experiments/{}", r.id), "")
                .ok()
                .and_then(|(_, body)| report_of(&body))
                .is_some_and(|rep| rep == r.report);
        // A repeated branch request returns the identical branches.
        let branch = r.branch.as_ref().is_none_or(|first| {
            request(
                addr,
                "POST",
                &format!("/experiments/{}/branch", r.id),
                &branch_body(),
            )
            .ok()
            .is_some_and(|(_, again)| branch_view(&again) == branch_view(first))
        });
        out.attempted += if r.branch.is_some() { 3 } else { 2 };
        for (ok, what) in [
            (local, "in-process run"),
            (hit, "cache hit"),
            (branch, "branch"),
        ] {
            if !ok {
                out.failed += 1;
                out.note(&format!("check {i}: served result differs from the {what}"));
            }
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let scratch =
        Scratch(PathBuf::from(".perfbench_tmp").join(format!("service-{}", std::process::id())));
    let seed = args.seed;

    // `ReportBuilder::finish` captures provenance by spawning `git` and
    // `rustc` for every spec: about 25 ms of process start-up, where the
    // rest of a cycle takes about 3 ms, and its cost moves with the host's.
    // The server here finds neither on its PATH, which names only the
    // run's scratch directory, so each spawn fails at once; the traced run
    // times `Provenance::capture` on its own, with the real PATH.
    std::fs::create_dir_all(&scratch.0).expect("create the scratch directory");
    let bare = std::fs::canonicalize(&scratch.0).expect("resolve the scratch directory");
    std::env::set_var("PATH", bare);

    // Set-up, repeated: a fresh cache, a bound server, and the warm-up.
    let mut addr = None;
    for k in 0..crate::SETUPS {
        let start = Instant::now();
        let a = start_server(&scratch.0.join(format!("setup{k}")));
        let mut steps = Steps::default();
        out.attempted += WARM_OPS;
        for i in 0..WARM_OPS {
            let round = WARM_ROUND + i / ROUND_OPS;
            if let Err(e) = cycle(a, seed, i % ROUND_OPS, round, &mut steps) {
                out.failed += 1;
                out.note(&format!("warm-up op {i}: {e}"));
            }
        }
        out.setup_s.push(start.elapsed().as_secs_f64());
        addr = Some(a);
    }
    let addr = addr.expect("at least one set-up");

    let n = ((args.seconds * OPS_PER_SEC / ROUND_OPS as f64).round() as u64).max(1) * ROUND_OPS;
    let (records, steps, wall) = timed(addr, seed, n, &mut out);
    out.host_s = wall;
    out.per_round = ROUND_OPS as usize;
    check(addr, &records, &mut out);
    out.note(&format!(
        "{n} cycles, {} branch requests, {} scrapes",
        steps.branches, steps.scrapes
    ));

    if args.trace {
        // Same op list on a fresh server and cache, traced.
        let traced_addr = start_server(&scratch.0.join("traced"));
        let mut traced_out = Outcome::default();
        trace::enable(true);
        let (records, steps, _) = timed(traced_addr, seed, n, &mut traced_out);
        let (files, bytes, ckpt) = disk_usage(&scratch.0.join("traced"));
        check(traced_addr, &records, &mut traced_out);
        trace::enable(false);
        out.attempted += traced_out.attempted;
        out.failed += traced_out.failed;
        out.notes.extend(traced_out.notes);
        out.traced_op_ms = traced_out.op_ms;

        let run_ms = trace::mean_ms("runspec.run");
        let done_ms = trace::mean_ms("server.done");
        out.layer("checkpoint.branch_ms", trace::mean_ms("checkpoint.branch"));
        out.layer("checkpoint.bytes", ckpt as f64);
        out.layer("runspec.check_ms", trace::mean_ms("runspec.check"));
        out.layer("runspec.run_ms", run_ms);
        out.layer(
            "stats.report_bytes",
            ratio(steps.report_bytes as f64, steps.reports as f64),
        );
        out.layer("server.post_ms", trace::mean_ms("server.post"));
        out.layer("server.done_ms", done_ms);
        out.layer("server.overhead_ms", done_ms - run_ms);
        out.layer("server.get_ms", trace::mean_ms("server.get"));
        out.layer("server.hit_ms", trace::mean_ms("server.hit"));
        out.layer(
            "server.hit_ratio",
            ratio(steps.hits as f64, steps.posts as f64),
        );
        out.layer("server.sse_frames", steps.frames as f64);
        out.layer("cache.bytes", bytes as f64);
        out.layer("cache.files", files as f64);
        out.layer("telemetry.scrape_ms", trace::mean_ms("telemetry.scrape"));
        out.layer(
            "telemetry.exposition_bytes",
            ratio(steps.exposition_bytes as f64, steps.scrapes as f64),
        );
    }
    out
}
