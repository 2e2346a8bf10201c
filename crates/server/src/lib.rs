//! # dcr-server — simulation as a service
//!
//! An HTTP front end over the trial arena: clients POST a declarative
//! [`ExperimentSpec`], a worker pool executes it through the same
//! [`dcr_bench::runspec`] code path the `experiments --spec` CLI uses,
//! progress and probe events stream back over Server-Sent Events, and
//! finished results are cached content-addressed by a canonical hash of
//! `(spec, code version)` — resubmitting an identical spec is served from
//! the cache without simulating a single slot.
//!
//! ## API
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /experiments` | Submit a spec (JSON body). Returns `{id, status, cached}`; the id **is** the cache key. |
//! | `GET /experiments/:id` | Status, and the full report + text once done. |
//! | `GET /experiments/:id/events` | SSE stream: `progress` events while running, `probe` events from trial 0, then `done`/`failed`. Late subscribers get a full replay. |
//! | `POST /experiments/:id/cancel` | Cancel a queued/running experiment. |
//! | `POST /experiments/:id/branch` | Checkpoint the spec's trial-0 run at a prefix boundary and replay the suffix under perturbed adversaries (body: `{prefix_slots, branches}`). Persists the checkpoint content-addressed and appends to the lineage log. |
//! | `GET /healthz` | Liveness + code version. |
//! | `GET /metrics` | Prometheus text-format (0.0.4) exposition of the workspace registry. |
//!
//! ## Observability
//!
//! Binding a server arms the workspace telemetry plane
//! ([`dcr_telemetry::install`]): every request is counted and timed
//! under normalized route labels, the worker pool and cache export
//! counters and gauges, and the simulator's `dcr_sim_*` lazy counters go
//! live — all scraped at `GET /metrics`. Request handling emits one
//! structured JSON log line per request (plus experiment lifecycle
//! events) through [`dcr_telemetry::logger`]; see the README's
//! observability section for the full metric-family table.
//!
//! Accepted connections carry read/write deadlines
//! ([`ServerConfig::io_timeout`], default 10 s) so a client that opens a
//! socket and trickles bytes — or never finishes its headers — cannot
//! pin a connection thread indefinitely (the classic slowloris
//! pattern). SSE subscribers keep only the write deadline once their
//! request has been read: the stream is ours to write, and a stalled
//! subscriber still cannot hold the thread past one blocked write.
//!
//! ## Concurrency model
//!
//! No async runtime is vendored, so the server is plain threads: an
//! accept loop spawns one short-lived thread per connection (SSE
//! subscribers hold theirs until the experiment finishes), and a fixed
//! pool of worker threads drains a FIFO of submitted experiments. Each
//! worker runs one experiment at a time; the Monte-Carlo batch inside it
//! already fans out across the machine via the trial arena, so the pool
//! shards *experiments*, not trials.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod cache;
pub mod http;
mod telemetry;

use cache::{CacheEntry, DiskCache};
use dcr_bench::runspec::{self, AdversaryCell, ExperimentSpec, RunSpecError};
use dcr_sim::prelude::ProbeRecord;
use dcr_sim::{CancelToken, RunError};
use dcr_stats::ExperimentReport;
use dcr_telemetry::{fields, logger};
use serde::{Deserialize, Serialize, Value};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use telemetry::{Metrics, RequestObs, SseGuard};

/// Server configuration (see [`Server::bind`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:8787`. Port `0` binds ephemeral
    /// (the integration tests use this).
    pub addr: String,
    /// Directory for the content-addressed result cache.
    pub cache_dir: PathBuf,
    /// Worker threads draining the experiment queue (`0` = available
    /// parallelism, capped at 4 — each worker's Monte-Carlo batch already
    /// parallelizes internally).
    pub workers: usize,
    /// Read/write deadline applied to every accepted connection
    /// (slowloris guard). `None` disables socket timeouts entirely; the
    /// default is 10 seconds.
    pub io_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8787".to_string(),
            cache_dir: PathBuf::from("target/dcr-cache"),
            workers: 0,
            io_timeout: Some(Duration::from_secs(10)),
        }
    }
}

/// Lifecycle of one submitted experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    Queued,
    Running { done: u64, total: u64 },
    Done,
    Failed { error: String },
}

impl Phase {
    fn name(&self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running { .. } => "running",
            Phase::Done => "done",
            Phase::Failed { .. } => "failed",
        }
    }

    fn is_terminal(&self) -> bool {
        matches!(self, Phase::Done | Phase::Failed { .. })
    }
}

/// Mutable half of an experiment, guarded by one mutex so SSE
/// subscribers can wait on a single condvar for "new event or phase
/// change".
struct ExpInner {
    phase: Phase,
    /// Pre-rendered SSE frames `(event name, single-line JSON data)`.
    /// Append-only; subscribers replay from index 0.
    events: Vec<(&'static str, String)>,
    report: Option<ExperimentReport>,
    text: Option<String>,
}

/// One experiment known to the server: submitted this process, or
/// rehydrated from the disk cache.
pub struct Experiment {
    id: String,
    spec: ExperimentSpec,
    /// Set when this entry was satisfied from the cache (never executed
    /// by this submission).
    from_cache: AtomicBool,
    cancel: CancelToken,
    inner: Mutex<ExpInner>,
    cv: Condvar,
}

impl Experiment {
    fn new(id: String, spec: ExperimentSpec) -> Arc<Self> {
        let total = spec.trials;
        let exp = Arc::new(Self {
            id,
            spec,
            from_cache: AtomicBool::new(false),
            cancel: CancelToken::new(),
            inner: Mutex::new(ExpInner {
                phase: Phase::Queued,
                events: Vec::new(),
                report: None,
                text: None,
            }),
            cv: Condvar::new(),
        });
        // Guarantee every subscriber sees at least one progress frame,
        // even for runs that finish inside the runner's first batch.
        exp.push_event("progress", progress_json(0, total));
        exp
    }

    /// Rehydrate a finished experiment from a cache entry: terminal from
    /// birth, with the full event stream ready for replay.
    fn from_cache_entry(entry: CacheEntry) -> Arc<Self> {
        let exp = Self::new(entry.key.clone(), entry.spec);
        exp.from_cache.store(true, Ordering::Relaxed);
        exp.finish_ok(entry.report, &entry.events, entry.text);
        exp
    }

    fn push_event(&self, name: &'static str, data: String) {
        let mut inner = self.inner.lock().expect("experiment lock");
        inner.events.push((name, data));
        self.cv.notify_all();
    }

    fn set_progress(&self, done: u64, total: u64) {
        let mut inner = self.inner.lock().expect("experiment lock");
        inner.phase = Phase::Running { done, total };
        inner.events.push(("progress", progress_json(done, total)));
        self.cv.notify_all();
    }

    fn finish_ok(&self, report: ExperimentReport, events: &[ProbeRecord], text: String) {
        let total = self.spec.trials;
        let mut inner = self.inner.lock().expect("experiment lock");
        for rec in events {
            let data = serde_json::to_string(rec).expect("serialize probe record");
            inner.events.push(("probe", data));
        }
        inner.events.push(("progress", progress_json(total, total)));
        inner
            .events
            .push(("done", format!("{{\"id\":\"{}\"}}", self.id)));
        inner.phase = Phase::Done;
        inner.report = Some(report);
        inner.text = Some(text);
        self.cv.notify_all();
    }

    fn finish_err(&self, error: String) {
        let mut inner = self.inner.lock().expect("experiment lock");
        let data = serde_json::to_string(&Value::Object(vec![(
            "error".to_string(),
            Value::String(error.clone()),
        )]))
        .expect("serialize failure event");
        inner.events.push(("failed", data));
        inner.phase = Phase::Failed { error };
        self.cv.notify_all();
    }

    /// Block until there are events past `from` or the phase is terminal;
    /// returns the new frames and whether the stream is complete.
    fn wait_events(&self, from: usize) -> (Vec<(&'static str, String)>, bool) {
        let mut inner = self.inner.lock().expect("experiment lock");
        loop {
            if inner.events.len() > from || inner.phase.is_terminal() {
                let fresh = inner.events[from.min(inner.events.len())..].to_vec();
                let complete = inner.phase.is_terminal();
                return (fresh, complete);
            }
            let (guard, _timeout) = self
                .cv
                .wait_timeout(inner, Duration::from_secs(1))
                .expect("experiment lock");
            inner = guard;
        }
    }

    /// The `{id, status, cached, …}` JSON for POST responses and GETs.
    /// `full` additionally embeds the report and rendered text.
    fn status_json(&self, full: bool) -> String {
        let inner = self.inner.lock().expect("experiment lock");
        let mut fields = vec![
            ("id".to_string(), Value::String(self.id.clone())),
            (
                "status".to_string(),
                Value::String(inner.phase.name().to_string()),
            ),
            (
                "cached".to_string(),
                Value::Bool(self.from_cache.load(Ordering::Relaxed)),
            ),
            ("label".to_string(), Value::String(self.spec.label())),
        ];
        if let Phase::Running { done, total } = inner.phase {
            fields.push((
                "progress".to_string(),
                Value::Object(vec![
                    ("done".to_string(), u64_value(done)),
                    ("total".to_string(), u64_value(total)),
                ]),
            ));
        }
        if let Phase::Failed { error } = &inner.phase {
            fields.push(("error".to_string(), Value::String(error.clone())));
        }
        if full {
            if let Some(report) = &inner.report {
                fields.push(("report".to_string(), report.to_value()));
            }
            if let Some(text) = &inner.text {
                fields.push(("text".to_string(), Value::String(text.clone())));
            }
        }
        serde_json::to_string(&Value::Object(fields)).expect("serialize status")
    }
}

fn progress_json(done: u64, total: u64) -> String {
    format!("{{\"done\":{done},\"total\":{total}}}")
}

fn u64_value(v: u64) -> Value {
    Value::Number(serde::value::Number::U(v))
}

/// Shared server state: registry, queue, cache, metrics.
struct AppState {
    cache: DiskCache,
    experiments: Mutex<HashMap<String, Arc<Experiment>>>,
    queue: Mutex<VecDeque<Arc<Experiment>>>,
    queue_cv: Condvar,
    metrics: Metrics,
}

impl AppState {
    fn enqueue(&self, exp: Arc<Experiment>) {
        let mut queue = self.queue.lock().expect("queue lock");
        queue.push_back(exp);
        self.metrics.queue_depth.set(queue.len() as i64);
        self.queue_cv.notify_one();
    }

    fn dequeue(&self) -> Arc<Experiment> {
        let mut queue = self.queue.lock().expect("queue lock");
        loop {
            if let Some(exp) = queue.pop_front() {
                self.metrics.queue_depth.set(queue.len() as i64);
                return exp;
            }
            queue = self.queue_cv.wait(queue).expect("queue lock");
        }
    }
}

/// The bound, not-yet-running server. [`Server::run`] blocks on the
/// accept loop; [`Server::run_background`] detaches it (tests, smoke
/// scripts).
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    workers: usize,
    io_timeout: Option<Duration>,
}

impl Server {
    /// Bind the listen socket, open the cache, arm telemetry, and take
    /// the process's provenance now: it is captured once per process, so
    /// no served run spawns a process for it.
    pub fn bind(config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        dcr_stats::Provenance::capture();
        let cache = DiskCache::open(&config.cache_dir)?;
        let workers = match config.workers {
            0 => std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1)
                .min(4),
            n => n,
        };
        Ok(Self {
            listener,
            state: Arc::new(AppState {
                cache,
                experiments: Mutex::new(HashMap::new()),
                queue: Mutex::new(VecDeque::new()),
                queue_cv: Condvar::new(),
                metrics: Metrics::install(),
            }),
            workers,
            io_timeout: config.io_timeout,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Start the worker pool and serve connections forever.
    pub fn run(self) -> std::io::Result<()> {
        for _ in 0..self.workers {
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || worker_loop(&state));
        }
        for conn in self.listener.incoming() {
            match conn {
                Ok(stream) => {
                    // Slowloris guard: a connection may not sit idle (or
                    // trickle bytes) past the deadline in either
                    // direction. Failure to arm the deadline is treated
                    // like an accept error — serving such a socket would
                    // reopen the unbounded-hold hole.
                    if let Some(timeout) = self.io_timeout {
                        if let Err(e) = stream
                            .set_read_timeout(Some(timeout))
                            .and_then(|()| stream.set_write_timeout(Some(timeout)))
                        {
                            self.state.metrics.errors.with(&["accept"]).inc();
                            logger::error(
                                "dcr_server",
                                "socket deadline setup failed",
                                fields!(error = e.to_string()),
                            );
                            continue;
                        }
                    }
                    let state = Arc::clone(&self.state);
                    std::thread::spawn(move || {
                        let mut stream = stream;
                        // Client-side disconnects mid-stream are routine;
                        // nothing to do but drop the connection.
                        let _ = handle_connection(&mut stream, &state);
                    });
                }
                Err(e) => {
                    self.state.metrics.errors.with(&["accept"]).inc();
                    logger::error("dcr_server", "accept error", fields!(error = e.to_string()));
                }
            }
        }
        Ok(())
    }

    /// Run the server on a detached thread; returns the bound address.
    pub fn run_background(self) -> std::io::Result<SocketAddr> {
        let addr = self.local_addr()?;
        std::thread::spawn(move || {
            if let Err(e) = self.run() {
                logger::error("dcr_server", "server error", fields!(error = e.to_string()));
            }
        });
        Ok(addr)
    }
}

/// One worker: pull experiments off the queue and run them to a terminal
/// phase. A worker panic inside the Monte-Carlo batch is already mapped
/// to [`RunSpecError::Run`] by the runner, so the pool itself never dies
/// with an experiment.
fn worker_loop(state: &AppState) {
    loop {
        let exp = state.dequeue();
        if exp.cancel.is_cancelled() {
            state.metrics.experiments.with(&["cancelled"]).inc();
            logger::info(
                "dcr_server",
                "experiment cancelled before start",
                fields!(experiment_id = &exp.id),
            );
            exp.finish_err("cancelled before start".to_string());
            continue;
        }
        let total = exp.spec.trials;
        exp.set_progress(0, total);
        logger::info(
            "dcr_server",
            "experiment started",
            fields!(
                experiment_id = &exp.id,
                label = exp.spec.label(),
                trials = total
            ),
        );
        let progress = |done: u64, _total: u64| exp.set_progress(done, total);
        match runspec::run_spec_with(&exp.spec, progress, &exp.cancel) {
            Ok(out) => {
                let entry = CacheEntry {
                    key: exp.id.clone(),
                    code_version: runspec::code_version().to_string(),
                    spec: exp.spec.clone(),
                    report: out.report.clone(),
                    events: out.events.clone(),
                    text: out.text.clone(),
                };
                match state.cache.store(&entry) {
                    Ok(()) => state.metrics.cache_stores.inc(),
                    Err(e) => {
                        // A write failure degrades the cache, not the result.
                        state.metrics.errors.with(&["cache_store"]).inc();
                        logger::error(
                            "dcr_server",
                            "cache store failed",
                            fields!(experiment_id = &exp.id, error = e.to_string()),
                        );
                    }
                }
                exp.finish_ok(out.report, &out.events, out.text);
                state.metrics.experiments.with(&["done"]).inc();
                logger::info(
                    "dcr_server",
                    "experiment done",
                    fields!(experiment_id = &exp.id),
                );
            }
            Err(e) => {
                let outcome = match &e {
                    RunSpecError::Run(RunError::Cancelled { .. }) => "cancelled",
                    _ => "failed",
                };
                state.metrics.experiments.with(&[outcome]).inc();
                logger::warn(
                    "dcr_server",
                    "experiment failed",
                    fields!(
                        experiment_id = &exp.id,
                        outcome = outcome,
                        error = e.to_string()
                    ),
                );
                exp.finish_err(e.to_string());
            }
        }
    }
}

/// Read, route, and observe one request: parse errors and deadline
/// expiries respond (and count) here; everything else dispatches through
/// [`route_request`], whose returned status feeds the request metrics
/// and the access log line.
fn handle_connection(stream: &mut TcpStream, state: &AppState) -> std::io::Result<()> {
    let obs = RequestObs::begin(&state.metrics);
    let req = match http::read_request(stream) {
        Ok(Some(req)) => req,
        // Closed before a request line: nothing was asked, nothing to
        // record beyond the in-flight gauge the guard maintains.
        Ok(None) => return Ok(()),
        Err(e) if http::is_timeout(&e) => {
            state.metrics.errors.with(&["read_timeout"]).inc();
            let status = http::respond_error(stream, 408, "request timed out")?;
            obs.finish("-", "other", "-", status);
            return Ok(());
        }
        Err(e) => {
            state.metrics.errors.with(&["bad_request"]).inc();
            let status = http::respond_error(stream, http::rejection_status(&e), &e.to_string())?;
            obs.finish("-", "other", "-", status);
            http::discard_unread(stream);
            return Ok(());
        }
    };
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let route = telemetry::route_template(req.method.as_str(), &segments);
    let status = route_request(stream, state, &req, &segments, &obs)?;
    obs.finish(&req.method, route, &req.path, status);
    Ok(())
}

/// Dispatch one parsed request; returns the response status written.
fn route_request(
    stream: &mut TcpStream,
    state: &AppState,
    req: &http::Request,
    segments: &[&str],
    obs: &RequestObs<'_>,
) -> std::io::Result<u16> {
    match (req.method.as_str(), segments) {
        ("GET", ["healthz"]) => {
            let body = serde_json::to_string(&Value::Object(vec![
                ("status".to_string(), Value::String("ok".to_string())),
                (
                    "code_version".to_string(),
                    Value::String(runspec::code_version().to_string()),
                ),
            ]))
            .expect("serialize healthz");
            http::respond_json(stream, 200, &body)
        }
        ("GET", ["metrics"]) => {
            // `bind` installed the global registry, so it is always
            // present here; the fallback keeps the route total.
            let text = dcr_telemetry::global()
                .map(dcr_telemetry::Registry::render)
                .unwrap_or_default();
            http::respond(
                stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &text,
            )
        }
        ("POST", ["experiments"]) => post_experiment(stream, state, &req.body, obs),
        ("GET", ["experiments", id]) => match lookup(state, id) {
            Some(exp) => http::respond_json(stream, 200, &exp.status_json(true)),
            None => http::respond_error(stream, 404, "unknown experiment"),
        },
        ("GET", ["experiments", id, "events"]) => match lookup(state, id) {
            Some(exp) => stream_events(stream, state, &exp).map(|()| 200),
            None => http::respond_error(stream, 404, "unknown experiment"),
        },
        ("POST", ["experiments", id, "branch"]) => match lookup(state, id) {
            Some(exp) => branch_experiment(stream, state, &exp, &req.body, obs),
            None => http::respond_error(stream, 404, "unknown experiment"),
        },
        ("POST", ["experiments", id, "cancel"]) => match lookup(state, id) {
            Some(exp) => {
                exp.cancel.cancel();
                logger::info(
                    "dcr_server",
                    "experiment cancel requested",
                    fields!(req_id = obs.req_id, experiment_id = &exp.id),
                );
                http::respond_json(stream, 202, &exp.status_json(false))
            }
            None => http::respond_error(stream, 404, "unknown experiment"),
        },
        ("POST" | "GET", _) => http::respond_error(stream, 404, "no such route"),
        _ => http::respond_error(stream, 405, "method not allowed"),
    }
}

/// Find an experiment by id: the in-process registry first, then the
/// disk cache (results computed by an earlier server process under the
/// same code version rehydrate transparently).
fn lookup(state: &AppState, id: &str) -> Option<Arc<Experiment>> {
    let mut map = state.experiments.lock().expect("experiments lock");
    if let Some(exp) = map.get(id) {
        return Some(Arc::clone(exp));
    }
    let entry = state.cache.load(id)?;
    let exp = Experiment::from_cache_entry(entry);
    map.insert(id.to_string(), Arc::clone(&exp));
    Some(exp)
}

/// `POST /experiments`: parse, validate, content-address, and either
/// serve from cache or enqueue.
fn post_experiment(
    stream: &mut TcpStream,
    state: &AppState,
    body: &[u8],
    obs: &RequestObs<'_>,
) -> std::io::Result<u16> {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return http::respond_error(stream, 400, "body is not UTF-8"),
    };
    let spec: ExperimentSpec = match serde_json::from_str(text) {
        Ok(s) => s,
        Err(e) => {
            return http::respond_error(stream, 400, &format!("invalid ExperimentSpec: {e:?}"))
        }
    };
    // Full submission-time validation (including spec/workload
    // compatibility, e.g. ALIGNED on an unaligned workload) so bad specs
    // are a 400, not a failed experiment.
    if let Err(e) = runspec::check(&spec) {
        return http::respond_error(stream, 400, &e.to_string());
    }

    let key = runspec::cache_key(&spec, runspec::code_version());
    let mut map = state.experiments.lock().expect("experiments lock");
    if let Some(exp) = map.get(&key) {
        let exp = Arc::clone(exp);
        let failed = matches!(
            exp.inner.lock().expect("experiment lock").phase,
            Phase::Failed { .. }
        );
        if !failed {
            // Identical spec already known: completed runs are a cache
            // hit, in-flight runs attach the caller to the existing
            // execution. Either way nothing is re-simulated.
            let done = {
                let inner = exp.inner.lock().expect("experiment lock");
                inner.phase == Phase::Done
            };
            if done {
                exp.from_cache.store(true, Ordering::Relaxed);
                state.metrics.cache_hits.inc();
            }
            drop(map);
            logger::info(
                "dcr_server",
                "experiment submitted",
                fields!(req_id = obs.req_id, experiment_id = &exp.id, cached = done),
            );
            return http::respond_json(stream, 202, &exp.status_json(false));
        }
        // A failed (or cancelled) run is not a result; resubmission
        // evicts it and executes fresh.
        map.remove(&key);
    }
    if let Some(entry) = state.cache.load(&key) {
        let exp = Experiment::from_cache_entry(entry);
        map.insert(key, Arc::clone(&exp));
        drop(map);
        state.metrics.cache_hits.inc();
        logger::info(
            "dcr_server",
            "experiment submitted",
            fields!(req_id = obs.req_id, experiment_id = &exp.id, cached = true),
        );
        return http::respond_json(stream, 202, &exp.status_json(false));
    }
    let exp = Experiment::new(key.clone(), spec);
    map.insert(key, Arc::clone(&exp));
    drop(map);
    state.metrics.cache_misses.inc();
    logger::info(
        "dcr_server",
        "experiment submitted",
        fields!(req_id = obs.req_id, experiment_id = &exp.id, cached = false),
    );
    state.enqueue(Arc::clone(&exp));
    http::respond_json(stream, 202, &exp.status_json(false))
}

/// Body of `POST /experiments/:id/branch`: where to cut the shared
/// prefix and which perturbed adversaries to fan the suffix across.
#[derive(Deserialize)]
struct BranchRequest {
    /// Slot boundary to checkpoint the prefix at (the engine may pause a
    /// few slots later if an event-driven gap skip overshoots it).
    prefix_slots: u64,
    /// One suffix run per cell: the adversary (and `p_jam`) swapped in at
    /// the branch point.
    branches: Vec<AdversaryCell>,
}

/// `POST /experiments/:id/branch`: simulate the base spec's trial-0 run
/// to `prefix_slots` once, checkpoint it, and replay the suffix under
/// each requested adversary perturbation. The checkpoint is persisted
/// content-addressed (`<hash>.ckpt.json`) and the fork is recorded in
/// the append-only lineage log; the response carries one full
/// [`dcr_sim::prelude::SimReport`] per branch. Synchronous: branched
/// sweeps are interactive what-if probes, not queued Monte-Carlo batches.
fn branch_experiment(
    stream: &mut TcpStream,
    state: &AppState,
    exp: &Experiment,
    body: &[u8],
    obs: &RequestObs<'_>,
) -> std::io::Result<u16> {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return http::respond_error(stream, 400, "body is not UTF-8"),
    };
    let req: BranchRequest = match serde_json::from_str(text) {
        Ok(r) => r,
        Err(e) => {
            return http::respond_error(stream, 400, &format!("invalid branch request: {e:?}"))
        }
    };
    let out = match runspec::branch_spec(&exp.spec, req.prefix_slots, &req.branches) {
        Ok(out) => out,
        Err(RunSpecError::Invalid(e)) => return http::respond_error(stream, 400, &e.to_string()),
        Err(e) => {
            state.metrics.errors.with(&["branch"]).inc();
            return http::respond_error(stream, 500, &e.to_string());
        }
    };

    // Content-address the checkpoint by its own canonical JSON: identical
    // forks of identical prefixes collapse to one blob on disk.
    let ck_key = dcr_stats::content_hash(&out.checkpoint.to_value());
    let ck_json = serde_json::to_string(&out.checkpoint).expect("serialize checkpoint");
    if let Err(e) = state.cache.store_checkpoint(&ck_key, &ck_json) {
        // Like result-cache writes: a failed store degrades persistence,
        // not the computed response.
        state.metrics.errors.with(&["cache_store"]).inc();
        logger::error(
            "dcr_server",
            "checkpoint store failed",
            fields!(experiment_id = &exp.id, error = e.to_string()),
        );
    }
    let lineage = serde_json::to_string(&Value::Object(vec![
        ("checkpoint".to_string(), Value::String(ck_key.clone())),
        ("base".to_string(), Value::String(exp.id.clone())),
        ("prefix_slot".to_string(), u64_value(out.prefix_slot)),
        (
            "branches".to_string(),
            Value::Array(
                req.branches
                    .iter()
                    .map(serde::Serialize::to_value)
                    .collect(),
            ),
        ),
    ]))
    .expect("serialize lineage record");
    if let Err(e) = state.cache.append_lineage(&lineage) {
        state.metrics.errors.with(&["cache_store"]).inc();
        logger::error(
            "dcr_server",
            "lineage append failed",
            fields!(experiment_id = &exp.id, error = e.to_string()),
        );
    }
    logger::info(
        "dcr_server",
        "experiment branched",
        fields!(
            req_id = obs.req_id,
            experiment_id = &exp.id,
            checkpoint = &ck_key,
            prefix_slot = out.prefix_slot,
            branches = req.branches.len() as u64
        ),
    );

    let body = serde_json::to_string(&Value::Object(vec![
        ("id".to_string(), Value::String(exp.id.clone())),
        ("checkpoint".to_string(), Value::String(ck_key)),
        ("prefix_slot".to_string(), u64_value(out.prefix_slot)),
        (
            "branches".to_string(),
            Value::Array(out.reports.iter().map(serde::Serialize::to_value).collect()),
        ),
    ]))
    .expect("serialize branch response");
    http::respond_json(stream, 200, &body)
}

/// `GET /experiments/:id/events`: replay the event log from the start,
/// then follow it live until the experiment reaches a terminal phase.
fn stream_events(
    stream: &mut TcpStream,
    state: &AppState,
    exp: &Experiment,
) -> std::io::Result<()> {
    let _subscribers = SseGuard::begin(&state.metrics);
    // The request is fully read; the idle-read deadline no longer
    // applies, and an SSE stream legitimately outlives it. The write
    // deadline stays armed so a stalled subscriber is dropped at the
    // first blocked event write instead of pinning this thread.
    let _ = stream.set_read_timeout(None);
    http::start_sse(stream)?;
    let mut cursor = 0usize;
    loop {
        let (fresh, complete) = exp.wait_events(cursor);
        let drained = fresh.len();
        for (name, data) in fresh {
            http::write_sse_event(stream, name, &data)?;
        }
        cursor += drained;
        if complete && drained == 0 {
            return Ok(());
        }
    }
}
