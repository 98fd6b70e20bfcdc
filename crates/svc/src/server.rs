//! The campaign service: a bounded job queue feeding a fixed worker
//! pool, fronted by the single-threaded non-blocking HTTP/1.1 reactor
//! of the private `nio` module.
//!
//! # Endpoints
//!
//! | Route | Method | Purpose |
//! |---|---|---|
//! | `/v1/campaigns` | POST | submit a campaign config, get `202` + job id |
//! | `/v1/compare` | POST | submit a cross-scheme compare config, get `202` + job id |
//! | `/v1/crashck` | POST | submit a crash-consistency sweep config, get `202` + job id |
//! | `/v1/blocks` | POST | submit a block-range shard of a job (fleet workers) |
//! | `/v1/jobs/{id}` | GET | job status (`queued`/`running`/`done`/`failed`) |
//! | `/v1/jobs/{id}/result` | GET | the result JSON, byte-identical to `soteria campaign --json` |
//! | `/v1/jobs/{id}/trace` | GET | the NDJSON trace, byte-identical to `--trace` |
//! | `/v1/shutdown` | POST | begin a graceful drain |
//! | `/healthz` | GET | liveness probe |
//! | `/metrics` | GET | Prometheus text exposition |
//!
//! The three submit routes are the rows of the job-kind table
//! (`soteria_faultsim::job::KINDS`): a POST finds its kind, its config
//! parser and its latency label (the route's last segment) there.
//!
//! # Backpressure and drain
//!
//! The queue holds at most `queue_capacity` jobs; a submit against a
//! full queue is rejected with `429` and a `Retry-After` header — jobs
//! are never silently dropped. A drain (via `POST /v1/shutdown` or
//! [`ServerHandle::shutdown`]) stops new submissions with `503`, lets
//! the workers finish every queued and in-flight job, keeps read-only
//! endpoints available meanwhile, and then closes the listener.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

use soteria_faultsim::job::{Kind, KINDS};
use soteria_faultsim::{blocks_spec_from_json, run_block_range, run_spec, JobSpec};
use soteria_rt::json::Json;
use soteria_rt::obs::{Metrics, Timer};

use crate::error::SvcError;
use crate::http::{method_not_allowed, ReadLimits, Request, Response};
use crate::nio::{self, Plane};

/// Tunables for [`Server::bind`]. The defaults suit tests and small
/// deployments; `soteria serve` exposes them as flags.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Campaign worker threads (each runs one job at a time).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before submits get `429`.
    pub queue_capacity: usize,
    /// Seconds suggested in the `Retry-After` header on `429`.
    pub retry_after_secs: u64,
    /// Per-connection read timeout before a `408`.
    pub read_timeout: Duration,
    /// Size limits for request heads and bodies (`413` beyond them).
    pub limits: ReadLimits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 8,
            retry_after_secs: 1,
            read_timeout: Duration::from_secs(5),
            limits: ReadLimits::default(),
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting in the queue.
    Queued,
    /// Claimed by a worker and executing.
    Running,
    /// Finished; result and trace are servable.
    Done,
    /// The campaign panicked; `error` in the status body says why.
    Failed,
}

impl JobState {
    /// The lowercase wire name used in status bodies.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

struct Job {
    spec: JobSpec,
    /// The block range of a `POST /v1/blocks` shard, whose result is the
    /// range's partial document; `None` runs the whole job.
    blocks: Option<Range<u64>>,
    state: JobState,
    /// `(result_json, ndjson)` — the artifact bytes [`run_spec`] emitted.
    output: Option<(String, String)>,
    error: Option<String>,
}

struct State {
    queue: VecDeque<usize>,
    jobs: Vec<Job>,
    in_flight: usize,
    draining: bool,
    metrics: Metrics,
}

struct Shared {
    state: Mutex<State>,
    job_ready: Condvar,
}

impl Shared {
    fn drained(&self) -> bool {
        let st = self.state.lock().unwrap();
        st.draining && st.queue.is_empty() && st.in_flight == 0
    }

    fn begin_drain(&self) {
        self.state.lock().unwrap().draining = true;
        self.job_ready.notify_all();
    }
}

/// A cloneable view of a running (or finished) server, for shutdown and
/// post-drain inspection from tests and the CLI.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begins a graceful drain: stop accepting jobs, finish the rest,
    /// then [`Server::serve`] returns.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// The state of job `id`, if it exists.
    pub fn job_state(&self, id: usize) -> Option<JobState> {
        self.shared
            .state
            .lock()
            .unwrap()
            .jobs
            .get(id)
            .map(|j| j.state)
    }

    /// How many jobs have ever been accepted.
    pub fn job_count(&self) -> usize {
        self.shared.state.lock().unwrap().jobs.len()
    }

    /// Jobs accepted but not yet claimed by a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Whether a drain has been requested and all work is finished.
    pub fn is_drained(&self) -> bool {
        self.shared.drained()
    }
}

/// The campaign service. [`Server::bind`] reserves the port; nothing
/// runs until [`Server::serve`].
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: ServerConfig,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener (use port 0 for an ephemeral port) without
    /// starting any threads.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            local_addr,
            config,
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    jobs: Vec::new(),
                    in_flight: 0,
                    draining: false,
                    metrics: Metrics::enabled(),
                }),
                job_ready: Condvar::new(),
            }),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle for shutdown and inspection, usable from other threads
    /// and still valid after [`Server::serve`] returns.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the reactor and worker pool until a drain completes: every
    /// accepted job reaches `done`/`failed`, every open connection
    /// settles, then the listener closes and this returns.
    pub fn serve(self) {
        let shared = &*self.shared;
        let config = &self.config;
        thread::scope(|s| {
            for _ in 0..config.workers.max(1) {
                s.spawn(move || worker_loop(shared));
            }
            nio::event_loop(&self.listener, &config.limits, config.read_timeout, &self);
            // Also reached when the listener or poller failed: the
            // workers finish the queue, then leave their condvar.
            shared.begin_drain();
        });
    }
}

impl Plane for Server {
    fn route(&self, req: &Request) -> Result<Response, SvcError> {
        route(&self.shared, &self.config, req)
    }

    fn record(&self, path: &str, status: u16, timer: Timer) {
        let mut st = self.shared.state.lock().unwrap();
        st.metrics.inc("requests_total", 1);
        if status == 429 {
            st.metrics.inc("rejected{code=\"429\"}", 1);
        }
        st.metrics.observe_timer(latency_metric(path), timer);
    }

    fn stop(&self) -> bool {
        self.shared.drained()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (id, spec, blocks) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(id) = st.queue.pop_front() {
                    st.in_flight += 1;
                    let job = &mut st.jobs[id];
                    job.state = JobState::Running;
                    break (id, job.spec.clone(), job.blocks.clone());
                }
                if st.draining {
                    return;
                }
                st = shared.job_ready.wait(st).unwrap();
            }
        };
        // A shard's result is its partial document; partials carry their
        // per-iteration records inline, so its trace is empty.
        let outcome = catch_unwind(AssertUnwindSafe(|| match &blocks {
            None => run_spec(&spec),
            Some(r) => (
                run_block_range(&spec, r.start, r.end).to_pretty_string(),
                String::new(),
            ),
        }));
        let mut st = shared.state.lock().unwrap();
        st.in_flight -= 1;
        match outcome {
            Ok(output) => {
                st.jobs[id].output = Some(output);
                st.jobs[id].state = JobState::Done;
                st.metrics.inc("jobs_completed", 1);
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "job panicked".into());
                st.jobs[id].error = Some(msg);
                st.jobs[id].state = JobState::Failed;
                st.metrics.inc("jobs_failed", 1);
            }
        }
        drop(st);
        // Wake peers: idle workers re-check the drain condition, and the
        // accept loop's next poll sees `drained()`.
        shared.job_ready.notify_all();
    }
}

/// The endpoint label used in per-endpoint latency metric names. The
/// `Metrics` registry keys on `&'static str`, so the Prometheus label
/// pair is baked into the name and split back out at render time.
fn latency_metric(path: &str) -> &'static str {
    if path == "/healthz" {
        "latency_ns{endpoint=\"healthz\"}"
    } else if path == "/metrics" {
        "latency_ns{endpoint=\"metrics\"}"
    } else if let Some(name) = kind_latency_metric(path) {
        name
    } else if path == "/v1/blocks" {
        "latency_ns{endpoint=\"blocks\"}"
    } else if path.starts_with("/v1/jobs/") {
        "latency_ns{endpoint=\"jobs\"}"
    } else if path == "/v1/shutdown" {
        "latency_ns{endpoint=\"shutdown\"}"
    } else {
        "latency_ns{endpoint=\"other\"}"
    }
}

/// The latency metric of a kind's submit route: the route's last segment
/// is the endpoint label (`/v1/campaigns` → `campaigns`). The names are
/// built once from the kind table, so a new kind is labelled without an
/// edit here.
fn kind_latency_metric(path: &str) -> Option<&'static str> {
    static NAMES: OnceLock<Vec<(&str, String)>> = OnceLock::new();
    let names = NAMES.get_or_init(|| {
        KINDS
            .iter()
            .map(|kind| {
                let label = kind.route.rsplit('/').next().unwrap_or(kind.route);
                (kind.route, format!("latency_ns{{endpoint=\"{label}\"}}"))
            })
            .collect()
    });
    let (_, name) = names.iter().find(|(route, _)| *route == path)?;
    Some(name.as_str())
}

fn route(shared: &Shared, config: &ServerConfig, req: &Request) -> Result<Response, SvcError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Ok(Response::ok("text/plain; charset=utf-8", b"ok\n".to_vec())),
        (_, "/healthz") => Err(method_not_allowed(req, "GET")),
        ("GET", "/metrics") => Ok(metrics_response(shared)),
        (_, "/metrics") => Err(method_not_allowed(req, "GET")),
        ("POST", "/v1/blocks") => submit_job(shared, config, req, None),
        (_, "/v1/blocks") => Err(method_not_allowed(req, "POST")),
        ("POST", "/v1/shutdown") => {
            shared.begin_drain();
            Ok(Response::json(
                202,
                "Accepted",
                Json::Obj(vec![("status".into(), Json::Str("draining".into()))]),
            ))
        }
        (_, "/v1/shutdown") => Err(method_not_allowed(req, "POST")),
        ("GET", path) if path.starts_with("/v1/jobs/") => job_endpoint(shared, path),
        (_, path) if path.starts_with("/v1/jobs/") => Err(method_not_allowed(req, "GET")),
        (method, path) => match KINDS.iter().find(|kind| kind.route == path) {
            Some(kind) if method == "POST" => submit_job(shared, config, req, Some(kind)),
            Some(_) => Err(method_not_allowed(req, "POST")),
            None => Err(SvcError::NotFound(format!("no route for '{path}'"))),
        },
    }
}

/// Queues the job a POST body describes: a whole job of `kind`, or, with
/// no kind, a `/v1/blocks` shard of any kind.
fn submit_job(
    shared: &Shared,
    config: &ServerConfig,
    req: &Request,
    kind: Option<&Kind>,
) -> Result<Response, SvcError> {
    let label = kind.map_or("blocks", |k| k.name);
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| SvcError::BadRequest(format!("{label} config must be UTF-8 JSON")))?;
    if text.trim().is_empty() {
        return Err(SvcError::BadRequest(format!(
            "missing body: POST a JSON {label} config (e.g. '{{}}' for defaults)"
        )));
    }
    let body = Json::parse(text)
        .map_err(|e| SvcError::BadRequest(format!("config is not valid JSON: {e}")))?;
    let (spec, blocks) = match kind {
        Some(kind) => (kind.parse)(&body).map(|spec| (spec, None)),
        None => blocks_spec_from_json(&body).map(|(spec, range)| (spec, Some(range))),
    }
    .map_err(SvcError::BadRequest)?;
    let mut st = shared.state.lock().unwrap();
    if st.draining {
        return Err(SvcError::Draining);
    }
    if st.queue.len() >= config.queue_capacity {
        return Err(SvcError::QueueFull {
            retry_after_secs: config.retry_after_secs,
        });
    }
    let id = st.jobs.len();
    st.jobs.push(Job {
        spec,
        blocks,
        state: JobState::Queued,
        output: None,
        error: None,
    });
    st.queue.push_back(id);
    let depth = st.queue.len() as u64;
    st.metrics.inc("jobs_submitted", 1);
    st.metrics.observe("queue_depth_at_submit", depth);
    drop(st);
    shared.job_ready.notify_one();
    Ok(Response::json(
        202,
        "Accepted",
        Json::Obj(vec![
            ("job".into(), Json::Num(id as f64)),
            ("status".into(), Json::Str("queued".into())),
            ("result".into(), Json::Str(format!("/v1/jobs/{id}/result"))),
            ("trace".into(), Json::Str(format!("/v1/jobs/{id}/trace"))),
        ]),
    ))
}

fn job_endpoint(shared: &Shared, path: &str) -> Result<Response, SvcError> {
    let rest = &path["/v1/jobs/".len()..];
    let (id_text, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let id: usize = id_text.parse().map_err(|_| {
        SvcError::BadRequest(format!("job id must be a non-negative integer, got '{id_text}'"))
    })?;
    let st = shared.state.lock().unwrap();
    let job = st
        .jobs
        .get(id)
        .ok_or_else(|| SvcError::NotFound(format!("job {id}")))?;
    match tail {
        None => {
            let mut fields = vec![
                ("job".into(), Json::Num(id as f64)),
                ("status".into(), Json::Str(job.state.as_str().into())),
            ];
            if let Some(err) = &job.error {
                fields.push(("error".into(), Json::Str(err.clone())));
            }
            Ok(Response::json(200, "OK", Json::Obj(fields)))
        }
        Some(artifact @ ("result" | "trace")) => {
            let output = job.output.as_ref().ok_or_else(|| {
                SvcError::NotFound(format!(
                    "job {id} has no {artifact} yet (status: {})",
                    job.state.as_str()
                ))
            })?;
            // Served bytes come verbatim from `run_spec`, so they match
            // what `soteria campaign`/`soteria compare` write to disk.
            let (result_json, ndjson) = output;
            Ok(if artifact == "result" {
                Response::ok("application/json", result_json.clone().into_bytes())
            } else {
                Response::ok("application/x-ndjson", ndjson.clone().into_bytes())
            })
        }
        Some(other) => Err(SvcError::NotFound(format!(
            "job {id} has no artifact '{other}' (use result or trace)"
        ))),
    }
}

fn metrics_response(shared: &Shared) -> Response {
    let st = shared.state.lock().unwrap();
    let mut text = st.metrics.to_prometheus("soteria_svc");
    for (name, value) in [
        ("queue_depth", st.queue.len() as u64),
        ("in_flight", st.in_flight as u64),
        ("jobs_total", st.jobs.len() as u64),
        ("draining", st.draining as u64),
    ] {
        text.push_str(&format!(
            "# TYPE soteria_svc_{name} gauge\nsoteria_svc_{name} {value}\n"
        ));
    }
    Response::ok("text/plain; version=0.0.4", text.into_bytes())
}
