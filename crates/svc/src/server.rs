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
//! | `/v1/blocks` | POST | run a block-range shard (fleet workers), get `200` + its partial |
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
//! A `/v1/blocks` shard gets no job id and is never retained: its
//! request is answered with the partial once a worker has run it. A
//! `result`/`trace` request for an unfinished job is answered when the
//! job ends, with the bytes a later request gets. Both wait as parked
//! reactor connections, not as threads.
//!
//! # Backpressure and drain
//!
//! The queue holds at most `queue_capacity` jobs and shards; a submit
//! against a full queue is rejected with `429` and `Retry-After: 1` —
//! jobs are never silently dropped. A drain (via `POST /v1/shutdown` or
//! [`ServerHandle::shutdown`]) stops new submissions with `503`, lets
//! the workers finish every queued and in-flight job, answers every
//! parked request, keeps read-only endpoints available meanwhile, and
//! then closes the listener.

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
use crate::nio::{self, Plane, Reply, Wake};

/// Seconds a `429` asks the client to wait (its `Retry-After` header).
pub(crate) const RETRY_AFTER_SECS: u64 = 1;

/// Tunables for [`Server::bind`]. The defaults suit tests and small
/// deployments; `soteria serve` exposes them as flags.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Campaign worker threads (each runs one job at a time).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs and shards before submits
    /// get `429`.
    pub queue_capacity: usize,
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
            read_timeout: Duration::from_secs(5),
            limits: ReadLimits::default(),
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting in the queue.
    #[default]
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

/// The artifact bytes `(result_json, ndjson)` [`run_spec`] emitted, or the panic.
type Outcome = Result<(String, String), String>;

#[derive(Default)]
struct Job {
    state: JobState,
    outcome: Option<Outcome>,
    /// Artifact requests parked until the job ends: `true` for the trace.
    waiters: Vec<(bool, Reply)>,
}

/// A queued unit of work: a whole job and its id, or a `/v1/blocks` shard
/// with its range and the parked request its partial answers.
enum Work {
    Job(JobSpec, usize),
    Shard(JobSpec, Range<u64>, Reply),
}

struct State {
    queue: VecDeque<Work>,
    jobs: Vec<Job>,
    in_flight: usize,
    draining: bool,
    metrics: Metrics,
}

struct Shared {
    state: Mutex<State>,
    job_ready: Condvar,
    wake: Wake,
}

impl Shared {
    fn drained(&self) -> bool {
        let st = self.state.lock().unwrap();
        st.draining && st.queue.is_empty() && st.in_flight == 0
    }

    fn begin_drain(&self) {
        self.state.lock().unwrap().draining = true;
        self.job_ready.notify_all();
        self.wake.send(Vec::new());
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

    /// How many jobs and `/v1/blocks` shards have ever been accepted.
    pub fn job_count(&self) -> usize {
        self.shared.state.lock().unwrap().metrics.counter("jobs_submitted") as usize
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
                wake: Wake::new()?,
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
    /// accepted job reaches `done`/`failed`, every open connection (parked
    /// ones answered) settles, then the listener closes and this returns.
    pub fn serve(self) {
        let shared = &*self.shared;
        let config = &self.config;
        thread::scope(|s| {
            for _ in 0..config.workers.max(1) {
                s.spawn(move || worker_loop(shared));
            }
            nio::event_loop(
                &self.listener,
                &config.limits,
                config.read_timeout,
                &shared.wake,
                &self,
            );
            // Also reached when the listener or poller failed: the
            // workers finish the queue, then leave their condvar.
            shared.begin_drain();
        });
    }
}

impl Plane for Server {
    fn route(&self, req: &Request, later: Reply) -> Result<Option<Response>, SvcError> {
        route(&self.shared, &self.config, req, later)
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
        let work = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(work) = st.queue.pop_front() {
                    st.in_flight += 1;
                    if let Work::Job(_, id) = work {
                        st.jobs[id].state = JobState::Running;
                    }
                    break work;
                }
                if st.draining {
                    return;
                }
                st = shared.job_ready.wait(st).unwrap();
            }
        };
        // A shard's partial is its `result`; partials carry their
        // per-iteration records inline, so it has no trace.
        let outcome: Outcome = catch_unwind(AssertUnwindSafe(|| match &work {
            Work::Job(spec, _) => run_spec(spec),
            Work::Shard(spec, r, _) => (
                run_block_range(spec, r.start, r.end).to_pretty_string(),
                String::new(),
            ),
        }))
        .map_err(|panic| {
            panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".into())
        });
        let mut st = shared.state.lock().unwrap();
        st.in_flight -= 1;
        let (tally, state) = match outcome {
            Ok(_) => ("jobs_completed", JobState::Done),
            Err(_) => ("jobs_failed", JobState::Failed),
        };
        st.metrics.inc(tally, 1);
        let replies = match work {
            Work::Shard(_, r, reply) => {
                let what = format!("blocks {}..{}", r.start, r.end);
                vec![(reply, artifact(&what, &outcome, false))]
            }
            Work::Job(_, id) => {
                let job = &mut st.jobs[id];
                job.state = state;
                let what = format!("job {id}");
                let replies = (job.waiters.drain(..))
                    .map(|(trace, reply)| (reply, artifact(&what, &outcome, trace)))
                    .collect();
                job.outcome = Some(outcome);
                replies
            }
        };
        drop(st);
        // Wake peers: idle workers re-check the drain condition, and the
        // reactor writes the replies and sees `drained()`.
        shared.job_ready.notify_all();
        shared.wake.send(replies);
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

/// Routes one request: `Ok(None)` parks it, `later` kept until the work
/// it waits on ends.
fn route(
    shared: &Shared,
    config: &ServerConfig,
    req: &Request,
    later: Reply,
) -> Result<Option<Response>, SvcError> {
    let response = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::ok("text/plain; charset=utf-8", b"ok\n".to_vec()),
        (_, "/healthz") => return Err(method_not_allowed(req, "GET")),
        ("GET", "/metrics") => metrics_response(shared),
        (_, "/metrics") => return Err(method_not_allowed(req, "GET")),
        ("POST", "/v1/blocks") => return submit(shared, config, req, None, later),
        (_, "/v1/blocks") => return Err(method_not_allowed(req, "POST")),
        ("POST", "/v1/shutdown") => {
            shared.begin_drain();
            Response::json(
                202,
                "Accepted",
                Json::Obj(vec![("status".into(), Json::Str("draining".into()))]),
            )
        }
        (_, "/v1/shutdown") => return Err(method_not_allowed(req, "POST")),
        ("GET", path) if path.starts_with("/v1/jobs/") => return job_endpoint(shared, path, later),
        (_, path) if path.starts_with("/v1/jobs/") => return Err(method_not_allowed(req, "GET")),
        (method, path) => match KINDS.iter().find(|kind| kind.route == path) {
            Some(kind) if method == "POST" => {
                return submit(shared, config, req, Some(kind), later)
            }
            Some(_) => return Err(method_not_allowed(req, "POST")),
            None => return Err(SvcError::NotFound(format!("no route for '{path}'"))),
        },
    };
    Ok(Some(response))
}

/// Queues the work a POST body describes: a whole job of `kind`, answered
/// `202` with its id, or, with no kind, a `/v1/blocks` shard of any kind,
/// parked on `later` until its partial is ready.
fn submit(
    shared: &Shared,
    config: &ServerConfig,
    req: &Request,
    kind: Option<&Kind>,
    later: Reply,
) -> Result<Option<Response>, SvcError> {
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
    let mut work = match kind {
        Some(kind) => (kind.parse)(&body).map(|spec| Work::Job(spec, 0)),
        None => blocks_spec_from_json(&body).map(|(spec, r)| Work::Shard(spec, r, later)),
    }
    .map_err(SvcError::BadRequest)?;
    let mut st = shared.state.lock().unwrap();
    if st.draining {
        return Err(SvcError::Draining);
    }
    if st.queue.len() >= config.queue_capacity {
        return Err(SvcError::QueueFull);
    }
    // A job's id is its index, taken under the lock.
    let id = match &mut work {
        Work::Job(_, id) => {
            *id = st.jobs.len();
            st.jobs.push(Job::default());
            Some(*id)
        }
        Work::Shard(..) => None,
    };
    st.queue.push_back(work);
    let depth = st.queue.len() as u64;
    st.metrics.inc("jobs_submitted", 1);
    st.metrics.observe("queue_depth_at_submit", depth);
    drop(st);
    shared.job_ready.notify_one();
    let Some(id) = id else {
        return Ok(None);
    };
    Ok(Some(Response::json(
        202,
        "Accepted",
        Json::Obj(vec![
            ("job".into(), Json::Num(id as f64)),
            ("status".into(), Json::Str("queued".into())),
            ("result".into(), Json::Str(format!("/v1/jobs/{id}/result"))),
            ("trace".into(), Json::Str(format!("/v1/jobs/{id}/trace"))),
        ]),
    )))
}

/// A job's status, or an artifact, parked on `later` until the job ends.
fn job_endpoint(shared: &Shared, path: &str, later: Reply) -> Result<Option<Response>, SvcError> {
    let rest = &path["/v1/jobs/".len()..];
    let (id_text, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let id: usize = id_text.parse().map_err(|_| {
        SvcError::BadRequest(format!("job id must be a non-negative integer, got '{id_text}'"))
    })?;
    let mut st = shared.state.lock().unwrap();
    let job = st
        .jobs
        .get_mut(id)
        .ok_or_else(|| SvcError::NotFound(format!("job {id}")))?;
    match tail {
        None => {
            let mut fields = vec![
                ("job".into(), Json::Num(id as f64)),
                ("status".into(), Json::Str(job.state.as_str().into())),
            ];
            if let Some(Err(err)) = &job.outcome {
                fields.push(("error".into(), Json::Str(err.clone())));
            }
            Ok(Some(Response::json(200, "OK", Json::Obj(fields))))
        }
        Some(name @ ("result" | "trace")) => match &job.outcome {
            Some(outcome) => artifact(&format!("job {id}"), outcome, name == "trace").map(Some),
            None => {
                job.waiters.push((name == "trace", later));
                Ok(None)
            }
        },
        Some(other) => Err(SvcError::NotFound(format!(
            "job {id} has no artifact '{other}' (use result or trace)"
        ))),
    }
}

/// The answer to a `result` (`trace`: NDJSON) request once `what` ended:
/// the bytes `run_spec` emitted, as `soteria campaign`/`compare` write
/// them, or a `500` naming the panic.
fn artifact(what: &str, outcome: &Outcome, trace: bool) -> Result<Response, SvcError> {
    let (result_json, ndjson) =
        (outcome.as_ref()).map_err(|msg| SvcError::JobFailed(format!("{what} failed: {msg}")))?;
    Ok(if trace {
        Response::ok("application/x-ndjson", ndjson.clone().into_bytes())
    } else {
        Response::ok("application/json", result_json.clone().into_bytes())
    })
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
