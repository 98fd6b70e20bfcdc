//! Coordinator/worker sharding: one campaign, many nodes, the same
//! bytes.
//!
//! A [`Coordinator`] owns a job (campaign, compare, or crashck),
//! partitions its fixed accumulation blocks
//! (`soteria_faultsim::shard::total_blocks`) into contiguous chunks, and
//! leases chunks to registered workers — each an ordinary `soteria
//! serve` instance reached over the [`crate::client`] with tight
//! connect/read timeouts. A lease is one RPC: `POST /v1/blocks`, answered
//! with the chunk's partial document once the worker has computed it, so
//! the client's read timeout (10 s by default) bounds one lease's
//! compute. The coordinator folds the partials back through the exact
//! single-node reduction (`soteria_faultsim::shard::merge_partials`), so
//! the merged artifact is **byte-identical** to a single-node run at the
//! same seed, regardless of shard count or worker failures.
//!
//! Failure handling is lease-based and fully deterministic in its
//! arithmetic (only the *schedule* varies):
//!
//! * A worker whose lease RPC fails after bounded retry-with-backoff
//!   ([`crate::client::retrying`]) is declared dead; its outstanding
//!   leases return to the pending queue ([`BlockScheduler::fail_worker`]).
//!   There are no idle heartbeats: liveness is judged on the lease RPC.
//! * An idle worker steals the oldest outstanding lease of a slow peer
//!   ([`BlockScheduler::steal`]), duplicating work rather than waiting.
//!   Duplicate partials are bit-identical by construction, so the merge
//!   keeps whichever copy landed first. A worker with nothing to lease or
//!   steal waits for the fleet's state to change, not on a timer.
//!
//! The coordinator also serves a small control plane: worker
//! registration, fleet status, and per-worker Prometheus gauges. It runs
//! on the same reactor as the job server (the private `nio` module), so
//! a stalled client never holds up a registration.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use soteria_faultsim::{merge_partials, total_blocks, JobSpec};
use soteria_rt::json::Json;
use soteria_rt::obs::Timer;

use crate::client::{self, ClientConfig};
use crate::error::SvcError;
use crate::http::{method_not_allowed, ReadLimits, Request, Response};
use crate::nio::{self, Plane, Reply, Wake};

/// How long a control-plane request may stall before its `408`.
const CONTROL_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Tunables for a [`Coordinator`]. Defaults suit tests and localhost
/// fleets; `soteria coordinate` exposes them as flags.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Workers to wait for before the campaign starts.
    pub min_workers: usize,
    /// How long to wait for `min_workers` registrations.
    pub register_timeout: Duration,
    /// Blocks per lease (the work-distribution grain). One lease must
    /// compute within `client.read_timeout`.
    pub chunk_blocks: u64,
    /// Attempts per worker RPC before the worker is declared dead.
    pub rpc_attempts: u32,
    /// Initial backoff between RPC retries (doubles, capped at 2 s).
    pub rpc_backoff: Duration,
    /// Connect/read timeouts for worker RPCs.
    pub client: ClientConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            min_workers: 1,
            register_timeout: Duration::from_secs(30),
            chunk_blocks: 4,
            rpc_attempts: 3,
            rpc_backoff: Duration::from_millis(100),
            client: ClientConfig {
                connect_timeout: Duration::from_secs(2),
                read_timeout: Duration::from_secs(10),
            },
        }
    }
}

/// One outstanding lease: `worker` is computing blocks `lo..hi`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lease {
    /// The worker id holding the lease.
    pub worker: usize,
    /// First block (inclusive).
    pub lo: u64,
    /// Last block (exclusive).
    pub hi: u64,
    /// Issue order — lower is older; [`BlockScheduler::steal`] clones
    /// the oldest lease first.
    pub seq: u64,
}

/// The pure block-distribution state machine: which blocks are pending,
/// leased, or done, and how many block-reassignments failures caused.
///
/// Deliberately free of I/O and clocks so the property suite can drive
/// arbitrary lease/complete/fail interleavings and assert the merged
/// artifact never changes.
#[derive(Debug)]
pub struct BlockScheduler {
    total: u64,
    done: Vec<bool>,
    done_blocks: u64,
    pending: VecDeque<u64>,
    leases: Vec<Lease>,
    next_seq: u64,
    reassigned_blocks: u64,
}

impl BlockScheduler {
    /// A scheduler over blocks `0..total`, all pending.
    pub fn new(total: u64) -> BlockScheduler {
        BlockScheduler {
            total,
            done: vec![false; total as usize],
            done_blocks: 0,
            pending: (0..total).collect(),
            leases: Vec::new(),
            next_seq: 0,
            reassigned_blocks: 0,
        }
    }

    /// Leases up to `max_blocks` contiguous pending blocks to `worker`.
    /// Returns `None` when nothing is pending (work may still be in
    /// flight elsewhere — see [`BlockScheduler::steal`]).
    pub fn lease(&mut self, worker: usize, max_blocks: u64) -> Option<(u64, u64)> {
        let lo = *self.pending.front()?;
        self.pending.pop_front();
        let mut hi = lo + 1;
        while hi - lo < max_blocks.max(1) {
            match self.pending.front() {
                Some(&b) if b == hi => {
                    self.pending.pop_front();
                    hi += 1;
                }
                _ => break,
            }
        }
        self.leases.push(Lease {
            worker,
            lo,
            hi,
            seq: self.next_seq,
        });
        self.next_seq += 1;
        Some((lo, hi))
    }

    /// Clones the oldest outstanding lease of another worker for
    /// `worker` — the slow-peer hedge. Returns `None` when every
    /// outstanding lease is already the requester's own, already
    /// duplicated by the requester, or fully complete.
    pub fn steal(&mut self, worker: usize) -> Option<(u64, u64)> {
        let mut best: Option<(u64, u64, u64)> = None;
        for lease in &self.leases {
            if lease.worker == worker {
                continue;
            }
            if (lease.lo..lease.hi).all(|b| self.done[b as usize]) {
                continue;
            }
            if self
                .leases
                .iter()
                .any(|l| l.worker == worker && l.lo == lease.lo && l.hi == lease.hi)
            {
                continue;
            }
            match best {
                Some((_, _, seq)) if seq <= lease.seq => {}
                _ => best = Some((lease.lo, lease.hi, lease.seq)),
            }
        }
        let (lo, hi, _) = best?;
        self.leases.push(Lease {
            worker,
            lo,
            hi,
            seq: self.next_seq,
        });
        self.next_seq += 1;
        Some((lo, hi))
    }

    /// Records that `worker` finished blocks `lo..hi`. Blocks already
    /// completed by a duplicate lease stay done (partials are
    /// bit-identical, so first copy wins at merge time).
    pub fn complete(&mut self, worker: usize, lo: u64, hi: u64) {
        self.leases
            .retain(|l| !(l.worker == worker && l.lo == lo && l.hi == hi));
        for b in lo..hi.min(self.total) {
            if !self.done[b as usize] {
                self.done[b as usize] = true;
                self.done_blocks += 1;
            }
        }
        // A failed-then-reassigned block the original worker still
        // finished: drop the stale pending copy.
        self.pending.retain(|&b| !(lo..hi).contains(&b));
    }

    /// Voids every lease held by `worker` (it died or fell off the
    /// network). Its unfinished blocks return to the pending queue
    /// unless a duplicate lease still covers them elsewhere.
    pub fn fail_worker(&mut self, worker: usize) {
        let (dead, alive): (Vec<Lease>, Vec<Lease>) = std::mem::take(&mut self.leases)
            .into_iter()
            .partition(|l| l.worker == worker);
        self.leases = alive;
        for lease in dead {
            for b in lease.lo..lease.hi {
                let covered = self
                    .leases
                    .iter()
                    .any(|l| (l.lo..l.hi).contains(&b));
                if !self.done[b as usize] && !covered && !self.pending.contains(&b) {
                    self.pending.push_back(b);
                    self.reassigned_blocks += 1;
                }
            }
        }
        self.pending.make_contiguous().sort_unstable();
    }

    /// Whether every block is done.
    pub fn is_complete(&self) -> bool {
        self.done_blocks == self.total
    }

    /// Total blocks under management.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Blocks completed so far.
    pub fn done_blocks(&self) -> u64 {
        self.done_blocks
    }

    /// Blocks not yet folded into the merge (total − done).
    pub fn merge_lag(&self) -> u64 {
        self.total - self.done_blocks
    }

    /// Distinct unfinished blocks currently under lease.
    pub fn in_flight(&self) -> u64 {
        (0..self.total)
            .filter(|&b| {
                !self.done[b as usize] && self.leases.iter().any(|l| (l.lo..l.hi).contains(&b))
            })
            .count() as u64
    }

    /// Blocks that returned to the pending queue after a worker death.
    pub fn reassigned_blocks(&self) -> u64 {
        self.reassigned_blocks
    }

    /// The outstanding leases (oldest first is not guaranteed).
    pub fn leases(&self) -> &[Lease] {
        &self.leases
    }
}

struct WorkerEntry {
    addr: String,
    alive: bool,
    blocks_done: u64,
    driver_spawned: bool,
}

struct FleetState {
    workers: Vec<WorkerEntry>,
    /// Empty until [`Coordinator::run`] installs the job's blocks.
    scheduler: BlockScheduler,
    partials: Vec<Json>,
    finished: bool,
}

struct FleetShared {
    state: Mutex<FleetState>,
    changed: Condvar,
    /// Wakes the control plane's loop once the job is `finished`.
    wake: Wake,
}

/// Renders the fleet's Prometheus exposition: fleet-wide gauges plus
/// one `{worker="…"}` series per registered worker.
fn render_metrics(state: &FleetState) -> String {
    let s = &state.scheduler;
    let (total, in_flight, lag, reassigned) =
        (s.total(), s.in_flight(), s.merge_lag(), s.reassigned_blocks());
    let alive = state.workers.iter().filter(|w| w.alive).count();
    let mut text = String::new();
    for (name, kind, value) in [
        ("workers", "gauge", state.workers.len() as u64),
        ("workers_alive", "gauge", alive as u64),
        ("blocks_total", "gauge", total),
        ("blocks_in_flight", "gauge", in_flight),
        ("merge_lag_blocks", "gauge", lag),
        ("reassignments_total", "counter", reassigned),
    ] {
        text.push_str(&format!(
            "# TYPE soteria_fleet_{name} {kind}\nsoteria_fleet_{name} {value}\n"
        ));
    }
    text.push_str("# TYPE soteria_fleet_worker_alive gauge\n");
    for (id, w) in state.workers.iter().enumerate() {
        text.push_str(&format!(
            "soteria_fleet_worker_alive{{worker=\"{id}\"}} {}\n",
            w.alive as u64
        ));
    }
    text.push_str("# TYPE soteria_fleet_worker_blocks_done counter\n");
    for (id, w) in state.workers.iter().enumerate() {
        text.push_str(&format!(
            "soteria_fleet_worker_blocks_done{{worker=\"{id}\"}} {}\n",
            w.blocks_done
        ));
    }
    text
}

/// The fleet coordinator: binds the control plane, waits for workers,
/// shards the job, merges the partials.
pub struct Coordinator {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: FleetConfig,
    shared: Arc<FleetShared>,
}

impl Coordinator {
    /// Binds the control-plane listener (port 0 for ephemeral) without
    /// starting anything.
    ///
    /// # Errors
    ///
    /// Any socket error from bind.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: FleetConfig) -> io::Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        Ok(Coordinator {
            listener,
            local_addr,
            config,
            shared: Arc::new(FleetShared {
                state: Mutex::new(FleetState {
                    workers: Vec::new(),
                    scheduler: BlockScheduler::new(0),
                    partials: Vec::new(),
                    finished: false,
                }),
                changed: Condvar::new(),
                wake: Wake::new()?,
            }),
        })
    }

    /// The bound control-plane address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Runs the job to completion: serves the control plane, waits for
    /// `min_workers` registrations, leases block chunks to workers
    /// (reassigning on death, hedging on slowness), and merges the
    /// partials into the final `(result_json, ndjson)` artifact pair —
    /// byte-identical to a single-node run of the same `kind`/`config`.
    ///
    /// # Errors
    ///
    /// A one-line message when the config is invalid, no worker ever
    /// registers, or every worker dies before coverage completes.
    pub fn run(self, kind: &str, config_body: &Json) -> Result<(String, String), String> {
        let spec = JobSpec::from_kind(kind, config_body)?;
        let total = total_blocks(&spec);
        let shared = &*self.shared;
        let config = &self.config;
        shared.state.lock().unwrap().scheduler = BlockScheduler::new(total);
        let outcome: Result<Vec<Json>, String> = thread::scope(|s| {
            // Serves until `finished`, so late scrapes still answer.
            s.spawn(|| {
                nio::event_loop(
                    &self.listener,
                    &ReadLimits::default(),
                    CONTROL_READ_TIMEOUT,
                    &shared.wake,
                    shared,
                )
            });

            // Wait for the starting quorum.
            let deadline = Instant::now() + config.register_timeout;
            let mut st = shared.state.lock().unwrap();
            while st.workers.len() < config.min_workers {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                st = shared.changed.wait_timeout(st, deadline - now).unwrap().0;
            }
            // Then spawn a driver per registered worker (including late
            // joiners), until coverage completes or the fleet dies.
            let result = if st.workers.is_empty() {
                Err(format!(
                    "no worker registered within {:?}",
                    config.register_timeout
                ))
            } else {
                loop {
                    for id in 0..st.workers.len() {
                        if st.workers[id].alive && !st.workers[id].driver_spawned {
                            st.workers[id].driver_spawned = true;
                            let addr = st.workers[id].addr.clone();
                            s.spawn(move || {
                                drive_worker(shared, config, kind, config_body, id, &addr)
                            });
                        }
                    }
                    if st.scheduler.is_complete() {
                        break Ok(std::mem::take(&mut st.partials));
                    }
                    if st.workers.iter().all(|w| !w.alive) {
                        break Err(format!(
                            "every worker died with {} of {} blocks unmerged",
                            st.scheduler.merge_lag(),
                            st.scheduler.total()
                        ));
                    }
                    st = shared.changed.wait(st).unwrap();
                }
            };
            st.finished = true;
            drop(st);
            // Drivers observe `finished` and exit; the control plane stops.
            shared.changed.notify_all();
            shared.wake.send(Vec::new());
            result
        });
        let partials = outcome?;
        merge_partials(&spec, &partials)
    }
}

/// One worker's driver: lease → RPC → complete, until the campaign
/// finishes or the worker dies. With nothing to lease or steal it waits
/// for a change, under the lock acquisition of its attempt, so no wakeup
/// between the attempt and the wait is lost.
fn drive_worker(
    shared: &FleetShared,
    config: &FleetConfig,
    kind: &str,
    config_body: &Json,
    worker: usize,
    addr: &str,
) {
    loop {
        let lease = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.finished || !st.workers[worker].alive || st.scheduler.is_complete() {
                    break None;
                }
                let sched = &mut st.scheduler;
                if let Some(lease) = sched
                    .lease(worker, config.chunk_blocks)
                    .or_else(|| sched.steal(worker))
                {
                    break Some(lease);
                }
                st = shared.changed.wait(st).unwrap();
            }
        };
        let Some((lo, hi)) = lease else {
            break;
        };
        let outcome = run_range_on_worker(addr, kind, config_body, lo, hi, config);
        let mut st = shared.state.lock().unwrap();
        let Ok(partial) = outcome else {
            st.workers[worker].alive = false;
            st.scheduler.fail_worker(worker);
            shared.changed.notify_all();
            break;
        };
        st.workers[worker].blocks_done += hi - lo;
        st.scheduler.complete(worker, lo, hi);
        st.partials.push(partial);
        shared.changed.notify_all();
    }
}

fn rpc_error(detail: String) -> io::Error {
    io::Error::other(detail)
}

/// Leases blocks `lo..hi` to `addr`: one `POST /v1/blocks`, answered with
/// the partial document once computed. The RPC retries with backoff (a
/// `429` too: the backoff makes room in the worker's queue); a persistent
/// failure bubbles up so the caller declares the worker dead.
fn run_range_on_worker(
    addr: &str,
    kind: &str,
    config_body: &Json,
    lo: u64,
    hi: u64,
    config: &FleetConfig,
) -> io::Result<Json> {
    let body = Json::Obj(vec![
        ("kind".into(), Json::Str(kind.into())),
        ("lo".into(), Json::Num(lo as f64)),
        ("hi".into(), Json::Num(hi as f64)),
        ("config".into(), config_body.clone()),
    ]);
    let bytes = body.to_string().into_bytes();
    client::retrying(config.rpc_attempts, config.rpc_backoff, || {
        let resp = client::request_with(
            addr,
            "POST",
            "/v1/blocks",
            Some(("application/json", &bytes)),
            &config.client,
        )?;
        if resp.status != 200 {
            return Err(rpc_error(format!(
                "block lease rejected with {}: {}",
                resp.status,
                resp.text()
            )));
        }
        resp.json().map_err(rpc_error)
    })
}

impl Plane for FleetShared {
    fn route(&self, req: &Request, _later: Reply) -> Result<Option<Response>, SvcError> {
        let response = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::ok("text/plain; charset=utf-8", b"ok\n".to_vec()),
            ("GET", "/metrics") => {
                let text = render_metrics(&self.state.lock().unwrap());
                Response::ok("text/plain; version=0.0.4", text.into_bytes())
            }
            ("POST", "/v1/fleet/register") => {
                let id = register_from_request(&req.body, self)?;
                let body = Json::Obj(vec![("worker".into(), Json::Num(id as f64))]);
                Response::json(200, "OK", body)
            }
            ("GET", "/v1/fleet") => {
                let status = render_status(&self.state.lock().unwrap());
                Response::json(200, "OK", status)
            }
            (_, "/healthz" | "/metrics" | "/v1/fleet") => {
                return Err(method_not_allowed(req, "GET"))
            }
            (_, "/v1/fleet/register") => return Err(method_not_allowed(req, "POST")),
            (_, path) => return Err(SvcError::NotFound(format!("no route for '{path}'"))),
        };
        Ok(Some(response))
    }

    /// The control plane keeps no per-request metrics.
    fn record(&self, _path: &str, _status: u16, _timer: Timer) {}

    fn stop(&self) -> bool {
        self.state.lock().unwrap().finished
    }
}

/// The `GET /v1/fleet` document: per-worker state and block progress.
fn render_status(state: &FleetState) -> Json {
    let workers: Vec<Json> = state
        .workers
        .iter()
        .enumerate()
        .map(|(id, w)| {
            Json::Obj(vec![
                ("worker".into(), Json::Num(id as f64)),
                ("addr".into(), Json::Str(w.addr.clone())),
                ("alive".into(), Json::Bool(w.alive)),
                ("blocks_done".into(), Json::Num(w.blocks_done as f64)),
            ])
        })
        .collect();
    let (done, total) = (state.scheduler.done_blocks(), state.scheduler.total());
    Json::Obj(vec![
        ("workers".into(), Json::Arr(workers)),
        ("blocks_done".into(), Json::Num(done as f64)),
        ("blocks_total".into(), Json::Num(total as f64)),
        ("finished".into(), Json::Bool(state.finished)),
    ])
}

fn register_from_request(body: &[u8], shared: &FleetShared) -> Result<usize, SvcError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| SvcError::BadRequest("registration must be UTF-8 JSON".into()))?;
    let doc = Json::parse(text)
        .map_err(|e| SvcError::BadRequest(format!("registration is not valid JSON: {e}")))?;
    let addr = doc
        .get("addr")
        .and_then(Json::as_str)
        .ok_or_else(|| SvcError::BadRequest("registration needs an 'addr' field".into()))?;
    if addr.to_socket_addrs().map(|mut a| a.next()).ok().flatten().is_none() {
        return Err(SvcError::BadRequest(format!(
            "worker addr '{addr}' does not resolve"
        )));
    }
    let mut st = shared.state.lock().unwrap();
    // Re-registration of the same address revives the existing slot
    // (a restarted worker keeps its id and its done-counter).
    let id = match st.workers.iter().position(|w| w.addr == addr) {
        Some(id) => {
            st.workers[id].alive = true;
            st.workers[id].driver_spawned = false;
            id
        }
        None => {
            st.workers.push(WorkerEntry {
                addr: addr.to_string(),
                alive: true,
                blocks_done: 0,
                driver_spawned: false,
            });
            st.workers.len() - 1
        }
    };
    shared.changed.notify_all();
    Ok(id)
}

/// Registers a worker's advertised address with a coordinator, with
/// retry — workers usually boot before their coordinator is reachable.
///
/// # Errors
///
/// The last attempt's error once every retry failed, or a rejection
/// from the coordinator.
pub fn register_worker(
    coordinator: &str,
    advertise: &str,
    attempts: u32,
    backoff: Duration,
    client_config: &ClientConfig,
) -> io::Result<usize> {
    let body = Json::Obj(vec![("addr".into(), Json::Str(advertise.into()))])
        .to_string()
        .into_bytes();
    client::retrying(attempts, backoff, || {
        let resp = client::request_with(
            coordinator,
            "POST",
            "/v1/fleet/register",
            Some(("application/json", &body)),
            client_config,
        )?;
        if resp.status != 200 {
            return Err(rpc_error(format!(
                "registration rejected with {}: {}",
                resp.status,
                resp.text()
            )));
        }
        resp.json()
            .map_err(rpc_error)?
            .get("worker")
            .and_then(Json::as_f64)
            .map(|id| id as usize)
            .ok_or_else(|| rpc_error("registration response missing worker id".into()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_leases_completes_and_reassigns() {
        let mut s = BlockScheduler::new(10);
        assert_eq!(s.lease(0, 4), Some((0, 4)));
        assert_eq!(s.lease(1, 4), Some((4, 8)));
        assert_eq!(s.lease(0, 4), Some((8, 10)));
        assert_eq!(s.lease(1, 4), None);
        assert_eq!(s.in_flight(), 10);

        s.complete(0, 0, 4);
        assert_eq!(s.done_blocks(), 4);
        assert_eq!(s.merge_lag(), 6);

        // Worker 1 dies holding 4..8: those blocks go back to pending.
        s.fail_worker(1);
        assert_eq!(s.reassigned_blocks(), 4);
        assert_eq!(s.lease(0, 8), Some((4, 8)));
        s.complete(0, 4, 8);
        s.complete(0, 8, 10);
        assert!(s.is_complete());
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn steal_duplicates_the_oldest_foreign_lease_once() {
        let mut s = BlockScheduler::new(8);
        let a = s.lease(0, 4).unwrap();
        let _b = s.lease(1, 4).unwrap();
        // Nothing pending: worker 2 steals worker 0's older lease.
        assert_eq!(s.lease(2, 4), None);
        assert_eq!(s.steal(2), Some(a));
        // No double-duplicate of the same range by the same worker.
        assert_eq!(s.steal(2), Some((4, 8)));
        assert_eq!(s.steal(2), None);
        // Whoever finishes first wins; the duplicate completion is a
        // no-op on the done set.
        s.complete(2, a.0, a.1);
        assert_eq!(s.done_blocks(), 4);
        s.complete(0, a.0, a.1);
        assert_eq!(s.done_blocks(), 4);
    }

    #[test]
    fn failed_blocks_covered_by_a_duplicate_are_not_repended() {
        let mut s = BlockScheduler::new(4);
        let a = s.lease(0, 4).unwrap();
        assert_eq!(s.steal(1), Some(a));
        s.fail_worker(0);
        // Worker 1's duplicate still covers 0..4 — nothing re-pends.
        assert_eq!(s.reassigned_blocks(), 0);
        assert_eq!(s.lease(2, 4), None);
        s.complete(1, 0, 4);
        assert!(s.is_complete());
    }

    #[test]
    fn metrics_exposition_is_exact() {
        let mut scheduler = BlockScheduler::new(8);
        let _ = scheduler.lease(0, 4);
        let _ = scheduler.lease(1, 4);
        scheduler.complete(0, 0, 4);
        scheduler.fail_worker(1);
        let state = FleetState {
            workers: vec![
                WorkerEntry {
                    addr: "127.0.0.1:9001".into(),
                    alive: true,
                    blocks_done: 4,
                    driver_spawned: true,
                },
                WorkerEntry {
                    addr: "127.0.0.1:9002".into(),
                    alive: false,
                    blocks_done: 0,
                    driver_spawned: true,
                },
            ],
            scheduler,
            partials: Vec::new(),
            finished: false,
        };
        assert_eq!(
            render_metrics(&state),
            "# TYPE soteria_fleet_workers gauge\n\
             soteria_fleet_workers 2\n\
             # TYPE soteria_fleet_workers_alive gauge\n\
             soteria_fleet_workers_alive 1\n\
             # TYPE soteria_fleet_blocks_total gauge\n\
             soteria_fleet_blocks_total 8\n\
             # TYPE soteria_fleet_blocks_in_flight gauge\n\
             soteria_fleet_blocks_in_flight 0\n\
             # TYPE soteria_fleet_merge_lag_blocks gauge\n\
             soteria_fleet_merge_lag_blocks 4\n\
             # TYPE soteria_fleet_reassignments_total counter\n\
             soteria_fleet_reassignments_total 4\n\
             # TYPE soteria_fleet_worker_alive gauge\n\
             soteria_fleet_worker_alive{worker=\"0\"} 1\n\
             soteria_fleet_worker_alive{worker=\"1\"} 0\n\
             # TYPE soteria_fleet_worker_blocks_done counter\n\
             soteria_fleet_worker_blocks_done{worker=\"0\"} 4\n\
             soteria_fleet_worker_blocks_done{worker=\"1\"} 0\n"
        );
    }

    #[test]
    fn registration_revives_and_rejects() {
        let shared = FleetShared {
            state: Mutex::new(FleetState {
                workers: Vec::new(),
                scheduler: BlockScheduler::new(0),
                partials: Vec::new(),
                finished: false,
            }),
            changed: Condvar::new(),
            wake: Wake::new().unwrap(),
        };
        let id = register_from_request(br#"{"addr": "127.0.0.1:9001"}"#, &shared).unwrap();
        assert_eq!(id, 0);
        let id2 = register_from_request(br#"{"addr": "127.0.0.1:9002"}"#, &shared).unwrap();
        assert_eq!(id2, 1);
        shared.state.lock().unwrap().workers[0].alive = false;
        // Same address re-registers into the same, revived slot.
        let again = register_from_request(br#"{"addr": "127.0.0.1:9001"}"#, &shared).unwrap();
        assert_eq!(again, 0);
        assert!(shared.state.lock().unwrap().workers[0].alive);

        let err = register_from_request(b"{}", &shared).unwrap_err();
        assert!(err.to_string().contains("'addr'"), "{err}");
        let err = register_from_request(b"not json", &shared).unwrap_err();
        assert!(err.to_string().contains("valid JSON"), "{err}");
    }
}
