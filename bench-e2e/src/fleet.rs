//! `fleet`: small Table 4 campaign jobs sharded over two in-process
//! workers.
//!
//! Two `Server` workers (one job thread each) stay up for the whole run.
//! For each job a fresh `Coordinator` is bound, both workers register
//! through `fleet::register_worker`, and `Coordinator::run` leases the
//! job's blocks to them and merges the partials. Job `j` is seeded with
//! `stream_seed(seed, j)`. Every merged artifact is compared with a
//! single-node `run_spec` of the same job and passes the campaign checks.

use std::thread::JoinHandle;
use std::time::Duration;

use soteria_faultsim::{
    config_from_json, merge_partials, run_block_range, run_spec, total_blocks, JobSpec,
    PolicyResult, STANDARD_POLICIES,
};
use soteria_rt::json::Json;
use soteria_rt::rng::stream_seed;
use soteria_svc::client::{self, ClientConfig};
use soteria_svc::{register_worker, Coordinator, FleetConfig, Server, ServerConfig, ServerHandle};

use crate::campaign::{check_call, FaultShare};
use crate::stats::{self, Tally};
use crate::trace::Tracer;
use crate::{Metric, Outcome, Phase, Unit};

/// Total FIT per chip of a job: the low end of Table 4's sweep, so a
/// job's compute is fault sampling and rarely a loss assessment.
pub const FIT_PER_CHIP: f64 = 1.0;
/// Monte Carlo iterations per job: 48 64-iteration blocks.
pub const JOB_ITERATIONS: u64 = 48 * 64;
/// Blocks per lease: three leases per job. Each lease computes for
/// longer than a status round trip, so its first poll never finds it
/// done; with two workers the third lease is always hedged.
pub const CHUNK_BLOCKS: u64 = 16;
/// Workers in the fleet.
pub const WORKERS: usize = 2;
/// Untimed jobs in each set-up.
pub const WARMUP_JOBS: u64 = 2;
/// Jobs in each half (untraced, traced) of a traced unit.
pub const TRACE_JOBS: u64 = 12;

/// The job body `Coordinator::run` receives for job `job`.
pub fn job_body(seed: u64, job: u64) -> Json {
    Json::Obj(vec![
        ("fit".into(), Json::Num(FIT_PER_CHIP)),
        ("iterations".into(), Json::Num(JOB_ITERATIONS as f64)),
        (
            "seed".into(),
            Json::Str(format!("{:#x}", stream_seed(seed, job))),
        ),
        ("threads".into(), Json::Num(1.0)),
    ])
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        min_workers: WORKERS,
        register_timeout: Duration::from_secs(10),
        chunk_blocks: CHUNK_BLOCKS,
        ..FleetConfig::default()
    }
}

/// One in-process worker and the thread serving it.
struct Worker {
    addr: String,
    handle: ServerHandle,
    thread: Option<JoinHandle<()>>,
}

/// The two workers; dropping the fleet drains and joins them.
pub struct Fleet {
    workers: Vec<Worker>,
}

impl Fleet {
    /// Starts the workers on ephemeral localhost ports.
    pub fn start() -> Result<Self, String> {
        // Built in place, so a failed bind still drains and joins the
        // workers already started.
        let mut fleet = Self {
            workers: Vec::with_capacity(WORKERS),
        };
        for _ in 0..WORKERS {
            let config = ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            };
            let server = Server::bind("127.0.0.1:0", config)
                .map_err(|e| format!("worker bind failed: {e}"))?;
            let addr = server.local_addr().to_string();
            let handle = server.handle();
            let thread = std::thread::spawn(move || server.serve());
            fleet.workers.push(Worker {
                addr,
                handle,
                thread: Some(thread),
            });
        }
        Ok(fleet)
    }

    /// Runs one job end to end: bind a coordinator, register both
    /// workers, run, and return the merged `(result_json, ndjson)`.
    fn job(&self, body: &Json, tracer: &mut Tracer, job: u64) -> Result<(String, String), String> {
        let coordinator = Coordinator::bind("127.0.0.1:0", fleet_config())
            .map_err(|e| format!("coordinator bind failed: {e}"))?;
        let coord_addr = coordinator.local_addr().to_string();
        std::thread::scope(|s| {
            let run = s.spawn(|| {
                let start = stats::now();
                let out = coordinator.run("campaign", body);
                (out, start, stats::now())
            });
            // Both workers register at once, as independently booted
            // workers would.
            let registrations: Vec<_> = self
                .workers
                .iter()
                .map(|w| {
                    let coord_addr = &coord_addr;
                    s.spawn(move || {
                        let start = stats::now();
                        let r = register_worker(
                            coord_addr,
                            &w.addr,
                            5,
                            Duration::from_millis(20),
                            &ClientConfig::default(),
                        );
                        (r, start, stats::now())
                    })
                })
                .collect();
            let mut registered = Ok(());
            for h in registrations {
                let (r, start, end) = h.join().map_err(|_| "registration panicked".to_string())?;
                tracer.record("svc.fleet.register_worker", job, start, end);
                if let Err(e) = r {
                    registered = Err(format!("worker registration failed: {e}"));
                }
            }
            let (out, start, end) = run.join().map_err(|_| "coordinator panicked".to_string())?;
            tracer.record("svc.fleet.coordinator_run", job, start, end);
            registered?;
            out
        })
    }

    fn job_counts(&self) -> Vec<usize> {
        self.workers.iter().map(|w| w.handle.job_count()).collect()
    }

    /// `GET /v1/jobs/...` requests each worker has served.
    fn job_requests(&self) -> Result<u64, String> {
        let mut total = 0;
        for w in &self.workers {
            let text = client::get(w.addr.as_str(), "/metrics")
                .map_err(|e| format!("metrics scrape failed: {e}"))?
                .text();
            total += text
                .lines()
                .find_map(|l| l.strip_prefix("soteria_svc_latency_ns_count{endpoint=\"jobs\"} "))
                .and_then(|v| v.trim().parse::<u64>().ok())
                .unwrap_or(0);
        }
        Ok(total)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for w in &self.workers {
            w.handle.shutdown();
        }
        for w in &mut self.workers {
            if let Some(t) = w.thread.take() {
                if t.join().is_err() {
                    eprintln!("worker {} panicked", w.addr);
                }
            }
        }
    }
}

/// Checks a merged artifact: byte-identical to the single-node run of
/// the same job, and its per-policy results pass the campaign checks.
fn check_job(body: &Json, merged: &(String, String), share: &mut FaultShare) -> Result<(), String> {
    let config = config_from_json(body)?;
    let single = run_spec(&JobSpec::Campaign(config));
    if single.0 != merged.0 || single.1 != merged.1 {
        return Err("merged fleet artifact differs from the single-node run".into());
    }
    let doc = Json::parse(&merged.0).map_err(|e| format!("merged result is not JSON: {e:?}"))?;
    let rows = doc
        .get("results")
        .and_then(Json::as_array)
        .ok_or("merged result has no results array")?;
    let num = |r: &Json, k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let results: Vec<PolicyResult> = rows
        .iter()
        .zip(STANDARD_POLICIES)
        .map(|(r, policy)| PolicyResult {
            policy,
            iterations: JOB_ITERATIONS,
            iterations_with_faults: num(r, "iterations_with_faults") as u64,
            iterations_with_ue: num(r, "iterations_with_ue") as u64,
            iterations_with_udr: num(r, "iterations_with_udr") as u64,
            mean_error_ratio: num(r, "mean_error_ratio"),
            mean_udr: num(r, "mean_udr"),
        })
        .collect();
    check_call(&results)?;
    share.add(&results);
    Ok(())
}

/// The untraced measurement: one job per round.
pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let mut tally = Tally::default();
    let mut off = Tracer::new(false);
    let setup = crate::timed_setups(|| {
        let fleet = Fleet::start()?;
        // Untimed jobs on fixed inputs.
        for job in 0..WARMUP_JOBS {
            let body = job_body(crate::campaign::WARMUP_SEED, job);
            fleet.job(&body, &mut Tracer::new(false), job)?;
        }
        Ok(fleet)
    });
    let (fleet, setup_s) = match setup {
        Ok(v) => v,
        Err(e) => return Outcome::wrong(e, tally),
    };
    let mut share = FaultShare::default();
    let mut phase = Phase::start();
    let mut job = 0;
    while phase.elapsed_s() < seconds {
        let body = job_body(seed, job);
        let t0 = stats::now();
        let merged = fleet.job(&body, &mut off, job);
        phase.calls.push(stats::ns_since(t0) as f64);
        let checked = merged.and_then(|m| check_job(&body, &m, &mut share));
        tally.record(checked.is_ok());
        if let Err(e) = checked {
            return Outcome::wrong(format!("job {job}: {e}"), tally);
        }
        phase.work += JOB_ITERATIONS;
        job += 1;
    }
    let metrics = phase.end_to_end(setup_s);
    drop(fleet);
    match share.check(FIT_PER_CHIP) {
        Ok(()) => Outcome::ok(tally, metrics),
        Err(e) => Outcome::wrong(e, tally),
    }
}

/// The traced unit: [`TRACE_JOBS`] jobs untraced, then as many traced
/// with the workers' counters read around them and each job's blocks
/// recomputed and merged in process.
pub fn traced(seed: u64, tracer: &mut Tracer) -> Unit {
    let mut tally = Tally::default();
    let mut run = || -> Result<Unit, String> {
        let fleet = Fleet::start()?;
        let mut share = FaultShare::default();
        let mut off = Tracer::new(false);
        let t0 = stats::now();
        for job in 0..TRACE_JOBS {
            let body = job_body(seed, job);
            let r = fleet
                .job(&body, &mut off, job)
                .and_then(|m| check_job(&body, &m, &mut share));
            tally.record(r.is_ok());
            r?;
        }
        let untraced_ns = stats::ns_since(t0);
        let jobs_before: usize = fleet.job_counts().iter().sum();
        let requests_before = fleet.job_requests()?;
        let mut traced_ns = 0;
        let mut partial_bytes = 0usize;
        let mut blocks = 0u64;
        let mut leases_needed = 0u64;
        for job in TRACE_JOBS..2 * TRACE_JOBS {
            let body = job_body(seed, job);
            let t1 = stats::now();
            let open = tracer.enter("svc.fleet.job", job);
            let merged = fleet.job(&body, tracer, job);
            tracer.exit(open);
            traced_ns += stats::ns_since(t1);
            let r = merged.and_then(|m| check_job(&body, &m, &mut share));
            tally.record(r.is_ok());
            r?;
            // Attribution: the same blocks computed and merged in process.
            let spec = JobSpec::Campaign(config_from_json(&body)?);
            let total = total_blocks(&spec);
            leases_needed += total.div_ceil(CHUNK_BLOCKS);
            let open = tracer.enter("faultsim.shard.compute", job);
            let partials: Vec<Json> = (0..total)
                .step_by(CHUNK_BLOCKS as usize)
                .map(|lo| run_block_range(&spec, lo, lo + CHUNK_BLOCKS))
                .collect();
            tracer.exit(open);
            let open = tracer.enter("faultsim.shard.merge", job);
            let merged = merge_partials(&spec, &partials);
            tracer.exit(open);
            merged?;
            for b in 0..total {
                partial_bytes += run_block_range(&spec, b, b + 1).to_string().len();
            }
            blocks += total;
        }
        share.check(FIT_PER_CHIP)?;
        let block_jobs = (fleet.job_counts().iter().sum::<usize>() - jobs_before) as u64;
        let job_requests = fleet.job_requests()? - requests_before;
        // Which worker runs a job's hedged duplicate varies; the mean
        // over the workers does not.
        let retained = fleet.job_counts().iter().sum::<usize>() as f64 / WORKERS as f64;
        let folded = tracer.fold();
        let mean_ms = |name: &str| {
            folded
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |(_, s)| s.mean_us() / 1e3)
        };
        let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
        let metrics = vec![
            Metric::new(
                "svc.fleet.register_ms",
                mean_ms("svc.fleet.register_worker"),
                "ms",
            ),
            Metric::new(
                "svc.fleet.run_ms",
                mean_ms("svc.fleet.coordinator_run"),
                "ms",
            ),
            Metric::new(
                "faultsim.shard.compute_ms",
                mean_ms("faultsim.shard.compute"),
                "ms",
            ),
            Metric::new(
                "faultsim.shard.merge_ms",
                mean_ms("faultsim.shard.merge"),
                "ms",
            ),
            Metric::new(
                "svc.fleet.useful_lease_ratio",
                per(leases_needed, block_jobs),
                "ratio",
            ),
            // Every block job's result is fetched once; the other
            // `/v1/jobs/` requests are status polls.
            Metric::new(
                "svc.server.status_polls_per_lease",
                per(job_requests.saturating_sub(block_jobs), block_jobs),
                "count",
            ),
            Metric::new("svc.server.jobs_retained", retained, "count"),
            Metric::new(
                "rt.json.partial_kb_per_block",
                partial_bytes as f64 / 1024.0 / blocks.max(1) as f64,
                "KB",
            ),
        ];
        let counters = Json::Obj(vec![
            ("jobs".into(), Json::Num(TRACE_JOBS as f64)),
            ("leases_needed".into(), Json::Num(leases_needed as f64)),
            ("block_jobs_run".into(), Json::Num(block_jobs as f64)),
            (
                "job_endpoint_requests".into(),
                Json::Num(job_requests as f64),
            ),
            ("jobs_retained_per_worker".into(), Json::Num(retained)),
            ("blocks".into(), Json::Num(blocks as f64)),
            ("partial_bytes".into(), Json::Num(partial_bytes as f64)),
        ]);
        Ok(Unit {
            check: Ok(()),
            tally,
            metrics,
            counters,
            overhead: traced_ns as f64 / untraced_ns as f64 - 1.0,
        })
    };
    match run() {
        Ok(unit) => unit,
        Err(e) => Unit::wrong(e, tally),
    }
}
