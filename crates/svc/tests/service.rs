//! End-to-end tests for the campaign service: backpressure under a
//! concurrent burst, graceful drain, HTTP-vs-CLI byte identity, pinned
//! error strings, a parse of the Prometheus exposition, and the requests
//! answered when their work ends (`/v1/blocks` shards and artifact
//! requests for running jobs).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use soteria_faultsim::job::KINDS;
use soteria_faultsim::{
    blocks_spec_from_json, compare_config_from_json, config_from_json, run_block_range,
    run_compare, run_job, run_spec,
};
use soteria_rt::json::Json;
use soteria_svc::{client, submit_burst, JobState, Server, ServerConfig, ServerHandle};

/// Boots a server on an ephemeral port; returns its address, handle,
/// and the serve-thread join handle (joins when a drain completes).
fn boot(config: ServerConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.serve());
    (addr, handle, join)
}

fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A campaign slow enough (~300ms debug) to hold the queue full while a
/// 16-client burst lands, but small enough to drain in seconds.
fn slow_campaign() -> Json {
    Json::parse(
        r#"{"fit": 1500, "iterations": 4000, "capacity_bytes": 67108864,
            "threads": 1, "seed": 7}"#,
    )
    .unwrap()
}

/// The ISSUE's acceptance scenario: pool of 2, queue of 4, 16 concurrent
/// clients. Only 202/429 are observed, at least one of each, no job is
/// lost or duplicated, every accepted job completes, and a drain
/// finishes them all before `serve` returns.
#[test]
fn backpressure_burst_then_graceful_drain() {
    let (addr, handle, join) = boot(ServerConfig {
        workers: 2,
        queue_capacity: 4,
        ..ServerConfig::default()
    });
    let report = submit_burst(addr, &slow_campaign(), 16);

    for outcome in &report.outcomes {
        assert!(
            outcome.status == 202 || outcome.status == 429,
            "burst must only see 202 or 429, got {}",
            outcome.status
        );
        if outcome.status == 429 {
            assert_eq!(outcome.retry_after_secs, Some(1), "429 carries Retry-After");
        }
    }
    let accepted = report.accepted_jobs();
    assert!(!accepted.is_empty(), "some submissions must be accepted");
    assert!(
        report.rejected() >= 1,
        "a full queue must shed at least one"
    );
    assert_eq!(accepted.len() + report.rejected(), 16);

    // No lost or duplicated jobs: the accepted ids are exactly
    // {0, …, n-1} and the server tracked precisely that many.
    let mut ids = accepted.clone();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), accepted.len(), "job ids must be unique");
    assert_eq!(ids, (0..accepted.len()).collect::<Vec<_>>());
    assert_eq!(handle.job_count(), accepted.len());

    // Begin the drain over HTTP while jobs are still running; read-only
    // endpoints stay up, and new submissions are refused with 503.
    let shutdown = client::request(addr, "POST", "/v1/shutdown", None).unwrap();
    assert_eq!(shutdown.status, 202);
    let refused = client::post_json(addr, "/v1/campaigns", &slow_campaign()).unwrap();
    assert_eq!(refused.status, 503);
    assert_eq!(
        refused
            .json()
            .unwrap()
            .get("error")
            .unwrap()
            .as_str()
            .unwrap(),
        "server is draining: finishing accepted jobs, not taking new ones"
    );
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);

    join.join().expect("serve thread");
    assert!(handle.is_drained());
    assert_eq!(handle.queue_depth(), 0);
    for id in &accepted {
        assert_eq!(
            handle.job_state(*id),
            Some(JobState::Done),
            "drain must finish job {id}"
        );
    }
}

/// The determinism contract: the bytes served over HTTP for a job are
/// identical to what the CLI path (`run_job` on the same parsed config)
/// writes to disk.
#[test]
fn http_artifacts_match_cli_bytes() {
    let body = Json::parse(
        r#"{"fit": 1500, "iterations": 128, "capacity_bytes": 67108864,
            "seed": "0x5eed", "threads": 2}"#,
    )
    .unwrap();
    let (addr, handle, join) = boot(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });

    let accepted = client::post_json(addr, "/v1/campaigns", &body).unwrap();
    assert_eq!(accepted.status, 202);
    let id = accepted
        .json()
        .unwrap()
        .get("job")
        .unwrap()
        .as_f64()
        .unwrap() as usize;
    wait_until("job to finish", Duration::from_secs(30), || {
        handle.job_state(id) == Some(JobState::Done)
    });

    let status = client::get(addr, &format!("/v1/jobs/{id}")).unwrap();
    assert_eq!(status.status, 200);
    assert_eq!(
        status
            .json()
            .unwrap()
            .get("status")
            .unwrap()
            .as_str()
            .unwrap(),
        "done"
    );

    let result = client::get(addr, &format!("/v1/jobs/{id}/result")).unwrap();
    let trace = client::get(addr, &format!("/v1/jobs/{id}/trace")).unwrap();
    assert_eq!(result.status, 200);
    assert_eq!(result.header("content-type"), Some("application/json"));
    assert_eq!(trace.status, 200);
    assert_eq!(trace.header("content-type"), Some("application/x-ndjson"));

    // The CLI path: same JSON → same config → same runner.
    let expected = run_job(&config_from_json(&body).unwrap());
    assert_eq!(result.body, expected.result_json.as_bytes(), "result bytes");
    assert_eq!(trace.body, expected.trace_ndjson.as_bytes(), "trace bytes");

    handle.shutdown();
    join.join().expect("serve thread");
}

/// The same determinism contract for the compare matrix: bytes served
/// from a `POST /v1/compare` job match `run_compare` on the same parsed
/// config — which `soteria compare --json/--ndjson` writes to disk.
#[test]
fn compare_artifacts_match_cli_bytes() {
    let body = Json::parse(
        r#"{"fit": 1500, "iterations": 96, "trace_ops": 256,
            "seed": "0x5eed", "threads": 2}"#,
    )
    .unwrap();
    let (addr, handle, join) = boot(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });

    let accepted = client::post_json(addr, "/v1/compare", &body).unwrap();
    assert_eq!(accepted.status, 202);
    let id = accepted
        .json()
        .unwrap()
        .get("job")
        .unwrap()
        .as_f64()
        .unwrap() as usize;
    wait_until("compare job to finish", Duration::from_secs(60), || {
        handle.job_state(id) == Some(JobState::Done)
    });

    let result = client::get(addr, &format!("/v1/jobs/{id}/result")).unwrap();
    let trace = client::get(addr, &format!("/v1/jobs/{id}/trace")).unwrap();
    assert_eq!(result.status, 200);
    assert_eq!(trace.status, 200);

    let expected = run_compare(&compare_config_from_json(&body).unwrap());
    assert_eq!(result.body, expected.result_json.as_bytes(), "result bytes");
    assert_eq!(trace.body, expected.ndjson.as_bytes(), "ndjson bytes");
    assert!(expected.rows.len() >= 6, "matrix must cover six+ schemes");

    // A bad compare config is rejected with the parser's message.
    let bad = client::post_json(
        addr,
        "/v1/compare",
        &Json::parse(r#"{"ecc": "double"}"#).unwrap(),
    )
    .unwrap();
    assert_eq!(bad.status, 400);

    handle.shutdown();
    join.join().expect("serve thread");
}

/// Every client-visible failure returns the pinned, actionable one-line
/// message from `SvcError`'s Display impl.
#[test]
fn error_paths_return_pinned_messages() {
    let (addr, handle, join) = boot(ServerConfig {
        workers: 1,
        read_timeout: Duration::from_millis(200),
        limits: soteria_svc::http::ReadLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 256,
        },
        ..ServerConfig::default()
    });
    let error_of = |resp: &client::HttpResponse| {
        resp.json()
            .unwrap()
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };

    let resp = client::get(addr, "/nope").unwrap();
    assert_eq!(resp.status, 404);
    assert_eq!(error_of(&resp), "not found: no route for '/nope'");

    let resp = client::request(addr, "PUT", "/healthz", None).unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(error_of(&resp), "method PUT not allowed here (use GET)");

    let resp = client::request(
        addr,
        "POST",
        "/v1/campaigns",
        Some(("application/json", b"{nope".as_slice())),
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    assert!(
        error_of(&resp).starts_with("bad request: config is not valid JSON:"),
        "got: {}",
        error_of(&resp)
    );

    let resp = client::post_json(
        addr,
        "/v1/campaigns",
        &Json::parse(r#"{"iters": 5}"#).unwrap(),
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(
        error_of(&resp),
        "bad request: unknown field 'iters' (fit, iterations, ecc, tree, scrub_hours, seed, \
         threads, capacity_bytes)"
    );

    let resp = client::get(addr, "/v1/jobs/99").unwrap();
    assert_eq!(resp.status, 404);
    assert_eq!(error_of(&resp), "not found: job 99");

    let resp = client::get(addr, "/v1/jobs/abc").unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(
        error_of(&resp),
        "bad request: job id must be a non-negative integer, got 'abc'"
    );

    let oversized = vec![b' '; 300];
    let resp = client::request(
        addr,
        "POST",
        "/v1/campaigns",
        Some(("application/json", oversized.as_slice())),
    )
    .unwrap();
    assert_eq!(resp.status, 413);
    assert_eq!(error_of(&resp), "request body exceeds the 256-byte limit");

    // A stalled request: headers promise a body that never arrives.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /v1/campaigns HTTP/1.1\r\nContent-Length: 10\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(
        raw.starts_with("HTTP/1.1 408 Request Timeout"),
        "got: {raw}"
    );
    assert!(
        raw.contains(
            "request timed out: send the complete request within the server's read timeout"
        ),
        "got: {raw}"
    );

    handle.shutdown();
    join.join().expect("serve thread");
}

/// `/metrics` exposes queue depth, in-flight, request totals, the 429
/// counter, and per-endpoint latency histograms — and the whole payload
/// parses as Prometheus text exposition with cumulative buckets.
#[test]
fn metrics_expose_and_parse() {
    let (addr, handle, join) = boot(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });

    // Traffic: health checks, one running job, one queued, one shed.
    for _ in 0..3 {
        assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    }
    assert_eq!(
        client::post_json(addr, "/v1/campaigns", &slow_campaign())
            .unwrap()
            .status,
        202
    );
    wait_until("worker to claim job 0", Duration::from_secs(10), || {
        handle.job_state(0) == Some(JobState::Running)
    });
    assert_eq!(
        client::post_json(addr, "/v1/campaigns", &slow_campaign())
            .unwrap()
            .status,
        202
    );
    let shed = client::post_json(addr, "/v1/campaigns", &slow_campaign()).unwrap();
    assert_eq!(shed.status, 429);
    assert_eq!(
        shed.json().unwrap().get("error").unwrap().as_str().unwrap(),
        "job queue is full; retry after 1s (see Retry-After)"
    );

    let resp = client::get(addr, "/metrics").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp
        .header("content-type")
        .unwrap()
        .starts_with("text/plain"));
    let text = resp.text();

    // Every line is either a TYPE comment or `name[{labels}] value`.
    let mut samples: Vec<(String, f64)> = Vec::new();
    for line in text.lines() {
        if let Some(comment) = line.strip_prefix("# TYPE ") {
            let mut parts = comment.split(' ');
            let (name, kind) = (parts.next().unwrap(), parts.next().unwrap_or(""));
            assert!(name.starts_with("soteria_svc_"), "bad TYPE line: {line}");
            assert!(
                matches!(kind, "counter" | "histogram" | "gauge"),
                "bad TYPE kind: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value: {line}"));
        assert!(value.is_finite(), "non-finite sample: {line}");
        samples.push((series.to_string(), value));
    }
    let get = |series: &str| -> f64 {
        samples
            .iter()
            .find(|(s, _)| s == series)
            .unwrap_or_else(|| panic!("missing series {series} in:\n{text}"))
            .1
    };

    // Gauges reflect the live state: one running, one queued.
    assert_eq!(get("soteria_svc_queue_depth"), 1.0);
    assert_eq!(get("soteria_svc_in_flight"), 1.0);
    assert_eq!(get("soteria_svc_jobs_total"), 2.0);
    // Counters: 3 health + 3 submits so far (the /metrics request itself
    // is counted after its response snapshot).
    assert_eq!(get("soteria_svc_requests_total"), 6.0);
    assert_eq!(get("soteria_svc_jobs_submitted"), 2.0);
    assert_eq!(get("soteria_svc_rejected{code=\"429\"}"), 1.0);
    // Per-endpoint latency histograms: 3 healthz observations, and
    // cumulative buckets must be monotone up to +Inf == _count.
    assert_eq!(
        get("soteria_svc_latency_ns_count{endpoint=\"healthz\"}"),
        3.0
    );
    assert_eq!(
        get("soteria_svc_latency_ns_bucket{endpoint=\"healthz\",le=\"+Inf\"}"),
        3.0
    );
    assert!(get("soteria_svc_latency_ns_sum{endpoint=\"healthz\"}") > 0.0);
    let mut last = 0.0;
    for (series, value) in &samples {
        if series.starts_with("soteria_svc_latency_ns_bucket{endpoint=\"campaigns\"") {
            assert!(*value >= last, "buckets must be cumulative: {series}");
            last = *value;
        }
    }
    assert_eq!(
        last,
        get("soteria_svc_latency_ns_count{endpoint=\"campaigns\"}")
    );

    handle.shutdown();
    join.join().expect("serve thread");
}

/// Every kind of the job-kind table is served on its table route: the
/// result and NDJSON bytes of a job submitted there match `run_spec` on
/// the same body, a `GET` on the route is a `405`, and the route's
/// latency lands under its pinned `/metrics` endpoint label.
#[test]
fn every_kind_submits_on_its_table_route() {
    let (addr, handle, join) = boot(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    for kind in &KINDS {
        let (body, label) = match kind.name {
            "campaign" => (
                r#"{"fit": 1500, "iterations": 64, "capacity_bytes": 67108864,
                    "seed": "0x5eed", "threads": 1}"#,
                "campaigns",
            ),
            "compare" => (
                r#"{"fit": 1500, "iterations": 64, "trace_ops": 128, "seed": "0x5eed"}"#,
                "compare",
            ),
            "crashck" => (
                r#"{"seed": "0x50f3", "scripts_per_cell": 1, "max_txns": 2,
                    "max_writes": 2}"#,
                "crashck",
            ),
            other => panic!("no test body for kind '{other}'"),
        };
        let body = Json::parse(body).unwrap();
        let accepted = client::post_json(addr, kind.route, &body).unwrap();
        assert_eq!(accepted.status, 202, "{}", kind.name);
        let doc = accepted.json().unwrap();
        let id = doc.get("job").and_then(Json::as_f64).unwrap() as usize;
        wait_until("job to finish", Duration::from_secs(120), || {
            handle.job_state(id) == Some(JobState::Done)
        });
        let result = client::get(addr, &format!("/v1/jobs/{id}/result")).unwrap();
        let trace = client::get(addr, &format!("/v1/jobs/{id}/trace")).unwrap();
        let (result_json, ndjson) = run_spec(&(kind.parse)(&body).unwrap());
        assert_eq!(result.body, result_json.as_bytes(), "{} result", kind.name);
        assert_eq!(trace.body, ndjson.as_bytes(), "{} ndjson", kind.name);

        let wrong = client::get(addr, kind.route).unwrap();
        assert_eq!(wrong.status, 405, "{}", kind.name);
        let metrics = client::get(addr, "/metrics").unwrap().text();
        let series = format!("soteria_svc_latency_ns_count{{endpoint=\"{label}\"}} ");
        assert!(metrics.contains(&series), "{} missing {series}", kind.name);
    }
    handle.shutdown();
    join.join().expect("serve thread");
}

/// A `/v1/blocks` body for blocks `lo..hi` of a small campaign.
fn shard_body(lo: u64, hi: u64) -> Json {
    Json::parse(&format!(
        r#"{{"kind": "campaign", "lo": {lo}, "hi": {hi},
            "config": {{"fit": 1500, "iterations": 256, "capacity_bytes": 67108864,
                        "seed": "0x5eed", "threads": 1}}}}"#
    ))
    .unwrap()
}

/// The value of an unlabelled `/metrics` series.
fn metric(addr: SocketAddr, series: &str) -> String {
    let text = client::get(addr, "/metrics").unwrap().text();
    let prefix = format!("{series} ");
    text.lines()
        .find_map(|line| line.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("missing series {series} in:\n{text}"))
        .to_string()
}

/// A shard is one request: the `200` answer is the range's partial
/// document, byte for byte, and the server keeps no job for it (no id to
/// fetch, `jobs_total` 0) while `job_count` still counts it.
#[test]
fn a_shard_is_answered_with_its_partial_and_retained_nowhere() {
    let (addr, handle, join) = boot(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let body = shard_body(1, 3);
    let resp = client::post_json(addr, "/v1/blocks", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("content-type"), Some("application/json"));
    let (spec, range) = blocks_spec_from_json(&body).unwrap();
    let expected = run_block_range(&spec, range.start, range.end).to_pretty_string();
    assert_eq!(resp.body, expected.as_bytes(), "partial bytes");

    assert_eq!(client::get(addr, "/v1/jobs/0").unwrap().status, 404);
    assert_eq!(metric(addr, "soteria_svc_jobs_total"), "0");
    assert_eq!(handle.job_count(), 1);

    handle.shutdown();
    join.join().expect("serve thread");
}

/// A shard meets the same admission as a job: `429` with `Retry-After: 1`
/// against a full queue, `503` once a drain has begun.
#[test]
fn shards_are_shed_when_the_queue_is_full_and_refused_while_draining() {
    let (addr, handle, join) = boot(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    // One job running, one queued: the queue is full.
    let submit = || client::post_json(addr, "/v1/campaigns", &slow_campaign()).unwrap();
    assert_eq!(submit().status, 202);
    wait_until("a worker to claim job 0", Duration::from_secs(10), || {
        handle.job_state(0) == Some(JobState::Running)
    });
    assert_eq!(submit().status, 202);
    let shed = client::post_json(addr, "/v1/blocks", &shard_body(0, 1)).unwrap();
    assert_eq!(shed.status, 429);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert_eq!(
        shed.json().unwrap().get("error").unwrap().as_str().unwrap(),
        "job queue is full; retry after 1s (see Retry-After)"
    );

    handle.shutdown();
    let refused = client::post_json(addr, "/v1/blocks", &shard_body(0, 1)).unwrap();
    assert_eq!(refused.status, 503);
    join.join().expect("serve thread");
}

/// An artifact request for a running job waits for it and gets exactly
/// the bytes a request sent after the job ended gets.
#[test]
fn artifact_requests_for_a_running_job_are_answered_when_it_ends() {
    let (addr, handle, join) = boot(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    assert_eq!(
        client::post_json(addr, "/v1/campaigns", &slow_campaign())
            .unwrap()
            .status,
        202
    );
    wait_until("a worker to claim job 0", Duration::from_secs(10), || {
        handle.job_state(0) == Some(JobState::Running)
    });
    let early: Vec<_> = ["result", "trace"]
        .map(|artifact| {
            std::thread::spawn(move || {
                client::get(addr, &format!("/v1/jobs/0/{artifact}")).unwrap()
            })
        })
        .into_iter()
        .map(|t| t.join().expect("artifact request"))
        .collect();
    assert_eq!(handle.job_state(0), Some(JobState::Done));
    for (early, artifact) in early.iter().zip(["result", "trace"]) {
        let late = client::get(addr, &format!("/v1/jobs/0/{artifact}")).unwrap();
        assert_eq!(early.status, 200, "{artifact}: {}", early.text());
        assert_eq!(late.status, 200, "{artifact}");
        assert_eq!(early.header("content-type"), late.header("content-type"));
        assert_eq!(early.body, late.body, "{artifact} bytes");
    }
    let expected = run_job(&config_from_json(&slow_campaign()).unwrap());
    assert_eq!(early[0].body, expected.result_json.as_bytes());

    handle.shutdown();
    join.join().expect("serve thread");
}

/// A drain finishes the job a parked request waits on and answers that
/// request before `serve` returns.
#[test]
fn a_request_parked_when_a_drain_starts_is_answered_before_serve_returns() {
    let (addr, handle, join) = boot(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    assert_eq!(
        client::post_json(addr, "/v1/campaigns", &slow_campaign())
            .unwrap()
            .status,
        202
    );
    wait_until("a worker to claim job 0", Duration::from_secs(10), || {
        handle.job_state(0) == Some(JobState::Running)
    });
    let mut parked = TcpStream::connect(addr).unwrap();
    parked
        .write_all(b"GET /v1/jobs/0/result HTTP/1.1\r\n\r\n")
        .unwrap();
    // One round trip on another connection, so the reactor has read the
    // parked request before the drain begins.
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    handle.shutdown();
    join.join().expect("serve thread");

    let mut raw = Vec::new();
    parked.read_to_end(&mut raw).unwrap();
    let expected = run_job(&config_from_json(&slow_campaign()).unwrap());
    let text = String::from_utf8(raw).unwrap();
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
    assert!(
        text.ends_with(&expected.result_json),
        "the parked answer is the result"
    );
}
