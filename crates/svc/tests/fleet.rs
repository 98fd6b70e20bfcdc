//! Fleet end-to-end: a coordinator sharding real jobs over in-process
//! worker servers must merge to **byte-identical** artifacts vs a
//! single-node run at the same seed — for every job kind, for any
//! worker count, and across worker failures (a registered-but-dead
//! address, a worker that drops its lease unanswered, and one that never
//! answers). The coordinator's control plane answers with pinned bytes
//! and keeps serving while a client stalls mid-request.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use soteria_faultsim::{
    compare_config_from_json, config_from_json, crashck_config_from_json, run_spec, JobSpec,
};
use soteria_rt::json::Json;
use soteria_svc::client::ClientConfig;
use soteria_svc::{fleet, Coordinator, FleetConfig, Server, ServerConfig, ServerHandle};

/// Boots a worker server on an ephemeral port.
fn boot_worker() -> (SocketAddr, ServerHandle, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind worker");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = thread::spawn(move || server.serve());
    (addr, handle, join)
}

/// An address that accepts nothing: bound, resolved, then dropped.
fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind throwaway port");
    listener.local_addr().expect("throwaway addr")
}

fn fast_fleet_config(min_workers: usize, chunk_blocks: u64) -> FleetConfig {
    FleetConfig {
        min_workers,
        register_timeout: Duration::from_secs(10),
        chunk_blocks,
        rpc_attempts: 2,
        rpc_backoff: Duration::from_millis(20),
        ..FleetConfig::default()
    }
}

/// Runs `kind`/`config_body` through a coordinator with the given
/// worker addresses (some may be dead) and returns the merged artifact.
fn run_fleet(
    kind: &str,
    config_body: &Json,
    worker_addrs: &[SocketAddr],
    config: FleetConfig,
) -> (String, String) {
    let coordinator =
        Coordinator::bind("127.0.0.1:0", config).expect("bind coordinator control plane");
    let control = coordinator.local_addr();
    let kind = kind.to_string();
    let body = config_body.clone();
    let run = thread::spawn(move || coordinator.run(&kind, &body));
    for addr in worker_addrs {
        let id = fleet::register_worker(
            &control.to_string(),
            &addr.to_string(),
            10,
            Duration::from_millis(20),
            &Default::default(),
        )
        .expect("register worker");
        assert!(id < worker_addrs.len(), "worker ids are dense");
    }
    run.join()
        .expect("coordinator thread")
        .expect("fleet run must converge")
}

#[test]
fn fleet_campaign_is_byte_identical_to_single_node() {
    let body =
        Json::parse(r#"{"fit": 1500, "iterations": 192, "threads": 2, "seed": 42}"#).unwrap();
    let expected = run_spec(&JobSpec::Campaign(config_from_json(&body).unwrap()));

    let workers: Vec<_> = (0..3).map(|_| boot_worker()).collect();
    let addrs: Vec<_> = workers.iter().map(|(a, _, _)| *a).collect();
    let got = run_fleet("campaign", &body, &addrs, fast_fleet_config(3, 1));
    assert_eq!(
        got, expected,
        "3-worker campaign merge must match single-node bytes"
    );
    // Shards are answered, never kept as jobs.
    for addr in &addrs {
        let metrics = soteria_svc::client::get(addr, "/metrics").unwrap().text();
        assert!(
            metrics.contains("\nsoteria_svc_jobs_total 0\n"),
            "{metrics}"
        );
    }

    for (_, handle, join) in workers {
        handle.shutdown();
        join.join().unwrap();
    }
}

#[test]
fn fleet_compare_and_crashck_are_byte_identical_to_single_node() {
    let compare_body = Json::parse(r#"{"fit": 1500, "iterations": 128, "seed": 9}"#).unwrap();
    let crashck_body = Json::parse(r#"{"seed": "0x50f3", "scripts_per_cell": 1}"#).unwrap();
    let expected_compare = run_spec(&JobSpec::Compare(
        compare_config_from_json(&compare_body).unwrap(),
    ));
    let expected_crashck = run_spec(&JobSpec::Crashck(
        crashck_config_from_json(&crashck_body).unwrap(),
    ));

    let workers: Vec<_> = (0..2).map(|_| boot_worker()).collect();
    let addrs: Vec<_> = workers.iter().map(|(a, _, _)| *a).collect();
    let got_compare = run_fleet("compare", &compare_body, &addrs, fast_fleet_config(2, 1));
    assert_eq!(
        got_compare, expected_compare,
        "compare merge must match single-node bytes"
    );
    let got_crashck = run_fleet("crashck", &crashck_body, &addrs, fast_fleet_config(2, 4));
    assert_eq!(
        got_crashck, expected_crashck,
        "crashck merge must match single-node bytes"
    );

    for (_, handle, join) in workers {
        handle.shutdown();
        join.join().unwrap();
    }
}

/// A worker that died mid-lease: it accepts each lease and closes the
/// connection unanswered, until a connection sends `STOP`. The thread
/// returns how many leases it dropped.
fn closing_worker() -> (SocketAddr, thread::JoinHandle<usize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind closing stub");
    let addr = listener.local_addr().expect("closing stub addr");
    let join = thread::spawn(move || {
        let mut dropped = 0;
        for mut stream in listener.incoming().flatten() {
            let mut head = [0u8; 64];
            let n = stream.read(&mut head).unwrap_or(0);
            if head[..n].starts_with(b"STOP") {
                break;
            }
            dropped += 1;
        }
        dropped
    });
    (addr, join)
}

/// The resilience scenario, with every failure in place before the run
/// starts: one registered worker is a dead address (refused), one drops
/// each lease unanswered, and one accepts leases but never answers (a
/// hung worker; its listener is never accepted from, and the 200 ms read
/// timeout declares it dead). The three live workers absorb the
/// reassigned blocks, the merge lands on the exact single-node bytes, and
/// `run` returns.
#[test]
fn fleet_survives_dead_closing_and_hung_workers_with_identical_bytes() {
    let body = Json::parse(
        r#"{"fit": 1500, "iterations": 1536, "capacity_bytes": 67108864,
            "threads": 1, "seed": 77}"#,
    )
    .unwrap();
    let expected = run_spec(&JobSpec::Campaign(config_from_json(&body).unwrap()));

    let workers: Vec<_> = (0..3).map(|_| boot_worker()).collect();
    let hung = TcpListener::bind("127.0.0.1:0").expect("bind hung stub");
    let (closing, closing_join) = closing_worker();
    let mut addrs: Vec<_> = workers.iter().map(|(a, _, _)| *a).collect();
    addrs.extend([dead_addr(), closing, hung.local_addr().unwrap()]);
    let config = FleetConfig {
        client: ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_millis(200),
        },
        ..fast_fleet_config(addrs.len(), 2)
    };
    let got = run_fleet("campaign", &body, &addrs, config);
    assert_eq!(
        got, expected,
        "merge must match single-node bytes despite dead, closing and hung workers"
    );
    // Both stubs were leased to: the coordinator's connections wait in
    // the hung stub's accept queue, and the closing stub dropped some.
    hung.set_nonblocking(true).unwrap();
    assert!(hung.accept().is_ok(), "the hung stub was never leased to");
    TcpStream::connect(closing)
        .unwrap()
        .write_all(b"STOP")
        .unwrap();
    assert!(
        closing_join.join().unwrap() > 0,
        "the closing stub was never leased to"
    );

    for (_, handle, join) in workers {
        handle.shutdown();
        join.join().unwrap();
    }
}

/// Sends `request` raw and returns every byte the server wrote before
/// closing the connection.
fn exchange(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect control plane");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    stream.write_all(request).expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    String::from_utf8(response).expect("response is UTF-8")
}

/// The control plane's responses, byte for byte, while `Coordinator::run`
/// waits for its quorum: the probes CI runs against a real coordinator,
/// plus the pinned 404, 405 and 400 errors.
#[test]
fn control_plane_answers_with_pinned_bytes_while_waiting_for_quorum() {
    let (worker, handle, join) = boot_worker();
    let coordinator = Coordinator::bind("127.0.0.1:0", fast_fleet_config(1, 1))
        .expect("bind coordinator control plane");
    let control = coordinator.local_addr();
    let body = Json::parse(r#"{"fit": 1500, "iterations": 64, "threads": 1, "seed": 3}"#).unwrap();
    let expected = run_spec(&JobSpec::Campaign(config_from_json(&body).unwrap()));
    let run = thread::spawn(move || coordinator.run("campaign", &body));

    let get = |path: &str| exchange(control, format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes());
    assert_eq!(
        get("/healthz"),
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: 3\r\nConnection: close\r\n\r\nok\n"
    );
    assert_eq!(
        get("/v1/fleet"),
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 82\r\n\
         Connection: close\r\n\r\n{\n  \"workers\": [],\n  \"blocks_done\": 0,\n  \
         \"blocks_total\": 1,\n  \"finished\": false\n}\n"
    );
    assert_eq!(
        get("/metrics"),
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: 526\r\nConnection: close\r\n\r\n\
         # TYPE soteria_fleet_workers gauge\n\
         soteria_fleet_workers 0\n\
         # TYPE soteria_fleet_workers_alive gauge\n\
         soteria_fleet_workers_alive 0\n\
         # TYPE soteria_fleet_blocks_total gauge\n\
         soteria_fleet_blocks_total 1\n\
         # TYPE soteria_fleet_blocks_in_flight gauge\n\
         soteria_fleet_blocks_in_flight 0\n\
         # TYPE soteria_fleet_merge_lag_blocks gauge\n\
         soteria_fleet_merge_lag_blocks 1\n\
         # TYPE soteria_fleet_reassignments_total counter\n\
         soteria_fleet_reassignments_total 0\n\
         # TYPE soteria_fleet_worker_alive gauge\n\
         # TYPE soteria_fleet_worker_blocks_done counter\n"
    );
    assert_eq!(
        get("/nope"),
        "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 49\r\n\
         Connection: close\r\n\r\n{\n  \"error\": \"not found: no route for '/nope'\"\n}\n"
    );
    assert_eq!(
        exchange(control, b"PUT /healthz HTTP/1.1\r\n\r\n"),
        "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\n\
         Content-Length: 55\r\nConnection: close\r\n\r\n\
         {\n  \"error\": \"method PUT not allowed here (use GET)\"\n}\n"
    );
    assert_eq!(
        exchange(control, b"BROKEN\r\n\r\n"),
        "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nContent-Length: 62\r\n\
         Connection: close\r\n\r\n\
         {\n  \"error\": \"bad request: malformed request line 'BROKEN'\"\n}\n"
    );

    fleet::register_worker(
        &control.to_string(),
        &worker.to_string(),
        10,
        Duration::from_millis(20),
        &Default::default(),
    )
    .expect("register worker");
    let got = run.join().expect("coordinator thread").expect("fleet run");
    assert_eq!(
        got, expected,
        "the probed run still merges to single-node bytes"
    );
    handle.shutdown();
    join.join().unwrap();
}

/// A client that sent its head but withholds the promised body must not
/// hold up a worker's registration: the control plane answers the
/// registration while the stalled request is still unanswered.
#[test]
fn a_stalled_control_client_does_not_delay_registration() {
    let (worker, handle, join) = boot_worker();
    let coordinator = Coordinator::bind("127.0.0.1:0", fast_fleet_config(1, 1))
        .expect("bind coordinator control plane");
    let control = coordinator.local_addr();
    let body = Json::parse(r#"{"fit": 1500, "iterations": 64, "threads": 1, "seed": 4}"#).unwrap();
    let run = thread::spawn(move || coordinator.run("campaign", &body));

    let mut stalled = TcpStream::connect(control).expect("connect stalled client");
    stalled
        .write_all(b"POST /v1/fleet/register HTTP/1.1\r\nContent-Length: 64\r\n\r\n")
        .expect("send head");
    fleet::register_worker(
        &control.to_string(),
        &worker.to_string(),
        10,
        Duration::from_millis(20),
        &Default::default(),
    )
    .expect("register worker");
    stalled.set_nonblocking(true).expect("non-blocking probe");
    let mut byte = [0u8; 1];
    match stalled.read(&mut byte) {
        Err(e) if e.kind() == ErrorKind::WouldBlock => {}
        other => panic!("the stalled request was settled before the registration: {other:?}"),
    }
    drop(stalled);

    run.join().expect("coordinator thread").expect("fleet run");
    handle.shutdown();
    join.join().unwrap();
}
