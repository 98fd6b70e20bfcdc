//! End-to-end smoke tests of the `soteria` binary.

use std::process::Command;

fn soteria() -> Command {
    Command::new(env!("CARGO_BIN_EXE_soteria"))
}

/// Every subcommand the binary dispatches, with a listing entry.
const ALL_COMMANDS: &[&str] = &[
    "info",
    "perf",
    "campaign",
    "compare",
    "rare",
    "record",
    "crash-demo",
    "crashck",
    "trace-validate",
    "serve",
    "submit",
    "http",
    "loadgen",
    "coordinate",
    "worker",
    "help",
];

#[test]
fn help_prints_usage_with_every_command() {
    let out = soteria().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    for name in ALL_COMMANDS {
        assert!(
            text.contains(&format!("\n  {name} ")),
            "help must list {name}"
        );
    }
}

/// The command listing pinned byte-for-byte: renaming, reordering, or
/// dropping a subcommand (or its one-liner) must fail loudly here, not
/// silently reshuffle the help text.
#[test]
fn command_listing_is_pinned_exactly() {
    let out = soteria().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let expected = [
        "COMMANDS:",
        "  info           print configurations and layout math",
        "  perf           run a workload through the simulated system",
        "  campaign       Monte Carlo fault campaign (FaultSim-style)",
        "  compare        sweep every protection scheme: UDR + slowdown matrix",
        "  rare           rare-event clone-UDR estimate",
        "  record         capture a workload's memory trace to a file",
        "  crash-demo     write, crash, optionally break metadata, recover",
        "  crashck        exhaustive crash-point consistency sweep (WPQ/ADR)",
        "  trace-validate check an NDJSON trace for shape & ordering",
        "  serve          run the campaign service (HTTP API over a job queue)",
        "  submit         send a campaign to a server and fetch its artifacts",
        "  http           one-shot HTTP request against a running server",
        "  loadgen        concurrent submission burst to exercise backpressure",
        "  coordinate     shard a job across fleet workers, merge identical bytes",
        "  worker         serve jobs and register with a fleet coordinator",
        "  help           show this command listing",
        "",
    ]
    .join("\n");
    assert!(
        text.contains(&expected),
        "help listing drifted from the pinned block:\n{text}"
    );
}

#[test]
fn help_flag_matches_help_command() {
    let flag = soteria().arg("--help").output().expect("spawn");
    let command = soteria().arg("help").output().expect("spawn");
    assert!(flag.status.success());
    assert_eq!(flag.stdout, command.stdout);
    // And the flag wins even with a command present.
    let mixed = soteria()
        .args(["campaign", "--help"])
        .output()
        .expect("spawn");
    assert!(mixed.status.success());
    assert_eq!(mixed.stdout, command.stdout);
}

#[test]
fn info_lists_workloads_and_tables() {
    let out = soteria().arg("info").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Table 2"));
    assert!(text.contains("uBENCH16"));
    assert!(text.contains("ycsb"));
}

#[test]
fn unknown_command_fails_with_the_listing() {
    let out = soteria().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command 'frobnicate'"));
    assert!(err.contains("COMMANDS:"), "stderr must carry the listing");
    for name in ALL_COMMANDS {
        assert!(
            err.contains(&format!("\n  {name} ")),
            "listing after an unknown command must include {name}"
        );
    }
}

#[test]
fn perf_runs_a_small_workload() {
    let out = soteria()
        .args(["perf", "--workload", "queue", "--ops", "2000"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cycles"));
    assert!(text.contains("write breakdown"));
}

#[test]
fn perf_rejects_unknown_workload() {
    let out = soteria()
        .args(["perf", "--workload", "doom"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}

/// `coordinate --kind` goes through the job-kind table, so an unknown
/// kind gets the table's message before any port is bound.
#[test]
fn coordinate_rejects_an_unknown_kind() {
    let out = soteria()
        .args(["coordinate", "--kind", "nope", "--addr", "127.0.0.1:0"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: unknown kind 'nope' (campaign, compare, crashck)\n"
    );
}

/// A FIT past the bound once hung `campaign` and `rare` in the Poisson
/// sampler, and a negative one panicked; each command that reads `--fit`
/// now fails with the one bounded-FIT message instead.
#[test]
fn fit_options_are_bounded() {
    for (fit, shown) in [("1e300", "1e300"), ("-1", "-1.0")] {
        for cmd in [
            &["campaign", "--fit", fit, "--iters", "1"][..],
            &["rare", "--fit", fit, "--samples", "1"],
            &["compare", "--fit", fit, "--iters", "1", "--ops", "1"],
        ] {
            let out = soteria().args(cmd).output().expect("spawn");
            assert_eq!(out.status.code(), Some(1), "{cmd:?}");
            let want = format!(
                "error: option --fit: FIT per chip must be a positive number of at most 10000, \
                 got {shown}\n"
            );
            assert_eq!(String::from_utf8_lossy(&out.stderr), want, "{cmd:?}");
        }
    }
}

#[test]
fn crash_demo_with_fault_recovers_under_src() {
    let out = soteria()
        .args(["crash-demo", "--scheme", "src", "--fault"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("clone repairs      : 1"), "{text}");
    assert!(text.contains("128 intact, 0 lost"), "{text}");
}

#[test]
fn campaign_small_run_prints_schemes() {
    let out = soteria()
        .args(["campaign", "--fit", "200", "--iters", "2000"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Baseline"));
    assert!(text.contains("SAC"));
}

#[test]
fn compare_small_run_emits_matrix_artifacts() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let json = dir.join(format!("cli_compare_{pid}.json"));
    let ndjson = dir.join(format!("cli_compare_{pid}.ndjson"));
    let out = soteria()
        .args([
            "compare",
            "--iters",
            "64",
            "--ops",
            "256",
            "--threads",
            "2",
            "--json",
        ])
        .arg(&json)
        .arg("--ndjson")
        .arg(&ndjson)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for scheme in [
        "baseline",
        "src",
        "sac",
        "osiris",
        "triad1",
        "phoenix",
        "coalesced",
    ] {
        assert!(text.contains(scheme), "table must list {scheme}:\n{text}");
    }
    let report = std::fs::read_to_string(&json).expect("json artifact");
    assert!(report.contains("soteria-compare/v1"));
    let trace = std::fs::read_to_string(&ndjson).expect("ndjson artifact");
    assert!(
        trace.lines().count() >= 10,
        "config + 9 scheme_result lines"
    );
    std::fs::remove_file(&json).ok();
    std::fs::remove_file(&ndjson).ok();
}

/// Kills the server child even when an assert unwinds mid-test.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The determinism contract end-to-end at the binary level: `soteria
/// serve` + `soteria submit` produce byte-identical result JSON and
/// NDJSON trace to `soteria campaign --json/--trace` at the same seed,
/// and a `POST /v1/shutdown` drains the server to a clean exit.
#[test]
fn serve_submit_matches_campaign_bytes() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let path = |name: &str| dir.join(format!("cli_svc_{pid}_{name}"));
    let port_file = path("addr");
    let serve = soteria()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--queue",
            "4",
            "--port-file",
        ])
        .arg(&port_file)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut serve = KillOnDrop(serve);
    let mut addr = String::new();
    for _ in 0..400 {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if text.ends_with('\n') {
                addr = text.trim().to_string();
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(!addr.is_empty(), "server never wrote its port file");

    let campaign_flags = [
        "--fit",
        "1500",
        "--iters",
        "300",
        "--capacity",
        "67108864",
        "--seed",
        "0xabc",
    ];
    let out = soteria()
        .args(["submit", "--addr", &addr])
        .args(campaign_flags)
        .args(["--out"])
        .arg(path("http.json"))
        .arg("--trace-out")
        .arg(path("http.ndjson"))
        .output()
        .expect("spawn submit");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = soteria()
        .arg("campaign")
        .args(campaign_flags)
        .args(["--threads", "2", "--json"])
        .arg(path("cli.json"))
        .arg("--trace")
        .arg(path("cli.ndjson"))
        .output()
        .expect("spawn campaign");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    for name in ["json", "ndjson"] {
        let http = std::fs::read(path(&format!("http.{name}"))).expect("http artifact");
        let cli = std::fs::read(path(&format!("cli.{name}"))).expect("cli artifact");
        assert!(!http.is_empty());
        assert_eq!(
            http, cli,
            "HTTP and CLI {name} artifacts must match byte-for-byte"
        );
    }

    let out = soteria()
        .args([
            "http",
            "--addr",
            &addr,
            "--method",
            "POST",
            "--path",
            "/v1/shutdown",
        ])
        .output()
        .expect("spawn http");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let status = serve.0.wait().expect("serve exits after drain");
    assert!(status.success(), "serve must exit cleanly after the drain");

    for name in ["addr", "http.json", "http.ndjson", "cli.json", "cli.ndjson"] {
        std::fs::remove_file(path(name)).ok();
    }
}

/// The fleet contract at the binary level: `soteria coordinate` with
/// two `soteria worker` processes merges a campaign to bytes identical
/// to `soteria campaign --json/--trace` at the same seed.
#[test]
fn coordinate_with_workers_matches_campaign_bytes() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let path = |name: &str| dir.join(format!("cli_fleet_{pid}_{name}"));
    let read_addr = |file: &std::path::Path| -> String {
        for _ in 0..400 {
            if let Ok(text) = std::fs::read_to_string(file) {
                if text.ends_with('\n') {
                    return text.trim().to_string();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        panic!("no address appeared in {}", file.display());
    };

    let campaign_flags = [
        "--fit",
        "1500",
        "--iters",
        "192",
        "--capacity",
        "67108864",
        "--seed",
        "0xabc",
    ];
    let coordinate = soteria()
        .args(["coordinate", "--kind", "campaign", "--addr", "127.0.0.1:0"])
        .args(campaign_flags)
        .args(["--min-workers", "2", "--chunk", "1", "--port-file"])
        .arg(path("control"))
        .args(["--out"])
        .arg(path("fleet.json"))
        .arg("--ndjson")
        .arg(path("fleet.ndjson"))
        .spawn()
        .expect("spawn coordinate");
    let mut coordinate = KillOnDrop(coordinate);
    let control = read_addr(&path("control"));

    let workers: Vec<KillOnDrop> = (0..2)
        .map(|i| {
            let worker = soteria()
                .args(["worker", "--addr", "127.0.0.1:0", "--coordinator", &control])
                .args(["--workers", "1", "--port-file"])
                .arg(path(&format!("worker{i}")))
                .stdout(std::process::Stdio::null())
                .spawn()
                .expect("spawn worker");
            KillOnDrop(worker)
        })
        .collect();

    let status = coordinate.0.wait().expect("coordinate exits");
    assert!(status.success(), "coordinate must merge and exit cleanly");
    drop(workers);

    let out = soteria()
        .arg("campaign")
        .args(campaign_flags)
        .args(["--threads", "2", "--json"])
        .arg(path("cli.json"))
        .arg("--trace")
        .arg(path("cli.ndjson"))
        .output()
        .expect("spawn campaign");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    for name in ["json", "ndjson"] {
        let fleet = std::fs::read(path(&format!("fleet.{name}"))).expect("fleet artifact");
        let cli = std::fs::read(path(&format!("cli.{name}"))).expect("cli artifact");
        assert!(!fleet.is_empty());
        assert_eq!(
            fleet, cli,
            "fleet and CLI {name} artifacts must match byte-for-byte"
        );
    }

    for name in [
        "control",
        "worker0",
        "worker1",
        "fleet.json",
        "fleet.ndjson",
        "cli.json",
        "cli.ndjson",
    ] {
        std::fs::remove_file(path(name)).ok();
    }
}

#[test]
fn record_then_replay_roundtrip() {
    let trace = std::env::temp_dir().join(format!("cli_smoke_{}.trace", std::process::id()));
    let out = soteria()
        .args(["record", "--workload", "sps", "--ops", "3000", "--out"])
        .arg(&trace)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = soteria()
        .args(["perf", "--ops", "3000", "--trace"])
        .arg(&trace)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("trace:"));
    std::fs::remove_file(&trace).ok();
}

/// `soteria worker` reads the server flags as `serve` does: with
/// `--max-body 64` a 99-byte submission gets the `413`.
#[test]
fn worker_honours_the_server_flags() {
    let port_file = std::env::temp_dir().join(format!("cli_worker_{}_addr", std::process::id()));
    // Nothing listens on the coordinator address; the worker serves anyway.
    let worker = soteria()
        .args([
            "worker",
            "--addr",
            "127.0.0.1:0",
            "--coordinator",
            "127.0.0.1:1",
        ])
        .args(["--max-body", "64", "--port-file"])
        .arg(&port_file)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn worker");
    let _worker = KillOnDrop(worker);
    let mut addr = String::new();
    for _ in 0..400 {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if text.ends_with('\n') {
                addr = text.trim().to_string();
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(!addr.is_empty(), "worker never wrote its port file");

    let body = format!("{{\"iterations\": 64{}}}", " ".repeat(81));
    assert_eq!(body.len(), 99);
    let out = soteria()
        .args([
            "http",
            "--addr",
            &addr,
            "--method",
            "POST",
            "--path",
            "/v1/campaigns",
        ])
        .args(["--body", &body])
        .output()
        .expect("spawn http");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("HTTP 413"), "{err}");
    assert!(
        err.contains("request body exceeds the 64-byte limit"),
        "{err}"
    );
    std::fs::remove_file(&port_file).ok();
}

/// A closed stdout ends the command without a word on stderr.
#[test]
fn a_closed_stdout_ends_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = soteria()
        .arg("info")
        .stdout(writer)
        .output()
        .expect("spawn info");
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
    assert_eq!(
        out.status.code(),
        Some(141),
        "the status of a SIGPIPE death"
    );
}
