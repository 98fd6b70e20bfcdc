//! `soteria` — the command-line face of the Soteria secure-NVM simulator.
//!
//! ```text
//! soteria info                          # configs (Tables 2/3/4), layout math
//! soteria perf --workload pmemkv --ops 200000 --scheme sac --cores 4
//! soteria campaign --fit 80 --iters 100000 [--ecc secded] [--tree bmt] [--scrub 24]
//! soteria compare --iters 512 --ops 2048 # every scheme: UDR + slowdown matrix
//! soteria rare --fit 80 --samples 3000  # importance-sampled clone UDR
//! soteria crash-demo --scheme src [--fault]
//! ```

mod args;

use std::io::ErrorKind;
use std::process::ExitCode;
use std::time::Duration;

/// std's `print!`/`println!`, through [`write_stdout`].
macro_rules! print {
    ($($arg:tt)*) => { $crate::write_stdout(format!($($arg)*).as_bytes()) };
}
macro_rules! println {
    ($($arg:tt)*) => { print!("{}\n", format_args!($($arg)*)) };
}

use args::Args;
use soteria::analysis::ExpectedLossModel;
use soteria::clone::CloningPolicy;
use soteria::recovery::recover;
use soteria::{DataAddr, SecureMemoryConfig, SecureMemoryController};
use soteria_faultsim::job::{parse_ecc, parse_tree};
use soteria_faultsim::{
    cluster_mtbf_hours, estimate_clone_udr, report_json, run_campaign_traced, run_compare,
    run_crashck, CampaignConfig, CompareConfig, CrashckConfig, JobSpec, STANDARD_POLICIES,
};
use soteria_rt::json::Json;
use soteria_simcpu::{System, SystemConfig};
use soteria_svc::client::{self, ClientConfig};
use soteria_svc::http::ReadLimits;
use soteria_svc::{
    fleet, submit_burst, Coordinator, FleetConfig, LoadReport, Server, ServerConfig,
};
use soteria_workloads::{standard_suite, SuiteConfig, Workload};

/// Every subcommand with its one-line description — the single source
/// behind `help`, `--help`, and the unknown-command listing. The
/// dispatcher in [`run`] must have an arm per entry (a unit test cross
/// checks the usage text against this table).
const COMMANDS: &[(&str, &str)] = &[
    ("info", "print configurations and layout math"),
    ("perf", "run a workload through the simulated system"),
    ("campaign", "Monte Carlo fault campaign (FaultSim-style)"),
    (
        "compare",
        "sweep every protection scheme: UDR + slowdown matrix",
    ),
    ("rare", "rare-event clone-UDR estimate"),
    ("record", "capture a workload's memory trace to a file"),
    (
        "crash-demo",
        "write, crash, optionally break metadata, recover",
    ),
    (
        "crashck",
        "exhaustive crash-point consistency sweep (WPQ/ADR)",
    ),
    (
        "trace-validate",
        "check an NDJSON trace for shape & ordering",
    ),
    (
        "serve",
        "run the campaign service (HTTP API over a job queue)",
    ),
    (
        "submit",
        "send a campaign to a server and fetch its artifacts",
    ),
    ("http", "one-shot HTTP request against a running server"),
    (
        "loadgen",
        "concurrent submission burst to exercise backpressure",
    ),
    (
        "coordinate",
        "shard a job across fleet workers, merge identical bytes",
    ),
    ("worker", "serve jobs and register with a fleet coordinator"),
    ("help", "show this command listing"),
];

/// The `COMMANDS:` block shown by help and after an unknown command.
fn command_listing() -> String {
    let mut out = String::from("COMMANDS:\n");
    for (name, one_liner) in COMMANDS {
        out.push_str(&format!("  {name:<15}{one_liner}\n"));
    }
    out
}

const OPTION_DETAILS: &str = "\
OPTIONS (by command):
  perf
      --workload NAME          suite workload (default sps; try `soteria info`)
      --ops N                  memory operations per core (default 100000)
      --scheme S               baseline | src | sac (default src)
      --cores N                co-running copies (default 1)
      --trace PATH             replay a recorded trace instead of a workload
      --metrics                print a controller metrics snapshot
  campaign
      --fit F                  FIT per chip (default 80)
      --iters N                iterations (default 100000)
      --ecc E                  secded | chipkill | double (default chipkill)
      --tree T                 toc | bmt (default toc)
      --scrub HOURS            patrol-scrub interval (default: off)
      --seed S                 RNG seed, decimal or 0x-hex (default Table 4)
      --capacity BYTES         protected capacity (default 16 GiB)
      --threads N              worker threads (result & trace are identical
                               for any N; default: all cores)
      --trace PATH             write a deterministic NDJSON event trace
      --json PATH              write results + metrics snapshot as JSON
  compare
      --fit F                  FIT per chip (default 1500)
      --iters N                Monte Carlo iterations (default 512)
      --ops N                  slowdown-trace operations (default 2048)
      --seed S                 RNG seed, decimal or 0x-hex
      --capacity BYTES         protected capacity (default 64 MiB)
      --threads N              worker threads (artifacts are byte-identical
                               for any N; default 1)
      --json PATH              write the soteria-compare/v1 matrix
      --ndjson PATH            write per-iteration UDR + per-scheme records
  rare
      --fit F                  FIT per chip (default 80)
      --samples N              samples per conditioned k (default 3000)
  record
      --workload NAME          suite workload (default sps)
      --ops N                  operations to record (default 100000)
      --out PATH               output file (default workload.trace)
  crash-demo
      --scheme S               baseline | src | sac (default src)
      --fault                  inject a 2-chip fault into a counter block
      --trace PATH             write the controller/recovery event trace
  crashck
      --seed S                 script-stream seed, decimal or 0x-hex
      --scripts N              transaction scripts per matrix cell (default 2)
      --txns N                 max transactions per script (default 6)
      --writes N               max writes per transaction (default 3)
      --threads N              worker threads (report is byte-identical
                               for any N; default: all cores)
      --json PATH              write the soteria-crashck/v1 report
      --ndjson PATH            write one NDJSON record per sweep
  trace-validate
      --file PATH              trace file to validate
  serve
      --addr A                 listen address (default 127.0.0.1:7787; port 0
                               picks an ephemeral port)
      --workers N              campaign worker threads (default 2)
      --queue N                queued-job capacity before 429 (default 8)
      --max-body BYTES         request body limit (default 1048576)
      --read-timeout-ms N      per-connection read timeout (default 5000)
      --port-file PATH         write the bound address for scripts
  submit                       (campaign options: --fit --iters --ecc --tree
                                --scrub --seed --threads --capacity; the
                                server's defaults are Table 4 with 10000
                                iterations)
      --addr A                 server address (default 127.0.0.1:7787)
      --out PATH               write the result JSON (default: stdout)
      --trace-out PATH         also fetch and write the NDJSON trace
      --timeout-s N            how long to wait for the result (default 600)
  http
      --addr A                 server address (default 127.0.0.1:7787)
      --method M               request method (default GET)
      --path P                 request path (default /healthz)
      --body JSON              request body (sent as application/json)
  loadgen                      (campaign options as for submit)
      --addr A                 server address (default 127.0.0.1:7787)
      --clients N              concurrent submitters (default 16)
      --targets LIST           comma-separated host:port list; clients are
                               fanned out round-robin across the targets
                               (overrides --addr)
  coordinate                   (job options per --kind: campaign flags as
                                for submit; compare: --fit --iters --ops
                                --seed --threads --capacity; crashck:
                                --seed --scripts --txns --writes --threads)
      --kind K                 campaign | compare | crashck (default campaign)
      --addr A                 control-plane listen address (default
                               127.0.0.1:7799; port 0 picks an ephemeral one)
      --min-workers N          registrations to wait for before sharding
                               (default 1)
      --chunk N                accumulation blocks per lease (default 4); a
                               lease must compute within its 10 s read timeout
      --register-timeout-s N   how long to wait for the starting quorum
                               (default 30)
      --out PATH               write the merged result JSON (default: stdout)
      --ndjson PATH            write the merged NDJSON artifact
      --port-file PATH         write the bound control address for scripts
  worker                       (server options as for serve)
      --coordinator A          coordinator control-plane address (required)
      --advertise A            address the coordinator should dial back
                               (default: the bound listen address)
";

fn usage() -> String {
    format!(
        "soteria — resilient integrity-protected & encrypted NVM simulator (MICRO'21 reproduction)\n\
         \nUSAGE: soteria <command> [--option value ...]\n\n{}\n{}",
        command_listing(),
        OPTION_DETAILS
    )
}

fn scheme_of(name: &str) -> Result<CloningPolicy, String> {
    match name {
        "baseline" | "none" => Ok(CloningPolicy::None),
        "src" | "relaxed" => Ok(CloningPolicy::Relaxed),
        "sac" | "aggressive" => Ok(CloningPolicy::Aggressive),
        other => Err(format!("unknown scheme '{other}' (baseline|src|sac)")),
    }
}

fn cmd_info() {
    println!("== Table 2: cloning depths (9-level / 1 TB tree) ==");
    for policy in [CloningPolicy::Relaxed, CloningPolicy::Aggressive] {
        let depths: Vec<String> = (1..=9).map(|l| policy.depth(l, 9).to_string()).collect();
        println!("  {:>3}: L1..L9 = {}", policy.name(), depths.join(" "));
    }
    println!("\n== Table 3: simulated system ==");
    println!("  4-core x86 2.67 GHz | L1 32kB/2w | L2 512kB/8w | LLC 8MB/64w");
    println!("  PCM 150/300 ns | AES-CTR, 64-ary split counters | ToC arity 8");
    println!("  metadata cache 512 kB 8-way");
    println!("\n== Table 4: FaultSim DIMM ==");
    println!("  18 chips (9/rank x 2) | 16 banks | 16384 rows | 4096 cols | Chipkill");
    println!("\n== expected-loss amplification (Fig. 3 model) ==");
    for cap in [16u64 << 30, 1 << 40, 4 << 40] {
        let m = ExpectedLossModel::new(cap);
        println!(
            "  {:>5} GiB: {} levels, secure memory {:.1}x less resilient",
            cap >> 30,
            m.levels(),
            m.amplification()
        );
    }
    let suite = standard_suite(&SuiteConfig::default());
    let names: Vec<&str> = suite.iter().map(|w| w.name()).collect();
    println!("\n== workloads ==\n  {}", names.join(", "));
}

fn cmd_perf(args: &Args) -> Result<(), String> {
    let name = args.get_or("workload", "sps").to_string();
    let ops = args.get_num("ops", 100_000u64)?;
    let cores = args.get_num("cores", 1usize)?;
    let policy = scheme_of(args.get_or("scheme", "src"))?;
    let suite_config = SuiteConfig {
        footprint_bytes: 64 << 20,
        seed: 0xda7a,
    };
    let mut instances: Vec<Box<dyn Workload>> = if let Some(trace_path) = args.get("trace") {
        (0..cores)
            .map(|_| {
                soteria_workloads::trace::ReplayWorkload::open(trace_path)
                    .map(|w| Box::new(w) as Box<dyn Workload>)
                    .map_err(|e| format!("trace '{trace_path}': {e}"))
            })
            .collect::<Result<_, _>>()?
    } else {
        let available: Vec<String> = standard_suite(&suite_config)
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        if !available.iter().any(|n| n == &name) {
            return Err(format!(
                "unknown workload '{name}'; available: {available:?}"
            ));
        }
        (0..cores)
            .map(|i| {
                let cfg = SuiteConfig {
                    footprint_bytes: 64 << 20,
                    seed: 0xda7a ^ i as u64,
                };
                standard_suite(&cfg)
                    .into_iter()
                    .find(|w| w.name() == name)
                    .expect("validated above")
            })
            .collect()
    };
    let mut system = System::with_cores(SystemConfig::table3(policy, 64 << 20), cores);
    if args.has_flag("metrics") {
        system.controller_mut().enable_obs();
    }
    let r = {
        let mut refs: Vec<&mut dyn Workload> = instances
            .iter_mut()
            .map(|w| &mut **w as &mut dyn Workload)
            .collect();
        system.run_multi(&mut refs, ops)
    };
    println!(
        "workload {} | scheme {} | {} cores | {} ops total",
        r.workload, r.scheme, cores, r.ops
    );
    println!("cycles        : {}", r.cycles);
    println!("NVM reads     : {}", r.nvm_reads);
    println!("NVM writes    : {}", r.nvm_writes);
    println!("evictions/op  : {:.3}%", r.evictions_per_op() * 100.0);
    println!("md-cache miss : {:.2}%", r.metadata_miss_ratio * 100.0);
    let stats = system.controller().stats();
    println!(
        "write breakdown: cipher {} | mac {} | shadow {} | evict {} | leaf-mac {} | clone {} | reenc {}",
        stats.writes.cipher,
        stats.writes.data_mac,
        stats.writes.shadow,
        stats.writes.eviction,
        stats.writes.leaf_mac,
        stats.writes.clone,
        stats.writes.reencrypt,
    );
    if args.has_flag("metrics") {
        println!(
            "metrics snapshot:\n{}",
            system.controller().metrics_snapshot().to_pretty_string()
        );
    }
    Ok(())
}

fn cmd_campaign(args: &Args) -> Result<(), String> {
    let fit = args.get_num("fit", 80.0f64)?;
    let iters = args.get_num("iters", 100_000u64)?;
    let mut config = CampaignConfig::table4(fit);
    config.iterations = iters;
    config.correctable_chips = parse_ecc(args.get_or("ecc", "chipkill"))?;
    config.tree = parse_tree(args.get_or("tree", "toc"))?;
    if let Some(s) = args.get("scrub") {
        config.scrub_interval_hours =
            Some(s.parse().map_err(|_| format!("bad scrub interval '{s}'"))?);
    }
    if let Some(s) = args.get("seed") {
        config.seed = parse_seed(s)?;
    }
    config.capacity_bytes = args.get_num("capacity", config.capacity_bytes)?;
    if let Some(threads) = count_flag(args, "threads", "thread count")? {
        config.threads = threads;
    }
    let trace_path = args.get("trace").map(str::to_string);
    let json_path = args.get("json").map(str::to_string);
    config.trace = trace_path.is_some() || json_path.is_some();
    println!(
        "FIT {fit}/chip -> 20k-node cluster MTBF {:.1} h | {iters} iterations | 5 years",
        cluster_mtbf_hours(fit, 20_000, 4, 18)
    );
    let (results, trace) = run_campaign_traced(&config, &STANDARD_POLICIES);
    println!(
        "{:>9} | {:>12} | {:>12} | {:>14}",
        "scheme", "mean UDR", "L_error", "iters w/ UDR"
    );
    println!("{}", "-".repeat(58));
    for r in &results {
        println!(
            "{:>9} | {:>12.3e} | {:>12.3e} | {:>14}",
            r.policy.name(),
            r.mean_udr,
            r.mean_error_ratio,
            r.iterations_with_udr
        );
    }
    println!(
        "({} of {} iterations saw faults; {} defeated the ECC somewhere)",
        results[0].iterations_with_faults, results[0].iterations, results[0].iterations_with_ue
    );
    if let Some(path) = &trace_path {
        std::fs::write(path, trace.export_ndjson())
            .map_err(|e| format!("writing trace '{path}': {e}"))?;
        println!(
            "trace: {} events to {path}{}",
            trace.len(),
            if trace.dropped() > 0 {
                format!(" ({} dropped by the ring)", trace.dropped())
            } else {
                String::new()
            }
        );
    }
    if let Some(path) = &json_path {
        // `report_json` is shared with the service, so these bytes are
        // identical to `GET /v1/jobs/{id}/result` for the same config.
        let doc = report_json(&config, &results, &trace);
        std::fs::write(path, doc.to_pretty_string())
            .map_err(|e| format!("writing json '{path}': {e}"))?;
        println!("results + metrics snapshot to {path}");
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let defaults = CompareConfig::default();
    let mut config = CompareConfig {
        fit_per_chip: args.get_num("fit", defaults.fit_per_chip)?,
        iterations: args.get_num("iters", defaults.iterations)?,
        trace_ops: args.get_num("ops", defaults.trace_ops)?,
        capacity_bytes: args.get_num("capacity", defaults.capacity_bytes)?,
        ..defaults
    };
    if let Some(s) = args.get("seed") {
        config.seed = parse_seed(s)?;
    }
    if let Some(threads) = count_flag(args, "threads", "thread count")? {
        config.threads = threads;
    }
    println!(
        "comparing every registered scheme: FIT {}/chip, {} iterations, \
         {}-op trace, seed {:#x}",
        config.fit_per_chip, config.iterations, config.trace_ops, config.seed
    );
    let out = run_compare(&config);
    println!(
        "{:>10} | {:>8} | {:>9} | {:>7} | {:>12} | {:>9} | {:>8} | {:>12}",
        "scheme", "cloning", "tree", "recov", "mean UDR", "WA", "slowdown", "recovery ns"
    );
    println!("{}", "-".repeat(96));
    for r in &out.rows {
        println!(
            "{:>10} | {:>8} | {:>9} | {:>7} | {:>12.3e} | {:>9.3} | {:>8.3} | {:>12}",
            r.scheme,
            r.cloning,
            r.tree_update,
            r.recovery,
            r.mean_udr,
            r.write_amplification,
            r.slowdown,
            r.recovery_est_ns
        );
    }
    println!(
        "({} of {} iterations saw faults; {} defeated the ECC somewhere)",
        out.iterations_with_faults, config.iterations, out.iterations_with_ue
    );
    if let Some(path) = args.get("json") {
        std::fs::write(path, &out.result_json)
            .map_err(|e| format!("writing json '{path}': {e}"))?;
        println!("compare matrix to {path}");
    }
    if let Some(path) = args.get("ndjson") {
        std::fs::write(path, &out.ndjson).map_err(|e| format!("writing ndjson '{path}': {e}"))?;
        println!("per-iteration records to {path}");
    }
    Ok(())
}

fn cmd_rare(args: &Args) -> Result<(), String> {
    let fit = args.get_num("fit", 80.0f64)?;
    let samples = args.get_num("samples", 3000u64)?;
    let config = CampaignConfig::table4(fit);
    let results = estimate_clone_udr(
        &config,
        &[CloningPolicy::Relaxed, CloningPolicy::Aggressive],
        samples,
        5,
    );
    println!(
        "conditioned on k >= 2 bank-scale faults (lambda = {:.4}), {samples} samples/k",
        results[0].lambda_large
    );
    for r in &results {
        println!("  {:>3}: UDR = {:.3e}", r.policy.name(), r.mean_udr);
    }
    Ok(())
}

fn cmd_crash_demo(args: &Args) -> Result<(), String> {
    let policy = scheme_of(args.get_or("scheme", "src"))?;
    let inject = args.has_flag("fault");
    let config = SecureMemoryConfig::builder()
        .capacity_bytes(1 << 20)
        .metadata_cache(16 * 1024, 8)
        .cloning(policy.clone())
        .build()
        .map_err(|e| e.to_string())?;
    let mut memory = SecureMemoryController::new(config);
    let trace_path = args.get("trace").map(str::to_string);
    if trace_path.is_some() {
        memory.enable_obs();
    }
    println!("writing 128 lines under {} ...", policy.name());
    for i in 0..128u64 {
        memory
            .write(
                DataAddr::new(i * 64 % memory.layout().data_lines()),
                &[i as u8; 64],
            )
            .map_err(|e| e.to_string())?;
    }
    println!("power loss!");
    let mut image = memory.crash();
    if inject {
        println!("... and a two-chip uncorrectable error hits counter block L1[0] while down");
        let layout = image.config().build_layout();
        let target = layout.meta_addr(soteria::MetaId::new(1, 0));
        let loc = image.device_mut().geometry().locate(target);
        for chip in [1u32, 10] {
            let g = *image.device_mut().geometry();
            image
                .device_mut()
                .inject_fault(soteria_nvm::fault::FaultRecord::on_chip(
                    &g,
                    chip,
                    soteria_nvm::fault::FaultFootprint::SingleWord {
                        bank: loc.bank,
                        row: loc.row,
                        col: loc.col,
                        beat: 0,
                    },
                    soteria_nvm::fault::FaultKind::Permanent,
                ));
        }
    }
    let (mut memory, report) = recover(image);
    println!("recovery report:");
    println!("  shadow root intact : {}", report.shadow_root_intact);
    println!("  entries seen       : {}", report.entries_seen);
    println!("  blocks restored    : {}", report.blocks_restored);
    println!("  Osiris-recovered   : {}", report.counters_recovered);
    println!("  clone repairs      : {}", report.clone_repairs);
    println!("  stale entries      : {}", report.stale_entries);
    println!(
        "  unverifiable       : {} blocks / {} lines",
        report.unverifiable.len(),
        report.unverifiable_lines()
    );
    println!(
        "  est. duration      : {:.3} ms",
        report.estimated_duration_ns() as f64 / 1e6
    );
    let mut ok = 0;
    let mut lost = 0;
    for i in 0..128u64 {
        match memory.read(DataAddr::new(i * 64 % memory.layout().data_lines())) {
            Ok(line) if line == [i as u8; 64] => ok += 1,
            _ => lost += 1,
        }
    }
    println!("post-recovery readback: {ok} intact, {lost} lost");
    if inject && policy == CloningPolicy::None {
        println!("(the baseline loses the faulted block's coverage; rerun with --scheme src)");
    }
    if let Some(path) = &trace_path {
        // The trace survives the crash with the controller, so this one
        // file spans pre-crash writes, recovery, and readback.
        let ndjson = memory.export_trace_ndjson();
        let events = ndjson.lines().count();
        std::fs::write(path, ndjson).map_err(|e| format!("writing trace '{path}': {e}"))?;
        println!("trace: {events} events to {path}");
    }
    Ok(())
}

/// A positive count from `--flag`, `None` when the flag is unset; a bad
/// value fails as `bad {what} '…'`.
fn count_flag(args: &Args, flag: &str, what: &str) -> Result<Option<usize>, String> {
    let Some(v) = args.get(flag) else {
        return Ok(None);
    };
    let n = v.parse::<usize>().ok().filter(|&n| n > 0);
    n.map(Some).ok_or_else(|| format!("bad {what} '{v}'"))
}

fn cmd_crashck(args: &Args) -> Result<(), String> {
    let mut config = CrashckConfig::default();
    if let Some(s) = args.get("seed") {
        config.seed = parse_seed(s)?;
    }
    let bound = |flag, default| count_flag(args, flag, flag).map(|n| n.unwrap_or(default));
    config.scripts_per_cell = bound("scripts", config.scripts_per_cell)?;
    config.max_txns = bound("txns", config.max_txns)?;
    config.max_writes = bound("writes", config.max_writes)?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    config.threads = count_flag(args, "threads", "thread count")?.unwrap_or(cores);
    println!(
        "crashck: TreeUpdate x CloningPolicy x {{anubis,osiris}} matrix, \
         {} scripts/cell, <= {} txns x {} writes, seed {:#x}",
        config.scripts_per_cell, config.max_txns, config.max_writes, config.seed
    );
    let out = run_crashck(&config);
    println!(
        "swept {} crash points over {} scripts across {} cells",
        out.points, out.scripts, out.cells
    );
    if let Some(path) = args.get("json") {
        std::fs::write(path, &out.result_json)
            .map_err(|e| format!("writing json '{path}': {e}"))?;
        println!("report to {path}");
    }
    if let Some(path) = args.get("ndjson") {
        std::fs::write(path, &out.ndjson).map_err(|e| format!("writing ndjson '{path}': {e}"))?;
        println!("sweep records to {path}");
    }
    if out.divergences.is_empty() {
        println!("every crash point observed a prefix of committed transactions: OK");
        return Ok(());
    }
    for d in &out.divergences {
        eprintln!(
            "DIVERGENCE cell {} seed {:#018x} point {}: {}\n  script: {}\n-- trace tail --\n{}",
            d.cell, d.seed, d.point, d.reason, d.script, d.trace_tail
        );
    }
    Err(format!(
        "{} crash point(s) violated the atomic-commit contract",
        out.divergences.len()
    ))
}

fn cmd_trace_validate(args: &Args) -> Result<(), String> {
    let path = args.get("file").ok_or("trace-validate needs --file PATH")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading '{path}': {e}"))?;
    let events = soteria_rt::obs::parse_ndjson(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut domains: Vec<(&str, u64)> = Vec::new();
    for ev in &events {
        let d = ev.get("domain").and_then(Json::as_str).unwrap_or("?");
        match domains.iter_mut().find(|(n, _)| *n == d) {
            Some((_, c)) => *c += 1,
            None => domains.push((d, 1)),
        }
    }
    println!(
        "{path}: {} events, valid NDJSON, per-domain seq monotonic",
        events.len()
    );
    for (d, c) in domains {
        println!("  {d:>10}: {c} events");
    }
    Ok(())
}

/// Parses a seed given as decimal or `0x`-prefixed hex.
fn parse_seed(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|_| format!("bad seed '{s}' (decimal or 0x-hex)"))
}

/// One flag of a job body: the flag, its body field, and how the flag's
/// text becomes the field's value (given the flag, to name it in errors).
type BodyFlag = (
    &'static str,
    &'static str,
    fn(&str, &str) -> Result<Json, String>,
);

/// Per job kind, the flags that set its wire body. Flags the user leaves
/// out stay out of the body, so the kind's own defaults apply, as for the
/// local command.
const KIND_FLAGS: [(&str, &[BodyFlag]); 3] = [
    (
        "campaign",
        &[
            ("fit", "fit", num_field),
            ("iters", "iterations", num_field),
            ("scrub", "scrub_hours", num_field),
            ("threads", "threads", num_field),
            ("capacity", "capacity_bytes", num_field),
            ("ecc", "ecc", |_, v| {
                parse_ecc(v).map(|_| Json::Str(v.into()))
            }),
            ("tree", "tree", |_, v| {
                parse_tree(v).map(|_| Json::Str(v.into()))
            }),
            ("seed", "seed", seed_field),
        ],
    ),
    (
        "compare",
        &[
            ("fit", "fit", num_field),
            ("iters", "iterations", num_field),
            ("ops", "trace_ops", num_field),
            ("threads", "threads", num_field),
            ("capacity", "capacity_bytes", num_field),
            ("seed", "seed", seed_field),
        ],
    ),
    (
        "crashck",
        &[
            ("scripts", "scripts_per_cell", num_field),
            ("txns", "max_txns", num_field),
            ("writes", "max_writes", num_field),
            ("threads", "threads", num_field),
            ("seed", "seed", seed_field),
        ],
    ),
];

fn num_field(flag: &str, v: &str) -> Result<Json, String> {
    v.parse()
        .map(Json::Num)
        .map_err(|_| format!("option --{flag}: '{v}' is not a valid number"))
}

/// A seed crosses the wire as a `"0x…"` string: a JSON number holds
/// integers exactly only below 2^53.
fn seed_field(_: &str, v: &str) -> Result<Json, String> {
    Ok(Json::Str(format!("{:#x}", parse_seed(v)?)))
}

/// Builds a `kind` job's config body from the flags the user passed,
/// using the service's field names (the kind's config parser in
/// `soteria_faultsim`). A kind without flags gets an empty body.
fn job_body(kind: &str, args: &Args) -> Result<Json, String> {
    let flags = KIND_FLAGS
        .iter()
        .find(|(name, _)| *name == kind)
        .map_or(&[][..], |(_, flags)| *flags);
    let mut fields: Vec<(String, Json)> = Vec::new();
    for &(flag, field, value) in flags {
        if let Some(v) = args.get(flag) {
            fields.push((field.into(), value(flag, v)?));
        }
    }
    Ok(Json::Obj(fields))
}

/// Every byte the CLI prints goes here: a closed stdout (`soteria info |
/// head -1`) exits quietly with a SIGPIPE death's status, not std's panic.
fn write_stdout(bytes: &[u8]) {
    use std::io::Write as _;
    match std::io::stdout().write_all(bytes) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(141),
        done => done.expect("failed printing to stdout"),
    }
}

/// Writes the bound address to `--port-file`, when given, for scripts.
fn write_port_file(args: &Args, local: std::net::SocketAddr) -> Result<(), String> {
    match args.get("port-file") {
        Some(path) => std::fs::write(path, format!("{local}\n"))
            .map_err(|e| format!("writing port file '{path}': {e}")),
        None => Ok(()),
    }
}

/// Renders a non-2xx response as the server's one-line error message; a
/// failed job's `500` already reads `job N failed: …`.
fn http_failure(resp: &client::HttpResponse) -> String {
    let detail = resp
        .json()
        .ok()
        .and_then(|doc| doc.get("error").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| resp.text().trim().to_string());
    match resp.status {
        500 => detail,
        status => format!("server said HTTP {status}: {detail}"),
    }
}

/// The job server of `serve` and `worker`: the server flags, the bind at
/// `--addr` (default `default_addr`), and the `--port-file` write.
fn bind_server(args: &Args, default_addr: &str) -> Result<(Server, ServerConfig), String> {
    let config = ServerConfig {
        workers: args.get_num("workers", 2)?,
        queue_capacity: args.get_num("queue", 8)?,
        read_timeout: Duration::from_millis(args.get_num("read-timeout-ms", 5000)?),
        limits: ReadLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: args.get_num("max-body", 1024 * 1024)?,
        },
    };
    let addr = args.get_or("addr", default_addr);
    let server =
        Server::bind(addr, config.clone()).map_err(|e| format!("binding '{addr}': {e}"))?;
    write_port_file(args, server.local_addr())?;
    Ok((server, config))
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let (server, config) = bind_server(args, "127.0.0.1:7787")?;
    let (local, workers, queue) = (server.local_addr(), config.workers, config.queue_capacity);
    println!("soteria-svc listening on {local} ({workers} workers, queue capacity {queue})");
    println!(
        "POST /v1/shutdown (or `soteria http --method POST --path /v1/shutdown`) drains and exits"
    );
    let handle = server.handle();
    server.serve();
    println!(
        "drained: {} job(s) accepted over this run",
        handle.job_count()
    );
    Ok(())
}

fn cmd_submit(args: &Args) -> Result<(), String> {
    let addr = args.get_or("addr", "127.0.0.1:7787").to_string();
    let body = job_body("campaign", args)?;
    let resp = client::post_json(&*addr, "/v1/campaigns", &body)
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    if resp.status != 202 {
        return Err(http_failure(&resp));
    }
    let id = resp
        .json()?
        .get("job")
        .and_then(Json::as_f64)
        .ok_or("submit response missing 'job' id")? as u64;
    let timeout = args.get_num("timeout-s", 600u64)?;
    eprintln!("job {id} accepted by {addr}; waiting for its result");
    // The server answers the result request when the job ends.
    let wait = ClientConfig {
        read_timeout: Duration::from_secs(timeout),
        ..ClientConfig::default()
    };
    let path = format!("/v1/jobs/{id}/result");
    let result =
        client::request_with(&*addr, "GET", &path, None, &wait).map_err(|e| match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                format!("job {id} still not done after {timeout}s")
            }
            _ => format!("fetching result: {e}"),
        })?;
    if result.status != 200 {
        return Err(http_failure(&result));
    }
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &result.body)
                .map_err(|e| format!("writing result '{path}': {e}"))?;
            eprintln!("result to {path}");
        }
        None => print!("{}", result.text()),
    }
    if let Some(path) = args.get("trace-out") {
        let trace = client::get(&*addr, &format!("/v1/jobs/{id}/trace"))
            .map_err(|e| format!("fetching trace: {e}"))?;
        if trace.status != 200 {
            return Err(http_failure(&trace));
        }
        std::fs::write(path, &trace.body).map_err(|e| format!("writing trace '{path}': {e}"))?;
        eprintln!("trace to {path}");
    }
    Ok(())
}

fn cmd_http(args: &Args) -> Result<(), String> {
    let addr = args.get_or("addr", "127.0.0.1:7787");
    let method = args.get_or("method", "GET");
    let path = args.get_or("path", "/healthz");
    let body = args.get("body").map(|b| ("application/json", b.as_bytes()));
    let resp = client::request(addr, method, path, body)
        .map_err(|e| format!("{method} {addr}{path}: {e}"))?;
    eprintln!("HTTP {} {}", resp.status, resp.reason);
    write_stdout(&resp.body);
    if resp.status >= 400 {
        return Err(http_failure(&resp));
    }
    Ok(())
}

/// Resolves a `host:port` list (comma-separated) to socket addresses.
fn parse_targets(spec: &str) -> Result<Vec<std::net::SocketAddr>, String> {
    use std::net::ToSocketAddrs;
    let targets: Vec<std::net::SocketAddr> = spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.to_socket_addrs()
                .map_err(|e| format!("resolving '{s}': {e}"))?
                .next()
                .ok_or_else(|| format!("'{s}' resolves to no address"))
        })
        .collect::<Result<_, _>>()?;
    if targets.is_empty() {
        return Err("--targets needs at least one host:port".into());
    }
    Ok(targets)
}

/// Deals `clients` across `targets` round-robin: target `i` takes
/// client `i`, `i + targets`, `i + 2*targets`, … so the shares differ
/// by at most one.
fn split_round_robin(clients: usize, targets: usize) -> Vec<usize> {
    (0..targets)
        .map(|i| clients / targets + usize::from(i < clients % targets))
        .collect()
}

fn cmd_loadgen(args: &Args) -> Result<(), String> {
    use std::net::ToSocketAddrs;
    let clients = args.get_num("clients", 16usize)?;
    let body = job_body("campaign", args)?;
    let targets = match args.get("targets") {
        Some(spec) => parse_targets(spec)?,
        None => {
            let addr = args.get_or("addr", "127.0.0.1:7787");
            vec![addr
                .to_socket_addrs()
                .map_err(|e| format!("resolving '{addr}': {e}"))?
                .next()
                .ok_or_else(|| format!("'{addr}' resolves to no address"))?]
        }
    };
    let shares = split_round_robin(clients, targets.len());
    let reports: Vec<LoadReport> = std::thread::scope(|s| {
        let handles: Vec<_> = targets
            .iter()
            .zip(&shares)
            .map(|(&target, &share)| {
                let body = &body;
                s.spawn(move || submit_burst(target, body, share))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen burst thread"))
            .collect()
    });
    if targets.len() > 1 {
        for (target, report) in targets.iter().zip(&reports) {
            println!("{target}: {}", report.summary());
        }
    }
    let total = LoadReport {
        outcomes: reports.into_iter().flat_map(|r| r.outcomes).collect(),
    };
    println!("{}", total.summary());
    let mut counts: Vec<(u16, usize)> = Vec::new();
    for outcome in &total.outcomes {
        match counts.iter_mut().find(|(s, _)| *s == outcome.status) {
            Some((_, n)) => *n += 1,
            None => counts.push((outcome.status, 1)),
        }
    }
    counts.sort_unstable();
    for (status, n) in counts {
        println!("  HTTP {status}: {n}");
    }
    Ok(())
}

fn cmd_coordinate(args: &Args) -> Result<(), String> {
    let kind = args.get_or("kind", "campaign").to_string();
    let body = job_body(&kind, args)?;
    // An unknown kind or a bad config fails here, before the bind.
    JobSpec::from_kind(&kind, &body)?;
    let addr = args.get_or("addr", "127.0.0.1:7799").to_string();
    let mut config = FleetConfig {
        min_workers: args.get_num("min-workers", 1usize)?,
        chunk_blocks: args.get_num("chunk", 4u64)?,
        ..FleetConfig::default()
    };
    config.register_timeout = Duration::from_secs(args.get_num("register-timeout-s", 30u64)?);
    let coordinator =
        Coordinator::bind(&*addr, config).map_err(|e| format!("binding '{addr}': {e}"))?;
    let local = coordinator.local_addr();
    write_port_file(args, local)?;
    eprintln!(
        "fleet coordinator on {local}: {kind} job, waiting for {} worker(s)",
        args.get_or("min-workers", "1")
    );
    eprintln!("register workers with `soteria worker --coordinator {local}`");
    let (result, ndjson) = coordinator.run(&kind, &body)?;
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &result).map_err(|e| format!("writing result '{path}': {e}"))?;
            eprintln!("merged result to {path}");
        }
        None => print!("{result}"),
    }
    if let Some(path) = args.get("ndjson") {
        std::fs::write(path, &ndjson).map_err(|e| format!("writing ndjson '{path}': {e}"))?;
        eprintln!("merged ndjson to {path}");
    }
    Ok(())
}

fn cmd_worker(args: &Args) -> Result<(), String> {
    let coordinator = args
        .get("coordinator")
        .ok_or("worker needs --coordinator ADDR")?
        .to_string();
    let (server, config) = bind_server(args, "127.0.0.1:0")?;
    let (local, workers) = (server.local_addr(), config.workers);
    let advertise = args.get_or("advertise", &local.to_string()).to_string();
    println!("fleet worker on {local} ({workers} job threads), registering with {coordinator}");
    // Register from a side thread with patient retries: the worker may
    // boot before its coordinator, and serving must not wait on it.
    std::thread::spawn(move || {
        match fleet::register_worker(
            &coordinator,
            &advertise,
            40,
            Duration::from_millis(250),
            &Default::default(),
        ) {
            Ok(id) => eprintln!("registered with {coordinator} as worker {id}"),
            Err(e) => eprintln!("registration with {coordinator} failed: {e}"),
        }
    });
    let handle = server.handle();
    server.serve();
    println!(
        "drained: {} job(s) accepted over this run",
        handle.job_count()
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    if args.has_flag("help") {
        println!("{}", usage());
        return Ok(());
    }
    match args.command() {
        None | Some("help") => {
            println!("{}", usage());
            Ok(())
        }
        Some("info") => {
            cmd_info();
            Ok(())
        }
        Some("perf") => cmd_perf(&args),
        Some("record") => {
            let name = args.get_or("workload", "sps").to_string();
            let ops = args.get_num("ops", 100_000u64)?;
            let default_out = format!("{name}.trace");
            let out = args.get_or("out", &default_out).to_string();
            let cfg = SuiteConfig {
                footprint_bytes: 64 << 20,
                seed: 0xda7a,
            };
            let mut w = standard_suite(&cfg)
                .into_iter()
                .find(|w| w.name() == name)
                .ok_or_else(|| format!("unknown workload '{name}'"))?;
            soteria_workloads::trace::record(w.as_mut(), ops, &out).map_err(|e| e.to_string())?;
            println!("recorded {ops} ops of {name} to {out}");
            Ok(())
        }
        Some("campaign") => cmd_campaign(&args),
        Some("compare") => cmd_compare(&args),
        Some("rare") => cmd_rare(&args),
        Some("crash-demo") => cmd_crash_demo(&args),
        Some("crashck") => cmd_crashck(&args),
        Some("trace-validate") => cmd_trace_validate(&args),
        Some("serve") => cmd_serve(&args),
        Some("submit") => cmd_submit(&args),
        Some("http") => cmd_http(&args),
        Some("loadgen") => cmd_loadgen(&args),
        Some("coordinate") => cmd_coordinate(&args),
        Some("worker") => cmd_worker(&args),
        Some(other) => Err(format!(
            "unknown command '{other}'\n\n{}",
            command_listing()
        )),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_command_is_listed_once_with_a_description() {
        let listing = command_listing();
        let text = usage();
        for (name, one_liner) in COMMANDS {
            assert!(!one_liner.is_empty(), "{name} needs a description");
            assert_eq!(
                listing.matches(&format!("\n  {name} ")).count(),
                1,
                "{name} must appear exactly once in the listing"
            );
            assert!(
                text.contains(one_liner),
                "usage must carry {name}'s one-liner"
            );
        }
        let names: Vec<&str> = COMMANDS.iter().map(|(n, _)| *n).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate command names");
    }

    #[test]
    fn seed_parsing_accepts_both_radixes() {
        assert_eq!(parse_seed("42").unwrap(), 42);
        assert_eq!(parse_seed("0xdead").unwrap(), 0xdead);
        assert!(parse_seed("0xzz").unwrap_err().contains("0xzz"));
    }

    #[test]
    fn campaign_body_maps_flags_to_service_fields() {
        let args = Args::parse(
            "submit --fit 1500 --iters 200 --ecc double --tree bmt --seed 0x7 --capacity 67108864"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let body = job_body("campaign", &args).unwrap();
        assert_eq!(body.get("fit").and_then(Json::as_f64), Some(1500.0));
        assert_eq!(body.get("iterations").and_then(Json::as_f64), Some(200.0));
        assert_eq!(body.get("ecc").and_then(Json::as_str), Some("double"));
        assert_eq!(body.get("tree").and_then(Json::as_str), Some("bmt"));
        assert_eq!(body.get("seed").and_then(Json::as_str), Some("0x7"));
        assert_eq!(
            body.get("capacity_bytes").and_then(Json::as_f64),
            Some(67108864.0)
        );
        // Unset flags stay unset so the server's defaults apply.
        assert!(body.get("threads").is_none());
        // And bad values fail locally with the option name.
        let bad = Args::parse(["submit".into(), "--ecc".into(), "raid".into()]).unwrap();
        assert!(job_body("campaign", &bad)
            .unwrap_err()
            .contains("unknown ecc 'raid'"));
        let bad = Args::parse(["submit".into(), "--fit".into(), "hot".into()]).unwrap();
        let err = job_body("campaign", &bad).unwrap_err();
        assert_eq!(err, "option --fit: 'hot' is not a valid number");
    }

    #[test]
    fn seeds_survive_the_wire_for_every_kind() {
        // Past 2^53 a seed sent as a JSON number would be rounded
        // (0x1234567890abcdef arrived as 0x1234567890abce00).
        let args = Args::parse(
            "submit --seed 0x1234567890abcdef"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        for (kind, _) in KIND_FLAGS {
            let body = job_body(kind, &args).unwrap();
            let wire = Json::parse(&body.to_string()).unwrap();
            let spec = JobSpec::from_kind(kind, &wire).unwrap();
            let seed = match spec {
                JobSpec::Campaign(c) => c.seed,
                JobSpec::Compare(c) => c.seed,
                JobSpec::Crashck(c) => c.seed,
            };
            assert_eq!(seed, 0x1234_5678_90ab_cdef, "{kind}");
        }
    }

    #[test]
    fn fleet_bodies_map_flags_to_service_fields() {
        let args = Args::parse(
            "coordinate --kind compare --fit 1500 --iters 128 --ops 512 --seed 0x9"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let body = job_body("compare", &args).unwrap();
        assert_eq!(body.get("fit").and_then(Json::as_f64), Some(1500.0));
        assert_eq!(body.get("iterations").and_then(Json::as_f64), Some(128.0));
        assert_eq!(body.get("trace_ops").and_then(Json::as_f64), Some(512.0));
        assert_eq!(body.get("seed").and_then(Json::as_str), Some("0x9"));

        let args = Args::parse(
            "coordinate --kind crashck --scripts 2 --txns 4 --writes 3 --threads 2"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let body = job_body("crashck", &args).unwrap();
        assert_eq!(
            body.get("scripts_per_cell").and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(body.get("max_txns").and_then(Json::as_f64), Some(4.0));
        assert_eq!(body.get("max_writes").and_then(Json::as_f64), Some(3.0));
        assert_eq!(body.get("threads").and_then(Json::as_f64), Some(2.0));
        assert!(body.get("seed").is_none(), "unset flags stay unset");
    }

    #[test]
    fn round_robin_split_covers_every_client() {
        assert_eq!(split_round_robin(16, 3), vec![6, 5, 5]);
        assert_eq!(split_round_robin(2, 4), vec![1, 1, 0, 0]);
        for (clients, targets) in [(0, 1), (1, 1), (7, 3), (16, 5), (100, 7)] {
            let shares = split_round_robin(clients, targets);
            assert_eq!(shares.len(), targets);
            assert_eq!(shares.iter().sum::<usize>(), clients);
            let (min, max) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
            assert!(max - min <= 1, "round-robin shares differ by at most one");
        }
    }

    #[test]
    fn target_lists_parse_and_reject_garbage() {
        let targets = parse_targets("127.0.0.1:9001, 127.0.0.1:9002").unwrap();
        assert_eq!(targets.len(), 2);
        assert!(parse_targets("").unwrap_err().contains("at least one"));
        assert!(parse_targets("nonsense").unwrap_err().contains("nonsense"));
    }
}
