//! End-to-end benchmark of the Soteria reproduction.
//!
//! ```text
//! bench-e2e --workload <securemem|timingsim|campaign|fleet> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload is set up (several times; the
//! median set-up time is reported) and then measured for `--seconds`;
//! the last line of standard output is one JSON object with the
//! end-to-end metrics, the attempted and failed operations, and whether
//! every output check passed. With `--trace 1` the benchmark runs a
//! fixed amount of traced work on every workload, the named one first,
//! writes the spans and a per-layer summary under `.bench_out/`, and
//! reports the per-layer metrics instead. Exit code 0 means every check
//! passed, 1 a wrong output, 2 a usage error.

mod alloc;
mod campaign;
mod fleet;
mod securemem;
mod stats;
mod timingsim;
mod trace;

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use soteria_rt::json::Json;

use crate::stats::{Reservoir, Tally};
use crate::trace::Tracer;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Latency samples kept per run (every call up to this many).
pub const RESERVOIR_SAMPLES: usize = 100_000;
/// Set-ups per untraced run; the median is reported.
pub const SETUP_REPEATS: usize = 3;
/// The workloads, in the order a traced run visits them.
pub const WORKLOADS: [&str; 4] = ["securemem", "timingsim", "campaign", "fleet"];
/// Where traced runs write their spans and summaries.
pub const TRACE_DIR: &str = ".bench_out";

const USAGE: &str = "usage: bench-e2e --workload <securemem|timingsim|campaign|fleet> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric value.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// The result of an untraced run.
#[derive(Debug)]
pub struct Outcome {
    /// `Err` with the first wrong output seen.
    pub check: Result<(), String>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The end-to-end metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// A run whose checks all passed.
    pub fn ok(tally: Tally, metrics: Vec<Metric>) -> Self {
        Self {
            check: Ok(()),
            tally,
            metrics,
        }
    }

    /// A run stopped by a wrong output.
    pub fn wrong(message: String, tally: Tally) -> Self {
        Self {
            check: Err(message),
            tally,
            metrics: Vec::new(),
        }
    }
}

/// The result of one workload's traced unit.
#[derive(Debug)]
pub struct Unit {
    /// `Err` with the first wrong output seen.
    pub check: Result<(), String>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The per-layer metrics this workload yields.
    pub metrics: Vec<Metric>,
    /// The public counters read at the call boundaries.
    pub counters: Json,
    /// Traced time over untraced time of the same work, minus one.
    pub overhead: f64,
}

impl Unit {
    /// A traced unit stopped by a wrong output.
    pub fn wrong(message: String, tally: Tally) -> Self {
        Self {
            check: Err(message),
            tally,
            metrics: Vec::new(),
            counters: Json::Null,
            overhead: f64::NAN,
        }
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times and keeps the last state, with
/// the median set-up time in seconds. Earlier states are dropped before
/// the next set-up starts.
pub fn timed_setups<S>(mut setup: impl FnMut() -> Result<S, String>) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = stats::now();
        let state = setup()?;
        times.push(stats::ns_since(t0) as f64 / 1e9);
        last = Some(state);
    }
    let state = last.ok_or_else(|| "no set-up ran".to_string())?;
    Ok((state, stats::median(&mut times)))
}

/// The timed phase of an untraced run.
pub struct Phase {
    start: Instant,
    /// Latency of every timed call, nanoseconds.
    pub calls: Reservoir,
    /// Units of work completed.
    pub work: u64,
}

impl Phase {
    /// Starts the timed phase (the sample buffer is allocated first).
    pub fn start() -> Self {
        let calls = Reservoir::new(RESERVOIR_SAMPLES);
        Self {
            start: stats::now(),
            calls,
            work: 0,
        }
    }

    /// Seconds since the phase started.
    pub fn elapsed_s(&self) -> f64 {
        stats::ns_since(self.start) as f64 / 1e9
    }

    /// The five end-to-end metrics.
    pub fn end_to_end(&self, setup_s: f64) -> Vec<Metric> {
        let elapsed = self.elapsed_s();
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("work_per_s", self.work as f64 / elapsed, "1/s"),
            Metric::new("call_p50_ms", self.calls.quantile(0.5) / 1e6, "ms"),
            Metric::new("call_p90_ms", self.calls.quantile(0.9) / 1e6, "ms"),
            Metric::new("peak_heap_mb", alloc::peak_bytes() as f64 / 1e6, "MB"),
        ]
    }
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn measure(workload: &str, seed: u64, seconds: f64) -> Outcome {
    match workload {
        "securemem" => securemem::measure(seed, seconds),
        "timingsim" => timingsim::measure(seed, seconds),
        "campaign" => campaign::measure(seed, seconds),
        _ => fleet::measure(seed, seconds),
    }
}

fn traced_unit(workload: &str, seed: u64, tracer: &mut Tracer) -> Unit {
    match workload {
        "securemem" => securemem::traced(seed, tracer),
        "timingsim" => timingsim::traced(seed, tracer),
        "campaign" => campaign::traced(seed, tracer),
        _ => fleet::traced(seed, tracer),
    }
}

/// The per-layer summary of one traced unit: self time per span name,
/// the counters, the metrics and the tracing overhead.
fn unit_summary(workload: &str, seed: u64, tracer: &Tracer, unit: &Unit) -> Json {
    let self_time: Vec<Json> = tracer
        .fold()
        .into_iter()
        .map(|(name, s)| {
            Json::Obj(vec![
                ("span".into(), Json::Str(name.into())),
                ("count".into(), Json::Num(s.count as f64)),
                ("total_ms".into(), Json::Num(s.total_ns as f64 / 1e6)),
                ("self_ms".into(), Json::Num(s.self_ns as f64 / 1e6)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("spans".into(), Json::Num(tracer.spans().len() as f64)),
        ("self_time".into(), Json::Arr(self_time)),
        ("counters".into(), unit.counters.clone()),
        ("metrics".into(), metrics_json(&unit.metrics)),
        ("tracing_overhead_ratio".into(), Json::Num(unit.overhead)),
        ("attempted".into(), Json::Num(unit.tally.attempted as f64)),
        ("failed".into(), Json::Num(unit.tally.failed as f64)),
    ])
}

/// Runs every workload's traced unit, the named one first, writes spans
/// and summaries, and picks each per-layer metric from the first unit
/// that yields it.
fn traced_run(named: &'static str, seed: u64) -> Outcome {
    let order: Vec<&str> = std::iter::once(named)
        .chain(WORKLOADS.into_iter().filter(|w| *w != named))
        .collect();
    let dir = std::path::Path::new(TRACE_DIR).join(format!("{named}-seed{seed}"));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
    }
    let mut metrics: Vec<Metric> = Vec::new();
    let mut tally = Tally::default();
    let mut check = Ok(());
    for workload in order {
        let mut tracer = Tracer::new(true);
        let unit = traced_unit(workload, seed, &mut tracer);
        if workload == named {
            tally = unit.tally;
        }
        if let Err(e) = &unit.check {
            if check.is_ok() {
                check = Err(format!("{workload}: {e}"));
            }
        }
        for m in &unit.metrics {
            if !metrics.iter().any(|k| k.name == m.name) {
                metrics.push(m.clone());
            }
        }
        eprintln!(
            "trace {workload}: {} spans, tracing overhead {:+.1}% of untraced time",
            tracer.spans().len(),
            unit.overhead * 100.0
        );
        let spans = dir.join(format!("{workload}.spans.ndjson"));
        let written = std::fs::File::create(&spans).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            tracer.write_ndjson(&mut w)?;
            w.flush()
        });
        let summary = dir.join(format!("{workload}.summary.json"));
        let text = unit_summary(workload, seed, &tracer, &unit).to_pretty_string();
        for (path, result) in [
            (&spans, written),
            (&summary, std::fs::write(&summary, text)),
        ] {
            if let Err(e) = result {
                eprintln!("cannot write {}: {e}", path.display());
            }
        }
    }
    Outcome {
        check,
        tally,
        metrics,
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(outcome: &Outcome) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.check.is_ok())),
        (
            "attempted".into(),
            Json::Num(outcome.tally.attempted as f64),
        ),
        ("failed".into(), Json::Num(outcome.tally.failed as f64)),
        ("metrics".into(), metrics_json(&outcome.metrics)),
    ])
    .to_string()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    alloc::reset_peak();
    let outcome = if args.trace {
        traced_run(args.workload, args.seed)
    } else {
        measure(args.workload, args.seed, args.seconds)
    };
    if let Err(e) = &outcome.check {
        eprintln!("check failed: {e}");
    }
    println!("{}", result_line(&outcome));
    if outcome.check.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a =
            parse_args(&argv("--workload fleet --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "fleet",
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload fleet --seed x --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload fleet --seed 1")).is_err());
        assert!(parse_args(&argv("--workload fleet --seed 1 --seconds 1 --trace 2")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let outcome = Outcome::ok(
            Tally {
                attempted: 10,
                failed: 1,
            },
            vec![Metric::new("setup_s", 0.5, "s")],
        );
        let line = Json::parse(&result_line(&outcome)).expect("json");
        let keys: Vec<&str> = line
            .entries()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("unit")),
            Some(&Json::Str("s".into()))
        );
        let wrong = Outcome::wrong("bad".into(), Tally::default());
        let line = Json::parse(&result_line(&wrong)).expect("json");
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    }
}
