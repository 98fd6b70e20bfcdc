//! CI gate over the microbenchmark JSON: `bench_check <fresh> <baseline>`.
//!
//! Fails (exit 1) when either document is malformed — wrong schema,
//! missing fields, non-positive medians — or when any kernel present in
//! the baseline is missing from the fresh run, or regressed beyond
//! `SOTERIA_BENCH_MAX_REGRESSION` × its baseline median (default 2.0; CI
//! machines are noisy, so the gate is a tripwire for order-of-magnitude
//! mistakes, not a 5% performance SLO).

use std::process::ExitCode;

use soteria_rt::json::Json;

const SCHEMA: &str = "soteria-bench-kernels/v1";

/// One kernel's figures pulled out of a validated document.
struct Kernel {
    name: String,
    median_ns: f64,
}

fn load(path: &str) -> Result<Vec<Kernel>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}: missing \"schema\""))?;
    if schema != SCHEMA {
        return Err(format!("{path}: schema {schema:?}, expected {SCHEMA:?}"));
    }
    let kernels = doc
        .get("kernels")
        .and_then(Json::entries)
        .ok_or_else(|| format!("{path}: missing \"kernels\" object"))?;
    if kernels.is_empty() {
        return Err(format!("{path}: \"kernels\" is empty"));
    }
    kernels
        .iter()
        .map(|(name, entry)| {
            let median_ns = entry
                .get("median_ns")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: kernel {name:?} lacks \"median_ns\""))?;
            if !median_ns.is_finite() || median_ns <= 0.0 {
                return Err(format!("{path}: kernel {name:?} median {median_ns} <= 0"));
            }
            Ok(Kernel {
                name: name.clone(),
                median_ns,
            })
        })
        .collect()
}

fn run(fresh_path: &str, baseline_path: &str) -> Result<(), String> {
    let fresh = load(fresh_path)?;
    let baseline = load(baseline_path)?;
    let max_regression: f64 = std::env::var("SOTERIA_BENCH_MAX_REGRESSION")
        .ok()
        .map(|v| {
            v.parse()
                .map_err(|_| format!("SOTERIA_BENCH_MAX_REGRESSION {v:?} is not a number"))
        })
        .transpose()?
        .unwrap_or(2.0);

    println!(
        "{:<38} {:>14} {:>14} {:>8}",
        "kernel", "baseline ns", "fresh ns", "ratio"
    );
    let mut failures = Vec::new();
    for base in &baseline {
        let Some(now) = fresh.iter().find(|k| k.name == base.name) else {
            failures.push(format!("kernel {:?} missing from {fresh_path}", base.name));
            continue;
        };
        let ratio = now.median_ns / base.median_ns;
        let flag = if ratio > max_regression {
            "  REGRESSED"
        } else {
            ""
        };
        println!(
            "{:<38} {:>14.1} {:>14.1} {:>7.2}x{flag}",
            base.name, base.median_ns, now.median_ns, ratio
        );
        if ratio > max_regression {
            failures.push(format!(
                "kernel {:?} regressed {ratio:.2}x (limit {max_regression}x)",
                base.name
            ));
        }
    }
    if failures.is_empty() {
        println!(
            "OK: {} kernels within {max_regression}x of baseline",
            baseline.len()
        );
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, fresh, baseline] = args.as_slice() else {
        eprintln!("usage: bench_check <fresh.json> <baseline.json>");
        return ExitCode::FAILURE;
    };
    match run(fresh, baseline) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench_check failed:\n{message}");
            ExitCode::FAILURE
        }
    }
}
