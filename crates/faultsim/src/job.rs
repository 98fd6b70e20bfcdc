//! Job-sized campaign entry point shared by the CLI and the campaign
//! service (`soteria-svc`).
//!
//! Both front-ends must produce **byte-identical artifacts** for the same
//! seed — `soteria campaign --json/--trace` writes the same bytes that
//! `POST /v1/campaigns` + `GET /v1/jobs/{id}/result` / `…/trace` return.
//! That contract holds because every path funnels through this module:
//! one config parser ([`config_from_json`]), one policy roster
//! ([`STANDARD_POLICIES`]), one report serializer ([`report_json`]), and
//! one runner ([`run_job`]).

use soteria::analysis::TreeKind;
use soteria::clone::CloningPolicy;
use soteria_rt::json::Json;
use soteria_rt::obs::TraceBuffer;

use crate::campaign::{run_campaign_traced, CampaignConfig, PolicyResult};

/// The three schemes every campaign artifact reports, in table order.
pub const STANDARD_POLICIES: [CloningPolicy; 3] = [
    CloningPolicy::None,
    CloningPolicy::Relaxed,
    CloningPolicy::Aggressive,
];

/// Maps an ECC name to the number of correctable chips per codeword.
///
/// # Errors
///
/// Returns a one-line message naming the accepted values.
pub fn parse_ecc(name: &str) -> Result<usize, String> {
    match name {
        "secded" => Ok(0),
        "chipkill" => Ok(1),
        "double" => Ok(2),
        other => Err(format!("unknown ecc '{other}' (secded|chipkill|double)")),
    }
}

/// Maps an integrity-tree name to its [`TreeKind`].
///
/// # Errors
///
/// Returns a one-line message naming the accepted values.
pub fn parse_tree(name: &str) -> Result<TreeKind, String> {
    match name {
        "toc" => Ok(TreeKind::Toc),
        "bmt" => Ok(TreeKind::Bmt),
        other => Err(format!("unknown tree '{other}' (toc|bmt)")),
    }
}

/// Builds a traced [`CampaignConfig`] from a JSON request body.
///
/// Recognized fields (all optional; anything else is rejected so typos
/// fail loudly):
///
/// * `fit` — FIT per chip (default 80)
/// * `iterations` — Monte Carlo iterations (default 10000, capped at 10^7)
/// * `ecc` — `secded` | `chipkill` | `double`
/// * `tree` — `toc` | `bmt`
/// * `scrub_hours` — patrol-scrub interval (off when absent)
/// * `seed` — RNG seed, as a number or a `"0x…"` hex string
/// * `threads` — worker threads (results are identical for any value)
/// * `capacity_bytes` — protected capacity (default 16 GiB)
///
/// The returned config always has `trace = true`: service jobs keep
/// their NDJSON trace alongside the result.
///
/// # Errors
///
/// Returns a one-line, field-naming message on any invalid input.
pub fn config_from_json(body: &Json) -> Result<CampaignConfig, String> {
    let entries = body
        .entries()
        .ok_or("campaign config must be a JSON object")?;
    let num = |v: &Json, field: &str| {
        v.as_f64()
            .ok_or_else(|| format!("field '{field}' must be a number"))
    };
    let positive_int = |v: &Json, field: &str| -> Result<u64, String> {
        let n = num(v, field)?;
        if n < 1.0 || n.fract() != 0.0 {
            return Err(format!("field '{field}' must be a positive integer"));
        }
        Ok(n as u64)
    };
    let mut config = CampaignConfig::table4(80.0);
    for (key, value) in entries {
        match key.as_str() {
            "fit" => {
                let fit = num(value, "fit")?;
                if !(fit > 0.0 && fit.is_finite()) {
                    return Err("field 'fit' must be a positive number".into());
                }
                // Only the target changes here; the campaign scales its
                // mode mix to `fit_per_chip` at run time, exactly like
                // the CLI path (identical config ⇒ identical bytes).
                config.fit_per_chip = fit;
            }
            "iterations" => {
                let iters = positive_int(value, "iterations")?;
                if iters > 10_000_000 {
                    return Err("field 'iterations' must be at most 10000000".into());
                }
                config.iterations = iters;
            }
            "ecc" => {
                let name = value.as_str().ok_or("field 'ecc' must be a string")?;
                config.correctable_chips = parse_ecc(name)?;
            }
            "tree" => {
                let name = value.as_str().ok_or("field 'tree' must be a string")?;
                config.tree = parse_tree(name)?;
            }
            "scrub_hours" => {
                let hours = num(value, "scrub_hours")?;
                if !(hours > 0.0 && hours.is_finite()) {
                    return Err("field 'scrub_hours' must be a positive number".into());
                }
                config.scrub_interval_hours = Some(hours);
            }
            "seed" => {
                config.seed = match value {
                    Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 => *n as u64,
                    Json::Str(s) => {
                        let hex = s.strip_prefix("0x").unwrap_or(s);
                        u64::from_str_radix(hex, 16).map_err(|_| {
                            format!("field 'seed' has invalid hex value '{s}'")
                        })?
                    }
                    _ => return Err("field 'seed' must be an integer or hex string".into()),
                };
            }
            "threads" => {
                config.threads = positive_int(value, "threads")? as usize;
            }
            "capacity_bytes" => {
                let bytes = positive_int(value, "capacity_bytes")?;
                if !(1 << 20..=1u64 << 44).contains(&bytes) {
                    return Err("field 'capacity_bytes' must be between 1 MiB and 16 TiB".into());
                }
                config.capacity_bytes = bytes;
            }
            other => {
                return Err(format!(
                    "unknown field '{other}' (fit, iterations, ecc, tree, scrub_hours, seed, \
                     threads, capacity_bytes)"
                ))
            }
        }
    }
    config.trace = true;
    Ok(config)
}

/// The campaign's machine-readable artifact: config echo, per-policy
/// results, and a metrics snapshot derived from the event trace. This is
/// the single serializer behind `soteria campaign --json` and the
/// service's result endpoint.
pub fn report_json(
    config: &CampaignConfig,
    results: &[PolicyResult],
    trace: &TraceBuffer,
) -> Json {
    let mut event_counts: Vec<(String, u64)> = Vec::new();
    for ev in trace.events() {
        match event_counts.iter_mut().find(|(n, _)| n == ev.name) {
            Some((_, c)) => *c += 1,
            None => event_counts.push((ev.name.to_string(), 1)),
        }
    }
    Json::Obj(vec![
        (
            "config".into(),
            Json::Obj(vec![
                ("seed".into(), Json::Str(format!("{:#018x}", config.seed))),
                ("iterations".into(), Json::Num(config.iterations as f64)),
                ("fit_per_chip".into(), Json::Num(config.fit_per_chip)),
                (
                    "capacity_bytes".into(),
                    Json::Num(config.capacity_bytes as f64),
                ),
            ]),
        ),
        (
            "results".into(),
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("policy".into(), Json::Str(r.policy.name().into())),
                            (
                                "iterations_with_faults".into(),
                                Json::Num(r.iterations_with_faults as f64),
                            ),
                            (
                                "iterations_with_ue".into(),
                                Json::Num(r.iterations_with_ue as f64),
                            ),
                            (
                                "iterations_with_udr".into(),
                                Json::Num(r.iterations_with_udr as f64),
                            ),
                            ("mean_error_ratio".into(), Json::Num(r.mean_error_ratio)),
                            ("mean_udr".into(), Json::Num(r.mean_udr)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "metrics".into(),
            Json::Obj(vec![
                ("trace_events".into(), Json::Num(trace.len() as f64)),
                ("trace_dropped".into(), Json::Num(trace.dropped() as f64)),
                (
                    "events_by_name".into(),
                    Json::Obj(
                        event_counts
                            .into_iter()
                            .map(|(n, c)| (n, Json::Num(c as f64)))
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
}

/// A finished campaign job: the exact artifact bytes a front-end serves
/// or writes to disk, plus the numeric results for tabular display.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// Per-policy results for [`STANDARD_POLICIES`], in order.
    pub results: Vec<PolicyResult>,
    /// The pretty-printed result JSON (trailing newline included).
    pub result_json: String,
    /// The NDJSON event trace.
    pub trace_ndjson: String,
}

/// Runs one campaign over [`STANDARD_POLICIES`] and serializes its
/// artifacts. For a fixed `config.seed` the output bytes are identical
/// at any `config.threads` value.
pub fn run_job(config: &CampaignConfig) -> JobOutput {
    let (results, trace) = run_campaign_traced(config, &STANDARD_POLICIES);
    let result_json = report_json(config, &results, &trace).to_pretty_string();
    JobOutput {
        results,
        result_json,
        trace_ndjson: trace.export_ndjson(),
    }
}

/// A validated job request: the classic cloning-policy campaign
/// (`POST /v1/campaigns`), the cross-scheme compare matrix
/// (`POST /v1/compare`), the crash-consistency sweep
/// (`POST /v1/crashck`), or a block-range shard of any of them
/// (`POST /v1/blocks`, submitted by a fleet coordinator). One enum so
/// the service worker and the CLI share a single runner.
#[derive(Clone, Debug)]
pub enum JobSpec {
    /// A [`STANDARD_POLICIES`] campaign (`soteria-campaign/v1`).
    Campaign(CampaignConfig),
    /// A full-roster scheme shootout (`soteria-compare/v1`).
    Compare(crate::compare::CompareConfig),
    /// A crash-consistency matrix sweep (`soteria-crashck/v1`).
    Crashck(crate::crashck::CrashckConfig),
    /// Blocks `lo..hi` of an inner job, producing a partial-sums
    /// document (`soteria-blocks/v1`) instead of final artifacts.
    Blocks {
        /// The job being sharded (never itself `Blocks`).
        spec: Box<JobSpec>,
        /// First block index (inclusive).
        lo: u64,
        /// Last block index (exclusive).
        hi: u64,
    },
}

/// Turns one kind's config body into its spec.
type KindParser = fn(&Json) -> Result<JobSpec, String>;

/// The job kinds a coordinator shards and a worker runs, each with its
/// wire name and the parser of its config body: the one place a kind
/// name becomes a spec ([`JobSpec::kind`] maps back).
const KINDS: [(&str, KindParser); 3] = [
    ("campaign", |body| {
        config_from_json(body).map(JobSpec::Campaign)
    }),
    ("compare", |body| {
        crate::compare::compare_config_from_json(body).map(JobSpec::Compare)
    }),
    ("crashck", |body| {
        crate::crashck::crashck_config_from_json(body).map(JobSpec::Crashck)
    }),
];

/// The kind names, comma-separated, for error messages.
pub(crate) fn kind_names() -> String {
    KINDS.map(|(name, _)| name).join(", ")
}

impl JobSpec {
    /// Builds the job of kind `kind` from its config body, through the
    /// kind's own config parser.
    ///
    /// # Errors
    ///
    /// `unknown kind '…' (campaign, compare, crashck)`, or the kind's
    /// one-line config error.
    pub fn from_kind(kind: &str, config: &Json) -> Result<JobSpec, String> {
        let (_, parse) = KINDS
            .iter()
            .find(|(name, _)| *name == kind)
            .ok_or_else(|| format!("unknown kind '{kind}' ({})", kind_names()))?;
        parse(config)
    }

    /// The kind name [`JobSpec::from_kind`] takes for this job; a
    /// `Blocks` shard reports the kind of the job it shards.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Campaign(_) => "campaign",
            JobSpec::Compare(_) => "compare",
            JobSpec::Crashck(_) => "crashck",
            JobSpec::Blocks { spec, .. } => spec.kind(),
        }
    }

    /// Worker threads the job will use.
    pub fn threads(&self) -> usize {
        match self {
            JobSpec::Campaign(c) => c.threads,
            JobSpec::Compare(c) => c.threads,
            JobSpec::Crashck(c) => c.threads,
            JobSpec::Blocks { spec, .. } => spec.threads(),
        }
    }

    /// The artifact schema this job emits.
    pub fn schema(&self) -> &'static str {
        match self {
            JobSpec::Campaign(_) => "soteria-campaign/v1",
            JobSpec::Compare(_) => "soteria-compare/v1",
            JobSpec::Crashck(_) => "soteria-crashck/v1",
            JobSpec::Blocks { .. } => "soteria-blocks/v1",
        }
    }
}

/// Runs any [`JobSpec`] and returns `(result_json, ndjson)` — the two
/// artifact byte-streams every job kind produces. Thread-invariant for
/// all kinds. A `Blocks` job returns its partial-sums document as the
/// result and an empty trace (partials carry their events inline).
pub fn run_spec(spec: &JobSpec) -> (String, String) {
    match spec {
        JobSpec::Campaign(config) => {
            let output = run_job(config);
            (output.result_json, output.trace_ndjson)
        }
        JobSpec::Compare(config) => {
            let output = crate::compare::run_compare(config);
            (output.result_json, output.ndjson)
        }
        JobSpec::Crashck(config) => {
            let output = crate::crashck::run_crashck(config);
            (output.result_json, output.ndjson)
        }
        JobSpec::Blocks { spec, lo, hi } => (
            crate::shard::run_block_range(spec, *lo, *hi).to_pretty_string(),
            String::new(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<CampaignConfig, String> {
        config_from_json(&Json::parse(s).expect("test body must be valid JSON"))
    }

    #[test]
    fn defaults_match_table4_with_trace_on() {
        let c = parse("{}").unwrap();
        let t4 = CampaignConfig::table4(80.0);
        assert_eq!(c.fit_per_chip, t4.fit_per_chip);
        assert_eq!(c.iterations, t4.iterations);
        assert_eq!(c.seed, t4.seed);
        assert_eq!(c.capacity_bytes, t4.capacity_bytes);
        assert!(c.trace, "service jobs always keep their trace");
    }

    #[test]
    fn fields_apply() {
        let c = parse(
            r#"{"fit": 1500, "iterations": 250, "ecc": "double", "tree": "bmt",
                "scrub_hours": 24, "seed": "0xdead", "threads": 3,
                "capacity_bytes": 67108864}"#,
        )
        .unwrap();
        assert_eq!(c.fit_per_chip, 1500.0);
        assert_eq!(c.iterations, 250);
        assert_eq!(c.correctable_chips, 2);
        assert_eq!(c.tree, TreeKind::Bmt);
        assert_eq!(c.scrub_interval_hours, Some(24.0));
        assert_eq!(c.seed, 0xdead);
        assert_eq!(c.threads, 3);
        assert_eq!(c.capacity_bytes, 64 << 20);
    }

    #[test]
    fn numeric_seed_accepted() {
        assert_eq!(parse(r#"{"seed": 42}"#).unwrap().seed, 42);
    }

    #[test]
    fn bad_fields_name_the_field() {
        for (body, needle) in [
            (r#"[1]"#, "must be a JSON object"),
            (r#"{"fit": -1}"#, "'fit'"),
            (r#"{"fit": "hot"}"#, "'fit'"),
            (r#"{"iterations": 0}"#, "'iterations'"),
            (r#"{"iterations": 2.5}"#, "'iterations'"),
            (r#"{"iterations": 99000000}"#, "'iterations'"),
            (r#"{"ecc": "raid"}"#, "unknown ecc 'raid'"),
            (r#"{"tree": "oak"}"#, "unknown tree 'oak'"),
            (r#"{"scrub_hours": 0}"#, "'scrub_hours'"),
            (r#"{"seed": "0xzz"}"#, "'seed'"),
            (r#"{"capacity_bytes": 64}"#, "'capacity_bytes'"),
            (r#"{"iters": 5}"#, "unknown field 'iters'"),
        ] {
            let err = parse(body).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn job_output_is_deterministic_and_reports_all_policies() {
        let mut config = CampaignConfig::table4(1500.0);
        config.capacity_bytes = 1 << 26;
        config.iterations = 128;
        config.trace = true;
        config.threads = 2;
        let a = run_job(&config);
        let mut config_b = config.clone();
        config_b.threads = 5;
        let b = run_job(&config_b);
        assert_eq!(a.result_json, b.result_json, "result bytes thread-invariant");
        assert_eq!(a.trace_ndjson, b.trace_ndjson, "trace bytes thread-invariant");
        assert_eq!(a.results.len(), STANDARD_POLICIES.len());
        let doc = Json::parse(&a.result_json).unwrap();
        let policies: Vec<&str> = doc
            .get("results")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|r| r.get("policy").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(policies, vec!["Baseline", "SRC", "SAC"]);
        soteria_rt::obs::parse_ndjson(&a.trace_ndjson).expect("trace must validate");
    }
}
