//! Job kinds, and the entry point the CLI and the campaign service
//! (`soteria-svc`) share.
//!
//! Both front-ends must produce **byte-identical artifacts** for the same
//! seed — `soteria campaign --json/--trace` writes the same bytes that
//! `POST /v1/campaigns` + `GET /v1/jobs/{id}/result` / `…/trace` return.
//! That contract holds because every path funnels through this module:
//! one config parser per kind ([`config_from_json`] for the campaign),
//! one policy roster ([`STANDARD_POLICIES`]), one report serializer
//! ([`report_json`]), and one runner ([`run_spec`]).
//!
//! [`KINDS`] is the one place a job kind is defined: its wire name, its
//! submit route, its config parser, and the `Job` its specs run as
//! (block count, block-range runner and merge, implemented beside the
//! kind's config). The service, the fleet coordinator, the shard
//! envelope ([`crate::shard`]) and the CLI find every kind through it.

use soteria::analysis::TreeKind;
use soteria::clone::CloningPolicy;
use soteria_rt::json::Json;
use soteria_rt::obs::TraceBuffer;

use crate::campaign::{
    merge_campaign_blocks, run_campaign_blocks, run_campaign_traced, Block, CampaignConfig,
    PolicyResult, ITERATION_BLOCK,
};

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
/// * `seed` — RNG seed, as a number below 2^53 or a `"0x…"` hex string
/// * `threads` — worker threads, at most 256 (results are identical for
///   any value)
/// * `capacity_bytes` — protected capacity (default 16 GiB)
///
/// The returned config always has `trace = true`: service jobs keep
/// their NDJSON trace alongside the result.
///
/// # Errors
///
/// Returns a one-line, field-naming message on any invalid input.
pub fn config_from_json(body: &Json) -> Result<CampaignConfig, String> {
    let mut config = CampaignConfig::table4(80.0);
    for (key, value) in field::entries(body, "campaign")? {
        match key.as_str() {
            "fit" => {
                // Only the target changes here; the campaign scales its
                // mode mix to `fit_per_chip` at run time, exactly like
                // the CLI path (identical config ⇒ identical bytes).
                config.fit_per_chip = field::positive(value, "fit")?;
            }
            "iterations" => {
                config.iterations = field::int_at_most(value, "iterations", 10_000_000)?
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
                config.scrub_interval_hours = Some(field::positive(value, "scrub_hours")?);
            }
            "seed" => config.seed = field::seed(value)?,
            "threads" => config.threads = field::threads(value)?,
            "capacity_bytes" => {
                let bytes = field::positive_int(value, "capacity_bytes")?;
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

/// The field reader the three job-config parsers share, so a field such
/// as `seed` or `threads` is read, bounded and reported alike whichever
/// kind's body carries it.
pub(crate) mod field {
    use soteria_rt::json::Json;

    /// The most worker threads a job body may ask for. A worker starts
    /// up to this many threads per job, so the bound is what keeps one
    /// request body from asking for millions.
    const MAX_THREADS: u64 = 256;

    /// The entries of a `kind` config body.
    pub(crate) fn entries<'a>(body: &'a Json, kind: &str) -> Result<&'a [(String, Json)], String> {
        body.entries()
            .ok_or_else(|| format!("{kind} config must be a JSON object"))
    }

    /// `field` as a number.
    fn num(v: &Json, field: &str) -> Result<f64, String> {
        v.as_f64()
            .ok_or_else(|| format!("field '{field}' must be a number"))
    }

    /// `field` as a positive, finite number.
    pub(crate) fn positive(v: &Json, field: &str) -> Result<f64, String> {
        let n = num(v, field)?;
        if !(n > 0.0 && n.is_finite()) {
            return Err(format!("field '{field}' must be a positive number"));
        }
        Ok(n)
    }

    /// `field` as a positive integer.
    pub(crate) fn positive_int(v: &Json, field: &str) -> Result<u64, String> {
        let n = num(v, field)?;
        if n < 1.0 || n.fract() != 0.0 {
            return Err(format!("field '{field}' must be a positive integer"));
        }
        Ok(n as u64)
    }

    /// `field` as a positive integer of at most `max`.
    pub(crate) fn int_at_most(v: &Json, field: &str, max: u64) -> Result<u64, String> {
        let n = positive_int(v, field)?;
        if n > max {
            return Err(format!("field '{field}' must be at most {max}"));
        }
        Ok(n)
    }

    /// The `seed` field: a non-negative integer below 2^53 (the largest
    /// a JSON number holds exactly) or a `"0x…"` hex string.
    pub(crate) fn seed(v: &Json) -> Result<u64, String> {
        match v {
            Json::Num(n) if *n >= (1u64 << 53) as f64 => Err(
                "field 'seed' must be below 2^53 as a number; send a larger seed as a \
                 \"0x…\" hex string"
                    .into(),
            ),
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 => Ok(*n as u64),
            Json::Str(s) => {
                let hex = s.strip_prefix("0x").unwrap_or(s);
                u64::from_str_radix(hex, 16)
                    .map_err(|_| format!("field 'seed' has invalid hex value '{s}'"))
            }
            _ => Err("field 'seed' must be an integer or hex string".into()),
        }
    }

    /// The `threads` field: a positive integer of at most [`MAX_THREADS`].
    pub(crate) fn threads(v: &Json) -> Result<usize, String> {
        Ok(int_at_most(v, "threads", MAX_THREADS)? as usize)
    }
}

/// The campaign's machine-readable artifact: config echo, per-policy
/// results, and a metrics snapshot derived from the event trace. This is
/// the single serializer behind `soteria campaign --json` and the
/// service's result endpoint.
pub fn report_json(config: &CampaignConfig, results: &[PolicyResult], trace: &TraceBuffer) -> Json {
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
/// (`POST /v1/compare`) or the crash-consistency sweep
/// (`POST /v1/crashck`). One enum so the service worker and the CLI
/// share a single runner; a block-range shard (`POST /v1/blocks`) is a
/// spec plus its range (see [`crate::shard::blocks_spec_from_json`]).
#[derive(Clone, Debug)]
pub enum JobSpec {
    /// A [`STANDARD_POLICIES`] campaign (`soteria-campaign/v1`).
    Campaign(CampaignConfig),
    /// A full-roster scheme shootout (`soteria-compare/v1`).
    Compare(crate::compare::CompareConfig),
    /// A crash-consistency matrix sweep (`soteria-crashck/v1`).
    Crashck(crate::crashck::CrashckConfig),
}

/// What a job kind's config does: [`run_spec`] and the shard envelope
/// ([`crate::shard`]) drive every kind through this interface.
pub(crate) trait Job {
    /// The whole job's `(result_json, ndjson)` artifacts.
    fn run(&self) -> (String, String);
    /// How many distribution blocks the job comprises.
    fn total_blocks(&self) -> u64;
    /// The wire form of blocks `ids` (each below
    /// [`Job::total_blocks`]), in id order.
    fn run_blocks(&self, ids: &[u64]) -> Vec<Json>;
    /// Folds wire-form blocks (any order, duplicates allowed) into the
    /// artifacts [`Job::run`] returns, or says which block is malformed
    /// or missing.
    fn merge_blocks(&self, blocks: &[&Json]) -> Result<(String, String), String>;
}

/// One job kind. A kind is its module's `Job` impl (block count,
/// block-range runner, merge) plus one row of [`KINDS`].
pub struct Kind {
    /// The wire name: `coordinate --kind`, and the `kind` field of shard
    /// bodies and partials.
    pub name: &'static str,
    /// The service's submit route.
    pub route: &'static str,
    /// Builds the kind's spec from its config body, or returns the
    /// kind's one-line, field-naming config error.
    pub parse: fn(&Json) -> Result<JobSpec, String>,
    /// The spec's config as its [`Job`], when the spec is of this kind.
    job: fn(&JobSpec) -> Option<&dyn Job>,
}

/// Every job kind the service serves, a coordinator shards and a worker
/// runs.
pub static KINDS: [Kind; 3] = [
    Kind {
        name: "campaign",
        route: "/v1/campaigns",
        parse: |body| config_from_json(body).map(JobSpec::Campaign),
        job: |spec| match spec {
            JobSpec::Campaign(config) => Some(config),
            _ => None,
        },
    },
    Kind {
        name: "compare",
        route: "/v1/compare",
        parse: |body| crate::compare::compare_config_from_json(body).map(JobSpec::Compare),
        job: |spec| match spec {
            JobSpec::Compare(config) => Some(config),
            _ => None,
        },
    },
    Kind {
        name: "crashck",
        route: "/v1/crashck",
        parse: |body| crate::crashck::crashck_config_from_json(body).map(JobSpec::Crashck),
        job: |spec| match spec {
            JobSpec::Crashck(config) => Some(config),
            _ => None,
        },
    },
];

/// The kind names, comma-separated, for error messages.
pub(crate) fn kind_names() -> String {
    KINDS.iter().map(|k| k.name).collect::<Vec<_>>().join(", ")
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
        let row = KINDS
            .iter()
            .find(|k| k.name == kind)
            .ok_or_else(|| format!("unknown kind '{kind}' ({})", kind_names()))?;
        (row.parse)(config)
    }

    /// The spec's kind row and its config as a [`Job`].
    fn row(&self) -> (&'static Kind, &dyn Job) {
        KINDS
            .iter()
            .find_map(|kind| Some((kind, (kind.job)(self)?)))
            .expect("every JobSpec variant has a KINDS row")
    }

    /// The kind name [`JobSpec::from_kind`] takes for this job.
    pub fn kind(&self) -> &'static str {
        self.row().0.name
    }

    /// The job this spec runs.
    pub(crate) fn job(&self) -> &dyn Job {
        self.row().1
    }
}

/// The campaign kind: [`run_job`] for the whole job, and the Monte Carlo
/// block form over [`STANDARD_POLICIES`] for its shards.
impl Job for CampaignConfig {
    fn run(&self) -> (String, String) {
        let output = run_job(self);
        (output.result_json, output.trace_ndjson)
    }

    fn total_blocks(&self) -> u64 {
        self.iterations.div_ceil(ITERATION_BLOCK)
    }

    fn run_blocks(&self, ids: &[u64]) -> Vec<Json> {
        let blocks = run_campaign_blocks(self, &STANDARD_POLICIES, ids);
        blocks.iter().map(Block::to_wire).collect()
    }

    fn merge_blocks(&self, blocks: &[&Json]) -> Result<(String, String), String> {
        let rows = STANDARD_POLICIES.len();
        let blocks = Block::unwire_all(blocks, "campaign", rows, self.iterations)?;
        let (results, trace) = merge_campaign_blocks(self, &STANDARD_POLICIES, blocks);
        Ok((
            report_json(self, &results, &trace).to_pretty_string(),
            trace.export_ndjson(),
        ))
    }
}

/// Runs any [`JobSpec`] and returns `(result_json, ndjson)` — the two
/// artifact byte-streams every job kind produces. Thread-invariant for
/// all kinds.
pub fn run_spec(spec: &JobSpec) -> (String, String) {
    spec.job().run()
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
    fn seeds_past_2_pow_53_must_travel_as_hex() {
        // 2^53 − 1 is the largest integer every JSON number holds
        // exactly; from 2^53 on a numeric seed may already be rounded.
        let exact = parse(r#"{"seed": 9007199254740991}"#).unwrap();
        assert_eq!(exact.seed, (1 << 53) - 1);
        let want = "field 'seed' must be below 2^53 as a number; send a larger seed as a \
                    \"0x…\" hex string";
        for kind in ["campaign", "compare", "crashck"] {
            for body in [
                r#"{"seed": 9007199254740992}"#,
                r#"{"seed": 1.3117684674637903e19}"#,
            ] {
                let err = JobSpec::from_kind(kind, &Json::parse(body).unwrap()).unwrap_err();
                assert_eq!(err, want, "{kind}: {body}");
            }
        }
        let hex = parse(r#"{"seed": "0x1234567890abcdef"}"#).unwrap();
        assert_eq!(hex.seed, 0x1234_5678_90ab_cdef);
    }

    #[test]
    fn every_kind_row_maps_its_specs_back_to_itself() {
        let empty = Json::Obj(Vec::new());
        for kind in &KINDS {
            let spec = (kind.parse)(&empty).unwrap();
            assert_eq!(spec.kind(), kind.name);
            let again = JobSpec::from_kind(kind.name, &empty).unwrap();
            assert_eq!(again.kind(), kind.name);
            assert!(kind.route.starts_with("/v1/"), "{}", kind.route);
        }
        assert_eq!(kind_names(), "campaign, compare, crashck");
        let err = JobSpec::from_kind("nope", &empty).unwrap_err();
        assert_eq!(err, "unknown kind 'nope' (campaign, compare, crashck)");
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
    fn every_wire_parser_caps_threads() {
        // A body is parsed before any job runs, so a rejected thread
        // count never reaches `fan_out` or `parallel_map`.
        let huge = Json::parse(r#"{"threads": 1000000}"#).unwrap();
        let most = Json::parse(r#"{"threads": 256}"#).unwrap();
        let want = "field 'threads' must be at most 256";
        for kind in ["campaign", "compare", "crashck"] {
            assert_eq!(JobSpec::from_kind(kind, &huge).unwrap_err(), want, "{kind}");
            assert!(JobSpec::from_kind(kind, &most).is_ok(), "{kind}");
            let shard = Json::Obj(vec![
                ("kind".into(), Json::Str(kind.into())),
                ("lo".into(), Json::Num(0.0)),
                ("hi".into(), Json::Num(1.0)),
                ("config".into(), huge.clone()),
            ]);
            let err = crate::shard::blocks_spec_from_json(&shard).unwrap_err();
            assert_eq!(err, want, "{kind}");
        }
        assert_eq!(config_from_json(&huge).unwrap_err(), want);
        let compare = crate::compare::compare_config_from_json(&huge);
        assert_eq!(compare.unwrap_err(), want);
        let crashck = crate::crashck::crashck_config_from_json(&huge);
        assert_eq!(crashck.unwrap_err(), want);
        assert_eq!(config_from_json(&most).unwrap().threads, 256);
        let compare = crate::compare::compare_config_from_json(&most);
        assert_eq!(compare.unwrap().threads, 256);
        let crashck = crate::crashck::crashck_config_from_json(&most);
        assert_eq!(crashck.unwrap().threads, 256);
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
        assert_eq!(
            a.result_json, b.result_json,
            "result bytes thread-invariant"
        );
        assert_eq!(
            a.trace_ndjson, b.trace_ndjson,
            "trace bytes thread-invariant"
        );
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
