//! Golden-seed determinism gate for the fault-campaign artifacts.
//!
//! The fixtures in `tests/golden/` were captured from the CLI
//! (`soteria campaign --fit 1500 --iters 200 --seed 0xc1 --threads 3
//! --json ... --trace ...`) **before** the deterministic-collection
//! migrations (HashMap → BTreeMap in `soteria-nvm`, HashSet → BTreeSet
//! in `soteria`), so this test proves two things at once:
//!
//! * the migrations did not change a single byte of the campaign JSON
//!   or the NDJSON trace, and
//! * the artifacts are byte-identical across thread counts (fixtures
//!   were produced with `--threads 3`; this run uses one thread).
//!
//! The compare fixtures were captured from the CLI (`soteria compare
//! --fit 1500 --iters 256 --ops 1024 --seed 0xc1 --json ... --ndjson
//! ...`) before the compare matrix moved onto the campaign's Monte Carlo
//! engine; they pin that the move changed no byte, at one thread and at
//! three.
//!
//! If an intentional change to the artifact format lands, regenerate the
//! fixtures with the CLI invocations above and say so in the PR.

use soteria_faultsim::campaign::CampaignConfig;
use soteria_faultsim::job::run_job;
use soteria_faultsim::{run_compare, CompareConfig};

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!("missing golden fixture {path}: {e}"),
    }
}

#[test]
fn campaign_artifacts_match_pre_migration_fixtures() {
    let mut config = CampaignConfig::table4(1500.0);
    config.iterations = 200;
    config.seed = 0xc1;
    config.threads = 1;
    config.trace = true;
    let out = run_job(&config);

    let want_json = golden("campaign_seed0xc1.json");
    let want_trace = golden("campaign_seed0xc1.ndjson");
    assert_eq!(
        out.result_json, want_json,
        "campaign result JSON drifted from the golden fixture"
    );
    assert_eq!(
        out.trace_ndjson, want_trace,
        "campaign NDJSON trace drifted from the golden fixture"
    );
}

#[test]
fn compare_artifacts_match_pre_engine_fixtures() {
    let want_json = golden("compare_seed0xc1.json");
    let want_ndjson = golden("compare_seed0xc1.ndjson");
    for threads in [1, 3] {
        let out = run_compare(&CompareConfig {
            fit_per_chip: 1500.0,
            iterations: 256,
            trace_ops: 1024,
            seed: 0xc1,
            threads,
            ..CompareConfig::default()
        });
        assert_eq!(
            out.result_json, want_json,
            "compare JSON drifted from the golden fixture at {threads} threads"
        );
        assert_eq!(
            out.ndjson, want_ndjson,
            "compare NDJSON drifted from the golden fixture at {threads} threads"
        );
    }
}
