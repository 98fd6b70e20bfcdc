//! End-to-end tests for `soteria-lint`: every rule exercised through
//! fixture files (positive hits, literal/comment immunity, suppression,
//! baseline matching), a self-test on the linter's own source, a
//! whole-workspace cleanliness gate, and pinned exit codes through the
//! real binary.

use std::path::{Path, PathBuf};
use std::process::Command;

use soteria_lint::conc::lint_concurrency;
use soteria_lint::{
    lint_cargo_toml, lint_rust_source, lint_workspace, Baseline, LintReport, Rule, Violation,
};
use soteria_rt::json::Json;

fn rules_of(violations: &[Violation]) -> Vec<Rule> {
    violations.iter().map(|v| v.rule).collect()
}

fn count(violations: &[Violation], rule: Rule) -> usize {
    violations.iter().filter(|v| v.rule == rule).count()
}

// ----- rule positives --------------------------------------------------

#[test]
fn d1_flags_wall_clock_sources() {
    let vs = lint_rust_source(
        "crates/faultsim/src/fixture.rs",
        include_str!("fixtures/d1_hits.rs"),
    );
    assert_eq!(count(&vs, Rule::D1), 4, "{vs:?}");
    assert!(vs.iter().any(|v| v.message.contains("`Instant::now`")));
    assert!(vs.iter().any(|v| v.message.contains("`thread::sleep`")));
}

#[test]
fn d1_allowlist_exempts_rt_bench_and_svc() {
    let src = include_str!("fixtures/d1_hits.rs");
    for rel in [
        "crates/rt/src/bench.rs",
        "crates/rt/src/obs.rs",
        "crates/svc/src/server.rs",
        "crates/cli/src/main.rs",
    ] {
        let vs = lint_rust_source(rel, src);
        assert_eq!(count(&vs, Rule::D1), 0, "{rel} should be allowlisted");
    }
}

#[test]
fn d2_flags_hash_containers_in_deterministic_crates() {
    let src = include_str!("fixtures/d2_hits.rs");
    for rel in [
        "crates/nvm/src/fixture.rs",
        "crates/core/src/fixture.rs",
        "crates/faultsim/src/fixture.rs",
    ] {
        let vs = lint_rust_source(rel, src);
        assert_eq!(count(&vs, Rule::D2), 3, "{rel}: {vs:?}");
    }
    // Outside the deterministic crates the rule does not apply.
    let vs = lint_rust_source("crates/workloads/src/fixture.rs", src);
    assert_eq!(count(&vs, Rule::D2), 0);
}

#[test]
fn d3_flags_randomness_outside_rt_rng() {
    let src = include_str!("fixtures/d3_hits.rs");
    let vs = lint_rust_source("crates/core/src/fixture.rs", src);
    assert_eq!(count(&vs, Rule::D3), 4, "{vs:?}");
    let vs = lint_rust_source("crates/rt/src/rng.rs", src);
    assert_eq!(count(&vs, Rule::D3), 0, "rng.rs is the sanctioned source");
}

#[test]
fn u1_requires_safety_comments() {
    let vs = lint_rust_source(
        "crates/crypto/src/fixture.rs",
        include_str!("fixtures/u1_unsafe.rs"),
    );
    assert_eq!(count(&vs, Rule::U1), 1, "{vs:?}");
    assert_eq!(vs[0].line, 4);
    assert_eq!(vs[0].message, "unsafe without a `// SAFETY:` comment");
}

#[test]
fn u1_applies_even_in_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    fn f(p: *const u8) -> u8 {\n        unsafe { *p }\n    }\n}\n";
    let vs = lint_rust_source("crates/rt/src/fixture.rs", src);
    assert_eq!(count(&vs, Rule::U1), 1);
}

#[test]
fn p1_flags_unwrap_and_expect_in_library_code() {
    let src = include_str!("fixtures/p1_panics.rs");
    let vs = lint_rust_source("crates/core/src/fixture.rs", src);
    assert_eq!(count(&vs, Rule::P1), 2, "{vs:?}");
    // Not in scope for crates outside the library set.
    let vs = lint_rust_source("crates/cli/src/fixture.rs", src);
    assert_eq!(count(&vs, Rule::P1), 0);
}

// ----- immunity, suppression, test regions -----------------------------

#[test]
fn literals_and_comments_never_fire() {
    let vs = lint_rust_source(
        "crates/nvm/src/fixture.rs",
        include_str!("fixtures/literal_immunity.rs"),
    );
    assert!(vs.is_empty(), "expected no violations, got {vs:?}");
}

#[test]
fn lint_allow_suppresses_and_a1_flags_malformed() {
    let vs = lint_rust_source(
        "crates/nvm/src/fixture.rs",
        include_str!("fixtures/allow_suppression.rs"),
    );
    assert_eq!(count(&vs, Rule::D2), 2, "{vs:?}");
    assert_eq!(count(&vs, Rule::A1), 2, "{vs:?}");
    let d2_lines: Vec<usize> = vs
        .iter()
        .filter(|v| v.rule == Rule::D2)
        .map(|v| v.line)
        .collect();
    assert_eq!(d2_lines, vec![10, 14]);
}

#[test]
fn cfg_test_regions_are_exempt_from_determinism_rules() {
    let vs = lint_rust_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/test_regions.rs"),
    );
    assert_eq!(rules_of(&vs), vec![Rule::P1]);
    assert_eq!(vs[0].line, 5);
}

#[test]
fn tests_and_benches_trees_are_exempt_from_determinism_rules() {
    let src = include_str!("fixtures/d2_hits.rs");
    for rel in [
        "crates/nvm/tests/fixture.rs",
        "crates/core/benches/fixture.rs",
        "tests/fixture.rs",
        "examples/fixture.rs",
    ] {
        let vs = lint_rust_source(rel, src);
        assert!(vs.is_empty(), "{rel} should be exempt, got {vs:?}");
    }
}

// ----- H1 --------------------------------------------------------------

#[test]
fn h1_flags_external_dependencies() {
    let vs = lint_cargo_toml(
        "crates/fixture/Cargo.toml",
        include_str!("fixtures/h1_external.toml"),
    );
    assert_eq!(count(&vs, Rule::H1), 4, "{vs:?}");
    let named: Vec<&str> = vs.iter().map(|v| v.snippet.as_str()).collect();
    assert!(named.iter().any(|s| s.contains("serde")), "{named:?}");
    assert!(vs.iter().any(|v| v.message.contains("`criterion`")));
}

#[test]
fn h1_accepts_hermetic_manifests() {
    let vs = lint_cargo_toml(
        "crates/fixture/Cargo.toml",
        include_str!("fixtures/h1_hermetic.toml"),
    );
    assert!(vs.is_empty(), "expected hermetic, got {vs:?}");
}

// ----- baseline --------------------------------------------------------

#[test]
fn baseline_grandfathers_by_rule_path_and_snippet() {
    let vs = lint_rust_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/p1_panics.rs"),
    );
    let baseline = Baseline::from_violations(&vs);
    let (fresh, known) = baseline.partition(vs.clone());
    assert!(fresh.is_empty());
    assert_eq!(known.len(), 2);

    // A baseline for one file does not cover another path.
    let moved = lint_rust_source(
        "crates/ecc/src/fixture.rs",
        include_str!("fixtures/p1_panics.rs"),
    );
    let (fresh, _) = baseline.partition(moved);
    assert_eq!(fresh.len(), 2, "different path must not match the baseline");
}

// ----- self-test and whole-workspace gate ------------------------------

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn linter_is_clean_on_its_own_source() {
    let report = lint_workspace(Path::new(env!("CARGO_MANIFEST_DIR")), &Baseline::empty())
        .expect("lint own crate");
    assert!(
        report.new_violations.is_empty(),
        "soteria-lint must satisfy its own rules: {:?}",
        report.new_violations
    );
    assert!(
        report
            .checked_files
            .iter()
            .any(|f| f.ends_with("src/rules.rs")),
        "self-scan must cover the rule sources: {:?}",
        report.checked_files
    );
    assert!(
        !report.checked_files.iter().any(|f| f.contains("fixtures")),
        "fixtures are excluded from workspace walks"
    );
}

#[test]
fn workspace_is_clean_against_committed_baseline() {
    let root = repo_root();
    let baseline_path = root.join("lint-baseline.json");
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => Baseline::parse("lint-baseline.json", &text).expect("baseline parses"),
        Err(_) => Baseline::empty(),
    };
    let report = lint_workspace(&root, &baseline).expect("lint workspace");
    assert!(
        report.new_violations.is_empty(),
        "workspace has new lint violations:\n{}",
        report
            .new_violations
            .iter()
            .map(|v| format!("  {v}\n    | {}\n", v.snippet))
            .collect::<String>()
    );
    assert!(
        report.checked_files.len() > 80,
        "workspace walk looks truncated: {} files",
        report.checked_files.len()
    );
}

#[test]
fn every_unsafe_in_the_workspace_has_a_safety_comment() {
    // U1 with an EMPTY baseline: unsafe documentation is never
    // grandfathered.
    let report = lint_workspace(&repo_root(), &Baseline::empty()).expect("lint workspace");
    let u1: Vec<&Violation> = report
        .new_violations
        .iter()
        .chain(report.baselined.iter())
        .filter(|v| v.rule == Rule::U1)
        .collect();
    assert!(u1.is_empty(), "undocumented unsafe: {u1:?}");
}

// ----- the real binary: exit codes and output --------------------------

fn run_lint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_soteria-lint"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn binary_exits_zero_on_clean_workspace() {
    let root = repo_root();
    let out = run_lint(&["--workspace", "--root", &root.display().to_string()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "expected clean workspace, got:\n{stdout}"
    );
    assert!(stdout.contains("soteria-lint: clean"), "{stdout}");
}

#[test]
fn binary_exit_codes_and_usage_are_pinned() {
    let out = run_lint(&[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("soteria-lint: usage error: pass --workspace (or --list-rules)"),
        "{stderr}"
    );

    let out = run_lint(&["--nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage error: unknown flag '--nope'"));

    let out = run_lint(&["--list-rules"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "D1\nD2\nD3\nH1\nU1\nP1\nA1\nC1\nC2\nC3\nU2\n"
    );
}

#[test]
fn binary_flags_seeded_violations_by_rule_name() {
    // Build a scratch workspace with one violation per seeded rule and
    // check the binary names each rule and exits 1.
    let scratch = std::env::temp_dir().join(format!("soteria-lint-scratch-{}", std::process::id()));
    let nvm_src = scratch.join("crates").join("nvm").join("src");
    std::fs::create_dir_all(&nvm_src).expect("mkdir scratch");
    std::fs::write(
        scratch.join("Cargo.toml"),
        "[package]\nname = \"scratch\"\n\n[dependencies]\nserde = \"1.0\"\n",
    )
    .expect("write manifest");
    std::fs::write(
        nvm_src.join("lib.rs"),
        "use std::collections::HashMap;\n\
         pub fn now() -> std::time::Instant { std::time::Instant::now() }\n\
         pub fn raw(p: *const u8) -> u8 { unsafe { *p } }\n\
         pub type T = HashMap<u8, u8>;\n",
    )
    .expect("write source");

    let out = run_lint(&["--workspace", "--root", &scratch.display().to_string()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    for needle in [": D1: ", ": D2: ", ": H1: ", ": U1: "] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
    assert!(stdout.contains("new violation(s)"), "{stdout}");

    // JSON mode reports the same findings machine-readably.
    let out = run_lint(&[
        "--workspace",
        "--root",
        &scratch.display().to_string(),
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let doc = soteria_rt::json::Json::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("valid JSON report");
    assert_eq!(
        doc.get("tool").and_then(|t| t.as_str()),
        Some("soteria-lint/v2")
    );
    assert!(
        doc.get("new_violations")
            .and_then(|n| n.as_f64())
            .unwrap_or(0.0)
            >= 4.0
    );
    // v2 tags every violation with the pass that produced it.
    match doc.get("violations") {
        Some(Json::Arr(items)) => {
            assert!(!items.is_empty());
            for item in items {
                let pass = item.get("pass").and_then(|p| p.as_str());
                assert!(
                    matches!(pass, Some("lex") | Some("conc")),
                    "bad pass field: {pass:?}"
                );
            }
        }
        other => panic!("violations array missing: {other:?}"),
    }

    // A written baseline grandfathers everything: exit turns 0.
    let out = run_lint(&[
        "--workspace",
        "--root",
        &scratch.display().to_string(),
        "--write-baseline",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let out = run_lint(&["--workspace", "--root", &scratch.display().to_string()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "baselined scratch must be clean"
    );

    std::fs::remove_dir_all(&scratch).ok();
}

// ----- the conc pass: C1/C2/C3/U2 fixtures -----------------------------

fn conc(rel: &str, src: &str) -> Vec<Violation> {
    lint_concurrency(&[(rel.to_string(), src.to_string())])
}

#[test]
fn c1_flags_lock_order_cycles() {
    let vs = conc(
        "crates/svc/src/fixture.rs",
        include_str!("fixtures/c1_cycle.rs"),
    );
    assert_eq!(rules_of(&vs), vec![Rule::C1, Rule::C1], "{vs:?}");
    assert!(vs.iter().all(|v| v.message.contains("lock-order cycle")));
    assert!(
        vs.iter()
            .any(|v| v.message.contains("`Pair.b`") && v.message.contains("`Pair.a`")),
        "{vs:?}"
    );
}

#[test]
fn c1_suppression_with_reason_is_honored() {
    let vs = conc(
        "crates/svc/src/fixture.rs",
        include_str!("fixtures/c1_suppressed.rs"),
    );
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn c2_flags_lock_held_across_blocking_op() {
    let vs = conc(
        "crates/svc/src/fixture.rs",
        include_str!("fixtures/c2_blocking.rs"),
    );
    assert_eq!(rules_of(&vs), vec![Rule::C2], "{vs:?}");
    assert!(
        vs[0].message.contains("held across blocking `write_all`"),
        "{vs:?}"
    );
}

#[test]
fn c2_suppression_with_reason_is_honored() {
    let vs = conc(
        "crates/svc/src/fixture.rs",
        include_str!("fixtures/c2_suppressed.rs"),
    );
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn c3_flags_condvar_wait_outside_predicate_loop() {
    let vs = conc(
        "crates/svc/src/fixture.rs",
        include_str!("fixtures/c3_wait.rs"),
    );
    assert_eq!(rules_of(&vs), vec![Rule::C3], "{vs:?}");
    assert!(vs[0].message.contains("outside a predicate loop"), "{vs:?}");
}

#[test]
fn c3_suppression_with_reason_is_honored() {
    let vs = conc(
        "crates/svc/src/fixture.rs",
        include_str!("fixtures/c3_suppressed.rs"),
    );
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn u2_flags_raw_syscalls_outside_reactor() {
    let vs = conc(
        "crates/svc/src/fixture.rs",
        include_str!("fixtures/u2_raw.rs"),
    );
    assert_eq!(rules_of(&vs), vec![Rule::U2, Rule::U2], "{vs:?}");
    assert!(
        vs.iter().any(|v| v
            .message
            .contains("raw syscall declaration `epoll_create1`")),
        "{vs:?}"
    );
    assert!(
        vs.iter().any(|v| v
            .message
            .contains("raw syscall `epoll_create1` called outside")),
        "{vs:?}"
    );
}

#[test]
fn u2_suppression_with_reason_is_honored() {
    let vs = conc(
        "crates/svc/src/fixture.rs",
        include_str!("fixtures/u2_suppressed.rs"),
    );
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn u2_inside_reactor_only_the_audited_poller_api_may_leak() {
    let vs = conc(
        "crates/rt/src/reactor.rs",
        include_str!("fixtures/u2_reactor.rs"),
    );
    assert_eq!(rules_of(&vs), vec![Rule::U2], "{vs:?}");
    assert!(vs[0].snippet.contains("sneaky_wait"), "{vs:?}");
    assert!(
        vs[0]
            .message
            .contains("reachable outside the audited Poller API"),
        "{vs:?}"
    );
}

#[test]
fn conc_blocking_propagates_across_files_through_the_call_graph() {
    let helper = "pub fn push_all(stream: &mut std::net::TcpStream) {\n\
                  \x20   use std::io::Write;\n\
                  \x20   stream.write_all(b\"x\").ok();\n\
                  }\n";
    let caller = "use std::sync::Mutex;\n\
                  pub struct S {\n\
                  \x20   pub state: Mutex<u32>,\n\
                  }\n\
                  pub fn relay(s: &S, stream: &mut std::net::TcpStream) {\n\
                  \x20   let g = s.state.lock().unwrap();\n\
                  \x20   push_all(stream);\n\
                  \x20   drop(g);\n\
                  }\n";
    let vs = lint_concurrency(&[
        ("crates/svc/src/helper.rs".to_string(), helper.to_string()),
        ("crates/svc/src/caller.rs".to_string(), caller.to_string()),
    ]);
    assert_eq!(rules_of(&vs), vec![Rule::C2], "{vs:?}");
    assert!(vs[0].path.ends_with("caller.rs"), "{vs:?}");
    assert!(
        vs[0].message.contains("call to blocking `push_all`"),
        "{vs:?}"
    );
}

#[test]
fn conc_lock_order_cycle_spans_the_call_graph() {
    let file_a = "use std::sync::Mutex;\n\
                  pub struct S {\n\
                  \x20   pub a: Mutex<u32>,\n\
                  \x20   pub b: Mutex<u32>,\n\
                  }\n\
                  pub fn take_b(s: &S) {\n\
                  \x20   let g = s.b.lock().unwrap();\n\
                  \x20   drop(g);\n\
                  }\n\
                  pub fn forward(s: &S) {\n\
                  \x20   let g = s.a.lock().unwrap();\n\
                  \x20   take_b(s);\n\
                  \x20   drop(g);\n\
                  }\n";
    let file_b = "pub fn backward(s: &crate::a::S) {\n\
                  \x20   let gb = s.b.lock().unwrap();\n\
                  \x20   let ga = s.a.lock().unwrap();\n\
                  \x20   drop(ga);\n\
                  \x20   drop(gb);\n\
                  }\n";
    let vs = lint_concurrency(&[
        ("crates/svc/src/a.rs".to_string(), file_a.to_string()),
        ("crates/svc/src/b.rs".to_string(), file_b.to_string()),
    ]);
    assert_eq!(count(&vs, Rule::C1), 2, "{vs:?}");
    assert_eq!(vs.len(), 2, "only C1 should fire: {vs:?}");
}

#[test]
fn conc_rules_skip_test_code() {
    let src = include_str!("fixtures/c1_cycle.rs");
    for rel in ["crates/svc/tests/fixture.rs", "tests/fixture.rs"] {
        let vs = conc(rel, src);
        assert!(vs.is_empty(), "{rel} should be exempt, got {vs:?}");
    }
}

// ----- raw identifiers (previously mislexed) ---------------------------

#[test]
fn raw_identifiers_do_not_mislex_as_keywords() {
    // `fn r#unsafe` used to fire U1 and `type r#HashMap` fired D2: the
    // token scanner matched the keyword straight through the `r#`.
    let vs = lint_rust_source(
        "crates/nvm/src/fixture.rs",
        include_str!("fixtures/raw_ident.rs"),
    );
    assert!(vs.is_empty(), "{vs:?}");
}

// ----- v2 JSON report round-trips through rt::json ---------------------

#[test]
fn json_report_roundtrips_with_pass_field() {
    let vs = conc(
        "crates/svc/src/fixture.rs",
        include_str!("fixtures/c2_blocking.rs"),
    );
    assert!(!vs.is_empty());
    let report = LintReport {
        checked_files: vec!["crates/svc/src/fixture.rs".to_string()],
        new_violations: vs,
        baselined: Vec::new(),
    };
    let doc = Json::parse(&report.to_json().to_pretty_string()).expect("report parses back");
    assert_eq!(
        doc.get("tool").and_then(|t| t.as_str()),
        Some("soteria-lint/v2")
    );
    match doc.get("violations") {
        Some(Json::Arr(items)) => {
            assert!(!items.is_empty());
            for item in items {
                assert_eq!(item.get("pass").and_then(|p| p.as_str()), Some("conc"));
                assert_eq!(item.get("rule").and_then(|r| r.as_str()), Some("C2"));
            }
        }
        other => panic!("violations array missing: {other:?}"),
    }
}

// ----- --changed mode and --help ---------------------------------------

#[test]
fn binary_changed_mode_lints_only_listed_files() {
    let scratch = std::env::temp_dir().join(format!("soteria-lint-changed-{}", std::process::id()));
    let nvm_src = scratch.join("crates").join("nvm").join("src");
    std::fs::create_dir_all(&nvm_src).expect("mkdir scratch");
    std::fs::write(
        nvm_src.join("dirty.rs"),
        "use std::collections::HashMap;\npub type T = HashMap<u8, u8>;\n",
    )
    .expect("write dirty");
    std::fs::write(nvm_src.join("clean.rs"), "pub fn ok() {}\n").expect("write clean");
    let root = scratch.display().to_string();

    // Only the listed dirty file is linted and flagged.
    let out = run_lint(&["--changed", "crates/nvm/src/dirty.rs", "--root", &root]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains(": D2: "), "{stdout}");

    // A clean listed file exits 0; the dirty one is not scanned.
    let out = run_lint(&["--changed", "crates/nvm/src/clean.rs", "--root", &root]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("(1 files checked"));

    // Deleted/unknown and non-lintable paths are skipped, not errors.
    let out = run_lint(&[
        "--changed",
        "crates/nvm/src/gone.rs",
        "README.md",
        "--root",
        &root,
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("(0 files checked"));

    // Mode conflicts are usage errors (exit 2).
    let out = run_lint(&["--workspace", "--changed", "x.rs", "--root", &root]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr)
        .contains("--workspace and --changed are mutually exclusive"));
    let out = run_lint(&["--changed", "x.rs", "--write-baseline", "--root", &root]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--write-baseline needs --workspace"));

    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn binary_help_output_is_pinned_exactly() {
    let out = run_lint(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let expected = concat!(
        "soteria-lint: determinism, hermeticity & concurrency linter\n",
        "\n",
        "usage: soteria-lint --workspace [--root DIR] [--baseline FILE] ",
        "[--json] [--write-baseline] [--list-rules]\n",
        "       soteria-lint --changed FILE... [--root DIR] [--baseline FILE] [--json]\n",
        "\n",
        "modes:\n",
        "  --workspace        lint every *.rs and Cargo.toml under the root\n",
        "                     (lex pass + whole-workspace conc pass)\n",
        "  --changed FILE...  lint only the listed files with the lex pass\n",
        "                     (fast pre-commit mode; missing files are skipped)\n",
        "  --list-rules       print the rule catalog, one name per line\n",
        "\n",
        "options:\n",
        "  --root DIR         workspace root (default: .)\n",
        "  --baseline FILE    baseline path (default: ROOT/lint-baseline.json)\n",
        "  --json             print the machine-readable soteria-lint/v2 report\n",
        "  --write-baseline   grandfather all current findings into the baseline\n",
        "  --help             show this help\n",
        "\n",
        "exit codes: 0 clean, 1 new violations, 2 usage/IO/baseline error\n",
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
    assert_eq!(out.stderr.len(), 0);
}
