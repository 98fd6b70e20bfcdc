#![warn(missing_docs)]

//! `soteria-lint`: the workspace's determinism & hermeticity linter.
//!
//! The repo's core promise — bit-identical campaign artifacts, traces,
//! and recovery sweeps at any thread count — only holds if a handful of
//! invariants hold *everywhere*: no wall clocks in deterministic paths,
//! no hash-ordered containers feeding snapshots, no randomness outside
//! `soteria-rt::rng`, no external crates in the hermetic build, every
//! `unsafe` documented, no panicking shortcuts in library code. This
//! crate turns those project rules into machine-checked ones.
//!
//! * [`rules`] — the rule catalog (D1, D2, D3, H1, U1, P1, A1 in the
//!   per-file **lex** pass; C1, C2, C3, U2 in the workspace **conc**
//!   pass) and the per-file scanners, built on the literal-aware
//!   [`lexer`] so rules never fire inside strings or comments.
//! * [`ast`] / [`callgraph`] / [`conc`] — the function-level analyzer:
//!   token trees, the intra-workspace call graph, per-function lock
//!   summaries, and the interprocedural lock-order (C1), blocking-call
//!   (C2), condvar-loop (C3), and raw-syscall-containment (U2) rules.
//! * [`baseline`] — the checked-in grandfather list; CI fails only on
//!   violations not in the baseline.
//! * Suppression: end the offending line (or the comment line above it)
//!   with ``// lint:allow(D2, reason why this site is sound)``. The
//!   reason is mandatory; rule A1 flags reason-less or unknown-rule
//!   allows.
//!
//! Run it locally with `cargo run -p soteria-lint -- --workspace`.
//! Exit codes are pinned: 0 clean, 1 new violations, 2 usage/IO error.

pub mod ast;
pub mod baseline;
pub mod callgraph;
pub mod conc;
pub mod lexer;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

pub use baseline::Baseline;
pub use rules::{lint_cargo_toml, lint_rust_source, Rule, Violation};

/// Exit code when no new violations were found.
pub const EXIT_CLEAN: i32 = 0;
/// Exit code when new violations were found.
pub const EXIT_VIOLATIONS: i32 = 1;
/// Exit code for usage, IO, or baseline errors.
pub const EXIT_ERROR: i32 = 2;

/// A linter failure (not a violation — those are data, not errors).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LintError {
    /// Bad command line.
    Usage(String),
    /// A file or directory could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The baseline file is unreadable or malformed.
    Baseline {
        /// The baseline path.
        path: String,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Usage(msg) => write!(f, "usage error: {msg}"),
            LintError::Io { path, message } => write!(f, "io error: {path}: {message}"),
            LintError::Baseline { path, message } => {
                write!(f, "baseline error: {path}: {message}")
            }
        }
    }
}

impl std::error::Error for LintError {}

/// Directory names never descended into during the workspace walk.
/// `fixtures` holds the linter's own deliberately-violating test inputs.
const SKIP_DIRS: [&str; 5] = ["target", ".git", "fixtures", "results", "docs"];

/// Everything one workspace lint run produced.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Files scanned, workspace-relative, sorted.
    pub checked_files: Vec<String>,
    /// Violations not covered by the baseline.
    pub new_violations: Vec<Violation>,
    /// Violations grandfathered by the baseline.
    pub baselined: Vec<Violation>,
}

impl LintReport {
    /// Machine-readable report (schema `soteria-lint/v2`; v2 added the
    /// per-violation `pass` field distinguishing the per-file lex rules
    /// from the workspace concurrency rules).
    pub fn to_json(&self) -> soteria_rt::json::Json {
        use soteria_rt::json::Json;
        let violation = |v: &Violation, baselined: bool| {
            Json::Obj(vec![
                ("rule".to_string(), Json::Str(v.rule.name().to_string())),
                ("pass".to_string(), Json::Str(v.rule.pass().to_string())),
                ("path".to_string(), Json::Str(v.path.clone())),
                ("line".to_string(), Json::Num(v.line as f64)),
                ("snippet".to_string(), Json::Str(v.snippet.clone())),
                ("message".to_string(), Json::Str(v.message.clone())),
                ("baselined".to_string(), Json::Bool(baselined)),
            ])
        };
        let mut violations: Vec<Json> = self
            .new_violations
            .iter()
            .map(|v| violation(v, false))
            .collect();
        violations.extend(self.baselined.iter().map(|v| violation(v, true)));
        Json::Obj(vec![
            ("tool".to_string(), Json::Str("soteria-lint/v2".to_string())),
            (
                "checked_files".to_string(),
                Json::Num(self.checked_files.len() as f64),
            ),
            (
                "new_violations".to_string(),
                Json::Num(self.new_violations.len() as f64),
            ),
            (
                "baselined".to_string(),
                Json::Num(self.baselined.len() as f64),
            ),
            ("violations".to_string(), Json::Arr(violations)),
        ])
    }
}

/// Collects the lintable files (`*.rs` and `Cargo.toml`) under `root`,
/// as sorted workspace-relative `/`-separated paths.
///
/// # Errors
///
/// Returns [`LintError::Io`] if a directory cannot be read.
pub fn collect_files(root: &Path) -> Result<Vec<String>, LintError> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), LintError> {
    let io_err = |p: &Path, e: std::io::Error| LintError::Io {
        path: p.display().to_string(),
        message: e.to_string(),
    };
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name == "Cargo.toml" || name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Lints every Rust source and `Cargo.toml` under `root` and splits the
/// findings against `baseline`.
///
/// # Errors
///
/// Returns [`LintError::Io`] if a file cannot be read.
pub fn lint_workspace(root: &Path, baseline: &Baseline) -> Result<LintReport, LintError> {
    let files = collect_files(root)?;
    let mut violations = Vec::new();
    let mut rust_sources: Vec<(String, String)> = Vec::new();
    for rel in &files {
        let text = read_rel(root, rel)?;
        if rel.ends_with("Cargo.toml") {
            violations.extend(lint_cargo_toml(rel, &text));
        } else {
            violations.extend(lint_rust_source(rel, &text));
            rust_sources.push((rel.clone(), text));
        }
    }
    // The conc pass needs the whole workspace at once: lock summaries
    // propagate across files through the call graph.
    violations.extend(conc::lint_concurrency(&rust_sources));
    let (new_violations, baselined) = baseline.partition(violations);
    Ok(LintReport {
        checked_files: files,
        new_violations,
        baselined,
    })
}

/// Lints just `paths` (workspace-relative or absolute) with the lex
/// pass — the sub-second `--changed` mode for pre-commit hooks. Paths
/// that no longer exist (deleted in the change) or are not lintable
/// (`*.rs` / `Cargo.toml`) are skipped. The conc pass is workspace-wide
/// by nature and does not run here.
///
/// # Errors
///
/// Returns [`LintError::Io`] if an existing file cannot be read.
pub fn lint_files(
    root: &Path,
    paths: &[String],
    baseline: &Baseline,
) -> Result<LintReport, LintError> {
    let mut checked = Vec::new();
    let mut violations = Vec::new();
    for given in paths {
        let rel = given.replace('\\', "/");
        if !(rel.ends_with(".rs") || rel.ends_with("Cargo.toml")) {
            continue;
        }
        let full: PathBuf = if Path::new(given).is_absolute() {
            PathBuf::from(given)
        } else {
            root.join(given)
        };
        if !full.exists() {
            continue;
        }
        let text = std::fs::read_to_string(&full).map_err(|e| LintError::Io {
            path: full.display().to_string(),
            message: e.to_string(),
        })?;
        if rel.ends_with("Cargo.toml") {
            violations.extend(lint_cargo_toml(&rel, &text));
        } else {
            violations.extend(lint_rust_source(&rel, &text));
        }
        checked.push(rel);
    }
    checked.sort();
    let (new_violations, baselined) = baseline.partition(violations);
    Ok(LintReport {
        checked_files: checked,
        new_violations,
        baselined,
    })
}

fn read_rel(root: &Path, rel: &str) -> Result<String, LintError> {
    let full: PathBuf = root.join(rel);
    std::fs::read_to_string(&full).map_err(|e| LintError::Io {
        path: full.display().to_string(),
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_strings_are_pinned() {
        assert_eq!(
            LintError::Usage("unknown flag '--x'".to_string()).to_string(),
            "usage error: unknown flag '--x'"
        );
        assert_eq!(
            LintError::Io {
                path: "a/b.rs".to_string(),
                message: "denied".to_string()
            }
            .to_string(),
            "io error: a/b.rs: denied"
        );
        assert_eq!(
            LintError::Baseline {
                path: "lint-baseline.json".to_string(),
                message: "missing 'entries' array".to_string()
            }
            .to_string(),
            "baseline error: lint-baseline.json: missing 'entries' array"
        );
    }

    #[test]
    fn exit_codes_are_pinned() {
        assert_eq!(EXIT_CLEAN, 0);
        assert_eq!(EXIT_VIOLATIONS, 1);
        assert_eq!(EXIT_ERROR, 2);
    }
}
