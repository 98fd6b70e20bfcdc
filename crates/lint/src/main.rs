//! `soteria-lint` binary: walk the workspace, enforce the determinism &
//! hermeticity rules, and gate on the checked-in baseline.
//!
//! ```text
//! soteria-lint --workspace [--root DIR] [--baseline FILE] [--json]
//!              [--write-baseline] [--list-rules]
//! soteria-lint --changed FILE... [--root DIR] [--baseline FILE] [--json]
//! ```
//!
//! Exit codes (pinned, tested): 0 = clean, 1 = new violations,
//! 2 = usage/IO/baseline error.

use std::path::PathBuf;

use soteria_lint::{
    lint_files, lint_workspace, Baseline, LintError, LintReport, Rule, EXIT_CLEAN, EXIT_ERROR,
    EXIT_VIOLATIONS,
};

const USAGE: &str = "usage: soteria-lint --workspace [--root DIR] [--baseline FILE] \
[--json] [--write-baseline] [--list-rules]\n\
       soteria-lint --changed FILE... [--root DIR] [--baseline FILE] [--json]";

/// Exact `--help` text (pinned by test).
const HELP: &str = "\
soteria-lint: determinism, hermeticity & concurrency linter

usage: soteria-lint --workspace [--root DIR] [--baseline FILE] \
[--json] [--write-baseline] [--list-rules]
       soteria-lint --changed FILE... [--root DIR] [--baseline FILE] [--json]

modes:
  --workspace        lint every *.rs and Cargo.toml under the root
                     (lex pass + whole-workspace conc pass)
  --changed FILE...  lint only the listed files with the lex pass
                     (fast pre-commit mode; missing files are skipped)
  --list-rules       print the rule catalog, one name per line

options:
  --root DIR         workspace root (default: .)
  --baseline FILE    baseline path (default: ROOT/lint-baseline.json)
  --json             print the machine-readable soteria-lint/v2 report
  --write-baseline   grandfather all current findings into the baseline
  --help             show this help

exit codes: 0 clean, 1 new violations, 2 usage/IO/baseline error
";

struct Args {
    workspace: bool,
    changed: Option<Vec<String>>,
    root: PathBuf,
    baseline: Option<PathBuf>,
    json: bool,
    write_baseline: bool,
    list_rules: bool,
    help: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, LintError> {
    let mut args = Args {
        workspace: false,
        changed: None,
        root: PathBuf::from("."),
        baseline: None,
        json: false,
        write_baseline: false,
        list_rules: false,
        help: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--json" => args.json = true,
            "--write-baseline" => args.write_baseline = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => args.help = true,
            "--changed" => {
                args.changed.get_or_insert_with(Vec::new);
            }
            "--root" => {
                let v = it
                    .next()
                    .ok_or_else(|| LintError::Usage("--root needs a directory".to_string()))?;
                args.root = PathBuf::from(v);
            }
            "--baseline" => {
                let v = it
                    .next()
                    .ok_or_else(|| LintError::Usage("--baseline needs a file".to_string()))?;
                args.baseline = Some(PathBuf::from(v));
            }
            other if !other.starts_with('-') && args.changed.is_some() => {
                if let Some(files) = args.changed.as_mut() {
                    files.push(other.to_string());
                }
            }
            other => {
                return Err(LintError::Usage(format!("unknown flag '{other}'")));
            }
        }
    }
    if args.workspace && args.changed.is_some() {
        return Err(LintError::Usage(
            "--workspace and --changed are mutually exclusive".to_string(),
        ));
    }
    if args.write_baseline && args.changed.is_some() {
        return Err(LintError::Usage(
            "--write-baseline needs --workspace (a partial baseline would lie)".to_string(),
        ));
    }
    if !args.workspace && !args.list_rules && !args.help && args.changed.is_none() {
        return Err(LintError::Usage(
            "pass --workspace (or --list-rules)".to_string(),
        ));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<i32, LintError> {
    if args.help {
        print!("{HELP}");
        return Ok(EXIT_CLEAN);
    }
    if args.list_rules {
        for rule in Rule::ALL {
            println!("{rule}");
        }
        return Ok(EXIT_CLEAN);
    }
    let baseline_path = args
        .baseline
        .clone()
        .unwrap_or_else(|| args.root.join("lint-baseline.json"));
    let baseline = if args.write_baseline {
        Baseline::empty()
    } else {
        match std::fs::read_to_string(&baseline_path) {
            Ok(text) => Baseline::parse(&baseline_path.display().to_string(), &text)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::empty(),
            Err(e) => {
                return Err(LintError::Io {
                    path: baseline_path.display().to_string(),
                    message: e.to_string(),
                })
            }
        }
    };

    let report: LintReport = match &args.changed {
        Some(files) => lint_files(&args.root, files, &baseline)?,
        None => lint_workspace(&args.root, &baseline)?,
    };

    if args.write_baseline {
        let doc = Baseline::from_violations(&report.new_violations)
            .to_json()
            .to_pretty_string();
        std::fs::write(&baseline_path, doc).map_err(|e| LintError::Io {
            path: baseline_path.display().to_string(),
            message: e.to_string(),
        })?;
        println!(
            "soteria-lint: wrote baseline with {} entr{} to {}",
            report.new_violations.len(),
            if report.new_violations.len() == 1 {
                "y"
            } else {
                "ies"
            },
            baseline_path.display()
        );
        return Ok(EXIT_CLEAN);
    }

    if args.json {
        print!("{}", report.to_json().to_pretty_string());
    } else {
        for v in &report.new_violations {
            println!("{v}");
            println!("    | {}", v.snippet);
        }
        if report.new_violations.is_empty() {
            println!(
                "soteria-lint: clean ({} files checked, {} baselined)",
                report.checked_files.len(),
                report.baselined.len()
            );
        } else {
            println!(
                "soteria-lint: {} new violation(s) ({} files checked, {} baselined)",
                report.new_violations.len(),
                report.checked_files.len(),
                report.baselined.len()
            );
        }
    }
    Ok(if report.new_violations.is_empty() {
        EXIT_CLEAN
    } else {
        EXIT_VIOLATIONS
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("soteria-lint: {e}");
            eprintln!("{USAGE}");
            EXIT_ERROR
        }
    };
    std::process::exit(code);
}
