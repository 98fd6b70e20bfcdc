//! A tiny `--key value` argument parser (no external dependencies — the
//! workspace's dependency policy allows only the offline simulation
//! crates).

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Clone, Debug, Default)]
pub struct Args {
    command: Option<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Errors from argument parsing or lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgsError {
    /// An option value failed to parse.
    BadValue {
        /// The option name.
        key: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// An unexpected positional argument.
    UnexpectedPositional(String),
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "option --{key}: '{value}' is not a valid {expected}")
            }
            ArgsError::UnexpectedPositional(p) => write!(
                f,
                "unexpected argument '{p}' (one command, then --key value options; see `soteria help`)"
            ),
        }
    }
}

impl std::error::Error for ArgsError {}

/// The CLI reports every failure as its one-line message.
impl From<ArgsError> for String {
    fn from(e: ArgsError) -> String {
        e.to_string()
    }
}

impl Args {
    /// Parses an iterator of arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError`] for malformed input.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgsError> {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                // A flag if the next token is another option or absent;
                // otherwise an option with a value.
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let value = iter.next().expect("peeked");
                        out.options.insert(key.to_string(), value);
                    }
                    _ => out.flags.push(key.to_string()),
                }
            } else if out.command.is_none() {
                out.command = Some(arg);
            } else {
                return Err(ArgsError::UnexpectedPositional(arg));
            }
        }
        Ok(out)
    }

    /// The subcommand, if any.
    pub fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A string option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::BadValue`] when present but unparsable.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgsError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgsError::BadValue {
                key: key.to_string(),
                value: v.to_string(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// Whether a bare `--flag` was given.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn command_and_options() {
        let a = parse("perf --workload pmemkv --ops 1000");
        assert_eq!(a.command(), Some("perf"));
        assert_eq!(a.get("workload"), Some("pmemkv"));
        assert_eq!(a.get_num("ops", 0u64).unwrap(), 1000);
    }

    #[test]
    fn defaults_apply() {
        let a = parse("perf");
        assert_eq!(a.get_or("workload", "sps"), "sps");
        assert_eq!(a.get_num("ops", 42u64).unwrap(), 42);
    }

    #[test]
    fn flags_without_values() {
        let a = parse("campaign --verbose --fit 80");
        assert!(a.has_flag("verbose"));
        assert_eq!(a.get("fit"), Some("80"));
    }

    #[test]
    fn trailing_flag() {
        let a = parse("campaign --fit 80 --verbose");
        assert!(a.has_flag("verbose"));
    }

    #[test]
    fn bad_number_reported() {
        let a = parse("perf --ops banana");
        assert!(matches!(
            a.get_num("ops", 0u64),
            Err(ArgsError::BadValue { .. })
        ));
    }

    #[test]
    fn unexpected_positional_rejected() {
        let e = Args::parse(["perf".into(), "extra".into()]).unwrap_err();
        assert!(matches!(e, ArgsError::UnexpectedPositional(_)));
    }

    /// Every parse failure prints an actionable one-liner; the exact
    /// strings are part of the CLI's contract.
    #[test]
    fn error_display_strings_are_pinned() {
        let bad = ArgsError::BadValue {
            key: "ops".into(),
            value: "banana".into(),
            expected: "u64",
        };
        assert_eq!(
            bad.to_string(),
            "option --ops: 'banana' is not a valid u64"
        );
        let positional = ArgsError::UnexpectedPositional("extra".into());
        assert_eq!(
            positional.to_string(),
            "unexpected argument 'extra' (one command, then --key value options; see `soteria help`)"
        );
    }
}
