//! The checked-in violation baseline.
//!
//! The baseline grandfathers known violations so the CI gate fails only
//! on **new** ones. Entries match on `(rule, path, snippet)` — not line
//! numbers — so unrelated edits in the same file do not invalidate the
//! baseline, while moving or copying a violating line still counts each
//! occurrence (matching is multiset-aware: two identical violations need
//! two baseline entries).
//!
//! Policy: the baseline only shrinks. New code must either satisfy the
//! rules or carry an inline `lint:allow(RULE, reason)` with a real
//! justification.

use std::collections::BTreeMap;

use soteria_rt::json::Json;

use crate::rules::{Rule, Violation};
use crate::LintError;

/// Format tag written into every baseline document.
pub const BASELINE_FORMAT: &str = "soteria-lint-baseline/v1";

/// A grandfathered violation set.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    /// Multiset of grandfathered `(rule, path, snippet)` keys.
    entries: BTreeMap<(String, String, String), usize>,
}

impl Baseline {
    /// The empty baseline (every violation is new).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of grandfathered entries.
    pub fn len(&self) -> usize {
        self.entries.values().sum()
    }

    /// True if no entries are grandfathered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Builds a baseline grandfathering exactly `violations`.
    pub fn from_violations(violations: &[Violation]) -> Self {
        let mut entries: BTreeMap<(String, String, String), usize> = BTreeMap::new();
        for v in violations {
            *entries
                .entry((v.rule.name().to_string(), v.path.clone(), v.snippet.clone()))
                .or_insert(0) += 1;
        }
        Self { entries }
    }

    /// Splits `violations` into `(new, baselined)`.
    pub fn partition(&self, violations: Vec<Violation>) -> (Vec<Violation>, Vec<Violation>) {
        let mut budget = self.entries.clone();
        let mut fresh = Vec::new();
        let mut known = Vec::new();
        for v in violations {
            let key = (v.rule.name().to_string(), v.path.clone(), v.snippet.clone());
            match budget.get_mut(&key) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    known.push(v);
                }
                _ => fresh.push(v),
            }
        }
        (fresh, known)
    }

    /// Serializes to the committed JSON document.
    pub fn to_json(&self) -> Json {
        let entries: Vec<Json> = self
            .entries
            .iter()
            .flat_map(|((rule, path, snippet), count)| {
                std::iter::repeat_with(move || {
                    Json::Obj(vec![
                        ("rule".to_string(), Json::Str(rule.clone())),
                        ("path".to_string(), Json::Str(path.clone())),
                        ("snippet".to_string(), Json::Str(snippet.clone())),
                    ])
                })
                .take(*count)
            })
            .collect();
        Json::Obj(vec![
            ("format".to_string(), Json::Str(BASELINE_FORMAT.to_string())),
            ("entries".to_string(), Json::Arr(entries)),
        ])
    }

    /// Parses a committed baseline document.
    ///
    /// # Errors
    ///
    /// Returns [`LintError::Baseline`] when the document is not valid
    /// JSON, has the wrong format tag, or an entry is malformed.
    pub fn parse(path_shown: &str, text: &str) -> Result<Self, LintError> {
        let bad = |msg: &str| LintError::Baseline {
            path: path_shown.to_string(),
            message: msg.to_string(),
        };
        let doc = Json::parse(text).map_err(|e| bad(&e.to_string()))?;
        if doc.get("format").and_then(Json::as_str) != Some(BASELINE_FORMAT) {
            return Err(bad(&format!("missing format tag {BASELINE_FORMAT:?}")));
        }
        let entries = doc
            .get("entries")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("missing 'entries' array"))?;
        let mut baseline = Baseline::empty();
        for e in entries {
            let field = |name: &str| {
                e.get(name)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| bad(&format!("entry missing string field '{name}'")))
            };
            let rule = field("rule")?;
            if Rule::parse(&rule).is_none() {
                return Err(bad(&format!("unknown rule '{rule}'")));
            }
            let key = (rule, field("path")?, field("snippet")?);
            *baseline.entries.entry(key).or_insert(0) += 1;
        }
        Ok(baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rule: Rule, path: &str, snippet: &str) -> Violation {
        Violation {
            rule,
            path: path.to_string(),
            line: 1,
            snippet: snippet.to_string(),
            message: String::new(),
        }
    }

    #[test]
    fn round_trip_and_partition() {
        let vs = vec![
            v(Rule::P1, "crates/core/src/a.rs", "x.unwrap();"),
            v(Rule::P1, "crates/core/src/a.rs", "x.unwrap();"),
            v(
                Rule::D2,
                "crates/nvm/src/b.rs",
                "use std::collections::HashMap;",
            ),
        ];
        let b = Baseline::from_violations(&vs);
        assert_eq!(b.len(), 3);
        let text = b.to_json().to_pretty_string();
        let b2 = Baseline::parse("x.json", &text).expect("round trip");
        assert_eq!(b2.len(), 3);

        // Two identical occurrences baselined, a third is new.
        let now = vec![
            vs[0].clone(),
            vs[0].clone(),
            vs[0].clone(),
            v(Rule::U1, "crates/rt/src/c.rs", "unsafe {"),
        ];
        let (fresh, known) = b2.partition(now);
        assert_eq!(known.len(), 2);
        assert_eq!(fresh.len(), 2);
        assert_eq!(fresh[1].rule, Rule::U1);
    }

    #[test]
    fn bad_documents_are_rejected_with_pinned_messages() {
        let e = Baseline::parse("b.json", "not json").expect_err("invalid");
        assert!(e.to_string().starts_with("baseline error: b.json: "));
        let e = Baseline::parse("b.json", "{}").expect_err("no tag");
        assert_eq!(
            e.to_string(),
            "baseline error: b.json: missing format tag \"soteria-lint-baseline/v1\""
        );
    }
}
