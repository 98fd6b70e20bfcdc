//! A line-oriented Rust lexer for static analysis.
//!
//! Splits a source file into per-line **code** and **comment** channels
//! so rules never fire on tokens inside string literals, character
//! literals, or comments:
//!
//! * `code` holds the line's source with comments removed and the
//!   *contents* of string/char literals blanked (the delimiting quotes
//!   remain, so `"HashMap"` lexes to `""`).
//! * `comment` holds the raw comment text on that line, including its
//!   `//` / `///` / `/*` prefix, so rules can distinguish plain comments
//!   from doc comments and parse `lint:allow(...)` suppressions.
//!
//! The lexer understands line comments, nested block comments, string
//! escapes, raw strings (`r#"..."#`, any hash depth), byte strings, char
//! literals (including escapes), and tells lifetimes (`'a`) apart from
//! char literals (`'a'`).
//!
//! [`test_regions`] additionally marks the lines inside
//! `#[cfg(test)] { ... }` items (test modules and functions) so rules can
//! exempt test code. Out-of-line `#[cfg(test)] mod x;` declarations are
//! not followed into their file — the workspace has none, and the
//! path-based test classification in `rules` covers `tests/` trees.

/// One source line, split into code and comment channels.
#[derive(Clone, Debug, Default)]
pub struct SourceLine {
    /// Source code with comments removed and literal contents blanked.
    pub code: String,
    /// Raw comment text appearing on this line (prefix included).
    pub comment: String,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

/// Lexes `source` into per-line code/comment channels.
///
/// Always returns at least one line; line *n* of the file is index
/// `n - 1`.
pub fn lex(source: &str) -> Vec<SourceLine> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines: Vec<SourceLine> = vec![SourceLine::default()];
    let mut mode = Mode::Code;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if mode == Mode::LineComment {
                mode = Mode::Code;
            }
            lines.push(SourceLine::default());
            i += 1;
            continue;
        }
        let at = |k: usize| chars.get(i + k).copied();
        let Some(line) = lines.last_mut() else {
            break; // unreachable: `lines` starts non-empty
        };
        match mode {
            Mode::Code => {
                if c == '/' && at(1) == Some('/') {
                    mode = Mode::LineComment;
                    line.comment.push_str("//");
                    i += 2;
                } else if c == '/' && at(1) == Some('*') {
                    mode = Mode::BlockComment(1);
                    line.comment.push_str("/*");
                    i += 2;
                } else if c == '"' {
                    line.code.push('"');
                    mode = Mode::Str;
                    i += 1;
                } else if let Some(len) = raw_ident(&chars, i) {
                    // A raw identifier (`r#type`, `r#match`): consume it
                    // whole so the `r#` prefix is never confused with a
                    // raw-string opener and the identifier never matches
                    // a keyword/token search (`#` glues it together).
                    for k in 0..len {
                        line.code.push(chars[i + k]);
                    }
                    i += len;
                } else if let Some(skip) = raw_string_prefix(&chars, i) {
                    // r"...", r#"..."#, br"...", br#"..."# — skip is the
                    // prefix length up to and including the opening quote;
                    // the hash count is skip minus prefix letters and quote.
                    let letters = if c == 'b' { 2 } else { 1 };
                    let hashes = (skip - letters - 1) as u32;
                    line.code.push('"');
                    mode = Mode::RawStr(hashes);
                    i += skip;
                } else if c == 'b' && at(1) == Some('"') {
                    line.code.push_str("b\"");
                    mode = Mode::Str;
                    i += 2;
                } else if c == '\'' {
                    i += consume_quote(&chars, i, &mut line.code);
                } else {
                    line.code.push(c);
                    i += 1;
                }
            }
            Mode::LineComment => {
                line.comment.push(c);
                i += 1;
            }
            Mode::BlockComment(depth) => {
                if c == '*' && at(1) == Some('/') {
                    line.comment.push_str("*/");
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && at(1) == Some('*') {
                    line.comment.push_str("/*");
                    mode = Mode::BlockComment(depth + 1);
                    i += 2;
                } else {
                    line.comment.push(c);
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    i += 2; // escaped char, never closes the literal
                } else if c == '"' {
                    line.code.push('"');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' && (1..=hashes as usize).all(|k| at(k) == Some('#')) {
                    line.code.push('"');
                    mode = Mode::Code;
                    i += 1 + hashes as usize;
                } else {
                    i += 1;
                }
            }
        }
    }
    lines
}

/// If position `i` starts a raw identifier (`r#type`, `r#match`),
/// returns its total length (`r#` plus the identifier). Raw identifiers
/// are *not* raw-string openers: `r#` must be followed by an identifier
/// start, and the `r` must not continue a preceding identifier.
fn raw_ident(chars: &[char], i: usize) -> Option<usize> {
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return None;
        }
    }
    if chars.get(i) != Some(&'r') || chars.get(i + 1) != Some(&'#') {
        return None;
    }
    let first = *chars.get(i + 2)?;
    if !(first.is_alphabetic() || first == '_') {
        return None;
    }
    let mut j = i + 3;
    while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
        j += 1;
    }
    Some(j - i)
}

/// If position `i` starts a raw (byte) string prefix (`r"`, `r#"`,
/// `br##"`, ...), returns the prefix length including the opening quote.
fn raw_string_prefix(chars: &[char], i: usize) -> Option<usize> {
    // A raw-string `r` must not continue an identifier (`var"` is not
    // valid Rust, but `operand` contains an interior `r`).
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return None;
        }
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some(j + 1 - i)
    } else {
        None
    }
}

/// Consumes a `'` at position `i`: either a char literal (contents
/// blanked to `''`) or a lifetime (kept in code). Returns chars consumed.
fn consume_quote(chars: &[char], i: usize, code: &mut String) -> usize {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escaped char literal: skip to the closing quote.
            let mut j = i + 2;
            while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                j += 1;
            }
            code.push_str("''");
            j.saturating_sub(i) + 1
        }
        Some(ch) if chars.get(i + 2) == Some(&'\'') && *ch != '\'' => {
            // Plain char literal 'x'.
            code.push_str("''");
            3
        }
        Some(ch) if ch.is_alphabetic() || *ch == '_' => {
            // A lifetime ('a, 'static) — keep the tick in the code
            // channel; the identifier follows normally.
            code.push('\'');
            1
        }
        _ => {
            code.push('\'');
            1
        }
    }
}

/// Marks lines inside `#[cfg(test)]`-gated braces (test modules and
/// functions). `lines[k]` is in a test region iff the returned vector's
/// element `k` is true.
pub fn test_regions(lines: &[SourceLine]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut depth: i64 = 0;
    // Depth at which a pending #[cfg(test)] attribute was seen, waiting
    // for the `{` that opens the gated item.
    let mut pending: Option<i64> = None;
    // Brace depths of currently-open test regions (nested is fine).
    let mut regions: Vec<i64> = Vec::new();
    for (k, line) in lines.iter().enumerate() {
        if !regions.is_empty() {
            in_test[k] = true;
        }
        let code: Vec<char> = line.code.chars().collect();
        let mut j = 0usize;
        while j < code.len() {
            if starts_with_at(&code, j, "cfg(test") || starts_with_at(&code, j, "cfg(any(test") {
                pending = Some(depth);
            }
            match code[j] {
                '{' => {
                    if pending.take().is_some() {
                        regions.push(depth);
                        in_test[k] = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if regions.last() == Some(&depth) {
                        regions.pop();
                    }
                }
                // `#[cfg(test)] use ...;` — attribute spent without
                // opening a brace at its own depth.
                ';' if pending == Some(depth) => pending = None,
                _ => {}
            }
            j += 1;
        }
    }
    in_test
}

fn starts_with_at(chars: &[char], at: usize, pat: &str) -> bool {
    pat.chars()
        .enumerate()
        .all(|(k, p)| chars.get(at + k) == Some(&p))
}

/// True if `code` contains `token` as a standalone path segment /
/// identifier (neighbors are not identifier characters).
pub fn has_token(code: &str, token: &str) -> bool {
    find_token(code, token).is_some()
}

/// Byte offset of the first standalone occurrence of `token` in `code`.
pub fn find_token(code: &str, token: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let tok = token.as_bytes();
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(token) {
        let start = from + pos;
        let end = start + token.len();
        // Boundaries only matter where the token's own edge is an
        // identifier character (`rand::` legitimately continues into an
        // identifier on the right). An `r#` immediately before the match
        // makes it a raw identifier (`r#match` is not the keyword
        // `match`), which never counts as the token.
        let raw_prefixed = start >= 2
            && bytes[start - 1] == b'#'
            && bytes[start - 2] == b'r'
            && (start == 2 || !ident(bytes[start - 3]));
        let before_ok = !ident(tok[0]) || start == 0 || (!ident(bytes[start - 1]) && !raw_prefixed);
        let after_ok = !ident(tok[tok.len() - 1]) || end >= bytes.len() || !ident(bytes[end]);
        if before_ok && after_ok {
            return Some(start);
        }
        from = end;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn strings_are_blanked() {
        let c = code_of(r#"let x = "HashMap::new()"; y();"#);
        assert_eq!(c, vec![r#"let x = ""; y();"#]);
    }

    #[test]
    fn raw_strings_are_blanked() {
        let c = code_of(r##"let x = r#"Instant::now() "quoted" "#; f();"##);
        assert_eq!(c, vec![r#"let x = ""; f();"#]);
    }

    #[test]
    fn line_comments_split_off() {
        let lines = lex("foo(); // HashMap here\nbar();");
        assert_eq!(lines[0].code, "foo(); ");
        assert_eq!(lines[0].comment, "// HashMap here");
        assert_eq!(lines[1].code, "bar();");
    }

    #[test]
    fn nested_block_comments() {
        let lines = lex("a(); /* outer /* inner */ still */ b();");
        assert_eq!(lines[0].code, "a();  b();");
        assert!(lines[0].comment.contains("inner"));
    }

    #[test]
    fn multiline_block_comment_spans_lines() {
        let lines = lex("a();\n/* one\ntwo HashMap\n*/\nb();");
        assert_eq!(lines[2].code, "");
        assert!(lines[2].comment.contains("HashMap"));
        assert_eq!(lines[4].code, "b();");
    }

    #[test]
    fn char_literals_blank_but_lifetimes_survive() {
        let c = code_of("let q = 'a'; fn f<'a>(x: &'a str) { g('\\n'); }");
        assert_eq!(c, vec!["let q = ''; fn f<'a>(x: &'a str) { g(''); }"]);
    }

    #[test]
    fn string_escapes_do_not_close_early() {
        let c = code_of(r#"let s = "a\"HashMap\""; t();"#);
        assert_eq!(c, vec![r#"let s = ""; t();"#]);
    }

    #[test]
    fn cfg_test_regions_cover_module_bodies() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}";
        let lines = lex(src);
        let t = test_regions(&lines);
        assert_eq!(t, vec![false, false, true, true, true, false]);
    }

    #[test]
    fn cfg_test_on_use_statement_does_not_open_a_region() {
        let src = "#[cfg(test)]\nuse foo::Bar;\nfn lib() {\n}";
        let t = test_regions(&lex(src));
        assert!(t.iter().all(|&x| !x));
    }

    #[test]
    fn token_matching_respects_identifier_boundaries() {
        assert!(has_token("use std::collections::HashMap;", "HashMap"));
        assert!(!has_token("struct MyHashMapLike;", "HashMap"));
        assert!(has_token("thread::sleep(d)", "thread::sleep"));
        assert!(!has_token("operand::sleep(d)", "rand::"));
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        // `r#type` must lex as an identifier, not open a raw string that
        // swallows the rest of the line.
        let c = code_of("let r#type = 1; after();");
        assert_eq!(c, vec!["let r#type = 1; after();"]);
        // A raw identifier and a raw string can share a line.
        let c = code_of(r##"let r#match = r#"HashMap"#; tail();"##);
        assert_eq!(c, vec![r#"let r#match = ""; tail();"#]);
    }

    #[test]
    fn raw_identifiers_never_match_their_keyword_token() {
        assert!(!has_token("let r#match = 1;", "match"));
        assert!(!has_token("fn r#unsafe() {}", "unsafe"));
        assert!(!has_token("type r#HashMap = u8;", "HashMap"));
        assert!(has_token("match x { _ => r#match }", "match"));
    }

    #[test]
    fn nested_generics_closing_shift_is_not_special() {
        let c = code_of("let v: Vec<Vec<u8>> = x >> 2;");
        assert_eq!(c, vec!["let v: Vec<Vec<u8>> = x >> 2;"]);
        assert!(has_token(&c[0], "Vec"));
    }

    #[test]
    fn raw_strings_with_multiple_hashes() {
        let c = code_of(r####"let s = r##"one "# two"##; f();"####);
        assert_eq!(c, vec![r#"let s = ""; f();"#]);
        // An inner quote+hash shorter than the opener must not close it.
        let c = code_of("let s = r##\"a\"# b\"##;\nnext();");
        assert_eq!(c, vec!["let s = \"\";", "next();"]);
    }

    #[test]
    fn lifetimes_inside_turbofish_survive() {
        let c = code_of("f::<'a, T>(x); let y: &'static str = s;");
        assert_eq!(c, vec!["f::<'a, T>(x); let y: &'static str = s;"]);
    }

    #[test]
    fn mod_tests_opened_mid_file_is_tracked() {
        let src = "fn a() {\n    body();\n}\n#[cfg(test)]\nmod tests {\n    use super::*;\n    #[test]\n    fn t() { a(); }\n}\nfn tail() {}";
        let t = test_regions(&lex(src));
        assert_eq!(
            t,
            vec![false, false, false, false, true, true, true, true, true, false]
        );
    }
}
