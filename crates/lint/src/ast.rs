//! Token trees and item extraction for the concurrency pass.
//!
//! Builds on the literal-blanked code channel of [`crate::lexer`]: a
//! flat, line-attributed token stream plus a one-pass brace walk that
//! recovers the items the conc rules reason about — functions (with
//! body spans, visibility, and their `mod`/`impl` qualification),
//! struct fields of lock-ish type (`Mutex`, `RwLock`, `Condvar`), and
//! `extern "C"` declarations (the raw-syscall surface policed by U2).
//!
//! This is deliberately not a Rust parser. Brace matching over the
//! blanked code channel is exact (no braces survive inside literals or
//! comments), and header classification — the tokens between the last
//! `;`/`{`/`}` and an opening `{` — is enough to tell `mod`, `impl`,
//! `struct`, `extern "C"`, and `fn` items apart from control flow.

use crate::lexer::SourceLine;

/// One token of the code channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tok {
    /// Token text: an identifier (raw identifiers keep their `r#`
    /// prefix), a lifetime (`'a`), the merged path separator `::`, or a
    /// single punctuation character.
    pub text: String,
    /// 0-based source line the token starts on.
    pub line: usize,
}

impl Tok {
    fn new(text: impl Into<String>, line: usize) -> Tok {
        Tok {
            text: text.into(),
            line,
        }
    }

    /// True if this token is an identifier (or raw identifier).
    pub fn is_ident(&self) -> bool {
        let mut s = self.text.as_str();
        if let Some(rest) = s.strip_prefix("r#") {
            s = rest;
        }
        s.chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
            && !s.chars().next().is_some_and(|c| c.is_ascii_digit())
    }
}

/// Tokenizes the code channels of `lines` into a flat stream.
pub fn tokenize(lines: &[SourceLine]) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (line_no, line) in lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
            let is_ident_char = |c: char| c.is_alphanumeric() || c == '_';
            if c == 'r' && chars.get(i + 1) == Some(&'#') {
                // Raw identifier: keep the prefix so it never compares
                // equal to its keyword.
                let mut j = i + 2;
                while j < chars.len() && is_ident_char(chars[j]) {
                    j += 1;
                }
                toks.push(Tok::new(chars[i..j].iter().collect::<String>(), line_no));
                i = j;
            } else if is_ident_start(c) || c.is_ascii_digit() {
                let mut j = i + 1;
                while j < chars.len() && is_ident_char(chars[j]) {
                    j += 1;
                }
                toks.push(Tok::new(chars[i..j].iter().collect::<String>(), line_no));
                i = j;
            } else if c == '\'' && chars.get(i + 1).copied().is_some_and(is_ident_start) {
                // Lifetime (char-literal contents were blanked to '').
                let mut j = i + 2;
                while j < chars.len() && is_ident_char(chars[j]) {
                    j += 1;
                }
                toks.push(Tok::new(chars[i..j].iter().collect::<String>(), line_no));
                i = j;
            } else if c == ':' && chars.get(i + 1) == Some(&':') {
                toks.push(Tok::new("::", line_no));
                i += 2;
            } else {
                toks.push(Tok::new(c.to_string(), line_no));
                i += 1;
            }
        }
    }
    toks
}

/// What kind of lock a struct field holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockKind {
    /// `std::sync::Mutex`.
    Mutex,
    /// `std::sync::RwLock`.
    RwLock,
}

/// One function item (definition or bodyless declaration).
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Simple name (e.g. `worker_loop`).
    pub name: String,
    /// Qualified name from the enclosing `mod`/`impl` nesting
    /// (e.g. `epoll::Epoll::ctl`).
    pub qual: String,
    /// The `impl` type the function is a method of, if any.
    pub impl_type: Option<String>,
    /// True for unrestricted `pub` (not `pub(crate)`/`pub(super)`).
    pub is_bare_pub: bool,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// Token-index range of the body (between the braces); empty for
    /// bodyless declarations.
    pub body: std::ops::Range<usize>,
}

/// Everything the conc pass needs from one parsed file.
#[derive(Clone, Debug, Default)]
pub struct FileAst {
    /// Workspace-relative path.
    pub rel: String,
    /// The flat token stream.
    pub toks: Vec<Tok>,
    /// All function items, in source order.
    pub fns: Vec<FnItem>,
    /// `(struct, field, kind)` for fields of `Mutex`/`RwLock` type.
    pub lock_fields: Vec<(String, String, LockKind)>,
    /// Names of struct fields declared as `Condvar`.
    pub condvar_fields: Vec<String>,
    /// Functions declared inside `extern "C"` blocks: `(name, line)`.
    pub extern_fns: Vec<(String, usize)>,
}

/// A brace frame on the item-nesting stack.
enum Frame {
    Mod(String),
    Impl(String),
    Struct(String),
    Extern,
    Other,
}

/// Parses the lexed `lines` of `rel` into tokens and items.
pub fn parse_file(rel: &str, lines: &[SourceLine]) -> FileAst {
    let toks = tokenize(lines);
    let mut ast = FileAst {
        rel: rel.to_string(),
        ..FileAst::default()
    };
    let mut stack: Vec<Frame> = Vec::new();
    // Functions whose body brace is open: (index into ast.fns, depth of
    // the opening brace).
    let mut open_fns: Vec<(usize, usize)> = Vec::new();
    // Function headers seen but not yet resolved to `{` or `;`.
    let mut pending_fn: Option<FnItem> = None;
    let mut header_start = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        let t = toks[i].text.as_str();
        match t {
            "fn" => {
                let in_extern = matches!(stack.last(), Some(Frame::Extern));
                if let Some(name) = toks.get(i + 1).filter(|t| t.is_ident()) {
                    if in_extern {
                        ast.extern_fns.push((name.text.clone(), name.line));
                    } else {
                        let header = &toks[header_start..i];
                        let is_bare_pub = header.iter().enumerate().any(|(k, h)| {
                            h.text == "pub"
                                && header.get(k + 1).map(|n| n.text.as_str()) != Some("(")
                        });
                        let mut quals: Vec<&str> = Vec::new();
                        let mut impl_type = None;
                        for f in &stack {
                            match f {
                                Frame::Mod(m) => quals.push(m.as_str()),
                                Frame::Impl(ty) => {
                                    quals.push(ty.as_str());
                                    impl_type = Some(ty.clone());
                                }
                                _ => {}
                            }
                        }
                        quals.push(name.text.as_str());
                        pending_fn = Some(FnItem {
                            name: name.text.clone(),
                            qual: quals.join("::"),
                            impl_type,
                            is_bare_pub,
                            line: toks[i].line,
                            body: 0..0,
                        });
                    }
                }
            }
            "{" => {
                let frame = classify_header(&toks[header_start..i]);
                if let Some(mut f) = pending_fn.take() {
                    f.body = (i + 1)..(i + 1); // end patched at the `}`
                    open_fns.push((ast.fns.len(), stack.len()));
                    ast.fns.push(f);
                    stack.push(Frame::Other);
                } else {
                    stack.push(frame);
                }
                header_start = i + 1;
            }
            "}" => {
                stack.pop();
                if let Some(&(fi, depth)) = open_fns.last() {
                    if depth == stack.len() {
                        ast.fns[fi].body.end = i;
                        open_fns.pop();
                    }
                }
                header_start = i + 1;
            }
            ";" => {
                // Bodyless declaration (trait method, extern fn) — or
                // just a statement boundary.
                if let Some(f) = pending_fn.take() {
                    ast.fns.push(f);
                }
                header_start = i + 1;
            }
            ":" => {
                // A struct field `name: Type` at struct-body depth.
                if matches!(stack.last(), Some(Frame::Struct(_))) {
                    record_field(&toks, i, &stack, &mut ast);
                }
            }
            _ => {}
        }
        i += 1;
    }
    ast.toks = toks;
    ast
}

/// Classifies the header tokens before an opening `{`.
fn classify_header(header: &[Tok]) -> Frame {
    let pos = |name: &str| header.iter().position(|t| t.text == name);
    if let Some(k) = pos("mod") {
        if let Some(name) = header.get(k + 1).filter(|t| t.is_ident()) {
            return Frame::Mod(name.text.clone());
        }
    }
    if let Some(k) = pos("impl") {
        if let Some(ty) = impl_type_name(&header[k + 1..]) {
            return Frame::Impl(ty);
        }
    }
    if let Some(k) = pos("struct") {
        if let Some(name) = header.get(k + 1).filter(|t| t.is_ident()) {
            return Frame::Struct(name.text.clone());
        }
    }
    if let Some(k) = pos("extern") {
        // `extern "C"` lexes as `extern ""` (literal contents blanked).
        if header.get(k + 1).map(|t| t.text.as_str()) == Some("\"") {
            return Frame::Extern;
        }
    }
    Frame::Other
}

/// The self type of an `impl` header: the last path segment of the type
/// being implemented (after `for` if present), generics skipped.
fn impl_type_name(after_impl: &[Tok]) -> Option<String> {
    let mut toks = after_impl;
    if let Some(k) = toks.iter().position(|t| t.text == "for") {
        toks = &toks[k + 1..];
    }
    // Walk to `where` (or the end), remembering the last identifier seen
    // outside angle brackets.
    let mut depth = 0i32;
    let mut name = None;
    for t in toks {
        match t.text.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            "where" if depth <= 0 => break,
            _ if depth <= 0 && t.is_ident() => name = Some(t.text.clone()),
            _ => {}
        }
    }
    name
}

/// Records a struct field of lock-ish type at the `:` token `i`.
fn record_field(toks: &[Tok], i: usize, stack: &[Frame], ast: &mut FileAst) {
    let Some(Frame::Struct(struct_name)) = stack.last() else {
        return;
    };
    let Some(field) = toks.get(i.wrapping_sub(1)).filter(|t| t.is_ident()) else {
        return;
    };
    // Scan the type tokens to the field's trailing `,` (or the struct's
    // closing brace), staying inside this field's generics.
    let mut depth = 0i32;
    let mut j = i + 1;
    while let Some(t) = toks.get(j) {
        match t.text.as_str() {
            "<" | "(" | "[" => depth += 1,
            ">" | ")" | "]" => depth -= 1,
            "," if depth <= 0 => break,
            "}" if depth <= 0 => break,
            "Mutex" => {
                ast.lock_fields
                    .push((struct_name.clone(), field.text.clone(), LockKind::Mutex));
            }
            "RwLock" => {
                ast.lock_fields
                    .push((struct_name.clone(), field.text.clone(), LockKind::RwLock));
            }
            "Condvar" => ast.condvar_fields.push(field.text.clone()),
            _ => {}
        }
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse(src: &str) -> FileAst {
        parse_file("crates/x/src/lib.rs", &lexer::lex(src))
    }

    #[test]
    fn tokenizer_merges_paths_and_keeps_raw_idents() {
        let toks = tokenize(&lexer::lex("a::b(r#match, 'a, x);"));
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec!["a", "::", "b", "(", "r#match", ",", "'a", ",", "x", ")", ";"]
        );
        assert!(toks[4].is_ident());
    }

    #[test]
    fn functions_get_bodies_and_qualification() {
        let ast = parse(
            "mod net {\n    pub struct S;\n    impl S {\n        pub fn go(&self) {\n            inner();\n        }\n        fn quiet() {}\n    }\n}\npub(crate) fn free() { x(); }\n",
        );
        let names: Vec<(&str, &str)> = ast
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.qual.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("go", "net::S::go"),
                ("quiet", "net::S::quiet"),
                ("free", "free")
            ]
        );
        assert!(ast.fns[0].is_bare_pub);
        assert_eq!(ast.fns[0].impl_type.as_deref(), Some("S"));
        assert!(!ast.fns[2].is_bare_pub, "pub(crate) is not bare pub");
        let body: Vec<&str> = ast.toks[ast.fns[0].body.clone()]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(body, vec!["inner", "(", ")", ";"]);
    }

    #[test]
    fn lock_and_condvar_fields_are_registered() {
        let ast = parse(
            "pub struct Shared {\n    pub state: std::sync::Mutex<State>,\n    cache: RwLock<Vec<u8>>,\n    pub job_ready: Condvar,\n    plain: usize,\n}\n",
        );
        assert_eq!(
            ast.lock_fields,
            vec![
                ("Shared".to_string(), "state".to_string(), LockKind::Mutex),
                ("Shared".to_string(), "cache".to_string(), LockKind::RwLock),
            ]
        );
        assert_eq!(ast.condvar_fields, vec!["job_ready".to_string()]);
    }

    #[test]
    fn extern_c_declarations_are_collected() {
        let ast = parse(
            "mod sys {\n    extern \"C\" {\n        fn epoll_create1(flags: i32) -> i32;\n        fn epoll_wait(epfd: i32) -> i32;\n    }\n}\nfn normal() {}\n",
        );
        let names: Vec<&str> = ast.extern_fns.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["epoll_create1", "epoll_wait"]);
        assert_eq!(ast.fns.len(), 1, "extern decls are not workspace fns");
    }

    #[test]
    fn impl_trait_for_type_uses_the_type() {
        let ast = parse("impl Drop for Poller<'_> {\n    fn drop(&mut self) {}\n}\n");
        assert_eq!(ast.fns[0].qual, "Poller::drop");
    }
}
