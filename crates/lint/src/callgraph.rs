//! Call-site extraction and the intra-workspace call graph.
//!
//! A call site is any `path::name(`, `name(`, or `.name(` token pattern
//! in a function body (macro invocations never match — the `!` sits
//! between the name and the paren). Sites resolve to workspace
//! functions by name:
//!
//! * `self.method(...)` prefers a method of the caller's own `impl`
//!   type;
//! * path calls match functions whose qualified name ends with the
//!   written path;
//! * anything still ambiguous (several same-named functions, trait
//!   objects, closures) resolves to **no** edge — the conc pass treats
//!   unresolved calls as non-blocking and lock-free, a documented
//!   soundness limit.
//!
//! For the U2 reachability question ("can this function reach a raw
//! syscall?") the graph also offers *may*-edges restricted to the same
//! file: over-approximation is the right direction for reachability.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::ast::{FileAst, FnItem, Tok};

/// One syntactic call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Path segments as written (`rt::json::parse` → 3 segments; a
    /// method call has exactly one).
    pub path: Vec<String>,
    /// True for `.name(...)` method calls.
    pub method: bool,
    /// Receiver field chain for method calls (`shared.state.lock()` →
    /// `["shared", "state"]`); `["#expr"]` when the receiver is a call
    /// result or other non-path expression.
    pub recv: Vec<String>,
    /// True if the argument list is `()`.
    pub args_empty: bool,
    /// Token index of the opening paren.
    pub paren: usize,
    /// Token index of the callee name.
    pub name_at: usize,
    /// 0-based line of the callee name.
    pub line: usize,
}

impl CallSite {
    /// The callee's simple name.
    pub fn name(&self) -> &str {
        self.path.last().map(String::as_str).unwrap_or("")
    }
}

/// Keywords and constructors that look like calls but are not.
const NOT_CALLEES: [&str; 18] = [
    "if", "while", "for", "match", "loop", "return", "let", "else", "in", "move", "as", "break",
    "continue", "unsafe", "Some", "Ok", "Err", "None",
];

/// Extracts the call sites in `body`, in token order.
pub fn call_sites(toks: &[Tok], body: Range<usize>) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in body.clone() {
        if toks[i].text != "(" {
            continue;
        }
        // Walk back over an optional turbofish `::<...>`.
        let mut j = i;
        if j > 0 && toks[j - 1].text == ">" {
            let mut depth = 0i32;
            let mut k = j - 1;
            loop {
                match toks[k].text.as_str() {
                    ">" => depth += 1,
                    "<" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if k == 0 || k <= body.start {
                    break;
                }
                k -= 1;
            }
            if k > body.start && toks[k].text == "<" && toks[k - 1].text == "::" {
                j = k - 1;
            } else {
                continue;
            }
        }
        // Collect `seg(::seg)*` right-to-left.
        let mut path: Vec<String> = Vec::new();
        let mut name_at = None;
        while j > body.start && toks[j - 1].is_ident() {
            path.push(toks[j - 1].text.clone());
            name_at.get_or_insert(j - 1);
            j -= 1;
            if j > body.start && toks[j - 1].text == "::" {
                j -= 1;
            } else {
                break;
            }
        }
        let Some(name_at) = name_at else {
            continue;
        };
        path.reverse();
        if path.len() == 1 && NOT_CALLEES.contains(&path[0].as_str()) {
            continue;
        }
        let before = (j > body.start).then(|| toks[j - 1].text.as_str());
        if before == Some("fn") {
            continue; // definition, not a call
        }
        let method = before == Some(".");
        let mut recv = Vec::new();
        if method {
            // Walk the dotted receiver chain leftward.
            let mut k = j - 1; // the `.`
            loop {
                if k <= body.start {
                    break;
                }
                let prev = &toks[k - 1];
                if prev.is_ident() {
                    recv.push(prev.text.clone());
                    k -= 1;
                    if k > body.start && toks[k - 1].text == "." {
                        k -= 1;
                        continue;
                    }
                } else if prev.text == ")" || prev.text == "]" || prev.text == "?" {
                    recv.push("#expr".to_string());
                }
                break;
            }
            recv.reverse();
            // Method paths are a single segment; a turbofish path like
            // `.collect::<V>()` already collapsed to one.
            path = vec![path.pop().unwrap_or_default()];
        }
        let args_empty = toks.get(i + 1).map(|t| t.text.as_str()) == Some(")");
        out.push(CallSite {
            path,
            method,
            recv,
            args_empty,
            paren: i,
            name_at,
            line: toks[name_at].line,
        });
    }
    out
}

/// A function in the flattened workspace graph.
#[derive(Clone, Debug)]
pub struct GraphFn {
    /// Index into the `files` slice the graph was built from.
    pub file: usize,
    /// The function item (body token range indexes that file's `toks`).
    pub item: FnItem,
}

/// The workspace call graph: every function from every file, indexed
/// for name resolution.
pub struct CallGraph {
    /// Flattened functions; a node id is an index here.
    pub fns: Vec<GraphFn>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Flattens `files` into a graph.
    pub fn build(files: &[FileAst]) -> CallGraph {
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for item in &file.fns {
                by_name
                    .entry(item.name.clone())
                    .or_default()
                    .push(fns.len());
                fns.push(GraphFn {
                    file: fi,
                    item: item.clone(),
                });
            }
        }
        CallGraph { fns, by_name }
    }

    /// Resolves `site` (called from `caller`) to a unique workspace
    /// function, or `None` when ambiguous or external.
    pub fn resolve(&self, caller: usize, site: &CallSite) -> Option<usize> {
        let candidates = self.by_name.get(site.name())?;
        if site.method {
            if site.recv.first().map(String::as_str) == Some("self") {
                if let Some(ty) = &self.fns[caller].item.impl_type {
                    let same: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&c| self.fns[c].item.impl_type.as_ref() == Some(ty))
                        .collect();
                    if let [one] = same[..] {
                        return Some(one);
                    }
                }
            }
            return match candidates[..] {
                [one] => Some(one),
                _ => None,
            };
        }
        // Path call: the written path must be a suffix of the qualified
        // name's segments.
        let matches: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&c| {
                let qual: Vec<&str> = self.fns[c].item.qual.split("::").collect();
                let path: Vec<&str> = site.path.iter().map(String::as_str).collect();
                qual.len() >= path.len() && qual[qual.len() - path.len()..] == path[..]
            })
            .collect();
        match matches[..] {
            [one] => Some(one),
            _ => None,
        }
    }

    /// All same-named candidates **in the same file** as `caller` —
    /// the over-approximate edges used for U2 syscall reachability.
    pub fn may_resolve_same_file(&self, caller: usize, site: &CallSite) -> Vec<usize> {
        let file = self.fns[caller].file;
        self.by_name
            .get(site.name())
            .map(|c| {
                c.iter()
                    .copied()
                    .filter(|&i| self.fns[i].file == file)
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;
    use crate::lexer;

    fn ast_of(src: &str) -> FileAst {
        parse_file("crates/x/src/lib.rs", &lexer::lex(src))
    }

    #[test]
    fn sites_cover_free_path_method_and_turbofish_calls() {
        let ast = ast_of(
            "fn f() {\n    helper();\n    rt::json::parse(s);\n    conn.flush();\n    xs.iter().collect::<Vec<_>>();\n    macro_rules!(nope);\n    if (a) {}\n}\n",
        );
        let body = ast.fns[0].body.clone();
        let sites = call_sites(&ast.toks, body);
        let names: Vec<&str> = sites.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["helper", "parse", "flush", "iter", "collect"]);
        assert_eq!(sites[1].path, vec!["rt", "json", "parse"]);
        assert!(sites[2].method);
        assert_eq!(sites[2].recv, vec!["conn"]);
        assert!(sites[4].method, "turbofish method call");
        assert_eq!(sites[4].recv, vec!["#expr"]);
        assert!(sites[0].args_empty);
        assert!(!sites[1].args_empty);
    }

    #[test]
    fn resolution_prefers_self_methods_and_unique_suffixes() {
        let ast = ast_of(
            "mod a {\n    pub struct T;\n    impl T {\n        pub fn go(&self) { self.step(); other::dup(); }\n        fn step(&self) {}\n    }\n}\nmod other {\n    pub fn dup() {}\n}\nmod noise {\n    pub fn dup() {}\n}\n",
        );
        let graph = CallGraph::build(std::slice::from_ref(&ast));
        let go = graph
            .fns
            .iter()
            .position(|f| f.item.name == "go")
            .expect("go exists");
        let sites = call_sites(&ast.toks, graph.fns[go].item.body.clone());
        assert_eq!(sites.len(), 2);
        let step = graph.resolve(go, &sites[0]).expect("self.step resolves");
        assert_eq!(graph.fns[step].item.qual, "a::T::step");
        let dup = graph.resolve(go, &sites[1]).expect("other::dup resolves");
        assert_eq!(graph.fns[dup].item.qual, "other::dup");
    }

    #[test]
    fn ambiguous_names_do_not_resolve() {
        let ast =
            ast_of("mod a { pub fn dup() {} }\nmod b { pub fn dup() {} }\nfn f() { dup(); }\n");
        let graph = CallGraph::build(std::slice::from_ref(&ast));
        let f = graph
            .fns
            .iter()
            .position(|x| x.item.name == "f")
            .expect("f");
        let sites = call_sites(&ast.toks, graph.fns[f].item.body.clone());
        assert_eq!(graph.resolve(f, &sites[0]), None);
    }
}
