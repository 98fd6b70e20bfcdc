//! The whole-workspace concurrency pass: lock summaries, interprocedural
//! propagation, and the C1/C2/C3/U2 rules.
//!
//! Per function, a linear walk of the body token tree tracks which lock
//! guards are live — `let g = m.lock()…` bindings, statement-scoped
//! temporaries, `if let`/`while let` guards attached to their block,
//! explicit `drop(g)`, scope-end release, and `Condvar::wait` guard
//! rebinding. A fixpoint over the call graph then propagates two facts
//! interprocedurally: *does calling this function block?* and *which
//! locks does it (transitively) acquire?*
//!
//! On top of those summaries:
//!
//! * **C1** — every acquisition of lock `B` while holding `A` (directly
//!   or through a callee that acquires `B`) adds an order edge `A → B`;
//!   any edge on a cycle of the global order graph is a violation.
//! * **C2** — a blocking operation (socket accept/connect/read/write,
//!   `Condvar::wait*`, `JoinHandle::join`, `thread::sleep`,
//!   `Poller::wait`, or a call to a function that transitively blocks)
//!   with a lock guard live is a violation; the guard a condvar wait
//!   consumes is exempt at that wait.
//! * **C3** — a `Condvar::wait` must sit inside a predicate loop
//!   (`while`/`loop`/`for`), guarding against missed-wakeup bugs.
//! * **U2** — `extern "C"` raw-syscall declarations and calls may only
//!   live in `rt::reactor`, and inside the reactor every function that
//!   can reach a raw syscall must stay behind the audited `Poller` API
//!   (its `impl Poller` methods; nothing else unrestricted-`pub`).
//!
//! Soundness limits (documented, deliberate): calls through trait
//! objects/`dyn`, function pointers, or closures passed across
//! functions resolve to no edge; guards created inside `match` arms
//! bind like statement temporaries; lock identity is the receiver's
//! field name (disambiguated by the struct-field registry when unique),
//! so same-named fields of different structs alias. Test code
//! (`tests/` trees and `#[cfg(test)]` regions) is exempt from C1/C2/C3;
//! U2 applies everywhere, like U1.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::ast::{self, FileAst, LockKind, Tok};
use crate::callgraph::{call_sites, CallGraph, CallSite};
use crate::rules::{is_test_path, FileScan, Rule, Violation};

/// The path that owns raw syscalls.
const REACTOR: &str = "crates/rt/src/reactor.rs";

/// Receiver names treated as I/O streams: a bare `.read(buf)` /
/// `.write(buf)` only counts as blocking I/O on one of these (other
/// receivers are fallible lookups like `Json::write(&mut String, …)`,
/// which never touch the network).
const STREAMY_RECEIVERS: [&str; 12] = [
    "stream", "socket", "sock", "conn", "listener", "stdin", "stdout", "stderr", "file", "tcp",
    "reader", "writer",
];

/// Method names that block on sockets, channels, or threads.
const BLOCKING_METHODS: [&str; 10] = [
    "accept",
    "connect",
    "connect_timeout",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
    "recv",
    "recv_timeout",
    "park",
];

/// Lock-typed struct fields and condvar fields across the workspace.
struct Registry {
    /// field name → structs declaring a lock field of that name.
    lock_fields: BTreeMap<String, BTreeSet<String>>,
    /// Names of fields declared as `Condvar`.
    condvar_fields: BTreeSet<String>,
}

impl Registry {
    fn build(asts: &[FileAst]) -> Registry {
        let mut lock_fields: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut condvar_fields = BTreeSet::new();
        for ast in asts {
            for (st, field, _kind) in &ast.lock_fields {
                lock_fields
                    .entry(field.clone())
                    .or_default()
                    .insert(st.clone());
            }
            for f in &ast.condvar_fields {
                condvar_fields.insert(f.clone());
            }
        }
        let _ = LockKind::Mutex; // kinds currently share one identity space
        Registry {
            lock_fields,
            condvar_fields,
        }
    }

    /// The stable identity of the lock behind a receiver chain, when
    /// nameable: `Struct.field` when the field name maps to exactly one
    /// struct, the bare name otherwise.
    fn lock_id(&self, recv: &[String]) -> Option<String> {
        let last = recv.last()?;
        if last == "#expr" || last == "self" {
            return None;
        }
        match self.lock_fields.get(last) {
            Some(structs) if structs.len() == 1 => {
                let only = structs.iter().next().map(String::as_str).unwrap_or("");
                Some(format!("{only}.{last}"))
            }
            _ => Some(last.clone()),
        }
    }
}

/// What one function does, as seen by its callers.
#[derive(Clone, Debug, Default)]
struct Summary {
    /// `Some(op)` when calling the function may block; `op` names the
    /// primitive (or callee) responsible, for messages.
    blocking: Option<String>,
    /// Locks the function acquires, transitively.
    acquires: BTreeSet<String>,
    /// Resolved workspace callees.
    calls: Vec<usize>,
}

/// One lock-order edge: `to` acquired while `from` was held.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Edge {
    from: String,
    to: String,
    /// File index and 0-based line of the acquiring site.
    file: usize,
    line: usize,
}

/// A live lock guard.
struct Guard {
    name: String,
    lock: String,
    /// Dies at the next `;` (not bound by `let`).
    temp: bool,
}

/// Runs the concurrency pass over `(rel, source)` Rust files and
/// returns all C1/C2/C3/U2 findings (suppressions already applied).
pub fn lint_concurrency(files: &[(String, String)]) -> Vec<Violation> {
    let mut scans = Vec::new();
    let mut asts = Vec::new();
    for (rel, source) in files {
        let (scan, _a1) = FileScan::new(rel, source);
        let ast = ast::parse_file(rel, &scan.lines);
        scans.push(scan);
        asts.push(ast);
    }
    let registry = Registry::build(&asts);
    let graph = CallGraph::build(&asts);

    // Phase A: per-function direct facts.
    let mut summaries: Vec<Summary> = (0..graph.fns.len())
        .map(|f| {
            scan_fn(
                &asts,
                &scans,
                &graph,
                f,
                &registry,
                None,
                &mut Vec::new(),
                &mut Vec::new(),
            )
        })
        .collect();

    // Phase B: interprocedural fixpoint.
    loop {
        let mut changed = false;
        for f in 0..summaries.len() {
            let calls = summaries[f].calls.clone();
            for c in calls {
                let (callee_blocking, callee_acquires) =
                    (summaries[c].blocking.clone(), summaries[c].acquires.clone());
                let me = &mut summaries[f];
                if me.blocking.is_none() {
                    if let Some(_op) = callee_blocking {
                        me.blocking = Some(graph.fns[c].item.name.clone());
                        changed = true;
                    }
                }
                for l in callee_acquires {
                    if me.acquires.insert(l) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Phase C: violations and lock-order edges.
    let mut out = Vec::new();
    let mut edges = Vec::new();
    for f in 0..graph.fns.len() {
        scan_fn(
            &asts,
            &scans,
            &graph,
            f,
            &registry,
            Some(&summaries),
            &mut edges,
            &mut out,
        );
    }

    // C1: any edge on a cycle of the order graph.
    edges.sort();
    edges.dedup();
    let adj: BTreeMap<&str, BTreeSet<&str>> = {
        let mut m: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for e in &edges {
            m.entry(e.from.as_str()).or_default().insert(e.to.as_str());
        }
        m
    };
    let reaches = |from: &str, to: &str| {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut work: Vec<&str> = adj
            .get(from)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        while let Some(n) = work.pop() {
            if n == to {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = adj.get(n) {
                    work.extend(next.iter().copied());
                }
            }
        }
        false
    };
    for e in &edges {
        if reaches(&e.to, &e.from) || e.from == e.to {
            let msg = if e.from == e.to {
                format!(
                    "lock `{}` acquired while already held (self-deadlock)",
                    e.to
                )
            } else {
                format!(
                    "lock-order cycle: acquiring `{}` while holding `{}`",
                    e.to, e.from
                )
            };
            scans[e.file].push(&mut out, Rule::C1, e.line, msg);
        }
    }

    u2_pass(&asts, &scans, &graph, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// Token range of a call's arguments (between the parens).
fn args_range(toks: &[Tok], paren: usize) -> Range<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(paren) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return (paren + 1)..k;
                }
            }
            _ => {}
        }
    }
    (paren + 1)..toks.len()
}

/// True if the header tokens open a `while`/`loop`/`for` body.
fn is_loop_header(toks: &[Tok], header: Range<usize>) -> bool {
    toks[header]
        .iter()
        .any(|t| matches!(t.text.as_str(), "while" | "loop" | "for"))
}

/// The guard name bound by the statement's pattern, if any: the idents
/// of the pattern left of `=`, keywords stripped. `first` picks the
/// first pattern ident (for `wait_timeout`'s `(guard, timed_out)`
/// tuple); otherwise the last wins (`let mut g`, `Ok(g)`).
fn stmt_binder(toks: &[Tok], stmt: Range<usize>, first: bool) -> Option<(String, bool)> {
    let eq = find_plain_eq(toks, stmt.clone())?;
    let pattern = &toks[stmt.start..eq];
    let conditional = pattern
        .iter()
        .any(|t| matches!(t.text.as_str(), "if" | "while"));
    let idents: Vec<&Tok> = pattern
        .iter()
        .filter(|t| {
            t.is_ident()
                && !matches!(
                    t.text.as_str(),
                    "let" | "mut" | "if" | "while" | "Ok" | "Some" | "Err" | "ref"
                )
        })
        .collect();
    let pick = if first { idents.first() } else { idents.last() };
    pick.map(|t| (t.text.clone(), conditional))
}

/// Index of a plain assignment `=` in `range` (not `==`, `=>`, `<=`,
/// `!=`, or a compound assignment).
fn find_plain_eq(toks: &[Tok], range: Range<usize>) -> Option<usize> {
    for i in range.clone() {
        if toks[i].text != "=" {
            continue;
        }
        let prev = (i > range.start).then(|| toks[i - 1].text.as_str());
        let next = toks.get(i + 1).map(|t| t.text.as_str());
        let compound = matches!(
            prev,
            Some("=" | "<" | ">" | "!" | "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^")
        );
        if !compound && next != Some("=") && next != Some(">") {
            return Some(i);
        }
    }
    None
}

/// Scans one function. With `summaries = None`, only collects the
/// function's direct facts; with summaries, emits C2/C3 violations and
/// C1 order edges.
#[allow(clippy::too_many_arguments)]
fn scan_fn(
    asts: &[FileAst],
    scans: &[FileScan<'_>],
    graph: &CallGraph,
    me: usize,
    reg: &Registry,
    summaries: Option<&[Summary]>,
    edges: &mut Vec<Edge>,
    out: &mut Vec<Violation>,
) -> Summary {
    let file = graph.fns[me].file;
    let item = &graph.fns[me].item;
    let ast = &asts[file];
    let scan = &scans[file];
    let toks = &ast.toks;
    let body = item.body.clone();
    let sites: Vec<CallSite> = call_sites(toks, body.clone());
    let site_map: BTreeMap<usize, &CallSite> = sites.iter().map(|s| (s.paren, s)).collect();

    let mut facts = Summary::default();
    let in_test = is_test_path(&ast.rel) || scan.in_test.get(item.line).copied().unwrap_or(false);
    let report = summaries.is_some() && !in_test;

    // (is_loop, guard indices opened in this block); index 0 is the
    // function body itself.
    let mut blocks: Vec<(bool, Vec<usize>)> = vec![(false, Vec::new())];
    let mut guards: Vec<Option<Guard>> = Vec::new();
    let mut pending_next_block: Vec<usize> = Vec::new();
    let mut stmt_start = body.start;
    // Sites inside `spawn(...)` arguments run on another thread: the
    // caller's guards are not held there, so those sites are skipped.
    let mut skip_until = body.start;

    let live = |guards: &[Option<Guard>]| -> Vec<usize> {
        guards
            .iter()
            .enumerate()
            .filter_map(|(k, g)| g.is_some().then_some(k))
            .collect()
    };

    for i in body.clone() {
        match toks[i].text.as_str() {
            "{" => {
                let is_loop = is_loop_header(toks, stmt_start..i);
                blocks.push((is_loop, std::mem::take(&mut pending_next_block)));
                stmt_start = i + 1;
                continue;
            }
            "}" => {
                if blocks.len() > 1 {
                    if let Some((_, gs)) = blocks.pop() {
                        for g in gs {
                            guards[g] = None;
                        }
                    }
                }
                stmt_start = i + 1;
                continue;
            }
            ";" => {
                for g in guards.iter_mut() {
                    if g.as_ref().is_some_and(|g| g.temp) {
                        *g = None;
                    }
                }
                stmt_start = i + 1;
                continue;
            }
            _ => {}
        }
        let Some(site) = site_map.get(&i) else {
            continue;
        };
        if i < skip_until {
            continue;
        }
        let args = args_range(toks, site.paren);
        if site.name() == "spawn" {
            skip_until = args.end;
            continue;
        }
        let arg_guards: Vec<usize> = live(&guards)
            .into_iter()
            .filter(|&g| {
                let name = guards[g].as_ref().map(|g| g.name.as_str()).unwrap_or("");
                toks[args.clone()].iter().any(|t| t.text == name)
            })
            .collect();
        let name = site.name();

        // drop(g) / mem::drop(g) kills the guards it consumes.
        if !site.method && name == "drop" {
            for g in arg_guards {
                guards[g] = None;
            }
            continue;
        }

        let held: Vec<usize> = live(&guards);
        let first_held_lock = |exclude: &[usize]| {
            held.iter()
                .find(|g| !exclude.contains(g))
                .and_then(|&g| guards[g].as_ref().map(|g| g.lock.clone()))
        };

        let is_acquire_lock = site.method && name == "lock" && site.args_empty;
        let is_acquire_rw = site.method && (name == "read" || name == "write") && site.args_empty;
        let is_wait = site.method && matches!(name, "wait" | "wait_timeout" | "wait_while");

        if is_acquire_lock || is_acquire_rw {
            let Some(lock) = reg.lock_id(&site.recv) else {
                continue;
            };
            facts.acquires.insert(lock.clone());
            if report {
                for &g in &held {
                    if let Some(h) = guards[g].as_ref() {
                        edges.push(Edge {
                            from: h.lock.clone(),
                            to: lock.clone(),
                            file,
                            line: site.line,
                        });
                    }
                }
            }
            let binder = stmt_binder(toks, stmt_start..site.name_at, false);
            let idx = guards.len();
            match binder {
                Some((name, conditional)) => {
                    guards.push(Some(Guard {
                        name,
                        lock,
                        temp: false,
                    }));
                    if conditional {
                        pending_next_block.push(idx);
                    } else if let Some((_, gs)) = blocks.last_mut() {
                        gs.push(idx);
                    }
                }
                None => guards.push(Some(Guard {
                    name: String::new(),
                    lock,
                    temp: true,
                })),
            }
            continue;
        }

        if is_wait {
            let is_condvar = site
                .recv
                .last()
                .is_some_and(|r| reg.condvar_fields.contains(r))
                || !arg_guards.is_empty();
            if is_condvar {
                facts
                    .blocking
                    .get_or_insert_with(|| format!("Condvar::{name}"));
                if report {
                    if let Some(lock) = first_held_lock(&arg_guards) {
                        scan.push(
                            out,
                            Rule::C2,
                            site.line,
                            format!("lock `{lock}` held across blocking `Condvar::{name}`"),
                        );
                    }
                    if !blocks.iter().any(|(l, _)| *l) {
                        scan.push(
                            out,
                            Rule::C3,
                            site.line,
                            format!(
                                "`Condvar::{name}` outside a predicate loop \
                                 (wrap it in `while !condition`)"
                            ),
                        );
                    }
                }
                // The wait consumes its guard and hands back a new one.
                let lock = arg_guards
                    .first()
                    .and_then(|&g| guards[g].as_ref().map(|g| g.lock.clone()))
                    .or_else(|| reg.lock_id(&site.recv));
                for &g in &arg_guards {
                    guards[g] = None;
                }
                if let Some(lock) = lock {
                    let binder =
                        stmt_binder(toks, stmt_start..site.name_at, name == "wait_timeout");
                    let idx = guards.len();
                    match binder {
                        Some((name, conditional)) => {
                            guards.push(Some(Guard {
                                name,
                                lock,
                                temp: false,
                            }));
                            if conditional {
                                pending_next_block.push(idx);
                            } else if let Some((_, gs)) = blocks.last_mut() {
                                gs.push(idx);
                            }
                        }
                        None => guards.push(Some(Guard {
                            name: String::new(),
                            lock,
                            temp: true,
                        })),
                    }
                }
            } else {
                facts.blocking.get_or_insert_with(|| name.to_string());
                if report {
                    if let Some(lock) = first_held_lock(&[]) {
                        scan.push(
                            out,
                            Rule::C2,
                            site.line,
                            format!("lock `{lock}` held across blocking `{name}`"),
                        );
                    }
                }
            }
            continue;
        }

        // Blocking primitives.
        let blocking_op: Option<String> = if site.method {
            if BLOCKING_METHODS.contains(&name) {
                Some(name.to_string())
            } else if name == "join" && site.args_empty {
                Some("join".to_string())
            } else if (name == "read" || name == "write")
                && !site.args_empty
                && site.recv.last().is_some_and(|r| {
                    let r = r.to_ascii_lowercase();
                    STREAMY_RECEIVERS.iter().any(|s| r.contains(s))
                })
            {
                Some(name.to_string())
            } else {
                None
            }
        } else if name == "sleep"
            && site.path.len() >= 2
            && site.path[site.path.len() - 2] == "thread"
        {
            Some("thread::sleep".to_string())
        } else if name == "scope"
            && site.path.len() >= 2
            && site.path[site.path.len() - 2] == "thread"
        {
            Some("thread::scope".to_string())
        } else {
            None
        };
        if let Some(op) = blocking_op {
            facts.blocking.get_or_insert_with(|| op.clone());
            if report {
                if let Some(lock) = first_held_lock(&[]) {
                    scan.push(
                        out,
                        Rule::C2,
                        site.line,
                        format!("lock `{lock}` held across blocking `{op}`"),
                    );
                }
            }
            continue;
        }

        // Workspace callee: record the edge for the fixpoint and, with
        // summaries, apply the callee's facts at this site.
        if let Some(callee) = graph.resolve(me, site) {
            if callee != me && summaries.is_none() {
                facts.calls.push(callee);
            }
            if let Some(sums) = summaries {
                if report && !held.is_empty() {
                    if sums[callee].blocking.is_some() {
                        if let Some(lock) = first_held_lock(&[]) {
                            scan.push(
                                out,
                                Rule::C2,
                                site.line,
                                format!(
                                    "lock `{lock}` held across call to blocking `{}`",
                                    graph.fns[callee].item.name
                                ),
                            );
                        }
                    }
                    for to in &sums[callee].acquires {
                        for &g in &held {
                            if let Some(h) = guards[g].as_ref() {
                                edges.push(Edge {
                                    from: h.lock.clone(),
                                    to: to.clone(),
                                    file,
                                    line: site.line,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    facts
}

/// U2: raw syscalls stay inside `rt::reactor`, behind the `Poller` API.
fn u2_pass(asts: &[FileAst], scans: &[FileScan<'_>], graph: &CallGraph, out: &mut Vec<Violation>) {
    let extern_names: BTreeSet<&str> = asts
        .iter()
        .flat_map(|a| a.extern_fns.iter().map(|(n, _)| n.as_str()))
        .collect();
    for (fi, ast) in asts.iter().enumerate() {
        for (name, line) in &ast.extern_fns {
            if ast.rel != REACTOR {
                scans[fi].push(
                    out,
                    Rule::U2,
                    *line,
                    format!(
                        "raw syscall declaration `{name}` outside rt::reactor \
                         (the audited Poller API owns raw I/O)"
                    ),
                );
            }
        }
    }
    if extern_names.is_empty() {
        return;
    }
    // Direct syscall calls: allowed only inside the reactor; functions
    // making them are tainted for the reachability check.
    let mut tainted = vec![false; graph.fns.len()];
    for (f, gfn) in graph.fns.iter().enumerate() {
        let ast = &asts[gfn.file];
        for site in call_sites(&ast.toks, gfn.item.body.clone()) {
            if !site.method && extern_names.contains(site.name()) {
                if ast.rel == REACTOR {
                    tainted[f] = true;
                } else {
                    scans[gfn.file].push(
                        out,
                        Rule::U2,
                        site.line,
                        format!("raw syscall `{}` called outside rt::reactor", site.name()),
                    );
                }
            }
        }
    }
    // Propagate taint inside the reactor along may-edges (same file,
    // same name — over-approximate, which is what reachability wants).
    loop {
        let mut changed = false;
        for (f, gfn) in graph.fns.iter().enumerate() {
            if tainted[f] || asts[gfn.file].rel != REACTOR {
                continue;
            }
            let ast = &asts[gfn.file];
            for site in call_sites(&ast.toks, gfn.item.body.clone()) {
                if graph
                    .may_resolve_same_file(f, &site)
                    .iter()
                    .any(|&c| tainted[c])
                {
                    tainted[f] = true;
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (f, gfn) in graph.fns.iter().enumerate() {
        if !tainted[f] || asts[gfn.file].rel != REACTOR {
            continue;
        }
        let item = &gfn.item;
        if item.is_bare_pub && item.impl_type.as_deref() != Some("Poller") {
            scans[gfn.file].push(
                out,
                Rule::U2,
                item.line,
                format!(
                    "raw-syscall wrapper `{}` is reachable outside the audited \
                     Poller API (restrict its visibility or route through Poller)",
                    item.name
                ),
            );
        }
    }
}
