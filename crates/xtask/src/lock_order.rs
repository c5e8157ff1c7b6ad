//! The `lock-discipline` rule family.
//!
//! The `axcc serve` daemon and the sweep engine are the two places the
//! workspace holds real locks across real threads. Three lock bugs are
//! cheap to write and expensive to debug there, and all three are
//! detectable from an approximate intra-crate call graph:
//!
//! 1. **Inversion** — lock `A` acquired while `B` is held on one path
//!    and `B` while `A` on another: the classic two-thread deadlock.
//! 2. **Blocking while locked** — a channel `recv`, thread `join`,
//!    `thread::sleep`, TCP `accept`, or blocking `read` while any guard
//!    is live: stalls every thread contending for that lock. (Condvar
//!    `wait`/`wait_timeout` are exempt — releasing the guard while
//!    parked is their contract.)
//! 3. **Re-entrant double-lock** — acquiring a lock already held on the
//!    same path: `std::sync::Mutex` is not re-entrant, so this
//!    self-deadlocks deterministically.
//! 4. **Per-job synchronization in a dispatch loop** — scoped to the
//!    sweep engine's claim loops (`crates/sweep/src/pool.rs` and
//!    `runner.rs`): a loop body that claims work off the atomic cursor
//!    (`fetch_add`) must not also take a `.lock(` or push through a
//!    `.send(` per iteration. That round-trip is exactly what chunked
//!    dispatch removed (results flush once per chunk via a helper);
//!    reintroducing it was measured as a ~15× per-job overhead regression
//!    (perfbench's `dispatch.ns_per_job` tracks that cost).
//!
//! The analysis is name-based: a lock's identity is the field or
//! binding it is called on (`pending`, `state`, `mem`, `out`), guards
//! live to the end of their statement (or enclosing block when
//! `let`-bound or acquired in an `if`/`while`/`for` head) unless
//! `drop`ped, and calls resolve to same-crate functions by name when
//! unambiguous. Two same-named locks on different instances alias, and
//! cross-crate calls are opaque — see DESIGN.md §6 for the full caveat
//! list.

use crate::model::{statement_end, ItemIndex};
use crate::parse::{FnDef, ParsedFile, TokKind};
use crate::rules::{Diagnostic, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// Method names too common in std to resolve by bare name; they only
/// resolve to a same-crate fn when called on `self`.
const COMMON_METHODS: &[&str] = &[
    "clone",
    "cmp",
    "contains",
    "default",
    "drain",
    "drop",
    "eq",
    "extend",
    "flush",
    "fmt",
    "from",
    "get",
    "hash",
    "insert",
    "into",
    "is_empty",
    "iter",
    "join",
    "len",
    "lock",
    "new",
    "next",
    "pop",
    "push",
    "push_back",
    "pop_front",
    "read",
    "recv",
    "remove",
    "run",
    "send",
    "sort",
    "take",
    "to_string",
    "write",
];

/// One function's lock-relevant summary, closed over its callees.
#[derive(Debug, Default, Clone)]
struct Summary {
    /// Lock ids this fn may acquire (directly or transitively).
    acquires: BTreeSet<String>,
    /// A blocking operation reachable from this fn, if any.
    blocks: Option<&'static str>,
}

/// A live guard during the path simulation.
struct Guard {
    lock: String,
    /// `let`-bound name, for `drop(name)` release.
    name: Option<String>,
    /// Token index at which the guard dies.
    until: usize,
    line: usize,
}

/// Run the family over every indexed crate.
pub fn check(index: &ItemIndex<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let crates: Vec<String> = index.crates().map(str::to_string).collect();
    for krate in &crates {
        if !index.files_of(krate).any(|e| e.rules.lock_discipline) {
            continue;
        }
        check_crate(index, krate, &mut out);
    }
    out
}

fn check_crate(index: &ItemIndex<'_>, krate: &str, out: &mut Vec<Diagnostic>) {
    let fns = index.fns_of(krate);

    // Guard-returning helpers: calling one acquires its lock.
    let mut guard_fns: BTreeMap<String, String> = BTreeMap::new();
    for (file, f) in &fns {
        if !f.ret.contains("MutexGuard") {
            continue;
        }
        if let Some(lock) = first_direct_acquire(file, f) {
            guard_fns.insert(f.name.clone(), lock);
        }
    }

    // Name → fn indices, for call resolution.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, (_, f)) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }

    // Local facts, then a fixpoint closing acquires/blocks over calls.
    let mut summaries: Vec<Summary> = Vec::with_capacity(fns.len());
    let mut callees: Vec<BTreeSet<usize>> = Vec::with_capacity(fns.len());
    for (file, f) in &fns {
        let (s, c) = local_facts(file, f, &guard_fns, &by_name, &fns);
        summaries.push(s);
        callees.push(c);
    }
    let mut changed = true;
    let mut rounds = 0usize;
    while changed && rounds < fns.len() + 2 {
        changed = false;
        rounds += 1;
        for i in 0..fns.len() {
            for &c in callees[i].clone().iter() {
                let (add_acq, add_blk) = {
                    let cs = &summaries[c];
                    (cs.acquires.clone(), cs.blocks)
                };
                for a in add_acq {
                    changed |= summaries[i].acquires.insert(a);
                }
                if summaries[i].blocks.is_none() && add_blk.is_some() {
                    summaries[i].blocks = add_blk;
                    changed = true;
                }
            }
        }
    }

    // Per-path simulation: ordered pairs, double-locks, blocking calls.
    let mut pairs: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    for (file, f) in &fns {
        simulate(
            file, f, &guard_fns, &by_name, &fns, &summaries, &mut pairs, out,
        );
        if is_dispatch_file(&file.rel) {
            check_dispatch_loops(file, f, out);
        }
    }

    // Inversions: both (a,b) and (b,a) observed somewhere in the crate.
    for ((a, b), (file, line)) in &pairs {
        if a < b {
            continue; // report once per unordered pair, from the (b,a) side
        }
        if let Some((ofile, oline)) = pairs.get(&(b.clone(), a.clone())) {
            for ((f1, l1), (x, y), (f2, l2)) in [
                ((file, line), (a, b), (ofile, oline)),
                ((ofile, oline), (b, a), (file, line)),
            ] {
                out.push(Diagnostic {
                    file: f1.clone(),
                    line: *l1,
                    rule: Rule::LockDiscipline,
                    message: format!(
                        "`{x}` is acquired here while `{y}` is held, but {f2}:{l2} acquires \
                         them in the opposite order; two threads on these paths deadlock — \
                         pick one global acquisition order"
                    ),
                });
            }
        }
    }
}

/// Is `rel` one of the sweep engine's dispatch files, where claim loops
/// live and the per-job-synchronization rule applies?
fn is_dispatch_file(rel: &str) -> bool {
    rel.ends_with("crates/sweep/src/pool.rs") || rel.ends_with("crates/sweep/src/runner.rs")
}

/// The dispatch-loop rule (family bug class 4): inside the sweep
/// engine's claim loops, flag any loop body that both claims work via
/// `fetch_add` and takes a per-iteration `.lock(` or `.send(`. The check
/// is lexical — the sanctioned shape keeps the flush lock inside a
/// helper called once per chunk, so it never appears in the loop body.
fn check_dispatch_loops(file: &ParsedFile, f: &FnDef, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    let mut seen: BTreeSet<(usize, &'static str)> = BTreeSet::new();
    for i in f.body.clone() {
        if !matches!(toks[i].text.as_str(), "loop" | "while" | "for") {
            continue;
        }
        // The body is the first brace after the loop head (loop heads in
        // this workspace contain no struct literals or block expressions).
        let Some(open) = (i + 1..f.body.end).find(|&j| toks[j].text == "{") else {
            continue;
        };
        let end = file.matches[open].unwrap_or(f.body.end).min(f.body.end);
        let mut claims = false;
        let mut per_job: Vec<(usize, &'static str)> = Vec::new();
        for k in open + 1..end {
            if toks[k].kind != TokKind::Ident
                || toks.get(k + 1).is_none_or(|t| t.text != "(")
                || k == 0
                || toks[k - 1].text != "."
            {
                continue;
            }
            match toks[k].text.as_str() {
                "fetch_add" => claims = true,
                "lock" => per_job.push((toks[k].line, "lock")),
                "send" => per_job.push((toks[k].line, "send")),
                _ => {}
            }
        }
        if !claims {
            continue;
        }
        for (line, what) in per_job {
            if seen.insert((line, what)) {
                out.push(Diagnostic {
                    file: file.rel.clone(),
                    line,
                    rule: Rule::LockDiscipline,
                    message: format!(
                        "per-job `.{what}(` inside a `fetch_add` claim loop; dispatch must \
                         stay chunked — flush results once per chunk through a helper \
                         instead of paying a lock or channel round-trip per job"
                    ),
                });
            }
        }
    }
}

/// The first `X.lock()` receiver inside a fn body (for guard helpers).
fn first_direct_acquire(file: &ParsedFile, f: &FnDef) -> Option<String> {
    let toks = &file.tokens;
    for i in f.body.clone() {
        if toks[i].text == "lock"
            && i >= 2
            && toks[i - 1].text == "."
            && toks[i - 2].kind == TokKind::Ident
            && toks[i - 2].text != "self"
            && toks.get(i + 1).is_some_and(|t| t.text == "(")
        {
            return Some(toks[i - 2].text.clone());
        }
    }
    None
}

/// Is `F(` at token `i` a blocking operation? Returns its label.
fn blocking_op(file: &ParsedFile, i: usize) -> Option<&'static str> {
    let toks = &file.tokens;
    let name = toks[i].text.as_str();
    if toks.get(i + 1).is_none_or(|t| t.text != "(") {
        return None;
    }
    let prev = if i > 0 { toks[i - 1].text.as_str() } else { "" };
    match name {
        "recv" | "recv_timeout" if prev == "." => Some("channel `recv`"),
        "join" if prev == "." && toks.get(i + 2).is_some_and(|t| t.text == ")") => {
            Some("`join` on a thread handle")
        }
        "accept" if prev == "." => Some("TCP `accept`"),
        "sleep" if prev == "::" => Some("`thread::sleep`"),
        _ if prev == "." && name.starts_with("read") => Some("blocking `read`"),
        _ => None,
    }
}

/// Resolve a call at token `i` (ident followed by `(`) to a same-crate
/// fn index, when the name is unambiguous and not a std-common method
/// called on something other than `self`.
fn resolve_call(
    file: &ParsedFile,
    i: usize,
    by_name: &BTreeMap<&str, Vec<usize>>,
    fns: &[(&ParsedFile, &FnDef)],
    current: &FnDef,
) -> Option<usize> {
    let toks = &file.tokens;
    let name = toks[i].text.as_str();
    if toks[i].kind != TokKind::Ident || toks.get(i + 1).is_none_or(|t| t.text != "(") {
        return None;
    }
    if matches!(
        name,
        "if" | "while" | "match" | "for" | "return" | "fn" | "loop" | "move" | "in"
    ) {
        return None;
    }
    let candidates = by_name.get(name)?;
    if candidates.len() != 1 {
        return None;
    }
    let idx = candidates[0];
    let prev = if i > 0 { toks[i - 1].text.as_str() } else { "" };
    let receiver = if prev == "." && i >= 2 {
        Some(toks[i - 2].text.as_str())
    } else {
        None
    };
    if COMMON_METHODS.contains(&name) && receiver != Some("self") {
        return None;
    }
    // Don't treat a fn's own recursion as a call edge for simulation
    // purposes (the summary fixpoint already handles cycles).
    if fns[idx].1.name == current.name && fns[idx].1.line == current.line {
        return None;
    }
    Some(idx)
}

/// Local lock facts of one fn, plus its resolved same-crate callees.
fn local_facts(
    file: &ParsedFile,
    f: &FnDef,
    guard_fns: &BTreeMap<String, String>,
    by_name: &BTreeMap<&str, Vec<usize>>,
    fns: &[(&ParsedFile, &FnDef)],
) -> (Summary, BTreeSet<usize>) {
    let mut s = Summary::default();
    let mut callees = BTreeSet::new();
    let toks = &file.tokens;
    for i in f.body.clone() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        if let Some((lock, _)) = acquisition_at(file, i, guard_fns) {
            s.acquires.insert(lock);
            continue;
        }
        if s.blocks.is_none() {
            if let Some(op) = blocking_op(file, i) {
                s.blocks = Some(op);
                continue;
            }
        }
        if let Some(c) = resolve_call(file, i, by_name, fns, f) {
            callees.insert(c);
        }
    }
    (s, callees)
}

/// Is token `i` an acquisition? Returns the lock id and whether it came
/// through a guard helper.
fn acquisition_at(
    file: &ParsedFile,
    i: usize,
    guard_fns: &BTreeMap<String, String>,
) -> Option<(String, bool)> {
    let toks = &file.tokens;
    if toks[i].kind != TokKind::Ident || toks.get(i + 1).is_none_or(|t| t.text != "(") {
        return None;
    }
    let name = toks[i].text.as_str();
    let prev = if i > 0 { toks[i - 1].text.as_str() } else { "" };
    if name == "lock" && prev == "." && i >= 2 {
        let recv = &toks[i - 2];
        if recv.kind == TokKind::Ident && recv.text != "self" {
            return Some((recv.text.clone(), false));
        }
        // `self.lock()` falls through to the guard-helper lookup.
    }
    if prev == "." {
        if let Some(lock) = guard_fns.get(name) {
            return Some((lock.clone(), true));
        }
    }
    None
}

/// Walk one fn body tracking live guards; push diagnostics for
/// double-locks and blocking-while-locked, and record acquisition-order
/// pairs for the crate-level inversion check.
#[allow(clippy::too_many_arguments)]
fn simulate(
    file: &ParsedFile,
    f: &FnDef,
    guard_fns: &BTreeMap<String, String>,
    by_name: &BTreeMap<&str, Vec<usize>>,
    fns: &[(&ParsedFile, &FnDef)],
    summaries: &[Summary],
    pairs: &mut BTreeMap<(String, String), (String, usize)>,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &file.tokens;
    let body = f.body.clone();
    let mut guards: Vec<Guard> = Vec::new();
    // Closing-brace indices of enclosing blocks, innermost last.
    let mut blocks: Vec<usize> = vec![body.end];
    let mut current_let: Option<String> = None;
    let mut record_pair = |a: &str, b: &str, line: usize| {
        pairs
            .entry((a.to_string(), b.to_string()))
            .or_insert_with(|| (file.rel.clone(), line));
    };

    let mut i = body.start;
    while i < body.end {
        guards.retain(|g| g.until > i);
        let t = &toks[i];
        match t.text.as_str() {
            "{" => {
                blocks.push(file.matches[i].unwrap_or(body.end));
                current_let = None;
                i += 1;
                continue;
            }
            "}" => {
                if blocks.len() > 1 {
                    blocks.pop();
                }
                current_let = None;
                i += 1;
                continue;
            }
            ";" => {
                current_let = None;
                i += 1;
                continue;
            }
            "let" => {
                // `if let` / `while let` bind a pattern over a condition
                // temporary; leave those to the temporary-lifetime rule.
                let prev = if i > 0 { toks[i - 1].text.as_str() } else { "" };
                if prev != "if" && prev != "while" {
                    let mut j = i + 1;
                    while j < body.end && (toks[j].text == "mut" || toks[j].kind == TokKind::Punct)
                    {
                        j += 1;
                    }
                    if j < body.end && toks[j].kind == TokKind::Ident {
                        current_let = Some(toks[j].text.clone());
                    }
                }
                i += 1;
                continue;
            }
            "drop" => {
                // `drop(name)` releases a named guard early.
                if toks.get(i + 1).is_some_and(|t| t.text == "(")
                    && toks.get(i + 3).is_some_and(|t| t.text == ")")
                {
                    if let Some(victim) = toks.get(i + 2) {
                        guards.retain(|g| g.name.as_deref() != Some(victim.text.as_str()));
                    }
                }
                i += 1;
                continue;
            }
            _ => {}
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }

        if let Some((lock, _)) = acquisition_at(file, i, guard_fns) {
            for g in &guards {
                if g.lock == lock {
                    out.push(Diagnostic {
                        file: file.rel.clone(),
                        line: t.line,
                        rule: Rule::LockDiscipline,
                        message: format!(
                            "`{lock}` is locked again while already held on this path \
                             (guard taken at line {}); std::sync::Mutex is not re-entrant, \
                             so this self-deadlocks",
                            g.line
                        ),
                    });
                } else {
                    record_pair(&g.lock, &lock, t.line);
                }
            }
            let until = if current_let.is_some() {
                *blocks.last().unwrap_or(&body.end)
            } else {
                statement_end(file, i, body.end)
            };
            guards.push(Guard {
                lock,
                name: current_let.clone(),
                until,
                line: t.line,
            });
            i += 1;
            continue;
        }

        if !guards.is_empty() {
            if let Some(op) = blocking_op(file, i) {
                let held: Vec<&str> = guards.iter().map(|g| g.lock.as_str()).collect();
                out.push(Diagnostic {
                    file: file.rel.clone(),
                    line: t.line,
                    rule: Rule::LockDiscipline,
                    message: format!(
                        "{op} while holding `{}`; every thread contending for that lock \
                         stalls — release the guard (drop it or narrow its scope) before \
                         blocking",
                        held.join("`, `")
                    ),
                });
                i += 1;
                continue;
            }
            if let Some(c) = resolve_call(file, i, by_name, fns, f) {
                let cs = &summaries[c];
                let callee = &fns[c].1.name;
                for g in &guards {
                    if cs.acquires.contains(&g.lock) {
                        out.push(Diagnostic {
                            file: file.rel.clone(),
                            line: t.line,
                            rule: Rule::LockDiscipline,
                            message: format!(
                                "call to `{callee}` re-acquires `{}` already held on this \
                                 path (guard taken at line {}); std::sync::Mutex is not \
                                 re-entrant, so this self-deadlocks",
                                g.lock, g.line
                            ),
                        });
                    }
                    for acquired in &cs.acquires {
                        if *acquired != g.lock {
                            record_pair(&g.lock, acquired, t.line);
                        }
                    }
                }
                if let Some(op) = cs.blocks {
                    let held: Vec<&str> = guards.iter().map(|g| g.lock.as_str()).collect();
                    out.push(Diagnostic {
                        file: file.rel.clone(),
                        line: t.line,
                        rule: Rule::LockDiscipline,
                        message: format!(
                            "call to `{callee}` can block ({op}) while `{}` is held; \
                             release the guard before calling into blocking code",
                            held.join("`, `")
                        ),
                    });
                }
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::model::FileEntry;
    use crate::parse::parse;
    use crate::rules::RuleSet;

    fn run(src: &str) -> Vec<Diagnostic> {
        run_at("crates/serve/src/locks.rs", src)
    }

    fn run_at(rel: &str, src: &str) -> Vec<Diagnostic> {
        let files = vec![FileEntry {
            parsed: parse(rel, &lex(src)),
            rules: RuleSet {
                lock_discipline: true,
                ..RuleSet::default()
            },
        }];
        check(&ItemIndex::build(&files))
    }

    #[test]
    fn inversion_across_fns_is_flagged_at_both_sites() {
        let diags = run(
            "fn f(s: &Shared) {\n    let a = s.alpha.lock();\n    let b = s.beta.lock();\n}\n\
             fn g(s: &Shared) {\n    let b = s.beta.lock();\n    let a = s.alpha.lock();\n}\n",
        );
        let inv: Vec<_> = diags
            .iter()
            .filter(|d| d.message.contains("opposite order"))
            .collect();
        assert_eq!(inv.len(), 2, "{diags:?}");
    }

    #[test]
    fn consistent_order_is_clean() {
        let diags = run(
            "fn f(s: &Shared) {\n    let a = s.alpha.lock();\n    let b = s.beta.lock();\n}\n\
             fn g(s: &Shared) {\n    let a = s.alpha.lock();\n    let b = s.beta.lock();\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn blocking_recv_under_guard_is_flagged() {
        let diags = run(
            "fn f(s: &Shared, rx: &Receiver<u32>) {\n    let g = s.state.lock();\n    let x = rx.recv();\n}\n",
        );
        assert!(
            diags.iter().any(|d| d.message.contains("channel `recv`")),
            "{diags:?}"
        );
    }

    #[test]
    fn drop_releases_before_blocking() {
        let diags = run(
            "fn f(s: &Shared, rx: &Receiver<u32>) {\n    let g = s.state.lock();\n    drop(g);\n    let x = rx.recv();\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn statement_temporaries_do_not_outlive_their_statement() {
        let diags = run(
            "fn f(s: &Shared, rx: &Receiver<u32>) {\n    s.state.lock().push(1);\n    let x = rx.recv();\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn condition_temporaries_live_through_the_block() {
        let diags = run(
            "fn f(s: &Shared, rx: &Receiver<u32>) {\n    if s.state.lock().is_ready() {\n        let x = rx.recv();\n    }\n}\n",
        );
        assert!(
            diags.iter().any(|d| d.message.contains("channel `recv`")),
            "{diags:?}"
        );
    }

    #[test]
    fn double_lock_on_same_path_is_flagged() {
        let diags = run(
            "fn f(s: &Shared) {\n    let a = s.state.lock();\n    let b = s.state.lock();\n}\n",
        );
        assert!(
            diags.iter().any(|d| d.message.contains("not re-entrant")),
            "{diags:?}"
        );
    }

    #[test]
    fn condvar_wait_is_sanctioned() {
        let diags = run(
            "fn f(s: &Shared) {\n    let mut g = s.state.lock();\n    let (g2, t) = s.ready.wait_timeout(g, d);\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn guard_helpers_count_as_acquisitions_via_calls() {
        let diags = run(
            "impl Shared {\n    fn lock_pending(&self) -> MutexGuard<'_, Vec<u32>> {\n        self.pending.lock()\n    }\n    fn scan(&self, rx: &Receiver<u32>) {\n        let p = self.lock_pending();\n        let x = rx.recv();\n    }\n}\n",
        );
        assert!(
            diags.iter().any(|d| d.message.contains("channel `recv`")),
            "{diags:?}"
        );
    }

    #[test]
    fn inversion_through_a_helper_call_is_found() {
        let diags = run(
            "impl Shared {\n    fn touch_beta(&self) {\n        let b = self.beta.lock();\n    }\n    fn forward(&self) {\n        let a = self.alpha.lock();\n        self.touch_beta();\n    }\n    fn backward(&self) {\n        let b = self.beta.lock();\n        let a = self.alpha.lock();\n    }\n}\n",
        );
        assert!(
            diags.iter().any(|d| d.message.contains("opposite order")),
            "{diags:?}"
        );
    }

    const PER_JOB_DISPATCH: &str = "fn drain(c: &AtomicUsize, n: usize, slots: &Mutex<Vec<u64>>, tx: &Sender<usize>) {\n    loop {\n        let idx = c.fetch_add(1, Ordering::Relaxed);\n        if idx >= n {\n            break;\n        }\n        if let Ok(mut g) = slots.lock() {\n            g.push(idx as u64);\n        }\n        let _ = tx.send(idx);\n    }\n}\n";

    #[test]
    fn per_job_lock_and_send_in_a_claim_loop_are_flagged() {
        let diags = run_at("crates/sweep/src/pool.rs", PER_JOB_DISPATCH);
        assert!(
            diags.iter().any(|d| d.message.contains("per-job `.lock(`")),
            "{diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.message.contains("per-job `.send(`")),
            "{diags:?}"
        );
    }

    #[test]
    fn chunked_dispatch_with_a_helper_flush_is_clean() {
        let diags = run_at(
            "crates/sweep/src/pool.rs",
            "fn drain(c: &AtomicUsize, n: usize, chunk: usize, slots: &Mutex<Vec<u64>>) {\n    let mut local = Vec::new();\n    loop {\n        let start = c.fetch_add(chunk, Ordering::Relaxed);\n        if start >= n {\n            break;\n        }\n        local.clear();\n        fill(start, n.min(start + chunk), &mut local);\n        flush_chunk(slots, start, &mut local);\n    }\n}\n\
             fn fill(start: usize, end: usize, local: &mut Vec<u64>) {\n    for idx in start..end {\n        local.push(idx as u64);\n    }\n}\n\
             fn flush_chunk(slots: &Mutex<Vec<u64>>, start: usize, local: &mut Vec<u64>) {\n    if let Ok(mut g) = slots.lock() {\n        let _ = start;\n        g.append(local);\n    }\n}\n",
        );
        assert!(
            !diags.iter().any(|d| d.message.contains("claim loop")),
            "{diags:?}"
        );
    }

    #[test]
    fn dispatch_rule_is_scoped_to_the_sweep_dispatch_files() {
        // The identical per-job shape outside pool.rs/runner.rs is the
        // other families' business, not the dispatch rule's.
        let diags = run_at("crates/serve/src/locks.rs", PER_JOB_DISPATCH);
        assert!(
            !diags.iter().any(|d| d.message.contains("claim loop")),
            "{diags:?}"
        );
    }

    #[test]
    fn lock_without_a_claim_in_the_loop_is_not_a_dispatch_finding() {
        let diags = run_at(
            "crates/sweep/src/runner.rs",
            "fn tally(rows: &[u64], slots: &Mutex<Vec<u64>>) {\n    for &row in rows {\n        if let Ok(mut g) = slots.lock() {\n            g.push(row);\n        }\n    }\n}\n",
        );
        assert!(
            !diags.iter().any(|d| d.message.contains("claim loop")),
            "{diags:?}"
        );
    }

    #[test]
    fn transitive_blocking_through_a_call_is_found() {
        let diags = run(
            "fn wait_for(rx: &Receiver<u32>) -> u32 {\n    rx.recv()\n}\n\
             fn f(s: &Shared, rx: &Receiver<u32>) {\n    let g = s.state.lock();\n    let v = wait_for(rx);\n}\n",
        );
        assert!(
            diags.iter().any(|d| d.message.contains("can block")),
            "{diags:?}"
        );
    }
}
