//! The `axcc-tidy` rule families, diagnostics, and inline suppressions.
//!
//! Rules operate on [`SourceFile`]s — comments and literals are
//! already blanked, and test lines are marked — so each rule is a small,
//! line-local pattern check. Which rules run on which file is decided by
//! [`crate::policy`].

use crate::lexer::{Line, SourceFile};
use std::fmt;

/// A rule family enforced by `axcc-tidy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Unseeded randomness, wall-clock reads, unordered-map iteration.
    Determinism,
    /// `partial_cmp` orderings and bare float-literal equality.
    NanSafety,
    /// `.unwrap()` / `.expect()` / panicking macros in library code.
    PanicFreedom,
    /// Raw Mbps/ms conversion literals outside `axcc_core::units`.
    UnitSafety,
    /// Crate-root headers, manifest lint opt-in, experiment-module docs.
    Hygiene,
    /// Direct `RunTrace` construction outside the sanctioned trace sink.
    TraceDiscipline,
    /// A `Fingerprint` impl that skips a declared field of its type.
    FingerprintCoverage,
    /// Lock inversions, blocking under a guard, re-entrant double-locks.
    LockDiscipline,
    /// Unordered-container iteration feeding an order-sensitive sink.
    NondetIteration,
    /// Heap allocation inside an engine step loop (`for t in …`) or a
    /// step helper it calls (`fn step_…`).
    StepAlloc,
    /// Meta-rule: malformed `tidy-allow` suppressions.
    TidyAllow,
}

impl Rule {
    /// The stable diagnostic id (also the id used in `tidy-allow:`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::NanSafety => "nan-safety",
            Rule::PanicFreedom => "panic-freedom",
            Rule::UnitSafety => "unit-safety",
            Rule::Hygiene => "hygiene",
            Rule::TraceDiscipline => "trace-discipline",
            Rule::FingerprintCoverage => "fingerprint-coverage",
            Rule::LockDiscipline => "lock-discipline",
            Rule::NondetIteration => "nondet-iteration",
            Rule::StepAlloc => "step-loop-alloc",
            Rule::TidyAllow => "tidy-allow",
        }
    }

    /// Every rule family, in diagnostic-sort order (for summary tables).
    pub const ALL: &'static [Rule] = &[
        Rule::Determinism,
        Rule::NanSafety,
        Rule::PanicFreedom,
        Rule::UnitSafety,
        Rule::Hygiene,
        Rule::TraceDiscipline,
        Rule::FingerprintCoverage,
        Rule::LockDiscipline,
        Rule::NondetIteration,
        Rule::StepAlloc,
        Rule::TidyAllow,
    ];

    /// Parse a rule id as written in a `tidy-allow:` comment.
    pub fn from_id(id: &str) -> Option<Rule> {
        match id {
            "determinism" => Some(Rule::Determinism),
            "nan-safety" => Some(Rule::NanSafety),
            "panic-freedom" => Some(Rule::PanicFreedom),
            "unit-safety" => Some(Rule::UnitSafety),
            "hygiene" => Some(Rule::Hygiene),
            "trace-discipline" => Some(Rule::TraceDiscipline),
            "fingerprint-coverage" => Some(Rule::FingerprintCoverage),
            "lock-discipline" => Some(Rule::LockDiscipline),
            "nondet-iteration" => Some(Rule::NondetIteration),
            "step-loop-alloc" => Some(Rule::StepAlloc),
            _ => None,
        }
    }
}

/// One finding, printed as `file:line: rule-id: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule family that fired.
    pub rule: Rule,
    /// What was found and what to use instead.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// Which rule families apply to a file (decided per crate by `policy`).
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleSet {
    /// Run the determinism patterns.
    pub determinism: bool,
    /// Run the NaN-safety patterns.
    pub nan_safety: bool,
    /// Run the panic-freedom patterns.
    pub panic_freedom: bool,
    /// Run the unit-safety patterns.
    pub unit_safety: bool,
    /// Run the hygiene (header/doc/manifest) checks.
    pub hygiene: bool,
    /// Flag direct `RunTrace` struct construction. Only the shared trace
    /// sink (`axcc_core::TraceSink`) may build one — everything else,
    /// both engines included, must go through a sink, so one scoring
    /// path stays the only producer of trace data.
    pub trace_discipline: bool,
    /// Exempt this file from the thread-spawning determinism patterns.
    /// Only the `axcc-sweep` ordered worker pool earns this: it is the
    /// one place where threads provably cannot reorder results.
    pub allow_threads: bool,
    /// Exempt this file from the wall-clock determinism patterns
    /// (`SystemTime` / `Instant::now`). Only service code earns this:
    /// deadlines, idle timeouts, and latency measurement are *about* wall
    /// time, and none of it feeds back into simulation results.
    pub allow_wall_clock: bool,
    /// Exempt this file from the `catch_unwind` panic-freedom pattern.
    /// Only the `axcc-serve` worker's job boundary earns this: it is the
    /// one sanctioned place where a panic is converted into a typed error
    /// response instead of propagating.
    pub allow_catch_unwind: bool,
    /// Exempt this file from the blanket `HashMap`/`HashSet` determinism
    /// patterns. Granted only together with [`nondet_iteration`]
    /// (scope-aware enforcement replaces the blanket ban — service and
    /// tooling bookkeeping may use O(1) maps, but iteration feeding an
    /// order-sensitive sink is still flagged).
    ///
    /// [`nondet_iteration`]: RuleSet::nondet_iteration
    pub allow_unordered_types: bool,
    /// Run the cross-file `fingerprint-coverage` family on this file's
    /// struct definitions: every field of a fingerprinted type must be
    /// folded into the digest or carry a per-field waiver.
    pub fingerprint_coverage: bool,
    /// Run the cross-file `lock-discipline` family on this file's crate:
    /// lock-order inversions, blocking under a live guard, re-entrant
    /// double-locks.
    pub lock_discipline: bool,
    /// Run the scope-aware `nondet-iteration` family on this file.
    pub nondet_iteration: bool,
    /// Flag heap allocation inside an engine step loop. Granted to the
    /// simulator crates: the per-step body (`for t in …`, and any helper
    /// named `step_…` that holds part of it) is the hot path, and every
    /// buffer it needs must be hoisted into a reusable workspace (or
    /// prefilled column) before the loop starts.
    pub step_alloc: bool,
}

/// Substring patterns with fixed messages, applied to stripped code.
const DETERMINISM_PATTERNS: &[(&str, &str)] = &[
    (
        "thread_rng",
        "unseeded RNG; seed a ChaCha8Rng from the scenario seed instead",
    ),
    (
        "from_entropy",
        "entropy-seeded RNG; seed a ChaCha8Rng from the scenario seed instead",
    ),
];

/// Unordered-container patterns: part of the determinism family, but
/// separately gated so service/tooling crates can trade the blanket ban
/// for the scope-aware `nondet-iteration` family (which flags only
/// iteration that feeds an order-sensitive sink).
const UNORDERED_TYPE_PATTERNS: &[(&str, &str)] = &[
    (
        "HashMap",
        "unordered iteration is nondeterministic; use BTreeMap or a Vec",
    ),
    (
        "HashSet",
        "unordered iteration is nondeterministic; use BTreeSet or a sorted Vec",
    ),
];

/// Wall-clock patterns: part of the determinism family, but separately
/// gated so the policy can exempt service code (deadlines, idle timeouts,
/// latency percentiles are *about* wall time) while simulators and
/// experiments stay flagged.
const WALL_CLOCK_PATTERNS: &[(&str, &str)] = &[
    (
        "SystemTime",
        "wall-clock read; simulators must use virtual time only",
    ),
    (
        "Instant::now",
        "wall-clock read; simulators must use virtual time only",
    ),
];

/// Thread-spawning patterns: part of the determinism family, but
/// separately gated so the policy can exempt the `axcc-sweep` worker
/// pool (which reassembles results in submission order) while every
/// other crate stays flagged.
const THREAD_PATTERNS: &[(&str, &str)] = &[
    (
        "thread::spawn",
        "ad-hoc threads make result order schedule-dependent; \
         go through the axcc-sweep ordered worker pool",
    ),
    (
        "thread::scope",
        "ad-hoc threads make result order schedule-dependent; \
         go through the axcc-sweep ordered worker pool",
    ),
    (
        "std::thread",
        "ad-hoc threads make result order schedule-dependent; \
         go through the axcc-sweep ordered worker pool",
    ),
];

const PANIC_PATTERNS: &[(&str, &str)] = &[
    (
        ".unwrap()",
        "panic in library code; return a Result or use a non-panicking alternative",
    ),
    (
        ".expect(",
        "panic in library code; return a Result or use a non-panicking alternative",
    ),
    (
        "panic!(",
        "panic in library code; return a typed ScenarioError instead",
    ),
    (
        "unreachable!(",
        "panic in library code; make the invariant a type or return an error",
    ),
    ("todo!(", "unfinished code must not ship in library crates"),
    (
        "unimplemented!(",
        "unfinished code must not ship in library crates",
    ),
];

/// Allocation patterns forbidden inside an engine step loop. The hot
/// path must work entirely in buffers hoisted before the loop (the
/// `EngineWorkspace` arena, prefilled trace columns); any of these inside
/// a `for t in …` body or a `fn step_…` body is a per-step heap
/// allocation.
const ALLOC_PATTERNS: &[&str] = &[
    "Vec::new(",
    "vec![",
    ".push(",
    ".to_vec()",
    ".collect(",
    "with_capacity(",
    "Box::new(",
    "format!(",
    "String::new(",
    "to_string(",
];

/// Numeric literals that smell like inline Mbps/ms/MSS conversions.
const UNIT_LITERALS: &[&str] = &[
    "1000.0",
    "1_000.0",
    "1e6",
    "1.0e6",
    "1_000_000.0",
    "1500.0",
    "1_500.0",
    "12000.0",
    "12_000.0",
];

/// Run the pattern rules (everything except hygiene, which is file-level;
/// see [`check_hygiene`]) over one lexed file. `is_units_module` exempts
/// the one module allowed to spell conversion factors.
pub fn check_lines(
    file: &SourceFile,
    rules: RuleSet,
    is_units_module: bool,
) -> Vec<(usize, Rule, String)> {
    let mut findings = Vec::new();
    // Brace-depth tracker for the step-loop-alloc family: `step_body` is
    // the depth of the outermost step body currently open — a `for t in …`
    // loop (the step loops of the fluid engines bind their step counter
    // `t`) or a `fn step_…` helper holding part of one, whose body opens
    // on the line where its (possibly multi-line) signature ends.
    let mut depth: i64 = 0;
    let mut step_body: Option<i64> = None;
    let mut step_fn_pending = false;
    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        let raw_code = line.code.as_str();
        let opens = raw_code.matches('{').count() as i64;
        let closes = raw_code.matches('}').count() as i64;
        let depth_before = depth;
        depth += opens - closes;
        if let Some(body) = step_body {
            if depth < body {
                step_body = None;
            }
        }
        if line.in_test {
            continue;
        }
        let code = raw_code;
        if rules.step_alloc {
            if let Some(body) = step_body {
                if depth_before >= body {
                    for &pat in ALLOC_PATTERNS {
                        if code.contains(pat) {
                            findings.push((
                                lineno,
                                Rule::StepAlloc,
                                format!(
                                    "`{pat}` inside the engine step loop: per-step heap \
                                     allocation; hoist the buffer out of the loop \
                                     (EngineWorkspace arena / prefilled column)"
                                ),
                            ));
                        }
                    }
                }
            }
            let trimmed = code.trim_start();
            if trimmed.starts_with("fn step_") || trimmed.contains(" fn step_") {
                step_fn_pending = true;
            }
            let opens_step = step_fn_pending || trimmed.starts_with("for t in ");
            if opens_step && depth > depth_before {
                step_body.get_or_insert(depth);
                step_fn_pending = false;
            } else if step_fn_pending && trimmed.ends_with(';') {
                // A bodiless declaration (a trait method).
                step_fn_pending = false;
            }
        }
        if rules.determinism {
            for &(pat, msg) in DETERMINISM_PATTERNS {
                if code.contains(pat) {
                    findings.push((lineno, Rule::Determinism, format!("`{pat}`: {msg}")));
                }
            }
            if !rules.allow_unordered_types {
                for &(pat, msg) in UNORDERED_TYPE_PATTERNS {
                    if code.contains(pat) {
                        findings.push((lineno, Rule::Determinism, format!("`{pat}`: {msg}")));
                    }
                }
            }
            if !rules.allow_wall_clock {
                for &(pat, msg) in WALL_CLOCK_PATTERNS {
                    if code.contains(pat) {
                        findings.push((lineno, Rule::Determinism, format!("`{pat}`: {msg}")));
                    }
                }
            }
            if !rules.allow_threads {
                // Report each line once even when several thread patterns
                // overlap on it (`std::thread::spawn` matches two).
                if let Some(&(pat, msg)) =
                    THREAD_PATTERNS.iter().find(|(pat, _)| code.contains(pat))
                {
                    findings.push((lineno, Rule::Determinism, format!("`{pat}`: {msg}")));
                }
            }
        }
        if rules.nan_safety {
            if code.contains(".partial_cmp(") {
                findings.push((
                    lineno,
                    Rule::NanSafety,
                    "`.partial_cmp(...)`: NaN silently compares Equal and mis-sorts; \
                     use f64::total_cmp for a total, deterministic order"
                        .to_string(),
                ));
            }
            for op_idx in float_literal_comparisons(code) {
                findings.push((
                    lineno,
                    Rule::NanSafety,
                    format!(
                        "bare float equality at column {}: compare with an epsilon or \
                         restructure; `==`/`!=` on f64 is NaN-unsound",
                        op_idx + 1
                    ),
                ));
            }
        }
        if rules.panic_freedom {
            for &(pat, msg) in PANIC_PATTERNS {
                if code.contains(pat) {
                    findings.push((lineno, Rule::PanicFreedom, format!("`{pat}`: {msg}")));
                }
            }
            if !rules.allow_catch_unwind && code.contains("catch_unwind") {
                findings.push((
                    lineno,
                    Rule::PanicFreedom,
                    "`catch_unwind`: swallowing panics hides bugs and breaks the \
                     fail-fast contract; a sanctioned panic-to-typed-error boundary \
                     needs a policy waiver (the axcc-serve worker) or a tidy-allow \
                     justification"
                        .to_string(),
                ));
            }
        }
        if rules.trace_discipline && is_trace_construction(code) {
            findings.push((
                lineno,
                Rule::TraceDiscipline,
                "direct `RunTrace` construction outside the shared trace sink; \
                 record runs through a TraceSink (or fold them with a streaming sink) \
                 so one scoring path stays the only producer of trace data"
                    .to_string(),
            ));
        }
        if rules.unit_safety && !is_units_module {
            for &lit in UNIT_LITERALS {
                if contains_token(code, lit) {
                    findings.push((
                        lineno,
                        Rule::UnitSafety,
                        format!(
                            "raw conversion literal `{lit}`; route through axcc_core::units \
                             (mbps_to_mss_per_sec / sec_to_ms / MSS_BITS)"
                        ),
                    ));
                }
            }
        }
    }
    findings
}

/// Does `code` hold a `RunTrace { … }` struct *literal*? Type positions —
/// the definition (`struct RunTrace {`), inherent/trait impls
/// (`impl … RunTrace {`), and return types (`-> RunTrace {`) — name the
/// type without constructing one and are not flagged.
fn is_trace_construction(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find("RunTrace") {
        let start = from + pos;
        let end = start + "RunTrace".len();
        from = end;
        // Must be the full identifier (not `RunTraceExt`/`MyRunTrace`)…
        let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
        if end < bytes.len() && ident(bytes[end]) {
            continue;
        }
        if start > 0 && ident(bytes[start - 1]) {
            continue;
        }
        // …followed by `{`.
        if !code[end..].trim_start().starts_with('{') {
            continue;
        }
        // Walk back over a qualifying path (`axcc_core::RunTrace`,
        // `crate::trace::RunTrace`) to judge the whole type position.
        let mut path_start = start;
        while path_start > 0 && is_token_byte(bytes[path_start - 1]) {
            path_start -= 1;
        }
        let prefix = code[..path_start].trim_end();
        let prev_word = token_before(code, path_start);
        if prefix.ends_with("->") || matches!(prev_word, "struct" | "impl" | "for" | "dyn") {
            continue;
        }
        return true;
    }
    false
}

/// Byte offsets of `==` / `!=` operators whose left or right operand is a
/// float literal (or `f64::NAN`, which never compares equal to anything).
fn float_literal_comparisons(code: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut hits = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let two = &bytes[i..i + 2];
        let is_eq = two == b"==";
        let is_ne = two == b"!=";
        if !(is_eq || is_ne) {
            i += 1;
            continue;
        }
        // Reject `<=`, `>=`, `..=`, `=>`, and the tail of a prior `==`.
        let prev = if i > 0 { bytes[i - 1] } else { b' ' };
        if is_eq && matches!(prev, b'=' | b'<' | b'>' | b'!' | b'.') {
            i += 2;
            continue;
        }
        let left = token_before(code, i);
        let right = token_after(code, i + 2);
        if is_float_literal(left) || is_float_literal(right) {
            hits.push(i);
        }
        i += 2;
    }
    hits
}

fn token_before(code: &str, end: usize) -> &str {
    let bytes = code.as_bytes();
    let mut j = end;
    while j > 0 && bytes[j - 1] == b' ' {
        j -= 1;
    }
    let stop = j;
    while j > 0 && is_token_byte(bytes[j - 1]) {
        j -= 1;
    }
    &code[j..stop]
}

fn token_after(code: &str, start: usize) -> &str {
    let bytes = code.as_bytes();
    let mut j = start;
    while j < bytes.len() && bytes[j] == b' ' {
        j += 1;
    }
    let begin = j;
    while j < bytes.len() && is_token_byte(bytes[j]) {
        j += 1;
    }
    &code[begin..j]
}

fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':')
}

fn is_float_literal(tok: &str) -> bool {
    if tok.ends_with("NAN") {
        return true;
    }
    let mut chars = tok.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_digit()) && tok.contains('.')
}

/// Does `code` contain `lit` as a standalone numeric token (not embedded
/// in a longer number or identifier)?
fn contains_token(code: &str, lit: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(lit) {
        let start = from + pos;
        let end = start + lit.len();
        let before_ok = start == 0 || {
            let b = code.as_bytes()[start - 1];
            !(b.is_ascii_alphanumeric() || b == b'_' || b == b'.')
        };
        let after_ok = end >= code.len() || {
            let b = code.as_bytes()[end];
            !(b.is_ascii_alphanumeric() || b == b'_' || b == b'.')
        };
        if before_ok && after_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Does any non-test line use a waivable pattern group? These probes
/// back the stale-policy-waiver check: a file (or crate) granted a
/// waiver in `policy.rs` that no longer exercises it has a rotting
/// suppression, which is itself a hygiene finding.
pub fn uses_waived_pattern(file: &SourceFile, waiver: PolicyWaiver) -> bool {
    file.lines.iter().filter(|l| !l.in_test).any(|l| {
        let code = l.code.as_str();
        match waiver {
            PolicyWaiver::Threads => THREAD_PATTERNS.iter().any(|(p, _)| code.contains(p)),
            PolicyWaiver::WallClock => WALL_CLOCK_PATTERNS.iter().any(|(p, _)| code.contains(p)),
            PolicyWaiver::CatchUnwind => code.contains("catch_unwind"),
            PolicyWaiver::TraceSink => is_trace_construction(code),
        }
    })
}

/// The waivable pattern groups `policy.rs` can grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyWaiver {
    /// `allow_threads`.
    Threads,
    /// `allow_wall_clock`.
    WallClock,
    /// `allow_catch_unwind`.
    CatchUnwind,
    /// `trace_discipline: false` (the sanctioned trace sink).
    TraceSink,
}

/// Paper-artifact markers an experiment module's docs must cite.
const ARTIFACT_MARKERS: &[&str] = &[
    "Table", "Figure", "Section", "Claim", "Theorem", "Metric", "\u{a7}",
];

/// File-level hygiene checks. `kind` selects which conventions apply.
pub fn check_hygiene(file: &SourceFile, kind: HygieneKind) -> Vec<(usize, Rule, String)> {
    let mut findings = Vec::new();
    let first_raw = file.lines.first().map(|l| l.raw.trim()).unwrap_or("");
    match kind {
        HygieneKind::CrateRoot => {
            if !first_raw.starts_with("//!") {
                findings.push((
                    1,
                    Rule::Hygiene,
                    "crate root must open with `//!` crate-level docs".to_string(),
                ));
            }
            let has_forbid = file
                .lines
                .iter()
                .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
            if !has_forbid {
                findings.push((
                    1,
                    Rule::Hygiene,
                    "crate root missing the agreed header `#![forbid(unsafe_code)]`".to_string(),
                ));
            }
        }
        HygieneKind::ExperimentModule => {
            if !first_raw.starts_with("//!") {
                findings.push((
                    1,
                    Rule::Hygiene,
                    "experiment module must open with `//!` docs citing its paper artifact"
                        .to_string(),
                ));
            } else {
                let doc: String = file
                    .lines
                    .iter()
                    .map(|l| l.raw.trim())
                    .take_while(|raw| raw.starts_with("//!"))
                    .collect::<Vec<_>>()
                    .join(" ");
                if !ARTIFACT_MARKERS.iter().any(|m| doc.contains(m)) {
                    findings.push((
                        1,
                        Rule::Hygiene,
                        "experiment module docs must cite the paper artifact they reproduce \
                         (Table/Figure/Section/Claim/Theorem/Metric)"
                            .to_string(),
                    ));
                }
            }
        }
        HygieneKind::Plain => {}
    }
    findings
}

/// Which hygiene conventions apply to a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HygieneKind {
    /// `src/lib.rs` of a workspace crate (or the root facade).
    CrateRoot,
    /// A module under `src/experiments/`.
    ExperimentModule,
    /// No file-level conventions.
    Plain,
}

/// An inline suppression parsed from a `// tidy-allow:` comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule being suppressed.
    pub rule: Rule,
    /// Whether the line holding the comment also holds code (same-line
    /// suppression) or stands alone (suppresses the following line).
    pub own_line: bool,
}

/// Parse the `tidy-allow` comment on `line`, if any. Malformed
/// suppressions (unknown rule, missing justification) yield `Err` with a
/// message for the meta-rule diagnostic.
pub fn parse_allow(line: &Line) -> Option<Result<Allow, String>> {
    // Built with concat! so this file's own source never contains the
    // contiguous marker and cannot self-flag.
    let marker = concat!("// ", "tidy-allow:");
    let raw = line.raw.as_str();
    let pos = raw.find(marker)?;
    // The marker must open the line's (only) comment: a doc comment or an
    // earlier `//` before it means this is prose, not a suppression.
    if raw[..pos].contains("//") {
        return None;
    }
    let rest = raw[pos + marker.len()..].trim_start();
    let id_end = rest
        .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
        .unwrap_or(rest.len());
    let id = &rest[..id_end];
    let rule = match Rule::from_id(id) {
        Some(r) => r,
        None => {
            return Some(Err(format!(
                "unknown rule id `{id}` in tidy-allow (expected one of determinism, \
                 nan-safety, panic-freedom, unit-safety, hygiene, trace-discipline, \
                 fingerprint-coverage, lock-discipline, nondet-iteration, \
                 step-loop-alloc)"
            )))
        }
    };
    let justification = rest[id_end..]
        .trim_start_matches([' ', '\u{2014}', '-', ':'])
        .trim();
    if justification.len() < 8 {
        return Some(Err(format!(
            "tidy-allow for `{id}` requires a justification: `tidy-allow: {id} — why this \
             is sound`"
        )));
    }
    let own_line = !line.code.trim().is_empty();
    Some(Ok(Allow { rule, own_line }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn all_rules() -> RuleSet {
        RuleSet {
            determinism: true,
            nan_safety: true,
            panic_freedom: true,
            unit_safety: true,
            hygiene: true,
            trace_discipline: true,
            ..RuleSet::default()
        }
    }

    #[test]
    fn unordered_types_fire_unless_exempted() {
        let f = lex("fn lib() { let m: HashMap<u32, u32> = HashMap::new(); }\n");
        assert!(!check_lines(&f, all_rules(), false).is_empty());
        let exempt = RuleSet {
            allow_unordered_types: true,
            ..all_rules()
        };
        assert!(check_lines(&f, exempt, false).is_empty());
        // The exemption is narrow: thread_rng still fires there.
        let f = lex("fn lib() { let r = thread_rng(); }\n");
        assert!(!check_lines(&f, exempt, false).is_empty());
    }

    #[test]
    fn wall_clock_fires_unless_exempted() {
        let f = lex("fn lib() { let t = Instant::now(); }\n");
        let hits = check_lines(&f, all_rules(), false);
        assert!(
            hits.iter()
                .any(|(_, r, m)| *r == Rule::Determinism && m.contains("wall-clock")),
            "Instant::now must be a determinism finding; got {hits:?}"
        );
        let exempt = RuleSet {
            allow_wall_clock: true,
            ..all_rules()
        };
        assert!(check_lines(&f, exempt, false).is_empty());
        // The exemption is narrow: thread patterns still fire there.
        let f = lex("fn lib() { std::thread::spawn(|| {}); }\n");
        assert!(!check_lines(&f, exempt, false).is_empty());
    }

    #[test]
    fn catch_unwind_fires_unless_exempted() {
        let f = lex("fn lib() { let r = std::panic::catch_unwind(job); }\n");
        let hits = check_lines(&f, all_rules(), false);
        assert!(
            hits.iter()
                .any(|(_, r, m)| *r == Rule::PanicFreedom && m.contains("catch_unwind")),
            "catch_unwind must be a panic-freedom finding; got {hits:?}"
        );
        let exempt = RuleSet {
            allow_catch_unwind: true,
            ..all_rules()
        };
        assert!(check_lines(&f, exempt, false).is_empty());
        // The exemption is narrow: .unwrap() still fires there.
        let f = lex("fn lib() { x.unwrap(); }\n");
        assert!(!check_lines(&f, exempt, false).is_empty());
    }

    #[test]
    fn float_eq_detection() {
        assert_eq!(float_literal_comparisons("if x == 0.0 {").len(), 1);
        assert_eq!(float_literal_comparisons("if x != 1.5 {").len(), 1);
        assert_eq!(float_literal_comparisons("if x <= 0.0 {").len(), 0);
        assert_eq!(float_literal_comparisons("if x >= 2.0 {").len(), 0);
        assert_eq!(float_literal_comparisons("for i in 0..=n {").len(), 0);
        assert_eq!(float_literal_comparisons("if n == 3 {").len(), 0);
        assert_eq!(float_literal_comparisons("x == f64::NAN").len(), 1);
    }

    #[test]
    fn unit_literal_tokenization() {
        assert!(contains_token("x * 1000.0", "1000.0"));
        assert!(!contains_token("x * 21000.0", "1000.0"));
        assert!(!contains_token("x * 1000.05", "1000.0"));
        assert!(contains_token("(1e6)", "1e6"));
        assert!(!contains_token("2.1e6", "1e6"));
    }

    #[test]
    fn patterns_skip_test_lines_and_strings() {
        let src = "fn lib() { let s = \"thread_rng\"; }\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let f = lex(src);
        assert!(check_lines(&f, all_rules(), false).is_empty());
    }

    #[test]
    fn thread_patterns_fire_unless_exempted() {
        let f = lex("fn lib() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n");
        let hits = check_lines(&f, all_rules(), false);
        assert!(
            hits.iter()
                .any(|(_, r, m)| *r == Rule::Determinism && m.contains("worker pool")),
            "thread use must be a determinism finding; got {hits:?}"
        );
        // One line, one finding — overlapping patterns don't stack.
        assert_eq!(
            hits.iter()
                .filter(|(_, _, m)| m.contains("worker pool"))
                .count(),
            1
        );
        let exempt = RuleSet {
            allow_threads: true,
            ..all_rules()
        };
        assert!(check_lines(&f, exempt, false).is_empty());
    }

    #[test]
    fn patterns_fire_on_real_code() {
        let f = lex("fn lib() { let m: HashMap<u32, u32> = HashMap::new(); }\n");
        let hits = check_lines(&f, all_rules(), false);
        assert!(hits
            .iter()
            .any(|(l, r, _)| *l == 1 && *r == Rule::Determinism));
    }

    #[test]
    fn trace_construction_is_flagged_outside_test_code() {
        let f = lex("fn lib() { let t = RunTrace { link, senders, seed: 0 }; }\n");
        let hits = check_lines(&f, all_rules(), false);
        assert!(
            hits.iter().any(|(_, r, _)| *r == Rule::TraceDiscipline),
            "direct construction must fire trace-discipline; got {hits:?}"
        );
        // Test code may hand-build traces freely.
        let f = lex("#[cfg(test)]\nmod tests {\n    fn t() { let t = RunTrace { seed: 0 }; }\n}\n");
        assert!(check_lines(&f, all_rules(), false).is_empty());
        // The type in signatures / paths is fine; only literals fire.
        let f = lex("fn lib(t: &RunTrace) -> RunTrace { t.clone() }\n");
        assert!(check_lines(&f, all_rules(), false).is_empty());
        // A path-qualified literal is still a literal.
        let f = lex("fn lib() { let t = axcc_core::RunTrace { seed: 0 }; }\n");
        assert!(check_lines(&f, all_rules(), false)
            .iter()
            .any(|(_, r, _)| *r == Rule::TraceDiscipline));
        // …while a path-qualified impl header is not.
        let f = lex("impl Summarize for axcc_core::RunTrace {\n");
        assert!(check_lines(&f, all_rules(), false).is_empty());
    }

    #[test]
    fn allow_requires_justification() {
        let f = lex("x.unwrap(); // tidy-allow: panic-freedom\n");
        assert!(matches!(parse_allow(&f.lines[0]), Some(Err(_))));
        let f = lex("x.unwrap(); // tidy-allow: panic-freedom — invariant upheld by caller\n");
        match parse_allow(&f.lines[0]) {
            Some(Ok(a)) => {
                assert_eq!(a.rule, Rule::PanicFreedom);
                assert!(a.own_line);
            }
            other => panic!("expected Ok(Allow), got {other:?}"),
        }
    }

    #[test]
    fn allow_unknown_rule_is_error() {
        let f = lex("// tidy-allow: no-such-rule — because reasons here\n");
        assert!(matches!(parse_allow(&f.lines[0]), Some(Err(_))));
    }

    fn step_rules() -> RuleSet {
        RuleSet {
            step_alloc: true,
            ..RuleSet::default()
        }
    }

    #[test]
    fn step_loop_alloc_fires_inside_the_loop_body() {
        let src = "\
fn engine() {
    for t in 0..steps {
        let loads = vec![0.0; nl];
        trace.push(loads[0]);
    }
}
";
        let hits = check_lines(&lex(src), step_rules(), false);
        assert_eq!(
            hits.iter()
                .filter(|(_, r, _)| *r == Rule::StepAlloc)
                .count(),
            2,
            "vec! and .push( in the body must both fire; got {hits:?}"
        );
        assert!(hits.iter().any(|(l, _, _)| *l == 3));
        assert!(hits.iter().any(|(l, _, _)| *l == 4));
    }

    #[test]
    fn step_loop_alloc_ignores_code_outside_the_loop() {
        let src = "\
fn engine() {
    let mut loads = vec![0.0; nl];
    for t in 0..steps {
        loads.fill(0.0);
    }
    loads.push(1.0);
}
";
        assert!(check_lines(&lex(src), step_rules(), false).is_empty());
    }

    #[test]
    fn step_loop_alloc_tracks_nested_braces() {
        let src = "\
fn engine() {
    for t in 0..steps {
        if dense {
            let v = x.to_vec();
        }
    }
    let after = y.to_vec();
}
";
        let hits = check_lines(&lex(src), step_rules(), false);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 4);
    }

    #[test]
    fn step_loop_alloc_covers_step_helpers() {
        // The body of a `fn step_…` is step-loop code wherever it sits,
        // its signature may span lines, and a `for t in …` nested in it
        // does not end the scope early.
        let src = "\
impl Run {
    fn step_senders(
        &mut self,
        active: &[usize],
    ) -> Result<(), Error> {
        for t in 0..1 {
            self.log.push(t);
        }
        self.log.push(0);
        Ok(())
    }
    fn step_count(&self) -> usize;
    fn report(&self) -> Vec<f64> {
        self.log.to_vec()
    }
}
";
        let hits = check_lines(&lex(src), step_rules(), false);
        let lines: Vec<usize> = hits.iter().map(|(l, _, _)| *l).collect();
        assert_eq!(lines, [7, 9], "{hits:?}");
    }

    #[test]
    fn step_loop_alloc_skips_other_loop_binders_and_tests() {
        // `for k in …` is not a step loop; test code is exempt wholesale.
        let src = "\
fn replay() {
    for k in 0..n {
        records.push(k);
    }
}
#[cfg(test)]
mod tests {
    fn t() {
        for t in 0..9 {
            v.push(t);
        }
    }
}
";
        assert!(check_lines(&lex(src), step_rules(), false).is_empty());
    }
}
