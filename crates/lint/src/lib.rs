//! `wcp-lint`: project-specific static analysis for the worst-case
//! placement workspace, modeled on rustc's in-tree `tidy`.
//!
//! The repo's headline claims — byte-identical parallel sweeps,
//! decision-for-decision packed ≡ scalar adversary parity, and a serving
//! layer that must not fall over — rest on invariants `rustc` does not
//! check. This crate machine-checks them:
//!
//! * [`RuleId::Determinism`] — no `HashMap`/`HashSet`, `Instant::now`/
//!   `SystemTime::now` or `thread_rng` in planner/sweep/adversary
//!   decision paths;
//! * [`RuleId::Panic`] — no `unwrap`/`expect`/`panic!`/`todo!` in
//!   non-test library code of `core`/`adversary`/`sim`;
//! * [`RuleId::Index`] — no unguarded slice indexing in the same scope;
//! * [`RuleId::UnsafeComment`] — every `unsafe` carries a nearby
//!   `// SAFETY:` comment (pre-wired for the SIMD kernel);
//! * [`RuleId::ThreadDiscipline`] — no `std::thread::spawn`/`scope` or
//!   `Ordering::Relaxed` outside the sanctioned pool modules
//!   (`wcp_core::sweep`, `wcp_adversary::pool`), so the "bit-identical
//!   at every thread count" contract has exactly two rooms to audit;
//! * [`RuleId::Layering`] — the crate DAG has no cycles or upward edges;
//! * [`RuleId::BenchSchema`] — committed `BENCH_*.json` snapshots parse
//!   as the one `wcp_sim::bench::BenchSnapshot` shape the regression
//!   gate reads, so a malformed baseline cannot silently disable the 25%
//!   gates.
//!
//! Violations diff against a committed `lint_baseline.txt`: legacy debt
//! is tracked per `(rule, file)` and burned down, while any *new*
//! violation — or a stale baseline entry — fails CI. A
//! `// lint:allow(rule, reason)` comment on or above the offending line
//! suppresses a diagnostic deliberately.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod bench_schema;
pub mod layering;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod walk;

use std::fmt;

/// Identifies one rule of the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Nondeterminism in decision paths.
    Determinism,
    /// Panicking constructs in library code.
    Panic,
    /// Unguarded slice/array indexing in library code.
    Index,
    /// `unsafe` without a `// SAFETY:` comment.
    UnsafeComment,
    /// Threading/atomics primitives outside the sanctioned pools.
    ThreadDiscipline,
    /// Crate-layering DAG violations.
    Layering,
    /// Malformed committed benchmark snapshots.
    BenchSchema,
}

impl RuleId {
    /// Every rule, in report order.
    pub const ALL: [RuleId; 7] = [
        RuleId::Determinism,
        RuleId::Panic,
        RuleId::Index,
        RuleId::UnsafeComment,
        RuleId::ThreadDiscipline,
        RuleId::Layering,
        RuleId::BenchSchema,
    ];

    /// The stable id used in reports, baselines and `lint:allow`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::Determinism => "determinism",
            RuleId::Panic => "panic",
            RuleId::Index => "index-guard",
            RuleId::UnsafeComment => "unsafe-comment",
            RuleId::ThreadDiscipline => "thread-discipline",
            RuleId::Layering => "layering",
            RuleId::BenchSchema => "bench-schema",
        }
    }

    /// Parses a stable id back to the rule.
    #[must_use]
    pub fn parse(id: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|r| r.as_str() == id)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: `(file, line, rule-id, message)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The rule that fired.
    pub rule: RuleId,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Lints one Rust source text. With `scoped`, each rule restricts
/// itself to the paths it governs (the tree walk); without, every
/// file rule runs regardless of path (`--check` / fixture mode).
#[must_use]
pub fn lint_source(path: &str, text: &str, scoped: bool) -> Vec<Diagnostic> {
    let sf = source::SourceFile::parse(path, text);
    rules::check_file(&sf, scoped)
}
