//! The file-level rule catalog: determinism, panic-freedom, unguarded
//! indexing, and `unsafe`-requires-`SAFETY`-comment.
//!
//! Rules operate on the token stream of a [`SourceFile`]; comments and
//! string literals can never fire a rule. Each rule self-scopes by path
//! (see the predicates below) and skips `#[cfg(test)]` / `#[test]`
//! regions; a `// lint:allow(rule, reason)` on or above the line
//! suppresses the finding.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;
use crate::{Diagnostic, RuleId};

/// Files whose decisions must be bit-reproducible: the planner
/// strategies, the sweep/dynamic engines, and every adversary module.
/// (Byte-identical parallel sweeps and packed ≡ scalar parity are
/// acceptance claims of PRs 2/4/5.)
fn determinism_scope(path: &str) -> bool {
    const CORE_DECISION_FILES: [&str; 11] = [
        "adaptive.rs",
        "baselines.rs",
        "combo.rs",
        "domains.rs",
        "dynamic.rs",
        "engine.rs",
        "random.rs",
        "simple.rs",
        "strategy.rs",
        "sweep.rs",
        "topology.rs",
    ];
    path.starts_with("crates/adversary/src/")
        || CORE_DECISION_FILES
            .iter()
            .any(|f| path == format!("crates/core/src/{f}"))
}

/// Non-test library code that sits in or behind the serving loop: the
/// `core`, `adversary`, `sim` and `service` crates' `src/` trees, plus
/// `verify`, which re-checks every certificate the adversary emits (no
/// `src/bin/`).
fn panic_scope(path: &str) -> bool {
    [
        "crates/core/src/",
        "crates/adversary/src/",
        "crates/sim/src/",
        "crates/service/src/",
        "crates/verify/src/",
    ]
    .iter()
    .any(|p| path.starts_with(p))
        && !path.contains("/bin/")
}

/// The only modules allowed to touch threading/atomics primitives: the
/// sweep fan-out (the one sanctioned `std::thread::scope` home in
/// `wcp-core`), the adversary's shared-incumbent pool, and the serving
/// layer's repair-thread runtime. Everything else must go through
/// their APIs, so the "bit-identical at every thread count" contract
/// has exactly three rooms to audit.
fn thread_sanctioned(path: &str) -> bool {
    path == "crates/core/src/sweep.rs"
        || path == "crates/adversary/src/pool.rs"
        || path == "crates/service/src/runtime.rs"
}

/// Keywords that may legitimately precede a `[` without forming an
/// index expression (slice patterns, `for x in [..]`, …).
const NON_INDEX_KEYWORDS: [&str; 22] = [
    "as", "box", "break", "const", "dyn", "else", "enum", "fn", "for", "if", "impl", "in", "let",
    "loop", "match", "mod", "move", "mut", "ref", "return", "static", "while",
];

/// Identifiers banned outright in determinism scope.
const NONDETERMINISTIC_IDENTS: [(&str, &str); 4] = [
    (
        "HashMap",
        "iteration order is nondeterministic; use BTreeMap or a sorted Vec \
         (byte-identical sweeps depend on it)",
    ),
    (
        "HashSet",
        "iteration order is nondeterministic; use BTreeSet or a sorted Vec \
         (byte-identical sweeps depend on it)",
    ),
    (
        "thread_rng",
        "OS-seeded RNG breaks reproducibility; thread a seeded StdRng instead",
    ),
    (
        "from_entropy",
        "OS-seeded RNG breaks reproducibility; seed from wcp_sim::seed_for instead",
    ),
];

/// Methods that panic on the empty/err case, banned in panic scope.
const PANICKING_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];

/// Macros that abort, banned in panic scope.
const PANICKING_MACROS: [&str; 3] = ["panic", "todo", "unimplemented"];

/// Runs every file rule on `sf`. With `scoped`, rules apply only inside
/// the paths they govern; without, all of them run (fixture mode).
#[must_use]
pub fn check_file(sf: &SourceFile, scoped: bool) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let in_determinism = !scoped || determinism_scope(&sf.path);
    let in_panic = !scoped || panic_scope(&sf.path);
    let in_thread = !scoped || !thread_sanctioned(&sf.path);
    for (pos, &ti) in sf.significant.iter().enumerate() {
        let tok = &sf.tokens[ti];
        if sf.in_test_code(tok.start) {
            continue;
        }
        if in_determinism {
            determinism_at(sf, pos, tok, &mut diags);
        }
        if in_panic {
            panic_at(sf, pos, tok, &mut diags);
            index_at(sf, pos, tok, &mut diags);
        }
        if in_thread {
            thread_discipline_at(sf, pos, tok, &mut diags);
        }
        unsafe_at(sf, pos, tok, &mut diags);
    }
    diags.retain(|d| !sf.allowed(d.rule, d.line));
    diags
}

fn push(sf: &SourceFile, tok: &Token, rule: RuleId, message: String, out: &mut Vec<Diagnostic>) {
    out.push(Diagnostic {
        file: sf.path.clone(),
        line: sf.line_of(tok.start),
        rule,
        message,
    });
}

/// Determinism: banned idents, plus `Instant::now` / `SystemTime::now`
/// call sites (the bare type in a `use` is fine — only taking a clock
/// reading is a decision-path hazard).
fn determinism_at(sf: &SourceFile, pos: usize, tok: &Token, out: &mut Vec<Diagnostic>) {
    if tok.kind != TokenKind::Ident {
        return;
    }
    let text = tok.text(&sf.text);
    if let Some((ident, why)) = NONDETERMINISTIC_IDENTS.iter().find(|(id, _)| *id == text) {
        push(
            sf,
            tok,
            RuleId::Determinism,
            format!("`{ident}`: {why}"),
            out,
        );
        return;
    }
    if matches!(text, "Instant" | "SystemTime")
        && sf.next_significant(pos, 1).map(|t| t.text(&sf.text)) == Some(":")
        && sf.next_significant(pos, 2).map(|t| t.text(&sf.text)) == Some(":")
        && sf.next_significant(pos, 3).map(|t| t.text(&sf.text)) == Some("now")
    {
        push(
            sf,
            tok,
            RuleId::Determinism,
            format!(
                "`{text}::now()` reads the wall clock in a decision path; \
                 results must be a pure function of the inputs and seed"
            ),
            out,
        );
    }
}

/// Panic-freedom: `.unwrap()` / `.expect(…)` (and their `_err` twins)
/// and `panic!` / `todo!` / `unimplemented!` in library code.
fn panic_at(sf: &SourceFile, pos: usize, tok: &Token, out: &mut Vec<Diagnostic>) {
    if tok.kind != TokenKind::Ident {
        return;
    }
    let text = tok.text(&sf.text);
    if PANICKING_METHODS.contains(&text)
        && sf.prev_significant(pos).map(|t| t.text(&sf.text)) == Some(".")
        && sf.next_significant(pos, 1).map(|t| t.text(&sf.text)) == Some("(")
    {
        push(
            sf,
            tok,
            RuleId::Panic,
            format!(
                "`.{text}()` panics in library code that will sit behind the \
                 serving loop; return a Result (e.g. wcp_core::error) instead"
            ),
            out,
        );
    } else if PANICKING_MACROS.contains(&text)
        && sf.next_significant(pos, 1).map(|t| t.text(&sf.text)) == Some("!")
    {
        push(
            sf,
            tok,
            RuleId::Panic,
            format!("`{text}!` aborts library code; return an error instead"),
            out,
        );
    }
}

/// Unguarded indexing: a `[` in expression position (directly after an
/// identifier, `)`, `]` or `?`) panics on out-of-bounds; prefer `.get`
/// or prove the bound and `lint:allow(index-guard, why)`.
fn index_at(sf: &SourceFile, pos: usize, tok: &Token, out: &mut Vec<Diagnostic>) {
    if tok.kind != TokenKind::Punct || tok.text(&sf.text) != "[" {
        return;
    }
    let Some(prev) = sf.prev_significant(pos) else {
        return;
    };
    let indexes = match prev.kind {
        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text(&sf.text)),
        TokenKind::Punct => matches!(prev.text(&sf.text), ")" | "]" | "?"),
        _ => false,
    };
    if indexes {
        push(
            sf,
            tok,
            RuleId::Index,
            "slice index panics on out-of-bounds; use .get()/.get_mut() or guard \
             the bound and lint:allow(index-guard, why)"
                .to_string(),
            out,
        );
    }
}

/// Thread discipline: `thread::spawn` / `thread::scope` call paths and
/// `Ordering::Relaxed` belong to the sanctioned pool modules only (see
/// [`thread_sanctioned`]); ad-hoc threading elsewhere silently forks
/// the determinism contract.
fn thread_discipline_at(sf: &SourceFile, pos: usize, tok: &Token, out: &mut Vec<Diagnostic>) {
    if tok.kind != TokenKind::Ident {
        return;
    }
    let text = tok.text(&sf.text);
    let segment = |head: &str, tail: &str| {
        text == head
            && sf.next_significant(pos, 1).map(|t| t.text(&sf.text)) == Some(":")
            && sf.next_significant(pos, 2).map(|t| t.text(&sf.text)) == Some(":")
            && sf.next_significant(pos, 3).map(|t| t.text(&sf.text)) == Some(tail)
    };
    for prim in ["spawn", "scope"] {
        if segment("thread", prim) {
            push(
                sf,
                tok,
                RuleId::ThreadDiscipline,
                format!(
                    "`thread::{prim}` outside the sanctioned pools \
                     (wcp_core::sweep, wcp_adversary::pool, \
                     wcp_service::runtime); fan work out through their \
                     deterministic APIs instead"
                ),
                out,
            );
            return;
        }
    }
    if segment("Ordering", "Relaxed") {
        push(
            sf,
            tok,
            RuleId::ThreadDiscipline,
            "`Ordering::Relaxed` outside the sanctioned pools \
             (wcp_core::sweep, wcp_adversary::pool, wcp_service::runtime); \
             route shared state through SharedBound or the sweep cursor"
                .to_string(),
            out,
        );
    }
}

/// `unsafe` requires a `// SAFETY:` comment within the three preceding
/// lines (pre-wired for the SIMD kernel; every crate currently
/// `#![forbid(unsafe_code)]`s, so this fires only where that is lifted).
fn unsafe_at(sf: &SourceFile, pos: usize, tok: &Token, out: &mut Vec<Diagnostic>) {
    if tok.kind != TokenKind::Ident || tok.text(&sf.text) != "unsafe" {
        return;
    }
    let line = sf.line_of(tok.start);
    let justified = sf.tokens[..sf.significant[pos]].iter().rev().any(|t| {
        matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
            && line.saturating_sub(sf.line_of(t.end)) <= 3
            && t.text(&sf.text).contains("SAFETY:")
    });
    if !justified {
        push(
            sf,
            tok,
            RuleId::UnsafeComment,
            "`unsafe` without a `// SAFETY:` comment in the 3 preceding lines \
             documenting why the contract holds"
                .to_string(),
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(path: &str, src: &str) -> Vec<(RuleId, u32)> {
        let sf = SourceFile::parse(path, src);
        check_file(&sf, true)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    const SCOPED: &str = "crates/core/src/sweep.rs";

    #[test]
    fn hashmap_fires_only_in_scope() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(diags(SCOPED, src), vec![(RuleId::Determinism, 1)]);
        assert_eq!(diags("crates/sim/src/json.rs", src), vec![]);
    }

    #[test]
    fn clock_reads_fire_but_bare_type_mention_does_not() {
        assert_eq!(
            diags(SCOPED, "let t = Instant::now();\n"),
            vec![(RuleId::Determinism, 1)]
        );
        assert_eq!(diags(SCOPED, "use std::time::Instant;\n"), vec![]);
        assert_eq!(
            diags(SCOPED, "SystemTime::now()"),
            vec![(RuleId::Determinism, 1)]
        );
    }

    #[test]
    fn unwrap_and_macros_fire_in_library_code() {
        let src = "fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\nfn g() { panic!(\"x\") }\n";
        for path in [
            "crates/sim/src/json.rs",
            "crates/service/src/lib.rs",
            "crates/verify/src/lib.rs",
        ] {
            assert_eq!(
                diags(path, src),
                vec![(RuleId::Panic, 2), (RuleId::Panic, 4)],
                "{path}"
            );
        }
        // The serving crate's threading room is in scope for both rules.
        assert_eq!(
            diags("crates/service/src/runtime.rs", "let x = pins[at];\n"),
            vec![(RuleId::Index, 1)]
        );
        assert_eq!(diags("crates/bench/src/lib.rs", src), vec![]);
    }

    #[test]
    fn unwrap_or_and_catch_unwind_do_not_fire() {
        let src = "let a = v.unwrap_or(0);\nstd::panic::catch_unwind(f);\nlet w = x.expect_err;\n";
        assert_eq!(diags("crates/sim/src/json.rs", src), vec![]);
    }

    #[test]
    fn test_code_and_bins_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t() { v.unwrap(); }\n}\n";
        assert_eq!(diags("crates/core/src/engine.rs", src), vec![]);
        assert_eq!(
            diags("crates/core/src/bin/tool.rs", "fn f() { v.unwrap(); }"),
            vec![]
        );
    }

    #[test]
    fn indexing_fires_but_patterns_and_macros_do_not() {
        assert_eq!(
            diags("crates/core/src/engine.rs", "let x = loads[i];\n"),
            vec![(RuleId::Index, 1)]
        );
        let benign = "let [a, b] = pair;\nlet v = vec![0; n];\n#[derive(Debug)]\nlet t: [u8; 4] = x;\nfor i in [1, 2] {}\n";
        assert_eq!(diags("crates/core/src/engine.rs", benign), vec![]);
    }

    #[test]
    fn chained_index_after_call_fires() {
        assert_eq!(
            diags("crates/core/src/engine.rs", "f()[0]; m[0][1];\n"),
            vec![(RuleId::Index, 1), (RuleId::Index, 1), (RuleId::Index, 1)]
        );
    }

    #[test]
    fn unsafe_requires_nearby_safety_comment() {
        let bare = "fn f() { unsafe { g() } }\n";
        assert_eq!(
            diags("crates/gf/src/field.rs", bare),
            vec![(RuleId::UnsafeComment, 1)]
        );
        let justified = "// SAFETY: g has no preconditions.\nfn f() { unsafe { g() } }\n";
        assert_eq!(diags("crates/gf/src/field.rs", justified), vec![]);
        let stale = "// SAFETY: too far away.\n\n\n\n\nfn f() { unsafe { g() } }\n";
        assert_eq!(
            diags("crates/gf/src/field.rs", stale),
            vec![(RuleId::UnsafeComment, 6)]
        );
    }

    #[test]
    fn thread_primitives_fire_outside_the_sanctioned_pools() {
        let spawn = "let h = std::thread::spawn(move || work());\n";
        assert_eq!(
            diags("crates/adversary/src/parallel.rs", spawn),
            vec![(RuleId::ThreadDiscipline, 1)]
        );
        let scope = "thread::scope(|s| { s.spawn(|| work()); });\n";
        assert_eq!(
            diags("crates/experiments/src/bin/churn.rs", scope),
            vec![(RuleId::ThreadDiscipline, 1)]
        );
        let relaxed = "let v = cell.load(Ordering::Relaxed);\n";
        assert_eq!(
            diags("crates/sim/src/metrics.rs", relaxed),
            vec![(RuleId::ThreadDiscipline, 1)]
        );
    }

    #[test]
    fn sanctioned_pools_and_stricter_orderings_are_exempt() {
        let both = "std::thread::scope(|s| cursor.fetch_add(1, Ordering::Relaxed));\n";
        assert_eq!(diags("crates/core/src/sweep.rs", both), vec![]);
        assert_eq!(diags("crates/adversary/src/pool.rs", both), vec![]);
        assert_eq!(diags("crates/service/src/runtime.rs", both), vec![]);
        // SeqCst/Acquire are not the footgun this rule hunts, and mere
        // mentions in comments/strings never fire.
        let benign = "let v = cell.load(Ordering::SeqCst);\n// thread::spawn Ordering::Relaxed\n";
        assert_eq!(diags("crates/sim/src/metrics.rs", benign), vec![]);
    }

    #[test]
    fn allow_suppresses_exactly_its_rule() {
        let src = "let t = Instant::now(); // lint:allow(determinism, telemetry only)\n";
        assert_eq!(diags(SCOPED, src), vec![]);
        let wrong = "let t = Instant::now(); // lint:allow(panic, wrong rule)\n";
        assert_eq!(diags(SCOPED, wrong), vec![(RuleId::Determinism, 1)]);
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src = "// HashMap unwrap() panic!\nlet s = \"Instant::now() HashSet\";\n";
        assert_eq!(diags(SCOPED, src), vec![]);
    }

    #[test]
    fn unscoped_mode_runs_everything_anywhere() {
        let sf = SourceFile::parse("fixtures/x.rs", "let m: HashMap<u8, u8> = x.unwrap();\n");
        let rules: Vec<RuleId> = check_file(&sf, false).into_iter().map(|d| d.rule).collect();
        assert!(rules.contains(&RuleId::Determinism));
        assert!(rules.contains(&RuleId::Panic));
    }
}
