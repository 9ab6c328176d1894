//! Robustness: the lexer and parser must never panic, whatever the input
//! — errors are always returned as values.

use mujs_syntax::{
    lexer::lex, parse, parse_inline, parse_with, SyntaxError, SyntaxErrorKind, INLINE_NESTING,
    MAX_NESTING,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn lexer_never_panics(src in any::<String>()) {
        let _ = lex(&src);
    }

    #[test]
    fn parser_never_panics(src in any::<String>()) {
        let _ = parse(&src);
    }

    #[test]
    fn parser_never_panics_on_js_like_soup(
        src in "[a-z(){}\\[\\];,.+*/=<>!&|\"' 0-9\n]{0,120}"
    ) {
        let _ = parse(&src);
    }

    #[test]
    fn lexer_spans_cover_input(src in "[a-z +\\-*/();{}]{0,80}") {
        if let Ok(tokens) = lex(&src) {
            for t in &tokens {
                prop_assert!(t.span.start <= t.span.end);
                prop_assert!((t.span.end as usize) <= src.len());
            }
            // Tokens appear in source order.
            for w in tokens.windows(2) {
                prop_assert!(w[0].span.start <= w[1].span.start);
            }
        }
    }
}

fn nested_parens(depth: usize) -> String {
    let mut src = String::from("var x = ");
    for _ in 0..depth {
        src.push('(');
    }
    src.push('1');
    for _ in 0..depth {
        src.push(')');
    }
    src.push(';');
    src
}

/// Runs `f` on a thread with the 2 MiB default stack, whatever
/// `RUST_MIN_STACK` says.
fn on_default_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn_scoped(s, f)
            .expect("spawn")
            .join()
            .expect("no panic")
    })
}

fn parse_err(src: &str) -> Option<SyntaxError> {
    parse_with(src, |_| ()).err()
}

#[test]
fn parser_handles_pathological_nesting() {
    // One paren level costs up to two recursion-guard entries, and the
    // enclosing statement and outermost expression cost a few more, so the
    // guaranteed depth is a little under MAX_NESTING / 2. MAX_NESTING is
    // sized for the dedicated parser stack, which `parse_with` moves to
    // once the inline guard trips (plain `parse` on a 2 MiB thread would
    // overflow before the guard fires).
    let guaranteed = (MAX_NESTING / 2 - 4) as usize;
    assert_eq!(
        on_default_stack(|| parse_err(&nested_parens(guaranteed))),
        None
    );
}

#[test]
fn parser_rejects_excessive_nesting_cleanly() {
    // Beyond the guard limit the parser must return a structured error —
    // never abort the process with a stack overflow.
    for depth in [MAX_NESTING as usize, 5_000] {
        let err = on_default_stack(|| parse_err(&nested_parens(depth))).expect("depth limited");
        assert_eq!(err.kind, SyntaxErrorKind::NestingTooDeep);
    }
}

#[test]
fn inline_guard_rejects_what_the_big_stack_parses() {
    // One paren level is two guard entries; the statement and the
    // initializer add three.
    let inline_max = ((INLINE_NESTING - 3) / 2) as usize;
    assert!(parse_inline(&nested_parens(inline_max)).is_ok());
    let err = parse_inline(&nested_parens(inline_max + 1)).expect_err("past the inline guard");
    assert_eq!(err.kind, SyntaxErrorKind::NestingTooDeep);
    assert!(parse(&nested_parens(inline_max + 1)).is_ok());
}

#[test]
fn shallow_nesting_still_parses_on_the_caller_stack() {
    // Plain `parse` keeps working for the shallow inputs it is guaranteed
    // for (test snippets).
    assert!(parse(&nested_parens(40)).is_ok());
}

#[test]
fn parser_rejects_garbage_with_errors_not_panics() {
    for src in [
        "var",
        "var = 5",
        "if (",
        "function (",
        "o.",
        "1 +",
        "{ a: }",
        "for (;;",
        "try { }",
        "switch (x) { foo }",
        "x ? y",
        "\"unterminated",
        "/* unterminated",
        "0x",
        "1e",
        "@",
        "###",
    ] {
        assert!(parse(src).is_err(), "{src:?} should be an error");
    }
}

#[test]
fn deeply_nested_statements_parse() {
    let mut src = String::new();
    for i in 0..60 {
        src.push_str(&format!("if (x{i}) {{ "));
    }
    src.push_str("y = 1;");
    for _ in 0..60 {
        src.push_str(" }");
    }
    assert!(parse(&src).is_ok());
}
