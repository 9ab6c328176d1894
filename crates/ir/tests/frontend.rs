//! The frontend entry point `mujs_syntax::parse_with`: parsing and
//! lowering run on the caller's stack under the `INLINE_NESTING` guard and
//! move to a big-stack thread under `MAX_NESTING` only when that guard
//! trips. Either way the result must be the one a big-stack parse gives.

use mujs_ir::lower::lower_program;
use mujs_ir::pretty::print_program;
use mujs_syntax::{
    parse, parse_inline, parse_with, SyntaxError, SyntaxErrorKind, MAX_NESTING, PARSER_STACK_BYTES,
};

/// Nesting shapes: `(open, innermost, close)` repeated `k` times, as an
/// initializer (`expr`) or as a statement.
const SHAPES: &[(&str, &str, &str, bool)] = &[
    ("(", "1", ")", true),
    ("!", "1", "", true),
    ("[", "1", "]", true),
    ("f(", "1", ")", true),
    ("a[", "1", "]", true),
    ("{a:", "1", "}", true),
    ("new ", "F", "", true),
    ("a = ", "1", "", true),
    ("c ? 1 : ", "1", "", true),
    ("a && (", "1", ")", true),
    ("(function(){ return ", "1", "; })", true),
    ("{ ", "x = 1;", " }", false),
    ("if (x) ", "y = 1;", "", false),
    ("if (x) { ", "y = 1;", " } else { z = 2; }", false),
    ("while (x) ", "y = 1;", "", false),
    ("for (;;) ", "y = 1;", "", false),
    ("for (var i = 0; i < n; i++) ", "y = 1;", "", false),
    ("for (k in o) ", "y = 1;", "", false),
    (
        "try { ",
        "y = 1;",
        " } catch (e) { z = e; } finally { w = 1; }",
        false,
    ),
    ("function f() { var v = 1; ", "v = 2;", " }", false),
    ("switch (x) { case 1: ", "y = 1;", " }", false),
];

fn nest(shape: (&str, &str, &str, bool), k: usize) -> String {
    let (open, mid, close, is_expr) = shape;
    let mut src = String::from(if is_expr { "var x = " } else { "" });
    for _ in 0..k {
        src.push_str(open);
    }
    src.push_str(mid);
    for _ in 0..k {
        src.push_str(close);
    }
    if is_expr {
        src.push(';');
    }
    src
}

/// The largest `k` whose nesting still parses under the inline guard.
fn inline_bound(shape: (&str, &str, &str, bool)) -> usize {
    let mut k = 0;
    while parse_inline(&nest(shape, k + 1)).is_ok() {
        k += 1;
    }
    k
}

/// Runs `f` on a thread with `bytes` of stack.
fn on_stack<T: Send>(bytes: usize, f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(bytes)
            .spawn_scoped(s, f)
            .expect("spawn")
            .join()
            .expect("no panic")
    })
}

const DEFAULT_STACK: usize = 2 << 20;

/// The entry point, called from a default-sized thread.
fn via_entry_point(src: &str) -> Result<String, SyntaxError> {
    on_stack(DEFAULT_STACK, || {
        parse_with(src, |ast| print_program(&lower_program(ast)))
    })
}

/// The reference: parse under `MAX_NESTING` and lower on a big stack.
fn via_big_stack(src: &str) -> Result<String, SyntaxError> {
    on_stack(PARSER_STACK_BYTES, || {
        parse(src).map(|ast| print_program(&lower_program(&ast)))
    })
}

#[test]
fn inline_and_fallback_agree_with_the_big_stack_at_the_boundary() {
    for &shape in SHAPES {
        let k = inline_bound(shape);
        assert!(k >= 12, "{shape:?}: inline bound {k} is too shallow");
        let past = nest(shape, k + 1);
        assert_eq!(
            parse_inline(&past).map(|_| ()).unwrap_err().kind,
            SyntaxErrorKind::NestingTooDeep,
            "{shape:?}"
        );
        for src in [nest(shape, k), past] {
            let want = via_big_stack(&src);
            assert!(want.is_ok(), "{src}");
            assert_eq!(via_entry_point(&src), want, "{src}");
        }
    }
}

#[test]
fn errors_agree_with_the_big_stack_on_both_sides_of_the_boundary() {
    for &shape in SHAPES {
        let k = inline_bound(shape);
        for depth in [k, k + 1] {
            let deep = nest(shape, depth);
            let cut = deep.len() / 2;
            let srcs = [
                // An error after the deep part.
                format!("{deep}\nvar = 1;"),
                // An error inside the deep part: one paren too many.
                format!("{} ) {}", &deep[..cut], &deep[cut..]),
                // Truncated input.
                deep[..deep.len() - 2].to_owned(),
            ];
            for src in srcs {
                let want = via_big_stack(&src);
                assert!(want.is_err(), "{src}");
                assert_eq!(via_entry_point(&src), want, "{src}");
            }
        }
    }
}

#[test]
fn past_max_nesting_the_entry_point_reports_the_big_stack_error() {
    // Expression shapes only: in a debug build, statement chains (`if`,
    // `for`, `try`, ...) nested to `MAX_NESTING` outgrow even
    // `PARSER_STACK_BYTES` before the guard fires. Release builds parse
    // them to the guard within a quarter of that stack.
    for &shape in SHAPES.iter().filter(|s| s.3) {
        let src = nest(shape, MAX_NESTING as usize);
        let want = via_big_stack(&src);
        assert_eq!(
            want.as_ref().unwrap_err().kind,
            SyntaxErrorKind::NestingTooDeep
        );
        assert_eq!(via_entry_point(&src), want, "{shape:?}");
    }
}

/// What justifies `INLINE_NESTING`: input at the inline bound, in every
/// shape, parses and lowers on a 2 MiB thread. Only a debug build (large
/// unoptimized frames) makes this a real check.
#[test]
fn input_at_the_inline_bound_parses_and_lowers_on_a_default_stack() {
    for &shape in SHAPES {
        let src = nest(shape, inline_bound(shape));
        let stmts = on_stack(DEFAULT_STACK, || {
            let ast = parse_inline(&src).expect("within the inline guard");
            let prog = lower_program(&ast);
            drop(ast);
            prog.funcs.iter().map(|f| f.body.len()).sum::<usize>()
        });
        assert!(stmts > 0, "{shape:?}");
    }
}
