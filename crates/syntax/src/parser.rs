//! Recursive-descent parser for the muJS JavaScript subset.
//!
//! Expression parsing uses precedence climbing. Automatic semicolon
//! insertion is implemented in its pragmatic form: a missing `;` is accepted
//! when the next token is preceded by a line terminator, is `}`, or is the
//! end of input. The restricted productions (`return`, `throw`, `break`,
//! `continue`, postfix `++`/`--`) honor line terminators as in ES5.

use crate::ast::*;
use crate::error::{SyntaxError, SyntaxErrorKind};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Keyword as Kw, Punct, Token, TokenKind};
use std::rc::Rc;

/// Parses a complete program under the [`MAX_NESTING`] guard.
///
/// The guard is sized for a thread with [`PARSER_STACK_BYTES`] of stack:
/// on a default 2 MiB thread, deep input can overflow the stack before
/// the guard fires. Untrusted input goes through [`parse_with`] (or, for
/// code loaded while a program runs, [`parse_inline`]).
///
/// # Errors
///
/// Returns the first [`SyntaxError`] encountered.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), mujs_syntax::SyntaxError> {
/// let program = mujs_syntax::parse("function f(x) { return x + 1; } f(41);")?;
/// assert_eq!(program.body.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse(src: &str) -> Result<Program, SyntaxError> {
    parse_nested(src, MAX_NESTING)
}

/// Parses a complete program under the [`INLINE_NESTING`] guard, which
/// any thread's stack can afford: deeper input fails with
/// [`SyntaxErrorKind::NestingTooDeep`]. This is how code loaded by a
/// running program (`eval`) is parsed, on the machine's own stack.
///
/// # Errors
///
/// Returns the first [`SyntaxError`] encountered.
pub fn parse_inline(src: &str) -> Result<Program, SyntaxError> {
    parse_nested(src, INLINE_NESTING)
}

/// The frontend entry point: parses `src` and hands the AST to `f` (the
/// lowering), both on the caller's stack when the input nests no deeper
/// than [`INLINE_NESTING`] allows. Only when that guard trips are both
/// steps redone on a [`with_parser_stack`] thread under [`MAX_NESTING`], so
/// deep input gets exactly the result (or the error) a big-stack parse
/// gives, on any caller stack.
///
/// # Errors
///
/// Returns the first [`SyntaxError`] encountered.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), mujs_syntax::SyntaxError> {
/// let stmts = mujs_syntax::parse_with("var x = 1; x = 2;", |ast| ast.body.len())?;
/// assert_eq!(stmts, 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_with<T, F>(src: &str, f: F) -> Result<T, SyntaxError>
where
    F: FnOnce(&Program) -> T + Send,
{
    match parse_inline(src) {
        Ok(ast) => Ok(f(&ast)),
        Err(e) if e.kind == SyntaxErrorKind::NestingTooDeep => {
            with_parser_stack(|| parse(src).map(|ast| f(&ast)))
        }
        Err(e) => Err(e),
    }
}

fn parse_nested(src: &str, max_nesting: u32) -> Result<Program, SyntaxError> {
    let mut p = Parser::new(lex(src)?, max_nesting);
    let mut body = Vec::new();
    while !p.at_eof() {
        body.push(p.statement()?);
    }
    Ok(Program { body })
}

/// Parses a single expression under the [`MAX_NESTING`] guard (used by
/// tests).
///
/// # Errors
///
/// Returns a [`SyntaxError`] if the input is not exactly one expression.
pub fn parse_expr(src: &str) -> Result<Expr, SyntaxError> {
    let mut p = Parser::new(lex(src)?, MAX_NESTING);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Maximum recursion-guard depth the parser allows. Inputs nested deeper
/// fail cleanly with [`SyntaxErrorKind::NestingTooDeep`] instead of risking
/// a stack overflow. One level of source nesting can consume up to two
/// guard entries (assignment chain + unary chain), so the guaranteed
/// source nesting depth is [`MAX_NESTING`]` / 2`.
///
/// The value is sized for a thread with [`PARSER_STACK_BYTES`] of stack
/// (the worst-case recursive-descent chain costs ~13 KiB per guard entry
/// in debug builds, leaving margin) — not for the 2 MiB default thread
/// stack. [`parse_with`] applies it only after the [`INLINE_NESTING`]
/// guard trips, and then on a [`with_parser_stack`] thread; plain
/// [`parse`] on a default stack is only guaranteed for shallow input.
pub const MAX_NESTING: u32 = 1280;

/// The recursion-guard depth that parsing *and* lowering can afford on
/// any thread, including a default 2 MiB one: [`parse_with`] tries this
/// guard on the caller's stack first, and [`parse_inline`] (eval code)
/// never goes past it.
///
/// The jQuery-like pages need at most 22 guard entries and generated
/// programs at most 13, so real input never leaves the caller's stack.
///
/// Measured stack use (x86_64, rustc 1.95; the smallest thread stack on
/// which input at this bound parses and lowers, over the nesting shapes
/// of `crates/ir/tests/frontend.rs`): 1.26 MiB in a debug build, for 60
/// nested `for (;;)` statements (expression chains need at most
/// 0.56 MiB), and 135 KiB in a release build. That test runs every shape
/// at the bound on a 2 MiB thread; it is what this value rests on.
pub const INLINE_NESTING: u32 = 64;

/// Stack size for threads that run the recursive-descent chain on inputs
/// nested up to [`MAX_NESTING`]: eight times the old 2 MiB sizing, matching
/// the eightfold raise of the nesting guard. [`parse_with`] spawns one only
/// for input nested past [`INLINE_NESTING`]; the `mujs-jobs` workers are
/// spawned with it too.
pub const PARSER_STACK_BYTES: usize = 16 * 1024 * 1024;

/// Runs `f` on a freshly spawned thread with [`PARSER_STACK_BYTES`] of
/// stack and returns its result; panics in `f` resume on the caller.
///
/// The result type is intentionally *not* required to be `Send`: parser
/// and lowering output is threaded with `Rc<str>` interning, and this
/// helper exists precisely to build such a graph on a big stack and hand
/// it back. That transfer is sound because the graph is constructed
/// entirely on the spawned thread from the `Send` captures of `f`, every
/// `Rc` clone lives inside the returned value, and `join` synchronizes the
/// handoff — the graph is moved between threads, never shared. `f` must
/// not stash clones of the result's `Rc`s anywhere that outlives the call
/// (the parser and lowerer keep no such state).
pub fn with_parser_stack<T, F>(f: F) -> T
where
    F: FnOnce() -> T + Send,
{
    // Wholesale-transferred graph; see the invariant above.
    struct Graph<T>(T);
    unsafe impl<T> Send for Graph<T> {}
    std::thread::scope(|s| {
        let handle = std::thread::Builder::new()
            .name("mujs-parser".to_owned())
            .stack_size(PARSER_STACK_BYTES)
            .spawn_scoped(s, || Graph(f()))
            .expect("spawn parser thread");
        match handle.join() {
            Ok(g) => g.0,
            Err(p) => std::panic::resume_unwind(p),
        }
    })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: u32,
    max_nesting: u32,
}

impl Parser {
    fn new(tokens: Vec<Token>, max_nesting: u32) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            max_nesting,
        }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek_at(&self, off: usize) -> &Token {
        let i = (self.pos + off).min(self.tokens.len() - 1);
        &self.tokens[i]
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::Eof)
    }

    /// Consumes the current token (the final `Eof` is never consumed) and
    /// returns its span.
    fn bump(&mut self) -> Span {
        let span = self.tokens[self.pos].span;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        span
    }

    fn at_punct(&self, p: Punct) -> bool {
        matches!(self.peek().kind, TokenKind::Punct(q) if q == p)
    }

    fn at_keyword(&self, k: Kw) -> bool {
        matches!(self.peek().kind, TokenKind::Keyword(q) if q == k)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, k: Kw) -> bool {
        if self.at_keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn unexpected(&self, expected: &str) -> SyntaxError {
        SyntaxError {
            kind: SyntaxErrorKind::UnexpectedToken {
                expected: expected.to_owned(),
                found: self.peek().kind.to_string(),
            },
            span: self.peek().span,
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<Span, SyntaxError> {
        if self.at_punct(p) {
            Ok(self.bump())
        } else {
            Err(self.unexpected(&format!("`{p}`")))
        }
    }

    fn expect_eof(&self) -> Result<(), SyntaxError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.unexpected("end of input"))
        }
    }

    fn ident(&mut self) -> Result<(Rc<str>, Span), SyntaxError> {
        match &self.peek().kind {
            TokenKind::Ident(name) => {
                let name = name.clone();
                Ok((name, self.bump()))
            }
            _ => Err(self.unexpected("identifier")),
        }
    }

    /// Consumes a statement-terminating semicolon, applying automatic
    /// semicolon insertion.
    fn semicolon(&mut self) -> Result<(), SyntaxError> {
        if self.eat_punct(Punct::Semi) {
            return Ok(());
        }
        if self.at_punct(Punct::RBrace) || self.at_eof() || self.peek().newline_before {
            return Ok(());
        }
        Err(self.unexpected("`;`"))
    }

    /// Enters one level of recursive nesting; fails past the guard.
    fn enter_nested(&mut self) -> Result<(), SyntaxError> {
        self.depth += 1;
        if self.depth > self.max_nesting {
            return Err(SyntaxError {
                kind: SyntaxErrorKind::NestingTooDeep,
                span: self.peek().span,
            });
        }
        Ok(())
    }

    // ---------------------------------------------------------------- stmts

    fn statement(&mut self) -> Result<Stmt, SyntaxError> {
        self.enter_nested()?;
        let r = self.statement_unguarded();
        self.depth -= 1;
        r
    }

    fn statement_unguarded(&mut self) -> Result<Stmt, SyntaxError> {
        let start = self.peek().span;
        match &self.peek().kind {
            TokenKind::Punct(Punct::LBrace) => {
                self.bump();
                let mut body = Vec::new();
                while !self.at_punct(Punct::RBrace) {
                    if self.at_eof() {
                        return Err(self.unexpected("`}`"));
                    }
                    body.push(self.statement()?);
                }
                let end = self.bump();
                Ok(Stmt::new(StmtKind::Block(body), start.to(end)))
            }
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Ok(Stmt::new(StmtKind::Empty, start))
            }
            TokenKind::Keyword(Kw::Var) => {
                self.bump();
                let decls = self.var_declarators()?;
                self.semicolon()?;
                Ok(Stmt::new(StmtKind::Var(decls), start))
            }
            TokenKind::Keyword(Kw::Function) => {
                let f = self.function(true)?;
                Ok(Stmt::new(StmtKind::FunctionDecl(Rc::new(f)), start))
            }
            TokenKind::Keyword(Kw::If) => self.if_statement(start),
            TokenKind::Keyword(Kw::While) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.statement()?;
                let span = start.to(body.span);
                Ok(Stmt::new(StmtKind::While(cond, Box::new(body)), span))
            }
            TokenKind::Keyword(Kw::Do) => {
                self.bump();
                let body = self.statement()?;
                if !self.eat_keyword(Kw::While) {
                    return Err(self.unexpected("`while`"));
                }
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                let end = self.expect_punct(Punct::RParen)?;
                self.semicolon()?;
                Ok(Stmt::new(
                    StmtKind::DoWhile(Box::new(body), cond),
                    start.to(end),
                ))
            }
            TokenKind::Keyword(Kw::For) => self.for_statement(start),
            TokenKind::Keyword(Kw::Return) => {
                self.bump();
                let arg = if self.at_punct(Punct::Semi)
                    || self.at_punct(Punct::RBrace)
                    || self.at_eof()
                    || self.peek().newline_before
                {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.semicolon()?;
                Ok(Stmt::new(StmtKind::Return(arg), start))
            }
            TokenKind::Keyword(Kw::Break) => {
                self.bump();
                self.semicolon()?;
                Ok(Stmt::new(StmtKind::Break, start))
            }
            TokenKind::Keyword(Kw::Continue) => {
                self.bump();
                self.semicolon()?;
                Ok(Stmt::new(StmtKind::Continue, start))
            }
            TokenKind::Keyword(Kw::Throw) => {
                self.bump();
                if self.peek().newline_before {
                    return Err(self.unexpected("expression on the same line as `throw`"));
                }
                let arg = self.expr()?;
                self.semicolon()?;
                Ok(Stmt::new(StmtKind::Throw(arg), start))
            }
            TokenKind::Keyword(Kw::Try) => self.try_statement(start),
            TokenKind::Keyword(Kw::Switch) => self.switch_statement(start),
            _ => {
                let e = self.expr()?;
                let span = start.to(e.span);
                self.semicolon()?;
                Ok(Stmt::new(StmtKind::Expr(e), span))
            }
        }
    }

    fn var_declarators(&mut self) -> Result<Declarators, SyntaxError> {
        let mut decls = Vec::new();
        loop {
            let (name, _) = self.ident()?;
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.assign_expr()?)
            } else {
                None
            };
            decls.push((name, init));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        Ok(decls)
    }

    fn if_statement(&mut self, start: Span) -> Result<Stmt, SyntaxError> {
        self.bump(); // if
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let then = self.statement()?;
        let (els, end) = if self.eat_keyword(Kw::Else) {
            let e = self.statement()?;
            let sp = e.span;
            (Some(Box::new(e)), sp)
        } else {
            (None, then.span)
        };
        Ok(Stmt::new(
            StmtKind::If(cond, Box::new(then), els),
            start.to(end),
        ))
    }

    fn for_statement(&mut self, start: Span) -> Result<Stmt, SyntaxError> {
        self.bump(); // for
        self.expect_punct(Punct::LParen)?;

        // Distinguish `for (var x in e)` / `for (x in e)` from `for (;;)`.
        if self.at_keyword(Kw::Var) {
            // Peek for `var ident in`.
            if matches!(self.peek_at(1).kind, TokenKind::Ident(_))
                && self.peek_at(2).kind == TokenKind::Keyword(Kw::In)
            {
                self.bump(); // var
                let (var, _) = self.ident()?;
                self.bump(); // in
                let obj = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.statement()?;
                let span = start.to(body.span);
                return Ok(Stmt::new(
                    StmtKind::ForIn {
                        decl: true,
                        var,
                        obj,
                        body: Box::new(body),
                    },
                    span,
                ));
            }
            self.bump(); // var
            let decls = self.var_declarators()?;
            self.expect_punct(Punct::Semi)?;
            return self.for_rest(start, Some(ForInit::Var(decls)));
        }

        if matches!(self.peek().kind, TokenKind::Ident(_))
            && self.peek_at(1).kind == TokenKind::Keyword(Kw::In)
        {
            let (var, _) = self.ident()?;
            self.bump(); // in
            let obj = self.expr()?;
            self.expect_punct(Punct::RParen)?;
            let body = self.statement()?;
            let span = start.to(body.span);
            return Ok(Stmt::new(
                StmtKind::ForIn {
                    decl: false,
                    var,
                    obj,
                    body: Box::new(body),
                },
                span,
            ));
        }

        let init = if self.at_punct(Punct::Semi) {
            None
        } else {
            Some(ForInit::Expr(self.expr_no_in()?))
        };
        self.expect_punct(Punct::Semi)?;
        self.for_rest(start, init)
    }

    fn for_rest(&mut self, start: Span, init: Option<ForInit>) -> Result<Stmt, SyntaxError> {
        let test = if self.at_punct(Punct::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect_punct(Punct::Semi)?;
        let update = if self.at_punct(Punct::RParen) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect_punct(Punct::RParen)?;
        let body = self.statement()?;
        let span = start.to(body.span);
        Ok(Stmt::new(
            StmtKind::For {
                init,
                test,
                update,
                body: Box::new(body),
            },
            span,
        ))
    }

    fn block_body(&mut self) -> Result<Vec<Stmt>, SyntaxError> {
        self.expect_punct(Punct::LBrace)?;
        let mut body = Vec::new();
        while !self.at_punct(Punct::RBrace) {
            if self.at_eof() {
                return Err(self.unexpected("`}`"));
            }
            body.push(self.statement()?);
        }
        self.bump();
        Ok(body)
    }

    fn try_statement(&mut self, start: Span) -> Result<Stmt, SyntaxError> {
        self.bump(); // try
        let block = self.block_body()?;
        let catch = if self.eat_keyword(Kw::Catch) {
            self.expect_punct(Punct::LParen)?;
            let (name, _) = self.ident()?;
            self.expect_punct(Punct::RParen)?;
            Some((name, self.block_body()?))
        } else {
            None
        };
        let finally = if self.eat_keyword(Kw::Finally) {
            Some(self.block_body()?)
        } else {
            None
        };
        if catch.is_none() && finally.is_none() {
            return Err(self.unexpected("`catch` or `finally`"));
        }
        Ok(Stmt::new(
            StmtKind::Try {
                block,
                catch,
                finally,
            },
            start,
        ))
    }

    fn switch_statement(&mut self, start: Span) -> Result<Stmt, SyntaxError> {
        self.bump(); // switch
        self.expect_punct(Punct::LParen)?;
        let disc = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        self.expect_punct(Punct::LBrace)?;
        let mut cases = Vec::new();
        while !self.at_punct(Punct::RBrace) {
            let test = if self.eat_keyword(Kw::Case) {
                let t = self.expr()?;
                self.expect_punct(Punct::Colon)?;
                Some(t)
            } else if self.eat_keyword(Kw::Default) {
                self.expect_punct(Punct::Colon)?;
                None
            } else {
                return Err(self.unexpected("`case`, `default`, or `}`"));
            };
            let mut body = Vec::new();
            while !self.at_punct(Punct::RBrace)
                && !self.at_keyword(Kw::Case)
                && !self.at_keyword(Kw::Default)
            {
                body.push(self.statement()?);
            }
            cases.push(SwitchCase { test, body });
        }
        let end = self.bump();
        Ok(Stmt::new(StmtKind::Switch(disc, cases), start.to(end)))
    }

    fn function(&mut self, require_name: bool) -> Result<Function, SyntaxError> {
        let start = self.bump(); // function
        let name = if matches!(self.peek().kind, TokenKind::Ident(_)) {
            Some(self.ident()?.0)
        } else if require_name {
            return Err(self.unexpected("function name"));
        } else {
            None
        };
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.at_punct(Punct::RParen) {
            loop {
                params.push(self.ident()?.0);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        self.expect_punct(Punct::RParen)?;
        self.expect_punct(Punct::LBrace)?;
        let mut body = Vec::new();
        while !self.at_punct(Punct::RBrace) {
            if self.at_eof() {
                return Err(self.unexpected("`}`"));
            }
            body.push(self.statement()?);
        }
        let end = self.bump();
        Ok(Function {
            name,
            params,
            body,
            span: start.to(end),
        })
    }

    // ---------------------------------------------------------------- exprs

    fn expr(&mut self) -> Result<Expr, SyntaxError> {
        self.expr_impl(true)
    }

    /// Expression with the `in` operator excluded at the top level, for
    /// `for (e in ...)` disambiguation.
    fn expr_no_in(&mut self) -> Result<Expr, SyntaxError> {
        self.expr_impl(false)
    }

    fn expr_impl(&mut self, allow_in: bool) -> Result<Expr, SyntaxError> {
        let first = self.assign_expr_impl(allow_in)?;
        if !self.at_punct(Punct::Comma) {
            return Ok(first);
        }
        let mut items = vec![first];
        while self.eat_punct(Punct::Comma) {
            items.push(self.assign_expr_impl(allow_in)?);
        }
        let span = items[0].span.to(items.last().expect("nonempty").span);
        Ok(Expr::new(ExprKind::Seq(items), span))
    }

    fn assign_expr(&mut self) -> Result<Expr, SyntaxError> {
        self.assign_expr_impl(true)
    }

    fn assign_expr_impl(&mut self, allow_in: bool) -> Result<Expr, SyntaxError> {
        self.enter_nested()?;
        let r = self.assign_expr_unguarded(allow_in);
        self.depth -= 1;
        r
    }

    fn assign_expr_unguarded(&mut self, allow_in: bool) -> Result<Expr, SyntaxError> {
        let lhs = self.cond_expr(allow_in)?;
        let op = match self.peek().kind {
            TokenKind::Punct(Punct::Assign) => None,
            TokenKind::Punct(Punct::PlusAssign) => Some(AssignOp::Add),
            TokenKind::Punct(Punct::MinusAssign) => Some(AssignOp::Sub),
            TokenKind::Punct(Punct::StarAssign) => Some(AssignOp::Mul),
            TokenKind::Punct(Punct::SlashAssign) => Some(AssignOp::Div),
            TokenKind::Punct(Punct::PercentAssign) => Some(AssignOp::Rem),
            TokenKind::Punct(Punct::AmpAssign) => Some(AssignOp::BitAnd),
            TokenKind::Punct(Punct::PipeAssign) => Some(AssignOp::BitOr),
            TokenKind::Punct(Punct::CaretAssign) => Some(AssignOp::BitXor),
            TokenKind::Punct(Punct::ShlAssign) => Some(AssignOp::Shl),
            TokenKind::Punct(Punct::ShrAssign) => Some(AssignOp::Shr),
            TokenKind::Punct(Punct::UShrAssign) => Some(AssignOp::UShr),
            _ => return Ok(lhs),
        };
        if !is_assign_target(&lhs) {
            return Err(SyntaxError {
                kind: SyntaxErrorKind::InvalidAssignmentTarget,
                span: lhs.span,
            });
        }
        self.bump();
        let rhs = self.assign_expr_impl(allow_in)?;
        let span = lhs.span.to(rhs.span);
        Ok(Expr::new(
            ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)),
            span,
        ))
    }

    fn cond_expr(&mut self, allow_in: bool) -> Result<Expr, SyntaxError> {
        let cond = self.binary_expr(0, allow_in)?;
        if !self.eat_punct(Punct::Question) {
            return Ok(cond);
        }
        let then = self.assign_expr()?;
        self.expect_punct(Punct::Colon)?;
        let els = self.assign_expr_impl(allow_in)?;
        let span = cond.span.to(els.span);
        Ok(Expr::new(
            ExprKind::Cond(Box::new(cond), Box::new(then), Box::new(els)),
            span,
        ))
    }

    fn binary_expr(&mut self, min_prec: u8, allow_in: bool) -> Result<Expr, SyntaxError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let Some((prec, kind)) = self.peek_binary_op(allow_in) else {
                return Ok(lhs);
            };
            if prec < min_prec {
                return Ok(lhs);
            }
            self.bump();
            let rhs = self.binary_expr(prec + 1, allow_in)?;
            let span = lhs.span.to(rhs.span);
            lhs = match kind {
                BinaryKind::Plain(op) => {
                    Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span)
                }
                BinaryKind::Logical(op) => {
                    Expr::new(ExprKind::Logical(op, Box::new(lhs), Box::new(rhs)), span)
                }
            };
        }
    }

    fn peek_binary_op(&self, allow_in: bool) -> Option<(u8, BinaryKind)> {
        use BinaryKind::*;
        let (prec, kind) = match self.peek().kind {
            TokenKind::Punct(Punct::OrOr) => (1, Logical(LogOp::Or)),
            TokenKind::Punct(Punct::AndAnd) => (2, Logical(LogOp::And)),
            TokenKind::Punct(Punct::Pipe) => (3, Plain(BinOp::BitOr)),
            TokenKind::Punct(Punct::Caret) => (4, Plain(BinOp::BitXor)),
            TokenKind::Punct(Punct::Amp) => (5, Plain(BinOp::BitAnd)),
            TokenKind::Punct(Punct::EqEq) => (6, Plain(BinOp::Eq)),
            TokenKind::Punct(Punct::NotEq) => (6, Plain(BinOp::NotEq)),
            TokenKind::Punct(Punct::EqEqEq) => (6, Plain(BinOp::StrictEq)),
            TokenKind::Punct(Punct::NotEqEq) => (6, Plain(BinOp::StrictNotEq)),
            TokenKind::Punct(Punct::Lt) => (7, Plain(BinOp::Lt)),
            TokenKind::Punct(Punct::Gt) => (7, Plain(BinOp::Gt)),
            TokenKind::Punct(Punct::LtEq) => (7, Plain(BinOp::LtEq)),
            TokenKind::Punct(Punct::GtEq) => (7, Plain(BinOp::GtEq)),
            TokenKind::Keyword(Kw::In) if allow_in => (7, Plain(BinOp::In)),
            TokenKind::Keyword(Kw::Instanceof) => (7, Plain(BinOp::Instanceof)),
            TokenKind::Punct(Punct::Shl) => (8, Plain(BinOp::Shl)),
            TokenKind::Punct(Punct::Shr) => (8, Plain(BinOp::Shr)),
            TokenKind::Punct(Punct::UShr) => (8, Plain(BinOp::UShr)),
            TokenKind::Punct(Punct::Plus) => (9, Plain(BinOp::Add)),
            TokenKind::Punct(Punct::Minus) => (9, Plain(BinOp::Sub)),
            TokenKind::Punct(Punct::Star) => (10, Plain(BinOp::Mul)),
            TokenKind::Punct(Punct::Slash) => (10, Plain(BinOp::Div)),
            TokenKind::Punct(Punct::Percent) => (10, Plain(BinOp::Rem)),
            _ => return None,
        };
        Some((prec, kind))
    }

    fn unary_expr(&mut self) -> Result<Expr, SyntaxError> {
        self.enter_nested()?;
        let r = self.unary_expr_unguarded();
        self.depth -= 1;
        r
    }

    fn unary_expr_unguarded(&mut self) -> Result<Expr, SyntaxError> {
        let start = self.peek().span;
        let op = match self.peek().kind {
            TokenKind::Punct(Punct::Minus) => Some(UnOp::Neg),
            TokenKind::Punct(Punct::Plus) => Some(UnOp::Pos),
            TokenKind::Punct(Punct::Not) => Some(UnOp::Not),
            TokenKind::Punct(Punct::Tilde) => Some(UnOp::BitNot),
            TokenKind::Keyword(Kw::Typeof) => Some(UnOp::Typeof),
            TokenKind::Keyword(Kw::Void) => Some(UnOp::Void),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let arg = self.unary_expr()?;
            let span = start.to(arg.span);
            return Ok(Expr::new(ExprKind::Unary(op, Box::new(arg)), span));
        }
        if self.at_keyword(Kw::Delete) {
            self.bump();
            let arg = self.unary_expr()?;
            let span = start.to(arg.span);
            return match arg.kind {
                ExprKind::Member(obj, key) => Ok(Expr::new(ExprKind::Delete(obj, key), span)),
                _ => Err(SyntaxError {
                    kind: SyntaxErrorKind::Unsupported("`delete` of a non-member expression"),
                    span,
                }),
            };
        }
        if self.at_punct(Punct::PlusPlus) || self.at_punct(Punct::MinusMinus) {
            let is_inc = self.at_punct(Punct::PlusPlus);
            self.bump();
            let arg = self.unary_expr()?;
            if !is_assign_target(&arg) {
                return Err(SyntaxError {
                    kind: SyntaxErrorKind::InvalidAssignmentTarget,
                    span: arg.span,
                });
            }
            let span = start.to(arg.span);
            return Ok(Expr::new(
                ExprKind::Update(true, is_inc, Box::new(arg)),
                span,
            ));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, SyntaxError> {
        let e = self.call_expr()?;
        if (self.at_punct(Punct::PlusPlus) || self.at_punct(Punct::MinusMinus))
            && !self.peek().newline_before
        {
            let is_inc = self.at_punct(Punct::PlusPlus);
            if !is_assign_target(&e) {
                return Err(SyntaxError {
                    kind: SyntaxErrorKind::InvalidAssignmentTarget,
                    span: e.span,
                });
            }
            let end = self.bump();
            let span = e.span.to(end);
            return Ok(Expr::new(
                ExprKind::Update(false, is_inc, Box::new(e)),
                span,
            ));
        }
        Ok(e)
    }

    fn call_expr(&mut self) -> Result<Expr, SyntaxError> {
        let mut e = if self.at_keyword(Kw::New) {
            self.new_expr()?
        } else {
            self.primary_expr()?
        };
        loop {
            if self.at_punct(Punct::Dot) {
                self.bump();
                let (name, end) = self.member_name()?;
                let span = e.span.to(end);
                e = Expr::new(ExprKind::Member(Box::new(e), MemberKey::Static(name)), span);
            } else if self.at_punct(Punct::LBracket) {
                self.bump();
                let idx = self.expr()?;
                let end = self.expect_punct(Punct::RBracket)?;
                let span = e.span.to(end);
                e = Expr::new(
                    ExprKind::Member(Box::new(e), MemberKey::Computed(Box::new(idx))),
                    span,
                );
            } else if self.at_punct(Punct::LParen) {
                let (args, end) = self.arguments()?;
                let span = e.span.to(end);
                e = Expr::new(ExprKind::Call(Box::new(e), args), span);
            } else {
                return Ok(e);
            }
        }
    }

    /// Parses `new F(...)`, where `F` may itself be a member chain (but not
    /// a call).
    fn new_expr(&mut self) -> Result<Expr, SyntaxError> {
        self.enter_nested()?;
        let r = self.new_expr_unguarded();
        self.depth -= 1;
        r
    }

    fn new_expr_unguarded(&mut self) -> Result<Expr, SyntaxError> {
        let start = self.bump(); // new
        let mut callee = if self.at_keyword(Kw::New) {
            self.new_expr()?
        } else {
            self.primary_expr()?
        };
        loop {
            if self.at_punct(Punct::Dot) {
                self.bump();
                let (name, end) = self.member_name()?;
                let span = callee.span.to(end);
                callee = Expr::new(
                    ExprKind::Member(Box::new(callee), MemberKey::Static(name)),
                    span,
                );
            } else if self.at_punct(Punct::LBracket) {
                self.bump();
                let idx = self.expr()?;
                let end = self.expect_punct(Punct::RBracket)?;
                let span = callee.span.to(end);
                callee = Expr::new(
                    ExprKind::Member(Box::new(callee), MemberKey::Computed(Box::new(idx))),
                    span,
                );
            } else {
                break;
            }
        }
        let (args, end) = if self.at_punct(Punct::LParen) {
            self.arguments()?
        } else {
            (Vec::new(), callee.span)
        };
        let span = start.to(end);
        Ok(Expr::new(ExprKind::New(Box::new(callee), args), span))
    }

    /// A property name after `.`: an identifier or (permissively) a keyword.
    fn member_name(&mut self) -> Result<(Rc<str>, Span), SyntaxError> {
        match &self.peek().kind {
            TokenKind::Ident(name) => {
                let name = name.clone();
                Ok((name, self.bump()))
            }
            TokenKind::Keyword(k) => {
                let name: Rc<str> = Rc::from(k.as_str());
                let span = self.bump();
                Ok((name, span))
            }
            _ => Err(self.unexpected("property name")),
        }
    }

    fn arguments(&mut self) -> Result<(Vec<Expr>, Span), SyntaxError> {
        self.expect_punct(Punct::LParen)?;
        let mut args = Vec::new();
        if !self.at_punct(Punct::RParen) {
            loop {
                args.push(self.assign_expr()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        let end = self.expect_punct(Punct::RParen)?;
        Ok((args, end))
    }

    fn primary_expr(&mut self) -> Result<Expr, SyntaxError> {
        let span = self.peek().span;
        let atom = match &self.peek().kind {
            TokenKind::Num(n) => ExprKind::Lit(Lit::Num(*n)),
            TokenKind::Str(s) => ExprKind::Lit(Lit::Str(s.clone())),
            TokenKind::Keyword(Kw::True) => ExprKind::Lit(Lit::Bool(true)),
            TokenKind::Keyword(Kw::False) => ExprKind::Lit(Lit::Bool(false)),
            TokenKind::Keyword(Kw::Null) => ExprKind::Lit(Lit::Null),
            TokenKind::Keyword(Kw::Undefined) => ExprKind::Lit(Lit::Undefined),
            TokenKind::Keyword(Kw::This) => ExprKind::This,
            TokenKind::Ident(name) => ExprKind::Ident(name.clone()),
            TokenKind::Keyword(Kw::Function) => {
                let f = self.function(false)?;
                let fspan = f.span;
                return Ok(Expr::new(ExprKind::Function(Rc::new(f)), fspan));
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                return Ok(e);
            }
            TokenKind::Punct(Punct::LBracket) => {
                self.bump();
                let mut items = Vec::new();
                if !self.at_punct(Punct::RBracket) {
                    loop {
                        items.push(self.assign_expr()?);
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                        if self.at_punct(Punct::RBracket) {
                            break; // trailing comma
                        }
                    }
                }
                let end = self.expect_punct(Punct::RBracket)?;
                return Ok(Expr::new(ExprKind::Array(items), span.to(end)));
            }
            TokenKind::Punct(Punct::LBrace) => {
                self.bump();
                let mut props = Vec::new();
                if !self.at_punct(Punct::RBrace) {
                    loop {
                        let key = self.object_key()?;
                        self.expect_punct(Punct::Colon)?;
                        let value = self.assign_expr()?;
                        props.push((key, value));
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                        if self.at_punct(Punct::RBrace) {
                            break; // trailing comma
                        }
                    }
                }
                let end = self.expect_punct(Punct::RBrace)?;
                return Ok(Expr::new(ExprKind::Object(props), span.to(end)));
            }
            _ => return Err(self.unexpected("expression")),
        };
        self.bump();
        Ok(Expr::new(atom, span))
    }

    fn object_key(&mut self) -> Result<Rc<str>, SyntaxError> {
        let key = match &self.peek().kind {
            TokenKind::Ident(s) | TokenKind::Str(s) => s.clone(),
            TokenKind::Keyword(kw) => Rc::from(kw.as_str()),
            TokenKind::Num(n) => Rc::from(crate::pretty::num_to_str(*n)),
            _ => return Err(self.unexpected("property key")),
        };
        self.bump();
        Ok(key)
    }
}

enum BinaryKind {
    Plain(BinOp),
    Logical(LogOp),
}

/// `var` declarator list: `(name, initializer)` pairs.
type Declarators = Vec<(Rc<str>, Option<Expr>)>;

fn is_assign_target(e: &Expr) -> bool {
    matches!(e.kind, ExprKind::Ident(_) | ExprKind::Member(..))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(src: &str) -> Stmt {
        let p = parse(src).unwrap();
        assert_eq!(p.body.len(), 1, "expected one statement in {src:?}");
        p.body.into_iter().next().unwrap()
    }

    #[test]
    fn parses_var_with_init() {
        let s = parse_one("var x = 1 + 2;");
        match s.kind {
            StmtKind::Var(decls) => {
                assert_eq!(decls.len(), 1);
                assert_eq!(&*decls[0].0, "x");
                assert!(decls[0].1.is_some());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e.kind {
            ExprKind::Binary(BinOp::Add, _, rhs) => {
                assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn logical_ops_are_logical_nodes() {
        let e = parse_expr("a && b || c").unwrap();
        assert!(matches!(e.kind, ExprKind::Logical(LogOp::Or, _, _)));
    }

    #[test]
    fn assignment_is_right_associative() {
        let e = parse_expr("a = b = c").unwrap();
        match e.kind {
            ExprKind::Assign(None, _, rhs) => {
                assert!(matches!(rhs.kind, ExprKind::Assign(None, _, _)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn member_chains_and_calls() {
        let e = parse_expr("a.b[c](d).e").unwrap();
        // ((a.b[c])(d)).e
        match e.kind {
            ExprKind::Member(inner, MemberKey::Static(name)) => {
                assert_eq!(&*name, "e");
                assert!(matches!(inner.kind, ExprKind::Call(_, _)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn new_with_member_callee() {
        let e = parse_expr("new a.B(1)").unwrap();
        match e.kind {
            ExprKind::New(callee, args) => {
                assert!(matches!(callee.kind, ExprKind::Member(..)));
                assert_eq!(args.len(), 1);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn conditional_expression() {
        let e = parse_expr("a ? b : c ? d : e").unwrap();
        match e.kind {
            ExprKind::Cond(_, _, els) => {
                assert!(matches!(els.kind, ExprKind::Cond(..)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn for_in_variants() {
        assert!(matches!(
            parse_one("for (var k in o) {}").kind,
            StmtKind::ForIn { decl: true, .. }
        ));
        assert!(matches!(
            parse_one("for (k in o) {}").kind,
            StmtKind::ForIn { decl: false, .. }
        ));
    }

    #[test]
    fn classic_for_with_all_clauses() {
        match parse_one("for (var i = 0; i < 10; i++) f(i);").kind {
            StmtKind::For {
                init: Some(ForInit::Var(_)),
                test: Some(_),
                update: Some(_),
                ..
            } => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn asi_before_rbrace_and_newline() {
        let p = parse("function f() { return 1 }\nvar x = 2\nvar y = 3").unwrap();
        assert_eq!(p.body.len(), 3);
    }

    #[test]
    fn restricted_return() {
        let p = parse("function f() { return\n1; }").unwrap();
        match &p.body[0].kind {
            StmtKind::FunctionDecl(f) => {
                assert!(matches!(f.body[0].kind, StmtKind::Return(None)));
                assert!(matches!(f.body[1].kind, StmtKind::Expr(_)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn try_catch_finally() {
        match parse_one("try { f(); } catch (e) { g(e); } finally { h(); }").kind {
            StmtKind::Try {
                catch: Some(_),
                finally: Some(_),
                ..
            } => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn switch_with_default() {
        match parse_one("switch (x) { case 1: a(); break; default: b(); }").kind {
            StmtKind::Switch(_, cases) => {
                assert_eq!(cases.len(), 2);
                assert!(cases[0].test.is_some());
                assert!(cases[1].test.is_none());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn object_literal_key_forms() {
        let e = parse_expr("{ a: 1, \"b c\": 2, 3: 4, default: 5 }").unwrap();
        match e.kind {
            ExprKind::Object(props) => {
                let keys: Vec<&str> = props.iter().map(|(k, _)| &**k).collect();
                assert_eq!(keys, vec!["a", "b c", "3", "default"]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn delete_member() {
        let e = parse_expr("delete o.p").unwrap();
        assert!(matches!(e.kind, ExprKind::Delete(_, MemberKey::Static(_))));
        assert!(parse_expr("delete x").is_err());
    }

    #[test]
    fn update_targets_validated() {
        assert!(parse_expr("x++").is_ok());
        assert!(parse_expr("o.p++").is_ok());
        assert!(parse_expr("5++").is_err());
    }

    #[test]
    fn typeof_in_condition() {
        let e = parse_expr("typeof selector === \"string\"").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::StrictEq, _, _)));
    }

    #[test]
    fn keyword_member_names_allowed() {
        assert!(parse_expr("o.delete").is_ok());
        assert!(parse_expr("o.in").is_ok());
    }

    #[test]
    fn no_in_inside_for_init() {
        // `in` must not be parsed in the init clause...
        let s = parse_one("for (x = a; x < b; x++) {}");
        assert!(matches!(s.kind, StmtKind::For { .. }));
        // ...but parenthesized expressions inside are fine elsewhere.
        assert!(parse_expr("\"k\" in o").is_ok());
    }

    #[test]
    fn comma_expression() {
        let e = parse_expr("(a, b, c)").unwrap();
        match e.kind {
            ExprKind::Seq(items) => assert_eq!(items.len(), 3),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn error_reports_expected() {
        let err = parse("var = 3;").unwrap_err();
        assert!(matches!(err.kind, SyntaxErrorKind::UnexpectedToken { .. }));
    }

    #[test]
    fn figure1_parses() {
        let src = r#"
function $(selector) {
  if (typeof selector === "string") {
    if (isHTML(selector)) { parseHTML(selector); }
    else { cssQuery(selector); }
  } else if (typeof selector === "function") {
    onReady(selector);
  } else {
    return [selector];
  }
}
"#;
        assert!(parse(src).is_ok());
    }

    #[test]
    fn figure3_parses() {
        let src = r#"
function Rectangle(w, h) { this.width = w; this.height = h; }
Rectangle.prototype.toString = function() {
  return "[" + this.width + "x" + this.height + "]";
};
String.prototype.cap = function() {
  return this[0].toUpperCase() + this.substr(1);
};
function defAccessors(prop) {
  Rectangle.prototype["get" + prop.cap()] = function() { return this[prop]; };
  Rectangle.prototype["set" + prop.cap()] = function(v) { this[prop] = v; };
}
var props = ["width", "height"];
for (var i = 0; i < props.length; i++) defAccessors(props[i]);
var r = new Rectangle(20, 30);
r.setWidth(r.getWidth() + 20);
alert(r.toString());
"#;
        assert!(parse(src).is_ok());
    }
}
