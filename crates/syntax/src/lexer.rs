//! Hand-written lexer for the muJS JavaScript subset.
//!
//! Supports decimal and hexadecimal number literals, single- and
//! double-quoted strings with the common escape sequences, line and block
//! comments, and all punctuators in [`crate::token::Punct`]. Regular
//! expression literals are not part of the subset; `/` always lexes as
//! division.

use crate::error::{SyntaxError, SyntaxErrorKind};
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};
use std::rc::Rc;

/// Tokenizes `src` completely, returning the token stream (terminated by an
/// [`TokenKind::Eof`] token).
///
/// # Errors
///
/// Returns a [`SyntaxError`] for unterminated strings or comments, malformed
/// numbers, and characters outside the subset's alphabet.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), mujs_syntax::SyntaxError> {
/// let tokens = mujs_syntax::lexer::lex("var x = 1 + 2;")?;
/// assert_eq!(tokens.len(), 8); // var x = 1 + 2 ; <eof>
/// # Ok(())
/// # }
/// ```
pub fn lex(src: &str) -> Result<Vec<Token>, SyntaxError> {
    Lexer::new(src).run()
}

struct Lexer<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
    newline_pending: bool,
    tokens: Vec<Token>,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            newline_pending: false,
            tokens: Vec::new(),
        }
    }

    fn run(mut self) -> Result<Vec<Token>, SyntaxError> {
        loop {
            self.skip_trivia()?;
            let start = self.pos;
            let Some(b) = self.peek() else {
                self.push(TokenKind::Eof, start);
                return Ok(self.tokens);
            };
            match b {
                b'0'..=b'9' => self.number(start)?,
                b'.' => {
                    if self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
                        self.number(start)?;
                    } else {
                        self.pos += 1;
                        self.push(TokenKind::Punct(Punct::Dot), start);
                    }
                }
                b'"' | b'\'' => self.string(start)?,
                b'_' | b'$' | b'a'..=b'z' | b'A'..=b'Z' => self.ident(start),
                _ => self.punct(start)?,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    fn push(&mut self, kind: TokenKind, start: usize) {
        let newline_before = self.newline_pending;
        self.newline_pending = false;
        self.tokens.push(Token {
            kind,
            span: Span::new(start as u32, self.pos as u32),
            newline_before,
        });
    }

    fn err(&self, kind: SyntaxErrorKind, start: usize) -> SyntaxError {
        SyntaxError {
            kind,
            span: Span::new(start as u32, self.pos as u32),
        }
    }

    fn skip_trivia(&mut self) -> Result<(), SyntaxError> {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\r') => self.pos += 1,
                Some(b'\n') => {
                    self.newline_pending = true;
                    self.pos += 1;
                }
                Some(b'/') if self.peek_at(1) == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        match self.peek() {
                            None => {
                                return Err(self.err(SyntaxErrorKind::UnterminatedComment, start))
                            }
                            Some(b'\n') => {
                                self.newline_pending = true;
                                self.pos += 1;
                            }
                            Some(b'*') if self.peek_at(1) == Some(b'/') => {
                                self.pos += 2;
                                break;
                            }
                            Some(_) => self.pos += 1,
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn number(&mut self, start: usize) -> Result<(), SyntaxError> {
        if self.peek() == Some(b'0') && matches!(self.peek_at(1), Some(b'x') | Some(b'X')) {
            self.pos += 2;
            let digits_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
                self.pos += 1;
            }
            if self.pos == digits_start {
                return Err(self.err(SyntaxErrorKind::MalformedNumber, start));
            }
            let text = &self.src[digits_start..self.pos];
            let value = u64::from_str_radix(text, 16)
                .map_err(|_| self.err(SyntaxErrorKind::MalformedNumber, start))?;
            self.push(TokenKind::Num(value as f64), start);
            return Ok(());
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err(SyntaxErrorKind::MalformedNumber, start));
            }
        }
        let text = &self.src[start..self.pos];
        let value: f64 = text
            .parse()
            .map_err(|_| self.err(SyntaxErrorKind::MalformedNumber, start))?;
        self.push(TokenKind::Num(value), start);
        Ok(())
    }

    fn string(&mut self, start: usize) -> Result<(), SyntaxError> {
        let quote = self.peek().expect("string() called at quote");
        self.pos += 1;
        let body_start = self.pos;
        // Fast path: a literal without escapes is a slice of the source.
        while let Some(b) = self.peek() {
            if b == quote {
                let text = &self.src[body_start..self.pos];
                self.pos += 1;
                self.push(TokenKind::Str(Rc::from(text)), start);
                return Ok(());
            }
            if b == b'\\' || b == b'\n' {
                break;
            }
            self.pos += 1;
        }
        let mut out = String::from(&self.src[body_start..self.pos]);
        loop {
            match self.peek() {
                None | Some(b'\n') => {
                    return Err(self.err(SyntaxErrorKind::UnterminatedString, start))
                }
                Some(b) if b == quote => {
                    self.pos += 1;
                    break;
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.err(SyntaxErrorKind::UnterminatedString, start))?;
                    self.pos += 1;
                    match esc {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'0' => out.push('\0'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'v' => out.push('\u{b}'),
                        b'\\' => out.push('\\'),
                        b'\'' => out.push('\''),
                        b'"' => out.push('"'),
                        b'\n' => {} // line continuation
                        b'x' => {
                            let hex = self.take_hex(2, start)?;
                            out.push(
                                char::from_u32(hex).ok_or_else(|| {
                                    self.err(SyntaxErrorKind::InvalidEscape, start)
                                })?,
                            );
                        }
                        b'u' => {
                            let hex = self.take_hex(4, start)?;
                            out.push(
                                char::from_u32(hex).ok_or_else(|| {
                                    self.err(SyntaxErrorKind::InvalidEscape, start)
                                })?,
                            );
                        }
                        _ => {
                            // Unknown escapes denote the character itself,
                            // matching real JS engines.
                            let ch_start = self.pos - 1;
                            let ch = self.src[ch_start..]
                                .chars()
                                .next()
                                .expect("peeked byte implies a char");
                            self.pos = ch_start + ch.len_utf8();
                            out.push(ch);
                        }
                    }
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    let ch = self.src[self.pos..]
                        .chars()
                        .next()
                        .expect("peeked byte implies a char");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
        self.push(TokenKind::Str(Rc::from(out)), start);
        Ok(())
    }

    fn take_hex(&mut self, n: usize, start: usize) -> Result<u32, SyntaxError> {
        let mut v: u32 = 0;
        for _ in 0..n {
            let b = self
                .peek()
                .filter(|b| b.is_ascii_hexdigit())
                .ok_or_else(|| self.err(SyntaxErrorKind::InvalidEscape, start))?;
            v = v * 16 + (b as char).to_digit(16).expect("hexdigit checked");
            self.pos += 1;
        }
        Ok(v)
    }

    fn ident(&mut self, start: usize) {
        while self
            .peek()
            .is_some_and(|b| b == b'_' || b == b'$' || b.is_ascii_alphanumeric())
        {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        let kind = match Keyword::lookup(text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(Rc::from(text)),
        };
        self.push(kind, start);
    }

    fn punct(&mut self, start: usize) -> Result<(), SyntaxError> {
        use Punct::*;
        // Longest match among the punctuators sharing the first byte; each
        // candidate list is ordered longest first.
        let candidates: &[(&str, Punct)] = match self.bytes[self.pos] {
            b'{' => &[("{", LBrace)],
            b'}' => &[("}", RBrace)],
            b'(' => &[("(", LParen)],
            b')' => &[(")", RParen)],
            b'[' => &[("[", LBracket)],
            b']' => &[("]", RBracket)],
            b';' => &[(";", Semi)],
            b',' => &[(",", Comma)],
            b'?' => &[("?", Question)],
            b':' => &[(":", Colon)],
            b'~' => &[("~", Tilde)],
            b'=' => &[("===", EqEqEq), ("==", EqEq), ("=", Assign)],
            b'!' => &[("!==", NotEqEq), ("!=", NotEq), ("!", Not)],
            b'<' => &[("<<=", ShlAssign), ("<=", LtEq), ("<<", Shl), ("<", Lt)],
            b'>' => &[
                (">>>=", UShrAssign),
                (">>>", UShr),
                (">>=", ShrAssign),
                (">=", GtEq),
                (">>", Shr),
                (">", Gt),
            ],
            b'&' => &[("&&", AndAnd), ("&=", AmpAssign), ("&", Amp)],
            b'|' => &[("||", OrOr), ("|=", PipeAssign), ("|", Pipe)],
            b'+' => &[("++", PlusPlus), ("+=", PlusAssign), ("+", Plus)],
            b'-' => &[("--", MinusMinus), ("-=", MinusAssign), ("-", Minus)],
            b'*' => &[("*=", StarAssign), ("*", Star)],
            b'/' => &[("/=", SlashAssign), ("/", Slash)],
            b'%' => &[("%=", PercentAssign), ("%", Percent)],
            b'^' => &[("^=", CaretAssign), ("^", Caret)],
            _ => &[],
        };
        let rest = &self.bytes[self.pos..];
        for (text, p) in candidates {
            if rest.starts_with(text.as_bytes()) {
                self.pos += text.len();
                self.push(TokenKind::Punct(*p), start);
                return Ok(());
            }
        }
        self.pos += 1;
        Err(self.err(SyntaxErrorKind::UnexpectedChar, start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_simple_statement() {
        let ks = kinds("var x = 1;");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword(Keyword::Var),
                TokenKind::Ident("x".into()),
                TokenKind::Punct(Punct::Assign),
                TokenKind::Num(1.0),
                TokenKind::Punct(Punct::Semi),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("0x10")[0], TokenKind::Num(16.0));
        assert_eq!(kinds("3.25")[0], TokenKind::Num(3.25));
        assert_eq!(kinds("1e3")[0], TokenKind::Num(1000.0));
        assert_eq!(kinds("2.5e-1")[0], TokenKind::Num(0.25));
        assert_eq!(kinds(".5")[0], TokenKind::Num(0.5));
    }

    #[test]
    fn lexes_strings_with_escapes() {
        assert_eq!(kinds(r#" "a\nb" "#)[0], TokenKind::Str("a\nb".into()));
        assert_eq!(kinds(r#"'it\'s'"#)[0], TokenKind::Str("it's".into()));
        assert_eq!(kinds(r#""\x41B""#)[0], TokenKind::Str("AB".into()));
    }

    #[test]
    fn distinguishes_triple_eq() {
        assert_eq!(kinds("a === b")[1], TokenKind::Punct(Punct::EqEqEq));
        assert_eq!(kinds("a == b")[1], TokenKind::Punct(Punct::EqEq));
        assert_eq!(kinds("a = b")[1], TokenKind::Punct(Punct::Assign));
    }

    #[test]
    fn every_punctuator_lexes_to_itself() {
        const ALL: &str = "{ } ( ) [ ] ; , . ? : = += -= *= /= %= &= |= ^= <<= >>= >>>= \
                           + - * / % ++ -- == != === !== < > <= >= && || ! ~ & | ^ << >> >>>";
        for text in ALL.split_whitespace() {
            match &kinds(text)[..] {
                [TokenKind::Punct(p), TokenKind::Eof] => assert_eq!(p.as_str(), text),
                other => panic!("{text:?} lexed to {other:?}"),
            }
        }
    }

    #[test]
    fn punctuators_take_the_longest_match() {
        let puncts = |src: &str| -> Vec<&'static str> {
            kinds(src)
                .iter()
                .filter_map(|k| match k {
                    TokenKind::Punct(p) => Some(p.as_str()),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(puncts("a>>>=b"), [">>>="]);
        assert_eq!(puncts("a>>>b>>c>=d>e"), [">>>", ">>", ">=", ">"]);
        assert_eq!(puncts("a!==b!=c!d"), ["!==", "!=", "!"]);
        assert_eq!(puncts("a<<=b<<c<=d<e"), ["<<=", "<<", "<=", "<"]);
        assert_eq!(puncts("x+++y"), ["++", "+"]);
        assert_eq!(
            puncts("a&&b&=c&d||e|=f|g"),
            ["&&", "&=", "&", "||", "|=", "|"]
        );
    }

    #[test]
    fn strings_with_and_without_escapes() {
        assert_eq!(kinds("'plain'")[0], TokenKind::Str("plain".into()));
        assert_eq!(
            kinds(r#""h\u00e9llo""#)[0],
            TokenKind::Str("h\u{e9}llo".into())
        );
        assert_eq!(
            kinds("'h\u{e9}llo'")[0],
            TokenKind::Str("h\u{e9}llo".into())
        );
        assert_eq!(kinds(r"'pre\tpost'")[0], TokenKind::Str("pre\tpost".into()));
        assert_eq!(kinds("''")[0], TokenKind::Str("".into()));
        let err = lex("'abc\n'").unwrap_err();
        assert_eq!(err.kind, SyntaxErrorKind::UnterminatedString);
        assert_eq!(err.span, Span::new(0, 4));
    }

    #[test]
    fn skips_comments() {
        let ks = kinds("a // comment\n b /* block\n comment */ c");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn tracks_newline_before() {
        let toks = lex("a\nb c").unwrap();
        assert!(!toks[0].newline_before);
        assert!(toks[1].newline_before);
        assert!(!toks[2].newline_before);
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(matches!(
            lex("\"abc").unwrap_err().kind,
            SyntaxErrorKind::UnterminatedString
        ));
    }

    #[test]
    fn rejects_unterminated_comment() {
        assert!(matches!(
            lex("/* abc").unwrap_err().kind,
            SyntaxErrorKind::UnterminatedComment
        ));
    }

    #[test]
    fn keywords_are_not_identifiers() {
        assert_eq!(kinds("while")[0], TokenKind::Keyword(Keyword::While));
        assert_eq!(kinds("whiles")[0], TokenKind::Ident("whiles".into()));
    }

    #[test]
    fn dollar_and_underscore_identifiers() {
        assert_eq!(kinds("$f _g")[0], TokenKind::Ident("$f".into()));
        assert_eq!(kinds("$f _g")[1], TokenKind::Ident("_g".into()));
    }
}
