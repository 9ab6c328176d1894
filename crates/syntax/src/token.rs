//! Tokens produced by the lexer.

use crate::span::Span;
use std::fmt;
use std::rc::Rc;

/// The kind of a lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Numeric literal (decimal or hexadecimal), already parsed to `f64`.
    Num(f64),
    /// String literal with escape sequences resolved, allocated once and
    /// shared with the AST.
    Str(Rc<str>),
    /// Identifier (not a reserved word), allocated once and shared with
    /// the AST.
    Ident(Rc<str>),
    /// Reserved word.
    Keyword(Keyword),
    /// Punctuation or operator.
    Punct(Punct),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Num(n) => write!(f, "number {n}"),
            TokenKind::Str(s) => write!(f, "string {s:?}"),
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Keyword(k) => write!(f, "keyword `{k}`"),
            TokenKind::Punct(p) => write!(f, "`{p}`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source span and layout information.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where in the source it came from.
    pub span: Span,
    /// Whether a line terminator occurred between the previous token and
    /// this one. Used for restricted productions and semicolon insertion.
    pub newline_before: bool,
}

macro_rules! keywords {
    ($($name:ident => $text:literal),* $(,)?) => {
        /// Reserved words of the muJS subset.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Keyword {
            $(#[doc = concat!("`", $text, "`")] $name),*
        }

        impl Keyword {
            /// Looks up a keyword from its source text.
            pub fn lookup(s: &str) -> Option<Keyword> {
                match s {
                    $($text => Some(Keyword::$name),)*
                    _ => None,
                }
            }

            /// The source text of this keyword.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Keyword::$name => $text,)*
                }
            }
        }

        impl fmt::Display for Keyword {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.as_str())
            }
        }
    };
}

keywords! {
    Var => "var",
    Function => "function",
    Return => "return",
    If => "if",
    Else => "else",
    While => "while",
    Do => "do",
    For => "for",
    In => "in",
    Break => "break",
    Continue => "continue",
    New => "new",
    Delete => "delete",
    Typeof => "typeof",
    Void => "void",
    This => "this",
    Null => "null",
    Undefined => "undefined",
    True => "true",
    False => "false",
    Try => "try",
    Catch => "catch",
    Finally => "finally",
    Throw => "throw",
    Switch => "switch",
    Case => "case",
    Default => "default",
    Instanceof => "instanceof",
}

macro_rules! puncts {
    ($($name:ident => $text:literal),* $(,)?) => {
        /// Punctuators and operators of the muJS subset.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Punct {
            $(#[doc = concat!("`", $text, "`")] $name),*
        }

        impl Punct {
            /// The source text of this punctuator.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Punct::$name => $text,)*
                }
            }
        }

        impl fmt::Display for Punct {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.as_str())
            }
        }
    };
}

puncts! {
    LBrace => "{",
    RBrace => "}",
    LParen => "(",
    RParen => ")",
    LBracket => "[",
    RBracket => "]",
    Semi => ";",
    Comma => ",",
    Dot => ".",
    Question => "?",
    Colon => ":",
    Assign => "=",
    PlusAssign => "+=",
    MinusAssign => "-=",
    StarAssign => "*=",
    SlashAssign => "/=",
    PercentAssign => "%=",
    AmpAssign => "&=",
    PipeAssign => "|=",
    CaretAssign => "^=",
    ShlAssign => "<<=",
    ShrAssign => ">>=",
    UShrAssign => ">>>=",
    Plus => "+",
    Minus => "-",
    Star => "*",
    Slash => "/",
    Percent => "%",
    PlusPlus => "++",
    MinusMinus => "--",
    EqEq => "==",
    NotEq => "!=",
    EqEqEq => "===",
    NotEqEq => "!==",
    Lt => "<",
    Gt => ">",
    LtEq => "<=",
    GtEq => ">=",
    AndAnd => "&&",
    OrOr => "||",
    Not => "!",
    Tilde => "~",
    Amp => "&",
    Pipe => "|",
    Caret => "^",
    Shl => "<<",
    Shr => ">>",
    UShr => ">>>",
}
