//! Tokenizer for the `.aov` surface language.
//!
//! Hand-rolled, zero-dependency, with 1-based line/column positions on
//! every token so the parser can produce caret diagnostics.

use crate::diag::{Diagnostic, Span};

/// A lexical token kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`program`, `param`, `array`, `stmt`,
    /// `assume` are recognized contextually by the parser).
    Ident(String),
    /// Non-negative integer literal (unary minus is a separate token).
    Int(i64),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Star,
    Plus,
    Minus,
    /// `=`
    Assign,
    /// `==`
    EqEq,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// End of input (always the last token).
    Eof,
}

impl Tok {
    /// Human-readable description for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Int(v) => format!("integer `{v}`"),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::LBrace => "`{`".into(),
            Tok::RBrace => "`}`".into(),
            Tok::LBracket => "`[`".into(),
            Tok::RBracket => "`]`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Semi => "`;`".into(),
            Tok::Star => "`*`".into(),
            Tok::Plus => "`+`".into(),
            Tok::Minus => "`-`".into(),
            Tok::Assign => "`=`".into(),
            Tok::EqEq => "`==`".into(),
            Tok::Le => "`<=`".into(),
            Tok::Ge => "`>=`".into(),
            Tok::Lt => "`<`".into(),
            Tok::Gt => "`>`".into(),
            Tok::Eof => "end of input".into(),
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    pub tok: Tok,
    pub span: Span,
}

/// Tokenizes `src`, returning the token stream (terminated by [`Tok::Eof`]).
///
/// `#` starts a comment running to end of line.
///
/// # Errors
///
/// Returns a caret [`Diagnostic`] on the first unrecognized character or
/// malformed literal.
pub fn lex(src: &str) -> Result<Vec<Token>, Diagnostic> {
    // Every token but `Eof` spans at least one byte, and the sources are
    // mostly identifiers and whitespace: half the length rarely regrows.
    let mut toks = Vec::with_capacity(src.len() / 2 + 1);
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    let mut chars = src.chars().peekable();

    macro_rules! push {
        ($tok:expr, $line:expr, $col:expr) => {
            toks.push(Token {
                tok: $tok,
                span: Span {
                    line: $line,
                    col: $col,
                },
            })
        };
    }

    while let Some(&c) = chars.peek() {
        let (tline, tcol) = (line, col);
        match c {
            '\n' => {
                chars.next();
                line += 1;
                col = 1;
            }
            ' ' | '\t' | '\r' => {
                chars.next();
                col += 1;
            }
            '#' => {
                // Comment to end of line.
                while let Some(&c) = chars.peek() {
                    if c == '\n' {
                        break;
                    }
                    chars.next();
                    col += 1;
                }
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        s.push(c);
                        chars.next();
                        col += 1;
                    } else {
                        break;
                    }
                }
                push!(Tok::Ident(s), tline, tcol);
            }
            '0'..='9' => {
                // `None` once the value overflows `i64`.
                let mut value = Some(0i64);
                let mut len = 0;
                while let Some(d) = chars.peek().and_then(|c| c.to_digit(10)) {
                    value = value.and_then(|v| v.checked_mul(10)?.checked_add(i64::from(d)));
                    len += 1;
                    chars.next();
                    col += 1;
                }
                match value {
                    Some(v) => push!(Tok::Int(v), tline, tcol),
                    None => {
                        let literal: String = src
                            .lines()
                            .nth(tline as usize - 1)
                            .unwrap_or_default()
                            .chars()
                            .skip(tcol as usize - 1)
                            .take(len)
                            .collect();
                        return Err(Diagnostic::at(
                            src,
                            Span {
                                line: tline,
                                col: tcol,
                            },
                            format!("integer literal `{literal}` out of range"),
                        ));
                    }
                }
            }
            '(' | ')' | '{' | '}' | '[' | ']' | ',' | ';' | '*' | '+' | '-' => {
                chars.next();
                col += 1;
                let t = match c {
                    '(' => Tok::LParen,
                    ')' => Tok::RParen,
                    '{' => Tok::LBrace,
                    '}' => Tok::RBrace,
                    '[' => Tok::LBracket,
                    ']' => Tok::RBracket,
                    ',' => Tok::Comma,
                    ';' => Tok::Semi,
                    '*' => Tok::Star,
                    '+' => Tok::Plus,
                    _ => Tok::Minus,
                };
                push!(t, tline, tcol);
            }
            '=' | '<' | '>' => {
                chars.next();
                col += 1;
                let two = chars.peek() == Some(&'=');
                if two {
                    chars.next();
                    col += 1;
                }
                let t = match (c, two) {
                    ('=', true) => Tok::EqEq,
                    ('=', false) => Tok::Assign,
                    ('<', true) => Tok::Le,
                    ('<', false) => Tok::Lt,
                    ('>', true) => Tok::Ge,
                    _ => Tok::Gt,
                };
                push!(t, tline, tcol);
            }
            _ => {
                return Err(Diagnostic::at(
                    src,
                    Span {
                        line: tline,
                        col: tcol,
                    },
                    format!("unexpected character `{c}`"),
                ));
            }
        }
    }
    push!(Tok::Eof, line, col);
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_all_token_kinds() {
        let toks = lex("stmt S(i) { 1 <= i >= 0 < 2 > -3; A[2*i] == = } # c\nx").unwrap();
        let kinds: Vec<&Tok> = toks.iter().map(|t| &t.tok).collect();
        assert!(matches!(kinds[0], Tok::Ident(s) if s == "stmt"));
        assert!(kinds.contains(&&Tok::Le));
        assert!(kinds.contains(&&Tok::Ge));
        assert!(kinds.contains(&&Tok::Lt));
        assert!(kinds.contains(&&Tok::Gt));
        assert!(kinds.contains(&&Tok::EqEq));
        assert!(kinds.contains(&&Tok::Assign));
        assert!(kinds.contains(&&Tok::Star));
        assert!(kinds.contains(&&Tok::Minus));
        assert_eq!(kinds.last(), Some(&&Tok::Eof));
        // The comment swallowed the rest of line 1; `x` is on line 2.
        let x = toks
            .iter()
            .find(|t| matches!(&t.tok, Tok::Ident(s) if s == "x"))
            .unwrap();
        assert_eq!((x.span.line, x.span.col), (2, 1));
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("ab cd\n  ef").unwrap();
        assert_eq!((toks[0].span.line, toks[0].span.col), (1, 1));
        assert_eq!((toks[1].span.line, toks[1].span.col), (1, 4));
        assert_eq!((toks[2].span.line, toks[2].span.col), (2, 3));
    }

    #[test]
    fn rejects_unknown_character() {
        let err = lex("param n @ 1;").unwrap_err();
        assert!(err.message.contains("unexpected character"));
        assert_eq!((err.line, err.col), (1, 9));
    }

    #[test]
    fn rejects_overflowing_integer() {
        let err = lex("99999999999999999999").unwrap_err();
        assert!(err.message.contains("out of range"));
    }
}
