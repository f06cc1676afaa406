//! Lexer and recursive-descent parser for the einsum statement grammar.
//!
//! The surface syntax is deliberately tiny — one line per statement —
//! but the diagnostics follow the same contract as the `.dr` DSL in
//! `datareuse-loopir`: every error is a [`ParseNestError`] carrying the
//! 1-based line and column of the offending token.

use datareuse_loopir::{AffineExpr, ParseNestError};

use crate::ast::{Pos, Statement, TensorRef};

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    LBracket,
    RBracket,
    LParen,
    RParen,
    Comma,
    Semi,
    Plus,
    PlusEq,
    Minus,
    Star,
    Eq,
    Tilde,
    Colon,
    Eof,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(v) => write!(f, "integer `{v}`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::PlusEq => write!(f, "`+=`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Star => write!(f, "`*`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Tilde => write!(f, "`~`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

struct Lexer<'a> {
    src: &'a [u8],
    at: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src: src.as_bytes(),
            at: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.get(self.at).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek_byte()?;
        self.at += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek_byte() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'#') => {
                    while matches!(self.peek_byte(), Some(b) if b != b'\n') {
                        self.bump();
                    }
                }
                Some(b'/') if self.src.get(self.at + 1) == Some(&b'/') => {
                    while matches!(self.peek_byte(), Some(b) if b != b'\n') {
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    /// The character at the cursor, decoded whole (the cursor always
    /// sits on a character boundary), for error messages.
    fn current_char(&self) -> char {
        std::str::from_utf8(&self.src[self.at..])
            .ok()
            .and_then(|rest| rest.chars().next())
            .unwrap_or(char::REPLACEMENT_CHARACTER)
    }

    fn next_token(&mut self) -> Result<(Tok, Pos), ParseNestError> {
        self.skip_trivia();
        let pos = Pos {
            line: self.line,
            column: self.col,
        };
        let Some(b) = self.peek_byte() else {
            return Ok((Tok::Eof, pos));
        };
        let tok = match b {
            b'[' => {
                self.bump();
                Tok::LBracket
            }
            b']' => {
                self.bump();
                Tok::RBracket
            }
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b',' => {
                self.bump();
                Tok::Comma
            }
            b';' => {
                self.bump();
                Tok::Semi
            }
            b'-' => {
                self.bump();
                Tok::Minus
            }
            b'*' => {
                self.bump();
                Tok::Star
            }
            b'=' => {
                self.bump();
                Tok::Eq
            }
            b'~' => {
                self.bump();
                Tok::Tilde
            }
            b':' => {
                self.bump();
                Tok::Colon
            }
            b'+' => {
                self.bump();
                if self.peek_byte() == Some(b'=') {
                    self.bump();
                    Tok::PlusEq
                } else {
                    Tok::Plus
                }
            }
            b'0'..=b'9' => {
                let mut value: i64 = 0;
                while let Some(d) = self.peek_byte().filter(u8::is_ascii_digit) {
                    value = value
                        .checked_mul(10)
                        .and_then(|v| v.checked_add(i64::from(d - b'0')))
                        .ok_or_else(|| {
                            ParseNestError {
                                line: pos.line,
                                column: pos.column,
                                message: "integer literal overflows i64".into(),
                            }
                        })?;
                    self.bump();
                }
                Tok::Int(value)
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let mut name = String::new();
                while let Some(c) = self
                    .peek_byte()
                    .filter(|c| c.is_ascii_alphanumeric() || *c == b'_')
                {
                    name.push(c as char);
                    self.bump();
                }
                Tok::Ident(name)
            }
            _ => {
                return Err(ParseNestError {
                    line: pos.line,
                    column: pos.column,
                    message: format!(
                        "unexpected character `{}`",
                        self.current_char()
                    ),
                });
            }
        };
        Ok((tok, pos))
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Tok,
    pos: Pos,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, ParseNestError> {
        let mut lexer = Lexer::new(src);
        let (tok, pos) = lexer.next_token()?;
        Ok(Self { lexer, tok, pos })
    }

    fn err(&self, message: impl Into<String>) -> ParseNestError {
        ParseNestError {
            line: self.pos.line,
            column: self.pos.column,
            message: message.into(),
        }
    }

    fn advance(&mut self) -> Result<(), ParseNestError> {
        let (tok, pos) = self.lexer.next_token()?;
        self.tok = tok;
        self.pos = pos;
        Ok(())
    }

    fn expect(&mut self, want: Tok) -> Result<(), ParseNestError> {
        if self.tok == want {
            self.advance()
        } else {
            Err(self.err(format!("expected {want}, found {}", self.tok)))
        }
    }

    fn take_ident(&mut self, what: &str) -> Result<(String, Pos), ParseNestError> {
        match self.tok.clone() {
            Tok::Ident(name) => {
                let pos = self.pos;
                self.advance()?;
                Ok((name, pos))
            }
            other => Err(self.err(format!("expected {what}, found {other}"))),
        }
    }

    fn take_int(&mut self, what: &str) -> Result<i64, ParseNestError> {
        // A leading minus is accepted so "i=-4" fails with a bounds
        // message rather than a token soup.
        let negative = self.tok == Tok::Minus;
        if negative {
            self.advance()?;
        }
        match self.tok {
            Tok::Int(v) => {
                self.advance()?;
                Ok(if negative { -v } else { v })
            }
            ref other => Err(self.err(format!("expected {what}, found {other}"))),
        }
    }

    /// `IDENT "[" expr ("," expr)* "]"`, recording iterator first
    /// appearances into `seen`.
    fn tensor(&mut self, seen: &mut Vec<String>) -> Result<TensorRef, ParseNestError> {
        let (name, pos) = self.take_ident("a tensor name")?;
        self.expect(Tok::LBracket)?;
        let mut indices = vec![self.affine(seen)?];
        while self.tok == Tok::Comma {
            self.advance()?;
            indices.push(self.affine(seen)?);
        }
        self.expect(Tok::RBracket)?;
        Ok(TensorRef { name, indices, pos })
    }

    fn affine(&mut self, seen: &mut Vec<String>) -> Result<AffineExpr, ParseNestError> {
        let mut expr = self.affine_term(seen)?;
        loop {
            match self.tok {
                Tok::Plus => {
                    self.advance()?;
                    expr = expr + self.affine_term(seen)?;
                }
                Tok::Minus => {
                    self.advance()?;
                    expr = expr - self.affine_term(seen)?;
                }
                _ => return Ok(expr),
            }
        }
    }

    fn affine_term(&mut self, seen: &mut Vec<String>) -> Result<AffineExpr, ParseNestError> {
        let mut expr = self.affine_factor(seen)?;
        while self.tok == Tok::Star {
            let at = self.pos;
            self.advance()?;
            let rhs = self.affine_factor(seen)?;
            expr = if rhs.is_constant() {
                expr.scaled(rhs.constant_part())
            } else if expr.is_constant() {
                rhs.scaled(expr.constant_part())
            } else {
                return Err(ParseNestError {
                    line: at.line,
                    column: at.column,
                    message: "non-affine product of two iterator expressions".into(),
                });
            };
        }
        Ok(expr)
    }

    fn affine_factor(&mut self, seen: &mut Vec<String>) -> Result<AffineExpr, ParseNestError> {
        match self.tok.clone() {
            Tok::Int(v) => {
                self.advance()?;
                Ok(AffineExpr::constant(v))
            }
            Tok::Ident(name) => {
                self.advance()?;
                if !seen.contains(&name) {
                    seen.push(name.clone());
                }
                Ok(AffineExpr::var(name))
            }
            Tok::Minus => {
                self.advance()?;
                Ok(-self.affine_factor(seen)?)
            }
            Tok::LParen => {
                self.advance()?;
                let inner = self.affine(seen)?;
                self.expect(Tok::RParen)?;
                Ok(inner)
            }
            other => Err(self.err(format!("expected an index expression, found {other}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement, ParseNestError> {
        let mut iterators = Vec::new();
        let output = self.tensor(&mut iterators)?;
        let accumulate = match self.tok {
            Tok::PlusEq => true,
            Tok::Eq => false,
            ref other => return Err(self.err(format!("expected `+=` or `=`, found {other}"))),
        };
        self.advance()?;
        let mut inputs = vec![self.tensor(&mut iterators)?];
        while self.tok == Tok::Star {
            self.advance()?;
            inputs.push(self.tensor(&mut iterators)?);
        }
        let mut order = None;
        if self.tok == Tok::Tilde {
            self.advance()?;
            let mut names = Vec::new();
            loop {
                match self.tok.clone() {
                    Tok::Ident(name) if name != "where" => {
                        names.push((name, self.pos));
                        self.advance()?;
                        if self.tok == Tok::Comma {
                            self.advance()?;
                        }
                    }
                    _ => break,
                }
            }
            if names.is_empty() {
                return Err(self.err("`~` expects a loop order (iterator names)"));
            }
            order = Some(names);
        }
        let mut extents = std::collections::BTreeMap::new();
        let mut bits = std::collections::BTreeMap::new();
        if matches!(&self.tok, Tok::Ident(w) if w == "where") {
            self.advance()?;
            loop {
                let (name, pos) = self.take_ident("an iterator or array name")?;
                match self.tok {
                    Tok::Eq => {
                        self.advance()?;
                        let v = self.take_int("an iterator extent")?;
                        if v <= 0 {
                            return Err(ParseNestError {
                                line: pos.line,
                                column: pos.column,
                                message: format!("iterator `{name}` has non-positive extent {v}"),
                            });
                        }
                        if extents.insert(name.clone(), (v, pos)).is_some() {
                            return Err(ParseNestError {
                                line: pos.line,
                                column: pos.column,
                                message: format!("iterator `{name}` is bound twice in `where`"),
                            });
                        }
                    }
                    Tok::Colon => {
                        self.advance()?;
                        let v = self.take_int("a bit width")?;
                        if !(1..=64).contains(&v) {
                            return Err(ParseNestError {
                                line: pos.line,
                                column: pos.column,
                                message: format!("array `{name}` has bit width {v} outside 1..=64"),
                            });
                        }
                        if bits.insert(name.clone(), (v as u32, pos)).is_some() {
                            return Err(ParseNestError {
                                line: pos.line,
                                column: pos.column,
                                message: format!("array `{name}` has two bit widths in `where`"),
                            });
                        }
                    }
                    ref other => {
                        return Err(self.err(format!(
                            "expected `=` (iterator extent) or `:` (array bits), found {other}"
                        )))
                    }
                }
                if self.tok == Tok::Comma {
                    self.advance()?;
                } else {
                    break;
                }
            }
        }
        Ok(Statement {
            output,
            accumulate,
            inputs,
            order,
            extents,
            bits,
            iterators,
        })
    }
}

/// Parses an expression program into its statements.
///
/// # Errors
///
/// A [`ParseNestError`] at the first offending token.
///
/// # Examples
///
/// ```
/// use datareuse_exprlang::parse_statements;
///
/// let stmts = parse_statements("S[q,k] += Q[q,d] * K[k,d] where d=16").unwrap();
/// assert_eq!(stmts.len(), 1);
/// assert_eq!(stmts[0].iterators(), ["q", "k", "d"]);
/// assert!(stmts[0].is_accumulate());
/// ```
pub fn parse_statements(src: &str) -> Result<Vec<Statement>, ParseNestError> {
    let mut parser = Parser::new(src)?;
    let mut statements = Vec::new();
    loop {
        while parser.tok == Tok::Semi {
            parser.advance()?;
        }
        if parser.tok == Tok::Eof {
            break;
        }
        statements.push(parser.statement()?);
        match parser.tok {
            Tok::Semi | Tok::Eof => {}
            ref other => {
                return Err(parser.err(format!("expected `;` or end of input, found {other}")))
            }
        }
    }
    if statements.is_empty() {
        return Err(parser.err("expected at least one statement"));
    }
    Ok(statements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_statement_shape() {
        let s = &parse_statements("C[i,j] += A[i,k] * B[k,j] ~ ijk where i=4, j=4, k=4").unwrap()[0];
        assert_eq!(s.output().name(), "C");
        assert_eq!(s.inputs().len(), 2);
        assert_eq!(s.iterators(), ["i", "j", "k"]);
        assert_eq!(s.order.as_ref().unwrap().len(), 1); // `ijk` split during lowering
    }

    #[test]
    fn errors_carry_line_and_column() {
        let e = parse_statements("C[i,j] += A[i,k * B[k,j]").unwrap_err();
        assert_eq!(e.line, 1);
        assert_eq!(e.column, 17, "{e}");
        let e = parse_statements("C[i,j]\n  -= A[i]").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("expected `+=` or `=`"), "{e}");
    }

    #[test]
    fn rejects_nonaffine_products_and_bad_clauses() {
        assert!(parse_statements("C[i] += A[i*i]").unwrap_err().message.contains("non-affine"));
        assert!(parse_statements("C[i] += A[i] where i=0")
            .unwrap_err()
            .message
            .contains("non-positive"));
        assert!(parse_statements("C[i] += A[i] where A:99")
            .unwrap_err()
            .message
            .contains("outside 1..=64"));
        assert!(parse_statements("").is_err());
    }

    #[test]
    fn shifted_and_scaled_indices_parse() {
        let s = &parse_statements("y[n] += x[2*n - t + 63] * h[t]").unwrap()[0];
        let idx = &s.inputs()[0].indices()[0];
        assert_eq!(idx.coeff("n"), 2);
        assert_eq!(idx.coeff("t"), -1);
        assert_eq!(idx.constant_part(), 63);
    }

    #[test]
    fn statements_split_on_semicolons() {
        let stmts = parse_statements("a[i] = b[i]; c[j] += d[j] * e[j];").unwrap();
        assert_eq!(stmts.len(), 2);
        assert!(!stmts[0].is_accumulate());
    }
}
