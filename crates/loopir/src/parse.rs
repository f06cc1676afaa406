//! A small text DSL for loop-dominated kernels.
//!
//! The prototype tool of the paper takes "the loop and index expression
//! parameters as input"; this module provides the equivalent front end: a
//! human-writable description of arrays and perfectly nested loops that
//! parses into a [`Program`].
//!
//! # Grammar
//!
//! ```text
//! program  := (array | nest)*
//! array    := "array" IDENT ("[" expr "]")+ ("bits" INT)? ";"
//! nest     := loop
//! loop     := "for" IDENT "in" expr (".." | "..=") expr ("step" INT)? "{" body "}"
//! body     := loop | access+
//! access   := ("read" | "write") IDENT ("[" expr "]")+ ("if" cond)? ";"
//! cond     := expr ("=="|"!="|"<"|"<="|">"|">=") expr
//! expr     := affine arithmetic over iterators: +, -, *, parentheses
//! ```
//!
//! `a..b` is exclusive at the top (Rust-style), `a..=b` inclusive (the
//! paper's `jL..jU`). Comments run from `#` or `//` to end of line.
//!
//! # Examples
//!
//! ```
//! use datareuse_loopir::parse_program;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "array A[23] bits 8;
//!      for j in 0..16 {
//!        for k in 0..8 {
//!          read A[j + k];
//!        }
//!      }",
//! )?;
//! assert_eq!(program.nests().len(), 1);
//! assert_eq!(program.nests()[0].depth(), 2);
//! # Ok(())
//! # }
//! ```

use crate::error::ParseNestError;
use crate::expr::AffineExpr;
use crate::nest::{Access, ArrayDecl, CmpOp, Guard, Loop, LoopNest, Program};

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    LParen,
    RParen,
    Semi,
    Plus,
    Minus,
    Star,
    DotDot,
    DotDotEq,
    AndAnd,
    Cmp(CmpOp),
    Eof,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(v) => write!(f, "integer `{v}`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Star => write!(f, "`*`"),
            Tok::DotDot => write!(f, "`..`"),
            Tok::DotDotEq => write!(f, "`..=`"),
            Tok::AndAnd => write!(f, "`&&`"),
            Tok::Cmp(op) => write!(f, "`{op}`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Pos {
    line: usize,
    column: usize,
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
        let err = |p: Pos, m: String| ParseNestError::new(p.line, p.column, m);
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
            b'{' => {
                self.bump();
                Tok::LBrace
            }
            b'}' => {
                self.bump();
                Tok::RBrace
            }
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b';' => {
                self.bump();
                Tok::Semi
            }
            b'+' => {
                self.bump();
                Tok::Plus
            }
            b'-' => {
                self.bump();
                Tok::Minus
            }
            b'*' => {
                self.bump();
                Tok::Star
            }
            b'.' => {
                self.bump();
                if self.peek_byte() != Some(b'.') {
                    return Err(err(pos, "expected `..`".into()));
                }
                self.bump();
                if self.peek_byte() == Some(b'=') {
                    self.bump();
                    Tok::DotDotEq
                } else {
                    Tok::DotDot
                }
            }
            b'&' => {
                self.bump();
                if self.peek_byte() == Some(b'&') {
                    self.bump();
                    Tok::AndAnd
                } else {
                    return Err(err(pos, "expected `&&`".into()));
                }
            }
            b'=' => {
                self.bump();
                if self.peek_byte() == Some(b'=') {
                    self.bump();
                    Tok::Cmp(CmpOp::Eq)
                } else {
                    return Err(err(pos, "expected `==`".into()));
                }
            }
            b'!' => {
                self.bump();
                if self.peek_byte() == Some(b'=') {
                    self.bump();
                    Tok::Cmp(CmpOp::Ne)
                } else {
                    return Err(err(pos, "expected `!=`".into()));
                }
            }
            b'<' => {
                self.bump();
                if self.peek_byte() == Some(b'=') {
                    self.bump();
                    Tok::Cmp(CmpOp::Le)
                } else {
                    Tok::Cmp(CmpOp::Lt)
                }
            }
            b'>' => {
                self.bump();
                if self.peek_byte() == Some(b'=') {
                    self.bump();
                    Tok::Cmp(CmpOp::Ge)
                } else {
                    Tok::Cmp(CmpOp::Gt)
                }
            }
            b'0'..=b'9' => {
                let mut v: i64 = 0;
                while let Some(d) = self.peek_byte().filter(u8::is_ascii_digit) {
                    v = v
                        .checked_mul(10)
                        .and_then(|v| v.checked_add((d - b'0') as i64))
                        .ok_or_else(|| err(pos, "integer literal overflows i64".into()))?;
                    self.bump();
                }
                Tok::Int(v)
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = self.at;
                while matches!(self.peek_byte(), Some(c) if c.is_ascii_alphanumeric() || c == b'_')
                {
                    self.bump();
                }
                Tok::Ident(String::from_utf8_lossy(&self.src[start..self.at]).into_owned())
            }
            _ => {
                let ch = self.current_char();
                return Err(err(pos, format!("unexpected character `{ch}`")));
            }
        };
        Ok((tok, pos))
    }
}

struct Parser {
    toks: Vec<(Tok, Pos)>,
    at: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self, ParseNestError> {
        let mut lexer = Lexer::new(src);
        let mut toks = Vec::new();
        loop {
            let (tok, pos) = lexer.next_token()?;
            let eof = tok == Tok::Eof;
            toks.push((tok, pos));
            if eof {
                break;
            }
        }
        Ok(Self { toks, at: 0 })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.at].0
    }

    fn pos(&self) -> Pos {
        self.toks[self.at].1
    }

    fn bump(&mut self) -> Tok {
        let tok = self.toks[self.at].0.clone();
        if self.at + 1 < self.toks.len() {
            self.at += 1;
        }
        tok
    }

    fn error(&self, message: impl Into<String>) -> ParseNestError {
        let p = self.pos();
        ParseNestError::new(p.line, p.column, message)
    }

    fn expect(&mut self, want: Tok) -> Result<(), ParseNestError> {
        if *self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {want}, found {}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseNestError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseNestError> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => Err(self.error(format!("expected `{kw}`, found {other}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn parse_program(&mut self) -> Result<Program, ParseNestError> {
        let mut program = Program::new();
        loop {
            if *self.peek() == Tok::Eof {
                return Ok(program);
            }
            if self.at_keyword("array") {
                let decl = self.parse_array()?;
                let pos = self.pos();
                program
                    .declare(decl)
                    .map_err(|e| ParseNestError::new(pos.line, pos.column, e.to_string()))?;
            } else if self.at_keyword("for") {
                let pos = self.pos();
                let nest = self.parse_nest()?;
                program
                    .push_nest(nest)
                    .map_err(|e| ParseNestError::new(pos.line, pos.column, e.to_string()))?;
            } else {
                return Err(self.error(format!(
                    "expected `array` or `for`, found {}",
                    self.peek()
                )));
            }
        }
    }

    fn parse_array(&mut self) -> Result<ArrayDecl, ParseNestError> {
        self.expect_keyword("array")?;
        let name = self.expect_ident()?;
        let mut extents = Vec::new();
        while *self.peek() == Tok::LBracket {
            self.bump();
            extents.push(self.parse_const_expr()?);
            self.expect(Tok::RBracket)?;
        }
        if extents.is_empty() {
            return Err(self.error("array needs at least one `[extent]`"));
        }
        let mut bits = 8u32;
        if self.at_keyword("bits") {
            self.bump();
            match self.bump() {
                Tok::Int(v) if (1..=1024).contains(&v) => bits = v as u32,
                other => return Err(self.error(format!("expected bit width, found {other}"))),
            }
        }
        let pos = self.pos();
        self.expect(Tok::Semi)?;
        ArrayDecl::new(name, extents, bits)
            .map_err(|e| ParseNestError::new(pos.line, pos.column, e.to_string()))
    }

    fn parse_nest(&mut self) -> Result<LoopNest, ParseNestError> {
        let mut loops = Vec::new();
        let accesses = self.parse_loop_chain(&mut loops)?;
        Ok(LoopNest::new(loops, accesses))
    }

    fn parse_loop_chain(&mut self, loops: &mut Vec<Loop>) -> Result<Vec<Access>, ParseNestError> {
        self.expect_keyword("for")?;
        let name = self.expect_ident()?;
        self.expect_keyword("in")?;
        let lower = self.parse_const_expr()?;
        let inclusive = match self.bump() {
            Tok::DotDot => false,
            Tok::DotDotEq => true,
            other => return Err(self.error(format!("expected `..` or `..=`, found {other}"))),
        };
        let raw_upper = self.parse_const_expr()?;
        let upper = if inclusive { raw_upper } else { raw_upper - 1 };
        let mut step = 1i64;
        if self.at_keyword("step") {
            self.bump();
            step = self.parse_const_expr()?;
        }
        let pos = self.pos();
        let l = Loop::try_with_step(name, lower, upper, step)
            .map_err(|e| ParseNestError::new(pos.line, pos.column, e.to_string()))?;
        loops.push(l);
        self.expect(Tok::LBrace)?;
        let accesses = if self.at_keyword("for") {
            let inner = self.parse_loop_chain(loops)?;
            self.expect(Tok::RBrace)?;
            inner
        } else {
            let mut accesses = Vec::new();
            while self.at_keyword("read") || self.at_keyword("write") {
                accesses.push(self.parse_access()?);
            }
            if accesses.is_empty() {
                return Err(self.error(format!(
                    "loop body must contain a nested `for` or accesses, found {}",
                    self.peek()
                )));
            }
            self.expect(Tok::RBrace)?;
            accesses
        };
        Ok(accesses)
    }

    fn parse_access(&mut self) -> Result<Access, ParseNestError> {
        let is_read = self.at_keyword("read");
        self.bump();
        let array = self.expect_ident()?;
        let mut indices = Vec::new();
        while *self.peek() == Tok::LBracket {
            self.bump();
            indices.push(self.parse_expr()?);
            self.expect(Tok::RBracket)?;
        }
        if indices.is_empty() {
            return Err(self.error("access needs at least one `[index]`"));
        }
        let mut access = if is_read {
            Access::read(array, indices)
        } else {
            Access::write(array, indices)
        };
        if self.at_keyword("if") {
            loop {
                self.bump();
                let lhs = self.parse_expr()?;
                let op = match self.bump() {
                    Tok::Cmp(op) => op,
                    other => {
                        return Err(self.error(format!("expected comparison, found {other}")))
                    }
                };
                let rhs = self.parse_expr()?;
                access = access.with_guard(Guard::new(lhs, op, rhs));
                if *self.peek() != Tok::AndAnd {
                    break;
                }
            }
        }
        self.expect(Tok::Semi)?;
        Ok(access)
    }

    fn parse_const_expr(&mut self) -> Result<i64, ParseNestError> {
        let e = self.parse_expr()?;
        if e.is_constant() {
            Ok(e.constant_part())
        } else {
            Err(self.error("expected a constant expression"))
        }
    }

    fn parse_expr(&mut self) -> Result<AffineExpr, ParseNestError> {
        let mut acc = self.parse_term()?;
        loop {
            match self.peek() {
                Tok::Plus => {
                    self.bump();
                    acc = acc + self.parse_term()?;
                }
                Tok::Minus => {
                    self.bump();
                    acc = acc - self.parse_term()?;
                }
                _ => return Ok(acc),
            }
        }
    }

    fn parse_term(&mut self) -> Result<AffineExpr, ParseNestError> {
        let mut acc = self.parse_factor()?;
        while *self.peek() == Tok::Star {
            self.bump();
            let rhs = self.parse_factor()?;
            acc = match (acc.is_constant(), rhs.is_constant()) {
                (true, _) => rhs.scaled(acc.constant_part()),
                (_, true) => acc.scaled(rhs.constant_part()),
                (false, false) => {
                    return Err(self.error("non-affine product of two iterator expressions"));
                }
            };
        }
        Ok(acc)
    }

    fn parse_factor(&mut self) -> Result<AffineExpr, ParseNestError> {
        match self.bump() {
            Tok::Int(v) => Ok(AffineExpr::constant(v)),
            Tok::Ident(name) => Ok(AffineExpr::var(name)),
            Tok::Minus => Ok(-self.parse_factor()?),
            Tok::LParen => {
                let e = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            other => Err(self.error(format!("expected expression, found {other}"))),
        }
    }
}

/// Parses a DSL source string into a validated [`Program`].
///
/// # Errors
///
/// Returns a [`ParseNestError`] with line/column information on the first
/// lexical, syntactic or semantic (validation) error.
pub fn parse_program(src: &str) -> Result<Program, ParseNestError> {
    Parser::new(src)?.parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::AccessKind;

    #[test]
    fn parses_motion_estimation_shape() {
        let src = "
            # QCIF frame
            array Old[159][191] bits 8;
            array New[144][176] bits 8;
            for i1 in 0..18 {
              for i2 in 0..22 {
                for i3 in 0..16 {
                  for i4 in 0..16 {
                    for i5 in 0..8 {
                      for i6 in 0..8 {
                        read New[8*i1 + i5][8*i2 + i6];
                        read Old[8*i1 + i3 + i5][8*i2 + i4 + i6];
                      }
                    }
                  }
                }
              }
            }";
        let p = parse_program(src).expect("parse");
        assert_eq!(p.arrays().len(), 2);
        assert_eq!(p.nests().len(), 1);
        let nest = &p.nests()[0];
        assert_eq!(nest.depth(), 6);
        assert_eq!(nest.accesses().len(), 2);
        let old = &nest.accesses()[1];
        assert_eq!(old.indices()[0].coeff("i1"), 8);
        assert_eq!(old.indices()[0].coeff("i3"), 1);
        assert_eq!(old.indices()[1].coeff("i4"), 1);
    }

    #[test]
    fn inclusive_and_exclusive_ranges() {
        let p = parse_program("array A[10]; for i in 0..=4 { read A[i]; }").unwrap();
        assert_eq!(p.nests()[0].loops()[0].upper(), 4);
        let q = parse_program("array A[10]; for i in 0..4 { read A[i]; }").unwrap();
        assert_eq!(q.nests()[0].loops()[0].upper(), 3);
    }

    #[test]
    fn steps_and_negative_bounds() {
        let p = parse_program("array A[20]; for i in -2..=8 step 2 { read A[i + 2]; }").unwrap();
        let l = &p.nests()[0].loops()[0];
        assert_eq!((l.lower(), l.upper(), l.step()), (-2, 8, 2));
    }

    #[test]
    fn guards_and_writes() {
        let p = parse_program(
            "array A[8]; array B[8];
             for i in 0..8 { read A[i] if i != 3; write B[7 - i]; }",
        )
        .unwrap();
        let nest = &p.nests()[0];
        assert!(!nest.accesses()[0].guards().is_empty());
        assert_eq!(nest.accesses()[1].kind(), AccessKind::Write);
        assert_eq!(nest.accesses()[1].indices()[0].coeff("i"), -1);
    }

    #[test]
    fn errors_carry_positions() {
        let e = parse_program("array A[4];\nfor i in 0..4 {\n  bogus;\n}").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn rejects_nonaffine_products() {
        let e = parse_program("array A[100]; for i in 0..4 { read A[i*i]; }").unwrap_err();
        assert!(e.message.contains("non-affine"));
    }

    #[test]
    fn rejects_out_of_bounds_access() {
        let e = parse_program("array A[3]; for i in 0..4 { read A[i]; }").unwrap_err();
        assert!(e.message.contains("outside"));
    }

    #[test]
    fn rejects_unterminated_constructs() {
        assert!(parse_program("array A[4]").is_err());
        assert!(parse_program("for i in 0..4 {").is_err());
        assert!(parse_program("array A[4]; for i in 0 .= 4 { read A[i]; }").is_err());
    }

    #[test]
    fn parenthesized_affine_arithmetic() {
        let p =
            parse_program("array A[40]; for i in 0..4 { read A[2*(i + 3) + (7 - i)]; }").unwrap();
        let idx = &p.nests()[0].accesses()[0].indices()[0];
        assert_eq!(idx.coeff("i"), 1);
        assert_eq!(idx.constant_part(), 13);
    }

    #[test]
    fn sibling_nests_parse_as_series() {
        let p = parse_program(
            "array I[16];
             for a in 0..4 { read I[a]; }
             for b in 0..4 { read I[b + 4]; }",
        )
        .unwrap();
        assert_eq!(p.nests().len(), 2);
    }
}
