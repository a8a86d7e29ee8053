//! A byte-level lexer for the rule/fact format.
//!
//! Parsing time (`t-parse`) is one of the quantities the paper measures for
//! sets of up to one million TGDs (§7), so the lexer avoids allocation:
//! identifiers are returned as slices of the input.

use crate::error::{ParseError, ParseErrorKind};

/// A lexical token. Identifier payloads borrow from the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token<'a> {
    /// Bare identifier: predicate, constant, or variable, depending on the
    /// leading character (`A–Z`/`_`/`?` ⇒ variable).
    Ident(&'a str),
    /// Quoted constant (quotes stripped).
    Quoted(&'a str),
    LParen,
    RParen,
    Comma,
    Period,
    /// `->` (body on the left).
    Arrow,
    /// `:-` (head on the left, Datalog orientation).
    ColonDash,
    Eof,
}

impl Token<'_> {
    /// Human-readable rendering for error messages.
    pub fn describe(&self) -> String {
        match self {
            Token::Ident(s) => (*s).to_string(),
            Token::Quoted(s) => format!("'{s}'"),
            Token::LParen => "(".into(),
            Token::RParen => ")".into(),
            Token::Comma => ",".into(),
            Token::Period => ".".into(),
            Token::Arrow => "->".into(),
            Token::ColonDash => ":-".into(),
            Token::Eof => "end of input".into(),
        }
    }
}

/// Streaming lexer over a source string.
pub struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    line: u32,
    line_start: usize,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            text: src,
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            line_start: 0,
        }
    }

    /// Current 1-based line.
    pub fn line(&self) -> u32 {
        self.line
    }

    /// Current 1-based column.
    pub fn column(&self) -> u32 {
        (self.pos - self.line_start) as u32 + 1
    }

    fn error(&self, kind: ParseErrorKind) -> ParseError {
        ParseError::new(self.line, self.column(), kind)
    }

    fn bump_line(&mut self) {
        self.line += 1;
        self.line_start = self.pos;
    }

    fn skip_trivia(&mut self) {
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\n' => {
                    self.pos += 1;
                    self.bump_line();
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'%' | b'#' => {
                    // Line comment.
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    /// Produces the next token.
    pub fn next_token(&mut self) -> Result<Token<'a>, ParseError> {
        self.skip_trivia();
        if self.pos >= self.src.len() {
            return Ok(Token::Eof);
        }
        let b = self.src[self.pos];
        match b {
            b'(' => {
                self.pos += 1;
                Ok(Token::LParen)
            }
            b')' => {
                self.pos += 1;
                Ok(Token::RParen)
            }
            b',' => {
                self.pos += 1;
                Ok(Token::Comma)
            }
            b'.' => {
                self.pos += 1;
                Ok(Token::Period)
            }
            b'-' => {
                if self.src.get(self.pos + 1) == Some(&b'>') {
                    self.pos += 2;
                    Ok(Token::Arrow)
                } else {
                    Err(self.error(ParseErrorKind::UnexpectedChar('-')))
                }
            }
            b':' => {
                if self.src.get(self.pos + 1) == Some(&b'-') {
                    self.pos += 2;
                    Ok(Token::ColonDash)
                } else {
                    Err(self.error(ParseErrorKind::UnexpectedChar(':')))
                }
            }
            b'\'' | b'"' => {
                let quote = b;
                let start = self.pos + 1;
                let mut end = start;
                while end < self.src.len() && self.src[end] != quote {
                    if self.src[end] == b'\n' {
                        return Err(self.error(ParseErrorKind::UnterminatedQuote));
                    }
                    end += 1;
                }
                if end >= self.src.len() {
                    return Err(self.error(ParseErrorKind::UnterminatedQuote));
                }
                self.pos = end + 1;
                // Both ends sit next to an ASCII quote byte, so they are
                // char boundaries of the text.
                Ok(Token::Quoted(&self.text[start..end]))
            }
            c if is_ident_start(c) => {
                let start = self.pos;
                let mut end = self.pos + 1;
                while end < self.src.len() && is_ident_continue(self.src[end]) {
                    end += 1;
                }
                self.pos = end;
                // Identifier bytes are ASCII, so both ends are char
                // boundaries of the text.
                Ok(Token::Ident(&self.text[start..end]))
            }
            other => Err(self.error(ParseErrorKind::UnexpectedChar(other as char))),
        }
    }
}

#[inline]
fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'?'
}

#[inline]
fn is_ident_continue(b: u8) -> bool {
    // `#` continues identifiers so that derived shape-predicate names like
    // `r#1_2` round-trip; a `#` can still *start* a comment because comments
    // are recognised in trivia position, never mid-identifier.
    b.is_ascii_alphanumeric() || b == b'_' || b == b'#'
}

/// True if an identifier names a variable (`A–Z`, `_`, or `?` prefix).
pub fn is_variable_name(s: &str) -> bool {
    matches!(s.as_bytes().first(), Some(c) if c.is_ascii_uppercase() || *c == b'_' || *c == b'?')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex_all(src: &str) -> Vec<String> {
        let mut lx = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let t = lx.next_token().unwrap();
            if t == Token::Eof {
                break;
            }
            out.push(t.describe());
        }
        out
    }

    #[test]
    fn lexes_rule_syntax() {
        let toks = lex_all("r(X, y) -> s(y, Z).");
        assert_eq!(
            toks,
            vec!["r", "(", "X", ",", "y", ")", "->", "s", "(", "y", ",", "Z", ")", "."]
        );
    }

    #[test]
    fn lexes_datalog_orientation() {
        let toks = lex_all("s(Y) :- r(X, Y).");
        assert_eq!(toks[..2], ["s".to_string(), "(".to_string()]);
        assert!(toks.contains(&":-".to_string()));
    }

    #[test]
    fn comments_and_whitespace_are_skipped() {
        let toks = lex_all("% a comment\n  r(a). # another\nr(b).");
        assert_eq!(toks.len(), 10);
    }

    #[test]
    fn quoted_constants() {
        let toks = lex_all("r('hello world', \"two\").");
        assert_eq!(toks[2], "'hello world'");
        assert_eq!(toks[4], "'two'");
    }

    #[test]
    fn unterminated_quote_errors() {
        let mut lx = Lexer::new("r('oops");
        lx.next_token().unwrap();
        lx.next_token().unwrap();
        assert!(lx.next_token().is_err());
    }

    #[test]
    fn line_tracking() {
        let mut lx = Lexer::new("r(a).\n s(b).");
        for _ in 0..5 {
            lx.next_token().unwrap();
        }
        assert_eq!(lx.line(), 1);
        lx.next_token().unwrap();
        assert_eq!(lx.line(), 2);
    }

    #[test]
    fn variable_name_classification() {
        assert!(is_variable_name("X"));
        assert!(is_variable_name("_y"));
        assert!(is_variable_name("?z"));
        assert!(!is_variable_name("x"));
        assert!(!is_variable_name("1a"));
    }

    #[test]
    fn bad_characters_error_with_position() {
        let mut lx = Lexer::new("r(a)!");
        for _ in 0..4 {
            lx.next_token().unwrap();
        }
        let err = lx.next_token().unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.column, 5);
    }
}
