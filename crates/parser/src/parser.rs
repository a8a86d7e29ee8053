//! Recursive-descent parser for programs of TGDs and facts.
//!
//! Grammar (statements end with `.`):
//!
//! ```text
//! program   := statement*
//! statement := rule | fact
//! rule      := conj "->" conj "."          (body -> head)
//!            | conj ":-" conj "."          (head :- body)
//! conj      := atom ("," atom)*
//! atom      := ident "(" term ("," term)* ")"
//! fact      := atom "."                    (all arguments constant)
//! term      := variable | constant
//! ```
//!
//! Identifiers starting with an uppercase letter, `_`, or `?` are variables;
//! everything else (including quoted strings and numbers) is a constant.
//! Head-only variables are existentially quantified (implicit `∃`, as in the
//! DLGP format used by existential-rule tools).

use crate::error::{ParseError, ParseErrorKind};
use crate::lexer::{is_variable_name, Lexer, Token};
use soct_model::{
    Atom, ConstId, Database, FxHashMap, FxHashSet, Interner, ModelError, PredId, Rgs, Schema,
    Shape, Term, Tgd, VarId,
};

/// A parsed program: rules plus a database of facts, over a shared schema
/// and constant interner.
#[derive(Debug, Default)]
pub struct Program {
    pub schema: Schema,
    pub consts: Interner,
    pub tgds: Vec<Tgd>,
    pub database: Database,
}

impl Program {
    /// Parses a complete program from text.
    pub fn parse(text: &str) -> Result<Program, ParseError> {
        let mut p = Program::default();
        parse_into(
            text,
            &mut p.schema,
            &mut p.consts,
            &mut p.tgds,
            &mut p.database,
        )?;
        Ok(p)
    }
}

/// Parses `text`, accumulating into existing schema/interner/rule/fact
/// collections (so several files can share one vocabulary).
pub fn parse_into(
    text: &str,
    schema: &mut Schema,
    consts: &mut Interner,
    tgds: &mut Vec<Tgd>,
    database: &mut Database,
) -> Result<(), ParseError> {
    parse_accepting(text, schema, consts, tgds, database, Accept::Both)
}

/// Parses a set of TGDs only; the first fact stops the parse with an
/// error at that fact's `.`.
pub fn parse_tgds(
    text: &str,
    schema: &mut Schema,
    consts: &mut Interner,
) -> Result<Vec<Tgd>, ParseError> {
    let mut tgds = Vec::new();
    let mut db = Database::new();
    parse_accepting(text, schema, consts, &mut tgds, &mut db, Accept::Rules)?;
    Ok(tgds)
}

/// Parses a database of facts only; the first rule stops the parse with an
/// error at that rule's `->` or `:-`.
pub fn parse_facts(
    text: &str,
    schema: &mut Schema,
    consts: &mut Interner,
) -> Result<Database, ParseError> {
    let mut tgds = Vec::new();
    let mut db = Database::new();
    parse_accepting(text, schema, consts, &mut tgds, &mut db, Accept::Facts)?;
    Ok(db)
}

/// What a facts file holds for a termination check: its distinct shapes
/// (`shape(D)`, §3) and how many facts it states. The non-empty
/// predicates, all that Algorithm 1 reads, are the shapes' predicates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FactShapes {
    /// The distinct shapes, in the order their first fact was read.
    pub shapes: Vec<Shape>,
    /// Fact atoms read, duplicates counted (`r(a), s(b).` states two).
    pub facts: usize,
}

/// Reads a facts file as shapes only: one pass that validates exactly as
/// [`parse_facts`] does — the same grammar, the same error at the same
/// position for every input, and the same predicates added to `schema` in
/// the same order — but interns no constant and builds no [`Database`].
///
/// A fact's shape depends only on which of its own terms are equal, so it
/// is computed from the borrowed term text, with no allocation per fact
/// (past the first few). A quoted and a bare spelling of one constant
/// (`'a'` and `a`) have the same text, and so compare equal, as interning
/// makes them. The whole text is always read: a malformed fact anywhere
/// fails the read, whatever a check would have needed of it.
pub fn read_shapes(text: &str, schema: &mut Schema) -> Result<FactShapes, ParseError> {
    let mut parser = Parser::new(text, schema, Accept::Facts);
    let mut seen: FxHashSet<Shape> = FxHashSet::default();
    let mut out = FactShapes::default();
    while parser.statement()?.is_some() {
        for (pred, terms) in parser.statement_atoms() {
            let shape = Shape {
                pred,
                rgs: Rgs::of(terms),
            };
            out.facts += 1;
            if !seen.contains(&shape) {
                seen.insert(shape.clone());
                out.shapes.push(shape);
            }
        }
    }
    Ok(out)
}

/// Which statements a parse accepts. A statement of the other kind stops
/// it at the token that decides the kind: a fact's `.`, a rule's `->` or
/// `:-`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Accept {
    Both,
    Rules,
    Facts,
}

/// [`parse_into`] accepting only `accept`'s statements.
fn parse_accepting(
    text: &str,
    schema: &mut Schema,
    consts: &mut Interner,
    tgds: &mut Vec<Tgd>,
    db: &mut Database,
    accept: Accept,
) -> Result<(), ParseError> {
    let mut parser = Parser::new(text, schema, accept);
    // Variables are scoped per statement: name → dense id, numbered in
    // order of first occurrence in the text.
    let mut vars: FxHashMap<&str, u32> = FxHashMap::default();
    while let Some(statement) = parser.statement()? {
        vars.clear();
        let mut atoms: Vec<Atom> = parser
            .statement_atoms()
            .map(|(pred, terms)| {
                let terms = terms
                    .iter()
                    .map(|t| match *t {
                        RawTerm::Var(name) => {
                            let next = vars.len() as u32;
                            Term::Var(VarId(*vars.entry(name).or_insert(next)))
                        }
                        RawTerm::Const(name) => {
                            Term::Const(ConstId::from_symbol(consts.intern(name)))
                        }
                    })
                    .collect();
                Atom::new_unchecked(pred, terms)
            })
            .collect();
        match statement {
            Statement::Facts => {
                for atom in atoms {
                    db.insert(atom);
                }
            }
            Statement::Rule { first, head_first } => {
                let second = atoms.split_off(first);
                let (body, head) = if head_first {
                    (second, atoms)
                } else {
                    (atoms, second)
                };
                tgds.push(Tgd::new(body, head).map_err(|e| parser.model_err(e))?);
            }
        }
    }
    Ok(())
}

/// One term as written: a variable's name, or a constant's text with any
/// quotes stripped.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RawTerm<'a> {
    Var(&'a str),
    Const(&'a str),
}

/// What [`Parser::statement`] read; the atoms are in the parser's buffers.
#[derive(Clone, Copy)]
enum Statement {
    /// A conjunction of facts, all of them ground.
    Facts,
    /// A rule whose first conjunction holds the first `first` atoms; it is
    /// the head when the rule was written `head :- body`.
    Rule { first: usize, head_first: bool },
}

struct Parser<'a, 's> {
    lexer: Lexer<'a>,
    lookahead: Option<Token<'a>>,
    schema: &'s mut Schema,
    accept: Accept,
    /// The current statement's atoms, in text order: the predicate and the
    /// end of the atom's terms in `terms`. Both buffers are reused from
    /// statement to statement.
    atoms: Vec<(PredId, u32)>,
    terms: Vec<RawTerm<'a>>,
}

impl<'a, 's> Parser<'a, 's> {
    fn new(text: &'a str, schema: &'s mut Schema, accept: Accept) -> Self {
        Parser {
            lexer: Lexer::new(text),
            lookahead: None,
            schema,
            accept,
            atoms: Vec::new(),
            terms: Vec::new(),
        }
    }

    /// The atoms [`Parser::statement`] read last, in text order: each
    /// predicate with its terms.
    fn statement_atoms(&self) -> impl Iterator<Item = (PredId, &[RawTerm<'a>])> {
        let mut start = 0;
        self.atoms.iter().map(move |&(pred, end)| {
            let terms = &self.terms[start..end as usize];
            start = end as usize;
            (pred, terms)
        })
    }

    fn peek(&mut self) -> Result<Token<'a>, ParseError> {
        if self.lookahead.is_none() {
            self.lookahead = Some(self.lexer.next_token()?);
        }
        Ok(self.lookahead.unwrap())
    }

    fn advance(&mut self) -> Result<Token<'a>, ParseError> {
        match self.lookahead.take() {
            Some(t) => Ok(t),
            None => self.lexer.next_token(),
        }
    }

    fn error(&self, expected: &'static str, found: String) -> ParseError {
        ParseError::new(
            self.lexer.line(),
            self.lexer.column(),
            ParseErrorKind::Expected { expected, found },
        )
    }

    fn unexpected(&self, expected: &'static str, found: Token<'_>) -> ParseError {
        self.error(expected, found.describe())
    }

    fn expect(&mut self, want: Token<'static>, what: &'static str) -> Result<(), ParseError> {
        let got = self.advance()?;
        if got == want {
            Ok(())
        } else {
            Err(self.unexpected(what, got))
        }
    }

    fn model_err(&self, e: ModelError) -> ParseError {
        ParseError::new(
            self.lexer.line(),
            self.lexer.column(),
            ParseErrorKind::Model(e),
        )
    }

    /// Reads the next statement (rule or fact) into `atoms` and `terms`;
    /// `None` at the end of the input.
    fn statement(&mut self) -> Result<Option<Statement>, ParseError> {
        if self.peek()? == Token::Eof {
            return Ok(None);
        }
        self.atoms.clear();
        self.terms.clear();
        self.conjunction()?;
        let first = self.atoms.len();
        match self.advance()? {
            Token::Period => {
                if self.accept == Accept::Rules {
                    return Err(self.error("rules only", "a fact".to_string()));
                }
                if self.terms.iter().any(|t| matches!(t, RawTerm::Var(_))) {
                    return Err(self.model_err(ModelError::VariableInFact));
                }
                Ok(Some(Statement::Facts))
            }
            arrow @ (Token::Arrow | Token::ColonDash) => {
                if self.accept == Accept::Facts {
                    return Err(self.error("facts only", "a rule".to_string()));
                }
                self.conjunction()?;
                self.expect(Token::Period, "`.`")?;
                Ok(Some(Statement::Rule {
                    first,
                    head_first: arrow == Token::ColonDash,
                }))
            }
            other => Err(self.unexpected("`.`, `->` or `:-`", other)),
        }
    }

    fn conjunction(&mut self) -> Result<(), ParseError> {
        self.atom()?;
        while self.peek()? == Token::Comma {
            self.advance()?;
            self.atom()?;
        }
        Ok(())
    }

    fn atom(&mut self) -> Result<(), ParseError> {
        let name = match self.advance()? {
            Token::Ident(s) => s,
            other => return Err(self.unexpected("a predicate name", other)),
        };
        self.expect(Token::LParen, "`(`")?;
        let start = self.terms.len();
        loop {
            let term = match self.advance()? {
                Token::Ident(s) if is_variable_name(s) => RawTerm::Var(s),
                Token::Ident(s) | Token::Quoted(s) => RawTerm::Const(s),
                other => return Err(self.unexpected("a term", other)),
            };
            self.terms.push(term);
            match self.advance()? {
                Token::Comma => continue,
                Token::RParen => break,
                other => return Err(self.unexpected("`,` or `)`", other)),
            }
        }
        let pred = self
            .schema
            .add_predicate(name, self.terms.len() - start)
            .map_err(|e| self.model_err(e))?;
        self.atoms.push((pred, self.terms.len() as u32));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soct_model::TgdClass;

    #[test]
    fn parses_rules_and_facts() {
        let p = Program::parse(
            "% the running example of §3\n\
             r(a, b).\n\
             r(X, Y) -> r(Y, Z).\n",
        )
        .unwrap();
        assert_eq!(p.tgds.len(), 1);
        assert_eq!(p.database.len(), 1);
        let tgd = &p.tgds[0];
        assert!(tgd.is_simple_linear());
        assert_eq!(tgd.frontier().len(), 1);
        assert_eq!(tgd.existential().len(), 1);
    }

    #[test]
    fn datalog_orientation_swaps_body_and_head() {
        // The two spellings are alpha-equivalent; the writer renumbers
        // variables in body-first order, so the rendered forms coincide.
        let a = Program::parse("s(Y, Z) :- r(X, Y).").unwrap();
        let b = Program::parse("r(X, Y) -> s(Y, Z).").unwrap();
        let ra = crate::writer::write_tgds(&a.tgds, &a.schema, &a.consts);
        let rb = crate::writer::write_tgds(&b.tgds, &b.schema, &b.consts);
        assert_eq!(ra, rb);
    }

    #[test]
    fn variables_scoped_per_rule() {
        let p = Program::parse("r(X) -> s(X).\nr(X) -> t(X).").unwrap();
        assert_eq!(p.tgds[0].frontier(), p.tgds[1].frontier());
    }

    #[test]
    fn multi_atom_conjunctions() {
        let p = Program::parse("r(X, Y), s(Y) -> t(X), u(X, Y).").unwrap();
        let tgd = &p.tgds[0];
        assert_eq!(tgd.body().len(), 2);
        assert_eq!(tgd.head().len(), 2);
        assert_eq!(tgd.class(), TgdClass::General);
    }

    #[test]
    fn fact_conjunction_inserts_all() {
        let p = Program::parse("r(a, b), r(b, c).").unwrap();
        assert_eq!(p.database.len(), 2);
    }

    #[test]
    fn repeated_body_variable_is_linear() {
        let p = Program::parse("r(X, X) -> r(Z, X).").unwrap();
        assert_eq!(p.tgds[0].class(), TgdClass::Linear);
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let err = Program::parse("r(a, b).\nr(a).").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Model(_)), "{err}");
    }

    #[test]
    fn variables_in_facts_are_rejected() {
        let err = Program::parse("r(X, b).").unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::Model(soct_model::ModelError::VariableInFact)
        ));
    }

    #[test]
    fn parse_tgds_rejects_facts_and_vice_versa() {
        let mut s = Schema::new();
        let mut c = Interner::new();
        assert!(parse_tgds("r(a).", &mut s, &mut c).is_err());
        let mut s2 = Schema::new();
        let mut c2 = Interner::new();
        assert!(parse_facts("r(X) -> s(X).", &mut s2, &mut c2).is_err());
        let mut s3 = Schema::new();
        let mut c3 = Interner::new();
        assert_eq!(
            parse_facts("r(a). r(b).", &mut s3, &mut c3).unwrap().len(),
            2
        );
    }

    #[test]
    fn a_rule_in_a_facts_file_is_reported_at_its_arrow() {
        // The parse stops there: the malformed last line is never reached.
        let text = "r(a, b).\nr(b, c).\nr(X, Y) -> r(Y, Z).\nr(a,";
        let err = parse_facts(text, &mut Schema::new(), &mut Interner::new()).unwrap_err();
        assert_eq!(err.to_string(), "3:11: expected facts only, found `a rule`");
        let datalog = parse_facts(
            "r(a).\n  s(X) :- r(X).",
            &mut Schema::new(),
            &mut Interner::new(),
        );
        assert_eq!(
            datalog.unwrap_err().to_string(),
            "2:10: expected facts only, found `a rule`"
        );
        let shapes = read_shapes(text, &mut Schema::new()).unwrap_err();
        assert_eq!(shapes, err);
    }

    #[test]
    fn a_fact_in_a_rules_file_is_reported_at_its_period() {
        let text = "r(X, Y) -> s(Y).\n  % a comment\n  s(a).\ns(X) -> ";
        let err = parse_tgds(text, &mut Schema::new(), &mut Interner::new()).unwrap_err();
        assert_eq!(err.to_string(), "3:8: expected rules only, found `a fact`");
        // A variable does not make a fact a rule.
        let err = parse_tgds("r(X).", &mut Schema::new(), &mut Interner::new()).unwrap_err();
        assert_eq!(err.to_string(), "1:6: expected rules only, found `a fact`");
    }

    #[test]
    fn read_shapes_keeps_first_read_order_and_counts_duplicates() {
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 3).unwrap();
        let text = "% shapes\nr(a, 'a', b).\nr(c, c, d), s(x).\nr(a, b, c).\nr(\"e\", e, f).\n";
        let read = read_shapes(text, &mut schema).unwrap();
        assert_eq!(read.facts, 5);
        let s = schema.pred_by_name("s").unwrap();
        assert_eq!(
            read.shapes,
            vec![
                Shape {
                    pred: r,
                    rgs: Rgs::canonicalize(&[1, 1, 2])
                },
                Shape {
                    pred: s,
                    rgs: Rgs::identity(1)
                },
                Shape {
                    pred: r,
                    rgs: Rgs::identity(3)
                },
            ]
        );
    }

    #[test]
    fn read_shapes_rejects_what_parse_facts_rejects() {
        for text in [
            "r(a, b).\nr(a).",
            "r(a, X).",
            "r(a) -> s(a).",
            "r(a)\ns(b).",
            "r(a). s('b",
        ] {
            let parsed = parse_facts(text, &mut Schema::new(), &mut Interner::new()).unwrap_err();
            let read = read_shapes(text, &mut Schema::new()).unwrap_err();
            assert_eq!(read, parsed, "{text:?}");
        }
    }

    #[test]
    fn quoted_and_numeric_constants() {
        let p = Program::parse("r('hello world', 42).").unwrap();
        assert_eq!(p.database.len(), 1);
        assert_eq!(p.consts.len(), 2);
        assert!(p.consts.get("hello world").is_some());
        assert!(p.consts.get("42").is_some());
    }

    #[test]
    fn error_positions_are_reported() {
        let err = Program::parse("r(a)\ns(b).").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn shared_vocabulary_across_calls() {
        let mut schema = Schema::new();
        let mut consts = Interner::new();
        let tgds = parse_tgds("r(X, Y) -> s(Y).", &mut schema, &mut consts).unwrap();
        let db = parse_facts("r(a, b).", &mut schema, &mut consts).unwrap();
        assert_eq!(tgds.len(), 1);
        assert_eq!(db.len(), 1);
        assert_eq!(schema.len(), 2);
        // The fact and the rule body share the predicate id.
        assert_eq!(db.atoms()[0].pred, tgds[0].body()[0].pred);
    }
}
