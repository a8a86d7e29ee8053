//! # soct-parser
//!
//! Text format for existential-rule programs: a fast byte-level lexer, a
//! recursive-descent parser, a reader that takes a facts file as its
//! shapes alone ([`read_shapes`]), and a writer that round-trips. The
//! format is DLGP-flavoured: `body -> head.` (or Datalog-oriented
//! `head :- body.`), facts `r(a,b).`, implicit existential quantification
//! of head-only variables, `%`/`#` line comments.
//!
//! Parsing speed matters: `t-parse` is one of the time parameters the paper
//! reports for rule sets of up to one million TGDs (§7).

pub mod error;
pub mod lexer;
pub mod parser;
pub mod writer;

pub use error::{ParseError, ParseErrorKind};
pub use parser::{parse_facts, parse_into, parse_tgds, read_shapes, FactShapes, Program};
pub use writer::{write_facts, write_program, write_tgd, write_tgds};
