//! Property test: the shape-only fact reader (`read_shapes`) against the
//! full parser (`parse_facts`). On random fact texts, and on random
//! truncations and mutations of them, both accept or both reject; they
//! reject with the identical error, and they accept with the same
//! `shape(D)` over an identical schema. The texts spell one constant both
//! quoted and bare, mix in comments, duplicates and `r(a), s(b).`
//! conjunctions, and share predicates with a rule file read first.
//! A failing seed is checked in to `proptest-regressions/fact_reader.txt`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use soct::model::shape::shapes_of_instance;
use soct::parser::read_shapes;
use soct::prelude::*;

/// The rules read before the facts: their predicates `r/3`, `s/2` and
/// `t/1` are shared with the facts, which add `u/4`.
const RULES: &str = "r(X, Y, Z) -> s(Y, W).\ns(X, Y) -> t(X).\n";

const PREDICATES: [(&str, usize); 4] = [("r", 3), ("s", 2), ("t", 1), ("u", 4)];

/// Constants as they may be spelled: bare, single- or double-quoted. The
/// last two only have quoted spellings.
const CONSTANTS: [&str; 7] = ["a", "b", "c7", "42", "x_y", "a b", "it's"];

fn spell(rng: &mut StdRng, name: &str) -> String {
    let bare_ok = name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_');
    match rng.random_range(0..3u8) {
        0 if bare_ok => name.to_string(),
        1 if !name.contains('\'') => format!("'{name}'"),
        _ => format!("\"{name}\""),
    }
}

/// A random facts text over [`PREDICATES`], and the number of fact atoms
/// it states.
fn facts_text(rng: &mut StdRng) -> (String, usize) {
    let mut text = String::new();
    let mut atoms = 0;
    for _ in 0..rng.random_range(0..25u8) {
        match rng.random_range(0..8u8) {
            0 => text.push_str("% a comment, with (parens) and r(X).\n"),
            1 => text.push_str("  # another -> one\n\n"),
            _ => {}
        }
        let conj = rng.random_range(1..4usize);
        for j in 0..conj {
            if j > 0 {
                text.push_str(if rng.random_bool(0.5) { ", " } else { ",\n  " });
            }
            let (pred, arity) = PREDICATES[rng.random_range(0..PREDICATES.len())];
            // A small pool per atom, so repeated terms are common.
            let pool = rng.random_range(1..=arity);
            let terms: Vec<String> = (0..arity)
                .map(|_| {
                    let c = CONSTANTS[rng.random_range(0..pool.min(CONSTANTS.len()))];
                    spell(rng, c)
                })
                .collect();
            text.push_str(&format!("{pred}({})", terms.join(", ")));
        }
        atoms += conj;
        text.push_str(if rng.random_bool(0.8) { ".\n" } else { ". " });
    }
    (text, atoms)
}

/// Fragments a mutation may insert: variables, stray punctuation, arrows,
/// an open quote, a comment start, and whole atoms of a clashing arity.
const FRAGMENTS: [&str; 14] = [
    "X", "(", ")", ",", ".", "->", ":-", "'", "%", " ", "\n", "r(a)", "s(X)", "t(a, b)",
];

/// `text` truncated, or with one fragment inserted, replaced or deleted,
/// or with a rule appended; unchanged one time in six.
fn mangle(rng: &mut StdRng, text: &str) -> String {
    let boundaries: Vec<usize> = (0..=text.len())
        .filter(|&i| text.is_char_boundary(i))
        .collect();
    let at = boundaries[rng.random_range(0..boundaries.len())];
    let next = boundaries
        .iter()
        .copied()
        .find(|&i| i > at)
        .unwrap_or(text.len());
    let fragment = FRAGMENTS[rng.random_range(0..FRAGMENTS.len())];
    match rng.random_range(0..6u8) {
        0 => text.to_string(),
        1 => text[..at].to_string(),
        2 => format!("{}{fragment}{}", &text[..at], &text[at..]),
        3 => format!("{}{fragment}{}", &text[..at], &text[next..]),
        4 => format!("{}{}", &text[..at], &text[next..]),
        _ => format!("{text}r(X, Y, Z) -> t(X).\n"),
    }
}

/// The predicates of a schema, in id order, by name and arity.
fn predicates(schema: &Schema) -> Vec<(String, usize)> {
    schema
        .predicates()
        .map(|p| (schema.name(p).to_string(), schema.arity(p)))
        .collect()
}

/// Reads `text` both ways over the rules' schema and checks that they
/// agree. Returns whether the text was accepted.
fn agree(text: &str, atoms: Option<usize>) -> Result<bool, TestCaseError> {
    let mut parsed_schema = Schema::new();
    let mut consts = Interner::new();
    parse_tgds(RULES, &mut parsed_schema, &mut consts).unwrap();
    let mut read_schema = parsed_schema.clone();
    let parsed = parse_facts(text, &mut parsed_schema, &mut consts);
    let read = read_shapes(text, &mut read_schema);
    match (parsed, read) {
        (Ok(db), Ok(read)) => {
            let mut shapes = read.shapes.clone();
            shapes.sort_unstable();
            prop_assert_eq!(shapes, shapes_of_instance(&db), "{:?}", text);
            prop_assert_eq!(read.shapes.len(), shapes_of_instance(&db).len());
            prop_assert_eq!(predicates(&read_schema), predicates(&parsed_schema));
            prop_assert!(read.facts >= db.len(), "{:?}", text);
            if let Some(atoms) = atoms {
                prop_assert_eq!(read.facts, atoms, "{:?}", text);
            }
            Ok(true)
        }
        (Err(parsed), Err(read)) => {
            prop_assert_eq!(read, parsed, "{:?}", text);
            Ok(false)
        }
        (parsed, read) => Err(TestCaseError::fail(format!(
            "parse_facts {parsed:?} but read_shapes {read:?} on {text:?}"
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn reader_agrees_with_parse_facts(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (text, atoms) = facts_text(&mut rng);
        prop_assert!(agree(&text, Some(atoms))?, "generated text rejected: {:?}", text);
        let mangled = mangle(&mut rng, &text);
        agree(&mangled, None)?;
    }
}

#[test]
fn mutations_exercise_both_outcomes() {
    // The property is a differential test only if mangled texts are
    // sometimes accepted and sometimes rejected.
    let (mut accepted, mut rejected) = (0, 0);
    for seed in 0..200 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (text, _) = facts_text(&mut rng);
        if agree(&mangle(&mut rng, &text), None).unwrap() {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(
        accepted >= 40 && rejected >= 40,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn an_arity_clash_with_the_rules_is_rejected_alike() {
    let text = "r(a, b, c).\ns(a).\n";
    let mut schema = Schema::new();
    let mut consts = Interner::new();
    parse_tgds(RULES, &mut schema, &mut consts).unwrap();
    let mut read_schema = schema.clone();
    let parsed = parse_facts(text, &mut schema, &mut consts).unwrap_err();
    let read = read_shapes(text, &mut read_schema).unwrap_err();
    assert_eq!(read, parsed);
    assert_eq!(
        read.to_string(),
        "2:5: predicate `s` used with arity 1, previously 2"
    );
}
