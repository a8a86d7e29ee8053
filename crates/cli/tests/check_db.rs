//! Subprocess tests of `soct check --db`. The facts file is read as shapes
//! only (`--mode memory`, and every non-linear set), or loaded for the
//! in-database FindShapes (`--mode db` on a linear set); both reads reject
//! the same malformed files with the same message, and both modes reach
//! the same verdict. An Infinite linear check may stop before it admits
//! every database shape, and its breakdown says how many it admitted.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("soct_check_db_{}_{name}", std::process::id()))
}

/// Writes `text` to a fresh temporary file and returns its path.
fn write(name: &str, text: &str) -> PathBuf {
    let path = tmp(name);
    std::fs::write(&path, text).unwrap();
    path
}

fn soct(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_soct"))
        .args(args)
        .output()
        .unwrap()
}

/// `soct check --rules R --db D --mode M` on files written for the test.
fn check(rules: &Path, db: &Path, mode: &str) -> Output {
    soct(&[
        "check",
        "--rules",
        rules.to_str().unwrap(),
        "--db",
        db.to_str().unwrap(),
        "--mode",
        mode,
        "--threads",
        "1",
    ])
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).unwrap()
}

fn line<'a>(stdout: &'a str, prefix: &str) -> &'a str {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{stdout}"))
}

/// The value of the `name N` field of a breakdown line.
fn field(breakdown: &str, name: &str) -> usize {
    breakdown
        .split(" | ")
        .find_map(|f| f.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no `{name}` in {breakdown}"))
        .parse()
        .unwrap()
}

/// Arity of the stress set. The in-database FindShapes walks a partition
/// lattice that grows with Bell(arity), so this stays small enough for a
/// debug build.
const ARITY: usize = 6;

/// The arity-stress set: swap the first two positions, rotate by one,
/// merge the first two, and an existential rule on the merged shape. Its
/// first special cycle lies in the closure of the identity shape.
fn stress_rules() -> String {
    let vars: Vec<String> = (0..ARITY).map(|i| format!("V{i}")).collect();
    let atom = |terms: &[String]| format!("r({})", terms.join(","));
    let mut swap = vars.clone();
    swap.swap(0, 1);
    let mut rot = vars.clone();
    rot.rotate_left(1);
    let mut merged = vars.clone();
    merged[1] = vars[0].clone();
    let mut ex = merged.clone();
    ex[0] = "Y".into();
    format!(
        "{} -> {}.\n{} -> {}.\n{} -> {}.\n{} -> {}.\n",
        atom(&vars),
        atom(&swap),
        atom(&vars),
        atom(&rot),
        atom(&vars),
        atom(&merged),
        atom(&merged),
        atom(&ex),
    )
}

/// `3 × ARITY` facts over `r` with `ARITY` distinct shapes: `k` = `ARITY`
/// down to 1 distinct constants per fact, cycling, three times over. The
/// first fact has the identity shape.
fn stress_facts() -> String {
    let mut text = String::new();
    for rep in 0..3 {
        for k in (1..=ARITY).rev() {
            let terms: Vec<String> = (0..ARITY)
                .map(|j| format!("c{}", j % k + rep * ARITY))
                .collect();
            text.push_str(&format!("r({}).\n", terms.join(", ")));
        }
    }
    text
}

#[test]
fn infinite_linear_check_admits_fewer_shapes_than_it_reads() {
    let rules = write("stress.rules", &stress_rules());
    let db = write("stress.facts", &stress_facts());
    let out = stdout(&check(&rules, &db, "memory"));
    assert_eq!(line(&out, "class: "), "L  rules: 4  db-facts: 18", "{out}");
    assert!(line(&out, "verdict: ").starts_with("INFINITE"), "{out}");
    let breakdown = line(&out, "breakdown: ");
    assert!(breakdown.ends_with(" | stopped at the first special cycle"));
    assert_eq!(field(breakdown, "db-shapes"), ARITY, "{breakdown}");
    assert!(field(breakdown, "admitted") < ARITY, "{breakdown}");
    // `--mode db` loads the facts, so it counts distinct atoms.
    let out = stdout(&check(&rules, &db, "db"));
    assert_eq!(line(&out, "class: "), "L  rules: 4  db-atoms: 18", "{out}");
    assert!(
        field(line(&out, "breakdown: "), "admitted") < ARITY,
        "{out}"
    );
    std::fs::remove_file(rules).ok();
    std::fs::remove_file(db).ok();
}

#[test]
fn a_malformed_last_line_fails_a_check_decided_before_it() {
    // The verdict needs only the first shape, but the whole file is read:
    // both modes exit 2 with the parser's message for the last line.
    let rules = write("bad.rules", &stress_rules());
    let db = write("bad.facts", &format!("{}r(c0, c1\n", stress_facts()));
    for mode in ["memory", "db"] {
        let out = check(&rules, &db, mode);
        assert_eq!(out.status.code(), Some(2), "{mode}");
        assert!(out.stdout.is_empty(), "{mode}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!(
                "soct: {}: 20:1: expected `,` or `)`, found `end of input`\n",
                db.display()
            ),
            "{mode}"
        );
    }
    // A rule in the facts file stops the read at its arrow.
    let db = write("rule.facts", "r(a).\nr(X) -> s(X).\nr(b\n");
    let rules = write("rule.rules", "r(X) -> s(X).\n");
    let out = check(&rules, &db, "memory");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!(
            "soct: {}: 2:8: expected facts only, found `a rule`\n",
            db.display()
        )
    );
    for p in [rules, db] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn memory_and_db_modes_agree() {
    // Linear sets both ways (Finite and Infinite), a simple-linear set and
    // a general one, each on a database that fires its rules and on one
    // that does not.
    let cases = [
        ("stress", stress_rules(), "INFINITE"),
        ("example34", "r(X, X) -> r(Z, X).\n".to_string(), "FINITE"),
        (
            "diverging",
            "r(X, Y) -> r(X, X).\nr(X, X) -> r(Y, X).\n".to_string(),
            "",
        ),
        (
            "sl",
            "r(X, Y) -> s(Y, Z).\ns(X, Y) -> r(Y, X).\n".to_string(),
            "",
        ),
        ("general", "r(X, Y), s(X, Y) -> r(Y, Z).\n".to_string(), ""),
    ];
    let dbs = [
        ("repeats", stress_facts()),
        ("pairs", "r(a, b).\nr(c, c).\ns('b', b).\n".to_string()),
        ("distinct", "r(a, b).\ns(b, c).\n".to_string()),
    ];
    let mut verdicts = std::collections::BTreeSet::new();
    for (name, rules_text, expected) in &cases {
        let rules = write(&format!("modes_{name}.rules"), rules_text);
        for (db_name, db_text) in &dbs {
            if name == &"stress" && db_name != &"repeats" {
                continue;
            }
            if name != &"stress" && db_name == &"repeats" {
                continue;
            }
            let db = write(&format!("modes_{name}_{db_name}.facts"), db_text);
            let memory = stdout(&check(&rules, &db, "memory"));
            let db_mode = stdout(&check(&rules, &db, "db"));
            let verdict = line(&memory, "verdict: ");
            assert_eq!(verdict, line(&db_mode, "verdict: "), "{name} on {db_name}");
            if !expected.is_empty() {
                assert!(verdict.starts_with(expected), "{name}: {verdict}");
            }
            verdicts.insert(verdict.split_whitespace().next().unwrap().to_string());
            std::fs::remove_file(db).ok();
        }
        std::fs::remove_file(rules).ok();
    }
    assert_eq!(
        verdicts.len(),
        3,
        "FINITE, INFINITE and UNKNOWN: {verdicts:?}"
    );
}
