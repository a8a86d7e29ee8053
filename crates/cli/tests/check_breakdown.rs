//! Subprocess tests of `soct check`'s breakdown line: it reports the one
//! checker run that `time:` measured, so its phases fit inside `time:`,
//! and on an Infinite linear set it says where the early exit stopped.

use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("soct_breakdown_{}_{name}", std::process::id()))
}

/// The arity-stress set, four rules over one arity-`n` predicate: swap the
/// first two positions, rotate by one, merge the first two, and an
/// existential rule on the merged shape.
fn stress_rules(n: usize) -> String {
    let vars: Vec<String> = (0..n).map(|i| format!("V{i}")).collect();
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

/// Runs `soct check --rules <text>` and returns its stdout.
fn check(name: &str, rules: &str) -> String {
    let path = tmp(name);
    std::fs::write(&path, rules).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_soct"))
        .args(["check", "--rules", path.to_str().unwrap(), "--threads", "1"])
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn line<'a>(stdout: &'a str, prefix: &str) -> &'a str {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{stdout}"))
}

/// The `t-<phase> X ms` values of a breakdown line.
fn phase_ms(breakdown: &str) -> Vec<f64> {
    breakdown
        .split(" | ")
        .filter_map(|f| f.strip_prefix("t-"))
        .map(|f| {
            let ms = f.split_whitespace().nth(1).expect("t-<phase> <ms> ms");
            ms.parse().unwrap()
        })
        .collect()
}

/// The phases each print with three decimals: allow their rounding.
const ROUNDING_MS: f64 = 0.002;

#[test]
fn infinite_linear_breakdown_marks_the_early_stop() {
    let stdout = check("arity10.dlog", &stress_rules(10));
    assert_eq!(line(&stdout, "class: "), "L  rules: 4  db-atoms: 1");
    assert!(
        line(&stdout, "verdict: ").starts_with("INFINITE"),
        "{stdout}"
    );
    let time: f64 = line(&stdout, "time: ")
        .strip_suffix(" ms")
        .unwrap()
        .parse()
        .unwrap();
    let breakdown = line(&stdout, "breakdown: ");
    assert!(
        breakdown.ends_with(" | stopped at the first special cycle"),
        "{breakdown}"
    );
    let phases = phase_ms(breakdown);
    assert_eq!(phases.len(), 3, "t-shapes, t-graph, t-comp: {breakdown}");
    let sum: f64 = phases.iter().sum();
    assert!(
        sum <= time + ROUNDING_MS,
        "phases sum to {sum} ms, more than time {time} ms"
    );
    // Partial counts: the full fixpoint would derive Bell(10) = 115,975
    // shapes.
    let derived: usize = breakdown
        .split(" | ")
        .find_map(|f| f.strip_prefix("derived shapes "))
        .unwrap()
        .parse()
        .unwrap();
    assert!(derived <= 300, "{derived} derived shapes");
}

#[test]
fn finite_breakdowns_report_the_timed_run() {
    // A linear set without a special cycle runs to its fixpoint; a
    // simple-linear one prints Algorithm 1's three phases.
    for (name, rules) in [
        ("finite_l.dlog", "r(X, X) -> r(Z, X).\n"),
        ("finite_sl.dlog", "r(X, Y) -> s(Y, Z).\n"),
    ] {
        let stdout = check(name, rules);
        assert!(line(&stdout, "verdict: ").starts_with("FINITE"), "{stdout}");
        let time: f64 = line(&stdout, "time: ")
            .strip_suffix(" ms")
            .unwrap()
            .parse()
            .unwrap();
        let breakdown = line(&stdout, "breakdown: ");
        assert!(!breakdown.contains("stopped"), "{breakdown}");
        let ms = phase_ms(breakdown);
        assert_eq!(ms.len(), 3, "{breakdown}");
        assert!(ms.iter().sum::<f64>() <= time + ROUNDING_MS, "{stdout}");
    }
}
