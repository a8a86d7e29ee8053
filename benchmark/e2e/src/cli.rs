//! The two command-line workloads, `paper-grid` and `chase`: one `soct`
//! process per operation, run closed-loop in whole rounds.

use crate::{intervals, procs, trace, Args, Phase, Report};
use soctbench::facts::{self, Fact};
use soctbench::inputs;
use soctbench::ops::{Kind, Op};
use soctbench::reference;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-up repetitions; the reported set-up time is their median.
const SETUP_REPS: usize = 5;

/// One finished `soct` invocation.
pub struct Done {
    /// Index into the workload's operations.
    pub op: usize,
    /// Start, in seconds since the phase began.
    pub start_s: f64,
    pub ms: f64,
    pub result: Result<String, String>,
}

fn invoke(soct: &Path, op: &Op) -> (f64, Result<String, String>) {
    let t = Instant::now();
    let out = Command::new(soct)
        .args(op.argv())
        .env_remove("SOCT_THREADS")
        .env_remove("SOCT_LOG")
        .stdin(Stdio::null())
        .output();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let result = match out {
        Ok(o) if o.status.success() => Ok(String::from_utf8_lossy(&o.stdout).into_owned()),
        Ok(o) => Err(format!(
            "{}: {} {}",
            op.label,
            o.status,
            String::from_utf8_lossy(&o.stderr).trim()
        )),
        Err(e) => Err(format!("{}: cannot start soct: {e}", op.label)),
    };
    (ms, result)
}

/// Runs whole rounds of `ops` until `seconds` have passed.
pub fn measure(soct: &Path, ops: &[Op], seconds: f64) -> (Vec<Done>, Phase) {
    let t0 = Instant::now();
    let mut marks = vec![(0.0, procs::children().cpu_s, 0)];
    let mut done = Vec::new();
    while t0.elapsed().as_secs_f64() < seconds {
        for (i, op) in ops.iter().enumerate() {
            let start_s = t0.elapsed().as_secs_f64();
            let (ms, result) = invoke(soct, op);
            done.push(Done {
                op: i,
                start_s,
                ms,
                result,
            });
        }
        marks.push((
            t0.elapsed().as_secs_f64(),
            procs::children().cpu_s,
            done.len(),
        ));
    }
    let phase = Phase {
        lat_ms: done.iter().map(|d| d.ms).collect(),
        intervals: intervals(&marks),
        peak_rss_kib: procs::children().max_rss_kib,
    };
    (done, phase)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let chase = args.workload == "chase";
    let dir = &args.work;
    let (setup_s, ops) = crate::timed_setup(SETUP_REPS, || {
        if chase {
            inputs::chase(dir, args.seed)
        } else {
            inputs::paper_grid(dir, args.seed)
        }
        .map_err(|e| format!("input generation: {e}"))
    })?;
    // Load the binary into the page cache: one untimed run per kind.
    let mut kinds = HashSet::new();
    for op in ops.iter().filter(|o| kinds.insert(o.kind)) {
        let _ = invoke(&args.soct, op);
    }
    let (done, phase) = measure(&args.soct, &ops, args.phase_seconds());
    let mut report = Report {
        attempted: done.len() as u64,
        failed: done.iter().filter(|d| d.result.is_err()).count() as u64,
        ..Report::default()
    };
    // A failed operation counts in `failed`; the checks below speak of
    // the operations that did not fail.
    for e in done.iter().filter_map(|d| d.result.as_ref().err()).take(5) {
        eprintln!("soctbench: operation failed: {e}");
    }
    let finals = final_outputs(&ops, &done, &mut report.problems);
    if chase {
        check_chase(args, &ops, &finals, &mut report.problems);
    } else {
        check_grid(&ops, &finals, &mut report.problems);
    }
    if args.trace {
        let (tdone, tphase) = measure(&args.soct, &ops, args.phase_seconds());
        report.attempted += tdone.len() as u64;
        report.failed += tdone.iter().filter(|d| d.result.is_err()).count() as u64;
        report.metrics = trace::cli_layers(
            args,
            &ops,
            &phase,
            &tdone,
            &tphase,
            setup_s,
            &mut report.problems,
        )?;
    } else {
        report.metrics = phase.metrics(setup_s);
    }
    Ok(report)
}

/// The verdict line of `soct check`.
fn verdict(stdout: &str) -> Option<&str> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("verdict: "))
        .and_then(|v| v.split_whitespace().next())
}

/// The counters of `soct chase`'s summary line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaseLine {
    pub outcome: String,
    pub rounds: u64,
    pub parallel_rounds: u64,
    pub atoms: u64,
    pub derived: u64,
    pub triggers: u64,
    pub nulls: u64,
}

/// Parses `outcome: X  rounds: R (P parallel)  atoms: A (D derived)
/// triggers: T  nulls: N  time: …`.
pub fn chase_line(stdout: &str) -> Option<ChaseLine> {
    let line = stdout.lines().find(|l| l.starts_with("outcome: "))?;
    let w: Vec<&str> = line
        .split_whitespace()
        .map(|s| s.trim_matches(['(', ')']))
        .collect();
    let after = |key: &str, k: usize| -> Option<u64> {
        let i = w.iter().position(|x| *x == key)?;
        w.get(i + k)?.parse().ok()
    };
    Some(ChaseLine {
        outcome: w.get(1)?.to_string(),
        rounds: after("rounds:", 1)?,
        parallel_rounds: after("rounds:", 2)?,
        atoms: after("atoms:", 1)?,
        derived: after("atoms:", 2)?,
        triggers: after("triggers:", 1)?,
        nulls: after("nulls:", 1)?,
    })
}

/// The output of each operation's last run, after checking that every
/// round produced the same summary.
fn final_outputs<'a>(
    ops: &[Op],
    done: &'a [Done],
    problems: &mut Vec<String>,
) -> Vec<Option<&'a str>> {
    let mut finals: Vec<Option<&str>> = vec![None; ops.len()];
    for d in done {
        let Ok(out) = &d.result else { continue };
        let summary = |s: &str| -> Option<String> {
            if ops[d.op].kind.is_chase() {
                chase_line(s).map(|c| format!("{c:?}"))
            } else {
                verdict(s).map(str::to_string)
            }
        };
        match (finals[d.op], summary(out)) {
            (_, None) => problems.push(format!(
                "{}: no verdict or outcome in `{}`",
                ops[d.op].label,
                out.trim()
            )),
            (Some(prev), Some(now)) if summary(prev).as_ref() != Some(&now) => problems.push(
                format!("{}: rounds disagree ({prev:?} then {now})", ops[d.op].label),
            ),
            _ => {}
        }
        finals[d.op] = Some(out);
    }
    finals
}

fn check_grid(ops: &[Op], finals: &[Option<&str>], problems: &mut Vec<String>) {
    // (set, rows, mode) → infinite?
    let mut l: BTreeMap<(usize, usize, String), bool> = BTreeMap::new();
    for (op, out) in ops.iter().zip(finals) {
        let Some(v) = out.and_then(verdict) else {
            continue;
        };
        let want = match op.kind {
            Kind::Scenario => Some("FINITE"),
            Kind::Arity => Some("INFINITE"),
            _ => None,
        };
        if want.is_some_and(|w| w != v) {
            problems.push(format!(
                "{}: verdict {v}, expected {}",
                op.label,
                want.unwrap_or_default()
            ));
        }
        if op.kind == Kind::L {
            l.insert(
                (op.set, op.param, op.mode.clone().unwrap_or_default()),
                v == "INFINITE",
            );
        }
    }
    for (&(set, rows, ref mode), &inf) in &l {
        if mode == "memory" && l.get(&(set, rows, "db".into())) != Some(&inf) {
            problems.push(format!(
                "l{set}/v{rows}: --mode memory and --mode db disagree"
            ));
        }
        let larger_finite = l
            .range((set, rows + 1, String::new())..(set + 1, 0, String::new()))
            .any(|(_, &i)| !i);
        if inf && larger_finite {
            problems.push(format!(
                "l{set}: Infinite on {rows} rows but Finite on a larger view"
            ));
        }
    }
}

fn read_facts(path: &Path) -> Result<Vec<Fact>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    facts::parse(&text)
}

/// The transitive closure of an edge set.
fn closure_of(edges: &[Fact]) -> HashSet<Fact> {
    let mut succ: HashMap<&str, Vec<&str>> = HashMap::new();
    for e in edges {
        succ.entry(e.args[0].as_str())
            .or_default()
            .push(e.args[1].as_str());
    }
    let mut out = HashSet::new();
    for &start in succ.keys() {
        let mut stack = vec![start];
        let mut seen = HashSet::new();
        while let Some(n) = stack.pop() {
            for &m in succ.get(n).into_iter().flatten() {
                if seen.insert(m) {
                    out.insert(Fact::new("e", &[start, m]));
                    stack.push(m);
                }
            }
        }
    }
    out
}

fn check_chase(args: &Args, ops: &[Op], finals: &[Option<&str>], problems: &mut Vec<String>) {
    for (op, out) in ops.iter().zip(finals) {
        let Some(c) = out.and_then(chase_line) else {
            continue;
        };
        let db = op.db.as_deref().map(read_facts).transpose();
        let res = op.out.as_deref().map(read_facts).transpose();
        let (Ok(Some(db)), Ok(Some(res))) = (db, res) else {
            problems.push(format!("{}: cannot read its database or result", op.label));
            continue;
        };
        let terminated = c.outcome == "Terminated";
        let problem = match op.kind {
            Kind::Closure => {
                let want = closure_of(&db);
                let got: HashSet<Fact> = res.iter().cloned().collect();
                if want.len() != reference::path_closure_size(op.param)
                    || got != want
                    || c.atoms as usize != want.len()
                {
                    Some(format!(
                        "closure has {} atoms, expected {}",
                        c.atoms,
                        reference::path_closure_size(op.param)
                    ))
                } else {
                    None
                }
            }
            Kind::Saturate => {
                let got: HashSet<&Fact> = res.iter().collect();
                let rules = std::fs::read_to_string(&op.rules)
                    .map_err(|e| e.to_string())
                    .and_then(|t| reference::parse_rules(&t));
                if !terminated || c.atoms as usize != op.param {
                    Some(format!(
                        "{} with {} atoms, the reference chase has {}",
                        c.outcome, c.atoms, op.param
                    ))
                } else if let Some(f) = db.iter().find(|f| !got.contains(f)) {
                    Some(format!("result lacks database atom {}", f.render()))
                } else {
                    rules.and_then(|r| reference::model_check(&r, &res)).err()
                }
            }
            Kind::Diverge => {
                let budget = op.max_atoms.unwrap_or(0) as u64;
                let db_len = db.iter().collect::<HashSet<_>>().len() as u64;
                let ok = c.outcome == "AtomBudgetExceeded"
                    && c.atoms == budget + 1
                    && c.derived == c.atoms - db_len
                    && c.nulls == c.derived
                    && res.len() as u64 == c.atoms;
                (!ok).then(|| format!("budgeted run ended as {c:?}, budget {budget}"))
            }
            _ => None,
        };
        if let Some(p) = problem {
            problems.push(format!("{}: {p}", op.label));
        }
        // The checker agrees with the chase: Finite exactly when it ended.
        let check = Op {
            kind: Kind::Sl,
            out: None,
            max_atoms: None,
            ..op.clone()
        };
        match invoke(&args.soct, &check).1 {
            Ok(out) if (verdict(&out) == Some("FINITE")) == terminated => {}
            Ok(out) => problems.push(format!(
                "{}: soct check says {:?} but the chase outcome is {}",
                op.label,
                verdict(&out),
                c.outcome
            )),
            Err(e) => problems.push(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_chase_summary() {
        let out =
            "outcome: AtomBudgetExceeded  rounds: 66 (3 parallel)  atoms: 20001 (19701 derived)  \
                   triggers: 19701  nulls: 19700  time: 18.586 ms\nwrote x (1 bytes)\n";
        let c = chase_line(out).unwrap();
        assert_eq!(
            c,
            ChaseLine {
                outcome: "AtomBudgetExceeded".into(),
                rounds: 66,
                parallel_rounds: 3,
                atoms: 20001,
                derived: 19701,
                triggers: 19701,
                nulls: 19700,
            }
        );
        assert_eq!(
            verdict("class: SL\nverdict: FINITE (chase terminates)\n"),
            Some("FINITE")
        );
    }

    #[test]
    fn closes_a_path() {
        let edges = vec![Fact::new("e", &["a", "b"]), Fact::new("e", &["b", "c"])];
        let c = closure_of(&edges);
        assert_eq!(c.len(), reference::path_closure_size(2));
        assert!(c.contains(&Fact::new("e", &["a", "c"])));
    }
}
