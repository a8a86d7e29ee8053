//! `socttrace`: replays `soctbench` operations in-process, one library
//! layer per call, and prints each layer's time and work counts.
//!
//! ```text
//! socttrace cli OPS.tsv      # `soct check` / `soct chase` operations
//! socttrace serve LIST.tsv   # repeated `/check` bodies (`key<TAB>file`)
//! ```
//!
//! Each operation prints one line, `op <label> <key>=<value> …`, with
//! the median of several replays; keys ending in `_ms` are layer times.
//! A `problem <text>` line reports a failed check of the traced run:
//! FindShapes in either mode must return the benchmark's own shape(D),
//! and Algorithm 3 must agree with Algorithm 1 on simple-linear sets.

use soct_chase::{run_chase_columnar, ChaseConfig, ChaseVariant};
use soct_core::{
    derivable_predicates, dyn_simplification, find_shapes, find_shapes_parallel, FindShapesMode,
};
use soct_graph::{find_special_sccs, supports, DependencyGraph};
use soct_model::{Database, FxHashSet, Interner, PredId, Schema, TgdClass};
use soct_serve::{ServiceConfig, TerminationService};
use soct_storage::InstanceSource;
use soctbench::ops::Op;
use soctbench::{facts, reference, stats};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Replays per command-line operation.
const CLI_REPS: usize = 3;
/// Replays per repeated `/check` body.
const SERVE_REPS: usize = 21;

fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let v = black_box(f());
    (t.elapsed().as_secs_f64() * 1e3, v)
}

fn read(path: &std::path::Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

type Layers = Vec<(&'static str, f64)>;

/// shape(D) as the program finds it in `mode`, rendered like the
/// reference.
fn found_shapes(schema: &Schema, db: &Database, mode: FindShapesMode) -> BTreeSet<String> {
    find_shapes(&InstanceSource::new(schema, db), mode)
        .shapes
        .iter()
        .map(|s| {
            reference::render_shape(schema.name(s.pred), &s.rgs.iter_ids().collect::<Vec<u8>>())
        })
        .collect()
}

/// One replay of `op`; with `check`, also the traced run's checks.
fn replay(
    op: &Op,
    rules: &str,
    db_text: Option<&str>,
    check: bool,
) -> Result<(Layers, Vec<String>), String> {
    let mut out: Layers = Vec::new();
    let mut problems = Vec::new();
    let mut schema = Schema::new();
    let mut consts = Interner::new();
    let (ms, tgds) = time(|| soct_parser::parse_tgds(rules, &mut schema, &mut consts));
    let tgds = tgds.map_err(|e| format!("{}: {e}", op.label))?;
    out.push(("parser.rules_ms", ms));
    let db = match db_text {
        Some(text) => {
            let (ms, db) = time(|| soct_parser::parse_facts(text, &mut schema, &mut consts));
            out.push(("parser.facts_ms", ms));
            db.map_err(|e| format!("{}: {e}", op.label))?
        }
        None => soct_serve::critical_instance(&schema, &tgds, &mut consts),
    };

    if op.kind.is_chase() {
        let cfg = ChaseConfig {
            variant: ChaseVariant::SemiOblivious,
            max_atoms: op.max_atoms.unwrap_or(1_000_000),
            max_rounds: usize::MAX,
            threads: 0,
        };
        let (ms, res) = time(|| run_chase_columnar(&db, &tgds, &cfg));
        out.push(("chase.engine_ms", ms));
        out.push(("chase.derived", res.derived_atoms(db.len()) as f64));
        let (ms, _) = time(|| soct_parser::write_facts(&res.store.to_instance(), &schema, &consts));
        out.push(("parser.write_ms", ms));
        return Ok((out, problems));
    }

    match soct_model::tgd::classify(&tgds) {
        TgdClass::SimpleLinear => {
            let (ms, graph) = time(|| DependencyGraph::build(&schema, &tgds));
            out.push(("graph.build_ms", ms));
            out.push(("graph.edges", graph.num_edges() as f64));
            let (ms, reps) = time(|| find_special_sccs(&graph).special_representatives());
            out.push(("graph.scc_ms", ms));
            let db_preds: FxHashSet<PredId> = db.non_empty_predicates().into_iter().collect();
            let (ms, supported) = time(|| {
                !reps.is_empty() && {
                    let derivable = derivable_predicates(&tgds, &db_preds);
                    supports(&graph, &schema, &reps, |p| derivable.contains(&p))
                }
            });
            out.push(("graph.supports_ms", ms));
            if check {
                let shapes =
                    find_shapes(&InstanceSource::new(&schema, &db), FindShapesMode::InMemory)
                        .shapes;
                let alg3 = soct_core::check_l_with_shapes(&schema, &tgds, &shapes).finite;
                if alg3 == supported {
                    problems.push(format!(
                        "{}: Algorithm 1 says finite={}, Algorithm 3 says finite={alg3}",
                        op.label, !supported
                    ));
                }
            }
        }
        TgdClass::Linear => {
            let src = InstanceSource::new(&schema, &db);
            let mode = match op.mode.as_deref() {
                Some("db") => FindShapesMode::InDatabase,
                _ => FindShapesMode::InMemory,
            };
            let (ms, shapes) = time(|| find_shapes_parallel(&src, mode, 0));
            out.push((
                if mode == FindShapesMode::InMemory {
                    "core.shapes_mem_ms"
                } else {
                    "core.shapes_db_ms"
                },
                ms,
            ));
            out.push((
                "storage.shape_queries",
                (shapes.stats.relaxed_queries + shapes.stats.exact_queries) as f64,
            ));
            out.push(("core.tuples_scanned", shapes.tuples_scanned as f64));
            let (ms, simpl) = time(|| dyn_simplification(&schema, &tgds, &shapes.shapes));
            out.push(("core.dynsimpl_ms", ms));
            out.push(("core.derived_shapes", simpl.shapes_derived as f64));
            out.push(("core.simplified_rules", simpl.tgds.len() as f64));
            let (ms, graph) = time(|| DependencyGraph::build(simpl.schema(), &simpl.tgds));
            out.push(("graph.build_ms", ms));
            out.push(("graph.edges", graph.num_edges() as f64));
            let (ms, _) = time(|| find_special_sccs(&graph).special_sccs());
            out.push(("graph.scc_ms", ms));
        }
        TgdClass::General => {}
    }

    if let (true, Some(text)) = (check, db_text) {
        let want: BTreeSet<String> = reference::shapes_of(&facts::parse(text)?)
            .iter()
            .map(|(p, ids)| reference::render_shape(p, ids))
            .collect();
        for mode in [FindShapesMode::InMemory, FindShapesMode::InDatabase] {
            let got = found_shapes(&schema, &db, mode);
            if got != want {
                problems.push(format!(
                    "{}: FindShapes ({mode:?}) found {} shapes, the reference shape(D) has {}",
                    op.label,
                    got.len(),
                    want.len()
                ));
            }
        }
    }
    Ok((out, problems))
}

fn print_medians(label: &str, runs: &BTreeMap<&'static str, Vec<f64>>, order: &[&'static str]) {
    let mut line = format!("op {label}");
    for k in order {
        if let Some(v) = runs.get(k).and_then(|v| stats::median(v)) {
            line.push_str(&format!(" {k}={v}"));
        }
    }
    println!("{line}");
}

fn cli(list: &str) -> Result<(), String> {
    for line in list.lines().filter(|l| !l.is_empty()) {
        let op = Op::from_line(line)?;
        let rules = read(&op.rules)?;
        let db = op.db.as_deref().map(read).transpose()?;
        let mut runs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut order = Vec::new();
        for rep in 0..CLI_REPS {
            let (layers, problems) = replay(&op, &rules, db.as_deref(), rep == 0)?;
            for p in problems {
                println!("problem {p}");
            }
            for (k, v) in layers {
                if rep == 0 {
                    order.push(k);
                }
                runs.entry(k).or_default().push(v);
            }
        }
        print_medians(&op.label, &runs, &order);
    }
    Ok(())
}

fn serve(list: &str) -> Result<(), String> {
    let service = TerminationService::new(ServiceConfig::default()).map_err(|e| e.to_string())?;
    for line in list.lines().filter(|l| !l.is_empty()) {
        let (label, path) = line
            .split_once('\t')
            .ok_or_else(|| format!("bad line `{line}`"))?;
        let body = read(std::path::Path::new(path))?;
        // The first request fills the cache; the replays are hits.
        service.handle("POST", "/check", &body);
        let mut runs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for _ in 0..SERVE_REPS {
            let (ms, (status, resp)) = time(|| service.handle("POST", "/check", &body));
            if status != 200 || !resp.contains("\"cached\":true") {
                println!("problem repeat {label}: in-process replay answered {status} {resp}");
            }
            runs.entry("serve.handle_ms").or_default().push(ms);
            let mut schema = Schema::new();
            let mut consts = Interner::new();
            let (ms, tgds) = time(|| soct_parser::parse_tgds(&body, &mut schema, &mut consts));
            let tgds = tgds.map_err(|e| format!("{path}: {e}"))?;
            runs.entry("parser.rules_ms").or_default().push(ms);
            let (ms, _) = time(|| soct_model::fingerprint::fingerprint_ruleset(&schema, &tgds));
            runs.entry("model.fingerprint_ms").or_default().push(ms);
            let db = soct_serve::critical_instance(&schema, &tgds, &mut consts);
            let (key, _) = soct_core::cache_key(&schema, &tgds, &db);
            let (ms, _) = time(|| service.cache().get(&key));
            runs.entry("core.cache_lookup_ms").or_default().push(ms);
        }
        print_medians(
            label,
            &runs,
            &[
                "parser.rules_ms",
                "model.fingerprint_ms",
                "core.cache_lookup_ms",
                "serve.handle_ms",
            ],
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.as_slice() {
        [mode, path] => read(std::path::Path::new(path)).and_then(|list| match mode.as_str() {
            "cli" => cli(&list),
            "serve" => serve(&list),
            other => Err(format!("unknown mode `{other}` (cli|serve)")),
        }),
        _ => Err("usage: socttrace cli|serve LIST".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("socttrace: {e}");
            ExitCode::from(2)
        }
    }
}
