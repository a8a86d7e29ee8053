//! Workload inputs, generated from the run's seed with `soct_gen` on one
//! thread and written as rule and fact files. Sizes are fixed per
//! workload; the seed only changes content, so runs on different seeds
//! do the same amount of work.

use crate::facts;
use crate::ops::{Kind, Op};
use crate::reference::{self, rgs, Shadow, SoChase};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use soct_gen::profiles::{combined_profiles, Scale};
use soct_gen::{deep_like, ibench_like, IBenchVariant, Scenario, TgdGenConfig};
use soct_model::{Interner, PredId, Schema, Term, Tgd, TgdClass};
use soct_storage::{StorageEngine, TupleSource};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Simple-linear sets per combined profile (§7.1). They are the majority
/// of the grid's operations, so its median latency is a simple-linear
/// check, parse-bound as in Fig. 1, and its 90th percentile an L check.
const SL_PER_PROFILE: usize = 7;
/// Rows per predicate of the two D★ views (§8.1 quick-scale 25 and 250).
pub const VIEW_ROWS: [usize; 2] = [25, 250];
/// Arities of the arity-stress set (Bell(n) = 203, 877, 4140 shapes).
pub const STRESS_ARITIES: [usize; 3] = [6, 7, 8];
/// §9 scenario size as a share of the paper's atom counts (paper grid).
const GRID_SCENARIO_ATOMS: f64 = 0.02;
/// §9 scenario size the chase workload's databases are cut from.
const CHASE_SCENARIO_ATOMS: f64 = 0.004;
/// Chase size each saturation is cut to (Deep, STB-128, ONT-256): the
/// database keeps the shortest prefix whose reference chase reaches it,
/// so every seed saturates to about the same size.
const SATURATION_ATOMS: [usize; 3] = [20_000, 16_000, 14_000];
/// Path lengths (edges) of the transitive-closure inputs.
pub const CLOSURE_EDGES: [usize; 6] = [20, 40, 60, 80, 100, 120];
/// Seeded edges and atom budgets of the divergent inputs.
pub const DIVERGE: [(usize, usize); 3] = [(200, 10_000), (400, 20_000), (600, 40_000)];

/// Derives an independent sub-seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn write(path: &Path, text: &str) -> io::Result<()> {
    std::fs::write(path, text)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

fn rules_text(tgds: &[Tgd], schema: &Schema) -> String {
    soct_parser::write_tgds(tgds, schema, &Interner::new())
}

/// Renders up to `limit` rows of each of `preds` as facts, constants
/// named `c<id>`.
fn facts_text(src: &dyn TupleSource, schema: &Schema, preds: &[PredId], limit: usize) -> String {
    let mut out = String::new();
    for &p in preds {
        let mut left = limit;
        src.scan(p, &mut |row| {
            out.push_str(schema.name(p));
            out.push('(');
            for (i, &v) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let id = Term::unpack(v).map_or(0, Term::raw);
                let _ = write!(out, "c{id}");
            }
            out.push_str(").\n");
            left -= 1;
            left > 0
        });
    }
    out
}

/// The ruleset's predicates, in id order (footnote 1 of the paper: D
/// mentions only predicates of Σ).
fn preds_of(tgds: &[Tgd]) -> Vec<PredId> {
    let mut v = soct_model::tgd::predicates_of(tgds);
    v.sort_unstable();
    v
}

fn all_preds(engine: &StorageEngine) -> Vec<PredId> {
    let mut v = engine.non_empty_predicates();
    v.sort_unstable();
    v
}

fn op(label: String, kind: Kind, rules: PathBuf) -> Op {
    Op {
        label,
        kind,
        rules,
        db: None,
        mode: None,
        max_atoms: None,
        set: 0,
        param: 0,
        out: None,
    }
}

/// The four-rule arity-`n` set of the arity-stress slice: swap the first
/// two positions, rotate by one, merge the first two, and an existential
/// rule on the merged shape. DynSimplification derives Bell(n) shapes.
pub fn stress_rules(n: usize) -> String {
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
    ex[1] = vars[0].clone();
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

/// The §9 scenarios at `atoms` times the paper's size. LUBM is left out:
/// `lubm_like` gives a ruleset whose chase is infinite on some seeds,
/// where the paper's LUBM is finite.
fn scenarios(seed: u64, atoms: f64) -> Vec<Scenario> {
    vec![
        deep_like(100, mix(seed, 91)),
        ibench_like(IBenchVariant::Stb128, atoms, mix(seed, 93)),
        ibench_like(IBenchVariant::Ont256, atoms, mix(seed, 94)),
    ]
}

/// The paper grid of §7–§9 as `soct check` operations.
pub fn paper_grid(dir: &Path, seed: u64) -> io::Result<Vec<Op>> {
    let mut ops = Vec::new();
    let scale = Scale::quick();
    let profiles = combined_profiles(&scale);
    // Sizes sit at fixed points of each profile's ranges.
    let at = |(lo, hi): (usize, usize), f: f64| lo + ((hi - lo) as f64 * f) as usize;

    // §7.1: simple-linear sets over the shared schema, on D_Σ.
    let (schema, pool) = soct_gen::profiles::shared_schema(mix(seed, 1));
    for (pi, p) in profiles.iter().enumerate() {
        for s in 0..SL_PER_PROFILE {
            let f = (s + 1) as f64 / (SL_PER_PROFILE + 1) as f64;
            let cfg = TgdGenConfig {
                ssize: at(p.pred_range, f),
                tsize: at(p.tgd_range, f).max(1),
                ..TgdGenConfig::new(
                    0,
                    0,
                    TgdClass::SimpleLinear,
                    mix(seed, 100 + pi as u64 * 8 + s as u64),
                )
            };
            let tgds = soct_gen::generate_tgds(&cfg, &schema, &pool);
            let i = pi * SL_PER_PROFILE + s;
            let path = dir.join(format!("sl{i}.rules"));
            write(&path, &rules_text(&tgds, &schema))?;
            ops.push(Op {
                set: i,
                ..op(format!("sl{i}"), Kind::Sl, path)
            });
        }
    }

    // §8.1: linear sets over D★'s predicates, on first-k-rows views.
    let mut cfg = soct_gen::DataGenConfig::dstar(scale.data_scale);
    cfg.seed = mix(seed, 2);
    let mut dschema = Schema::new();
    let dstar = soct_gen::generate_database(&cfg, &mut dschema);
    for (pi, p) in profiles.iter().enumerate() {
        let cfg = TgdGenConfig {
            ssize: at(p.pred_range, 0.5),
            tsize: at(p.tgd_range, 0.5).max(1),
            ..TgdGenConfig::new(0, 0, TgdClass::Linear, mix(seed, 200 + pi as u64))
        };
        let tgds = soct_gen::generate_tgds(&cfg, &dschema, &dstar.preds);
        let rules = dir.join(format!("l{pi}.rules"));
        write(&rules, &rules_text(&tgds, &dschema))?;
        let preds = preds_of(&tgds);
        for rows in VIEW_ROWS {
            let db = dir.join(format!("l{pi}_v{rows}.facts"));
            write(&db, &facts_text(&dstar.engine, &dschema, &preds, rows))?;
            for mode in ["memory", "db"] {
                ops.push(Op {
                    db: Some(db.clone()),
                    mode: Some(mode.into()),
                    set: pi,
                    param: rows,
                    ..op(format!("l{pi}/v{rows}/{mode}"), Kind::L, rules.clone())
                });
            }
        }
    }

    // §9: the validation scenarios with their databases.
    for (si, s) in scenarios(seed, GRID_SCENARIO_ATOMS).into_iter().enumerate() {
        let rules = dir.join(format!("scn{si}.rules"));
        let db = dir.join(format!("scn{si}.facts"));
        write(&rules, &rules_text(&s.tgds, &s.schema))?;
        write(
            &db,
            &facts_text(&s.engine, &s.schema, &all_preds(&s.engine), usize::MAX),
        )?;
        ops.push(Op {
            db: Some(db),
            set: si,
            ..op(format!("scenario/{}", s.name), Kind::Scenario, rules)
        });
    }

    // ROADMAP item 1's hostile four-rule set.
    for n in STRESS_ARITIES {
        let rules = dir.join(format!("arity{n}.rules"));
        write(&rules, &stress_rules(n))?;
        ops.push(Op {
            param: n,
            ..op(format!("arity{n}"), Kind::Arity, rules)
        });
    }
    Ok(ops)
}

/// Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for k in (1..v.len()).rev() {
        v.swap(k, rng.random_range(0..=k));
    }
}

/// `count` distinct constant names `<prefix><n>` drawn from the seed.
fn distinct_names(rng: &mut StdRng, prefix: &str, count: usize) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let n: u32 = rng.random_range(0..u32::MAX);
        if seen.insert(n) {
            out.push(format!("{prefix}{n}"));
        }
    }
    out
}

/// The chase workload: transitive closures of paths, saturations of the
/// §9 scenarios, and a divergent rule under an atom budget.
pub fn chase(dir: &Path, seed: u64) -> io::Result<Vec<Op>> {
    let mut ops = Vec::new();
    let mut rng = StdRng::seed_from_u64(mix(seed, 3));
    let closure_rules = dir.join("closure.rules");
    write(&closure_rules, "e(X,Y), e(Y,Z) -> e(X,Z).\n")?;
    for (i, n) in CLOSURE_EDGES.into_iter().enumerate() {
        let nodes = distinct_names(&mut rng, "n", n + 1);
        let mut edges: Vec<String> = nodes
            .windows(2)
            .map(|w| format!("e({},{}).\n", w[0], w[1]))
            .collect();
        // Fact order is part of the input, not of the path.
        shuffle(&mut edges, &mut rng);
        let db = dir.join(format!("closure{i}.facts"));
        write(&db, &edges.concat())?;
        ops.push(Op {
            db: Some(db),
            set: i,
            param: n,
            out: Some(dir.join(format!("closure{i}.out"))),
            ..op(format!("closure/{n}"), Kind::Closure, closure_rules.clone())
        });
    }
    for (si, s) in scenarios(seed, CHASE_SCENARIO_ATOMS)
        .into_iter()
        .enumerate()
    {
        let rules = dir.join(format!("sat{si}.rules"));
        let db = dir.join(format!("sat{si}.facts"));
        let text = rules_text(&s.tgds, &s.schema);
        write(&rules, &text)?;
        let mut chase = reference::parse_rules(&text)
            .and_then(|r| SoChase::new(&r))
            .map_err(io::Error::other)?;
        let mut kept = String::new();
        let all = facts_text(&s.engine, &s.schema, &all_preds(&s.engine), usize::MAX);
        for line in all.lines() {
            if chase.len() >= SATURATION_ATOMS[si] {
                break;
            }
            if let Some(f) = facts::parse_line(line).map_err(io::Error::other)? {
                chase.add(&f);
                kept.push_str(line);
                kept.push('\n');
            }
        }
        write(&db, &kept)?;
        ops.push(Op {
            db: Some(db),
            set: si,
            param: chase.len(),
            out: Some(dir.join(format!("sat{si}.out"))),
            ..op(format!("saturate/{}", s.name), Kind::Saturate, rules)
        });
    }
    let diverge_rules = dir.join("diverge.rules");
    write(&diverge_rules, "r(X,Y) -> r(Y,Z).\n")?;
    for (i, (edges, budget)) in DIVERGE.into_iter().enumerate() {
        let names = distinct_names(&mut rng, "a", 2 * edges);
        let text: String = names
            .chunks(2)
            .map(|p| format!("r({},{}).\n", p[0], p[1]))
            .collect();
        let db = dir.join(format!("diverge{i}.facts"));
        write(&db, &text)?;
        ops.push(Op {
            db: Some(db),
            max_atoms: Some(budget),
            set: i,
            param: edges,
            out: Some(dir.join(format!("diverge{i}.out"))),
            ..op(
                format!("diverge/{edges}"),
                Kind::Diverge,
                diverge_rules.clone(),
            )
        });
    }
    Ok(ops)
}

/// Live-database size: predicates, tuples and constants of the seed.
pub const LIVE_PREDS: usize = 24;
pub const LIVE_TUPLES: usize = 100_000;
pub const LIVE_DOMAIN: u32 = 40_000;
/// Shapes per predicate in the seed (capped by Bell(arity)).
const LIVE_MENU: usize = 3;
/// Live rulesets checked with `/check?db=live`, and their size.
const LIVE_RULESETS: usize = 4;
const LIVE_RULES: usize = 200;
/// Variants (rule order and variable names) per repeated ruleset.
const REPEAT_VARIANTS: usize = 4;

/// Inputs of the live-service workload.
pub struct LiveInputs {
    pub seed_facts: PathBuf,
    /// (predicate, shape) pairs absent from the seed; the write stream
    /// toggles them to change the shape set.
    pub rare: Vec<(u16, Vec<u8>)>,
    /// Constants of the seed; writes draw only from these, so the
    /// server's active domain stays fixed.
    pub pool: Vec<u32>,
    /// The seed's tuples.
    pub shadow: Shadow,
    /// Rule files of the live rulesets, with their text.
    pub live: Vec<(PathBuf, String)>,
    /// Corpus entries for cold checks: rule text and recorded verdict.
    pub cold: Vec<(String, String)>,
    /// Per repeated ruleset, its variants.
    pub repeats: Vec<Vec<String>>,
}

/// Every restricted growth string of length `n`.
pub fn all_rgs(n: usize) -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new()];
    for _ in 0..n {
        let mut next = Vec::new();
        for r in &out {
            let max = r.iter().copied().max().unwrap_or(0);
            for id in 1..=max + 1 {
                let mut s = r.clone();
                s.push(id);
                next.push(s);
            }
        }
        out = next;
    }
    out
}

/// A tuple of the given shape over distinct constants drawn from `draw`.
pub fn tuple_of_shape(shape: &[u8], mut draw: impl FnMut() -> u32) -> Vec<u32> {
    let blocks = shape.iter().copied().max().unwrap_or(0) as usize;
    let mut vals: Vec<u32> = Vec::with_capacity(blocks);
    while vals.len() < blocks {
        let v = draw();
        if !vals.contains(&v) {
            vals.push(v);
        }
    }
    let t: Vec<u32> = shape.iter().map(|&b| vals[b as usize - 1]).collect();
    debug_assert_eq!(rgs(&t), shape);
    t
}

/// One live fact in fact-file syntax.
pub fn live_fact(pred: u16, args: &[u32]) -> String {
    let args: Vec<String> = args.iter().map(|a| format!("k{a}")).collect();
    format!("lv{pred}({})", args.join(","))
}

/// Appends `suffix` to every predicate name of a rule text (identifiers
/// directly followed by `(`).
pub fn rename_predicates(text: &str, suffix: &str) -> String {
    let mut out = String::with_capacity(text.len() + text.len() / 4);
    let mut ident = String::new();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            ident.push(c);
            continue;
        }
        out.push_str(&ident);
        if c == '(' && !ident.is_empty() {
            out.push_str(suffix);
        }
        ident.clear();
        out.push(c);
    }
    out.push_str(&ident);
    out
}

/// A variant of a rule text: rules shuffled, every variable renamed by a
/// prefix. Neither changes the ruleset's fingerprint or verdict.
pub fn permute_and_rename(text: &str, prefix: &str, rng: &mut StdRng) -> String {
    let mut rules: Vec<&str> = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .collect();
    shuffle(&mut rules, rng);
    let mut out = String::with_capacity(text.len() * 2);
    for r in rules {
        let mut ident = String::new();
        let flush = |ident: &mut String, next: Option<char>, out: &mut String| {
            let is_var = ident.starts_with(|c: char| c.is_ascii_uppercase()) && next != Some('(');
            if is_var {
                out.push_str(prefix);
            }
            out.push_str(ident);
            ident.clear();
        };
        for c in r.chars() {
            if c.is_ascii_alphanumeric() || c == '_' {
                ident.push(c);
            } else {
                flush(&mut ident, Some(c), &mut out);
                out.push(c);
            }
        }
        flush(&mut ident, None, &mut out);
        out.push('\n');
    }
    out
}

/// Reads `corpus/MANIFEST.tsv`: (file name, verdict) per entry.
pub fn corpus_manifest(corpus: &Path) -> io::Result<Vec<(String, String)>> {
    let text = std::fs::read_to_string(corpus.join("MANIFEST.tsv"))?;
    let mut out = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        match (f.first(), f.last()) {
            (Some(file), Some(verdict)) if f.len() >= 6 => {
                out.push((file.to_string(), verdict.to_string()))
            }
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad manifest line `{line}`"),
                ))
            }
        }
    }
    Ok(out)
}

/// The live-service workload: a seed database, live rulesets, and the
/// corpus request bodies.
pub fn serve_live(dir: &Path, corpus: &Path, seed: u64) -> io::Result<LiveInputs> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 4));
    let mut schema = Schema::new();
    let arities: Vec<usize> = (0..LIVE_PREDS).map(|i| 1 + i % 4).collect();
    let preds: Vec<PredId> = arities
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            schema
                .add_predicate(&format!("lv{i}"), a)
                .expect("fresh names")
        })
        .collect();

    // Each predicate gets a menu of shapes; one shape outside the menu of
    // a few predicates is kept back for the write stream to toggle.
    let mut menus: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut rare = Vec::new();
    for (i, &a) in arities.iter().enumerate() {
        let mut all = all_rgs(a);
        shuffle(&mut all, &mut rng);
        if all.len() > LIVE_MENU && rare.len() < 4 {
            rare.push((i as u16, all[LIVE_MENU].clone()));
        }
        all.truncate(LIVE_MENU);
        menus.push(all);
    }

    let mut shadow = Shadow::default();
    let mut seen: HashSet<(u16, Vec<u32>)> = HashSet::new();
    let per_pred = LIVE_TUPLES / LIVE_PREDS;
    let mut text = String::with_capacity(LIVE_TUPLES * 24);
    for (i, menu) in menus.iter().enumerate() {
        let mut made = 0;
        while made < per_pred {
            let shape = &menu[if made < menu.len() {
                made
            } else {
                rng.random_range(0..menu.len())
            }];
            let t = tuple_of_shape(shape, || rng.random_range(0..LIVE_DOMAIN));
            // The seed is loaded with set semantics: keep it duplicate-free.
            if seen.insert((i as u16, t.clone())) {
                text.push_str(&live_fact(i as u16, &t));
                text.push_str(".\n");
                shadow.insert(i as u16, t);
                made += 1;
            }
        }
    }
    let seed_facts = dir.join("live_seed.facts");
    write(&seed_facts, &text)?;
    let mut pool: Vec<u32> = seen.iter().flat_map(|(_, t)| t.iter().copied()).collect();
    pool.sort_unstable();
    pool.dedup();

    let mut live = Vec::new();
    for r in 0..LIVE_RULESETS {
        let cfg = TgdGenConfig {
            ssize: LIVE_PREDS,
            max_arity: 4,
            ..TgdGenConfig::new(0, LIVE_RULES, TgdClass::Linear, mix(seed, 300 + r as u64))
        };
        let tgds = soct_gen::generate_tgds(&cfg, &schema, &preds);
        let body = rules_text(&tgds, &schema);
        let path = dir.join(format!("live{r}.rules"));
        write(&path, &body)?;
        live.push((path, body));
    }

    let manifest = corpus_manifest(corpus)?;
    let mut cold = Vec::new();
    let mut repeats = Vec::new();
    for (i, (file, verdict)) in manifest.iter().enumerate() {
        let body = std::fs::read_to_string(corpus.join(file))?;
        // The first entry of each (family, difficulty) bucket is also a
        // repeated ruleset.
        if i % soct_gen::BUCKET_SIZE == 0 {
            let variants = (0..REPEAT_VARIANTS)
                .map(|v| permute_and_rename(&body, &format!("Z{v}"), &mut rng))
                .collect();
            repeats.push(variants);
        }
        cold.push((body, verdict.clone()));
    }
    Ok(LiveInputs {
        seed_facts,
        rare,
        pool,
        shadow,
        live,
        cold,
        repeats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_rules_match_the_roadmap_set_at_arity_3() {
        assert_eq!(
            stress_rules(3),
            "r(V0,V1,V2) -> r(V1,V0,V2).\nr(V0,V1,V2) -> r(V1,V2,V0).\n\
             r(V0,V1,V2) -> r(V0,V0,V2).\nr(V0,V0,V2) -> r(Y,V0,V2).\n"
        );
    }

    #[test]
    fn there_are_bell_many_rgs() {
        assert_eq!(all_rgs(1), vec![vec![1]]);
        let lens: Vec<usize> = (1..=5).map(|n| all_rgs(n).len()).collect();
        assert_eq!(lens, [1, 2, 5, 15, 52]);
        for s in all_rgs(4) {
            assert_eq!(rgs(&s), s);
        }
    }

    #[test]
    fn tuples_take_the_requested_shape() {
        let mut n = 0u32;
        let t = tuple_of_shape(&[1, 2, 1], || {
            n += 1;
            n / 2 // 0, 1, 1, 2: duplicates are redrawn
        });
        assert_eq!(t, vec![0, 1, 0]);
        assert_eq!(live_fact(3, &t), "lv3(k0,k1,k0)");
    }

    #[test]
    fn renaming_touches_predicates_only() {
        assert_eq!(
            rename_predicates("p0(X, Y) -> q_1(Y, Z).\n", "_c7"),
            "p0_c7(X, Y) -> q_1_c7(Y, Z).\n"
        );
    }

    #[test]
    fn variants_rename_variables_and_keep_rules() {
        let mut rng = StdRng::seed_from_u64(1);
        let v = permute_and_rename("p(X,Y) -> q(Y).\nq(X) -> p(X,Y).\n", "Z0", &mut rng);
        let mut lines: Vec<&str> = v.lines().collect();
        lines.sort_unstable();
        assert_eq!(lines, ["p(Z0X,Z0Y) -> q(Z0Y).", "q(Z0X) -> p(Z0X,Z0Y)."]);
    }
}
