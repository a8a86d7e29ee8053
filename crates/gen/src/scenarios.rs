//! Synthetic stand-ins for the §9 validation scenarios.
//!
//! The original artefacts (Deep \[8\], LUBM \[16\], iBench STB-128/ONT-256 \[5\])
//! are not redistributable here, so each family is *re-synthesised to its
//! published Table 1 statistics* — number of predicates, arity range,
//! number of atoms, number of database shapes, number of rules — which are
//! exactly the quantities the runtime of `IsChaseFinite[L]` depends on
//! (§8's analysis: `t-shapes` on database size/shape count,
//! db-independent time on rule count and schema size). See DESIGN.md
//! ("Substitutions") for the argument in full.
//!
//! Structural properties preserved per family:
//! - **Deep-like**: ~1300 predicates of arity 4, layered (weakly-acyclic)
//!   simple-linear rules, and a database of 1000 *singleton relations* —
//!   the property §9.2 credits for in-memory FindShapes winning.
//! - **LUBM-like**: a small EL-style vocabulary (unary classes, binary
//!   properties), 137 hierarchy/domain/range/existential axioms, few
//!   shapes, very many atoms — in-database FindShapes wins.
//! - **iBench-like**: many predicates of high arity (up to 10/11) with
//!   moderate shape counts — stresses the Apriori lattice walk.

use crate::datagen::make_predicates;
use crate::partition::PartitionSampler;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use soct_model::{Atom, ConstId, PredId, Rgs, Schema, Term, Tgd, VarId};
use soct_storage::{StorageEngine, TupleSource};

/// A ready-to-run validation scenario.
pub struct Scenario {
    pub name: String,
    pub schema: Schema,
    pub tgds: Vec<Tgd>,
    pub engine: StorageEngine,
    pub stats: ScenarioStats,
}

/// The Table 1 statistics, measured on the generated artefacts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioStats {
    pub n_pred: usize,
    pub arity_min: usize,
    pub arity_max: usize,
    pub n_atoms: u64,
    pub n_shapes: usize,
    pub n_rules: usize,
}

/// Counts the distinct shapes in an engine by scanning (used to report
/// `n-shapes`; the checkers recompute it through `FindShapes`).
pub fn count_shapes(engine: &StorageEngine) -> usize {
    let mut shapes: soct_model::FxHashSet<(PredId, Rgs)> = soct_model::FxHashSet::default();
    for pred in engine.non_empty_predicates() {
        engine.scan(pred, &mut |row| {
            shapes.insert((pred, Rgs::of_row(row)));
            true
        });
    }
    shapes.len()
}

fn measure(name: &str, schema: &Schema, tgds: &[Tgd], engine: &StorageEngine) -> ScenarioStats {
    let arities: Vec<usize> = schema.predicates().map(|p| schema.arity(p)).collect();
    let _ = name;
    ScenarioStats {
        n_pred: schema.len(),
        arity_min: arities.iter().copied().min().unwrap_or(0),
        arity_max: arities.iter().copied().max().unwrap_or(0),
        n_atoms: engine.total_rows(),
        n_shapes: count_shapes(engine),
        n_rules: tgds.len(),
    }
}

/// Layered simple-linear rules: bodies in layer i, heads in layer > i —
/// weakly acyclic by construction (the predicate-level graph is a DAG, so
/// no dependency-graph cycle of any kind exists).
fn layered_sl_rules(
    schema: &Schema,
    layers: &[Vec<PredId>],
    n_rules: usize,
    existential_prob: f64,
    rng: &mut StdRng,
) -> Vec<Tgd> {
    let mut out = Vec::with_capacity(n_rules);
    while out.len() < n_rules {
        let li = rng.random_range(0..layers.len() - 1);
        let lj = rng.random_range(li + 1..layers.len());
        let body_pred = layers[li][rng.random_range(0..layers[li].len())];
        let head_pred = layers[lj][rng.random_range(0..layers[lj].len())];
        let body_arity = schema.arity(body_pred);
        let head_arity = schema.arity(head_pred);
        let body: Vec<Term> = (0..body_arity as u32)
            .map(|i| Term::Var(VarId(i)))
            .collect();
        let mut next = body_arity as u32;
        let head: Vec<Term> = (0..head_arity)
            .map(|_| {
                if rng.random_bool(existential_prob) {
                    let v = next;
                    next += 1;
                    Term::Var(VarId(v))
                } else {
                    Term::Var(VarId(rng.random_range(0..body_arity as u32)))
                }
            })
            .collect();
        out.push(
            Tgd::new(
                vec![Atom::new(schema, body_pred, body).expect("arity ok")],
                vec![Atom::new(schema, head_pred, head).expect("arity ok")],
            )
            .expect("valid rule"),
        );
    }
    out
}

/// Fills `preds` with tuples whose shapes are drawn from a fixed per-pred
/// menu, hitting an exact total shape budget.
fn fill_with_shape_menu(
    schema: &Schema,
    engine: &mut StorageEngine,
    menus: &[(PredId, Vec<Rgs>)],
    tuples_per_pred: u64,
    dsize: u32,
    rng: &mut StdRng,
) {
    let mut row = [0u64; 32];
    let mut blocks = [0u64; 32];
    for (pred, menu) in menus {
        let arity = schema.arity(*pred);
        engine.create_table(*pred, schema.name(*pred), arity);
        for t in 0..tuples_per_pred {
            // Guarantee every menu shape appears at least once by cycling
            // through the menu first, then sampling uniformly.
            let shape = if (t as usize) < menu.len() {
                &menu[t as usize]
            } else {
                &menu[rng.random_range(0..menu.len())]
            };
            let nblocks = shape.block_count();
            for b in 0..nblocks {
                loop {
                    let v = Term::Const(ConstId(rng.random_range(0..dsize))).pack();
                    if !blocks[..b].contains(&v) {
                        blocks[b] = v;
                        break;
                    }
                }
            }
            for (i, &id) in shape.ids().iter().enumerate() {
                row[i] = blocks[id as usize - 1];
            }
            engine.insert_packed(*pred, &row[..arity]);
        }
    }
}

/// Picks `count` distinct random *fine* shapes of the given arity: at most
/// two block merges away from the identity partition. Real relational data
/// rarely repeats a value across many columns, and the published iBench
/// shape counts (129 shapes over 287 relations) are only consistent with
/// near-identity shapes; coarse shapes would also make the Apriori lattice
/// walk visit an unrealistically large down-set.
fn random_shape_menu(
    sampler: &PartitionSampler,
    arity: usize,
    count: usize,
    rng: &mut StdRng,
) -> Vec<Rgs> {
    let _ = sampler;
    // Number of partitions with ≥ arity-2 blocks: identity + C(n,2) single
    // merges + (3-block and 2+2-block double merges).
    let max_fine = 1 + arity * (arity - 1) / 2;
    let max = count.min(max_fine.max(1));
    let mut menu: Vec<Rgs> = Vec::new();
    let mut guard = 0;
    while menu.len() < max && guard < 10_000 {
        guard += 1;
        let mut ids: Vec<u8> = (1..=arity as u8).collect();
        // 0, 1 or 2 merges, biased toward fewer.
        let merges = if arity < 2 {
            0
        } else {
            [0usize, 1, 1, 2][rng.random_range(0..4usize)]
        };
        for _ in 0..merges {
            let i = rng.random_range(0..arity);
            let j = rng.random_range(0..arity);
            let (a, b) = (ids[i].min(ids[j]), ids[i].max(ids[j]));
            for v in ids.iter_mut() {
                if *v == b {
                    *v = a;
                }
            }
        }
        let s = Rgs::canonicalize(&ids);
        if !menu.contains(&s) {
            menu.push(s);
        }
    }
    menu
}

/// Deep-like scenario (`Deep-100/200/300`): Table 1 row
/// `(n-pred 1299, arity 4, n-atoms 1000, n-shapes 1000, n-rules 4241+100·k)`.
pub fn deep_like(variant: usize, seed: u64) -> Scenario {
    assert!(
        [100, 200, 300].contains(&variant),
        "Deep variants are 100/200/300"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdeeb);
    let mut schema = Schema::new();
    let preds = make_predicates(&mut schema, "deep", 1299, 4, 4, &mut rng);
    // 13 layers of ~100 predicates: source-to-target chains.
    let layers: Vec<Vec<PredId>> = preds.chunks(100).map(|c| c.to_vec()).collect();
    // Deep-100: 4241, Deep-200: 4541, Deep-300: 4841 — step of 300.
    let n_rules = 4241 + (variant - 100) / 100 * 300;
    let tgds = layered_sl_rules(&schema, &layers, n_rules, 0.12, &mut rng);

    // 1000 singleton relations, each contributing exactly one (pred, shape)
    // pair ⇒ n-shapes = n-atoms = 1000.
    let sampler = PartitionSampler::new();
    let mut engine = StorageEngine::new();
    let menus: Vec<(PredId, Vec<Rgs>)> = preds
        .iter()
        .take(1000)
        .map(|&p| (p, vec![sampler.sample(&mut rng, 4)]))
        .collect();
    fill_with_shape_menu(&schema, &mut engine, &menus, 1, 10_000, &mut rng);

    let stats = measure("deep", &schema, &tgds, &engine);
    Scenario {
        name: format!("Deep-{variant}"),
        schema,
        tgds,
        engine,
        stats,
    }
}

/// LUBM-like scenario: Table 1 row `(n-pred 104, arity [1,2],
/// n-atoms ≈ 99547·scale_factor, n-shapes 30, n-rules 137)`.
///
/// `scale` plays the role of the LUBM university count (1, 10, 100, 1000);
/// `atom_scale` shrinks the per-university atom volume for laptop runs
/// (1.0 = paper size).
pub fn lubm_like(scale: usize, atom_scale: f64, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10b3);
    let mut schema = Schema::new();
    // 60 unary classes + 44 binary properties = 104 predicates.
    let classes = make_predicates(&mut schema, "Class", 60, 1, 1, &mut rng);
    let props = make_predicates(&mut schema, "prop", 44, 2, 2, &mut rng);

    // 137 EL-style axioms. Classes 40–53 carry the existential axioms,
    // whose nulls land in properties 21–34; no axiom leads from those
    // properties back up to class 40, so dg(Σ) has no special cycle and
    // the chase is finite on every database, as for the paper's LUBM.
    let mut tgds: Vec<Tgd> = Vec::with_capacity(137);
    let v0 = Term::Var(VarId(0));
    let v1 = Term::Var(VarId(1));
    let v2 = Term::Var(VarId(2));
    let push = |body: Atom, head: Atom, tgds: &mut Vec<Tgd>| {
        tgds.push(Tgd::new(vec![body], vec![head]).expect("valid axiom"));
    };
    // 59 class-hierarchy axioms A_i ⊑ A_{f(i)<i} (a forest, acyclic).
    for i in 1..60 {
        let parent = rng.random_range(0..i);
        push(
            Atom::new(&schema, classes[i], vec![v0]).unwrap(),
            Atom::new(&schema, classes[parent], vec![v0]).unwrap(),
            &mut tgds,
        );
    }
    // 20 property-hierarchy axioms P_i ⊑ P_{g(i)<i}.
    for i in 1..21 {
        let parent = rng.random_range(0..i);
        push(
            Atom::new(&schema, props[i], vec![v0, v1]).unwrap(),
            Atom::new(&schema, props[parent], vec![v0, v1]).unwrap(),
            &mut tgds,
        );
    }
    // 22 domain + 22 range axioms. A range axiom moves the second
    // argument, so on the existential axioms' properties it must name a
    // class below 40: the class hierarchy only leads further down.
    for i in 0..22 {
        let c = classes[rng.random_range(0..60usize)];
        push(
            Atom::new(&schema, props[i * 2], vec![v0, v1]).unwrap(),
            Atom::new(&schema, c, vec![v0]).unwrap(),
            &mut tgds,
        );
        let range_classes: usize = if (21..35).contains(&(i * 2 + 1)) {
            40
        } else {
            60
        };
        let c2 = classes[rng.random_range(0..range_classes)];
        push(
            Atom::new(&schema, props[i * 2 + 1], vec![v0, v1]).unwrap(),
            Atom::new(&schema, c2, vec![v1]).unwrap(),
            &mut tgds,
        );
    }
    // 14 existential axioms A ⊑ ∃P: classes 40–53 point to properties
    // 21–34.
    for i in 0..14 {
        let c = classes[40 + i];
        let p = props[21 + i];
        push(
            Atom::new(&schema, c, vec![v0]).unwrap(),
            Atom::new(&schema, p, vec![v0, v2]).unwrap(),
            &mut tgds,
        );
    }
    assert_eq!(tgds.len(), 137);

    // Data: 20 populated classes (1 shape each) + 5 populated properties
    // (2 shapes each) = 30 shapes; ≈ 99547·scale·atom_scale atoms.
    let total_atoms = ((99_547.0 * scale as f64 * atom_scale) as u64).max(30);
    let per_pred = (total_atoms / 25).max(2);
    let mut menus: Vec<(PredId, Vec<Rgs>)> = Vec::new();
    for &c in classes.iter().take(20) {
        menus.push((c, vec![Rgs::identity(1)]));
    }
    for &p in props.iter().take(5) {
        menus.push((p, vec![Rgs::identity(2), Rgs::canonicalize(&[1, 1])]));
    }
    let mut engine = StorageEngine::new();
    let dsize = (total_atoms as u32).max(1000);
    fill_with_shape_menu(&schema, &mut engine, &menus, per_pred, dsize, &mut rng);

    let stats = measure("lubm", &schema, &tgds, &engine);
    Scenario {
        name: format!("LUBM-{scale}"),
        schema,
        tgds,
        engine,
        stats,
    }
}

/// Which iBench-like scenario to build.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IBenchVariant {
    /// 287 predicates, arity `[1,10]`, 231 rules, 129 shapes, ~1.1M atoms.
    Stb128,
    /// 662 predicates, arity `[1,11]`, 785 rules, 245 shapes, ~2.1M atoms.
    Ont256,
}

/// iBench-like scenario; `atom_scale` shrinks the atom volume
/// (1.0 = paper size).
pub fn ibench_like(variant: IBenchVariant, atom_scale: f64, seed: u64) -> Scenario {
    let (name, n_pred, max_arity, n_rules, n_shapes, paper_atoms) = match variant {
        IBenchVariant::Stb128 => ("STB-128", 287, 10, 231, 129, 1_109_037u64),
        IBenchVariant::Ont256 => ("ONT-256", 662, 11, 785, 245, 2_146_490u64),
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1bec);
    let mut schema = Schema::new();
    let preds = make_predicates(&mut schema, "ib", n_pred, 1, max_arity, &mut rng);
    // Two layers: source relations map into target relations (s-t TGDs),
    // plus a thin third layer of target-target rules — all acyclic.
    let third = n_pred / 3;
    let layers = vec![
        preds[..third].to_vec(),
        preds[third..2 * third].to_vec(),
        preds[2 * third..].to_vec(),
    ];
    let tgds = layered_sl_rules(&schema, &layers, n_rules, 0.15, &mut rng);

    // Populate source relations with a shape menu summing to `n_shapes`.
    let sampler = PartitionSampler::new();
    let mut menus: Vec<(PredId, Vec<Rgs>)> = Vec::new();
    let mut remaining = n_shapes;
    let mut idx = 0usize;
    while remaining > 0 {
        let p = preds[idx % third];
        idx += 1;
        let arity = schema.arity(p);
        let budget = rng.random_range(1..=3usize).min(remaining);
        let menu = random_shape_menu(&sampler, arity, budget, &mut rng);
        if menu.is_empty() {
            continue;
        }
        remaining -= menu.len();
        menus.push((p, menu));
        if idx > 10 * third {
            break; // menus saturated (tiny arities): accept what we have
        }
    }
    let total_atoms = ((paper_atoms as f64 * atom_scale) as u64).max(menus.len() as u64 * 4);
    let per_pred = (total_atoms / menus.len().max(1) as u64).max(4);
    let mut engine = StorageEngine::new();
    fill_with_shape_menu(&schema, &mut engine, &menus, per_pred, 100_000, &mut rng);

    let stats = measure(name, &schema, &tgds, &engine);
    Scenario {
        name: name.to_string(),
        schema,
        tgds,
        engine,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soct_core::{is_chase_finite_l, FindShapesMode};

    #[test]
    fn deep_like_matches_table_1() {
        let s = deep_like(200, 7);
        assert_eq!(s.stats.n_pred, 1299);
        assert_eq!(s.stats.arity_min, 4);
        assert_eq!(s.stats.arity_max, 4);
        assert_eq!(s.stats.n_atoms, 1000);
        assert_eq!(s.stats.n_shapes, 1000);
        assert_eq!(s.stats.n_rules, 4541);
        assert!(s.tgds.iter().all(Tgd::is_simple_linear));
    }

    #[test]
    fn deep_rule_counts_follow_variants() {
        assert_eq!(deep_like(100, 1).stats.n_rules, 4241);
        assert_eq!(deep_like(300, 1).stats.n_rules, 4841);
    }

    #[test]
    fn deep_like_is_weakly_acyclic_hence_finite() {
        let s = deep_like(100, 3);
        let rep = is_chase_finite_l(&s.schema, &s.tgds, &s.engine, FindShapesMode::InMemory);
        assert!(rep.finite, "layered rules are weakly acyclic");
    }

    #[test]
    fn lubm_like_matches_table_1() {
        let s = lubm_like(1, 0.01, 11);
        assert_eq!(s.stats.n_pred, 104);
        assert_eq!(s.stats.arity_min, 1);
        assert_eq!(s.stats.arity_max, 2);
        assert_eq!(s.stats.n_rules, 137);
        assert_eq!(s.stats.n_shapes, 30);
        assert!(s.stats.n_atoms > 500);
        assert!(s.tgds.iter().all(Tgd::is_simple_linear));
    }

    #[test]
    fn lubm_scales_with_university_count() {
        let one = lubm_like(1, 0.01, 11);
        let ten = lubm_like(10, 0.01, 11);
        assert!(ten.stats.n_atoms > 5 * one.stats.n_atoms);
        assert_eq!(one.stats.n_shapes, ten.stats.n_shapes);
    }

    #[test]
    fn ibench_like_matches_table_1() {
        let s = ibench_like(IBenchVariant::Stb128, 0.002, 5);
        assert_eq!(s.stats.n_pred, 287);
        assert_eq!(s.stats.arity_min, 1);
        assert_eq!(s.stats.arity_max, 10);
        assert_eq!(s.stats.n_rules, 231);
        // Shape budget is hit up to menu saturation on small arities.
        assert!(
            (110..=129).contains(&s.stats.n_shapes),
            "n_shapes = {}",
            s.stats.n_shapes
        );
        let o = ibench_like(IBenchVariant::Ont256, 0.001, 5);
        assert_eq!(o.stats.n_pred, 662);
        assert_eq!(o.stats.arity_max, 11);
        assert_eq!(o.stats.n_rules, 785);
    }

    #[test]
    fn scenarios_run_through_the_checker() {
        for s in [
            lubm_like(1, 0.005, 2),
            ibench_like(IBenchVariant::Stb128, 0.001, 2),
        ] {
            let rep = is_chase_finite_l(&s.schema, &s.tgds, &s.engine, FindShapesMode::InDatabase);
            assert!(rep.finite, "{} should be acyclic", s.name);
            assert!(rep.n_db_shapes > 0);
        }
    }
}
