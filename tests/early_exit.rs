//! Algorithm 3's early exit against its full fixpoint: the verdict path
//! (`check_l_early_exit`, behind every `check_termination*` function)
//! returns the same verdict as `check_l_with_shapes` on every input, the
//! same closure sizes whenever the verdict is Finite, and stops at the
//! first special cycle on the arity-stress set, whose full fixpoint
//! derives Bell(n) shapes. The verdict path also admits the database's
//! shapes lazily, in doubling batches, while `check_l_with_shapes` admits
//! them all up front: the inputs below include every small shape of each
//! corpus entry, in two orders, and a database shape that an earlier one
//! derives.

use proptest::prelude::*;
use soct::core::{check_l_early_exit, check_l_with_shapes, dyn_simplification, CheckRun};
use soct::gen::{DataGenConfig, TgdGenConfig};
use soct::model::shape::shapes_of_instance;
use soct::prelude::*;

/// Runs both paths on one input and checks that they agree. Returns
/// whether the early exit stopped before the fixpoint.
fn agree(schema: &Schema, tgds: &[Tgd], db_shapes: &[Shape], what: &str) -> bool {
    let full = check_l_with_shapes(schema, tgds, db_shapes);
    let early = check_l_early_exit(schema, tgds, db_shapes);
    assert!(
        !full.stopped_early,
        "{what}: the full fixpoint never stops early"
    );
    assert_eq!(early.finite, full.finite, "{what}: verdict");
    assert_eq!(full.db_shapes_admitted, db_shapes.len(), "{what}");
    assert!(early.db_shapes_admitted <= db_shapes.len(), "{what}");
    if early.finite {
        assert!(!early.stopped_early, "{what}: only Infinite stops early");
        assert_eq!(
            early.db_shapes_admitted,
            db_shapes.len(),
            "{what}: Finite admits every database shape"
        );
        assert_eq!(early.shapes_derived, full.shapes_derived, "{what}: shapes");
        assert_eq!(
            early.n_simplified_tgds, full.n_simplified_tgds,
            "{what}: rules"
        );
        assert_eq!(early.graph_edges, full.graph_edges, "{what}: edges");
    } else {
        assert!(
            early.num_special_sccs > 0,
            "{what}: a special SCC was found"
        );
        assert!(
            early.shapes_derived <= full.shapes_derived,
            "{what}: shapes"
        );
        assert!(
            early.n_simplified_tgds <= full.n_simplified_tgds,
            "{what}: rules"
        );
        if !early.stopped_early {
            assert_eq!(early.n_simplified_tgds, full.n_simplified_tgds, "{what}");
        }
    }
    early.stopped_early
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

/// The stress set on its critical instance D_Σ.
fn stress_program(n: usize) -> (Schema, Vec<Tgd>, Database) {
    let mut p = Program::parse(&stress_rules(n)).unwrap();
    let db = soct::serve::critical_instance(&p.schema, &p.tgds, &mut p.consts);
    (p.schema, p.tgds, db)
}

#[test]
fn stress_rules_are_the_roadmap_set() {
    assert_eq!(
        stress_rules(3),
        "r(V0,V1,V2) -> r(V1,V0,V2).\nr(V0,V1,V2) -> r(V1,V2,V0).\n\
         r(V0,V1,V2) -> r(V0,V0,V2).\nr(V0,V0,V2) -> r(Y,V0,V2).\n"
    );
}

#[test]
fn arity_10_stress_set_stops_at_the_first_special_cycle() {
    let (schema, tgds, db) = stress_program(10);
    let report = check_termination(&schema, &tgds, &db, FindShapesMode::InMemory);
    assert_eq!(report.verdict, Verdict::Infinite);
    let CheckRun::L(rep) = report.run else {
        panic!("a linear set runs Algorithm 3: {:?}", report.run);
    };
    assert!(rep.stopped_early);
    assert!(rep.num_special_sccs > 0);
    // The full fixpoint derives Bell(10) = 115,975 shapes.
    assert!(rep.shapes_derived <= 300, "{} shapes", rep.shapes_derived);
    assert!(
        rep.n_simplified_tgds <= 1_000,
        "{} rules",
        rep.n_simplified_tgds
    );
    assert_eq!(rep.n_db_shapes, 1);
}

#[test]
fn arity_6_stress_set_keeps_its_full_fixpoint() {
    let (schema, tgds, db) = stress_program(6);
    let shapes = shapes_of_instance(&db);
    // Bell(6) = 203: `dyn_simplification` and the figures' entry point
    // still close over every shape.
    assert_eq!(
        dyn_simplification(&schema, &tgds, &shapes).shapes_derived,
        203
    );
    let full = check_l_with_shapes(&schema, &tgds, &shapes);
    assert_eq!(full.shapes_derived, 203);
    assert!(!full.finite);
    assert!(agree(&schema, &tgds, &shapes, "arity 6"));
    let early = check_l_early_exit(&schema, &tgds, &shapes);
    assert!(early.shapes_derived < 203, "{}", early.shapes_derived);
}

#[test]
fn corpus_linear_entries_agree_with_the_full_fixpoint() {
    let dir = soct::gen::repo_corpus_dir();
    let entries = soct::gen::load_manifest(&dir).expect("checked-in corpus manifest");
    let mut linear = 0;
    for e in &entries {
        let text = std::fs::read_to_string(dir.join(&e.file)).expect(&e.file);
        let mut schema = Schema::new();
        let mut consts = Interner::new();
        let tgds = parse_tgds(&text, &mut schema, &mut consts).expect(&e.file);
        if soct::model::tgd::classify(&tgds) != TgdClass::Linear {
            continue;
        }
        linear += 1;
        let db = soct::serve::critical_instance(&schema, &tgds, &mut consts);
        agree(&schema, &tgds, &shapes_of_instance(&db), &e.file);
    }
    assert!(linear >= 10, "{linear} linear corpus entries");
}

/// Every shape of arity at most 5 of each predicate of `schema`, the
/// predicates in id order and each one's shapes in lexicographic order.
fn small_shapes(schema: &Schema) -> Vec<Shape> {
    schema
        .predicates()
        .filter(|&p| schema.arity(p) <= 5)
        .flat_map(|pred| {
            Rgs::all_of_len(schema.arity(pred))
                .into_iter()
                .map(move |rgs| Shape { pred, rgs })
        })
        .collect()
}

#[test]
fn corpus_linear_entries_agree_on_every_small_shape() {
    // Each database holds every shape of arity ≤ 5, so lazy admission
    // meets shapes that earlier ones derive, in both orders.
    let dir = soct::gen::repo_corpus_dir();
    let entries = soct::gen::load_manifest(&dir).expect("checked-in corpus manifest");
    let (mut linear, mut lazy_stops) = (0, 0);
    for e in &entries {
        let text = std::fs::read_to_string(dir.join(&e.file)).expect(&e.file);
        let mut schema = Schema::new();
        let mut consts = Interner::new();
        let tgds = parse_tgds(&text, &mut schema, &mut consts).expect(&e.file);
        if soct::model::tgd::classify(&tgds) != TgdClass::Linear {
            continue;
        }
        linear += 1;
        let mut shapes = small_shapes(&schema);
        agree(&schema, &tgds, &shapes, &e.file);
        shapes.reverse();
        agree(&schema, &tgds, &shapes, &format!("{} reversed", e.file));
        if check_l_early_exit(&schema, &tgds, &shapes).db_shapes_admitted < shapes.len() {
            lazy_stops += 1;
        }
    }
    assert!(linear >= 10, "{linear} linear corpus entries");
    assert!(
        lazy_stops >= 3,
        "{lazy_stops} entries stopped before their last shape"
    );
}

#[test]
fn a_database_shape_that_an_earlier_one_derives_adds_nothing() {
    // r(x,y) → r(x,x) derives the second database shape from the first,
    // so the second admission (two shapes) brings only `p`'s shape. Both
    // a Finite and an Infinite set read the same database.
    let db_shapes = |schema: &Schema| -> Vec<Shape> {
        let r = schema.pred_by_name("r").unwrap();
        let p = schema.pred_by_name("p").unwrap();
        vec![
            Shape {
                pred: r,
                rgs: Rgs::identity(2),
            },
            Shape {
                pred: r,
                rgs: Rgs::canonicalize(&[1, 1]),
            },
            Shape {
                pred: p,
                rgs: Rgs::identity(1),
            },
        ]
    };
    for (rules, finite) in [
        (
            "r(X, Y) -> r(X, X).
p(X) -> q(X, Y).
",
            true,
        ),
        (
            "r(X, Y) -> r(X, X).
p(X) -> p(X).
r(X, X) -> r(Y, X).
",
            false,
        ),
    ] {
        let mut p = Program::parse(rules).unwrap();
        p.schema.add_predicate("p", 1).unwrap();
        let shapes = db_shapes(&p.schema);
        agree(&p.schema, &p.tgds, &shapes, rules);
        let early = check_l_early_exit(&p.schema, &p.tgds, &shapes);
        assert_eq!(early.finite, finite, "{rules}");
        let full = check_l_with_shapes(&p.schema, &p.tgds, &shapes);
        assert_eq!(full.finite, finite, "{rules}");
    }
}

/// Existential probabilities of the random sets: none (every set Finite,
/// probed on the way to its fixpoint), rare (both verdicts) and the
/// paper's 10% (mostly Infinite, often stopping early).
const EXISTENTIAL: [f64; 3] = [0.0, 0.02, 0.1];

/// A random linear set large enough that its simplified set passes the
/// first probe size on most seeds.
fn random_linear(seed: u64, existential_prob: f64) -> (Schema, Database, Vec<Tgd>) {
    let mut schema = Schema::new();
    let (preds, db) = soct::gen::generate_instance(
        &DataGenConfig {
            preds: 8,
            min_arity: 1,
            max_arity: 4,
            dsize: 12,
            rsize: 6,
            seed,
        },
        &mut schema,
    );
    let tgds = soct::gen::generate_tgds(
        &TgdGenConfig {
            ssize: 8,
            min_arity: 1,
            max_arity: 4,
            tsize: 50,
            tclass: TgdClass::Linear,
            existential_prob,
            seed: seed ^ 0x5eed,
        },
        &schema,
        &preds,
    );
    (schema, db, tgds)
}

#[test]
fn random_linear_sets_exercise_both_outcomes() {
    // The proptest below is only a differential test if some inputs stop
    // early and some Finite ones pass probes on the way to the fixpoint.
    let (mut stopped, mut probed_finite) = (0, 0);
    for seed in 0..20 {
        for p in EXISTENTIAL {
            let (schema, db, tgds) = random_linear(seed, p);
            let shapes = shapes_of_instance(&db);
            if agree(&schema, &tgds, &shapes, &format!("seed {seed}, p {p}")) {
                stopped += 1;
            }
            let full = check_l_with_shapes(&schema, &tgds, &shapes);
            if full.finite && full.n_simplified_tgds > soct::core::check_l::FIRST_PROBE {
                probed_finite += 1;
            }
        }
    }
    assert!(stopped >= 5, "{stopped} sets stopped early");
    assert!(
        probed_finite >= 5,
        "{probed_finite} Finite sets passed a probe"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn early_exit_agrees_with_the_full_fixpoint(seed in 0u64..1_000_000, p in 0usize..3) {
        let (schema, db, tgds) = random_linear(seed, EXISTENTIAL[p]);
        let shapes = shapes_of_instance(&db);
        agree(&schema, &tgds, &shapes, &format!("seed {seed}, p {p}"));
        // The dispatching entry point takes the same path.
        let full = check_l_with_shapes(&schema, &tgds, &shapes);
        let report = check_termination(&schema, &tgds, &db, FindShapesMode::InMemory);
        prop_assert_eq!(report.verdict == Verdict::Finite, full.finite, "seed {}", seed);
    }

    #[test]
    fn lazy_admission_agrees_in_any_shape_order(seed in 0u64..1_000_000, p in 0usize..3) {
        // The same sets with their database shapes in a random order, and
        // with every small shape of the schema as the database.
        let (schema, db, tgds) = random_linear(seed, EXISTENTIAL[p]);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        for mut shapes in [shapes_of_instance(&db), small_shapes(&schema)] {
            for i in (1..shapes.len()).rev() {
                shapes.swap(i, rand::RngExt::random_range(&mut rng, 0..=i));
            }
            agree(&schema, &tgds, &shapes, &format!("seed {seed}, p {p}"));
        }
    }
}
