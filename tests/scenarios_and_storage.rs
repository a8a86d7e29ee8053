//! Integration tests over the §9 scenario families and the storage layer:
//! persistence round trips, view consistency, and checker runs on every
//! scenario.

use soct::gen::{deep_like, ibench_like, lubm_like, IBenchVariant};
use soct::prelude::*;

#[test]
fn all_scenarios_check_finite_with_both_findshapes_modes() {
    let scenarios = vec![
        deep_like(100, 1),
        lubm_like(1, 0.01, 1),
        ibench_like(IBenchVariant::Stb128, 0.001, 1),
    ];
    for s in scenarios {
        for mode in [FindShapesMode::InMemory, FindShapesMode::InDatabase] {
            let rep = soct::core::is_chase_finite_l(&s.schema, &s.tgds, &s.engine, mode);
            assert!(rep.finite, "{} must be weakly acyclic ({mode:?})", s.name);
            assert_eq!(
                rep.n_db_shapes, s.stats.n_shapes,
                "{}: FindShapes disagrees with generation-time stats",
                s.name
            );
        }
    }
}

#[test]
fn lubm_like_has_no_special_cycle_on_any_seed() {
    // The paper's LUBM is Finite (Table 2). The stand-in's existential
    // axioms must never feed their nulls back into an existential class:
    // dg(Σ) has no special SCC, so the chase is finite on every database.
    for seed in 0..400 {
        let s = lubm_like(1, 0.0003, seed);
        let graph = DependencyGraph::build(&s.schema, &s.tgds);
        assert!(
            !find_special_sccs(&graph).has_special_scc(),
            "seed {seed}: special SCC in dg(Σ)"
        );
        assert_eq!(s.stats.n_pred, 104, "seed {seed}");
        assert_eq!(s.stats.n_rules, 137, "seed {seed}");
        assert_eq!(s.stats.n_shapes, 30, "seed {seed}");
    }
}

#[test]
fn scenario_engines_persist_and_reload() {
    let s = lubm_like(1, 0.005, 9);
    let bytes = soct::storage::persist::to_bytes(&s.engine);
    let reloaded = soct::storage::persist::from_bytes(&bytes).unwrap();
    assert_eq!(reloaded.total_rows(), s.engine.total_rows());
    // The reloaded engine yields the same verdict and shape count.
    let a =
        soct::core::is_chase_finite_l(&s.schema, &s.tgds, &s.engine, FindShapesMode::InDatabase);
    let b =
        soct::core::is_chase_finite_l(&s.schema, &s.tgds, &reloaded, FindShapesMode::InDatabase);
    assert_eq!(a.finite, b.finite);
    assert_eq!(a.n_db_shapes, b.n_db_shapes);
}

#[test]
fn views_preserve_shape_distribution_of_iid_data() {
    // §8.1 relies on prefix views exhibiting "a variety of shapes"; our
    // generator produces i.i.d. tuples, so even a 10% view of a large
    // relation should see most shapes of arity ≤ 3.
    let mut schema = Schema::new();
    let data = soct::gen::generate_database(
        &soct::gen::DataGenConfig {
            preds: 5,
            min_arity: 3,
            max_arity: 3,
            dsize: 500,
            rsize: 3_000,
            seed: 21,
        },
        &mut schema,
    );
    let full = soct::core::find_shapes(&data.engine, FindShapesMode::InMemory);
    let view = LimitView::new(&data.engine, 300);
    let partial = soct::core::find_shapes(&view, FindShapesMode::InMemory);
    assert_eq!(
        full.shapes.len(),
        5 * 5,
        "all Bell(3)=5 shapes per relation at this volume"
    );
    assert!(
        partial.shapes.len() as f64 >= 0.9 * full.shapes.len() as f64,
        "a 10% view lost too many shapes: {}/{}",
        partial.shapes.len(),
        full.shapes.len()
    );
}

#[test]
fn deep_like_chase_materialises_quickly() {
    // Deep-like data is tiny (1000 singleton atoms); the chase over its
    // weakly-acyclic rules must terminate outright.
    let s = deep_like(100, 4);
    let mut db = Instance::new();
    for pred in s.engine.non_empty_predicates() {
        s.engine.scan(pred, &mut |row| {
            let terms: Vec<Term> = row.iter().map(|&v| Term::unpack(v).unwrap()).collect();
            db.insert(Atom::new_unchecked(pred, terms));
            true
        });
    }
    let res = run_chase(
        &db,
        &s.tgds,
        &ChaseConfig::with_max_atoms(ChaseVariant::SemiOblivious, 2_000_000),
    );
    assert_eq!(res.outcome, ChaseOutcome::Terminated, "Deep-like diverged");
    assert!(res.instance.len() >= db.len());
}

#[test]
fn limit_views_clamp_but_never_invent_rows() {
    let s = lubm_like(1, 0.002, 3);
    let total = s.engine.total_rows();
    for limit in [1u64, 7, 1_000, u64::MAX] {
        let view = LimitView::new(&s.engine, limit);
        assert!(view.total_rows() <= total);
        for pred in view.non_empty_predicates() {
            assert!(view.row_count(pred) <= limit);
            let mut n = 0u64;
            view.scan(pred, &mut |_| {
                n += 1;
                true
            });
            assert_eq!(n, view.row_count(pred));
        }
    }
}
