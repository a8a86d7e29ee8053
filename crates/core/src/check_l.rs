//! `IsChaseFinite[L]` (Algorithm 3): semi-oblivious chase termination for
//! linear TGDs via dynamic simplification.
//!
//! ```text
//! Σ_s ← DynSimplification(D, Σ);  G ← BuildDepGraph(Σ_s);
//! if FindSpecialSCC(G) ≠ ∅ then false else true
//! ```
//!
//! By Lemma 4.5 no supportedness check is needed: every predicate of
//! `simple_D(Σ)` is derivable from `simple(D)` by construction, so a
//! special cycle in `dg(simple_D(Σ))` is automatically supported.
//!
//! The same argument allows an early exit. DynSimplification only ever
//! adds shapes and rules, so the graph of a partial simplification is a
//! subgraph of `dg(simple_D(Σ))`, and a special cycle in it is already a
//! supported special cycle of the full graph: the chase is infinite.
//! [`check_l_early_exit`] therefore pauses the fixpoint each time the
//! simplified set has doubled (from [`FIRST_PROBE`] rules on), builds the
//! partial graph and stops at the first special SCC. Each probed set is at
//! least twice the one before it and smaller than `simple_D(Σ)`, so all
//! probes together cover fewer than twice its rules: on a Finite set the
//! probes add at most about twice the final graph's build and SCC work.
//! [`check_l_with_shapes`] and the `is_chase_finite_l*` functions keep the
//! full fixpoint: their closure sizes are what the figures report.
//!
//! DynSimplification is also monotone in `shape(D)`: the shapes and rules
//! it derives from part of the database are part of what it derives from
//! all of it. So [`check_l_early_exit`] admits the database's shapes
//! lazily too, [`FIRST_BATCH`] of them first and twice as many each time
//! the frontier runs out, and the partial graph stays a subgraph of
//! `dg(simple_D(Σ))`. A Finite verdict is reached only after every
//! database shape has been admitted.

use crate::dynsimpl::Fixpoint;
use crate::find_shapes::{find_shapes, FindShapesMode, ShapesReport};
use crate::timings::LTimings;
use soct_graph::{find_special_sccs, DependencyGraph};
use soct_model::{Schema, Shape, Tgd};
use soct_obs::Phases;
use soct_storage::{ShapeQueryStats, TupleSource};
use std::time::Duration;

/// Size of the simplified set at which [`check_l_early_exit`] first looks
/// for a special cycle; it looks again whenever the set has doubled since.
pub const FIRST_PROBE: usize = 64;

/// Number of database shapes [`check_l_early_exit`] admits before its
/// first step; each later admission, made when the frontier runs out,
/// takes twice as many as the one before.
pub const FIRST_BATCH: usize = 1;

/// Report of one `IsChaseFinite[L]` run.
#[derive(Clone, Debug)]
pub struct LCheckReport {
    /// `true` iff `chase(D, Σ)` is finite.
    pub finite: bool,
    /// Per-phase wall-clock breakdown (§8's reported quantities).
    pub timings: LTimings,
    /// `|shape(D)|` (the `n-shapes` statistic of Table 1).
    pub n_db_shapes: usize,
    /// Database shapes admitted to the fixpoint: all `n_db_shapes` unless
    /// [`check_l_early_exit`] stopped before it needed the rest.
    pub db_shapes_admitted: usize,
    /// `|Σ(shape(D))|`: shapes reached by the fixpoint.
    pub shapes_derived: usize,
    /// `|simple_D(Σ)|`.
    pub n_simplified_tgds: usize,
    /// Nodes in the dependency graph of the simplified set.
    pub graph_nodes: usize,
    /// Edges in the dependency graph of the simplified set.
    pub graph_edges: usize,
    /// Special (null-propagating) edges among them.
    pub special_edges: usize,
    /// Special SCCs found (any ⇒ infinite).
    pub num_special_sccs: usize,
    /// FindShapes work counters (queries or tuples, by mode).
    pub shape_stats: ShapeQueryStats,
    /// Tuples scanned by the in-memory FindShapes (zero in-database).
    pub tuples_scanned: u64,
    /// The check stopped at a special cycle before the fixpoint
    /// ([`check_l_early_exit`] only). The shape, rule and graph counts
    /// above are then those of the partial simplification it stopped on.
    pub stopped_early: bool,
}

impl LCheckReport {
    /// Adds the FindShapes run that produced the checked `shape(D)`: its
    /// time as `t_shapes`, and its work counters.
    pub(crate) fn with_find_shapes(mut self, shapes: &ShapesReport, t_shapes: Duration) -> Self {
        self.timings.t_shapes = t_shapes;
        self.shape_stats = shapes.stats;
        self.tuples_scanned = shapes.tuples_scanned;
        self
    }
}

/// Algorithm 3 with the database behind a [`TupleSource`].
pub fn is_chase_finite_l(
    schema: &Schema,
    tgds: &[Tgd],
    src: &dyn TupleSource,
    mode: FindShapesMode,
) -> LCheckReport {
    let mut phases = Phases::new();
    let shapes = phases.run("shapes", || find_shapes(src, mode));
    check_l_with_shapes(schema, tgds, &shapes.shapes)
        .with_find_shapes(&shapes, phases.duration("shapes"))
}

/// Algorithm 3 with the `FindShapes` phase fanned out over worker threads
/// (`threads` as in [`soct_chase::resolve_threads`]; `0` = auto). The
/// verdict and every statistic match [`is_chase_finite_l`] exactly — only
/// `t_shapes` wall-clock changes.
pub fn is_chase_finite_l_parallel(
    schema: &Schema,
    tgds: &[Tgd],
    src: &(dyn TupleSource + Sync),
    mode: FindShapesMode,
    threads: usize,
) -> LCheckReport {
    let mut phases = Phases::new();
    let shapes = phases.run("shapes", || {
        crate::find_shapes::find_shapes_parallel(src, mode, threads)
    });
    check_l_with_shapes(schema, tgds, &shapes.shapes)
        .with_find_shapes(&shapes, phases.duration("shapes"))
}

/// The db-independent component of Algorithm 3 (§8): dynamic
/// simplification, dependency graph, special SCCs — starting from
/// already-computed database shapes. This is what Figures 5–7 time: it
/// always runs DynSimplification to its fixpoint, so `shapes_derived`,
/// `n_simplified_tgds` and the graph counts are those of the whole
/// `simple_D(Σ)`. For the verdict alone, [`check_l_early_exit`] is faster
/// on Infinite sets.
pub fn check_l_with_shapes(schema: &Schema, tgds: &[Tgd], db_shapes: &[Shape]) -> LCheckReport {
    check_l_probed(schema, tgds, db_shapes, usize::MAX, usize::MAX)
}

/// [`check_l_with_shapes`] that stops at the first special cycle: the
/// verdict path behind [`crate::check_termination`] and its siblings.
///
/// Database shapes are admitted lazily, in `db_shapes` order: the first
/// [`FIRST_BATCH`], then twice as many whenever the frontier runs out.
/// Every time the simplified set has doubled (from [`FIRST_PROBE`] rules
/// on), the fixpoint pauses and the dependency graph of the partial set is
/// searched for a special SCC; one found proves the chase infinite (see the
/// module docs), and the report then carries the partial counts with
/// `stopped_early` set. Otherwise the fixpoint's own graph decides once
/// every database shape is in, and the verdict, `shapes_derived`,
/// `n_simplified_tgds` and the graph's node and edge counts equal
/// [`check_l_with_shapes`]'s. Each pause records its own `graph` and
/// `comp` phases.
pub fn check_l_early_exit(schema: &Schema, tgds: &[Tgd], db_shapes: &[Shape]) -> LCheckReport {
    check_l_probed(schema, tgds, db_shapes, FIRST_PROBE, FIRST_BATCH)
}

/// Algorithm 3, pausing the fixpoint for a special-cycle probe once the
/// simplified set holds `first_probe` rules and after every doubling since
/// (`usize::MAX`: never before the fixpoint), and admitting `first_batch`
/// database shapes at its first step (`usize::MAX`: all of them).
fn check_l_probed(
    schema: &Schema,
    tgds: &[Tgd],
    db_shapes: &[Shape],
    first_probe: usize,
    first_batch: usize,
) -> LCheckReport {
    let mut phases = Phases::new();
    let mut fixpoint: Option<Fixpoint> = None;
    let mut limit = first_probe;
    loop {
        let (done, graph) = phases.run("graph", || {
            let fixpoint =
                fixpoint.get_or_insert_with(|| Fixpoint::new(schema, tgds, db_shapes, first_batch));
            let done = fixpoint.run(limit);
            (
                done,
                DependencyGraph::build(fixpoint.schema(), fixpoint.tgds()),
            )
        });
        let special = phases.run("comp", || find_special_sccs(&graph).special_sccs());
        let fixpoint = fixpoint.as_ref().expect("built by the first step");
        if done || !special.is_empty() {
            return LCheckReport {
                finite: special.is_empty(),
                timings: LTimings::from_phases(&phases),
                n_db_shapes: db_shapes.len(),
                db_shapes_admitted: fixpoint.db_shapes_admitted(),
                shapes_derived: fixpoint.shapes_derived(),
                n_simplified_tgds: fixpoint.tgds().len(),
                graph_nodes: graph.num_nodes(),
                graph_edges: graph.num_edges(),
                special_edges: graph.num_special_edges(),
                num_special_sccs: special.len(),
                shape_stats: ShapeQueryStats::default(),
                tuples_scanned: 0,
                stopped_early: !done,
            };
        }
        limit = fixpoint.tgds().len().saturating_mul(2);
    }
}

/// Algorithm 3 from rule text (fills `t-parse`) against a tuple source.
pub fn is_chase_finite_l_text(
    text: &str,
    src: &dyn TupleSource,
    mode: FindShapesMode,
) -> Result<(LCheckReport, Schema, Vec<Tgd>), soct_parser::ParseError> {
    let mut schema = Schema::new();
    let mut consts = soct_model::Interner::new();
    let mut phases = Phases::new();
    let tgds = phases.run("parse", || {
        soct_parser::parse_tgds(text, &mut schema, &mut consts)
    })?;
    let mut report = is_chase_finite_l(&schema, &tgds, src, mode);
    report.timings.t_parse = phases.duration("parse");
    Ok((report, schema, tgds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soct_model::{Atom, ConstId, Instance, Term, VarId};
    use soct_storage::{InstanceSource, StorageEngine};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }

    /// Example 3.4: D = {R(a,b)}, σ: R(x,x) → ∃z R(z,x).
    fn example_3_4(matching_db: bool) -> (Schema, Instance, Vec<Tgd>) {
        let mut schema = Schema::new();
        let r = schema.add_predicate("R", 2).unwrap();
        let mut db = Instance::new();
        if matching_db {
            db.insert(Atom::new(&schema, r, vec![c(0), c(0)]).unwrap());
        } else {
            db.insert(Atom::new(&schema, r, vec![c(0), c(1)]).unwrap());
        }
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(0)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(0)]).unwrap()],
        )
        .unwrap();
        (schema, db, vec![tgd])
    }

    #[test]
    fn example_3_4_is_finite_despite_non_weak_acyclicity() {
        // The paper's motivating example for simplification: Σ is not
        // D-weakly-acyclic, yet the chase is finite because the body shape
        // R_(1,1) never occurs.
        let (schema, db, tgds) = example_3_4(false);
        for mode in [FindShapesMode::InMemory, FindShapesMode::InDatabase] {
            let src = InstanceSource::new(&schema, &db);
            let rep = is_chase_finite_l(&schema, &tgds, &src, mode);
            assert!(rep.finite, "{mode:?}");
            assert_eq!(rep.n_simplified_tgds, 0);
        }
    }

    #[test]
    fn example_3_4_flips_with_matching_database() {
        // With D = {R(a,a)} the rule fires: R(z, a), then shape (1,2) feeds
        // R(x,x)? No — R(z,x) with z fresh has shape (1,2), and the rule
        // needs shape (1,1): the chase adds exactly one atom and stops.
        let (schema, db, tgds) = example_3_4(true);
        let src = InstanceSource::new(&schema, &db);
        let rep = is_chase_finite_l(&schema, &tgds, &src, FindShapesMode::InMemory);
        assert!(rep.finite);
        assert_eq!(rep.n_simplified_tgds, 1);
        assert_eq!(rep.shapes_derived, 2);
    }

    #[test]
    fn linear_divergence_is_caught() {
        // R(x,y) → ∃z R(y,z) with any non-empty database.
        let mut schema = Schema::new();
        let r = schema.add_predicate("R", 2).unwrap();
        let mut db = Instance::new();
        db.insert(Atom::new(&schema, r, vec![c(0), c(1)]).unwrap());
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(2)]).unwrap()],
        )
        .unwrap();
        let src = InstanceSource::new(&schema, &db);
        let rep = is_chase_finite_l(&schema, &[tgd], &src, FindShapesMode::InMemory);
        assert!(!rep.finite);
        assert!(rep.num_special_sccs > 0);
    }

    #[test]
    fn agrees_with_sl_checker_on_simple_linear_input() {
        // Finite case: p(x,y) → r(y,x) swaps positions, so the null
        // invented at (p,2) only ever reaches (r,1), which has no outgoing
        // edges — both checkers must say finite.
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 2).unwrap();
        let p = schema.add_predicate("p", 2).unwrap();
        let finite_tgds = vec![
            Tgd::new(
                vec![Atom::new(&schema, r, vec![v(0), v(1)]).unwrap()],
                vec![Atom::new(&schema, p, vec![v(1), v(2)]).unwrap()],
            )
            .unwrap(),
            Tgd::new(
                vec![Atom::new(&schema, p, vec![v(0), v(1)]).unwrap()],
                vec![Atom::new(&schema, r, vec![v(1), v(0)]).unwrap()],
            )
            .unwrap(),
        ];
        // Infinite case: copying p back into r identically closes the
        // special cycle.
        let infinite_tgds = vec![
            finite_tgds[0].clone(),
            Tgd::new(
                vec![Atom::new(&schema, p, vec![v(0), v(1)]).unwrap()],
                vec![Atom::new(&schema, r, vec![v(0), v(1)]).unwrap()],
            )
            .unwrap(),
        ];
        let mut db = Instance::new();
        db.insert(Atom::new(&schema, r, vec![c(0), c(1)]).unwrap());
        let db_preds: soct_model::FxHashSet<_> = [r].into_iter().collect();
        for (tgds, expect_finite) in [(finite_tgds, true), (infinite_tgds, false)] {
            let src = InstanceSource::new(&schema, &db);
            let l_rep = is_chase_finite_l(&schema, &tgds, &src, FindShapesMode::InMemory);
            let sl_rep = crate::check_sl::is_chase_finite_sl(&schema, &tgds, &db_preds);
            assert_eq!(l_rep.finite, sl_rep.finite);
            assert_eq!(l_rep.finite, expect_finite);
        }
    }

    #[test]
    fn database_outside_rule_schema_is_harmless() {
        // Footnote 1: atoms over predicates not in sch(Σ) do not affect the
        // chase; the checker must not choke on them.
        let mut schema = Schema::new();
        let r = schema.add_predicate("R", 2).unwrap();
        let extra = schema.add_predicate("Extra", 3).unwrap();
        let mut db = Instance::new();
        db.insert(Atom::new(&schema, r, vec![c(0), c(1)]).unwrap());
        db.insert(Atom::new(&schema, extra, vec![c(0), c(0), c(1)]).unwrap());
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(0)]).unwrap()],
        )
        .unwrap();
        let src = InstanceSource::new(&schema, &db);
        let rep = is_chase_finite_l(&schema, &[tgd], &src, FindShapesMode::InMemory);
        assert!(rep.finite, "copy cycle has no special edge");
    }

    #[test]
    fn text_entry_point_over_engine() {
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 2).unwrap();
        let mut engine = StorageEngine::new();
        engine.create_table(r, "r", 2);
        engine.insert(r, &[c(0), c(0)]);
        let (rep, _, _) =
            is_chase_finite_l_text("r(X, X) -> r(Z, X).\n", &engine, FindShapesMode::InDatabase)
                .unwrap();
        // Shape (1,1) present ⇒ rule fires producing shape (1,2); shape
        // (1,2) does not re-trigger the rule ⇒ finite.
        assert!(rep.finite);
        assert!(rep.timings.t_parse > std::time::Duration::ZERO);
        assert_eq!(rep.n_db_shapes, 1);
    }

    #[test]
    fn repeated_variable_cycle_through_shapes_diverges() {
        // R(x,x) → ∃z S(x,z);  S(x,y) → R(y,y): S_(1,2) feeds R_(1,1) back.
        let mut schema = Schema::new();
        let r = schema.add_predicate("R", 2).unwrap();
        let s = schema.add_predicate("S", 2).unwrap();
        let t1 = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(0)]).unwrap()],
            vec![Atom::new(&schema, s, vec![v(0), v(1)]).unwrap()],
        )
        .unwrap();
        let t2 = Tgd::new(
            vec![Atom::new(&schema, s, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(1)]).unwrap()],
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert(Atom::new(&schema, r, vec![c(0), c(0)]).unwrap());
        let src = InstanceSource::new(&schema, &db);
        let rep = is_chase_finite_l(&schema, &[t1, t2], &src, FindShapesMode::InMemory);
        assert!(!rep.finite);
    }
}
