//! Cross-checking machinery: the materialization-based checker wired up for
//! linear TGDs (simplify first, then bound — see `soct-chase::bounds`), and
//! an auto-dispatching front door over the three TGD classes.

use crate::check_l::{check_l_early_exit, LCheckReport};
use crate::check_sl::{is_chase_finite_sl, weak_acyclicity, SlCheckReport};
use crate::dynsimpl::dyn_simplification;
use crate::find_shapes::{FindShapesMode, ShapesReport};
use soct_chase::{is_chase_finite_materialization, MaterializationReport};
use soct_model::shape::shapes_of_instance;
use soct_model::simplify::simplify_instance;
use soct_model::{FxHashSet, Instance, PredId, Schema, Shape, Tgd, TgdClass};
use soct_obs::Phases;
use soct_storage::{InstanceSource, ShapeCatalog, ShapeQueryStats, StorageEngine, TupleSource};
use std::time::Duration;

/// Materialization-based termination check, complete for simple-linear and
/// linear TGDs (§1.4). Linear sets are dynamically simplified first so the
/// worst-case bound `k_{D,Σ}` is sound (Theorem 3.6 + Lemma 4.3: the
/// simplified chase is finite iff the original is).
///
/// The underlying chase runs entirely on the packed columnar store: only
/// the atom count is consulted, so no boxed-atom instance is ever copied
/// out of the chase.
pub fn materialization_check(
    schema: &Schema,
    tgds: &[Tgd],
    db: &Instance,
    budget: Option<usize>,
) -> MaterializationReport {
    let class = soct_model::tgd::classify(tgds);
    match class {
        TgdClass::SimpleLinear => is_chase_finite_materialization(schema, db, tgds, budget),
        TgdClass::Linear => {
            let db_shapes = shapes_of_instance(db);
            let mut simpl = dyn_simplification(schema, tgds, &db_shapes);
            let simple_db = simplify_instance(&mut simpl.interner, schema, db);
            is_chase_finite_materialization(
                simpl.interner.schema(),
                &simple_db,
                &simpl.tgds,
                budget,
            )
        }
        TgdClass::General => {
            // Sound but not complete: the bound saturates whenever the set
            // is not D-weakly-acyclic, so no wrong verdict is possible.
            is_chase_finite_materialization(schema, db, tgds, budget)
        }
    }
}

/// Tri-state verdict of [`check_termination`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// `chase(D, Σ)` is finite.
    Finite,
    /// `chase(D, Σ)` is infinite.
    Infinite,
    /// Only possible for general TGDs, where the problem is undecidable and
    /// D-weak-acyclicity is merely a sufficient condition.
    Unknown,
}

/// Combined report of the auto-dispatching checker: the verdict, the class
/// it dispatched on, and the phases and counters of the one run that
/// reached the verdict, so a caller that prints a breakdown never has to
/// run a checker twice.
#[derive(Clone, Debug)]
pub struct TerminationReport {
    /// The verdict reached.
    pub verdict: Verdict,
    /// The class the input was dispatched on.
    pub class: TgdClass,
    /// What the checker did to reach the verdict.
    pub run: CheckRun,
}

/// The checker run behind a [`TerminationReport`].
#[derive(Clone, Debug)]
pub enum CheckRun {
    /// A verdict cache answered; no checker ran.
    Cached,
    /// Algorithm 1's dependency-graph test: `IsChaseFinite[SL]` for
    /// simple-linear sets, and the D-weak-acyclicity test it amounts to on
    /// general sets (`supported` then means [`Verdict::Unknown`]).
    Sl(SlCheckReport),
    /// Algorithm 3 with the early exit ([`crate::check_l_early_exit`]),
    /// with `t_shapes` and the FindShapes counters filled in.
    L(LCheckReport),
}

/// Checks semi-oblivious chase termination, dispatching on the TGD class:
/// `IsChaseFinite[SL]` for simple-linear sets, `IsChaseFinite[L]` for linear
/// sets, and the sound D-weak-acyclicity test for general sets (returning
/// [`Verdict::Unknown`] when it fails — the general problem is undecidable,
/// §1.3).
///
/// ```
/// use soct_core::{check_termination, FindShapesMode, Verdict};
/// use soct_model::{Atom, ConstId, Instance, Schema, Term, Tgd, VarId};
///
/// // person(x) → ∃y hasAdvisor(x,y);  hasAdvisor(x,y) → person(y).
/// let mut schema = Schema::new();
/// let person = schema.add_predicate("person", 1).unwrap();
/// let advisor = schema.add_predicate("hasAdvisor", 2).unwrap();
/// let (x, y) = (Term::Var(VarId(0)), Term::Var(VarId(1)));
/// let tgds = vec![
///     Tgd::new(
///         vec![Atom::new(&schema, person, vec![x]).unwrap()],
///         vec![Atom::new(&schema, advisor, vec![x, y]).unwrap()],
///     )
///     .unwrap(),
///     Tgd::new(
///         vec![Atom::new(&schema, advisor, vec![x, y]).unwrap()],
///         vec![Atom::new(&schema, person, vec![y]).unwrap()],
///     )
///     .unwrap(),
/// ];
/// let mut db = Instance::new();
/// db.insert(Atom::new(&schema, person, vec![Term::Const(ConstId(0))]).unwrap());
/// let report = check_termination(&schema, &tgds, &db, FindShapesMode::InMemory);
/// assert_eq!(report.verdict, Verdict::Infinite); // advisors all the way up
/// ```
pub fn check_termination(
    schema: &Schema,
    tgds: &[Tgd],
    db: &Instance,
    mode: FindShapesMode,
) -> TerminationReport {
    check_termination_threads(schema, tgds, db, mode, 0)
}

/// [`check_termination`] with the `FindShapes` phase of the linear checker
/// fanned out over worker threads (`threads` as in
/// [`soct_chase::resolve_threads`]; `0` = auto). The verdict is identical
/// for every thread count.
///
/// The instance is read once, into the view its class needs (the non-empty
/// predicates, or `shape(D)` timed as the `shapes` phase), and the view
/// dispatches exactly as for [`check_termination_engine`]. Linear sets take
/// Algorithm 3's early exit, so an Infinite report may carry partial
/// simplification counts (`LCheckReport::stopped_early`).
pub fn check_termination_threads(
    schema: &Schema,
    tgds: &[Tgd],
    db: &Instance,
    mode: FindShapesMode,
    threads: usize,
) -> TerminationReport {
    let class = soct_model::tgd::classify(tgds);
    let src = InstanceSource::new(schema, db);
    DbView::of_source(&src, None, class, mode, threads).check(schema, tgds)
}

/// [`check_termination_threads`] against a live [`StorageEngine`] instead
/// of an in-memory instance. The verdict is identical for equivalent
/// contents; what changes is the db-dependent cost: when the engine
/// maintains a shape catalog (`StorageEngine::enable_shape_tracking`), the
/// linear checker reads `shape(D)` straight from the catalog — no table is
/// scanned at all — and the SL/general dispatch only consults the table
/// directory. Without a catalog, the linear path falls back to the
/// scanning `FindShapes` over the engine.
pub fn check_termination_engine(
    schema: &Schema,
    tgds: &[Tgd],
    engine: &StorageEngine,
    mode: FindShapesMode,
    threads: usize,
) -> TerminationReport {
    let class = soct_model::tgd::classify(tgds);
    DbView::of_engine(engine, class, mode, threads).check(schema, tgds)
}

/// What a termination check reads of a database, per class: the
/// non-empty predicates for Algorithm 1 and the D-weak-acyclicity test,
/// `shape(D)` for Algorithm 3 (§4, §5). It is owned, so a caller can copy
/// it from under a lock and check it after releasing it.
///
/// Every `check_termination*` function reads its database into a view and
/// calls [`DbView::check`]. A caller that already has `shape(D)`, such as
/// `soct check` reading a facts file with `soct_parser::read_shapes`,
/// builds the view with [`DbView::of_shapes`].
#[derive(Debug)]
pub enum DbView {
    /// The non-empty predicates, for Algorithm 1.
    SimpleLinear(FxHashSet<PredId>),
    /// `shape(D)` with FindShapes' counters, and the time it took to find,
    /// read or copy it (the `shapes` phase).
    Linear(ShapesReport, Duration),
    /// The non-empty predicates, for the D-weak-acyclicity test.
    General(FxHashSet<PredId>),
}

impl DbView {
    /// The view a `class` ruleset reads of a database whose distinct
    /// shapes are `shapes`, found in `t_shapes`: `shape(D)` itself for a
    /// linear set, and the shapes' predicates, the non-empty ones, for the
    /// others.
    pub fn of_shapes(class: TgdClass, shapes: Vec<Shape>, t_shapes: Duration) -> Self {
        let preds = || shapes.iter().map(|s| s.pred).collect();
        match class {
            TgdClass::SimpleLinear => DbView::SimpleLinear(preds()),
            TgdClass::Linear => DbView::Linear(
                ShapesReport {
                    shapes,
                    stats: ShapeQueryStats::default(),
                    tuples_scanned: 0,
                },
                t_shapes,
            ),
            TgdClass::General => DbView::General(preds()),
        }
    }

    /// Copies the view a `class` ruleset reads out of `engine`: `shape(D)`
    /// from the maintained catalog when the engine tracks shapes.
    pub(crate) fn of_engine(
        engine: &StorageEngine,
        class: TgdClass,
        mode: FindShapesMode,
        threads: usize,
    ) -> Self {
        Self::of_source(engine, engine.shape_catalog(), class, mode, threads)
    }

    /// Reads the view a `class` ruleset needs out of `src`. `shape(D)`
    /// comes from `catalog` when given, and from one `FindShapes` run in
    /// `mode` otherwise; the non-empty predicates come from the source's
    /// directory.
    fn of_source(
        src: &(dyn TupleSource + Sync),
        catalog: Option<&ShapeCatalog>,
        class: TgdClass,
        mode: FindShapesMode,
        threads: usize,
    ) -> Self {
        let preds = || src.non_empty_predicates().into_iter().collect();
        match class {
            TgdClass::SimpleLinear => DbView::SimpleLinear(preds()),
            TgdClass::Linear => {
                let mut phases = Phases::new();
                let shapes = phases.run("shapes", || match catalog {
                    Some(cat) => ShapesReport {
                        shapes: cat.shapes(),
                        stats: ShapeQueryStats::default(),
                        tuples_scanned: 0,
                    },
                    None => crate::find_shapes::find_shapes_parallel(src, mode, threads),
                });
                DbView::Linear(shapes, phases.duration("shapes"))
            }
            TgdClass::General => DbView::General(preds()),
        }
    }

    /// Decides termination of `tgds` on the database the view was read
    /// from: the one dispatch behind every `check_termination*` function.
    /// `schema` holds the rules' and the database's predicates, and the
    /// view must be of `tgds`' class. A linear set takes Algorithm 3's
    /// early exit ([`crate::check_l_early_exit`]), which admits the view's
    /// shapes lazily, in their order.
    pub fn check(&self, schema: &Schema, tgds: &[Tgd]) -> TerminationReport {
        let decided = |finite: bool| {
            if finite {
                Verdict::Finite
            } else {
                Verdict::Infinite
            }
        };
        let (verdict, class, run) = match self {
            DbView::SimpleLinear(preds) => {
                let rep = is_chase_finite_sl(schema, tgds, preds);
                (
                    decided(rep.finite),
                    TgdClass::SimpleLinear,
                    CheckRun::Sl(rep),
                )
            }
            DbView::Linear(shapes, t_shapes) => {
                let rep = check_l_early_exit(schema, tgds, &shapes.shapes)
                    .with_find_shapes(shapes, *t_shapes);
                (decided(rep.finite), TgdClass::Linear, CheckRun::L(rep))
            }
            DbView::General(preds) => {
                // D-weak-acyclicity: sufficient for termination of any TGD
                // set, and inconclusive when it fails.
                let rep = weak_acyclicity(schema, tgds, preds);
                let verdict = if rep.finite {
                    Verdict::Finite
                } else {
                    Verdict::Unknown
                };
                (verdict, TgdClass::General, CheckRun::Sl(rep))
            }
        };
        TerminationReport {
            verdict,
            class,
            run,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soct_chase::MaterializationVerdict;
    use soct_model::{Atom, ConstId, Term, VarId};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }

    #[test]
    fn acyclicity_and_materialization_agree_on_example_3_4() {
        let mut schema = Schema::new();
        let r = schema.add_predicate("R", 2).unwrap();
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(0)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(0)]).unwrap()],
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert(Atom::new(&schema, r, vec![c(0), c(1)]).unwrap());
        let fast = check_termination(
            &schema,
            std::slice::from_ref(&tgd),
            &db,
            FindShapesMode::InMemory,
        );
        assert_eq!(fast.verdict, Verdict::Finite);
        assert_eq!(fast.class, TgdClass::Linear);
        let slow = materialization_check(&schema, &[tgd], &db, Some(10_000));
        assert_eq!(slow.verdict, MaterializationVerdict::Finite);
    }

    #[test]
    fn materialization_detects_small_divergence() {
        // R(x,y) → ∃z R(y,z): the simplified system also diverges; with the
        // domain-1 database the bound is small enough to exceed quickly...
        // it is not (bounds saturate on supported cycles) — so the verdict
        // must be BudgetExhausted, never a wrong "Finite".
        let mut schema = Schema::new();
        let r = schema.add_predicate("R", 2).unwrap();
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(2)]).unwrap()],
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert(Atom::new(&schema, r, vec![c(0), c(1)]).unwrap());
        let rep = materialization_check(&schema, &[tgd], &db, Some(500));
        assert_eq!(rep.verdict, MaterializationVerdict::BudgetExhausted);
        assert!(rep.atoms_materialized >= 500);
    }

    #[test]
    fn general_tgds_get_sound_answers() {
        // Weakly-acyclic general TGD: Finite.
        let mut schema = Schema::new();
        let e = schema.add_predicate("e", 2).unwrap();
        let t = schema.add_predicate("t", 2).unwrap();
        let closure = Tgd::new(
            vec![
                Atom::new(&schema, e, vec![v(0), v(1)]).unwrap(),
                Atom::new(&schema, e, vec![v(1), v(2)]).unwrap(),
            ],
            vec![Atom::new(&schema, t, vec![v(0), v(2)]).unwrap()],
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert(Atom::new(&schema, e, vec![c(0), c(1)]).unwrap());
        let rep = check_termination(&schema, &[closure], &db, FindShapesMode::InMemory);
        assert_eq!(rep.verdict, Verdict::Finite);
        assert_eq!(rep.class, TgdClass::General);

        // Non-weakly-acyclic general TGD (restricted-style guard): Unknown.
        let guarded = Tgd::new(
            vec![
                Atom::new(&schema, e, vec![v(0), v(1)]).unwrap(),
                Atom::new(&schema, t, vec![v(0), v(1)]).unwrap(),
            ],
            vec![Atom::new(&schema, e, vec![v(1), v(2)]).unwrap()],
        )
        .unwrap();
        let mut db2 = Instance::new();
        db2.insert(Atom::new(&schema, e, vec![c(0), c(1)]).unwrap());
        db2.insert(Atom::new(&schema, t, vec![c(0), c(1)]).unwrap());
        let rep2 = check_termination(&schema, &[guarded], &db2, FindShapesMode::InMemory);
        assert_eq!(rep2.verdict, Verdict::Unknown);
    }

    #[test]
    fn sl_dispatch_and_oracle_agree_on_unsupported_cycle() {
        let mut schema = Schema::new();
        let r = schema.add_predicate("R", 2).unwrap();
        let u = schema.add_predicate("U", 1).unwrap();
        let _ = u;
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(2)]).unwrap()],
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert(Atom::new(&schema, u, vec![c(0)]).unwrap());
        let fast = check_termination(
            &schema,
            std::slice::from_ref(&tgd),
            &db,
            FindShapesMode::InMemory,
        );
        assert_eq!(fast.verdict, Verdict::Finite);
        let slow = materialization_check(&schema, &[tgd], &db, Some(10_000));
        assert_eq!(slow.verdict, MaterializationVerdict::Finite);
    }
}
