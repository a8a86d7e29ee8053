//! `DynSimplification` (Algorithm 2): the dynamic simplification of a set of
//! linear TGDs relative to a database.
//!
//! Starting from `shape(D)`, the algorithm iterates the immediate
//! consequence operator on shapes: a TGD σ = R(x̄) → ∃z̄ ψ(ȳ,z̄) is
//! *applicable* to a shape `R_ī` iff the positional map `x̄ → ī` is
//! consistent (at most one homomorphism exists — `h_specialization`); the
//! simplification induced by the h-specialization joins `Σ_s`, and the head
//! shapes join the frontier ΔS. Only the newest shapes are re-processed per
//! iteration — "there are no new applicable TGDs on S after the first
//! iteration since the TGDs are linear" (§4.2).
//!
//! The implementation details of §5.4 are in place: a predicate → TGDs
//! index for fast access, per-TGD precomputed body patterns for the O(arity)
//! applicability check, and shape interning so identifier tuples are built
//! once.
//!
//! The fixpoint itself runs over *interned shape ids*: the
//! [`ShapeInterner`]'s dense id sequence doubles as the seen-set and the
//! frontier (ids below the current delta range are processed, ids inside it
//! are ΔS), so no `Shape` is ever cloned into a side table, and simplified
//! TGDs are deduplicated through a structural-hash bucket index into the
//! output vector instead of a `HashSet<Tgd>` of clones.
//!
//! The loop can pause between frontier shapes (`Fixpoint`), which is how
//! Algorithm 3's verdict path looks for a special cycle in the partial
//! simplification before the fixpoint is reached. It can also admit the
//! database's shapes lazily, a batch at a time whenever the frontier runs
//! out: DynSimplification is monotone in `shape(D)`, so what it derives
//! from some of the shapes is part of what it derives from all of them.

use soct_model::fxhash::FxBuildHasher;
use soct_model::simplify::{h_specialization, simplify_tgd, ShapeInterner};
use soct_model::{FxHashMap, PredId, Schema, Shape, Tgd};
use std::hash::BuildHasher;

/// The output of dynamic simplification.
#[derive(Debug)]
pub struct DynSimplification {
    /// `simple_D(Σ)`: simple-linear TGDs over [`DynSimplification::interner`]'s
    /// derived schema.
    pub tgds: Vec<Tgd>,
    /// Shape-predicate interner (owns the derived schema).
    pub interner: ShapeInterner,
    /// `|Σ(shape(D))|`: shapes derived, including the database's own.
    pub shapes_derived: usize,
    /// Fixpoint iterations executed.
    pub iterations: usize,
}

impl DynSimplification {
    /// The derived schema the simplified TGDs live in.
    pub fn schema(&self) -> &Schema {
        self.interner.schema()
    }
}

/// Runs Algorithm 2 on `tgds` (which must all be linear) with the initial
/// shape set `shape(D)`, always to its fixpoint: the closure sizes it
/// returns are what Figures 5–7, the simplification ablations and the
/// materialization oracle report and consume. Algorithm 3's verdict path
/// ([`crate::check_l_early_exit`]) runs the same loop in steps instead, and
/// may stop before the fixpoint.
pub fn dyn_simplification(
    base_schema: &Schema,
    tgds: &[Tgd],
    db_shapes: &[Shape],
) -> DynSimplification {
    let mut fixpoint = Fixpoint::new(base_schema, tgds, db_shapes, usize::MAX);
    fixpoint.run(usize::MAX);
    fixpoint.finish()
}

/// Algorithm 2's loop, resumable between frontier shapes.
///
/// Frontier shapes are processed one at a time in interned-id order, which
/// is the order the rounds of Algorithm 2 visit them in: round *k*'s ΔS is
/// the id range interned during round *k − 1*. [`Fixpoint::run`] returns
/// early once the simplified set reaches a size, so a caller can look at
/// the partial `simple_D(Σ)` and decide whether to go on. When every
/// database shape is admitted before the first step, every prefix it sees
/// is a prefix of the full run's output, in the same order.
///
/// Database shapes are admitted in batches that double in size, the next
/// batch whenever the frontier is exhausted. Each admitted shape is in
/// `shape(D)` and each derived one in its closure, so the partial
/// simplification is always part of `simple_D(Σ)`; the fixpoint is reached
/// only once every database shape has been admitted.
pub(crate) struct Fixpoint<'a> {
    base_schema: &'a Schema,
    tgds: &'a [Tgd],
    /// `shape(D)`: the first `admitted` have been interned.
    db_shapes: &'a [Shape],
    admitted: usize,
    /// Size of the next admission batch.
    batch: usize,
    /// §5.4: the TGDs indexed by their body predicate.
    by_body_pred: FxHashMap<PredId, Vec<u32>>,
    interner: ShapeInterner,
    out_tgds: Vec<Tgd>,
    /// Simplified-TGD dedup without cloning: structural hash → indices into
    /// `out_tgds` sharing it; collision chains compare the actual TGDs, so
    /// the output is exact (same order, same set) with no `Tgd` clones.
    out_seen: FxHashMap<u64, Vec<u32>>,
    /// Next shape id to process: ids below it are done, and ids from it up
    /// to `round_end` are what is left of the current round's frontier ΔS.
    next: usize,
    /// End of the current round's frontier; ids past it were interned
    /// during the round and form the next one.
    round_end: usize,
    iterations: usize,
}

impl<'a> Fixpoint<'a> {
    /// S ← FindShapes(D); ΔS ← S, admitting `first_batch` database shapes
    /// at the first step (`usize::MAX`: all of them) and twice as many at
    /// each later admission. The interner's dense id sequence is the
    /// seen-set: interning database shapes also makes simple(D)'s
    /// predicates part of the derived schema even when no TGD fires on
    /// them.
    pub(crate) fn new(
        base_schema: &'a Schema,
        tgds: &'a [Tgd],
        db_shapes: &'a [Shape],
        first_batch: usize,
    ) -> Self {
        debug_assert!(first_batch > 0);
        debug_assert!(tgds.iter().all(Tgd::is_linear));
        let mut by_body_pred: FxHashMap<PredId, Vec<u32>> = FxHashMap::default();
        for (i, t) in tgds.iter().enumerate() {
            by_body_pred
                .entry(t.body()[0].pred)
                .or_default()
                .push(i as u32);
        }
        Fixpoint {
            base_schema,
            tgds,
            db_shapes,
            admitted: 0,
            batch: first_batch,
            by_body_pred,
            interner: ShapeInterner::new(),
            out_tgds: Vec::new(),
            out_seen: FxHashMap::default(),
            next: 0,
            round_end: 0,
            iterations: 0,
        }
    }

    /// Processes frontier shapes until the fixpoint (returns `true`) or
    /// until the simplified set holds at least `limit` TGDs (returns
    /// `false`; the shape being processed is finished first). An exhausted
    /// frontier admits the next batch of database shapes.
    pub(crate) fn run(&mut self, limit: usize) -> bool {
        let hasher = FxBuildHasher::default();
        loop {
            if self.next == self.interner.len() && !self.admit() {
                return true;
            }
            if self.next == self.round_end {
                // ΔS ← S_aux \ S; S ← S ∪ ΔS: the shapes interned during
                // the previous round are this round's frontier.
                self.iterations += 1;
                self.round_end = self.interner.len();
            }
            // Σ_aux ← Applicable(ΔS, Σ). Head shapes are interned inside
            // `simplify_tgd`, so new ids land past `round_end` and form the
            // next frontier with no explicit ΔS list.
            let sid = PredId(self.next as u32);
            self.next += 1;
            let shape_pred = self.interner.origin(sid).pred;
            let Some(tgd_ids) = self.by_body_pred.get(&shape_pred) else {
                continue;
            };
            // Copy out the frontier shape's rgs (an inline word for arity
            // ≤ 16) so `simplify_tgd` can borrow the interner mutably.
            let rgs = self.interner.origin(sid).rgs.clone();
            for &ti in tgd_ids {
                let tgd = &self.tgds[ti as usize];
                let Some(spec) = h_specialization(&tgd.body()[0].terms, &rgs) else {
                    continue;
                };
                let simplified = simplify_tgd(&mut self.interner, self.base_schema, tgd, &spec);
                let h = hasher.hash_one(&simplified);
                let bucket = self.out_seen.entry(h).or_default();
                if !bucket
                    .iter()
                    .any(|&i| self.out_tgds[i as usize] == simplified)
                {
                    bucket.push(self.out_tgds.len() as u32);
                    self.out_tgds.push(simplified);
                }
            }
            if self.out_tgds.len() >= limit && !self.exhausted() {
                return false;
            }
        }
    }

    /// Interns the next batches of database shapes, doubling the batch size
    /// each time, until one of them adds a shape not derived yet: `false`
    /// when the database runs out first. A batch whose shapes have all
    /// been derived already adds nothing to process.
    fn admit(&mut self) -> bool {
        let before = self.interner.len();
        while self.interner.len() == before && self.admitted < self.db_shapes.len() {
            let end = self
                .admitted
                .saturating_add(self.batch)
                .min(self.db_shapes.len());
            for s in &self.db_shapes[self.admitted..end] {
                self.interner.intern(s.clone(), self.base_schema);
            }
            self.admitted = end;
            self.batch = self.batch.saturating_mul(2);
        }
        self.interner.len() > before
    }

    /// No shape is left to process and none to admit: the fixpoint.
    fn exhausted(&self) -> bool {
        self.next == self.interner.len() && self.admitted == self.db_shapes.len()
    }

    /// The simplified TGDs so far.
    pub(crate) fn tgds(&self) -> &[Tgd] {
        &self.out_tgds
    }

    /// The derived schema so far: every shape interned up to now,
    /// processed or not.
    pub(crate) fn schema(&self) -> &Schema {
        self.interner.schema()
    }

    /// Shapes interned so far, the database's own included.
    pub(crate) fn shapes_derived(&self) -> usize {
        self.interner.len()
    }

    /// Database shapes admitted so far, including any that had already
    /// been derived from earlier ones.
    pub(crate) fn db_shapes_admitted(&self) -> usize {
        self.admitted
    }

    /// The simplification reached so far: all of `simple_D(Σ)` once `run`
    /// has returned `true`.
    pub(crate) fn finish(self) -> DynSimplification {
        DynSimplification {
            tgds: self.out_tgds,
            shapes_derived: self.interner.len(),
            interner: self.interner,
            iterations: self.iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soct_model::simplify::static_simplification;
    use soct_model::{Atom, Rgs, Term, VarId};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    fn id_shape(pred: soct_model::PredId, ids: &[u8]) -> Shape {
        Shape {
            pred,
            rgs: Rgs::canonicalize(ids),
        }
    }

    #[test]
    fn example_3_4_dynamic_simplification_is_empty() {
        // D = {R(a,b)} (shape (1,2)), σ: R(x,x) → ∃z R(z,x).
        // No homomorphism from R(x,x) to R(1,2) ⇒ simple_D(Σ) = ∅ ⇒ the
        // chase is finite, matching Example 3.4.
        let mut schema = Schema::new();
        let r = schema.add_predicate("R", 2).unwrap();
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(0)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(0)]).unwrap()],
        )
        .unwrap();
        let d = dyn_simplification(&schema, &[tgd], &[id_shape(r, &[1, 2])]);
        assert!(d.tgds.is_empty());
        assert_eq!(d.shapes_derived, 1);
    }

    #[test]
    fn example_3_4_with_matching_database_fires() {
        // Same σ but D = {R(a,a)} (shape (1,1)): now σ applies and produces
        // head shape R_(1,2) — a diverging chain.
        let mut schema = Schema::new();
        let r = schema.add_predicate("R", 2).unwrap();
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(0)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(0)]).unwrap()],
        )
        .unwrap();
        let d = dyn_simplification(&schema, std::slice::from_ref(&tgd), &[id_shape(r, &[1, 1])]);
        assert_eq!(d.tgds.len(), 1);
        assert!(d.tgds[0].is_simple_linear());
        assert_eq!(d.shapes_derived, 2); // (1,1) and head shape (1,2)
    }

    #[test]
    fn dynamic_is_subset_of_static() {
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 3).unwrap();
        let p = schema.add_predicate("p", 2).unwrap();
        let tgds = vec![
            Tgd::new(
                vec![Atom::new(&schema, r, vec![v(0), v(1), v(2)]).unwrap()],
                vec![Atom::new(&schema, p, vec![v(0), v(3)]).unwrap()],
            )
            .unwrap(),
            Tgd::new(
                vec![Atom::new(&schema, p, vec![v(0), v(1)]).unwrap()],
                vec![Atom::new(&schema, p, vec![v(1), v(2)]).unwrap()],
            )
            .unwrap(),
        ];
        let db_shapes = vec![id_shape(r, &[1, 2, 3])];
        let dynamic = dyn_simplification(&schema, &tgds, &db_shapes);
        let mut static_interner = ShapeInterner::new();
        let statically = static_simplification(&mut static_interner, &schema, &tgds).unwrap();
        // Compare by rendered structure: every dynamic TGD must appear
        // statically (match via origin shapes, since interners differ).
        assert!(dynamic.tgds.len() <= statically.len());
        for dt in &dynamic.tgds {
            let d_body = dynamic.interner.origin(dt.body()[0].pred);
            let found = statically.iter().any(|st| {
                static_interner.origin(st.body()[0].pred) == d_body
                    && st.head().len() == dt.head().len()
            });
            assert!(found, "dynamic TGD missing statically");
        }
        // Bell(3) + Bell(2) specializations statically = 5 + 2 = 7; the
        // database only exposes one r-shape, so dynamic is smaller.
        assert_eq!(statically.len(), 7);
        assert!(dynamic.tgds.len() < statically.len());
    }

    #[test]
    fn fixpoint_requires_multiple_iterations_on_chains() {
        // r(x,y) → p(x,y); p(x,y) → q(x,y): shapes propagate one predicate
        // per iteration.
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 2).unwrap();
        let p = schema.add_predicate("p", 2).unwrap();
        let q = schema.add_predicate("q", 2).unwrap();
        let tgds = vec![
            Tgd::new(
                vec![Atom::new(&schema, r, vec![v(0), v(1)]).unwrap()],
                vec![Atom::new(&schema, p, vec![v(0), v(1)]).unwrap()],
            )
            .unwrap(),
            Tgd::new(
                vec![Atom::new(&schema, p, vec![v(0), v(1)]).unwrap()],
                vec![Atom::new(&schema, q, vec![v(0), v(1)]).unwrap()],
            )
            .unwrap(),
        ];
        let d = dyn_simplification(&schema, &tgds, &[id_shape(r, &[1, 2])]);
        assert_eq!(d.tgds.len(), 2);
        assert_eq!(d.shapes_derived, 3);
        assert!(d.iterations >= 2);
    }

    #[test]
    fn empty_frontier_rules_participate() {
        // r(x) → ∃z,w p(z,w): head shape (1,2) must be derived even though
        // fr = ∅ (no normalisation needed — see DESIGN.md).
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 1).unwrap();
        let p = schema.add_predicate("p", 2).unwrap();
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0)]).unwrap()],
            vec![Atom::new(&schema, p, vec![v(1), v(2)]).unwrap()],
        )
        .unwrap();
        let d = dyn_simplification(&schema, &[tgd], &[id_shape(r, &[1])]);
        assert_eq!(d.tgds.len(), 1);
        assert_eq!(d.shapes_derived, 2);
    }

    #[test]
    fn stepping_the_fixpoint_changes_nothing() {
        // Pausing whenever the simplified set reaches a size yields
        // prefixes of the one-step output, and the same closure.
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 4).unwrap();
        let atom = |ts: &[u32]| Atom::new(&schema, r, ts.iter().map(|&i| v(i)).collect()).unwrap();
        let tgds = vec![
            Tgd::new(vec![atom(&[0, 1, 2, 3])], vec![atom(&[1, 0, 2, 3])]).unwrap(),
            Tgd::new(vec![atom(&[0, 1, 2, 3])], vec![atom(&[1, 2, 3, 0])]).unwrap(),
            Tgd::new(vec![atom(&[0, 1, 2, 3])], vec![atom(&[0, 0, 2, 3])]).unwrap(),
        ];
        let db = [id_shape(r, &[1, 2, 3, 4])];
        let whole = dyn_simplification(&schema, &tgds, &db);
        assert_eq!(whole.shapes_derived, 15, "Bell(4)");
        for step in [1, 2, 5] {
            let mut fixpoint = Fixpoint::new(&schema, &tgds, &db, usize::MAX);
            let mut limit = step;
            while !fixpoint.run(limit) {
                let n = fixpoint.tgds().len();
                assert!(n >= limit && n <= whole.tgds.len());
                assert_eq!(fixpoint.tgds(), &whole.tgds[..n]);
                limit = n + step;
            }
            let stepped = fixpoint.finish();
            assert_eq!(stepped.tgds, whole.tgds);
            assert_eq!(stepped.shapes_derived, whole.shapes_derived);
            assert_eq!(stepped.iterations, whole.iterations);
        }
    }

    #[test]
    fn lazy_admission_skips_batches_that_add_nothing() {
        // r(x,y,z) → r(x,x,z) and r(x,y,z) → r(x,y,y): the first database
        // shape derives the next two, so the second batch (two shapes)
        // adds nothing new and the third one must still be admitted.
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 3).unwrap();
        let p = schema.add_predicate("p", 1).unwrap();
        let atom = |ts: &[u32]| Atom::new(&schema, r, ts.iter().map(|&i| v(i)).collect()).unwrap();
        let tgds = vec![
            Tgd::new(vec![atom(&[0, 1, 2])], vec![atom(&[0, 0, 2])]).unwrap(),
            Tgd::new(vec![atom(&[0, 1, 2])], vec![atom(&[0, 1, 1])]).unwrap(),
        ];
        let db = [
            id_shape(r, &[1, 2, 3]),
            id_shape(r, &[1, 1, 2]),
            id_shape(r, &[1, 2, 2]),
            id_shape(p, &[1]),
        ];
        let whole = dyn_simplification(&schema, &tgds, &db);
        let mut lazy = Fixpoint::new(&schema, &tgds, &db, 1);
        assert!(lazy.run(usize::MAX));
        assert_eq!(lazy.db_shapes_admitted(), db.len());
        let lazy = lazy.finish();
        assert_eq!(lazy.shapes_derived, whole.shapes_derived);
        assert_eq!(lazy.tgds.len(), whole.tgds.len());
        // Every database shape ends up in the closure.
        for s in &db {
            assert!(lazy.interner.get(s).is_some(), "{s:?}");
        }
    }

    #[test]
    fn lazy_admission_pauses_before_the_database_is_exhausted() {
        // r(x,y) → r(y,x) derives no new shape: after the first database
        // shape the frontier is empty, but with the limit reached and a
        // shape still to admit, `run` pauses instead of reporting the
        // fixpoint.
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 2).unwrap();
        let tgds = vec![Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(0)]).unwrap()],
        )
        .unwrap()];
        let db = [id_shape(r, &[1, 2]), id_shape(r, &[1, 1])];
        let mut lazy = Fixpoint::new(&schema, &tgds, &db, 1);
        assert!(!lazy.run(1));
        assert_eq!((lazy.db_shapes_admitted(), lazy.shapes_derived()), (1, 1));
        assert!(lazy.run(usize::MAX));
        assert_eq!(lazy.db_shapes_admitted(), 2);
        let whole = dyn_simplification(&schema, &tgds, &db);
        assert_eq!(lazy.tgds().len(), whole.tgds.len());
        assert_eq!(lazy.shapes_derived(), whole.shapes_derived);
    }

    #[test]
    fn multiple_database_shapes_fan_out() {
        // σ: r(x,y) → ∃z r(y,z). Shapes (1,1) and (1,2) both applicable,
        // producing distinct simplifications.
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 2).unwrap();
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(2)]).unwrap()],
        )
        .unwrap();
        let d = dyn_simplification(
            &schema,
            &[tgd],
            &[id_shape(r, &[1, 1]), id_shape(r, &[1, 2])],
        );
        assert_eq!(d.tgds.len(), 2);
        // Head shape is (1,2) in both cases; total shapes = 2.
        assert_eq!(d.shapes_derived, 2);
    }
}
