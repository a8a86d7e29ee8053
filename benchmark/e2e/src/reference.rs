//! The benchmark's own reference computations. Each is written from the
//! definitions in the paper, shares no code with the program, and is
//! tested below against a hand-worked case.

use crate::facts::Fact;
use std::collections::{BTreeSet, HashMap, HashSet};

/// The restricted growth string of a tuple (Definition 3.3): position `i`
/// gets the number of the first position holding the same value, with
/// blocks numbered from 1 in order of first occurrence.
pub fn rgs<T: PartialEq>(args: &[T]) -> Vec<u8> {
    let mut ids: Vec<u8> = Vec::with_capacity(args.len());
    let mut next = 0u8;
    for (i, a) in args.iter().enumerate() {
        match args[..i].iter().position(|b| b == a) {
            Some(j) => ids.push(ids[j]),
            None => {
                next += 1;
                ids.push(next);
            }
        }
    }
    ids
}

/// shape(D): one (predicate, RGS) pair per distinct tuple shape.
pub fn shapes_of(facts: &[Fact]) -> BTreeSet<(String, Vec<u8>)> {
    facts
        .iter()
        .map(|f| (f.pred.clone(), rgs(&f.args)))
        .collect()
}

/// Renders a shape as `pred_(1,2,1)`.
pub fn render_shape(pred: &str, ids: &[u8]) -> String {
    let ids: Vec<String> = ids.iter().map(u8::to_string).collect();
    format!("{pred}_({})", ids.join(","))
}

/// Number of atoms in the transitive closure of a path with `n` edges:
/// one atom per pair `i < j` of its `n + 1` nodes.
pub fn path_closure_size(n: usize) -> usize {
    n * (n + 1) / 2
}

/// A term of a rule atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RTerm {
    Var(String),
    Const(String),
}

/// One atom of a rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RAtom {
    pub pred: String,
    pub terms: Vec<RTerm>,
}

/// A rule `body -> head` with conjunctive body and head.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    pub body: Vec<RAtom>,
    pub head: Vec<RAtom>,
}

fn parse_atoms(s: &str) -> Result<Vec<RAtom>, String> {
    let mut out = Vec::new();
    let mut rest = s.trim();
    while !rest.is_empty() {
        let open = rest.find('(').ok_or_else(|| format!("no `(` in `{s}`"))?;
        let close = rest.find(')').ok_or_else(|| format!("no `)` in `{s}`"))?;
        let terms = rest[open + 1..close]
            .split(',')
            .map(|t| {
                let t = t.trim();
                if t.starts_with(|c: char| c.is_ascii_uppercase() || c == '_' || c == '?') {
                    RTerm::Var(t.to_string())
                } else {
                    RTerm::Const(t.to_string())
                }
            })
            .collect();
        out.push(RAtom {
            pred: rest[..open].trim().to_string(),
            terms,
        });
        rest = rest[close + 1..]
            .trim_start()
            .trim_start_matches(',')
            .trim();
    }
    Ok(out)
}

/// Reads a rule file in `body -> head.` syntax (one rule per line).
pub fn parse_rules(text: &str) -> Result<Vec<Rule>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let t = t.strip_suffix('.').unwrap_or(t);
        let (body, head) = t
            .split_once("->")
            .ok_or_else(|| format!("no `->` in rule `{line}`"))?;
        out.push(Rule {
            body: parse_atoms(body)?,
            head: parse_atoms(head)?,
        });
    }
    Ok(out)
}

/// Matches `atom` against `fact`, extending `binding`; false on a clash.
fn bind<'a>(atom: &'a RAtom, fact: &'a Fact, binding: &mut HashMap<&'a str, &'a str>) -> bool {
    if atom.pred != fact.pred || atom.terms.len() != fact.args.len() {
        return false;
    }
    for (t, v) in atom.terms.iter().zip(&fact.args) {
        match t {
            RTerm::Const(c) if c != v => return false,
            RTerm::Const(_) => {}
            RTerm::Var(x) => match binding.get(x.as_str()) {
                Some(&w) if w != v.as_str() => return false,
                Some(_) => {}
                None => {
                    binding.insert(x, v);
                }
            },
        }
    }
    true
}

/// Checks that `facts` is a model of `rules`: every match of a rule body
/// extends to a match of its head. Supports single-atom bodies and
/// single-atom heads, the shape of every rule the chase workload checks
/// this way. Returns the first violated rule and fact on failure.
pub fn model_check(rules: &[Rule], facts: &[Fact]) -> Result<(), String> {
    let mut by_pred: HashMap<&str, Vec<&Fact>> = HashMap::new();
    for f in facts {
        by_pred.entry(f.pred.as_str()).or_default().push(f);
    }
    for (ri, rule) in rules.iter().enumerate() {
        let ([body], [head]) = (rule.body.as_slice(), rule.head.as_slice()) else {
            return Err(format!(
                "rule {ri}: only single-atom bodies and heads are supported"
            ));
        };
        let body_vars: HashSet<&str> = body
            .terms
            .iter()
            .filter_map(|t| match t {
                RTerm::Var(x) => Some(x.as_str()),
                RTerm::Const(_) => None,
            })
            .collect();
        // Head positions holding a frontier variable, in order; the key of
        // a head fact is its values there.
        let frontier: Vec<(usize, &str)> = head
            .terms
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t {
                RTerm::Var(x) if body_vars.contains(x.as_str()) => Some((i, x.as_str())),
                _ => None,
            })
            .collect();
        let mut keys: HashSet<Vec<&str>> = HashSet::new();
        for g in by_pred.get(head.pred.as_str()).into_iter().flatten() {
            let mut b = HashMap::new();
            if bind(head, g, &mut b) {
                keys.insert(frontier.iter().map(|&(i, _)| g.args[i].as_str()).collect());
            }
        }
        for f in by_pred.get(body.pred.as_str()).into_iter().flatten() {
            let mut b = HashMap::new();
            if !bind(body, f, &mut b) {
                continue;
            }
            let key: Vec<&str> = frontier.iter().map(|&(_, x)| b[x]).collect();
            if !keys.contains(&key) {
                return Err(format!("rule {ri} is violated at {}", f.render()));
            }
        }
    }
    Ok(())
}

/// The semi-oblivious chase of single-atom-body, single-atom-head rules,
/// grown one database atom at a time. A trigger fires once per rule and
/// frontier binding, with a fresh null per existential variable.
pub struct SoChase {
    names: HashMap<String, u32>,
    /// Per rule: body predicate, body terms, head predicate, head terms
    /// and frontier variables, with variables as slot numbers.
    rules: Vec<CompiledRule>,
    by_body: HashMap<u32, Vec<usize>>,
    atoms: HashSet<(u32, Vec<u32>)>,
    fired: HashSet<(usize, Vec<u32>)>,
    next_null: u32,
}

#[derive(Clone, Copy)]
enum Slot {
    Var(usize),
    Const(u32),
    /// Existential variable of the head.
    Fresh(usize),
}

struct CompiledRule {
    body_pred: u32,
    body: Vec<Slot>,
    head_pred: u32,
    head: Vec<Slot>,
    frontier: Vec<usize>,
    vars: usize,
}

/// Nulls take ids from the top of the range, constants from the bottom.
const NULL_BASE: u32 = 1 << 31;

impl SoChase {
    pub fn new(rules: &[Rule]) -> Result<SoChase, String> {
        let mut c = SoChase {
            names: HashMap::new(),
            rules: Vec::new(),
            by_body: HashMap::new(),
            atoms: HashSet::new(),
            fired: HashSet::new(),
            next_null: NULL_BASE,
        };
        for (ri, r) in rules.iter().enumerate() {
            let ([body], [head]) = (r.body.as_slice(), r.head.as_slice()) else {
                return Err(format!(
                    "rule {ri}: only single-atom bodies and heads are supported"
                ));
            };
            let mut vars: HashMap<&str, usize> = HashMap::new();
            let mut body_slots = Vec::new();
            for t in &body.terms {
                body_slots.push(match t {
                    RTerm::Var(x) => {
                        let n = vars.len();
                        Slot::Var(*vars.entry(x).or_insert(n))
                    }
                    RTerm::Const(k) => Slot::Const(c.intern(k)),
                });
            }
            let body_vars = vars.len();
            let mut fresh: HashMap<&str, usize> = HashMap::new();
            let mut head_slots = Vec::new();
            let mut frontier = Vec::new();
            for t in &head.terms {
                head_slots.push(match t {
                    RTerm::Var(x) => match vars.get(x.as_str()) {
                        Some(&v) => {
                            if !frontier.contains(&v) {
                                frontier.push(v);
                            }
                            Slot::Var(v)
                        }
                        None => {
                            let n = fresh.len();
                            Slot::Fresh(*fresh.entry(x).or_insert(n))
                        }
                    },
                    RTerm::Const(k) => Slot::Const(c.intern(k)),
                });
            }
            frontier.sort_unstable();
            let body_pred = c.intern(&body.pred);
            let head_pred = c.intern(&head.pred);
            c.by_body.entry(body_pred).or_default().push(c.rules.len());
            c.rules.push(CompiledRule {
                body_pred,
                body: body_slots,
                head_pred,
                head: head_slots,
                frontier,
                vars: body_vars,
            });
        }
        Ok(c)
    }

    fn intern(&mut self, name: &str) -> u32 {
        let n = self.names.len() as u32;
        *self.names.entry(name.to_string()).or_insert(n)
    }

    /// Adds a database atom and chases to the fixpoint.
    pub fn add(&mut self, fact: &Fact) {
        let atom = (
            self.intern(&fact.pred),
            fact.args
                .iter()
                .map(|a| self.intern(a))
                .collect::<Vec<u32>>(),
        );
        let mut work = vec![atom];
        while let Some(atom) = work.pop() {
            if !self.atoms.insert(atom.clone()) {
                continue;
            }
            for &ri in self.by_body.get(&atom.0).into_iter().flatten() {
                let r = &self.rules[ri];
                debug_assert_eq!(r.body_pred, atom.0);
                let mut binding = vec![u32::MAX; r.vars];
                let matched = r.body.len() == atom.1.len()
                    && r.body.iter().zip(&atom.1).all(|(s, &v)| match *s {
                        Slot::Const(k) => k == v,
                        Slot::Var(i) if binding[i] == u32::MAX => {
                            binding[i] = v;
                            true
                        }
                        Slot::Var(i) => binding[i] == v,
                        Slot::Fresh(_) => false,
                    });
                if !matched {
                    continue;
                }
                let key: Vec<u32> = r.frontier.iter().map(|&i| binding[i]).collect();
                if !self.fired.insert((ri, key)) {
                    continue;
                }
                let fresh_base = self.next_null;
                let mut fresh_used = 0;
                let head: Vec<u32> = r
                    .head
                    .iter()
                    .map(|s| match *s {
                        Slot::Var(i) => binding[i],
                        Slot::Const(k) => k,
                        Slot::Fresh(j) => {
                            fresh_used = fresh_used.max(j as u32 + 1);
                            fresh_base + j as u32
                        }
                    })
                    .collect();
                self.next_null += fresh_used;
                work.push((r.head_pred, head));
            }
        }
    }

    /// Atoms in the chase so far.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }
}

/// A shadow of the live database: the multiset of tuples the benchmark
/// has written, with per-shape counts, so that the server's tuple and
/// shape counts can be checked after any sequence of writes.
#[derive(Clone, Debug, Default)]
pub struct Shadow {
    tuples: Vec<(u16, Vec<u32>)>,
    shapes: HashMap<(u16, Vec<u8>), u64>,
}

impl Shadow {
    pub fn insert(&mut self, pred: u16, args: Vec<u32>) {
        *self.shapes.entry((pred, rgs(&args))).or_default() += 1;
        self.tuples.push((pred, args));
    }

    /// Removes and returns the tuple at `index` (order is not kept).
    fn remove_at(&mut self, index: usize) -> (u16, Vec<u32>) {
        let (pred, args) = self.tuples.swap_remove(index);
        let key = (pred, rgs(&args));
        let n = self
            .shapes
            .get_mut(&key)
            .expect("a stored tuple has a counted shape");
        *n -= 1;
        if *n == 0 {
            self.shapes.remove(&key);
        }
        (pred, args)
    }

    /// Replaces the tuple at `index` by `args` of the same predicate, in
    /// place; returns the old arguments.
    pub fn replace_at(&mut self, index: usize, args: Vec<u32>) -> Vec<u32> {
        let pred = self.tuples[index].0;
        *self.shapes.entry((pred, rgs(&args))).or_default() += 1;
        let old = std::mem::replace(&mut self.tuples[index].1, args);
        let key = (pred, rgs(&old));
        let n = self
            .shapes
            .get_mut(&key)
            .expect("a stored tuple has a counted shape");
        *n -= 1;
        if *n == 0 {
            self.shapes.remove(&key);
        }
        old
    }

    /// Removes one copy of the given tuple, searching from the most
    /// recently inserted; false when none is stored.
    pub fn remove(&mut self, pred: u16, args: &[u32]) -> bool {
        match self
            .tuples
            .iter()
            .rposition(|(p, a)| *p == pred && a == args)
        {
            Some(i) => {
                self.remove_at(i);
                true
            }
            None => false,
        }
    }

    pub fn get(&self, index: usize) -> (u16, &[u32]) {
        let (p, a) = &self.tuples[index];
        (*p, a)
    }

    pub fn tuple_count(&self) -> usize {
        self.tuples.len()
    }

    pub fn shape_count(&self) -> usize {
        self.shapes.len()
    }

    pub fn tuples(&self) -> impl Iterator<Item = (u16, &[u32])> {
        self.tuples.iter().map(|(p, a)| (*p, a.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_3_4_has_the_single_shape_1_2() {
        let d = vec![Fact::new("R", &["a", "b"])];
        let want: BTreeSet<_> = [("R".to_string(), vec![1, 2])].into();
        assert_eq!(shapes_of(&d), want);
        assert_eq!(render_shape("R", &[1, 2]), "R_(1,2)");
    }

    #[test]
    fn rgs_numbers_blocks_by_first_occurrence() {
        assert_eq!(rgs(&["a", "b", "a", "c"]), vec![1, 2, 1, 3]);
        assert_eq!(rgs(&["x", "x", "x"]), vec![1, 1, 1]);
        let d = vec![
            Fact::new("r", &["a", "a"]),
            Fact::new("r", &["b", "b"]),
            Fact::new("r", &["a", "b"]),
        ];
        assert_eq!(shapes_of(&d).len(), 2);
    }

    #[test]
    fn path_closure_matches_an_explicit_count() {
        // a→b→c→d: ab bc cd ac bd ad.
        assert_eq!(path_closure_size(3), 6);
        for n in 0..12 {
            let pairs = (0..=n)
                .flat_map(|i| (i + 1..=n).map(move |j| (i, j)))
                .count();
            assert_eq!(path_closure_size(n), pairs);
        }
    }

    #[test]
    fn model_check_accepts_a_model_and_names_a_violation() {
        let rules = parse_rules("p(X) -> r(X, Y).\nr(X, Y) -> q(Y).\n").unwrap();
        assert_eq!(rules.len(), 2);
        let model = crate::facts::parse("p(a).\nr(a,null_0).\nq(null_0).\n").unwrap();
        assert_eq!(model_check(&rules, &model), Ok(()));
        let broken = crate::facts::parse("p(a).\nr(a,null_0).\n").unwrap();
        let err = model_check(&rules, &broken).unwrap_err();
        assert!(
            err.contains("rule 1") && err.contains("r(a,null_0)"),
            "{err}"
        );
    }

    #[test]
    fn model_check_respects_repeated_variables() {
        // Only r(a,a) matches the body; the head needs s(a,a).
        let rules = parse_rules("r(X, X) -> s(X, X).\n").unwrap();
        let ok = crate::facts::parse("r(a,a).\nr(a,b).\ns(a,a).\n").unwrap();
        assert!(model_check(&rules, &ok).is_ok());
        let bad = crate::facts::parse("r(a,a).\ns(a,b).\n").unwrap();
        assert!(model_check(&rules, &bad).is_err());
    }

    #[test]
    fn so_chase_fires_once_per_frontier_binding() {
        // p(a) → r(a,n1) → q(n1): three atoms; p(b) adds three more.
        let rules = parse_rules("p(X) -> r(X, Y).\nr(X, Y) -> q(Y).\n").unwrap();
        let mut c = SoChase::new(&rules).unwrap();
        c.add(&Fact::new("p", &["a"]));
        assert_eq!(c.len(), 3);
        c.add(&Fact::new("p", &["b"]));
        assert_eq!(c.len(), 6);
        // Semi-oblivious: r(a,b) and r(a,c) share the frontier {X = a},
        // so t(a, null) is made once (the oblivious chase makes two).
        let rules = parse_rules("r(X, Y) -> t(X, Z).\n").unwrap();
        let mut c = SoChase::new(&rules).unwrap();
        c.add(&Fact::new("r", &["a", "b"]));
        c.add(&Fact::new("r", &["a", "c"]));
        assert_eq!(c.len(), 3);
        // A full rule derives an atom that may already be there.
        let rules = parse_rules("r(X, Y) -> r(Y, X).\n").unwrap();
        let mut c = SoChase::new(&rules).unwrap();
        c.add(&Fact::new("r", &["a", "b"]));
        c.add(&Fact::new("r", &["b", "a"]));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn shadow_counts_tuples_and_shapes_after_writes() {
        let mut s = Shadow::default();
        s.insert(0, vec![1, 2]); // r(1,2): shape (1,2)
        s.insert(0, vec![3, 3]); // r(3,3): shape (1,1)
        s.insert(0, vec![4, 5]); // (1,2) again
        s.insert(1, vec![7]); //    s(7): shape (1)
        assert_eq!((s.tuple_count(), s.shape_count()), (4, 3));
        assert!(s.remove(0, &[3, 3])); // last (1,1) tuple goes
        assert!(!s.remove(0, &[9, 9])); // a miss changes nothing
        assert_eq!((s.tuple_count(), s.shape_count()), (3, 2));
        assert!(s.remove(0, &[1, 2]));
        assert_eq!((s.tuple_count(), s.shape_count()), (2, 2));
        s.insert(0, vec![1, 2]); // duplicates are kept (multiset)
        s.insert(0, vec![1, 2]);
        assert_eq!((s.tuple_count(), s.shape_count()), (4, 2));
        // s(7) → s(8) keeps the shape; r(…) → r(5,5) swaps (1,2) for (1,1).
        let i = (0..4).find(|&i| s.get(i).0 == 1).unwrap();
        assert_eq!(s.replace_at(i, vec![8]), vec![7]);
        assert_eq!((s.tuple_count(), s.shape_count()), (4, 2));
        let j = (0..4).find(|&i| s.get(i).0 == 0).unwrap();
        s.replace_at(j, vec![5, 5]);
        assert_eq!((s.tuple_count(), s.shape_count()), (4, 3));
    }
}
