//! A sharded, LRU-bounded, persistable verdict cache over the fingerprint
//! layer of `soct_model::fingerprint`.
//!
//! The paper factors termination checking into a database-independent
//! phase over the ruleset and a database-dependent phase over the shapes
//! (`LTimings::db_independent`), which makes verdicts reusable across any
//! two requests whose ruleset and shape fingerprints agree. The cache
//! keys on exactly that pair:
//!
//! - the **ruleset key** is [`fingerprint_ruleset`] — order-, renaming-,
//!   and interning-invariant;
//! - the **database key** depends on the TGD class: linear sets key on
//!   `shape(D)` ([`fingerprint_instance_shapes`]), simple-linear and
//!   general sets key only on the non-empty predicates
//!   ([`fingerprint_predicates`]) — the verdict provably depends on
//!   nothing else (§4, Remark 1).
//!
//! Entries are spread over a fixed number of shards, each behind its own
//! mutex, so a serving layer can probe concurrently; every shard enforces
//! its slice of the LRU bound with timestamp eviction. The whole cache
//! serialises to a small binary blob (`SOCTVC1\0` framing, in the style
//! of `soct_storage::persist`) so a service restart starts warm; a
//! [`CacheFile`] keeps such a file current by appending one record per new
//! verdict after the snapshot, and the loader reads them back in order.

use crate::find_shapes::FindShapesMode;
use crate::oracle::{check_termination_threads, CheckRun, DbView, TerminationReport, Verdict};
use crate::timings::CacheTimings;
use soct_model::fingerprint::{
    fingerprint_instance_shapes, fingerprint_predicates, fingerprint_ruleset, fingerprint_shapes,
    Fingerprint,
};
use soct_model::{FxHashMap, Instance, Schema, Tgd, TgdClass};
use soct_obs::Phases;
use soct_storage::{StorageEngine, TupleSource};
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The pair of fingerprints a verdict is keyed by.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct CacheKey {
    /// Canonical ruleset fingerprint.
    pub rules: Fingerprint,
    /// Class-dependent database fingerprint (shapes for L, non-empty
    /// predicates for SL/general).
    pub db: Fingerprint,
}

/// Computes the cache key for a check request, together with the class the
/// dispatcher will use. The database half is chosen per class so that the
/// key never over-discriminates: any two databases mapping to the same key
/// are guaranteed the same verdict under `check_termination`.
pub fn cache_key(schema: &Schema, tgds: &[Tgd], db: &Instance) -> (CacheKey, TgdClass) {
    let class = soct_model::tgd::classify(tgds);
    let rules = fingerprint_ruleset(schema, tgds);
    let db_fp = match class {
        TgdClass::Linear => fingerprint_instance_shapes(schema, db),
        TgdClass::SimpleLinear | TgdClass::General => {
            fingerprint_predicates(schema, &db.non_empty_predicates())
        }
    };
    (CacheKey { rules, db: db_fp }, class)
}

/// Domain tag XORed into the db half of every live-engine cache key.
///
/// Without it, a live check and a body (instance) check over databases
/// with coinciding fingerprints map to the *same* entry — the collision
/// PR 9's `serve_metrics` test documented. That sharing is only sound
/// while the maintained accumulators are provably exact; separating the
/// domains means a desynced live fingerprint can at worst serve a stale
/// *live* verdict, never poison the body-check keyspace (and vice
/// versa). The revalidation property is untouched: live keys still
/// collide with other live keys exactly when the underlying
/// fingerprints agree.
const LIVE_DB_DOMAIN: u128 = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c834;

/// [`cache_key`] against a live [`StorageEngine`]. A tracking-enabled
/// engine answers the db half from its incrementally-maintained
/// accumulators in O(1) — this is the revalidation primitive: after any
/// number of shape-preserving writes the key is unchanged, so a previously
/// cached verdict is served with zero re-derivation. Engines without
/// tracking fall back to one scan (producing the same key, so scan-derived
/// and maintained lookups interchange freely). The db half carries the
/// `LIVE_DB_DOMAIN` separator, so live entries never share cache slots
/// with instance-path entries whose fingerprints happen to coincide.
pub fn cache_key_live(
    schema: &Schema,
    tgds: &[Tgd],
    engine: &StorageEngine,
) -> (CacheKey, TgdClass) {
    let class = soct_model::tgd::classify(tgds);
    let rules = fingerprint_ruleset(schema, tgds);
    let db_fp = match class {
        TgdClass::Linear => engine.shape_fingerprint().unwrap_or_else(|| {
            let shapes = crate::find_shapes::find_shapes(engine, FindShapesMode::InMemory).shapes;
            fingerprint_shapes(schema, &shapes)
        }),
        TgdClass::SimpleLinear | TgdClass::General => engine
            .predicate_fingerprint()
            .unwrap_or_else(|| fingerprint_predicates(schema, &engine.non_empty_predicates())),
    };
    let db_fp = Fingerprint(db_fp.0 ^ LIVE_DB_DOMAIN);
    (CacheKey { rules, db: db_fp }, class)
}

/// One cached verdict.
#[derive(Clone, Copy, Debug)]
struct Entry {
    verdict: Verdict,
    class: TgdClass,
    last_used: u64,
}

/// Monotonic counters exposed by [`VerdictCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
}

const SHARD_COUNT: usize = 16;
const MAGIC: &[u8; 8] = b"SOCTVC1\0";

/// A sharded in-memory verdict cache with an LRU bound.
#[derive(Debug)]
pub struct VerdictCache {
    shards: Vec<Mutex<FxHashMap<CacheKey, Entry>>>,
    per_shard_capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl VerdictCache {
    /// Creates a cache bounded to roughly `capacity` entries (spread over
    /// the shards; each shard enforces its own slice of the bound). A zero
    /// capacity is bumped to one entry per shard.
    pub fn new(capacity: usize) -> Self {
        VerdictCache {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            per_shard_capacity: capacity.div_ceil(SHARD_COUNT).max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Total entry bound.
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * SHARD_COUNT
    }

    /// Current number of cached verdicts.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// True when no verdict is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_of(&self, key: &CacheKey) -> &Mutex<FxHashMap<CacheKey, Entry>> {
        let folded = key.rules.0 ^ key.db.0.rotate_left(64);
        let h = (folded as u64) ^ ((folded >> 64) as u64);
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Looks up a verdict, refreshing its LRU stamp on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<(Verdict, TgdClass)> {
        let mut shard = self.shard_of(key).lock().expect("cache shard poisoned");
        match shard.get_mut(key) {
            Some(e) => {
                e.last_used = self.clock.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((e.verdict, e.class))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) a verdict, evicting the least-recently-used
    /// entry of the target shard when it is full.
    pub fn insert(&self, key: CacheKey, verdict: Verdict, class: TgdClass) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard_of(&key).lock().expect("cache shard poisoned");
        if shard.len() >= self.per_shard_capacity && !shard.contains_key(&key) {
            // O(shard) scan per eviction: shards are small (capacity /
            // 16) and evictions only happen once a shard is full.
            if let Some(oldest) = shard
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                shard.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.insert(
            key,
            Entry {
                verdict,
                class,
                last_used: stamp,
            },
        );
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Serialises all entries as a snapshot (`SOCTVC1\0` magic,
    /// little-endian u32 count, then one 34-byte record per entry: rules
    /// fp, db fp, verdict, class). Entries are sorted by key, so equal
    /// caches serialise to equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut entries: Vec<(CacheKey, Entry)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("cache shard poisoned")
                    .iter()
                    .map(|(k, e)| (*k, *e))
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        let mut out = Vec::with_capacity(HEADER_BYTES + entries.len() * RECORD_BYTES);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (k, e) in entries {
            out.extend_from_slice(&Self::record(&k, e.verdict, e.class));
        }
        out
    }

    /// One entry as the file stores it: rules fp, db fp (16 bytes each,
    /// little-endian), verdict code, class code. A snapshot is a header
    /// followed by these; a [`CacheFile`] appends more of them after it.
    fn record(key: &CacheKey, verdict: Verdict, class: TgdClass) -> [u8; RECORD_BYTES] {
        let mut rec = [0u8; RECORD_BYTES];
        rec[..16].copy_from_slice(&key.rules.to_le_bytes());
        rec[16..32].copy_from_slice(&key.db.to_le_bytes());
        rec[32] = verdict_code(verdict);
        rec[33] = class_code(class);
        rec
    }

    /// Loads a cache file's entries into this cache (on top of whatever
    /// it already holds): every whole record after the header, in file
    /// order, so records appended after the snapshot refresh it. A torn
    /// partial record at the end (a crash mid-append) is dropped, not an
    /// error; a bad header or an out-of-range code is.
    fn load_bytes(&self, data: &[u8]) -> io::Result<LoadedFile> {
        let err = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        if data.len() < HEADER_BYTES || &data[..8] != MAGIC {
            return Err(err("bad verdict-cache magic"));
        }
        let count = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes")) as usize;
        let records = data[HEADER_BYTES..].chunks_exact(RECORD_BYTES);
        let torn_bytes = records.remainder().len();
        let whole = records.len();
        for rec in records {
            let fp = |r: &[u8]| Fingerprint::from_le_bytes(r.try_into().expect("16 bytes"));
            let key = CacheKey {
                rules: fp(&rec[..16]),
                db: fp(&rec[16..32]),
            };
            let verdict = decode_verdict(rec[32]).ok_or_else(|| err("bad verdict code"))?;
            let class = decode_class(rec[33]).ok_or_else(|| err("bad class code"))?;
            self.insert(key, verdict, class);
        }
        Ok(LoadedFile {
            snapshot: whole.min(count),
            appended: whole.saturating_sub(count),
            torn_bytes,
        })
    }
}

/// Bytes before the first record of a cache file: magic and the
/// snapshot's entry count.
const HEADER_BYTES: usize = 12;

/// Bytes of one cache-file record (see [`VerdictCache::record`]).
const RECORD_BYTES: usize = 34;

/// The layout [`VerdictCache::load_bytes`] found in a cache file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LoadedFile {
    /// Whole records of the snapshot (at most the header's count).
    snapshot: usize,
    /// Whole records appended after the snapshot.
    appended: usize,
    /// Bytes of a torn partial record at the end, dropped by the load.
    torn_bytes: usize,
}

/// A verdict cache's file, kept current one verdict at a time: a sorted
/// snapshot ([`VerdictCache::to_bytes`]) followed by the records of the
/// verdicts cached since. Each [`CacheFile::add`] appends one record; the
/// snapshot is rewritten only once the appended records would outnumber
/// it, so a verdict costs O(1) file bytes amortised (snapshots land at 1,
/// 3, 7, 15, … entries) and the file stays within twice its snapshot's
/// size. A reader that stops after the header's count of records — every
/// version before appends existed — sees the snapshot alone.
#[derive(Debug)]
pub struct CacheFile {
    path: PathBuf,
    /// Records of the last snapshot.
    snapshot: usize,
    /// Records appended since.
    appended: usize,
    /// Open while the file ends on a record boundary; `None` makes the
    /// next write a snapshot.
    append: Option<File>,
}

impl CacheFile {
    /// Loads the file at `path`, if there is one, into `cache`. A torn
    /// partial record at the end (a crash mid-append) is dropped, and the
    /// next write is then a snapshot rather than an append after it; a bad
    /// header or an out-of-range code is an error.
    pub fn open(path: impl Into<PathBuf>, cache: &VerdictCache) -> io::Result<Self> {
        let mut file = CacheFile {
            path: path.into(),
            snapshot: 0,
            appended: 0,
            append: None,
        };
        let bytes = match std::fs::read(&file.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(file),
            Err(e) => return Err(e),
        };
        let loaded = cache.load_bytes(&bytes)?;
        file.snapshot = loaded.snapshot;
        file.appended = loaded.appended;
        if loaded.torn_bytes == 0 {
            // A file that cannot be opened for writing gets a snapshot on
            // the first write instead, which reports the error.
            file.append = OpenOptions::new().append(true).open(&file.path).ok();
        }
        Ok(file)
    }

    /// Persists one verdict just inserted into `cache`: appends its
    /// record, or rewrites the snapshot once the appended records would
    /// outnumber it (or when the file cannot take an append).
    pub fn add(
        &mut self,
        cache: &VerdictCache,
        key: &CacheKey,
        verdict: Verdict,
        class: TgdClass,
    ) -> io::Result<()> {
        let result = match self.append.as_mut() {
            Some(f) if self.appended < self.snapshot => f
                .write_all(&VerdictCache::record(key, verdict, class))
                .map(|()| self.appended += 1),
            _ => self.snapshot(cache),
        };
        if result.is_err() {
            // A partial append may have left a torn record: only a fresh
            // snapshot may follow it.
            self.append = None;
        }
        result
    }

    /// Rewrites the file as a snapshot of `cache`, folding in every
    /// appended record. Write-then-rename, so a crash mid-write never
    /// leaves a corrupt snapshot behind.
    pub fn snapshot(&mut self, cache: &VerdictCache) -> io::Result<()> {
        self.append = None;
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        let bytes = cache.to_bytes();
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &self.path)?;
        self.snapshot = (bytes.len() - HEADER_BYTES) / RECORD_BYTES;
        self.appended = 0;
        self.append = Some(OpenOptions::new().append(true).open(&self.path)?);
        soct_obs::global().cache_persists.inc();
        Ok(())
    }

    /// Records in the last snapshot.
    pub fn snapshot_len(&self) -> usize {
        self.snapshot
    }
}

fn verdict_code(v: Verdict) -> u8 {
    match v {
        Verdict::Finite => 0,
        Verdict::Infinite => 1,
        Verdict::Unknown => 2,
    }
}

fn decode_verdict(b: u8) -> Option<Verdict> {
    match b {
        0 => Some(Verdict::Finite),
        1 => Some(Verdict::Infinite),
        2 => Some(Verdict::Unknown),
        _ => None,
    }
}

fn class_code(c: TgdClass) -> u8 {
    match c {
        TgdClass::SimpleLinear => 0,
        TgdClass::Linear => 1,
        TgdClass::General => 2,
    }
}

fn decode_class(b: u8) -> Option<TgdClass> {
    match b {
        0 => Some(TgdClass::SimpleLinear),
        1 => Some(TgdClass::Linear),
        2 => Some(TgdClass::General),
        _ => None,
    }
}

/// The result of a cache-aware termination check.
#[derive(Clone, Debug)]
pub struct CachedCheck {
    /// The verdict and dispatch class (identical to what the uncached
    /// [`crate::check_termination`] would return).
    pub report: TerminationReport,
    /// True when the verdict came from the cache.
    pub hit: bool,
    /// The ruleset half of the key.
    pub rules_fp: Fingerprint,
    /// The database half of the key.
    pub db_fp: Fingerprint,
    /// Where the time went (fingerprinting / lookup / checking).
    pub timings: CacheTimings,
}

/// [`crate::check_termination_threads`] with a verdict cache in front: the
/// key is computed from the canonical fingerprints, a hit returns in
/// O(fingerprint + lookup), and a miss runs the checker and populates the
/// cache. Cached verdicts are exact, never approximate — the key
/// construction ([`cache_key`]) only equates requests whose verdicts
/// provably agree.
pub fn check_termination_cached(
    schema: &Schema,
    tgds: &[Tgd],
    db: &Instance,
    mode: FindShapesMode,
    threads: usize,
    cache: &VerdictCache,
) -> CachedCheck {
    let mut phases = Phases::new();
    let (key, class) = phases.run("fingerprint", || cache_key(schema, tgds, db));
    let cached = phases.run("lookup", || cache.get(&key));

    if let Some((verdict, cached_class)) = cached {
        debug_assert_eq!(cached_class, class, "class is a function of the ruleset");
        return CachedCheck {
            report: TerminationReport {
                verdict,
                class: cached_class,
                run: CheckRun::Cached,
            },
            hit: true,
            rules_fp: key.rules,
            db_fp: key.db,
            timings: CacheTimings::from_phases(&phases),
        };
    }

    let report = phases.run("check", || {
        check_termination_threads(schema, tgds, db, mode, threads)
    });
    cache.insert(key, report.verdict, report.class);
    CachedCheck {
        report,
        hit: false,
        rules_fp: key.rules,
        db_fp: key.db,
        timings: CacheTimings::from_phases(&phases),
    }
}

/// [`check_termination_cached`] against a live [`StorageEngine`] — the
/// end-to-end revalidation path. With shape tracking enabled, a hit costs
/// one ruleset fingerprint, two O(1) accumulator reads, and one shard
/// probe: sub-millisecond regardless of database size, and guaranteed
/// whenever no write since the last check changed the class-relevant
/// fingerprint (the distinct shape set for L, the non-empty relations for
/// SL/general).
///
/// `engine` is a plain `&StorageEngine` or a lock guard that derefs to
/// one, and it is released before any checking starts: on a miss, the
/// part of the database the class reads (`shape(D)` from the catalog for
/// L, the non-empty predicates for SL/general) is copied first, then the
/// engine is dropped, and the checker runs on the copy. A caller holding
/// the engine under a read lock therefore blocks writers for the key, the
/// probe and that copy, never for a check. The verdict is inserted under
/// the key taken together with the copy, so it is exactly the verdict of
/// the database the key names.
pub fn check_termination_live<E: Deref<Target = StorageEngine>>(
    schema: &Schema,
    tgds: &[Tgd],
    engine: E,
    mode: FindShapesMode,
    threads: usize,
    cache: &VerdictCache,
) -> CachedCheck {
    let mut phases = Phases::new();
    let (key, class) = phases.run("fingerprint", || cache_key_live(schema, tgds, &engine));
    let cached = phases.run("lookup", || cache.get(&key));

    if let Some((verdict, cached_class)) = cached {
        debug_assert_eq!(cached_class, class, "class is a function of the ruleset");
        return CachedCheck {
            report: TerminationReport {
                verdict,
                class: cached_class,
                run: CheckRun::Cached,
            },
            hit: true,
            rules_fp: key.rules,
            db_fp: key.db,
            timings: CacheTimings::from_phases(&phases),
        };
    }

    let report = phases.run("check", || {
        let view = DbView::of_engine(&engine, class, mode, threads);
        drop(engine);
        view.check(schema, tgds)
    });
    cache.insert(key, report.verdict, report.class);
    CachedCheck {
        report,
        hit: false,
        rules_fp: key.rules,
        db_fp: key.db,
        timings: CacheTimings::from_phases(&phases),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soct_model::{Atom, ConstId, Term, VarId};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }

    /// person(x) → ∃y adv(x,y); adv(x,y) → person(y): infinite.
    fn infinite_sl() -> (Schema, Vec<Tgd>, Instance) {
        let mut s = Schema::new();
        let person = s.add_predicate("person", 1).unwrap();
        let adv = s.add_predicate("adv", 2).unwrap();
        let tgds = vec![
            Tgd::new(
                vec![Atom::new(&s, person, vec![v(0)]).unwrap()],
                vec![Atom::new(&s, adv, vec![v(0), v(1)]).unwrap()],
            )
            .unwrap(),
            Tgd::new(
                vec![Atom::new(&s, adv, vec![v(0), v(1)]).unwrap()],
                vec![Atom::new(&s, person, vec![v(1)]).unwrap()],
            )
            .unwrap(),
        ];
        let mut db = Instance::new();
        db.insert(Atom::new(&s, person, vec![c(0)]).unwrap());
        (s, tgds, db)
    }

    #[test]
    fn miss_then_hit_same_verdict() {
        let (s, tgds, db) = infinite_sl();
        let cache = VerdictCache::new(64);
        let first = check_termination_cached(&s, &tgds, &db, FindShapesMode::InMemory, 1, &cache);
        assert!(!first.hit);
        assert_eq!(first.report.verdict, Verdict::Infinite);
        let second = check_termination_cached(&s, &tgds, &db, FindShapesMode::InMemory, 1, &cache);
        assert!(second.hit);
        assert_eq!(second.report.verdict, Verdict::Infinite);
        assert_eq!(second.report.class, first.report.class);
        assert_eq!(second.rules_fp, first.rules_fp);
        assert_eq!(second.db_fp, first.db_fp);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn fingerprint_time_is_reported_on_misses_too() {
        use std::time::Duration;
        let (s, tgds, db) = infinite_sl();
        let cache = VerdictCache::new(64);
        let miss = check_termination_cached(&s, &tgds, &db, FindShapesMode::InMemory, 1, &cache);
        assert!(!miss.hit);
        assert!(
            miss.timings.t_fingerprint > Duration::ZERO,
            "the miss path must report fingerprint time, not fold it into the hit path"
        );
        assert!(miss.timings.t_check > Duration::ZERO);
        let hit = check_termination_cached(&s, &tgds, &db, FindShapesMode::InMemory, 1, &cache);
        assert!(hit.hit);
        assert!(hit.timings.t_fingerprint > Duration::ZERO);
        assert_eq!(hit.timings.t_check, Duration::ZERO, "no check ran on a hit");
        // Both paths feed the global phase histogram.
        assert!(soct_obs::global().phase("fingerprint").unwrap().count() >= 2);
    }

    #[test]
    fn permuted_ruleset_hits() {
        let (s, tgds, db) = infinite_sl();
        let cache = VerdictCache::new(64);
        check_termination_cached(&s, &tgds, &db, FindShapesMode::InMemory, 1, &cache);
        let rev: Vec<Tgd> = tgds.iter().rev().cloned().collect();
        let second = check_termination_cached(&s, &rev, &db, FindShapesMode::InMemory, 1, &cache);
        assert!(second.hit);
    }

    #[test]
    fn different_tuples_same_shapes_hit_for_sl() {
        let (s, tgds, _) = infinite_sl();
        let person = s.pred_by_name("person").unwrap();
        let cache = VerdictCache::new(64);
        let mut d1 = Instance::new();
        d1.insert(Atom::new(&s, person, vec![c(0)]).unwrap());
        let mut d2 = Instance::new();
        d2.insert(Atom::new(&s, person, vec![c(41)]).unwrap());
        d2.insert(Atom::new(&s, person, vec![c(42)]).unwrap());
        check_termination_cached(&s, &tgds, &d1, FindShapesMode::InMemory, 1, &cache);
        let second = check_termination_cached(&s, &tgds, &d2, FindShapesMode::InMemory, 1, &cache);
        assert!(second.hit, "same non-empty predicates must share the key");
    }

    /// R(x,x) → S(x); S(x) → ∃y T(x,y); T(x,y) → S(y). Linear (the first
    /// body repeats a variable), and the verdict flips on whether the
    /// database contains the shape R_(1,1): only a repeated-column R tuple
    /// ignites the infinite S/T loop.
    fn shape_sensitive_l() -> (Schema, Vec<Tgd>) {
        let mut s = Schema::new();
        let r = s.add_predicate("R", 2).unwrap();
        let sp = s.add_predicate("S", 1).unwrap();
        let t = s.add_predicate("T", 2).unwrap();
        let tgds = vec![
            Tgd::new(
                vec![Atom::new(&s, r, vec![v(0), v(0)]).unwrap()],
                vec![Atom::new(&s, sp, vec![v(0)]).unwrap()],
            )
            .unwrap(),
            Tgd::new(
                vec![Atom::new(&s, sp, vec![v(0)]).unwrap()],
                vec![Atom::new(&s, t, vec![v(0), v(1)]).unwrap()],
            )
            .unwrap(),
            Tgd::new(
                vec![Atom::new(&s, t, vec![v(0), v(1)]).unwrap()],
                vec![Atom::new(&s, sp, vec![v(1)]).unwrap()],
            )
            .unwrap(),
        ];
        (s, tgds)
    }

    #[test]
    fn live_checks_hit_after_shape_preserving_writes() {
        use soct_storage::StorageEngine;
        let (s, tgds) = shape_sensitive_l();
        let r = s.pred_by_name("R").unwrap();
        let mut engine = StorageEngine::new();
        engine.create_table(r, "R", 2);
        engine.insert(r, &[c(0), c(1)]);
        engine.enable_shape_tracking();
        let cache = VerdictCache::new(64);
        let first = check_termination_live(&s, &tgds, &engine, FindShapesMode::InMemory, 1, &cache);
        assert!(!first.hit);
        assert_eq!(first.report.verdict, Verdict::Finite);
        // Shape-preserving writes: same distinct shape set, so revalidation
        // is a pure cache hit with zero re-derivation.
        for i in 10..30 {
            engine.insert(r, &[c(i), c(i + 100)]);
        }
        let second =
            check_termination_live(&s, &tgds, &engine, FindShapesMode::InMemory, 1, &cache);
        assert!(second.hit, "shape-preserving writes keep the key stable");
        assert_eq!(second.db_fp, first.db_fp);
        // A shape-changing write (R_(1,1) appears) must recompute — and the
        // verdict flips, proving the miss was necessary.
        engine.insert(r, &[c(5), c(5)]);
        let third = check_termination_live(&s, &tgds, &engine, FindShapesMode::InMemory, 1, &cache);
        assert!(!third.hit);
        assert_ne!(third.db_fp, first.db_fp);
        assert_eq!(third.report.verdict, Verdict::Infinite);
        // Deleting the witness restores the original key: hit again.
        assert!(engine.delete(r, &[c(5), c(5)]));
        let fourth =
            check_termination_live(&s, &tgds, &engine, FindShapesMode::InMemory, 1, &cache);
        assert!(fourth.hit);
        assert_eq!(fourth.report.verdict, Verdict::Finite);
        assert_eq!(fourth.db_fp, first.db_fp);
    }

    #[test]
    fn live_and_instance_paths_are_domain_separated() {
        use soct_storage::StorageEngine;
        let (s, tgds) = shape_sensitive_l();
        let r = s.pred_by_name("R").unwrap();
        // Seed the cache through the instance path...
        let mut db = Instance::new();
        db.insert(Atom::new(&s, r, vec![c(0), c(1)]).unwrap());
        let cache = VerdictCache::new(64);
        let via_instance =
            check_termination_cached(&s, &tgds, &db, FindShapesMode::InMemory, 1, &cache);
        assert!(!via_instance.hit);
        // ...then check the live path over equivalent contents. The
        // underlying fingerprints coincide, but the live key carries the
        // domain tag: no sharing with the instance-path entry, so a
        // desynced live accumulator could never poison body checks.
        let mut engine = StorageEngine::new();
        engine.create_table(r, "R", 2);
        engine.insert(r, &[c(7), c(9)]);
        let untracked =
            check_termination_live(&s, &tgds, &engine, FindShapesMode::InMemory, 1, &cache);
        assert!(!untracked.hit, "live keys live in their own domain");
        assert_ne!(untracked.db_fp, via_instance.db_fp);
        assert_eq!(untracked.rules_fp, via_instance.rules_fp);
        assert_eq!(untracked.report.verdict, via_instance.report.verdict);
        // Within the live domain, scan-derived and maintained keys still
        // interchange: enabling tracking hits the entry the scan seeded.
        engine.enable_shape_tracking();
        let tracked =
            check_termination_live(&s, &tgds, &engine, FindShapesMode::InMemory, 1, &cache);
        assert!(tracked.hit, "maintained key matches the scan-derived key");
        assert_eq!(tracked.db_fp, untracked.db_fp);
    }

    #[test]
    fn live_sl_keys_on_nonempty_predicates() {
        use soct_storage::StorageEngine;
        let (s, tgds, _) = infinite_sl();
        let person = s.pred_by_name("person").unwrap();
        let adv = s.pred_by_name("adv").unwrap();
        let mut engine = StorageEngine::new();
        engine.create_table(person, "person", 1);
        engine.create_table(adv, "adv", 2);
        engine.insert(person, &[c(0)]);
        engine.enable_shape_tracking();
        let cache = VerdictCache::new(64);
        let first = check_termination_live(&s, &tgds, &engine, FindShapesMode::InMemory, 1, &cache);
        assert!(!first.hit);
        assert_eq!(first.report.verdict, Verdict::Infinite);
        // More tuples in already-populated relations: same key.
        engine.insert(person, &[c(1)]);
        let second =
            check_termination_live(&s, &tgds, &engine, FindShapesMode::InMemory, 1, &cache);
        assert!(second.hit);
        // Populating a previously-empty relation changes the SL key.
        engine.insert(adv, &[c(0), c(1)]);
        let third = check_termination_live(&s, &tgds, &engine, FindShapesMode::InMemory, 1, &cache);
        assert!(!third.hit);
        assert_ne!(third.db_fp, first.db_fp);
    }

    #[test]
    fn lru_bound_evicts() {
        let cache = VerdictCache::new(0); // 1 entry per shard
        let mk = |i: u128| CacheKey {
            rules: Fingerprint(i),
            db: Fingerprint(0),
        };
        // Insert many keys; capacity is SHARD_COUNT, so evictions must
        // kick in and the size stays bounded.
        for i in 0..200 {
            cache.insert(mk(i), Verdict::Finite, TgdClass::SimpleLinear);
        }
        assert!(cache.len() <= cache.capacity());
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn lru_prefers_recent_entries() {
        let cache = VerdictCache::new(0);
        // Two keys landing in the same shard (db fp equal, rules fps
        // chosen congruent modulo the shard count).
        let k1 = CacheKey {
            rules: Fingerprint(16),
            db: Fingerprint(0),
        };
        let k2 = CacheKey {
            rules: Fingerprint(32),
            db: Fingerprint(0),
        };
        cache.insert(k1, Verdict::Finite, TgdClass::SimpleLinear);
        cache.insert(k2, Verdict::Infinite, TgdClass::SimpleLinear);
        // Shard holds one entry: k2 must have evicted k1.
        assert!(cache.get(&k2).is_some());
        assert!(cache.get(&k1).is_none());
    }

    #[test]
    fn bytes_round_trip() {
        let (s, tgds, db) = infinite_sl();
        let cache = VerdictCache::new(64);
        check_termination_cached(&s, &tgds, &db, FindShapesMode::InMemory, 1, &cache);
        let bytes = cache.to_bytes();
        let restored = VerdictCache::new(64);
        restored.load_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), cache.len());
        assert_eq!(restored.to_bytes(), bytes);
        // The restored cache serves the hit directly.
        let r = check_termination_cached(&s, &tgds, &db, FindShapesMode::InMemory, 1, &restored);
        assert!(r.hit);
        assert_eq!(r.report.verdict, Verdict::Infinite);
    }

    #[test]
    fn corrupt_cache_bytes_rejected() {
        let cache = VerdictCache::new(8);
        assert!(cache.load_bytes(b"garbage").is_err());
        cache.insert(
            CacheKey {
                rules: Fingerprint(1),
                db: Fingerprint(2),
            },
            Verdict::Finite,
            TgdClass::Linear,
        );
        let mut bytes = cache.to_bytes();
        bytes[2] = b'X'; // magic
        assert!(VerdictCache::new(8).load_bytes(&bytes).is_err());
        let mut bad_code = cache.to_bytes();
        let last = bad_code.len() - 1;
        bad_code[last] = 9; // class code out of range
        assert!(VerdictCache::new(8).load_bytes(&bad_code).is_err());
    }

    /// Distinct keys that spread over the shards.
    fn key(i: u128) -> CacheKey {
        CacheKey {
            rules: Fingerprint(i.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835)),
            db: Fingerprint(0xdb),
        }
    }

    #[test]
    fn appended_records_load_after_the_snapshot() {
        let cache = VerdictCache::new(64);
        cache.insert(key(1), Verdict::Finite, TgdClass::Linear);
        let mut file = cache.to_bytes();
        file.extend_from_slice(&VerdictCache::record(
            &key(2),
            Verdict::Infinite,
            TgdClass::SimpleLinear,
        ));
        // A later record for a key already in the snapshot wins.
        file.extend_from_slice(&VerdictCache::record(
            &key(1),
            Verdict::Unknown,
            TgdClass::General,
        ));
        let restored = VerdictCache::new(64);
        let loaded = restored.load_bytes(&file).unwrap();
        assert_eq!(
            loaded,
            LoadedFile {
                snapshot: 1,
                appended: 2,
                torn_bytes: 0
            }
        );
        assert_eq!(
            restored.get(&key(1)),
            Some((Verdict::Unknown, TgdClass::General))
        );
        assert_eq!(
            restored.get(&key(2)),
            Some((Verdict::Infinite, TgdClass::SimpleLinear))
        );
    }

    #[test]
    fn a_file_cut_mid_record_loads_its_whole_records() {
        let cache = VerdictCache::new(64);
        for i in 0..3 {
            cache.insert(key(i), Verdict::Finite, TgdClass::Linear);
        }
        let mut file = cache.to_bytes();
        file.extend_from_slice(&VerdictCache::record(
            &key(7),
            Verdict::Infinite,
            TgdClass::Linear,
        ));
        // Every cut inside the last record drops that record alone, and a
        // cut inside the snapshot keeps the records before it.
        for cut in [
            file.len() - 1,
            file.len() - RECORD_BYTES + 1,
            HEADER_BYTES + 40,
        ] {
            let restored = VerdictCache::new(64);
            let loaded = restored.load_bytes(&file[..cut]).unwrap();
            let whole = (cut - HEADER_BYTES) / RECORD_BYTES;
            assert_eq!(loaded.snapshot + loaded.appended, whole, "cut at {cut}");
            assert_eq!(loaded.torn_bytes, (cut - HEADER_BYTES) % RECORD_BYTES);
            assert_eq!(restored.len(), whole);
            assert_eq!(restored.get(&key(7)), None);
        }
    }

    /// A snapshot as the format has always been written: magic, entry
    /// count, then sorted 34-byte records. Built byte by byte, so it pins
    /// the format rather than whatever `to_bytes` writes today.
    #[test]
    fn files_in_the_snapshot_format_load_identically() {
        let mut file = b"SOCTVC1\0".to_vec();
        file.extend_from_slice(&2u32.to_le_bytes());
        for (rules, db, verdict, class) in [(3u128, 4u128, 1u8, 1u8), (5, 6, 0, 0)] {
            file.extend_from_slice(&rules.to_le_bytes());
            file.extend_from_slice(&db.to_le_bytes());
            file.extend_from_slice(&[verdict, class]);
        }
        let cache = VerdictCache::new(8);
        let loaded = cache.load_bytes(&file).unwrap();
        assert_eq!(
            loaded,
            LoadedFile {
                snapshot: 2,
                appended: 0,
                torn_bytes: 0
            }
        );
        let k = |r: u128, d: u128| CacheKey {
            rules: Fingerprint(r),
            db: Fingerprint(d),
        };
        assert_eq!(
            cache.get(&k(3, 4)),
            Some((Verdict::Infinite, TgdClass::Linear))
        );
        assert_eq!(
            cache.get(&k(5, 6)),
            Some((Verdict::Finite, TgdClass::SimpleLinear))
        );
        assert_eq!(cache.to_bytes(), file, "a snapshot re-serialises unchanged");
    }

    fn temp_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("verdicts.soctvc")
    }

    #[test]
    fn file_round_trip() {
        let path = temp_file("soct_verdict_cache_test");
        let cache = VerdictCache::new(8);
        let mut file = CacheFile::open(&path, &cache).unwrap();
        let k = CacheKey {
            rules: Fingerprint(7),
            db: Fingerprint(8),
        };
        cache.insert(k, Verdict::Unknown, TgdClass::General);
        file.add(&cache, &k, Verdict::Unknown, TgdClass::General)
            .unwrap();
        let restored = VerdictCache::new(8);
        CacheFile::open(&path, &restored).unwrap();
        assert_eq!(
            restored.get(&k),
            Some((Verdict::Unknown, TgdClass::General))
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn the_file_stays_within_twice_its_snapshot() {
        let path = temp_file("soct_verdict_cache_growth");
        let cache = VerdictCache::new(1024);
        let mut file = CacheFile::open(&path, &cache).unwrap();
        let mut snapshots = Vec::new();
        for i in 0..300 {
            cache.insert(key(i), Verdict::Finite, TgdClass::Linear);
            file.add(&cache, &key(i), Verdict::Finite, TgdClass::Linear)
                .unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
            let snapshot = HEADER_BYTES + count * RECORD_BYTES;
            assert!(
                bytes.len() <= 2 * snapshot,
                "add {i}: {} bytes",
                bytes.len()
            );
            assert_eq!(bytes.len(), HEADER_BYTES + (i as usize + 1) * RECORD_BYTES);
            if snapshots.last() != Some(&count) {
                snapshots.push(count);
            }
        }
        assert_eq!(snapshots, [1, 3, 7, 15, 31, 63, 127, 255]);
        // A snapshot folds the appended records in.
        file.snapshot(&cache).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, cache.to_bytes());
        assert_eq!(bytes.len(), HEADER_BYTES + 300 * RECORD_BYTES);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn a_torn_file_is_rewritten_before_the_next_record() {
        let path = temp_file("soct_verdict_cache_torn");
        let cache = VerdictCache::new(64);
        let mut file = CacheFile::open(&path, &cache).unwrap();
        for i in 0..4 {
            cache.insert(key(i), Verdict::Finite, TgdClass::Linear);
            file.add(&cache, &key(i), Verdict::Finite, TgdClass::Linear)
                .unwrap();
        }
        drop(file);
        // A crash mid-append leaves part of a record behind.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAB; 20]);
        std::fs::write(&path, &bytes).unwrap();
        let second = VerdictCache::new(64);
        let mut file = CacheFile::open(&path, &second).unwrap();
        assert_eq!(second.len(), 4);
        // The next record goes into a fresh snapshot, not after the torn
        // bytes, so every verdict survives the next load.
        second.insert(key(4), Verdict::Infinite, TgdClass::Linear);
        file.add(&second, &key(4), Verdict::Infinite, TgdClass::Linear)
            .unwrap();
        let third = VerdictCache::new(64);
        let loaded = CacheFile::open(&path, &third).unwrap();
        assert_eq!(loaded.snapshot_len(), 5);
        assert_eq!(third.len(), 5);
        assert_eq!(
            third.get(&key(4)),
            Some((Verdict::Infinite, TgdClass::Linear))
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
