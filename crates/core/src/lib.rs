//! # soct-core
//!
//! The paper's primary contribution, rebuilt: the practical semi-oblivious
//! chase termination checkers `IsChaseFinite[SL]` (Algorithm 1) and
//! `IsChaseFinite[L]` (Algorithm 3), with the `FindShapes` procedure in its
//! in-memory and in-database incarnations, `DynSimplification`
//! (Algorithm 2), the timing instrumentation behind every figure of §7–§9,
//! and the materialization-based oracle used for cross-validation.
//!
//! `FindShapes` and the linear checker's shape phase can fan their
//! per-relation work out over worker threads ([`find_shapes_parallel`],
//! [`is_chase_finite_l_parallel`], [`check_termination_threads`]); results
//! are identical to the sequential entry points for every thread count.

#![warn(missing_docs)]

pub mod cache;
pub mod check_l;
pub mod check_sl;
pub mod dynsimpl;
pub mod find_shapes;
pub mod oracle;
pub mod timings;

pub use cache::{
    cache_key, cache_key_live, check_termination_cached, check_termination_live, CacheFile,
    CacheKey, CacheStats, CachedCheck, VerdictCache,
};
pub use check_l::{
    check_l_early_exit, check_l_with_shapes, is_chase_finite_l, is_chase_finite_l_parallel,
    is_chase_finite_l_text, LCheckReport,
};
pub use check_sl::{
    derivable_predicates, is_chase_finite_sl, is_chase_finite_sl_text, SlCheckReport,
};
pub use dynsimpl::{dyn_simplification, DynSimplification};
pub use find_shapes::{
    find_shapes, find_shapes_in_database, find_shapes_in_memory, find_shapes_materialized,
    find_shapes_parallel, FindShapesMode, ShapesReport,
};
pub use oracle::{
    check_termination, check_termination_engine, check_termination_threads, materialization_check,
    CheckRun, DbView, TerminationReport, Verdict,
};
pub use timings::{ms, CacheTimings, LTimings, SlTimings};
