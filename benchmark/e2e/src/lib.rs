//! Shared pieces of the soct benchmark: the workload inputs, generated
//! from a seed with `soct_gen`, the operation list both runs agree on, and
//! the benchmark's own reference computations that check the program's
//! outputs.
//!
//! The `soctbench` binary (this package) drives the `soct` binary; the
//! `socttrace` binary (package `../trace`) replays the same operations
//! in-process, one layer at a time.

pub mod facts;
pub mod inputs;
pub mod ops;
pub mod reference;
pub mod stats;
