//! `soct` — semi-oblivious chase termination toolkit.
//!
//! ```text
//! soct check          --rules FILE [--db FILE] [--mode memory|db] [--threads N]
//!                     [--trace-out FILE]
//! soct chase          --rules FILE --db FILE [--variant so|oblivious|restricted]
//!                     [--max-atoms N] [--threads N] [--out FILE] [--trace-out FILE]
//! soct shapes         --db FILE [--mode memory|db] [--threads N]
//! soct stats          --rules FILE
//! soct gen            [--family F] [--difficulty T] [--seed N] [--count N]
//!                     [--out FILE | --out-dir DIR] | --corpus DIR | --check-corpus DIR
//! soct generate-tgds  --ssize N --tsize N [--class sl|l] [--seed N] [--out FILE]
//! soct generate-data  [--preds N] [--min N] [--max N] [--dsize N] [--rsize N]
//!                     [--seed N] [--out FILE]
//! soct serve          [--port N] [--host ADDR] [--threads N] [--cache-dir PATH]
//!                     [--cache-cap N] [--mode memory|db] [--max-atoms N]
//!                     [--queue-depth N] [--deadline-ms N] [--max-conns N]
//!                     [--db FACTS-FILE | --db DIR --wal [--wal-sync always|batch|off]
//!                     [--db-seed FACTS-FILE]]
//! soct client         <check|shapes|chase|stats|job|insert|delete|batch|db-stats>
//!                     [--addr HOST:PORT] ...
//! ```
//!
//! `--threads 0` (the default) auto-sizes the worker pool from the
//! `SOCT_THREADS` environment variable or the machine's available
//! parallelism; results never depend on the thread count. Unknown flags
//! are rejected with the valid set for the subcommand.

mod args;
mod commands;

use args::Args;

/// Valid flags per subcommand — `Args::reject_unknown` turns typos into
/// errors instead of silently ignored settings.
const CHECK_FLAGS: &[&str] = &["rules", "db", "mode", "threads", "quiet", "trace-out"];
const CHASE_FLAGS: &[&str] = &[
    "rules",
    "db",
    "variant",
    "max-atoms",
    "max-rounds",
    "threads",
    "out",
    "backend",
    "trace-out",
];
const SHAPES_FLAGS: &[&str] = &["db", "mode", "threads"];
const STATS_FLAGS: &[&str] = &["rules"];
const GEN_TGDS_FLAGS: &[&str] = &["ssize", "tsize", "min", "max", "class", "seed", "out"];
const GEN_FLAGS: &[&str] = &[
    "family",
    "difficulty",
    "seed",
    "count",
    "out",
    "out-dir",
    "corpus",
    "check-corpus",
];
const GEN_DATA_FLAGS: &[&str] = &["preds", "min", "max", "dsize", "rsize", "seed", "out"];
const SERVE_FLAGS: &[&str] = &[
    "port",
    "host",
    "threads",
    "cache-dir",
    "cache-cap",
    "mode",
    "max-atoms",
    "queue-depth",
    "deadline-ms",
    "max-conns",
    "db",
    "wal",
    "wal-sync",
    "db-seed",
];
const CLIENT_CHECK_FLAGS: &[&str] = &[
    "addr",
    "rules",
    "db",
    "live",
    "mode",
    "expect",
    "expect-cached",
    "async",
    "wait",
    "timeout-ms",
];
const CLIENT_WRITE_FLAGS: &[&str] = &["addr", "tuples", "facts", "expect-fp-changed"];
const CLIENT_DB_STATS_FLAGS: &[&str] = &["addr"];
const CLIENT_SHAPES_FLAGS: &[&str] = &["addr", "db", "mode"];
const CLIENT_CHASE_FLAGS: &[&str] = &["addr", "rules", "db", "variant", "max-atoms"];
const CLIENT_STATS_FLAGS: &[&str] = &["addr"];
const CLIENT_JOB_FLAGS: &[&str] = &[
    "addr",
    "id",
    "wait",
    "timeout-ms",
    "expect",
    "expect-cached",
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // An offline subcommand whose reader goes away (`soct shapes … | head`)
    // ends quietly, as other Unix filters do, instead of panicking on the
    // failed write. `serve` and `client` keep SIGPIPE ignored: their
    // sockets report a vanished peer as an `EPIPE` error.
    if !matches!(argv.first().map(String::as_str), Some("serve" | "client")) {
        sigpipe::restore_default();
    }
    let code = match run(&argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("soct: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(unix)]
#[allow(unsafe_code)] // audited FFI: restoring one signal's default disposition
mod sigpipe {
    /// `SIGPIPE` and `SIG_DFL` have these values on every Unix std supports.
    const SIGPIPE: core::ffi::c_int = 13;
    const SIG_DFL: usize = 0;

    mod ffi {
        extern "C" {
            /// `signal(2)` from the platform libc that `std` already links;
            /// the handler is passed as a plain address, as in
            /// `soct_serve`'s shutdown handler.
            pub(super) fn signal(signum: core::ffi::c_int, handler: usize) -> usize;
        }
    }

    /// Puts `SIGPIPE` back to its default action, ending the process,
    /// which the Rust runtime replaces with "ignore" before `main`.
    pub(super) fn restore_default() {
        // SAFETY: `SIG_DFL` is a valid disposition for `SIGPIPE`; the call
        // runs before any thread is spawned and touches no memory owned by
        // Rust.
        unsafe {
            ffi::signal(SIGPIPE, SIG_DFL);
        }
    }
}

#[cfg(not(unix))]
mod sigpipe {
    /// No `SIGPIPE` to restore off Unix.
    pub(super) fn restore_default() {}
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        print_usage();
        return Ok(());
    };
    if cmd == "client" {
        let Some(sub) = argv.get(1) else {
            return Err(
                "usage: soct client <check|shapes|chase|stats|job|insert|delete|batch|db-stats> \
                 [--addr HOST:PORT] ..."
                    .to_string(),
            );
        };
        let args = Args::parse(&argv[2..])?;
        let allowed = match sub.as_str() {
            "check" => CLIENT_CHECK_FLAGS,
            "shapes" => CLIENT_SHAPES_FLAGS,
            "chase" => CLIENT_CHASE_FLAGS,
            "stats" => CLIENT_STATS_FLAGS,
            "job" => CLIENT_JOB_FLAGS,
            "insert" | "delete" | "batch" => CLIENT_WRITE_FLAGS,
            "db-stats" => CLIENT_DB_STATS_FLAGS,
            other => {
                return Err(format!(
                    "unknown client subcommand `{other}` \
                     (try check|shapes|chase|stats|job|insert|delete|batch|db-stats)"
                ))
            }
        };
        args.reject_unknown(&format!("client {sub}"), allowed)?;
        return commands::client(sub, &args);
    }
    let args = Args::parse(&argv[1..])?;
    match cmd.as_str() {
        "check" => {
            args.reject_unknown("check", CHECK_FLAGS)?;
            commands::check(&args)
        }
        "chase" => {
            args.reject_unknown("chase", CHASE_FLAGS)?;
            commands::chase(&args)
        }
        "shapes" => {
            args.reject_unknown("shapes", SHAPES_FLAGS)?;
            commands::shapes(&args)
        }
        "stats" => {
            args.reject_unknown("stats", STATS_FLAGS)?;
            commands::stats(&args)
        }
        "gen" => {
            args.reject_unknown("gen", GEN_FLAGS)?;
            commands::gen(&args)
        }
        "generate-tgds" => {
            args.reject_unknown("generate-tgds", GEN_TGDS_FLAGS)?;
            commands::generate_tgds(&args)
        }
        "generate-data" => {
            args.reject_unknown("generate-data", GEN_DATA_FLAGS)?;
            commands::generate_data(&args)
        }
        "serve" => {
            args.reject_unknown("serve", SERVE_FLAGS)?;
            commands::serve(&args)
        }
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `soct help`)")),
    }
}

fn print_usage() {
    println!(
        "soct — semi-oblivious chase termination for linear existential rules

USAGE:
  soct check          --rules FILE [--db FILE] [--mode memory|db] [--threads N]
                      [--trace-out FILE]
                      decide whether chase(D, Σ) is finite
  soct chase          --rules FILE --db FILE [--variant so|oblivious|restricted]
                      [--max-atoms N] [--max-rounds N] [--threads N] [--out FILE]
                      [--trace-out FILE]
                      materialise the chase
  soct shapes         --db FILE [--mode memory|db] [--threads N]
                      list the database shapes
  soct stats          --rules FILE
                      rule-set statistics and dependency-graph profile
  soct gen            [--family linear|multi-head|sticky|guarded|ontology]
                      [--difficulty trivial|easy|medium|hard] [--seed N]
                      [--count N] [--out FILE | --out-dir DIR]
                      scenario foundry: difficulty-calibrated, deduplicated
                      rulesets, byte-deterministic per seed;
                      --corpus DIR regenerates the standard corpus,
                      --check-corpus DIR is the CI drift gate
  soct generate-tgds  --ssize N --tsize N [--class sl|l] [--min N] [--max N]
                      [--seed N] [--out FILE]
  soct generate-data  [--preds N] [--min N] [--max N] [--dsize N] [--rsize N]
                      [--seed N] [--out FILE]
  soct serve          [--port N] [--host ADDR] [--threads N] [--cache-dir PATH]
                      [--cache-cap N] [--mode memory|db] [--max-atoms N]
                      [--queue-depth N] [--deadline-ms N] [--max-conns N]
                      [--db FACTS-FILE | --db DIR --wal
                       [--wal-sync always|batch|off] [--db-seed FACTS-FILE]]
                      run the termination-checking service (POST /check,
                      POST /shapes, POST /chase, GET /stats, GET /jobs/<id>);
                      keep-alive HTTP/1.1, bounded job queue (429 + Retry-After
                      when full), checks exceeding --deadline-ms answer
                      202 Accepted with a pollable job id; verdicts are
                      cached by canonical ruleset/shape fingerprints.
                      --db loads a resident writable database (shape tracking
                      on) served via POST /db/insert, POST /db/delete,
                      POST /db/batch, GET /db/stats, and /check?db=live;
                      with --wal, --db names a durable directory: writes are
                      logged (checksummed, segment-rotated WAL) before they
                      are acknowledged, restart recovers snapshot + log, and
                      SIGTERM drains, checkpoints, and flushes cleanly;
                      --db-seed seeds a new directory from a facts file
  soct client         <check|shapes|chase|stats|job|insert|delete|batch|db-stats>
                      [--addr HOST:PORT] [--rules FILE] [--db FILE]
                      [--expect VERDICT] [--expect-cached] [--async] [--wait]
                      [--timeout-ms N]
                      — exercise a running service; `job --id N [--wait]`
                      polls an async job; `check --live` checks rules against
                      the server's resident database; `insert|delete|batch`
                      (--tuples 'r(a,b).' | --facts FILE)
                      [--expect-fp-changed true|false] stream writes to it
                      (batch: `- r(a,b).` lines delete, one WAL record);
                      `db-stats` prints its counters and fingerprints

Rule files use `body -> head.` / `head :- body.` syntax with implicit
existentials; fact files hold `r(a,b).` lines. `--threads 0` (default)
auto-sizes the worker pool (SOCT_THREADS env, else available cores);
results never depend on the thread count. `--trace-out FILE` writes a
Chrome-trace JSON of the run's spans (loadable in Perfetto or
chrome://tracing); SOCT_LOG=debug turns on key=value stderr logging."
    );
}
