//! `soctbench`: runs one workload against the `soct` binary and prints
//! its metrics as one JSON line.
//!
//! ```text
//! soctbench --soct PATH [--tracer PATH] --workload paper-grid|serve-live|chase
//!           [--seed N] --seconds S --trace 0|1
//! ```
//!
//! `benchmark/run.sh` builds both binaries and supplies `--soct` and
//! `--tracer`. With `--trace 0` the run reports the end-to-end metrics;
//! with `--trace 1` it measures the workload twice for half the time
//! each, untraced and traced, replays every operation in-process through
//! `socttrace`, and reports the per-layer metrics. Every run checks the
//! program's outputs and exits non-zero when a check fails.

mod cli;
mod http;
mod procs;
mod serve;
mod trace;

use soctbench::stats;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub soct: PathBuf,
    pub tracer: Option<PathBuf>,
    /// Scratch directory of this run, removed when it ends.
    pub work: PathBuf,
}

impl Args {
    /// Length of one measured phase: the whole run, or half of it for
    /// each of the traced run's two phases.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What a workload run hands back.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

/// The measured phase of a run, as the six end-to-end metrics see it.
pub struct Phase {
    pub lat_ms: Vec<f64>,
    /// (seconds, program CPU seconds, operations completed) of each
    /// interval of the phase: each round (command-line workloads), or each
    /// run of whole rounds at least a second long (`serve-live`).
    pub intervals: Vec<(f64, f64, f64)>,
    pub peak_rss_kib: u64,
}

/// The intervals between consecutive marks of (seconds, program CPU
/// seconds, operations completed) in which some operation completed.
pub fn intervals(marks: &[(f64, f64, usize)]) -> Vec<(f64, f64, f64)> {
    marks
        .windows(2)
        .filter(|w| w[1].2 > w[0].2)
        .map(|w| (w[1].0 - w[0].0, w[1].1 - w[0].1, (w[1].2 - w[0].2) as f64))
        .collect()
}

/// Which quartile of the intervals throughput and CPU per operation are
/// read at: the faster one. On a shared host, interference from other
/// tenants only takes speed away, so the faster intervals of a run track
/// the program and the slower ones track its neighbours.
const FAST_QUARTILE: f64 = 0.75;

impl Phase {
    /// Throughput is the upper quartile of the intervals' throughputs and
    /// CPU per operation the lower quartile of theirs, so a burst of host
    /// slowness that hits up to three quarters of a run does not move
    /// them.
    pub fn metrics(&self, setup_s: f64) -> Vec<Metric> {
        let rate: Vec<f64> = self.intervals.iter().map(|&(t, _, n)| n / t).collect();
        let cpu: Vec<f64> = self
            .intervals
            .iter()
            .map(|&(_, c, n)| c * 1e3 / n)
            .collect();
        vec![
            metric("setup_s", setup_s, "s"),
            metric(
                "ops_per_s",
                stats::quantile(&rate, FAST_QUARTILE).unwrap_or(0.0),
                "1/s",
            ),
            metric(
                "p50_ms",
                stats::quantile(&self.lat_ms, 0.5).unwrap_or(0.0),
                "ms",
            ),
            metric(
                "p90_ms",
                stats::quantile(&self.lat_ms, 0.9).unwrap_or(0.0),
                "ms",
            ),
            metric(
                "cpu_ms_per_op",
                stats::quantile(&cpu, 1.0 - FAST_QUARTILE).unwrap_or(0.0),
                "ms",
            ),
            metric("peak_rss_mb", self.peak_rss_kib as f64 / 1024.0, "MiB"),
        ]
    }
}

/// Times `setup` `reps` times and returns the median and the last result.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let value = setup()?;
        times.push(t.elapsed().as_secs_f64());
        // The previous repetition's result is dropped outside the timing.
        last = Some(value);
    }
    let value = last.ok_or("no set-up repetition ran")?;
    Ok((stats::median(&times).unwrap_or(0.0), value))
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("missing {flag}"));
    let workload = need(get("--workload"), "--workload")?;
    if !["paper-grid", "serve-live", "chase"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (paper-grid|serve-live|chase)"
        ));
    }
    let num = |v: String, flag: &str| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} expects a number"))
    };
    let seed = match get("--seed") {
        Some(v) => num(v, "--seed")?,
        None => DEFAULT_SEED,
    };
    let seconds = num(need(get("--seconds"), "--seconds")?, "--seconds")? as f64;
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    let soct = PathBuf::from(need(get("--soct"), "--soct")?);
    let tracer = get("--tracer").map(PathBuf::from);
    if trace && tracer.is_none() {
        return Err("--trace 1 needs --tracer".into());
    }
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        soct,
        tracer,
        work,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("soctbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("soctbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let result = match args.workload.as_str() {
        "serve-live" => serve::run(&args),
        _ => cli::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("soctbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    for p in &report.problems {
        eprintln!("soctbench: check failed: {p}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.problems.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
