//! The traced run: spans around every operation, the in-process replay
//! of each operation through `socttrace`, and the per-layer metrics.
//!
//! An operation's span gets one child per layer the replay timed, laid
//! end to end from its start, and an `unattributed` child for the rest
//! of its wall time, so the children always add up to the operation.
//! Spans stay in memory and are written once, as Chrome-trace JSON, to
//! `.bench_out/trace-<workload>-seed<seed>.json` when the run ends.

use crate::cli::{chase_line, Done};
use crate::{metric, Args, Metric, Phase};
use soctbench::ops::Op;
use soctbench::stats;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Every per-layer metric, in `BENCHMARK.json` order. A workload that
/// does not reach a layer reports it as 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("gen.inputs_s", "s"),
    ("serve.start_s", "s"),
    ("parser.rules_ms", "ms"),
    ("parser.facts_ms", "ms"),
    ("parser.write_ms", "ms"),
    ("core.shapes_mem_ms", "ms"),
    ("core.shapes_db_ms", "ms"),
    ("storage.shape_queries", "count"),
    ("core.tuples_scanned", "count"),
    ("core.dynsimpl_ms", "ms"),
    ("core.derived_shapes", "count"),
    ("core.simplified_rules", "count"),
    ("graph.build_ms", "ms"),
    ("graph.edges", "count"),
    ("graph.scc_ms", "ms"),
    ("graph.supports_ms", "ms"),
    ("cli.overhead_ms", "ms"),
    ("chase.engine_ms", "ms"),
    ("chase.atoms_per_s", "1/s"),
    ("chase.triggers", "count"),
    ("chase.rounds", "count"),
    ("chase.parallel_rounds", "count"),
    ("serve.rtt_cached_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("model.fingerprint_ms", "ms"),
    ("core.cache_lookup_ms", "ms"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.cache_lookups", "count"),
    ("serve.rtt_cold_ms", "ms"),
    ("core.cache_persist_bytes", "bytes"),
    ("serve.rtt_live_ms", "ms"),
    ("serve.rtt_write_ms", "ms"),
    ("storage.wal_bytes_per_fact_byte", "ratio"),
    ("storage.wal_fsyncs", "count"),
    ("storage.shape_updates", "count"),
    ("trace.overhead_pct", "%"),
];

/// Orders the per-layer values by [`LAYERS`], filling in zeros.
pub fn layer_metrics(values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    LAYERS
        .iter()
        .map(|&(name, unit)| metric(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

struct Span {
    name: String,
    cat: &'static str,
    start_us: f64,
    dur_us: f64,
    tid: u32,
    id: u64,
    parent: u64,
}

/// The spans of one run.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Records an operation span; returns its id.
    pub fn op(&mut self, name: &str, cat: &'static str, start_s: f64, ms: f64, tid: u32) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            name: name.to_string(),
            cat,
            start_us: start_s * 1e6,
            dur_us: ms * 1e3,
            tid,
            id,
            parent: 0,
        });
        id
    }

    /// Adds `layers` (name, ms) under operation `parent`, end to end, and
    /// the `unattributed` remainder, which it returns in ms.
    pub fn children(&mut self, parent: u64, layers: &[(String, f64)]) -> f64 {
        let p = &self.spans[parent as usize - 1];
        let (mut at, end, tid, total) = (p.start_us, p.start_us + p.dur_us, p.tid, p.dur_us / 1e3);
        let mut sum = 0.0;
        for (name, ms) in layers {
            let id = self.spans.len() as u64 + 1;
            self.spans.push(Span {
                name: name.clone(),
                cat: "layer",
                start_us: at,
                dur_us: ms * 1e3,
                tid,
                id,
                parent,
            });
            at += ms * 1e3;
            sum += ms;
        }
        let rest = total - sum;
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            name: "unattributed".into(),
            cat: "layer",
            start_us: at.min(end),
            dur_us: (rest * 1e3).max(0.0),
            tid,
            id,
            parent,
        });
        rest
    }

    /// Writes the Chrome-trace JSON and returns its path.
    pub fn write(&self, args: &Args) -> Result<PathBuf, String> {
        let dir = PathBuf::from(".bench_out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let name = s.name.replace(['"', '\\'], "_");
            let _ = write!(
                out,
                "{}{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.1},\"dur\":{:.1},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                if i > 0 { ",\n" } else { "" },
                s.cat,
                s.start_us,
                s.dur_us,
                s.tid,
                s.id,
                s.parent
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

/// Per operation label, the (key, value) pairs `socttrace` printed.
pub type Replayed = HashMap<String, Vec<(String, f64)>>;

/// Runs `socttrace <mode> <input>`; its `problem` lines become failed
/// checks.
pub fn replay(
    args: &Args,
    mode: &str,
    input: &Path,
    problems: &mut Vec<String>,
) -> Result<Replayed, String> {
    let tracer = args.tracer.as_deref().ok_or("no tracer binary")?;
    let out = Command::new(tracer)
        .arg(mode)
        .arg(input)
        .env_remove("SOCT_THREADS")
        .env_remove("SOCT_LOG")
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", tracer.display()))?;
    if !out.status.success() {
        return Err(format!(
            "socttrace {mode} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let mut replayed = Replayed::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        if let Some(p) = line.strip_prefix("problem ") {
            problems.push(format!("traced replay: {p}"));
        } else if let Some(rest) = line.strip_prefix("op ") {
            let mut w = rest.split(' ');
            let label = w.next().unwrap_or_default().to_string();
            let kv = w
                .filter_map(|p| p.split_once('='))
                .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
                .collect();
            replayed.insert(label, kv);
        }
    }
    Ok(replayed)
}

/// Tracing overhead: the traced phase's median latency over the
/// untraced phase's, in percent.
pub fn overhead_pct(untraced: &Phase, traced: &Phase) -> f64 {
    let a = stats::median(&untraced.lat_ms).unwrap_or(0.0);
    let b = stats::median(&traced.lat_ms).unwrap_or(0.0);
    if a > 0.0 {
        (b - a) / a * 100.0
    } else {
        0.0
    }
}

/// Per-layer metrics of `paper-grid` and `chase`.
pub fn cli_layers(
    args: &Args,
    ops: &[Op],
    untraced: &Phase,
    done: &[Done],
    traced: &Phase,
    setup_s: f64,
    problems: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let list = args.work.join("ops.tsv");
    let text: String = ops.iter().map(|o| o.to_line() + "\n").collect();
    std::fs::write(&list, text).map_err(|e| format!("{}: {e}", list.display()))?;
    let replayed = replay(args, "cli", &list, problems)?;

    let mut trace = Trace::default();
    let mut per_layer: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut overhead = Vec::new();
    let mut chase_counts = [0u64; 3];
    for d in done {
        let op = &ops[d.op];
        let kv = replayed
            .get(&op.label)
            .map(Vec::as_slice)
            .unwrap_or_default();
        let layers: Vec<(String, f64)> = kv
            .iter()
            .filter(|(k, _)| k.ends_with("_ms"))
            .cloned()
            .collect();
        for (k, v) in &layers {
            per_layer.entry(k.clone()).or_default().push(*v);
        }
        let id = trace.op(&op.label, op.kind.name(), d.start_s, d.ms, 1);
        overhead.push(trace.children(id, &layers));
        if let Some(c) = d.result.as_deref().ok().and_then(chase_line) {
            chase_counts[0] += c.triggers;
            chase_counts[1] += c.rounds;
            chase_counts[2] += c.parallel_rounds;
        }
    }
    let path = trace.write(args)?;
    eprintln!("soctbench: wrote {}", path.display());

    let rounds = (done.len() / ops.len().max(1)).max(1) as f64;
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert("gen.inputs_s", setup_s);
    for &(name, _) in LAYERS {
        if let Some(v) = per_layer.get(name) {
            values.insert(name, stats::mean(v).unwrap_or(0.0));
        }
    }
    // Work counts are per round: each operation once.
    let count = |key: &str| -> f64 {
        replayed
            .values()
            .flat_map(|kv| kv.iter().filter(|(k, _)| k == key).map(|(_, v)| v))
            .sum()
    };
    for key in [
        "storage.shape_queries",
        "core.tuples_scanned",
        "core.derived_shapes",
        "core.simplified_rules",
        "graph.edges",
    ] {
        values.insert(key, count(key));
    }
    let engine_s = count("chase.engine_ms") / 1e3;
    if engine_s > 0.0 {
        values.insert("chase.atoms_per_s", count("chase.derived") / engine_s);
        values.insert("chase.triggers", chase_counts[0] as f64 / rounds);
        values.insert("chase.rounds", chase_counts[1] as f64 / rounds);
        values.insert("chase.parallel_rounds", chase_counts[2] as f64 / rounds);
    }
    values.insert("cli.overhead_ms", stats::mean(&overhead).unwrap_or(0.0));
    values.insert("trace.overhead_pct", overhead_pct(untraced, traced));
    Ok(layer_metrics(&values))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced run prints exactly the per-layer metrics the repository
    /// root's `BENCHMARK.json` declares, with the same units.
    #[test]
    fn layers_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let per_layer = &json[json.find("\"per_layer\"").expect("a per_layer list")..];
        let declared: Vec<(String, String)> = per_layer
            .split("\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry.split('"').next().unwrap_or_default().to_string();
                let unit = entry
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next());
                (name, unit.unwrap_or_default().to_string())
            })
            .collect();
        let ours: Vec<(String, String)> = LAYERS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn children_add_up_to_the_operation() {
        let mut t = Trace::default();
        let id = t.op("op", "check", 1.0, 10.0, 1);
        let rest = t.children(id, &[("a_ms".into(), 2.5), ("b_ms".into(), 4.0)]);
        assert!((rest - 3.5).abs() < 1e-9);
        let sum: f64 = t
            .spans
            .iter()
            .filter(|s| s.parent == id)
            .map(|s| s.dur_us)
            .sum();
        assert!((sum - 10_000.0).abs() < 1e-6);
    }
}
