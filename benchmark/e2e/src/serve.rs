//! The `serve-live` workload: `soct serve` with a durable live database,
//! driven closed-loop over two keep-alive connections — a check stream and
//! a write stream — in whole rounds. One server runs at a time; a phase is
//! split into segments, and the server is restarted with SIGTERM on the
//! same directories between them.

use crate::http::{field, prom_value, Conn};
use crate::trace::{self, Trace};
use crate::{intervals, procs, timed_setup, Args, Phase, Report};
use soctbench::inputs::{self, live_fact, rename_predicates, tuple_of_shape, LiveInputs};
use soctbench::reference::Shadow;
use soctbench::stats;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-up repetitions; each starts a server on fresh directories.
const SETUP_REPS: usize = 5;
/// One round of the check stream: `c` cold check, `r` repeated check,
/// `l` live check. With the write round below, cached checks are 75% of
/// a round, so the median is one of them, and live checks are the slowest
/// eighth, where the 90th percentile falls.
const CHECK_ROUND: &str = "crrrrrrlrrrrrrlrrrrrrlrrrrrrlrrrrrrl";
/// Write batches per round, concurrent with the check round; the first
/// also toggles one shape that the seed lacks, so a fixed share of writes
/// changes the shape set.
const WRITE_ROUND: usize = 4;
/// Tuples replaced (deleted, then inserted with the same shape) per batch.
const REPLACE_PER_BATCH: usize = 8;
/// Requests in one round of both streams.
const ROUND_OPS: usize = CHECK_ROUND.len() + WRITE_ROUND;
/// Server processes per phase, one after another on the same directories,
/// each measuring an equal share of the phase. A long-lived server's speed
/// differs from one process to the next by more than the host's drift
/// between runs, so a run measures several.
const SEGMENTS: usize = 5;
/// Seconds of whole rounds run before a segment's timing starts, so that
/// the verdict cache holds every repeated and live ruleset by then.
const WARMUP_S: f64 = 0.5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Cold,
    Repeat,
    Live,
    Write,
}

/// One request and what the checks need from its response.
struct Sample {
    kind: Kind,
    start_s: f64,
    ms: f64,
    status: u16,
    /// Cold: corpus entry; repeat: (base, variant) as base * 16 + variant;
    /// live: ruleset.
    key: usize,
    verdict: String,
    rule_fp: String,
    cached: bool,
    /// Cold and live misses: verdict-cache file size after the response.
    cache_file_bytes: u64,
    /// Writes: request body bytes.
    body_bytes: usize,
    /// Started after the warm-up, so the metrics see it.
    timed: bool,
}

/// A running `soct serve`.
struct Server {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    fn start(soct: &Path, cache: &Path, db: &Path, seed: Option<&Path>) -> Result<Server, String> {
        let mut cmd = Command::new(soct);
        cmd.args(["serve", "--port", "0", "--cache-dir"])
            .arg(cache)
            .arg("--db")
            .arg(db)
            .args(["--wal", "--wal-sync", "batch"]);
        if let Some(s) = seed {
            cmd.arg("--db-seed").arg(s);
        }
        let mut child = cmd
            .env_remove("SOCT_THREADS")
            .env_remove("SOCT_LOG")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start soct serve: {e}"))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child,
            addr: String::new(),
            drain: None,
        };
        let mut line = String::new();
        while server.addr.is_empty() {
            line.clear();
            if out.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("soct serve exited before listening".into());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                server.addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        }
        server.drain = Some(std::thread::spawn(move || {
            let mut sink = String::new();
            while out.read_line(&mut sink).is_ok_and(|n| n > 0) {
                sink.clear();
            }
        }));
        let t = Instant::now();
        loop {
            if let Ok((200, _)) =
                Conn::open(&server.addr).and_then(|mut c| c.send("GET", "/stats", ""))
            {
                return Ok(server);
            }
            if t.elapsed() > Duration::from_secs(60) {
                return Err("soct serve did not answer within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGTERM, then wait for the drain and checkpoint to finish.
    fn stop(mut self) -> Result<(), String> {
        procs::terminate(self.pid()).map_err(|e| format!("cannot signal soct serve: {e}"))?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("soct serve exited with {status} after SIGTERM"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.drain.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(d) = self.drain.take() {
                let _ = d.join();
            }
        }
    }
}

fn get(addr: &str, path: &str) -> Result<String, String> {
    match Conn::open(addr).and_then(|mut c| c.send("GET", path, "")) {
        Ok((200, body)) => Ok(body),
        Ok((s, body)) => Err(format!("GET {path}: status {s}: {body}")),
        Err(e) => Err(format!("GET {path}: {e}")),
    }
}

fn num(json: &str, key: &str) -> f64 {
    field(json, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(f64::NAN)
}

/// Keeps the two streams in step: each runs one round, then they meet,
/// so every round has the same mix of requests. The check stream decides,
/// before they meet, whether the phase is over, and marks the measured
/// intervals after they meet; a stream that fails ends the phase too.
struct Rounds {
    barrier: Barrier,
    stop: AtomicBool,
    t0: Instant,
    /// Measured seconds of the segment, after [`WARMUP_S`].
    seconds: f64,
    /// The server, whose CPU time the marks read.
    pid: u32,
    /// Rounds both streams have finished.
    done: AtomicUsize,
    /// (seconds, server CPU seconds, operations completed) at round ends:
    /// the first once the warm-up is over, then one a second.
    marks: Mutex<Vec<(f64, f64, usize)>>,
}

impl Rounds {
    /// Ends a round; true when no further round starts.
    fn end(&self, failed: bool, decides: bool) -> bool {
        if failed || (decides && self.now() >= WARMUP_S + self.seconds) {
            self.stop.store(true, Ordering::SeqCst);
        }
        self.barrier.wait();
        if decides {
            self.mark();
        }
        self.stop.load(Ordering::SeqCst)
    }

    /// After both streams finished a round: the first mark once the
    /// warm-up is over, then one whenever a second has passed since the
    /// last.
    fn mark(&self) {
        let rounds = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let now = self.now();
        let mut marks = self.marks.lock().expect("only the check stream marks");
        let due = match marks.last() {
            None => now >= WARMUP_S,
            Some(&(last, _, _)) => now - last >= 1.0,
        };
        if due {
            if let Ok(cpu) = procs::cpu_s(self.pid) {
                marks.push((now, cpu, rounds * ROUND_OPS));
            }
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }
}

/// Runs `round` until the phase ends, keeping step with the other stream.
fn in_rounds(
    rounds: &Rounds,
    decides: bool,
    mut round: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let mut err = None;
    loop {
        if err.is_none() {
            err = round().err();
        }
        if rounds.end(err.is_some(), decides) {
            return err.map_or(Ok(()), Err);
        }
    }
}

/// The check stream of segment `segment`: rounds of [`CHECK_ROUND`].
fn check_stream(
    addr: &str,
    inp: &LiveInputs,
    cache_file: &Path,
    rounds: &Rounds,
    segment: u64,
    traced: bool,
) -> Result<Vec<Sample>, String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("check connection: {e}"));
    let mut out = Vec::new();
    let (mut cold, mut rep, mut live) = (0usize, 0usize, 0usize);
    in_rounds(rounds, true, || {
        let conn = conn.as_mut().map_err(|e| e.clone())?;
        for c in CHECK_ROUND.chars() {
            let (kind, key, path, body) = match c {
                'c' => {
                    let e = cold % inp.cold.len();
                    cold += 1;
                    // A predicate suffix fresh in the whole run, whose verdict
                    // cache outlives the restarts: every cold check misses.
                    let suffix = format!("_x{segment}_{cold}");
                    let body = rename_predicates(&inp.cold[e].0, &suffix);
                    (Kind::Cold, e, "/check", body)
                }
                'r' => {
                    let (b, v) = (
                        rep % inp.repeats.len(),
                        (rep / inp.repeats.len()) % inp.repeats[0].len(),
                    );
                    rep += 1;
                    (
                        Kind::Repeat,
                        b * 16 + v,
                        "/check",
                        inp.repeats[b][v].clone(),
                    )
                }
                _ => {
                    let r = live % inp.live.len();
                    live += 1;
                    (Kind::Live, r, "/check?db=live", inp.live[r].1.clone())
                }
            };
            let start = rounds.now();
            let (status, resp) = conn
                .send("POST", path, &body)
                .map_err(|e| format!("POST {path}: {e}"))?;
            let ms = (rounds.now() - start) * 1e3;
            let cached = field(&resp, "cached") == Some("true");
            let cache_file_bytes = if traced && !cached {
                std::fs::metadata(cache_file).map_or(0, |m| m.len())
            } else {
                0
            };
            out.push(Sample {
                kind,
                start_s: start,
                ms,
                status,
                key,
                verdict: field(&resp, "verdict").unwrap_or_default().to_string(),
                rule_fp: field(&resp, "rule_fp").unwrap_or_default().to_string(),
                cached,
                cache_file_bytes,
                body_bytes: body.len(),
                timed: false,
            });
        }
        Ok(())
    })?;
    Ok(out)
}

/// The write stream: rounds of [`WRITE_ROUND`] batches, each replacing
/// tuples by fresh ones of the same shape, so the tuple count, the shape
/// set and the active domain stay as they are, except for the toggled
/// shapes. Every response is checked against the shadow.
#[allow(clippy::too_many_arguments)]
fn write_stream(
    addr: &str,
    inp: &LiveInputs,
    shadow: &mut Shadow,
    rare_at: &mut [Option<Vec<u32>>],
    rng_seed: u64,
    rounds: &Rounds,
    problems: &mut Vec<String>,
) -> Result<Vec<Sample>, String> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut conn = Conn::open(addr).map_err(|e| format!("write connection: {e}"));
    let regular = inp.shadow.tuple_count();
    let mut out = Vec::new();
    let mut toggles = 0usize;
    in_rounds(rounds, false, || {
        let conn = conn.as_mut().map_err(|e| e.clone())?;
        for b in 0..WRITE_ROUND {
            let mut body = String::new();
            for _ in 0..REPLACE_PER_BATCH {
                let i = rng.random_range(0..regular);
                let (pred, old) = shadow.get(i);
                let shape = soctbench::reference::rgs(old);
                let new = tuple_of_shape(&shape, || inp.pool[rng.random_range(0..inp.pool.len())]);
                body.push_str(&format!(
                    "- {}.\n{}.\n",
                    live_fact(pred, old),
                    live_fact(pred, &new)
                ));
                shadow.replace_at(i, new);
            }
            if b == 0 && !inp.rare.is_empty() {
                let r = toggles % inp.rare.len();
                toggles += 1;
                let (pred, shape) = &inp.rare[r];
                match rare_at[r].take() {
                    Some(t) => {
                        body.push_str(&format!("- {}.\n", live_fact(*pred, &t)));
                        shadow.remove(*pred, &t);
                    }
                    None => {
                        let t =
                            tuple_of_shape(shape, || inp.pool[rng.random_range(0..inp.pool.len())]);
                        body.push_str(&format!("{}.\n", live_fact(*pred, &t)));
                        shadow.insert(*pred, t.clone());
                        rare_at[r] = Some(t);
                    }
                }
            }
            let start = rounds.now();
            let (status, resp) = conn
                .send("POST", "/db/batch", &body)
                .map_err(|e| format!("POST /db/batch: {e}"))?;
            let ms = (rounds.now() - start) * 1e3;
            let counts = (
                num(&resp, "tuples"),
                num(&resp, "shapes"),
                num(&resp, "missed"),
            );
            let want = (
                shadow.tuple_count() as f64,
                shadow.shape_count() as f64,
                0.0,
            );
            if status == 200 && counts != want && problems.len() < 5 {
                problems.push(format!(
                    "/db/batch answered (tuples, shapes, missed) = {counts:?}, shadow has {want:?}"
                ));
            }
            out.push(Sample {
                kind: Kind::Write,
                start_s: start,
                ms,
                status,
                key: 0,
                verdict: String::new(),
                rule_fp: String::new(),
                cached: false,
                cache_file_bytes: 0,
                body_bytes: body.len(),
                timed: false,
            });
        }
        Ok(())
    })?;
    Ok(out)
}

/// Everything a phase of this workload leaves behind.
struct Measured {
    /// Every request, the warm-ups' too: all are checked. Start times
    /// count from the beginning of the phase.
    samples: Vec<Sample>,
    phase: Phase,
}

impl Measured {
    fn timed(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.timed)
    }

    /// Appends a later segment of the same phase.
    fn absorb(&mut self, seg: Measured) {
        self.samples.extend(seg.samples);
        self.phase.lat_ms.extend(seg.phase.lat_ms);
        self.phase.intervals.extend(seg.phase.intervals);
        self.phase.peak_rss_kib = self.phase.peak_rss_kib.max(seg.phase.peak_rss_kib);
    }
}

struct State<'a> {
    args: &'a Args,
    inp: &'a LiveInputs,
    /// The running server; `None` only while it restarts.
    server: Option<Server>,
    cache: PathBuf,
    db: PathBuf,
    shadow: Shadow,
    rare_at: Vec<Option<Vec<u32>>>,
    segments: u64,
}

impl State<'_> {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("a server runs")
    }

    /// Stops the server with SIGTERM, waits for its checkpoint, and starts
    /// a new one on the same directories, whose counts must equal the
    /// shadow's.
    fn restart(&mut self, problems: &mut Vec<String>) -> Result<(), String> {
        if let Some(old) = self.server.take() {
            old.stop()?;
        }
        let new = Server::start(&self.args.soct, &self.cache, &self.db, None)?;
        check_db_stats(&new.addr, &self.shadow, "after a SIGTERM restart", problems)?;
        self.server = Some(new);
        Ok(())
    }
}

/// Runs one phase as [`SEGMENTS`] segments of equal length, each against
/// its own server process: the running one, then one restarted on the same
/// directories before each further segment. For a traced phase it also
/// scrapes each segment's server before and after the segment.
fn phase(
    st: &mut State,
    traced: bool,
    problems: &mut Vec<String>,
) -> Result<(Measured, Vec<(Scrape, Scrape)>), String> {
    let t0 = Instant::now();
    let mut all = Measured {
        samples: Vec::new(),
        phase: Phase {
            lat_ms: Vec::new(),
            intervals: Vec::new(),
            peak_rss_kib: 0,
        },
    };
    let mut scrapes = Vec::new();
    for k in 0..SEGMENTS {
        if k > 0 {
            st.restart(problems)?;
        }
        let before = traced.then(|| scrape(&st.server().addr)).transpose()?;
        let offset = t0.elapsed().as_secs_f64();
        all.absorb(measure(st, traced, offset, problems)?);
        if let Some(b) = before {
            scrapes.push((b, scrape(&st.server().addr)?));
        }
    }
    Ok((all, scrapes))
}

/// One segment: a warm-up, then whole rounds of both streams for the
/// segment's share of the phase. `offset` is the segment's start in
/// seconds since the phase began.
fn measure(
    st: &mut State,
    traced: bool,
    offset: f64,
    problems: &mut Vec<String>,
) -> Result<Measured, String> {
    let pid = st.server().pid();
    let addr = st.server().addr.clone();
    let cache_file = st.cache.join("verdicts.soctvc");
    st.segments += 1;
    let seed = inputs::mix(st.args.seed, 500 + st.segments);
    let rounds = Rounds {
        barrier: Barrier::new(2),
        stop: AtomicBool::new(false),
        t0: Instant::now(),
        seconds: st.args.phase_seconds() / SEGMENTS as f64,
        pid,
        done: AtomicUsize::new(0),
        marks: Mutex::new(Vec::new()),
    };
    let (checks, writes) = std::thread::scope(|s| {
        let (inp, cache_file, rounds) = (st.inp, &cache_file, &rounds);
        let addr = &addr;
        let segment = st.segments;
        let checks = s.spawn(move || check_stream(addr, inp, cache_file, rounds, segment, traced));
        let (shadow, rare_at) = (&mut st.shadow, &mut st.rare_at);
        let mut wp = Vec::new();
        let writes = write_stream(addr, inp, shadow, rare_at, seed, rounds, &mut wp);
        problems.extend(wp);
        let checks = checks.join().expect("the check stream does not panic");
        (checks, writes)
    });
    let peak_rss_kib = procs::peak_rss_kib(pid).map_err(|e| e.to_string())?;
    let mut samples = checks?;
    samples.extend(writes?);
    let marks = rounds
        .marks
        .into_inner()
        .expect("only the check stream marks");
    let from_s = marks.first().map_or(0.0, |m| m.0);
    for s in &mut samples {
        s.timed = s.start_s >= from_s;
        s.start_s += offset;
    }
    let lat_ms = samples.iter().filter(|s| s.timed).map(|s| s.ms).collect();
    Ok(Measured {
        samples,
        phase: Phase {
            lat_ms,
            intervals: intervals(&marks),
            peak_rss_kib,
        },
    })
}

fn check_samples(inp: &LiveInputs, samples: &[Sample], problems: &mut Vec<String>) {
    let mut first: HashMap<usize, (&str, &str)> = HashMap::new();
    for s in samples {
        let p = if s.status != 200 {
            Some(format!("{:?} request answered status {}", s.kind, s.status))
        } else {
            match s.kind {
                Kind::Cold if s.verdict != inp.cold[s.key].1 => Some(format!(
                    "cold check of corpus entry {} said {}, the manifest records {}",
                    s.key, s.verdict, inp.cold[s.key].1
                )),
                Kind::Repeat => {
                    let f = *first.entry(s.key / 16).or_insert((&s.verdict, &s.rule_fp));
                    (f != (s.verdict.as_str(), s.rule_fp.as_str())).then(|| {
                        format!(
                            "repeat of ruleset {} answered {:?}, first answer {f:?}",
                            s.key / 16,
                            (&s.verdict, &s.rule_fp)
                        )
                    })
                }
                Kind::Live if s.verdict.is_empty() => Some("live check without a verdict".into()),
                _ => None,
            }
        };
        if let Some(p) = p {
            if problems.len() < 20 {
                problems.push(p);
            }
        }
    }
}

/// `/db/stats` tuple and shape counts against the shadow's.
fn check_db_stats(
    addr: &str,
    shadow: &Shadow,
    when: &str,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let s = get(addr, "/db/stats")?;
    let got = (num(&s, "tuples"), num(&s, "shapes"));
    let want = (shadow.tuple_count() as f64, shadow.shape_count() as f64);
    if got != want {
        problems.push(format!(
            "{when}: /db/stats (tuples, shapes) = {got:?}, shadow has {want:?}"
        ));
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let corpus = PathBuf::from("corpus");
    let mut reps = 0;
    let mut gen_s = Vec::new();
    let mut start_s = Vec::new();
    let (setup_s, (inp, server, cache, db)) = timed_setup(SETUP_REPS, || {
        reps += 1;
        let t = Instant::now();
        let inp = inputs::serve_live(&args.work, &corpus, args.seed)
            .map_err(|e| format!("input generation: {e}"))?;
        gen_s.push(t.elapsed().as_secs_f64());
        let (cache, db) = (
            args.work.join(format!("cache{reps}")),
            args.work.join(format!("db{reps}")),
        );
        let t = Instant::now();
        let server = Server::start(&args.soct, &cache, &db, Some(&inp.seed_facts))?;
        start_s.push(t.elapsed().as_secs_f64());
        Ok((inp, server, cache, db))
    })?;
    let mut problems = Vec::new();
    let mut st = State {
        args,
        inp: &inp,
        server: Some(server),
        cache,
        db,
        shadow: inp.shadow.clone(),
        rare_at: vec![None; inp.rare.len()],
        segments: 0,
    };
    let (first, _) = phase(&mut st, false, &mut problems)?;
    check_samples(&inp, &first.samples, &mut problems);
    let traced = if args.trace {
        let (t, scrapes) = phase(&mut st, true, &mut problems)?;
        check_samples(&inp, &t.samples, &mut problems);
        Some((t, scrapes))
    } else {
        None
    };
    let phases: Vec<&Measured> = std::iter::once(&first)
        .chain(traced.as_ref().map(|t| &t.0))
        .collect();
    let mut report = Report {
        attempted: phases.iter().map(|m| m.samples.len() as u64).sum(),
        failed: phases
            .iter()
            .flat_map(|m| &m.samples)
            .filter(|s| s.status != 200)
            .count() as u64,
        ..Report::default()
    };

    // After the run: counts, live verdicts, and a last restart on the
    // same directories.
    check_db_stats(
        &st.server().addr,
        &st.shadow,
        "after the run",
        &mut problems,
    )?;
    let mut live_verdicts = Vec::new();
    {
        let mut conn = Conn::open(&st.server().addr).map_err(|e| e.to_string())?;
        for (_, body) in &inp.live {
            let (_, resp) = conn
                .send("POST", "/check?db=live", body)
                .map_err(|e| e.to_string())?;
            live_verdicts.push(field(&resp, "verdict").unwrap_or_default().to_uppercase());
        }
    }
    st.restart(&mut problems)?;
    if let Some(last) = st.server.take() {
        last.stop()?;
    }
    let shadow = st.shadow;
    let facts = args.work.join("shadow.facts");
    let text: String = shadow
        .tuples()
        .map(|(p, t)| live_fact(p, t) + ".\n")
        .collect();
    std::fs::write(&facts, text).map_err(|e| e.to_string())?;
    for ((rules, _), live) in inp.live.iter().zip(&live_verdicts) {
        let out = Command::new(&args.soct)
            .args(["check", "--rules"])
            .arg(rules)
            .arg("--db")
            .arg(&facts)
            .env_remove("SOCT_THREADS")
            .output()
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8_lossy(&out.stdout);
        let cli = text
            .lines()
            .find_map(|l| l.strip_prefix("verdict: "))
            .and_then(|v| v.split_whitespace().next());
        if cli != Some(live.as_str()) {
            problems.push(format!(
                "{}: live verdict {live}, soct check on the shadow facts says {cli:?}",
                rules.display()
            ));
        }
    }
    report.problems = problems;

    report.metrics = match &traced {
        None => first.phase.metrics(setup_s),
        Some((t, scrapes)) => layers(
            args,
            &inp,
            &first,
            t,
            scrapes,
            (&gen_s, &start_s),
            &mut report.problems,
        )?,
    };
    Ok(report)
}

/// The counters the server exports, read at one moment.
struct Scrape {
    stats: String,
    metrics: String,
    db: String,
}

fn scrape(addr: &str) -> Result<Scrape, String> {
    Ok(Scrape {
        stats: get(addr, "/stats")?,
        metrics: get(addr, "/metrics")?,
        db: get(addr, "/db/stats")?,
    })
}

/// Per-layer metrics of `serve-live`; `scrapes` holds each traced
/// segment's counters before and after it, and `setup` the set-up's input
/// generation and server start times.
fn layers(
    args: &Args,
    inp: &LiveInputs,
    untraced: &Measured,
    traced: &Measured,
    scrapes: &[(Scrape, Scrape)],
    (gen_s, start_s): (&[f64], &[f64]),
    problems: &mut Vec<String>,
) -> Result<Vec<crate::Metric>, String> {
    // Replay the repeated rulesets in-process.
    let mut list = String::new();
    for (b, variants) in inp.repeats.iter().enumerate() {
        for (v, body) in variants.iter().enumerate() {
            let path = args.work.join(format!("repeat{b}_{v}.rules"));
            std::fs::write(&path, body).map_err(|e| e.to_string())?;
            list.push_str(&format!("{}\t{}\n", b * 16 + v, path.display()));
        }
    }
    let list_path = args.work.join("repeats.tsv");
    std::fs::write(&list_path, list).map_err(|e| e.to_string())?;
    let replayed = trace::replay(args, "serve", &list_path, problems)?;

    let mut trace = Trace::default();
    let mut by: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut persisted, mut misses) = (0u64, 0u64);
    // The WAL counters span the whole traced phase, warm-ups included.
    let fact_bytes: usize = traced
        .samples
        .iter()
        .filter(|s| s.kind == Kind::Write)
        .map(|s| s.body_bytes)
        .sum();
    for s in traced.timed() {
        let tid = if s.kind == Kind::Write { 2 } else { 1 };
        let id = trace.op(
            &format!("{:?}", s.kind).to_lowercase(),
            "request",
            s.start_s,
            s.ms,
            tid,
        );
        let mut layers = Vec::new();
        match s.kind {
            Kind::Repeat if s.cached => {
                by.entry("serve.rtt_cached_ms".into())
                    .or_default()
                    .push(s.ms);
                if let Some(kv) = replayed.get(&s.key.to_string()) {
                    for (k, v) in kv {
                        by.entry(k.clone()).or_default().push(*v);
                        // The handle time contains the other three layers.
                        if k != "serve.handle_ms" {
                            layers.push((k.clone(), *v));
                        }
                    }
                }
            }
            Kind::Cold => by.entry("serve.rtt_cold_ms".into()).or_default().push(s.ms),
            Kind::Live => by.entry("serve.rtt_live_ms".into()).or_default().push(s.ms),
            Kind::Write => {
                by.entry("serve.rtt_write_ms".into())
                    .or_default()
                    .push(s.ms);
            }
            _ => {}
        }
        if s.kind != Kind::Write && !s.cached {
            persisted += s.cache_file_bytes;
            misses += 1;
        }
        trace.children(id, &layers);
    }
    let path = trace.write(args)?;
    eprintln!("soctbench: wrote {}", path.display());

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (k, v) in &by {
        values.insert(k, stats::mean(v).unwrap_or(0.0));
    }
    values.insert("gen.inputs_s", stats::median(gen_s).unwrap_or(0.0));
    values.insert("serve.start_s", stats::median(start_s).unwrap_or(0.0));
    let rtt = values.get("serve.rtt_cached_ms").copied().unwrap_or(0.0);
    let handle = values.get("serve.handle_ms").copied().unwrap_or(0.0);
    values.insert("serve.wire_ms", rtt - handle);
    if misses > 0 {
        values.insert("core.cache_persist_bytes", persisted as f64 / misses as f64);
    }
    let json = |s: &Scrape, key: &str| num(&s.stats, key);
    let prom = |s: &Scrape, key: &str| prom_value(&s.metrics, key).unwrap_or(f64::NAN);
    let db = |s: &Scrape, key: &str| num(&s.db, key);
    let deltas = |f: &dyn Fn(&Scrape, &str) -> f64, key: &str| -> Vec<f64> {
        scrapes.iter().map(|(b, a)| f(a, key) - f(b, key)).collect()
    };
    let delta = |f: &dyn Fn(&Scrape, &str) -> f64, key: &str| deltas(f, key).iter().sum::<f64>();
    let (hits, lookups) = (
        delta(&json, "hits"),
        delta(&json, "hits") + delta(&json, "misses"),
    );
    values.insert("core.cache_lookups", lookups);
    values.insert(
        "core.cache_hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    values.insert("storage.wal_fsyncs", delta(&prom, "soct_wal_fsyncs_total"));
    values.insert(
        "storage.shape_updates",
        delta(&prom, "soct_db_shape_updates_total"),
    );
    let wal = deltas(&db, "wal_bytes_since_checkpoint");
    if wal.iter().all(|w| *w >= 0.0) && fact_bytes > 0 {
        let wal: f64 = wal.iter().sum();
        values.insert("storage.wal_bytes_per_fact_byte", wal / fact_bytes as f64);
    } else {
        eprintln!(
            "soctbench: a WAL checkpoint fell inside the traced phase; WAL bytes are not reported"
        );
    }
    values.insert(
        "trace.overhead_pct",
        trace::overhead_pct(&untraced.phase, &traced.phase),
    );
    Ok(trace::layer_metrics(&values))
}
