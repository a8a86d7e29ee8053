//! The event loop: one thread, all sockets. Connections are read and
//! written nonblockingly under `poll` readiness; complete requests are
//! admitted to the bounded job queue (or shed with `429`), cheap
//! introspection routes (`GET /stats`, `GET /jobs/<id>`) are answered
//! inline, and worker completions flow back over the wake channel.
//!
//! Ordering contract: a connection has at most one request in flight at
//! a time — pipelined requests queue in the connection's read buffer
//! and are parsed strictly after the previous response was written, so
//! responses can never reorder. A request that outlives the deadline is
//! answered `202` and its job detached; the connection then advances to
//! the next pipelined request immediately.

use crate::http::{
    parse_request, render_response, render_response_typed, Parse, ParsedRequest, ServerConfig,
    CONTINUE,
};
use crate::json::{merge_objects, JsonObject};
use crate::queue::{Endpoint, Job, JobState, Shared, WakeStream};
use crate::sys::PollSet;
use soct_obs::PromText;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Bytes read per `fill` call before yielding back to the loop, so one
/// firehose connection cannot starve the rest.
const READ_QUANTUM: usize = 256 * 1024;
/// Grace period for draining in-flight responses on shutdown.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// A request dispatched to the queue, still attached to its connection.
struct InFlight {
    job: u64,
    is_head: bool,
    close: bool,
    deadline: Instant,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    inflight: Option<InFlight>,
    continue_sent: bool,
    close_after_flush: bool,
    peer_eof: bool,
    last_active: Instant,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            inflight: None,
            continue_sent: false,
            close_after_flush: false,
            peer_eof: false,
            last_active: now,
        }
    }

    fn has_pending_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    fn push_response(&mut self, status: u16, body: &str, is_head: bool, close: bool, shed: bool) {
        render_response(&mut self.wbuf, status, body, is_head, close, shed);
        if close {
            self.close_after_flush = true;
        }
    }

    /// [`Conn::push_response`] with an explicit `Content-Type`
    /// (Prometheus text for `/metrics`).
    fn push_response_typed(
        &mut self,
        status: u16,
        content_type: &str,
        body: &str,
        is_head: bool,
        close: bool,
    ) {
        render_response_typed(
            &mut self.wbuf,
            status,
            content_type,
            body,
            is_head,
            close,
            false,
        );
        if close {
            self.close_after_flush = true;
        }
    }

    /// Writes as much of `wbuf` as the socket accepts right now.
    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match (&self.stream).write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 64 * 1024 {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(())
    }

    /// Reads up to [`READ_QUANTUM`] bytes into `rbuf`. `Ok(true)` means
    /// the peer half-closed (EOF); pending responses still flush.
    fn fill(&mut self) -> io::Result<bool> {
        let mut tmp = [0u8; 16 * 1024];
        let mut taken = 0;
        while taken < READ_QUANTUM {
            match (&self.stream).read(&mut tmp) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    self.rbuf.extend_from_slice(&tmp[..n]);
                    taken += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }
}

fn error_json(msg: &str) -> String {
    let mut o = JsonObject::new();
    o.str_field("error", msg);
    o.finish()
}

fn job_accepted_json(id: u64) -> String {
    let mut o = JsonObject::new();
    o.u64_field("job", id)
        .str_field("poll", &format!("/jobs/{id}"));
    o.finish()
}

fn path_of(target: &str) -> &str {
    target.split_once('?').map_or(target, |(p, _)| p)
}

/// `?async=1` (or bare `?async`) asks for an immediate `202` + job id.
fn wants_async(target: &str) -> bool {
    let Some((_, query)) = target.split_once('?') else {
        return false;
    };
    query
        .split('&')
        .any(|p| matches!(p, "async" | "async=1" | "async=true"))
}

/// Runs the event loop until `stop` is observed; returns after draining
/// in-flight responses (bounded by [`DRAIN_GRACE`]).
pub(crate) fn run_reactor(
    listener: TcpListener,
    shared: &Shared,
    cfg: &ServerConfig,
    stop: &AtomicBool,
    wake_rx: WakeStream,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn: u64 = 0;
    // job id → connection id, for jobs whose response is still owed to a
    // connection (absent for detached/async jobs).
    let mut waiting: HashMap<u64, u64> = HashMap::new();
    let mut set = PollSet::new();
    let mut drain_started: Option<Instant> = None;

    loop {
        let draining = if stop.load(Ordering::SeqCst) {
            Some(*drain_started.get_or_insert_with(Instant::now))
        } else {
            None
        };
        if let Some(since) = draining {
            let idle = waiting.is_empty() && conns.values().all(|c| !c.has_pending_write());
            if idle || since.elapsed() > DRAIN_GRACE {
                break;
            }
        }

        set.clear();
        let listener_slot = if draining.is_none() {
            Some(set.register(&listener, true, false))
        } else {
            None
        };
        let wake_slot = set.register(&wake_rx, true, false);
        let mut slots: Vec<(u64, usize)> = Vec::with_capacity(conns.len());
        for (&cid, c) in &conns {
            let want_read = c.inflight.is_none() && !c.peer_eof && draining.is_none();
            slots.push((
                cid,
                set.register(&c.stream, want_read, c.has_pending_write()),
            ));
        }
        let timeout = poll_timeout(&conns, cfg, draining.is_some());
        if set.wait(timeout).is_err() {
            // poll itself failing is unrecoverable; drop everything.
            break;
        }
        let now = Instant::now();

        // 1. Drain the wake channel.
        if set.readable(wake_slot) {
            let mut sink = [0u8; 256];
            while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }

        // 2. Deliver completions to the connections still waiting.
        for comp in shared.take_completions() {
            let Some(cid) = waiting.remove(&comp.job) else {
                continue; // detached (202 already sent) — result lives in the job table
            };
            let Some(c) = conns.get_mut(&cid) else {
                continue; // connection died while the job ran
            };
            let Some(inf) = c.inflight.take() else {
                continue;
            };
            debug_assert_eq!(inf.job, comp.job);
            c.push_response(comp.status, &comp.body, inf.is_head, inf.close, false);
            c.last_active = now;
            advance(
                c,
                cid,
                shared,
                cfg,
                &mut waiting,
                now,
                conns_len_hint(&slots),
            );
        }

        // 3. Deadline conversions: in-flight too long → 202 + detach.
        for &(cid, _) in &slots {
            let Some(c) = conns.get_mut(&cid) else {
                continue;
            };
            let convert = c.inflight.as_ref().is_some_and(|inf| now >= inf.deadline);
            if convert {
                let inf = c.inflight.take().expect("checked above");
                waiting.remove(&inf.job);
                shared.metrics.async_202.fetch_add(1, Ordering::Relaxed);
                soct_obs::log_info!("serve", "event=deadline_202 job={} conn={cid}", inf.job);
                c.push_response(
                    202,
                    &job_accepted_json(inf.job),
                    inf.is_head,
                    inf.close,
                    false,
                );
                advance(
                    c,
                    cid,
                    shared,
                    cfg,
                    &mut waiting,
                    now,
                    conns_len_hint(&slots),
                );
            }
        }

        // 4. Accept new connections (shedding past the cap with 503).
        if listener_slot.is_some_and(|s| set.readable(s)) {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if conns.len() >= cfg.max_connections {
                            shared.metrics.refused_503.fetch_add(1, Ordering::Relaxed);
                            soct_obs::log_warn!(
                                "serve",
                                "event=refuse_503 conns={} cap={}",
                                conns.len(),
                                cfg.max_connections
                            );
                            let _ = stream.set_nonblocking(true);
                            let mut turn_away = Vec::new();
                            render_response(
                                &mut turn_away,
                                503,
                                &error_json("server at connection capacity"),
                                false,
                                true,
                                true,
                            );
                            let _ = (&stream).write(&turn_away);
                            continue;
                        }
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        shared.metrics.accepted.fetch_add(1, Ordering::Relaxed);
                        soct_obs::log_info!(
                            "serve",
                            "event=accept conn={next_conn} conns={}",
                            conns.len() + 1
                        );
                        conns.insert(next_conn, Conn::new(stream, now));
                        next_conn += 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        // 5. Per-connection I/O.
        let mut dead: Vec<u64> = Vec::new();
        for &(cid, slot) in &slots {
            let Some(c) = conns.get_mut(&cid) else {
                continue;
            };
            if set.closed(slot) {
                dead.push(cid);
                continue;
            }
            if set.writable(slot) {
                if c.flush().is_err() {
                    dead.push(cid);
                    continue;
                }
                c.last_active = now;
            }
            if set.readable(slot) {
                match c.fill() {
                    Err(_) => {
                        dead.push(cid);
                        continue;
                    }
                    Ok(eof) => c.peer_eof = c.peer_eof || eof,
                }
                c.last_active = now;
                advance(
                    c,
                    cid,
                    shared,
                    cfg,
                    &mut waiting,
                    now,
                    conns_len_hint(&slots),
                );
            }
        }
        for cid in dead {
            if let Some(c) = conns.remove(&cid) {
                if let Some(inf) = c.inflight {
                    waiting.remove(&inf.job);
                }
            }
        }

        // 6. Reap finished and idle connections.
        conns.retain(|_, c| {
            let _ = c.flush();
            if c.close_after_flush && !c.has_pending_write() {
                return false;
            }
            if c.peer_eof && c.inflight.is_none() && !c.has_pending_write() {
                return false;
            }
            if c.inflight.is_none()
                && !c.has_pending_write()
                && now.duration_since(c.last_active) > cfg.keep_alive
            {
                return false;
            }
            true
        });
    }
}

/// The number of live connections as of this iteration's registration
/// pass (cheap, and fresh enough for `/stats`).
fn conns_len_hint(slots: &[(u64, usize)]) -> u64 {
    slots.len() as u64
}

/// Poll timeout: tight when a deadline or keep-alive expiry is near,
/// 250 ms otherwise (the wake channel handles all urgent signals).
fn poll_timeout(conns: &HashMap<u64, Conn>, cfg: &ServerConfig, draining: bool) -> i32 {
    let now = Instant::now();
    let mut t: u64 = if draining { 20 } else { 250 };
    for c in conns.values() {
        let next = match &c.inflight {
            Some(inf) => inf.deadline,
            None => c.last_active + cfg.keep_alive,
        };
        let ms = next.saturating_duration_since(now).as_millis() as u64;
        t = t.min(ms.max(1));
    }
    t.min(i32::MAX as u64) as i32
}

/// Parses and dispatches as many pipelined requests as the connection's
/// buffer holds, stopping at the first one that must wait (incomplete
/// bytes or an in-flight job).
#[allow(clippy::too_many_arguments)]
fn advance(
    c: &mut Conn,
    cid: u64,
    shared: &Shared,
    cfg: &ServerConfig,
    waiting: &mut HashMap<u64, u64>,
    now: Instant,
    conn_count: u64,
) {
    while c.inflight.is_none() && !c.close_after_flush {
        match parse_request(&c.rbuf) {
            Parse::Incomplete { needs_continue } => {
                if needs_continue && !c.continue_sent {
                    c.wbuf.extend_from_slice(CONTINUE);
                    c.continue_sent = true;
                }
                break;
            }
            Parse::Bad { status, msg } => {
                shared.metrics.http_errors.fetch_add(1, Ordering::Relaxed);
                c.rbuf.clear();
                c.push_response(status, &error_json(msg), false, true, false);
                break;
            }
            Parse::Done(req, consumed) => {
                c.rbuf.drain(..consumed);
                c.continue_sent = false;
                dispatch(c, cid, req, shared, cfg, waiting, now, conn_count);
            }
        }
    }
    let _ = c.flush(); // opportunistic; write errors surface next poll
}

/// Routes one parsed request: introspection inline, everything else
/// through the bounded queue (or shed).
#[allow(clippy::too_many_arguments)]
fn dispatch(
    c: &mut Conn,
    cid: u64,
    req: ParsedRequest,
    shared: &Shared,
    cfg: &ServerConfig,
    waiting: &mut HashMap<u64, u64>,
    now: Instant,
    conn_count: u64,
) {
    let path = path_of(&req.target);
    let endpoint = Endpoint::of(path);

    // Introspection answers inline from the reactor: these must reflect
    // queue state even (especially) when the queue is saturated.
    if path == "/stats" && req.method == "GET" {
        let body = stats_json(shared, cfg, conn_count);
        shared.metrics.record(Endpoint::Stats, elapsed_us(now));
        c.push_response(200, &body, req.is_head, req.close, false);
        return;
    }
    if path == "/metrics" && req.method == "GET" {
        let body = metrics_text(shared, cfg, conn_count);
        shared.metrics.record(endpoint, elapsed_us(now));
        c.push_response_typed(
            200,
            "text/plain; version=0.0.4",
            &body,
            req.is_head,
            req.close,
        );
        return;
    }
    if let Some(rest) = path.strip_prefix("/jobs/") {
        let (status, body) = if req.method == "GET" {
            job_status_json(shared, rest)
        } else {
            (405, error_json("method not allowed (GET /jobs/<id>)"))
        };
        shared.metrics.record(Endpoint::Jobs, elapsed_us(now));
        c.push_response(status, &body, req.is_head, req.close, false);
        return;
    }
    // Admission control: a full queue sheds instead of buffering.
    let mut q = shared.queue.lock().expect("queue poisoned");
    if q.q.len() >= shared.queue_depth {
        drop(q);
        shared.metrics.shed_429.fetch_add(1, Ordering::Relaxed);
        soct_obs::log_warn!(
            "serve",
            "event=shed_429 endpoint={} depth={}",
            endpoint.name(),
            shared.queue_depth
        );
        c.push_response(
            429,
            &error_json("job queue is full; retry shortly"),
            req.is_head,
            req.close,
            true,
        );
        return;
    }
    let id = shared.next_job_id();
    shared.jobs.lock().expect("jobs poisoned").insert_queued(id);
    q.q.push_back(Job {
        id,
        method: req.method,
        target: req.target.clone(),
        body: req.body,
        endpoint,
        enqueued: now,
    });
    drop(q);
    shared.cv.notify_one();
    soct_obs::log_debug!(
        "serve",
        "event=enqueue job={id} endpoint={} conn={cid}",
        endpoint.name()
    );

    if wants_async(&req.target) || cfg.deadline.is_zero() {
        shared.metrics.async_202.fetch_add(1, Ordering::Relaxed);
        c.push_response(202, &job_accepted_json(id), req.is_head, req.close, false);
    } else {
        waiting.insert(id, cid);
        c.inflight = Some(InFlight {
            job: id,
            is_head: req.is_head,
            close: req.close,
            deadline: now + cfg.deadline,
        });
    }
}

fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros() as u64
}

/// `GET /jobs/<id>`.
fn job_status_json(shared: &Shared, raw_id: &str) -> (u16, String) {
    let Ok(id) = raw_id.parse::<u64>() else {
        return (400, error_json("job id must be an integer"));
    };
    let jobs = shared.jobs.lock().expect("jobs poisoned");
    match jobs.get(id) {
        None => (
            404,
            error_json(
                "no such job (completed jobs are retained only up to the configured capacity)",
            ),
        ),
        Some(JobState::Queued) => {
            let mut o = JsonObject::new();
            o.u64_field("job", id).str_field("state", "queued");
            (200, o.finish())
        }
        Some(JobState::Running) => {
            let mut o = JsonObject::new();
            o.u64_field("job", id).str_field("state", "running");
            (200, o.finish())
        }
        Some(JobState::Done { status, body }) => {
            let mut o = JsonObject::new();
            o.u64_field("job", id)
                .str_field("state", "done")
                .u64_field("status", u64::from(*status))
                .raw_field("response", body);
            (200, o.finish())
        }
    }
}

/// `GET /stats`: the service's own counters merged with the server
/// object (connections, queue, job states, latency histograms).
fn stats_json(shared: &Shared, cfg: &ServerConfig, conn_count: u64) -> String {
    let queue_len = shared.queue.lock().expect("queue poisoned").q.len() as u64;
    let (queued, running, done) = shared.jobs.lock().expect("jobs poisoned").counts();
    let m = &shared.metrics;
    let mut queue = JsonObject::new();
    queue
        .u64_field("depth", queue_len)
        .u64_field("capacity", shared.queue_depth as u64)
        .u64_field("queued", queued)
        .u64_field("running", running)
        .u64_field("done", done);
    let mut server = JsonObject::new();
    server
        .u64_field("connections", conn_count)
        .u64_field("accepted", m.accepted.load(Ordering::Relaxed))
        .u64_field("refused_503", m.refused_503.load(Ordering::Relaxed))
        .u64_field("shed_429", m.shed_429.load(Ordering::Relaxed))
        .u64_field("async_202", m.async_202.load(Ordering::Relaxed))
        .u64_field("http_errors", m.http_errors.load(Ordering::Relaxed))
        .u64_field("queue_depth_limit", shared.queue_depth as u64)
        .u64_field("max_connections", cfg.max_connections as u64)
        .raw_field("queue", &queue.finish())
        .raw_field("latency_us", &m.latency_json());
    let mut wrap = JsonObject::new();
    wrap.raw_field("server", &server.finish());
    merge_objects(&shared.service.stats_json(), &wrap.finish())
}

/// `GET /metrics`: the full Prometheus text exposition — serve-tier
/// gauges and admission/latency families first, then the service-level
/// (cache, live db) and process-global (chase, storage, checker-phase)
/// families, one body. Answered inline by the reactor so scrapes
/// reflect queue state even when the workers are saturated.
fn metrics_text(shared: &Shared, cfg: &ServerConfig, conn_count: u64) -> String {
    let queue_len = shared.queue.lock().expect("queue poisoned").q.len() as u64;
    let (queued, running, done) = shared.jobs.lock().expect("jobs poisoned").counts();
    let mut out = PromText::new();
    out.gauge("soct_serve_connections", "Open connections", conn_count);
    out.gauge(
        "soct_serve_max_connections",
        "Connection-table cap (refused with 503 past it)",
        cfg.max_connections as u64,
    );
    out.gauge(
        "soct_serve_queue_depth",
        "Undispatched jobs in the bounded queue",
        queue_len,
    );
    out.gauge(
        "soct_serve_queue_capacity",
        "Bounded job-queue depth (shed with 429 past it)",
        shared.queue_depth as u64,
    );
    out.header("soct_serve_jobs", "gauge", "Job-table entries by state");
    for (state, v) in [("queued", queued), ("running", running), ("done", done)] {
        out.sample("soct_serve_jobs", &[("state", state)], v);
    }
    shared.metrics.render_prometheus(&mut out);
    shared.service.metrics_prometheus(&mut out);
    out.finish()
}
