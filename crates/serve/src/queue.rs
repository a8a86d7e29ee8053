//! The bounded job queue between the reactor and the check worker pool,
//! the job table behind `GET /jobs/<id>`, and the server-side metrics
//! (admission counters + per-endpoint latency histograms) surfaced by
//! `GET /stats`.

use crate::json::JsonObject;
use crate::service::TerminationService;
use soct_obs::{Histogram, PromText};
use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use std::{fmt, io};

/// One parsed request waiting for a worker.
#[derive(Debug)]
pub(crate) struct Job {
    pub id: u64,
    pub method: String,
    pub target: String,
    pub body: String,
    pub endpoint: Endpoint,
    pub enqueued: Instant,
}

/// Endpoint classification for the latency histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Endpoint {
    Check,
    Shapes,
    Chase,
    Stats,
    Db,
    Jobs,
    Other,
}

pub(crate) const ENDPOINTS: [Endpoint; 7] = [
    Endpoint::Check,
    Endpoint::Shapes,
    Endpoint::Chase,
    Endpoint::Stats,
    Endpoint::Db,
    Endpoint::Jobs,
    Endpoint::Other,
];

impl Endpoint {
    pub(crate) fn of(path: &str) -> Endpoint {
        match path {
            "/check" => Endpoint::Check,
            "/shapes" => Endpoint::Shapes,
            "/chase" => Endpoint::Chase,
            "/stats" => Endpoint::Stats,
            _ if path.starts_with("/db/") => Endpoint::Db,
            _ if path.starts_with("/jobs") => Endpoint::Jobs,
            _ => Endpoint::Other,
        }
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            Endpoint::Check => "check",
            Endpoint::Shapes => "shapes",
            Endpoint::Chase => "chase",
            Endpoint::Stats => "stats",
            Endpoint::Db => "db",
            Endpoint::Jobs => "jobs",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Check => 0,
            Endpoint::Shapes => 1,
            Endpoint::Chase => 2,
            Endpoint::Stats => 3,
            Endpoint::Db => 4,
            Endpoint::Jobs => 5,
            Endpoint::Other => 6,
        }
    }
}

/// Lifecycle of a job in the table.
#[derive(Debug)]
pub(crate) enum JobState {
    Queued,
    Running,
    Done { status: u16, body: String },
}

/// The `GET /jobs/<id>` lookup table: every dispatched request gets an
/// entry; completed entries are evicted oldest-first past `capacity`
/// (queued/running entries are never evicted — their count is already
/// bounded by queue depth + workers).
#[derive(Debug)]
pub(crate) struct JobTable {
    jobs: HashMap<u64, JobState>,
    done_order: VecDeque<u64>,
    capacity: usize,
}

impl JobTable {
    pub(crate) fn new(capacity: usize) -> Self {
        JobTable {
            jobs: HashMap::new(),
            done_order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn insert_queued(&mut self, id: u64) {
        self.jobs.insert(id, JobState::Queued);
    }

    pub(crate) fn set_running(&mut self, id: u64) {
        if let Some(s) = self.jobs.get_mut(&id) {
            *s = JobState::Running;
        }
    }

    pub(crate) fn complete(&mut self, id: u64, status: u16, body: String) {
        self.jobs.insert(id, JobState::Done { status, body });
        self.done_order.push_back(id);
        while self.done_order.len() > self.capacity {
            if let Some(old) = self.done_order.pop_front() {
                if matches!(self.jobs.get(&old), Some(JobState::Done { .. })) {
                    self.jobs.remove(&old);
                }
            }
        }
    }

    pub(crate) fn get(&self, id: u64) -> Option<&JobState> {
        self.jobs.get(&id)
    }

    /// (queued, running, done) entry counts.
    pub(crate) fn counts(&self) -> (u64, u64, u64) {
        let mut c = (0, 0, 0);
        for s in self.jobs.values() {
            match s {
                JobState::Queued => c.0 += 1,
                JobState::Running => c.1 += 1,
                JobState::Done { .. } => c.2 += 1,
            }
        }
        c
    }
}

/// Queue state under the mutex: FIFO jobs + the shutdown latch.
#[derive(Debug, Default)]
pub(crate) struct QueueState {
    pub q: VecDeque<Job>,
    pub shutdown: bool,
}

/// A finished job travelling back from a worker to the reactor.
#[derive(Debug)]
pub(crate) struct Completion {
    pub job: u64,
    pub status: u16,
    pub body: String,
}

/// One end of the reactor's wake channel: a socketpair on unix, a
/// loopback TCP connection elsewhere.
#[cfg(unix)]
pub(crate) type WakeStream = std::os::unix::net::UnixStream;
/// One end of the reactor's wake channel: a socketpair on unix, a
/// loopback TCP connection elsewhere.
#[cfg(not(unix))]
pub(crate) type WakeStream = std::net::TcpStream;

/// Wakes the reactor out of `poll` by writing one byte to the wake
/// channel. Nonblocking: a full buffer means a wakeup is already
/// pending, so dropping the byte is correct.
pub(crate) struct Waker {
    tx: WakeStream,
}

impl fmt::Debug for Waker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Waker")
    }
}

impl Waker {
    pub(crate) fn new(tx: WakeStream) -> Self {
        Waker { tx }
    }

    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }
}

/// Builds the reactor's wake channel `(tx, rx)`, both ends nonblocking.
/// `tx` is cloned into every worker and the server handle; `rx` joins the
/// reactor's poll set.
pub(crate) fn waker_pair() -> io::Result<(WakeStream, WakeStream)> {
    #[cfg(unix)]
    let (tx, rx) = WakeStream::pair()?;
    #[cfg(not(unix))]
    let (tx, rx) = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let tx = WakeStream::connect(listener.local_addr()?)?;
        let local = tx.local_addr()?;
        // Accept until we see our own connection, discarding any stranger
        // that raced onto the ephemeral port.
        let rx = loop {
            let (s, peer) = listener.accept()?;
            if peer == local {
                break s;
            }
        };
        let _ = tx.set_nodelay(true);
        (tx, rx)
    };
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

/// `{"count":…,"p50_us":…,"p90_us":…,"p99_us":…,"max_us":…}` — the
/// `/stats` rendering of a latency [`Histogram`] (the log₂ histogram
/// itself now lives in `soct_obs`; this keeps the wire format
/// byte-identical to when it lived here).
pub(crate) fn histogram_json(h: &Histogram) -> String {
    let snap = h.snapshot();
    let mut o = JsonObject::new();
    o.u64_field("count", snap.count);
    if snap.count > 0 {
        o.u64_field("p50_us", snap.quantile_us(0.50))
            .u64_field("p90_us", snap.quantile_us(0.90))
            .u64_field("p99_us", snap.quantile_us(0.99))
            .u64_field("max_us", snap.max_us);
    }
    o.finish()
}

/// Monotonic server-side counters (the service keeps its own request
/// counters; these cover what only the front end can see).
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Connections turned away with `503` at the connection cap.
    pub refused_503: AtomicU64,
    /// Requests shed with `429` because the job queue was full.
    pub shed_429: AtomicU64,
    /// Requests answered `202 Accepted` (explicit `async=1` or a
    /// deadline conversion).
    pub async_202: AtomicU64,
    /// Malformed-request error responses written by the HTTP layer.
    pub http_errors: AtomicU64,
    hist: [Histogram; 7],
}

impl Metrics {
    pub(crate) fn record(&self, ep: Endpoint, us: u64) {
        self.hist[ep.index()].record_us(us);
    }

    /// Latency object keyed by endpoint name (endpoints with no samples
    /// are omitted).
    pub(crate) fn latency_json(&self) -> String {
        let mut o = JsonObject::new();
        for ep in ENDPOINTS {
            let h = &self.hist[ep.index()];
            if h.count() > 0 {
                o.raw_field(ep.name(), &histogram_json(h));
            }
        }
        o.finish()
    }

    /// Renders the serve-tier families (`soct_serve_*` admission
    /// counters and per-endpoint latency histograms) for `/metrics`.
    pub(crate) fn render_prometheus(&self, out: &mut PromText) {
        out.header(
            "soct_serve_requests_total",
            "counter",
            "Server admission outcomes by kind",
        );
        for (kind, v) in [
            ("accepted", self.accepted.load(Ordering::Relaxed)),
            ("refused_503", self.refused_503.load(Ordering::Relaxed)),
            ("shed_429", self.shed_429.load(Ordering::Relaxed)),
            ("async_202", self.async_202.load(Ordering::Relaxed)),
            ("http_error", self.http_errors.load(Ordering::Relaxed)),
        ] {
            out.sample("soct_serve_requests_total", &[("kind", kind)], v);
        }
        out.header(
            "soct_serve_request_us",
            "histogram",
            "Queue-to-completion request latency (µs) by endpoint",
        );
        for ep in ENDPOINTS {
            let snap = self.hist[ep.index()].snapshot();
            if snap.count > 0 {
                out.histogram_series("soct_serve_request_us", &[("endpoint", ep.name())], &snap);
            }
        }
    }
}

/// Everything the reactor, the workers, and the server handle share.
#[derive(Debug)]
pub(crate) struct Shared {
    pub service: Arc<TerminationService>,
    pub queue: Mutex<QueueState>,
    pub cv: Condvar,
    pub queue_depth: usize,
    pub jobs: Mutex<JobTable>,
    pub completions: Mutex<Vec<Completion>>,
    pub waker: Waker,
    pub metrics: Metrics,
    next_job: AtomicU64,
}

impl Shared {
    pub(crate) fn new(
        service: Arc<TerminationService>,
        queue_depth: usize,
        jobs_capacity: usize,
        waker: Waker,
    ) -> Self {
        Shared {
            service,
            queue: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            queue_depth: queue_depth.max(1),
            jobs: Mutex::new(JobTable::new(jobs_capacity)),
            completions: Mutex::new(Vec::new()),
            waker,
            metrics: Metrics::default(),
            next_job: AtomicU64::new(1),
        }
    }

    pub(crate) fn next_job_id(&self) -> u64 {
        self.next_job.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().expect("completions poisoned"))
    }

    /// Tells the workers to exit once the queue drains.
    pub(crate) fn shutdown_queue(&self) {
        self.queue.lock().expect("queue poisoned").shutdown = true;
        self.cv.notify_all();
    }
}

/// The worker loop: pop a job, run it through the service, store the
/// result in the job table, hand a completion to the reactor, wake it.
/// A panicking handler (a bug, by definition) is converted into a `500`
/// so the worker — and the connection — survive.
pub(crate) fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(j) = st.q.pop_front() {
                    break j;
                }
                if st.shutdown {
                    return;
                }
                st = shared.cv.wait(st).expect("queue poisoned");
            }
        };
        shared
            .jobs
            .lock()
            .expect("jobs poisoned")
            .set_running(job.id);
        let svc = Arc::clone(&shared.service);
        let (method, target, body) = (job.method, job.target, job.body);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            svc.handle(&method, &target, &body)
        }));
        let (status, body) = result.unwrap_or_else(|_| {
            (
                500,
                "{\"error\":\"internal error: request handler panicked\"}".to_string(),
            )
        });
        let us = job.enqueued.elapsed().as_micros() as u64;
        shared.metrics.record(job.endpoint, us);
        soct_obs::log_info!(
            "serve",
            "event=job_done job={} endpoint={} status={status} us={us}",
            job.id,
            job.endpoint.name()
        );
        shared
            .jobs
            .lock()
            .expect("jobs poisoned")
            .complete(job.id, status, body.clone());
        shared
            .completions
            .lock()
            .expect("completions poisoned")
            .push(Completion {
                job: job.id,
                status,
                body,
            });
        shared.waker.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::get_field;

    #[test]
    fn job_table_evicts_only_done_entries_oldest_first() {
        let mut t = JobTable::new(2);
        for id in 1..=4 {
            t.insert_queued(id);
        }
        t.set_running(1);
        t.complete(1, 200, "{}".into());
        t.complete(2, 200, "{}".into());
        t.complete(3, 200, "{}".into());
        assert!(t.get(1).is_none(), "oldest done entry evicted");
        assert!(matches!(t.get(2), Some(JobState::Done { .. })));
        assert!(matches!(t.get(3), Some(JobState::Done { .. })));
        assert!(matches!(t.get(4), Some(JobState::Queued)));
        assert_eq!(t.counts(), (1, 0, 2));
    }

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record_us(100); // bucket [64,128)
        }
        for _ in 0..10 {
            h.record_us(10_000); // bucket [8192,16384)
        }
        let json = histogram_json(&h);
        assert_eq!(get_field(&json, "count"), Some("100"));
        let p50: u64 = get_field(&json, "p50_us").unwrap().parse().unwrap();
        let p99: u64 = get_field(&json, "p99_us").unwrap().parse().unwrap();
        assert!((100..=128).contains(&p50), "p50 {p50}");
        assert!((10_000..=16_384).contains(&p99), "p99 {p99}");
        assert_eq!(get_field(&json, "max_us"), Some("10000"));
    }

    #[test]
    fn endpoint_classification() {
        assert_eq!(Endpoint::of("/check"), Endpoint::Check);
        assert_eq!(Endpoint::of("/db/insert"), Endpoint::Db);
        assert_eq!(Endpoint::of("/jobs/17"), Endpoint::Jobs);
        assert_eq!(Endpoint::of("/nope"), Endpoint::Other);
    }
}
