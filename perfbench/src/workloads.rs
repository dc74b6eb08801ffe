//! The three workloads' timed regions.
//!
//! Each measurement starts the serving side (an `ehw-serve` process, or an
//! in-process `EhwService`) several times to take the set-up time, keeps the
//! last one, drives it for the run's duration and then waits for every job
//! already submitted.  Nothing here checks outputs: that happens afterwards,
//! outside the timed region (see `checks`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use ehw_image::GrayImage;
use ehw_platform::jobs::{JobResult, JobSpec};
use ehw_server::json::{self, Value};
use ehw_server::wire;
use ehw_service::{EhwService, ServiceConfig, ServiceStats};

use crate::http::{self, Client, Server};
use crate::inputs::{self, Job, Kind};
use crate::stats::quantile;
use crate::trace::Tracer;

/// Times the serving side is started per run; `setup_s` is their
/// [`SETUP_QUANTILE`].
pub const SETUP_REPS: usize = 51;
/// The start-up time reported: a low quantile, as host steal and
/// neighbouring load can only add time to a start-up.
const SETUP_QUANTILE: f64 = 0.1;
/// Closed-loop HTTP clients of `http_small_jobs` (= `nproc` on the
/// reference host).
const CLIENTS: usize = 2;
/// Fixed pause before each status read.
const POLL: Duration = Duration::from_millis(2);
/// Index of the first warm-up job: apart from every timed job's index.
const WARM_UP_BASE: usize = 1 << 32;
/// Longest the warm-up may take before the run fails.
const WARM_UP_LIMIT: Duration = Duration::from_secs(60);
/// Longest a timed region may run on to settle [`Workload::rss_jobs`]
/// jobs before the run fails.
const RUN_LIMIT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HttpSmallJobs,
    ServicePaperBatch,
    HttpStreamDrift,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HttpSmallJobs,
        Workload::ServicePaperBatch,
        Workload::HttpStreamDrift,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HttpSmallJobs => "http_small_jobs",
            Workload::ServicePaperBatch => "service_paper_batch",
            Workload::HttpStreamDrift => "http_stream_drift",
        }
    }

    pub fn job(self, seed: u64, index: usize) -> Job {
        match self {
            Workload::HttpSmallJobs => inputs::small_job(seed, index),
            Workload::ServicePaperBatch => inputs::batch_job(seed, index),
            Workload::HttpStreamDrift => inputs::stream_job(seed, index),
        }
    }

    /// The kind of job `index`, without generating it.
    pub fn job_kind(self, index: usize) -> Kind {
        match self {
            Workload::HttpSmallJobs => Kind::Evolution,
            Workload::ServicePaperBatch => inputs::batch_kind(index),
            Workload::HttpStreamDrift => Kind::Stream,
        }
    }

    /// (shards, workers per shard) of the serving side.
    pub fn shape(self, nproc: usize) -> (usize, usize) {
        match self {
            Workload::HttpSmallJobs => (2, 1),
            Workload::ServicePaperBatch => (1, nproc),
            Workload::HttpStreamDrift => (1, 1),
        }
    }

    /// Timed jobs settled when `peak_rss_mb` is read: about a quarter of
    /// what a 20 s run settles on a 2-core host.  The server keeps settled jobs
    /// (and a stream's event log) until their TTL, and the in-process
    /// workload keeps its results, so a reading at a fixed job count does
    /// not grow when the program gets faster.  A run goes on past its
    /// duration until this many jobs have settled.
    fn rss_jobs(self) -> usize {
        match self {
            Workload::HttpSmallJobs => 100,
            Workload::ServicePaperBatch => 240,
            Workload::HttpStreamDrift => 30,
        }
    }
}

pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub serve_bin: PathBuf,
    pub nproc: usize,
}

impl Ctx {
    pub fn job(&self, index: usize) -> Job {
        self.workload.job(self.seed, index)
    }
}

/// One settled job as the client saw it.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub index: usize,
    pub job_id: u64,
    pub status: String,
    /// The `result` member of the status document (`Null` when absent).
    pub result: Value,
    /// Client-side submit → parsed settled result.
    pub settle_ms: f64,
    /// Start of the timed region → parsed settled result.
    pub settled_s: f64,
    /// NDJSON bytes and frame lines read from the job's event stream.
    pub events: http::EventStream,
}

impl Outcome {
    pub fn evaluations(&self) -> u64 {
        self.result
            .get("evaluations")
            .and_then(Value::as_u64)
            .unwrap_or(0)
    }

    pub fn warm_started(&self) -> bool {
        self.result
            .get("warm_started")
            .and_then(Value::as_bool)
            .unwrap_or(false)
    }

    pub fn output_u64(&self, field: &str) -> Option<u64> {
        self.result.get("output")?.get(field)?.as_u64()
    }
}

/// The service's own counters, read before and after the timed region.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub completed: u64,
    pub failed: u64,
    pub cancelled: u64,
    pub lost: u64,
    pub windows_hits: u64,
    pub windows_misses: u64,
    pub fitness_hits: u64,
    pub fitness_misses: u64,
    pub warm_starts: u64,
}

impl Counters {
    fn from_stats(stats: &ServiceStats) -> Counters {
        Counters {
            completed: stats.completed,
            failed: stats.failed,
            cancelled: stats.cancelled,
            lost: stats.lost,
            windows_hits: stats.cache.windows_hits,
            windows_misses: stats.cache.windows_misses,
            fitness_hits: stats.cache.fitness_hits,
            fitness_misses: stats.cache.fitness_misses,
            warm_starts: stats.cache.warm_starts,
        }
    }

    fn from_metrics(doc: &Value) -> Option<Counters> {
        let service = doc.get("service")?;
        let cache = doc.get("cache")?;
        let field = |v: &Value, name: &str| v.get(name).and_then(Value::as_u64);
        Some(Counters {
            completed: field(service, "completed")?,
            failed: field(service, "failed")?,
            cancelled: field(service, "cancelled")?,
            lost: field(service, "lost")?,
            windows_hits: field(cache, "windows_hits")?,
            windows_misses: field(cache, "windows_misses")?,
            fitness_hits: field(cache, "fitness_hits")?,
            fitness_misses: field(cache, "fitness_misses")?,
            warm_starts: field(cache, "warm_starts")?,
        })
    }

    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            completed: self.completed - before.completed,
            failed: self.failed - before.failed,
            cancelled: self.cancelled - before.cancelled,
            lost: self.lost - before.lost,
            windows_hits: self.windows_hits - before.windows_hits,
            windows_misses: self.windows_misses - before.windows_misses,
            fitness_hits: self.fitness_hits - before.fitness_hits,
            fitness_misses: self.fitness_misses - before.fitness_misses,
            warm_starts: self.warm_starts - before.warm_starts,
        }
    }
}

/// Everything one timed run observed.
#[derive(Debug, Default)]
pub struct Run {
    pub setup_s: f64,
    /// Start of the timed region → the last job settled.
    pub wall_s: f64,
    /// `VmHWM` of the serving process when the workload's
    /// [`Workload::rss_jobs`]-th timed job settled.
    pub peak_rss_mb: f64,
    /// Jobs submitted (or whose submission was attempted).
    pub attempted: u64,
    /// Settled jobs, sorted by job index.
    pub outcomes: Vec<Outcome>,
    /// Client-visible failures by job index: refused submits, transport
    /// errors, lost jobs.
    pub errors: Vec<(usize, String)>,
    /// Status reads, and those that found a stream job unsettled after its
    /// event stream had ended.
    pub status_reads: u64,
    pub settle_lag_reads: u64,
    /// Service counter deltas over the timed region.
    pub counters: Counters,
}

/// Runs the workload once for `ctx.seconds`.
pub fn measure(ctx: &Ctx, tracer: &Tracer) -> Result<Run, String> {
    match ctx.workload {
        Workload::ServicePaperBatch => measure_in_process(ctx, tracer),
        _ => measure_http(ctx, tracer),
    }
}

// ---------------------------------------------------------------------------
// Over HTTP
// ---------------------------------------------------------------------------

/// Starts `ehw-serve` [`SETUP_REPS`] times, timing spawn → first answered
/// request; returns the last server and the [`SETUP_QUANTILE`] of the
/// times.
fn start_server(ctx: &Ctx) -> Result<(Server, f64), String> {
    let (shards, workers) = ctx.workload.shape(ctx.nproc);
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        let server = Server::spawn(&ctx.serve_bin, shards, workers)
            .map_err(|e| format!("cannot start {}: {e}", ctx.serve_bin.display()))?;
        let first = Client::new(server.addr)
            .request("GET", "/metrics", None)
            .map_err(|e| format!("first request failed: {e}"))?;
        times.push(start.elapsed().as_secs_f64());
        if first.status != 200 {
            return Err(format!("GET /metrics answered {}", first.status));
        }
        last = Some(server);
    }
    Ok((
        last.expect("SETUP_REPS > 0"),
        quantile(&times, SETUP_QUANTILE),
    ))
}

fn metrics_counters(server: &Server) -> Result<Counters, String> {
    let response = Client::new(server.addr)
        .request("GET", "/metrics", None)
        .map_err(|e| format!("GET /metrics failed: {e}"))?;
    response
        .json()
        .ok()
        .as_ref()
        .and_then(Counters::from_metrics)
        .ok_or_else(|| "GET /metrics lacks the service counters".to_string())
}

/// Runs untimed jobs of the workload until the cross-job fitness cache is
/// full, then resets the server's peak RSS.  A long-lived service's cache
/// stays at capacity; a cold one grows through hash-table resizes whose
/// timing depends on how many evaluations a run happens to make, which made
/// the peak RSS depend on the seed and on the host's speed.  Each request
/// goes on a connection of its own, which the server answers without the
/// keep-alive delay, so the warm-up takes seconds.
fn warm_up(ctx: &Ctx, server: &Server) -> Result<(), String> {
    let deadline = Instant::now() + WARM_UP_LIMIT;
    let next = AtomicUsize::new(WARM_UP_BASE);
    let full = std::sync::atomic::AtomicBool::new(false);
    let request = |method: &str, path: &str, body: Option<&str>| -> Result<Value, String> {
        let response = Client::new(server.addr)
            .request(method, path, body)
            .map_err(|e| format!("warm-up {method} {path}: {e}"))?;
        if !matches!(response.status, 200 | 201) {
            return Err(format!(
                "warm-up {method} {path} answered {}",
                response.status
            ));
        }
        response.json().map_err(|e| e.to_string())
    };
    let warm = || -> Result<(), String> {
        while !full.load(Ordering::Relaxed) {
            if Instant::now() > deadline {
                return Err("the warm-up did not fill the fitness cache in time".into());
            }
            let job = ctx.job(next.fetch_add(1, Ordering::Relaxed));
            let submitted = request("POST", job.path(), Some(&job.body()))?;
            let job_id = submitted
                .get("job_id")
                .and_then(Value::as_u64)
                .ok_or("warm-up submit has no job_id")?;
            loop {
                std::thread::sleep(POLL);
                let status = request("GET", &format!("/jobs/{job_id}"), None)?;
                if status
                    .get("status")
                    .and_then(Value::as_str)
                    .is_some_and(is_terminal)
                {
                    break;
                }
            }
            let metrics = request("GET", "/metrics", None)?;
            let evictions = metrics
                .get("cache")
                .and_then(|c| c.get("fitness_evictions"))
                .and_then(Value::as_u64)
                .ok_or("GET /metrics lacks cache.fitness_evictions")?;
            if evictions > 0 {
                full.store(true, Ordering::Relaxed);
            }
        }
        Ok(())
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS).map(|_| scope.spawn(warm)).collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("a warm-up thread panicked"))
    })?;
    http::reset_peak_rss(&server.proc_dir())
}

/// Counts finished jobs and reads the serving process's peak RSS when the
/// workload's [`Workload::rss_jobs`]-th one finishes.
struct RssProbe {
    finished: AtomicUsize,
    at: usize,
    proc_dir: String,
    peak_rss_mb: Mutex<Option<f64>>,
}

impl RssProbe {
    fn new(workload: Workload, proc_dir: String) -> RssProbe {
        RssProbe {
            finished: AtomicUsize::new(0),
            at: workload.rss_jobs(),
            proc_dir,
            peak_rss_mb: Mutex::new(None),
        }
    }

    fn job_finished(&self) {
        if self.finished.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            *lock(&self.peak_rss_mb) = Some(http::peak_rss_mb(&self.proc_dir));
        }
    }

    /// Whether a client should submit another job: the run's time is not
    /// up, or too few jobs have finished for the RSS reading.
    fn go_on(&self, stop_at: Instant, limit: Instant) -> bool {
        let now = Instant::now();
        now < limit && (now < stop_at || self.finished.load(Ordering::Relaxed) < self.at)
    }

    fn reading(&self) -> Result<f64, String> {
        let finished = self.finished.load(Ordering::Relaxed);
        lock(&self.peak_rss_mb).ok_or_else(|| {
            format!(
                "only {finished} jobs finished within {} s; peak_rss_mb is read after {}",
                RUN_LIMIT.as_secs(),
                self.at
            )
        })
    }
}

struct Shared {
    next: AtomicUsize,
    outcomes: Mutex<Vec<Outcome>>,
    errors: Mutex<Vec<(usize, String)>>,
    status_reads: AtomicU64,
    settle_lag_reads: AtomicU64,
    start: Instant,
    last_settle: Mutex<Instant>,
    rss: RssProbe,
}

fn measure_http(ctx: &Ctx, tracer: &Tracer) -> Result<Run, String> {
    let (server, setup_s) = start_server(ctx)?;
    if ctx.workload == Workload::HttpSmallJobs {
        warm_up(ctx, &server)?;
    }
    let before = metrics_counters(&server)?;
    let clients = match ctx.workload {
        Workload::HttpSmallJobs => CLIENTS,
        _ => 1,
    };
    let start = Instant::now();
    let stop_at = start + Duration::from_secs_f64(ctx.seconds);
    let limit = start + RUN_LIMIT;
    let shared = Shared {
        next: AtomicUsize::new(0),
        outcomes: Mutex::new(Vec::new()),
        errors: Mutex::new(Vec::new()),
        status_reads: AtomicU64::new(0),
        settle_lag_reads: AtomicU64::new(0),
        start,
        last_settle: Mutex::new(start),
        rss: RssProbe::new(ctx.workload, server.proc_dir()),
    };
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut client = Client::new(server.addr);
                while shared.rss.go_on(stop_at, limit) {
                    let index = shared.next.fetch_add(1, Ordering::Relaxed);
                    // Rendered inline, before the submit's clock starts.
                    let job = ctx.job(index);
                    let body = job.body();
                    match run_http_job(&mut client, &server, &job, &body, tracer, &shared) {
                        Ok(outcome) => lock(&shared.outcomes).push(outcome),
                        Err(error) => lock(&shared.errors).push((index, error)),
                    }
                    shared.rss.job_finished();
                    let mut last = lock(&shared.last_settle);
                    *last = (*last).max(Instant::now());
                }
            });
        }
    });
    let wall_s = (*lock(&shared.last_settle) - start).as_secs_f64();
    let after = metrics_counters(&server)?;
    drop(server);
    let peak_rss_mb = shared.rss.reading()?;
    let mut outcomes = shared.outcomes.into_inner().expect("outcome lock");
    outcomes.sort_by_key(|o| o.index);
    Ok(Run {
        setup_s,
        wall_s,
        peak_rss_mb,
        attempted: shared.next.load(Ordering::Relaxed) as u64,
        outcomes,
        errors: shared.errors.into_inner().expect("error lock"),
        status_reads: shared.status_reads.load(Ordering::Relaxed),
        settle_lag_reads: shared.settle_lag_reads.load(Ordering::Relaxed),
        counters: after.since(&before),
    })
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().expect("a client thread panicked")
}

fn is_terminal(status: &str) -> bool {
    matches!(status, "done" | "failed" | "cancelled" | "lost")
}

/// Submits one job, reads its event stream when it is a stream job, and
/// polls its status until it settles.
fn run_http_job(
    client: &mut Client,
    server: &Server,
    job: &Job,
    body: &str,
    tracer: &Tracer,
    shared: &Shared,
) -> Result<Outcome, String> {
    let trace = job.index as u64;
    let root = tracer.id();
    let start = Instant::now();
    let submit_id = tracer.id();
    let submitted = client
        .request("POST", job.path(), Some(body))
        .map_err(|e| format!("submit: {e}"))?;
    tracer.record(
        submit_id,
        "server.submit",
        trace,
        Some(root),
        start,
        Instant::now(),
    );
    if submitted.status != 201 {
        return Err(format!(
            "submit answered {}: {}",
            submitted.status, submitted.body
        ));
    }
    let job_id = submitted
        .json()
        .ok()
        .and_then(|doc| doc.get("job_id").and_then(Value::as_u64))
        .ok_or("submit response has no job_id")?;

    let mut events = http::EventStream::default();
    let streamed = job.kind == Kind::Stream;
    if streamed {
        events = tracer
            .span("server.events", trace, Some(root), |_| {
                http::read_events(server.addr, job_id)
            })
            .map_err(|e| format!("event stream: {e}"))?;
    }

    loop {
        if !streamed {
            std::thread::sleep(POLL);
        }
        let read_start = Instant::now();
        let read_id = tracer.id();
        let response = client
            .request("GET", &format!("/jobs/{job_id}"), None)
            .map_err(|e| format!("status: {e}"))?;
        tracer.record(
            read_id,
            "server.status",
            trace,
            Some(root),
            read_start,
            Instant::now(),
        );
        shared.status_reads.fetch_add(1, Ordering::Relaxed);
        if response.status != 200 {
            return Err(format!(
                "status answered {}: {}",
                response.status, response.body
            ));
        }
        let doc = response.json().map_err(|e| format!("status: {e}"))?;
        let status = doc
            .get("status")
            .and_then(Value::as_str)
            .ok_or("status document has no status")?
            .to_string();
        if is_terminal(&status) {
            let end = Instant::now();
            tracer.record(root, "client.job", trace, None, start, end);
            return Ok(Outcome {
                index: job.index,
                job_id,
                status,
                result: doc.get("result").cloned().unwrap_or(Value::Null),
                settle_ms: (end - start).as_secs_f64() * 1e3,
                settled_s: (end - shared.start).as_secs_f64(),
                events,
            });
        }
        if streamed {
            // The event stream already ended: this read is a settle lag.
            shared.settle_lag_reads.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(POLL);
        }
    }
}

// ---------------------------------------------------------------------------
// In process
// ---------------------------------------------------------------------------

fn service_config(ctx: &Ctx) -> ServiceConfig {
    let (shards, workers) = ctx.workload.shape(ctx.nproc);
    ServiceConfig::new(shards).workers_per_platform(workers)
}

/// The smallest job there is: accepting it is the service's first sign of
/// life.
fn probe_spec() -> JobSpec {
    let image = GrayImage::new(8, 8, 128);
    JobSpec::evolution(image.clone(), image)
        .generations(1)
        .seed(1)
        .build()
        .expect("the probe spec is valid")
}

/// Starts the service [`SETUP_REPS`] times, timing `EhwService::new` →
/// first job accepted; returns the [`SETUP_QUANTILE`] of the times.
fn start_service(ctx: &Ctx) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let service = EhwService::new(service_config(ctx)).map_err(|e| e.to_string())?;
        let handle = service.submit(probe_spec()).map_err(|e| e.to_string())?;
        times.push(start.elapsed().as_secs_f64());
        handle.wait().map_err(|e| e.to_string())?;
    }
    Ok(quantile(&times, SETUP_QUANTILE))
}

/// [`warm_up`] for the in-process service: untimed cache-filling jobs, one
/// at a time, until the fitness cache is full; then this process's peak RSS
/// restarts.  The workload's own jobs would take tens of seconds to fill it
/// (only its evolutions use the cache).
fn warm_up_service(ctx: &Ctx, service: &EhwService) -> Result<(), String> {
    let deadline = Instant::now() + WARM_UP_LIMIT;
    let mut index = WARM_UP_BASE;
    while service.stats().cache.fitness_evictions == 0 {
        if Instant::now() > deadline {
            return Err("the warm-up did not fill the fitness cache in time".into());
        }
        let handle = service
            .submit(inputs::cache_fill_job(ctx.seed, index))
            .map_err(|e| format!("warm-up submit: {e}"))?;
        handle.wait().map_err(|e| format!("warm-up: {e}"))?;
        index += 1;
    }
    http::reset_peak_rss("/proc/self")
}

fn measure_in_process(ctx: &Ctx, tracer: &Tracer) -> Result<Run, String> {
    let setup_s = start_service(ctx)?;
    let service = EhwService::new(service_config(ctx)).map_err(|e| e.to_string())?;
    warm_up_service(ctx, &service)?;
    let before = Counters::from_stats(&service.stats());

    // Each result is kept as its (status, wire encoding): whole `JobResult`s
    // for a run's jobs would grow this process's peak RSS with the job
    // count.
    type Settled = (usize, u64, f64, f64, Result<(&'static str, String), String>);
    let (sender, receiver) = mpsc::channel::<(usize, u64, Instant, ehw_service::JobHandle)>();
    let start = Instant::now();
    let stop_at = start + Duration::from_secs_f64(ctx.seconds);
    let limit = start + RUN_LIMIT;
    let rss = &RssProbe::new(ctx.workload, "/proc/self".to_string());
    let mut attempted = 0u64;
    let mut errors = Vec::new();
    let (settled, last_settle) = std::thread::scope(|scope| {
        // One thread waits on the handles in submission order: the single
        // shard runs jobs first in, first out, so each wait returns as its
        // job settles.
        let waiter = scope.spawn(move || {
            let mut settled: Vec<Settled> = Vec::new();
            let mut last = start;
            for (index, root, submitted_at, handle) in receiver {
                let job_id = handle.job_id();
                let wait_id = tracer.id();
                let wait_start = Instant::now();
                let result = handle.wait().map_err(|lost| lost.to_string());
                let end = Instant::now();
                let result = result.map(|r| (status_of(&r), wire::encode_result(&r).to_json()));
                tracer.record(
                    wait_id,
                    "service.wait",
                    index as u64,
                    Some(root),
                    wait_start,
                    end,
                );
                tracer.record(root, "client.job", index as u64, None, submitted_at, end);
                last = end;
                let ms = (end - submitted_at).as_secs_f64() * 1e3;
                settled.push((index, job_id, ms, (end - start).as_secs_f64(), result));
                rss.job_finished();
            }
            (settled, last)
        });
        while rss.go_on(stop_at, limit) {
            let index = attempted as usize;
            attempted += 1;
            // Made here, not ahead: a run's worth of 128×128 specs would
            // dwarf the service in this process's peak RSS.  Building one
            // takes well under a millisecond, mostly while `submit` would
            // block anyway.
            let spec = ctx.job(index).spec();
            let root = tracer.id();
            let submitted_at = Instant::now();
            let submitted = tracer.span("service.submit", index as u64, Some(root), |_| {
                service.submit(spec)
            });
            match submitted {
                Ok(handle) => sender
                    .send((index, root, submitted_at, handle))
                    .expect("the waiter outlives the submissions"),
                Err(error) => {
                    errors.push((index, format!("submit: {error}")));
                    rss.job_finished();
                }
            }
        }
        drop(sender);
        waiter.join().expect("the waiter thread panicked")
    });
    let wall_s = (last_settle - start).as_secs_f64();
    let peak_rss_mb = rss.reading()?;
    let counters = Counters::from_stats(&service.stats()).since(&before);
    drop(service);

    let mut outcomes = Vec::with_capacity(settled.len());
    for (index, job_id, settle_ms, settled_s, result) in settled {
        match result {
            Ok((status, result)) => outcomes.push(Outcome {
                index,
                job_id,
                status: status.to_string(),
                result: json::parse(&result).map_err(|e| e.to_string())?,
                settle_ms,
                settled_s,
                events: http::EventStream::default(),
            }),
            Err(lost) => errors.push((index, lost)),
        }
    }
    Ok(Run {
        setup_s,
        wall_s,
        peak_rss_mb,
        attempted,
        outcomes,
        errors,
        counters,
        ..Run::default()
    })
}

/// The status the server would report for a settled in-process result.
fn status_of(result: &JobResult) -> &'static str {
    if result.is_failed() {
        "failed"
    } else if result.is_cancelled() {
        "cancelled"
    } else {
        "done"
    }
}
