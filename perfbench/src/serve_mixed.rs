//! The `serve_mixed` workload: prf-serve with a warmed result cache and a
//! journal, under an open-loop load of one-job batches.
//!
//! One load-generator thread on one connection submits at a fixed
//! interval. One request in ten misses the cache and simulates a small
//! workload at a fresh seed; the others hit the warmed set. The seed draws
//! the mix. Completion is detected by polling, then the report is fetched.
//! Each request is timed from when it was due, not when it was sent.
//!
//! `audited_tl_4sm`'s traced run reuses the traced loop and the layer
//! probes ([`trace_layers`]) for the serving-path per-layer metrics.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prf_bench::cache::ResultCache;
use prf_bench::digest::job_digest;
use prf_bench::journal::{Journal, Record};
use prf_bench::json::Json;
use prf_bench::runner::{Job, JobOutcome, RetryPolicy};
use prf_bench::serve::{job_from_spec, serve_with_journal, ServeConfig};
use prf_bench::vfs;

use crate::metrics::{Metrics, Scope};
use crate::spans::{SpanId, Tracer};
use crate::stats::{self, Tally};
use crate::{ms, peak_rss_mb, Ctx, Outcome};

/// Offered load, requests per second.
const RATE: f64 = 100.0;
/// One request in this many misses the cache.
const MISS_EVERY: usize = 10;
/// Poll period for an outstanding request; well below a hit's latency.
const POLL_EVERY: Duration = Duration::from_micros(500);
/// How long outstanding requests may take to finish after the schedule.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);
/// Requests served before peak RSS is read. Past this point, where the
/// retained batches land relative to freed 16 MB simulation blocks depends
/// on thread timing, and the high-water mark of 30 s runs varied by a
/// third between runs.
const RSS_AFTER_REQUESTS: usize = 1000;
/// Set-ups per run (each warms a fresh cache); `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The fixed set of specs the cache is warmed with: (workload, rf, seed).
const HIT_SET: [(&str, &str, u64); 16] = [
    ("LIB", "partitioned", 0),
    ("LIB", "RFC", 0),
    ("LIB", "partitioned", 1),
    ("LIB", "RFC", 1),
    ("WP", "partitioned", 0),
    ("WP", "RFC", 0),
    ("WP", "partitioned", 1),
    ("WP", "RFC", 1),
    ("nw", "partitioned", 0),
    ("nw", "RFC", 0),
    ("nw", "partitioned", 1),
    ("nw", "RFC", 1),
    ("sad", "partitioned", 0),
    ("sad", "RFC", 0),
    ("stencil", "partitioned", 0),
    ("stencil", "RFC", 0),
];

/// Workloads a miss simulates (5–30 ms each).
const MISS_WORKLOADS: [&str; 3] = ["LIB", "WP", "nw"];

/// SplitMix64: a small, seedable generator for the schedule.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn spec(workload: &str, rf: &str, seed: u64) -> Json {
    Json::obj()
        .field("workload", workload)
        .field("rf", rf)
        .field("seed", seed)
        .field("audit", true)
}

/// The simulated fields of a fetched result that a cache hit must
/// reproduce exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SimFields {
    cycles: u64,
    instructions: u64,
    energy_bits: [u64; 5],
}

impl SimFields {
    fn of(result: &Json) -> Option<Self> {
        let bits = |k: &str| result.get(k).and_then(Json::as_f64).map(f64::to_bits);
        Some(SimFields {
            cycles: result.get("cycles")?.as_u64()?,
            instructions: result.get("instructions")?.as_u64()?,
            energy_bits: [
                bits("dynamic_energy_pj")?,
                bits("baseline_dynamic_energy_pj")?,
                bits("leakage_energy_pj")?,
                bits("baseline_leakage_energy_pj")?,
                bits("repair_energy_pj")?,
            ],
        })
    }
}

/// One line-protocol connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { writer, reader })
    }

    /// Sends one request and returns the response; `Err` on transport
    /// failure or an `ok:false` answer.
    fn call(&mut self, req: &Json) -> Result<Json, String> {
        let mut line = req.to_json();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
        let doc = Json::parse(&response).map_err(|e| format!("bad response: {e}"))?;
        if doc.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(doc)
        } else {
            Err(doc
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("malformed response")
                .to_string())
        }
    }

    fn submit(&mut self, jobs: Vec<Json>) -> Result<u64, String> {
        let resp = self.call(
            &Json::obj()
                .field("op", "submit")
                .field("jobs", Json::Arr(jobs)),
        )?;
        resp.get("batch")
            .and_then(Json::as_u64)
            .ok_or_else(|| "submit answer has no batch id".into())
    }

    fn poll(&mut self, batch: u64) -> Result<String, String> {
        let resp = self.call(&Json::obj().field("op", "poll").field("batch", batch))?;
        resp.get("state")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| "poll answer has no state".into())
    }

    fn fetch(&mut self, batch: u64) -> Result<Json, String> {
        let resp = self.call(&Json::obj().field("op", "fetch").field("batch", batch))?;
        resp.get("report")
            .cloned()
            .ok_or_else(|| "fetch answer has no report".into())
    }
}

/// A running server over fresh cache and journal directories.
struct Server {
    addr: SocketAddr,
    dir: PathBuf,
    thread: Option<JoinHandle<()>>,
}

impl Server {
    fn start(dir: PathBuf) -> Result<Server, String> {
        let io = |e: std::io::Error| format!("{}: {e}", dir.display());
        let cache = ResultCache::open(dir.join("cache"), vfs::real()).map_err(io)?;
        let journal = Journal::open(&dir.join("journal"), vfs::real()).map_err(io)?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let config = ServeConfig {
            threads: 1,
            policy: RetryPolicy::none(),
            // Far above what 100 req/s can keep in flight: a refusal here
            // would be a stall, and it counts as a failed request.
            max_inflight: 4096,
        };
        let thread = std::thread::spawn(move || {
            serve_with_journal(listener, config, Some(cache), Some(journal));
        });
        Ok(Server {
            addr,
            dir,
            thread: Some(thread),
        })
    }

    fn cache_dir(&self) -> PathBuf {
        self.dir.join("cache")
    }

    /// Drains the server, waits for its thread and removes its files.
    fn stop(mut self) -> Result<(), String> {
        let stopped = Client::connect(self.addr)
            .and_then(|mut c| c.call(&Json::obj().field("op", "shutdown")).map(drop));
        if let Some(thread) = self.thread.take() {
            if stopped.is_ok() {
                thread
                    .join()
                    .map_err(|_| "server thread panicked".to_string())?;
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        stopped
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = Client::connect(self.addr).and_then(|mut c| {
                c.call(&Json::obj().field("op", "shutdown").field("mode", "now"))
            });
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// Submits `specs` as one batch and waits for its report.
fn run_batch(client: &mut Client, specs: Vec<Json>) -> Result<Json, String> {
    let batch = client.submit(specs)?;
    while client.poll(batch)? != "done" {
        std::thread::sleep(Duration::from_millis(1));
    }
    client.fetch(batch)
}

/// The results of a one-job or many-job batch report, requiring every
/// job to have completed with a clean audit.
fn clean_results(report: &Json) -> Result<Vec<(&Json, bool)>, String> {
    let jobs = report
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("report has no results")?;
    jobs.iter()
        .map(|job| {
            let name = job.get("name").and_then(Json::as_str).unwrap_or("?");
            let kind = job
                .get("outcome")
                .and_then(|o| o.get("kind"))
                .and_then(Json::as_str);
            if kind != Some("completed") {
                return Err(format!("{name}: outcome {kind:?}"));
            }
            let result = job.get("result").ok_or("job has no result")?;
            let clean = result
                .get("audit")
                .and_then(|a| a.get("clean"))
                .and_then(Json::as_bool);
            if clean != Some(true) {
                return Err(format!("{name}: audit missing or not clean"));
            }
            let cached = job.get("cached").and_then(Json::as_bool) == Some(true);
            Ok((result, cached))
        })
        .collect()
}

/// A started server with its warmed hit set.
struct Warm {
    server: Server,
    fields: Vec<SimFields>,
}

/// One set-up: resolve and validate the hit set, start a server on fresh
/// directories and warm its cache with the hit set. Returns the warm
/// server and the (total, build, validate) timings.
fn set_up(dir: PathBuf, tracer: &mut Tracer) -> Result<(Warm, [Duration; 3]), String> {
    let t0 = Instant::now();
    let specs: Vec<Json> = HIT_SET.iter().map(|&(w, rf, s)| spec(w, rf, s)).collect();
    let jobs = tracer.time("workloads.build", None, 0, || {
        specs
            .iter()
            .map(job_from_spec)
            .collect::<Result<Vec<Job>, String>>()
    })?;
    let t1 = Instant::now();
    tracer.time("isa.validate", None, 0, || {
        jobs.iter()
            .try_for_each(|j| j.validate().map_err(|e| format!("{}: {e}", j.name)))
    })?;
    let t2 = Instant::now();
    let server = tracer.time("serve.start", None, 0, || Server::start(dir))?;
    let report = tracer.time("cache.warm", None, 0, || {
        let mut client = Client::connect(server.addr)?;
        run_batch(&mut client, specs)
    })?;
    let fields = clean_results(&report)?
        .into_iter()
        .map(|(r, _)| SimFields::of(r).ok_or("warm result lacks simulated fields".to_string()))
        .collect::<Result<Vec<_>, String>>()?;
    let total = t0.elapsed();
    Ok((Warm { server, fields }, [total, t1 - t0, t2 - t1]))
}

/// One scheduled request and what happened to it.
#[derive(Debug, Clone)]
struct Request {
    due: Duration,
    spec: Json,
    /// Index into [`HIT_SET`] for a hit, `None` for a miss.
    hit: Option<usize>,
    /// Delay of the first poll after the submit ack, drawn uniformly from
    /// one poll period so that polling does not quantize the latency.
    poll_phase: Duration,
    sent: Option<Duration>,
    acked: Option<Duration>,
    batch: u64,
    active: Option<Duration>,
    done: Option<Duration>,
    fetch_sent: Option<Duration>,
    fetched: Option<Duration>,
    cached: bool,
    /// Warp instructions and host milliseconds of a simulated miss.
    simulated: Option<(u64, f64)>,
    failed: Option<String>,
}

impl Request {
    fn latency_ms(&self) -> f64 {
        match (self.failed.is_none(), self.fetched) {
            (true, Some(f)) => ms(f - self.due),
            _ => f64::INFINITY,
        }
    }
}

/// The open-loop schedule: `RATE × seconds` requests due at a fixed
/// interval. Each block of [`MISS_EVERY`] consecutive requests holds one
/// miss at a seeded position; the rest hit seeded members of the warmed
/// set. A fixed interval with spread-out misses keeps queueing to what
/// one miss ahead of a request costs, so the figures move with the
/// serving path rather than with how a random draw clustered the misses.
/// `salt` keeps miss seeds fresh across loops on one server.
fn schedule(seed: u64, seconds: u64, salt: u64) -> Vec<Request> {
    let mut rng = Rng(seed ^ 0x5eed_0f5e_7e0e_11ed);
    let n = (RATE * seconds as f64) as usize;
    let mut miss_at = 0;
    (0..n)
        .map(|i| {
            if i % MISS_EVERY == 0 {
                miss_at = i + rng.below(MISS_EVERY);
            }
            let (spec, hit) = if i == miss_at {
                let w = MISS_WORKLOADS[rng.below(MISS_WORKLOADS.len())];
                let rf = ["partitioned", "RFC"][rng.below(2)];
                // Seeds 0 and 1 are warmed; these are far above and
                // unique per request and loop.
                (spec(w, rf, 1_000 + salt * 1_000_000 + i as u64), None)
            } else {
                let k = rng.below(HIT_SET.len());
                let (w, rf, s) = HIT_SET[k];
                (spec(w, rf, s), Some(k))
            };
            let poll_phase = POLL_EVERY.mul_f64(rng.below(1000) as f64 / 1000.0);
            Request {
                due: Duration::from_secs_f64(i as f64 / RATE),
                spec,
                hit,
                poll_phase,
                sent: None,
                acked: None,
                batch: 0,
                active: None,
                done: None,
                fetch_sent: None,
                fetched: None,
                cached: false,
                simulated: None,
                failed: None,
            }
        })
        .collect()
}

/// Checks a fetched one-job report against the request.
fn check_report(req: &mut Request, report: &Json, warm: &[SimFields]) -> Result<(), String> {
    let results = clean_results(report)?;
    let [(result, cached)] = results[..] else {
        return Err(format!("expected one job, report has {}", results.len()));
    };
    req.cached = cached;
    let fields = SimFields::of(result).ok_or("result lacks simulated fields")?;
    if let Some(k) = req.hit {
        if !cached {
            return Err("warmed spec was not served from the cache".into());
        }
        if fields != warm[k] {
            return Err("cache hit differs from the fields recorded at warm-up".into());
        }
    } else if !cached {
        let phases = result.get("phases").ok_or("result has no phases")?;
        let host_ms: f64 = ["setup_ms", "simulate_ms", "energy_ms", "audit_ms"]
            .iter()
            .map(|k| phases.get(k).and_then(Json::as_f64).unwrap_or(0.0))
            .sum();
        req.simulated = Some((fields.instructions, host_ms));
    }
    Ok(())
}

/// What one open loop hands back.
struct LoopRun {
    /// The requests with their timings.
    reqs: Vec<Request>,
    /// The last fetched report, kept for the JSON probe.
    last_report: Option<Json>,
    /// Peak RSS after [`RSS_AFTER_REQUESTS`] fetches (or at the end).
    rss_mb: f64,
}

/// Drives one open loop on `client`.
fn open_loop(client: &mut Client, mut reqs: Vec<Request>, warm: &[SimFields]) -> LoopRun {
    // A short lead so the first due time is not already past.
    let start = Instant::now() + Duration::from_millis(20);
    let at = |t: Duration| start + t;
    let now = || Instant::now().saturating_duration_since(start);
    let end = reqs.last().map_or(Duration::ZERO, |r| r.due) + DRAIN_LIMIT;
    let mut next = 0;
    // The server runs batches in submission order on one worker, so only
    // the oldest outstanding request is polled; when it finishes, the
    // next one is polled at once.
    let mut outstanding: VecDeque<usize> = VecDeque::new();
    let mut next_poll = Duration::ZERO;
    let mut last_report = None;
    let mut fetched = 0;
    let mut rss_mb = None;
    loop {
        let t = now();
        if next < reqs.len() && reqs[next].due <= t {
            let r = &mut reqs[next];
            r.sent = Some(t);
            match client.submit(vec![r.spec.clone()]) {
                Ok(batch) => {
                    let acked = now();
                    r.acked = Some(acked);
                    r.batch = batch;
                    if outstanding.is_empty() {
                        next_poll = acked + r.poll_phase;
                    }
                    outstanding.push_back(next);
                }
                Err(e) => r.failed = Some(format!("submit: {e}")),
            }
            next += 1;
            continue;
        }
        if next == reqs.len() && outstanding.is_empty() {
            break;
        }
        if t > end {
            for &i in &outstanding {
                reqs[i].failed = Some("did not finish before the drain limit".into());
            }
            break;
        }
        if let Some(&i) = outstanding.front().filter(|_| next_poll <= t) {
            let r = &mut reqs[i];
            let state = client.poll(r.batch);
            let seen = now();
            next_poll = seen + POLL_EVERY;
            let finished = match state.as_deref() {
                Ok("queued") => false,
                Ok("running") => {
                    r.active.get_or_insert(seen);
                    false
                }
                Ok("done") => {
                    r.active.get_or_insert(seen);
                    r.done = Some(seen);
                    r.fetch_sent = Some(now());
                    match client.fetch(r.batch) {
                        Ok(report) => {
                            r.fetched = Some(now());
                            fetched += 1;
                            if fetched == RSS_AFTER_REQUESTS {
                                rss_mb = Some(peak_rss_mb());
                            }
                            if let Err(e) = check_report(r, &report, warm) {
                                r.failed = Some(e);
                            }
                            last_report = Some(report);
                        }
                        Err(e) => r.failed = Some(format!("fetch: {e}")),
                    }
                    true
                }
                Ok(other) => {
                    r.failed = Some(format!("poll: unknown state {other:?}"));
                    true
                }
                Err(e) => {
                    r.failed = Some(format!("poll: {e}"));
                    true
                }
            };
            if finished {
                outstanding.pop_front();
                next_poll = now();
            }
            continue;
        }
        let wake = outstanding
            .front()
            .map(|_| next_poll)
            .into_iter()
            .chain((next < reqs.len()).then(|| reqs[next].due))
            .min()
            .unwrap_or(end);
        let wait = at(wake).saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }
    LoopRun {
        reqs,
        last_report,
        rss_mb: rss_mb.unwrap_or_else(peak_rss_mb),
    }
}

/// Records one request's spans: the request from due to fetched, and
/// under it the generator's lateness, the submit round trip, the queue
/// wait, the run and the fetch round trip.
fn record_request(tracer: &mut Tracer, origin: Duration, id: u64, r: &Request) {
    let (Some(sent), Some(acked), Some(fetched)) = (r.sent, r.acked, r.fetched) else {
        return;
    };
    let (active, done, fetch_sent) = (
        r.active.unwrap_or(acked),
        r.done.unwrap_or(fetched),
        r.fetch_sent.unwrap_or(fetched),
    );
    let o = |d: Duration| origin + d;
    let parent: Option<SpanId> =
        tracer.record_offsets("serve.request", o(r.due), o(fetched), None, id);
    for (name, a, b) in [
        ("loadgen.late", r.due, sent),
        ("serve.submit", sent, acked),
        ("serve.queue", acked, active),
        ("serve.run", active, done),
        ("serve.fetch", fetch_sent, fetched),
    ] {
        tracer.record_offsets(name, o(a), o(b), parent, id);
    }
}

/// Summary of one open loop.
struct LoopStats {
    latencies: Vec<f64>,
    hit_frac: f64,
    kwips: f64,
    backlog_end: usize,
}

fn summarize(reqs: &[Request], seconds: u64, tally: &mut Tally) -> LoopStats {
    for (i, r) in reqs.iter().enumerate() {
        if let Some(e) = &r.failed {
            eprintln!("serve_mixed: request {i}: {e}");
        }
        tally.record(r.failed.is_none());
    }
    let fetched = reqs.iter().filter(|r| r.fetched.is_some()).count();
    let hits = reqs.iter().filter(|r| r.cached).count();
    let (insts, host_ms) = reqs
        .iter()
        .filter_map(|r| r.simulated)
        .fold((0u64, 0.0), |(i, h), (di, dh)| (i + di, h + dh));
    let window = Duration::from_secs(seconds);
    LoopStats {
        latencies: reqs.iter().map(Request::latency_ms).collect(),
        hit_frac: hits as f64 / fetched.max(1) as f64,
        kwips: insts as f64 / host_ms,
        backlog_end: reqs
            .iter()
            .filter(|r| r.fetched.is_none_or(|f| f > window))
            .count(),
    }
}

fn scratch_dir(seed: u64, tag: &str) -> PathBuf {
    Ctx::out_dir().join(format!("serve-{}-seed{seed}-{tag}", std::process::id()))
}

/// Pins glibc's malloc to one arena with fixed mmap and trim thresholds;
/// call while no other thread is running. By default glibc gives short-lived
/// threads (the runner spawns one per batch) arenas of their own and moves
/// its mmap threshold as blocks are freed, so whether a miss's 16 MB
/// global memory lands in an already-touched heap region depends on
/// thread timing: peak RSS then jumps between runs in 16 MB steps. The
/// fixed thresholds keep the steady state default glibc reaches after the
/// first job (the block is a reused heap chunk that `calloc` clears), so
/// that clearing cost stays in the measured time.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    const M_ARENA_MAX: c_int = -8;
    for (param, value) in [
        (M_ARENA_MAX, 1),
        (M_MMAP_THRESHOLD, 32 << 20),
        (M_TRIM_THRESHOLD, 256 << 20),
    ] {
        // SAFETY: mallopt only changes glibc allocator tunables. It runs
        // first thing in main, before any other thread can allocate, and
        // each value is inside the range glibc accepts for its parameter
        // (32 MiB is the largest mmap threshold it allows).
        if unsafe { mallopt(param, value) } != 1 {
            eprintln!("mallopt({param}, {value}) was refused; peak RSS may vary between runs");
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

/// Runs the `serve_mixed` workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    pin_allocator();
    let mut tracer = Tracer::new(ctx.trace);
    let mut timings: [Vec<f64>; 3] = Default::default();
    let mut warm: Option<Warm> = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = warm.take() {
            previous.server.stop()?;
        }
        let (w, t) = set_up(scratch_dir(ctx.seed, &format!("setup{rep}")), &mut tracer)?;
        for (v, d) in timings.iter_mut().zip(t) {
            v.push(d.as_secs_f64());
        }
        warm = Some(w);
    }
    let Warm { server, fields } = warm.expect("at least one set-up");
    let [setup_s, build_s, validate_s] = timings.map(|v| stats::median(&v));

    let mut tally = Tally::default();
    let mut client = Client::connect(server.addr)?;
    let run = open_loop(&mut client, schedule(ctx.seed, ctx.seconds, 0), &fields);
    let reqs = run.reqs;
    let untraced = summarize(&reqs, ctx.seconds, &mut tally);
    let tail = stats::tail(&untraced.latencies);
    let mut notes = vec![format!(
        "serve_mixed: {} requests at {RATE} req/s ({:.0}% hits); latency tail is p{} of {} samples",
        reqs.len(),
        untraced.hit_frac * 100.0,
        tail.pct,
        tail.samples
    )];

    let metrics = if !ctx.trace {
        let mut m = Metrics::end_to_end();
        m.set("setup_s", setup_s);
        m.set("sim_kwips", untraced.kwips);
        m.set("latency_p50_ms", stats::median(&untraced.latencies));
        m.set("latency_tail_ms", tail.value);
        m.set("peak_rss_mb", run.rss_mb);
        m.set("ok_frac", tally.ok_frac());
        m
    } else {
        let mut m = Metrics::per_layer(|s| matches!(s, Scope::All | Scope::Serve));
        m.set("workloads.build_ms", build_s * 1e3);
        m.set("isa.validate_ms", validate_s * 1e3);
        m.set("latency.samples", tail.samples as f64);
        m.set("latency.tail_pct", tail.pct);
        let traced = serve_layers(
            ctx.seed,
            ctx.seconds,
            &server,
            &fields,
            &mut client,
            &mut tracer,
            &mut tally,
            &mut m,
        )?;
        let untraced_p50 = stats::median(&untraced.latencies);
        m.set(
            "trace.overhead_frac",
            (stats::median(&traced) - untraced_p50) / untraced_p50,
        );
        m
    };
    drop(client);
    server.stop()?;
    if ctx.trace {
        let path = ctx.trace_path("serve_mixed");
        tracer
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!(
            "trace: {} spans in {}",
            tracer.spans().len(),
            path.display()
        ));
    }
    Ok(Outcome {
        tally,
        metrics,
        notes,
    })
}

/// Runs the same load again with every request's spans recorded, then
/// probes the serving path's layers directly; sets every serving-path
/// per-layer metric and returns the traced loop's latencies.
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    seed: u64,
    seconds: u64,
    server: &Server,
    warm: &[SimFields],
    client: &mut Client,
    tracer: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<Vec<f64>, String> {
    let origin = tracer.offset(Instant::now());
    let LoopRun {
        reqs, last_report, ..
    } = open_loop(client, schedule(seed, seconds, 1), warm);
    let traced = summarize(&reqs, seconds, tally);
    for (i, r) in reqs.iter().enumerate() {
        record_request(tracer, origin, i as u64 + 1, r);
    }
    let p50 = |name: &str| stats::median(&tracer.durations(name)) * 1e3;
    let tail_of = |name: &str| stats::tail(&tracer.durations(name)).value * 1e3;
    m.set("serve.submit_rtt_ms", p50("serve.submit"));
    m.set("serve.fetch_rtt_ms", p50("serve.fetch"));
    m.set("serve.queue_ms", tail_of("serve.queue"));
    m.set("serve.run_ms", tail_of("serve.run"));
    let mut late = tracer.durations("loadgen.late");
    late.sort_by(f64::total_cmp);
    m.set(
        "loadgen.late_p99_ms",
        stats::percentile_sorted(&late, 99.0) * 1e3,
    );
    m.set("loadgen.backlog_end", traced.backlog_end as f64);
    m.set("cache.hit_frac", traced.hit_frac);
    let kind_p50 = |hit: bool| {
        let v: Vec<f64> = reqs
            .iter()
            .filter(|r| r.hit.is_some() == hit)
            .map(Request::latency_ms)
            .collect();
        stats::median(&v)
    };
    m.set("serve.hit_p50_ms", kind_p50(true));
    m.set("serve.miss_p50_ms", kind_p50(false));
    let report = last_report.ok_or("the traced loop fetched no report")?;
    probe_layers(seed, server, &reqs, &report, tracer, m)?;
    Ok(traced.latencies)
}

/// The serving path's per-layer measurement inside another workload's
/// traced run: one set-up, one traced open loop of `seconds`, and the
/// direct layer probes.
pub fn trace_layers(
    seed: u64,
    seconds: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    pin_allocator();
    let (Warm { server, fields }, _) = set_up(scratch_dir(seed, "layers"), tracer)?;
    let mut client = Client::connect(server.addr)?;
    serve_layers(
        seed,
        seconds,
        &server,
        &fields,
        &mut client,
        tracer,
        tally,
        m,
    )?;
    drop(client);
    server.stop()
}

/// Times the serving path's layers by calling their public functions
/// directly on the same job mix: digest, cache load and store, report
/// rendering and journal append.
fn probe_layers(
    seed: u64,
    server: &Server,
    reqs: &[Request],
    report: &Json,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let mix: Vec<Job> = reqs
        .iter()
        .map(|r| job_from_spec(&r.spec))
        .collect::<Result<_, _>>()?;
    let probe = tracer.open("probe", None, 0);

    let mut digests = Vec::with_capacity(mix.len());
    for job in &mix {
        digests.push(tracer.time("digest.job", probe, 0, || job_digest(job)));
    }

    // Every hit of the mix, twice over, so the p99 has ten samples beyond.
    let cache = ResultCache::open(server.cache_dir(), vfs::real()).map_err(|e| e.to_string())?;
    let mut loaded = Vec::new();
    for _ in 0..2 {
        for (r, (job, digest)) in reqs.iter().zip(mix.iter().zip(&digests)) {
            if r.hit.is_none() {
                continue;
            }
            let hit = tracer.time("cache.load", probe, 0, || cache.load(digest, job));
            let hit = hit.ok_or_else(|| format!("{}: warmed entry did not load", job.name))?;
            if loaded.len() < HIT_SET.len() {
                loaded.push((job.clone(), digest.clone(), hit));
            }
        }
    }

    let store_dir = scratch_dir(seed, "store-probe");
    let store = ResultCache::open(&store_dir, vfs::real()).map_err(|e| e.to_string())?;
    for _ in 0..4 {
        for (job, digest, hit) in &loaded {
            let ok = tracer.time("cache.store", probe, 0, || {
                store.store(
                    digest,
                    job,
                    &JobOutcome::Completed,
                    hit.elapsed,
                    &hit.result,
                )
            });
            if !ok {
                return Err(format!("{}: probe store failed", job.name));
            }
        }
    }

    for _ in 0..mix.len() {
        tracer.time("json.report", probe, 0, || report.to_json());
    }

    let journal_dir = scratch_dir(seed, "journal-probe");
    let (mut journal, _) = Journal::open(&journal_dir, vfs::real()).map_err(|e| e.to_string())?;
    for (i, r) in reqs.iter().enumerate() {
        let record = Record::Submit {
            batch: i as u64,
            jobs: vec![r.spec.clone()],
        };
        tracer
            .time("journal.append", probe, 0, || journal.append(&record))
            .map_err(|e| format!("journal probe: {e}"))?;
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&journal_dir);
    tracer.close(probe);

    let us = |name: &str, pct: Option<f64>| {
        let mut v = tracer.durations(name);
        v.sort_by(f64::total_cmp);
        stats::percentile_sorted(&v, pct.unwrap_or(50.0)) * 1e6
    };
    m.set("digest.job_us", us("digest.job", None));
    m.set("cache.load_p50_us", us("cache.load", None));
    m.set("cache.load_p99_us", us("cache.load", Some(99.0)));
    m.set("cache.store_ms", us("cache.store", None) / 1e3);
    m.set("json.report_us", us("json.report", None));
    m.set("journal.append_p50_us", us("journal.append", None));
    m.set("journal.append_p99_us", us("journal.append", Some(99.0)));
    Ok(())
}
