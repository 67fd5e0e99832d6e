//! Serve-many front end: a line-oriented job server over TCP.
//!
//! `prf-serve` turns the resilient matrix runner plus the on-disk result
//! cache into a long-lived experiment service. Clients connect over TCP
//! and speak a newline-delimited JSON protocol — one request object per
//! line, one response object per line:
//!
//! | request                                   | response                                     |
//! |-------------------------------------------|----------------------------------------------|
//! | `{"op":"ping"}`                           | `{"ok":true,"pong":true,"version":1}`        |
//! | `{"op":"submit","jobs":[<spec>,…]}`       | `{"ok":true,"batch":N,"jobs":K}`             |
//! | `{"op":"poll","batch":N}`                 | `{"ok":true,"state":"queued"\|"running"\|"done"}` |
//! | `{"op":"fetch","batch":N}`                | `{"ok":true,"report":{…}}` once done         |
//! | `{"op":"status"}`                         | `{"ok":true,"recovered_batches":N,"durable":…,"inflight":K}` |
//! | `{"op":"shutdown"}`                       | `{"ok":true,"stopping":true,"mode":"drain"}` |
//! | `{"op":"shutdown","mode":"now"}`          | `{"ok":true,"stopping":true,"mode":"now"}`   |
//!
//! Any error — unknown op, malformed spec, unknown batch, server at
//! capacity — comes back as `{"ok":false,"error":"…"}` on the same line;
//! the connection stays usable. Two exceptions close the connection
//! after the error: a request line longer than [`MAX_LINE_BYTES`]
//! (bounds memory against oversized or slow-loris clients), and I/O
//! failure on the socket itself. A client that disconnects mid-protocol
//! only takes its own handler thread down — submitted batches keep
//! running and any other client can poll/fetch them.
//!
//! A job spec selects everything the simulator needs by name:
//!
//! ```json
//! {"workload":"BFS","rf":"partitioned","scheduler":"GTO",
//!  "seed":2,"audit":true,"faults":"42,0.3"}
//! ```
//!
//! `workload` resolves through [`prf_workloads::suite::by_name`]; `rf`
//! through [`rf_by_name`] (paper-default configurations); `scheduler`
//! (default `GTO`), `seed` (default 0), `audit` (default false) and
//! `faults` (`"<seed>,<vdd>"`, default none) are optional. So are the
//! machine overrides `max_cycles` and `rf_registers`: they pass name
//! resolution unchecked, so a hostile combination (say `rf_registers`
//! below the workload's footprint) flows to the runner's admission
//! check and comes back in the batch report as a structured
//! `{"kind":"rejected"}` outcome instead of wasting a retry budget.
//!
//! Batches execute in submission order on a single worker thread that
//! drives [`runner::run_matrix_resilient_configured`] — so every batch
//! gets the full worker pool, the retry/watchdog policy, and the result
//! cache ([`ResultCache::open_or_disable`]) for free. In-flight batching is
//! bounded: at most [`ServeConfig::max_inflight`] batches may be queued
//! or running at once; submissions beyond that are refused with a
//! capacity error rather than queued without bound. `shutdown` is
//! graceful by default — the listener stops accepting, queued batches
//! drain, and [`serve_with_journal`] returns;
//! `{"op":"shutdown","mode":"now"}` skips the drain (the batch already
//! running finishes; queued batches are left to the journal).
//!
//! ## Durability
//!
//! With `PRF_JOURNAL_DIR` set (see [`crate::journal`]), every accepted
//! submit is journaled *before* it is acknowledged, and on startup
//! [`serve_with_journal`] re-enqueues every batch the journal shows as
//! unfinished — `{"op":"status"}` reports how many. A journal append
//! failure mid-flight does not refuse traffic: the server drops to a
//! loud non-durable mode (`"durable":false` in `status`, a diagnostic
//! per lost append on stderr) and keeps serving from memory.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use prf_core::{DrowsyConfig, FaultConfig, PartitionedRfConfig, RfKind, RfcConfig};
use prf_sim::{GpuConfig, SchedulerPolicy};
use prf_workloads::Workload;

use crate::bench_report::{outcome_json, result_json};
use crate::cache::ResultCache;
use crate::journal::{Journal, Record, Recovery};
use crate::json::Json;
use crate::runner::{self, Job, RetryPolicy};

/// Version of the line protocol, reported by `ping`. Bump on breaking
/// changes to request or response shapes.
pub const PROTOCOL_VERSION: u64 = 1;

/// Maximum accepted request-line length in bytes. Far above any real
/// submit (a full-suite batch is a few KB) while bounding what one
/// client can make the server buffer; longer lines get a structured
/// error and the connection is closed.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Tunables for one [`serve_with_journal`] call.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads for each batch's matrix run.
    pub threads: usize,
    /// Retry/watchdog policy applied to every job.
    pub policy: RetryPolicy,
    /// Maximum batches queued-or-running at once; further submissions
    /// are refused with a capacity error.
    pub max_inflight: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            policy: RetryPolicy::none(),
            max_inflight: 4,
        }
    }
}

/// Resolves an RF organisation by report name, using the paper-default
/// configuration for parameterised kinds. Accepted names (ASCII
/// case-insensitive): `MRF@STV`, `MRF@NTV`, `partitioned`,
/// `partitioned-plain` (no adaptive FRF), `RFC`, `drowsy`.
///
/// The models take the bank count and warp slots from the machine they
/// run on, so `_gpu` is unused. It is kept only because the repository
/// benchmark (`perfbench/src/matrix.rs`) calls this function; it goes
/// when that benchmark next changes.
pub fn rf_by_name(name: &str, _gpu: &GpuConfig) -> Option<RfKind> {
    let n = name.trim();
    let eq = |s: &str| n.eq_ignore_ascii_case(s);
    if eq("MRF@STV") {
        Some(RfKind::MrfStv)
    } else if eq("MRF@NTV") {
        Some(RfKind::MrfNtv { latency: 3 })
    } else if eq("partitioned") {
        Some(RfKind::Partitioned(PartitionedRfConfig::paper_default()))
    } else if eq("partitioned-plain") {
        Some(RfKind::Partitioned(PartitionedRfConfig::without_adaptive()))
    } else if eq("RFC") {
        Some(RfKind::Rfc(RfcConfig::paper_default()))
    } else if eq("drowsy") {
        Some(RfKind::Drowsy(DrowsyConfig::paper_adjacent()))
    } else {
        None
    }
}

fn scheduler_by_name(name: &str) -> Option<SchedulerPolicy> {
    if name.eq_ignore_ascii_case("GTO") {
        Some(SchedulerPolicy::Gto)
    } else if name.eq_ignore_ascii_case("LRR") {
        Some(SchedulerPolicy::Lrr)
    } else {
        None
    }
}

/// The inputs the jobs of one batch share: each distinct workload and
/// fault map is built once, and every job naming it holds the same
/// `Arc`ed kernels, memory image and map.
#[derive(Default)]
struct BatchInputs {
    /// Keyed by the lower-cased requested name (lookup is
    /// case-insensitive).
    workloads: HashMap<String, Workload>,
    /// Keyed by `(fault seed, vdd bits)`.
    faults: HashMap<(u64, u64), FaultConfig>,
}

impl BatchInputs {
    fn workload(&mut self, name: &str) -> Result<Workload, String> {
        let key = name.to_ascii_lowercase();
        if let Some(w) = self.workloads.get(&key) {
            return Ok(w.clone());
        }
        let w = prf_workloads::suite::by_name(name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?;
        self.workloads.insert(key, w.clone());
        Ok(w)
    }

    fn faults(&mut self, seed: u64, vdd: f64) -> FaultConfig {
        self.faults
            .entry((seed, vdd.to_bits()))
            .or_insert_with(|| crate::fault_config_for(seed, vdd))
            .clone()
    }
}

/// Builds a [`Job`] from one protocol job spec. Errors name the offending
/// field so the client can fix its request.
pub fn job_from_spec(spec: &Json) -> Result<Job, String> {
    parse_job(spec, &mut BatchInputs::default())
}

/// Builds the jobs of one batch, building each distinct workload and
/// fault map once for the whole batch. An error names the index of the
/// first job that fails and the offending field.
pub fn jobs_from_specs(specs: &[Json]) -> Result<Vec<Job>, String> {
    let mut inputs = BatchInputs::default();
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| parse_job(spec, &mut inputs).map_err(|e| format!("job {i}: {e}")))
        .collect()
}

fn parse_job(spec: &Json, inputs: &mut BatchInputs) -> Result<Job, String> {
    let workload_name = spec
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("job spec needs a string `workload` field")?;
    let workload = inputs.workload(workload_name)?;

    let scheduler = match spec.get("scheduler") {
        None => SchedulerPolicy::Gto,
        Some(s) => {
            let name = s.as_str().ok_or("`scheduler` must be a string")?;
            scheduler_by_name(name).ok_or_else(|| format!("unknown scheduler {name:?}"))?
        }
    };
    let seed = match spec.get("seed") {
        None => 0,
        Some(s) => s.as_u64().ok_or("`seed` must be a non-negative integer")?,
    };
    let audit = match spec.get("audit") {
        None => false,
        Some(a) => a.as_bool().ok_or("`audit` must be a boolean")?,
    };
    let mut gpu = GpuConfig {
        scheduler,
        jitter_seed: seed,
        audit,
        ..GpuConfig::kepler_single_sm()
    };
    // Machine overrides are deliberately *not* sanity-checked here: the
    // runner's admission check owns that judgement, and an impossible
    // value must surface as a structured `rejected` outcome in the batch
    // report rather than a submit-time parse error.
    if let Some(v) = spec.get("max_cycles") {
        gpu.max_cycles = v
            .as_u64()
            .ok_or("`max_cycles` must be a non-negative integer")?;
    }
    if let Some(v) = spec.get("rf_registers") {
        let regs = v
            .as_u64()
            .ok_or("`rf_registers` must be a non-negative integer")?;
        gpu.rf_registers = usize::try_from(regs).map_err(|_| "`rf_registers` is out of range")?;
    }

    let rf_name = spec
        .get("rf")
        .and_then(Json::as_str)
        .ok_or("job spec needs a string `rf` field")?;
    let rf = rf_by_name(rf_name, &gpu).ok_or_else(|| format!("unknown rf {rf_name:?}"))?;

    let faults = match spec.get("faults") {
        None => None,
        Some(f) => {
            let spec = f
                .as_str()
                .ok_or("`faults` must be a `\"<seed>,<vdd>\"` string")?;
            let (fault_seed, vdd) =
                crate::parse_faults_spec(spec).map_err(|e| format!("bad `faults`: {e}"))?;
            Some(inputs.faults(fault_seed, vdd))
        }
    };

    Ok(Job::new(
        format!("{}/{}/seed{}", workload.name, rf.name(), seed),
        &workload,
        &gpu,
        &rf,
    )
    .with_faults(faults))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatchState {
    Queued,
    Running,
    Done,
}

impl BatchState {
    fn name(self) -> &'static str {
        match self {
            BatchState::Queued => "queued",
            BatchState::Running => "running",
            BatchState::Done => "done",
        }
    }
}

struct Batch {
    id: u64,
    jobs: Vec<Job>,
    state: BatchState,
    report: Option<Json>,
}

/// How the server was asked to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum StopMode {
    /// Not stopping.
    #[default]
    No,
    /// Graceful: queued batches drain before [`serve_with_journal`] returns.
    Drain,
    /// Immediate: the running batch (if any) finishes — a matrix run
    /// cannot be interrupted — but queued batches are left to the
    /// journal for the next start.
    Now,
}

#[derive(Default)]
struct ServerState {
    batches: Vec<Batch>,
    queue: VecDeque<usize>,
    next_id: u64,
    stop: StopMode,
    /// Batches re-enqueued from the journal at startup.
    recovered: u64,
}

impl ServerState {
    fn inflight(&self) -> usize {
        self.batches
            .iter()
            .filter(|b| b.state != BatchState::Done)
            .count()
    }

    fn find(&self, id: u64) -> Option<usize> {
        self.batches.iter().position(|b| b.id == id)
    }
}

struct Shared {
    state: Mutex<ServerState>,
    work: Condvar,
    /// The write-ahead log, if `PRF_JOURNAL_DIR` is configured. Set to
    /// `None` by [`Shared::journal_append`] after the first append
    /// failure: the server keeps serving, loudly non-durable.
    journal: Mutex<Option<Journal>>,
    /// False while the journal is absent or has failed. Reported by
    /// `{"op":"status"}` (as `null` when no journal was configured).
    durable: AtomicBool,
    /// Whether a journal was configured at startup at all.
    journaled: bool,
}

impl Shared {
    /// Appends to the journal if one is (still) active. The first
    /// failure drops the journal and flips the server to non-durable
    /// mode — a degraded server is better than a refused batch, but the
    /// degradation must be loud.
    ///
    /// Lock order: callers may hold `state` while calling this (submit
    /// does, so its `Submit` record always precedes the worker's
    /// `BatchDone`); nothing acquires `state` while holding `journal`.
    fn journal_append(&self, record: &Record) {
        let mut guard = self.journal.lock().unwrap();
        if let Some(journal) = guard.as_mut() {
            if let Err(e) = journal.append(record) {
                eprintln!(
                    "prf-serve: journal append failed ({e}); continuing WITHOUT durability — \
                     batches submitted from now on will not survive a crash"
                );
                *guard = None;
                self.durable.store(false, Ordering::SeqCst);
            }
        }
    }
}

fn batch_report_json(batch_id: u64, outcome: &runner::MatrixOutcome) -> Json {
    let jobs: Vec<Json> = outcome
        .reports
        .iter()
        .map(|r| {
            Json::obj()
                .field("name", r.name.as_str())
                .field("outcome", outcome_json(&r.outcome))
                .field("cached", r.cached.map_or(Json::Null, Json::Bool))
                .field("result", r.result.as_ref().map_or(Json::Null, result_json))
        })
        .collect();
    let failed = outcome
        .reports
        .iter()
        .filter(|r| r.result.is_none())
        .count();
    let hits = outcome
        .reports
        .iter()
        .filter(|r| r.cached == Some(true))
        .count();
    Json::obj()
        .field("batch", batch_id)
        .field("jobs", outcome.reports.len() as u64)
        .field("failed_jobs", failed as u64)
        .field("cache_hits", hits as u64)
        .field("results", Json::Arr(jobs))
}

fn worker_loop(shared: &Shared, config: &ServeConfig, cache: Option<&ResultCache>) {
    loop {
        let (slot, batch_id, jobs) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.stop == StopMode::Now {
                    // Immediate shutdown: leave queued batches to the
                    // journal — their Submit records have no BatchDone,
                    // so the next start re-enqueues them.
                    return;
                }
                if let Some(slot) = st.queue.pop_front() {
                    st.batches[slot].state = BatchState::Running;
                    break (slot, st.batches[slot].id, st.batches[slot].jobs.clone());
                }
                if st.stop == StopMode::Drain {
                    return;
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        let outcome = runner::run_matrix_resilient_configured(
            &jobs,
            config.policy,
            config.threads,
            None,
            cache,
        );
        let mut st = shared.state.lock().unwrap();
        let report = batch_report_json(st.batches[slot].id, &outcome);
        st.batches[slot].report = Some(report);
        st.batches[slot].state = BatchState::Done;
        drop(st);
        // BatchDone is appended *after* the report is visible and with
        // no state lock held. A crash between the two re-enqueues an
        // already-finished batch on restart — it replays through the
        // warmed cache, which is exactly-once's cheap half.
        shared.journal_append(&Record::BatchDone { batch: batch_id });
        shared.work.notify_all();
    }
}

fn handle_request(req: &Json, shared: &Shared, config: &ServeConfig) -> (Json, bool) {
    let err = |msg: String| (Json::obj().field("ok", false).field("error", msg), false);
    let Some(op) = req.get("op").and_then(Json::as_str) else {
        return err("request needs a string `op` field".into());
    };
    match op {
        "ping" => (
            Json::obj()
                .field("ok", true)
                .field("pong", true)
                .field("version", PROTOCOL_VERSION),
            false,
        ),
        "submit" => {
            let Some(specs) = req.get("jobs").and_then(Json::as_arr) else {
                return err("submit needs a `jobs` array".into());
            };
            if specs.is_empty() {
                return err("submit needs at least one job".into());
            }
            let jobs = match jobs_from_specs(specs) {
                Ok(jobs) => jobs,
                Err(e) => return err(e),
            };
            let mut st = shared.state.lock().unwrap();
            if st.stop != StopMode::No {
                return err("server is shutting down".into());
            }
            if st.inflight() >= config.max_inflight {
                return err(format!(
                    "server at capacity ({} batches in flight); retry after a poll shows `done`",
                    config.max_inflight
                ));
            }
            let id = st.next_id;
            st.next_id += 1;
            let count = jobs.len();
            st.batches.push(Batch {
                id,
                jobs,
                state: BatchState::Queued,
                report: None,
            });
            let slot = st.batches.len() - 1;
            st.queue.push_back(slot);
            // Journal the raw specs before the submit is acknowledged,
            // inside the state lock so the Submit record always precedes
            // the worker's BatchDone record for this batch.
            shared.journal_append(&Record::Submit {
                batch: id,
                jobs: specs.to_vec(),
            });
            drop(st);
            shared.work.notify_all();
            (
                Json::obj()
                    .field("ok", true)
                    .field("batch", id)
                    .field("jobs", count as u64),
                false,
            )
        }
        "poll" | "fetch" => {
            let Some(id) = req.get("batch").and_then(Json::as_u64) else {
                return err(format!("{op} needs a numeric `batch` field"));
            };
            let st = shared.state.lock().unwrap();
            let Some(slot) = st.find(id) else {
                return err(format!("unknown batch {id}"));
            };
            let batch = &st.batches[slot];
            if op == "poll" {
                (
                    Json::obj()
                        .field("ok", true)
                        .field("batch", id)
                        .field("state", batch.state.name()),
                    false,
                )
            } else {
                match &batch.report {
                    Some(report) => (
                        Json::obj()
                            .field("ok", true)
                            .field("report", report.clone()),
                        false,
                    ),
                    None => err(format!(
                        "batch {id} is {}; fetch only after poll reports `done`",
                        batch.state.name()
                    )),
                }
            }
        }
        "status" => {
            let st = shared.state.lock().unwrap();
            let durable = if shared.journaled {
                Json::Bool(shared.durable.load(Ordering::SeqCst))
            } else {
                Json::Null
            };
            (
                Json::obj()
                    .field("ok", true)
                    .field("version", PROTOCOL_VERSION)
                    .field("recovered_batches", st.recovered)
                    .field("inflight", st.inflight() as u64)
                    .field("durable", durable),
                false,
            )
        }
        "shutdown" => {
            let mode = match req.get("mode") {
                None => StopMode::Drain,
                Some(m) => match m.as_str() {
                    Some("drain") => StopMode::Drain,
                    Some("now") => StopMode::Now,
                    _ => return err("`mode` must be \"drain\" or \"now\"".into()),
                },
            };
            let mut st = shared.state.lock().unwrap();
            // An immediate shutdown is never downgraded by a later
            // graceful request.
            if st.stop != StopMode::Now {
                st.stop = mode;
            }
            drop(st);
            shared.work.notify_all();
            (
                Json::obj().field("ok", true).field("stopping", true).field(
                    "mode",
                    if mode == StopMode::Now {
                        "now"
                    } else {
                        "drain"
                    },
                ),
                true,
            )
        }
        other => err(format!("unknown op {other:?}")),
    }
}

/// Runs the server until a client sends `shutdown`: accepts connections
/// on `listener`, answers the line protocol, and executes batches on one
/// worker thread through the resilient runner and `cache`. Queued batches
/// drain before this returns (unless shut down with `mode:"now"`); idle
/// clients that never disconnect do NOT block shutdown — their handler
/// threads are detached and die with the process.
///
/// With a write-ahead journal (usually from
/// [`Journal::open_or_disable`]) it re-enqueues the recovery's unfinished
/// batches before accepting traffic, journals every subsequent
/// submission, and compacts the log as batches complete. A batch whose
/// journaled specs no longer parse (e.g. a workload renamed across
/// versions) is dropped with a diagnostic rather than wedging startup.
/// `None` serves without durability.
pub fn serve_with_journal(
    listener: TcpListener,
    config: ServeConfig,
    cache: Option<ResultCache>,
    journal: Option<(Journal, Recovery)>,
) {
    let local = listener.local_addr().ok();
    let journaled = journal.is_some();
    let mut state = ServerState::default();
    let journal = journal.map(|(journal, recovery)| {
        state.next_id = recovery.next_id;
        for (id, specs) in &recovery.pending {
            let jobs = match jobs_from_specs(specs) {
                Ok(jobs) => jobs,
                Err(why) => {
                    eprintln!(
                        "prf-serve: journaled batch {id} no longer parses ({why}); dropping it"
                    );
                    continue;
                }
            };
            state.batches.push(Batch {
                id: *id,
                jobs,
                state: BatchState::Queued,
                report: None,
            });
            state.queue.push_back(state.batches.len() - 1);
            state.recovered += 1;
        }
        if state.recovered > 0 {
            eprintln!(
                "prf-serve: recovered {} unfinished batch(es) from {}",
                state.recovered,
                journal.dir().display()
            );
        }
        journal
    });
    let shared = Arc::new(Shared {
        state: Mutex::new(state),
        work: Condvar::new(),
        journal: Mutex::new(journal),
        durable: AtomicBool::new(journaled),
        journaled,
    });

    let worker_shared = Arc::clone(&shared);
    let worker_config = config.clone();
    let worker = std::thread::spawn(move || {
        worker_loop(&worker_shared, &worker_config, cache.as_ref());
    });

    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) => {
                eprintln!("prf-serve: accept failed: {e}");
                continue;
            }
        };
        if shared.state.lock().unwrap().stop != StopMode::No {
            // A wake-up connection (or a late client) after shutdown:
            // stop accepting and drain.
            drop(stream);
            break;
        }
        let client_shared = Arc::clone(&shared);
        let client_config = config.clone();
        std::thread::spawn(move || {
            handle_client(stream, &client_shared, &client_config, local);
        });
    }
    let _ = worker.join();
}

/// One bounded request line off the wire.
enum LineRead {
    /// A complete line (newline stripped, lossily decoded).
    Line(String),
    /// The client sent [`MAX_LINE_BYTES`] without a newline.
    TooLong,
    /// Clean end of stream or socket error — either way the client is
    /// gone and the handler should just return.
    Closed,
}

/// Reads one `\n`-terminated line, refusing to buffer more than
/// [`MAX_LINE_BYTES`]. The length cap — not `BufRead::lines` — is what
/// keeps an oversized or drip-feeding client from growing a line buffer
/// without bound.
fn read_bounded_line(reader: &mut impl BufRead) -> LineRead {
    let mut buf = Vec::new();
    let mut limited = reader.take(MAX_LINE_BYTES as u64 + 1);
    match limited.read_until(b'\n', &mut buf) {
        Ok(0) => LineRead::Closed,
        Ok(_) if buf.len() > MAX_LINE_BYTES => LineRead::TooLong,
        Ok(_) => {
            if buf.last() == Some(&b'\n') {
                buf.pop();
            }
            LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
        }
        Err(_) => LineRead::Closed,
    }
}

fn handle_client(
    stream: TcpStream,
    shared: &Shared,
    config: &ServeConfig,
    local: Option<SocketAddr>,
) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("prf-serve: cannot clone client stream: {e}");
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_bounded_line(&mut reader) {
            LineRead::Line(l) => l,
            LineRead::TooLong => {
                let refusal = Json::obj()
                    .field("ok", false)
                    .field(
                        "error",
                        format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                    )
                    .to_json();
                let _ = writer.write_all(refusal.as_bytes());
                let _ = writer.write_all(b"\n");
                let _ = writer.flush();
                return;
            }
            LineRead::Closed => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let (response, stop) = match Json::parse(&line) {
            Ok(req) => handle_request(&req, shared, config),
            Err(e) => (
                Json::obj()
                    .field("ok", false)
                    .field("error", format!("bad JSON: {e}")),
                false,
            ),
        };
        let mut body = response.to_json();
        body.push('\n');
        if writer.write_all(body.as_bytes()).is_err() || writer.flush().is_err() {
            return;
        }
        if stop {
            // Unblock the accept loop so `serve` can notice `stopping`.
            if let Some(addr) = local {
                let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &Json) -> Json {
        let mut line = req.to_json();
        line.push('\n');
        stream.write_all(line.as_bytes()).unwrap();
        stream.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        Json::parse(&response).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
    }

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    fn spec(workload: &str, rf: &str, seed: u64) -> Json {
        Json::obj()
            .field("workload", workload)
            .field("rf", rf)
            .field("seed", seed)
            .field("audit", true)
    }

    #[test]
    fn job_specs_resolve_names_and_reject_nonsense() {
        let job = job_from_spec(&spec("BFS", "partitioned", 7)).unwrap();
        assert_eq!(job.name, "BFS/partitioned/seed7");
        assert_eq!(job.gpu.jitter_seed, 7);
        assert!(job.gpu.audit);
        assert!(matches!(job.rf, RfKind::Partitioned(_)));

        assert!(job_from_spec(&spec("NoSuchWorkload", "partitioned", 0))
            .unwrap_err()
            .contains("unknown workload"));
        assert!(job_from_spec(&spec("BFS", "no-such-rf", 0))
            .unwrap_err()
            .contains("unknown rf"));
        assert!(job_from_spec(&Json::obj().field("rf", "RFC"))
            .unwrap_err()
            .contains("workload"));
    }

    #[test]
    fn a_batch_builds_each_fault_map_and_workload_once() {
        let faulted =
            |workload: &str, rf: &str, faults: &str| spec(workload, rf, 0).field("faults", faults);
        let specs = [
            faulted("BFS", "partitioned", "42,0.3"),
            faulted("bfs", "RFC", "42,0.30"),
            faulted("BFS", "MRF@STV", "42,0.3"),
            faulted("kmeans", "partitioned", "42,0.3"),
        ];
        let jobs = jobs_from_specs(&specs).unwrap();
        assert_eq!(jobs.len(), 4);
        let map = |j: &Job| Arc::clone(&j.faults.as_ref().unwrap().map);
        for job in &jobs[1..] {
            assert!(Arc::ptr_eq(&map(&jobs[0]), &map(job)), "{}", job.name);
        }
        for job in &jobs[1..3] {
            assert!(
                std::ptr::eq(&*jobs[0].workload.mem_init, &*job.workload.mem_init),
                "{}",
                job.name
            );
            assert!(Arc::ptr_eq(
                &jobs[0].workload.launches[0].kernel,
                &job.workload.launches[0].kernel
            ));
        }
        assert_eq!(jobs[3].workload.name, "kmeans");

        // Another seed is another map; single-spec parsing still works.
        let other = jobs_from_specs(&[faulted("BFS", "RFC", "7,0.3")]).unwrap();
        assert!(!Arc::ptr_eq(&map(&jobs[0]), &map(&other[0])));
        assert!(job_from_spec(&specs[0]).unwrap().faults.is_some());

        // Errors still name the failing job.
        let bad = [
            spec("BFS", "partitioned", 0),
            spec("BFS", "RFC", 0),
            spec("NoSuchWorkload", "RFC", 0),
            spec("BFS", "no-such-rf", 0),
        ];
        let e = jobs_from_specs(&bad).unwrap_err();
        assert!(e.starts_with("job 2: unknown workload"), "{e}");
    }

    #[test]
    fn rf_names_cover_every_kind() {
        let gpu = GpuConfig::kepler_single_sm();
        for (name, want) in [
            ("MRF@STV", "MRF@STV"),
            ("mrf@ntv", "MRF@NTV"),
            ("partitioned", "partitioned"),
            ("partitioned-plain", "partitioned"),
            ("rfc", "RFC"),
            ("Drowsy", "drowsy"),
        ] {
            assert_eq!(rf_by_name(name, &gpu).unwrap().name(), want, "{name}");
        }
        assert!(rf_by_name("mrf", &gpu).is_none());
    }

    #[test]
    fn serves_two_concurrent_clients_with_clean_audits() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServeConfig {
            threads: 2,
            policy: RetryPolicy::none(),
            max_inflight: 4,
        };
        let server = std::thread::spawn(move || serve_with_journal(listener, config, None, None));

        let submit = move |workload: &str, seed: u64| {
            let (mut stream, mut reader) = connect(addr);
            let pong = roundtrip(&mut stream, &mut reader, &Json::obj().field("op", "ping"));
            assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
            assert_eq!(
                pong.get("version").unwrap().as_u64(),
                Some(PROTOCOL_VERSION)
            );
            let resp = roundtrip(
                &mut stream,
                &mut reader,
                &Json::obj().field("op", "submit").field(
                    "jobs",
                    Json::Arr(vec![
                        spec(workload, "partitioned", seed),
                        spec(workload, "MRF@NTV", seed),
                    ]),
                ),
            );
            assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
            assert_eq!(resp.get("jobs").unwrap().as_u64(), Some(2));
            let batch = resp.get("batch").unwrap().as_u64().unwrap();
            (stream, reader, batch)
        };

        // Two clients submit concurrently, then each polls its own batch
        // to completion and fetches its report.
        let client_a = std::thread::spawn(move || submit("BFS", 1));
        let (mut sb, mut rb, batch_b) = {
            let (stream, reader) = connect(addr);
            let mut stream = stream;
            let mut reader = reader;
            let resp = roundtrip(
                &mut stream,
                &mut reader,
                &Json::obj()
                    .field("op", "submit")
                    .field("jobs", Json::Arr(vec![spec("NW", "partitioned", 2)])),
            );
            assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
            (stream, reader, resp.get("batch").unwrap().as_u64().unwrap())
        };
        let (mut sa, mut ra, batch_a) = client_a.join().unwrap();

        let fetch = |stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, batch: u64| {
            loop {
                let poll = roundtrip(
                    stream,
                    reader,
                    &Json::obj().field("op", "poll").field("batch", batch),
                );
                assert_eq!(poll.get("ok").unwrap().as_bool(), Some(true), "{poll:?}");
                if poll.get("state").unwrap().as_str() == Some("done") {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            let resp = roundtrip(
                stream,
                reader,
                &Json::obj().field("op", "fetch").field("batch", batch),
            );
            assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
            resp.get("report").unwrap().clone()
        };

        for (report, expect_jobs) in [
            (fetch(&mut sa, &mut ra, batch_a), 2),
            (fetch(&mut sb, &mut rb, batch_b), 1),
        ] {
            assert_eq!(report.get("failed_jobs").unwrap().as_u64(), Some(0));
            let results = report.get("results").unwrap().as_arr().unwrap();
            assert_eq!(results.len(), expect_jobs);
            for job in results {
                let audit = job.get("result").unwrap().get("audit").unwrap();
                assert_eq!(
                    audit.get("clean").and_then(Json::as_bool),
                    Some(true),
                    "audit must be clean: {job:?}"
                );
            }
        }

        // Cross-client visibility: client B can poll client A's batch.
        let poll = roundtrip(
            &mut sb,
            &mut rb,
            &Json::obj().field("op", "poll").field("batch", batch_a),
        );
        assert_eq!(poll.get("state").unwrap().as_str(), Some("done"));
        // Unknown batches and bad requests error without killing the line.
        let bad = roundtrip(
            &mut sb,
            &mut rb,
            &Json::obj().field("op", "fetch").field("batch", 999u64),
        );
        assert_eq!(bad.get("ok").unwrap().as_bool(), Some(false));
        let worse = roundtrip(&mut sb, &mut rb, &Json::obj().field("op", "dance"));
        assert!(worse
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("unknown op"));

        let stop = roundtrip(&mut sb, &mut rb, &Json::obj().field("op", "shutdown"));
        assert_eq!(stop.get("stopping").unwrap().as_bool(), Some(true));
        server.join().unwrap();
    }

    fn start_server(config: ServeConfig) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve_with_journal(listener, config, None, None));
        (addr, server)
    }

    fn shutdown(addr: SocketAddr, server: std::thread::JoinHandle<()>) {
        let (mut stream, mut reader) = connect(addr);
        let stop = roundtrip(
            &mut stream,
            &mut reader,
            &Json::obj().field("op", "shutdown"),
        );
        assert_eq!(stop.get("ok").unwrap().as_bool(), Some(true));
        server.join().unwrap();
    }

    #[test]
    fn oversized_request_line_is_refused_and_the_connection_closed() {
        let (addr, server) = start_server(ServeConfig {
            threads: 1,
            policy: RetryPolicy::none(),
            max_inflight: 1,
        });
        let (mut stream, mut reader) = connect(addr);

        // A would-be request that never fits: one byte past the cap with
        // no newline. (Exactly cap+1 so the server drains everything we
        // send — closing with unread data would RST the refusal away.)
        // The server must answer with a structured refusal as soon as
        // the cap trips — not buffer forever waiting for the line to end.
        let filler = vec![b'x'; MAX_LINE_BYTES + 1];
        stream.write_all(&filler).unwrap();
        stream.flush().unwrap();

        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let refusal = Json::parse(&response).unwrap();
        assert_eq!(refusal.get("ok").unwrap().as_bool(), Some(false));
        assert!(refusal
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("exceeds"));

        // And the connection is closed: the next read sees EOF.
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "{rest:?}");

        // The server itself is unharmed.
        let (mut s2, mut r2) = connect(addr);
        let pong = roundtrip(&mut s2, &mut r2, &Json::obj().field("op", "ping"));
        assert_eq!(pong.get("pong").unwrap().as_bool(), Some(true));
        shutdown(addr, server);
    }

    #[test]
    fn client_death_mid_batch_neither_wedges_the_worker_nor_loses_the_batch() {
        let (addr, server) = start_server(ServeConfig {
            threads: 1,
            policy: RetryPolicy::none(),
            max_inflight: 2,
        });

        // A client submits a batch and is killed immediately — socket
        // dropped without reading the rest of the protocol.
        let batch = {
            let (mut stream, mut reader) = connect(addr);
            let resp = roundtrip(
                &mut stream,
                &mut reader,
                &Json::obj()
                    .field("op", "submit")
                    .field("jobs", Json::Arr(vec![spec("BFS", "MRF@STV", 0)])),
            );
            assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
            resp.get("batch").unwrap().as_u64().unwrap()
            // stream dropped here: the client is gone mid-batch.
        };

        // A second client can still drive the batch to completion and
        // fetch the dead client's report — the worker never wedged.
        let (mut stream, mut reader) = connect(addr);
        loop {
            let poll = roundtrip(
                &mut stream,
                &mut reader,
                &Json::obj().field("op", "poll").field("batch", batch),
            );
            assert_eq!(poll.get("ok").unwrap().as_bool(), Some(true), "{poll:?}");
            if poll.get("state").unwrap().as_str() == Some("done") {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let resp = roundtrip(
            &mut stream,
            &mut reader,
            &Json::obj().field("op", "fetch").field("batch", batch),
        );
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
        assert_eq!(
            resp.get("report")
                .unwrap()
                .get("failed_jobs")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        shutdown(addr, server);
    }

    #[test]
    fn hostile_job_spec_comes_back_as_a_structured_rejection() {
        let (addr, server) = start_server(ServeConfig {
            threads: 1,
            policy: RetryPolicy::none(),
            max_inflight: 1,
        });
        let (mut stream, mut reader) = connect(addr);

        // 16 registers cannot hold any suite workload: the spec parses,
        // but admission must reject the job before simulation.
        let resp = roundtrip(
            &mut stream,
            &mut reader,
            &Json::obj().field("op", "submit").field(
                "jobs",
                Json::Arr(vec![spec("BFS", "MRF@STV", 0).field("rf_registers", 16u64)]),
            ),
        );
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
        let batch = resp.get("batch").unwrap().as_u64().unwrap();

        loop {
            let poll = roundtrip(
                &mut stream,
                &mut reader,
                &Json::obj().field("op", "poll").field("batch", batch),
            );
            if poll.get("state").unwrap().as_str() == Some("done") {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let resp = roundtrip(
            &mut stream,
            &mut reader,
            &Json::obj().field("op", "fetch").field("batch", batch),
        );
        let report = resp.get("report").unwrap();
        assert_eq!(report.get("failed_jobs").unwrap().as_u64(), Some(1));
        let outcome = report.get("results").unwrap().as_arr().unwrap()[0]
            .get("outcome")
            .unwrap()
            .clone();
        assert_eq!(outcome.get("kind").unwrap().as_str(), Some("rejected"));
        assert!(
            outcome
                .get("reason")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("rejected input"),
            "{outcome:?}"
        );
        shutdown(addr, server);
    }

    #[test]
    fn submit_beyond_capacity_is_refused_not_queued() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServeConfig {
            threads: 1,
            policy: RetryPolicy::none(),
            max_inflight: 1,
        };
        let server = std::thread::spawn(move || serve_with_journal(listener, config, None, None));
        let (mut stream, mut reader) = connect(addr);

        let first = roundtrip(
            &mut stream,
            &mut reader,
            &Json::obj()
                .field("op", "submit")
                .field("jobs", Json::Arr(vec![spec("BFS", "MRF@STV", 0)])),
        );
        assert_eq!(first.get("ok").unwrap().as_bool(), Some(true), "{first:?}");
        let second = roundtrip(
            &mut stream,
            &mut reader,
            &Json::obj()
                .field("op", "submit")
                .field("jobs", Json::Arr(vec![spec("BFS", "MRF@STV", 1)])),
        );
        // The worker may already have drained batch 0; only a refusal
        // must carry the capacity diagnostic.
        if second.get("ok").unwrap().as_bool() == Some(false) {
            assert!(second
                .get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("capacity"));
        }

        let stop = roundtrip(
            &mut stream,
            &mut reader,
            &Json::obj().field("op", "shutdown"),
        );
        assert_eq!(stop.get("ok").unwrap().as_bool(), Some(true));
        server.join().unwrap();
    }

    #[test]
    fn status_without_a_journal_reports_null_durability() {
        let (addr, server) = start_server(ServeConfig {
            threads: 1,
            policy: RetryPolicy::none(),
            max_inflight: 1,
        });
        let (mut stream, mut reader) = connect(addr);
        let status = roundtrip(&mut stream, &mut reader, &Json::obj().field("op", "status"));
        assert_eq!(status.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(status.get("recovered_batches").unwrap().as_u64(), Some(0));
        assert_eq!(status.get("inflight").unwrap().as_u64(), Some(0));
        assert_eq!(status.get("durable"), Some(&Json::Null));
        shutdown(addr, server);
    }

    #[test]
    fn shutdown_now_leaves_queued_batches_for_the_next_start() {
        let dir = std::env::temp_dir().join(format!(
            "prf_serve_test_now_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            threads: 1,
            policy: RetryPolicy::none(),
            max_inflight: 4,
        };

        // First life: journaled server, one slow batch running, one
        // queued behind it, then an immediate shutdown.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let journal = Journal::open(&dir, crate::vfs::real()).unwrap();
        let first_config = config.clone();
        let server = std::thread::spawn(move || {
            serve_with_journal(listener, first_config, None, Some(journal))
        });
        let (mut stream, mut reader) = connect(addr);
        let status = roundtrip(&mut stream, &mut reader, &Json::obj().field("op", "status"));
        assert_eq!(status.get("durable").unwrap().as_bool(), Some(true));
        assert_eq!(status.get("recovered_batches").unwrap().as_u64(), Some(0));
        let slow: Vec<Json> = (0..6)
            .map(|seed| spec("BFS", "partitioned", seed))
            .collect();
        let first = roundtrip(
            &mut stream,
            &mut reader,
            &Json::obj()
                .field("op", "submit")
                .field("jobs", Json::Arr(slow)),
        );
        assert_eq!(first.get("ok").unwrap().as_bool(), Some(true), "{first:?}");
        let queued = roundtrip(
            &mut stream,
            &mut reader,
            &Json::obj()
                .field("op", "submit")
                .field("jobs", Json::Arr(vec![spec("NW", "MRF@STV", 3)])),
        );
        assert_eq!(
            queued.get("ok").unwrap().as_bool(),
            Some(true),
            "{queued:?}"
        );
        let queued_id = queued.get("batch").unwrap().as_u64().unwrap();
        let stop = roundtrip(
            &mut stream,
            &mut reader,
            &Json::obj().field("op", "shutdown").field("mode", "now"),
        );
        assert_eq!(stop.get("stopping").unwrap().as_bool(), Some(true));
        assert_eq!(stop.get("mode").unwrap().as_str(), Some("now"));
        server.join().unwrap();

        // Second life: the same journal dir. The queued batch must come
        // back (the running one may also, if the kill beat its
        // BatchDone) and run to completion under its original id.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let journal = Journal::open(&dir, crate::vfs::real()).unwrap();
        assert!(
            journal.1.pending.iter().any(|(id, _)| *id == queued_id),
            "queued batch must be in the journal: {:?}",
            journal.1.pending
        );
        let server =
            std::thread::spawn(move || serve_with_journal(listener, config, None, Some(journal)));
        let (mut stream, mut reader) = connect(addr);
        let status = roundtrip(&mut stream, &mut reader, &Json::obj().field("op", "status"));
        assert!(
            status.get("recovered_batches").unwrap().as_u64().unwrap() >= 1,
            "{status:?}"
        );
        loop {
            let poll = roundtrip(
                &mut stream,
                &mut reader,
                &Json::obj().field("op", "poll").field("batch", queued_id),
            );
            assert_eq!(poll.get("ok").unwrap().as_bool(), Some(true), "{poll:?}");
            if poll.get("state").unwrap().as_str() == Some("done") {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let resp = roundtrip(
            &mut stream,
            &mut reader,
            &Json::obj().field("op", "fetch").field("batch", queued_id),
        );
        let report = resp.get("report").unwrap();
        assert_eq!(report.get("failed_jobs").unwrap().as_u64(), Some(0));
        assert_eq!(report.get("jobs").unwrap().as_u64(), Some(1));
        shutdown(addr, server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_append_failure_degrades_to_loud_non_durable_service() {
        use crate::vfs::{FaultPlan, FaultyVfs, Vfs};
        let dir =
            std::env::temp_dir().join(format!("prf_serve_test_nondurable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let faulty = Arc::new(FaultyVfs::new());
        let journal = Journal::open(&dir, faulty.clone() as Arc<dyn Vfs>).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServeConfig {
            threads: 1,
            policy: RetryPolicy::none(),
            max_inflight: 4,
        };
        let server =
            std::thread::spawn(move || serve_with_journal(listener, config, None, Some(journal)));

        // Break the disk, then submit: the append fails, but the batch
        // must still be accepted and must still complete.
        faulty.set_plan(FaultPlan {
            fail_writes: true,
            ..FaultPlan::default()
        });
        let (mut stream, mut reader) = connect(addr);
        let resp = roundtrip(
            &mut stream,
            &mut reader,
            &Json::obj()
                .field("op", "submit")
                .field("jobs", Json::Arr(vec![spec("BFS", "MRF@STV", 0)])),
        );
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
        let batch = resp.get("batch").unwrap().as_u64().unwrap();
        let status = roundtrip(&mut stream, &mut reader, &Json::obj().field("op", "status"));
        assert_eq!(
            status.get("durable").unwrap().as_bool(),
            Some(false),
            "append failure must flip durable to false: {status:?}"
        );
        loop {
            let poll = roundtrip(
                &mut stream,
                &mut reader,
                &Json::obj().field("op", "poll").field("batch", batch),
            );
            if poll.get("state").unwrap().as_str() == Some("done") {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let resp = roundtrip(
            &mut stream,
            &mut reader,
            &Json::obj().field("op", "fetch").field("batch", batch),
        );
        assert_eq!(
            resp.get("report")
                .unwrap()
                .get("failed_jobs")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        shutdown(addr, server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
