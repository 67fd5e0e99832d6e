//! End-to-end crash-recovery tests (ISSUE 9): a server that dies after
//! accepting a batch — simulated by a journal holding a `Submit` with
//! no `BatchDone` — must, on restart against the same journal and cache
//! directories, complete the batch with results bit-identical to an
//! uninterrupted run. Plus the injected-fault scenarios: ENOSPC during
//! cache stores degrades to recompute-and-count, and a power cut
//! mid-store leaves only a `.tmp` corpse that the next open sweeps.
//!
//! (The SIGKILL variant of the first scenario — an actual `prf-serve`
//! process killed mid-batch — runs in CI as `crash-recovery-smoke`.)

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use prf_bench::cache::ResultCache;
use prf_bench::journal::{Journal, Record};
use prf_bench::json::Json;
use prf_bench::runner::{run_matrix_resilient_configured, RetryPolicy};
use prf_bench::serve::{job_from_spec, serve_with_journal, ServeConfig};
use prf_bench::vfs::{self, FaultPlan, FaultyVfs, Vfs};

fn unique_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "prf_crashrec_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(workload: &str, rf: &str, seed: u64) -> Json {
    Json::obj()
        .field("workload", workload)
        .field("rf", rf)
        .field("seed", seed)
        .field("audit", true)
}

fn config() -> ServeConfig {
    ServeConfig {
        threads: 2,
        policy: RetryPolicy::none(),
        max_inflight: 4,
    }
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &Json) -> Json {
    let mut line = req.to_json();
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    Json::parse(&response).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
}

/// Polls `batch` to `done` and fetches its report.
fn fetch_done(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, batch: u64) -> Json {
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
}

/// Masks the per-run provenance a recovered report may legitimately
/// differ in: whether each job was a cache hit (`cached`, plus the
/// report's `cache_hits` tally) and wall-clock phase timings. Cycles,
/// energy, audit status — the simulation results — must be identical.
fn deterministic_report(report: &Json) -> String {
    fn mask(doc: Json) -> Json {
        match doc {
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| {
                        if k == "cached" || k == "cache_hits" || k == "phases" {
                            (k, Json::Null)
                        } else {
                            (k, mask(v))
                        }
                    })
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.into_iter().map(mask).collect()),
            other => other,
        }
    }
    mask(report.clone()).to_json()
}

#[test]
fn recovered_batch_is_bit_identical_to_an_uninterrupted_run() {
    let specs = vec![
        spec("BFS", "partitioned", 0),
        spec("BFS", "MRF@NTV", 1),
        spec("NW", "RFC", 2),
    ];

    // Reference: an uninterrupted server, no journal, no cache.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn({
        let config = config();
        move || serve_with_journal(listener, config, None, None)
    });
    let (mut stream, mut reader) = connect(addr);
    let resp = roundtrip(
        &mut stream,
        &mut reader,
        &Json::obj()
            .field("op", "submit")
            .field("jobs", Json::Arr(specs.clone())),
    );
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
    let batch = resp.get("batch").unwrap().as_u64().unwrap();
    let reference = fetch_done(&mut stream, &mut reader, batch);
    let stop = roundtrip(
        &mut stream,
        &mut reader,
        &Json::obj().field("op", "shutdown"),
    );
    assert_eq!(stop.get("ok").unwrap().as_bool(), Some(true));
    server.join().unwrap();
    assert_eq!(reference.get("failed_jobs").unwrap().as_u64(), Some(0));

    // Crash scenario: a journal says batch 0 was accepted, then the
    // process died. The cache dir is the same one the
    // dead process would have been filling.
    let journal_dir = unique_dir("journal");
    let cache_dir = unique_dir("cache");
    {
        let (mut journal, _) = Journal::open(&journal_dir, vfs::real()).unwrap();
        journal
            .append(&Record::Submit {
                batch: 0,
                jobs: specs.clone(),
            })
            .unwrap();
        // No BatchDone: the "crash".
    }

    // Restart: the batch must be re-enqueued under its original id and
    // run to completion with zero failures and clean audits.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let journal = Journal::open(&journal_dir, vfs::real()).unwrap();
    assert_eq!(journal.1.pending.len(), 1);
    let cache = ResultCache::at(&cache_dir);
    let server = std::thread::spawn({
        let config = config();
        move || serve_with_journal(listener, config, Some(cache), Some(journal))
    });
    let (mut stream, mut reader) = connect(addr);
    let status = roundtrip(&mut stream, &mut reader, &Json::obj().field("op", "status"));
    assert_eq!(status.get("recovered_batches").unwrap().as_u64(), Some(1));
    assert_eq!(status.get("durable").unwrap().as_bool(), Some(true));
    let recovered = fetch_done(&mut stream, &mut reader, 0);
    let stop = roundtrip(
        &mut stream,
        &mut reader,
        &Json::obj().field("op", "shutdown"),
    );
    assert_eq!(stop.get("ok").unwrap().as_bool(), Some(true));
    server.join().unwrap();

    assert_eq!(recovered.get("failed_jobs").unwrap().as_u64(), Some(0));
    assert_eq!(
        deterministic_report(&recovered),
        deterministic_report(&reference),
        "recovered results must be bit-identical to the uninterrupted run"
    );
    for job in recovered.get("results").unwrap().as_arr().unwrap() {
        let audit = job.get("result").unwrap().get("audit").unwrap();
        assert_eq!(audit.get("clean").and_then(Json::as_bool), Some(true));
    }

    // With every batch done, the journal compacted: a fresh open finds
    // nothing pending.
    let (_, after) = Journal::open(&journal_dir, vfs::real()).unwrap();
    assert!(after.pending.is_empty(), "{:?}", after.pending);
    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// A second recovery over the same cache is pure warm hits: exactly-once
/// by construction, not by locking.
#[test]
fn double_recovery_replays_through_the_warmed_cache() {
    let specs = vec![spec("BFS", "partitioned", 9)];
    let journal_dir = unique_dir("journal2");
    let cache_dir = unique_dir("cache2");

    for life in 0..2 {
        // Each life finds the same unfinished batch: the journal is
        // rebuilt before each start to simulate dying before BatchDone.
        {
            let (mut journal, _) = Journal::open(&journal_dir, vfs::real()).unwrap();
            if journal.outstanding() == 0 {
                journal
                    .append(&Record::Submit {
                        batch: 0,
                        jobs: specs.clone(),
                    })
                    .unwrap();
            }
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let journal = Journal::open(&journal_dir, vfs::real()).unwrap();
        let cache = ResultCache::at(&cache_dir);
        let server = std::thread::spawn({
            let config = config();
            move || serve_with_journal(listener, config, Some(cache), Some(journal))
        });
        let (mut stream, mut reader) = connect(addr);
        let report = fetch_done(&mut stream, &mut reader, 0);
        assert_eq!(report.get("failed_jobs").unwrap().as_u64(), Some(0));
        if life == 1 {
            assert_eq!(
                report.get("cache_hits").unwrap().as_u64(),
                Some(1),
                "second recovery must be answered from the warmed cache"
            );
        }
        let stop = roundtrip(
            &mut stream,
            &mut reader,
            &Json::obj().field("op", "shutdown"),
        );
        assert_eq!(stop.get("ok").unwrap().as_bool(), Some(true));
        server.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn cache_enospc_degrades_to_recompute_and_is_counted() {
    let dir = unique_dir("enospc");
    let faulty = Arc::new(FaultyVfs::new());
    let cache = ResultCache::open(&dir, faulty.clone() as Arc<dyn Vfs>).unwrap();
    faulty.set_plan(FaultPlan {
        fail_writes: true,
        ..FaultPlan::default()
    });

    let jobs: Vec<_> = (0..2)
        .map(|seed| job_from_spec(&spec("BFS", "partitioned", seed)).unwrap())
        .collect();
    let outcome =
        run_matrix_resilient_configured(&jobs, RetryPolicy::none(), 1, None, Some(&cache));
    for report in &outcome.reports {
        assert!(
            report.result.is_some(),
            "a full disk must not fail the job: {:?}",
            report.outcome
        );
    }
    assert_eq!(cache.write_errors(), 2, "every failed store is counted");
    assert_eq!(cache.quarantined(), 0);

    // Healed disk: the same jobs store and then hit.
    faulty.revive();
    let again = run_matrix_resilient_configured(&jobs, RetryPolicy::none(), 1, None, Some(&cache));
    assert!(again.reports.iter().all(|r| r.cached == Some(false)));
    let warm = run_matrix_resilient_configured(&jobs, RetryPolicy::none(), 1, None, Some(&cache));
    assert!(warm.reports.iter().all(|r| r.cached == Some(true)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn power_cut_mid_store_leaves_only_a_tmp_corpse_that_open_sweeps() {
    let dir = unique_dir("powercut");
    let faulty = Arc::new(FaultyVfs::new());
    let cache = ResultCache::open(&dir, faulty.clone() as Arc<dyn Vfs>).unwrap();
    let job = job_from_spec(&spec("BFS", "partitioned", 4)).unwrap();

    // Power dies on the very next mutating operation: the entry's .tmp
    // write lands half its bytes and the rename never happens.
    faulty.set_plan(FaultPlan {
        power_cut_after_ops: Some(0),
        ..FaultPlan::default()
    });
    let outcome = run_matrix_resilient_configured(
        std::slice::from_ref(&job),
        RetryPolicy::none(),
        1,
        None,
        Some(&cache),
    );
    assert!(
        outcome.reports[0].result.is_some(),
        "the job itself succeeds"
    );
    assert_eq!(cache.write_errors(), 1);
    let tmp_corpses = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
        .count();
    assert_eq!(tmp_corpses, 1, "the torn tmp file is the only residue");

    // "Reboot": a fresh open over the real filesystem sweeps the corpse
    // and the entry is a plain miss that repopulates cleanly.
    let rebooted = ResultCache::at(&dir);
    assert_eq!(rebooted.swept_tmp(), 1);
    let outcome = run_matrix_resilient_configured(
        std::slice::from_ref(&job),
        RetryPolicy::none(),
        1,
        None,
        Some(&rebooted),
    );
    assert_eq!(outcome.reports[0].cached, Some(false));
    assert_eq!(rebooted.quarantined(), 0, "a swept tmp is not a quarantine");
    let warm = run_matrix_resilient_configured(
        std::slice::from_ref(&job),
        RetryPolicy::none(),
        1,
        None,
        Some(&rebooted),
    );
    assert_eq!(warm.reports[0].cached, Some(true));
    let _ = std::fs::remove_dir_all(&dir);
}
