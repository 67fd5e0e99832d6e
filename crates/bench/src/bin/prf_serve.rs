//! `prf-serve` — a long-lived experiment server over TCP.
//!
//! Listens on `--addr <host:port>` (default `127.0.0.1:7878`) and speaks
//! the newline-delimited JSON protocol documented in [`prf_bench::serve`]:
//! `ping`, `submit`, `poll`, `fetch`, `status`, `shutdown`. Batches run
//! through the resilient matrix runner with the `PRF_JOB_TIMEOUT_SECS` /
//! `PRF_JOB_RETRIES` / `PRF_RETRY_BACKOFF_MS` policy, `PRF_THREADS`
//! worker threads, and — when `PRF_CACHE_DIR` is set — the on-disk
//! result cache, so repeated submissions of the same job are served
//! without re-simulating. When `PRF_JOURNAL_DIR` is set, submissions
//! are additionally journaled to a write-ahead log and unfinished
//! batches are re-enqueued on the next start (see
//! [`prf_bench::journal`]).
//!
//! ```text
//! $ PRF_CACHE_DIR=/tmp/prf-cache prf-serve --addr 127.0.0.1:7878 &
//! $ printf '%s\n' '{"op":"submit","jobs":[{"workload":"BFS","rf":"partitioned","audit":true}]}' \
//!     | nc 127.0.0.1 7878
//! {"ok":true,"batch":0,"jobs":1}
//! ```

use std::net::TcpListener;

use prf_bench::cache::ResultCache;
use prf_bench::harness_args;
use prf_bench::journal::Journal;
use prf_bench::serve::{serve_with_journal, ServeConfig};
use prf_bench::vfs;

fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return Some(
                args.next()
                    .unwrap_or_else(|| die(&format!("{flag} needs a value"))),
            );
        }
        if let Some(v) = a.strip_prefix(&format!("{flag}=")) {
            return Some(v.to_string());
        }
    }
    None
}

fn die(msg: &str) -> ! {
    eprintln!("prf-serve: {msg}");
    eprintln!("usage: prf-serve [--addr HOST:PORT] [--max-inflight N]");
    std::process::exit(2);
}

fn main() {
    let addr = arg_value("--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let max_inflight = arg_value("--max-inflight").map_or(4, |v| {
        v.parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| die(&format!("--max-inflight: `{v}` is not a positive integer")))
    });
    let args = harness_args();
    let config = ServeConfig {
        threads: args.threads,
        policy: args.retry,
        max_inflight,
    };
    let cache = args
        .cache_dir
        .as_deref()
        .and_then(ResultCache::open_or_disable);
    match &cache {
        Some(c) => eprintln!("prf-serve: result cache at {}", c.dir().display()),
        None => eprintln!("prf-serve: no result cache (set PRF_CACHE_DIR to enable)"),
    }
    let journal = args
        .journal_dir
        .as_deref()
        .and_then(|dir| Journal::open_or_disable(dir, vfs::real()));
    match &journal {
        Some((j, recovery)) => {
            eprintln!(
                "prf-serve: journal at {} ({} unfinished batch(es) to recover{})",
                j.dir().display(),
                recovery.pending.len(),
                if recovery.torn_tail {
                    ", torn tail discarded"
                } else {
                    ""
                }
            );
        }
        None => eprintln!("prf-serve: no journal (set PRF_JOURNAL_DIR for crash durability)"),
    }

    let listener =
        TcpListener::bind(&addr).unwrap_or_else(|e| panic!("cannot listen on {addr}: {e}"));
    eprintln!(
        "prf-serve: listening on {} ({} threads, {} batches in flight max)",
        listener
            .local_addr()
            .map_or(addr.clone(), |a| a.to_string()),
        config.threads,
        config.max_inflight
    );
    serve_with_journal(listener, config, cache, journal);
    eprintln!("prf-serve: shut down cleanly");
}
