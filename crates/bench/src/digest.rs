//! Canonical, content-addressed job digests.
//!
//! A job digest is a stable SHA-256 over everything that determines a
//! simulation's outcome: the full `GpuConfig` (jitter seed included),
//! the workload (kernel instruction streams, launch geometry, memory
//! image), the `RfKind` under test, and the fault campaign. Two jobs
//! with the same digest are guaranteed to produce bit-identical
//! [`prf_core::ExperimentResult`]s, which is what lets the on-disk result
//! cache ([`crate::cache`]) serve a lookup instead of a simulation.
//!
//! ## Encoding and stability rules
//!
//! The hash input is a deterministic, field-ordered byte encoding built
//! by [`DigestBuilder`]: every field is framed as
//! `<label> '=' <value> '\x1f'` inside labelled `section(..)` frames, so
//! neither reordering nor concatenation ambiguity ("ab"+"c" vs "a"+"bc")
//! can alias two distinct jobs. Structured configuration (`GpuConfig`,
//! `RfKind`, repair policies) is fed through its `Debug` rendering, which
//! Rust derives in declaration order: **any** added, removed, renamed, or
//! retyped config field changes the encoding and therefore the digest —
//! old cache entries for a changed struct can never be served for a new
//! build's jobs. None of the digested types may contain `HashMap`/
//! `HashSet` state (iteration order would break determinism); they are
//! all `Vec`/scalar shaped today, and the determinism test in
//! `tests/cache_shard.rs` guards the contract.
//!
//! On top of the structural self-versioning, [`DIGEST_VERSION`] is mixed
//! into every digest. Bump it whenever the *semantics* of a field change
//! without its `Debug` shape changing (e.g. a latency that used to mean
//! "cycles" now means "half-cycles"), or when the cached result format
//! changes incompatibly ([`crate::cache::CACHE_SCHEMA_VERSION`] is mixed
//! in by the cache layer for exactly that reason).

use std::fmt::Write as _;

use crate::runner::Job;

/// Version of the digest encoding itself. Bump on any semantic change
/// that the structural (Debug-shaped) encoding would not capture.
///
/// 2: the FRF epoch telemetry of a result counts every launch on every
/// SM (version 1 results hold SM 0's last launch only).
///
/// 3: spare-row assignments persist across the launches of a fault
/// campaign, and drowsy leakage is charged at the measured drowsy
/// fraction (version 2 results: a fresh spare table per launch and a
/// fixed fraction of 0.6).
///
/// 4: the partitioned, RFC and drowsy configurations no longer carry the
/// bank count and warp-slot count; the models take both from the
/// `GpuConfig`, so the `RfKind` encoding changed while every simulated
/// number stayed the same.
pub const DIGEST_VERSION: u64 = 4;

/// A minimal, dependency-free SHA-256 (FIPS 180-4). Plenty fast for
/// hashing job descriptions — the unit of work here is an entire GPU
/// simulation, not a packet.
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hash state.
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finish(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        let mut block = self.buf;
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        let mut out = [0u8; 32];
        for (chunk, s) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&s.to_be_bytes());
        }
        out
    }

    /// Finishes and renders lowercase hex.
    pub fn finish_hex(self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.finish() {
            let _ = write!(s, "{b:02x}");
        }
        s
    }
}

/// Builds the canonical byte encoding that a job digest hashes.
///
/// Every value is framed as `label '=' value '\x1f'` (unit separator) so
/// adjacent fields cannot alias, and nested structures open/close named
/// frames. Field order is fixed by the call sequence, mirroring struct
/// declaration order.
pub struct DigestBuilder {
    hasher: Sha256,
}

impl Default for DigestBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DigestBuilder {
    /// Fresh builder, pre-seeded with the encoding version frame.
    pub fn new() -> Self {
        let mut b = DigestBuilder {
            hasher: Sha256::new(),
        };
        b.field_u64("digest_version", DIGEST_VERSION);
        b
    }

    /// Opens a labelled section frame.
    pub fn section(&mut self, name: &str) -> &mut Self {
        self.hasher.update(b"\x1d");
        self.hasher.update(name.as_bytes());
        self.hasher.update(b"\x1e");
        self
    }

    /// A labelled raw-bytes field (length-prefixed: arbitrary payloads
    /// cannot forge the framing).
    pub fn field_bytes(&mut self, label: &str, bytes: &[u8]) -> &mut Self {
        self.hasher.update(label.as_bytes());
        self.hasher.update(b"=");
        self.hasher.update(&(bytes.len() as u64).to_le_bytes());
        self.hasher.update(bytes);
        self.hasher.update(b"\x1f");
        self
    }

    /// A labelled string field.
    pub fn field_str(&mut self, label: &str, s: &str) -> &mut Self {
        self.field_bytes(label, s.as_bytes())
    }

    /// A labelled integer field.
    pub fn field_u64(&mut self, label: &str, v: u64) -> &mut Self {
        self.field_bytes(label, &v.to_le_bytes())
    }

    /// A labelled `Debug`-rendered field. Rust derives `Debug` in field
    /// declaration order, so this is a deterministic field-ordered
    /// encoding for any (HashMap-free) config struct — and it changes
    /// whenever the struct does, which is the cache-invalidation rule.
    pub fn field_debug(&mut self, label: &str, v: &impl std::fmt::Debug) -> &mut Self {
        let rendered = format!("{v:?}");
        self.field_bytes(label, rendered.as_bytes())
    }

    /// Finishes into a lowercase-hex digest string.
    pub fn finish_hex(self) -> String {
        self.hasher.finish_hex()
    }
}

/// The canonical content digest of one matrix [`Job`]: a pure function of
/// (GpuConfig, workload, RfKind, fault campaign, digest version). The
/// job's display `name` is deliberately excluded — relabelling a job must
/// not force a re-simulation.
pub fn job_digest(job: &Job) -> String {
    let mut b = DigestBuilder::new();

    // GpuConfig — Debug covers every field (jitter_seed, scheduler,
    // sampling, audit, ...) in declaration order, so adding or removing a
    // field changes every digest.
    b.section("gpu").field_debug("config", &job.gpu);

    // RF organisation, nested configs included.
    b.section("rf").field_debug("kind", &job.rf);

    // Workload: kernel streams, launch geometry, memory image.
    b.section("workload")
        .field_str("name", job.workload.name)
        .field_debug("category", &job.workload.category)
        .field_u64("launches", job.workload.launches.len() as u64);
    for (i, launch) in job.workload.launches.iter().enumerate() {
        b.section("launch")
            .field_u64("index", i as u64)
            .field_str("kernel", launch.kernel.name())
            .field_u64(
                "regs_per_thread",
                u64::from(launch.kernel.regs_per_thread()),
            )
            .field_debug("instructions", &launch.kernel.instructions())
            .field_u64("num_ctas", u64::from(launch.grid.num_ctas))
            .field_u64("threads_per_cta", u64::from(launch.grid.threads_per_cta));
    }
    b.section("mem_init")
        .field_u64("blocks", job.workload.mem_init.len() as u64);
    for (base, words) in &job.workload.mem_init {
        let mut bytes = Vec::with_capacity(words.len() * 4);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        b.field_u64("base", u64::from(*base))
            .field_bytes("words", &bytes);
    }

    // Fault campaign: the map's canonical text form plus the policy.
    match &job.faults {
        None => {
            b.section("faults").field_str("campaign", "none");
        }
        Some(fc) => {
            b.section("faults")
                .field_str("map", &fc.map.to_text())
                .field_debug("policy", &fc.policy);
        }
    }

    b.finish_hex()
}

/// Short (8 hex chars, 32 bits) content hash of a string — used by
/// [`crate::report::safe_file_name`] to keep sanitised file names
/// injective without making every name 64 chars longer.
pub fn short_hash(s: &str) -> String {
    let mut h = Sha256::new();
    h.update(s.as_bytes());
    h.finish_hex()[..8].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prf_core::RfKind;
    use prf_sim::{GpuConfig, SchedulerPolicy};

    #[test]
    fn sha256_matches_known_vectors() {
        // FIPS 180-4 / RFC 6234 test vectors.
        let empty = Sha256::new().finish_hex();
        assert_eq!(
            empty,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        let mut h = Sha256::new();
        h.update(b"abc");
        assert_eq!(
            h.finish_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        let mut h = Sha256::new();
        h.update(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
        assert_eq!(
            h.finish_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Multi-part absorption across block boundaries agrees with
        // one-shot hashing.
        let data = vec![0xa5u8; 1000];
        let mut one = Sha256::new();
        one.update(&data);
        let mut parts = Sha256::new();
        for chunk in data.chunks(77) {
            parts.update(chunk);
        }
        assert_eq!(one.finish_hex(), parts.finish_hex());
    }

    fn tiny_job(seed: u64) -> crate::runner::Job {
        let w = prf_workloads::suite::bfs();
        let gpu = GpuConfig {
            jitter_seed: seed,
            ..GpuConfig::kepler_single_sm()
        };
        crate::runner::Job::new("job", &w, &gpu, &RfKind::MrfStv)
    }

    #[test]
    fn digest_is_deterministic_and_seed_sensitive() {
        assert_eq!(job_digest(&tiny_job(1)), job_digest(&tiny_job(1)));
        assert_ne!(job_digest(&tiny_job(1)), job_digest(&tiny_job(2)));
    }

    #[test]
    fn digest_ignores_the_display_name() {
        let mut a = tiny_job(1);
        let mut b = tiny_job(1);
        a.name = "first-label".into();
        b.name = "second-label".into();
        assert_eq!(job_digest(&a), job_digest(&b));
    }

    #[test]
    fn digest_distinguishes_rf_and_scheduler_and_faults() {
        let base = tiny_job(1);
        let mut rf = tiny_job(1);
        rf.rf = RfKind::MrfNtv { latency: 3 };
        assert_ne!(job_digest(&base), job_digest(&rf));

        let mut sched = tiny_job(1);
        sched.gpu.scheduler = SchedulerPolicy::Lrr;
        assert_ne!(job_digest(&base), job_digest(&sched));

        let faulted = base
            .clone()
            .with_faults(Some(crate::fault_config_for(42, 0.3)));
        assert_ne!(job_digest(&base), job_digest(&faulted));
        let refaulted = tiny_job(1).with_faults(Some(crate::fault_config_for(42, 0.3)));
        assert_eq!(job_digest(&faulted), job_digest(&refaulted));
    }

    #[test]
    fn framing_prevents_concatenation_aliasing() {
        let mut a = DigestBuilder::new();
        a.field_str("x", "ab").field_str("y", "c");
        let mut b = DigestBuilder::new();
        b.field_str("x", "a").field_str("y", "bc");
        assert_ne!(a.finish_hex(), b.finish_hex());
    }

    #[test]
    fn short_hash_is_stable() {
        assert_eq!(short_hash("a/b"), short_hash("a/b"));
        assert_ne!(short_hash("a/b"), short_hash("a_b"));
        assert_eq!(short_hash("x").len(), 8);
    }
}
