//! Deterministic, seedable fault maps derived from the Monte Carlo SNM
//! distribution.
//!
//! The §IV-A yield study says *how many* cells fail at a given supply; a
//! [`FaultMap`] says *which ones*, so the architectural layers can react.
//! Each register-file row is classified from per-cell SNM draws at the
//! chosen Vdd:
//!
//! * [`CellHealth::Stuck`] — some cell's SNM collapsed to zero: the row
//!   cannot hold data at this supply and must be repaired at *any* voltage,
//! * [`CellHealth::Weak`] — some cell's SNM fell below half the failure
//!   margin: the row is unsafe in low-voltage partitions (MRF@NTV,
//!   FRF@NTV, SRF) but fine at STV,
//! * [`CellHealth::Healthy`] — every sampled cell clears both bars.
//!
//! Classification is a pure function of `(seed, bank, row)` — each row owns
//! an independent RNG stream — so maps are bit-identical no matter how many
//! threads build or consume them, and a map can be regenerated from its
//! header alone. Maps also serialise to a small run-length-encoded text
//! artifact ([`FaultMap::to_text`]) so a campaign can pin the exact fault
//! pattern it ran against.
//!
//! Most cells at a useful supply are clearly healthy, so the build decides
//! those from a bound before doing any Box–Muller maths. A cell's SNM
//! mismatch is at most `σ·(r_a + r_b)`, where `r = √(−2 ln u1)` is the
//! radius of each half's Box–Muller draw; a cell whose radii sum to at most
//! `r_max = (nominal − SNM_WEAK_THRESHOLD) / (SNM_MISMATCH_SENSITIVITY·σ)`
//! is therefore healthy whatever its angles, and when both `u1` exceed
//! `exp(−r_max²/8)` both radii are below `r_max/2` without a logarithm.
//! Every other cell runs the exact arithmetic of [`sample_snm`]. The draws
//! are the same either way, so the maps are bit-identical to classifying
//! every cell exactly (see [`FaultMap::classify_row`] for why the bound
//! also holds in floating point). EXPERIMENTS.md gives the build times
//! with and without the bound.
//!
//! [`sample_snm`]: crate::montecarlo::sample_snm

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::device::BackGate;
use crate::montecarlo::{
    box_muller, box_muller_radius, normal_uniforms, sigma_vth_total, snm_from_normals,
    SNM_MISMATCH_SENSITIVITY,
};
use crate::sram::{SramCell, SNM_FAIL_THRESHOLD};

/// SNM below this (volts) marks a cell *weak*: unsafe at low voltage.
/// Half the yield study's failure margin — the cell still holds data with
/// STV-grade noise immunity but has no margin left for NTV operation.
pub const SNM_WEAK_THRESHOLD: f64 = SNM_FAIL_THRESHOLD / 2.0;

/// Health of one register-file row (worst sampled cell wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellHealth {
    /// All sampled cells have usable margin at every supported voltage.
    Healthy,
    /// At least one cell is margin-less at low voltage; the row is only
    /// safe in STV-class partitions.
    Weak,
    /// At least one cell's SNM collapsed to zero; the row is unusable and
    /// must be repaired regardless of voltage.
    Stuck,
}

impl CellHealth {
    /// Health of one cell with sampled margin `snm`.
    fn of_snm(snm: f64) -> CellHealth {
        if snm <= 0.0 {
            CellHealth::Stuck
        } else if snm < SNM_WEAK_THRESHOLD {
            CellHealth::Weak
        } else {
            CellHealth::Healthy
        }
    }

    /// Single-letter code used by the text serialisation.
    fn code(self) -> char {
        match self {
            CellHealth::Healthy => 'H',
            CellHealth::Weak => 'W',
            CellHealth::Stuck => 'S',
        }
    }

    fn from_code(c: char) -> Option<CellHealth> {
        match c {
            'H' => Some(CellHealth::Healthy),
            'W' => Some(CellHealth::Weak),
            'S' => Some(CellHealth::Stuck),
            _ => None,
        }
    }
}

/// Shape of the register-file array a [`FaultMap`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultGeometry {
    /// Register-file banks.
    pub banks: usize,
    /// Rows per bank (one row = one warp-register entry).
    pub rows_per_bank: usize,
    /// Cells sampled per row (one per SIMD lane; the worst draw classifies
    /// the row).
    pub cells_per_row: usize,
}

impl FaultGeometry {
    /// The single-SM Kepler-like RF of the evaluation: 8 banks × 256 rows,
    /// sampling one cell per 32-lane word.
    pub fn kepler_rf() -> Self {
        FaultGeometry {
            banks: 8,
            rows_per_bank: 256,
            cells_per_row: 32,
        }
    }

    /// Total rows across all banks.
    pub fn total_rows(&self) -> usize {
        self.banks * self.rows_per_bank
    }
}

/// Per-row stuck/weak classification of a register-file array at one
/// operating point, derived deterministically from the Monte Carlo SNM
/// distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMap {
    /// SRAM cell the array is built from.
    pub cell: SramCell,
    /// Supply voltage the map was derived at (volts).
    pub vdd: f64,
    /// Seed of the Monte Carlo draw.
    pub seed: u64,
    /// Array shape.
    pub geometry: FaultGeometry,
    /// Row health, bank-major: index `bank * rows_per_bank + row`.
    rows: Vec<CellHealth>,
}

/// Splitmix64-style mix of the map seed with a row coordinate, giving every
/// row an independent, order-free RNG stream.
fn row_seed(seed: u64, bank: u64, row: u64) -> u64 {
    let mut z =
        seed ^ bank.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ row.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Relative amount by which [`HealthyBound`] shrinks `r_max`. It is far
/// larger than the few ulps of rounding in the exact SNM arithmetic, so a
/// cell the bound calls healthy is healthy in floating point too.
const BOUND_MARGIN: f64 = 1e-9;

/// The per-operating-point constants of the healthy-cell bound (see
/// [`FaultMap::classify_row`]).
#[derive(Debug, Clone, Copy)]
struct HealthyBound {
    /// Box–Muller radius sum up to which a cell is surely healthy, shrunk
    /// by [`BOUND_MARGIN`].
    r_max: f64,
    /// `u1` above which a radius is surely below `r_max / 2`:
    /// `exp(−r_max²/8)`, raised by 4ε against `exp`'s rounding.
    u1_floor: f64,
}

impl HealthyBound {
    /// The bound at nominal margin `nominal` and Vth sigma `sigma`, or
    /// `None` when no radius clears it (`r_max ≤ 0`, or not a number):
    /// then every cell takes the exact path.
    fn new(nominal: f64, sigma: f64) -> Option<HealthyBound> {
        let r_max = (nominal - SNM_WEAK_THRESHOLD) / (SNM_MISMATCH_SENSITIVITY * sigma)
            * (1.0 - BOUND_MARGIN);
        (r_max > 0.0).then(|| HealthyBound {
            r_max,
            u1_floor: (-r_max * r_max / 8.0).exp() + 4.0 * f64::EPSILON,
        })
    }
}

/// Classifies one cell from its four uniforms `[u1a, u2a, u1b, u2b]`:
/// healthy from `bound` when it can tell, else from the exact SNM.
fn classify_draws(
    nominal: f64,
    sigma: f64,
    bound: Option<HealthyBound>,
    [u1a, u2a, u1b, u2b]: [f64; 4],
) -> CellHealth {
    if bound.is_some_and(|b| u1a > b.u1_floor && u1b > b.u1_floor) {
        return CellHealth::Healthy;
    }
    let (ra, rb) = (box_muller_radius(u1a), box_muller_radius(u1b));
    if bound.is_some_and(|b| ra + rb <= b.r_max) {
        return CellHealth::Healthy;
    }
    CellHealth::of_snm(snm_from_normals(
        nominal,
        sigma,
        box_muller(ra, u2a),
        box_muller(rb, u2b),
    ))
}

impl FaultMap {
    /// Derives a map for an array of `cell`s at `vdd`: every row draws
    /// `cells_per_row` SNM samples from its own `(seed, bank, row)` stream
    /// and is classified by its worst draw.
    ///
    /// # Panics
    ///
    /// Panics if any geometry dimension is zero.
    pub fn from_montecarlo(
        cell: SramCell,
        vdd: f64,
        geometry: FaultGeometry,
        seed: u64,
    ) -> FaultMap {
        assert!(
            geometry.banks > 0 && geometry.rows_per_bank > 0 && geometry.cells_per_row > 0,
            "fault-map geometry must be non-empty"
        );
        let nominal = cell.snm(vdd, BackGate::Vdd);
        let sigma = sigma_vth_total();
        let bound = HealthyBound::new(nominal, sigma);
        let mut rows = Vec::with_capacity(geometry.total_rows());
        for bank in 0..geometry.banks {
            for row in 0..geometry.rows_per_bank {
                rows.push(Self::classify_row_within(
                    nominal,
                    sigma,
                    bound,
                    seed,
                    bank,
                    row,
                    geometry.cells_per_row,
                ));
            }
        }
        FaultMap {
            cell,
            vdd,
            seed,
            geometry,
            rows,
        }
    }

    /// Classifies one row: the worst of `cells` independent SNM draws from
    /// the row's own stream. Pure in `(seed, bank, row)`, so callers may
    /// shard banks across threads and still reproduce
    /// [`FaultMap::from_montecarlo`] bit for bit.
    ///
    /// Each cell draws `u1a, u2a, u1b, u2b` exactly as
    /// [`sample_snm`](crate::montecarlo::sample_snm) does, and a stuck cell
    /// ends the row. Clearly healthy cells are decided from a bound instead
    /// of the exact SNM:
    ///
    /// * each half's Vth shift is `σ·r·cos θ` with `r = √(−2 ln u1)`, so the
    ///   mismatch `|left − right|` is at most `σ·(r_a + r_b)`, and the SNM
    ///   is at least `SNM_WEAK_THRESHOLD` whenever `r_a + r_b ≤ r_max`, with
    ///   `r_max = (nominal − SNM_WEAK_THRESHOLD) / (SNM_MISMATCH_SENSITIVITY·σ)`;
    /// * `u1 > exp(−r_max²/8)` means `r < r_max/2`, so when both `u1` clear
    ///   that floor the cell is healthy without a logarithm;
    /// * otherwise the radii are computed, and only a cell whose radii sum
    ///   past `r_max` pays for the cosines and the exact SNM.
    ///
    /// The bound is rigorous in floating point, not just in real numbers.
    /// `r_max` is shrunk by a relative 1e-9; the exact path's rounding
    /// (the radii, `|cos| ≤ 1`, two products with σ, a difference and the
    /// sensitivity product) inflates the mismatch by a few ulps at most, and
    /// rounding is monotone, so the computed SNM still lands at or above the
    /// threshold. The `u1` floor is raised by 4ε so that `exp`'s rounding
    /// cannot admit a `u1` whose radius exceeds `r_max/2`, however small
    /// `r_max` is. When `r_max ≤ 0` no cell can be shown healthy this way and
    /// every cell takes the exact path.
    pub fn classify_row(
        nominal: f64,
        sigma: f64,
        seed: u64,
        bank: usize,
        row: usize,
        cells: usize,
    ) -> CellHealth {
        let bound = HealthyBound::new(nominal, sigma);
        Self::classify_row_within(nominal, sigma, bound, seed, bank, row, cells)
    }

    /// [`FaultMap::classify_row`] with the bound computed once per map.
    fn classify_row_within(
        nominal: f64,
        sigma: f64,
        bound: Option<HealthyBound>,
        seed: u64,
        bank: usize,
        row: usize,
        cells: usize,
    ) -> CellHealth {
        let mut rng = StdRng::seed_from_u64(row_seed(seed, bank as u64, row as u64));
        let mut health = CellHealth::Healthy;
        for _ in 0..cells {
            let (u1a, u2a) = normal_uniforms(&mut rng);
            let (u1b, u2b) = normal_uniforms(&mut rng);
            match classify_draws(nominal, sigma, bound, [u1a, u2a, u1b, u2b]) {
                CellHealth::Stuck => return CellHealth::Stuck,
                CellHealth::Weak => health = CellHealth::Weak,
                CellHealth::Healthy => {}
            }
        }
        health
    }

    /// A map with every row healthy (the no-faults control). Recorded as an
    /// 8T array at STV with seed 0.
    pub fn fault_free(geometry: FaultGeometry) -> FaultMap {
        FaultMap {
            cell: SramCell::T8,
            vdd: crate::device::STV,
            seed: 0,
            geometry,
            rows: vec![CellHealth::Healthy; geometry.total_rows()],
        }
    }

    /// Health of row `row` in bank `bank`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the map's geometry.
    pub fn health(&self, bank: usize, row: usize) -> CellHealth {
        assert!(
            bank < self.geometry.banks && row < self.geometry.rows_per_bank,
            "fault-map lookup ({bank},{row}) outside geometry {:?}",
            self.geometry
        );
        self.rows[bank * self.geometry.rows_per_bank + row]
    }

    /// Number of stuck rows across all banks.
    pub fn stuck_rows(&self) -> usize {
        self.rows
            .iter()
            .filter(|h| **h == CellHealth::Stuck)
            .count()
    }

    /// Number of weak (but not stuck) rows across all banks.
    pub fn weak_rows(&self) -> usize {
        self.rows.iter().filter(|h| **h == CellHealth::Weak).count()
    }

    /// True when every row is healthy — models then behave exactly as if
    /// no map were attached.
    pub fn is_fault_free(&self) -> bool {
        self.rows.iter().all(|h| *h == CellHealth::Healthy)
    }

    /// Serialises the map to a small text artifact: a header with the
    /// operating point and geometry, then the row stream run-length encoded
    /// bank-major (`H120 W3 S1 ...`).
    pub fn to_text(&self) -> String {
        let mut s = format!(
            "faultmap v1\ncell={} vdd={:?} seed={}\nbanks={} rows_per_bank={} cells_per_row={}\n",
            self.cell,
            self.vdd,
            self.seed,
            self.geometry.banks,
            self.geometry.rows_per_bank,
            self.geometry.cells_per_row,
        );
        let mut runs: Vec<(CellHealth, usize)> = Vec::new();
        for &h in &self.rows {
            match runs.last_mut() {
                Some((last, n)) if *last == h => *n += 1,
                _ => runs.push((h, 1)),
            }
        }
        for (i, (h, n)) in runs.iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            s.push(h.code());
            s.push_str(&n.to_string());
        }
        s.push('\n');
        s
    }

    /// Parses a map serialised by [`FaultMap::to_text`].
    ///
    /// The parser is hardened against hostile artifacts: the declared
    /// geometry is capped at [`MAX_TEXT_ROWS`] (computed with overflow
    /// checks), and every RLE run is checked against the declared row
    /// count *before* it is materialised — so a `H99999999999` body
    /// cannot allocate past the header's promise.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultMapParseError`] carrying the 1-based line number
    /// and (when one exists) the offending token, for the first malformed
    /// line, unknown cell or health code, oversized or overflowing
    /// geometry, or row-count mismatch against the declared geometry.
    pub fn from_text(text: &str) -> Result<FaultMap, FaultMapParseError> {
        let err = |line: usize, token: Option<&str>, message: String| FaultMapParseError {
            line,
            token: token.map(str::to_string),
            message,
        };
        let mut lines = text.lines().enumerate();
        let (_, magic) = lines
            .next()
            .ok_or_else(|| err(1, None, "empty fault map".into()))?;
        if magic.trim() != "faultmap v1" {
            return Err(err(1, Some(magic), "bad fault-map header".into()));
        }
        // Header fields, remembering the line each came from.
        let mut fields: std::collections::HashMap<String, (String, usize)> =
            std::collections::HashMap::new();
        for (i, line) in lines.by_ref().take(2) {
            for kv in line.split_whitespace() {
                let (k, v) = kv.split_once('=').ok_or_else(|| {
                    err(
                        i + 1,
                        Some(kv),
                        "malformed field (expected key=value)".into(),
                    )
                })?;
                fields.insert(k.to_string(), (v.to_string(), i + 1));
            }
        }
        let field = |k: &str| -> Result<(String, usize), FaultMapParseError> {
            fields
                .get(k)
                .cloned()
                .ok_or_else(|| err(2, None, format!("missing field `{k}`")))
        };
        let (cell_text, cell_line) = field("cell")?;
        let cell = match cell_text.as_str() {
            "6T" => SramCell::T6,
            "8T" => SramCell::T8,
            "9T" => SramCell::T9,
            "10T" => SramCell::T10,
            other => return Err(err(cell_line, Some(other), "unknown cell".into())),
        };
        let parse_num = |k: &str| -> Result<(usize, usize), FaultMapParseError> {
            let (v, line) = field(k)?;
            let n = v
                .parse()
                .map_err(|e| err(line, Some(&v), format!("field `{k}`: {e}")))?;
            Ok((n, line))
        };
        let (vdd_text, vdd_line) = field("vdd")?;
        let vdd: f64 = vdd_text
            .parse()
            .map_err(|e| err(vdd_line, Some(&vdd_text), format!("field `vdd`: {e}")))?;
        let (seed_text, seed_line) = field("seed")?;
        let seed: u64 = seed_text
            .parse()
            .map_err(|e| err(seed_line, Some(&seed_text), format!("field `seed`: {e}")))?;
        let (banks, banks_line) = parse_num("banks")?;
        let (rows_per_bank, _) = parse_num("rows_per_bank")?;
        let (cells_per_row, _) = parse_num("cells_per_row")?;
        let geometry = FaultGeometry {
            banks,
            rows_per_bank,
            cells_per_row,
        };
        // `total_rows()` multiplies unchecked; redo it checked here, and
        // refuse headers promising more than any real artifact holds —
        // otherwise `with_capacity` below is an attacker-sized allocation.
        let total = banks
            .checked_mul(rows_per_bank)
            .filter(|t| *t <= MAX_TEXT_ROWS)
            .ok_or_else(|| {
                err(
                    banks_line,
                    None,
                    format!(
                        "declared geometry {banks}\u{d7}{rows_per_bank} rows overflows the \
                         {MAX_TEXT_ROWS}-row cap"
                    ),
                )
            })?;
        let mut rows = Vec::with_capacity(total);
        for (i, line) in lines {
            for token in line.split_whitespace() {
                let mut chars = token.chars();
                let code = chars
                    .next()
                    .ok_or_else(|| err(i + 1, None, "empty run token".into()))?;
                let health = CellHealth::from_code(code)
                    .ok_or_else(|| err(i + 1, Some(token), format!("unknown health {code:?}")))?;
                let n: usize = chars
                    .as_str()
                    .parse()
                    .map_err(|e| err(i + 1, Some(token), format!("bad run length: {e}")))?;
                // Bound *before* materialising: a run longer than the
                // declared remainder is rejected, not allocated.
                if n > total - rows.len() {
                    return Err(err(
                        i + 1,
                        Some(token),
                        format!(
                            "run of {n} rows overflows the declared total of {total} \
                             ({} already encoded)",
                            rows.len()
                        ),
                    ));
                }
                rows.extend(std::iter::repeat_n(health, n));
            }
        }
        if rows.len() != total {
            return Err(err(
                text.lines().count().max(1),
                None,
                format!("fault map declares {total} rows but encodes {}", rows.len()),
            ));
        }
        Ok(FaultMap {
            cell,
            vdd,
            seed,
            geometry,
            rows,
        })
    }
}

/// Ceiling on the rows (`banks × rows_per_bank`) a text artifact may
/// declare. Real maps are a few thousand rows (the Kepler RF is 2048);
/// the cap keeps a hostile header from turning `from_text` into an
/// attacker-controlled allocation.
pub const MAX_TEXT_ROWS: usize = 1 << 24;

/// A structured [`FaultMap::from_text`] failure: where it happened and
/// what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultMapParseError {
    /// 1-based line number in the text artifact.
    pub line: usize,
    /// The offending token, when the failure is anchored to one.
    pub token: Option<String>,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for FaultMapParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fault-map text, line {}: {}", self.line, self.message)?;
        if let Some(token) = &self.token {
            write!(f, " (at `{token}`)")?;
        }
        Ok(())
    }
}

impl std::error::Error for FaultMapParseError {}

impl std::fmt::Display for FaultMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fault map: {} @ {:.2} V seed {} — {} rows, {} stuck, {} weak",
            self.cell,
            self.vdd,
            self.seed,
            self.geometry.total_rows(),
            self.stuck_rows(),
            self.weak_rows(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{NTV, STV};

    fn small_geometry() -> FaultGeometry {
        FaultGeometry {
            banks: 4,
            rows_per_bank: 64,
            cells_per_row: 32,
        }
    }

    #[test]
    fn ntv_map_has_faults_stv_map_is_nearly_clean() {
        let ntv = FaultMap::from_montecarlo(SramCell::T8, NTV, FaultGeometry::kepler_rf(), 42);
        assert!(ntv.weak_rows() > 0, "{ntv}");
        assert!(ntv.stuck_rows() > 0, "{ntv}");
        assert!(!ntv.is_fault_free());
        // At STV the 8T cell has 52 mV more nominal margin: the same
        // variation budget produces (essentially) no failures.
        let stv = FaultMap::from_montecarlo(SramCell::T8, STV, FaultGeometry::kepler_rf(), 42);
        assert!(stv.stuck_rows() == 0, "{stv}");
        assert!(stv.weak_rows() < ntv.weak_rows() / 10, "{stv} vs {ntv}");
    }

    #[test]
    fn same_seed_is_bit_identical_across_serial_and_sharded_builds() {
        // The satellite determinism requirement: the map is a pure function
        // of the seed. Build it serially, then rebuild it with every bank
        // classified on its own thread, and require exact equality.
        let g = small_geometry();
        let serial = FaultMap::from_montecarlo(SramCell::T8, NTV, g, 7);
        let nominal = SramCell::T8.snm(NTV, BackGate::Vdd);
        let sigma = sigma_vth_total();
        let sharded: Vec<CellHealth> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..g.banks)
                .map(|bank| {
                    s.spawn(move || {
                        (0..g.rows_per_bank)
                            .map(|row| {
                                FaultMap::classify_row(
                                    nominal,
                                    sigma,
                                    7,
                                    bank,
                                    row,
                                    g.cells_per_row,
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut rebuilt = Vec::new();
        for b in 0..g.banks {
            for r in 0..g.rows_per_bank {
                rebuilt.push(serial.health(b, r));
            }
        }
        assert_eq!(sharded, rebuilt);
        // And a straight re-run is equal too.
        assert_eq!(serial, FaultMap::from_montecarlo(SramCell::T8, NTV, g, 7));
        // Different seeds disagree somewhere.
        assert_ne!(serial, FaultMap::from_montecarlo(SramCell::T8, NTV, g, 8));
    }

    /// The classifier as it was before the healthy-cell bound: every cell
    /// through the exact [`sample_snm`] arithmetic.
    ///
    /// [`sample_snm`]: crate::montecarlo::sample_snm
    fn exact_classify_row(
        nominal: f64,
        sigma: f64,
        seed: u64,
        bank: usize,
        row: usize,
        cells: usize,
    ) -> CellHealth {
        let mut rng = StdRng::seed_from_u64(row_seed(seed, bank as u64, row as u64));
        let mut health = CellHealth::Healthy;
        for _ in 0..cells {
            let snm = crate::montecarlo::sample_snm(nominal, sigma, &mut rng);
            if snm <= 0.0 {
                return CellHealth::Stuck;
            }
            if snm < SNM_WEAK_THRESHOLD {
                health = CellHealth::Weak;
            }
        }
        health
    }

    #[test]
    fn bounded_classifier_matches_the_exact_one() {
        let sigma = sigma_vth_total();
        // Rows of one cell compare every cell's own verdict; a row of 32
        // hides a wrong verdict whenever a later cell is stuck.
        let rows_of = |cells_per_row| FaultGeometry {
            banks: 2,
            rows_per_bank: 32,
            cells_per_row,
        };
        for (cell, g) in SramCell::ALL
            .into_iter()
            .flat_map(|cell| [(cell, rows_of(1)), (cell, rows_of(32))])
        {
            // Which kinds of supply this cell's sweep reached: no bound
            // (r_max ≤ 0), near the threshold, and a wide margin.
            let mut kinds = [false; 3];
            for step in 1..=16 {
                let vdd = 0.05 * f64::from(step);
                let nominal = cell.snm(vdd, BackGate::Vdd);
                let r_max = (nominal - SNM_WEAK_THRESHOLD) / (SNM_MISMATCH_SENSITIVITY * sigma);
                let kind = if r_max <= 0.0 {
                    0
                } else if r_max < 3.0 {
                    1
                } else {
                    2
                };
                kinds[kind] = true;
                for seed in [42, 7] {
                    for bank in 0..g.banks {
                        for row in 0..g.rows_per_bank {
                            let cells = g.cells_per_row;
                            assert_eq!(
                                FaultMap::classify_row(nominal, sigma, seed, bank, row, cells),
                                exact_classify_row(nominal, sigma, seed, bank, row, cells),
                                "{cell} at {vdd} V (r_max {r_max}), seed {seed}, row ({bank},{row})"
                            );
                        }
                    }
                }
            }
            assert_eq!(kinds, [true; 3], "{cell}: supply sweep misses a kind");
        }
    }

    #[test]
    fn cells_on_the_bound_take_the_exact_path() {
        // Angles 0 and π make the mismatch exactly σ·(r_a + r_b), the
        // bound's own worst case. Sweep the nominal margin ulp by ulp
        // across the point where such a cell turns weak: the bounded
        // classifier must agree with the pre-bound arithmetic at every step.
        let sigma = sigma_vth_total();
        let exact = |nominal: f64, [u1a, u2a, u1b, u2b]: [f64; 4]| {
            let normal =
                |u1: f64, u2: f64| (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let left = normal(u1a, u2a) * sigma;
            let right = normal(u1b, u2b) * sigma;
            let snm = (nominal - SNM_MISMATCH_SENSITIVITY * (left - right).abs()).max(0.0);
            CellHealth::of_snm(snm)
        };
        let mut weak_steps = 0;
        for (u1a, u1b) in [
            (0.3, 0.6),
            (0.05, 0.9),
            (0.5, 0.5),
            (0.71, 0.83),
            (0.2, 0.999),
        ] {
            let draws = [u1a, 0.0, u1b, 0.5];
            let radii = box_muller_radius(u1a) + box_muller_radius(u1b);
            let edge = SNM_WEAK_THRESHOLD + SNM_MISMATCH_SENSITIVITY * sigma * radii;
            let mut nominal = edge;
            for _ in 0..64 {
                nominal = nominal.next_down();
            }
            for _ in 0..128 {
                let bound = HealthyBound::new(nominal, sigma);
                let want = exact(nominal, draws);
                weak_steps += usize::from(want == CellHealth::Weak);
                assert_eq!(
                    classify_draws(nominal, sigma, bound, draws),
                    want,
                    "u1 = ({u1a}, {u1b}), nominal {nominal:e} (edge {edge:e})"
                );
                nominal = nominal.next_up();
            }
        }
        assert!(weak_steps > 0, "the sweep never crossed the weak edge");
    }

    #[test]
    fn fault_free_map_is_fault_free() {
        let m = FaultMap::fault_free(small_geometry());
        assert!(m.is_fault_free());
        assert_eq!(m.stuck_rows(), 0);
        assert_eq!(m.weak_rows(), 0);
        assert_eq!(m.health(3, 63), CellHealth::Healthy);
    }

    #[test]
    fn text_round_trip_is_exact() {
        let m = FaultMap::from_montecarlo(SramCell::T8, NTV, small_geometry(), 99);
        let back = FaultMap::from_text(&m.to_text()).unwrap();
        assert_eq!(m, back);
        let clean = FaultMap::fault_free(small_geometry());
        assert_eq!(clean, FaultMap::from_text(&clean.to_text()).unwrap());
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(FaultMap::from_text("").is_err());
        assert!(FaultMap::from_text("faultmap v2\n").is_err());
        let truncated = "faultmap v1\ncell=8T vdd=0.3 seed=1\n\
                         banks=2 rows_per_bank=4 cells_per_row=8\nH7\n";
        assert!(FaultMap::from_text(truncated)
            .unwrap_err()
            .to_string()
            .contains("rows"));
        let bad_code = "faultmap v1\ncell=8T vdd=0.3 seed=1\n\
                        banks=2 rows_per_bank=4 cells_per_row=8\nH7 X1\n";
        assert!(FaultMap::from_text(bad_code).is_err());
    }

    #[test]
    fn parse_errors_carry_line_and_token() {
        // Unknown health code on body line 4, anchored to its token.
        let bad_code = "faultmap v1\ncell=8T vdd=0.3 seed=1\n\
                        banks=2 rows_per_bank=4 cells_per_row=8\nH7 X1\n";
        let e = FaultMap::from_text(bad_code).unwrap_err();
        assert_eq!(e.line, 4);
        assert_eq!(e.token.as_deref(), Some("X1"));
        assert!(e.to_string().contains("line 4"), "{e}");
        assert!(e.to_string().contains("X1"), "{e}");

        // Malformed header field on line 3.
        let bad_field = "faultmap v1\ncell=8T vdd=0.3 seed=1\n\
                         banks=two rows_per_bank=4 cells_per_row=8\n\n";
        let e = FaultMap::from_text(bad_field).unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.token.as_deref(), Some("two"));
    }

    #[test]
    fn hostile_headers_and_runs_are_rejected_before_allocation() {
        // A header promising usize-overflowing (or merely absurd) row
        // counts must fail fast, not allocate.
        let huge = format!(
            "faultmap v1\ncell=8T vdd=0.3 seed=1\n\
             banks={} rows_per_bank=3 cells_per_row=8\nH1\n",
            usize::MAX
        );
        let e = FaultMap::from_text(&huge).unwrap_err();
        assert!(e.to_string().contains("cap"), "{e}");
        let absurd = "faultmap v1\ncell=8T vdd=0.3 seed=1\n\
                      banks=65536 rows_per_bank=65536 cells_per_row=8\nH1\n";
        assert!(FaultMap::from_text(absurd).is_err());

        // A run longer than the declared total is refused at the token,
        // before `repeat_n` materialises it.
        let bomb = "faultmap v1\ncell=8T vdd=0.3 seed=1\n\
                    banks=2 rows_per_bank=4 cells_per_row=8\nH99999999999999\n";
        let e = FaultMap::from_text(bomb).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(
            e.to_string().contains("overflows the declared total"),
            "{e}"
        );
    }

    #[test]
    #[should_panic(expected = "outside geometry")]
    fn out_of_range_lookup_panics() {
        FaultMap::fault_free(small_geometry()).health(4, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_geometry_rejected() {
        FaultMap::from_montecarlo(
            SramCell::T8,
            NTV,
            FaultGeometry {
                banks: 0,
                rows_per_bank: 1,
                cells_per_row: 1,
            },
            0,
        );
    }
}
