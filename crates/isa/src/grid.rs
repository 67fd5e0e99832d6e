//! Grid / CTA / warp / thread geometry.
//!
//! The paper's Table I characterises each benchmark by *registers per
//! thread* and *threads per CTA*; several benchmarks use CTA sizes that are
//! not multiples of the warp size (sad: 61, NN: 169, btree: 508), which
//! produces partially-populated last warps. [`GridConfig`] models all of
//! that.

use std::fmt;

/// Number of threads per warp (fixed at 32, as on all NVIDIA GPUs the paper
/// considers).
pub const WARP_SIZE: usize = 32;

/// A 3-component dimension. Only `x` is commonly exercised by the
/// reproduction workloads but the full shape is kept for fidelity with the
/// CUDA launch geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// x extent.
    pub x: u32,
    /// y extent.
    pub y: u32,
    /// z extent.
    pub z: u32,
}

impl Dim3 {
    /// A 1-D dimension `(x, 1, 1)`.
    pub fn x(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// Total element count `x*y*z`.
    pub fn count(self) -> u64 {
        u64::from(self.x) * u64::from(self.y) * u64::from(self.z)
    }
}

impl fmt::Display for Dim3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Self {
        Dim3::x(x)
    }
}

/// Identifier of a CTA within a grid (flattened index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtaId(pub u32);

impl fmt::Display for CtaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cta{}", self.0)
    }
}

/// The position of one thread inside a launch: which CTA, and which thread
/// within the CTA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadCoord {
    /// Flattened CTA index.
    pub cta: CtaId,
    /// Flattened thread index within the CTA.
    pub tid: u32,
}

impl ThreadCoord {
    /// Lane index within the warp.
    pub fn lane(self) -> u32 {
        self.tid % WARP_SIZE as u32
    }

    /// Warp index within the CTA.
    pub fn warp_in_cta(self) -> u32 {
        self.tid / WARP_SIZE as u32
    }
}

/// Launch geometry for one kernel: grid and CTA dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridConfig {
    /// Number of CTAs (flattened; `Dim3::count` of the CUDA grid dim).
    pub num_ctas: u32,
    /// Threads per CTA (flattened; may be any value ≥ 1, not necessarily a
    /// multiple of [`WARP_SIZE`]).
    pub threads_per_cta: u32,
}

impl GridConfig {
    /// Creates a launch geometry.
    ///
    /// # Panics
    ///
    /// Panics if either extent is zero.
    pub fn new(num_ctas: u32, threads_per_cta: u32) -> Self {
        assert!(num_ctas > 0, "grid must have at least one CTA");
        assert!(threads_per_cta > 0, "CTA must have at least one thread");
        GridConfig {
            num_ctas,
            threads_per_cta,
        }
    }

    /// Warps per CTA (ceiling division; the last warp may be partial).
    pub fn warps_per_cta(&self) -> u32 {
        self.threads_per_cta.div_ceil(WARP_SIZE as u32)
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        u64::from(self.num_ctas) * u64::from(self.threads_per_cta)
    }

    /// The 32-bit lane-active mask of warp `warp_in_cta`: all ones except in
    /// the final warp of a CTA whose size is not a warp multiple.
    pub fn active_mask(&self, warp_in_cta: u32) -> u32 {
        let start = warp_in_cta * WARP_SIZE as u32;
        let end = self.threads_per_cta.min(start + WARP_SIZE as u32);
        if end <= start {
            return 0;
        }
        let n = end - start;
        if n == 32 {
            u32::MAX
        } else {
            (1u32 << n) - 1
        }
    }
}

impl fmt::Display for GridConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<<<{}, {}>>>", self.num_ctas, self.threads_per_cta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warps_per_cta_rounds_up() {
        assert_eq!(GridConfig::new(1, 256).warps_per_cta(), 8);
        assert_eq!(GridConfig::new(1, 61).warps_per_cta(), 2); // sad
        assert_eq!(GridConfig::new(1, 508).warps_per_cta(), 16); // btree
        assert_eq!(GridConfig::new(1, 169).warps_per_cta(), 6); // NN
        assert_eq!(GridConfig::new(1, 16).warps_per_cta(), 1); // nw
    }

    #[test]
    fn partial_last_warp_mask() {
        let g = GridConfig::new(1, 61);
        assert_eq!(g.active_mask(0), u32::MAX);
        assert_eq!(g.active_mask(1), (1u32 << 29) - 1);
        assert_eq!(g.active_mask(2), 0);
    }

    #[test]
    fn full_warp_mask_is_all_ones() {
        let g = GridConfig::new(4, 64);
        assert_eq!(g.active_mask(0), u32::MAX);
        assert_eq!(g.active_mask(1), u32::MAX);
    }

    #[test]
    fn totals() {
        let g = GridConfig::new(10, 256);
        assert_eq!(g.total_threads(), 2560);
    }

    #[test]
    fn thread_coord_lane_and_warp() {
        let t = ThreadCoord {
            cta: CtaId(2),
            tid: 70,
        };
        assert_eq!(t.lane(), 6);
        assert_eq!(t.warp_in_cta(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        GridConfig::new(1, 0);
    }

    #[test]
    fn dim3_helpers() {
        let d = Dim3::x(7);
        assert_eq!(d.count(), 7);
        assert_eq!(Dim3 { x: 2, y: 3, z: 4 }.count(), 24);
        assert_eq!(d.to_string(), "(7, 1, 1)");
        let e: Dim3 = 5u32.into();
        assert_eq!(e, Dim3::x(5));
    }
}
