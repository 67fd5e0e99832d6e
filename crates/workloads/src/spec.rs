//! Workload metadata: the paper's Table I reference values and the
//! category split of Fig. 4.

use std::ops::Deref;
use std::sync::Arc;

use prf_core::Launch;

/// The profiling-behaviour category a benchmark falls into (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Compiler and pilot profiling agree within 10%: static occurrence
    /// counts track dynamic access counts.
    One,
    /// Compiler profiling lands >10% *below* pilot: dynamic information
    /// (loop counts, branch paths) is needed.
    Two,
    /// Compiler lands >10% *above* pilot: the kernel has so few warps that
    /// the pilot's run is unrepresentative and/or finishes too late
    /// (LIB, WP).
    Three,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Category::One => "Category 1",
            Category::Two => "Category 2",
            Category::Three => "Category 3",
        };
        f.write_str(s)
    }
}

/// One row of the paper's Table I (the published reference values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Registers per thread.
    pub regs_per_thread: u8,
    /// Threads per CTA.
    pub threads_per_cta: u32,
    /// Pilot-warp runtime as a percentage of kernel time, as published.
    pub pilot_cta_pct: f64,
}

/// A complete benchmark: launches, memory initialisation, and reference
/// metadata.
///
/// The synthetic kernels reproduce the paper-relevant properties of the
/// Rodinia/Parboil originals: the Table I register/CTA shape *exactly*,
/// the register access skew of Fig. 2 approximately, and the category
/// behaviour of Fig. 4 structurally (see `prf-workloads` crate docs).
/// Grid sizes are scaled down so a run takes well under a second; the
/// published pilot percentages are therefore matched in *ordering* (tiny
/// for most workloads, large for MUM/CP/LIB/WP), not absolute value.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name (as in Table I).
    pub name: &'static str,
    /// Fig. 4 category.
    pub category: Category,
    /// Kernel launches, run back to back.
    pub launches: Vec<Launch>,
    /// Global-memory blocks to load before the first launch:
    /// `(base_word_address, words)`, shared by every clone.
    pub mem_init: MemImage,
    /// Published Table I values for comparison in reports.
    pub table1: Table1Row,
}

impl Workload {
    /// Registers per thread of the first (or only) kernel.
    pub fn regs_per_thread(&self) -> u8 {
        self.launches[0].kernel.regs_per_thread()
    }

    /// Threads per CTA of the first launch.
    pub fn threads_per_cta(&self) -> u32 {
        self.launches[0].grid.threads_per_cta
    }
}

/// A workload's initial global-memory image: `(base_word_address, words)`
/// blocks behind one shared, immutable allocation.
///
/// Cloning a [`Workload`] (and so every matrix job built from it) copies
/// a pointer, not the words. The image derefs to the block slice, so it
/// passes wherever `&[(u32, Vec<u32>)]` is taken, and `&image` iterates
/// the blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemImage(Arc<[(u32, Vec<u32>)]>);

impl Deref for MemImage {
    type Target = [(u32, Vec<u32>)];

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl From<Vec<(u32, Vec<u32>)>> for MemImage {
    fn from(blocks: Vec<(u32, Vec<u32>)>) -> Self {
        MemImage(blocks.into())
    }
}

impl<'a> IntoIterator for &'a MemImage {
    type Item = &'a (u32, Vec<u32>);
    type IntoIter = std::slice::Iter<'a, (u32, Vec<u32>)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_display() {
        assert_eq!(Category::One.to_string(), "Category 1");
        assert_eq!(Category::Three.to_string(), "Category 3");
    }

    #[test]
    fn mem_image_clones_share_the_blocks() {
        let image = MemImage::from(vec![(16, vec![1, 2, 3]), (64, vec![])]);
        let copy = image.clone();
        assert!(std::ptr::eq(&*image, &*copy));
        assert_eq!(image.len(), 2);
        let blocks: Vec<_> = (&copy).into_iter().map(|(b, w)| (*b, w.len())).collect();
        assert_eq!(blocks, [(16, 3), (64, 0)]);
    }
}
