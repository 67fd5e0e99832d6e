//! Pins the exact fault maps the figure binaries and the serving path
//! build: for each operating point and seed, the stuck and weak row counts
//! and an FNV-1a digest of the map's text artifact.
//!
//! Any change to how `FaultMap::from_montecarlo` classifies rows must keep
//! every map bit-identical; a new entry here is fine, an edited one is a
//! behaviour change of every `--faults` run.

use prf_bench::fault_config_for;
use prf_finfet::faults::{FaultGeometry, FaultMap};
use prf_finfet::sram::SramCell;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(stuck rows, weak rows, FNV-1a of to_text())`.
fn fingerprint(map: &FaultMap) -> (usize, usize, u64) {
    (
        map.stuck_rows(),
        map.weak_rows(),
        fnv1a(map.to_text().as_bytes()),
    )
}

#[test]
fn figure_campaign_maps_are_pinned() {
    // `--faults 42,0.3` and a second seed, through the figure binaries'
    // own constructor.
    let pins = [
        (42, (14, 398, 0xb0dfe67f8e4c3b9d)),
        (7, (11, 400, 0x093ba1e48e4dac74)),
    ];
    for (seed, want) in pins {
        let fc = fault_config_for(seed, 0.3);
        assert_eq!(fingerprint(&fc.map), want, "fault_config_for({seed}, 0.3)");
    }
}

#[test]
fn kepler_maps_across_the_ntv_range_are_pinned() {
    let pins = [
        (SramCell::T8, 0.25, 42, (154, 1430, 0xa5fa2fd5e965ad42)),
        (SramCell::T8, 0.25, 7, (152, 1425, 0xdb32e557d5d8485f)),
        (SramCell::T8, 0.35, 42, (0, 42, 0x146309f8e43f2552)),
        (SramCell::T8, 0.35, 7, (0, 38, 0x4103f588505c0139)),
        (SramCell::T8, 0.45, 42, (0, 0, 0x63c640fc2b3fbc5f)),
        (SramCell::T8, 0.45, 7, (0, 0, 0xf17fd2c1fd9cdc6e)),
        (SramCell::T6, 0.5, 42, (0, 66, 0x910f1743739fc578)),
        (SramCell::T6, 0.5, 7, (0, 74, 0xbd74d0b9ab5ae48f)),
    ];
    for (cell, vdd, seed, want) in pins {
        let map = FaultMap::from_montecarlo(cell, vdd, FaultGeometry::kepler_rf(), seed);
        assert_eq!(fingerprint(&map), want, "{cell} at {vdd} V, seed {seed}");
    }
}
