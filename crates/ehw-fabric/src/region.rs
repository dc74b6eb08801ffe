//! Reconfigurable regions and the platform floorplan.
//!
//! Each PE position of each array is a *reconfigurable region*: a rectangle of
//! fabric whose configuration frames can be rewritten independently of the
//! rest of the design.  The floorplan (Fig. 10 of the paper) stacks the arrays
//! vertically — one array per clock region, eight CLB columns wide — with each
//! PE occupying two CLB columns by a quarter of the clock-region height.
//!
//! [`Floorplan`] assigns every PE slot a frame range so that the
//! reconfiguration engine can translate "write PE function F at array a,
//! row r, column c" into frame writes, and so that fault injection can target
//! the frames that belong to a specific PE.

use crate::device::{DeviceGeometry, PE_CLB_COLS};
use crate::frame::FrameAddress;

/// Number of configuration frames modelled per PE slot.
///
/// The exact number on silicon depends on the column types spanned by the PE;
/// four frames per PE keeps the model small while still letting a single PE
/// contain many distinct fault locations.
pub const FRAMES_PER_PE: usize = 4;

/// Identifies one PE slot within the multi-array platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeSlot {
    /// Index of the array (Array Control Block) the PE belongs to.
    pub array: usize,
    /// Row of the PE within its 4×4 array.
    pub row: usize,
    /// Column of the PE within its 4×4 array.
    pub col: usize,
}

impl PeSlot {
    /// Creates a PE slot identifier.
    pub fn new(array: usize, row: usize, col: usize) -> Self {
        Self { array, row, col }
    }
}

/// A reconfigurable region: the frames belonging to one PE slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigurableRegion {
    /// The PE slot this region hosts.
    pub slot: PeSlot,
    /// Base frame address of the region.
    pub base: FrameAddress,
    /// Number of frames in the region.
    pub frames: usize,
}

impl ReconfigurableRegion {
    /// All frame addresses belonging to this region.
    pub fn frame_addresses(&self) -> impl Iterator<Item = FrameAddress> + '_ {
        (0..self.frames).map(move |i| {
            FrameAddress::new(
                self.base.region,
                self.base.major,
                self.base.minor + i as u16,
            )
        })
    }

    /// `true` if the given frame address falls inside this region.
    pub fn contains(&self, addr: FrameAddress) -> bool {
        addr.region == self.base.region
            && addr.major == self.base.major
            && addr.minor >= self.base.minor
            && (addr.minor as usize) < self.base.minor as usize + self.frames
    }
}

/// Floorplan of a multi-array platform: a grid of PE regions per array, laid
/// out according to the paper's Fig. 10 (arrays stacked vertically, one clock
/// region each).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Floorplan {
    geometry: DeviceGeometry,
    arrays: usize,
    rows: usize,
    cols: usize,
    regions: Vec<ReconfigurableRegion>,
}

impl Floorplan {
    /// Builds a floorplan for `arrays` arrays of `rows × cols` PEs on the
    /// given device.
    ///
    /// # Panics
    /// Panics if the requested number of arrays does not fit on the device or
    /// any dimension is zero.
    pub fn new(geometry: DeviceGeometry, arrays: usize, rows: usize, cols: usize) -> Self {
        assert!(
            arrays > 0 && rows > 0 && cols > 0,
            "floorplan dimensions must be non-zero"
        );
        assert!(
            arrays <= geometry.clock_regions,
            "not enough clock regions: requested {arrays}, device has {}",
            geometry.clock_regions
        );
        assert!(
            cols * PE_CLB_COLS <= geometry.clb_columns,
            "array is wider than the device"
        );

        let mut regions = Vec::with_capacity(arrays * rows * cols);
        for a in 0..arrays {
            for r in 0..rows {
                for c in 0..cols {
                    // One clock region per array; PEs tile the region: the
                    // column index selects the major column pair, the row
                    // index selects the minor frame offset within the column.
                    let slot = PeSlot::new(a, r, c);
                    let base = FrameAddress::new(
                        a as u16,
                        (c * PE_CLB_COLS) as u16,
                        (r * FRAMES_PER_PE) as u16,
                    );
                    regions.push(ReconfigurableRegion {
                        slot,
                        base,
                        frames: FRAMES_PER_PE,
                    });
                }
            }
        }
        Self {
            geometry,
            arrays,
            rows,
            cols,
            regions,
        }
    }

    /// The paper's demonstrator: three 4×4 arrays on a Virtex-5 LX110T.
    pub fn paper_three_arrays() -> Self {
        Floorplan::new(DeviceGeometry::virtex5_lx110t(), 3, 4, 4)
    }

    /// Number of arrays in the floorplan.
    pub fn arrays(&self) -> usize {
        self.arrays
    }

    /// PE rows per array.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// PE columns per array.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Device geometry the floorplan was built for.
    pub fn geometry(&self) -> &DeviceGeometry {
        &self.geometry
    }

    /// All reconfigurable regions.
    pub fn regions(&self) -> &[ReconfigurableRegion] {
        &self.regions
    }

    /// The region hosting a specific PE slot, if it exists.
    pub fn region(&self, slot: PeSlot) -> Option<&ReconfigurableRegion> {
        if slot.array >= self.arrays || slot.row >= self.rows || slot.col >= self.cols {
            return None;
        }
        let idx = (slot.array * self.rows + slot.row) * self.cols + slot.col;
        self.regions.get(idx)
    }

    /// The regions belonging to one array.
    pub fn array_regions(&self, array: usize) -> impl Iterator<Item = &ReconfigurableRegion> + '_ {
        self.regions.iter().filter(move |r| r.slot.array == array)
    }

    /// Finds which PE slot (if any) owns a frame address — used to map an
    /// injected configuration fault back to the PE it damages.
    pub fn slot_of_frame(&self, addr: FrameAddress) -> Option<PeSlot> {
        self.regions
            .iter()
            .find(|r| r.contains(addr))
            .map(|r| r.slot)
    }

    /// Total CLBs occupied by the evolvable arrays (the reconfigurable part of
    /// the design).
    pub fn reconfigurable_clbs(&self) -> usize {
        // Each PE: 2 columns × 5 CLB rows; array area follows from rows×cols.
        self.arrays * self.rows * self.cols * PE_CLB_COLS * crate::device::PE_CLB_ROWS
    }

    /// Fraction of CLB columns of a clock region used by one array.
    pub fn array_column_utilization(&self) -> f64 {
        (self.cols * PE_CLB_COLS) as f64 / self.geometry.clb_columns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::ARRAY_CLB_COLS;

    #[test]
    fn paper_floorplan_dimensions() {
        let fp = Floorplan::paper_three_arrays();
        assert_eq!(fp.arrays(), 3);
        assert_eq!(fp.rows(), 4);
        assert_eq!(fp.cols(), 4);
        assert_eq!(fp.regions().len(), 48);
        // 3 arrays × 16 PEs × (2 cols × 5 rows) = 480 CLBs of reconfigurable
        // fabric; the full array footprint (160 CLBs each, Fig. 10) also
        // includes the pass-through routing rows.
        assert_eq!(fp.reconfigurable_clbs(), 480);
        assert_eq!(fp.cols() * PE_CLB_COLS, ARRAY_CLB_COLS);
    }

    #[test]
    fn region_lookup_round_trips() {
        let fp = Floorplan::paper_three_arrays();
        for a in 0..3 {
            for r in 0..4 {
                for c in 0..4 {
                    let slot = PeSlot::new(a, r, c);
                    let region = fp.region(slot).expect("region exists");
                    assert_eq!(region.slot, slot);
                    for addr in region.frame_addresses() {
                        assert_eq!(fp.slot_of_frame(addr), Some(slot));
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_range_slot_returns_none() {
        let fp = Floorplan::paper_three_arrays();
        assert!(fp.region(PeSlot::new(3, 0, 0)).is_none());
        assert!(fp.region(PeSlot::new(0, 4, 0)).is_none());
        assert!(fp.region(PeSlot::new(0, 0, 4)).is_none());
    }

    #[test]
    fn regions_do_not_overlap() {
        let fp = Floorplan::paper_three_arrays();
        let mut seen = std::collections::HashSet::new();
        for region in fp.regions() {
            for addr in region.frame_addresses() {
                assert!(seen.insert(addr), "frame {addr} owned by two regions");
            }
        }
        assert_eq!(seen.len(), 48 * FRAMES_PER_PE);
    }

    #[test]
    fn array_regions_filters_by_array() {
        let fp = Floorplan::paper_three_arrays();
        let a1: Vec<_> = fp.array_regions(1).collect();
        assert_eq!(a1.len(), 16);
        assert!(a1.iter().all(|r| r.slot.array == 1));
    }

    #[test]
    fn unknown_frame_has_no_slot() {
        let fp = Floorplan::paper_three_arrays();
        assert_eq!(fp.slot_of_frame(FrameAddress::new(7, 50, 99)), None);
    }

    #[test]
    #[should_panic(expected = "not enough clock regions")]
    fn too_many_arrays_panics() {
        let _ = Floorplan::new(DeviceGeometry::small(), 3, 4, 4);
    }

    #[test]
    fn column_utilization_matches_paper_ratio() {
        let fp = Floorplan::paper_three_arrays();
        // 8 of 54 CLB columns per clock region.
        assert!((fp.array_column_utilization() - 8.0 / 54.0).abs() < 1e-12);
    }
}
