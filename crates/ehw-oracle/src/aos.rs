//! Evaluating circuits on AoS windows.
//!
//! [`AosBlockPlan`] is the baseline the plane layout is measured against:
//! the same lane-parallel block evaluation as `CompiledArray` (one opcode
//! dispatch per PE per block), but each lane buffer is gathered with stride
//! 9 across a slice of [`Window3x3`]s instead of copied from a contiguous
//! plane.  Its [`filter_image`](AosBlockPlan::filter_image) streams each
//! image row's windows into such a slice, which is how the naive cascade
//! filters.  [`respond`] runs one AoS window through a production plan, for
//! tests that state properties of single windows.

use std::collections::BTreeMap;

use ehw_array::compiled::CompiledArray;
use ehw_array::genotype::{Genotype, ARRAY_COLS, ARRAY_ROWS, PE_GENES};
use ehw_array::pe::{FaultBehaviour, PeFunction};
use ehw_image::image::GrayImage;

use crate::interpreter::interpret_window;
use crate::window::{for_each_window_in_rows, Window3x3};

/// Windows per block, as in `CompiledArray::BLOCK`.
const BLOCK: usize = CompiledArray::BLOCK;

/// A genotype plus fault overlay decoded for block evaluation of AoS
/// windows.  Fault-free circuits run the block path; a circuit with faults
/// runs the interpreter window by window, as the production plan runs its
/// scalar overlay path.
#[derive(Debug, Clone)]
pub struct AosBlockPlan {
    genotype: Genotype,
    faults: BTreeMap<(usize, usize), FaultBehaviour>,
    fns: [PeFunction; PE_GENES],
    north: [usize; ARRAY_COLS],
    west: [usize; ARRAY_ROWS],
    out_row: usize,
}

impl AosBlockPlan {
    /// Decodes `genotype` with no faults.
    pub fn new(genotype: &Genotype) -> Self {
        Self::with_faults(genotype, BTreeMap::new())
    }

    /// Decodes `genotype` under the fault overlay `faults`.
    pub fn with_faults(
        genotype: &Genotype,
        faults: BTreeMap<(usize, usize), FaultBehaviour>,
    ) -> Self {
        // Out-of-range selectors decode to the centre, as `Window3x3::select`.
        let clamp = |sel: u8| {
            if (sel as usize) < 9 {
                sel as usize
            } else {
                Window3x3::CENTER
            }
        };
        Self {
            genotype: genotype.clone(),
            faults,
            fns: std::array::from_fn(|i| PeFunction::from_gene(genotype.pe_genes[i])),
            north: std::array::from_fn(|c| clamp(genotype.north_selector(c))),
            west: std::array::from_fn(|r| clamp(genotype.west_selector(r))),
            out_row: (genotype.output_gene as usize) % ARRAY_ROWS,
        }
    }

    /// Evaluates every window of `windows` into `out` (same length).
    pub fn evaluate_windows_into(&self, windows: &[Window3x3], out: &mut [u8]) {
        assert_eq!(windows.len(), out.len(), "window/output length mismatch");
        if self.faults.is_empty() {
            for (wc, oc) in windows.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
                self.evaluate_block(wc, oc);
            }
        } else {
            for (o, w) in out.iter_mut().zip(windows) {
                *o = interpret_window(&self.genotype, &self.faults, w);
            }
        }
    }

    /// One block of at most [`BLOCK`] windows: each lane buffer is a
    /// stride-9 gather of the selected pixel, then every PE opcode is
    /// applied across the whole block.
    fn evaluate_block(&self, windows: &[Window3x3], out: &mut [u8]) {
        let len = windows.len();
        let mut north = [[0u8; BLOCK]; ARRAY_COLS];
        for (c, lanes) in north.iter_mut().enumerate() {
            let sel = self.north[c];
            for (lane, w) in lanes.iter_mut().zip(windows) {
                *lane = w.0[sel];
            }
        }
        let mut west = [0u8; BLOCK];
        for r in 0..=self.out_row {
            let sel = self.west[r];
            for (lane, w) in west.iter_mut().zip(windows) {
                *lane = w.0[sel];
            }
            for (c, lanes) in north.iter_mut().enumerate() {
                self.fns[r * ARRAY_COLS + c].apply_lanes(&mut west[..len], &lanes[..len]);
                lanes[..len].copy_from_slice(&west[..len]);
            }
        }
        out.copy_from_slice(&west[..len]);
    }

    /// Filters a whole image: the windows of each row are streamed out of
    /// three row slices ([`for_each_window_in_rows`]) into an AoS row
    /// buffer and evaluated with
    /// [`evaluate_windows_into`](Self::evaluate_windows_into).
    pub fn filter_image(&self, img: &GrayImage) -> GrayImage {
        let width = img.width();
        let mut row: Vec<Window3x3> = Vec::with_capacity(width);
        let mut data = vec![0u8; img.len()];
        for (y, out) in data.chunks_mut(width).enumerate() {
            row.clear();
            for_each_window_in_rows(img, y, y + 1, |_, _, w| row.push(*w));
            self.evaluate_windows_into(&row, out);
        }
        GrayImage::from_vec(width, img.height(), data)
    }
}

/// The plan's response to one window: the centre pixel of the 3×3 image
/// whose pixels are the window, filtered through the production path.
pub fn respond(plan: &CompiledArray, window: &Window3x3) -> u8 {
    let img = GrayImage::from_vec(3, 3, window.0.to_vec());
    plan.filter_image(&img).pixel(1, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::gather;
    use ehw_image::window::SharedWindows;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn aos_block_path_matches_planes_and_interpreter() {
        let mut rng = StdRng::seed_from_u64(0xB10C);
        // Several full blocks plus a ragged tail.
        let img = GrayImage::from_fn(BLOCK * 2 + 17, 3, |_, _| rng.gen());
        let windows = SharedWindows::new(&img);
        let aos: Vec<Window3x3> = (0..windows.len()).map(|i| gather(&windows, i)).collect();
        for _ in 0..50 {
            let g = Genotype::random(&mut rng);
            let mut from_aos = vec![0u8; aos.len()];
            AosBlockPlan::new(&g).evaluate_windows_into(&aos, &mut from_aos);
            let mut from_planes = vec![0u8; aos.len()];
            CompiledArray::new(&g).evaluate_planes_into(&windows, 0, &mut from_planes);
            assert_eq!(from_aos, from_planes);
            for (k, w) in aos.iter().enumerate() {
                assert_eq!(
                    from_aos[k],
                    interpret_window(&g, &BTreeMap::new(), w),
                    "window {k}"
                );
            }
        }
    }
}
