//! Compiled execution plans for the processing array.
//!
//! The genotype is a *description* of a circuit; evaluating it through
//! [`Genotype`] accessors means re-decoding PE genes and re-resolving fault
//! overlays for every pixel of every image — exactly the per-pixel interpreter
//! overhead the evaluation engine removes.  [`CompiledArray`] bakes one
//! genotype plus one fault overlay into a flat structure-of-arrays plan:
//!
//! * per-PE function opcodes, already decoded from the 4-bit genes,
//! * pre-clamped input-mux selectors (out-of-range selectors resolve to the
//!   window centre at compile time, mirroring the hardware's safe decode),
//! * a dense `[Option<FaultBehaviour>; 16]` overlay replacing the per-pixel
//!   `BTreeMap` lookups of the interpreter,
//! * the resolved output row.
//!
//! Compilation costs a few dozen nanoseconds and happens once per candidate;
//! the inner loop then touches only flat arrays.  It reads the windows as
//! [`SharedWindows`] planes: a fault-free plan runs blocks of
//! [`CompiledArray::BLOCK`] windows with one opcode dispatch per PE per
//! block, a plan with faults runs the scalar overlay path window by window.
//! The original per-pixel interpreter lives on in the `ehw-oracle` crate as
//! the correctness oracle of the equivalence suites and the baseline of the
//! evaluation benches; `CompiledArray` is bit-identical to it by
//! construction and by test.

use ehw_image::image::GrayImage;
use ehw_image::window::{SharedWindows, CENTER};

use crate::genotype::{GeneDiff, Genotype, ARRAY_COLS, ARRAY_ROWS, INPUT_GENES, PE_GENES};
use crate::pe::{FaultBehaviour, PeFunction};

/// A genotype + fault overlay compiled into a flat execution plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledArray {
    /// Decoded PE functions in row-major order.
    fns: [PeFunction; PE_GENES],
    /// Fault overlay in row-major order (`None` = healthy PE).
    faults: [Option<FaultBehaviour>; PE_GENES],
    /// Pre-clamped window selectors for the four north inputs.
    north: [usize; ARRAY_COLS],
    /// Pre-clamped window selectors for the four west inputs.
    west: [usize; ARRAY_ROWS],
    /// Resolved output row (`output_gene % ARRAY_ROWS`).
    out_row: usize,
    /// `true` if at least one PE carries a fault (selects the overlay loop).
    has_faults: bool,
}

impl CompiledArray {
    /// Compiles a genotype with no fault overlay.
    pub fn new(genotype: &Genotype) -> Self {
        Self::with_faults(genotype, std::iter::empty())
    }

    /// Compiles a genotype with the given fault overlay.  Positions outside
    /// the 4×4 array are ignored (they can never influence the output).
    pub fn with_faults(
        genotype: &Genotype,
        overlay: impl IntoIterator<Item = ((usize, usize), FaultBehaviour)>,
    ) -> Self {
        let mut fns = [PeFunction::IdentityW; PE_GENES];
        for (i, f) in fns.iter_mut().enumerate() {
            *f = PeFunction::from_gene(genotype.pe_genes[i]);
        }
        let mut faults = [None; PE_GENES];
        let mut has_faults = false;
        for ((row, col), behaviour) in overlay {
            if row < ARRAY_ROWS && col < ARRAY_COLS {
                faults[row * ARRAY_COLS + col] = Some(behaviour);
                has_faults = true;
            }
        }
        let mut north = [0usize; ARRAY_COLS];
        for (c, n) in north.iter_mut().enumerate() {
            *n = Self::clamp_selector(genotype.north_selector(c));
        }
        let mut west = [0usize; ARRAY_ROWS];
        for (r, w) in west.iter_mut().enumerate() {
            *w = Self::clamp_selector(genotype.west_selector(r));
        }
        Self {
            fns,
            faults,
            north,
            west,
            out_row: (genotype.output_gene as usize) % ARRAY_ROWS,
            has_faults,
        }
    }

    /// Selector values above 8 decode to the window centre, like the
    /// hardware's mux decode; resolving that at compile/patch time removes
    /// the per-pixel branch.
    #[inline]
    fn clamp_selector(sel: u8) -> usize {
        if (sel as usize) < 9 {
            sel as usize
        } else {
            CENTER
        }
    }

    /// Re-derives a child's plan from its parent's by rewriting only the
    /// entries of the genes in `diff` — the software mirror of the paper's
    /// partial reconfiguration, where only changed PE genes are shipped to
    /// the fabric.  Bit-identical to compiling the child genotype from
    /// scratch under the same fault overlay (the overlay is carried over
    /// untouched; see [`patch_fault`](Self::patch_fault) for overlay edits).
    pub fn patch(&self, diff: &GeneDiff) -> CompiledArray {
        let mut plan = *self;
        plan.apply(diff);
        plan
    }

    /// In-place [`patch`](Self::patch): rewrites only the entries of the
    /// genes in `diff`, ≤ k writes with no struct copy.  Pair with
    /// [`revert`](Self::revert) to keep one worker-resident plan that is
    /// patched to each candidate and restored afterwards — the cheapest
    /// possible reconfiguration round trip.
    pub fn apply(&mut self, diff: &GeneDiff) {
        for &(gene, value, _) in diff.entries() {
            self.apply_gene(gene as usize, value);
        }
    }

    /// Undoes an [`apply`](Self::apply) of `diff` by replaying the same gene
    /// positions with the parent values carried in the diff — the return
    /// trip that restores a worker-resident plan to the parent's plan after
    /// a candidate was evaluated.  No genotype lookups: the diff is
    /// self-contained in both directions.
    pub fn revert(&mut self, diff: &GeneDiff) {
        for &(gene, _, old) in diff.entries() {
            self.apply_gene(gene as usize, old);
        }
    }

    /// Rewrites one flat-ordered gene's compiled entry.
    #[inline]
    fn apply_gene(&mut self, gene: usize, value: u8) {
        if gene < PE_GENES {
            self.fns[gene] = PeFunction::from_gene(value);
        } else if gene < PE_GENES + INPUT_GENES {
            let input = gene - PE_GENES;
            if input < ARRAY_COLS {
                self.north[input] = Self::clamp_selector(value);
            } else {
                self.west[input - ARRAY_COLS] = Self::clamp_selector(value);
            }
        } else {
            self.out_row = (value as usize) % ARRAY_ROWS;
        }
    }

    /// Rewrites one fault-overlay entry (`None` clears the position) without
    /// recompiling the genotype-derived entries.  Positions outside the 4×4
    /// array are ignored, exactly like [`with_faults`](Self::with_faults).
    pub fn patch_fault(
        &self,
        row: usize,
        col: usize,
        behaviour: Option<FaultBehaviour>,
    ) -> CompiledArray {
        let mut plan = *self;
        if row < ARRAY_ROWS && col < ARRAY_COLS {
            plan.faults[row * ARRAY_COLS + col] = behaviour;
            plan.has_faults = plan.faults.iter().any(|f| f.is_some());
        }
        plan
    }

    /// `true` if the plan carries at least one faulty PE.
    pub fn has_faults(&self) -> bool {
        self.has_faults
    }

    /// Windows per block of the lane-parallel evaluation path.  Each PE
    /// opcode is dispatched once per block and applied across the whole lane
    /// buffer, which the compiler vectorises on `u8` lanes.
    pub const BLOCK: usize = 64;

    /// Evaluates a block of at most [`BLOCK`](Self::BLOCK) windows,
    /// `start..start + out.len()`, with the per-PE opcode dispatch hoisted
    /// out of the pixel loop.  Each input's lane buffer is one contiguous
    /// copy from the plane its mux selects.
    fn evaluate_block_clean_planes(&self, windows: &SharedWindows, start: usize, out: &mut [u8]) {
        let len = out.len();
        debug_assert!(len <= Self::BLOCK);
        // `north[c]` holds the north inputs of the current row for every
        // window of the block: the selected window pixels before row 0, the
        // row's own outputs afterwards.
        let mut north = [[0u8; Self::BLOCK]; ARRAY_COLS];
        for (c, lanes) in north.iter_mut().enumerate() {
            lanes[..len].copy_from_slice(&windows.plane(self.north[c])[start..start + len]);
        }
        let mut west = [0u8; Self::BLOCK];
        // Data only flows east and south, so rows below the output row can
        // never reach the east output — stop there.
        for r in 0..=self.out_row {
            west[..len].copy_from_slice(&windows.plane(self.west[r])[start..start + len]);
            for (c, lanes) in north.iter_mut().enumerate() {
                self.fns[r * ARRAY_COLS + c].apply_lanes(&mut west[..len], &lanes[..len]);
                lanes[..len].copy_from_slice(&west[..len]);
            }
        }
        out.copy_from_slice(&west[..len]);
    }

    /// Scalar path for plans with a fault overlay: window `i` through the
    /// mesh, corrupting the output of every faulty PE.  Only the (at most
    /// eight) selected planes are read, each at raster index `i`.
    fn evaluate_faulty_planes(&self, windows: &SharedWindows, i: usize) -> u8 {
        let mut prev = [0u8; ARRAY_COLS];
        for (c, p) in prev.iter_mut().enumerate() {
            *p = windows.plane(self.north[c])[i];
        }
        let mut out = 0u8;
        for r in 0..=self.out_row {
            let mut w_in = windows.plane(self.west[r])[i];
            for (c, p) in prev.iter_mut().enumerate() {
                let idx = r * ARRAY_COLS + c;
                let correct = self.fns[idx].apply(w_in, *p);
                let v = match self.faults[idx] {
                    Some(fault) => fault.corrupt(correct, w_in, *p),
                    None => correct,
                };
                *p = v;
                w_in = v;
            }
            out = w_in;
        }
        out
    }

    /// Evaluates the windows `start..start + out.len()` into `out`: the
    /// lane-parallel block path for fault-free plans, the scalar overlay
    /// path otherwise.  Bit-identical to the per-pixel interpreter of
    /// `ehw-oracle` on the same genotype and overlay.
    pub fn evaluate_planes_into(&self, windows: &SharedWindows, start: usize, out: &mut [u8]) {
        assert!(
            start + out.len() <= windows.len(),
            "plane range out of bounds"
        );
        if self.has_faults {
            for (k, o) in out.iter_mut().enumerate() {
                *o = self.evaluate_faulty_planes(windows, start + k);
            }
        } else {
            for (k, chunk) in out.chunks_mut(Self::BLOCK).enumerate() {
                self.evaluate_block_clean_planes(windows, start + k * Self::BLOCK, chunk);
            }
        }
    }

    /// The plan's response to every window of `windows`: the output image
    /// of the filter on the image the windows were extracted from.
    pub fn filter_windows(&self, windows: &SharedWindows) -> GrayImage {
        let mut data = vec![0u8; windows.len()];
        self.evaluate_planes_into(windows, 0, &mut data);
        GrayImage::from_vec(windows.width(), windows.height(), data)
    }

    /// Filters a whole image through the plan (window extraction followed by
    /// [`filter_windows`](Self::filter_windows)).
    pub fn filter_image(&self, img: &GrayImage) -> GrayImage {
        self.filter_windows(&SharedWindows::new(img))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehw_image::synth;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn random_overlay(rng: &mut StdRng, density: f64) -> BTreeMap<(usize, usize), FaultBehaviour> {
        let mut overlay = BTreeMap::new();
        for row in 0..ARRAY_ROWS {
            for col in 0..ARRAY_COLS {
                if rng.gen_bool(density) {
                    let behaviour = match rng.gen_range(0..3) {
                        0 => FaultBehaviour::RandomOutput { seed: rng.gen() },
                        1 => FaultBehaviour::StuckAt { value: rng.gen() },
                        _ => FaultBehaviour::InvertedOutput,
                    };
                    overlay.insert((row, col), behaviour);
                }
            }
        }
        overlay
    }

    /// The plan's response to one window: the centre pixel of the filtered
    /// 3×3 image whose pixels are the window.
    fn respond(plan: &CompiledArray, window: [u8; 9]) -> u8 {
        let img = GrayImage::from_vec(3, 3, window.to_vec());
        plan.filter_image(&img).pixel(1, 1)
    }

    #[test]
    fn identity_plan_passes_center() {
        let plan = CompiledArray::new(&Genotype::identity());
        assert_eq!(respond(&plan, [10, 20, 30, 40, 50, 60, 70, 80, 90]), 50);
        assert!(!plan.has_faults());
    }

    #[test]
    fn block_path_matches_scalar_path() {
        let mut rng = StdRng::seed_from_u64(0xB10C);
        for _ in 0..50 {
            let g = Genotype::random(&mut rng);
            let plan = CompiledArray::new(&g);
            // An awkward length: several full blocks plus a ragged tail.
            let img = GrayImage::from_fn(CompiledArray::BLOCK * 2 + 17, 3, |_, _| rng.gen());
            let windows = SharedWindows::new(&img);
            let mut block = vec![0u8; windows.len()];
            plan.evaluate_planes_into(&windows, 0, &mut block);
            // The scalar overlay path with an empty overlay is the clean
            // circuit evaluated one window at a time.
            for (k, &lane) in block.iter().enumerate() {
                assert_eq!(lane, plan.evaluate_faulty_planes(&windows, k), "window {k}");
            }
        }
    }

    #[test]
    fn patched_plan_matches_fresh_compile() {
        let mut rng = StdRng::seed_from_u64(0x9A7C);
        for rate in [0usize, 1, 3, 5, 25] {
            for _ in 0..50 {
                let parent = Genotype::random(&mut rng);
                let overlay = random_overlay(&mut rng, 0.2);
                let parent_plan =
                    CompiledArray::with_faults(&parent, overlay.iter().map(|(&p, &b)| (p, b)));
                let child = parent.mutated(rate, &mut rng);
                let patched = parent_plan.patch(&child.diff_from(&parent));
                let fresh =
                    CompiledArray::with_faults(&child, overlay.iter().map(|(&p, &b)| (p, b)));
                assert_eq!(patched, fresh, "rate {rate}");
            }
        }
    }

    #[test]
    fn apply_then_revert_restores_the_parent_plan() {
        // The worker-resident round trip: apply the child's diff, evaluate,
        // revert to the parent — the plan must come back byte-identical and
        // equal the by-value patch in between.
        let mut rng = StdRng::seed_from_u64(0x51DE);
        for rate in [1usize, 3, 25] {
            for _ in 0..50 {
                let parent = Genotype::random(&mut rng);
                let overlay = random_overlay(&mut rng, 0.2);
                let parent_plan =
                    CompiledArray::with_faults(&parent, overlay.iter().map(|(&p, &b)| (p, b)));
                let child = parent.mutated(rate, &mut rng);
                let diff = child.diff_from(&parent);
                let mut resident = parent_plan;
                resident.apply(&diff);
                assert_eq!(resident, parent_plan.patch(&diff), "rate {rate}");
                resident.revert(&diff);
                assert_eq!(resident, parent_plan, "rate {rate}");
            }
        }
    }

    #[test]
    fn patch_fault_matches_fresh_compile() {
        let mut rng = StdRng::seed_from_u64(0xFA);
        let g = Genotype::random(&mut rng);
        let mut overlay = BTreeMap::new();
        let mut plan = CompiledArray::new(&g);
        // Inject, replace and clear faults one edit at a time; the patched
        // plan must track a fresh compile of the full overlay throughout.
        let edits: [((usize, usize), Option<FaultBehaviour>); 6] = [
            ((1, 2), Some(FaultBehaviour::StuckAt { value: 9 })),
            ((0, 3), Some(FaultBehaviour::InvertedOutput)),
            ((1, 2), Some(FaultBehaviour::RandomOutput { seed: 7 })),
            ((0, 3), None),
            ((1, 2), None),
            ((3, 3), Some(FaultBehaviour::StuckAt { value: 0 })),
        ];
        for ((row, col), behaviour) in edits {
            match behaviour {
                Some(b) => {
                    overlay.insert((row, col), b);
                }
                None => {
                    overlay.remove(&(row, col));
                }
            }
            plan = plan.patch_fault(row, col, behaviour);
            let fresh = CompiledArray::with_faults(&g, overlay.iter().map(|(&p, &b)| (p, b)));
            assert_eq!(plan, fresh);
            assert_eq!(plan.has_faults(), !overlay.is_empty());
        }
        // Out-of-array positions are ignored, like with_faults.
        let before = plan;
        plan = plan.patch_fault(7, 7, Some(FaultBehaviour::InvertedOutput));
        assert_eq!(plan, before);
    }

    #[test]
    fn planes_path_matches_window_path() {
        // Window `i` of a whole image must get the same response as the
        // same nine pixels evaluated on their own.
        let mut rng = StdRng::seed_from_u64(0x504C);
        let img = synth::shapes(19, 11, 4);
        let windows = SharedWindows::new(&img);
        for _ in 0..25 {
            let g = Genotype::random(&mut rng);
            let overlay = random_overlay(&mut rng, 0.15);
            let plan = CompiledArray::with_faults(&g, overlay.iter().map(|(&p, &b)| (p, b)));
            let mut out = vec![0u8; windows.len()];
            plan.evaluate_planes_into(&windows, 0, &mut out);
            for (i, &o) in out.iter().enumerate() {
                let window = std::array::from_fn(|sel| windows.plane(sel)[i]);
                assert_eq!(o, respond(&plan, window), "window {i}");
            }
            // Sub-range evaluation (arbitrary start, ragged length) agrees
            // with the full pass.
            let start = 7;
            let mut sub = vec![0u8; windows.len() - start - 3];
            plan.evaluate_planes_into(&windows, start, &mut sub);
            assert_eq!(&sub[..], &out[start..start + sub.len()]);
        }
    }

    #[test]
    fn out_of_range_selectors_compile_to_center() {
        let mut g = Genotype::identity();
        g.input_genes = [9, 42, 255, 10, 100, 9, 200, 11];
        let plan = CompiledArray::new(&g);
        // Every input mux decodes to the centre; identity PEs pass it through.
        assert_eq!(respond(&plan, [1, 2, 3, 4, 99, 6, 7, 8, 9]), 99);
    }

    #[test]
    fn overlay_outside_array_is_ignored() {
        let g = Genotype::identity();
        let plan = CompiledArray::with_faults(&g, [((7, 7), FaultBehaviour::StuckAt { value: 1 })]);
        assert!(!plan.has_faults());
        assert_eq!(respond(&plan, [0, 0, 0, 0, 50, 0, 0, 0, 0]), 50);
    }

    #[test]
    fn stuck_fault_on_output_path_dominates() {
        let g = Genotype::identity();
        let plan = CompiledArray::with_faults(
            &g,
            [((0, ARRAY_COLS - 1), FaultBehaviour::StuckAt { value: 7 })],
        );
        assert!(plan.has_faults());
        let img = synth::gradient(16, 16);
        assert!(plan.filter_image(&img).pixels().all(|p| p == 7));
    }
}
