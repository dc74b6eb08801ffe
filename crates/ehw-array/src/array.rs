//! Functional model of the 4×4 systolic processing array.
//!
//! The hardware array is fed by a window generator: for every output pixel,
//! the 3×3 neighbourhood of the corresponding input pixel is presented to the
//! array's eight inputs (through the per-input 9-to-1 muxes), the data
//! propagates through the pipelined PE mesh, and one of the four east-side
//! outputs is selected as the result.  Because each PE registers its output,
//! the array processes one window (one output pixel) per clock once the
//! pipeline is full.
//!
//! [`ProcessingArray`] reproduces this behaviour functionally: it computes the
//! exact same output pixel the hardware would, without modelling individual
//! clock cycles (the cycle-level cost is captured by the latency and timing
//! models).  Faulty PEs — the PE-level fault model of §VI.D — are overlaid on
//! the genotype: a damaged position corrupts its output regardless of the
//! function configured into it, exactly like the paper's "dummy PE" partial
//! bitstream.

use std::collections::BTreeMap;

use ehw_image::image::GrayImage;
use ehw_image::metrics::mae;

use crate::compiled::CompiledArray;
use crate::genotype::{GeneDiff, Genotype, ARRAY_COLS, ARRAY_ROWS};
use crate::pe::FaultBehaviour;

/// The functional model of one evolvable processing array.
///
/// The genotype and fault overlay are the *state*; every mutation of either
/// *patches* the flat [`CompiledArray`] execution plan the hot paths actually
/// run — only the entries of the genes (or the overlay position) that changed
/// are rewritten, the software mirror of the paper's Dynamic Partial
/// Reconfiguration where only changed PE bitstreams are shipped to the
/// fabric.  The array remembers the plan it was configured with before the
/// last reconfiguration ([`parent_plan`](Self::parent_plan)) and the gene
/// diff that produced the current one ([`last_gene_diff`](Self::last_gene_diff)).
#[derive(Debug, Clone)]
pub struct ProcessingArray {
    genotype: Genotype,
    faults: BTreeMap<(usize, usize), FaultBehaviour>,
    plan: CompiledArray,
    /// The plan configured before the most recent [`set_genotype`]
    /// (under the *current* fault overlay — overlay edits patch both plans).
    parent_plan: CompiledArray,
    /// The gene diff applied by the most recent [`set_genotype`].
    last_diff: GeneDiff,
}

impl ProcessingArray {
    /// Creates an array configured with the given genotype and no faults.
    pub fn new(genotype: Genotype) -> Self {
        let plan = CompiledArray::new(&genotype);
        Self {
            genotype,
            faults: BTreeMap::new(),
            plan,
            parent_plan: plan,
            last_diff: GeneDiff::default(),
        }
    }

    /// Compiles `genotype` against this array's *current* fault overlay,
    /// without reconfiguring the array.  This is how a fitness evaluator
    /// scores a candidate on (possibly damaged) hardware: one plan per
    /// candidate, no array clone, no per-pixel fault lookups.  Candidates
    /// derived from an already-compiled parent should use
    /// [`CompiledArray::patch`] on that parent's plan instead — bit-identical
    /// and cheaper than a fresh compile.
    pub fn compile_with(&self, genotype: &Genotype) -> CompiledArray {
        CompiledArray::with_faults(genotype, self.faults.iter().map(|(&p, &b)| (p, b)))
    }

    /// The execution plan currently configured (genotype + fault overlay).
    pub fn plan(&self) -> &CompiledArray {
        &self.plan
    }

    /// The plan that was configured before the most recent genotype change
    /// (kept in sync with overlay edits), i.e. the parent of
    /// [`plan`](Self::plan) under [`last_gene_diff`](Self::last_gene_diff).
    pub fn parent_plan(&self) -> &CompiledArray {
        &self.parent_plan
    }

    /// The gene diff applied by the most recent genotype change (empty until
    /// the first [`set_genotype`](Self::set_genotype)).
    pub fn last_gene_diff(&self) -> &GeneDiff {
        &self.last_diff
    }

    /// Creates an array configured with the identity genotype.
    pub fn identity() -> Self {
        Self::new(Genotype::identity())
    }

    /// The currently configured genotype.
    pub fn genotype(&self) -> &Genotype {
        &self.genotype
    }

    /// Reconfigures the array with a new genotype by patching the current
    /// plan with the gene diff (partial reconfiguration).  Faults are a
    /// property of the fabric, not of the configuration, so they persist
    /// across reconfiguration — the key behaviour behind the self-healing
    /// experiments.
    pub fn set_genotype(&mut self, genotype: Genotype) {
        let diff = genotype.diff_from(&self.genotype);
        self.parent_plan = self.plan;
        self.plan = self.parent_plan.patch(&diff);
        self.last_diff = diff;
        self.genotype = genotype;
    }

    /// Injects a PE-level fault at array position `(row, col)`.
    ///
    /// # Panics
    /// Panics if the position is outside the 4×4 array.
    pub fn inject_fault(&mut self, row: usize, col: usize, behaviour: FaultBehaviour) {
        assert!(
            row < ARRAY_ROWS && col < ARRAY_COLS,
            "PE position out of range"
        );
        self.faults.insert((row, col), behaviour);
        self.plan = self.plan.patch_fault(row, col, Some(behaviour));
        self.parent_plan = self.parent_plan.patch_fault(row, col, Some(behaviour));
    }

    /// Removes the fault at `(row, col)`, if any (models repairing a transient
    /// fault by scrubbing).
    pub fn clear_fault(&mut self, row: usize, col: usize) {
        if self.faults.remove(&(row, col)).is_some() {
            self.plan = self.plan.patch_fault(row, col, None);
            self.parent_plan = self.parent_plan.patch_fault(row, col, None);
        }
    }

    /// Removes every injected fault.
    pub fn clear_all_faults(&mut self) {
        let positions: Vec<(usize, usize)> = self.faults.keys().copied().collect();
        for (row, col) in positions {
            self.faults.remove(&(row, col));
            self.plan = self.plan.patch_fault(row, col, None);
            self.parent_plan = self.parent_plan.patch_fault(row, col, None);
        }
    }

    /// Positions currently marked as faulty.
    pub fn faulty_positions(&self) -> Vec<(usize, usize)> {
        self.faults.keys().copied().collect()
    }

    /// The fault overlay: every damaged position and its behaviour.
    pub fn faults(&self) -> &BTreeMap<(usize, usize), FaultBehaviour> {
        &self.faults
    }

    /// `true` if at least one PE is damaged.
    pub fn has_faults(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Filters a whole image: every output pixel is the array's response to
    /// the 3×3 window centred on the corresponding input pixel.
    pub fn filter_image(&self, img: &GrayImage) -> GrayImage {
        self.plan.filter_image(img)
    }

    /// Convenience: filter `input` and return the aggregated MAE against
    /// `reference` — the fitness the hardware fitness unit would report.
    pub fn fitness(&self, input: &GrayImage, reference: &GrayImage) -> u64 {
        mae(&self.filter_image(input), reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::PeFunction;
    use ehw_image::synth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_genotype_filters_to_identity() {
        let array = ProcessingArray::identity();
        let img = synth::shapes(32, 32, 3);
        assert_eq!(array.filter_image(&img), img);
    }

    /// The array's response to one window: the centre pixel of the
    /// filtered 3×3 image whose pixels are the window.
    fn respond(array: &ProcessingArray, window: [u8; 9]) -> u8 {
        let img = GrayImage::from_vec(3, 3, window.to_vec());
        array.filter_image(&img).pixel(1, 1)
    }

    #[test]
    fn identity_window_response_is_center() {
        let array = ProcessingArray::identity();
        assert_eq!(respond(&array, [10, 20, 30, 40, 50, 60, 70, 80, 90]), 50);
    }

    #[test]
    fn const_max_genotype_outputs_white() {
        let mut g = Genotype::identity();
        // Make the last PE of the output row a constant generator.
        g.pe_genes[ARRAY_COLS - 1] = PeFunction::ConstMax.gene();
        let array = ProcessingArray::new(g);
        let img = synth::gradient(16, 16);
        assert!(array.filter_image(&img).pixels().all(|p| p == 255));
    }

    #[test]
    fn output_row_selection_changes_result() {
        // Row 0 passes the west input of row 0; row 1 inverts it.
        let mut g = Genotype::identity();
        for c in 0..ARRAY_COLS {
            g.pe_genes[ARRAY_COLS + c] = PeFunction::InvertW.gene();
        }
        // Row 1 west input also selects the window centre by default.
        let mut a0 = ProcessingArray::new(g.clone());
        let w = [0, 0, 0, 0, 100, 0, 0, 0, 0];
        assert_eq!(respond(&a0, w), 100);
        let mut g1 = g.clone();
        g1.output_gene = 1;
        a0.set_genotype(g1);
        // Four cascaded inversions of 100: 155, 100, 155, 100 → row 1 output
        // after 4 PEs each inverting its west input.
        assert_eq!(respond(&a0, w), 100);
        // With a single inversion in the row the parity flips.
        let mut g2 = g;
        for c in 1..ARRAY_COLS {
            g2.pe_genes[ARRAY_COLS + c] = PeFunction::IdentityW.gene();
        }
        g2.output_gene = 1;
        let a2 = ProcessingArray::new(g2);
        assert_eq!(respond(&a2, w), 155);
    }

    #[test]
    fn min_max_genotypes_bound_identity() {
        // A first-column Min PE fed with centre (west) and a neighbour (north)
        // never exceeds the identity output.
        let mut gmin = Genotype::identity();
        gmin.pe_genes[0] = PeFunction::Min.gene();
        gmin.input_genes[0] = 0; // north input of column 0: NW pixel
        let amin = ProcessingArray::new(gmin);
        let img = synth::shapes(24, 24, 3);
        let out = amin.filter_image(&img);
        for (o, i) in out.pixels().zip(img.pixels()) {
            assert!(o <= i);
        }
    }

    #[test]
    fn fault_changes_output_and_is_clearable() {
        let img = synth::shapes(32, 32, 3);
        let mut array = ProcessingArray::identity();
        let clean = array.filter_image(&img);

        // A fault outside the active data path (row 3 never feeds row 0's
        // output) must not change the result.
        array.inject_fault(3, 3, FaultBehaviour::dummy());
        assert_eq!(array.filter_image(&img), clean);
        array.clear_all_faults();

        // A fault on the output path corrupts the image.
        array.inject_fault(0, ARRAY_COLS - 1, FaultBehaviour::dummy());
        assert!(array.has_faults());
        let faulty = array.filter_image(&img);
        assert_ne!(faulty, clean);

        array.clear_fault(0, ARRAY_COLS - 1);
        assert!(!array.has_faults());
        assert_eq!(array.filter_image(&img), clean);
    }

    #[test]
    fn faults_survive_reconfiguration() {
        let img = synth::shapes(16, 16, 2);
        let mut array = ProcessingArray::identity();
        array.inject_fault(0, 1, FaultBehaviour::StuckAt { value: 0 });
        let mut rng = StdRng::seed_from_u64(3);
        array.set_genotype(Genotype::random(&mut rng));
        assert!(array.has_faults());
        assert_eq!(array.faulty_positions(), vec![(0, 1)]);
        // The faulty array generally differs from a fault-free copy with the
        // same genotype.
        let clean = ProcessingArray::new(array.genotype().clone());
        // (They may coincide for genotypes that never route through (0,1); use
        // a genotype that certainly does: all IdentityW on row 0.)
        let mut g = Genotype::identity();
        g.output_gene = 0;
        array.set_genotype(g.clone());
        let clean = {
            let mut c = clean;
            c.set_genotype(g);
            c
        };
        assert_ne!(array.filter_image(&img), clean.filter_image(&img));
    }

    #[test]
    fn patched_plan_tracks_fresh_compile_across_mutation_and_faults() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut array = ProcessingArray::identity();
        let mut previous = array.genotype().clone();
        for step in 0..40 {
            // Interleave genotype changes with overlay edits.
            match step % 4 {
                0 | 1 => {
                    let next = array.genotype().mutated(3, &mut rng);
                    let expected_diff = next.diff_from(array.genotype());
                    let before = *array.plan();
                    previous = array.genotype().clone();
                    array.set_genotype(next.clone());
                    assert_eq!(array.last_gene_diff(), &expected_diff);
                    assert_eq!(array.parent_plan(), &before);
                    assert_eq!(array.genotype(), &next);
                }
                2 => array.inject_fault(step % ARRAY_ROWS, (step / 3) % ARRAY_COLS, {
                    FaultBehaviour::StuckAt { value: step as u8 }
                }),
                _ => {
                    if let Some(&(r, c)) = array.faulty_positions().first() {
                        array.clear_fault(r, c);
                    }
                }
            }
            // The patched plan must equal a from-scratch compile of the
            // current genotype under the current overlay, and the tracked
            // parent plan a from-scratch compile of the previous genotype.
            assert_eq!(array.plan(), &array.compile_with(&array.genotype().clone()));
            assert_eq!(array.parent_plan(), &array.compile_with(&previous));
        }
        array.clear_all_faults();
        assert!(!array.has_faults());
        assert_eq!(array.plan(), &array.compile_with(&array.genotype().clone()));
    }

    #[test]
    fn fitness_is_zero_against_own_output() {
        let mut rng = StdRng::seed_from_u64(5);
        let array = ProcessingArray::new(Genotype::random(&mut rng));
        let img = synth::shapes(32, 32, 4);
        let out = array.filter_image(&img);
        assert_eq!(array.fitness(&img, &out), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fault_injection_out_of_range_panics() {
        let mut array = ProcessingArray::identity();
        array.inject_fault(4, 0, FaultBehaviour::dummy());
    }

    #[test]
    fn stuck_at_fault_forces_constant_output() {
        let mut array = ProcessingArray::identity();
        array.inject_fault(0, ARRAY_COLS - 1, FaultBehaviour::StuckAt { value: 7 });
        let img = synth::gradient(16, 16);
        assert!(array.filter_image(&img).pixels().all(|p| p == 7));
    }
}
