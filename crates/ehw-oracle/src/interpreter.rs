//! The reference interpreter of one processing array.
//!
//! Resolves the genotype's accessors and the `BTreeMap` fault overlay for
//! every window — exactly the per-pixel overhead
//! [`CompiledArray`](ehw_array::CompiledArray) removes.  The compiled plan is
//! bit-identical to it by construction and by test, and the evaluation
//! benches measure the plan against it.

use std::collections::BTreeMap;

use ehw_array::genotype::{Genotype, ARRAY_COLS, ARRAY_ROWS};
use ehw_array::pe::FaultBehaviour;
use ehw_image::image::GrayImage;

use crate::window::Window3x3;

/// Evaluates one window through the interpreter.
pub fn interpret_window(
    genotype: &Genotype,
    faults: &BTreeMap<(usize, usize), FaultBehaviour>,
    window: &Window3x3,
) -> u8 {
    // Array inputs after the 9-to-1 selection muxes.
    let mut north = [0u8; ARRAY_COLS];
    for (c, n) in north.iter_mut().enumerate() {
        *n = window.select(genotype.north_selector(c));
    }
    let mut west = [0u8; ARRAY_ROWS];
    for (r, w) in west.iter_mut().enumerate() {
        *w = window.select(genotype.west_selector(r));
    }

    // Systolic propagation: each PE consumes the output of its west and
    // north neighbours (or the corresponding array input on the first
    // column / row) and forwards its registered result east and south.
    let mut outputs = [[0u8; ARRAY_COLS]; ARRAY_ROWS];
    for r in 0..ARRAY_ROWS {
        for c in 0..ARRAY_COLS {
            let w_in = if c == 0 { west[r] } else { outputs[r][c - 1] };
            let n_in = if r == 0 { north[c] } else { outputs[r - 1][c] };
            let correct = genotype.pe_function(r, c).apply(w_in, n_in);
            outputs[r][c] = match faults.get(&(r, c)) {
                Some(fault) => fault.corrupt(correct, w_in, n_in),
                None => correct,
            };
        }
    }

    let out_row = (genotype.output_gene as usize) % ARRAY_ROWS;
    outputs[out_row][ARRAY_COLS - 1]
}

/// Filters a whole image through the interpreter, extracting every window
/// with the clamped per-pixel builder (the pre-engine hot path).
pub fn interpret_filter_image(
    genotype: &Genotype,
    faults: &BTreeMap<(usize, usize), FaultBehaviour>,
    img: &GrayImage,
) -> GrayImage {
    GrayImage::from_fn(img.width(), img.height(), |x, y| {
        interpret_window(genotype, faults, &Window3x3::from_image(img, x, y))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aos::respond;
    use ehw_array::CompiledArray;
    use ehw_image::synth;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    #[test]
    fn compiled_matches_interpreter_on_random_circuits() {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for case in 0..200 {
            let g = Genotype::random(&mut rng);
            let overlay = random_overlay(&mut rng, 0.2);
            let plan = CompiledArray::with_faults(&g, overlay.iter().map(|(&p, &b)| (p, b)));
            for _ in 0..16 {
                let w = Window3x3(std::array::from_fn(|_| rng.gen()));
                assert_eq!(
                    respond(&plan, &w),
                    interpret_window(&g, &overlay, &w),
                    "case {case} diverged"
                );
            }
        }
        // Out-of-range selectors decode to the window centre in both.
        let mut g = Genotype::identity();
        g.input_genes = [9, 42, 255, 10, 100, 9, 200, 11];
        let w = Window3x3([1, 2, 3, 4, 99, 6, 7, 8, 9]);
        assert_eq!(
            respond(&CompiledArray::new(&g), &w),
            interpret_window(&g, &BTreeMap::new(), &w)
        );
    }

    #[test]
    fn compiled_filter_matches_interpreter_filter() {
        let mut rng = StdRng::seed_from_u64(7);
        let img = synth::shapes(33, 21, 4);
        for _ in 0..10 {
            let g = Genotype::random(&mut rng);
            let overlay = random_overlay(&mut rng, 0.15);
            let plan = CompiledArray::with_faults(&g, overlay.iter().map(|(&p, &b)| (p, b)));
            assert_eq!(
                plan.filter_image(&img),
                interpret_filter_image(&g, &overlay, &img)
            );
        }
    }
}
