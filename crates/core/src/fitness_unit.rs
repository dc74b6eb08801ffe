//! The hardware fitness unit of one Array Control Block.
//!
//! §III.B: *"The fitness computation block may compute the pixel aggregated
//! MAE between the reference image and the output image of the array, but it
//! may also be set to calculate MAE between the input and output images of
//! the array, as well as MAE between the output and another output from an
//! adjacent array."*
//!
//! Those three source selections enable the different evolution modes:
//! evolving against a reference (independent / parallel / cascaded modes),
//! measuring how much an array changes its input (a cheap activity monitor),
//! and **evolution by imitation**, where the fitness is the MAE between the
//! bypassed array's output and the output of a neighbouring, working array.

use ehw_image::image::GrayImage;
use ehw_image::metrics::mae;

/// What the fitness unit compares the array output against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitnessSource {
    /// Compare against the reference image (normal evolution).
    #[default]
    Reference,
    /// Compare against the array's own input image.
    Input,
    /// Compare against the output of a neighbouring array (imitation).
    NeighbourOutput,
}

/// The streaming MAE accumulator of one ACB.
#[derive(Debug, Clone, Default)]
pub struct FitnessUnit {
    source: FitnessSource,
    last_fitness: Option<u64>,
    accumulated_images: u64,
}

impl FitnessUnit {
    /// Creates a fitness unit comparing against the reference image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects what the unit compares the array output against.
    pub fn set_source(&mut self, source: FitnessSource) {
        self.source = source;
    }

    /// The configured comparison source.
    pub fn source(&self) -> FitnessSource {
        self.source
    }

    /// Computes the fitness of `output` given the streams available to the
    /// ACB, honouring the configured source:
    ///
    /// * `input` — the image entering the array,
    /// * `reference` — the reference image broadcast by the static part
    ///   (may be `None` if the reference was removed from memory),
    /// * `neighbour` — the output of the adjacent array (may be `None` if the
    ///   ACB is the last of the chain or the neighbour is not streaming).
    ///
    /// Returns `None` if the configured source is not available — e.g.
    /// imitation fitness requested but no neighbour stream connected.
    pub fn compute(
        &mut self,
        output: &GrayImage,
        input: &GrayImage,
        reference: Option<&GrayImage>,
        neighbour: Option<&GrayImage>,
    ) -> Option<u64> {
        let fitness = match self.source {
            FitnessSource::Reference => mae(output, reference?),
            FitnessSource::Input => mae(output, input),
            FitnessSource::NeighbourOutput => mae(output, neighbour?),
        };
        self.last_fitness = Some(fitness);
        self.accumulated_images += 1;
        Some(fitness)
    }

    /// The fitness of the last processed image, if any.
    pub fn last_fitness(&self) -> Option<u64> {
        self.last_fitness
    }

    /// Number of images whose fitness has been accumulated.
    pub fn images_processed(&self) -> u64 {
        self.accumulated_images
    }

    /// Clears the unit (e.g. at the start of a new evolution).
    pub fn reset(&mut self) {
        self.last_fitness = None;
        self.accumulated_images = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehw_image::synth;

    #[test]
    fn reference_source_computes_mae_against_reference() {
        let out = synth::gradient(16, 16);
        let input = synth::checkerboard(16, 16, 2);
        let reference = synth::gradient(16, 16);
        let mut unit = FitnessUnit::new();
        let f = unit
            .compute(&out, &input, Some(&reference), None)
            .expect("reference available");
        assert_eq!(f, 0);
        assert_eq!(unit.last_fitness(), Some(0));
        assert_eq!(unit.images_processed(), 1);
    }

    #[test]
    fn missing_reference_yields_none() {
        let out = synth::gradient(16, 16);
        let input = synth::gradient(16, 16);
        let mut unit = FitnessUnit::new();
        assert_eq!(unit.compute(&out, &input, None, None), None);
        assert_eq!(unit.images_processed(), 0);
    }

    #[test]
    fn input_source_measures_change_against_input() {
        let input = synth::gradient(16, 16);
        let out = input.map(|p| p.saturating_add(2));
        let mut unit = FitnessUnit::new();
        unit.set_source(FitnessSource::Input);
        let f = unit
            .compute(&out, &input, None, None)
            .expect("input always available");
        // Every pixel below 254 differs by exactly 2.
        assert!(f > 0);
        assert!(f <= 2 * input.len() as u64);
    }

    #[test]
    fn neighbour_source_supports_imitation() {
        let input = synth::checkerboard(16, 16, 4);
        let master = synth::gradient(16, 16);
        let out = synth::gradient(16, 16);
        let mut unit = FitnessUnit::new();
        unit.set_source(FitnessSource::NeighbourOutput);
        assert_eq!(unit.compute(&out, &input, None, Some(&master)), Some(0));
        // Without a neighbour stream the comparison cannot be made.
        assert_eq!(unit.compute(&out, &input, None, None), None);
    }

    #[test]
    fn reset_clears_state() {
        let img = synth::gradient(8, 8);
        let mut unit = FitnessUnit::new();
        unit.compute(&img, &img, Some(&img), None);
        assert!(unit.last_fitness().is_some());
        unit.reset();
        assert_eq!(unit.last_fitness(), None);
        assert_eq!(unit.images_processed(), 0);
    }
}
