//! The exhaustive fitness reference.
//!
//! `run_evolution` always hands the evaluator the parent's fitness as an
//! early-exit bound and the parent as the incumbent.  [`Exhaustive`] drops
//! both, so every candidate of every batch is scored to the last pixel and
//! nothing is answered from the incumbent: the run the bounded engine must
//! reproduce byte for byte.

use ehw_array::genotype::Genotype;
use ehw_evolution::fitness::FitnessEvaluator;
use ehw_parallel::ParallelConfig;

/// Wraps an evaluator so every batch is scored with no bound and no
/// incumbent shortcut.
#[derive(Debug, Clone)]
pub struct Exhaustive<E>(pub E);

impl<E: FitnessEvaluator> FitnessEvaluator for Exhaustive<E> {
    fn evaluate(&mut self, genotype: &Genotype) -> u64 {
        self.0.evaluate(genotype)
    }

    fn evaluate_batch_bounded(
        &mut self,
        batch: &[Genotype],
        _bound: Option<u64>,
        _incumbent: Option<(&Genotype, u64)>,
        parallel: ParallelConfig,
    ) -> Vec<u64> {
        self.0.evaluate_batch_bounded(batch, None, None, parallel)
    }

    fn evaluations(&self) -> u64 {
        self.0.evaluations()
    }
}
