//! The naive cascaded evolution.
//!
//! Every candidate refilters the whole chain from the source image with the
//! AoS row-streaming filter of [`AosBlockPlan`]: no compiled plans, no
//! shared windows, no early exit, no prefix or suffix caching.  The compiled
//! engine behind `JobSpec::Cascade` must match it byte for byte — stage
//! genotypes, per-stage chain fitness and evaluation counts, at any worker
//! count.
//!
//! The schedule driver and parent initialisation are deliberately copied
//! here rather than shared, so the oracle stays independent of the engine
//! it checks.

use ehw_array::array::ProcessingArray;
use ehw_array::genotype::Genotype;
use ehw_evolution::fitness::EngineStats;
use ehw_image::image::GrayImage;
use ehw_image::metrics::mae;
use ehw_platform::evo_modes::{CascadeConfig, CascadeInit, CascadeResult, EvolutionTask};
use ehw_platform::jobs::JobSpec;
use ehw_platform::modes::{CascadeFitness, CascadeSchedule};
use ehw_platform::platform::EhwPlatform;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::aos::AosBlockPlan;

/// Filters `input` through `array`'s fabric configured with `genotype`,
/// with the AoS row-streaming filter of [`AosBlockPlan`] rather than the
/// production plan.
fn filter(array: &ProcessingArray, genotype: &Genotype, input: &GrayImage) -> GrayImage {
    AosBlockPlan::with_faults(genotype, array.faults().clone()).filter_image(input)
}

/// Filters `input` through the first `upto` stages of the chain.
fn filter_chain(
    arrays: &[ProcessingArray],
    genotypes: &[Genotype],
    upto: usize,
    input: &GrayImage,
) -> GrayImage {
    let mut stream = input.clone();
    for s in 0..upto {
        stream = filter(&arrays[s], &genotypes[s], &stream);
    }
    stream
}

/// Sequential scheduling exhausts each stage's generation budget before
/// moving on; interleaved scheduling gives every stage one generation per
/// round.
fn drive_schedule(
    schedule: CascadeSchedule,
    stages: usize,
    generations: usize,
    mut step: impl FnMut(usize),
) {
    match schedule {
        CascadeSchedule::Sequential => {
            for stage in 0..stages {
                for _ in 0..generations {
                    step(stage);
                }
            }
        }
        CascadeSchedule::Interleaved => {
            for _ in 0..generations {
                for stage in 0..stages {
                    step(stage);
                }
            }
        }
    }
}

fn initial_parents(stages: usize, init: CascadeInit, rng: &mut StdRng) -> Vec<Genotype> {
    (0..stages)
        .map(|_| match init {
            CascadeInit::Identity => Genotype::identity(),
            CascadeInit::Random => Genotype::random(rng),
        })
        .collect()
}

/// Cascaded evolution with one stage per platform array, scored by
/// per-candidate chain refiltering.  Honours the config's fitness
/// arrangement, schedule, initialisation and seed, and configures the
/// evolved circuits into the platform before returning — exactly what a
/// `JobSpec::Cascade` with the same parameters does.  The returned
/// [`EngineStats`] are all zero: the oracle takes no shortcuts.
pub fn evolve_cascade_naive(
    platform: &mut EhwPlatform,
    task: &EvolutionTask,
    config: &CascadeConfig,
) -> CascadeResult {
    let stages = platform.num_arrays();
    let arrays: Vec<ProcessingArray> = platform
        .acbs()
        .iter()
        .map(|acb| acb.array().clone())
        .collect();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Current parent (and its fitness) per stage.
    let mut parents: Vec<Genotype> = initial_parents(stages, config.init, &mut rng);
    let mut parent_fitness: Vec<u64> = vec![u64::MAX; stages];
    let evaluations = std::cell::Cell::new(0u64);

    // Evaluates the candidate for `stage`, honouring the fitness arrangement:
    // separate fitness scores the stage's own output; merged fitness scores
    // the output at the end of the chain (later stages use their current
    // parents).
    let evaluate = |stage: usize, candidate: &Genotype, parents: &[Genotype]| -> u64 {
        evaluations.set(evaluations.get() + 1);
        let stage_input = filter_chain(&arrays, parents, stage, &task.input);
        let stage_output = filter(&arrays[stage], candidate, &stage_input);
        match config.fitness {
            CascadeFitness::Separate => mae(&stage_output, &task.reference),
            CascadeFitness::Merged => {
                let mut stream = stage_output;
                for s in stage + 1..stages {
                    stream = filter(&arrays[s], &parents[s], &stream);
                }
                mae(&stream, &task.reference)
            }
        }
    };

    drive_schedule(config.schedule, stages, config.generations, |stage| {
        // Re-evaluate the parent: in interleaved scheduling the upstream
        // stages may have changed since this stage was last visited, which
        // changes the input (and therefore the fitness) of its parent.
        parent_fitness[stage] = evaluate(stage, &parents[stage], &parents);
        let mut best_child: Option<(Genotype, u64)> = None;
        for _ in 0..config.offspring {
            let child = parents[stage].mutated(config.mutation_rate, &mut rng);
            let fitness = evaluate(stage, &child, &parents);
            if best_child.as_ref().is_none_or(|(_, f)| fitness < *f) {
                best_child = Some((child, fitness));
            }
        }
        if let Some((child, fitness)) = best_child {
            if fitness <= parent_fitness[stage] {
                parents[stage] = child;
                parent_fitness[stage] = fitness;
            }
        }
    });

    for (stage, genotype) in parents.iter().enumerate() {
        platform.configure_array(stage, genotype);
    }
    let stage_fitness = platform.chain_fitness(&task.input, &task.reference);
    CascadeResult {
        stage_genotypes: parents,
        stage_fitness,
        evaluations: evaluations.get(),
        stats: EngineStats::default(),
    }
}

/// The cascade job [`evolve_cascade_naive`] reproduces: `config` on a
/// `stages`-array platform, with `config.seed` pinned.  Run it through
/// [`ehw_platform::jobs::execute`] with that seed.
///
/// # Panics
/// Panics if `config` fails the builder's validation (zero offspring or
/// generations, or a stage count outside the floorplan).
pub fn cascade_spec(task: &EvolutionTask, stages: usize, config: &CascadeConfig) -> JobSpec {
    JobSpec::cascade(task.input.clone(), task.reference.clone())
        .stages(stages)
        .generations(config.generations)
        .offspring(config.offspring)
        .mutation_rate(config.mutation_rate)
        .fitness(config.fitness)
        .schedule(config.schedule)
        .init(config.init)
        .seed(config.seed)
        .build()
        .expect("cascade config is a valid spec")
}
