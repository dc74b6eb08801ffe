//! Property suite pinning the compiled cascade engine to the naive oracle:
//! for random fitness arrangement × schedule × initialisation × seed — on
//! healthy and damaged platforms — a whole cascaded evolution run must be
//! byte-identical between `ehw_oracle::evolve_cascade_naive` and a
//! `JobSpec::Cascade` run through `jobs::execute` (stage genotypes,
//! per-stage chain fitness and evaluation counts), and the compiled engine
//! must be independent of the worker count (1, 2 and 8).

use ehw_fabric::fault::FaultKind;
use ehw_image::noise::salt_pepper;
use ehw_image::synth;
use ehw_oracle::{cascade_spec, evolve_cascade_naive};
use ehw_parallel::ParallelConfig;
use ehw_platform::evo_modes::{CascadeConfig, CascadeInit, CascadeResult, EvolutionTask};
use ehw_platform::jobs;
use ehw_platform::modes::{CascadeFitness, CascadeSchedule};
use ehw_platform::platform::EhwPlatform;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_fitness() -> impl Strategy<Value = CascadeFitness> {
    prop_oneof![Just(CascadeFitness::Separate), Just(CascadeFitness::Merged)]
}

fn arb_schedule() -> impl Strategy<Value = CascadeSchedule> {
    prop_oneof![
        Just(CascadeSchedule::Sequential),
        Just(CascadeSchedule::Interleaved),
    ]
}

fn arb_init() -> impl Strategy<Value = CascadeInit> {
    prop_oneof![Just(CascadeInit::Identity), Just(CascadeInit::Random)]
}

fn denoise_task(size: usize, seed: u64) -> EvolutionTask {
    let clean = synth::shapes(size, size, 3);
    let mut rng = StdRng::seed_from_u64(seed);
    let noisy = salt_pepper(&clean, 0.3, &mut rng);
    EvolutionTask::new(noisy, clean)
}

/// Builds a three-stage platform, optionally with a permanent fault injected
/// into stage 1 so the compiled engine's plans must carry the fault overlay
/// exactly like the oracle's interpreter arrays do.
fn platform(workers: usize, faulty: bool) -> EhwPlatform {
    let mut p = EhwPlatform::with_parallel(3, ParallelConfig::with_workers(workers));
    if faulty {
        p.inject_pe_fault(1, 0, 3, FaultKind::Lpd);
    }
    p
}

/// Runs `config` through the job path — the compiled engine.
fn compiled(p: &mut EhwPlatform, task: &EvolutionTask, config: &CascadeConfig) -> CascadeResult {
    let spec = cascade_spec(task, p.num_arrays(), config);
    let job = jobs::execute(p, &spec, config.seed);
    job.as_cascade().expect("cascade job").clone()
}

fn run(
    config: &CascadeConfig,
    task: &EvolutionTask,
    workers: usize,
    faulty: bool,
) -> CascadeResult {
    compiled(&mut platform(workers, faulty), task, config)
}

fn run_naive(config: &CascadeConfig, task: &EvolutionTask, faulty: bool) -> CascadeResult {
    evolve_cascade_naive(&mut platform(1, faulty), task, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn compiled_cascade_equals_naive_oracle(
        seed in any::<u64>(),
        img_seed in 0u64..1_000,
        fitness in arb_fitness(),
        schedule in arb_schedule(),
        init in arb_init(),
        faulty in any::<bool>(),
    ) {
        let task = denoise_task(14, img_seed);
        let config = CascadeConfig {
            fitness,
            schedule,
            init,
            offspring: 5,
            ..CascadeConfig::paper(4, 2, seed)
        };
        let naive = run_naive(&config, &task, faulty);
        let reference = run(&config, &task, 1, faulty);
        for workers in [1usize, 2, 8] {
            let compiled = run(&config, &task, workers, faulty);
            prop_assert_eq!(
                &compiled.stage_genotypes, &naive.stage_genotypes,
                "genotypes diverged at {} workers ({:?}/{:?})", workers, fitness, schedule
            );
            prop_assert_eq!(&compiled.stage_fitness, &naive.stage_fitness);
            prop_assert_eq!(compiled.evaluations, naive.evaluations);
            prop_assert_eq!(compiled.final_fitness(), naive.final_fitness());
            // The suffix-shared Merged path must not change the engine's
            // work accounting either: plans evaluated, memo hits and early
            // exits are worker-invariant.
            prop_assert_eq!(
                compiled.stats, reference.stats,
                "EngineStats diverged at {} workers ({:?}/{:?})", workers, fitness, schedule
            );
        }
    }

    #[test]
    fn compiled_cascade_configures_the_platform_like_the_oracle(
        seed in any::<u64>(),
        img_seed in 0u64..1_000,
        schedule in arb_schedule(),
    ) {
        // Beyond the returned result: the platform both engines leave behind
        // must hold the same circuits and report the same chain fitness.
        let task = denoise_task(12, img_seed);
        let config = CascadeConfig {
            schedule,
            offspring: 4,
            ..CascadeConfig::paper(3, 2, seed)
        };
        let mut naive_platform = platform(1, false);
        let _ = evolve_cascade_naive(&mut naive_platform, &task, &config);
        let mut compiled_platform = platform(1, false);
        let _ = compiled(&mut compiled_platform, &task, &config);
        for i in 0..3 {
            prop_assert_eq!(
                naive_platform.acb(i).genotype(),
                compiled_platform.acb(i).genotype(),
                "stage {} circuit diverged", i
            );
        }
        prop_assert_eq!(
            naive_platform.chain_fitness(&task.input, &task.reference),
            compiled_platform.chain_fitness(&task.input, &task.reference)
        );
    }
}

#[test]
fn compiled_and_naive_cascades_are_byte_identical() {
    // Fixed-seed spot check across every fitness arrangement and schedule:
    // same config and seed ⇒ identical genotypes, stage fitness and
    // evaluation counts, and the compiled engine must actually have saved
    // work.
    let clean = synth::shapes(20, 20, 4);
    let mut rng = StdRng::seed_from_u64(71);
    let task = EvolutionTask::new(salt_pepper(&clean, 0.35, &mut rng), clean);
    for fitness in [CascadeFitness::Separate, CascadeFitness::Merged] {
        for schedule in [CascadeSchedule::Sequential, CascadeSchedule::Interleaved] {
            let config = CascadeConfig {
                fitness,
                schedule,
                ..CascadeConfig::paper(8, 2, 67)
            };
            let naive =
                evolve_cascade_naive(&mut EhwPlatform::paper_three_arrays(), &task, &config);
            let compiled = compiled(&mut EhwPlatform::paper_three_arrays(), &task, &config);
            assert_eq!(
                naive.stage_genotypes, compiled.stage_genotypes,
                "{fitness:?}/{schedule:?}"
            );
            assert_eq!(naive.stage_fitness, compiled.stage_fitness);
            assert_eq!(naive.evaluations, compiled.evaluations);
            assert!(
                compiled.stats.early_exits > 0 || compiled.stats.memo_hits > 0,
                "engine saved nothing: {:?}",
                compiled.stats
            );
        }
    }
}
