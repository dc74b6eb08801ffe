//! Fitness evaluation.
//!
//! The hardware fitness unit streams the array output and a comparison stream
//! (reference image, input image, or the output of a neighbouring array)
//! through an accumulator of absolute differences.  The software counterpart
//! is a [`FitnessEvaluator`]: given a genotype it configures the functional
//! array model, filters the training image and returns the aggregated MAE —
//! lower is better, zero means a pixel-exact match.
//!
//! # The compiled evaluation engine
//!
//! Scoring one candidate touches every pixel of the training image; scoring a
//! λ-batch of them is the hot loop of the whole platform.  The engine path
//! ([`FitnessEvaluator::evaluate_batch_bounded`]) removes the three sources
//! of redundant work the naive path pays for:
//!
//! 1. **Plans, not interpreters** — each candidate is compiled once into a
//!    [`CompiledArray`] (flat opcodes + dense fault overlay); the per-pixel
//!    loop performs zero map lookups and zero gene decoding.
//! 2. **Shared window planes** — the training image's 3×3 windows are
//!    extracted once into the nine per-selector planes of [`SharedWindows`]
//!    and shared by every candidate of every batch; a plan fills each input
//!    lane with a contiguous copy from the plane its mux selects.
//! 3. **Early-exit fitness** — given the incumbent (parent) fitness as a
//!    bound, a candidate's MAE accumulation stops as soon as the running sum
//!    exceeds it: under elitist selection such a candidate can never be
//!    selected, so its exact value is irrelevant.  Early-exited candidates
//!    report their (deterministic) partial sum, which is `> bound`; complete
//!    evaluations report the exact fitness, which is `<= bound`.  Duplicate
//!    candidates inside a batch are evaluated once (a pure-function memo) and
//!    candidates identical to the incumbent reuse its known fitness.
//!
//! Every shortcut is observationally equivalent: the evolution trajectory
//! (best genotype, fitness history, evaluation counts) is byte-identical to
//! scoring every candidate exhaustively, at any worker count.  The
//! exhaustive reference is a test-side wrapper in `ehw-oracle` that calls
//! `evaluate_batch_bounded(batch, None, None, parallel)`; the equivalence
//! suites pin the two against each other.

use std::collections::HashMap;

use ehw_array::array::ProcessingArray;
use ehw_array::compiled::CompiledArray;
use ehw_array::genotype::Genotype;
use ehw_array::pe::FaultBehaviour;
use ehw_image::image::GrayImage;
use ehw_image::window::SharedWindows;
use ehw_parallel::ParallelConfig;

/// Anything that can score a candidate genotype.  Lower fitness is better.
pub trait FitnessEvaluator {
    /// Evaluates one candidate.
    fn evaluate(&mut self, genotype: &Genotype) -> u64;

    /// Evaluates a batch with the engine shortcuts of the module docs.
    ///
    /// * `bound` — the incumbent fitness: a returned value is the exact
    ///   fitness whenever it is `<= bound`, and some deterministic value
    ///   `> bound` otherwise (the candidate was early-exited).  `None`
    ///   disables early exit and every value is exact.
    /// * `incumbent` — the genotype the bound belongs to and its (exact)
    ///   fitness; candidates equal to it may reuse the value without being
    ///   re-evaluated.  Implementations must only honour this when a
    ///   candidate would provably score identically (same array, same
    ///   faults); when in doubt, ignore it.
    ///
    /// * `parallel` — how the batch is spread over host threads.  Results
    ///   come back in batch order and are independent of the worker count:
    ///   candidate fitness is a pure function of the genotype.
    ///
    /// `evaluate_batch_bounded(batch, None, None, parallel)` is a plain
    /// batch evaluation: every value exact.  Every candidate counts towards
    /// [`evaluations`](Self::evaluations), memoised or not, so the counter is
    /// identical across the single and batch paths at any worker count.  The
    /// default implementation ignores the shortcuts and the pool and
    /// evaluates the batch in order with [`evaluate`](Self::evaluate);
    /// evaluators backed by multiple arrays (or host threads) override it to
    /// evaluate in parallel, which is what the parallel evolution mode of
    /// §IV.B does.
    fn evaluate_batch_bounded(
        &mut self,
        batch: &[Genotype],
        bound: Option<u64>,
        incumbent: Option<(&Genotype, u64)>,
        parallel: ParallelConfig,
    ) -> Vec<u64> {
        let _ = (bound, incumbent, parallel);
        batch.iter().map(|g| self.evaluate(g)).collect()
    }

    /// Number of single-candidate evaluations performed so far.
    fn evaluations(&self) -> u64;
}

/// Work-saved counters of an engine-backed evaluator.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Candidates actually run through a compiled plan (memo misses).
    pub plans_evaluated: u64,
    /// Candidates answered from the per-batch memo or the incumbent shortcut.
    pub memo_hits: u64,
    /// Plan evaluations that stopped before the last pixel because the
    /// running MAE sum exceeded the incumbent bound.
    pub early_exits: u64,
}

impl EngineStats {
    /// Fraction of plan evaluations that early-exited, in `[0, 1]`.
    pub fn early_exit_rate(&self) -> f64 {
        if self.plans_evaluated == 0 {
            return 0.0;
        }
        self.early_exits as f64 / self.plans_evaluated as f64
    }

    /// Adds another evaluator's counters into this one — used to aggregate
    /// the stats of many short-lived evaluators (e.g. the per-position
    /// recovery evolutions of a fault campaign) into one report.
    pub fn accumulate(&mut self, other: EngineStats) {
        self.plans_evaluated += other.plans_evaluated;
        self.memo_hits += other.memo_hits;
        self.early_exits += other.early_exits;
    }
}

/// Aggregated MAE of a compiled plan over a shared window buffer.
///
/// Bit-identical to `mae(&plan.filter_image(input), reference)` — the sum of
/// absolute differences between the plan's response to every window and the
/// corresponding reference pixel.
pub fn plan_mae(plan: &CompiledArray, windows: &SharedWindows, reference: &GrayImage) -> u64 {
    plan_mae_bounded(plan, windows, reference, None).0
}

/// [`plan_mae`] with an early-exit bound: the windows are evaluated in
/// lane-parallel blocks and accumulation stops at the first block boundary
/// where the running sum exceeds `bound`.  Returns the sum and whether the
/// evaluation exited early; the sum is the exact MAE iff it is `<= bound`
/// (equivalently, iff the exit flag is `false`), and is a deterministic
/// partial sum otherwise.
pub fn plan_mae_bounded(
    plan: &CompiledArray,
    windows: &SharedWindows,
    reference: &GrayImage,
    bound: Option<u64>,
) -> (u64, bool) {
    // Hard asserts (not debug), on width and height individually: a
    // same-area reference of a different shape would otherwise be compared
    // pixel by pixel against the wrong positions, and evolution would chase
    // a quietly wrong objective.
    assert_eq!(windows.width(), reference.width(), "image width mismatch");
    assert_eq!(
        windows.height(),
        reference.height(),
        "image height mismatch"
    );
    let mut sum = 0u64;
    let mut buf = [0u8; CompiledArray::BLOCK];
    let mut start = 0;
    for rchunk in reference.as_slice().chunks(CompiledArray::BLOCK) {
        let out = &mut buf[..rchunk.len()];
        plan.evaluate_planes_into(windows, start, out);
        start += rchunk.len();
        sum += out
            .iter()
            .zip(rchunk)
            .map(|(&o, &r)| o.abs_diff(r) as u64)
            .sum::<u64>();
        if let Some(bound) = bound {
            if sum > bound {
                return (sum, true);
            }
        }
    }
    (sum, false)
}

/// MAE at the end of a cascade chain: `plan`'s response to `windows` is
/// filtered through the `downstream` plans in order and the final image is
/// compared against `reference`.  The early-exit bound applies to the final
/// accumulation (the only one whose value is selected on), so the last plan
/// stops evaluating as soon as the running sum exceeds it; with no
/// downstream stages this is exactly [`plan_mae_bounded`].
pub fn chain_mae_bounded(
    plan: &CompiledArray,
    windows: &SharedWindows,
    downstream: &[CompiledArray],
    reference: &GrayImage,
    bound: Option<u64>,
) -> (u64, bool) {
    if downstream.is_empty() {
        plan_mae_bounded(plan, windows, reference, bound)
    } else {
        suffix_mae_bounded(&plan.filter_windows(windows), downstream, reference, bound)
    }
}

/// The downstream half of [`chain_mae_bounded`]: `input` (a stage output)
/// is filtered through every plan of `downstream` but the last, and the
/// last plan's response is scored with [`plan_mae_bounded`].  The cascade
/// engine runs this once per distinct stage output.
///
/// # Panics
/// Panics if `downstream` is empty.
pub fn suffix_mae_bounded(
    input: &GrayImage,
    downstream: &[CompiledArray],
    reference: &GrayImage,
    bound: Option<u64>,
) -> (u64, bool) {
    let (last, mid) = downstream.split_last().expect("downstream is non-empty");
    let mut windows = SharedWindows::new(input);
    for p in mid {
        windows = SharedWindows::new(&p.filter_windows(&windows));
    }
    plan_mae_bounded(last, &windows, reference, bound)
}

/// Drives the full dedup → worker pool → scatter pipeline over a candidate
/// batch — the building block behind every
/// [`FitnessEvaluator::evaluate_batch_bounded`] implementation and the
/// cascade engine, which evaluates per-stage offspring batches without
/// owning an evaluator.  `init` builds each worker's scratch state once (see
/// [`ehw_parallel::ordered_map_init`]) and `eval(state, i)` scores batch
/// slot `i`, returning the [`plan_mae_bounded`]-style `(sum, early_exited)`
/// pair.  This is the driver for worker-resident plans — patch the resident
/// plan to the candidate, evaluate, revert — so the per-candidate
/// reconfiguration cost is a few gene writes each way instead of a full plan
/// compile or copy.  `eval` must be a pure function of the slot (restore the
/// state before returning), which keeps results worker-count-invariant;
/// `key` / `incumbent_applies` are forwarded to [`dedupe_batch`].
#[allow(clippy::too_many_arguments)]
pub fn batch_mae_bounded<'a, K, S, IF, F>(
    batch: &'a [Genotype],
    incumbent: Option<(&Genotype, u64)>,
    parallel: ParallelConfig,
    key: impl Fn(usize, &'a Genotype) -> K,
    incumbent_applies: impl Fn(usize) -> bool,
    init: IF,
    eval: F,
    stats: &mut EngineStats,
) -> Vec<u64>
where
    K: std::hash::Hash + Eq,
    IF: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> (u64, bool) + Sync,
{
    let (slots, unique) = dedupe_batch(batch, incumbent, key, incumbent_applies);
    let results = ehw_parallel::ordered_map_init(parallel, &unique, init, |s, _, &i| eval(s, i));
    scatter_results(slots, &results, stats)
}

/// How one batch slot is resolved by the per-batch memo: evaluated through a
/// plan (index into the unique list) or answered from a known value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// The slot shares the result of the `n`-th unique evaluation.
    Unique(usize),
    /// The slot's fitness is already known (incumbent shortcut).
    Known(u64),
}

/// Resolves batch slots against an incumbent and a per-batch memo keyed by
/// `key(i, genotype)` (evaluators whose candidates land on different arrays
/// key by array index as well; `incumbent_applies(i)` gates the incumbent
/// shortcut per slot).  Returns the slot list and the batch indices whose
/// candidates must actually be evaluated, in batch order.  Building block
/// for [`FitnessEvaluator::evaluate_batch_bounded`] implementations.
pub fn dedupe_batch<'a, K: std::hash::Hash + Eq>(
    batch: &'a [Genotype],
    incumbent: Option<(&Genotype, u64)>,
    key: impl Fn(usize, &'a Genotype) -> K,
    incumbent_applies: impl Fn(usize) -> bool,
) -> (Vec<Slot>, Vec<usize>) {
    let mut slots = Vec::with_capacity(batch.len());
    let mut unique: Vec<usize> = Vec::with_capacity(batch.len());
    let mut seen: HashMap<K, usize> = HashMap::with_capacity(batch.len());
    for (i, g) in batch.iter().enumerate() {
        if let Some((parent, fit)) = incumbent {
            if incumbent_applies(i) && g == parent {
                slots.push(Slot::Known(fit));
                continue;
            }
        }
        match seen.get(&key(i, g)) {
            Some(&u) => slots.push(Slot::Unique(u)),
            None => {
                let u = unique.len();
                seen.insert(key(i, g), u);
                unique.push(i);
                slots.push(Slot::Unique(u));
            }
        }
    }
    (slots, unique)
}

/// Scatters unique results (as returned by [`plan_mae_bounded`], in the order
/// of [`dedupe_batch`]'s unique list) back into batch order and tallies memo
/// hits and early exits into `stats`.
pub fn scatter_results(
    slots: Vec<Slot>,
    results: &[(u64, bool)],
    stats: &mut EngineStats,
) -> Vec<u64> {
    stats.plans_evaluated += results.len() as u64;
    stats.early_exits += results.iter().filter(|r| r.1).count() as u64;
    let mut seen_unique = vec![false; results.len()];
    slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Known(f) => {
                stats.memo_hits += 1;
                f
            }
            Slot::Unique(u) => {
                if seen_unique[u] {
                    stats.memo_hits += 1;
                } else {
                    seen_unique[u] = true;
                }
                results[u].0
            }
        })
        .collect()
}

/// Software fitness evaluator: one functional array model, one training
/// image and one reference image.
///
/// Faults injected into the underlying array persist across candidates — a
/// damaged array keeps being damaged no matter what genotype is configured,
/// which is how the self-healing experiments drive evolution *around* the
/// fault.
#[derive(Debug, Clone)]
pub struct SoftwareEvaluator {
    array: ProcessingArray,
    input: GrayImage,
    /// The input's 3×3 windows, extracted once and shared by every candidate
    /// of every batch (rebuilt only when the input changes).
    windows: SharedWindows,
    reference: GrayImage,
    evaluations: u64,
    stats: EngineStats,
}

impl SoftwareEvaluator {
    /// Creates an evaluator for the given training pair.
    ///
    /// # Panics
    /// Panics if the images have different dimensions.
    pub fn new(input: GrayImage, reference: GrayImage) -> Self {
        Self::with_array(ProcessingArray::identity(), input, reference)
    }

    /// Creates an evaluator that scores candidates on a specific array model
    /// (including any faults already injected into it) — used when evolution
    /// must happen *on the damaged hardware*, e.g. during self-healing.
    ///
    /// # Panics
    /// Panics if the images have different dimensions.
    pub fn with_array(array: ProcessingArray, input: GrayImage, reference: GrayImage) -> Self {
        assert_eq!(input.width(), reference.width(), "image width mismatch");
        assert_eq!(input.height(), reference.height(), "image height mismatch");
        let windows = SharedWindows::new(&input);
        Self {
            array,
            input,
            windows,
            reference,
            evaluations: 0,
            stats: EngineStats::default(),
        }
    }

    /// Injects a PE-level fault into the evaluator's array (the fault stays
    /// for all subsequent evaluations).
    pub fn inject_fault(&mut self, row: usize, col: usize, behaviour: FaultBehaviour) {
        self.array.inject_fault(row, col, behaviour);
    }

    /// Clears all injected faults.
    pub fn clear_faults(&mut self) {
        self.array.clear_all_faults();
    }

    /// Replaces the reference image (e.g. to retarget evolution to a new
    /// task, or to imitate a neighbouring array's output).
    pub fn set_reference(&mut self, reference: GrayImage) {
        assert_eq!(
            self.input.width(),
            reference.width(),
            "image width mismatch"
        );
        assert_eq!(
            self.input.height(),
            reference.height(),
            "image height mismatch"
        );
        self.reference = reference;
    }

    /// Replaces the training input image.
    pub fn set_input(&mut self, input: GrayImage) {
        assert_eq!(
            input.width(),
            self.reference.width(),
            "image width mismatch"
        );
        assert_eq!(
            input.height(),
            self.reference.height(),
            "image height mismatch"
        );
        self.windows = SharedWindows::new(&input);
        self.input = input;
    }

    /// Work-saved counters of the engine paths (memo hits, early exits).
    pub fn engine_stats(&self) -> EngineStats {
        self.stats
    }

    /// The training input image.
    pub fn input(&self) -> &GrayImage {
        &self.input
    }

    /// The reference image.
    pub fn reference(&self) -> &GrayImage {
        &self.reference
    }

    /// Filters the training input with an arbitrary genotype (without
    /// counting it as a fitness evaluation) — used to produce the output
    /// image of an evolved filter for inspection or for cascading.
    pub fn filter_with(&self, genotype: &Genotype) -> GrayImage {
        let mut array = self.array.clone();
        array.set_genotype(genotype.clone());
        array.filter_image(&self.input)
    }
}

impl FitnessEvaluator for SoftwareEvaluator {
    fn evaluate(&mut self, genotype: &Genotype) -> u64 {
        self.evaluations += 1;
        self.stats.plans_evaluated += 1;
        let plan = self.array.compile_with(genotype);
        plan_mae(&plan, &self.windows, &self.reference)
    }

    fn evaluate_batch_bounded(
        &mut self,
        batch: &[Genotype],
        bound: Option<u64>,
        incumbent: Option<(&Genotype, u64)>,
        parallel: ParallelConfig,
    ) -> Vec<u64> {
        // Every candidate is scored on the same base array, so the incumbent
        // shortcut is always sound here, and the memo keys on the genotype
        // alone.  Unique candidates are fanned over the worker pool (sharing
        // the window buffer); the pool merges results in candidate order, so
        // the outcome is identical at any worker count.  One base plan (the
        // incumbent's, else the first candidate's) is compiled per batch and
        // each worker keeps a *resident copy* of it: a candidate is evaluated
        // by applying its gene diff in place and reverting afterwards
        // (bit-identical to a fresh compile, with no per-candidate plan copy).
        self.evaluations += batch.len() as u64;
        let Some(base_genotype) = incumbent.map(|(g, _)| g).or(batch.first()) else {
            return Vec::new();
        };
        let base_plan = self.array.compile_with(base_genotype);
        // Gene diffs are mutation bookkeeping: computed once per candidate up
        // front (the DPR "frame list"), so the per-candidate patch step
        // inside the workers is just the apply/revert replay.
        let diffs: Vec<_> = batch.iter().map(|g| g.diff_from(base_genotype)).collect();
        let windows = &self.windows;
        let reference = &self.reference;
        batch_mae_bounded(
            batch,
            incumbent,
            parallel,
            |_, g| g,
            |_| true,
            || base_plan,
            |plan, i| {
                let diff = &diffs[i];
                plan.apply(diff);
                let result = plan_mae_bounded(plan, windows, reference, bound);
                plan.revert(diff);
                result
            },
            &mut self.stats,
        )
    }

    fn evaluations(&self) -> u64 {
        self.evaluations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehw_image::metrics::mae;
    use ehw_image::noise::salt_pepper;
    use ehw_image::synth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_genotype_scores_zero_on_identity_task() {
        let img = synth::shapes(32, 32, 3);
        let mut eval = SoftwareEvaluator::new(img.clone(), img);
        assert_eq!(eval.evaluate(&Genotype::identity()), 0);
        assert_eq!(eval.evaluations(), 1);
    }

    #[test]
    fn noisy_identity_scores_noise_level() {
        let clean = synth::shapes(64, 64, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let noisy = salt_pepper(&clean, 0.2, &mut rng);
        let mut eval = SoftwareEvaluator::new(noisy.clone(), clean.clone());
        // An identity filter leaves all the noise in place.
        let identity_fitness = eval.evaluate(&Genotype::identity());
        assert_eq!(identity_fitness, mae(&noisy, &clean));
        assert!(identity_fitness > 0);
    }

    #[test]
    fn batch_matches_sequential_evaluation() {
        let clean = synth::shapes(32, 32, 3);
        let mut rng = StdRng::seed_from_u64(2);
        let noisy = salt_pepper(&clean, 0.3, &mut rng);
        let mut eval = SoftwareEvaluator::new(noisy, clean);
        let batch: Vec<Genotype> = (0..9).map(|_| Genotype::random(&mut rng)).collect();
        let parallel = eval.evaluate_batch_bounded(&batch, None, None, ParallelConfig::from_env());
        let sequential: Vec<u64> = batch.iter().map(|g| eval.evaluate(g)).collect();
        assert_eq!(parallel, sequential);
        assert_eq!(eval.evaluations(), 9 + 9);
    }

    #[test]
    fn faults_persist_across_candidates() {
        let img = synth::shapes(32, 32, 3);
        let mut eval = SoftwareEvaluator::new(img.clone(), img);
        assert_eq!(eval.evaluate(&Genotype::identity()), 0);
        eval.inject_fault(0, 3, FaultBehaviour::dummy());
        let damaged = eval.evaluate(&Genotype::identity());
        assert!(damaged > 0, "fault on the output path must hurt fitness");
        eval.clear_faults();
        assert_eq!(eval.evaluate(&Genotype::identity()), 0);
    }

    #[test]
    fn set_reference_redefines_the_task() {
        let img = synth::shapes(32, 32, 3);
        let edges = ehw_image::filters::sobel_edge(&img);
        let mut eval = SoftwareEvaluator::new(img.clone(), img.clone());
        assert_eq!(eval.evaluate(&Genotype::identity()), 0);
        eval.set_reference(edges.clone());
        let vs_edges = eval.evaluate(&Genotype::identity());
        assert_eq!(vs_edges, mae(&img, &edges));
        assert!(vs_edges > 0);
    }

    #[test]
    fn filter_with_does_not_count_as_evaluation() {
        let img = synth::shapes(16, 16, 2);
        let eval = SoftwareEvaluator::new(img.clone(), img.clone());
        let out = eval.filter_with(&Genotype::identity());
        assert_eq!(out, img);
        assert_eq!(eval.evaluations(), 0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_images_panic() {
        let a = synth::gradient(16, 16);
        let b = synth::gradient(16, 17);
        let _ = SoftwareEvaluator::new(a, b);
    }

    fn toy_batch(seed: u64, n: usize) -> Vec<Genotype> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Genotype::random(&mut rng)).collect()
    }

    #[test]
    fn evaluations_counter_matches_batch_sizes_on_every_path() {
        // Regression: the serial, batch, parallel-batch and bounded paths
        // must all count one evaluation per *requested* candidate — memo hits
        // and early exits included — at any worker count.
        let clean = synth::shapes(24, 24, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let noisy = salt_pepper(&clean, 0.3, &mut rng);
        for workers in [1usize, 2, 8] {
            let mut eval = SoftwareEvaluator::new(noisy.clone(), clean.clone());
            let cfg = ehw_parallel::ParallelConfig::with_workers(workers);
            let mut batch = toy_batch(7, 5);
            // Duplicates (memo hits) still count.
            batch.push(batch[0].clone());
            batch.push(batch[2].clone());

            // Serial: 1; batch: 7; bounded with a tight bound (early exits)
            // and the incumbent shortcut: still 7.
            eval.evaluate(&batch[0]);
            eval.evaluate_batch_bounded(&batch, None, None, cfg);
            eval.evaluate_batch_bounded(&batch, Some(0), Some((&batch[0], 123)), cfg);
            assert_eq!(eval.evaluations(), 1 + 7 + 7, "workers = {workers}");
        }
    }

    #[test]
    fn bounded_matches_unbounded_when_bound_not_hit() {
        let clean = synth::shapes(24, 24, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let noisy = salt_pepper(&clean, 0.3, &mut rng);
        let batch = toy_batch(11, 9);
        let mut eval = SoftwareEvaluator::new(noisy, clean);
        let exact = eval.evaluate_batch_bounded(&batch, None, None, ParallelConfig::serial());
        let max = *exact.iter().max().unwrap();
        let bounded = eval.evaluate_batch_bounded(
            &batch,
            Some(max),
            None,
            ehw_parallel::ParallelConfig::serial(),
        );
        assert_eq!(bounded, exact, "no candidate exceeds the bound");
    }

    #[test]
    fn bounded_early_exits_report_values_above_the_bound() {
        let clean = synth::shapes(24, 24, 3);
        let mut rng = StdRng::seed_from_u64(6);
        let noisy = salt_pepper(&clean, 0.4, &mut rng);
        let batch = toy_batch(13, 9);
        let mut eval = SoftwareEvaluator::new(noisy, clean);
        let exact = eval.evaluate_batch_bounded(&batch, None, None, ParallelConfig::serial());
        let bound = exact.iter().copied().min().unwrap();
        let bounded = eval.evaluate_batch_bounded(
            &batch,
            Some(bound),
            None,
            ehw_parallel::ParallelConfig::serial(),
        );
        for (i, (&b, &e)) in bounded.iter().zip(exact.iter()).enumerate() {
            if e <= bound {
                assert_eq!(b, e, "candidate {i}: exact values must survive");
            } else {
                assert!(b > bound, "candidate {i}: early exit must report > bound");
                assert!(
                    b <= e,
                    "candidate {i}: partial sum cannot exceed the exact MAE"
                );
            }
        }
        assert!(eval.engine_stats().early_exits > 0);
    }

    #[test]
    fn bounded_results_are_identical_at_any_worker_count() {
        let clean = synth::shapes(24, 24, 3);
        let mut rng = StdRng::seed_from_u64(8);
        let noisy = salt_pepper(&clean, 0.3, &mut rng);
        let batch = toy_batch(17, 12);
        let reference = {
            let mut eval = SoftwareEvaluator::new(noisy.clone(), clean.clone());
            eval.evaluate_batch_bounded(
                &batch,
                Some(500),
                None,
                ehw_parallel::ParallelConfig::serial(),
            )
        };
        for workers in [2usize, 8] {
            let mut eval = SoftwareEvaluator::new(noisy.clone(), clean.clone());
            let got = eval.evaluate_batch_bounded(
                &batch,
                Some(500),
                None,
                ehw_parallel::ParallelConfig::with_workers(workers),
            );
            assert_eq!(got, reference, "diverged at {workers} workers");
        }
    }

    #[test]
    fn memo_and_incumbent_shortcuts_preserve_values() {
        let clean = synth::shapes(20, 20, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let noisy = salt_pepper(&clean, 0.3, &mut rng);
        let mut batch = toy_batch(19, 4);
        let parent = batch[1].clone();
        batch.push(batch[0].clone()); // in-batch duplicate
        batch.push(parent.clone()); // incumbent duplicate

        let mut plain = SoftwareEvaluator::new(noisy.clone(), clean.clone());
        let exact = plain.evaluate_batch_bounded(&batch, None, None, ParallelConfig::serial());
        let parent_fitness = exact[1];

        let mut engine = SoftwareEvaluator::new(noisy, clean);
        let got = engine.evaluate_batch_bounded(
            &batch,
            None,
            Some((&parent, parent_fitness)),
            ehw_parallel::ParallelConfig::serial(),
        );
        assert_eq!(got, exact);
        let stats = engine.engine_stats();
        // Duplicate of candidate 0 is a memo hit; the two parent copies are
        // both answered from the incumbent.
        assert_eq!(stats.memo_hits, 3);
        assert_eq!(stats.plans_evaluated, 3);
        assert_eq!(engine.evaluations(), batch.len() as u64);
    }

    #[test]
    fn chain_mae_bounded_matches_filter_then_mae() {
        let mut rng = StdRng::seed_from_u64(21);
        let img = synth::shapes(23, 17, 3);
        let reference = synth::shapes(23, 17, 4);
        let windows = SharedWindows::new(&img);
        for _ in 0..5 {
            let plans: Vec<CompiledArray> = (0..3)
                .map(|_| CompiledArray::new(&Genotype::random(&mut rng)))
                .collect();
            let output = plans.iter().fold(img.clone(), |x, p| p.filter_image(&x));
            let exact = mae(&output, &reference);
            assert_eq!(
                chain_mae_bounded(&plans[0], &windows, &plans[1..], &reference, None),
                (exact, false)
            );
            // Bounded: exact iff under the bound, deterministic partial
            // otherwise.
            let (sum, exited) = chain_mae_bounded(
                &plans[0],
                &windows,
                &plans[1..],
                &reference,
                Some(exact / 2),
            );
            if exact > exact / 2 {
                assert!(exited && sum > exact / 2 && sum <= exact);
            }
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn plan_mae_bounded_rejects_same_area_shape_mismatch() {
        // Regression: a same-area reference of a different shape must fail
        // loudly, not silently compare against the wrong pixels.
        let windows = SharedWindows::new(&synth::gradient(20, 10));
        let reference = synth::gradient(10, 20);
        let plan = CompiledArray::new(&Genotype::identity());
        let _ = plan_mae_bounded(&plan, &windows, &reference, None);
    }

    #[test]
    fn engine_stats_rate_is_bounded() {
        let stats = EngineStats {
            plans_evaluated: 8,
            early_exits: 2,
            memo_hits: 1,
        };
        assert!((stats.early_exit_rate() - 0.25).abs() < 1e-12);
        assert_eq!(EngineStats::default().early_exit_rate(), 0.0);
    }
}
