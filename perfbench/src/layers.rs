//! The per-layer table of the traced run.
//!
//! Client-side spans of the traced run give the HTTP and service round
//! trips.  The rest comes from probes run after both timed runs, in this
//! process and one at a time: for a sample of the workload's own jobs, the
//! benchmark calls each layer's public functions itself and records one span
//! per call — decode and encode in `ehw-server`, `jobs::execute`, a timing
//! wrapper around the evaluator and observer of `run_evolution_with_parent`,
//! plan compile and patch, window extraction, cache inserts, the parallel
//! pool's round trip, and the stream engine's event gaps.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ehw_array::compiled::CompiledArray;
use ehw_array::genotype::Genotype;
use ehw_evolution::fitness::{EngineStats, FitnessEvaluator, SoftwareEvaluator};
use ehw_evolution::strategy::{run_evolution_with_parent, EsConfig, GenerationObserver};
use ehw_image::window::SharedWindows;
use ehw_image::GrayImage;
use ehw_parallel::{ordered_map_init, ParallelConfig};
use ehw_platform::cache::FitnessKey;
use ehw_platform::evo_modes::PlatformEvaluator;
use ehw_platform::jobs::{self, JobControl, JobProgress, JobResult, JobSpec, StreamSourceSpec};
use ehw_platform::{CrossJobCache, CrossJobCacheConfig, EhwPlatform};
use ehw_server::json::{self, Value};
use ehw_server::wire;
use ehw_service::{EhwService, ScenarioRegistry, ServiceConfig, StreamEvent};
use ehw_stream::{FrameSource, SyntheticSource};
use rand::seq::SeedSequence;

use crate::checks::without_job_id;
use crate::inputs::Kind;
use crate::stats::{mean, median, ratio};
use crate::trace::Tracer;
use crate::workloads::{Ctx, Run, Workload};
use crate::{metric, Metric};

/// Candidates per probed job fed to the plan and cache probes.
const CANDIDATES_PER_JOB: usize = 256;
/// Round trips of the parallel pool timed per run.
const POOL_ROUND_TRIPS: usize = 200;

fn probe_sample(workload: Workload) -> usize {
    match workload {
        Workload::HttpSmallJobs => 16,
        Workload::ServicePaperBatch => 12,
        Workload::HttpStreamDrift => 3,
    }
}

/// A [`FitnessEvaluator`] that times every batch and keeps the candidates.
struct TimedEvaluator<E> {
    inner: E,
    /// Per generation: when its offspring batch started and finished
    /// evaluating.
    batches: Vec<(Instant, Instant)>,
    /// (incumbent, candidate) pairs, in evaluation order.
    candidates: Vec<(Genotype, Genotype)>,
}

impl<E: FitnessEvaluator> FitnessEvaluator for TimedEvaluator<E> {
    fn evaluate(&mut self, genotype: &Genotype) -> u64 {
        self.inner.evaluate(genotype)
    }

    fn evaluate_batch_bounded(
        &mut self,
        batch: &[Genotype],
        bound: Option<u64>,
        incumbent: Option<(&Genotype, u64)>,
        parallel: ParallelConfig,
    ) -> Vec<u64> {
        let start = Instant::now();
        let fitness = self
            .inner
            .evaluate_batch_bounded(batch, bound, incumbent, parallel);
        self.batches.push((start, Instant::now()));
        if let Some((parent, _)) = incumbent {
            for candidate in batch {
                if self.candidates.len() < CANDIDATES_PER_JOB {
                    self.candidates.push((parent.clone(), candidate.clone()));
                }
            }
        }
        fitness
    }

    fn evaluations(&self) -> u64 {
        self.inner.evaluations()
    }
}

/// A [`GenerationObserver`] that stamps every generation boundary.
struct TimedObserver {
    boundaries: Vec<Instant>,
}

impl GenerationObserver for TimedObserver {
    fn on_generation(&mut self, _generation: usize, _reconfigs: &[usize], _best: u64) {
        self.boundaries.push(Instant::now());
    }
}

/// Runs one evolution through the wrappers and records a span per
/// generation with its batch evaluation as a child.  Returns the best
/// genotype, fitness history, evaluation count, the summed batch time and
/// the candidates seen.
fn traced_evolution<E: FitnessEvaluator>(
    tracer: &Tracer,
    trace: u64,
    config: &EsConfig,
    evaluator: E,
) -> (
    ehw_evolution::strategy::EvolutionResult,
    Duration,
    Vec<(Genotype, Genotype)>,
) {
    let mut evaluator = TimedEvaluator {
        inner: evaluator,
        batches: Vec::new(),
        candidates: Vec::new(),
    };
    let mut observer = TimedObserver {
        boundaries: Vec::new(),
    };
    let start = Instant::now();
    let result = run_evolution_with_parent(config, None, &mut evaluator, &mut observer);
    let mut batch_total = Duration::ZERO;
    let mut generation_start = start;
    for (&(batch_start, batch_end), &end) in evaluator.batches.iter().zip(&observer.boundaries) {
        let generation = tracer.id();
        tracer.record(
            generation,
            "evolution.generation",
            trace,
            None,
            generation_start,
            end,
        );
        let batch = tracer.id();
        tracer.record(
            batch,
            "evolution.eval_batch",
            trace,
            Some(generation),
            batch_start,
            batch_end,
        );
        batch_total += batch_end - batch_start;
        generation_start = end;
    }
    (result, batch_total, evaluator.candidates)
}

/// Everything the probes measured beyond the tracer's spans.
#[derive(Default)]
struct Probes {
    failures: Vec<(usize, String)>,
    request_bytes: Vec<f64>,
    event_bytes: Vec<f64>,
    stats: EngineStats,
    evaluations: u64,
    drift_events: Vec<f64>,
    adaptations: Vec<f64>,
    batch_at_one: Duration,
    batch_at_nproc: Duration,
}

/// The untraced outcome's result must match the probe's own run of the same
/// (spec, seed) unless it warm-started.
fn compare_with_run(probes: &mut Probes, run: &Run, index: usize, local: &JobResult) {
    let Some(outcome) = run.outcomes.iter().find(|o| o.index == index) else {
        return;
    };
    if !outcome.warm_started()
        && without_job_id(&wire::encode_result(local)) != without_job_id(&outcome.result)
    {
        probes
            .failures
            .push((index, "probe result differs from the untraced run".into()));
    }
}

fn training_images(spec: &JobSpec, seed: u64) -> (GrayImage, GrayImage) {
    match spec {
        JobSpec::Evolution(s) => (s.task().input.clone(), s.task().reference.clone()),
        JobSpec::Cascade(s) => (s.task().input.clone(), s.task().reference.clone()),
        JobSpec::FaultCampaign(s) => (s.task().input.clone(), s.task().reference.clone()),
        JobSpec::Stream(s) => match s.source() {
            // The stream's own first frame: the source is seeded exactly as
            // `jobs::execute` seeds it.
            StreamSourceSpec::Synthetic {
                scene,
                width,
                height,
                frames,
                schedule,
            } => {
                let mut source = SyntheticSource::new(
                    *scene,
                    *width,
                    *height,
                    *frames,
                    schedule.clone(),
                    SeedSequence::new(seed).fork(0).seed(),
                )
                .expect("generated schedules are valid");
                let frame = source.frame(0).expect("streams have a frame 0");
                (frame, source.reference().clone())
            }
            StreamSourceSpec::PgmDir(_) => {
                unreachable!("the benchmark generates synthetic streams")
            }
        },
    }
}

/// Probes one job of the workload.
fn probe_job(ctx: &Ctx, run: &Run, index: usize, seed: u64, tracer: &Tracer, probes: &mut Probes) {
    let job = ctx.job(index);
    let trace = index as u64;
    let registry = ScenarioRegistry::builtin();
    let body = job.body();
    probes.request_bytes.push(body.len() as f64);
    let spec = tracer.span("server.decode", trace, None, |_| {
        let doc = json::parse(&body).expect("generated bodies are valid JSON");
        wire::decode_spec_with(&doc, &registry)
            .expect("generated bodies are valid specs")
            .0
    });
    let (input, reference) = training_images(&spec, seed);
    tracer.span("image.window_extract", trace, None, |_| {
        black_box(SharedWindows::new(black_box(&input)));
    });

    // jobs::execute, with its progress events stamped as they arrive.
    let (_, workers) = ctx.workload.shape(ctx.nproc);
    let parallel = ParallelConfig::with_workers(workers);
    let mut platform = EhwPlatform::with_parallel(spec.arrays_needed(), parallel);
    let cache = job
        .warm
        .then(|| Arc::new(CrossJobCache::new(CrossJobCacheConfig::default())));
    let mut events: Vec<(Instant, JobProgress)> = Vec::new();
    let name = match job.kind {
        Kind::Evolution => "jobs.evolution",
        Kind::Cascade => "jobs.cascade",
        Kind::Campaign => "jobs.campaign",
        Kind::Stream => "jobs.stream",
    };
    let execute = tracer.id();
    let start = Instant::now();
    let result = jobs::execute_controlled_cached(
        &mut platform,
        &spec,
        seed,
        &JobControl::new(),
        &mut |event| events.push((Instant::now(), event)),
        cache.as_ref(),
    );
    tracer.record(execute, name, trace, None, start, Instant::now());
    compare_with_run(probes, run, index, &result);
    probes.stats.accumulate(result.stats);
    probes.evaluations += result.evaluations;

    tracer.span("server.encode", trace, None, |_| {
        black_box(wire::encode_result(&result).to_json());
    });
    let mut event_bytes = 0usize;
    for (sequence, (_, event)) in events.iter().enumerate() {
        event_bytes += tracer.span("server.event_encode", trace, None, |_| {
            wire::encode_event(sequence, event).to_json().len() + 1
        });
    }
    probes.event_bytes.push(event_bytes as f64);

    if let Some(report) = result.as_stream() {
        probes.drift_events.push(report.drift_events as f64);
        probes.adaptations.push(report.adaptations_attempted as f64);
        stream_gaps(tracer, trace, execute, &events);
    }

    // The evolution layers, through the wrappers: evolution jobs as
    // specified, stream jobs as an adaptation-sized evolution on their
    // first frame.
    let evolution = match &spec {
        JobSpec::Evolution(s) => Some((*s.config(), spec.arrays_needed())),
        JobSpec::Stream(s) => {
            let a = s.adaptation();
            Some((
                EsConfig {
                    offspring: a.offspring,
                    target_fitness: a.target_fitness,
                    ..EsConfig::paper(a.mutation_rate, 1, a.generations, seed)
                },
                1,
            ))
        }
        _ => None,
    };
    let Some((base, arrays)) = evolution else {
        return;
    };
    // The workload's own pool size is traced; 1 and `nproc` workers give
    // the batch speedup.
    let mut pools = vec![workers];
    for pool in [1, ctx.nproc] {
        if !pools.contains(&pool) {
            pools.push(pool);
        }
    }
    let mut candidates = Vec::new();
    for (run, &pool) in pools.iter().enumerate() {
        let recorder = if run == 0 {
            tracer
        } else {
            &Tracer::new(false)
        };
        let config = EsConfig {
            seed,
            num_arrays: arrays,
            parallel: ParallelConfig::with_workers(pool),
            ..base
        };
        let (evolved, batch_total, seen) = match &spec {
            JobSpec::Evolution(s) => {
                let platform = EhwPlatform::with_parallel(arrays, config.parallel);
                traced_evolution(
                    recorder,
                    trace,
                    &config,
                    PlatformEvaluator::new(&platform, s.task()),
                )
            }
            _ => traced_evolution(
                recorder,
                trace,
                &config,
                SoftwareEvaluator::new(input.clone(), reference.clone()),
            ),
        };
        if let Some((expected, _)) = result.as_evolution() {
            if evolved.best_genotype != expected.best_genotype
                || evolved.history != expected.history
                || evolved.evaluations != expected.evaluations
            {
                probes
                    .failures
                    .push((index, "wrapped evolution differs from jobs::execute".into()));
            }
        }
        if pool == 1 {
            probes.batch_at_one += batch_total;
        }
        if pool == ctx.nproc {
            probes.batch_at_nproc += batch_total;
        }
        if candidates.is_empty() {
            candidates = seen;
        }
    }
    plan_and_cache_probes(tracer, trace, &input, &reference, &candidates);
}

/// Spans between the stream engine's events: frame to frame with no drift
/// or adaptation between them, and drift to the adaptation it triggered.
fn stream_gaps(tracer: &Tracer, trace: u64, parent: u64, events: &[(Instant, JobProgress)]) {
    let mut drift_at = None;
    for pair in events.windows(2) {
        let ((before, first), (after, second)) = (pair[0], pair[1]);
        if let (Some(StreamEvent::Frame { .. }), Some(StreamEvent::Frame { .. })) =
            (first.stream, second.stream)
        {
            let id = tracer.id();
            tracer.record(id, "stream.frame", trace, Some(parent), before, after);
        }
    }
    for &(at, event) in events {
        match event.stream {
            Some(StreamEvent::Drift { .. }) => drift_at = Some(at),
            Some(StreamEvent::Adaptation { .. }) => {
                if let Some(start) = drift_at.take() {
                    let id = tracer.id();
                    tracer.record(id, "stream.adapt", trace, Some(parent), start, at);
                }
            }
            _ => {}
        }
    }
}

/// Plan compile and patch, and the cache's miss path, over the candidates
/// an evolution actually evaluated.
fn plan_and_cache_probes(
    tracer: &Tracer,
    trace: u64,
    input: &GrayImage,
    reference: &GrayImage,
    candidates: &[(Genotype, Genotype)],
) {
    let cache = CrossJobCache::new(CrossJobCacheConfig::default());
    let (image_hash, reference_hash) = (input.content_hash(), reference.content_hash());
    let mut parent_plan: Option<(Genotype, CompiledArray)> = None;
    for (i, (parent, candidate)) in candidates.iter().enumerate() {
        if parent_plan.as_ref().is_none_or(|(g, _)| g != parent) {
            parent_plan = Some((parent.clone(), CompiledArray::new(parent)));
        }
        let (_, plan) = parent_plan.as_ref().expect("set above");
        tracer.span("array.plan_compile", trace, None, |_| {
            black_box(CompiledArray::new(black_box(candidate)));
        });
        let diff = candidate.diff_from(parent);
        tracer.span("array.plan_patch", trace, None, |_| {
            black_box(plan.patch(black_box(&diff)));
        });
        let key = FitnessKey {
            genotype: candidate.encode(),
            image_hash,
            reference_hash,
            fault_fingerprint: 0,
        };
        tracer.span("cache.insert", trace, None, |_| {
            if cache.lookup_fitness(&key, None).is_none() {
                cache.insert_fitness(key, i as u64);
            }
        });
    }
}

/// `submit` → first progress event, per job, on an idle in-process service
/// of the workload's shape.  Fault campaigns emit no events and are skipped.
fn first_events(ctx: &Ctx, indices: &[(usize, u64)], tracer: &Tracer) -> Result<(), String> {
    let (shards, workers) = ctx.workload.shape(ctx.nproc);
    let service = EhwService::new(ServiceConfig::new(shards).workers_per_platform(workers))
        .map_err(|e| e.to_string())?;
    for &(index, _) in indices {
        let job = ctx.job(index);
        if job.kind == Kind::Campaign {
            continue;
        }
        let spec = job.spec();
        let start = Instant::now();
        let handle = service.submit(spec).map_err(|e| e.to_string())?;
        let (events, _) = handle.monitor().wait_events(0, Duration::from_secs(120));
        if !events.is_empty() {
            let id = tracer.id();
            tracer.record(
                id,
                "service.first_event",
                index as u64,
                None,
                start,
                Instant::now(),
            );
        }
        handle.wait().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `ordered_map_init` at `nproc` workers over a λ-sized batch of no-op
/// items: the pool's spawn/join cost per generation.
fn pool_round_trips(ctx: &Ctx, tracer: &Tracer) {
    let items = [0u8; 9];
    let pool = ParallelConfig::with_workers(ctx.nproc);
    for trip in 0..POOL_ROUND_TRIPS {
        tracer.span("parallel.roundtrip", trip as u64, None, |_| {
            black_box(ordered_map_init(
                pool,
                &items,
                || (),
                |_, _, x| black_box(*x),
            ));
        });
    }
}

fn median_of(tracer: &Tracer, name: &str, scale: f64) -> f64 {
    median(&tracer.durations_ns(name)) / scale
}

/// Runs the probes and folds spans and runs into the per-layer metrics.
pub fn per_layer(
    ctx: &Ctx,
    untraced: &Run,
    traced: &Run,
    tracer: &Tracer,
) -> (Vec<Metric>, Vec<(usize, String)>) {
    let sample: Vec<(usize, u64)> = untraced
        .outcomes
        .iter()
        .filter_map(|o| Some((o.index, o.result.get("seed").and_then(Value::as_u64)?)))
        .take(probe_sample(ctx.workload))
        .collect();
    let mut probes = Probes::default();
    for &(index, seed) in &sample {
        probe_job(ctx, untraced, index, seed, tracer, &mut probes);
    }
    if let Err(error) = first_events(ctx, &sample, tracer) {
        probes
            .failures
            .push((usize::MAX, format!("first-event probe: {error}")));
    }
    pool_round_trips(ctx, tracer);

    // Untraced wall time the shards spent in jobs::execute, estimated from
    // the probes' mean execute time per kind.
    let (shards, _) = ctx.workload.shape(ctx.nproc);
    let busy_ms: f64 = [
        (Kind::Evolution, "jobs.evolution"),
        (Kind::Cascade, "jobs.cascade"),
        (Kind::Campaign, "jobs.campaign"),
        (Kind::Stream, "jobs.stream"),
    ]
    .iter()
    .map(|&(kind, name)| {
        let settled = untraced
            .outcomes
            .iter()
            .filter(|o| ctx.workload.job_kind(o.index) == kind)
            .count();
        mean(&tracer.durations_ns(name)) / 1e6 * settled as f64
    })
    .sum();

    let settled = untraced.outcomes.len() as f64;
    let settle = |run: &Run| median(&run.outcomes.iter().map(|o| o.settle_ms).collect::<Vec<_>>());
    let result_bytes: Vec<f64> = untraced
        .outcomes
        .iter()
        .map(|o| o.result.to_json().len() as f64)
        .collect();
    let events_kb = match ctx.workload {
        Workload::HttpStreamDrift => mean(
            &untraced
                .outcomes
                .iter()
                .map(|o| o.events.bytes as f64)
                .collect::<Vec<_>>(),
        ),
        _ => mean(&probes.event_bytes),
    } / 1024.0;
    let busy_share = ratio(busy_ms, shards as f64 * untraced.wall_s * 1e3);
    let memo_hit_rate = ratio(probes.stats.memo_hits as f64, probes.evaluations as f64);
    let batch_speedup = ratio(
        probes.batch_at_one.as_secs_f64(),
        probes.batch_at_nproc.as_secs_f64(),
    );
    let c = &untraced.counters;
    let select_mutate_ns: Vec<f64> = {
        let spans = tracer.spans();
        spans
            .iter()
            .filter(|s| s.name == "evolution.eval_batch")
            .filter_map(|batch| {
                let generation = spans.iter().find(|s| Some(s.id) == batch.parent)?;
                Some(generation.duration_ns().saturating_sub(batch.duration_ns()) as f64)
            })
            .collect()
    };

    let ms = |span: &str| median_of(tracer, span, 1e6);
    let us = |span: &str| median_of(tracer, span, 1e3);
    let ns = |span: &str| median_of(tracer, span, 1.0);
    let hit_rate = |hits: u64, misses: u64| ratio(hits as f64, (hits + misses) as f64);
    let metrics = vec![
        metric("server.submit_rtt_ms", "ms", ms("server.submit")),
        metric("server.status_rtt_ms", "ms", ms("server.status")),
        metric(
            "server.polls_per_job",
            "count",
            ratio(untraced.status_reads as f64, settled),
        ),
        metric(
            "server.request_kb",
            "KiB",
            mean(&probes.request_bytes) / 1024.0,
        ),
        metric("server.result_kb", "KiB", mean(&result_bytes) / 1024.0),
        metric("server.decode_us", "us", us("server.decode")),
        metric("server.encode_us", "us", us("server.encode")),
        metric("server.event_encode_us", "us", us("server.event_encode")),
        metric("server.events_kb", "KiB", events_kb),
        metric(
            "server.settle_lag_reads",
            "count",
            untraced.settle_lag_reads as f64,
        ),
        metric("service.first_event_ms", "ms", ms("service.first_event")),
        metric("service.shard_busy_share", "ratio", busy_share),
        metric("jobs.evolution_ms", "ms", ms("jobs.evolution")),
        metric("jobs.cascade_ms", "ms", ms("jobs.cascade")),
        metric("jobs.campaign_ms", "ms", ms("jobs.campaign")),
        metric("jobs.stream_ms", "ms", ms("jobs.stream")),
        metric("evolution.eval_batch_us", "us", us("evolution.eval_batch")),
        metric(
            "evolution.select_mutate_us",
            "us",
            median(&select_mutate_ns) / 1e3,
        ),
        metric(
            "evolution.early_exit_rate",
            "ratio",
            probes.stats.early_exit_rate(),
        ),
        metric("evolution.memo_hit_rate", "ratio", memo_hit_rate),
        metric("array.plan_compile_ns", "ns", ns("array.plan_compile")),
        metric("array.plan_patch_ns", "ns", ns("array.plan_patch")),
        metric("image.window_extract_us", "us", us("image.window_extract")),
        metric(
            "cache.windows_hit_rate",
            "ratio",
            hit_rate(c.windows_hits, c.windows_misses),
        ),
        metric(
            "cache.fitness_hit_rate",
            "ratio",
            hit_rate(c.fitness_hits, c.fitness_misses),
        ),
        metric("cache.warm_starts", "count", c.warm_starts as f64),
        metric("cache.insert_ns", "ns", ns("cache.insert")),
        metric("parallel.roundtrip_us", "us", us("parallel.roundtrip")),
        metric("parallel.batch_speedup", "ratio", batch_speedup),
        metric("stream.frame_us", "us", us("stream.frame")),
        metric("stream.adapt_ms", "ms", ms("stream.adapt")),
        metric("stream.drift_events", "count", mean(&probes.drift_events)),
        metric("stream.adaptations", "count", mean(&probes.adaptations)),
        metric(
            "trace.overhead_pct",
            "%",
            100.0 * (ratio(settle(traced), settle(untraced)) - 1.0),
        ),
    ];
    (metrics, probes.failures)
}
