//! Seeded generation of every workload's jobs.
//!
//! Job `i` of a workload is a pure function of (workload seed, `i`), so a
//! run that settles more or fewer jobs than another still sees the same
//! inputs in the same order.  A job renders two ways: as the JSON body a
//! client sends (`POST /jobs`, `POST /streams`) and as the [`JobSpec`] its
//! typed constructors make.  The HTTP workloads send the body; the
//! in-process workload and the output checks use the spec, so every check of
//! a served result also checks that the wire decoder agrees with the typed
//! constructors.

use ehw_array::genotype::Genotype;
use ehw_image::noise::NoiseModel;
use ehw_image::{noise, synth, GrayImage};
use ehw_platform::jobs::{JobSpec, StreamSourceSpec};
use ehw_service::{AdaptationConfig, DriftConfig, NoiseSegment, ScenarioRegistry, SceneKind};
use rand::seq::SeedSequence;
use rand::Rng;

/// λ of every job: the `JobSpec` default, the paper's nine offspring.
pub const OFFSPRING: u64 = 9;
/// Salt-and-pepper density of every training input.
const NOISE_DENSITY: f64 = 0.4;
/// Shared images the warm-started half of `http_small_jobs` draws from.
const HOT_IMAGES: u64 = 4;
/// Seed lane of the hot images, apart from every job lane.
const HOT_LANE: u64 = 1 << 40;

/// Generation budgets of `service_paper_batch`, sized so one job of each
/// mode takes tens of milliseconds on a 2-core host.
const BATCH_EVOLUTION_GENERATIONS: u64 = 80;
const BATCH_CASCADE_GENERATIONS: u64 = 24;
const BATCH_RECOVERY_GENERATIONS: u64 = 8;
/// Arrays of the paper's platform (parallel evolution, TMR).
const PAPER_ARRAYS: usize = 3;

/// Frames per stream job of `http_stream_drift`.
const STREAM_FRAMES: usize = 2000;
const STREAM_EDGE: usize = 64;
/// Adaptation generation budget; no wall-clock budget, so outputs stay a
/// pure function of spec and seed.
const STREAM_ADAPT_GENERATIONS: u64 = 20;
const STREAM_DRIFT: DriftConfig = DriftConfig {
    window: 8,
    threshold_pct: 130,
    cooldown: 16,
};
/// Noise levels of a stream's schedule, one per segment.
const STREAM_LEVELS: [f64; 5] = [0.01, 0.04, 0.12, 0.25, 0.45];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Evolution,
    Cascade,
    Campaign,
    Stream,
}

/// What a job trains on.
#[derive(Debug, Clone)]
enum Source {
    /// A noisy input and its clean reference.
    Pair(GrayImage, GrayImage),
    /// A synthetic `shapes` stream: scene complexity and the
    /// (start frame, salt-and-pepper density) schedule.
    Stream {
        complexity: usize,
        schedule: Vec<(usize, f64)>,
    },
}

/// One generated job.
#[derive(Debug, Clone)]
pub struct Job {
    pub index: usize,
    pub kind: Kind,
    /// Whether the spec asks for a champion warm start.
    pub warm: bool,
    /// The generation budget (recovery generations for campaigns,
    /// adaptation generations for streams).
    pub generations: u64,
    /// Arrays of an evolution job.
    arrays: usize,
    seed: u64,
    source: Source,
}

impl Job {
    pub fn path(&self) -> &'static str {
        match self.kind {
            Kind::Stream => "/streams",
            _ => "/jobs",
        }
    }

    /// The request body a client sends for this job.
    pub fn body(&self) -> String {
        let (g, seed) = (self.generations, self.seed);
        match &self.source {
            Source::Pair(input, reference) => {
                let pair = format!(
                    "\"input\":{},\"reference\":{}",
                    image_json(input),
                    image_json(reference)
                );
                match self.kind {
                    Kind::Evolution => format!(
                        "{{\"kind\":\"evolution\",{pair},\"num_arrays\":{},\"generations\":{g},\"seed\":{seed},\"warm_start\":{}}}",
                        self.arrays, self.warm
                    ),
                    Kind::Cascade => format!(
                        "{{\"kind\":\"cascade\",{pair},\"stages\":{PAPER_ARRAYS},\"generations\":{g},\"seed\":{seed}}}"
                    ),
                    _ => format!(
                        "{{\"kind\":\"fault_campaign\",{pair},\"num_arrays\":{PAPER_ARRAYS},\"arrays\":[0],\"scenario\":\"single_sweep\",\"policy\":\"full_ladder\",\"recovery_generations\":{g},\"seed\":{seed}}}"
                    ),
                }
            }
            Source::Stream {
                complexity,
                schedule,
            } => {
                let segments: Vec<String> = schedule
                    .iter()
                    .map(|(start, density)| {
                        format!("{{\"start_frame\":{start},\"noise\":{{\"model\":\"salt_pepper\",\"density\":{density}}}}}")
                    })
                    .collect();
                let initial: Vec<String> = Genotype::identity()
                    .encode()
                    .iter()
                    .map(u8::to_string)
                    .collect();
                format!(
                    "{{\"kind\":\"stream\",\"initial\":[{}],\"source\":{{\"type\":\"synthetic\",\"scene\":\"shapes\",\"complexity\":{complexity},\"width\":{STREAM_EDGE},\"height\":{STREAM_EDGE},\"frames\":{STREAM_FRAMES},\"schedule\":[{}]}},\"drift_window\":{},\"drift_threshold_pct\":{},\"drift_cooldown\":{},\"generations\":{g},\"seed\":{seed}}}",
                    initial.join(","),
                    segments.join(","),
                    STREAM_DRIFT.window,
                    STREAM_DRIFT.threshold_pct,
                    STREAM_DRIFT.cooldown,
                )
            }
        }
    }

    /// The spec the typed constructors make for this job: what the server decodes
    /// from [`body`](Self::body).
    pub fn spec(&self) -> JobSpec {
        let g = self.generations as usize;
        let spec = match &self.source {
            Source::Pair(input, reference) => {
                let (input, reference) = (input.clone(), reference.clone());
                match self.kind {
                    Kind::Evolution => JobSpec::evolution(input, reference)
                        .num_arrays(self.arrays)
                        .generations(g)
                        .warm_start(self.warm)
                        .seed(self.seed)
                        .build(),
                    Kind::Cascade => JobSpec::cascade(input, reference)
                        .stages(PAPER_ARRAYS)
                        .generations(g)
                        .seed(self.seed)
                        .build(),
                    _ => {
                        let registry = ScenarioRegistry::builtin();
                        JobSpec::fault_campaign(input, reference)
                            .platform_arrays(PAPER_ARRAYS)
                            .arrays(vec![0])
                            .scenario(registry.scenario("single_sweep").expect("built in").clone())
                            .policy(registry.policy("full_ladder").expect("built in").clone())
                            .recovery_generations(g)
                            .seed(self.seed)
                            .build()
                    }
                }
            }
            Source::Stream {
                complexity,
                schedule,
            } => JobSpec::stream(StreamSourceSpec::Synthetic {
                scene: SceneKind::Shapes {
                    complexity: *complexity,
                },
                width: STREAM_EDGE,
                height: STREAM_EDGE,
                frames: STREAM_FRAMES,
                schedule: schedule
                    .iter()
                    .map(|&(start_frame, density)| NoiseSegment {
                        start_frame,
                        noise: NoiseModel::SaltPepper { density },
                    })
                    .collect(),
            })
            .initial(Genotype::identity())
            .drift(STREAM_DRIFT)
            .adaptation(AdaptationConfig {
                generations: g,
                ..AdaptationConfig::default()
            })
            .seed(self.seed)
            .build(),
        };
        spec.expect("generated specs are valid")
    }
}

/// Seeds travel as JSON numbers; keeping them below 2^53 keeps them exact
/// for any client.
fn job_seed(rng: &mut impl Rng) -> u64 {
    rng.gen::<u64>() >> 11
}

fn image_json(image: &GrayImage) -> String {
    let pixels: Vec<String> = image.as_slice().iter().map(u8::to_string).collect();
    format!(
        "{{\"width\":{},\"height\":{},\"pixels\":[{}]}}",
        image.width(),
        image.height(),
        pixels.join(",")
    )
}

/// A clean scene and its noisy copy.
fn training_pair(size: usize, rng: &mut impl Rng) -> Source {
    let clean = synth::shapes(size, size, rng.gen_range(3..12));
    let noisy = noise::salt_pepper(&clean, NOISE_DENSITY, rng);
    Source::Pair(noisy, clean)
}

/// `http_small_jobs`: 32×32 to 64×64 evolutions of 50–150 generations.
/// About half reuse one of [`HOT_IMAGES`] shared images and ask for a warm
/// start; the rest train on an image of their own.
pub fn small_job(seed: u64, index: usize) -> Job {
    let mut rng = SeedSequence::new(seed).fork(index as u64).rng();
    let warm = rng.gen_bool(0.5);
    let source = if warm {
        // The shared images' sizes are fixed, so every seed sends the same
        // mix of body sizes.
        let hot = rng.gen_range(0..HOT_IMAGES);
        let mut hot_rng = SeedSequence::new(seed).fork(HOT_LANE + hot).rng();
        training_pair(64 - 8 * hot as usize, &mut hot_rng)
    } else {
        let size = 32 + 8 * rng.gen_range(0..5usize);
        training_pair(size, &mut rng)
    };
    Job {
        index,
        kind: Kind::Evolution,
        warm,
        generations: rng.gen_range(50..151u64),
        arrays: 1,
        seed: job_seed(&mut rng),
        source,
    }
}

/// A job that only fills the cross-job fitness cache before a timed
/// region: a few wide generations on a small image of its own, which insert
/// hundreds of distinct fitness values in a few milliseconds.
pub fn cache_fill_job(seed: u64, index: usize) -> JobSpec {
    let mut rng = SeedSequence::new(seed).fork(index as u64).rng();
    let Source::Pair(input, reference) = training_pair(16, &mut rng) else {
        unreachable!("training_pair makes a pair")
    };
    JobSpec::evolution(input, reference)
        .offspring(512)
        .generations(8)
        .seed(job_seed(&mut rng))
        .build()
        .expect("the fill spec is valid")
}

/// The mode of `service_paper_batch` job `index`.
pub fn batch_kind(index: usize) -> Kind {
    [Kind::Evolution, Kind::Cascade, Kind::Campaign][index % 3]
}

/// `service_paper_batch`: the paper's three modes in turn, each on its own
/// 128×128 image — 3-array parallel evolution, a 3-stage cascade, and a
/// single-sweep fault campaign under the Scrub → TmrRemap → Reevolve ladder.
pub fn batch_job(seed: u64, index: usize) -> Job {
    let mut rng = SeedSequence::new(seed).fork(index as u64).rng();
    let kind = batch_kind(index);
    Job {
        index,
        kind,
        warm: false,
        generations: match kind {
            Kind::Evolution => BATCH_EVOLUTION_GENERATIONS,
            Kind::Cascade => BATCH_CASCADE_GENERATIONS,
            _ => BATCH_RECOVERY_GENERATIONS,
        },
        arrays: PAPER_ARRAYS,
        source: training_pair(128, &mut rng),
        seed: job_seed(&mut rng),
    }
}

/// `http_stream_drift`: a 64×64 `shapes` stream whose salt-and-pepper
/// density steps up segment by segment, so every stream drifts and
/// re-adapts several times.  The detector re-latches its baseline only
/// after an adaptation, so a step back down never fires and a low/high
/// alternation would drift once; each rising step does.
pub fn stream_job(seed: u64, index: usize) -> Job {
    let mut rng = SeedSequence::new(seed).fork(index as u64).rng();
    let span = STREAM_FRAMES / STREAM_LEVELS.len();
    let schedule = STREAM_LEVELS
        .iter()
        .enumerate()
        .map(|(k, level)| {
            let start = if k == 0 {
                0
            } else {
                k * span + rng.gen_range(0..80usize) - 40
            };
            // Four decimals, so the JSON body carries the exact value.
            let density = (level * rng.gen_range(0.85..1.15) * 1e4).round() / 1e4;
            (start, density)
        })
        .collect();
    Job {
        index,
        kind: Kind::Stream,
        warm: false,
        generations: STREAM_ADAPT_GENERATIONS,
        arrays: 1,
        source: Source::Stream {
            complexity: rng.gen_range(3..9usize),
            schedule,
        },
        seed: job_seed(&mut rng),
    }
}
