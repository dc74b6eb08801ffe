//! The wire codec: JSON shapes for job specs, results and progress events.
//!
//! Decoding goes through the validating [`JobSpec`] builders, so every spec
//! that crosses the wire obeys the same invariants as an in-process one — a
//! malformed or out-of-range spec is a 400, never a panicking shard.
//! Encoding is a total function of the [`JobResult`]: the integration suite
//! asserts that a result fetched over HTTP is byte-identical to the same
//! job's in-process result run through [`encode_result`].

use ehw_array::genotype::Genotype;
use ehw_array::pe::FaultBehaviour;
use ehw_evolution::fitness::EngineStats;
use ehw_fabric::FaultKind;
use ehw_image::noise::NoiseModel;
use ehw_image::GrayImage;
use ehw_platform::fault_campaign::{CampaignReport, EventResult, PositionResult};
use ehw_platform::jobs::{
    CancelKind, JobOutput, JobProgress, JobResult, JobSpec, StreamSourceSpec,
};
use ehw_platform::scenario::{
    CorrelationShape, FaultScenario, PlannedFault, ScenarioKind, ScenarioRegistry, StormPhase,
    TargetFilter,
};
use ehw_platform::self_healing::{RecoveryPolicy, RecoveryStep};
use ehw_platform::timing::EvolutionTimeEstimate;
use ehw_service::{
    Champion, ChampionKey, JobOptions, NoiseSegment, PgmDirSource, Priority, SceneKind,
    StreamEvent, StreamReport,
};

use crate::base64;
use crate::json::{bytesv, f64v, strv, u64v, usizev, Value};

/// Why a request document could not be turned into a job spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for WireError {}

fn err(message: impl Into<String>) -> WireError {
    WireError(message.into())
}

// ---------------------------------------------------------------------------
// Decoding: JSON -> (JobSpec, JobOptions)
// ---------------------------------------------------------------------------

/// Decodes a `POST /jobs` document into a validated spec plus its options,
/// resolving by-name scenario/policy references against the built-in
/// registry (see [`decode_spec_with`] for a custom one).
///
/// ```json
/// {
///   "kind": "evolution" | "cascade" | "fault_campaign" | "stream",
///   "input":     {"width": W, "height": H, "pixels": [..W*H bytes..]},
///   "reference": {"width": W, "height": H, "pixels": [..W*H bytes..]},
///   "generations": N?, "offspring": N?, "mutation_rate": N?,
///   "num_arrays": N?, "stages": N?, "target_fitness": N?, "seed": N?,
///   "baseline": [..13 bytes..]?, "arrays": [N..]?,
///   "recovery_generations": N?, "recovery_mutation_rate": N?,
///   "recovery_offspring": N?, "recovery_target": N?,
///   "scenario": "name"?, "policy": "name"?,
///   "warm_start": bool?,
///   "priority": "high" | "normal" | "low"?, "deadline_ms": N?
/// }
/// ```
///
/// Images may alternatively travel as `{"pgm_base64": "..."}` — a
/// base64-encoded binary PGM (P5) body, roughly 3× smaller than the JSON
/// pixel array.
///
/// Stream specs (`POST /streams`) replace the training pair with a
/// `"source"` member (see [`decode_stream_source`](self)) plus optional
/// `"initial"` genotype bytes, `"drift_window"`, `"drift_threshold_pct"`,
/// `"drift_cooldown"`, adaptation budgets (`"offspring"`, `"mutation_rate"`,
/// `"generations"`, `"max_millis"`, `"target_fitness"`) and `"warm_start"`.
///
/// Unknown kinds, missing images, unresolvable scenario/policy names and
/// builder-validation failures all come back as [`WireError`]s carrying a
/// human-readable reason.
pub fn decode_spec(doc: &Value) -> Result<(JobSpec, JobOptions), WireError> {
    decode_spec_with(doc, &ScenarioRegistry::builtin())
}

/// [`decode_spec`] against an explicit scenario/policy registry — what the
/// server uses, so deployments can overlay their own named entries from a
/// registry file.
pub fn decode_spec_with(
    doc: &Value,
    registry: &ScenarioRegistry,
) -> Result<(JobSpec, JobOptions), WireError> {
    let kind = doc
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| err("spec needs a string 'kind'"))?;
    // Stream specs carry their frames in a 'source' member instead of a
    // training pair, so the image decode is deferred to the kinds that
    // actually take one.
    let images = || -> Result<(GrayImage, GrayImage), WireError> {
        Ok((
            decode_image(
                doc.get("input").ok_or_else(|| err("spec needs 'input'"))?,
                "input",
            )?,
            decode_image(
                doc.get("reference")
                    .ok_or_else(|| err("spec needs 'reference'"))?,
                "reference",
            )?,
        ))
    };

    let field = |name: &str| -> Result<Option<usize>, WireError> {
        match doc.get(name) {
            None => Ok(None),
            Some(v) => v
                .as_usize()
                .map(Some)
                .ok_or_else(|| err(format!("'{name}' must be a non-negative integer"))),
        }
    };
    let seed = match doc.get("seed") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| err("'seed' must be a non-negative integer"))?,
        ),
    };

    let spec = match kind {
        "evolution" => {
            let (input, reference) = images()?;
            let mut builder = JobSpec::evolution(input, reference);
            if let Some(n) = field("offspring")? {
                builder = builder.offspring(n);
            }
            if let Some(n) = field("mutation_rate")? {
                builder = builder.mutation_rate(n);
            }
            if let Some(n) = field("generations")? {
                builder = builder.generations(n);
            }
            if let Some(n) = field("num_arrays")? {
                builder = builder.num_arrays(n);
            }
            if let Some(n) = field("target_fitness")? {
                builder = builder.target_fitness(n as u64);
            }
            if let Some(warm) = doc.get("warm_start") {
                let warm = warm
                    .as_bool()
                    .ok_or_else(|| err("'warm_start' must be a boolean"))?;
                builder = builder.warm_start(warm);
            }
            if let Some(s) = seed {
                builder = builder.seed(s);
            }
            builder.build()
        }
        "cascade" => {
            let (input, reference) = images()?;
            let mut builder = JobSpec::cascade(input, reference);
            if let Some(n) = field("stages")? {
                builder = builder.stages(n);
            }
            if let Some(n) = field("generations")? {
                builder = builder.generations(n);
            }
            if let Some(n) = field("offspring")? {
                builder = builder.offspring(n);
            }
            if let Some(n) = field("mutation_rate")? {
                builder = builder.mutation_rate(n);
            }
            if let Some(s) = seed {
                builder = builder.seed(s);
            }
            builder.build()
        }
        "fault_campaign" => {
            let (input, reference) = images()?;
            let mut builder = JobSpec::fault_campaign(input, reference);
            if let Some(bytes) = doc.get("baseline") {
                let bytes = decode_bytes(bytes, "baseline")?;
                let baseline = Genotype::decode(&bytes)
                    .ok_or_else(|| err("'baseline' is too short to decode as a genotype"))?;
                builder = builder.baseline(baseline);
            }
            if let Some(arrays) = doc.get("arrays") {
                let arrays = arrays
                    .as_array()
                    .ok_or_else(|| err("'arrays' must be an array of indices"))?
                    .iter()
                    .map(|v| {
                        v.as_usize()
                            .ok_or_else(|| err("'arrays' entries must be non-negative integers"))
                    })
                    .collect::<Result<Vec<usize>, WireError>>()?;
                builder = builder.arrays(arrays);
            }
            if let Some(n) = field("num_arrays")? {
                builder = builder.platform_arrays(n);
            }
            if let Some(n) = field("recovery_generations")? {
                builder = builder.recovery_generations(n);
            }
            if let Some(n) = field("recovery_mutation_rate")? {
                builder = builder.recovery_mutation_rate(n);
            }
            if let Some(n) = field("recovery_offspring")? {
                builder = builder.recovery_offspring(n);
            }
            if let Some(n) = field("recovery_target")? {
                builder = builder.recovery_target(n as u64);
            }
            if let Some(value) = doc.get("scenario") {
                let name = value
                    .as_str()
                    .ok_or_else(|| err("'scenario' must be a registry name string"))?;
                let scenario = registry
                    .scenario(name)
                    .map_err(|spec_error| err(format!("invalid spec: {spec_error}")))?;
                builder = builder.scenario(scenario.clone());
            }
            if let Some(value) = doc.get("policy") {
                let name = value
                    .as_str()
                    .ok_or_else(|| err("'policy' must be a registry name string"))?;
                let policy = registry
                    .policy(name)
                    .map_err(|spec_error| err(format!("invalid spec: {spec_error}")))?;
                builder = builder.policy(policy.clone());
            }
            if let Some(s) = seed {
                builder = builder.seed(s);
            }
            builder.build()
        }
        "stream" => {
            let source = decode_stream_source(
                doc.get("source")
                    .ok_or_else(|| err("stream specs need a 'source'"))?,
            )?;
            let mut builder = JobSpec::stream(source);
            if let Some(bytes) = doc.get("initial") {
                let bytes = decode_bytes(bytes, "initial")?;
                let initial = Genotype::decode(&bytes)
                    .ok_or_else(|| err("'initial' is too short to decode as a genotype"))?;
                builder = builder.initial(initial);
            }
            let mut drift = ehw_service::DriftConfig::default();
            if let Some(n) = field("drift_window")? {
                drift.window = n;
            }
            if let Some(n) = field("drift_threshold_pct")? {
                drift.threshold_pct =
                    u32::try_from(n).map_err(|_| err("'drift_threshold_pct' is out of range"))?;
            }
            if let Some(n) = field("drift_cooldown")? {
                drift.cooldown = n;
            }
            builder = builder.drift(drift);
            let mut adaptation = ehw_service::AdaptationConfig::default();
            if let Some(n) = field("offspring")? {
                adaptation.offspring = n;
            }
            if let Some(n) = field("mutation_rate")? {
                adaptation.mutation_rate = n;
            }
            if let Some(n) = field("generations")? {
                adaptation.generations = n;
            }
            if let Some(n) = field("max_millis")? {
                adaptation.max_millis = Some(n as u64);
            }
            if let Some(n) = field("target_fitness")? {
                adaptation.target_fitness = Some(n as u64);
            }
            builder = builder.adaptation(adaptation);
            if let Some(warm) = doc.get("warm_start") {
                let warm = warm
                    .as_bool()
                    .ok_or_else(|| err("'warm_start' must be a boolean"))?;
                builder = builder.warm_start(warm);
            }
            if let Some(s) = seed {
                builder = builder.seed(s);
            }
            builder.build()
        }
        other => return Err(err(format!("unknown job kind '{other}'"))),
    }
    .map_err(|spec_error| err(format!("invalid spec: {spec_error}")))?;

    let mut options = JobOptions::default();
    if let Some(priority) = doc.get("priority") {
        options.priority = match priority.as_str() {
            Some("high") => Priority::High,
            Some("normal") => Priority::Normal,
            Some("low") => Priority::Low,
            _ => return Err(err("'priority' must be \"high\", \"normal\" or \"low\"")),
        };
    }
    if let Some(deadline) = doc.get("deadline_ms") {
        let ms = deadline
            .as_u64()
            .ok_or_else(|| err("'deadline_ms' must be a non-negative integer"))?;
        options.deadline = Some(std::time::Duration::from_millis(ms));
    }
    Ok((spec, options))
}

fn decode_image(value: &Value, name: &str) -> Result<GrayImage, WireError> {
    // Compact transport: a base64-encoded binary PGM (P5) body carries its
    // own dimensions and ships raw bytes instead of a JSON number per pixel.
    if let Some(encoded) = value.get("pgm_base64") {
        let encoded = encoded
            .as_str()
            .ok_or_else(|| err(format!("'{name}.pgm_base64' must be a string")))?;
        let bytes = base64::decode(encoded)
            .map_err(|reason| err(format!("'{name}.pgm_base64': {reason}")))?;
        return ehw_image::pgm::decode(&bytes)
            .map_err(|reason| err(format!("'{name}.pgm_base64' is not a valid PGM: {reason}")));
    }
    let width = value
        .get("width")
        .and_then(Value::as_usize)
        .ok_or_else(|| err(format!("'{name}' needs an integer 'width'")))?;
    let height = value
        .get("height")
        .and_then(Value::as_usize)
        .ok_or_else(|| err(format!("'{name}' needs an integer 'height'")))?;
    let pixels = decode_bytes(
        value
            .get("pixels")
            .ok_or_else(|| err(format!("'{name}' needs a 'pixels' array")))?,
        name,
    )?;
    if pixels.len() != width.saturating_mul(height) {
        return Err(err(format!(
            "'{name}' has {} pixels but {width}x{height} needs {}",
            pixels.len(),
            width.saturating_mul(height)
        )));
    }
    if width == 0 || height == 0 {
        return Err(err(format!("'{name}' must be at least 1x1")));
    }
    Ok(GrayImage::from_vec(width, height, pixels))
}

fn decode_bytes(value: &Value, name: &str) -> Result<Vec<u8>, WireError> {
    value
        .as_array()
        .ok_or_else(|| err(format!("'{name}' must be an array of bytes")))?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u8::try_from(n).ok())
                .ok_or_else(|| err(format!("'{name}' entries must be integers in 0..=255")))
        })
        .collect()
}

/// Decodes the `source` member of a stream spec.
///
/// ```json
/// {"type": "synthetic", "scene": "shapes", "complexity": 4,
///  "width": W, "height": H, "frames": N,
///  "schedule": [{"start_frame": 0, "noise": {"model": "salt_pepper", "density": 0.2}}, ...]}
/// {"type": "pgm_dir", "dir": "/frames", "reference": "/frames/clean.pgm"}
/// ```
///
/// The `pgm_dir` variant reads **server-side** paths and loads every frame
/// eagerly, so a missing or malformed file is a 400 at submission.
fn decode_stream_source(value: &Value) -> Result<StreamSourceSpec, WireError> {
    let dim = |name: &str| -> Result<usize, WireError> {
        value
            .get(name)
            .and_then(Value::as_usize)
            .ok_or_else(|| err(format!("synthetic sources need an integer '{name}'")))
    };
    match value.get("type").and_then(Value::as_str) {
        Some("synthetic") => {
            let scene = decode_scene(value)?;
            let schedule = value
                .get("schedule")
                .and_then(Value::as_array)
                .ok_or_else(|| err("synthetic sources need a 'schedule' array"))?
                .iter()
                .map(decode_noise_segment)
                .collect::<Result<Vec<_>, WireError>>()?;
            Ok(StreamSourceSpec::Synthetic {
                scene,
                width: dim("width")?,
                height: dim("height")?,
                frames: dim("frames")?,
                schedule,
            })
        }
        Some("pgm_dir") => {
            let path = |name: &str| -> Result<&str, WireError> {
                value
                    .get(name)
                    .and_then(Value::as_str)
                    .ok_or_else(|| err(format!("pgm_dir sources need a string '{name}'")))
            };
            let source = PgmDirSource::new(path("dir")?, path("reference")?)
                .map_err(|reason| err(format!("invalid pgm_dir source: {reason}")))?;
            Ok(StreamSourceSpec::PgmDir(source))
        }
        _ => Err(err("source 'type' must be \"synthetic\" or \"pgm_dir\"")),
    }
}

fn decode_scene(value: &Value) -> Result<SceneKind, WireError> {
    let param = |name: &str| -> Result<usize, WireError> {
        value
            .get(name)
            .and_then(Value::as_usize)
            .ok_or_else(|| err(format!("this scene needs an integer '{name}'")))
    };
    match value.get("scene").and_then(Value::as_str) {
        Some("shapes") => Ok(SceneKind::Shapes {
            complexity: param("complexity")?,
        }),
        Some("gradient") => Ok(SceneKind::Gradient),
        Some("diagonal_gradient") => Ok(SceneKind::DiagonalGradient),
        Some("checkerboard") => Ok(SceneKind::Checkerboard {
            cell: param("cell")?,
        }),
        Some("step_edge") => Ok(SceneKind::StepEdge),
        Some("rings") => Ok(SceneKind::Rings {
            period: param("period")?,
        }),
        _ => Err(err(
            "'scene' must be \"shapes\", \"gradient\", \"diagonal_gradient\", \
             \"checkerboard\", \"step_edge\" or \"rings\"",
        )),
    }
}

fn decode_noise_segment(value: &Value) -> Result<NoiseSegment, WireError> {
    let start_frame = value
        .get("start_frame")
        .and_then(Value::as_usize)
        .ok_or_else(|| err("schedule segments need an integer 'start_frame'"))?;
    let noise = value
        .get("noise")
        .ok_or_else(|| err("schedule segments need a 'noise' object"))?;
    let density = |name: &str| -> Result<f64, WireError> {
        noise
            .get(name)
            .and_then(Value::as_f64)
            .ok_or_else(|| err(format!("this noise model needs a number '{name}'")))
    };
    let count = |name: &str| -> Result<usize, WireError> {
        noise
            .get(name)
            .and_then(Value::as_usize)
            .ok_or_else(|| err(format!("this noise model needs an integer '{name}'")))
    };
    let noise = match noise.get("model").and_then(Value::as_str) {
        Some("salt_pepper") => NoiseModel::SaltPepper {
            density: density("density")?,
        },
        Some("gaussian") => NoiseModel::Gaussian {
            sigma: density("sigma")?,
        },
        Some("uniform_impulse") => NoiseModel::UniformImpulse {
            density: density("density")?,
        },
        Some("burst") => NoiseModel::Burst {
            bursts: count("bursts")?,
            size: count("size")?,
        },
        _ => {
            return Err(err("noise 'model' must be \"salt_pepper\", \"gaussian\", \
                 \"uniform_impulse\" or \"burst\""))
        }
    };
    Ok(NoiseSegment { start_frame, noise })
}

// ---------------------------------------------------------------------------
// Encoding: JobResult / JobProgress -> JSON
// ---------------------------------------------------------------------------

/// Encodes a settled result as the `result` member of a status document.
///
/// Genotypes travel as their compact [`Genotype::encode`] byte strings — the
/// same 13 bytes the MicroBlaze would hold — so clients can
/// [`Genotype::decode`] them and byte-compare against local runs.
pub fn encode_result(result: &JobResult) -> Value {
    let mut pairs = vec![
        ("job_id", u64v(result.job_id)),
        ("seed", u64v(result.seed)),
        ("evaluations", u64v(result.evaluations)),
        ("stats", encode_stats(&result.stats)),
        ("warm_started", Value::Bool(result.warm_started)),
        (
            "warm_start_key",
            match &result.warm_start_key {
                Some(key) => Value::object(champion_key_pairs(key)),
                None => Value::Null,
            },
        ),
    ];
    let output = match &result.output {
        JobOutput::Evolution { result, time } => Value::object(vec![
            ("type", strv("evolution")),
            ("best_genotype", bytesv(&result.best_genotype.encode())),
            ("best_fitness", u64v(result.best_fitness)),
            ("initial_fitness", u64v(result.initial_fitness)),
            (
                "history",
                Value::Array(result.history.iter().map(|&f| u64v(f)).collect()),
            ),
            ("generations_run", usizev(result.generations_run)),
            (
                "total_pe_reconfigurations",
                u64v(result.total_pe_reconfigurations),
            ),
            ("time", encode_time(time)),
        ]),
        JobOutput::Cascade(cascade) => Value::object(vec![
            ("type", strv("cascade")),
            (
                "stage_genotypes",
                Value::Array(
                    cascade
                        .stage_genotypes
                        .iter()
                        .map(|g| bytesv(&g.encode()))
                        .collect(),
                ),
            ),
            (
                "stage_fitness",
                Value::Array(cascade.stage_fitness.iter().map(|&f| u64v(f)).collect()),
            ),
        ]),
        JobOutput::FaultCampaign(report) => encode_campaign_report(report),
        JobOutput::Stream(report) => encode_stream_report(report),
        JobOutput::Failed(message) => Value::object(vec![
            ("type", strv("failed")),
            ("message", strv(message.as_str())),
        ]),
        JobOutput::Cancelled(kind) => Value::object(vec![
            ("type", strv("cancelled")),
            (
                "reason",
                strv(match kind {
                    CancelKind::Requested => "requested",
                    CancelKind::DeadlineExpired => "deadline_expired",
                }),
            ),
        ]),
    };
    pairs.push(("output", output));
    Value::object(pairs)
}

/// Encodes a stream report as the `output` member of a result document.
/// `output_hash` is a full-range u64, so like `image_hash` it travels as a
/// fixed-width hex string rather than a JSON number.
pub fn encode_stream_report(report: &StreamReport) -> Value {
    Value::object(vec![
        ("type", strv("stream")),
        ("frames", usizev(report.frames)),
        ("drift_events", usizev(report.drift_events)),
        (
            "adaptations_attempted",
            usizev(report.adaptations_attempted),
        ),
        ("adaptations_applied", usizev(report.adaptations_applied)),
        (
            "initial_fitness",
            match report.initial_fitness {
                Some(f) => u64v(f),
                None => Value::Null,
            },
        ),
        (
            "final_fitness",
            match report.final_fitness {
                Some(f) => u64v(f),
                None => Value::Null,
            },
        ),
        (
            "segments",
            Value::Array(
                report
                    .segments
                    .iter()
                    .map(|s| {
                        Value::object(vec![
                            ("start_frame", usizev(s.start_frame)),
                            ("frames", usizev(s.frames)),
                            ("fitness_sum", u64v(s.fitness_sum)),
                            ("mean_fitness", f64v(s.mean_fitness())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("final_genotype", bytesv(&report.final_genotype)),
        ("output_hash", strv(format!("{:016x}", report.output_hash))),
    ])
}

fn encode_time(time: &EvolutionTimeEstimate) -> Value {
    Value::object(vec![
        ("total_s", f64v(time.total_s)),
        ("reconfiguration_s", f64v(time.reconfiguration_s)),
        ("evaluation_s", f64v(time.evaluation_s)),
        ("generations", usizev(time.generations)),
        ("candidates", u64v(time.candidates)),
        ("pe_reconfigurations", u64v(time.pe_reconfigurations)),
    ])
}

// ---------------------------------------------------------------------------
// Campaign reports
// ---------------------------------------------------------------------------

fn encode_stats(stats: &EngineStats) -> Value {
    Value::object(vec![
        ("plans_evaluated", u64v(stats.plans_evaluated)),
        ("memo_hits", u64v(stats.memo_hits)),
        ("early_exits", u64v(stats.early_exits)),
    ])
}

fn decode_stats(value: &Value, name: &str) -> Result<EngineStats, WireError> {
    let counter = |field: &str| -> Result<u64, WireError> {
        value
            .get(field)
            .and_then(Value::as_u64)
            .ok_or_else(|| err(format!("'{name}' needs an integer '{field}'")))
    };
    Ok(EngineStats {
        plans_evaluated: counter("plans_evaluated")?,
        memo_hits: counter("memo_hits")?,
        early_exits: counter("early_exits")?,
    })
}

fn encode_planned_fault(fault: &PlannedFault) -> Value {
    let mut pairs = vec![
        ("row", usizev(fault.row)),
        ("col", usizev(fault.col)),
        (
            "kind",
            strv(match fault.kind {
                FaultKind::Seu => "seu",
                FaultKind::Lpd => "lpd",
            }),
        ),
    ];
    match fault.behaviour {
        FaultBehaviour::RandomOutput { seed } => {
            pairs.push(("behaviour", strv("random_output")));
            pairs.push(("behaviour_seed", u64v(seed)));
        }
        FaultBehaviour::StuckAt { value } => {
            pairs.push(("behaviour", strv("stuck_at")));
            pairs.push(("behaviour_value", u64v(u64::from(value))));
        }
        FaultBehaviour::InvertedOutput => pairs.push(("behaviour", strv("inverted_output"))),
    }
    Value::object(pairs)
}

fn decode_planned_fault(value: &Value) -> Result<PlannedFault, WireError> {
    let row = value
        .get("row")
        .and_then(Value::as_usize)
        .ok_or_else(|| err("fault needs an integer 'row'"))?;
    let col = value
        .get("col")
        .and_then(Value::as_usize)
        .ok_or_else(|| err("fault needs an integer 'col'"))?;
    let kind = match value.get("kind").and_then(Value::as_str) {
        Some("seu") => FaultKind::Seu,
        Some("lpd") => FaultKind::Lpd,
        _ => return Err(err("fault 'kind' must be \"seu\" or \"lpd\"")),
    };
    let behaviour = match value.get("behaviour").and_then(Value::as_str) {
        Some("random_output") => FaultBehaviour::RandomOutput {
            seed: value
                .get("behaviour_seed")
                .and_then(Value::as_u64)
                .ok_or_else(|| err("random_output faults need a 'behaviour_seed'"))?,
        },
        Some("stuck_at") => FaultBehaviour::StuckAt {
            value: value
                .get("behaviour_value")
                .and_then(Value::as_u64)
                .and_then(|n| u8::try_from(n).ok())
                .ok_or_else(|| err("stuck_at faults need a byte 'behaviour_value'"))?,
        },
        Some("inverted_output") => FaultBehaviour::InvertedOutput,
        _ => return Err(err("unknown fault 'behaviour'")),
    };
    Ok(PlannedFault {
        row,
        col,
        behaviour,
        kind,
    })
}

/// Encodes a campaign report as the `output` member of a result document:
/// the legacy `positions` view (single-PE sweeps), the generalised `events`
/// view (every other scenario kind), and the scenario/policy labels plus
/// aggregates a [`ResilienceReport`](ehw_platform::scenario::ResilienceReport)
/// row is built from.
pub fn encode_campaign_report(report: &CampaignReport) -> Value {
    Value::object(vec![
        ("type", strv("fault_campaign")),
        ("scenario", strv(report.scenario.as_str())),
        ("policy", strv(report.policy.as_str())),
        (
            "positions",
            Value::Array(
                report
                    .positions
                    .iter()
                    .map(|p| {
                        Value::object(vec![
                            ("array", usizev(p.array)),
                            ("row", usizev(p.row)),
                            ("col", usizev(p.col)),
                            ("fitness_clean", u64v(p.fitness_clean)),
                            ("fitness_faulty", u64v(p.fitness_faulty)),
                            ("fitness_recovered", u64v(p.fitness_recovered)),
                            ("evaluations", u64v(p.evaluations)),
                            ("stats", encode_stats(&p.stats)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "events",
            Value::Array(
                report
                    .events
                    .iter()
                    .map(|e| {
                        Value::object(vec![
                            ("tick", usizev(e.tick)),
                            ("array", usizev(e.array)),
                            (
                                "faults",
                                Value::Array(e.faults.iter().map(encode_planned_fault).collect()),
                            ),
                            ("fitness_clean", u64v(e.fitness_clean)),
                            ("fitness_faulty", u64v(e.fitness_faulty)),
                            ("fitness_recovered", u64v(e.fitness_recovered)),
                            ("evaluations", u64v(e.evaluations)),
                            ("stats", encode_stats(&e.stats)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("critical_positions", usizev(report.critical_positions())),
        (
            "fully_recovered_positions",
            usizev(report.fully_recovered_positions()),
        ),
        ("mean_recovery_ratio", f64v(report.mean_recovery_ratio())),
    ])
}

/// Decodes a `fault_campaign` output document back into a [`CampaignReport`]
/// — the client-side half of the codec, used to fold per-job HTTP results
/// into one [`ResilienceReport`](ehw_platform::scenario::ResilienceReport).
/// Lossless against [`encode_campaign_report`]: the round trip is
/// byte-identical (`PartialEq` on the report).
pub fn decode_campaign_report(value: &Value) -> Result<CampaignReport, WireError> {
    if value.get("type").and_then(Value::as_str) != Some("fault_campaign") {
        return Err(err("not a fault_campaign output"));
    }
    let label = |field: &str| -> Result<String, WireError> {
        value
            .get(field)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| err(format!("campaign output needs a string '{field}'")))
    };
    let positions = value
        .get("positions")
        .and_then(Value::as_array)
        .ok_or_else(|| err("campaign output needs a 'positions' array"))?
        .iter()
        .map(|p| {
            let number = |field: &str| -> Result<u64, WireError> {
                p.get(field)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| err(format!("position needs an integer '{field}'")))
            };
            Ok(PositionResult {
                array: number("array")? as usize,
                row: number("row")? as usize,
                col: number("col")? as usize,
                fitness_clean: number("fitness_clean")?,
                fitness_faulty: number("fitness_faulty")?,
                fitness_recovered: number("fitness_recovered")?,
                evaluations: number("evaluations")?,
                stats: decode_stats(
                    p.get("stats")
                        .ok_or_else(|| err("position needs 'stats'"))?,
                    "stats",
                )?,
            })
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    let events = value
        .get("events")
        .and_then(Value::as_array)
        .ok_or_else(|| err("campaign output needs an 'events' array"))?
        .iter()
        .map(|e| {
            let number = |field: &str| -> Result<u64, WireError> {
                e.get(field)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| err(format!("event needs an integer '{field}'")))
            };
            Ok(EventResult {
                tick: number("tick")? as usize,
                array: number("array")? as usize,
                faults: e
                    .get("faults")
                    .and_then(Value::as_array)
                    .ok_or_else(|| err("event needs a 'faults' array"))?
                    .iter()
                    .map(decode_planned_fault)
                    .collect::<Result<Vec<_>, WireError>>()?,
                fitness_clean: number("fitness_clean")?,
                fitness_faulty: number("fitness_faulty")?,
                fitness_recovered: number("fitness_recovered")?,
                evaluations: number("evaluations")?,
                stats: decode_stats(
                    e.get("stats").ok_or_else(|| err("event needs 'stats'"))?,
                    "stats",
                )?,
            })
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(CampaignReport {
        scenario: label("scenario")?,
        policy: label("policy")?,
        positions,
        events,
    })
}

// ---------------------------------------------------------------------------
// Scenario / policy registry
// ---------------------------------------------------------------------------

fn encode_filter(filter: &TargetFilter) -> Value {
    match filter {
        TargetFilter::All => Value::object(vec![("type", strv("all"))]),
        TargetFilter::Rows(rows) => Value::object(vec![
            ("type", strv("rows")),
            (
                "rows",
                Value::Array(rows.iter().map(|&r| usizev(r)).collect()),
            ),
        ]),
        TargetFilter::Cols(cols) => Value::object(vec![
            ("type", strv("cols")),
            (
                "cols",
                Value::Array(cols.iter().map(|&c| usizev(c)).collect()),
            ),
        ]),
        TargetFilter::Positions(positions) => Value::object(vec![
            ("type", strv("positions")),
            (
                "positions",
                Value::Array(
                    positions
                        .iter()
                        .map(|&(r, c)| Value::Array(vec![usizev(r), usizev(c)]))
                        .collect(),
                ),
            ),
        ]),
    }
}

fn decode_filter(value: &Value) -> Result<TargetFilter, WireError> {
    let indices = |field: &str| -> Result<Vec<usize>, WireError> {
        value
            .get(field)
            .and_then(Value::as_array)
            .ok_or_else(|| err(format!("filter needs a '{field}' array")))?
            .iter()
            .map(|v| {
                v.as_usize()
                    .ok_or_else(|| err(format!("'{field}' entries must be non-negative integers")))
            })
            .collect()
    };
    match value.get("type").and_then(Value::as_str) {
        Some("all") => Ok(TargetFilter::All),
        Some("rows") => Ok(TargetFilter::Rows(indices("rows")?)),
        Some("cols") => Ok(TargetFilter::Cols(indices("cols")?)),
        Some("positions") => Ok(TargetFilter::Positions(
            value
                .get("positions")
                .and_then(Value::as_array)
                .ok_or_else(|| err("filter needs a 'positions' array"))?
                .iter()
                .map(|pair| {
                    let pair = pair
                        .as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| err("'positions' entries must be [row, col] pairs"))?;
                    let row = pair[0]
                        .as_usize()
                        .ok_or_else(|| err("'positions' rows must be non-negative integers"))?;
                    let col = pair[1]
                        .as_usize()
                        .ok_or_else(|| err("'positions' cols must be non-negative integers"))?;
                    Ok((row, col))
                })
                .collect::<Result<Vec<_>, WireError>>()?,
        )),
        _ => Err(err(
            "filter 'type' must be \"all\", \"rows\", \"cols\" or \"positions\"",
        )),
    }
}

fn encode_scenario(scenario: &FaultScenario) -> Value {
    let mut pairs = vec![
        ("name", strv(scenario.name.as_str())),
        ("kind", strv(scenario.kind.tag())),
    ];
    match &scenario.kind {
        ScenarioKind::SingleSweep | ScenarioKind::PermanentLpd => {}
        ScenarioKind::MultiPe { k } => pairs.push(("k", usizev(*k))),
        ScenarioKind::Correlated { shape } => pairs.push(("shape", strv(shape.tag()))),
        ScenarioKind::Burst { rate, width } => {
            pairs.push(("rate", f64v(*rate)));
            pairs.push(("width", usizev(*width)));
        }
        ScenarioKind::RateSweep { rates } => pairs.push((
            "rates",
            Value::Array(rates.iter().map(|&r| f64v(r)).collect()),
        )),
        ScenarioKind::Storm { schedule } => pairs.push((
            "schedule",
            Value::Array(
                schedule
                    .iter()
                    .map(|phase| {
                        Value::object(vec![
                            ("ticks", usizev(phase.ticks)),
                            ("rate", f64v(phase.rate)),
                        ])
                    })
                    .collect(),
            ),
        )),
    }
    pairs.push(("filter", encode_filter(&scenario.filter)));
    pairs.push(("stream", u64v(scenario.stream)));
    Value::object(pairs)
}

fn decode_scenario(value: &Value) -> Result<FaultScenario, WireError> {
    let name = value
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| err("scenario needs a string 'name'"))?;
    let rate = |field: &str| -> Result<f64, WireError> {
        value
            .get(field)
            .and_then(Value::as_f64)
            .ok_or_else(|| err(format!("scenario '{name}' needs a number '{field}'")))
    };
    let kind = match value.get("kind").and_then(Value::as_str) {
        Some("single_sweep") => ScenarioKind::SingleSweep,
        Some("permanent_lpd") => ScenarioKind::PermanentLpd,
        Some("multi_pe") => ScenarioKind::MultiPe {
            k: value
                .get("k")
                .and_then(Value::as_usize)
                .ok_or_else(|| err(format!("scenario '{name}' needs an integer 'k'")))?,
        },
        Some("correlated") => ScenarioKind::Correlated {
            shape: match value.get("shape").and_then(Value::as_str) {
                Some("row") => CorrelationShape::Row,
                Some("col") => CorrelationShape::Col,
                Some("neighborhood") => CorrelationShape::Neighborhood,
                _ => {
                    return Err(err(format!(
                        "scenario '{name}' 'shape' must be \"row\", \"col\" or \"neighborhood\""
                    )))
                }
            },
        },
        Some("burst") => ScenarioKind::Burst {
            rate: rate("rate")?,
            width: value
                .get("width")
                .and_then(Value::as_usize)
                .ok_or_else(|| err(format!("scenario '{name}' needs an integer 'width'")))?,
        },
        Some("rate_sweep") => ScenarioKind::RateSweep {
            rates: value
                .get("rates")
                .and_then(Value::as_array)
                .ok_or_else(|| err(format!("scenario '{name}' needs a 'rates' array")))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| err(format!("scenario '{name}' rates must be numbers")))
                })
                .collect::<Result<Vec<_>, WireError>>()?,
        },
        Some("storm") => ScenarioKind::Storm {
            schedule: value
                .get("schedule")
                .and_then(Value::as_array)
                .ok_or_else(|| err(format!("scenario '{name}' needs a 'schedule' array")))?
                .iter()
                .map(|phase| {
                    Ok(StormPhase {
                        ticks: phase
                            .get("ticks")
                            .and_then(Value::as_usize)
                            .ok_or_else(|| err("storm phases need an integer 'ticks'"))?,
                        rate: phase
                            .get("rate")
                            .and_then(Value::as_f64)
                            .ok_or_else(|| err("storm phases need a number 'rate'"))?,
                    })
                })
                .collect::<Result<Vec<_>, WireError>>()?,
        },
        _ => return Err(err(format!("scenario '{name}' has an unknown 'kind'"))),
    };
    let mut scenario = FaultScenario::new(name, kind);
    if let Some(filter) = value.get("filter") {
        scenario = scenario.with_filter(decode_filter(filter)?);
    }
    if let Some(stream) = value.get("stream") {
        scenario = scenario.with_stream(
            stream
                .as_u64()
                .ok_or_else(|| err(format!("scenario '{name}' 'stream' must be an integer")))?,
        );
    }
    scenario
        .validate()
        .map_err(|reason| err(format!("scenario '{name}': {reason}")))?;
    Ok(scenario)
}

fn encode_policy(name: &str, policy: &RecoveryPolicy) -> Value {
    Value::object(vec![
        ("name", strv(name)),
        ("label", strv(policy.describe())),
        (
            "steps",
            Value::Array(
                policy
                    .steps
                    .iter()
                    .map(|step| match step {
                        RecoveryStep::Scrub { attempts } => Value::object(vec![
                            ("step", strv("scrub")),
                            ("attempts", usizev(*attempts)),
                        ]),
                        RecoveryStep::TmrRemap => Value::object(vec![("step", strv("tmr_remap"))]),
                        RecoveryStep::Reevolve {
                            generations,
                            max_millis,
                        } => Value::object(vec![
                            ("step", strv("reevolve")),
                            (
                                "generations",
                                match generations {
                                    Some(g) => usizev(*g),
                                    None => Value::Null,
                                },
                            ),
                            (
                                "max_millis",
                                match max_millis {
                                    Some(ms) => u64v(*ms),
                                    None => Value::Null,
                                },
                            ),
                        ]),
                    })
                    .collect(),
            ),
        ),
        (
            "stop_margin",
            match policy.stop_margin {
                Some(margin) => u64v(margin),
                None => Value::Null,
            },
        ),
    ])
}

fn decode_policy(value: &Value) -> Result<(String, RecoveryPolicy), WireError> {
    let name = value
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| err("policy needs a string 'name'"))?;
    let steps = value
        .get("steps")
        .and_then(Value::as_array)
        .ok_or_else(|| err(format!("policy '{name}' needs a 'steps' array")))?
        .iter()
        .map(|step| match step.get("step").and_then(Value::as_str) {
            Some("scrub") => Ok(RecoveryStep::Scrub {
                attempts: step.get("attempts").and_then(Value::as_usize).unwrap_or(1),
            }),
            Some("tmr_remap") => Ok(RecoveryStep::TmrRemap),
            Some("reevolve") => Ok(RecoveryStep::Reevolve {
                generations: match step.get("generations") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(v.as_usize().ok_or_else(|| {
                        err(format!(
                            "policy '{name}' reevolve 'generations' must be an integer or null"
                        ))
                    })?),
                },
                max_millis: match step.get("max_millis") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(v.as_u64().ok_or_else(|| {
                        err(format!(
                            "policy '{name}' reevolve 'max_millis' must be an integer or null"
                        ))
                    })?),
                },
            }),
            _ => Err(err(format!(
                "policy '{name}' steps must be \"scrub\", \"tmr_remap\" or \"reevolve\""
            ))),
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    let stop_margin = match value.get("stop_margin") {
        None | Some(Value::Null) => None,
        Some(v) => Some(v.as_u64().ok_or_else(|| {
            err(format!(
                "policy '{name}' 'stop_margin' must be an integer or null"
            ))
        })?),
    };
    let policy = RecoveryPolicy { steps, stop_margin };
    policy
        .validate()
        .map_err(|reason| err(format!("policy '{name}': {reason}")))?;
    Ok((name.to_string(), policy))
}

/// Encodes the full registry as the `GET /registry` document:
/// `{"scenarios": [...], "policies": [...]}`, each entry carrying its
/// name plus enough structure for a client to reproduce the schedule
/// locally.
pub fn encode_registry(registry: &ScenarioRegistry) -> Value {
    Value::object(vec![
        (
            "scenarios",
            Value::Array(registry.scenarios().iter().map(encode_scenario).collect()),
        ),
        (
            "policies",
            Value::Array(
                registry
                    .policies()
                    .iter()
                    .map(|(name, policy)| encode_policy(name, policy))
                    .collect(),
            ),
        ),
    ])
}

/// Parses a registry document (same shape [`encode_registry`] emits) as an
/// overlay on the built-in entries: named scenarios/policies are added, or
/// replace builtins of the same name.  Every entry is validated — a
/// malformed scenario or ladder rejects the whole document, so a server
/// never starts with a half-usable registry.
pub fn parse_registry(doc: &Value) -> Result<ScenarioRegistry, WireError> {
    let mut registry = ScenarioRegistry::builtin();
    if let Some(scenarios) = doc.get("scenarios") {
        for value in scenarios
            .as_array()
            .ok_or_else(|| err("'scenarios' must be an array"))?
        {
            registry.insert_scenario(decode_scenario(value)?);
        }
    }
    if let Some(policies) = doc.get("policies") {
        for value in policies
            .as_array()
            .ok_or_else(|| err("'policies' must be an array"))?
        {
            let (name, policy) = decode_policy(value)?;
            registry.insert_policy(name, policy);
        }
    }
    Ok(registry)
}

// ---------------------------------------------------------------------------
// Champion persistence: the `--champions=FILE` document
// ---------------------------------------------------------------------------

/// File-format version of the champions document; bumped on incompatible
/// shape changes so an old server refuses a new file instead of misreading
/// it.
pub const CHAMPIONS_VERSION: u64 = 1;

/// Encodes an exported champion snapshot as the `--champions=FILE` document:
///
/// ```json
/// {"version": 1,
///  "champions": [{"image_hash": "00cafe..15 more hex", "noise_class": 1,
///                 "arrays": 1, "genotype": [..bytes..], "fitness": 1234}]}
/// ```
///
/// Entries are in deposit order (see `ChampionLibrary::snapshot`), and
/// `image_hash` travels as a fixed-width hex string because it is a
/// full-range u64 (same reasoning as the result envelope's `image_hash`).
pub fn encode_champions(entries: &[(ChampionKey, Champion)]) -> Value {
    Value::object(vec![
        ("version", u64v(CHAMPIONS_VERSION)),
        (
            "champions",
            Value::Array(
                entries
                    .iter()
                    .map(|(key, champion)| {
                        let mut pairs = champion_key_pairs(key);
                        pairs.push(("genotype", bytesv(&champion.genotype)));
                        pairs.push(("fitness", u64v(champion.fitness)));
                        Value::object(pairs)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The members that identify a champion's workload, shared by a result's
/// `warm_start_key` and every entry of the champions document.
/// `image_hash` is a full-range u64: as a raw JSON number it would be
/// rounded above 2^53 by double-based parsers (JS et al.), so it travels as
/// a fixed-width hex string instead.
fn champion_key_pairs(key: &ChampionKey) -> Vec<(&'static str, Value)> {
    vec![
        ("image_hash", strv(format!("{:016x}", key.image_hash))),
        ("noise_class", u64v(u64::from(key.noise_class))),
        ("arrays", usizev(key.arrays)),
    ]
}

/// Parses a champions document (same shape [`encode_champions`] emits) back
/// into deposit-ordered entries.  Every entry is validated — one malformed
/// champion rejects the whole document, so a server never starts with a
/// half-restored library.
pub fn parse_champions(doc: &Value) -> Result<Vec<(ChampionKey, Champion)>, WireError> {
    let version = doc
        .get("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| err("champions file needs an integer 'version'"))?;
    if version != CHAMPIONS_VERSION {
        return Err(err(format!(
            "champions file version {version} is not the supported version {CHAMPIONS_VERSION}"
        )));
    }
    doc.get("champions")
        .and_then(Value::as_array)
        .ok_or_else(|| err("champions file needs a 'champions' array"))?
        .iter()
        .enumerate()
        .map(|(index, entry)| {
            let fail = |what: &str| err(format!("champion #{index}: {what}"));
            let image_hash = entry
                .get("image_hash")
                .and_then(Value::as_str)
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .ok_or_else(|| fail("'image_hash' must be a u64 hex string"))?;
            let noise_class = entry
                .get("noise_class")
                .and_then(Value::as_u64)
                .and_then(|n| u8::try_from(n).ok())
                .ok_or_else(|| fail("'noise_class' must be an integer in 0..=255"))?;
            let arrays = entry
                .get("arrays")
                .and_then(Value::as_usize)
                .filter(|&n| n > 0)
                .ok_or_else(|| fail("'arrays' must be a positive integer"))?;
            let genotype = decode_bytes(
                entry
                    .get("genotype")
                    .ok_or_else(|| fail("missing 'genotype'"))?,
                "genotype",
            )
            .map_err(|e| fail(&e.0))?;
            if genotype.is_empty() {
                return Err(fail("'genotype' must not be empty"));
            }
            let fitness = entry
                .get("fitness")
                .and_then(Value::as_u64)
                .ok_or_else(|| fail("'fitness' must be an integer"))?;
            Ok((
                ChampionKey {
                    image_hash,
                    noise_class,
                    arrays,
                },
                Champion { genotype, fitness },
            ))
        })
        .collect()
}

/// Encodes one progress event as a single NDJSON line (no trailing newline).
/// Stream jobs additionally carry a `stream` member tagging the phase
/// (`frame`, `drift` or `adaptation`) with its per-phase fields.
pub fn encode_event(sequence: usize, event: &JobProgress) -> Value {
    let mut pairs = vec![
        ("sequence", usizev(sequence)),
        ("generation", usizev(event.generation)),
        (
            "best_fitness",
            match event.best_fitness {
                Some(f) => u64v(f),
                None => Value::Null,
            },
        ),
    ];
    if let Some(stream) = &event.stream {
        pairs.push(("stream", encode_stream_event(stream)));
    }
    Value::object(pairs)
}

fn encode_stream_event(event: &StreamEvent) -> Value {
    match *event {
        StreamEvent::Frame { index, fitness } => Value::object(vec![
            ("phase", strv("frame")),
            ("frame", usizev(index)),
            ("fitness", u64v(fitness)),
        ]),
        StreamEvent::Drift {
            frame,
            window_fitness,
            baseline_fitness,
        } => Value::object(vec![
            ("phase", strv("drift")),
            ("frame", usizev(frame)),
            ("window_fitness", u64v(window_fitness)),
            ("baseline_fitness", u64v(baseline_fitness)),
        ]),
        StreamEvent::Adaptation {
            frame,
            index,
            accepted,
            incumbent_fitness,
            candidate_fitness,
            generations_run,
        } => Value::object(vec![
            ("phase", strv("adaptation")),
            ("frame", usizev(frame)),
            ("adaptation", usizev(index)),
            ("accepted", Value::Bool(accepted)),
            ("incumbent_fitness", u64v(incumbent_fitness)),
            ("candidate_fitness", u64v(candidate_fitness)),
            ("generations_run", usizev(generations_run)),
        ]),
    }
}

/// Encodes an error payload (`{"error": ...}`).
pub fn encode_error(message: impl Into<String>) -> Value {
    Value::object(vec![("error", strv(message))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn image_doc(width: usize, height: usize) -> String {
        let pixels: Vec<String> = (0..width * height)
            .map(|i| ((i * 37) % 256).to_string())
            .collect();
        format!(
            "{{\"width\":{width},\"height\":{height},\"pixels\":[{}]}}",
            pixels.join(",")
        )
    }

    #[test]
    fn evolution_specs_decode_through_the_builder() {
        let doc = parse(&format!(
            "{{\"kind\":\"evolution\",\"input\":{img},\"reference\":{img},\
             \"generations\":7,\"offspring\":5,\"mutation_rate\":2,\"seed\":42,\
             \"priority\":\"high\",\"deadline_ms\":1500}}",
            img = image_doc(8, 8)
        ))
        .unwrap();
        let (spec, options) = decode_spec(&doc).unwrap();
        assert_eq!(spec.kind(), "evolution");
        assert_eq!(spec.seed(), Some(42));
        assert_eq!(options.priority, Priority::High);
        assert_eq!(
            options.deadline,
            Some(std::time::Duration::from_millis(1500))
        );
    }

    #[test]
    fn builder_validation_errors_surface_as_wire_errors() {
        let doc = parse(&format!(
            "{{\"kind\":\"evolution\",\"input\":{img},\"reference\":{img},\"offspring\":0}}",
            img = image_doc(4, 4)
        ))
        .unwrap();
        let error = decode_spec(&doc).unwrap_err();
        assert!(error.0.contains("invalid spec"), "{error}");
    }

    #[test]
    fn image_shape_mismatches_are_rejected() {
        let doc = parse(
            "{\"kind\":\"evolution\",\
             \"input\":{\"width\":3,\"height\":3,\"pixels\":[1,2,3]},\
             \"reference\":{\"width\":3,\"height\":3,\"pixels\":[1,2,3]}}",
        )
        .unwrap();
        let error = decode_spec(&doc).unwrap_err();
        assert!(error.0.contains("pixels"), "{error}");
    }

    #[test]
    fn unknown_kinds_are_rejected() {
        let doc = parse(&format!(
            "{{\"kind\":\"teleport\",\"input\":{img},\"reference\":{img}}}",
            img = image_doc(4, 4)
        ))
        .unwrap();
        assert!(decode_spec(&doc)
            .unwrap_err()
            .0
            .contains("unknown job kind"));
    }

    #[test]
    fn genotypes_in_results_round_trip_through_their_byte_encoding() {
        use ehw_platform::jobs::execute;
        use ehw_platform::EhwPlatform;

        let input = GrayImage::from_vec(8, 8, (0..64).map(|i| (i * 3) as u8).collect());
        let reference = GrayImage::from_vec(8, 8, (0..64).map(|i| (i * 5) as u8).collect());
        let spec = JobSpec::evolution(input, reference)
            .generations(3)
            .seed(7)
            .build()
            .unwrap();
        let mut platform = EhwPlatform::new(spec.arrays_needed());
        let result = execute(&mut platform, &spec, 7);
        let encoded = encode_result(&result);
        let bytes = decode_bytes(
            encoded.get("output").unwrap().get("best_genotype").unwrap(),
            "best_genotype",
        )
        .unwrap();
        let decoded = Genotype::decode(&bytes).unwrap();
        assert_eq!(&decoded, result.best_genotype().unwrap());
    }

    fn test_image(width: usize, height: usize) -> GrayImage {
        GrayImage::from_vec(
            width,
            height,
            (0..width * height)
                .map(|i| ((i * 37) % 256) as u8)
                .collect(),
        )
    }

    #[test]
    fn base64_pgm_bodies_decode_to_the_same_image_as_pixel_arrays() {
        let image = test_image(8, 8);
        let pgm = crate::base64::encode(&ehw_image::pgm::encode_p5(&image));
        let doc = parse(&format!(
            "{{\"kind\":\"evolution\",\
             \"input\":{{\"pgm_base64\":\"{pgm}\"}},\
             \"reference\":{{\"pgm_base64\":\"{pgm}\"}},\
             \"generations\":2,\"seed\":9}}"
        ))
        .unwrap();
        let (spec, _) = decode_spec(&doc).unwrap();
        assert_eq!(spec.kind(), "evolution");

        // The compact body is the point: for this image the base64 PGM is
        // roughly 3x smaller than the JSON pixel-array encoding.
        let json_pixels = image_doc(8, 8).len();
        let base64_body = format!("{{\"pgm_base64\":\"{pgm}\"}}").len();
        assert!(
            json_pixels as f64 / base64_body as f64 > 2.0,
            "expected a compact transport: {json_pixels} vs {base64_body}"
        );
    }

    #[test]
    fn malformed_base64_images_are_rejected_with_the_field_name() {
        let doc = parse(
            "{\"kind\":\"evolution\",\
             \"input\":{\"pgm_base64\":\"!!!\"},\
             \"reference\":{\"pgm_base64\":\"!!!\"}}",
        )
        .unwrap();
        let error = decode_spec(&doc).unwrap_err();
        assert!(error.0.contains("input.pgm_base64"), "{error}");
    }

    #[test]
    fn campaign_reports_round_trip_through_the_wire_codec() {
        use ehw_evolution::fitness::EngineStats;
        use ehw_platform::fault_campaign::{EventResult, PositionResult};

        let report = CampaignReport {
            scenario: "burst".to_string(),
            policy: "scrub+reevolve@0".to_string(),
            positions: vec![PositionResult {
                array: 0,
                row: 1,
                col: 2,
                fitness_clean: 10,
                fitness_faulty: 90,
                fitness_recovered: 12,
                evaluations: 7,
                stats: EngineStats {
                    plans_evaluated: 5,
                    memo_hits: 1,
                    early_exits: 2,
                },
            }],
            events: vec![EventResult {
                tick: 3,
                array: 1,
                faults: vec![
                    PlannedFault {
                        row: 0,
                        col: 3,
                        behaviour: FaultBehaviour::RandomOutput { seed: 77 },
                        kind: FaultKind::Seu,
                    },
                    PlannedFault {
                        row: 2,
                        col: 1,
                        behaviour: FaultBehaviour::StuckAt { value: 0 },
                        kind: FaultKind::Lpd,
                    },
                    PlannedFault {
                        row: 3,
                        col: 3,
                        behaviour: FaultBehaviour::InvertedOutput,
                        kind: FaultKind::Seu,
                    },
                ],
                fitness_clean: 4,
                fitness_faulty: 40,
                fitness_recovered: 4,
                evaluations: 3,
                stats: EngineStats::default(),
            }],
        };
        let decoded = decode_campaign_report(&encode_campaign_report(&report)).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn the_builtin_registry_round_trips_through_its_json_document() {
        let registry = ScenarioRegistry::builtin();
        let doc = encode_registry(&registry);
        let parsed = parse_registry(&parse(&doc.to_json()).unwrap()).unwrap();
        assert_eq!(
            parsed
                .scenarios()
                .iter()
                .map(|s| &s.name)
                .collect::<Vec<_>>(),
            registry
                .scenarios()
                .iter()
                .map(|s| &s.name)
                .collect::<Vec<_>>()
        );
        for (name, policy) in registry.policies() {
            assert_eq!(parsed.policy(name).unwrap(), policy);
        }
        for scenario in registry.scenarios() {
            assert_eq!(parsed.scenario(&scenario.name).unwrap(), scenario);
        }
    }

    #[test]
    fn campaign_specs_resolve_scenario_and_policy_names_from_the_registry() {
        let doc = parse(&format!(
            "{{\"kind\":\"fault_campaign\",\"input\":{img},\"reference\":{img},\
             \"scenario\":\"burst\",\"policy\":\"scrub_then_reevolve\",\
             \"recovery_generations\":2,\"seed\":11}}",
            img = image_doc(8, 8)
        ))
        .unwrap();
        let (spec, _) = decode_spec_with(&doc, &ScenarioRegistry::builtin()).unwrap();
        let JobSpec::FaultCampaign(campaign) = &spec else {
            panic!("expected a fault campaign spec");
        };
        assert_eq!(campaign.scenario().name, "burst");
        assert_eq!(campaign.policy().describe(), "scrub+reevolve@0");
    }

    #[test]
    fn unknown_scenario_and_policy_names_are_structured_errors() {
        for (field, needle) in [
            ("\"scenario\":\"meteor\"", "unknown fault scenario 'meteor'"),
            ("\"policy\":\"prayer\"", "unknown recovery policy 'prayer'"),
        ] {
            let doc = parse(&format!(
                "{{\"kind\":\"fault_campaign\",\"input\":{img},\"reference\":{img},{field}}}",
                img = image_doc(8, 8)
            ))
            .unwrap();
            let error = decode_spec(&doc).unwrap_err();
            assert!(error.0.contains(needle), "{error}");
            assert!(error.0.contains("/registry"), "{error}");
        }
    }

    #[test]
    fn registry_files_overlay_the_builtins_and_reject_malformed_entries() {
        let doc = parse(
            "{\"scenarios\":[{\"name\":\"row_zero\",\"kind\":\"correlated\",\
              \"shape\":\"row\",\"filter\":{\"type\":\"rows\",\"rows\":[0]},\"stream\":3}],\
             \"policies\":[{\"name\":\"gentle\",\"steps\":[{\"step\":\"scrub\",\"attempts\":2},\
              {\"step\":\"reevolve\",\"generations\":4}],\"stop_margin\":1}]}",
        )
        .unwrap();
        let registry = parse_registry(&doc).unwrap();
        // Builtins survive the overlay...
        assert!(registry.scenario("single_sweep").is_ok());
        assert!(registry.policy("full_ladder").is_ok());
        // ...and the file's entries resolve.
        let scenario = registry.scenario("row_zero").unwrap();
        assert_eq!(scenario.stream, 3);
        assert_eq!(
            registry.policy("gentle").unwrap().describe(),
            "scrub(2)+reevolve(4)@1"
        );

        // A malformed ladder rejects the whole document.
        let bad = parse(
            "{\"policies\":[{\"name\":\"broken\",\"steps\":[{\"step\":\"scrub\",\"attempts\":0}]}]}",
        )
        .unwrap();
        let error = parse_registry(&bad).unwrap_err();
        assert!(error.0.contains("broken"), "{error}");

        // So does a geometrically impossible scenario.
        let bad =
            parse("{\"scenarios\":[{\"name\":\"huge\",\"kind\":\"multi_pe\",\"k\":0}]}").unwrap();
        let error = parse_registry(&bad).unwrap_err();
        assert!(error.0.contains("huge"), "{error}");
    }

    #[test]
    fn champions_round_trip_through_their_file_document() {
        let entries = vec![
            (
                ChampionKey {
                    image_hash: u64::MAX - 3, // full-range: must survive the hex hop
                    noise_class: 1,
                    arrays: 2,
                },
                Champion {
                    genotype: vec![1, 2, 3],
                    fitness: 42,
                },
            ),
            (
                ChampionKey {
                    image_hash: 7,
                    noise_class: 0,
                    arrays: 1,
                },
                Champion {
                    genotype: vec![9],
                    fitness: 0,
                },
            ),
        ];
        let doc = encode_champions(&entries);
        let reparsed = parse_champions(&parse(&doc.to_json()).unwrap()).unwrap();
        assert_eq!(reparsed, entries);

        // A wrong version or one malformed entry rejects the whole file.
        let bad = parse("{\"version\":2,\"champions\":[]}").unwrap();
        assert!(parse_champions(&bad).unwrap_err().0.contains("version"));
        let bad = parse(
            "{\"version\":1,\"champions\":[{\"image_hash\":\"zz\",\
             \"noise_class\":1,\"arrays\":1,\"genotype\":[1],\"fitness\":1}]}",
        )
        .unwrap();
        assert!(parse_champions(&bad).unwrap_err().0.contains("champion #0"));
    }

    fn stream_doc() -> String {
        "{\"kind\":\"stream\",\
         \"source\":{\"type\":\"synthetic\",\"scene\":\"shapes\",\"complexity\":4,\
           \"width\":16,\"height\":16,\"frames\":10,\
           \"schedule\":[\
             {\"start_frame\":0,\"noise\":{\"model\":\"salt_pepper\",\"density\":0.1}},\
             {\"start_frame\":6,\"noise\":{\"model\":\"gaussian\",\"sigma\":25.0}}]},\
         \"drift_window\":3,\"drift_threshold_pct\":140,\"drift_cooldown\":4,\
         \"offspring\":5,\"generations\":8,\"max_millis\":2000,\
         \"warm_start\":true,\"seed\":42}"
            .to_string()
    }

    #[test]
    fn stream_specs_decode_through_the_builder() {
        let doc = parse(&stream_doc()).unwrap();
        let (spec, _) = decode_spec(&doc).unwrap();
        assert_eq!(spec.kind(), "stream");
        assert_eq!(spec.seed(), Some(42));
        let JobSpec::Stream(stream) = &spec else {
            panic!("expected a stream spec");
        };
        assert_eq!(stream.drift().window, 3);
        assert_eq!(stream.drift().threshold_pct, 140);
        assert_eq!(stream.drift().cooldown, 4);
        assert_eq!(stream.adaptation().offspring, 5);
        assert_eq!(stream.adaptation().generations, 8);
        assert_eq!(stream.adaptation().max_millis, Some(2000));
        assert!(stream.warm_start());
    }

    #[test]
    fn malformed_stream_sources_are_rejected_with_context() {
        for (patch, needle) in [
            (
                "\"source\":{\"type\":\"synthetic\",\"scene\":\"shapes\",\"complexity\":4,\
                 \"width\":16,\"height\":16,\"frames\":10,\"schedule\":[]}",
                "schedule",
            ),
            (
                "\"source\":{\"type\":\"synthetic\",\"scene\":\"moire\",\
                 \"width\":16,\"height\":16,\"frames\":10,\
                 \"schedule\":[{\"start_frame\":0,\
                   \"noise\":{\"model\":\"salt_pepper\",\"density\":0.1}}]}",
                "scene",
            ),
            (
                "\"source\":{\"type\":\"webcam\"}",
                "must be \"synthetic\" or \"pgm_dir\"",
            ),
        ] {
            let doc = parse(&format!("{{\"kind\":\"stream\",{patch},\"seed\":1}}")).unwrap();
            let error = decode_spec(&doc).unwrap_err();
            assert!(error.0.contains(needle), "{patch} -> {error}");
        }
    }

    #[test]
    fn stream_results_and_events_carry_their_stream_members() {
        use ehw_platform::jobs::execute;
        use ehw_platform::EhwPlatform;

        let doc = parse(&stream_doc()).unwrap();
        let (spec, _) = decode_spec(&doc).unwrap();
        let mut platform = EhwPlatform::new(spec.arrays_needed());
        let result = execute(&mut platform, &spec, 42);
        let report = result.as_stream().expect("stream output").clone();

        let encoded = encode_result(&result);
        let output = encoded.get("output").unwrap();
        assert_eq!(output.get("type").and_then(Value::as_str), Some("stream"));
        assert_eq!(
            output.get("frames").and_then(Value::as_u64),
            Some(report.frames as u64)
        );
        assert_eq!(
            output.get("drift_events").and_then(Value::as_u64),
            Some(report.drift_events as u64)
        );
        assert_eq!(
            output.get("final_fitness").and_then(Value::as_u64),
            report.final_fitness
        );
        let segments = output.get("segments").and_then(Value::as_array).unwrap();
        assert_eq!(segments.len(), report.segments.len());
        let hash = output.get("output_hash").and_then(Value::as_str).unwrap();
        assert_eq!(hash, format!("{:016x}", report.output_hash));

        let frame = StreamEvent::Frame {
            index: 4,
            fitness: 123,
        };
        let event = JobProgress {
            generation: 4,
            best_fitness: Some(123),
            stream: Some(frame),
        };
        let line = encode_event(4, &event);
        let member = line.get("stream").expect("stream member");
        assert_eq!(member.get("phase").and_then(Value::as_str), Some("frame"));
        assert_eq!(member.get("frame").and_then(Value::as_u64), Some(4));
        assert_eq!(member.get("fitness").and_then(Value::as_u64), Some(123));
    }
}
