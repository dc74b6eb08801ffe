//! Output checks, run after the timed region.
//!
//! * A job that did not warm-start must match `jobs::execute` on a fresh
//!   platform with the same (spec, seed), byte for byte in its wire encoding.
//! * A warm-started job must be `done`, have run every generation
//!   (`evaluations = 1 + λ·generations`) and not end worse than it started.
//! * A stream job's NDJSON feed must carry one frame event per frame.
//! * The service's own completed/failed/cancelled/lost deltas must equal
//!   what the client saw.
//!
//! Each failure names its job; any failure fails the run.

use std::collections::BTreeSet;
use std::sync::Arc;

use ehw_parallel::ParallelConfig;
use ehw_platform::jobs::{self, JobControl, JobResult};
use ehw_platform::{CrossJobCache, CrossJobCacheConfig, EhwPlatform};
use ehw_server::json::Value;
use ehw_server::wire;

use crate::inputs::{Kind, OFFSPRING};
use crate::workloads::{Ctx, Outcome, Run};

/// Threads re-running jobs for the comparison.
const CHECK_THREADS: usize = 2;

/// Runs a job in-process on a fresh platform.  A job that asked for a warm
/// start gets an empty cross-job cache: the warm start then misses, as it
/// did for a served job whose result reads `warm_started: false`, and the
/// result still records the key it consulted.
pub fn execute_fresh(ctx: &Ctx, index: usize, seed: u64, job_id: u64) -> JobResult {
    let job = ctx.job(index);
    let spec = job.spec();
    let mut platform = EhwPlatform::with_parallel(spec.arrays_needed(), ParallelConfig::serial());
    let mut result = if job.warm {
        let cache = Arc::new(CrossJobCache::new(CrossJobCacheConfig::default()));
        jobs::execute_controlled_cached(
            &mut platform,
            &spec,
            seed,
            &JobControl::new(),
            &mut |_| {},
            Some(&cache),
        )
    } else {
        jobs::execute(&mut platform, &spec, seed)
    };
    result.job_id = job_id;
    result
}

/// A result document with its `job_id` cleared: two runs number the same
/// job differently.
pub fn without_job_id(result: &Value) -> String {
    match result {
        Value::Object(pairs) => Value::Object(
            pairs
                .iter()
                .map(|(k, v)| {
                    let v = if k == "job_id" {
                        Value::Null
                    } else {
                        v.clone()
                    };
                    (k.clone(), v)
                })
                .collect(),
        )
        .to_json(),
        other => other.to_json(),
    }
}

/// Every check of one run; returns the indices of failed jobs with a
/// reason each, plus run-level failures under `usize::MAX`.
pub fn check_run(ctx: &Ctx, run: &Run) -> Vec<(usize, String)> {
    let mut failures = Vec::new();
    let mut replay = Vec::new();
    for outcome in &run.outcomes {
        if outcome.status != "done" {
            failures.push((outcome.index, format!("settled as {}", outcome.status)));
            continue;
        }
        let job = ctx.job(outcome.index);
        if job.kind == Kind::Stream {
            let frames = outcome.output_u64("frames").unwrap_or(0);
            if outcome.events.frame_lines != frames {
                failures.push((
                    outcome.index,
                    format!(
                        "event stream carried {} frame events for {frames} frames",
                        outcome.events.frame_lines
                    ),
                ));
            }
        }
        if outcome.warm_started() {
            if let Some(reason) = warm_start_violation(outcome, job.generations) {
                failures.push((outcome.index, reason));
            }
        } else {
            replay.push(outcome);
        }
    }
    failures.extend(replay_mismatches(ctx, &replay));

    let done = run.outcomes.iter().filter(|o| o.status == "done").count() as u64;
    let seen = |status: &str| run.outcomes.iter().filter(|o| o.status == status).count() as u64;
    let c = &run.counters;
    for (name, service, client) in [
        ("completed", c.completed, done),
        ("failed", c.failed, seen("failed")),
        ("cancelled", c.cancelled, seen("cancelled")),
        ("lost", c.lost, seen("lost")),
    ] {
        if service != client {
            failures.push((
                usize::MAX,
                format!("service counted {service} {name} jobs, the client saw {client}"),
            ));
        }
    }
    failures
}

fn warm_start_violation(outcome: &Outcome, generations: u64) -> Option<String> {
    let expected = 1 + OFFSPRING * generations;
    if outcome.evaluations() != expected {
        return Some(format!(
            "warm start ran {} evaluations, expected {expected}",
            outcome.evaluations()
        ));
    }
    let best = outcome.output_u64("best_fitness")?;
    let initial = outcome.output_u64("initial_fitness")?;
    (best > initial).then(|| format!("warm start ended at {best}, worse than its start {initial}"))
}

/// Re-runs each outcome in-process and compares the wire encodings.
fn replay_mismatches(ctx: &Ctx, outcomes: &[&Outcome]) -> Vec<(usize, String)> {
    let chunk = outcomes.len().div_ceil(CHECK_THREADS).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = outcomes
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .filter_map(|outcome| {
                            let Some(seed) = outcome.result.get("seed").and_then(Value::as_u64)
                            else {
                                return Some((outcome.index, "result has no seed".to_string()));
                            };
                            let local = execute_fresh(ctx, outcome.index, seed, outcome.job_id);
                            let expected = wire::encode_result(&local).to_json();
                            (expected != outcome.result.to_json()).then(|| {
                                (
                                    outcome.index,
                                    "result differs from jobs::execute".to_string(),
                                )
                            })
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a check thread panicked"))
            .collect()
    })
}

/// Jobs settled by both runs must carry identical results (job ids aside),
/// unless either warm-started from a champion library whose contents depend
/// on completion order.
pub fn compare_runs(untraced: &Run, traced: &Run) -> Vec<(usize, String)> {
    let mut failures = Vec::new();
    let mut compared = BTreeSet::new();
    for a in &untraced.outcomes {
        let Some(b) = traced.outcomes.iter().find(|b| b.index == a.index) else {
            continue;
        };
        if a.warm_started() || b.warm_started() {
            continue;
        }
        compared.insert(a.index);
        if without_job_id(&a.result) != without_job_id(&b.result) {
            failures.push((a.index, "traced result differs from untraced".to_string()));
        }
    }
    if compared.is_empty() {
        failures.push((usize::MAX, "no job settled in both runs".to_string()));
    }
    failures
}
