//! The repository benchmark: three workloads through the public entry points
//! of the ehw serving stack, with output checks, end-to-end metrics and a
//! separate traced run for the per-layer table.
//!
//! ```text
//! ehw-perfbench --workload http_small_jobs --seed 1 --seconds 20 --trace 0 \
//!     --serve-bin target/release/ehw-serve [--rustc-version "rustc 1.95.0 ..."]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.  `perfbench/run.py`
//! builds `ehw-serve` and this program from source and runs it; see
//! `perfbench/NOTES.md` for what each workload and metric means.

mod checks;
mod http;
mod inputs;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

use stats::{median, quantile, ratio};
use trace::Tracer;
use workloads::{Ctx, Outcome, Run, Workload};

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut rustc = String::from("unknown");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds takes a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--rustc-version" => rustc = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        rustc,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_string(s: &str) -> String {
    ehw_server::json::strv(s).to_json()
}

/// Failures counted against attempts.  Each names the run it belongs to
/// and a job index, or `usize::MAX` for a run-level check.
struct Tally {
    attempted: u64,
    failures: Vec<(&'static str, usize, String)>,
}

impl Tally {
    fn add_run(&mut self, label: &'static str, run: &Run) {
        self.attempted += run.attempted;
        self.add_checks(label, run.errors.clone());
    }

    fn add_checks(&mut self, label: &'static str, failures: Vec<(usize, String)>) {
        self.failures.extend(
            failures
                .into_iter()
                .map(|(index, reason)| (label, index, reason)),
        );
    }

    /// Distinct failed jobs, plus one per run-level failure.
    fn failed(&self) -> u64 {
        let jobs: BTreeSet<(&str, usize)> = self
            .failures
            .iter()
            .filter(|(_, index, _)| *index != usize::MAX)
            .map(|(label, index, _)| (*label, *index))
            .collect();
        let run_level = self
            .failures
            .iter()
            .filter(|(_, index, _)| *index == usize::MAX)
            .count();
        (jobs.len() + run_level) as u64
    }
}

/// Consecutive slices of a run's settled jobs, in settle order, over which
/// the end-to-end rates and latencies take their median: a slowdown of the
/// shared host that covers fewer than half of them moves the result little.
const SLICES: usize = 5;

/// The end-to-end metrics of one untraced run, and `settle_p95_ms`, which
/// is shown but not part of the result (see `NOTES.md`).
fn end_to_end(ctx: &Ctx, run: &Run) -> (Vec<Metric>, Metric) {
    let mut settled: Vec<&Outcome> = run.outcomes.iter().collect();
    settled.sort_by(|a, b| a.settled_s.total_cmp(&b.settled_s));
    let n = settled.len();
    let (mut jobs, mut evals, mut frames, mut p50, mut p95) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut slice_start = 0.0;
    for k in 0..SLICES {
        let slice = &settled[k * n / SLICES..(k + 1) * n / SLICES];
        let Some(last) = slice.last() else {
            continue;
        };
        let seconds = last.settled_s - slice_start;
        slice_start = last.settled_s;
        let evaluations: u64 = slice.iter().map(|o| o.evaluations()).sum();
        // A stream job settles its frames; any other job settles one
        // training frame.
        let frame_count: u64 = slice
            .iter()
            .map(|o| match ctx.workload {
                Workload::HttpStreamDrift => o.output_u64("frames").unwrap_or(0),
                _ => 1,
            })
            .sum();
        jobs.push(ratio(slice.len() as f64, seconds));
        evals.push(ratio(evaluations as f64, seconds));
        frames.push(ratio(frame_count as f64, seconds));
        let settle: Vec<f64> = slice.iter().map(|o| o.settle_ms).collect();
        p50.push(median(&settle));
        p95.push(quantile(&settle, 0.95));
    }
    let metrics = vec![
        metric("setup_s", "s", run.setup_s),
        metric("jobs_per_s", "jobs/s", median(&jobs)),
        metric("evals_per_s", "evals/s", median(&evals)),
        metric("frames_per_s", "frames/s", median(&frames)),
        metric("settle_p50_ms", "ms", median(&p50)),
        metric("peak_rss_mb", "MiB", run.peak_rss_mb),
    ];
    (metrics, metric("settle_p95_ms", "ms", median(&p95)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("ehw-perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    if !args.serve_bin.is_file() {
        eprintln!(
            "ehw-perfbench: no ehw-serve binary at {}",
            args.serve_bin.display()
        );
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        serve_bin: args.serve_bin,
        nproc,
    };
    println!(
        "{{\"record\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{}}}}}}}",
        ctx.workload.name(),
        ctx.seed,
        ctx.seconds,
        u8::from(args.trace),
        json_string(&cpu_model()),
        json_string(&args.rustc),
    );

    let mut tally = Tally {
        attempted: 0,
        failures: Vec::new(),
    };
    let untraced = match workloads::measure(&ctx, &Tracer::new(false)) {
        Ok(run) => run,
        Err(error) => {
            eprintln!("ehw-perfbench: {error}");
            return ExitCode::FAILURE;
        }
    };
    tally.add_run("untraced", &untraced);
    tally.add_checks("untraced", checks::check_run(&ctx, &untraced));

    let (metrics, shown) = if args.trace {
        let tracer = Tracer::new(true);
        let traced = match workloads::measure(&ctx, &tracer) {
            Ok(run) => run,
            Err(error) => {
                eprintln!("ehw-perfbench: {error}");
                return ExitCode::FAILURE;
            }
        };
        tally.add_run("traced", &traced);
        tally.add_checks("traced", checks::compare_runs(&untraced, &traced));
        // A probe that cannot reproduce a job's result fails that job of
        // the untraced run.
        let (metrics, probe_failures) = layers::per_layer(&ctx, &untraced, &traced, &tracer);
        tally.add_checks("untraced", probe_failures);
        let path = PathBuf::from(format!(
            ".bench_trace/{}-seed{}.jsonl",
            ctx.workload.name(),
            ctx.seed
        ));
        if let Err(error) = tracer.write_jsonl(&path) {
            eprintln!("ehw-perfbench: cannot write {}: {error}", path.display());
        }
        println!("self time per layer (traced run and probes):");
        for (layer, (self_ns, spans)) in tracer.self_times() {
            println!(
                "  {layer:<12} {:>12.3} ms  {spans:>8} spans",
                self_ns as f64 / 1e6
            );
        }
        (metrics, None)
    } else {
        let (metrics, shown) = end_to_end(&ctx, &untraced);
        (metrics, Some(shown))
    };

    for (label, index, reason) in tally.failures.iter().take(20) {
        if *index == usize::MAX {
            eprintln!("ehw-perfbench: FAILED {label}: {reason}");
        } else {
            eprintln!("ehw-perfbench: FAILED {label}: job {index}: {reason}");
        }
    }
    for m in &metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(m) = shown {
        println!(
            "{:<28} {:>16.6} {} (shown, not in the result)",
            m.name, m.value, m.unit
        );
        println!(
            "samples: {} settled jobs in {SLICES} slices; setup_s over {} start-ups",
            untraced.outcomes.len(),
            workloads::SETUP_REPS
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                ehw_server::json::f64v(m.value).to_json(),
                m.unit
            )
        })
        .collect();
    let failed = tally.failed();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        tally.attempted,
        body.join(",")
    );
    ExitCode::SUCCESS
}
