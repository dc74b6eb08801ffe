//! Fig. 12 — Average evolution time vs. mutation rate, 1 vs. 3 arrays,
//! 128×128 images.
//!
//! The paper runs 50 runs of 100 000 generations for k ∈ {1, 3, 5} on one and
//! three arrays and reports the average evolution time.  Here the evolution is
//! executed for a scaled-down number of generations (the candidate stream and
//! its reconfiguration counts are real), the per-generation pipeline time is
//! accumulated with the platform timing model, and the result is extrapolated
//! to the paper's 100 000-generation budget for comparison.
//!
//! The whole sweep is submitted as one batch of typed jobs to the
//! [`ehw_service`] front-end (`--platforms=` / `--queue-depth=` size the
//! pool); seeds are pinned per run, so the figures are byte-identical at any
//! pool size.
//!
//! ```text
//! cargo run --release -p ehw-bench --bin fig12_speedup -- [--runs=3] [--generations=200] [--size=128]
//! ```

use ehw_bench::{banner, denoise_task, fmt_time, print_table, ExperimentArgs};
use ehw_evolution::stats::Summary;
use ehw_service::JobSpec;

fn main() {
    let args = ExperimentArgs::parse(3, 200, 128);
    banner(
        "Fig. 12",
        "average evolution time vs mutation rate, 1 vs 3 arrays",
        args.runs,
        args.generations,
    );

    // One evolution job per (k, arrays, run), submitted in a fixed order so
    // the handles line up with the sweep; the pool executes them in whatever
    // order frees up.
    let sweep: Vec<(usize, usize)> = [1usize, 3, 5]
        .iter()
        .flat_map(|&k| [1usize, 3].iter().map(move |&arrays| (k, arrays)))
        .collect();
    let service = args.service(0);
    let mut specs = Vec::new();
    for &(k, arrays) in &sweep {
        for run in 0..args.runs {
            let task = denoise_task(args.size, 0.4, 1000 + run as u64);
            specs.push(
                JobSpec::evolution(task.input, task.reference)
                    .num_arrays(arrays)
                    .mutation_rate(k)
                    .generations(args.generations)
                    .seed(42 + run as u64)
                    .build()
                    .expect("valid evolution spec"),
            );
        }
    }
    let results = service.run_batch(specs).expect("service accepts the sweep");

    // Pair each sweep entry with its per-run result chunk directly, so the
    // grouping below cannot drift from the submission order above.
    let mut mean_per_gen: Vec<((usize, usize), f64)> = Vec::new();
    for (&(k, arrays), chunk) in sweep.iter().zip(results.chunks_exact(args.runs)) {
        let per_gen: Vec<f64> = chunk
            .iter()
            .map(|r| {
                let (_, time) = r.as_evolution().expect("evolution job");
                time.per_generation_s()
            })
            .collect();
        mean_per_gen.push(((k, arrays), Summary::of(&per_gen).mean));
    }
    let mean_of = |k: usize, arrays: usize| {
        mean_per_gen
            .iter()
            .find(|((mk, ma), _)| *mk == k && *ma == arrays)
            .expect("sweep covers (k, arrays)")
            .1
    };
    let mut rows = Vec::new();
    for &k in &[1usize, 3, 5] {
        let (single, triple) = (mean_of(k, 1), mean_of(k, 3));
        rows.push(vec![
            format!("k={k}"),
            fmt_time(single * 100_000.0),
            fmt_time(triple * 100_000.0),
            fmt_time((single - triple) * 100_000.0),
            format!("{:.2}x", single / triple),
        ]);
    }

    print_table(
        &[
            "mutation rate",
            "1 array (100k gens)",
            "3 arrays (100k gens)",
            "saving",
            "speed-up",
        ],
        &rows,
    );
    println!();
    println!("Paper (Fig. 12, 128x128): evolution time grows with the mutation rate;");
    println!("three arrays give a roughly constant saving of ~50 s over 100,000 generations.");
}
