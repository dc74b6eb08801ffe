//! §VI.D — Systematic PE-level fault-injection campaign.
//!
//! Injects the dummy-PE fault (permanent, LPD) into every position of an
//! array holding an evolved filter, measures the degradation, recovers by
//! re-evolving on the damaged fabric (seeded with the working genotype) and
//! reports per-position criticality and recovery quality — the analysis that
//! backs the paper's claim that the same mechanism used for adaptation also
//! provides self-recovery from permanent and accumulated faults.
//!
//! Both phases run as typed jobs through the [`ehw_service`] front-end: an
//! evolution job produces the working filter, a fault-campaign job sweeps the
//! PE positions.  Seeds are pinned, so the report is byte-identical at any
//! `--platforms=` / `--workers=` setting.
//!
//! ```text
//! cargo run --release -p ehw-bench --bin fault_campaign -- [--generations=150] [--recovery=120] [--size=48]
//! ```

use ehw_bench::{arg_usize, banner, denoise_task, print_table, ExperimentArgs};
use ehw_service::JobSpec;

fn main() {
    let args = ExperimentArgs::parse(1, 150, 48);
    let recovery_generations = arg_usize("recovery", 120);
    banner(
        "§VI.D",
        "systematic PE-level fault injection and recovery campaign (one array)",
        1,
        args.generations,
    );

    let service = args.service(0);

    // Evolve a working filter first.
    let task = denoise_task(args.size, 0.4, 11000);
    let evolved = service
        .submit(
            JobSpec::evolution(task.input.clone(), task.reference.clone())
                .mutation_rate(3)
                .generations(args.generations)
                .seed(3)
                .build()
                .expect("valid evolution spec"),
        )
        .expect("service accepts the job")
        .wait()
        .expect("shard pool is alive");
    let (evolution, _) = evolved.as_evolution().expect("evolution job");
    println!("baseline evolved fitness: {}\n", evolution.best_fitness);

    // Sweep every PE position of the array holding that filter.
    let report = service
        .submit(
            JobSpec::fault_campaign(task.input, task.reference)
                .baseline(evolution.best_genotype.clone())
                .recovery_generations(recovery_generations)
                .recovery_target(evolution.best_fitness)
                .seed(17)
                .build()
                .expect("valid campaign spec"),
        )
        .expect("service accepts the job")
        .wait()
        .expect("shard pool is alive");
    let report = report.as_campaign().expect("campaign job").clone();

    let rows: Vec<Vec<String>> = report
        .positions
        .iter()
        .map(|p| {
            vec![
                format!("({}, {})", p.row, p.col),
                p.fitness_clean.to_string(),
                p.fitness_faulty.to_string(),
                p.fitness_recovered.to_string(),
                if p.is_critical() { "yes" } else { "no" }.to_string(),
                format!("{:.0}%", p.recovery_ratio() * 100.0),
            ]
        })
        .collect();
    print_table(
        &[
            "PE (row, col)",
            "clean",
            "faulty",
            "recovered",
            "critical",
            "recovery",
        ],
        &rows,
    );

    println!();
    println!(
        "critical positions: {}/{}   fully recovered: {}/{}   mean recovery ratio: {:.0}%",
        report.critical_positions(),
        report.len(),
        report.fully_recovered_positions(),
        report.len(),
        report.mean_recovery_ratio() * 100.0
    );
    println!();
    println!("Paper (§VI.D / ref. [5]): the system self-recovers from permanent faults by");
    println!("launching a new evolution; the number of tolerable faults depends on the");
    println!("filtering problem, and faults outside the active data path are harmless.");
}
