//! Runs the entire experiment suite as a parallel fleet — one unit per
//! paper table/figure — with `--jobs N` workers.
//!
//! Sections print in a fixed order regardless of which unit finishes
//! first, so `suite --jobs 8 > out.txt` is bit-identical to `--jobs 1`.
//! A unit that fails (error or panic) is reported and the rest of the
//! suite still completes; the exit code is non-zero if anything failed.
//! Fleet utilization (units completed, per-thread busy time) is exported
//! through `twig-telemetry` gauges and echoed at the end.

use twig_bench::{experiments as exp, run_fleet, ExpError, Options, Unit};
use twig_telemetry::Telemetry;

type RunTo = fn(&mut String, &Options) -> Result<(), ExpError>;

fn main() {
    let opts = Options::from_env();
    let figures: Vec<(&str, RunTo)> = vec![
        ("fig01", exp::fig01::run_to),
        ("fig04", exp::fig04::run_to),
        ("fig05", exp::fig05::run_to),
        ("fig06", exp::fig06::run_to),
        ("fig07", exp::fig07::run_to),
        ("fig08", exp::fig08::run_to),
        ("fig09", exp::fig09::run_to),
        ("fig10", exp::fig10::run_to),
        ("fig11", exp::fig11::run_to),
        ("fig12", exp::fig12::run_to),
        ("fig13", exp::fig13::run_to),
        ("table1", exp::table1::run_to),
        ("table2", exp::table2::run_to),
        ("table3", exp::table3::run_to),
        ("ablation", exp::ablation::run_to),
        ("diurnal", exp::diurnal::run_to),
        ("memcomplexity", exp::memcomplexity::run_to),
        ("resilience", exp::resilience::run_to),
        ("chaos", exp::chaos::run_to),
        ("federate", exp::federate::run_to),
        ("platform", exp::platform::run_to),
        ("scenario", exp::scenario::run_to),
        ("telemetry_report", exp::telemetry_report::run_to),
    ];
    let opts_ref = &opts;
    let units = figures
        .iter()
        .map(|&(name, run_to)| {
            Unit::new(name, move |_seed| {
                // Figure-level parallelism only: each unit runs its module
                // serially so the fleet is not oversubscribed by nested
                // intra-figure units.
                let inner = Options {
                    jobs: 1,
                    ..opts_ref.clone()
                };
                let mut section = String::new();
                run_to(&mut section, &inner)?;
                Ok(section)
            })
        })
        .collect();

    let run = run_fleet(units, opts.jobs, opts.seed);
    let mut failed = Vec::new();
    for result in &run.results {
        println!("{:=^72}", format!(" {} ", result.label));
        match &result.outcome {
            Ok(section) => print!("{section}"),
            Err(reason) => {
                println!("[unit failed, suite continues] {reason}");
                failed.push(result.label.clone());
            }
        }
        println!();
    }

    // Fleet accounting, exported as telemetry gauges (`fleet.*`) and
    // echoed for the log. The handle is Rc-based, so this happens post-hoc
    // on the main thread, never inside the workers.
    let telemetry = Telemetry::enabled();
    run.stats.record(&telemetry);
    let metrics = telemetry.metrics().expect("enabled telemetry");
    println!(
        "fleet: {}/{} units ok, {} jobs, wall {:.1} s, utilization {:.0}%",
        metrics.counter("fleet.units_completed"),
        run.stats.units_total,
        run.stats.jobs,
        run.stats.wall_ms / 1e3,
        100.0 * run.stats.utilization()
    );
    for (i, &busy) in run.stats.busy_ms.iter().enumerate() {
        println!("  thread {i}: busy {:.1} s", busy / 1e3);
    }
    if !failed.is_empty() {
        eprintln!(
            "suite: {} unit(s) failed: {}",
            failed.len(),
            failed.join(", ")
        );
        std::process::exit(1);
    }
}
