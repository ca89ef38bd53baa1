//! The timing and fleet fault schedules under `scenarios/suites/`: every
//! one passes its assertions, the report is byte-identical at any fleet
//! width, each reproduces its recorded counter row exactly, and the
//! assertions also hold at other seeds and run lengths.

use twig_bench::experiments::scenario::run_entries;
use twig_scenario::{corpus, parse, Scenario, ScenarioOutcome, ScenarioRunner};

fn suites() -> Vec<(&'static str, &'static str)> {
    corpus()
        .into_iter()
        .filter(|(f, _)| f.starts_with("suites/"))
        .collect()
}

fn suite(file: &str) -> Scenario {
    let (_, text) = suites()
        .into_iter()
        .find(|(f, _)| *f == file)
        .unwrap_or_else(|| panic!("{file} missing from the corpus"));
    parse(text).unwrap()
}

fn run(scenario: Scenario) -> ScenarioOutcome {
    let name = scenario.name.clone();
    let o = ScenarioRunner::new(scenario).unwrap().run().unwrap();
    assert!(o.passed, "{name}: {:#?}", o.assertions);
    o
}

/// Counter rows of the seed-42 smoke runs of the timing and cluster chaos
/// suites these scenarios replace, one per schedule; each scenario pins the
/// seeds its run used. Timing rows: misses, stale windows, learn
/// deferrals, inference skips, safe-fallback epochs, actuation retries,
/// learn chunks, learn steps, action reuses, safe-plan actuations; then the
/// deepest ladder rung. Fleet rows: routed, bounced and deferred rps,
/// failovers, crashes, completed migrations, stalls, rollbacks, downgrades,
/// autonomous node-epochs, stale actuations, corruptions, blackout epochs,
/// partition node-epochs; then the worst failover latency.
const TIMING_COUNTERS: [&str; 10] = [
    "deadline.misses",
    "deadline.stale_windows",
    "deadline.shed.defer_learn",
    "deadline.shed.skip_inference",
    "deadline.shed.safe_fallback",
    "deadline.actuation_retries",
    "scenario.learn_chunks",
    "scenario.learn_steps",
    "scenario.action_reuses",
    "scenario.safe_plan_actuations",
];

#[rustfmt::skip]
const TIMING_ROWS: [(&str, [u64; 10], u8); 5] = [
    ("timing-learn-overrun",   [0, 0, 13, 0, 0, 0, 34, 17, 0, 0], 1),
    ("timing-pmc-stalls",      [0, 8, 0, 11, 0, 0, 38, 19, 19, 0], 2),
    ("timing-actuator-stalls", [14, 0, 0, 0, 14, 28, 60, 30, 0, 14], 3),
    ("timing-clock-chaos",     [0, 0, 0, 0, 0, 0, 60, 30, 0, 0], 0),
    ("timing-kitchen-sink",    [15, 6, 3, 4, 18, 10, 28, 14, 13, 18], 3),
];

const FLEET_COUNTERS: [&str; 14] = [
    "cluster.routed_rps",
    "cluster.bounced_rps",
    "cluster.deferred_rps",
    "cluster.failovers",
    "cluster.crashes",
    "cluster.migrations_completed",
    "cluster.transfer_stalls",
    "cluster.transfer_rollbacks",
    "cluster.transfer_downgrades",
    "cluster.autonomous_epochs",
    "cluster.stale_actuations",
    "cluster.transfer_corruptions",
    "cluster.blackout_epochs",
    "cluster.partition_node_epochs",
];

#[rustfmt::skip]
const FLEET_ROWS: [(&str, [u64; 14], u64); 6] = [
    ("fleet-calm",           [182250, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0),
    ("fleet-crash-failover", [182250, 1575, 0, 1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0], 1),
    ("fleet-corrupt-storm",  [182250, 0, 0, 0, 0, 2, 0, 6, 2, 0, 0, 6, 0, 0], 0),
    ("fleet-stall-rollback", [182250, 0, 0, 0, 0, 1, 9, 3, 1, 0, 0, 0, 0, 0], 0),
    ("fleet-blackout",       [182250, 1575, 0, 1, 1, 2, 0, 0, 0, 38, 0, 0, 12, 0], 1),
    ("fleet-kitchen-sink",   [182250, 6514, 20400, 3, 3, 15, 15, 8, 0, 12, 0, 7, 0, 18], 1),
];

#[test]
fn suites_pass_identically_at_any_jobs_and_match_their_counter_rows() {
    let entries = suites();
    assert_eq!(entries.len(), TIMING_ROWS.len() + FLEET_ROWS.len());
    let render = |jobs: usize| {
        let mut report = String::new();
        let outcomes = run_entries(&mut report, &entries, jobs, 42)
            .unwrap_or_else(|e| panic!("{e}\n{report}"));
        (report, outcomes)
    };
    let (one, outcomes) = render(1);
    assert_eq!(one, render(2).0, "suite report depends on --jobs 2");
    assert_eq!(one, render(4).0, "suite report depends on --jobs 4");

    let outcome = |name: &str| {
        outcomes
            .iter()
            .find(|o| o.name == name)
            .unwrap_or_else(|| panic!("{name} not run"))
    };
    for (name, row, ladder) in TIMING_ROWS {
        let o = outcome(name);
        let got = TIMING_COUNTERS.map(|c| o.counter(c));
        assert_eq!(got, row, "{name}: {TIMING_COUNTERS:?}");
        assert_eq!(o.max_shed_depth, ladder, "{name}");
    }
    for (name, row, max_failover) in FLEET_ROWS {
        let o = outcome(name);
        let got = FLEET_COUNTERS.map(|c| o.counter(c));
        assert_eq!(got, row, "{name}: {FLEET_COUNTERS:?}");
        let cluster = o.cluster.as_ref().expect("fleet scenario");
        assert_eq!(cluster.max_failover_latency, max_failover, "{name}");
    }
}

#[test]
fn suites_hold_at_other_seeds_and_lengths() {
    // Actuator stalls at seed 11 over 40 epochs; `measure` = `warmup`
    // keeps the exploration schedule spanning exactly the run.
    let mut s = suite("suites/timing-actuator-stalls.scn");
    s.seed = 11;
    s.epochs = 40;
    s.timing.as_mut().expect("timing section").seed = 11 ^ 0x7171_F0F0;
    run(s);

    // Every fleet schedule at workload seed 42, fault-plan seed
    // 42 ^ 0x00C1_05E5; the calm fleet also over a short run.
    for (file, epochs) in [
        ("suites/fleet-calm.scn", 20),
        ("suites/fleet-crash-failover.scn", 45),
        ("suites/fleet-corrupt-storm.scn", 45),
        ("suites/fleet-stall-rollback.scn", 45),
        ("suites/fleet-blackout.scn", 45),
        ("suites/fleet-kitchen-sink.scn", 45),
    ] {
        let mut s = suite(file);
        s.seed = 42;
        s.epochs = epochs;
        s.cluster_faults.as_mut().expect("fault section").seed = 42 ^ 0x00C1_05E5;
        run(s);
    }
}
