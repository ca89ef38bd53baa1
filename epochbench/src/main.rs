//! `epochbench`: the governed control loop's epoch, end to end and layer by
//! layer.
//!
//! ```text
//! epochbench --workload <pair-learn|dozen-exploit|cluster-federate>
//!            --seed <u64> [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! A run repeats whole episodes (build, warm up, a fixed count of timed
//! epochs, checks) for about `--seconds`, cycling through a fixed number of
//! sub-seeds derived from `--seed` ([`Kind::distinct`]). Simulated outcomes come from the first
//! pass over those sub-seeds; every later episode must reproduce its
//! sub-seed's digest bit for bit. With `--trace 0` the last stdout line
//! carries the end-to-end metrics; with `--trace 1` each untraced episode
//! is followed by a traced twin at the same sub-seed, whose digest must
//! match, and the line carries the per-layer metrics. See `README.md`.

#![forbid(unsafe_code)]

mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{median, percentile, sorted, tail_percentile};
use trace::{layers, write_jsonl, Tracer};
use workloads::{mix, Kind, Tally};

/// Layers the traced run reports, whether or not a workload calls them.
const LAYERS: [&str; 6] = [
    "decide",
    "platform_step",
    "observe",
    "learn",
    "cluster_step",
    "fed_epoch",
];

const USAGE: &str = "usage: epochbench --workload <pair-learn|dozen-exploit|cluster-federate> \
                     --seed <u64> [--seconds <n>] [--trace <0|1>]";

/// Checked command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Kind::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (0 or 1)")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// One built, warmed-up and fully stepped episode.
struct EpisodeRun {
    setup_s: f64,
    epoch_ms: Vec<f64>,
    timed_s: f64,
    tally: Tally,
    digest: u64,
}

/// Epoch counts of everything the run stepped, for the result line.
#[derive(Default)]
struct Counts {
    attempted: u64,
    failed: u64,
    next_epoch: u64,
}

fn episode(
    kind: Kind,
    seed: u64,
    since: Instant,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<EpisodeRun, String> {
    let mut ep = kind.build(seed, tr.is_on())?;
    ep.start_timed();
    let setup_s = since.elapsed().as_secs_f64();
    let n = kind.timed_epochs();
    let mut epoch_ms = Vec::with_capacity(n as usize);
    let start = Instant::now();
    for _ in 0..n {
        tr.set_epoch(counts.next_epoch);
        counts.next_epoch += 1;
        counts.attempted += 1;
        let root = tr.begin("epoch");
        let t = Instant::now();
        let stepped = ep.epoch(tr);
        epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = stepped {
            // A failed epoch may leave a layer span open; the run ends here.
            counts.failed += 1;
            return Err(e);
        }
        tr.end(root);
    }
    let timed_s = start.elapsed().as_secs_f64();
    let (tally, digest) = ep.finish()?;
    counts.failed += tally.failed;
    Ok(EpisodeRun {
        setup_s,
        epoch_ms,
        timed_s,
        tally,
        digest,
    })
}

/// What a whole run measured.
struct Run {
    untraced: Vec<EpisodeRun>,
    traced: Vec<EpisodeRun>,
    tracer: Tracer,
}

fn run(args: &Args, started: Instant, counts: &mut Counts) -> Result<Run, String> {
    let budget = Duration::from_secs(args.seconds);
    let mut tracer = Tracer::new(false);
    let (mut untraced, mut traced): (Vec<EpisodeRun>, Vec<EpisodeRun>) = (Vec::new(), Vec::new());
    let distinct = args.workload.distinct();
    for i in 0u64.. {
        let sub = i % distinct;
        let seed = mix(args.seed, sub);
        // The first setup includes process start.
        let since = if i == 0 { started } else { Instant::now() };
        tracer.set_on(false);
        let u = episode(args.workload, seed, since, &mut tracer, counts)?;
        if let Some(first) = untraced.get(sub as usize) {
            if first.digest != u.digest || first.tally != u.tally {
                return Err(format!(
                    "check failed: episode {i} did not reproduce sub-seed {sub} \
                     (digest {:016x} != {:016x})",
                    u.digest, first.digest
                ));
            }
        }
        if args.trace {
            tracer.set_on(true);
            let t = episode(args.workload, seed, Instant::now(), &mut tracer, counts)?;
            tracer.set_on(false);
            if t.digest != u.digest {
                return Err(format!(
                    "check failed: traced run digest {:016x} != untraced {:016x} at sub-seed {sub}",
                    t.digest, u.digest
                ));
            }
            traced.push(t);
        }
        untraced.push(u);
        let done = i + 1;
        let elapsed = started.elapsed();
        if done >= distinct && elapsed + elapsed / done as u32 / 2 > budget {
            break;
        }
    }
    Ok(Run {
        untraced,
        traced,
        tracer,
    })
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

fn throughput(eps: &[EpisodeRun]) -> f64 {
    let epochs: u64 = eps.iter().map(|e| e.tally.epochs).sum();
    epochs as f64 / eps.iter().map(|e| e.timed_s).sum::<f64>()
}

fn all_epoch_ms(eps: &[EpisodeRun]) -> Vec<f64> {
    sorted(
        eps.iter()
            .flat_map(|e| e.epoch_ms.iter().copied())
            .collect(),
    )
}

/// Sums the tallies of the first pass over the distinct sub-seeds, so
/// simulated outcomes do not depend on how many episodes fit in the run.
fn outcome(kind: Kind, eps: &[EpisodeRun]) -> Tally {
    let mut t = Tally::default();
    for e in eps.iter().take(kind.distinct() as usize) {
        t.add(&e.tally);
    }
    t
}

type Metrics = BTreeMap<String, (f64, &'static str)>;

fn end_to_end(kind: Kind, r: &Run) -> Result<Metrics, String> {
    let ms = all_epoch_ms(&r.untraced);
    let (p95, _) = tail_percentile(&ms, 0.95).ok_or("too few epochs for a tail")?;
    let o = outcome(kind, &r.untraced);
    let setups: Vec<f64> = r.untraced.iter().map(|e| e.setup_s).collect();
    let mut m = Metrics::new();
    m.insert("epoch_ms_p95".into(), (p95, "ms"));
    m.insert("setup_s".into(), (median(&setups), "s"));
    m.insert("peak_rss_mb".into(), (peak_rss_mb()?, "MB"));
    m.insert(
        "qos_met_pct".into(),
        (pct(o.qos_met as f64, o.qos_pairs as f64), "%"),
    );
    m.insert(
        "served_pct".into(),
        (pct((o.epochs - o.failed) as f64, o.epochs as f64), "%"),
    );
    Ok(m)
}

fn per_layer(kind: Kind, r: &Run) -> Metrics {
    let by_name = layers(r.tracer.spans(), "epoch");
    let mut m = Metrics::new();
    for name in LAYERS {
        let l = by_name.get(name);
        let get = |f: fn(&trace::Layer) -> f64| l.map_or(0.0, f);
        m.insert(format!("{name}.ms_p50"), (get(|l| l.ms_p50), "ms"));
        m.insert(format!("{name}.ms_p99"), (get(|l| l.ms_p99), "ms"));
        m.insert(format!("{name}.self_pct"), (get(|l| l.self_pct), "%"));
        m.insert(format!("{name}.calls"), (get(|l| l.calls as f64), "count"));
    }
    m.insert(
        "harness.self_pct".into(),
        (by_name.get("epoch").map_or(0.0, |l| l.self_pct), "%"),
    );
    let p50 = |n: &str| by_name.get(n).map_or(0.0, |l| l.ms_p50);
    let extra = if by_name.contains_key("fed_epoch") {
        p50("fed_epoch") - p50("cluster_step")
    } else {
        0.0
    };
    m.insert("fed_round.extra_ms".into(), (extra, "ms"));

    let t = outcome(kind, &r.traced);
    let ratios = [
        (
            "learn.batch_pct",
            pct(t.learn_batches as f64, t.learn_calls as f64),
        ),
        (
            "governor.primary_pct",
            pct((t.epochs - t.failed) as f64, t.epochs as f64),
        ),
        (
            "fed.commit_pct",
            pct(t.fed.rounds_committed as f64, t.fed.rounds_started as f64),
        ),
        (
            "fed.accept_pct",
            pct(
                t.fed.payloads_accepted as f64,
                t.fed.payloads_received as f64,
            ),
        ),
        (
            "balancer.bounced_pct",
            pct(t.bounced_rps as f64, t.routed_rps as f64),
        ),
        (
            "trace.overhead_pct",
            100.0 * (throughput(&r.untraced) / throughput(&r.traced) - 1.0),
        ),
    ];
    for (name, v) in ratios {
        m.insert(name.into(), (v, "%"));
    }
    m.insert(
        "sim.energy_j_per_epoch".into(),
        (t.energy_j / t.epochs as f64, "J"),
    );
    m.insert(
        "sim.migrated_cores_per_epoch".into(),
        (t.migrated_cores as f64 / t.epochs as f64, "count"),
    );
    // Host-time statistics too unsteady on a noisy host to gate on (see
    // README), from the traced run's untraced episodes.
    let ms = all_epoch_ms(&r.untraced);
    m.insert("epoch.ms_p50".into(), (percentile(&ms, 0.5), "ms"));
    m.insert(
        "epoch.ms_p99".into(),
        (tail_percentile(&ms, 0.99).map_or(0.0, |(v, _)| v), "ms"),
    );
    m.insert("epoch.per_s".into(), (throughput(&r.untraced), "1/s"));
    m.insert(
        "epoch.samples".into(),
        (all_epoch_ms(&r.traced).len() as f64, "count"),
    );
    m
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(correct: bool, counts: &Counts, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, unit))| format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        counts.attempted.max(1),
        counts.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("epochbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let header = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"cores_available\": {cores}, \
         \"profile\": \"{profile}\"}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!("{header}");
    let mut counts = Counts::default();
    let measured = run(&args, started, &mut counts).and_then(|r| {
        let metrics = if args.trace {
            let path = PathBuf::from(format!(
                "epochbench/out/trace-{}-seed{}.jsonl",
                args.workload.name(),
                args.seed
            ));
            write_jsonl(&path, &header, r.tracer.spans())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("epochbench: spans written to {}", path.display());
            per_layer(args.workload, &r)
        } else {
            end_to_end(args.workload, &r)?
        };
        let ms = all_epoch_ms(&r.untraced);
        eprintln!(
            "epochbench: {} episodes, {} untraced epoch samples, \
             digests {:?}",
            r.untraced.len(),
            ms.len(),
            r.untraced
                .iter()
                .take(args.workload.distinct() as usize)
                .map(|e| format!("{:016x}", e.digest))
                .collect::<Vec<_>>()
        );
        Ok(metrics)
    });
    match measured {
        Ok(metrics) => {
            println!("{}", result_line(true, &counts, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("epochbench: {e}");
            println!("{}", result_line(false, &counts, &Metrics::new()));
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_full_command_line() {
        let a = parse_args(argv(
            "--workload dozen-exploit --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Kind::DozenExploit,
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
        let d = parse_args(argv("--seed 1 --workload pair-learn")).unwrap();
        assert_eq!((d.seconds, d.trace), (10, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload pair-learn --seed abc",
            "--workload pair-learn --seed -1",
            "--workload pair-learn --seed",
            "--workload nope --seed 1",
            "--seed 1",
            "--workload pair-learn",
            "--workload pair-learn --seed 1 --trace 2",
            "--workload pair-learn --seed 1 --seconds 0",
            "--workload pair-learn --seed 1 --bogus",
        ] {
            assert!(parse_args(argv(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn learn_split_reproduces_the_normal_path() {
        // The traced run steps the learner from the benchmark instead of
        // inside `observe`; the episode digest (every epoch's simulated
        // outputs plus the final checkpoint bytes) must not notice.
        let run = |split: bool| {
            let mut tr = Tracer::new(split);
            let mut ep = Kind::PairLearn.build(11, split).unwrap();
            ep.start_timed();
            for _ in 0..12 {
                ep.epoch(&mut tr).unwrap();
            }
            let (tally, digest) = ep.finish().unwrap();
            (tally, digest, tr)
        };
        let (plain, plain_digest, _) = run(false);
        let (split, split_digest, tr) = run(true);
        assert_eq!(split_digest, plain_digest);
        assert_eq!(split.qos_met, plain.qos_met);
        assert_eq!(split.learn_calls, 36, "3 gradient steps per epoch");
        assert_eq!(split.learn_batches, 36, "warm-up filled the buffer");
        assert_eq!(tr.spans().iter().filter(|s| s.name == "learn").count(), 36);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::new();
        m.insert("setup_s".into(), (0.25, "s"));
        let counts = Counts {
            attempted: 3,
            failed: 0,
            next_epoch: 3,
        };
        assert_eq!(
            result_line(true, &counts, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
