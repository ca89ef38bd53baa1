//! The canonical `.scn` emitter.
//!
//! There is exactly one canonical text form per scenario: fields in fixed
//! order, two-space indent inside sections, single spaces between tokens,
//! defaults omitted, one blank line between top-level blocks, a trailing
//! newline. [`crate::parse`] accepts a superset (comments, flexible
//! whitespace), so the emitter is a fixed point: for every scenario `s`,
//! `emit(parse(emit(s))) == emit(s)`, and canonically-authored corpus
//! files round-trip byte-identically.

use crate::model::{Assertion, CounterRhs, Scenario, ServiceDef, SpecSource, Topology};
use std::fmt::Write as _;
use twig_sim::LoadGenerator;

/// Renders the canonical text form of a scenario.
pub fn emit(s: &Scenario) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scenario {}", quoted(&s.name));
    if !s.desc.is_empty() {
        let _ = writeln!(out, "desc {}", quoted(&s.desc));
    }
    let _ = writeln!(out, "seed {}", s.seed);
    let _ = writeln!(out, "epochs {}", s.epochs);
    let _ = writeln!(out, "measure {}", s.measure);
    if s.warmup != 0 {
        let _ = writeln!(out, "warmup {}", s.warmup);
    }
    if s.segments != 1 {
        let _ = writeln!(out, "segments {}", s.segments);
    }

    emit_topology(&mut out, &s.topology);
    for svc in &s.services {
        emit_service(&mut out, svc);
    }
    if let Some(f) = &s.faults {
        emit_faults(&mut out, f);
    }
    if let Some(t) = &s.timing {
        emit_timing(&mut out, t);
    }
    if let Some(c) = &s.cluster_faults {
        emit_cluster_faults(&mut out, c);
    }
    if let Some(f) = &s.federate {
        emit_federate(&mut out, f);
    }

    if !s.asserts.is_empty() {
        out.push('\n');
        for a in &s.asserts {
            emit_assert_line(&mut out, a);
        }
    }
    out
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn emit_topology(out: &mut String, t: &Topology) {
    out.push('\n');
    match t {
        Topology::Server { cores, dvfs } => {
            out.push_str("server\n");
            let _ = writeln!(out, "  cores {cores}");
            let _ = writeln!(out, "  dvfs {} {} {}", dvfs.0, dvfs.1, dvfs.2);
        }
        Topology::Cluster {
            replication,
            suspect_after,
            nodes,
        } => {
            out.push_str("cluster\n");
            let _ = writeln!(out, "  replication {replication}");
            let _ = writeln!(out, "  suspect_after {suspect_after}");
            for n in nodes {
                let _ = writeln!(out, "  node {} {} {} {}", n.0, n.1, n.2, n.3);
            }
        }
    }
    out.push_str("end\n");
}

fn emit_spec_source(src: &SpecSource) -> String {
    match src {
        SpecSource::Catalog { name } => format!("catalog {name}"),
        SpecSource::Synthetic {
            template,
            rps,
            qos_ms,
        } => format!("synthetic {template} {rps} {qos_ms}"),
    }
}

fn emit_service(out: &mut String, s: &ServiceDef) {
    out.push('\n');
    let _ = writeln!(out, "service {}", quoted(&s.id));
    let _ = writeln!(out, "  spec {}", emit_spec_source(&s.spec));
    let _ = writeln!(out, "  load {}", emit_load(&s.load));
    if s.arrive != 0 {
        let _ = writeln!(out, "  arrive {}", s.arrive);
    }
    if let Some(d) = s.depart {
        let _ = writeln!(out, "  depart {d}");
    }
    if let Some((e, src)) = &s.swap {
        let _ = writeln!(out, "  swap {e} {}", emit_spec_source(src));
    }
    out.push_str("end\n");
}

fn emit_load(g: &LoadGenerator) -> String {
    match g {
        LoadGenerator::Fixed { fraction } => format!("fixed {fraction}"),
        LoadGenerator::Step {
            min,
            max,
            change_factor,
            period_s,
        } => format!("step {min} {max} {change_factor} {period_s}"),
        LoadGenerator::Diurnal { min, max, period_s } => {
            format!("diurnal {min} {max} {period_s}")
        }
        LoadGenerator::Ramp {
            from,
            to,
            start_s,
            duration_s,
        } => format!("ramp {from} {to} {start_s} {duration_s}"),
        LoadGenerator::FlashCrowd {
            base,
            peak,
            start_s,
            ramp_s,
            hold_s,
        } => format!("flash_crowd {base} {peak} {start_s} {ramp_s} {hold_s}"),
        LoadGenerator::Burst {
            base,
            peak,
            period_s,
            duty_s,
            phase_s,
        } => format!("burst {base} {peak} {period_s} {duty_s} {phase_s}"),
        LoadGenerator::Replay { table, dwell_s } => {
            let mut s = format!("replay {dwell_s}");
            for f in table {
                let _ = write!(s, " {f}");
            }
            s
        }
    }
}

fn emit_faults(out: &mut String, f: &crate::model::FaultSection) {
    out.push('\n');
    out.push_str("faults\n");
    let _ = writeln!(out, "  seed {}", f.seed);
    let c = &f.config;
    if c.pmc_corrupt_rate != 0.0 {
        let _ = writeln!(out, "  pmc_corrupt {}", c.pmc_corrupt_rate);
    }
    if c.telemetry_delay_epochs != 0 {
        let _ = writeln!(out, "  telemetry_delay {}", c.telemetry_delay_epochs);
    }
    if c.actuation_reject_rate != 0.0 {
        let _ = writeln!(out, "  actuation_reject {}", c.actuation_reject_rate);
    }
    if c.dvfs_clamp_rate != 0.0 {
        let _ = writeln!(out, "  dvfs_clamp {}", c.dvfs_clamp_rate);
    }
    if c.power_glitch_rate != 0.0 {
        let _ = writeln!(out, "  power_glitch {}", c.power_glitch_rate);
    }
    if c.core_fail_rate != 0.0 {
        let _ = writeln!(out, "  core_fail {}", c.core_fail_rate);
    }
    if c.core_repair_rate != 0.0 {
        let _ = writeln!(out, "  core_repair {}", c.core_repair_rate);
    }
    if c.max_offline_cores != 0 {
        let _ = writeln!(out, "  max_offline {}", c.max_offline_cores);
    }
    out.push_str("end\n");
}

fn emit_timing(out: &mut String, t: &crate::model::TimingSection) {
    out.push('\n');
    out.push_str("timing\n");
    let _ = writeln!(out, "  seed {}", t.seed);
    let c = &t.config;
    if c.pmc_base_ms != 0.0 {
        let _ = writeln!(out, "  pmc_base {}", c.pmc_base_ms);
    }
    if c.pmc_spike_rate != 0.0 || c.pmc_spike_ms != 0.0 {
        let _ = writeln!(out, "  pmc_spike {} {}", c.pmc_spike_rate, c.pmc_spike_ms);
    }
    if c.pmc_stale_rate != 0.0 || c.pmc_stale_age_ms != 0.0 {
        let _ = writeln!(
            out,
            "  pmc_stale {} {}",
            c.pmc_stale_rate, c.pmc_stale_age_ms
        );
    }
    if c.inference_base_ms != 0.0 {
        let _ = writeln!(out, "  inference_base {}", c.inference_base_ms);
    }
    if c.inference_spike_rate != 0.0 || c.inference_spike_ms != 0.0 {
        let _ = writeln!(
            out,
            "  inference_spike {} {}",
            c.inference_spike_rate, c.inference_spike_ms
        );
    }
    if c.learn_chunk_base_ms != 0.0 {
        let _ = writeln!(out, "  learn_chunk {}", c.learn_chunk_base_ms);
    }
    if c.learn_spike_rate != 0.0 || c.learn_spike_ms != 0.0 {
        let _ = writeln!(
            out,
            "  learn_spike {} {}",
            c.learn_spike_rate, c.learn_spike_ms
        );
    }
    if c.actuation_base_ms != 0.0 {
        let _ = writeln!(out, "  actuation_base {}", c.actuation_base_ms);
    }
    if c.actuation_stall_rate != 0.0 || c.actuation_stall_ms != 0.0 {
        let _ = writeln!(
            out,
            "  actuation_stall {} {}",
            c.actuation_stall_rate, c.actuation_stall_ms
        );
    }
    if c.clock_jitter_ms != 0.0 {
        let _ = writeln!(out, "  clock_jitter {}", c.clock_jitter_ms);
    }
    if c.clock_skew_rate != 0.0 || c.clock_skew_ms != 0.0 {
        let _ = writeln!(
            out,
            "  clock_skew {} {}",
            c.clock_skew_rate, c.clock_skew_ms
        );
    }
    if c.clock_stuck_rate != 0.0 {
        let _ = writeln!(out, "  clock_stuck {}", c.clock_stuck_rate);
    }
    out.push_str("end\n");
}

fn emit_cluster_faults(out: &mut String, cf: &crate::model::ClusterFaultSection) {
    use twig_cluster::ClusterEvent;
    out.push('\n');
    out.push_str("cluster_faults\n");
    let _ = writeln!(out, "  seed {}", cf.seed);
    let c = &cf.config;
    if c.crash_rate != 0.0 {
        let _ = writeln!(out, "  crash_rate {}", c.crash_rate);
    }
    if c.restart_after_epochs != 0 {
        let _ = writeln!(out, "  restart_after {}", c.restart_after_epochs);
    }
    if c.heartbeat_loss_rate != 0.0 {
        let _ = writeln!(out, "  heartbeat_loss {}", c.heartbeat_loss_rate);
    }
    if c.blackout_rate != 0.0 || c.blackout_epochs != 0 {
        let _ = writeln!(out, "  blackout {} {}", c.blackout_rate, c.blackout_epochs);
    }
    if c.partition_rate != 0.0 || c.partition_epochs != 0 {
        let _ = writeln!(
            out,
            "  partition {} {}",
            c.partition_rate, c.partition_epochs
        );
    }
    if c.migration_stall_rate != 0.0 {
        let _ = writeln!(out, "  migration_stall {}", c.migration_stall_rate);
    }
    if c.migration_corrupt_rate != 0.0 {
        let _ = writeln!(out, "  migration_corrupt {}", c.migration_corrupt_rate);
    }
    for ev in &c.scripted {
        let _ = match &ev.event {
            ClusterEvent::Crash { node } => writeln!(out, "  at {} crash {node}", ev.epoch),
            ClusterEvent::Restart { node } => writeln!(out, "  at {} restart {node}", ev.epoch),
            ClusterEvent::DropHeartbeat { node } => {
                writeln!(out, "  at {} drop_heartbeat {node}", ev.epoch)
            }
            ClusterEvent::Migrate { service, from, to } => {
                writeln!(out, "  at {} migrate {service} {from} {to}", ev.epoch)
            }
            ClusterEvent::Blackout { epochs } => {
                writeln!(out, "  at {} blackout {epochs}", ev.epoch)
            }
            ClusterEvent::Partition { node, epochs } => {
                writeln!(out, "  at {} partition {node} {epochs}", ev.epoch)
            }
        };
    }
    out.push_str("end\n");
}

fn emit_federate(out: &mut String, f: &crate::model::FederateSection) {
    use twig_cluster::{ByzantineFlavor, FedEvent, FederateConfig};
    let defaults = FederateConfig::default();
    out.push('\n');
    out.push_str("federate\n");
    let _ = writeln!(out, "  seed {}", f.seed);
    if f.period != defaults.round_period {
        let _ = writeln!(out, "  period {}", f.period);
    }
    if f.quorum != defaults.min_quorum {
        let _ = writeln!(out, "  quorum {}", f.quorum);
    }
    if f.timeout != defaults.collect_timeout {
        let _ = writeln!(out, "  timeout {}", f.timeout);
    }
    let c = &f.config;
    if c.corrupt_rate != 0.0 {
        let _ = writeln!(out, "  corrupt_rate {}", c.corrupt_rate);
    }
    if c.truncate_rate != 0.0 {
        let _ = writeln!(out, "  truncate_rate {}", c.truncate_rate);
    }
    if c.byzantine_rate != 0.0 {
        let _ = writeln!(out, "  byzantine_rate {}", c.byzantine_rate);
    }
    if c.straggler_rate != 0.0 || c.straggle_epochs != 1 {
        let _ = writeln!(out, "  straggle {} {}", c.straggler_rate, c.straggle_epochs);
    }
    if c.drop_rate != 0.0 {
        let _ = writeln!(out, "  drop_rate {}", c.drop_rate);
    }
    if c.poison_merge_rate != 0.0 {
        let _ = writeln!(out, "  poison_rate {}", c.poison_merge_rate);
    }
    for ev in &c.scripted {
        let _ = match &ev.event {
            FedEvent::Corrupt { node } => writeln!(out, "  at {} corrupt {node}", ev.round),
            FedEvent::Truncate { node } => writeln!(out, "  at {} truncate {node}", ev.round),
            FedEvent::Byzantine { node, flavor } => {
                let word = match flavor {
                    ByzantineFlavor::Garbage => "garbage",
                    ByzantineFlavor::NonFinite => "nonfinite",
                    ByzantineFlavor::Offset => "offset",
                };
                writeln!(out, "  at {} byzantine {node} {word}", ev.round)
            }
            FedEvent::Straggle { node, epochs } => {
                writeln!(out, "  at {} straggle {node} {epochs}", ev.round)
            }
            FedEvent::Drop { node } => writeln!(out, "  at {} drop {node}", ev.round),
            FedEvent::PoisonMerge => writeln!(out, "  at {} poison_merge", ev.round),
        };
    }
    out.push_str("end\n");
}

/// Renders one `assert` line (with trailing newline) in canonical form.
pub(crate) fn emit_assert_line(out: &mut String, a: &Assertion) {
    let _ = match a {
        Assertion::QosFloor { service, pct } => match service {
            Some(id) => writeln!(out, "assert qos_floor {} {pct}", quoted(id)),
            None => writeln!(out, "assert qos_floor all {pct}"),
        },
        Assertion::PowerCap { watts } => writeln!(out, "assert power_cap {watts}"),
        Assertion::DropCap { fraction } => writeln!(out, "assert drop_cap {fraction}"),
        Assertion::MaxShedDepth { depth } => writeln!(out, "assert max_shed_depth {depth}"),
        Assertion::ZeroStaleActuations => writeln!(out, "assert zero_stale_actuations"),
        Assertion::Conserved => writeln!(out, "assert conserved"),
        Assertion::MaxFailover { epochs } => writeln!(out, "assert max_failover {epochs}"),
        Assertion::FedRounds { committed } => writeln!(out, "assert fed_rounds {committed}"),
        Assertion::FedScreened { rejected } => writeln!(out, "assert fed_screened {rejected}"),
        Assertion::Deterministic => writeln!(out, "assert deterministic"),
        Assertion::Counter { name, op, rhs } => {
            let _ = write!(out, "assert counter {name} {} ", op.token());
            match rhs {
                CounterRhs::Value(v) => writeln!(out, "{v}"),
                CounterRhs::Counter(n) => writeln!(out, "{n}"),
            }
        }
    };
}
