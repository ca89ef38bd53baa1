//! The three governed control loops the benchmark times.
//!
//! Each episode is built from one seed, warmed up, and then stepped one
//! closed-loop epoch at a time: the next epoch starts when the previous one
//! returns. Layer spans wrap the calls into each layer's public functions.

use twig_cluster::{
    AgentTuning, Cluster, ClusterConfig, ClusterFaultPlan, CoordinatorConfig, FedFaultPlan,
    FedStats, FederateConfig, NodePlatform,
};
use twig_core::{GovernorConfig, GovernorStats, SafetyGovernor, TaskManager, Twig};
use twig_platform::{Platform, SimPlatform};
use twig_rl::{EpsilonSchedule, MaBdqConfig};
use twig_scenario::Topology;
use twig_sim::{catalog, DvfsLadder, EpochReport, Server, ServerConfig, ServiceSpec};
use twig_telemetry::Telemetry;

use crate::stats::Fnv;
use crate::trace::Tracer;

/// Scenario file the `dozen-exploit` services, loads and socket come from.
const DOZEN_SCENARIO: &str = "scenarios/catalog-dozen.scn";

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Colocated Twig-C pair, learning throughout.
    PairLearn,
    /// Twelve synthetic services, pure exploitation after a learned warm-up.
    DozenExploit,
    /// Four-node Twig-D cluster with periodic federation rounds.
    ClusterFederate,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::PairLearn, Kind::DozenExploit, Kind::ClusterFederate];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PairLearn => "pair-learn",
            Kind::DozenExploit => "dozen-exploit",
            Kind::ClusterFederate => "cluster-federate",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Distinct episode seeds per run; the outcome metrics average over
    /// them, which keeps their seed-to-seed spread a few percent.
    pub fn distinct(self) -> u64 {
        match self {
            Kind::PairLearn | Kind::DozenExploit => 6,
            Kind::ClusterFederate => 10,
        }
    }

    /// Timed epochs per episode.
    pub fn timed_epochs(self) -> u64 {
        match self {
            Kind::PairLearn => 150,
            Kind::DozenExploit => 4000,
            Kind::ClusterFederate => 1000,
        }
    }

    /// Builds and warms up one episode. `split_learn` makes the benchmark
    /// take the gradient steps itself, so the traced run can time them.
    ///
    /// # Errors
    ///
    /// Construction, warm-up or scenario-file errors, as text.
    pub fn build(self, seed: u64, split_learn: bool) -> Result<Box<dyn Episode>, String> {
        Ok(match self {
            Kind::PairLearn => Box::new(pair_learn(seed, split_learn)?),
            Kind::DozenExploit => Box::new(dozen_exploit(seed)?),
            Kind::ClusterFederate => Box::new(cluster_federate(seed)?),
        })
    }
}

/// What the timed epochs of one episode produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Timed epochs completed.
    pub epochs: u64,
    /// Timed epochs not served by Twig's primary decision (on the cluster:
    /// epochs that deferred requests or where a node shed inference).
    /// Conservation failures and stale actuations fail the run instead.
    pub failed: u64,
    /// (service, epoch) pairs with traffic whose p99 met the QoS target.
    pub qos_met: u64,
    /// (service, epoch) pairs with traffic.
    pub qos_pairs: u64,
    /// Ground-truth socket energy, J (server workloads).
    pub energy_j: f64,
    /// Cores remapped (server workloads).
    pub migrated_cores: u64,
    /// `MaBdq::train_step` calls made by the benchmark (split learning).
    pub learn_calls: u64,
    /// Of those, calls that drew a batch and stepped.
    pub learn_batches: u64,
    /// Requests routed by the balancer (cluster).
    pub routed_rps: u64,
    /// Requests that bounced off an unreachable replica (cluster).
    pub bounced_rps: u64,
    /// Federation counters over the timed epochs (cluster).
    pub fed: FedStats,
}

impl Tally {
    /// Adds another episode's tally into this one.
    pub fn add(&mut self, x: &Tally) {
        self.epochs += x.epochs;
        self.failed += x.failed;
        self.qos_met += x.qos_met;
        self.qos_pairs += x.qos_pairs;
        self.energy_j += x.energy_j;
        self.migrated_cores += x.migrated_cores;
        self.learn_calls += x.learn_calls;
        self.learn_batches += x.learn_batches;
        self.routed_rps += x.routed_rps;
        self.bounced_rps += x.bounced_rps;
        self.fed.merge(&x.fed);
    }
}

/// One built, warmed-up control loop.
pub trait Episode {
    /// Runs one epoch.
    ///
    /// # Errors
    ///
    /// A layer error or a failed per-epoch check, as text.
    fn epoch(&mut self, tr: &mut Tracer) -> Result<(), String>;

    /// Clears the tally: the warm-up is not measured.
    fn start_timed(&mut self);

    /// Runs the end-of-episode checks and returns the tally and the run
    /// digest (every epoch's simulated outputs plus the final learner
    /// state).
    ///
    /// # Errors
    ///
    /// A failed check, as text.
    fn finish(self: Box<Self>) -> Result<(Tally, u64), String>;
}

fn err(context: &str) -> impl Fn(String) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// splitmix64 finalizer: decorrelated sub-seeds from one workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn check_finite(what: &str, v: f64) -> Result<(), String> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(format!("check failed: non-finite {what} ({v})"))
    }
}

/// One governed server: `SafetyGovernor<Twig>` over `SimPlatform`.
struct ServerLoop {
    platform: SimPlatform,
    gov: SafetyGovernor<Twig>,
    qos_ms: Vec<f64>,
    /// Gradient steps the benchmark takes per epoch itself (0: `observe`
    /// takes them).
    split_steps: u32,
    tally: Tally,
    digest: Fnv,
}

/// Interventions that replace the inner manager's decision.
fn overridden(a: &GovernorStats, b: &GovernorStats) -> bool {
    a.recoverable_errors != b.recoverable_errors
        || a.invalid_decisions != b.invalid_decisions
        || a.fallback_decisions != b.fallback_decisions
        || a.degraded_epochs != b.degraded_epochs
        || a.degraded_decisions != b.degraded_decisions
}

impl ServerLoop {
    fn new(server: Server, twig: Twig, cores: usize, dvfs: DvfsLadder) -> Result<Self, String> {
        let specs = twig.config().services.clone();
        let gov = SafetyGovernor::new(
            twig,
            GovernorConfig {
                services: specs.clone(),
                cores,
                dvfs,
                // Validation, fallback and degraded-telemetry routing stay
                // armed; the QoS watchdog does not preempt Twig. At its
                // default 5-epoch window it holds the static safe plan on
                // 90-97 % of timed epochs of both server workloads, and
                // the loop would time that plan instead of Twig.
                watchdog_epochs: u32::MAX,
                ..GovernorConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        Ok(ServerLoop {
            platform: SimPlatform::new(server),
            gov,
            qos_ms: specs.iter().map(|s| s.qos_ms).collect(),
            split_steps: 0,
            tally: Tally::default(),
            digest: Fnv::default(),
        })
    }

    fn warm_up(&mut self, epochs: u64) -> Result<(), String> {
        let mut off = Tracer::new(false);
        for _ in 0..epochs {
            self.epoch(&mut off).map_err(err("warm-up"))?;
        }
        Ok(())
    }

    /// Stops `observe` from taking gradient steps; the benchmark takes
    /// exactly the steps `observe` would have taken instead.
    fn split_learning(&mut self) {
        self.split_steps = self.gov.inner().config().train_steps_per_epoch.max(1);
        self.gov.inner_mut().set_pure_exploitation(true);
    }

    fn absorb(&mut self, r: &EpochReport) -> Result<(), String> {
        let h = &mut self.digest;
        for (svc, &qos) in r.services.iter().zip(&self.qos_ms) {
            for (what, v) in [
                ("p99_ms", svc.p99_ms),
                ("mean_ms", svc.mean_ms),
                ("offered_rps", svc.offered_rps),
            ] {
                check_finite(what, v)?;
                h.f64(v);
            }
            for &v in svc.pmcs.as_array() {
                check_finite("pmc", v)?;
            }
            h.u64(svc.completed as u64);
            h.u64(svc.dropped);
            h.u64(svc.core_count as u64);
            h.u64(u64::from(svc.freq.mhz()));
            h.u64(svc.migrated_cores as u64);
            if svc.offered_rps > 0.0 || svc.completed > 0 {
                self.tally.qos_pairs += 1;
                if svc.p99_ms <= qos {
                    self.tally.qos_met += 1;
                }
            }
        }
        for (what, v) in [
            ("power_w", r.power_w),
            ("true_power_w", r.true_power_w),
            ("energy_j", r.energy_j),
        ] {
            check_finite(what, v)?;
            h.f64(v);
        }
        h.u64(r.migrations as u64);
        self.tally.energy_j += r.true_power_w; // one simulated second per epoch
        self.tally.migrated_cores += r.migrations as u64;
        Ok(())
    }
}

impl Episode for ServerLoop {
    fn epoch(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let before = self.gov.stats();
        let safe = self.gov.in_safe_mode();

        let s = tr.begin("decide");
        let assignments = self.gov.decide().map_err(|e| e.to_string())?;
        tr.end(s);

        let s = tr.begin("platform_step");
        self.platform
            .actuate(&assignments)
            .map_err(|e| e.to_string())?;
        let report = self.platform.observe_epoch().map_err(|e| e.to_string())?;
        tr.end(s);

        let s = tr.begin("observe");
        self.gov.observe(&report).map_err(|e| e.to_string())?;
        tr.end(s);

        // Served by Twig's primary decision: not in safe mode, and the
        // governor replaced nothing on the way in or out.
        let primary = !safe && !overridden(&before, &self.gov.stats());
        if self.split_steps > 0 && primary {
            // Exactly the steps `Twig::observe` takes after storing a
            // primary epoch's transition. Any epoch where the two paths
            // would disagree is a governor intervention, which shows up
            // as a digest mismatch against the untraced run.
            for _ in 0..self.split_steps {
                let s = tr.begin("learn");
                let stepped = self
                    .gov
                    .inner_mut()
                    .agent_mut()
                    .train_step()
                    .map_err(|e| e.to_string())?;
                tr.end(s);
                self.tally.learn_calls += 1;
                self.tally.learn_batches += u64::from(stepped.is_some());
            }
        }
        self.absorb(&report)?;
        self.tally.epochs += 1;
        self.tally.failed += u64::from(!primary);
        Ok(())
    }

    fn start_timed(&mut self) {
        self.tally = Tally::default();
    }

    fn finish(self: Box<Self>) -> Result<(Tally, u64), String> {
        let mut h = self.digest;
        h.bytes(&self.gov.inner().checkpoint_bytes());
        Ok((self.tally, h.value()))
    }
}

/// Twig-C on the default 18-core socket: masstree at 0.5 and moses at 0.4
/// of their maximum load, with the figure experiments' agent.
fn pair_learn(seed: u64, split_learn: bool) -> Result<ServerLoop, String> {
    // Long enough an ε schedule that the timed phase is mid-learning, and
    // short enough that `make_twig` replays 3 gradient steps per epoch.
    const LEARN_EPOCHS: u64 = 2_000;
    // Fills the replay buffer past one batch, so every timed epoch learns.
    const WARM_UP: u64 = 80;
    let specs = vec![catalog::masstree(), catalog::moses()];
    let config = ServerConfig::default();
    let (cores, dvfs) = (config.cores, config.dvfs.clone());
    let mut server = Server::new(config, specs.clone(), mix(seed, 1)).map_err(|e| e.to_string())?;
    server
        .set_load_fraction(0, 0.5)
        .and_then(|()| server.set_load_fraction(1, 0.4))
        .map_err(|e| e.to_string())?;
    let twig =
        twig_bench::make_twig(specs, LEARN_EPOCHS, mix(seed, 2)).map_err(|e| e.to_string())?;
    let mut lp = ServerLoop::new(server, twig, cores, dvfs)?;
    lp.warm_up(WARM_UP)?;
    if split_learn {
        lp.split_learning();
    }
    Ok(lp)
}

/// The scenario runner's agent for a plain (unmetered) loop whose ε anneal
/// ends after `learn_epochs`. The runner's builder is private to
/// `twig-scenario`, so its shape is restated here.
fn scenario_agent(specs: Vec<ServiceSpec>, learn_epochs: u64, seed: u64) -> Result<Twig, String> {
    let learn_epochs = learn_epochs.max(1);
    twig_core::TwigBuilder::new()
        .services(specs)
        .epsilon(EpsilonSchedule::new(
            0.1,
            0.01,
            learn_epochs * 3 / 5,
            learn_epochs,
        ))
        .agent(MaBdqConfig {
            trunk_hidden: vec![32, 24],
            head_hidden: 16,
            batch_size: 16,
            buffer_capacity: 4096,
            target_update_every: 40,
            ..MaBdqConfig::default()
        })
        .reward(twig_core::RewardConfig {
            theta: 1.0,
            ..twig_core::RewardConfig::default()
        })
        .train_steps_per_epoch((10_000 / learn_epochs).clamp(1, 3) as u32)
        .action_stickiness(0.02)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())
}

/// The dozen synthetic services of `catalog-dozen.scn` on its 36-core
/// socket. The agent learns through the scenario's learning phase (its
/// epochs before the measurement window) and then only exploits.
fn dozen_exploit(seed: u64) -> Result<ServerLoop, String> {
    let text = std::fs::read_to_string(DOZEN_SCENARIO)
        .map_err(|e| format!("reading {DOZEN_SCENARIO}: {e}"))?;
    let scn = twig_scenario::parse(&text).map_err(|e| format!("{DOZEN_SCENARIO}: {e}"))?;
    let Topology::Server { cores, dvfs } = scn.topology else {
        return Err(format!("{DOZEN_SCENARIO}: expected a server topology"));
    };
    let ladder = DvfsLadder::new(dvfs.0, dvfs.1, dvfs.2).map_err(|e| e.to_string())?;
    let specs = scn
        .services
        .iter()
        .map(|s| s.spec.resolve(&s.id))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut server = Server::new(
        ServerConfig::with_platform(cores, ladder.clone()),
        specs.clone(),
        mix(seed, 1),
    )
    .map_err(|e| e.to_string())?;
    for (i, svc) in scn.services.iter().enumerate() {
        server
            .set_load_generator(i, svc.load.clone())
            .map_err(|e| e.to_string())?;
    }
    let learn_epochs = scn.warmup + scn.epochs - scn.measure;
    let twig = scenario_agent(specs, learn_epochs, mix(seed, 2))?;
    let mut lp = ServerLoop::new(server, twig, cores, ladder)?;
    lp.warm_up(learn_epochs)?;
    // Section V's steady state: gradient descent off, inference only, so
    // there is no learn step to split out.
    lp.gov.inner_mut().set_pure_exploitation(true);
    Ok(lp)
}

/// Twig-D: four 18-core nodes serving masstree, memcached and moses at 0.4
/// of their maximum load, replication 2, no faults, default federation.
struct ClusterLoop {
    cluster: Cluster,
    services: usize,
    tally: Tally,
    digest: Fnv,
    fed_mark: FedStats,
}

fn rounds_resolved(f: &FedStats) -> u64 {
    f.rounds_committed
        + f.rounds_rolled_back
        + f.rounds_quorum_failed
        + f.rounds_abandoned
        + f.rounds_aborted_offline
}

fn fed_delta(now: &FedStats, mark: &FedStats) -> FedStats {
    FedStats {
        rounds_started: now.rounds_started - mark.rounds_started,
        rounds_committed: now.rounds_committed - mark.rounds_committed,
        payloads_received: now.payloads_received - mark.payloads_received,
        payloads_accepted: now.payloads_accepted - mark.payloads_accepted,
        ..FedStats::default()
    }
}

/// Node-epochs shed below Twig's primary decision.
fn node_fallbacks(cluster: &Cluster) -> u64 {
    cluster
        .nodes()
        .iter()
        .map(|n| {
            let s = n.scheduler_stats();
            s.skip_inference_epochs + s.safe_fallback_epochs + s.actuation_timeouts
        })
        .sum()
}

fn cluster_federate(seed: u64) -> Result<ClusterLoop, String> {
    const WARM_UP: u64 = 40;
    let services = vec![catalog::masstree(), catalog::memcached(), catalog::moses()];
    let demand_rps = services
        .iter()
        .map(|s| (s.max_load_rps * 0.4).round() as u64)
        .collect();
    let node = NodePlatform {
        cores: 18,
        dvfs: DvfsLadder::default(),
    };
    let config = ClusterConfig {
        nodes: vec![node; 4],
        services: services.clone(),
        demand_rps,
        replication: 2,
        suspect_after_misses: 2,
        coordinator: CoordinatorConfig::default(),
        tuning: AgentTuning::default(),
        seed: mix(seed, 3),
    };
    let mut cluster = Cluster::new(config, ClusterFaultPlan::disabled(), Telemetry::disabled())
        .map_err(|e| e.to_string())?;
    cluster
        .enable_federation(FederateConfig::default(), FedFaultPlan::disabled())
        .map_err(|e| e.to_string())?;
    let mut lp = ClusterLoop {
        cluster,
        services: services.len(),
        tally: Tally::default(),
        digest: Fnv::default(),
        fed_mark: FedStats::default(),
    };
    let mut off = Tracer::new(false);
    for _ in 0..WARM_UP {
        lp.epoch(&mut off).map_err(err("warm-up"))?;
    }
    Ok(lp)
}

impl Episode for ClusterLoop {
    fn epoch(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let resolved = rounds_resolved(self.cluster.fed_stats());
        let stale = self.cluster.stats().stale_actuations;
        let fallbacks = node_fallbacks(&self.cluster);

        let s = tr.begin("cluster_step");
        let r = self.cluster.step().map_err(|e| e.to_string())?;
        tr.end(s);
        let fed_epoch = rounds_resolved(self.cluster.fed_stats()) > resolved;
        if fed_epoch {
            tr.rename(s, "fed_epoch");
        }

        if !r.conserved {
            return Err(format!("check failed: epoch {} not conserved", r.epoch));
        }
        if self.cluster.stats().stale_actuations != stale {
            return Err(format!(
                "check failed: stale actuation at epoch {}",
                r.epoch
            ));
        }
        let h = &mut self.digest;
        for v in [r.routed_rps, r.bounced_rps, r.deferred_rps, r.backlog_rps] {
            h.u64(v);
        }
        h.u64(r.total_replicas as u64);
        for svc in &r.services {
            check_finite("worst_p99_ms", svc.worst_p99_ms)?;
            h.f64(svc.worst_p99_ms);
            h.u64(svc.routed_rps);
            h.u64(u64::from(svc.qos_met));
            h.u64(svc.active_replicas as u64);
            if svc.routed_rps > 0 {
                self.tally.qos_pairs += 1;
                self.tally.qos_met += u64::from(svc.qos_met);
            }
        }
        let shed = node_fallbacks(&self.cluster) != fallbacks;
        self.tally.epochs += 1;
        self.tally.failed += u64::from(r.deferred_rps > 0 || shed);
        self.tally.routed_rps += r.routed_rps;
        self.tally.bounced_rps += r.bounced_rps;
        Ok(())
    }

    fn start_timed(&mut self) {
        self.tally = Tally::default();
        self.fed_mark = *self.cluster.fed_stats();
    }

    fn finish(self: Box<Self>) -> Result<(Tally, u64), String> {
        let f = *self.cluster.fed_stats();
        if !self.cluster.federation_idle() {
            return Err("check failed: a federation round is still collecting".into());
        }
        let screened = f.payloads_accepted
            + f.rejected_corrupt
            + f.rejected_shape
            + f.rejected_nonfinite
            + f.rejected_divergent
            + f.payloads_discarded;
        if f.payloads_received != screened {
            return Err(format!(
                "check failed: fed ladder books do not balance: received {} != {screened}",
                f.payloads_received
            ));
        }
        let mut tally = self.tally;
        tally.fed = fed_delta(&f, &self.fed_mark);
        if tally.fed.rounds_committed == 0 {
            return Err("check failed: no federation round committed".into());
        }
        let mut h = self.digest;
        for node in self.cluster.nodes() {
            for s in 0..self.services {
                match node.checkpoint_of(s) {
                    Some(bytes) => h.bytes(&bytes),
                    None => h.u64(0),
                }
            }
        }
        Ok((tally, h.value()))
    }
}
