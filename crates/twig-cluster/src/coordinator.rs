//! The cluster coordinator: liveness tracking, placement repair, and the
//! migration state machine.
//!
//! The coordinator is deliberately **not** in the data path. It watches
//! heartbeats, declares nodes dead after a miss threshold, asks its
//! [`PlacementPolicy`] for repairs, and drives replica spin-ups and state
//! transfers — but the balancer and the nodes keep serving without it.
//! Everything here tolerates the coordinator itself disappearing: a
//! blackout simply freezes this module's state until it returns.
//!
//! State transfer is the failure-prone part, so it is an explicit state
//! machine ([`Migration`]): spin-up delay → byte-metered transfer (which
//! can stall and, past a timeout, **rolls back** to zero bytes sent) →
//! handoff (where the payload can turn out corrupted and also rolls
//! back). Every rollback costs an attempt and a saturating
//! exponentially backed-off cooldown; when attempts are exhausted the
//! migration **downgrades to a cold start** — the replica still lands,
//! it just relearns instead of inheriting the donor's policy.

use crate::ClusterError;
use twig_core::{
    ClusterView, NodeId, PlacementAction, PlacementPolicy, ReplicatedPlacement, ServicePlacement,
};

/// Tunables for the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinatorConfig {
    /// Epochs a new replica spends spinning up before transfer begins.
    pub spinup_epochs: u64,
    /// State-transfer throughput, bytes per epoch.
    pub transfer_bytes_per_epoch: u64,
    /// Consecutive stalled epochs after which a transfer rolls back.
    pub stall_timeout_epochs: u64,
    /// Transfer attempts (including the first) before downgrading to a
    /// cold start.
    pub max_transfer_attempts: u32,
    /// Cooldown after the first rollback, epochs.
    pub initial_backoff_epochs: u64,
    /// Ceiling for the doubled cooldown, epochs.
    pub max_backoff_epochs: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            spinup_epochs: 2,
            transfer_bytes_per_epoch: 64 * 1024,
            stall_timeout_epochs: 3,
            max_transfer_attempts: 3,
            initial_backoff_epochs: 2,
            max_backoff_epochs: 16,
        }
    }
}

impl CoordinatorConfig {
    fn validate(&self) -> Result<(), ClusterError> {
        if self.transfer_bytes_per_epoch == 0 {
            return Err(ClusterError::invalid("transfer rate must be ≥ 1 B/epoch"));
        }
        if self.stall_timeout_epochs == 0 || self.max_transfer_attempts == 0 {
            return Err(ClusterError::invalid(
                "stall timeout and attempt budget must be ≥ 1",
            ));
        }
        Ok(())
    }
}

/// An in-flight replica spin-up / state transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct Migration {
    /// Stable id for handoff bookkeeping.
    pub id: u64,
    /// Service being placed.
    pub service: usize,
    /// Donor replica, if the spin-up transfers state.
    pub from: Option<NodeId>,
    /// Target node.
    pub to: NodeId,
    /// The checkpoint snapshot in flight (`None` = cold spin-up).
    pub payload: Option<Vec<u8>>,
    /// Payload size (0 when cold).
    pub total_bytes: u64,
    /// Bytes transferred so far this attempt.
    pub sent_bytes: u64,
    /// Spin-up epochs remaining before transfer starts.
    pub spinup_left: u64,
    /// Transfer attempts begun.
    pub attempts: u32,
    /// Cooldown epochs remaining after a rollback.
    pub cooldown_left: u64,
    /// Next cooldown duration (saturating-doubled per rollback).
    pub backoff_epochs: u64,
    /// Consecutive stalled epochs in the current attempt.
    pub stalled_epochs: u64,
    /// Decommission the donor replica once the target is live (a planned
    /// move rather than a repair).
    pub decommission_source: bool,
}

/// What [`Coordinator::advance_transfers`] observed for one migration
/// this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferEvent {
    /// One epoch of bytes moved.
    Progressed {
        /// Migration id.
        id: u64,
    },
    /// The transfer made no progress this epoch.
    Stalled {
        /// Migration id.
        id: u64,
    },
    /// Stall timeout hit: half-transferred state discarded, attempt
    /// burned, cooldown started.
    RolledBack {
        /// Migration id.
        id: u64,
    },
    /// Attempt budget exhausted: downgraded to a cold spin-up.
    Downgraded {
        /// Migration id.
        id: u64,
    },
    /// All bytes arrived: ready for handoff to the target node.
    Ready {
        /// Migration id.
        id: u64,
    },
}

/// How the cluster runtime resolved a handoff the coordinator handed out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoffResult {
    /// The target installed the replica (restored or cold).
    Installed,
    /// The delivered payload failed validation: roll back and retry.
    CorruptPayload,
    /// The target died before install: abandon (the next repair pass
    /// re-plans).
    TargetDead,
}

/// The cluster coordinator. See the module docs.
#[derive(Debug)]
pub struct Coordinator {
    config: CoordinatorConfig,
    /// Consecutive missed heartbeats before a node is declared dead —
    /// the balancer's suspicion threshold, so both channels agree.
    suspect_after_misses: u32,
    policy: ReplicatedPlacement,
    placement: ServicePlacement,
    miss: Vec<u32>,
    believed_alive: Vec<bool>,
    migrations: Vec<Migration>,
    next_id: u64,
}

impl Coordinator {
    /// Creates a coordinator for `services` services over `nodes` nodes
    /// at the given replication factor, declaring a node dead after
    /// `suspect_after_misses` consecutive missed heartbeats.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] for empty shapes, a zero
    /// threshold or a bad config.
    pub fn new(
        services: usize,
        nodes: usize,
        replication: usize,
        suspect_after_misses: u32,
        config: CoordinatorConfig,
    ) -> Result<Self, ClusterError> {
        if services == 0 || nodes == 0 {
            return Err(ClusterError::invalid(
                "coordinator needs services and nodes",
            ));
        }
        if suspect_after_misses == 0 {
            return Err(ClusterError::invalid("suspect_after_misses must be ≥ 1"));
        }
        config.validate()?;
        Ok(Coordinator {
            config,
            suspect_after_misses,
            policy: ReplicatedPlacement::new(replication),
            placement: ServicePlacement::new(services),
            miss: vec![0; nodes],
            believed_alive: vec![true; nodes],
            migrations: Vec::new(),
            next_id: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &CoordinatorConfig {
        &self.config
    }

    /// The authoritative placement.
    pub fn placement(&self) -> &ServicePlacement {
        &self.placement
    }

    /// Which nodes the coordinator currently believes are up.
    pub fn believed_alive(&self) -> &[bool] {
        &self.believed_alive
    }

    /// In-flight migrations.
    pub fn migrations(&self) -> &[Migration] {
        &self.migrations
    }

    /// Records a replica directly (cluster bootstrap, before any epoch
    /// runs).
    ///
    /// # Errors
    ///
    /// Propagates placement errors.
    pub fn admit_replica(&mut self, service: usize, node: NodeId) -> Result<(), ClusterError> {
        self.placement.add_replica(service, node)?;
        Ok(())
    }

    /// Records one epoch of heartbeats (`received[n]` = node `n`'s
    /// heartbeat reached the coordinator). Nodes crossing the miss
    /// threshold are declared dead, evicted from the placement, and
    /// returned with the number of replicas each eviction removed.
    pub fn record_heartbeats(&mut self, received: &[bool]) -> Vec<(NodeId, u64)> {
        let mut newly_dead = Vec::new();
        for (n, &ok) in received.iter().enumerate() {
            if ok {
                self.miss[n] = 0;
                self.believed_alive[n] = true;
            } else {
                self.miss[n] = self.miss[n].saturating_add(1);
                if self.believed_alive[n] && self.miss[n] >= self.suspect_after_misses {
                    self.believed_alive[n] = false;
                    let lost = self.placement.evict_node(NodeId(n)).len() as u64;
                    newly_dead.push((NodeId(n), lost));
                    // Abandon transfers touching the dead node: targets
                    // are gone; donors can no longer be snapshotted, but
                    // a snapshot already in flight stays valid.
                    self.migrations.retain(|m| m.to != NodeId(n));
                }
            }
        }
        newly_dead
    }

    /// Asks the policy for repairs against `view`. Decommissions of
    /// dead-node replicas are applied to the placement immediately;
    /// spin-ups are deduplicated against in-flight migrations and
    /// returned for the runtime to start (it must snapshot the donor and
    /// call [`begin_transfer`](Self::begin_transfer)).
    pub fn plan_repairs(&mut self, view: &ClusterView) -> Vec<PlacementAction> {
        let actions = self.policy.plan(view, &self.placement);
        let mut spinups = Vec::new();
        for action in actions {
            match action {
                PlacementAction::Decommission { service, node } => {
                    // Eviction usually already removed these; tolerate
                    // both orders.
                    let _ = self.placement.remove_replica(service, node);
                }
                PlacementAction::SpinUp { service, to, .. } => {
                    let in_flight = self
                        .migrations
                        .iter()
                        .any(|m| m.service == service && m.to == to);
                    if !in_flight && !self.placement.hosts(service, to) {
                        spinups.push(action);
                    }
                }
            }
        }
        spinups
    }

    /// Starts a spin-up / transfer. `payload` is the donor checkpoint
    /// snapshot (`None` = cold). Returns the migration id.
    pub fn begin_transfer(
        &mut self,
        service: usize,
        to: NodeId,
        from: Option<NodeId>,
        payload: Option<Vec<u8>>,
        decommission_source: bool,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let total_bytes = payload.as_ref().map_or(0, |p| p.len() as u64);
        self.migrations.push(Migration {
            id,
            service,
            from,
            to,
            payload,
            total_bytes,
            sent_bytes: 0,
            spinup_left: self.config.spinup_epochs,
            attempts: 1,
            cooldown_left: 0,
            backoff_epochs: self.config.initial_backoff_epochs,
            stalled_epochs: 0,
            decommission_source,
        });
        id
    }

    /// Advances every in-flight migration by one epoch. `stall_draw` is
    /// consulted once per actively-transferring migration, in migration
    /// order (the cluster wires it to the fault plan). Returns what
    /// happened, including which migrations are [`TransferEvent::Ready`]
    /// for handoff.
    pub fn advance_transfers<F: FnMut() -> bool>(
        &mut self,
        mut stall_draw: F,
    ) -> Vec<TransferEvent> {
        let mut events = Vec::new();
        for m in &mut self.migrations {
            if m.cooldown_left > 0 {
                m.cooldown_left -= 1;
                continue;
            }
            if m.spinup_left > 0 {
                m.spinup_left -= 1;
                continue;
            }
            if m.payload.is_none() || m.sent_bytes >= m.total_bytes {
                events.push(TransferEvent::Ready { id: m.id });
                continue;
            }
            if stall_draw() {
                m.stalled_epochs += 1;
                events.push(TransferEvent::Stalled { id: m.id });
                if m.stalled_epochs >= self.config.stall_timeout_epochs {
                    // Roll back the half-transferred state.
                    m.sent_bytes = 0;
                    m.stalled_epochs = 0;
                    events.push(TransferEvent::RolledBack { id: m.id });
                    if m.attempts >= self.config.max_transfer_attempts {
                        m.payload = None;
                        m.total_bytes = 0;
                        events.push(TransferEvent::Downgraded { id: m.id });
                    } else {
                        m.attempts += 1;
                        m.cooldown_left = m.backoff_epochs;
                        m.backoff_epochs =
                            (m.backoff_epochs * 2).min(self.config.max_backoff_epochs);
                    }
                }
                continue;
            }
            m.stalled_epochs = 0;
            m.sent_bytes = (m.sent_bytes + self.config.transfer_bytes_per_epoch).min(m.total_bytes);
            if m.sent_bytes >= m.total_bytes {
                events.push(TransferEvent::Ready { id: m.id });
            } else {
                events.push(TransferEvent::Progressed { id: m.id });
            }
        }
        events
    }

    /// Takes a ready migration out for handoff execution.
    pub fn take_handoff(&mut self, id: u64) -> Option<Migration> {
        let at = self.migrations.iter().position(|m| m.id == id)?;
        Some(self.migrations.remove(at))
    }

    /// Resolves a handoff the runtime executed.
    ///
    /// - [`HandoffResult::Installed`] commits the replica to the
    ///   placement (and removes the donor's for a planned move).
    /// - [`HandoffResult::CorruptPayload`] re-queues the migration with
    ///   the rollback/backoff/downgrade ladder.
    /// - [`HandoffResult::TargetDead`] abandons it.
    ///
    /// Returns `true` when the migration was downgraded to cold by this
    /// resolution.
    ///
    /// # Errors
    ///
    /// Propagates placement errors on commit.
    pub fn resolve_handoff(
        &mut self,
        mut migration: Migration,
        result: HandoffResult,
    ) -> Result<bool, ClusterError> {
        match result {
            HandoffResult::Installed => {
                self.placement
                    .add_replica(migration.service, migration.to)?;
                if migration.decommission_source {
                    if let Some(from) = migration.from {
                        let _ = self.placement.remove_replica(migration.service, from);
                    }
                }
                Ok(false)
            }
            HandoffResult::CorruptPayload => {
                migration.sent_bytes = 0;
                migration.stalled_epochs = 0;
                let downgraded = if migration.attempts >= self.config.max_transfer_attempts {
                    migration.payload = None;
                    migration.total_bytes = 0;
                    true
                } else {
                    migration.attempts += 1;
                    migration.cooldown_left = migration.backoff_epochs;
                    migration.backoff_epochs =
                        (migration.backoff_epochs * 2).min(self.config.max_backoff_epochs);
                    false
                };
                self.migrations.push(migration);
                Ok(downgraded)
            }
            HandoffResult::TargetDead => Ok(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_core::NodeView;

    fn coord() -> Coordinator {
        Coordinator::new(2, 3, 2, 2, CoordinatorConfig::default()).unwrap()
    }

    fn view(alive: &[bool], hosted: &[usize]) -> ClusterView {
        ClusterView {
            nodes: alive
                .iter()
                .zip(hosted)
                .enumerate()
                .map(|(i, (&alive, &hosted_replicas))| NodeView {
                    id: NodeId(i),
                    alive,
                    cores: 18,
                    max_freq_mhz: 2000,
                    hosted_replicas,
                })
                .collect(),
        }
    }

    #[test]
    fn death_declared_after_threshold_and_evicts() {
        let mut c = coord();
        c.admit_replica(0, NodeId(1)).unwrap();
        assert!(c.record_heartbeats(&[true, false, true]).is_empty());
        let dead = c.record_heartbeats(&[true, false, true]);
        assert_eq!(dead, vec![(NodeId(1), 1)]);
        assert!(!c.believed_alive()[1]);
        assert!(!c.placement().hosts(0, NodeId(1)));
        // Heartbeats resume (reboot): re-admitted.
        c.record_heartbeats(&[true, true, true]);
        assert!(c.believed_alive()[1]);
    }

    #[test]
    fn plan_repairs_dedupes_in_flight() {
        let mut c = coord();
        let v = view(&[true, true, true], &[0, 0, 0]);
        let spinups = c.plan_repairs(&v);
        assert_eq!(spinups.len(), 4); // 2 services × factor 2
                                      // Start them all; replanning proposes nothing new.
        for s in spinups {
            if let PlacementAction::SpinUp { service, to, from } = s {
                c.begin_transfer(service, to, from, None, false);
            }
        }
        assert!(c.plan_repairs(&v).is_empty());
    }

    #[test]
    fn cold_spinup_lands_after_spinup_delay() {
        let mut c = coord();
        let id = c.begin_transfer(0, NodeId(0), None, None, false);
        assert!(c.advance_transfers(|| false).is_empty()); // spinup 1
        assert!(c.advance_transfers(|| false).is_empty()); // spinup 2
        let ev = c.advance_transfers(|| false);
        assert_eq!(ev, vec![TransferEvent::Ready { id }]);
        let m = c.take_handoff(id).unwrap();
        assert!(m.payload.is_none());
        assert!(!c.resolve_handoff(m, HandoffResult::Installed).unwrap());
        assert!(c.placement().hosts(0, NodeId(0)));
    }

    #[test]
    fn transfer_progresses_by_rate_then_ready() {
        let mut c = Coordinator::new(
            1,
            2,
            1,
            2,
            CoordinatorConfig {
                spinup_epochs: 0,
                transfer_bytes_per_epoch: 10,
                ..CoordinatorConfig::default()
            },
        )
        .unwrap();
        let id = c.begin_transfer(0, NodeId(1), Some(NodeId(0)), Some(vec![0u8; 25]), true);
        assert_eq!(
            c.advance_transfers(|| false),
            vec![TransferEvent::Progressed { id }]
        );
        assert_eq!(
            c.advance_transfers(|| false),
            vec![TransferEvent::Progressed { id }]
        );
        assert_eq!(
            c.advance_transfers(|| false),
            vec![TransferEvent::Ready { id }]
        );
        let m = c.take_handoff(id).unwrap();
        assert_eq!(m.sent_bytes, 25);
        c.admit_replica(0, NodeId(0)).unwrap();
        c.resolve_handoff(m, HandoffResult::Installed).unwrap();
        // Planned move: donor decommissioned on commit.
        assert!(c.placement().hosts(0, NodeId(1)));
        assert!(!c.placement().hosts(0, NodeId(0)));
    }

    #[test]
    fn stall_timeout_rolls_back_with_saturating_backoff() {
        let mut c = Coordinator::new(
            1,
            2,
            1,
            2,
            CoordinatorConfig {
                spinup_epochs: 0,
                transfer_bytes_per_epoch: 4,
                stall_timeout_epochs: 3,
                max_transfer_attempts: 3,
                initial_backoff_epochs: 2,
                max_backoff_epochs: 4,
            },
        )
        .unwrap();
        let id = c.begin_transfer(0, NodeId(1), Some(NodeId(0)), Some(vec![0u8; 100]), false);
        // One good epoch, then stall to timeout.
        c.advance_transfers(|| false);
        assert_eq!(c.migrations()[0].sent_bytes, 4);
        let mut rolled = false;
        for _ in 0..3 {
            for e in c.advance_transfers(|| true) {
                if matches!(e, TransferEvent::RolledBack { .. }) {
                    rolled = true;
                }
            }
        }
        assert!(rolled);
        let m = &c.migrations()[0];
        assert_eq!(m.sent_bytes, 0); // half-transferred state discarded
        assert_eq!(m.attempts, 2);
        assert_eq!(m.cooldown_left, 2);
        assert_eq!(m.backoff_epochs, 4); // doubled
                                         // Exhaust attempts: downgrade to cold.
        let mut downgraded = false;
        for _ in 0..40 {
            for e in c.advance_transfers(|| true) {
                if matches!(e, TransferEvent::Downgraded { .. }) {
                    downgraded = true;
                }
            }
            if downgraded {
                break;
            }
        }
        assert!(downgraded);
        assert!(c.migrations()[0].payload.is_none());
        // A cold migration is immediately ready.
        let ev = c.advance_transfers(|| true);
        assert!(ev.contains(&TransferEvent::Ready { id }));
    }

    #[test]
    fn corrupt_handoff_requeues_then_downgrades() {
        let mut c = Coordinator::new(
            1,
            2,
            1,
            2,
            CoordinatorConfig {
                spinup_epochs: 0,
                transfer_bytes_per_epoch: 100,
                max_transfer_attempts: 2,
                ..CoordinatorConfig::default()
            },
        )
        .unwrap();
        let id = c.begin_transfer(0, NodeId(1), Some(NodeId(0)), Some(vec![7u8; 10]), false);
        c.advance_transfers(|| false);
        let m = c.take_handoff(id).unwrap();
        // First corruption: attempt 2, cooldown.
        assert!(!c.resolve_handoff(m, HandoffResult::CorruptPayload).unwrap());
        assert_eq!(c.migrations()[0].attempts, 2);
        assert!(c.migrations()[0].cooldown_left > 0);
        // Drain cooldown, transfer again, corrupt again: downgrade.
        let mut ready = None;
        for _ in 0..10 {
            for e in c.advance_transfers(|| false) {
                if let TransferEvent::Ready { id } = e {
                    ready = Some(id);
                }
            }
            if ready.is_some() {
                break;
            }
        }
        let m = c.take_handoff(ready.unwrap()).unwrap();
        assert!(c.resolve_handoff(m, HandoffResult::CorruptPayload).unwrap());
        assert!(c.migrations()[0].payload.is_none());
    }

    #[test]
    fn dead_target_abandons_migration() {
        let mut c = coord();
        let id = c.begin_transfer(0, NodeId(2), Some(NodeId(0)), Some(vec![1, 2, 3]), false);
        c.record_heartbeats(&[true, true, false]);
        c.record_heartbeats(&[true, true, false]);
        assert!(
            c.take_handoff(id).is_none(),
            "migration to dead node dropped"
        );
        assert!(c.migrations().is_empty());
    }

    #[test]
    fn config_validated() {
        for bad in [
            CoordinatorConfig {
                transfer_bytes_per_epoch: 0,
                ..CoordinatorConfig::default()
            },
            CoordinatorConfig {
                stall_timeout_epochs: 0,
                ..CoordinatorConfig::default()
            },
        ] {
            assert!(Coordinator::new(1, 1, 1, 2, bad).is_err());
        }
        assert!(Coordinator::new(0, 1, 1, 2, CoordinatorConfig::default()).is_err());
        assert!(Coordinator::new(1, 1, 1, 0, CoordinatorConfig::default()).is_err());
    }
}
