//! Under zero timing pressure, a scheduler-metered manager that trains
//! through budgeted micro-batches stays bit-identical — full checkpoint
//! bytes, every epoch — to a twin taking the monolithic `train_step` at the
//! same point of each epoch, and the scheduler misses no deadline and
//! sheds nothing.

use twig::manager::{
    ActuationDirective, EpochScheduler, InferenceDirective, LearnDirective, RewardConfig,
    SchedulerConfig, SchedulerStats, SimClock, Twig, TwigBuilder,
};
use twig::rl::{BudgetedProgress, EpsilonSchedule, MaBdqConfig};
use twig::sim::{
    catalog, EpochTimings, Server, ServerConfig, ServiceSpec, TimingFaultConfig, TimingFaultPlan,
};

/// Pure exploitation in `observe`, so the driver owns the learning phase.
fn build_twig(services: Vec<ServiceSpec>, epochs: u64, seed: u64) -> Twig {
    TwigBuilder::new()
        .services(services)
        .epsilon(EpsilonSchedule::new(0.1, 0.01, epochs * 3 / 5, epochs))
        .agent(MaBdqConfig {
            trunk_hidden: vec![32, 24],
            head_hidden: 16,
            batch_size: 16,
            buffer_capacity: 4096,
            target_update_every: 40,
            ..MaBdqConfig::default()
        })
        .reward(RewardConfig {
            theta: 1.0,
            ..RewardConfig::default()
        })
        .train_steps_per_epoch(1)
        .action_stickiness(0.02)
        .pure_exploitation(true)
        .seed(seed)
        .build()
        .unwrap()
}

/// Runs the twins for `epochs` epochs, asserting bit-identity every epoch
/// and a clean schedule; returns the scheduler stats and completed
/// budgeted steps.
fn twin_run(epochs: u64, seed: u64) -> (SchedulerStats, u64) {
    let specs = vec![catalog::masstree(), catalog::moses()];
    let mut server_a = Server::new(ServerConfig::default(), specs.clone(), seed).unwrap();
    let mut server_b = Server::new(ServerConfig::default(), specs.clone(), seed).unwrap();
    for srv in [&mut server_a, &mut server_b] {
        srv.set_load_fraction(0, 0.4).unwrap();
        srv.set_load_fraction(1, 0.4).unwrap();
    }
    // Base latencies only: the plan draws nothing random, so the twin
    // server without one sees an identical workload.
    let calm = TimingFaultConfig {
        pmc_base_ms: 5.0,
        inference_base_ms: 10.0,
        learn_chunk_base_ms: 20.0,
        actuation_base_ms: 5.0,
        ..TimingFaultConfig::default()
    };
    server_a.set_timing_plan(TimingFaultPlan::new(calm, seed ^ 0x7171_F0F0).unwrap());

    let mut twig_a = build_twig(specs.clone(), epochs, seed);
    let mut twig_b = build_twig(specs, epochs, seed);
    let clock = SimClock::new();
    let mut sched = EpochScheduler::new(SchedulerConfig::default(), clock.clone()).unwrap();
    let mut steps = 0;

    for epoch in 0..epochs {
        let t = server_a.epoch_timings().unwrap_or_else(EpochTimings::zero);
        sched.begin_epoch();

        clock.advance(t.pmc_read_ms);
        assert!(sched.pmc_window_fresh(t.pmc_read_ms));
        assert_eq!(sched.inference_directive(), InferenceDirective::Run);
        clock.advance(t.inference_ms);
        let a_assign = twig_a.decide().unwrap();
        let b_assign = twig_b.decide().unwrap();

        // A: budgeted micro-batches under chunk grants. B: one monolithic
        // step at the same point in the epoch.
        loop {
            match sched.learn_directive() {
                LearnDirective::Defer => panic!("zero-pressure schedule deferred learning"),
                LearnDirective::Chunk => {
                    clock.advance(t.learn_chunk_ms);
                    match twig_a.agent_mut().train_step_budgeted(1).unwrap() {
                        BudgetedProgress::Done(_) => {
                            steps += 1;
                            break;
                        }
                        BudgetedProgress::InProgress { .. } => {}
                        BudgetedProgress::NotReady => break,
                    }
                }
            }
        }
        let _ = twig_b.agent_mut().train_step().unwrap();

        clock.advance(t.actuation_attempt_ms);
        assert_eq!(
            sched.actuation_attempt(t.actuation_attempt_ms),
            ActuationDirective::Applied
        );
        let ra = server_a.step(&a_assign).unwrap();
        let rb = server_b.step(&b_assign).unwrap();
        assert!(
            ra.services
                .iter()
                .all(|s| s.p99_ms.is_finite() && s.p99_ms >= 0.0),
            "non-finite p99 at epoch {epoch}"
        );
        twig_a.observe(&ra).unwrap();
        twig_b.observe(&rb).unwrap();

        sched.end_epoch();
        let rem = sched.remaining_ms();
        if rem > 0.0 {
            clock.advance(rem);
        }
        assert!(
            twig_a.checkpoint_bytes() == twig_b.checkpoint_bytes(),
            "budgeted training diverged from the monolithic step at epoch {epoch}"
        );
    }

    let stats = sched.stats();
    assert_eq!(stats.misses, 0, "zero-pressure run missed a deadline");
    assert_eq!(stats.stale_windows, 0);
    assert_eq!(
        stats.defer_learn_epochs + stats.skip_inference_epochs + stats.safe_fallback_epochs,
        0,
        "zero-pressure run shed load"
    );
    (stats, steps)
}

#[test]
fn budgeted_training_matches_monolithic_step_under_zero_pressure() {
    // The timing suite's zero-pressure schedule at seed 42 (fleet unit 0).
    let (stats, steps) = twin_run(30, 13_679_457_532_755_275_413);
    assert_eq!((stats.epochs, stats.learn_chunks, steps), (30, 44, 14));
    assert_eq!(stats.actuation_retries, 0);
    assert_eq!(stats.max_ladder_depth, 0);
}

#[test]
fn budgeted_twin_holds_at_another_seed_and_length() {
    let (_, steps) = twin_run(24, 7);
    assert!(steps > 0, "the proof never actually trained");
}
