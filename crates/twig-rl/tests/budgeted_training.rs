//! Bit-identity proof for the training step's two entry points.
//!
//! `MaBdq` has one gradient step, split into a begin phase, one head pass
//! per agent and an epilogue. `train_step` runs all of it in one call;
//! `train_step_budgeted` runs it in resumable micro-batches for the deadline
//! scheduler, with eval-mode inference and `observe` between chunks. These
//! tests pin the contract that makes that safe: a budgeted step driven to
//! completion produces **bit-identical** weights, optimizer moments, replay
//! priorities and RNG streams to one `train_step` — also through a
//! quarantine trip — and any operation that would invalidate the deferred
//! state (a full step, a checkpoint restore, a transfer reset, a quarantine
//! reconfiguration) aborts it cleanly.
//!
//! Because both entry points share one body, their equality alone no longer
//! proves the arithmetic is unchanged; `train_step_matches_golden_trajectory`
//! pins the absolute trajectory of `train_step` on three configurations.

use std::ops::Range;
use twig_rl::{
    encode_checkpoint, BudgetedProgress, MaBdq, MaBdqConfig, MultiTransition, QuarantineConfig,
    TrainStats,
};
use twig_stats::rng::{Rng, Xoshiro256};

const AGENTS: usize = 3;
const STATE_DIM: usize = 3;

/// Dropout deliberately non-zero: the trunk forward is recomputed in the
/// budgeted epilogue, so identical masks (via the RNG snapshot) are exactly
/// what is under test.
fn config() -> MaBdqConfig {
    MaBdqConfig {
        agents: AGENTS,
        state_dim: STATE_DIM,
        branches: vec![4, 3],
        trunk_hidden: vec![16, 12],
        head_hidden: 8,
        dropout: 0.25,
        lr: 0.01,
        gamma: 0.9,
        batch_size: 8,
        target_update_every: 7,
        buffer_capacity: 4096,
        per_beta_steps: 50,
        seed: 7,
        ..MaBdqConfig::default()
    }
}

fn transition(rng: &mut Xoshiro256) -> MultiTransition {
    shaped_transition(AGENTS, STATE_DIM, &[4, 3], rng)
}

fn shaped_transition(
    agents: usize,
    state_dim: usize,
    branches: &[usize],
    rng: &mut Xoshiro256,
) -> MultiTransition {
    MultiTransition {
        states: (0..agents)
            .map(|_| {
                (0..state_dim)
                    .map(|_| rng.range_f64(-1.0, 1.0) as f32)
                    .collect()
            })
            .collect(),
        actions: (0..agents)
            .map(|_| branches.iter().map(|&n| rng.range_usize(0, n)).collect())
            .collect(),
        rewards: (0..agents)
            .map(|_| rng.range_f64(-0.5, 0.5) as f32)
            .collect(),
        next_states: (0..agents)
            .map(|_| {
                (0..state_dim)
                    .map(|_| rng.range_f64(-1.0, 1.0) as f32)
                    .collect()
            })
            .collect(),
    }
}

/// The file's K=3 config with quarantine armed and short enough warm-up and
/// probation that a poisoned agent trips, serves probation and is re-admitted
/// within a 25-step window.
fn quarantine_config() -> MaBdqConfig {
    MaBdqConfig {
        quarantine: QuarantineConfig {
            warmup_steps: 4,
            probation_steps: 6,
            snapshot_every: 3,
            ..QuarantineConfig::default()
        }
        .armed(),
        ..config()
    }
}

/// Observations (counted from the first one after the prefill) whose agent-0
/// reward is 1e20: finite, so `observe` accepts it, but its squared TD error
/// overflows f32, so the NaN guard skips the step that samples it and the
/// quarantine scan trips agent 0.
const POISON: Range<usize> = 4..7;
const NO_POISON: Range<usize> = 0..0;

/// Draws the next observation; agent 0's reward is 1e20 when `index` is in
/// `poison`.
fn fed_transition(
    cfg: &MaBdqConfig,
    poison: &Range<usize>,
    index: usize,
    rng: &mut Xoshiro256,
) -> MultiTransition {
    let mut t = shaped_transition(cfg.agents, cfg.state_dim, &cfg.branches, rng);
    if poison.contains(&index) {
        t.rewards[0] = 1.0e20;
    }
    t
}

fn drive_to_done(agent: &mut MaBdq, max_agents: usize, evals_between: bool) -> BudgetedProgress {
    let probe = vec![vec![0.1_f32; STATE_DIM]; AGENTS];
    loop {
        match agent.train_step_budgeted(max_agents).unwrap() {
            BudgetedProgress::InProgress { .. } => {
                if evals_between {
                    // Eval-mode inference between chunks: clobbers the Mlp
                    // scratch buffers and every Dense activation cache, but
                    // never advances a dropout RNG stream.
                    let q = agent.q_values(&probe).unwrap();
                    assert!(q.iter().flatten().flatten().all(|v| v.is_finite()));
                }
            }
            done => return done,
        }
    }
}

/// Runs a full-step agent and a budgeted twin (one agent per chunk, eval
/// inference between chunks) for 25 steps on `cfg`, asserting equal stats
/// and checkpoint bytes after every step.
fn twin_run(cfg: MaBdqConfig, poison: Range<usize>) -> (MaBdq, MaBdq) {
    let mut full = MaBdq::new(cfg.clone()).unwrap();
    let mut budgeted = MaBdq::new(cfg.clone()).unwrap();
    let mut rng_a = Xoshiro256::seed_from_u64(9);
    let mut rng_b = Xoshiro256::seed_from_u64(9);
    for _ in 0..16 {
        full.observe(transition(&mut rng_a)).unwrap();
        budgeted.observe(transition(&mut rng_b)).unwrap();
    }
    for step in 0..25 {
        let stats_full = full.train_step().unwrap().expect("buffer warm");
        let done = drive_to_done(&mut budgeted, 1, true);
        let BudgetedProgress::Done(stats_b) = done else {
            panic!("budgeted step never completed: {done:?}");
        };
        assert_eq!(stats_full, stats_b, "stats diverged at step {step}");
        assert_eq!(
            encode_checkpoint(&full.save_checkpoint()),
            encode_checkpoint(&budgeted.save_checkpoint()),
            "weights/moments/priorities diverged at step {step}"
        );
        // Keep the observation streams aligned between steps (the window
        // crosses a target sync at step 7 and PER β keeps annealing).
        full.observe(fed_transition(&cfg, &poison, step, &mut rng_a))
            .unwrap();
        budgeted
            .observe(fed_transition(&cfg, &poison, step, &mut rng_b))
            .unwrap();
    }
    (full, budgeted)
}

#[test]
fn budgeted_step_is_bit_identical_to_train_step() {
    let (full, budgeted) = twin_run(config(), NO_POISON);
    assert_eq!(full.steps(), 25);
    assert_eq!(budgeted.steps(), 25);

    // Through a quarantine trip: a skipped step, a rollback, probation with
    // a frozen agent skipped by every chunk, and a re-admission.
    let (full, budgeted) = twin_run(quarantine_config(), POISON);
    let stats = full.quarantine_stats();
    assert!(stats.trips >= 1 && stats.readmissions >= 1, "{stats:?}");
    assert!(full.skipped_steps() >= 1);
    assert_eq!(stats, budgeted.quarantine_stats());
    assert_eq!(full.skipped_steps(), budgeted.skipped_steps());
}

#[test]
fn one_call_with_large_budget_completes_in_one_go() {
    let mut full = MaBdq::new(config()).unwrap();
    let mut budgeted = MaBdq::new(config()).unwrap();
    let mut rng_a = Xoshiro256::seed_from_u64(3);
    let mut rng_b = Xoshiro256::seed_from_u64(3);
    for _ in 0..12 {
        full.observe(transition(&mut rng_a)).unwrap();
        budgeted.observe(transition(&mut rng_b)).unwrap();
    }
    let stats_full = full.train_step().unwrap().expect("buffer warm");
    match budgeted.train_step_budgeted(usize::MAX).unwrap() {
        BudgetedProgress::Done(stats) => assert_eq!(stats, stats_full),
        other => panic!("expected Done in a single call, got {other:?}"),
    }
    // max_agents == 0 is clamped to 1 — progress is always made.
    budgeted.observe(transition(&mut rng_b)).unwrap();
    match budgeted.train_step_budgeted(0).unwrap() {
        BudgetedProgress::InProgress {
            agents_done,
            agents_total,
        } => {
            assert_eq!((agents_done, agents_total), (1, AGENTS));
        }
        other => panic!("expected InProgress, got {other:?}"),
    }
    // Resuming with an unbounded budget finishes the step.
    assert!(matches!(
        budgeted.train_step_budgeted(usize::MAX).unwrap(),
        BudgetedProgress::Done(_)
    ));
}

#[test]
fn underfilled_buffer_reports_not_ready() {
    let mut agent = MaBdq::new(config()).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(1);
    for _ in 0..3 {
        agent.observe(transition(&mut rng)).unwrap();
    }
    assert_eq!(
        agent.train_step_budgeted(1).unwrap(),
        BudgetedProgress::NotReady
    );
    assert!(!agent.budgeted_step_in_flight());
}

#[test]
fn full_train_step_aborts_inflight_budgeted_step() {
    let mut agent = MaBdq::new(config()).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(5);
    for _ in 0..12 {
        agent.observe(transition(&mut rng)).unwrap();
    }
    assert!(matches!(
        agent.train_step_budgeted(1).unwrap(),
        BudgetedProgress::InProgress {
            agents_done: 1,
            agents_total: AGENTS
        }
    ));
    assert!(agent.budgeted_step_in_flight());
    // The full step discards the partial gradients and samples afresh.
    let stats = agent.train_step().unwrap().expect("buffer warm");
    assert!(!stats.skipped && stats.grad_norm.is_finite());
    assert!(!agent.budgeted_step_in_flight());
    assert_eq!(agent.steps(), 1);
    // A later budgeted step still drives cleanly to completion.
    match drive_to_done(&mut agent, 2, false) {
        BudgetedProgress::Done(s) => assert!(s.grad_norm.is_finite()),
        other => panic!("expected Done, got {other:?}"),
    }
    assert_eq!(agent.steps(), 2);
}

#[test]
fn checkpoint_restore_aborts_inflight_budgeted_step() {
    let mut agent = MaBdq::new(config()).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(6);
    for _ in 0..12 {
        agent.observe(transition(&mut rng)).unwrap();
    }
    let ckpt = agent.save_checkpoint();
    assert!(matches!(
        agent.train_step_budgeted(1).unwrap(),
        BudgetedProgress::InProgress { .. }
    ));
    agent.load_checkpoint(&ckpt).unwrap();
    assert!(!agent.budgeted_step_in_flight());
    assert_eq!(agent.steps(), 0);
    // transfer_reset likewise.
    assert!(matches!(
        agent.train_step_budgeted(1).unwrap(),
        BudgetedProgress::InProgress { .. }
    ));
    agent.transfer_reset();
    assert!(!agent.budgeted_step_in_flight());
    // set_quarantine likewise: the rebuilt guards would otherwise seed
    // their baselines from signals the step never gathered for the agents
    // it had already passed.
    assert!(matches!(
        agent.train_step_budgeted(1).unwrap(),
        BudgetedProgress::InProgress { .. }
    ));
    agent
        .set_quarantine(QuarantineConfig::default().armed())
        .unwrap();
    assert!(!agent.budgeted_step_in_flight());
}

#[test]
fn observe_between_chunks_survives_replay_overwrites() {
    // A tiny ring buffer plus pushes between every chunk: sampled slots are
    // overwritten mid-step, so the step must train from its own copies (the
    // actions it sampled, not whatever landed in the slot afterwards) and
    // never panic or index out of range.
    let cfg = MaBdqConfig {
        buffer_capacity: 9,
        ..config()
    };
    let mut agent = MaBdq::new(cfg).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(8);
    for _ in 0..9 {
        agent.observe(transition(&mut rng)).unwrap();
    }
    for _ in 0..10 {
        loop {
            match agent.train_step_budgeted(1).unwrap() {
                BudgetedProgress::InProgress { .. } => {
                    for _ in 0..3 {
                        agent.observe(transition(&mut rng)).unwrap();
                    }
                }
                BudgetedProgress::Done(stats) => {
                    assert!(stats.loss.is_finite() && stats.grad_norm.is_finite());
                    break;
                }
                BudgetedProgress::NotReady => panic!("buffer was warm"),
            }
        }
    }
    assert_eq!(agent.steps(), 10);
}

/// FNV-1a (64-bit) over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One `train_step` of a golden trajectory: the FNV-1a digest of the
/// encoded checkpoint after the step, then the bit patterns of the step's
/// loss, mean |TD| and gradient norm, then whether the NaN guard skipped it.
type GoldenStep = (u64, [u32; 3], bool);

/// Prefills `cfg`'s agent, then runs 40 `train_step` calls, observing one
/// transition after each, and returns each step's digest.
fn trajectory(cfg: MaBdqConfig, prefill: usize, poison: Range<usize>) -> (MaBdq, Vec<GoldenStep>) {
    trajectory_with(cfg, prefill, poison, |_, _, _| {})
}

/// [`trajectory`] with a hook that runs after each step's observation and
/// may mutate the agent; it gets the step index and the trajectory's RNG.
fn trajectory_with(
    cfg: MaBdqConfig,
    prefill: usize,
    poison: Range<usize>,
    mut between: impl FnMut(&mut MaBdq, usize, &mut Xoshiro256),
) -> (MaBdq, Vec<GoldenStep>) {
    let mut agent = MaBdq::new(cfg.clone()).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(21);
    for _ in 0..prefill {
        agent
            .observe(fed_transition(&cfg, &NO_POISON, 0, &mut rng))
            .unwrap();
    }
    let mut out = Vec::new();
    for step in 0..40 {
        let TrainStats {
            loss,
            mean_abs_td,
            grad_norm,
            skipped,
        } = agent.train_step().unwrap().expect("buffer warm");
        out.push((
            fnv1a(&encode_checkpoint(&agent.save_checkpoint())),
            [loss.to_bits(), mean_abs_td.to_bits(), grad_norm.to_bits()],
            skipped,
        ));
        agent
            .observe(fed_transition(&cfg, &poison, step, &mut rng))
            .unwrap();
        between(&mut agent, step, &mut rng);
    }
    (agent, out)
}

fn assert_golden(name: &str, actual: &[GoldenStep], golden: &[GoldenStep; 40]) {
    for (step, (a, g)) in actual.iter().zip(golden).enumerate() {
        assert_eq!(a, g, "{name}: trajectory diverged at step {step}");
    }
}

#[test]
fn train_step_matches_golden_trajectory() {
    // (a) K=3 with dropout 0.25; target syncs every 7 steps.
    let (_, a) = trajectory(config(), 16, NO_POISON);
    assert_golden("k3-dropout", &a, &GOLDEN_K3_DROPOUT);

    // (b) K=12 on the default network shapes.
    let k12 = MaBdqConfig {
        agents: 12,
        buffer_capacity: 4096,
        seed: 11,
        ..MaBdqConfig::default()
    };
    let (_, b) = trajectory(k12, 80, NO_POISON);
    assert_golden("k12-default", &b, &GOLDEN_K12_DEFAULT);

    // (c) Quarantine armed, agent 0 poisoned: the window holds a skipped
    // step, a trip, probation and a re-admission.
    let (agent, c) = trajectory(quarantine_config(), 16, POISON);
    let stats = agent.quarantine_stats();
    assert!(stats.trips >= 1 && stats.readmissions >= 1, "{stats:?}");
    assert!(c.iter().any(|&(_, _, skipped)| skipped));
    assert_golden("k3-quarantine", &c, &GOLDEN_K3_QUARANTINE);
}

#[test]
fn wrapped_replay_matches_golden_trajectory() {
    // (d) A 24-slot ring buffer fed three transitions per step: it wraps
    // about every eight steps, so sampled slots are overwritten all run
    // long and a minibatch of 8 from 24 often samples a slot twice. The
    // target net syncs every 5 steps; a checkpoint saved after step 11 is
    // restored after step 22 (rewinding weights and the step clock), and a
    // transfer reset after step 32 re-draws every head's last layer. Each of
    // these rewrites target weights or replay slots under the step, and the
    // restore and the reset both land between syncs, after steps that drew
    // on the current target weights.
    let cfg = MaBdqConfig {
        buffer_capacity: 24,
        target_update_every: 5,
        ..config()
    };
    let mut saved = None;
    let (agent, d) = trajectory_with(cfg.clone(), 16, NO_POISON, |agent, step, rng| {
        for _ in 0..2 {
            agent
                .observe(fed_transition(&cfg, &NO_POISON, 0, rng))
                .unwrap();
        }
        match step {
            11 => saved = Some(agent.save_checkpoint()),
            22 => agent
                .load_checkpoint(saved.as_ref().expect("saved at step 11"))
                .unwrap(),
            32 => agent.transfer_reset(),
            _ => {}
        }
    });
    assert_eq!(agent.buffer_len(), 24);
    assert_eq!(agent.steps(), 40 - (22 - 11));
    assert_golden("k3-wrap", &d, &GOLDEN_K3_WRAP);
}

/// Golden trajectory (a), generated on the implementation with separate
/// full-step and budgeted-step bodies.
#[rustfmt::skip]
const GOLDEN_K3_DROPOUT: [GoldenStep; 40] = [
    (0x9542aad2fa403841, [0x3fc0a26a, 0x3f6e86d6, 0x4002c956], false),
    (0x559fc06a54cbf41f, [0x40220d93, 0x3f968ac6, 0x40877f39], false),
    (0x368fc6b638995dc7, [0x3fb1c479, 0x3f798528, 0x4027f246], false),
    (0x76aabbdaa94d8f26, [0x3fa79446, 0x3f6bb6c1, 0x400ec1a7], false),
    (0xa289a4997acd9a69, [0x3fa8251b, 0x3f729a14, 0x3ffc2307], false),
    (0xa4bee9296105c1e1, [0x3f84b4d8, 0x3f6264fd, 0x3fdb2e33], false),
    (0x55f28b4cb47abdbf, [0x3f73719e, 0x3f559bc9, 0x3fc4fd28], false),
    (0xc4fb157fc37ae1f2, [0x3f284537, 0x3f3a51e5, 0x3f9e4757], false),
    (0xfd0c80f477171d9a, [0x3f24710d, 0x3f2edda3, 0x3f972002], false),
    (0x2117a96c6df05c13, [0x3f6f3dcc, 0x3f55ec6e, 0x4019c7b2], false),
    (0xb32a63316e9e553c, [0x3f2eab0d, 0x3f3b668f, 0x3f93712c], false),
    (0x071a9243d2313216, [0x3f1d9ead, 0x3f2ea68e, 0x3f8af74f], false),
    (0x4a04c91acdce1b64, [0x3e943451, 0x3f11fc7f, 0x3f270413], false),
    (0x3744a324ad2df868, [0x3ecc326a, 0x3f178172, 0x3f87057e], false),
    (0xa619753393f7fdb7, [0x3f1bf62d, 0x3f3ba125, 0x3fc7c66f], false),
    (0x92cdc4493d9ecc29, [0x3eeec54a, 0x3f065f23, 0x3f869bce], false),
    (0xc9566a3500148dde, [0x3f366e40, 0x3f3785c0, 0x3fd82bd2], false),
    (0xff315d210917b737, [0x3ee47244, 0x3f17164c, 0x3f8fc4d7], false),
    (0x9f455b3a5fc55e2e, [0x3e86631e, 0x3ef5b05d, 0x3f3cba16], false),
    (0x8b5f1db60814b6b7, [0x3eaa8465, 0x3f106126, 0x3f5380c2], false),
    (0xb5750fb770dfc19b, [0x3ec864e7, 0x3f1acaf1, 0x3f2f02de], false),
    (0x5149dee39548f192, [0x3e688f8e, 0x3edecc03, 0x3f1fd408], false),
    (0xced97ac4070f55b3, [0x3e5fc1ee, 0x3ec91257, 0x3f0196c6], false),
    (0x3d9c098a9005cc94, [0x3e929f85, 0x3ef63169, 0x3f6076c6], false),
    (0xe1fc305bed625a31, [0x3e13fc2b, 0x3eb614de, 0x3ea12188], false),
    (0x355147663eb7d090, [0x3e75eec4, 0x3ef9192e, 0x3f30c10c], false),
    (0x96642f36e9ece814, [0x3e16b323, 0x3ecd70e2, 0x3ec2424a], false),
    (0x86515ecebb8123da, [0x3e19f00f, 0x3ed63559, 0x3e9a3d31], false),
    (0xa6db0c69b5ea8da2, [0x3e49e457, 0x3edcc83b, 0x3eb72f5a], false),
    (0xad479f40a4ffa63d, [0x3e334a4c, 0x3ed8f06d, 0x3eaab529], false),
    (0x1d72a5294eb82285, [0x3e0f2c2d, 0x3ec016fd, 0x3e91e06a], false),
    (0xfe978200bf76a187, [0x3e1e0e12, 0x3ed81042, 0x3eaa5e73], false),
    (0x7257e37adb1c2ef2, [0x3e0fae1f, 0x3ec074d5, 0x3ecdf00c], false),
    (0x0688073f1e9389a5, [0x3deb0bfc, 0x3ea3ef74, 0x3e9358d2], false),
    (0x87cddd77b99b31c8, [0x3dfebe3f, 0x3ec03fd0, 0x3e9d277c], false),
    (0xf54a9bb60dc3a17f, [0x3e003777, 0x3eb21d32, 0x3e8c9279], false),
    (0xf468aba1bf3e5a08, [0x3e2885b4, 0x3ecab7fe, 0x3ec48b9c], false),
    (0x3267764db71f1daf, [0x3dcc1476, 0x3ebcc8e3, 0x3e520fbe], false),
    (0xaf79c9d16f9db061, [0x3dff72a1, 0x3e9f5de9, 0x3e750f49], false),
    (0x1068ac7ee94d93d2, [0x3e19a461, 0x3ed1071a, 0x3ec1ced3], false),
];

/// Golden trajectory (b), generated likewise.
#[rustfmt::skip]
const GOLDEN_K12_DEFAULT: [GoldenStep; 40] = [
    (0x4417dfd1c9ee83ab, [0x40343154, 0x3fb11026, 0x40533d39], false),
    (0x67bfc5189d654aac, [0x3fe58820, 0x3f8f1c14, 0x40048411], false),
    (0x6a8a135d866d35c8, [0x3f97d4fe, 0x3f6e778f, 0x3f97903d], false),
    (0x3165b04833aed6b1, [0x3f67bb20, 0x3f4fcee8, 0x3f560faf], false),
    (0x88400346e6f7cdcc, [0x3f66b87d, 0x3f4bfdc0, 0x3f661cce], false),
    (0x83d0a1ff2b371eb0, [0x3f5624e2, 0x3f4ae101, 0x3f8f5eb0], false),
    (0x3b5ef9c58f0151c3, [0x3f58000a, 0x3f459875, 0x3f9184ca], false),
    (0x35e307b346b30903, [0x3f5a9053, 0x3f45d237, 0x3fa34de1], false),
    (0x2295ebca5c1546d6, [0x3f400ab7, 0x3f3fdaf6, 0x3f8594e0], false),
    (0xa1bb0f2d8c88fb9a, [0x3f2af02b, 0x3f2e95ba, 0x3f3c1336], false),
    (0x6e445cacd7f3f643, [0x3f0f071e, 0x3f205f15, 0x3f0ec6a3], false),
    (0x4eb45e98ed1551ad, [0x3f0e8062, 0x3f20d84a, 0x3f08401c], false),
    (0xa551f2259d5ccd5c, [0x3f0ded82, 0x3f202802, 0x3eedb61a], false),
    (0x2ef14a4320515f75, [0x3f0a58a6, 0x3f1bc258, 0x3eeccb7f], false),
    (0x0a2a806efdd0bf3b, [0x3ef55038, 0x3f16bb48, 0x3ebc541b], false),
    (0xecc3021f145cc93c, [0x3ee4354d, 0x3f12d49f, 0x3eb72582], false),
    (0xcddcc604f531ce14, [0x3ed951c0, 0x3f1227b3, 0x3ebfb9cc], false),
    (0xa1b077735b9691d6, [0x3ef77a0c, 0x3f1b4ee5, 0x3ec9a194], false),
    (0x392e57499584c865, [0x3ee0383c, 0x3f12c96d, 0x3eaf082a], false),
    (0xed6690515e5f901c, [0x3ee53e0c, 0x3f111fe2, 0x3eb07323], false),
    (0x864fa9fd133d25d2, [0x3ec90d18, 0x3f0a189f, 0x3eaa522b], false),
    (0x22576ff0520f529b, [0x3ec7f8d5, 0x3f06505e, 0x3ea7b979], false),
    (0x897aa8cbd20843ad, [0x3ed977fc, 0x3f0f6cc5, 0x3ea10425], false),
    (0xaf18a97a4c8b8e62, [0x3ed55ae3, 0x3f0b0057, 0x3e8dda59], false),
    (0xd29d91abba9c5b8c, [0x3ecd531c, 0x3f095293, 0x3e8f96e6], false),
    (0x924d668c35465cb7, [0x3ec9cd5a, 0x3f0a7953, 0x3e86c4da], false),
    (0x771c29ea3775d789, [0x3ecb45b0, 0x3f0cfee6, 0x3e930dbb], false),
    (0x243cb0a374e476b9, [0x3ec30a80, 0x3f05cd6f, 0x3e9b52ef], false),
    (0x4497bbb63f5f5675, [0x3ec7285d, 0x3f050633, 0x3e87c21d], false),
    (0x4b151d162a4ca843, [0x3eb8fa1e, 0x3f021043, 0x3e848a20], false),
    (0x09c66a98faf9b6ba, [0x3ecc5c21, 0x3f074fd5, 0x3ebb7d6b], false),
    (0xadcdf7579b0a6c3c, [0x3ebeb517, 0x3f02e69b, 0x3ea52a5e], false),
    (0xebbb93145ff908ca, [0x3e8f4e87, 0x3ee74793, 0x3e7f612f], false),
    (0xe77e78a616937fd0, [0x3ea28809, 0x3efd905d, 0x3e717393], false),
    (0x304892a09222285b, [0x3eafa4d7, 0x3ef889c7, 0x3e972f32], false),
    (0xfe08a53eed38c84a, [0x3ea69933, 0x3ef65c81, 0x3e70aa9b], false),
    (0x3f492718b1a025cf, [0x3e9b7fe1, 0x3ef1433b, 0x3e7f878d], false),
    (0xd6881e94c5d14b28, [0x3e9e6d6c, 0x3ef31e77, 0x3e52b962], false),
    (0x0137c678249e7770, [0x3e9ec03f, 0x3eface8b, 0x3e75c8d0], false),
    (0xbf2eb9eef11bc074, [0x3e94699c, 0x3eea922d, 0x3e541604], false),
];

/// Golden trajectory (c), generated likewise.
#[rustfmt::skip]
const GOLDEN_K3_QUARANTINE: [GoldenStep; 40] = [
    (0x9542aad2fa403841, [0x3fc0a26a, 0x3f6e86d6, 0x4002c956], false),
    (0x559fc06a54cbf41f, [0x40220d93, 0x3f968ac6, 0x40877f39], false),
    (0x368fc6b638995dc7, [0x3fb1c479, 0x3f798528, 0x4027f246], false),
    (0x76aabbdaa94d8f26, [0x3fa79446, 0x3f6bb6c1, 0x400ec1a7], false),
    (0xa289a4997acd9a69, [0x3fa8251b, 0x3f729a14, 0x3ffc2307], false),
    (0xebd031afaa310ee4, [0x7f800000, 0x5ee74be5, 0x7f800000], true),
    (0x1412ba208643d5a4, [0x3f83c107, 0x3f2f38df, 0x3fede30b], false),
    (0x82f2556d45cf97bf, [0x3f1c9563, 0x3f1f0ec2, 0x3f910146], false),
    (0x7026afdbc78dcbe0, [0x3f130eb8, 0x3f037800, 0x3f83ec30], false),
    (0x36d1b7c2d862aef6, [0x3eb700d8, 0x3ed092db, 0x3f912037], false),
    (0x53b58bbf999ea952, [0x3ecd4fc9, 0x3edb764c, 0x3f7a36aa], false),
    (0x120f72fe14c3b442, [0x3ec7ee75, 0x3ee4b513, 0x3f561df9], false),
    (0x2c91681c5ed56234, [0x7f800000, 0x5e674be5, 0x5f5844c6], true),
    (0xca85210c976ec69b, [0x3e76fefc, 0x3ec47554, 0x3f1aa27c], false),
    (0x2ca527a18922ef81, [0x3eaf6bb6, 0x3f11928f, 0x3f5ac2ea], false),
    (0x88256d987bb33ab9, [0x3e3da9f2, 0x3eafde49, 0x3f14f2b2], false),
    (0x9f0e00b0826d51b1, [0x3ec31530, 0x3ed136d6, 0x3f65d20c], false),
    (0xc75f76f075732742, [0x3e8ba32f, 0x3ebff574, 0x3f1f87fb], false),
    (0xfa65b0c31abe1c13, [0x3e60d059, 0x3ec542e7, 0x3eea0d4f], false),
    (0x87bbf5498e3c4da1, [0x7f800000, 0x5e674be5, 0x5f0dc49e], true),
    (0x96350437a6582b5e, [0x3e4454c3, 0x3eb27f10, 0x3ec8464e], false),
    (0x861adc161f170a44, [0x3e14fcd8, 0x3e93c007, 0x3f0f3ad2], false),
    (0x7159e9d5ca0fff0c, [0x3ddaad97, 0x3e75ae2c, 0x3e8ff673], false),
    (0x1c8951e799443c0b, [0x3e61f145, 0x3ec13b0d, 0x3eaa1c8c], false),
    (0x1470b1aca2dafd2c, [0x3e044a74, 0x3ea785ea, 0x3e80983a], false),
    (0x31e467146f06aeb4, [0x3db14125, 0x3e4cf2a9, 0x3eb09905], false),
    (0x518b840b22fc769f, [0x3f5ba93c, 0x3f48e7c4, 0x402f122d], false),
    (0xd466bc9ffe5b1bac, [0x3eb598e8, 0x3f030d38, 0x3f414bb9], false),
    (0xdc859a03651c5e2c, [0x7f800000, 0x5e674be5, 0x5f2a9a21], true),
    (0x451ea6d046c62cc7, [0x3e391424, 0x3eae90d8, 0x3f148a47], false),
    (0x5e1f657e09096aaf, [0x3e211bd5, 0x3e9ec740, 0x3ed8e79e], false),
    (0xa83afb9087d89bf4, [0x3e09e8b3, 0x3ea8a19d, 0x3e946625], false),
    (0xa8d88d91b1ee25b7, [0x3d7201b3, 0x3e4f1e6d, 0x3e2057d3], false),
    (0xab3842ba7625cebf, [0x3da15a5f, 0x3e859045, 0x3e3bb63a], false),
    (0x528d9419fd798f93, [0x3dc79228, 0x3e7edca8, 0x3e29253d], false),
    (0xe65e3d4daf96983e, [0x3e197751, 0x3ec74563, 0x3eb5847b], false),
    (0xecf59311bd77e556, [0x3e92a216, 0x3f07c7f4, 0x3f0f2b50], false),
    (0xe4b851f556a137e5, [0x3e486818, 0x3ef28251, 0x3ed1ef74], false),
    (0x1933fcd8bc76590f, [0x3eb862a3, 0x3efafb12, 0x3f5f6fd6], false),
    (0x1abf38a8adb5be01, [0x3eaa5b45, 0x3f0b7b04, 0x3f9242a1], false),
];

/// Golden trajectory (d), generated on the implementation that evaluated
/// the target network on every sampled row (no per-slot target-Q cache).
#[rustfmt::skip]
const GOLDEN_K3_WRAP: [GoldenStep; 40] = [
    (0x9542aad2fa403841, [0x3fc0a26a, 0x3f6e86d6, 0x4002c956], false),
    (0x4b240f92d4d2faa9, [0x409a2600, 0x3fd0430c, 0x40e19193], false),
    (0x3a4bd6d146a656f1, [0x3ffec4b9, 0x3f9061e7, 0x407a7d69], false),
    (0x930c2d71779ae367, [0x3f9a000e, 0x3f6b2990, 0x3ff30ff3], false),
    (0x3c73e84f57636116, [0x3f96abaf, 0x3f63c355, 0x3fdb0848], false),
    (0x5c389c0214dec10a, [0x3f3420eb, 0x3f43272d, 0x3f8cd9b0], false),
    (0xc6c3dc6ee0c7f1d0, [0x3f70f9de, 0x3f6a9c34, 0x3fa92eb3], false),
    (0x5d54251fb3cc5987, [0x3f6e9d17, 0x3f560380, 0x3fd90876], false),
    (0xce26cc71608a05ea, [0x3f0e34a6, 0x3f1ed26a, 0x3f9987b1], false),
    (0x4851b1ecc8ee5b7d, [0x3f25464e, 0x3f3b62df, 0x3fb7e78b], false),
    (0x12526d40da34b7de, [0x3f1b4afe, 0x3f1a5301, 0x3f68dc69], false),
    (0x55d0b99dc02dbb28, [0x3f32688c, 0x3f35b194, 0x3f9c3e5c], false),
    (0x715fa642d241ebe3, [0x3f0ee83b, 0x3f41a1b6, 0x3f77357f], false),
    (0xfe2ccee66bf713c4, [0x3e89dea6, 0x3ee99454, 0x3f2f857d], false),
    (0xc4a67312f0b5622f, [0x3e50c7d5, 0x3ee64437, 0x3ef1f052], false),
    (0xb46b9ef0cde5b24f, [0x3ebebcf9, 0x3f18fd8b, 0x3f2d0aac], false),
    (0xfd88022c50ff97cd, [0x3f2556f4, 0x3f0ce961, 0x3ffabb07], false),
    (0xaefafa15f37b057f, [0x3e666eed, 0x3f012556, 0x3f160db3], false),
    (0x9092ed9de2e44b26, [0x3e7757c7, 0x3ee646e8, 0x3f15a9bb], false),
    (0x3da104b4e9a90fdb, [0x3df737a4, 0x3ead5b9e, 0x3ebe5c77], false),
    (0xde033f0ad8602224, [0x3e54248d, 0x3edf354c, 0x3f1c6122], false),
    (0x868ad5e71e3fc8e1, [0x3de53a0a, 0x3ebab269, 0x3ec4c080], false),
    (0x3756472cc36d73b9, [0x3e8e8a9f, 0x3ef55bac, 0x3f1a714e], false),
    (0x5590bc045171d29e, [0x3f6ec7c0, 0x3f60d616, 0x3fa4fb4e], false),
    (0x51193d600092a89d, [0x3ea8787e, 0x3f074301, 0x3f6e7ac9], false),
    (0xac08db66b1b2926b, [0x3ed03304, 0x3f1be4b5, 0x3f34f523], false),
    (0x18d49b3bf7e2747e, [0x3e994c68, 0x3f0efa51, 0x3f5d7398], false),
    (0xadbc1ea17972a629, [0x3f164a4f, 0x3f316cf9, 0x3f6b3944], false),
    (0x53e41e377c62407c, [0x3ec18d79, 0x3f146754, 0x3f3fbe3d], false),
    (0x1186b9290bcd34aa, [0x3e2f4537, 0x3ed73b5e, 0x3e943026], false),
    (0x8cfa551032f8e166, [0x3ea6aa7d, 0x3f065025, 0x3f24c8ad], false),
    (0xd92ac839e5f263b6, [0x3e339ebc, 0x3ee12717, 0x3ed41909], false),
    (0xcf96297f693bf5b4, [0x3e70ce3e, 0x3eee59e9, 0x3f0f6182], false),
    (0x375a1c98f0ddd8d7, [0x3f101acc, 0x3f4ad787, 0x3fb04d63], false),
    (0xecca6e3f0e78d5c9, [0x3f3a9a47, 0x3f668e61, 0x3fa534d6], false),
    (0x731e5480cafd94be, [0x3e8d03e4, 0x3f2749b4, 0x3ee33927], false),
    (0xbe1a2336e5f9be50, [0x3e98a863, 0x3efff36e, 0x3f253da0], false),
    (0xa96503d64c6aac35, [0x3eb774dd, 0x3f13b63d, 0x3f1fdc2d], false),
    (0xd805b929bdd65aa6, [0x3ef9c43e, 0x3f27ba21, 0x3f8dc6ff], false),
    (0xbbfeaa02a570426b, [0x3ed012f4, 0x3f229259, 0x3f63e0d9], false),
];
