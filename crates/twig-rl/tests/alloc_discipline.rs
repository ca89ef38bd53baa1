//! Proof that the learner's hot path is allocation-free in steady state.
//!
//! This binary installs the counting allocator from `twig-nn` as its global
//! allocator, warms the agent up (first calls size every scratch buffer),
//! then asserts that further `train_step` / `train_step_budgeted` /
//! `select_actions_into` / `q_values_into` calls — and `observe` calls that
//! overwrite slots of a full replay buffer — perform ZERO heap
//! allocations, and that a train step allocates nothing while the replay
//! buffer is still growing. This is the regression gate for the scratch-buffer work:
//! any accidental `clone()`, `Vec::new` or tensor materialisation on the
//! hot path fails loudly here long before it shows up in a profile.
//!
//! Kept as its own integration test so the `#[global_allocator]` does not
//! leak into other test binaries, and run single-threaded by construction
//! (one `#[test]`), so no concurrent test pollutes the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use twig_nn::count_alloc;
use twig_rl::{BudgetedProgress, MaBdq, MaBdqConfig, MultiTransition};

/// Counting wrapper around the system allocator. The impl lives here (the
/// library crates forbid unsafe code) and reports into the process-wide
/// counter behind `twig_nn::count_alloc`.
struct CountingAlloc;

// SAFETY: defers every operation to `System`, only adding a relaxed atomic
// increment, so all `GlobalAlloc` contracts are inherited unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        twig_nn::note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        twig_nn::note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        twig_nn::note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn config() -> MaBdqConfig {
    MaBdqConfig {
        agents: 2,
        state_dim: 4,
        branches: vec![5, 3],
        trunk_hidden: vec![32, 24],
        head_hidden: 16,
        dropout: 0.1,
        batch_size: 16,
        // Small enough that the measured window crosses a target sync,
        // proving the sync path is also allocation-free.
        target_update_every: 3,
        buffer_capacity: 1024,
        seed: 7,
        ..MaBdqConfig::default()
    }
}

fn transition(step: usize) -> MultiTransition {
    let f = step as f32 * 0.01;
    MultiTransition {
        states: vec![vec![f, -f, 0.5, 1.0 - f]; 2],
        actions: vec![vec![step % 5, step % 3]; 2],
        rewards: vec![f.sin(), -f.sin()],
        next_states: vec![vec![f + 0.01, -f, 0.5, 0.99 - f]; 2],
    }
}

/// Drives one budgeted step to `Done` one agent per call, deciding between
/// chunks the way the deadline scheduler does.
fn budgeted_step_with_decisions(
    agent: &mut MaBdq,
    states: &[Vec<f32>],
    actions: &mut Vec<Vec<usize>>,
    q_out: &mut Vec<Vec<Vec<f32>>>,
) {
    loop {
        match agent.train_step_budgeted(1).unwrap() {
            BudgetedProgress::InProgress { .. } => {
                agent.q_values_into(states, q_out).unwrap();
                agent.select_actions_into(states, 0.5, actions).unwrap();
            }
            BudgetedProgress::Done(_) => return,
            BudgetedProgress::NotReady => panic!("batch available"),
        }
    }
}

#[test]
fn hot_path_is_allocation_free_in_steady_state() {
    assert!(
        count_alloc::counter_armed(),
        "counting allocator not installed"
    );
    let mut agent = MaBdq::new(config()).unwrap();
    for i in 0..64 {
        agent.observe(transition(i)).unwrap();
    }

    // Warm-up: sizes every scratch buffer (NN scratch, PER batch, Adam
    // moment vectors, reusable action/Q output buffers) and arms the
    // fixed-point fallback snapshot, whose first build allocates.
    let mut actions: Vec<Vec<usize>> = Vec::new();
    let mut actions_unfused: Vec<Vec<usize>> = Vec::new();
    let mut actions_quant: Vec<Vec<usize>> = Vec::new();
    let mut q_out: Vec<Vec<Vec<f32>>> = Vec::new();
    let states = vec![vec![0.1, 0.2, 0.3, 0.4]; 2];
    agent.refresh_quantized().unwrap();

    // A second agent whose ring buffer is already full: every `observe`
    // in the window overwrites a slot (staling its memoised target-Q row)
    // between train steps. Its transitions are built before the window, so
    // storing one moves it in without allocating.
    let mut wrapped = MaBdq::new(MaBdqConfig {
        buffer_capacity: 24,
        ..config()
    })
    .unwrap();
    for i in 0..40 {
        wrapped.observe(transition(i)).unwrap();
    }
    let mut fresh = (0..20)
        .map(|i| transition(100 + i))
        .collect::<Vec<_>>()
        .into_iter();
    for _ in 0..3 {
        wrapped.train_step().unwrap().expect("batch available");
    }

    for _ in 0..3 {
        agent.train_step().unwrap().expect("batch available");
        budgeted_step_with_decisions(&mut agent, &states, &mut actions, &mut q_out);
        agent
            .select_actions_into(&states, 0.5, &mut actions)
            .unwrap();
        agent
            .select_actions_unfused_into(&states, 0.5, &mut actions_unfused)
            .unwrap();
        agent
            .select_actions_quantized_into(&states, &mut actions_quant)
            .unwrap();
        agent.q_values_into(&states, &mut q_out).unwrap();
    }

    // Steady state: ten epochs of learn + decide, zero allocations. Each
    // epoch runs one full step and one budgeted step split into per-agent
    // chunks with decisions between them. The window covers several
    // target-network syncs (every 3 steps), each of which also
    // re-quantizes the armed fallback snapshot in place, plus the fused,
    // per-agent reference, and fixed-point decision paths. The wrapped
    // agent overwrites two replay slots before each of its steps.
    let start = count_alloc::allocation_count();
    for _ in 0..10 {
        for _ in 0..2 {
            wrapped.observe(fresh.next().expect("prebuilt")).unwrap();
        }
        wrapped.train_step().unwrap().expect("batch available");
        agent.train_step().unwrap().expect("batch available");
        budgeted_step_with_decisions(&mut agent, &states, &mut actions, &mut q_out);
        agent
            .select_actions_into(&states, 0.5, &mut actions)
            .unwrap();
        agent
            .select_actions_unfused_into(&states, 0.5, &mut actions_unfused)
            .unwrap();
        agent
            .select_actions_quantized_into(&states, &mut actions_quant)
            .unwrap();
        agent.q_values_into(&states, &mut q_out).unwrap();
    }
    let delta = count_alloc::allocations_since(start);
    assert_eq!(
        delta, 0,
        "hot path allocated {delta} times across 10 steady-state epochs"
    );

    // A buffer that grows between steps: `observe` may grow the buffer's
    // own storage, so only the train steps are counted. The target-Q rows
    // of the new slots must not need any allocation.
    let mut growing = MaBdq::new(config()).unwrap();
    for i in 0..20 {
        growing.observe(transition(i)).unwrap();
    }
    growing.train_step().unwrap().expect("batch available");
    let mut step_allocations = 0;
    for i in 0..30 {
        for j in 0..3 {
            growing.observe(transition(1000 + 3 * i + j)).unwrap();
        }
        let start = count_alloc::allocation_count();
        growing.train_step().unwrap().expect("batch available");
        step_allocations += count_alloc::allocations_since(start);
    }
    assert_eq!(
        step_allocations, 0,
        "train steps on a growing buffer allocated {step_allocations} times"
    );
    assert_eq!(growing.buffer_len(), 110);

    // Sanity: the agent is still actually learning (steps advanced) and
    // the outputs are live.
    assert!(agent.steps() >= 13);
    assert_eq!(wrapped.steps(), 13);
    assert_eq!(wrapped.buffer_len(), 24);
    assert_eq!(actions.len(), 2);
    assert_eq!(actions_quant.len(), 2);
    assert_eq!(q_out.len(), 2);
    assert!(agent.quantized_ready());
}
