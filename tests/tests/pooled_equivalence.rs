//! Every pool width and strip plan delivers the right answer.
//!
//! These properties pin down the contract the pipeline relies on: for ANY
//! grid geometry, pool width and strip plan, a launch produces exactly
//! the scores, endpoints, buses and observer event stream (hence the
//! special rows) that [`Oracle`] derives from whole-prefix scalar-kernel
//! runs — and, as a second check, exactly what the 1-worker launch (a
//! one-strip plan) produces.

use gpu_sim::wavefront::{run, NoObserver, RegionJob, RunOpts};
use gpu_sim::{GridSpec, Mode, StripPlan, WorkerPool};
use integration_tests::{run_recorded, BlockEvent, Oracle};
use proptest::prelude::*;
use sw_core::scoring::Scoring;
use sw_core::transcript::EdgeState;

fn dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), 0..max_len)
}

/// Sequences long enough that, with a small grid, every tile clears the
/// striped kernel's `LANES x LANES` eligibility floor.
fn dna_long() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), 200..600)
}

/// Grids coarse enough that tiles stay at least `LANES` wide/tall for
/// `dna_long` inputs: `alpha * threads >= 16` keeps every full block at
/// least 16 rows high, and at most 4 column groups over >= 200 columns
/// keeps every tile at least 16 columns wide.
fn coarse_grids() -> impl Strategy<Value = GridSpec> {
    (2usize..5, 4usize..9, 4usize..7).prop_map(|(blocks, threads, alpha)| GridSpec {
        blocks,
        threads,
        alpha,
    })
}

fn grids() -> impl Strategy<Value = GridSpec> {
    (1usize..8, 1usize..8, 1usize..5).prop_map(|(blocks, threads, alpha)| GridSpec {
        blocks,
        threads,
        alpha,
    })
}

/// Check a launch against the oracle, as a proptest failure.
fn check(
    oracle: &Oracle,
    res: &gpu_sim::RegionResult,
    events: &[BlockEvent],
    tag: &str,
) -> Result<(), TestCaseError> {
    oracle.check(res, events).map_err(|e| TestCaseError::fail(format!("oracle, {tag}: {e}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Local mode (stage 1): the oracle's best score, endpoint, buses and
    /// observer stream for pool widths 1, 2 and 8, and the same as one
    /// worker.
    #[test]
    fn pooled_local_equals_serial(a in dna(140), b in dna(140), grid in grids()) {
        let serial_job = RegionJob {
            a: &a, b: &b, scoring: Scoring::paper(), mode: Mode::Local,
            grid, workers: 1, watch: None,
        };
        let oracle = Oracle::of(&serial_job);
        let (serial, serial_events) =
            run_recorded(&WorkerPool::new(1), &serial_job, RunOpts::default());

        for lanes in [1usize, 2, 8] {
            let pool = WorkerPool::new(lanes);
            let job = RegionJob { workers: lanes, ..serial_job };
            let (res, events) = run_recorded(&pool, &job, RunOpts::default());
            check(&oracle, &res, &events, &format!("lanes={lanes}"))?;
            prop_assert_eq!(res.best, serial.best, "best, lanes={}", lanes);
            prop_assert_eq!(res.cells, serial.cells, "cells, lanes={}", lanes);
            prop_assert_eq!(&res.hbus, &serial.hbus, "hbus, lanes={}", lanes);
            prop_assert_eq!(&res.vbus, &serial.vbus, "vbus, lanes={}", lanes);
            prop_assert!(
                events == serial_events,
                "observer stream diverged with lanes={}", lanes
            );
        }
    }

    /// Global mode (stages 2-3 strips): the oracle's frontier buses, and
    /// the same as one worker.
    #[test]
    fn pooled_global_equals_serial(
        a in dna(120), b in dna(120), grid in grids(),
        start in proptest::sample::select(vec![EdgeState::Diagonal, EdgeState::GapS0, EdgeState::GapS1]),
    ) {
        let serial_job = RegionJob {
            a: &a, b: &b, scoring: Scoring::paper(), mode: Mode::global(start),
            grid, workers: 1, watch: None,
        };
        let oracle = Oracle::of(&serial_job);
        let (serial, serial_events) =
            run_recorded(&WorkerPool::new(1), &serial_job, RunOpts::default());
        check(&oracle, &serial, &serial_events, "lanes=1")?;

        for lanes in [2usize, 8] {
            let pool = WorkerPool::new(lanes);
            let job = RegionJob { workers: lanes, ..serial_job };
            let (res, events) = run_recorded(&pool, &job, RunOpts::default());
            check(&oracle, &res, &events, &format!("lanes={lanes}"))?;
            prop_assert_eq!(&res.hbus, &serial.hbus, "hbus, lanes={}", lanes);
            prop_assert_eq!(&res.vbus, &serial.vbus, "vbus, lanes={}", lanes);
            prop_assert!(events == serial_events, "stream, lanes={}", lanes);
        }
    }

    /// A single pool serves many launches of different shapes without its
    /// lane count or queue state leaking between runs: interleaving jobs
    /// on one shared pool gives the same results as fresh pools.
    #[test]
    fn shared_pool_reuse_is_stateless(a in dna(100), b in dna(100), g1 in grids(), g2 in grids()) {
        let pool = WorkerPool::new(4);
        let job1 = RegionJob {
            a: &a, b: &b, scoring: Scoring::paper(), mode: Mode::Local,
            grid: g1, workers: 0, watch: None,
        };
        let job2 = RegionJob { grid: g2, ..job1 };
        let first_1 = run(&pool, &job1, &mut NoObserver, RunOpts::default()).unwrap();
        let first_2 = run(&pool, &job2, &mut NoObserver, RunOpts::default()).unwrap();
        // Re-run in the opposite order on the same pool.
        let second_2 = run(&pool, &job2, &mut NoObserver, RunOpts::default()).unwrap();
        let second_1 = run(&pool, &job1, &mut NoObserver, RunOpts::default()).unwrap();
        prop_assert_eq!(first_1.best, second_1.best);
        prop_assert_eq!(first_1.hbus, second_1.hbus);
        prop_assert_eq!(first_2.best, second_2.best);
        prop_assert_eq!(first_2.hbus, second_2.hbus);
    }
}

/// Grid-shape classes the strip scheduler must handle: the strip count
/// is `min(workers, block_cols)`, so these drive every claiming regime —
/// tall/wide/square grids, a single strip, and strip counts on both
/// sides of the worker count.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Tall,
    Wide,
    Square,
    SingleStrip,
    ManyStrips,
    FewStrips,
}

/// Deterministic DNA from a seed (the vendored proptest has no
/// `prop_oneof`/`prop_flat_map`, so shape-dependent lengths are derived
/// in plain code from generated knobs).
fn dna_seeded(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            b"ACGT"[(x >> 33) as usize & 3]
        })
        .collect()
}

/// Build one shape-classed case from raw generated knobs. `stretch` in
/// `0..160` scales within each class's length band.
fn shape_case(
    shape: Shape,
    seed: u64,
    stretch: usize,
    blocks_knob: usize,
    threads: usize,
    alpha: usize,
) -> (Vec<u8>, Vec<u8>, GridSpec) {
    let (a_len, b_len, blocks) = match shape {
        // Many block rows, few columns.
        Shape::Tall => (200 + stretch, 30 + stretch / 3, 2 + blocks_knob % 2),
        // Few block rows, many columns.
        Shape::Wide => (30 + stretch / 3, 200 + stretch, 5 + blocks_knob % 3),
        Shape::Square => (100 + stretch / 2, 100 + stretch / 2, 3 + blocks_knob % 3),
        // One block column: a one-strip plan at every worker count.
        Shape::SingleStrip => (60 + stretch, 60 + stretch, 1),
        // More strips than any swept worker count below 8.
        Shape::ManyStrips => (40 + stretch / 2, 200 + stretch, 7),
        // Fewer strips than most swept worker counts.
        Shape::FewStrips => (100 + stretch, 60 + stretch / 2, 2),
    };
    let a = dna_seeded(seed, a_len);
    let b = dna_seeded(seed.rotate_left(17) ^ 0x9E37, b_len);
    (a, b, GridSpec { blocks, threads, alpha })
}

const SHAPES: [Shape; 6] = [
    Shape::Tall,
    Shape::Wide,
    Shape::Square,
    Shape::SingleStrip,
    Shape::ManyStrips,
    Shape::FewStrips,
];

/// Assert a result is byte-identical to the 1-worker baseline in every
/// schedule-independent field, plus the full observer stream.
fn assert_equiv(
    res: &gpu_sim::RegionResult,
    events: &[BlockEvent],
    serial: &gpu_sim::RegionResult,
    serial_events: &[BlockEvent],
    tag: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(res.best, serial.best, "best, {}", tag);
    prop_assert_eq!(res.cells, serial.cells, "cells, {}", tag);
    prop_assert_eq!(res.diagonals_run, serial.diagonals_run, "diagonals_run, {}", tag);
    prop_assert_eq!(res.busy_slots, serial.busy_slots, "busy_slots, {}", tag);
    prop_assert_eq!(res.aborted, serial.aborted, "aborted, {}", tag);
    prop_assert_eq!(res.paths, serial.paths, "kernel paths, {}", tag);
    prop_assert_eq!(&res.hbus, &serial.hbus, "hbus, {}", tag);
    prop_assert_eq!(&res.vbus, &serial.vbus, "vbus, {}", tag);
    prop_assert!(events == serial_events, "observer stream diverged, {tag}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The strip scheduler (persistent column-strip ownership with
    /// point-to-point publishes) matches the oracle, and the 1-worker
    /// run, for every worker count and grid-shape class.
    #[test]
    fn strip_scheduler_equals_serial_across_workers_and_shapes(
        shape_idx in 0usize..6,
        seed in any::<u64>(),
        stretch in 0usize..160,
        blocks_knob in 0usize..3,
        threads in 1usize..5,
        alpha in 1usize..4,
        local in any::<bool>(),
    ) {
        let (a, b, grid) =
            shape_case(SHAPES[shape_idx], seed, stretch, blocks_knob, threads, alpha);
        let mode = if local { Mode::Local } else { Mode::global(EdgeState::Diagonal) };
        let serial_job = RegionJob {
            a: &a, b: &b, scoring: Scoring::paper(), mode,
            grid, workers: 1, watch: None,
        };
        let oracle = Oracle::of(&serial_job);
        let (serial, serial_events) =
            run_recorded(&WorkerPool::new(1), &serial_job, RunOpts::default());

        for workers in [1usize, 2, 3, 4, 8] {
            let pool = WorkerPool::new(workers);
            let job = RegionJob { workers, ..serial_job };
            let (res, events) = run_recorded(&pool, &job, RunOpts::default());
            let tag = format!("workers={workers}");
            check(&oracle, &res, &events, &tag)?;
            assert_equiv(&res, &events, &serial, &serial_events, &tag)?;
        }
    }

    /// Explicit strip plans on both sides of the worker count — more
    /// strips than workers (forces whole-strip work stealing) and fewer
    /// strips than workers (idles the surplus) — still match the oracle
    /// and the 1-worker result exactly.
    #[test]
    fn custom_strip_plans_equal_serial(
        seed in any::<u64>(), stretch in 0usize..160,
        threads in 1usize..5, alpha in 1usize..4,
        batch_rows in 1usize..7,
    ) {
        let a = dna_seeded(seed, 60 + stretch / 2);
        let b = dna_seeded(seed.rotate_left(31) ^ 0xB5, 200 + stretch);
        let grid = GridSpec { blocks: 7, threads, alpha };
        let serial_job = RegionJob {
            a: &a, b: &b, scoring: Scoring::paper(), mode: Mode::Local,
            grid, workers: 1, watch: None,
        };
        let oracle = Oracle::of(&serial_job);
        let (serial, serial_events) =
            run_recorded(&WorkerPool::new(1), &serial_job, RunOpts::default());
        let bc = serial.layout.block_cols;

        // strips > workers: 2 workers over a maximally split plan.
        let fine = StripPlan { bounds: (0..=bc).collect(), batch_rows };
        let pool = WorkerPool::new(2);
        let job = RegionJob { workers: 2, ..serial_job };
        let opts = RunOpts { plan: Some(fine), ..Default::default() };
        let (res, events) = run_recorded(&pool, &job, opts);
        let stats = &res.strip;
        prop_assert_eq!(stats.strips, bc);
        prop_assert_eq!(
            stats.runner_blocks.iter().sum::<u64>(),
            (serial.layout.block_rows * bc) as u64,
            "every block computed exactly once"
        );
        check(&oracle, &res, &events, "fine plan")?;
        assert_equiv(&res, &events, &serial, &serial_events, "fine plan")?;

        // strips < workers: 8 workers over a two-strip plan; the engine
        // must cap its runners at the strip count.
        if bc >= 2 {
            let coarse = StripPlan { bounds: vec![0, bc / 2, bc], batch_rows };
            let pool = WorkerPool::new(8);
            let job = RegionJob { workers: 8, ..serial_job };
            let opts = RunOpts { plan: Some(coarse), ..Default::default() };
            let (res, events) = run_recorded(&pool, &job, opts);
            prop_assert_eq!(res.strip.strips, 2);
            prop_assert_eq!(res.strip.runner_blocks.len(), 2, "runners capped at strip count");
            check(&oracle, &res, &events, "coarse plan")?;
            assert_equiv(&res, &events, &serial, &serial_events, "coarse plan")?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The vectorized (lane-striped) kernel is the default path, so the
    /// pooled-equivalence contract must hold while it is actually
    /// engaged. Sequences here are long and grids coarse, so every tile
    /// clears the striped eligibility floor; we assert that striped
    /// tiles really occurred, that the kernel-path counters are
    /// deterministic across pool widths, and that results are identical
    /// between a 1-worker run and an 8-lane pool.
    #[test]
    fn pooled_equivalence_holds_with_striped_kernel(
        a in dna_long(), b in dna_long(), grid in coarse_grids(),
        local in any::<bool>(),
    ) {
        let mode = if local { Mode::Local } else { Mode::global(EdgeState::Diagonal) };
        let serial_job = RegionJob {
            a: &a, b: &b, scoring: Scoring::paper(), mode,
            grid, workers: 1, watch: None,
        };
        let (serial, serial_events) =
            run_recorded(&WorkerPool::new(1), &serial_job, RunOpts::default());
        prop_assert!(
            serial.paths.striped_total() > 0,
            "expected striped tiles with grid {:?} on {}x{}", grid, a.len(), b.len()
        );
        // The paper scoring on zero/Diagonal borders never leaves the
        // i16 window at these lengths, so nothing should fall back.
        prop_assert_eq!(serial.paths.fallback, 0, "unexpected scalar fallback");

        for lanes in [1usize, 8] {
            let pool = WorkerPool::new(lanes);
            let job = RegionJob { workers: lanes, ..serial_job };
            let (res, events) = run_recorded(&pool, &job, RunOpts::default());
            prop_assert_eq!(res.best, serial.best, "best, lanes={}", lanes);
            prop_assert_eq!(res.cells, serial.cells, "cells, lanes={}", lanes);
            prop_assert_eq!(res.paths, serial.paths, "kernel paths, lanes={}", lanes);
            prop_assert_eq!(&res.hbus, &serial.hbus, "hbus, lanes={}", lanes);
            prop_assert_eq!(&res.vbus, &serial.vbus, "vbus, lanes={}", lanes);
            prop_assert!(
                events == serial_events,
                "observer stream diverged with lanes={}", lanes
            );
        }
    }
}
