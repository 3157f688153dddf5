//! Race-detector tests (compiled only with `--features race-check`).
//!
//! Two claims, per DESIGN.md "Enforced invariants":
//!
//! 1. Clean runs, one strip or many, report *zero* violations: the strip
//!    protocol really does order every cross-block bus hand-off.
//! 2. Seeded scheduling faults ([`exec::fault::arm_reorder_block`],
//!    [`exec::fault::arm_early_publish`]) are provably caught: the
//!    detector reports `WrongProducer` for the faulted block while the
//!    engine's *output stays bit-identical* (the fault lives only in the
//!    detector's shadow state).
//!
//! The violation sink is process-global, so every test serializes behind
//! one lock and drains the sink before running.

#![cfg(feature = "race-check")]

use gpu_sim::exec::fault;
use gpu_sim::race::{self, ViolationKind};
use gpu_sim::wavefront::{run, RegionJob, RegionResult, RunOpts};
use gpu_sim::{GridSpec, Mode, NoObserver, WorkerPool};
use std::sync::{Mutex, MutexGuard};
use sw_core::scoring::Scoring;

/// Serializes tests (the violation sink is global) and recovers from
/// poisoning so one failed test doesn't cascade.
static LOCK: Mutex<()> = Mutex::new(());

fn isolated() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::disarm();
    let _ = race::take_report();
    guard
}

fn dna(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            b"ACGT"[(x >> 33) as usize & 3]
        })
        .collect()
}

fn job<'a>(a: &'a [u8], b: &'a [u8], workers: usize) -> RegionJob<'a> {
    RegionJob {
        a,
        b,
        scoring: Scoring::paper(),
        mode: Mode::Local,
        grid: GridSpec { blocks: 4, threads: 4, alpha: 2 },
        workers,
        watch: None,
    }
}

/// Run `job` on a fresh pool sized by `job.workers`.
fn solo(job: &RegionJob<'_>) -> RegionResult {
    run(&WorkerPool::new(job.workers), job, &mut NoObserver, RunOpts::default()).unwrap()
}

#[test]
fn clean_parallel_run_reports_nothing() {
    let _g = isolated();
    let (a, b) = (dna(11, 96), dna(23, 96));
    for workers in [1, 4] {
        let res = solo(&job(&a, &b, workers));
        assert!(res.cells > 0);
        let report = race::take_report();
        assert!(
            report.is_empty(),
            "clean run with {workers} worker(s) reported violations:\n{}",
            report.iter().map(|v| format!("  {v}\n")).collect::<String>()
        );
    }
}

#[test]
fn seeded_reorder_fault_is_caught_and_output_unchanged() {
    let _g = isolated();
    let (a, b) = (dna(41, 96), dna(59, 96));
    // One worker runs a one-strip plan; four run four single-column
    // strips.
    for workers in [1, 4] {
        let j = job(&a, &b, workers);

        let clean = solo(&j);
        assert!(race::take_report().is_empty(), "baseline run must be clean");

        // Replay block (1,1)'s bus transactions before its producers
        // have written.
        fault::arm_reorder_block(1, 1);
        let faulty = solo(&j);
        fault::disarm();
        let report = race::take_report();

        // The fault is confined to the detector's shadow state: the
        // engine's observable output must be bit-identical.
        assert_eq!(clean.best, faulty.best, "workers={workers}");
        assert_eq!(clean.cells, faulty.cells, "workers={workers}");
        assert_eq!(clean.hbus, faulty.hbus, "workers={workers}");
        assert_eq!(clean.vbus, faulty.vbus, "workers={workers}");

        // ... and the detector must have caught it: the early run reads
        // bus cells its scheduled producers have not written yet.
        assert!(!report.is_empty(), "seeded reorder fault went undetected, workers={workers}");
        assert!(
            report.iter().any(|v| v.kind == ViolationKind::WrongProducer
                && v.r == 1
                && v.c == 1
                && v.diagonal == 2),
            "no WrongProducer violation at the reordered block (1,1)@d2, workers={workers}:\n{}",
            report.iter().map(|v| format!("  {v}\n")).collect::<String>()
        );
        // Each phantom read of a not-yet-written cell names the border
        // state as the observed writer.
        assert!(report.iter().any(|v| v.detail.contains("border")), "workers={workers}");
    }
}

#[test]
fn seeded_early_publish_fault_is_caught_and_output_unchanged() {
    let _g = isolated();
    let (a, b) = (dna(101, 96), dna(113, 96));
    // workers = 4 over 4 block columns: the strip scheduler runs with four
    // single-column strips and point-to-point publishes between them.
    let j = job(&a, &b, 4);

    let clean = solo(&j);
    assert!(race::take_report().is_empty(), "baseline strip run must be clean");

    // Publish block (2,1)'s border one block early: the fault replays the
    // right neighbour (2,2)'s bus reads at the moment (2,1) is *about* to
    // compute — i.e. before the border it consumes exists.
    fault::arm_early_publish(2, 1);
    let faulty = solo(&j);
    fault::disarm();
    let report = race::take_report();

    // The fault lives only in the detector's shadow state.
    assert_eq!(clean.best, faulty.best);
    assert_eq!(clean.cells, faulty.cells);
    assert_eq!(clean.hbus, faulty.hbus);
    assert_eq!(clean.vbus, faulty.vbus);

    // The neighbour's replayed reads see the wrong producer: its vertical
    // bus still holds (2,0)'s cells, not (2,1)'s.
    assert!(!report.is_empty(), "seeded early publish went undetected");
    assert!(
        report.iter().any(|v| v.kind == ViolationKind::WrongProducer
            && v.r == 2
            && v.c == 2
            && v.diagonal == 4),
        "no WrongProducer violation at the consumer (2,2)@d4:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
    // ... and the strip hand-off shadow counter catches the publish
    // protocol itself: strip 1 has published zero rows when the replayed
    // consumer crosses its boundary.
    assert!(
        report
            .iter()
            .any(|v| v.kind == ViolationKind::UnorderedRead && v.detail.contains("strip hand-off")),
        "no strip hand-off UnorderedRead:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
}

#[test]
fn second_run_after_fault_is_clean_again() {
    let _g = isolated();
    let (a, b) = (dna(41, 96), dna(59, 96));
    let j = job(&a, &b, 4);

    fault::arm_reorder_block(1, 1);
    let _ = solo(&j);
    fault::disarm();
    assert!(!race::take_report().is_empty());

    // Sessions are per-run: the next run starts from fresh shadow state.
    let _ = solo(&j);
    let report = race::take_report();
    assert!(
        report.is_empty(),
        "run after a disarmed fault reported violations:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
}
