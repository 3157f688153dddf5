//! Self-tests of the benchmark's own code: the percentile rule, due-time
//! latency, the replay's tile-count cross-check and the correctness gate.

use cudalign::{Obs, Pipeline, PipelineConfig, PipelineResult};
use perfbench::gate;
use perfbench::ledger::Ledger;
use perfbench::loadgen;
use perfbench::replay::{self, Profiles};
use perfbench::stats::{median, tail, TAIL_MIN_BEYOND};
use std::time::Duration;
use sw_core::full::sw_local_score;
use sw_core::{EditOp, Scoring, Transcript};

fn lcg(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            b"ACGT"[(x >> 33) as usize & 3]
        })
        .collect()
}

/// A pair sharing a long, lightly mutated core: its local scores leave
/// the i8 window, so the ladder escalates.
fn related(seed: u64, len: usize) -> (Vec<u8>, Vec<u8>) {
    let a = lcg(seed, len);
    let mut b = lcg(seed + 1, len / 5);
    b.extend(
        a.iter()
            .enumerate()
            .map(|(i, &c)| if i % 29 == 7 { b"ACGT"[(c as usize + 1) & 3] } else { c }),
    );
    (a, b)
}

fn config() -> PipelineConfig {
    let mut cfg = PipelineConfig::for_tests();
    // Tiles of 32 rows x ~100 columns: wide enough for the striped rungs.
    cfg.grid1 = gpu_sim::GridSpec { blocks: 4, threads: 16, alpha: 2 };
    cfg
}

fn aligned(a: &[u8], b: &[u8]) -> (PipelineResult, Ledger) {
    let mut ledger = Ledger::default();
    let res = {
        let mut obs = Obs::new();
        obs.add_recorder(&mut ledger);
        Pipeline::new(config()).align_observed(a, b, &mut obs).expect("pipeline runs")
    };
    (res, ledger)
}

#[test]
fn tail_lowers_the_percentile_until_ten_samples_lie_beyond() {
    let xs: Vec<f64> = (1..=300).map(f64::from).collect();
    let t = tail(&xs, 0.95);
    assert_eq!((t.value, t.samples), (285.0, 300), "enough samples: the true p95");

    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = tail(&xs, 0.95);
    assert_eq!(t.value, 90.0, "p95 of 100 has 5 beyond; p90 is the highest with 10");
    assert_eq!(t.pct, 0.9);
    assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_MIN_BEYOND);

    let xs: Vec<f64> = (1..=15).map(f64::from).collect();
    let t = tail(&xs, 0.95);
    assert_eq!((t.value, t.pct), (8.0, 8.0 / 15.0), "too few samples: floored at the median");
    assert_eq!(median(&xs), 8.0);
    let xs: Vec<f64> = (1..=16).map(f64::from).collect();
    assert_eq!(tail(&xs, 0.95).value, 9.0, "even count: the upper median, never below the median");
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn misses_rank_above_every_latency() {
    let mut xs: Vec<f64> = (1..=40).map(f64::from).collect();
    xs.extend([f64::INFINITY; 12]);
    assert_eq!(tail(&xs, 0.95).value, f64::INFINITY, "12 misses of 52 reach the p95 tail");
    assert_eq!(median(&xs), 26.5);
}

#[test]
fn latency_counts_from_the_due_time_under_a_stalled_consumer() {
    let stall = Duration::from_millis(120);
    // The consumer stalls on the first request and holds up the
    // generator; later requests go out late but stay due on schedule.
    let sent = loadgen::open_loop(6, 100.0, |k| {
        if k == 0 {
            std::thread::sleep(stall);
        }
        Some(k)
    });
    for (k, s) in sent.iter().enumerate() {
        assert_eq!(s.due, k as f64 / 100.0);
        if k > 0 {
            assert!(
                s.sent >= stall.as_secs_f64(),
                "request {k} could not go out before the stall ended"
            );
            let latency = s.latency(Some(0.001));
            assert!(latency >= stall.as_secs_f64() - s.due + 0.001, "request {k}: {latency}");
        }
    }
    let lag_max = sent.iter().map(|s| s.lag()).fold(0.0, f64::max);
    assert!(lag_max >= stall.as_secs_f64() - 0.01, "the generator ran late: {lag_max}");
    assert_eq!(sent[1].latency(None), f64::INFINITY, "a failed request is a miss");
    let refused = loadgen::Sent::<usize> { due: 0.0, sent: 0.0, handle: None };
    assert_eq!(refused.latency(Some(0.001)), f64::INFINITY, "a refused request is a miss");
}

#[test]
fn replay_tile_counts_match_the_pipeline_kernel_record() {
    let (a, b) = related(5, 1500);
    let (res, ledger) = aligned(&a, &b);
    let record = ledger.stage1_paths;
    assert!(record.striped8_fb16 > 0, "the pair must escalate some tiles: {record:?}");

    let scoring = Scoring::paper();
    let shared =
        replay::stage1(&a, &b, &scoring, &config().grid1, Profiles::Shared).expect("replay");
    let fresh = replay::stage1(&a, &b, &scoring, &config().grid1, Profiles::Fresh).expect("replay");
    replay::check_counts(&shared, &record).expect("shared-cache replay counts");
    replay::check_counts(&fresh, &record).expect("fresh-cache replay counts");
    assert_eq!(shared.cells, (a.len() * b.len()) as u64);
    let (score, end) = sw_local_score(&a, &b, &scoring);
    assert_eq!(shared.best, Some((score, end.0, end.1)));
    assert_eq!((res.best_score, res.end), (score, end));

    let mut off = record;
    off.striped8 += 1;
    assert!(replay::check_counts(&shared, &off).is_err(), "a count off by one must fail");
}

#[test]
fn gate_fires_on_a_corrupted_result() {
    let (a, b) = related(9, 700);
    let scoring = Scoring::paper();
    let reference = sw_local_score(&a, &b, &scoring);
    let (res, _) = aligned(&a, &b);
    gate::check(&a, &b, &scoring, &res, reference).expect("a pipeline result passes");

    // Turn one match column into a mismatch: same length, wrong content.
    let mut ops = res.transcript.ops().to_vec();
    let k = ops.iter().position(|&op| op == EditOp::Match).expect("a match column");
    ops[k] = EditOp::Mismatch;
    let mut bad = res.clone();
    bad.transcript = Transcript::from_ops(ops);
    assert!(gate::check(&a, &b, &scoring, &bad, reference).is_err(), "corrupted transcript");

    let mut bad = res.clone();
    bad.best_score += 1;
    assert!(gate::check(&a, &b, &scoring, &bad, reference).is_err(), "wrong score");

    let mut bad = res.clone();
    bad.binary.gaps_s0.clear();
    bad.binary.gaps_s1.clear();
    if bad.binary != res.binary {
        assert!(gate::check(&a, &b, &scoring, &bad, reference).is_err(), "wrong binary form");
    }

    let wrong_end = (reference.0, (reference.1 .0, reference.1 .1 + 1));
    assert!(gate::check(&a, &b, &scoring, &res, wrong_end).is_err(), "wrong end point");
}

#[test]
fn ledger_reads_serve_job_traces() {
    let (a, b) = related(3, 900);
    let server = cudalign::Server::new(cudalign::ServeConfig::new(config())).expect("server");
    let reports: Vec<_> = (0..2)
        .map(|_| {
            server.submit(cudalign::JobRequest::new(a.clone(), b.clone())).expect("admitted").wait()
        })
        .collect();
    server.shutdown();
    let mut from_traces = Ledger::default();
    for r in &reports {
        from_traces.ingest_job_trace(&r.trace).expect("valid job trace");
    }
    let (_, live) = aligned(&a, &b);
    assert_eq!(from_traces.runs, 1, "the repeat is answered from the cache");
    assert_eq!(from_traces.cached_jobs, 1);
    assert_eq!(from_traces.queue_wait_s.len(), 2);
    assert_eq!(from_traces.run_s.len(), 1);
    assert_eq!(from_traces.stage1_paths, live.stage1_paths);
    assert_eq!(from_traces.stage_cells, live.stage_cells);
}
