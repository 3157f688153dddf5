//! Trace-schema round-trip tests: a full pipeline run recorded through a
//! [`cudalign::TraceWriter`] must produce NDJSON that the schema checker
//! accepts, covering all six stages, with resume-aware progress.

use cudalign::config::{CheckpointPolicy, SraBackend};
use cudalign::obs::validate_trace;
use cudalign::{
    Event, Obs, Pipeline, PipelineConfig, PipelineError, Progress, Recorder, RunControl,
    TraceWriter,
};
use integration_tests::edited_pair;

fn traced_run(cfg: PipelineConfig, a: &[u8], b: &[u8]) -> (String, cudalign::PipelineResult) {
    let mut tracer = TraceWriter::new(Vec::new());
    let res = {
        let mut obs = Obs::new();
        obs.add_recorder(&mut tracer);
        Pipeline::new(cfg).align_observed(a, b, &mut obs).expect("pipeline run")
    };
    let bytes = tracer.finish().expect("trace writes succeed");
    (String::from_utf8(bytes).expect("trace is UTF-8"), res)
}

/// Every record the pipeline emits parses as JSON and the whole stream
/// passes the schema checker: spans nest, stages 1..=6 all appear, the
/// run ends with `run_end`.
#[test]
fn trace_round_trip_covers_all_six_stages() {
    let (a, b) = edited_pair(71, 400, 19);
    let (text, res) = traced_run(PipelineConfig::for_tests(), &a, &b);
    assert!(res.best_score > 0, "pair must align");

    let check = validate_trace(&text).expect("schema-valid trace");
    assert!(check.ended, "run_end must close the trace");
    assert!(
        check.stages_seen.iter().all(|s| *s),
        "all six stages must be traced: {:?}",
        check.stages_seen
    );
    assert!(check.records > 10, "a real run emits spans plus progress ticks");
}

/// A run resumed from a stage-1 checkpoint reports the resumed diagonal
/// in `run_begin`, and the progress tracker starts at the resumed offset
/// rather than zero.
#[test]
fn resumed_trace_reports_resume_offset() {
    let (a, b) = edited_pair(72, 400, 17);
    let dir = std::env::temp_dir().join(format!("cudalign-trace-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut cfg = PipelineConfig::for_tests();
    cfg.backend = SraBackend::Disk(dir.clone());
    cfg.checkpoint = Some(CheckpointPolicy { dir: dir.clone(), every_diagonals: 9 });

    // "Crashed" run leaves a snapshot plus row files behind.
    {
        let fp = cfg.job_fingerprint(a.len(), b.len());
        let mut rows = cudalign::sra::LineStore::<gpu_sim::CellHF>::new(
            &cfg.backend,
            cfg.sra_bytes,
            "special-row",
            fp,
        )
        .unwrap();
        let pool = gpu_sim::WorkerPool::new(cfg.workers);
        let _ = cudalign::stage1::run(
            &a,
            &b,
            &cfg,
            &pool,
            &mut rows,
            None,
            Some((dir.as_path(), 9)),
            &mut cudalign::Obs::new(),
            &cudalign::RunControl::unlimited(),
        );
        std::mem::forget(rows);
    }

    let mut tracer = TraceWriter::new(Vec::new());
    let mut progress = Progress::new();
    {
        let mut obs = Obs::new();
        obs.add_recorder(&mut tracer);
        obs.add_recorder(&mut progress);
        Pipeline::new(cfg).align_observed(&a, &b, &mut obs).expect("resumed run");
    }
    let text = String::from_utf8(tracer.finish().unwrap()).unwrap();
    let check = validate_trace(&text).expect("schema-valid resumed trace");
    assert!(check.ended);
    assert_eq!(progress.percent(), Some(100.0), "stage-1 sweep completed");

    // The first record is run_begin with a non-zero resume diagonal.
    let first = text.lines().next().expect("non-empty trace");
    let rec = cudalign::obs::parse_json(first).expect("run_begin parses");
    assert_eq!(rec.get("ev").and_then(|v| v.str_val()), Some("run_begin"));
    let resumed = rec.get("resumed_from_diagonal").and_then(|v| v.num()).unwrap_or(0.0);
    assert!(resumed > 0.0, "resumed diagonal must be recorded, got {resumed}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A run cancelled before its first diagonal still yields a schema-valid
/// trace: `run_begin` is emitted eagerly, so the stream carries
/// `run_begin` + `interrupt` instead of being rejected as empty, and the
/// pipeline surfaces the typed cancellation.
#[test]
fn immediately_cancelled_run_traces_run_begin_plus_interrupt() {
    let (a, b) = edited_pair(73, 200, 11);
    let ctrl = cudalign::RunControl::unlimited();
    ctrl.cancel();

    let mut tracer = TraceWriter::new(Vec::new());
    let err = {
        let mut obs = Obs::new();
        obs.add_recorder(&mut tracer);
        Pipeline::new(PipelineConfig::for_tests())
            .align_supervised(&a, &b, &mut obs, &ctrl)
            .expect_err("pre-cancelled run must not succeed")
    };
    assert_eq!(err.interruption_kind(), Some("cancelled"), "{err}");

    let text = String::from_utf8(tracer.finish().unwrap()).unwrap();
    let check = validate_trace(&text).expect("interrupted trace stays schema-valid");
    assert!(!check.ended, "no run_end on an interrupted run");
    assert_eq!(check.interrupts, 1, "the cancellation is recorded");
    let first = text.lines().next().expect("non-empty trace");
    let rec = cudalign::obs::parse_json(first).expect("run_begin parses");
    assert_eq!(rec.get("ev").and_then(|v| v.str_val()), Some("run_begin"));
}

/// Cancels the run on the first stage-2 strip record, then counts the
/// storage flushes that still arrive.
struct CancelOnFirstStrip {
    ctrl: RunControl,
    cancelled: bool,
    flushes_after_cancel: usize,
}

impl Recorder for CancelOnFirstStrip {
    fn record(&mut self, _t: std::time::Duration, ev: &Event) {
        match ev {
            Event::Strip { stage: 2, .. } if !self.cancelled => {
                self.ctrl.cancel();
                self.cancelled = true;
            }
            Event::StorageFlush { .. } if self.cancelled => self.flushes_after_cancel += 1,
            _ => {}
        }
    }
}

/// A cancel that lands as a stage-2 strip starts stops that strip's
/// engine launch: the run unwinds as `Cancelled` instead of sweeping the
/// whole strip and keeping its special columns first.
#[test]
fn stage2_cancel_stops_the_strip_in_flight() {
    let (a, b) = edited_pair(74, 400, 19);
    let ctrl = RunControl::unlimited();
    let mut rec =
        CancelOnFirstStrip { ctrl: ctrl.clone(), cancelled: false, flushes_after_cancel: 0 };
    let err = {
        let mut obs = Obs::new();
        obs.add_recorder(&mut rec);
        Pipeline::new(PipelineConfig::for_tests())
            .align_supervised(&a, &b, &mut obs, &ctrl)
            .expect_err("a cancelled run must not succeed")
    };
    assert!(rec.cancelled, "stage 2 must have started a strip");
    assert_eq!(err, PipelineError::Cancelled { diagonal: 0 });
    assert_eq!(rec.flushes_after_cancel, 0, "no stage-2 storage flush may follow the cancel");
}

/// CI hook: when `CUDALIGN_TRACE_FILE` points at a trace written by the
/// CLI (`align --trace`), validate it against the same schema checker.
/// Skipped (trivially passing) when the variable is unset.
#[test]
fn validates_external_trace_file() {
    let Ok(path) = std::env::var("CUDALIGN_TRACE_FILE") else {
        return;
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("CUDALIGN_TRACE_FILE {path}: {e}"));
    let check = validate_trace(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(check.ended, "{path}: trace must end with run_end");
    assert!(
        check.stages_seen.iter().all(|s| *s),
        "{path}: all six stages must appear: {:?}",
        check.stages_seen
    );
}
