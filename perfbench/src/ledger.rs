//! The benchmark-owned recorder: folds the stage spans and counters the
//! pipeline already emits — live through [`cudalign::Recorder`], or from
//! a serve job's NDJSON trace — into one per-layer ledger.

use cudalign::obs::{parse_json, Json};
use cudalign::{Event, Recorder};
use gpu_sim::kernel::PathCounts;
use std::time::Duration;

/// Stage spans and counters summed over every run fed into it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Pipeline runs seen (`run_end` records).
    pub runs: u64,
    /// Seconds per stage, index 0 = stage 1 … 5 = stage 6.
    pub stage_s: [f64; 6],
    /// Cells per stage, same indexing.
    pub stage_cells: [u64; 6],
    /// Stage-1 precision-ladder outcome (the `kernel` record).
    pub stage1_paths: PathCounts,
    /// Strip-scheduler publishes (`strip_progress` records).
    pub strip_publishes: u64,
    /// Strip claims beyond a runner's home strip.
    pub strip_steals: u64,
    /// Seconds from `job_submit` to `job_start`, one per job.
    pub queue_wait_s: Vec<f64>,
    /// Seconds from `job_start` to `job_end`, one per job that ran.
    pub run_s: Vec<f64>,
    /// Jobs answered from the result cache.
    pub cached_jobs: u64,
}

impl Ledger {
    fn stage_end(&mut self, stage: u64, seconds: f64, cells: u64) {
        if let Some(i) = (stage as usize).checked_sub(1).filter(|&i| i < 6) {
            self.stage_s[i] += seconds;
            self.stage_cells[i] += cells;
        }
    }

    /// Fold one serve job's NDJSON trace (`JobReport::trace`) in.
    pub fn ingest_job_trace(&mut self, trace: &str) -> Result<(), String> {
        let (mut submit, mut start) = (None, None);
        for line in trace.lines().filter(|l| !l.trim().is_empty()) {
            let rec = parse_json(line).map_err(|e| format!("bad trace record: {e:?}"))?;
            let num = |k: &str| rec.get(k).and_then(Json::num).unwrap_or(0.0);
            let t = num("t");
            match rec.get("ev").and_then(Json::str_val).unwrap_or("") {
                "job_submit" => submit = Some(t),
                "job_start" => {
                    start = Some(t);
                    if rec.get("cached").and_then(Json::bool_val) == Some(true) {
                        self.cached_jobs += 1;
                    }
                }
                "job_end" => {
                    let (Some(s), Some(b)) = (submit, start) else {
                        return Err("job_end without job_submit/job_start".into());
                    };
                    self.queue_wait_s.push(b - s);
                    if rec.get("outcome").and_then(Json::str_val) == Some("ok") {
                        self.run_s.push(t - b);
                    }
                }
                "stage_end" => {
                    self.stage_end(num("stage") as u64, num("seconds"), num("cells") as u64)
                }
                "kernel" if num("stage") == 1.0 => {
                    self.stage1_paths.add(&PathCounts {
                        striped8: num("striped8") as u64,
                        striped8_fb16: num("striped8_fb16") as u64,
                        striped16: num("striped16") as u64,
                        fallback: num("fallback") as u64,
                    });
                }
                "strip_progress" => self.strip_publishes += 1,
                "strip_steal" if rec.get("stolen").and_then(Json::bool_val) == Some(true) => {
                    self.strip_steals += 1;
                }
                "run_end" => self.runs += 1,
                _ => {}
            }
        }
        Ok(())
    }
}

impl Recorder for Ledger {
    fn record(&mut self, _t: Duration, ev: &Event) {
        match ev {
            Event::StageEnd { stage, seconds, cells } => {
                self.stage_end(u64::from(*stage), *seconds, *cells)
            }
            Event::Kernel { stage: 1, striped8, striped8_fb16, striped16, fallback, .. } => {
                self.stage1_paths.add(&PathCounts {
                    striped8: *striped8,
                    striped8_fb16: *striped8_fb16,
                    striped16: *striped16,
                    fallback: *fallback,
                });
            }
            Event::StripProgress { .. } => self.strip_publishes += 1,
            Event::StripSteal { stolen: true, .. } => self.strip_steals += 1,
            Event::RunEnd { .. } => self.runs += 1,
            _ => {}
        }
    }
}
