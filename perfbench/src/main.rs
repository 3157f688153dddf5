//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <homolog-w2|unrelated-w2|serve-open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric, then, as the last line of standard output,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, measured with no
//! recorder attached; with `--trace 1` they are the per-layer ledger.
//! Every alignment is checked against `sw_core::full::sw_local_score`
//! outside the timed regions; any failed check makes the exit code 1.
//! Metric definitions per workload are in `perfbench/NOTES.md`.

use cudalign::config::SraBackend;
use cudalign::{
    JobReport, JobRequest, Obs, Pipeline, PipelineConfig, PipelineError, PipelineResult,
    PipelineStats, ServeConfig, ServeError, ServeStats, Server,
};
use perfbench::gate::{self, Signature};
use perfbench::ledger::Ledger;
use perfbench::loadgen;
use perfbench::replay::{self, Profiles, Replay};
use perfbench::stats::{median, tail};
use perfbench::store::{self, StoreTiming};
use perfbench::workloads::{self, AlignSpec, Pair};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sw_core::full::sw_local_score;
use sw_core::{Score, Scoring};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Fewest timed alignments per run, however short `--seconds` is.
const MIN_TIMED_ALIGNS: usize = 3;
/// Open-loop arrival rate of `serve-open`, in jobs per second: about
/// half of what the server drains on the reference host (2 CPUs).
const SERVE_RATE: f64 = 30.0;
/// Jobs in each of `serve-open`'s drain batches (the server's default
/// queue bound).
const DRAIN_BATCH: usize = 64;
/// Drain batches per run; the drain metrics are their median.
const DRAIN_ROUNDS: usize = 3;
/// Pipeline workers (= shared pool lanes) for `serve-open`.
const SERVE_WORKERS: usize = 2;
/// Open-loop seconds of the serve session in an align workload's
/// traced pass (one drain batch follows).
const SERVE_SAMPLE_SECONDS: f64 = 4.0;
/// `serve-open` pairs whose direct alignment, with and without a
/// recorder, gives its trace overhead.
const OVERHEAD_SAMPLE: usize = 32;

type Reference = (Score, (usize, usize));

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

/// Checks and metrics of one benchmark run.
#[derive(Default)]
struct Run {
    attempted: u64,
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Run {
    /// Count one operation and record its failure, if any.
    fn check(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.errors.push(format!("{what}: {e}"));
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let io_root = PathBuf::from(".perfbench_io");
    let io = io_root.join(std::process::id().to_string());
    let mut run = Run::default();
    match args.workload.as_str() {
        "homolog-w2" => align_workload(&workloads::HOMOLOG, &args, &io, &mut run),
        "unrelated-w2" => align_workload(&workloads::UNRELATED, &args, &io, &mut run),
        "serve-open" => serve_workload(&args, &io, &mut run),
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    let _ = std::fs::remove_dir_all(&io);
    let _ = std::fs::remove_dir(&io_root);

    for e in &run.errors {
        eprintln!("FAILED {e}");
    }
    let failed = run.errors.len() as u64;
    println!(
        "{} seed {}: {} checked, {} failed (failed_ratio {})",
        args.workload,
        args.seed,
        run.attempted,
        failed,
        failed as f64 / run.attempted.max(1) as f64
    );
    let mut json = String::new();
    for (name, value, unit) in &run.metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
        let value = if value.is_finite() { value.to_string() } else { "null".into() };
        json.push_str(&format!(
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if json.is_empty() { "" } else { ", " }
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        failed == 0,
        run.attempted.max(1)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB. Read
/// right after a workload's timed region, so later cross-checks (e.g.
/// the other worker count) do not count.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(f64::NAN);
    kib / 1024.0
}

/// Gate a pipeline outcome for `s0` × `s1`; hands the result back for
/// further use when it passed.
fn gated(
    s0: &[u8],
    s1: &[u8],
    scoring: &Scoring,
    outcome: Result<PipelineResult, PipelineError>,
    reference: Reference,
) -> Result<PipelineResult, String> {
    let res = outcome.map_err(|e| e.to_string())?;
    gate::check(s0, s1, scoring, &res, reference)?;
    Ok(res)
}

/// The p95 the benchmark can support (see [`tail`]), announced with its
/// actual percentile and sample count.
fn reported_tail(latencies: &[f64]) -> f64 {
    let t = tail(latencies, 0.95);
    println!("latency_p95_s is the p{:.1} of {} samples", 100.0 * t.pct, t.samples);
    t.value
}

/// The first result fixes the signature; every later one must repeat it.
fn same_signature(first: &mut Option<Signature>, res: &PipelineResult) -> Result<(), String> {
    let sig = Signature::of(res);
    match first {
        None => {
            *first = Some(sig);
            Ok(())
        }
        Some(f) if *f == sig => Ok(()),
        Some(f) => Err(format!("signature {sig:?} differs from the first run's {f:?}")),
    }
}

// ---------------------------------------------------------------------------
// homolog-w2 / unrelated-w2
// ---------------------------------------------------------------------------

fn align_workload(spec: &AlignSpec, args: &Args, io: &Path, run: &mut Run) {
    let w = spec.pair(args.seed);
    let (s0, s1) = (w.s0.bases(), w.s1.bases());
    let mut cfg = cudalign_bench::runs::repro_config(&w);
    cfg.workers = spec.workers;
    cfg.backend = SraBackend::Disk(io.join("sra"));
    let scoring = cfg.scoring;
    let cells = w.cells() as f64;
    println!(
        "{}: {} x {} pair, {cells} cells, {} worker(s)",
        spec.key,
        s0.len(),
        s1.len(),
        spec.workers
    );

    // References first, outside every timed region.
    let reference = sw_local_score(s0, s1, &scoring);
    let warm_pair = spec.warmup_pair();
    let (w0, w1) = (warm_pair.s0.bases(), warm_pair.s1.bases());
    let warm_reference = sw_local_score(w0, w1, &scoring);

    // Set-up: construct the pipeline (spawning its pool) and run one
    // small alignment of the same kind through every stage on that pool.
    // The warm-up keeps its special lines in memory: creating and
    // deleting its few hundred small files took 130-320 ms depending on
    // the process, which swamped the set-up itself, and every timed
    // align pays its own file traffic anyway.
    let warm_cfg = PipelineConfig { backend: SraBackend::Memory, ..cfg.clone() };
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut pipe = None;
    for _ in 0..SETUP_REPEATS {
        drop(pipe.take());
        let t = Instant::now();
        let p = Pipeline::new(cfg.clone());
        let warm = Pipeline::with_pool(warm_cfg.clone(), Arc::clone(p.pool())).align(w0, w1);
        setup.push(t.elapsed().as_secs_f64());
        run.check("warm-up align", gated(w0, w1, &scoring, warm, warm_reference).map(drop));
        pipe = Some(p);
    }
    let pipe = pipe.expect("SETUP_REPEATS > 0");

    let mut first = None;
    if args.trace {
        align_layers(spec, args, io, run, &pipe, &w, reference, &mut first);
    } else {
        let mut times = Vec::new();
        let start = Instant::now();
        while times.len() < MIN_TIMED_ALIGNS || start.elapsed().as_secs_f64() < args.seconds {
            let t = Instant::now();
            let outcome = pipe.align(s0, s1);
            times.push(t.elapsed().as_secs_f64());
            let checked = gated(s0, s1, &scoring, outcome, reference);
            run.check("align", checked.and_then(|r| same_signature(&mut first, &r)));
        }
        println!("align seconds: {times:?}");
        let align_s = median(&times);
        run.metric("setup_s", median(&setup), "s");
        run.metric("align_s", align_s, "s");
        run.metric("mcups", cells / align_s / 1e6, "MCUPS");
        // A closed loop of one caller: each alignment is due when the
        // previous one returns, so its latency is its wall time.
        run.metric("latency_p50_s", align_s, "s");
        run.metric("latency_p95_s", reported_tail(&times), "s");
        run.metric("drain_jobs_per_s", times.len() as f64 / times.iter().sum::<f64>(), "jobs/s");
        run.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    }
    drop(pipe);

    // The same pair on the other worker count must give the same answer.
    let other = if spec.workers == 1 { 2 } else { 1 };
    let outcome = Pipeline::new(PipelineConfig { workers: other, ..cfg }).align(s0, s1);
    let checked = gated(s0, s1, &scoring, outcome, reference);
    run.check(
        &format!("align on {other} worker(s)"),
        checked.and_then(|r| same_signature(&mut first, &r)),
    );
}

/// The traced pass of an align workload: plain and recorded alignments
/// alternate (their ratio is the trace overhead), then the stage-1 grid
/// is replayed tile by tile and the storage layer is timed.
#[allow(clippy::too_many_arguments)]
fn align_layers(
    spec: &AlignSpec,
    args: &Args,
    io: &Path,
    run: &mut Run,
    pipe: &Pipeline,
    w: &cudalign_bench::runs::Workload,
    reference: Reference,
    first: &mut Option<Signature>,
) {
    let (s0, s1) = (w.s0.bases(), w.s1.bases());
    let cfg = pipe.config();
    let (mut plain, mut recorded) = (Vec::new(), Vec::new());
    let mut last: Option<(Ledger, PipelineStats)> = None;
    let start = Instant::now();
    while plain.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let outcome = pipe.align(s0, s1);
        plain.push(t.elapsed().as_secs_f64());
        let checked = gated(s0, s1, &cfg.scoring, outcome, reference);
        run.check("align", checked.and_then(|r| same_signature(first, &r)));

        let mut ledger = Ledger::default();
        let t = Instant::now();
        let outcome = {
            let mut obs = Obs::new();
            obs.add_recorder(&mut ledger);
            pipe.align_observed(s0, s1, &mut obs)
        };
        recorded.push(t.elapsed().as_secs_f64());
        match gated(s0, s1, &cfg.scoring, outcome, reference) {
            Ok(res) => {
                run.check("traced align", same_signature(first, &res));
                last = Some((ledger, res.stats));
            }
            Err(e) => run.check("traced align", Err(e)),
        }
    }
    let Some((ledger, st)) = last else { return };
    let align_s = *recorded.last().expect("at least one recorded run");

    let (shared, fresh) = replays(run, [(s0, s1)].into_iter(), cfg, &ledger, &[reference]);
    let probe = storage_probe(run, io, st.special_rows, s1.len() + 1);
    // The serve layer, which the align pair does not go through, is
    // measured on a short serve session of its own.
    let serve = serve_session(args.seed, SERVE_SAMPLE_SECONDS, 1, run)
        .map(|s| ServeLayer::of(&s))
        .unwrap_or_default();
    let l = Layers {
        ledger,
        wall_s: align_s,
        lanes: spec.workers as f64,
        shared,
        fresh,
        profile: (st.kernel_profile_hits, st.kernel_profile_misses),
        pool_busy: st.pool_busy_ratio,
        pool_handoffs: st.pool_handoffs,
        sra: (st.special_rows as u64, st.sra_bytes_used),
        store: probe,
        store_retries: st.storage_retries,
        serve,
        overhead: median(&recorded) / median(&plain) - 1.0,
    };
    layer_metrics(run, &l);
    eprintln!(
        "counts: special rows {} cols {}, crosspoints {:?}, profile hits {}/{}",
        st.special_rows,
        st.special_columns,
        st.crosspoints,
        st.kernel_profile_hits,
        st.kernel_profile_hits + st.kernel_profile_misses
    );
}

/// Replay stage 1 of every pair with shared and with fresh profile
/// caches, cross-checking tile counts against the recorded `kernel`
/// records and each pair's best cell against its reference.
fn replays<'a>(
    run: &mut Run,
    pairs: impl Iterator<Item = (&'a [u8], &'a [u8])>,
    cfg: &PipelineConfig,
    ledger: &Ledger,
    references: &[Reference],
) -> (Replay, Replay) {
    let (mut shared, mut fresh) = (Replay::default(), Replay::default());
    for ((s0, s1), &(score, end)) in pairs.zip(references) {
        for (profiles, total) in [(Profiles::Shared, &mut shared), (Profiles::Fresh, &mut fresh)] {
            let r = replay::stage1(s0, s1, &cfg.scoring, &cfg.grid1, profiles);
            let expected = Some((score, end.0, end.1));
            let r = r.and_then(|r| {
                if score > 0 && r.best != expected {
                    Err(format!("replay best {:?} != reference {expected:?}", r.best))
                } else {
                    Ok(r)
                }
            });
            match r {
                Ok(r) => add_replay(total, &r),
                Err(e) => run.check("stage-1 replay", Err(e)),
            }
        }
    }
    run.check("replay tile counts", replay::check_counts(&shared, &ledger.stage1_paths));
    (shared, fresh)
}

/// Time `rows` special rows of `width` cells through a disk-backed store.
fn storage_probe(run: &mut Run, io: &Path, rows: usize, width: usize) -> StoreTiming {
    let probe = store::probe(&io.join("probe"), rows, width);
    let timing = probe.as_ref().copied().unwrap_or_default();
    run.check("storage probe", probe.map(drop));
    timing
}

fn add_replay(total: &mut Replay, r: &Replay) {
    for k in 0..total.tiles.len() {
        total.tiles[k] += r.tiles[k];
        total.secs[k] += r.secs[k];
    }
    total.cells += r.cells;
    total.wasted_s += r.wasted_s;
}

// ---------------------------------------------------------------------------
// serve-open
// ---------------------------------------------------------------------------

/// What one serve session measured, once every answer was checked.
struct ServeRun {
    setup: Vec<f64>,
    /// Open-loop latencies from the due time; misses are infinite.
    latencies: Vec<f64>,
    lag_max_s: f64,
    /// (MCUPS, jobs/s) of each drain batch.
    rounds: Vec<(f64, f64)>,
    peak_rss: f64,
    stats: ServeStats,
    /// The open-loop and drain jobs' traces, folded.
    ledger: Ledger,
    /// Jobs that ran a pipeline (not answered from the cache).
    ran: Vec<(Pair, Reference, PipelineStats)>,
    /// The first drain batch with its references.
    first_batch: Vec<(Pair, Reference)>,
}

fn serve_config() -> PipelineConfig {
    PipelineConfig::default_cpu().with_workers(SERVE_WORKERS)
}

/// Run the serve traffic: set-up, an open loop for `seconds`, then
/// `rounds` drain batches; then check every answer. `None` when the
/// server cannot start.
fn serve_session(seed: u64, seconds: f64, rounds: usize, run: &mut Run) -> Option<ServeRun> {
    let cfg = serve_config();
    let scoring = cfg.scoring;
    let count = ((SERVE_RATE * seconds).round() as usize).max(1);
    let open = workloads::open_loop_pairs(seed, count);
    let fresh = open.distinct();
    let batches: Vec<Vec<Pair>> = (0..rounds)
        .map(|r| fresh + r * DRAIN_BATCH)
        .map(|base| (base..base + DRAIN_BATCH).map(|i| workloads::serve_pair(seed, i)).collect())
        .collect();
    let warm = workloads::serve_warmup_pair();
    let request = |p: &Pair| JobRequest::new(p.s0.clone(), p.s1.clone());

    // Set-up: start the server (runner threads, shared pool) and serve
    // one job through it.
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut warm_reports = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(s) = server.take() {
            s.shutdown();
        }
        let t = Instant::now();
        let s = match Server::new(ServeConfig::new(cfg.clone())) {
            Ok(s) => s,
            Err(e) => {
                run.check("server start", Err(e.to_string()));
                return None;
            }
        };
        let rep = s.submit(request(&warm)).map(|h| h.wait());
        setup.push(t.elapsed().as_secs_f64());
        warm_reports.push(rep.map_err(|e| e.to_string()));
        server = Some(s);
    }
    let server = server.expect("SETUP_REPEATS > 0");

    // Phase 1: open loop at a fixed rate.
    let sent =
        loadgen::open_loop(count, SERVE_RATE, |k| server.submit(request(&open.pairs[k])).ok());
    let open_reports: Vec<Option<JobReport>> =
        sent.iter().map(|s| s.handle.as_ref().map(|h| h.wait())).collect();

    // Phase 2: batches submitted at once, each after the previous one
    // drained, retrying while the queue is full.
    let mut batch_reports: Vec<Vec<JobReport>> = Vec::with_capacity(rounds);
    let mut makespans = Vec::with_capacity(rounds);
    for batch in &batches {
        let t = Instant::now();
        let handles = loop {
            match server.submit_batch(batch.iter().map(request).collect()) {
                Ok(h) => break h,
                Err(ServeError::QueueFull { .. }) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => {
                    run.check("drain batch", Err(e.to_string()));
                    break Vec::new();
                }
            }
        };
        batch_reports.push(handles.iter().map(|h| h.wait()).collect());
        makespans.push(t.elapsed().as_secs_f64());
    }
    let stats = server.shutdown();
    let peak_rss = peak_rss_mib();

    // Check every answer against references computed after the timed
    // phases: one per distinct pair (a repeat shares its original's).
    let originals: Vec<usize> = (0..count).filter(|&k| open.origin[k] == k).collect();
    let distinct: Vec<&Pair> = originals
        .iter()
        .map(|&k| &open.pairs[k])
        .chain(batches.iter().flatten())
        .chain([&warm])
        .collect();
    let refs = references(&distinct, &scoring);
    let open_refs: Vec<Reference> = (0..count)
        .map(|k| refs[originals.binary_search(&open.origin[k]).expect("origin is distinct")])
        .collect();
    let batch_refs = &refs[fresh..fresh + rounds * DRAIN_BATCH];
    let warm_ref = refs[refs.len() - 1];

    let mut check_report = |what: &str, p: &Pair, rep: Option<&JobReport>, reference| {
        let r = match rep {
            None => Err("refused".to_string()),
            Some(rep) => match &rep.outcome {
                Ok(res) => gate::check(&p.s0, &p.s1, &scoring, res, reference),
                Err(e) => Err(format!("job failed: {e}")),
            },
        };
        run.check(what, r);
    };
    for rep in &warm_reports {
        match rep {
            Ok(rep) => check_report("warm-up job", &warm, Some(rep), warm_ref),
            Err(e) => check_report(&format!("warm-up job: {e}"), &warm, None, warm_ref),
        }
    }
    for k in 0..count {
        check_report("open-loop job", &open.pairs[k], open_reports[k].as_ref(), open_refs[k]);
    }
    let drained: Vec<(&Pair, Option<&JobReport>, Reference)> = batches
        .iter()
        .zip(&batch_reports)
        .flat_map(|(b, r)| b.iter().enumerate().map(move |(k, p)| (p, r.get(k))))
        .zip(batch_refs)
        .map(|((p, r), &x)| (p, r, x))
        .collect();
    for &(p, rep, reference) in &drained {
        check_report("drain job", p, rep, reference);
    }

    let mut ledger = Ledger::default();
    for rep in open_reports.iter().flatten().chain(batch_reports.iter().flatten()) {
        run.check("job trace", ledger.ingest_job_trace(&rep.trace));
    }
    let ran = (0..count)
        .map(|k| (&open.pairs[k], open_reports[k].as_ref(), open_refs[k]))
        .chain(drained.iter().copied())
        .filter_map(|(p, rep, x)| match rep.filter(|r| !r.cached).map(|r| &r.outcome) {
            Some(Ok(res)) => Some((p.clone(), x, res.stats.clone())),
            _ => None,
        })
        .collect();
    let latencies = sent
        .iter()
        .zip(&open_reports)
        .map(|(s, r)| s.latency(r.as_ref().filter(|r| r.outcome.is_ok()).map(|r| r.seconds)))
        .collect();
    let rounds = batches
        .iter()
        .zip(&batch_reports)
        .zip(&makespans)
        .map(|((b, r), &t)| {
            let cells: f64 = b.iter().map(|p| (p.s0.len() * p.s1.len()) as f64).sum();
            (cells / t / 1e6, r.len() as f64 / t)
        })
        .collect();
    eprintln!(
        "counts: jobs {} ran {} cached {} rejected {} queue peak {}",
        stats.submitted, stats.completed, stats.cache_hits, stats.rejected, stats.queue_peak
    );
    Some(ServeRun {
        setup,
        latencies,
        lag_max_s: sent.iter().map(|s| s.lag()).fold(0.0, f64::max),
        rounds,
        peak_rss,
        stats,
        ledger,
        ran,
        first_batch: drained.iter().take(DRAIN_BATCH).map(|&(p, _, x)| (p.clone(), x)).collect(),
    })
}

/// The serve-open workload. Not in `BENCHMARK.json` (too unsteady on a
/// 2-CPU VM, see NOTES.md); run it by hand.
fn serve_workload(args: &Args, io: &Path, run: &mut Run) {
    let Some(s) = serve_session(args.seed, args.seconds, DRAIN_ROUNDS, run) else { return };
    if !args.trace {
        let run_seconds: Vec<f64> = s.ran.iter().map(|(_, _, st)| st.total_seconds).collect();
        let (mcups, drain): (Vec<f64>, Vec<f64>) = s.rounds.iter().copied().unzip();
        run.metric("setup_s", median(&s.setup), "s");
        run.metric(
            "align_s",
            if run_seconds.is_empty() { f64::NAN } else { median(&run_seconds) },
            "s",
        );
        run.metric("mcups", median(&mcups), "MCUPS");
        run.metric("latency_p50_s", median(&s.latencies), "s");
        run.metric("latency_p95_s", reported_tail(&s.latencies), "s");
        run.metric("drain_jobs_per_s", median(&drain), "jobs/s");
        run.metric("peak_rss_mib", s.peak_rss, "MiB");
        return;
    }

    let cfg = serve_config();
    let job_stats: Vec<&PipelineStats> = s.ran.iter().map(|(_, _, st)| st).collect();
    let pairs = s.ran.iter().map(|(p, _, _)| (p.s0.as_slice(), p.s1.as_slice()));
    let ran_refs: Vec<Reference> = s.ran.iter().map(|(_, r, _)| *r).collect();
    let (shared, fresh) = replays(run, pairs, &cfg, &s.ledger, &ran_refs);
    let rows: usize = job_stats.iter().map(|st| st.special_rows).sum();
    let width = s.ran.iter().map(|(p, _, _)| p.s1.len() + 1).max().unwrap_or(1);
    let probe = storage_probe(run, io, rows, width);
    let n_jobs = job_stats.len().max(1) as f64;
    let sample = &s.first_batch[..OVERHEAD_SAMPLE.min(s.first_batch.len())];
    let overhead = direct_overhead(run, &cfg, sample);
    let l = Layers {
        wall_s: job_stats.iter().map(|st| st.total_seconds).sum(),
        lanes: SERVE_WORKERS as f64,
        shared,
        fresh,
        profile: job_stats
            .iter()
            .fold((0, 0), |(h, m), st| (h + st.kernel_profile_hits, m + st.kernel_profile_misses)),
        pool_busy: job_stats.iter().map(|st| st.pool_busy_ratio).sum::<f64>() / n_jobs,
        pool_handoffs: job_stats.iter().map(|st| st.pool_handoffs).sum(),
        sra: (rows as u64, job_stats.iter().map(|st| st.sra_bytes_used).sum()),
        store: probe,
        store_retries: job_stats.iter().map(|st| st.storage_retries).sum(),
        serve: ServeLayer::of(&s),
        overhead,
        ledger: s.ledger,
    };
    layer_metrics(run, &l);
}

/// `sw_local_score` of every pair, split over two threads.
fn references(pairs: &[&Pair], scoring: &Scoring) -> Vec<Reference> {
    let half = pairs.len().div_ceil(2);
    let score = |chunk: &[&Pair]| -> Vec<Reference> {
        chunk.iter().map(|p| sw_local_score(&p.s0, &p.s1, scoring)).collect()
    };
    std::thread::scope(|s| {
        let second = s.spawn(|| score(&pairs[half..]));
        let mut out = score(&pairs[..half]);
        out.extend(second.join().expect("reference thread panicked"));
        out
    })
}

/// Trace overhead on small jobs: align each pair directly, alternately
/// without and with a recorder, and compare the summed times.
fn direct_overhead(run: &mut Run, cfg: &PipelineConfig, pairs: &[(Pair, Reference)]) -> f64 {
    let pipe = Pipeline::new(cfg.clone());
    let (mut plain, mut recorded) = (0.0, 0.0);
    for (p, reference) in pairs {
        let reference = *reference;
        let t = Instant::now();
        let outcome = pipe.align(&p.s0, &p.s1);
        plain += t.elapsed().as_secs_f64();
        run.check("direct align", gated(&p.s0, &p.s1, &cfg.scoring, outcome, reference).map(drop));
        let mut ledger = Ledger::default();
        let t = Instant::now();
        let outcome = {
            let mut obs = Obs::new();
            obs.add_recorder(&mut ledger);
            pipe.align_observed(&p.s0, &p.s1, &mut obs)
        };
        recorded += t.elapsed().as_secs_f64();
        run.check(
            "direct traced align",
            gated(&p.s0, &p.s1, &cfg.scoring, outcome, reference).map(drop),
        );
    }
    recorded / plain - 1.0
}

// ---------------------------------------------------------------------------
// The per-layer ledger
// ---------------------------------------------------------------------------

/// Serve-layer numbers of one serve session.
#[derive(Default)]
struct ServeLayer {
    queue_wait_s: Vec<f64>,
    run_s: Vec<f64>,
    cache_hit_ratio: f64,
    queue_peak: f64,
    rejected: f64,
    lag_max_s: f64,
}

impl ServeLayer {
    fn of(s: &ServeRun) -> Self {
        ServeLayer {
            queue_wait_s: s.ledger.queue_wait_s.clone(),
            run_s: s.ledger.run_s.clone(),
            cache_hit_ratio: s.stats.cache_hits as f64 / s.stats.submitted.max(1) as f64,
            queue_peak: s.stats.queue_peak as f64,
            rejected: s.stats.rejected as f64,
            lag_max_s: s.lag_max_s,
        }
    }
}

/// Everything the per-layer metrics are computed from.
struct Layers {
    ledger: Ledger,
    /// Wall seconds of the traced pipeline run(s) the ledger covers.
    wall_s: f64,
    /// Pool lanes each run used.
    lanes: f64,
    shared: Replay,
    fresh: Replay,
    /// Query-profile cache (hits, misses) across the engine stages.
    profile: (u64, u64),
    pool_busy: f64,
    pool_handoffs: u64,
    /// Special rows kept and bytes written for them.
    sra: (u64, u64),
    store: StoreTiming,
    store_retries: u64,
    serve: ServeLayer,
    overhead: f64,
}

fn layer_metrics(run: &mut Run, l: &Layers) {
    let led = &l.ledger;
    let stage_sum: f64 = led.stage_s[..5].iter().sum();
    for (k, name) in
        ["stage1.s", "stage2.s", "stage3.s", "stage4.s", "stage5.s"].into_iter().enumerate()
    {
        run.metric(name, led.stage_s[k], "s");
    }
    run.metric("stage1.mcups", led.stage_cells[0] as f64 / led.stage_s[0] / 1e6, "MCUPS");
    for (k, name) in [(1, "stage2.cells"), (2, "stage3.cells"), (3, "stage4.cells")] {
        run.metric(name, led.stage_cells[k] as f64, "count");
    }
    run.metric("stage.other_s", l.wall_s - stage_sum, "s");

    let tile_names =
        ["kernel.tiles.i8", "kernel.tiles.i8_fb16", "kernel.tiles.i16", "kernel.tiles.scalar_fb"];
    let time_names = ["kernel.s.i8", "kernel.s.i8_fb16", "kernel.s.i16", "kernel.s.scalar_fb"];
    for k in 0..4 {
        run.metric(tile_names[k], l.shared.tiles[k] as f64, "count");
        run.metric(time_names[k], l.shared.secs[k], "s");
    }
    let replay_s = l.shared.total_s();
    run.metric("kernel.replay_s", replay_s, "s");
    run.metric("kernel.replay_mcups", l.shared.cells as f64 / replay_s / 1e6, "MCUPS");
    run.metric("kernel.wasted_rung_s", l.shared.wasted_s, "s");
    run.metric("kernel.wasted_rung_share", l.shared.wasted_s / replay_s, "ratio");
    let (hits, misses) = l.profile;
    run.metric("kernel.profile_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    run.metric("kernel.profile_saving_s", l.fresh.total_s() - replay_s, "s");

    run.metric("sched.lane_efficiency", replay_s / (led.stage_s[0] * l.lanes), "ratio");
    run.metric("sched.stage1_overhead_s", led.stage_s[0] - replay_s / l.lanes, "s");
    run.metric("pool.busy_ratio", l.pool_busy, "ratio");
    run.metric("pool.handoffs", l.pool_handoffs as f64, "count");
    run.metric("strip.publishes", led.strip_publishes as f64, "count");
    run.metric("strip.steals", led.strip_steals as f64, "count");

    run.metric("sra.rows", l.sra.0 as f64, "count");
    run.metric("sra.bytes", l.sra.1 as f64, "bytes");
    run.metric("storage.write_s", l.store.write_s, "s");
    run.metric("storage.read_s", l.store.read_s, "s");
    run.metric("storage.retries", (l.store_retries + l.store.retries) as f64, "count");

    let or_zero = |xs: &[f64], f: fn(&[f64]) -> f64| if xs.is_empty() { 0.0 } else { f(xs) };
    let sv = &l.serve;
    run.metric("serve.queue_wait_p50_s", or_zero(&sv.queue_wait_s, median), "s");
    run.metric("serve.queue_wait_p95_s", or_zero(&sv.queue_wait_s, |x| tail(x, 0.95).value), "s");
    run.metric("serve.run_p50_s", or_zero(&sv.run_s, median), "s");
    run.metric("serve.cache_hit_ratio", l.serve.cache_hit_ratio, "ratio");
    run.metric("serve.queue_peak", l.serve.queue_peak, "count");
    run.metric("serve.rejected", l.serve.rejected, "count");
    run.metric("loadgen.lag_max_s", l.serve.lag_max_s, "s");
    run.metric("trace.overhead_ratio", l.overhead, "ratio");
}
