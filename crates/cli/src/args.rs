//! Hand-rolled argument parsing (std only, per the workspace dependency
//! policy).

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;

/// Usage text.
pub const USAGE: &str = "\
cudalign — full Smith-Waterman alignment of huge sequences in linear space

USAGE:
  cudalign align <A.fasta> <B.fasta> [options]
      -o, --out FILE          write the binary alignment (.cal2)
      --sra-bytes N           special rows area budget (default 256 MiB)
      --sca-bytes N           special columns budget (default 64 MiB)
      --disk DIR              keep special rows/columns on disk under DIR
      --max-partition N       stage-4 maximum partition size (default 16)
      --workers N             worker threads (default: all cores)
      --match N --mismatch N --gap-first N --gap-ext N
                              scoring (default +1/-3/5/2, as the paper)
      --middle-row-split      disable balanced splitting (classic MM)
      --no-orthogonal         disable orthogonal execution in stage 4
      --parallel-partitions   stage-3 future-work mode (one block/partition)
      --checkpoint-dir DIR    write stage-1 snapshots to DIR (resumes
                              automatically from an existing snapshot)
      --checkpoint-every N    snapshot cadence in external diagonals (default 64)
      --deadline-ms N         abort the run (typed error, resumable) once
                              N wall-clock milliseconds elapse
      --cancel-after-diag N   cancel at stage-1 external diagonal N
                              (deterministic cancellation for testing)
      --stats                 print per-stage statistics
      --trace FILE            write an NDJSON event trace of the run
                              (spans, per-diagonal ticks, metrics dump,
                              cancel/deadline interrupt records)
      --progress              live progress line on stderr with
                              percent-complete and ETA (resume-aware)

  cudalign serve <MANIFEST> [options]
      Batch service mode: MANIFEST lists one job per line,
      `A.fasta B.fasta [priority]` (# comments allowed). Jobs run on a
      bounded queue over one shared worker pool, drained by priority
      then shortest-first; duplicate pairs are served from the result
      cache.
      --runners N             concurrent pipelines (default 2)
      --queue-cap N           max queued jobs before QueueFull (default 64)
      --cache-cap N           result-cache entries, 0 disables (default 32)
      --workers N             shared-pool worker threads (default: all cores)
      --deadline-ms N         per-job deadline in wall-clock milliseconds
      --trace-dir DIR         write each job's NDJSON trace to
                              DIR/job-<id>.ndjson (schema-validated)
      --stats                 print merged server statistics

  cudalign view <OUT.cal2> <A.fasta> <B.fasta> [options]
      --width N               text wrap width (default 80)
      --head N                print only the first N text lines
      --plot RxC              ASCII dot plot with R rows x C cols
      --pgm FILE[:WxH]        write a PGM image of the alignment path

  cudalign info <OUT.cal2>

  cudalign generate <unrelated|strain|chromosome|diverged|island> [options]
      --len N                 sequence length (default 10000)
      --seed N                generator seed (default 42)
      --out PREFIX            write PREFIX-0.fasta / PREFIX-1.fasta

  cudalign dataset <TABLE-II-KEY|list> [options]
      --scale N               divide real lengths by N (default 1000)
      --seed N                generator seed (default 42)
      --out PREFIX            write PREFIX-0.fasta / PREFIX-1.fasta
";

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `align`
    Align(AlignArgs),
    /// `serve`
    Serve(ServeArgs),
    /// `view`
    View(ViewArgs),
    /// `info`
    Info {
        /// Binary alignment path.
        path: PathBuf,
    },
    /// `generate`
    Generate(GenerateArgs),
    /// `dataset`
    Dataset(DatasetArgs),
    /// `--help` / no arguments.
    Help,
}

/// Arguments of `align`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignArgs {
    /// First FASTA file (S0).
    pub a: PathBuf,
    /// Second FASTA file (S1).
    pub b: PathBuf,
    /// Optional output path for the binary alignment.
    pub out: Option<PathBuf>,
    /// SRA budget override.
    pub sra_bytes: Option<u64>,
    /// SCA budget override.
    pub sca_bytes: Option<u64>,
    /// Disk directory for the stores.
    pub disk: Option<PathBuf>,
    /// Maximum partition size override.
    pub max_partition: Option<usize>,
    /// Worker override.
    pub workers: Option<usize>,
    /// Scoring overrides: (match, mismatch, gap_first, gap_ext).
    pub scoring: (Option<i32>, Option<i32>, Option<i32>, Option<i32>),
    /// Disable balanced splitting.
    pub middle_row_split: bool,
    /// Disable orthogonal stage 4.
    pub no_orthogonal: bool,
    /// Enable the parallel-partitions future-work mode.
    pub parallel_partitions: bool,
    /// Checkpoint directory for stage-1 snapshots.
    pub checkpoint_dir: Option<PathBuf>,
    /// Snapshot cadence in external diagonals.
    pub checkpoint_every: usize,
    /// Abort the run after this many wall-clock milliseconds.
    pub deadline_ms: Option<u64>,
    /// Cancel the run at this stage-1 external diagonal.
    pub cancel_after_diag: Option<usize>,
    /// Print statistics.
    pub stats: bool,
    /// Write an NDJSON event trace of the run to this path.
    pub trace: Option<PathBuf>,
    /// Render a live progress line (percent + ETA) on stderr.
    pub progress: bool,
}

/// Arguments of `serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Manifest path: one `A.fasta B.fasta [priority]` job per line.
    pub manifest: PathBuf,
    /// Concurrent pipelines over the shared pool.
    pub runners: Option<usize>,
    /// Queue bound before `QueueFull` backpressure.
    pub queue_cap: Option<usize>,
    /// Result-cache entries (0 disables the cache).
    pub cache_cap: Option<usize>,
    /// Shared-pool worker threads.
    pub workers: Option<usize>,
    /// Per-job deadline in wall-clock milliseconds.
    pub deadline_ms: Option<u64>,
    /// Directory for per-job NDJSON traces.
    pub trace_dir: Option<PathBuf>,
    /// Print merged server statistics.
    pub stats: bool,
}

/// Arguments of `view`.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewArgs {
    /// Binary alignment path.
    pub alignment: PathBuf,
    /// First FASTA file.
    pub a: PathBuf,
    /// Second FASTA file.
    pub b: PathBuf,
    /// Text wrap width.
    pub width: usize,
    /// Limit on printed text lines.
    pub head: Option<usize>,
    /// ASCII plot size `(rows, cols)`.
    pub plot: Option<(usize, usize)>,
    /// PGM output `(path, width, height)`.
    pub pgm: Option<(PathBuf, usize, usize)>,
}

/// Arguments of `generate`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    /// Workload kind.
    pub kind: String,
    /// Sequence length.
    pub len: usize,
    /// Seed.
    pub seed: u64,
    /// Output prefix (None = stdout summary only).
    pub out: Option<PathBuf>,
}

/// Arguments of `dataset`.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetArgs {
    /// Table II key or `list`.
    pub key: String,
    /// Scale divisor.
    pub scale: usize,
    /// Seed.
    pub seed: u64,
    /// Output prefix.
    pub out: Option<PathBuf>,
}

/// Parse failure with a message for the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

struct Opts {
    flags: HashMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
}

/// Split `args` into positionals, `--key value` pairs and bare switches.
/// Flags outside `flag_names`/`switch_names` are rejected so typos fail
/// loudly instead of silently running with defaults.
fn split_opts(
    args: &[String],
    flag_names: &[&str],
    switch_names: &[&str],
) -> Result<Opts, ParseError> {
    let mut flags = HashMap::new();
    let mut switches = Vec::new();
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--").or_else(|| arg.strip_prefix('-')) {
            if switch_names.contains(&name) {
                switches.push(name.to_string());
            } else if flag_names.contains(&name) {
                let value =
                    it.next().ok_or_else(|| ParseError(format!("missing value for --{name}")))?;
                flags.insert(name.to_string(), value.clone());
            } else {
                return Err(ParseError(format!("unknown option --{name}")));
            }
        } else {
            positional.push(arg.clone());
        }
    }
    Ok(Opts { flags, switches, positional })
}

fn get_num<T: std::str::FromStr>(opts: &Opts, name: &str) -> Result<Option<T>, ParseError> {
    match opts.flags.get(name) {
        None => Ok(None),
        Some(v) => {
            v.parse().map(Some).map_err(|_| ParseError(format!("invalid value {v:?} for --{name}")))
        }
    }
}

/// Parse a full command line (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "align" => {
            let opts = split_opts(
                rest,
                &[
                    "out",
                    "o",
                    "sra-bytes",
                    "sca-bytes",
                    "disk",
                    "max-partition",
                    "workers",
                    "match",
                    "mismatch",
                    "gap-first",
                    "gap-ext",
                    "checkpoint-dir",
                    "checkpoint-every",
                    "deadline-ms",
                    "cancel-after-diag",
                    "trace",
                ],
                &["stats", "middle-row-split", "no-orthogonal", "parallel-partitions", "progress"],
            )?;
            if opts.positional.len() != 2 {
                return Err(ParseError("align needs exactly two FASTA paths".into()));
            }
            Ok(Command::Align(AlignArgs {
                a: PathBuf::from(&opts.positional[0]),
                b: PathBuf::from(&opts.positional[1]),
                out: opts.flags.get("out").or(opts.flags.get("o")).map(PathBuf::from),
                sra_bytes: get_num(&opts, "sra-bytes")?,
                sca_bytes: get_num(&opts, "sca-bytes")?,
                disk: opts.flags.get("disk").map(PathBuf::from),
                max_partition: get_num(&opts, "max-partition")?,
                workers: get_num(&opts, "workers")?,
                scoring: (
                    get_num(&opts, "match")?,
                    get_num(&opts, "mismatch")?,
                    get_num(&opts, "gap-first")?,
                    get_num(&opts, "gap-ext")?,
                ),
                checkpoint_dir: opts.flags.get("checkpoint-dir").map(PathBuf::from),
                checkpoint_every: get_num(&opts, "checkpoint-every")?.unwrap_or(64),
                deadline_ms: get_num(&opts, "deadline-ms")?,
                cancel_after_diag: get_num(&opts, "cancel-after-diag")?,
                middle_row_split: opts.switches.iter().any(|s| s == "middle-row-split"),
                no_orthogonal: opts.switches.iter().any(|s| s == "no-orthogonal"),
                parallel_partitions: opts.switches.iter().any(|s| s == "parallel-partitions"),
                stats: opts.switches.iter().any(|s| s == "stats"),
                trace: opts.flags.get("trace").map(PathBuf::from),
                progress: opts.switches.iter().any(|s| s == "progress"),
            }))
        }
        "serve" => {
            let opts = split_opts(
                rest,
                &["runners", "queue-cap", "cache-cap", "workers", "deadline-ms", "trace-dir"],
                &["stats"],
            )?;
            if opts.positional.len() != 1 {
                return Err(ParseError("serve needs exactly one manifest path".into()));
            }
            Ok(Command::Serve(ServeArgs {
                manifest: PathBuf::from(&opts.positional[0]),
                runners: get_num(&opts, "runners")?,
                queue_cap: get_num(&opts, "queue-cap")?,
                cache_cap: get_num(&opts, "cache-cap")?,
                workers: get_num(&opts, "workers")?,
                deadline_ms: get_num(&opts, "deadline-ms")?,
                trace_dir: opts.flags.get("trace-dir").map(PathBuf::from),
                stats: opts.switches.iter().any(|s| s == "stats"),
            }))
        }
        "view" => {
            let opts = split_opts(rest, &["width", "head", "plot", "pgm"], &[])?;
            if opts.positional.len() != 3 {
                return Err(ParseError("view needs <OUT.cal2> <A.fasta> <B.fasta>".into()));
            }
            let plot = match opts.flags.get("plot") {
                None => None,
                Some(v) => {
                    let (r, c) = v
                        .split_once(['x', 'X'])
                        .ok_or_else(|| ParseError(format!("--plot expects RxC, got {v:?}")))?;
                    Some((
                        r.parse().map_err(|_| ParseError(format!("bad plot rows {r:?}")))?,
                        c.parse().map_err(|_| ParseError(format!("bad plot cols {c:?}")))?,
                    ))
                }
            };
            let pgm = match opts.flags.get("pgm") {
                None => None,
                Some(v) => {
                    let (path, dims) = v.split_once(':').unwrap_or((v.as_str(), "512x512"));
                    let (w, h) = dims.split_once(['x', 'X']).ok_or_else(|| {
                        ParseError(format!("--pgm dims must be WxH, got {dims:?}"))
                    })?;
                    Some((
                        PathBuf::from(path),
                        w.parse().map_err(|_| ParseError(format!("bad pgm width {w:?}")))?,
                        h.parse().map_err(|_| ParseError(format!("bad pgm height {h:?}")))?,
                    ))
                }
            };
            Ok(Command::View(ViewArgs {
                alignment: PathBuf::from(&opts.positional[0]),
                a: PathBuf::from(&opts.positional[1]),
                b: PathBuf::from(&opts.positional[2]),
                width: get_num(&opts, "width")?.unwrap_or(80),
                head: get_num(&opts, "head")?,
                plot,
                pgm,
            }))
        }
        "info" => {
            let opts = split_opts(rest, &[], &[])?;
            if opts.positional.len() != 1 {
                return Err(ParseError("info needs exactly one .cal2 path".into()));
            }
            Ok(Command::Info { path: PathBuf::from(&opts.positional[0]) })
        }
        "generate" => {
            let opts = split_opts(rest, &["len", "seed", "out"], &[])?;
            let kind = opts
                .positional
                .first()
                .ok_or_else(|| ParseError("generate needs a workload kind".into()))?
                .clone();
            Ok(Command::Generate(GenerateArgs {
                kind,
                len: get_num(&opts, "len")?.unwrap_or(10_000),
                seed: get_num(&opts, "seed")?.unwrap_or(42),
                out: opts.flags.get("out").map(PathBuf::from),
            }))
        }
        "dataset" => {
            let opts = split_opts(rest, &["scale", "seed", "out"], &[])?;
            let key = opts
                .positional
                .first()
                .ok_or_else(|| ParseError("dataset needs a Table II key (or 'list')".into()))?
                .clone();
            Ok(Command::Dataset(DatasetArgs {
                key,
                scale: get_num(&opts, "scale")?.unwrap_or(1000),
                seed: get_num(&opts, "seed")?.unwrap_or(42),
                out: opts.flags.get("out").map(PathBuf::from),
            }))
        }
        other => Err(ParseError(format!("unknown command {other:?}; try 'cudalign help'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_align_with_options() {
        let cmd = parse(&sv(&[
            "align",
            "a.fa",
            "b.fa",
            "--out",
            "x.cal2",
            "--sra-bytes",
            "1024",
            "--stats",
            "--workers",
            "3",
            "--mismatch",
            "-2",
        ]))
        .unwrap();
        match cmd {
            Command::Align(a) => {
                assert_eq!(a.a, PathBuf::from("a.fa"));
                assert_eq!(a.out, Some(PathBuf::from("x.cal2")));
                assert_eq!(a.sra_bytes, Some(1024));
                assert_eq!(a.workers, Some(3));
                assert_eq!(a.scoring.1, Some(-2));
                assert!(a.stats);
                assert!(!a.no_orthogonal);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_trace_and_progress() {
        let cmd =
            parse(&sv(&["align", "a.fa", "b.fa", "--trace", "run.ndjson", "--progress"])).unwrap();
        match cmd {
            Command::Align(a) => {
                assert_eq!(a.trace, Some(PathBuf::from("run.ndjson")));
                assert!(a.progress);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults stay off.
        match parse(&sv(&["align", "a.fa", "b.fa"])).unwrap() {
            Command::Align(a) => {
                assert_eq!(a.trace, None);
                assert!(!a.progress);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_supervision_flags() {
        let cmd = parse(&sv(&[
            "align",
            "a.fa",
            "b.fa",
            "--deadline-ms",
            "1500",
            "--cancel-after-diag",
            "32",
        ]))
        .unwrap();
        match cmd {
            Command::Align(a) => {
                assert_eq!(a.deadline_ms, Some(1500));
                assert_eq!(a.cancel_after_diag, Some(32));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults stay off, bad values fail loudly.
        match parse(&sv(&["align", "a.fa", "b.fa"])).unwrap() {
            Command::Align(a) => {
                assert_eq!(a.deadline_ms, None);
                assert_eq!(a.cancel_after_diag, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&sv(&["align", "a", "b", "--deadline-ms", "soon"])).is_err());
        assert!(parse(&sv(&["align", "a", "b", "--cancel-after-diag"])).is_err());
    }

    #[test]
    fn parses_serve_with_options() {
        let cmd = parse(&sv(&[
            "serve",
            "jobs.txt",
            "--runners",
            "3",
            "--queue-cap",
            "16",
            "--deadline-ms",
            "2000",
            "--trace-dir",
            "traces",
            "--stats",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(s) => {
                assert_eq!(s.manifest, PathBuf::from("jobs.txt"));
                assert_eq!(s.runners, Some(3));
                assert_eq!(s.queue_cap, Some(16));
                assert_eq!(s.cache_cap, None);
                assert_eq!(s.deadline_ms, Some(2000));
                assert_eq!(s.trace_dir, Some(PathBuf::from("traces")));
                assert!(s.stats);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&sv(&["serve"])).is_err(), "manifest is required");
        assert!(parse(&sv(&["serve", "a.txt", "b.txt"])).is_err(), "one manifest only");
        assert!(parse(&sv(&["serve", "jobs.txt", "--runners", "few"])).is_err());
    }

    #[test]
    fn parses_view_plot_and_pgm() {
        let cmd = parse(&sv(&[
            "view",
            "x.cal2",
            "a.fa",
            "b.fa",
            "--plot",
            "20x60",
            "--pgm",
            "img.pgm:128x96",
        ]))
        .unwrap();
        match cmd {
            Command::View(v) => {
                assert_eq!(v.plot, Some((20, 60)));
                assert_eq!(v.pgm, Some((PathBuf::from("img.pgm"), 128, 96)));
                assert_eq!(v.width, 80);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&sv(&["align", "only-one.fa"])).is_err());
        assert!(parse(&sv(&["view", "x", "a"])).is_err());
        assert!(parse(&sv(&["frobnicate"])).is_err());
        assert!(parse(&sv(&["align", "a", "b", "--workers"])).is_err());
        assert!(parse(&sv(&["align", "a", "b", "--workers", "many"])).is_err());
        assert!(parse(&sv(&["view", "x", "a", "b", "--plot", "abc"])).is_err());
    }

    #[test]
    fn help_and_empty() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&sv(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn parses_generate_and_dataset() {
        match parse(&sv(&["generate", "strain", "--len", "500", "--seed", "9"])).unwrap() {
            Command::Generate(g) => {
                assert_eq!(g.kind, "strain");
                assert_eq!(g.len, 500);
                assert_eq!(g.seed, 9);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&sv(&["dataset", "list"])).unwrap() {
            Command::Dataset(d) => {
                assert_eq!(d.key, "list");
                assert_eq!(d.scale, 1000);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[cfg(test)]
mod unknown_flag_tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = parse(&sv(&["align", "a.fa", "b.fa", "--workres", "3"])).unwrap_err();
        assert!(err.0.contains("unknown option --workres"), "{err}");
        assert!(parse(&sv(&["view", "x", "a", "b", "--plto", "2x2"])).is_err());
        assert!(parse(&sv(&["generate", "strain", "--length", "10"])).is_err());
        // Known flags still parse.
        assert!(parse(&sv(&["align", "a.fa", "b.fa", "--workers", "3"])).is_ok());
    }
}
