//! The external-diagonal wavefront scheduler.
//!
//! Blocks of one external diagonal are mutually independent: each reads
//! the horizontal-bus segment written by the block above it (previous
//! diagonal) and the vertical-bus segment written by the block to its left
//! (also previous diagonal).
//!
//! One scheduler implements that dependence structure, the column strip:
//! each runner *owns* a contiguous strip of block-columns for the whole
//! run ([`StripPlan`]), walking it row-major so tiles stay hot in one
//! worker's cache. The only cross-strip dependence is the vertical bus /
//! corner hand-off along the strip boundary, signalled point-to-point by
//! a published-row counter per strip — several block rows are batched
//! per publish ([`StripPlan::batch_rows`]) to amortize signalling, and
//! there is no global barrier anywhere. When a plan has more strips than
//! workers (ragged grids), runners that finish a strip steal the next
//! unclaimed one, in ascending column order. The calling thread runs
//! strip 0 and *delivers* finished blocks in canonical diagonal order, so
//! results and observer events are the same for every plan and worker
//! count. One worker (or one block column) is simply a one-strip plan;
//! a multi-device column split is a plan with one strip per device.
//!
//! Every completed block is reported — sequentially, on the
//! calling thread, in diagonal order — to the caller's
//! [`WavefrontObserver`], which is how the pipeline flushes special rows
//! (Stage 1) and runs goal-based matching with early abort (Stages 2-3).

use crate::ctrl::{CancelToken, StripDiag};
use crate::exec::{ExecError, WorkerPool};
use crate::grid::{GridLayout, GridSpec};
use crate::kernel::{self, CellHE, CellHF, Mode, PathCounts, TileOutcome};
use std::ops::ControlFlow;
use sw_core::full::better_endpoint;
use sw_core::scoring::{Score, Scoring};

/// Identity and geometry of one block, as seen by observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCoords {
    /// Block row index.
    pub r: usize,
    /// Block column index.
    pub c: usize,
    /// External diagonal (`r + c`).
    pub diagonal: usize,
    /// Inclusive 1-based DP row range `(start, end)` of the block.
    pub rows: (usize, usize),
    /// Inclusive 1-based DP column range `(start, end)` of the block.
    pub cols: (usize, usize),
    /// True when this block is in the last block row.
    pub last_block_row: bool,
    /// True when this block is in the last block column.
    pub last_block_col: bool,
}

/// Observer invoked after each completed block (sequentially, in ascending
/// block-column order within a diagonal).
pub trait WavefrontObserver {
    /// `bottom` is the block's last row (`H`/`F` per column — the
    /// horizontal-bus segment it just wrote, i.e. the special-row
    /// candidate); `right` is its last column (`H`/`E` per row — the
    /// *rectified vertical bus*); `outcome` carries the block's watch hit
    /// and cell count. Return `Break` to abort the launch.
    fn on_block(
        &mut self,
        block: &BlockCoords,
        outcome: &TileOutcome,
        bottom: &[CellHF],
        right: &[CellHE],
    ) -> ControlFlow<()>;

    /// Called between external diagonals at the cadence configured via
    /// [`RunOpts::checkpoint_every`], with a snapshot the observer may
    /// persist. Default: ignore.
    fn on_checkpoint(&mut self, _state: &EngineState) {}

    /// Called for strip-scheduler protocol events (claims, steals, border
    /// publishes), on the calling thread, interleaved with
    /// [`WavefrontObserver::on_block`] deliveries. Default: ignore.
    fn on_strip_event(&mut self, _event: &StripEvent) {}
}

/// A protocol event of the column-strip scheduler, surfaced to observers
/// for tracing (`obs::Event::StripProgress` / `StripSteal`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StripEvent {
    /// A runner took ownership of a strip. `stolen` is true when this is
    /// not the runner's first strip — it finished its own and stole the
    /// next unclaimed one (ragged-edge balancing).
    Claimed {
        /// Runner index (0 = the calling thread).
        runner: usize,
        /// Strip index in the [`StripPlan`].
        strip: usize,
        /// True when the claim is a steal.
        stolen: bool,
    },
    /// A runner published its strip's right-border progress: rows
    /// `0..rows_done` of the vertical-bus/corner hand-off are now visible
    /// to the strip on its right.
    Published {
        /// Runner index.
        runner: usize,
        /// Strip index whose border advanced.
        strip: usize,
        /// Block rows published so far.
        rows_done: usize,
        /// Total block rows of the grid.
        rows_total: usize,
    },
}

/// A no-op observer.
pub struct NoObserver;

impl WavefrontObserver for NoObserver {
    fn on_block(
        &mut self,
        _: &BlockCoords,
        _: &TileOutcome,
        _: &[CellHF],
        _: &[CellHE],
    ) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

/// Default number of block rows batched per strip-border publish.
///
/// Larger batches amortize the signalling (one lock + condvar notify per
/// publish) over more rows; smaller batches let the right neighbour start
/// sooner. The wavefront pipeline ramps in `batch_rows * strips` diagonals
/// — negligible against the tall grids stage 1 uses.
pub const DEFAULT_BATCH_ROWS: usize = 4;

/// How block-columns are grouped into persistent ownership strips for the
/// column-strip scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripPlan {
    /// Strip boundaries: strip `s` owns block-columns
    /// `bounds[s]..bounds[s + 1]`. Monotonically increasing, starting at
    /// 0 and ending at the grid's `block_cols`.
    pub bounds: Vec<usize>,
    /// Block rows batched per border publish (at least 1).
    pub batch_rows: usize,
}

impl StripPlan {
    /// An even split of `block_cols` columns into `min(workers,
    /// block_cols)` strips; the leftmost strips take the remainder, one
    /// extra column each.
    pub fn balanced(block_cols: usize, workers: usize) -> StripPlan {
        let strips = workers.min(block_cols).max(1);
        let base = block_cols / strips;
        let extra = block_cols % strips;
        let mut bounds = Vec::with_capacity(strips + 1);
        let mut next = 0usize;
        bounds.push(0);
        for s in 0..strips {
            next += base + usize::from(s < extra);
            bounds.push(next);
        }
        StripPlan { bounds, batch_rows: DEFAULT_BATCH_ROWS }
    }

    /// Number of strips in the plan.
    pub fn strips(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Does this plan exactly cover a grid `block_cols` wide, with every
    /// strip non-empty and `batch_rows >= 1`?
    pub fn is_valid_for(&self, block_cols: usize) -> bool {
        self.batch_rows >= 1
            && self.bounds.first() == Some(&0)
            && self.bounds.last() == Some(&block_cols)
            && self.bounds.windows(2).all(|w| w[0] < w[1])
    }
}

/// Counters of one column-strip launch, reported on
/// [`RegionResult::strip`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripStats {
    /// Strips in the executed plan.
    pub strips: usize,
    /// Block rows per border publish.
    pub batch_rows: usize,
    /// Claims beyond each runner's first — whole-strip work steals.
    pub steals: u64,
    /// Border publishes that advanced a strip's published-row counter.
    pub batches_published: u64,
    /// Blocks computed per runner (index 0 = the calling thread).
    pub runner_blocks: Vec<u64>,
}

/// Which schedule produced an [`EngineState`] snapshot — provenance
/// recorded in the checkpoint so a resumed run (possibly under a
/// different worker count) can report where the snapshot came from.
/// Resuming is schedule-independent: buses and counters mean the same
/// thing either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleInfo {
    /// A snapshot without a schedule tailer: written by the serial engine
    /// of older releases. Kept so those checkpoints still decode.
    Serial,
    /// Column-strip engine (every snapshot written today).
    Strips {
        /// Strips in the plan that wrote the snapshot.
        strips: u32,
        /// Its publish batching factor.
        batch_rows: u32,
    },
}

/// One engine launch over a DP region.
#[derive(Debug, Clone, Copy)]
pub struct RegionJob<'a> {
    /// Row sequence (`S0` side of the region).
    pub a: &'a [u8],
    /// Column sequence (`S1` side of the region).
    pub b: &'a [u8],
    /// Scoring scheme.
    pub scoring: Scoring,
    /// Local or global recurrence.
    pub mode: Mode,
    /// Execution configuration.
    pub grid: GridSpec,
    /// Maximum worker threads (`0` = all available cores).
    pub workers: usize,
    /// When set, every block reports the first cell whose `H` equals this
    /// score (Stage 2's start-point detection).
    pub watch: Option<Score>,
}

/// Outcome of an engine launch.
#[derive(Debug, Clone)]
pub struct RegionResult {
    /// Best cell and its position (local mode; `None` when every cell is 0).
    pub best: Option<(Score, usize, usize)>,
    /// Cells updated (excluding borders).
    pub cells: u64,
    /// External diagonals executed.
    pub diagonals_run: usize,
    /// True when an observer aborted the launch.
    pub aborted: bool,
    /// Number of block executions (busy block-slots summed over
    /// diagonals). See [`RegionResult::utilization`].
    pub busy_slots: u64,
    /// Final horizontal bus: frontier `H`/`F` per column (row `m` for every
    /// column when the launch ran to completion).
    pub hbus: Vec<CellHF>,
    /// Final vertical bus: frontier `H`/`E` per row.
    pub vbus: Vec<CellHE>,
    /// The layout that was executed.
    pub layout: GridLayout,
    /// Precision-ladder outcome counters for the tiles of *this run* —
    /// like [`RegionResult::diagonals_run`], kernel-path counters are not
    /// carried across checkpoint resume.
    pub paths: PathCounts,
    /// Query-profile cache lookups that found a resident band (this run).
    pub profile_hits: u64,
    /// Query-profile cache lookups that built a fresh band (this run).
    pub profile_misses: u64,
    /// Strip-scheduler counters.
    pub strip: StripStats,
}

impl RegionResult {
    /// Fraction of block slots kept busy across the executed diagonals:
    /// `busy_slots / (diagonals_run * block_cols)`.
    ///
    /// This is the quantity CUDAlign 1.0's *cells delegation* maximizes.
    /// With the tall grids the pipeline uses (`block_rows >>
    /// block_cols`), the rectangular wavefront already achieves the
    /// paper's "full parallelism except in the very beginning and very
    /// close to the end": utilization tends to
    /// `block_rows / (block_rows + block_cols - 1)`.
    pub fn utilization(&self) -> f64 {
        let slots = self.diagonals_run as u64 * self.layout.block_cols as u64;
        if slots == 0 {
            return 0.0;
        }
        self.busy_slots as f64 / slots as f64
    }
}

/// Serializable execution state between two external diagonals — the
/// checkpoint/resume support an 18-hour Stage 1 needs (the real CUDAlign
/// gained incremental execution in its follow-on versions).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// Fingerprint of the job this state belongs to: `(m, n, B, T, alpha)`.
    pub fingerprint: (u64, u64, u64, u64, u64),
    /// Next external diagonal to execute.
    pub next_diagonal: usize,
    /// Horizontal bus contents.
    pub hbus: Vec<CellHF>,
    /// Vertical bus contents.
    pub vbus: Vec<CellHE>,
    /// Corner matrix contents.
    pub corners: Vec<Score>,
    /// Best cell so far (local mode).
    pub best: Option<(Score, usize, usize)>,
    /// Cells processed so far.
    pub cells: u64,
    /// Busy block-slots so far.
    pub busy_slots: u64,
    /// Scheduler that wrote this snapshot (provenance only).
    pub schedule: ScheduleInfo,
}

impl EngineState {
    /// Does this snapshot belong to `job`? Callers should check before
    /// resuming; [`run`] panics on a mismatch.
    pub fn matches(&self, job: &RegionJob<'_>) -> bool {
        self.fingerprint == Self::fingerprint_of(job)
    }

    /// The state before diagonal 0: the region's border buses and the
    /// corner table they seed.
    fn initial(job: &RegionJob<'_>, layout: &GridLayout) -> EngineState {
        let (m, n) = (job.a.len(), job.b.len());
        let (hbus, vbus, origin_h) = match job.mode {
            Mode::Local => kernel::local_borders(m, n),
            Mode::Global { origin } => kernel::global_borders(m, n, &job.scoring, origin),
        };
        // corners[r][c] = H at (row_end(r-1), col_end(c-1)); row/col 0
        // hold the border values so block (r, c) always reads
        // corners[r][c]. The origin corner is the origin's H seed —
        // NEG_INF for reverse regions whose path must *begin* inside a
        // gap run.
        let (br, bc) = (layout.block_rows, layout.block_cols);
        let mut corners = vec![0 as Score; (br + 1) * (bc + 1)];
        corners[0] = origin_h;
        for c in 0..bc {
            let (_, ce) = layout.col_range(c);
            corners[c + 1] = if ce == 0 { 0 } else { hbus[ce - 1].h };
        }
        for r in 0..br {
            let (_, re) = layout.row_range(r);
            corners[(r + 1) * (bc + 1)] = if re == 0 { 0 } else { vbus[re - 1].h };
        }
        EngineState {
            fingerprint: Self::fingerprint_of(job),
            next_diagonal: 0,
            hbus,
            vbus,
            corners,
            best: None,
            cells: 0,
            busy_slots: 0,
            // Stamped with the launch's plan before any snapshot leaves.
            schedule: ScheduleInfo::Serial,
        }
    }

    fn fingerprint_of(job: &RegionJob<'_>) -> (u64, u64, u64, u64, u64) {
        // FNV-1a over everything that determines the DP values: sequence
        // content, scoring, mode and grid. Resuming under any other job
        // must be rejected — buses computed with different parameters
        // would silently corrupt the result.
        fn fnv(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x100000001b3);
            }
        }
        let mut content = 0xcbf29ce484222325u64;
        fnv(&mut content, job.a);
        fnv(&mut content, job.b);
        let mut params = 0xcbf29ce484222325u64;
        for v in [
            job.scoring.match_score,
            job.scoring.mismatch_score,
            job.scoring.gap_first,
            job.scoring.gap_ext,
        ] {
            fnv(&mut params, &v.to_le_bytes());
        }
        match job.mode {
            Mode::Local => fnv(&mut params, b"local"),
            Mode::Global { origin } => {
                fnv(&mut params, b"global");
                fnv(&mut params, &origin.h0.to_le_bytes());
                fnv(&mut params, &origin.e0.to_le_bytes());
                fnv(&mut params, &origin.f0.to_le_bytes());
            }
        }
        (
            job.a.len() as u64,
            job.b.len() as u64,
            (job.grid.blocks as u64) << 32 | (job.grid.threads as u64) << 8 | job.grid.alpha as u64,
            content,
            params,
        )
    }

    /// Serialize (little-endian, self-describing lengths).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            64 + 8 * (self.hbus.len() + self.vbus.len()) + 4 * self.corners.len(),
        );
        out.extend_from_slice(b"CKPT");
        for v in [
            self.fingerprint.0,
            self.fingerprint.1,
            self.fingerprint.2,
            self.fingerprint.3,
            self.fingerprint.4,
            self.next_diagonal as u64,
            self.cells,
            self.busy_slots,
            self.hbus.len() as u64,
            self.vbus.len() as u64,
            self.corners.len() as u64,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        match self.best {
            None => out.push(0),
            Some((s, i, j)) => {
                out.push(1);
                out.extend_from_slice(&s.to_le_bytes());
                out.extend_from_slice(&(i as u64).to_le_bytes());
                out.extend_from_slice(&(j as u64).to_le_bytes());
            }
        }
        for c in &self.hbus {
            out.extend_from_slice(&c.h.to_le_bytes());
            out.extend_from_slice(&c.f.to_le_bytes());
        }
        for c in &self.vbus {
            out.extend_from_slice(&c.h.to_le_bytes());
            out.extend_from_slice(&c.e.to_le_bytes());
        }
        for &c in &self.corners {
            out.extend_from_slice(&c.to_le_bytes());
        }
        // Strip-schedule provenance rides as a self-identifying tailer so
        // pre-strip decoders (which ignore trailing bytes) still accept
        // the blob; `Serial` writes nothing, keeping old and new encodings
        // byte-identical for old snapshots.
        if let ScheduleInfo::Strips { strips, batch_rows } = self.schedule {
            out.extend_from_slice(b"STRP");
            out.extend_from_slice(&strips.to_le_bytes());
            out.extend_from_slice(&batch_rows.to_le_bytes());
        }
        out
    }

    /// Deserialize; `None` on any structural mismatch.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, k: usize| -> Option<&[u8]> {
            let s = bytes.get(*pos..*pos + k)?;
            *pos += k;
            Some(s)
        };
        if take(&mut pos, 4)? != b"CKPT" {
            return None;
        }
        let u = |pos: &mut usize| -> Option<u64> {
            Some(u64::from_le_bytes(take(pos, 8)?.try_into().ok()?))
        };
        let fp = (u(&mut pos)?, u(&mut pos)?, u(&mut pos)?, u(&mut pos)?, u(&mut pos)?);
        let next_diagonal = u(&mut pos)? as usize;
        let cells = u(&mut pos)?;
        let busy_slots = u(&mut pos)?;
        let nh = u(&mut pos)? as usize;
        let nv = u(&mut pos)? as usize;
        let nc = u(&mut pos)? as usize;
        // Reject sizes the payload cannot hold (corruption guard).
        let need = 1 + 8 * nh + 8 * nv + 4 * nc;
        if bytes.len().checked_sub(pos)? < need {
            return None;
        }
        let best = match take(&mut pos, 1)?[0] {
            0 => None,
            _ => {
                let s = Score::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
                let i = u(&mut pos)? as usize;
                let j = u(&mut pos)? as usize;
                Some((s, i, j))
            }
        };
        let mut hbus = Vec::with_capacity(nh);
        for _ in 0..nh {
            let h = Score::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
            let f = Score::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
            hbus.push(CellHF { h, f });
        }
        let mut vbus = Vec::with_capacity(nv);
        for _ in 0..nv {
            let h = Score::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
            let e = Score::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
            vbus.push(CellHE { h, e });
        }
        let mut corners = Vec::with_capacity(nc);
        for _ in 0..nc {
            corners.push(Score::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?));
        }
        // Optional schedule tailer. Old-format blobs end here (or carry
        // unrelated trailing bytes) and decode as `Serial`; a blob that
        // *starts* the `STRP` marker must carry the whole tailer, so a
        // truncated strip checkpoint is rejected rather than silently
        // downgraded.
        let schedule = if bytes.get(pos..pos + 4) == Some(b"STRP") {
            pos += 4;
            let strips = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
            let batch_rows = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
            ScheduleInfo::Strips { strips, batch_rows }
        } else {
            ScheduleInfo::Serial
        };
        Some(EngineState {
            fingerprint: fp,
            next_diagonal,
            hbus,
            vbus,
            corners,
            best,
            cells,
            busy_slots,
            schedule,
        })
    }
}

/// Optional inputs of a [`run`] launch. `RunOpts::default()` is a plain
/// run: fresh start, no checkpoints, a balanced strip plan, no
/// cancellation.
#[derive(Debug, Default)]
pub struct RunOpts<'a> {
    /// Continue from a snapshot of a previous launch of the same job.
    pub resume: Option<EngineState>,
    /// Deliver a snapshot to [`WavefrontObserver::on_checkpoint`] every
    /// this many external diagonals.
    pub checkpoint_every: Option<usize>,
    /// Run this strip plan instead of [`StripPlan::balanced`] — including
    /// ragged plans whose strip count exceeds the worker count, which
    /// exercises whole-strip work stealing.
    pub plan: Option<StripPlan>,
    /// Supervision token, polled cooperatively by the delivery loop
    /// (which in turn wakes parked runners through the protocol
    /// condvars). A cancelled launch first emits one final
    /// [`WavefrontObserver::on_checkpoint`] with the state at the last
    /// completed diagonal boundary (when checkpointing is enabled), so
    /// cancellation is always resumable, then returns with
    /// [`RegionResult::aborted`] set.
    pub token: Option<&'a CancelToken>,
}

/// Run a region on a shared persistent [`WorkerPool`] to completion, or
/// until the observer aborts or the token is cancelled.
///
/// Observationally identical for every pool size: block results are
/// merged (and the observer notified) on the calling thread in canonical
/// diagonal order, so scheduling cannot change scores, endpoints, buses,
/// or observer event order. The effective parallelism is
/// `min(pool.lanes(), job.workers)` (with `job.workers == 0` meaning "no
/// extra cap"), so a job built with `workers: 1` runs one strip on the
/// calling thread even on a wide pool — stage 3 relies on that to keep
/// per-partition engines single-lane while partitions fan out.
///
/// # Panics
/// Panics when `opts.resume` carries a fingerprint for a different job,
/// or when `opts.plan` does not cover the job's grid
/// ([`StripPlan::is_valid_for`]).
pub fn run(
    pool: &WorkerPool,
    job: &RegionJob<'_>,
    observer: &mut dyn WavefrontObserver,
    opts: RunOpts<'_>,
) -> Result<RegionResult, ExecError> {
    strip::run(pool, job, observer, opts)
}

/// The column-strip scheduler: persistent strip ownership, point-to-point
/// border publishing, bounded whole-strip work stealing.
///
/// # Protocol
///
/// * Runner `i` owns strip `i` from launch (its *home* claim), so every
///   runner is guaranteed at least one whole strip of work. Further
///   strips are claimed — stolen — in ascending index order
///   (`next_strip` counter), so unclaimed strips always form a suffix of
///   the plan and a claimed strip's left neighbour is always claimed.
/// * A runner walks its strip row-major. Before computing the strip's
///   *first* column of block row `r` it waits until the left strip's
///   published-row counter covers `r + 1` — that publish is the only
///   cross-strip synchronisation (there is no global barrier).
/// * A runner publishes after every `batch_rows`-th completed block row
///   (and after its last row), under the coordination mutex; consumers
///   re-check under the same mutex, so the lock's release/acquire pair is
///   the happens-before edge that orders the producer's bus writes before
///   the consumer's reads.
/// * The calling thread is runner 0 *and* the deliverer: it drains
///   finished blocks in canonical diagonal order, applies them to shadow
///   ("checkpoint") buses, and invokes the observer, so the event stream
///   is the same for every plan. Runners may race ahead of delivery only within a
///   bounded lead window once every strip is claimed, which caps the
///   memory held by finished-but-undelivered borders.
///
/// # Why the shadow buses
///
/// Runners mutate the live buses out of diagonal order (that is the
/// point), so on abort the live buses would reflect blocks *past* the
/// abort point. The deliverer therefore maintains its own copies, updated
/// strictly in delivery order; results and checkpoints are built from
/// those, making aborted and checkpointed states independent of the plan.
mod strip {
    use super::*;
    use std::collections::HashMap;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::{Condvar, Mutex, MutexGuard};
    use std::time::Duration;

    /// Raw shared view of one live bus (or the corner table).
    ///
    /// Runners access disjoint-or-ordered regions of the buses without
    /// `&mut` aliasing: see the SAFETY argument on [`compute_block`].
    struct RawBus<T>(*mut T, usize);

    impl<T> RawBus<T> {
        fn new(v: &mut Vec<T>) -> RawBus<T> {
            RawBus(v.as_mut_ptr(), v.len())
        }

        fn at(&self, i: usize) -> *mut T {
            debug_assert!(i <= self.1);
            // SAFETY: within-allocation offset — `i` is bounded by the
            // bus length captured at construction.
            unsafe { self.0.add(i) }
        }
    }

    // SAFETY: a RawBus is only dereferenced by strip runners following the
    // publish protocol (see `compute_block`'s SAFETY comment), which makes
    // every conflicting access ordered by the coordination mutex; the
    // pointee vectors outlive the pool scope that runs the runners.
    unsafe impl<T: Send> Send for RawBus<T> {}
    // SAFETY: as above — shared references to RawBus only hand out raw
    // pointers; all dereferences follow the strip protocol.
    unsafe impl<T: Send> Sync for RawBus<T> {}

    /// A finished block, parked until the deliverer consumes it.
    struct BlockDone {
        outcome: TileOutcome,
        /// Copy of the block's bottom border (its horizontal-bus segment
        /// right after the tile ran).
        bottom: Vec<CellHF>,
        /// Copy of its right border (vertical-bus segment).
        right: Vec<CellHE>,
    }

    /// Mutable coordination state, under the one strip mutex.
    struct Coord {
        /// Per strip: block rows published to the right neighbour.
        published: Vec<usize>,
        /// Next unclaimed strip (claims ascend, so unclaimed strips are a
        /// suffix).
        next_strip: usize,
        /// Per runner: strips claimed so far (first claim = ownership,
        /// later claims = steals).
        claims: Vec<u64>,
        /// Per runner: blocks computed.
        blocks: Vec<u64>,
        steals: u64,
        batches: u64,
        /// Query-profile cache hits, folded in from each runner's
        /// private cache as the runner exits.
        profile_hits: u64,
        /// Query-profile cache misses, folded in the same way.
        profile_misses: u64,
        /// Delivery frontier: every block with diagonal < `front` has
        /// been delivered.
        front: usize,
        /// Cooperative cancellation (observer abort, worker panic, body
        /// panic). Runners exit at the next wait or block boundary.
        cancel: bool,
        /// Finished, undelivered blocks.
        done: HashMap<(usize, usize), BlockDone>,
        /// Protocol events awaiting delivery to the observer.
        events: Vec<StripEvent>,
    }

    /// Everything the runners share.
    struct Shared<'a, 'j> {
        job: &'a RegionJob<'j>,
        layout: &'a GridLayout,
        plan: &'a StripPlan,
        local: bool,
        first_diagonal: usize,
        /// Max diagonals a runner may lead the delivery frontier once all
        /// strips are claimed (bounds undelivered-border memory).
        lead: usize,
        strips: usize,
        hbus: RawBus<CellHF>,
        vbus: RawBus<CellHE>,
        corners: RawBus<Score>,
        coord: Mutex<Coord>,
        /// Runners park here for publishes / frontier advances / cancel.
        cv_work: Condvar,
        /// The deliverer parks here for block completions / cancel.
        cv_done: Condvar,
        #[cfg(feature = "race-check")]
        race: &'a crate::race::Session,
    }

    impl Shared<'_, '_> {
        fn lock(&self) -> MutexGuard<'_, Coord> {
            self.coord.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Set `cancel` and wake everyone.
        fn cancel_all(&self) {
            self.lock().cancel = true;
            self.cv_work.notify_all();
            self.cv_done.notify_all();
        }
    }

    /// A runner's position inside its claimed strip.
    struct Cursor {
        s: usize,
        c0: usize,
        c1: usize,
        r: usize,
        c: usize,
    }

    enum Step {
        /// Computed one block.
        Computed,
        /// The next block is publish- or lead-blocked.
        Blocked,
        /// No strip left to claim.
        Idle,
        /// Cancellation observed.
        Cancelled,
    }

    /// The strip `runner` owns from launch (pre-claimed in the engine's
    /// `Coord` init): strip index = runner index.
    fn home_cursor(sh: &Shared<'_, '_>, runner: usize) -> Cursor {
        Cursor {
            s: runner,
            c0: sh.plan.bounds[runner],
            c1: sh.plan.bounds[runner + 1],
            r: 0,
            c: sh.plan.bounds[runner],
        }
    }

    /// Claim the next unclaimed strip for `runner`, if any. Home strips
    /// are pre-claimed, so anything claimed here counts as a steal.
    fn try_claim(sh: &Shared<'_, '_>, runner: usize) -> Option<Cursor> {
        let mut co = sh.lock();
        if co.cancel || co.next_strip >= sh.strips {
            return None;
        }
        let s = co.next_strip;
        co.next_strip += 1;
        let stolen = co.claims[runner] > 0;
        co.claims[runner] += 1;
        if stolen {
            co.steals += 1;
        }
        co.events.push(StripEvent::Claimed { runner, strip: s, stolen });
        drop(co);
        // Claims can unblock lead-window waiters (the window only binds
        // once every strip is claimed) and carry an event for the
        // deliverer.
        sh.cv_work.notify_all();
        sh.cv_done.notify_all();
        Some(Cursor {
            s,
            c0: sh.plan.bounds[s],
            c1: sh.plan.bounds[s + 1],
            r: 0,
            c: sh.plan.bounds[s],
        })
    }

    /// Publish strip `s`'s border progress: rows `0..rows` are complete.
    fn publish(sh: &Shared<'_, '_>, runner: usize, s: usize, rows: usize) {
        // Shadow state first: the detector's published counter must cover
        // a consumer by the time the real counter lets it proceed.
        #[cfg(feature = "race-check")]
        sh.race.strip_publish(s, rows);
        let mut co = sh.lock();
        if rows > co.published[s] {
            co.published[s] = rows;
            co.batches += 1;
            co.events.push(StripEvent::Published {
                runner,
                strip: s,
                rows_done: rows,
                rows_total: sh.layout.block_rows,
            });
            drop(co);
            sh.cv_work.notify_all();
            // The event itself must reach the deliverer even when no
            // block completion follows promptly.
            sh.cv_done.notify_all();
        }
    }

    /// Advance `cur` by at most one computed block (non-blocking).
    /// `cache` is the calling runner's private profile cache — strips are
    /// walked row-major (`r` fixed while `c` sweeps the strip), so
    /// consecutive blocks share a query band and the cache pays off.
    fn step(
        sh: &Shared<'_, '_>,
        runner: usize,
        cur_slot: &mut Option<Cursor>,
        cache: &mut crate::striped::ProfileCache,
    ) -> Step {
        let br = sh.layout.block_rows;
        loop {
            let Some(cur) = cur_slot.as_mut() else {
                match try_claim(sh, runner) {
                    Some(c) => {
                        *cur_slot = Some(c);
                        continue;
                    }
                    None => return Step::Idle,
                }
            };
            if cur.r == br {
                *cur_slot = None;
                continue;
            }
            if cur.c == cur.c1 {
                // Row finished: publish at batch boundaries (and at the
                // last row) so the right neighbour can follow.
                let done_rows = cur.r + 1;
                if cur.s + 1 < sh.strips && (done_rows % sh.plan.batch_rows == 0 || done_rows == br)
                {
                    publish(sh, runner, cur.s, done_rows);
                }
                cur.r += 1;
                cur.c = cur.c0;
                continue;
            }
            let (r, c) = (cur.r, cur.c);
            if r + c < sh.first_diagonal {
                // Restored from a checkpoint: nothing to compute.
                cur.c += 1;
                continue;
            }
            {
                let co = sh.lock();
                if co.cancel {
                    return Step::Cancelled;
                }
                if c == cur.c0 && cur.s > 0 && co.published[cur.s - 1] <= r {
                    return Step::Blocked;
                }
                // The lead window binds only once every strip is claimed:
                // before that, throttling a runner could leave it unable
                // to ever finish its strip and claim the one the frontier
                // is stuck on.
                if co.next_strip >= sh.strips && r + c >= co.front + sh.lead {
                    return Step::Blocked;
                }
            }
            let alive = compute_block(sh, runner, r, c, cache);
            cur.c += 1;
            return if alive { Step::Computed } else { Step::Cancelled };
        }
    }

    /// Park until the blocked condition of `cur` clears; false = cancel.
    fn wait_progress(sh: &Shared<'_, '_>, cur: &Cursor) -> bool {
        let mut co = sh.lock();
        loop {
            if co.cancel {
                return false;
            }
            let publish_ok = !(cur.c == cur.c0 && cur.s > 0 && co.published[cur.s - 1] <= cur.r);
            let lead_ok = co.next_strip < sh.strips || cur.r + cur.c < co.front + sh.lead;
            if publish_ok && lead_ok {
                return true;
            }
            co = sh.cv_work.wait(co).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Body of one pinned runner (runner indices 1..).
    fn runner_loop(sh: &Shared<'_, '_>, runner: usize) {
        let mut cache = crate::striped::ProfileCache::new();
        let mut cur: Option<Cursor> = Some(home_cursor(sh, runner));
        'work: loop {
            match step(sh, runner, &mut cur, &mut cache) {
                Step::Computed => {}
                Step::Blocked => {
                    // `cur` is Some whenever step returns Blocked.
                    let Some(c) = cur.as_ref() else { break 'work };
                    if !wait_progress(sh, c) {
                        break 'work;
                    }
                }
                Step::Idle | Step::Cancelled => break 'work,
            }
        }
        // Fold this runner's cache traffic into the shared counters on
        // the way out, under the coordination mutex.
        let mut co = sh.lock();
        co.profile_hits += cache.hits();
        co.profile_misses += cache.misses();
    }

    /// Compute block `(r, c)` against the live buses and park the result
    /// for the deliverer. Returns false when cancellation was observed.
    fn compute_block(
        sh: &Shared<'_, '_>,
        runner: usize,
        r: usize,
        c: usize,
        cache: &mut crate::striped::ProfileCache,
    ) -> bool {
        let layout = sh.layout;
        let bc = layout.block_cols;
        let (rs, re) = layout.row_range(r);
        let (cs, ce) = layout.col_range(c);
        let width = (ce + 1).saturating_sub(cs);
        let height = (re + 1).saturating_sub(rs);

        #[cfg(feature = "race-check")]
        {
            let d = r + c;
            // Seeded early-publish fault: model the right neighbour
            // consuming this block's border one publish early — its reads
            // replayed before this block has written. Shadow-only; the
            // real hand-off below is untouched.
            if let Some((fr, fc)) = crate::exec::fault::early_publish_block() {
                if fr == r && fc == c && c + 1 < bc {
                    let (ncs, nce) = layout.col_range(c + 1);
                    let nw = (nce + 1).saturating_sub(ncs);
                    sh.race.block_reads(r, c + 1, d + 1, (ncs - 1, nw), (rs - 1, height));
                }
            }
            sh.race.block_reads(r, c, d, (cs - 1, width), (rs - 1, height));
        }

        // SAFETY: the strip protocol makes these raw views race-free.
        // - hbus `[cs-1, cs-1+width)`: horizontal-bus columns are
        //   partitioned by strip (strips own disjoint block-column
        //   ranges), and within a strip one runner walks rows
        //   sequentially, so only this runner ever touches this segment
        //   while it owns the strip; strip hand-offs (steals) happen only
        //   after the previous owner finished the whole strip, ordered by
        //   the coordination mutex in try_claim/publish.
        // - vbus `[rs-1, rs-1+height)`: within a row the segment passes
        //   left-to-right between strips. The left strip stops touching
        //   row `r`'s cells once it publishes `r + 1`; the right strip
        //   starts only after observing that publish under the same
        //   mutex (step's publish check), whose release/acquire orders
        //   the writes before the reads.
        // - corners: each corner cell is written by exactly one block
        //   and read by exactly one block; same-strip pairs are ordered
        //   by the runner's sequential walk, cross-strip pairs by the
        //   publish that covers the writer's row.
        let (hseg, vseg) = unsafe {
            (
                std::slice::from_raw_parts_mut(sh.hbus.at(cs - 1), width),
                std::slice::from_raw_parts_mut(sh.vbus.at(rs - 1), height),
            )
        };
        // SAFETY: corner reads/writes follow the corner ordering argument
        // above; indices are within the `(br+1)*(bc+1)` table.
        let corner = unsafe { *sh.corners.at(r * (bc + 1) + c) };
        let out = kernel::compute_tile_cached(
            &sh.job.a[rs - 1..re],
            &sh.job.b[cs - 1..ce],
            rs,
            cs,
            &sh.job.scoring,
            sh.local,
            sh.job.watch,
            corner,
            hseg,
            vseg,
            cache,
        );
        // SAFETY: as above — this block is the unique writer of corner
        // `(r+1, c+1)`.
        unsafe { *sh.corners.at((r + 1) * (bc + 1) + (c + 1)) = out.corner_out };

        #[cfg(feature = "race-check")]
        sh.race.block_writes(r, c, r + c, (cs - 1, width), (rs - 1, height), false);

        let parked = BlockDone { outcome: out, bottom: hseg.to_vec(), right: vseg.to_vec() };
        let mut co = sh.lock();
        co.blocks[runner] += 1;
        co.done.insert((r, c), parked);
        let alive = !co.cancel;
        drop(co);
        sh.cv_done.notify_all();
        alive
    }

    /// The deliverer: its walk through the canonical diagonal block order
    /// and the shadow state it applies finished blocks to.
    struct Deliverer {
        d: usize,
        blocks: Vec<(usize, usize)>,
        i: usize,
        /// Blocks of diagonals `>= first_diagonal` not yet delivered.
        remaining: usize,
        /// Shadow state: buses, corners and counters through the
        /// delivered blocks. Between diagonals it is a resume point.
        state: EngineState,
        checkpoint_every: Option<usize>,
        /// Copy of `state` at the last diagonal boundary, flushed when a
        /// cancel lands (only kept when checkpointing under a token).
        cancel_snap: Option<EngineState>,
        diagonals_run: usize,
        paths: PathCounts,
    }

    pub(super) fn run(
        pool: &WorkerPool,
        job: &RegionJob<'_>,
        observer: &mut dyn WavefrontObserver,
        opts: RunOpts<'_>,
    ) -> Result<RegionResult, ExecError> {
        let RunOpts { resume, checkpoint_every, plan, token } = opts;
        let layout = job.grid.layout(job.a.len(), job.b.len());
        let (br, bc) = (layout.block_rows, layout.block_cols);
        let mut state = match resume {
            Some(state) => {
                assert_eq!(
                    state.fingerprint,
                    EngineState::fingerprint_of(job),
                    "checkpoint belongs to a different job"
                );
                state
            }
            None => EngineState::initial(job, &layout),
        };
        // The pool fixes the lane count for the whole run; `job.workers`
        // can only cap it further (0 = uncapped).
        let workers = match job.workers {
            0 => pool.lanes(),
            w => w.min(pool.lanes()),
        };
        // Without an explicit plan the block columns split evenly over the
        // workers: one worker or one block column is a one-strip plan.
        let plan = match plan {
            Some(p) => {
                assert!(
                    p.is_valid_for(bc),
                    "strip plan {:?} does not cover {bc} block column(s)",
                    p.bounds
                );
                p
            }
            None => StripPlan::balanced(bc, workers),
        };
        let strips = plan.strips();
        state.schedule =
            ScheduleInfo::Strips { strips: strips as u32, batch_rows: plan.batch_rows as u32 };
        let fd = state.next_diagonal;
        // One runner per strip at most; the caller is runner 0.
        let runners = workers.min(strips).max(1);

        // Resume frontier: rows of each strip already covered by the
        // checkpoint count as published (row `r` of strip `s` is restored
        // iff even its last column's diagonal precedes the resume point).
        let published: Vec<usize> =
            (0..strips).map(|s| fd.saturating_sub(plan.bounds[s + 1] - 1).min(br)).collect();

        // One detector session per engine run: shadow last-writer state
        // for every bus cell, checked against the grid's scheduled
        // producers and the strip hand-off counters.
        #[cfg(feature = "race-check")]
        let race = crate::race::Session::new(
            (job.a.len(), job.b.len()),
            (br, bc),
            fd,
            &plan.bounds,
            &published,
        );

        // Seeded reorder fault (race-check): replay the armed block's bus
        // transactions before any runner has written anything — the strip
        // analogue of running it one diagonal early. Shadow-only.
        #[cfg(feature = "race-check")]
        if let Some((pr, pc)) = crate::exec::fault::reorder_block() {
            if pr < br && pc < bc && pr + pc > fd {
                let (rs, re) = layout.row_range(pr);
                let (cs, ce) = layout.col_range(pc);
                let width = (ce + 1).saturating_sub(cs);
                let height = (re + 1).saturating_sub(rs);
                race.block_reads(pr, pc, pr + pc, (cs - 1, width), (rs - 1, height));
                race.block_writes(pr, pc, pr + pc, (cs - 1, width), (rs - 1, height), true);
            }
        }

        // Live buses: the runners' working copies, written out of
        // diagonal order (see the module docs for why `state` stays the
        // deliverer's).
        let mut hbus = state.hbus.clone();
        let mut vbus = state.vbus.clone();
        let mut corners = state.corners.clone();

        let shared = Shared {
            job,
            layout: &layout,
            plan: &plan,
            local: job.mode.is_local(),
            first_diagonal: fd,
            lead: bc + 8 * plan.batch_rows,
            strips,
            hbus: RawBus::new(&mut hbus),
            vbus: RawBus::new(&mut vbus),
            corners: RawBus::new(&mut corners),
            coord: Mutex::new(Coord {
                published,
                // Home claims: runner `i` owns strip `i` from launch, so
                // every runner is guaranteed at least one whole strip of
                // work (deterministic utilization floor); the remaining
                // strips are the stealable suffix.
                next_strip: runners,
                claims: vec![1; runners],
                blocks: vec![0; runners],
                steals: 0,
                batches: 0,
                profile_hits: 0,
                profile_misses: 0,
                front: fd,
                cancel: false,
                done: HashMap::new(),
                events: (0..runners)
                    .map(|r| StripEvent::Claimed { runner: r, strip: r, stolen: false })
                    .collect(),
            }),
            cv_work: Condvar::new(),
            cv_done: Condvar::new(),
            #[cfg(feature = "race-check")]
            race: &race,
        };

        let total_diagonals = layout.diagonals();
        let mut del = Deliverer {
            d: fd,
            blocks: layout.diagonal_blocks(fd).collect(),
            i: 0,
            remaining: (fd..total_diagonals).map(|d| layout.diagonal_blocks(d).count()).sum(),
            // A cancelled launch flushes the state at the last diagonal
            // boundary, so cancellation is always resumable.
            cancel_snap: (token.is_some() && checkpoint_every.is_some()).then(|| state.clone()),
            state,
            checkpoint_every,
            diagonals_run: 0,
            paths: PathCounts::default(),
        };
        let mut aborted = false;
        // The calling thread is runner 0; its profile cache lives out
        // here so its traffic can be folded in after the scope settles.
        let mut cache0 = crate::striped::ProfileCache::new();

        let sh = &shared;
        let scope_result = pool.scope(|scope| {
            // lint: allow(cancel-coverage): bounded spawn fan-out, one pinned task per runner
            for runner in 1..runners {
                scope.spawn_pinned(move || runner_loop(sh, runner));
            }
            // The delivery loop may panic (observer code is arbitrary);
            // runners must still be released before the scope can settle,
            // so catch, cancel, then re-raise.
            let body = catch_unwind(AssertUnwindSafe(|| {
                let mut cur: Option<Cursor> = Some(home_cursor(sh, 0));
                while del.remaining > 0 {
                    // 0) Cancellation: flush the boundary snapshot so the
                    //    run stays resumable, then tear down (the scope
                    //    epilogue below wakes every parked runner).
                    if token.is_some_and(CancelToken::is_cancelled) {
                        if let Some(snap) = del.cancel_snap.take() {
                            observer.on_checkpoint(&snap);
                        }
                        aborted = true;
                        break;
                    }
                    // 1) Deliver everything ready, in canonical order.
                    if del.deliver_ready(sh, observer).is_break() {
                        aborted = true;
                        break;
                    }
                    if del.remaining == 0 {
                        break;
                    }
                    if scope.panicked() {
                        // A runner died; the scope will surface the panic
                        // as WorkerPanic once we release the others.
                        break;
                    }
                    // 2) Advance the caller's own strip by one block.
                    match step(sh, 0, &mut cur, &mut cache0) {
                        Step::Computed => continue,
                        Step::Blocked | Step::Idle | Step::Cancelled => {}
                    }
                    // 3) Nothing to compute: park briefly for runner
                    //    completions (timeout bounds the wait so runner
                    //    panics and publish-only progress are noticed).
                    let co = sh.lock();
                    let next_ready =
                        del.blocks.get(del.i).is_some_and(|rc| co.done.contains_key(rc));
                    if !next_ready && co.events.is_empty() && !co.cancel {
                        drop(
                            sh.cv_done
                                .wait_timeout(co, Duration::from_millis(1))
                                .unwrap_or_else(|e| e.into_inner())
                                .0,
                        );
                    }
                }
            }));
            // Release the runners whatever happened above, and drop any
            // runner job that never reached a worker thread (the caller's
            // drain skips pinned jobs, so they would pend forever).
            sh.cancel_all();
            scope.cancel_queued();
            if let Err(payload) = body {
                resume_unwind(payload);
            }
        });
        scope_result?;

        // Final event drain, so claims/publishes that raced the last
        // delivery still reach the observer.
        // lint: allow(cancel-coverage): bounded drain of the already-collected event buffer after the scope settled
        for ev in std::mem::take(&mut shared.lock().events) {
            observer.on_strip_event(&ev);
        }

        let co = shared.lock();
        let stats = StripStats {
            strips,
            batch_rows: plan.batch_rows,
            steals: co.steals,
            batches_published: co.batches,
            runner_blocks: co.blocks.clone(),
        };
        // Fold the pooled runners' cache traffic (deposited by each
        // `runner_loop` on exit) with runner 0's own cache, which lives in
        // this frame and was never routed through the coordinator.
        let profile_hits = co.profile_hits + cache0.hits();
        let profile_misses = co.profile_misses + cache0.misses();
        // Cancelled teardown: park a diagnostic snapshot of the protocol
        // counters in the token, so an interrupted run can report where
        // each strip stopped.
        if let Some(t) = token {
            if t.is_cancelled() {
                t.set_strip_diag(StripDiag {
                    published: co.published.clone(),
                    claims: co.claims.clone(),
                    blocks: co.blocks.clone(),
                    front: co.front,
                });
            }
        }
        drop(co);

        let state = del.state;
        Ok(RegionResult {
            best: state.best,
            cells: state.cells,
            diagonals_run: del.diagonals_run,
            aborted,
            busy_slots: state.busy_slots,
            hbus: state.hbus,
            vbus: state.vbus,
            layout,
            paths: del.paths,
            profile_hits,
            profile_misses,
            strip: stats,
        })
    }

    impl Deliverer {
        /// Deliver every finished block at the canonical frontier: apply
        /// it to the shadow state, notify the observer. Returns `Break`
        /// when the observer aborts the launch.
        fn deliver_ready(
            &mut self,
            sh: &Shared<'_, '_>,
            observer: &mut dyn WavefrontObserver,
        ) -> ControlFlow<()> {
            let layout = sh.layout;
            let (br, bc) = (layout.block_rows, layout.block_cols);
            // lint: allow(cancel-coverage): delivers only already-completed blocks and returns Continue when one is not
            // ready; the caller's delivery loop polls the cancel token every round
            loop {
                // Forward protocol events as they surface.
                let events = std::mem::take(&mut sh.lock().events);
                for ev in &events {
                    observer.on_strip_event(ev);
                }
                if self.remaining == 0 {
                    return ControlFlow::Continue(());
                }
                if self.i == self.blocks.len() {
                    // Diagonal complete: advance the frontier and refill.
                    self.d += 1;
                    self.blocks = layout.diagonal_blocks(self.d).collect();
                    self.i = 0;
                    sh.lock().front = self.d;
                    sh.cv_work.notify_all();
                    continue;
                }
                let (r, c) = self.blocks[self.i];
                let Some(done) = sh.lock().done.remove(&(r, c)) else {
                    return ControlFlow::Continue(());
                };
                let st = &mut self.state;
                if self.i == 0 {
                    // First delivery of this diagonal: the shadow state
                    // holds exactly diagonals `< d` — a resume boundary.
                    // Checkpoint it, refresh the cancellation snapshot,
                    // then count the diagonal.
                    st.next_diagonal = self.d;
                    let since = self.d - sh.first_diagonal;
                    if self
                        .checkpoint_every
                        .is_some_and(|e| since > 0 && since.is_multiple_of(e.max(1)))
                    {
                        observer.on_checkpoint(st);
                    }
                    if let Some(snap) = self.cancel_snap.as_mut() {
                        snap.next_diagonal = self.d;
                        snap.hbus.copy_from_slice(&st.hbus);
                        snap.vbus.copy_from_slice(&st.vbus);
                        snap.corners.copy_from_slice(&st.corners);
                        snap.best = st.best;
                        snap.cells = st.cells;
                        snap.busy_slots = st.busy_slots;
                    }
                    self.diagonals_run += 1;
                    st.busy_slots += self.blocks.len() as u64;
                }
                let (rs, re) = layout.row_range(r);
                let (cs, ce) = layout.col_range(c);
                let width = (ce + 1).saturating_sub(cs);
                let height = (re + 1).saturating_sub(rs);
                st.hbus[cs - 1..cs - 1 + width].copy_from_slice(&done.bottom);
                st.vbus[rs - 1..rs - 1 + height].copy_from_slice(&done.right);
                st.corners[(r + 1) * (bc + 1) + (c + 1)] = done.outcome.corner_out;
                st.cells += done.outcome.cells;
                self.paths.count(done.outcome.path);
                if let Some(cand) = done.outcome.best {
                    if st.best.is_none_or(|b| better_endpoint(cand, b)) {
                        st.best = Some(cand);
                    }
                }
                let coords = BlockCoords {
                    r,
                    c,
                    diagonal: self.d,
                    rows: (rs, re),
                    cols: (cs, ce),
                    last_block_row: r + 1 == br,
                    last_block_col: c + 1 == bc,
                };
                self.i += 1;
                self.remaining -= 1;
                if observer.on_block(&coords, &done.outcome, &done.bottom, &done.right).is_break() {
                    return ControlFlow::Break(());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_core::full::sw_local_score;
    use sw_core::linear::forward_vectors;
    use sw_core::transcript::EdgeState as ES;

    const SC: Scoring = Scoring::paper();

    pub(super) fn lcg(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                b"ACGT"[(x >> 33) as usize & 3]
            })
            .collect()
    }

    fn job<'a>(
        a: &'a [u8],
        b: &'a [u8],
        mode: Mode,
        grid: GridSpec,
        workers: usize,
    ) -> RegionJob<'a> {
        RegionJob { a, b, scoring: SC, mode, grid, workers, watch: None }
    }

    /// Run `job` on a fresh pool sized by `job.workers`.
    pub(super) fn solo_with(
        job: &RegionJob<'_>,
        observer: &mut dyn WavefrontObserver,
        opts: RunOpts<'_>,
    ) -> RegionResult {
        run(&WorkerPool::new(job.workers), job, observer, opts).expect("no worker panic")
    }

    /// [`solo_with`] without an observer or options.
    pub(super) fn solo(job: &RegionJob<'_>) -> RegionResult {
        solo_with(job, &mut NoObserver, RunOpts::default())
    }

    #[test]
    fn global_final_row_matches_rowdp() {
        let a = lcg(1, 113);
        let b = lcg(2, 97);
        for start in [ES::Diagonal, ES::GapS0, ES::GapS1] {
            let res = solo(&job(&a, &b, Mode::global(start), GridSpec::small(), 2));
            assert!(!res.aborted);
            assert_eq!(res.cells, (a.len() * b.len()) as u64);
            let (h, f) = forward_vectors(&a, &b, &SC, start);
            for j in 0..b.len() {
                assert_eq!(res.hbus[j].h, h[j + 1], "H mismatch at {j} start={start:?}");
                assert_eq!(res.hbus[j].f, f[j + 1], "F mismatch at {j} start={start:?}");
            }
        }
    }

    #[test]
    fn local_best_matches_reference() {
        let a = lcg(3, 200);
        let mut b = lcg(3, 200); // same seed: identical, then perturb
        for i in (0..200).step_by(17) {
            b[i] = b"ACGT"[(i / 17) % 4];
        }
        let res = solo(&job(&a, &b, Mode::Local, GridSpec::small(), 3));
        let (score, end) = sw_local_score(&a, &b, &SC);
        let (s, i, j) = res.best.expect("positive score expected");
        assert_eq!(s, score);
        assert_eq!((i, j), end);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let a = lcg(5, 301);
        let b = lcg(6, 257);
        let r1 = solo(&job(&a, &b, Mode::Local, GridSpec { blocks: 5, threads: 4, alpha: 3 }, 1));
        let r4 = solo(&job(&a, &b, Mode::Local, GridSpec { blocks: 5, threads: 4, alpha: 3 }, 4));
        assert_eq!(r1.best, r4.best);
        assert_eq!(r1.cells, r4.cells);
        for j in 0..b.len() {
            assert_eq!(r1.hbus[j], r4.hbus[j]);
        }
    }

    #[test]
    fn grid_shape_does_not_change_results() {
        let a = lcg(7, 150);
        let b = lcg(8, 190);
        let grids = [
            GridSpec { blocks: 1, threads: 1, alpha: 1 },
            GridSpec { blocks: 2, threads: 8, alpha: 1 },
            GridSpec { blocks: 7, threads: 2, alpha: 5 },
            GridSpec { blocks: 240, threads: 64, alpha: 4 }, // reduced at runtime
        ];
        let reference = solo(&job(&a, &b, Mode::global(ES::Diagonal), grids[0], 2));
        for g in &grids[1..] {
            let r = solo(&job(&a, &b, Mode::global(ES::Diagonal), *g, 2));
            assert_eq!(r.hbus, reference.hbus, "grid {g:?}");
        }
    }

    /// Observer sees every block exactly once, in diagonal order, and
    /// bottom/right segments have block-shaped lengths.
    #[test]
    fn observer_sees_all_blocks_in_order() {
        struct Collect {
            seen: Vec<BlockCoords>,
        }
        impl WavefrontObserver for Collect {
            fn on_block(
                &mut self,
                b: &BlockCoords,
                _out: &TileOutcome,
                bottom: &[CellHF],
                right: &[CellHE],
            ) -> ControlFlow<()> {
                assert_eq!(bottom.len(), b.cols.1 + 1 - b.cols.0);
                assert_eq!(right.len(), b.rows.1 + 1 - b.rows.0);
                self.seen.push(*b);
                ControlFlow::Continue(())
            }
        }
        let a = lcg(9, 64);
        let b = lcg(10, 48);
        let grid = GridSpec { blocks: 3, threads: 2, alpha: 4 };
        let mut obs = Collect { seen: Vec::new() };
        let res = solo_with(&job(&a, &b, Mode::Local, grid, 2), &mut obs, RunOpts::default());
        assert_eq!(obs.seen.len(), res.layout.block_rows * res.layout.block_cols);
        // Diagonals are non-decreasing.
        for w in obs.seen.windows(2) {
            assert!(w[0].diagonal <= w[1].diagonal);
        }
    }

    #[test]
    fn observer_abort_stops_early() {
        struct StopAfter {
            n: usize,
        }
        impl WavefrontObserver for StopAfter {
            fn on_block(
                &mut self,
                _: &BlockCoords,
                _: &TileOutcome,
                _: &[CellHF],
                _: &[CellHE],
            ) -> ControlFlow<()> {
                self.n -= 1;
                if self.n == 0 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            }
        }
        let a = lcg(11, 128);
        let b = lcg(12, 128);
        let grid = GridSpec { blocks: 4, threads: 2, alpha: 2 };
        let mut obs = StopAfter { n: 3 };
        let res = solo_with(&job(&a, &b, Mode::Local, grid, 2), &mut obs, RunOpts::default());
        assert!(res.aborted);
        assert!(res.cells < (a.len() * b.len()) as u64);
    }

    #[test]
    fn degenerate_empty_region() {
        let res = solo(&job(b"", b"ACG", Mode::global(ES::Diagonal), GridSpec::small(), 2));
        assert_eq!(res.cells, 0);
        assert!(!res.aborted);
        // hbus keeps the init row.
        assert_eq!(res.hbus[0].h, -5);
        let res2 = solo(&job(b"ACG", b"", Mode::Local, GridSpec::small(), 2));
        assert_eq!(res2.cells, 0);
        assert!(res2.best.is_none());
    }

    #[test]
    fn single_cell_region() {
        let res = solo(&job(b"A", b"A", Mode::Local, GridSpec::small(), 2));
        assert_eq!(res.best, Some((1, 1, 1)));
        assert_eq!(res.cells, 1);
    }
}

#[cfg(test)]
mod utilization_tests {
    use super::tests::{lcg, solo};
    use super::*;
    use sw_core::transcript::EdgeState as ES;

    /// Tall grids (many block rows, few block columns) keep nearly every
    /// slot busy — the property cells delegation provides on the GPU.
    #[test]
    fn tall_grid_has_high_utilization() {
        let a = lcg(1, 4000);
        let b = lcg(2, 200);
        let grid = GridSpec { blocks: 2, threads: 5, alpha: 2 }; // 400 block rows x 2 cols
        let job = RegionJob {
            a: &a,
            b: &b,
            scoring: Scoring::paper(),
            mode: Mode::global(ES::Diagonal),
            grid,
            workers: 1,
            watch: None,
        };
        let res = solo(&job);
        assert!(res.utilization() > 0.99, "utilization {}", res.utilization());
        assert_eq!(res.busy_slots, res.layout.block_rows as u64 * res.layout.block_cols as u64);
    }

    /// Square grids drain at the corners: utilization ~ R/(R+C-1).
    #[test]
    fn square_grid_utilization_matches_formula() {
        let a = lcg(3, 160);
        let b = lcg(4, 160);
        let grid = GridSpec { blocks: 8, threads: 10, alpha: 2 }; // 8x8 blocks
        let job = RegionJob {
            a: &a,
            b: &b,
            scoring: Scoring::paper(),
            mode: Mode::Local,
            grid,
            workers: 1,
            watch: None,
        };
        let res = solo(&job);
        let (r, c) = (res.layout.block_rows as f64, res.layout.block_cols as f64);
        let expected = (r * c) / ((r + c - 1.0) * c);
        assert!((res.utilization() - expected).abs() < 1e-9);
    }
}

/// A multi-device column split — the paper's dual-card future work — is
/// a balanced strip plan with one strip per device on a `devices`-lane
/// pool; it must reproduce the one-device run exactly.
#[cfg(test)]
mod device_split_tests {
    use super::tests::{lcg, solo};
    use super::*;
    use sw_core::full::sw_local_score;
    use sw_core::transcript::EdgeState as ES;

    fn job<'a>(a: &'a [u8], b: &'a [u8], mode: Mode) -> RegionJob<'a> {
        RegionJob {
            a,
            b,
            scoring: Scoring::paper(),
            mode,
            grid: GridSpec::small(),
            workers: 1,
            watch: None,
        }
    }

    fn split(j: &RegionJob<'_>, devices: usize) -> RegionResult {
        let plan = StripPlan::balanced(j.grid.layout(j.a.len(), j.b.len()).block_cols, devices);
        let opts = RunOpts { plan: Some(plan), ..Default::default() };
        let j = RegionJob { workers: devices, ..*j };
        run(&WorkerPool::new(devices), &j, &mut NoObserver, opts).expect("no worker panic")
    }

    #[test]
    fn split_matches_single_device_local() {
        let a = lcg(1, 400);
        let mut b = lcg(1, 400);
        for i in (3..b.len()).step_by(29) {
            b[i] = b"ACGT"[i % 4];
        }
        let j = job(&a, &b, Mode::Local);
        let single = solo(&j);
        let (score, end) = sw_local_score(&a, &b, &j.scoring);
        assert_eq!(single.best, Some((score, end.0, end.1)));
        for devices in [1usize, 2, 3, 5] {
            let multi = split(&j, devices);
            assert_eq!(multi.best, single.best, "{devices} devices");
            assert_eq!(multi.hbus, single.hbus, "{devices} devices");
            assert_eq!(multi.cells, (a.len() * b.len()) as u64);
            // Four block columns: a fifth device has no strip to own.
            assert_eq!(multi.strip.strips, devices.min(4), "{devices} devices");
            assert_eq!(multi.strip.runner_blocks.len(), devices.min(4), "{devices} devices");
        }
    }

    #[test]
    fn split_matches_single_device_global_and_reverse() {
        let a = lcg(5, 250);
        let b = lcg(6, 300);
        let sc = Scoring::paper();
        for mode in [
            Mode::global(ES::Diagonal),
            Mode::global(ES::GapS1),
            Mode::global_reverse(ES::Diagonal, &sc),
            Mode::global_reverse(ES::GapS1, &sc),
        ] {
            let j = job(&a, &b, mode);
            let single = solo(&j);
            let multi = split(&j, 3);
            assert_eq!(multi.hbus, single.hbus, "{mode:?}");
            assert_eq!(multi.vbus, single.vbus, "{mode:?}");
        }
    }

    #[test]
    fn work_is_balanced() {
        let a = lcg(7, 300);
        let b = lcg(8, 301);
        let multi = split(&job(&a, &b, Mode::Local), 4);
        let blocks = &multi.strip.runner_blocks;
        let min = blocks.iter().min().unwrap();
        let max = blocks.iter().max().unwrap();
        // Balanced strips differ by at most one block column.
        assert!(max - min <= multi.layout.block_rows as u64, "unbalanced: {blocks:?}");
    }

    #[test]
    fn degenerate_regions() {
        let multi = split(&job(b"", b"ACG", Mode::Local), 2);
        assert_eq!(multi.cells, 0);
        let multi2 = split(&job(b"ACG", b"", Mode::Local), 2);
        assert_eq!(multi2.cells, 0);
        // More devices than columns clamps.
        let a = lcg(9, 10);
        let multi3 = split(&job(&a, &a, Mode::Local), 64);
        let single = solo(&job(&a, &a, Mode::Local));
        assert_eq!(multi3.best, single.best);
        assert_eq!(multi3.strip.strips, multi3.layout.block_cols);
    }
}

#[cfg(test)]
mod resume_tests {
    use super::tests::{lcg, solo, solo_with};
    use super::*;
    use sw_core::transcript::EdgeState as ES;

    fn job<'a>(a: &'a [u8], b: &'a [u8]) -> RegionJob<'a> {
        RegionJob {
            a,
            b,
            scoring: Scoring::paper(),
            mode: Mode::Local,
            grid: GridSpec { blocks: 3, threads: 2, alpha: 2 },
            workers: 2,
            watch: None,
        }
    }

    /// Observer that records every checkpoint snapshot.
    struct Snapshots(Vec<EngineState>);
    impl WavefrontObserver for Snapshots {
        fn on_block(
            &mut self,
            _: &BlockCoords,
            _: &TileOutcome,
            _: &[CellHF],
            _: &[CellHE],
        ) -> ControlFlow<()> {
            ControlFlow::Continue(())
        }
        fn on_checkpoint(&mut self, state: &EngineState) {
            self.0.push(state.clone());
        }
    }

    /// Interrupt + resume must reproduce the uninterrupted run exactly.
    #[test]
    fn resume_reproduces_uninterrupted_run() {
        let a = lcg(1, 300);
        let mut b = lcg(1, 300);
        for i in (0..300).step_by(23) {
            b[i] = b"ACGT"[i % 4];
        }
        let j = job(&a, &b);
        let full = solo(&j);

        // Capture checkpoints every 5 diagonals.
        let mut obs = Snapshots(Vec::new());
        let _ =
            solo_with(&j, &mut obs, RunOpts { checkpoint_every: Some(5), ..Default::default() });
        let snapshots = obs.0;
        assert!(snapshots.len() >= 2, "expected several checkpoints");
        let mid = snapshots[snapshots.len() / 2].clone();

        // Round-trip the snapshot through bytes (what a file would hold).
        let bytes = mid.encode();
        let restored = EngineState::decode(&bytes).expect("decode");
        assert_eq!(restored, mid);

        let resumed = solo_with(
            &j,
            &mut NoObserver,
            RunOpts { resume: Some(restored), ..Default::default() },
        );
        assert_eq!(resumed.best, full.best);
        assert_eq!(resumed.hbus, full.hbus);
        assert_eq!(resumed.vbus, full.vbus);
        assert_eq!(resumed.cells, full.cells, "cells counter continues across resume");
        assert_eq!(resumed.busy_slots, full.busy_slots);
    }

    #[test]
    fn resume_rejects_foreign_checkpoints() {
        let a = lcg(2, 100);
        let b = lcg(3, 100);
        let j = job(&a, &b);
        let mut obs = Snapshots(Vec::new());
        let _ =
            solo_with(&j, &mut obs, RunOpts { checkpoint_every: Some(3), ..Default::default() });
        let mut snaps = obs.0;
        let other_a = lcg(4, 120);
        let j2 = job(&other_a, &b);
        let snap = snaps.pop().expect("have a snapshot");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            solo_with(&j2, &mut NoObserver, RunOpts { resume: Some(snap), ..Default::default() })
        }));
        assert!(result.is_err(), "foreign checkpoint must be rejected");
    }

    /// Strip-scheduled checkpoints carry their schedule provenance in a
    /// self-identifying tailer; stripping it yields a pre-strip-era blob
    /// that must still decode (as `Serial`) and resume correctly.
    #[test]
    fn schedule_provenance_roundtrips_and_old_blobs_decode() {
        let a = lcg(7, 260);
        let b = lcg(9, 240);
        let j = job(&a, &b); // workers: 2 -> strip scheduler
        let full = solo(&j);

        let mut obs = Snapshots(Vec::new());
        let _ =
            solo_with(&j, &mut obs, RunOpts { checkpoint_every: Some(4), ..Default::default() });
        let snap = obs.0.into_iter().next().expect("have a checkpoint");
        let ScheduleInfo::Strips { strips, batch_rows } = snap.schedule else {
            panic!("strip-scheduled run must stamp Strips provenance, got {:?}", snap.schedule);
        };
        assert!(strips >= 2);
        assert_eq!(batch_rows as usize, DEFAULT_BATCH_ROWS);

        // Round-trip keeps the provenance.
        let bytes = snap.encode();
        let restored = EngineState::decode(&bytes).expect("decode");
        assert_eq!(restored, snap);

        // An old-format blob — everything but the 12-byte tailer — still
        // decodes; the schedule defaults to Serial and the engine payload
        // is untouched.
        let old = &bytes[..bytes.len() - 12];
        let legacy = EngineState::decode(old).expect("old-format blob must decode");
        assert_eq!(legacy.schedule, ScheduleInfo::Serial);
        assert_eq!(legacy.next_diagonal, snap.next_diagonal);
        assert_eq!(legacy.hbus, snap.hbus);
        assert_eq!(legacy.vbus, snap.vbus);
        assert_eq!(legacy.corners, snap.corners);

        // ... and resuming from it reproduces the uninterrupted run.
        let resumed =
            solo_with(&j, &mut NoObserver, RunOpts { resume: Some(legacy), ..Default::default() });
        assert_eq!(resumed.best, full.best);
        assert_eq!(resumed.hbus, full.hbus);
        assert_eq!(resumed.cells, full.cells);

        // A tailer truncated mid-way is corruption, not old format.
        assert!(EngineState::decode(&bytes[..bytes.len() - 5]).is_none());
    }

    /// A snapshot taken under one worker count must resume under any
    /// other: the strip plan is derived at launch, not persisted state.
    #[test]
    fn resume_with_different_worker_count_is_byte_identical() {
        let a = lcg(11, 280);
        let b = lcg(13, 300);
        let j4 = RegionJob { workers: 4, ..job(&a, &b) };
        let full = solo(&j4);

        let mut obs = Snapshots(Vec::new());
        let _ =
            solo_with(&j4, &mut obs, RunOpts { checkpoint_every: Some(3), ..Default::default() });
        let snapshots = obs.0;
        assert!(snapshots.len() >= 2, "expected several checkpoints");
        let mid = snapshots[snapshots.len() / 2].clone();

        for workers in [1usize, 2, 3, 8] {
            let j = RegionJob { workers, ..j4 };
            let resumed = solo_with(
                &j,
                &mut NoObserver,
                RunOpts { resume: Some(mid.clone()), ..Default::default() },
            );
            assert_eq!(resumed.best, full.best, "workers={workers}");
            assert_eq!(resumed.hbus, full.hbus, "workers={workers}");
            assert_eq!(resumed.vbus, full.vbus, "workers={workers}");
            assert_eq!(resumed.cells, full.cells, "workers={workers}");
            assert_eq!(resumed.busy_slots, full.busy_slots, "workers={workers}");
        }
    }

    /// An observer that cancels the supervision token after a fixed
    /// number of delivered blocks, recording every checkpoint.
    struct CancelAfter<'t> {
        countdown: usize,
        token: &'t crate::ctrl::CancelToken,
        snaps: Vec<EngineState>,
    }
    impl WavefrontObserver for CancelAfter<'_> {
        fn on_block(
            &mut self,
            _: &BlockCoords,
            _: &TileOutcome,
            _: &[CellHF],
            _: &[CellHE],
        ) -> ControlFlow<()> {
            if self.countdown > 0 {
                self.countdown -= 1;
                if self.countdown == 0 {
                    self.token.cancel(crate::ctrl::CancelCause::Requested);
                }
            }
            ControlFlow::Continue(())
        }
        fn on_checkpoint(&mut self, state: &EngineState) {
            self.snaps.push(state.clone());
        }
    }

    /// Cancelling a supervised run must (a) abort instead of returning a
    /// partial score, (b) flush one final boundary checkpoint, and (c)
    /// leave a snapshot from which resume is byte-identical to the
    /// uninterrupted run — on both schedulers, at several cancel points.
    #[test]
    fn cancelled_runs_flush_a_resumable_boundary_checkpoint() {
        let a = lcg(21, 260);
        let b = lcg(22, 300);
        for workers in [1usize, 4] {
            let j = RegionJob { workers, ..job(&a, &b) };
            let full = solo(&j);
            let pool = WorkerPool::new(workers);
            for cancel_after in [1usize, 7, 25] {
                let token = crate::ctrl::CancelToken::new();
                let mut obs = CancelAfter { countdown: cancel_after, token: &token, snaps: vec![] };
                // Cadence 10_000 never fires on this grid: every recorded
                // snapshot below is the cancellation flush itself.
                let res = run(
                    &pool,
                    &j,
                    &mut obs,
                    RunOpts {
                        checkpoint_every: Some(10_000),
                        token: Some(&token),
                        ..Default::default()
                    },
                )
                .unwrap();
                assert!(res.aborted, "workers={workers} cancel_after={cancel_after}");
                let snap = obs.snaps.pop().expect("cancel must flush a checkpoint");
                assert!(obs.snaps.is_empty(), "exactly one flush per cancel");
                let resumed = solo_with(
                    &j,
                    &mut NoObserver,
                    RunOpts { resume: Some(snap), ..Default::default() },
                );
                assert_eq!(resumed.best, full.best, "workers={workers}");
                assert_eq!(resumed.hbus, full.hbus, "workers={workers}");
                assert_eq!(resumed.vbus, full.vbus, "workers={workers}");
                assert_eq!(resumed.cells, full.cells, "workers={workers}");
                assert_eq!(resumed.busy_slots, full.busy_slots, "workers={workers}");
            }
        }
    }

    /// A token cancelled before launch aborts immediately with the
    /// initial state as its flush — resuming from it runs everything —
    /// and parks the strip counters in the token, one strip or many.
    #[test]
    fn pre_cancelled_run_aborts_with_initial_snapshot() {
        let a = lcg(23, 150);
        let b = lcg(24, 140);
        for workers in [1usize, 2] {
            let j = RegionJob { workers, ..job(&a, &b) };
            let full = solo(&j);
            let pool = WorkerPool::new(workers);
            let token = crate::ctrl::CancelToken::new();
            token.cancel(crate::ctrl::CancelCause::Requested);
            let mut obs = CancelAfter { countdown: 0, token: &token, snaps: vec![] };
            let opts = RunOpts {
                checkpoint_every: Some(10_000),
                token: Some(&token),
                ..Default::default()
            };
            let res = run(&pool, &j, &mut obs, opts).unwrap();
            assert!(res.aborted, "workers={workers}");
            assert_eq!(res.cells, 0, "no partial work should be committed");
            let snap = obs.snaps.pop().expect("flush");
            assert!(obs.snaps.is_empty(), "exactly one flush per cancel");
            assert_eq!(snap.next_diagonal, 0);
            let diag = token.take_strip_diag().expect("cancelled launch parks a StripDiag");
            assert_eq!(diag.claims, vec![1; workers], "each runner holds its home strip");
            let resume = RunOpts { resume: Some(snap), ..Default::default() };
            let resumed = solo_with(&j, &mut NoObserver, resume);
            assert_eq!(resumed.best, full.best, "workers={workers}");
            assert_eq!(resumed.hbus, full.hbus, "workers={workers}");
        }
    }

    /// Resuming from a snapshot taken after the last diagonal has nothing
    /// to compute: the launch returns the snapshot's state unchanged.
    #[test]
    fn resume_at_end_returns_the_snapshot_state() {
        let a = lcg(31, 90);
        let b = lcg(37, 70);
        for workers in [1usize, 2] {
            let j = RegionJob { workers, ..job(&a, &b) };
            let full = solo(&j);
            let end = EngineState {
                next_diagonal: full.layout.diagonals(),
                hbus: full.hbus.clone(),
                vbus: full.vbus.clone(),
                best: full.best,
                cells: full.cells,
                busy_slots: full.busy_slots,
                ..EngineState::initial(&j, &full.layout)
            };
            let res =
                solo_with(&j, &mut NoObserver, RunOpts { resume: Some(end), ..Default::default() });
            assert!(!res.aborted, "workers={workers}");
            assert_eq!(res.diagonals_run, 0, "workers={workers}");
            assert_eq!(res.best, full.best, "workers={workers}");
            assert_eq!(res.hbus, full.hbus, "workers={workers}");
            assert_eq!(res.vbus, full.vbus, "workers={workers}");
            assert_eq!(res.cells, full.cells, "workers={workers}");
            assert_eq!(res.busy_slots, full.busy_slots, "workers={workers}");
        }
    }

    /// A live (never-cancelled) token must not change results.
    #[test]
    fn supervised_run_without_cancel_is_identical() {
        let a = lcg(25, 200);
        let b = lcg(26, 180);
        for workers in [1usize, 3] {
            let j = RegionJob { workers, ..job(&a, &b) };
            let full = solo(&j);
            let pool = WorkerPool::new(workers);
            let token = crate::ctrl::CancelToken::new();
            let res = run(
                &pool,
                &j,
                &mut NoObserver,
                RunOpts { token: Some(&token), ..Default::default() },
            )
            .unwrap();
            assert!(!res.aborted);
            assert_eq!(res.best, full.best, "workers={workers}");
            assert_eq!(res.hbus, full.hbus, "workers={workers}");
            assert_eq!(res.cells, full.cells, "workers={workers}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(EngineState::decode(b"nope").is_none());
        assert!(EngineState::decode(b"").is_none());
        // Truncated real snapshot.
        let a = lcg(5, 60);
        let j = RegionJob {
            a: &a,
            b: &a,
            scoring: Scoring::paper(),
            mode: Mode::global(ES::Diagonal),
            grid: GridSpec::small(),
            workers: 1,
            watch: None,
        };
        let mut obs = Snapshots(Vec::new());
        let _ =
            solo_with(&j, &mut obs, RunOpts { checkpoint_every: Some(1), ..Default::default() });
        let snaps = obs.0;
        let bytes = snaps[0].encode();
        assert!(EngineState::decode(&bytes[..bytes.len() - 3]).is_none());
        // Corrupted length field must not cause huge allocations.
        let mut corrupt = bytes.clone();
        corrupt[68] = 0xFF;
        corrupt[69] = 0xFF;
        corrupt[70] = 0xFF;
        let _ = EngineState::decode(&corrupt); // must return, not abort
    }
}
