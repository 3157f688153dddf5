//! Multi-device execution — the paper's closing future-work item
//! ("extend the tests to even more powerful GPUs, including systems with
//! dual cards").
//!
//! The approach CUDAlign's follow-on versions took (and the one simulated
//! here) splits the DP matrix by *columns* across devices: device `d`
//! owns a contiguous column slice and streams row-chunks; after finishing
//! a chunk it sends its last column's `H`/`E` border (plus the diagonal
//! corner) to device `d + 1`, which may then process the same chunk. The
//! devices form a pipeline exactly like the single-device wavefront's
//! block columns, but with an explicit, counted exchange channel standing
//! in for the PCIe transfers a real dual-card setup pays for.

use crate::exec::{ExecError, WorkerPool};
use crate::kernel::{self, CellHE, CellHF, Mode};
use crate::wavefront::RegionJob;
use std::sync::mpsc;
use sw_core::full::better_endpoint;
use sw_core::scoring::Score;

/// Outcome of a multi-device launch.
#[derive(Debug, Clone)]
pub struct MultiDeviceResult {
    /// Best cell (local mode), merged across devices with the shared
    /// tie-break rule.
    pub best: Option<(Score, usize, usize)>,
    /// Total cells processed.
    pub cells: u64,
    /// Cells processed per device (column-slice sizes differ by ≤ one
    /// column's worth).
    pub per_device_cells: Vec<u64>,
    /// Border cells exchanged between devices (the inter-GPU traffic:
    /// `m x (devices - 1)` `H`/`E` pairs).
    pub exchanged_cells: u64,
    /// Final horizontal bus (last row per column), identical to the
    /// single-device engine's.
    pub hbus: Vec<CellHF>,
    /// First watch hit per the shared scan order (when `job.watch` was
    /// set): the earliest-anti-diagonal cell whose `H` equals the watch.
    pub watch_hit: Option<(usize, usize)>,
    /// Precision-ladder outcome counters for the chunks of all devices.
    pub paths: kernel::PathCounts,
    /// Query-profile cache hits, summed over the per-device caches. Each
    /// device owns a private cache for its column slice; chunks walk
    /// disjoint query bands, so hits only occur when a band's geometry
    /// recurs within one device's slice.
    pub profile_hits: u64,
    /// Query-profile cache misses (bands built), all devices.
    pub profile_misses: u64,
}

/// Row-chunk height of the pipeline.
fn chunk_rows(m: usize, devices: usize) -> usize {
    (m / (devices * 4).max(1)).clamp(32, 8192).min(m.max(1))
}

/// Border message on the inter-device channel. Under `race-check` every
/// border is tagged with its (sender device, chunk index) so the receiver
/// can verify it consumed the border it scheduled for — a mis-sequenced
/// or cross-wired channel shows up as a `ChannelTag` violation instead of
/// silently corrupting the downstream slice.
#[cfg(feature = "race-check")]
type BorderMsg = ((usize, usize), Vec<CellHE>);
#[cfg(not(feature = "race-check"))]
type BorderMsg = Vec<CellHE>;

#[cfg(feature = "race-check")]
fn tag_border(device: usize, chunk: usize, border: Vec<CellHE>) -> BorderMsg {
    ((device, chunk), border)
}
#[cfg(not(feature = "race-check"))]
fn tag_border(_device: usize, _chunk: usize, border: Vec<CellHE>) -> BorderMsg {
    border
}

#[cfg(feature = "race-check")]
fn untag_border(expect_device: usize, expect_chunk: usize, msg: BorderMsg) -> Vec<CellHE> {
    let ((got_device, got_chunk), border) = msg;
    if (got_device, got_chunk) != (expect_device, expect_chunk) {
        crate::race::report_channel_tag(expect_device, expect_chunk, got_device, got_chunk);
    }
    border
}
#[cfg(not(feature = "race-check"))]
fn untag_border(_expect_device: usize, _expect_chunk: usize, msg: BorderMsg) -> Vec<CellHE> {
    msg
}

/// Run a region split across `devices` simulated cards.
///
/// Convenience wrapper over [`run_split_pooled`] with a transient
/// [`WorkerPool`] of one lane per device; panics if a device worker
/// panics (the pre-executor behaviour).
pub fn run_split(job: &RegionJob<'_>, devices: usize) -> MultiDeviceResult {
    let pool = WorkerPool::new(devices.clamp(1, job.b.len().max(1)));
    run_split_pooled(&pool, job, devices)
        // lint: allow(no-panics): documented panicking wrapper (the
        // pre-executor behaviour); fallible callers use run_split_pooled.
        .unwrap_or_else(|e| panic!("device worker panicked: {e}"))
}

/// Run a region split across `devices` simulated cards on a shared
/// persistent [`WorkerPool`].
///
/// Results are bit-identical to the single-device engine; only the
/// execution structure (and the exchange accounting) differs. Global
/// mode is supported with forward and reverse origins.
///
/// The device pipeline is deadlock-free on *any* pool size, including a
/// single lane: device tasks are spawned in device order (the pool's FIFO
/// guarantee keeps that order), device `d` only ever waits on borders
/// from device `d - 1`, and border channels are unbounded so senders
/// never block. With one lane, device `d - 1` simply runs to completion
/// — buffering every border — before `d` starts.
pub fn run_split_pooled(
    pool: &WorkerPool,
    job: &RegionJob<'_>,
    devices: usize,
) -> Result<MultiDeviceResult, ExecError> {
    let (m, n) = (job.a.len(), job.b.len());
    let devices = devices.clamp(1, n.max(1));
    let local = job.mode.is_local();

    let (hbus_init, vbus_init, origin_h) = match job.mode {
        Mode::Local => kernel::local_borders(m, n),
        Mode::Global { origin } => kernel::global_borders(m, n, &job.scoring, origin),
    };

    if m == 0 || n == 0 {
        return Ok(MultiDeviceResult {
            best: None,
            cells: 0,
            per_device_cells: vec![0; devices],
            exchanged_cells: 0,
            hbus: hbus_init,
            watch_hit: None,
            paths: kernel::PathCounts::default(),
            profile_hits: 0,
            profile_misses: 0,
        });
    }

    let chunk = chunk_rows(m, devices);
    let nchunks = m.div_ceil(chunk);

    // Column slice per device (even split, first slices one wider).
    let base = n / devices;
    let extra = n % devices;
    let col_range = |d: usize| -> (usize, usize) {
        let start = d * base + d.min(extra);
        let width = base + usize::from(d < extra);
        (start, start + width)
    };

    // Channel d carries the border column segment from device d-1. The
    // channels are unbounded: a bounded channel plus a pool narrower than
    // the device count could fill while the downstream device is still
    // waiting for a lane, blocking the sender forever. Unbounded sends
    // always complete, and the FIFO spawn order guarantees every running
    // device's upstream is already running or finished.
    let mut senders: Vec<Option<mpsc::Sender<BorderMsg>>> = Vec::new();
    let mut receivers: Vec<Option<mpsc::Receiver<BorderMsg>>> = Vec::new();
    receivers.push(None);
    for _ in 1..devices {
        let (tx, rx) = mpsc::channel();
        senders.push(Some(tx));
        receivers.push(Some(rx));
    }
    senders.push(None);

    type DeviceOutcome = (
        Option<(Score, usize, usize)>,
        u64,
        Vec<CellHF>,
        Option<(usize, usize)>,
        kernel::PathCounts,
        u64,
        u64,
    );
    let mut results: Vec<Option<DeviceOutcome>> = (0..devices).map(|_| None).collect();
    pool.scope(|s| {
        for (d, slot) in results.iter_mut().enumerate() {
            let rx = receivers[d].take();
            let tx = senders[d].take();
            let (c0, c1) = col_range(d);
            let mut top: Vec<CellHF> = hbus_init[c0..c1].to_vec();
            // Device 0's left border is the region's; later devices get
            // theirs chunk by chunk over the channel.
            let vbus_init = &vbus_init;
            s.spawn(move || {
                let b_slice = &job.b[c0..c1];
                let mut best: Option<(Score, usize, usize)> = None;
                let mut watch_hit: Option<(usize, usize)> = None;
                let mut cells = 0u64;
                let mut paths = kernel::PathCounts::default();
                // Private per-device cache: devices never share bands
                // concurrently, so each keeps its own and the totals are
                // summed after the scope joins.
                let mut cache = crate::striped::ProfileCache::new();
                // Corner above this device's slice for chunk 0:
                // H at (0, c0) — the origin for device 0, the init-row
                // value at column c0 otherwise.
                let mut corner = if c0 == 0 { origin_h } else { top_corner_from_init(job, c0) };
                for k in 0..nchunks {
                    let r0 = k * chunk;
                    let r1 = ((k + 1) * chunk).min(m);
                    let a_chunk = &job.a[r0..r1];
                    let mut left: Vec<CellHE> = match &rx {
                        Some(rx) => {
                            // lint: allow(no-panics): recv fails only if the
                            // upstream device panicked — which already poisons
                            // the scope; this panic is the cancel path.
                            untag_border(d - 1, k, rx.recv().expect("device pipeline broken"))
                        }
                        None => vbus_init[r0..r1].to_vec(),
                    };
                    // The corner for this device's NEXT chunk is the last
                    // entry of the border being consumed now — capture it
                    // before compute_tile overwrites `left` with its own
                    // right column.
                    let next_corner = left.last().map_or(corner, |c| c.h);
                    let out = kernel::compute_tile_cached(
                        a_chunk,
                        b_slice,
                        r0 + 1,
                        c0 + 1,
                        &job.scoring,
                        local,
                        job.watch,
                        corner,
                        &mut top,
                        &mut left,
                        &mut cache,
                    );
                    cells += out.cells;
                    paths.count(out.path);
                    if let Some(cand) = out.best {
                        if best.is_none_or(|cur| better_endpoint(cand, cur)) {
                            best = Some(cand);
                        }
                    }
                    if let Some(hit) = out.watch_hit {
                        let cand = (0, hit.0, hit.1);
                        if watch_hit.is_none_or(|cur| better_endpoint(cand, (0, cur.0, cur.1))) {
                            watch_hit = Some(hit);
                        }
                    }
                    corner = next_corner;
                    if let Some(tx) = &tx {
                        // `left` now holds this slice's LAST column — the
                        // next device's border for the same chunk.
                        // lint: allow(no-panics): send fails only if the
                        // downstream device panicked; see recv above.
                        tx.send(tag_border(d, k, left)).expect("device pipeline broken");
                    }
                }
                *slot = Some((best, cells, top, watch_hit, paths, cache.hits(), cache.misses()));
            });
        }
    })?;

    let mut best: Option<(Score, usize, usize)> = None;
    let mut watch_hit: Option<(usize, usize)> = None;
    let mut cells = 0u64;
    let mut per_device_cells = Vec::with_capacity(devices);
    let mut hbus = Vec::with_capacity(n);
    let mut paths = kernel::PathCounts::default();
    let mut profile_hits = 0u64;
    let mut profile_misses = 0u64;
    for (b_d, c_d, top, w_d, p_d, h_d, mi_d) in results.into_iter().flatten() {
        per_device_cells.push(c_d);
        cells += c_d;
        paths.add(&p_d);
        profile_hits += h_d;
        profile_misses += mi_d;
        if let Some(cand) = b_d {
            if best.is_none_or(|cur| better_endpoint(cand, cur)) {
                best = Some(cand);
            }
        }
        if let Some(hit) = w_d {
            let cand = (0, hit.0, hit.1);
            if watch_hit.is_none_or(|cur| better_endpoint(cand, (0, cur.0, cur.1))) {
                watch_hit = Some(hit);
            }
        }
        hbus.extend(top);
    }
    Ok(MultiDeviceResult {
        best,
        cells,
        per_device_cells,
        exchanged_cells: (m as u64) * (devices as u64 - 1),
        hbus,
        watch_hit,
        paths,
        profile_hits,
        profile_misses,
    })
}

/// `H` of the region's init row at column `c0` (the corner a non-first
/// device needs for its first chunk).
fn top_corner_from_init(job: &RegionJob<'_>, c0: usize) -> Score {
    let (hbus, _, origin_h) = match job.mode {
        Mode::Local => kernel::local_borders(job.a.len(), job.b.len()),
        Mode::Global { origin } => {
            kernel::global_borders(job.a.len(), job.b.len(), &job.scoring, origin)
        }
    };
    if c0 == 0 {
        origin_h
    } else {
        hbus[c0 - 1].h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wavefront::{run, NoObserver, RegionResult, RunOpts};
    use crate::GridSpec;
    use sw_core::scoring::Scoring;
    use sw_core::transcript::EdgeState as ES;

    fn lcg(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                b"ACGT"[(x >> 33) as usize & 3]
            })
            .collect()
    }

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

    fn single_device(j: &RegionJob<'_>) -> RegionResult {
        run(&WorkerPool::new(1), j, &mut NoObserver, RunOpts::default()).unwrap()
    }

    #[test]
    fn split_matches_single_device_local() {
        let a = lcg(1, 400);
        let mut b = lcg(1, 400);
        for i in (3..b.len()).step_by(29) {
            b[i] = b"ACGT"[i % 4];
        }
        let j = job(&a, &b, Mode::Local);
        let single = single_device(&j);
        for devices in [1usize, 2, 3, 5] {
            let multi = run_split(&j, devices);
            assert_eq!(multi.best, single.best, "{devices} devices");
            assert_eq!(multi.hbus, single.hbus, "{devices} devices");
            assert_eq!(multi.cells, (a.len() * b.len()) as u64);
            assert_eq!(multi.per_device_cells.len(), devices);
            assert_eq!(multi.exchanged_cells, (a.len() * (devices - 1)) as u64);
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
            let single = single_device(&j);
            let multi = run_split(&j, 3);
            assert_eq!(multi.hbus, single.hbus, "{mode:?}");
        }
    }

    #[test]
    fn work_is_balanced() {
        let a = lcg(7, 300);
        let b = lcg(8, 301);
        let multi = run_split(&job(&a, &b, Mode::Local), 4);
        let min = multi.per_device_cells.iter().min().unwrap();
        let max = multi.per_device_cells.iter().max().unwrap();
        assert!(max - min <= a.len() as u64, "unbalanced: {:?}", multi.per_device_cells);
    }

    #[test]
    fn degenerate_regions() {
        let multi = run_split(&job(b"", b"ACG", Mode::Local), 2);
        assert_eq!(multi.cells, 0);
        let multi2 = run_split(&job(b"ACG", b"", Mode::Local), 2);
        assert_eq!(multi2.cells, 0);
        // More devices than columns clamps.
        let a = lcg(9, 10);
        let multi3 = run_split(&job(&a, &a, Mode::Local), 64);
        let single = single_device(&job(&a, &a, Mode::Local));
        assert_eq!(multi3.best, single.best);
    }
}
