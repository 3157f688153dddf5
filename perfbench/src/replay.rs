//! A serial, timed replay of Stage 1's tile grid through the public tile
//! kernels: per-rung kernel time, wasted-rung time and query-profile
//! saving, measured call by call from the benchmark's side.

use gpu_sim::kernel::{self, local_borders, KernelPath, PathCounts};
use gpu_sim::striped::ProfileCache;
use gpu_sim::GridSpec;
use std::time::Instant;
use sw_core::full::better_endpoint;
use sw_core::{Score, Scoring};

/// Where a replay gets its query profiles from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profiles {
    /// One `ProfileCache` shared by every tile (`compute_tile_cached`),
    /// as the engines hold one per runner.
    Shared,
    /// A fresh cache per tile (`compute_tile`).
    Fresh,
}

/// Ladder rungs in reporting order: `i8`, `i8_fb16`, `i16`, `scalar_fb`,
/// then up-front scalar tiles (not part of the stage's `kernel` record).
pub const RUNGS: [&str; 5] = ["i8", "i8_fb16", "i16", "scalar_fb", "scalar"];

fn rung(path: KernelPath) -> usize {
    match path {
        KernelPath::Striped8 => 0,
        KernelPath::Striped8Fallback16 => 1,
        KernelPath::Striped16 => 2,
        KernelPath::StripedFallback => 3,
        KernelPath::Scalar => 4,
    }
}

/// What one replay measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// Tiles per rung ([`RUNGS`] order).
    pub tiles: [u64; 5],
    /// Seconds inside the tile calls per rung (failed rungs included).
    pub secs: [f64; 5],
    /// Cells computed.
    pub cells: u64,
    /// Ladder time minus committing-rung-alone time, summed over the
    /// escalated tiles (measured with [`Profiles::Shared`] only).
    pub wasted_s: f64,
    /// Best cell of the matrix, as the tiles report it.
    pub best: Option<(Score, usize, usize)>,
}

impl Replay {
    /// Seconds inside all tile calls.
    pub fn total_s(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Tile counts in the shape of the pipeline's `kernel` record.
    pub fn path_counts(&self) -> PathCounts {
        PathCounts {
            striped8: self.tiles[0],
            striped8_fb16: self.tiles[1],
            striped16: self.tiles[2],
            fallback: self.tiles[3],
        }
    }
}

/// Replay the local-mode grid `grid.layout(m, n)` of `s0` × `s1` in
/// row-major block order (a valid wavefront order: each tile's top,
/// left and corner are final when it runs). With [`Profiles::Shared`],
/// every escalated tile is recomputed from a copy of its borders on its
/// committing rung alone (`compute_tile_i16` / `compute_tile_scalar`),
/// which must reproduce the ladder's outputs exactly.
pub fn stage1(
    s0: &[u8],
    s1: &[u8],
    scoring: &Scoring,
    grid: &GridSpec,
    profiles: Profiles,
) -> Result<Replay, String> {
    let layout = grid.layout(s0.len(), s1.len());
    let (mut hbus, _, _) = local_borders(s0.len(), s1.len());
    let mut cache = ProfileCache::new();
    let mut out = Replay::default();
    for r in 0..layout.block_rows {
        let (rs, re) = layout.row_range(r);
        let a = &s0[rs - 1..re];
        let (_, mut vbus, mut corner) = local_borders(a.len(), 0);
        for c in 0..layout.block_cols {
            let (cs, ce) = layout.col_range(c);
            let b = &s1[cs - 1..ce];
            let top = &mut hbus[cs - 1..ce];
            // The corner of the next tile on this row is this tile's
            // top-right input, read before the tile overwrites it.
            let next_corner = top[top.len() - 1].h;
            let before = (profiles == Profiles::Shared).then(|| (top.to_vec(), vbus.clone()));
            let t = Instant::now();
            let tile = match profiles {
                Profiles::Shared => kernel::compute_tile_cached(
                    a, b, rs, cs, scoring, true, None, corner, top, &mut vbus, &mut cache,
                ),
                Profiles::Fresh => {
                    kernel::compute_tile(a, b, rs, cs, scoring, true, None, corner, top, &mut vbus)
                }
            };
            let ladder_s = t.elapsed().as_secs_f64();
            let k = rung(tile.path);
            out.tiles[k] += 1;
            out.secs[k] += ladder_s;
            out.cells += tile.cells;
            if let Some(b) = tile.best {
                if out.best.is_none_or(|best| better_endpoint(b, best)) {
                    out.best = Some(b);
                }
            }
            if let (Some((mut top2, mut left2)), 1 | 3) = (before, k) {
                let t = Instant::now();
                let again = if k == 1 {
                    kernel::compute_tile_i16(
                        a, b, rs, cs, scoring, true, None, corner, &mut top2, &mut left2,
                    )
                } else {
                    kernel::compute_tile_scalar(
                        a, b, rs, cs, scoring, true, None, corner, &mut top2, &mut left2,
                    )
                };
                out.wasted_s += ladder_s - t.elapsed().as_secs_f64();
                if (again.corner_out, again.best) != (tile.corner_out, tile.best)
                    || top2 != hbus[cs - 1..ce]
                    || left2 != vbus
                {
                    return Err(format!("tile ({r},{c}): rung alone disagrees with the ladder"));
                }
            }
            corner = next_corner;
        }
    }
    Ok(out)
}

/// The replay's tile counts must equal the pipeline's stage-1 `kernel`
/// record exactly: the rung a tile commits on depends only on its
/// inputs, never on scheduling.
pub fn check_counts(replay: &Replay, record: &PathCounts) -> Result<(), String> {
    let got = replay.path_counts();
    if got == *record {
        Ok(())
    } else {
        Err(format!("replay tile counts {got:?} != pipeline kernel record {record:?}"))
    }
}
