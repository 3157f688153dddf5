//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live in `tests/tests/*.rs`; this library only hosts
//! small utilities they share.

use gpu_sim::kernel::{self, CellHE, CellHF, TileOutcome};
use gpu_sim::wavefront::{run, BlockCoords, RegionJob, RegionResult, RunOpts, WavefrontObserver};
use gpu_sim::{Mode, WorkerPool};
use std::ops::ControlFlow;
use sw_core::scoring::Score;

/// One observer event: block coordinates plus its bottom/right border
/// contents. Stage 1 assembles special rows from exactly these bottom
/// borders, so equal streams imply byte-equal special rows.
pub type BlockEvent = ((usize, usize), Vec<CellHF>, Vec<CellHE>);

struct Recorder(Vec<BlockEvent>);

impl WavefrontObserver for Recorder {
    fn on_block(
        &mut self,
        block: &BlockCoords,
        _: &TileOutcome,
        bottom: &[CellHF],
        right: &[CellHE],
    ) -> ControlFlow<()> {
        self.0.push(((block.r, block.c), bottom.to_vec(), right.to_vec()));
        ControlFlow::Continue(())
    }
}

/// Run `job` on `pool` and record the observer's block stream.
pub fn run_recorded(
    pool: &WorkerPool,
    job: &RegionJob<'_>,
    opts: RunOpts<'_>,
) -> (RegionResult, Vec<BlockEvent>) {
    let mut rec = Recorder(Vec::new());
    let res = run(pool, job, &mut rec, opts).expect("no worker panic");
    (res, rec.0)
}

/// What a completed wavefront launch must deliver, derived without the
/// wavefront engine: every border comes from a whole-prefix
/// [`kernel::compute_tile_scalar`] run (itself proven against `sw_core`)
/// over the region's initial borders. Block row `r`'s bottoms are the
/// last row of one run over rows `1..=row_end(r)` and every column;
/// block column `c`'s rights are the last column of one run over every
/// row and columns `1..=col_end(c)`.
pub struct Oracle {
    /// The observer stream in canonical order: diagonals ascending, block
    /// columns ascending within a diagonal.
    pub events: Vec<BlockEvent>,
    /// Final horizontal bus (row `m`).
    pub hbus: Vec<CellHF>,
    /// Final vertical bus (column `n`).
    pub vbus: Vec<CellHE>,
    /// Best cell of the whole region (local mode).
    pub best: Option<(Score, usize, usize)>,
}

impl Oracle {
    /// Derive the expected outcome of `job`.
    pub fn of(job: &RegionJob<'_>) -> Oracle {
        let (m, n) = (job.a.len(), job.b.len());
        let layout = job.grid.layout(m, n);
        let (top, left, origin_h) = match job.mode {
            Mode::Local => kernel::local_borders(m, n),
            Mode::Global { origin } => kernel::global_borders(m, n, &job.scoring, origin),
        };
        let prefix = |rows: usize, cols: usize| {
            let (mut t, mut l) = (top[..cols].to_vec(), left[..rows].to_vec());
            let out = kernel::compute_tile_scalar(
                &job.a[..rows],
                &job.b[..cols],
                1,
                1,
                &job.scoring,
                job.mode.is_local(),
                None,
                origin_h,
                &mut t,
                &mut l,
            );
            (t, l, out.best)
        };
        let bottoms: Vec<Vec<CellHF>> =
            (0..layout.block_rows).map(|r| prefix(layout.row_range(r).1, n).0).collect();
        let rights: Vec<Vec<CellHE>> =
            (0..layout.block_cols).map(|c| prefix(m, layout.col_range(c).1).1).collect();
        let (hbus, vbus, best) = prefix(m, n);
        let mut events = Vec::new();
        for d in 0..layout.diagonals() {
            for (r, c) in layout.diagonal_blocks(d) {
                let (rs, re) = layout.row_range(r);
                let (cs, ce) = layout.col_range(c);
                events.push((
                    (r, c),
                    bottoms[r][cs - 1..ce].to_vec(),
                    rights[c][rs - 1..re].to_vec(),
                ));
            }
        }
        Oracle { events, hbus, vbus, best }
    }

    /// Check a completed launch and its recorded stream; `Err` names the
    /// first divergence.
    pub fn check(&self, res: &RegionResult, events: &[BlockEvent]) -> Result<(), String> {
        if res.aborted {
            return Err("launch aborted".into());
        }
        if res.best != self.best {
            return Err(format!("best {:?}, expected {:?}", res.best, self.best));
        }
        if res.hbus != self.hbus {
            let j = res.hbus.iter().zip(&self.hbus).position(|(a, b)| a != b);
            return Err(format!("final hbus differs at column index {j:?}"));
        }
        if res.vbus != self.vbus {
            let i = res.vbus.iter().zip(&self.vbus).position(|(a, b)| a != b);
            return Err(format!("final vbus differs at row index {i:?}"));
        }
        if events.len() != self.events.len() {
            return Err(format!("{} events, expected {}", events.len(), self.events.len()));
        }
        for (k, (got, want)) in events.iter().zip(&self.events).enumerate() {
            if got.0 != want.0 {
                return Err(format!("event {k} is block {:?}, expected {:?}", got.0, want.0));
            }
            if got.1 != want.1 {
                return Err(format!("block {:?}: bottom border differs", got.0));
            }
            if got.2 != want.2 {
                return Err(format!("block {:?}: right border differs", got.0));
            }
        }
        Ok(())
    }
}

/// Deterministic pseudo-random DNA (no external RNG so failures are
/// trivially reproducible from the seed).
pub fn lcg_dna(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            b"ACGT"[(x >> 33) as usize & 3]
        })
        .collect()
}

/// A pair derived by point edits: SNPs every `snp_every` bases, one
/// deletion and one insertion block.
pub fn edited_pair(seed: u64, len: usize, snp_every: usize) -> (Vec<u8>, Vec<u8>) {
    let a = lcg_dna(seed, len);
    let mut b = a.clone();
    for i in (snp_every / 2..b.len()).step_by(snp_every.max(2)) {
        b[i] = match b[i] {
            b'A' => b'C',
            b'C' => b'G',
            b'G' => b'T',
            _ => b'A',
        };
    }
    if len >= 60 {
        b.drain(len / 3..len / 3 + 11);
        let at = b.len() / 2;
        for (k, ch) in lcg_dna(seed ^ 0xDEAD, 7).into_iter().enumerate() {
            b.insert(at + k, ch);
        }
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(lcg_dna(7, 64), lcg_dna(7, 64));
        let (a1, b1) = edited_pair(3, 200, 13);
        let (a2, b2) = edited_pair(3, 200, 13);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_ne!(a1, b1);
    }
}
