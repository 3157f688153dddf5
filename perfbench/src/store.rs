//! Storage-layer timing: special rows through a disk-backed `LineStore`.

use cudalign::config::SraBackend;
use cudalign::sra::LineStore;
use gpu_sim::CellHF;
use std::path::Path;
use std::time::Instant;

/// What one probe measured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreTiming {
    /// Seconds to put every line (the Stage-1 flush path).
    pub write_s: f64,
    /// Seconds to get every line back (the Stage-2 read path).
    pub read_s: f64,
    /// Transient write failures the store recovered by retry.
    pub retries: u64,
}

/// Put `lines` rows of `width` cells each through a fresh disk-backed
/// store under `dir`, then read them all back and check the contents.
pub fn probe(dir: &Path, lines: usize, width: usize) -> Result<StoreTiming, String> {
    let budget = 8 * (lines as u64 + 1) * (width as u64 + 1);
    let backend = SraBackend::Disk(dir.to_path_buf());
    let mut store: LineStore<CellHF> =
        LineStore::new(&backend, budget, "perfbench-row", 0x5eed).map_err(|e| e.to_string())?;
    let cell = |i: usize, j: usize| CellHF { h: (i * 31 + j) as i32, f: -(j as i32) };
    let t = Instant::now();
    for i in 0..lines {
        if !store.try_begin_line(i, 0, width)
            || !store.put_segment(i, 0, (0..width).map(|j| cell(i, j)))
        {
            return Err(format!("line {i} was not stored"));
        }
    }
    let write_s = t.elapsed().as_secs_f64();
    let mut read_s = 0.0;
    for i in 0..lines {
        let t = Instant::now();
        let got = store.get(i);
        read_s += t.elapsed().as_secs_f64();
        let (origin, cells) = got
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("line {i} missing on read-back"))?;
        if origin != 0
            || cells.len() != width
            || cells.iter().enumerate().any(|(j, c)| *c != cell(i, j))
        {
            return Err(format!("line {i} read back different"));
        }
    }
    let retries = store.stats().write_retries;
    store.clear();
    Ok(StoreTiming { write_s, read_s, retries })
}
