//! Lane-striped, auto-vectorizable tile kernel: one Farrar kernel, generic
//! over the lane type, run at the two narrow rungs of the precision ladder.
//!
//! The scalar kernel in [`crate::kernel`] updates one `i32` cell at a time.
//! This module is the CPU analogue of the paper's internal-diagonal kernel,
//! organised like Farrar's striped SIMD layout (the scheme SSW uses): the
//! tile's rows are cut into `N` contiguous chunks and lane `l` of a vector
//! owns one row of chunk `l`, so vector `s` holds rows `{l * seg + s}` for a
//! band of `seg * N` rows. Columns of the tile are streamed one at a time;
//! all per-column state lives in fixed-size `[T; N]` arrays combined with
//! saturating arithmetic and `min`/`max` only — the exact shape LLVM's
//! auto-vectorizer turns into packed ops, with no nightly `std::simd` and
//! no `unsafe`. The kernel is instantiated twice:
//!
//! * `i8 × 32` ([`LANES8`], [`P8_MAX`]) — the ladder's first rung, packed
//!   `paddsb` / `psubsb` / `pmaxsb`; twice the rows per vector op,
//! * `i16 × 16` ([`LANES`], [`P_MAX`]) — the middle rung, packed `paddsw`
//!   / `psubsw` / `pmaxsw`; what an i8 overflow escalates to.
//!
//! # Why striped and not skewed
//!
//! A skewed (anti-diagonal) arrangement needs a one-lane shift of the
//! `E`/`H`/`H_diag` vectors on *every* step; on SSE2 those cross-vector
//! shuffles dominate the cell updates. In the striped layout the only
//! lane crossing is at segment position 0, i.e. **once per column**, and
//! the vertical (`F`) dependency that striping breaks is repaired by the
//! standard lazy-F pass. Each column is three sweeps over the `seg`
//! vectors of a band:
//!
//! 1. **Partial pass** — `H = max(diag + subst, E, F_partial)` where
//!    `F_partial` propagates only inside each lane's row chunk (seeded
//!    from the band-top border in lane 0, rail elsewhere).
//! 2. **Lazy-F fixpoint** — the carry `max(F - g_ext, H - g_first)` from
//!    each chunk's last row is shifted one lane and folded in until no
//!    element improves. Early exit is sound because the partial pass
//!    guarantees `F[s+1] >= F[s] - g_ext`; the `H`-opened term never
//!    needs re-propagation because `gap_first >= gap_ext` (checked by
//!    `eligible`) makes `F - g_ext` dominate `H - g_first` whenever `H`
//!    was itself raised to `F`.
//! 3. **Finalize** — `H = max(H, F)`, the next column's
//!    `E = max(E - g_ext, H - g_first)`, overflow trackers, and the
//!    local-best / watch trackers.
//!
//! # Query profile
//!
//! Pass 1's substitution term is a per-band *query profile*: for every
//! distinct database symbol, the band's `subst(a[r], c)` scores are
//! precomputed in striped order, so the hot loop does one indexed vector
//! load instead of a per-cell `subst` call. Profiles live in the
//! engine-owned [`ProfileCache`], keyed by the band's query bytes and the
//! scoring, so tiles sharing a band row reuse one build instead of
//! rebuilding per tile — see the cache docs for the keying rules.
//!
//! # Narrow-score overflow protocol
//!
//! Scores are rebased to `bias` (the largest finite `H` on the tile's
//! borders) and carried as saturating `T`. Every finalized `H` feeds a
//! running lane-wise maximum and every finalized `E`/`F` a running
//! minimum; if either ever leaves the rung's safe window
//! `[T::MIN + 4·P, T::MAX - 4·P]` (`P` the rung's parameter bound: `[-96,
//! 95]` for i8, `[-28672, 28671]` for i16), the tile *overflowed*: the
//! kernel returns `None` without touching the `i32` buses and the
//! dispatcher escalates the tile (i8 → i16 → scalar). Inside the window no
//! saturating op can clip (each recurrence moves a checked value by at
//! most `2·P`), so the narrow arithmetic is an exact shifted image of the
//! `i32` recurrence and committed tiles are bit-identical to the scalar
//! kernel. Rail-valued partial-`F` lanes are below the window and can only
//! *lose* a `max` against checked values, so they never leak into a
//! committed result: every lane's final `F` is a real chain value and is
//! min-tracked.
//!
//! Unreachable (`NEG_INF`) gap states on the borders are *tightened*
//! before conversion: `F ← max(F, H - (G_first - G_ext))` yields the same
//! `max(F - G_ext, H - G_first)` on the first computed row for every
//! `F` at or below that bound, so the all-`NEG_INF` `F` row produced by
//! [`crate::kernel::local_borders`]/[`crate::kernel::global_borders`] does
//! not force a fallback. Unreachable *`H`* borders (reverse-origin gap
//! seeds) cannot be tightened — those tiles take the scalar path.
//!
//! The kernel covers the leading `height - height % N` rows over the full
//! tile width; the dispatcher finishes the remaining bottom sliver (at
//! most `N - 1` rows) with the scalar kernel, stitched through the updated
//! horizontal bus exactly like a vertically split tile pair.

use crate::kernel::{CellHE, CellHF};
use sw_core::full::better_endpoint;
use sw_core::scoring::{Score, Scoring, NEG_INF};

/// Lanes of the `i16` rung: two 128-bit vectors on baseline x86-64, one
/// 256-bit vector with AVX2. Also the smallest tile side any striped rung
/// accepts.
pub const LANES: usize = 16;

/// Lanes of the `i8` rung: the same register width as [`LANES`] `i16`
/// lanes, holding twice the rows.
pub const LANES8: usize = 32;

/// Largest scoring-parameter magnitude the `i16` rung accepts. One
/// recurrence step moves a value by at most `2 * P_MAX`, which sizes the
/// saturation margin of the window.
pub const P_MAX: Score = 1024;

/// Largest scoring-parameter magnitude the `i8` rung accepts. The paper's
/// DNA scoring (`1 / -3 / 5 / 2`) fits; BLOSUM-scale protein matrices do
/// not and start the ladder at `i16`.
pub const P8_MAX: Score = 8;

/// Rows per band: bounds the striped working set (four state arrays plus
/// the profile) to the L1/L2 cache while columns stream across the band.
/// Must be a multiple of every rung's lane count.
///
/// Unit-test builds shrink this (and [`JCHUNK`]) so small tiles cross
/// several band/chunk boundaries; the production values are exercised by
/// the deterministic boundary tests in `tests/properties.rs`.
#[cfg(not(test))]
pub(crate) const BAND: usize = 1024;
#[cfg(test)]
pub(crate) const BAND: usize = 32;

/// Column-chunk width for the `i16`-indexed local-best/watch trackers;
/// trackers are reduced and reset per chunk so a column index always
/// fits an `i16`. Test builds shrink it — see [`BAND`].
#[cfg(not(test))]
pub(crate) const JCHUNK: usize = 32_000;
#[cfg(test)]
pub(crate) const JCHUNK: usize = 64;

/// Element type of one rung's lane arrays: the few operations the kernel
/// applies to a rebased DP value, each of which LLVM lowers to one packed
/// instruction per vector.
pub(crate) trait Lane: Copy + Ord {
    /// Lower saturation rail; doubles as the unreachable-lane sentinel,
    /// which sits below the window and loses every `max`.
    const MIN: Self;
    /// Upper saturation rail.
    const MAX: Self;
    /// Largest scoring-parameter magnitude this rung accepts.
    const P_MAX: Score;
    /// Saturating add.
    fn sat_add(self, o: Self) -> Self;
    /// Saturating subtract.
    fn sat_sub(self, o: Self) -> Self;
    /// Exact widening to `i32`.
    fn wide(self) -> i32;
    /// Truncating narrowing; callers check the value is in the window.
    fn narrow(v: i64) -> Self;
    /// This width's profile rows of a cache entry.
    fn profile(e: &mut CacheEntry) -> &mut Profile<Self>;
}

macro_rules! lane {
    ($t:ty, $p:expr, $field:ident) => {
        impl Lane for $t {
            const MIN: Self = <$t>::MIN;
            const MAX: Self = <$t>::MAX;
            const P_MAX: Score = $p;
            #[inline(always)]
            fn sat_add(self, o: Self) -> Self {
                self.saturating_add(o)
            }
            #[inline(always)]
            fn sat_sub(self, o: Self) -> Self {
                self.saturating_sub(o)
            }
            #[inline(always)]
            fn wide(self) -> i32 {
                self as i32
            }
            #[inline(always)]
            fn narrow(v: i64) -> Self {
                v as $t
            }
            fn profile(e: &mut CacheEntry) -> &mut Profile<Self> {
                &mut e.$field
            }
        }
    };
}
lane!(i8, P8_MAX, p8);
lane!(i16, P_MAX, p16);

/// The rung's safe window `[T::MIN + 4·P, T::MAX - 4·P]`: no intermediate
/// of a chain rooted at an in-window value can reach a saturation rail.
fn window<T: Lane>() -> (i64, i64) {
    ((T::MIN.wide() + 4 * T::P_MAX) as i64, (T::MAX.wide() - 4 * T::P_MAX) as i64)
}

/// Can the `T × N` rung attempt this tile shape and scoring?
///
/// The dispatcher in [`crate::kernel`] consults this per rung; the `i8`
/// rung's check is a strict subset of the `i16` rung's (narrower
/// parameter bound, more rows per vector), which is what makes escalation
/// after an `i8` overflow always possible. `gap_first >= gap_ext` is
/// required for the lazy-F early exit to be exact (see the module docs).
pub(crate) fn eligible<T: Lane, const N: usize>(
    height: usize,
    width: usize,
    scoring: &Scoring,
) -> bool {
    let fits = |v: Score| (-T::P_MAX..=T::P_MAX).contains(&v);
    height >= N
        && width >= N
        && fits(scoring.match_score)
        && fits(scoring.mismatch_score)
        && fits(scoring.gap_first)
        && fits(scoring.gap_ext)
        && scoring.gap_first >= scoring.gap_ext
}

/// Result of the striped portion of a tile: the first `rows` rows
/// (`rows` is the largest lane multiple ≤ the tile height) over the full
/// width. The dispatcher finishes the bottom sliver on the scalar kernel.
pub(crate) struct StripedColumns {
    /// Rows computed and committed to the buses.
    pub rows: usize,
    /// Best cell of the striped rows (local mode), absolute coords.
    pub best: Option<(Score, usize, usize)>,
    /// First watched-score hit (scan order) in the striped rows.
    pub watch_hit: Option<(usize, usize)>,
    /// `H` at `(rows - 1, width - 1)` — the corner for a block below-right
    /// when the tile has no scalar sliver.
    pub corner_out: Score,
    /// The *original* left-border `H` at row `rows - 1`: the corner the
    /// scalar sliver starting at row `rows` must be seeded with.
    pub rem_corner: Score,
}

#[inline(always)]
fn lane_shift<T: Lane, const N: usize>(v: [T; N], insert: T) -> [T; N] {
    let mut out = [insert; N];
    out[1..].copy_from_slice(&v[..N - 1]);
    out
}

/// The cross-chunk lazy-F carry: what flows into lane `l`, row 0 from
/// lane `l - 1`'s last row, given that row's stored `F` and partial `H`.
/// Lane 0 receives nothing (rail).
#[inline(always)]
fn lane_carry<T: Lane, const N: usize>(fl: [T; N], hl: [T; N], ge: T, gf: T) -> [T; N] {
    let fl_sh = lane_shift(fl, T::MIN);
    let hl_sh = lane_shift(hl, T::MIN);
    let mut carry = [T::MIN; N];
    for l in 0..N {
        let hf = hl_sh[l].max(fl_sh[l]);
        carry[l] = fl_sh[l].sat_sub(ge).max(hf.sat_sub(gf));
    }
    carry
}

/// Striped state of one band, allocated by [`compute_columns`] and lent
/// to the allocation-free column streamer [`band_columns`]. The trackers
/// (`bh`/`bj` local best, `wj` first watch hit; empty unless the mode
/// uses them) carry column indices in `i16` at either width: a
/// [`JCHUNK`] index exceeds `i8`, and they are bookkeeping, not DP state.
struct Band<T, const N: usize> {
    hload: Vec<[T; N]>,
    hstore: Vec<[T; N]>,
    ecur: Vec<[T; N]>,
    fcur: Vec<[T; N]>,
    bh: Vec<[T; N]>,
    bj: Vec<[i16; N]>,
    wj: Vec<[i16; N]>,
}

/// Scalar context for one band: everything the column streamer needs
/// beyond the striped state and the bus rows.
struct Ctx<T> {
    seg: usize,
    base: usize,
    row_offset: usize,
    col_offset: usize,
    bias: Score,
    ge: T,
    gf: T,
    zero: T,
    watch: T,
    band_corner: T,
}

// hot-loop
//
// Stream every column of one band through the three striped sweeps (see
// the module docs). Allocation-free and wallclock-free — enforced by the
// `hot-loop` analysis rule — so the body is straight-line index
// arithmetic over [T; N] arrays.
//
// Indexed `for s in 0..seg` / `for l in 0..N` loops over plain slices are
// the shape LLVM reliably turns into packed ops here; the iterator forms
// clippy prefers have been observed to scalarize the lane loops (cmov
// chains instead of pmaxsw), so keep the index style. The state vectors
// are re-sliced to `seg` once per column, so every sweep indexes slices
// of one known length, and the overflow trackers live in locals rather
// than behind a reference, so they can stay in registers.
#[allow(clippy::needless_range_loop)]
#[allow(clippy::too_many_arguments)]
fn band_columns<T: Lane, const N: usize, const LOCAL: bool, const WATCH: bool>(
    st: &mut Band<T, N>,
    cx: &Ctx<T>,
    slot: &[u16; 256],
    prof: &[[T; N]],
    b_tile: &[u8],
    th: &mut [T],
    tf: &mut [T],
    mn_out: &mut [T; N],
    mx_out: &mut [T; N],
    best: &mut Option<(Score, usize, usize)>,
    watch_hit: &mut Option<(usize, usize)>,
) {
    let width = b_tile.len();
    let seg = cx.seg;
    let (ge, gf, zero, watch) = (cx.ge, cx.gf, cx.zero, cx.watch);
    let (mut mn, mut mx) = (*mn_out, *mx_out);
    let jchunk = if LOCAL || WATCH { JCHUNK } else { width };
    // Lane-0 diagonal seed: the *pre-update* top-border H of the previous
    // column. Must be carried across chunk boundaries — by the time a
    // chunk ends, `th` already holds this band's bottom row, so it cannot
    // be re-read from the bus.
    let mut prev_top = cx.band_corner;
    let mut cbase = 0usize;
    while cbase < width {
        let clen = (width - cbase).min(jchunk);
        if LOCAL {
            st.bh.iter_mut().for_each(|v| *v = [zero; N]);
            st.bj.iter_mut().for_each(|v| *v = [-1; N]);
        }
        if WATCH {
            st.wj.iter_mut().for_each(|v| *v = [-1; N]);
        }
        for jc in 0..clen {
            let j = cbase + jc;
            let k = slot[b_tile[j] as usize] as usize;
            let pr = &prof[k * seg..(k + 1) * seg];
            let hload = &st.hload[..seg];
            let hstore = &mut st.hstore[..seg];
            let ecur = &mut st.ecur[..seg];
            let fcur = &mut st.fcur[..seg];
            let cur_top = th[j];
            // Band-top F seed for lane 0 (row `base`); the window plus its
            // margin keeps this saturating form exact.
            let f0 = tf[j].sat_sub(ge).max(th[j].sat_sub(gf));

            // Pass 1: H with lane-chunk-partial F; store the partial F
            // *used* at each segment position.
            let mut v_f = [T::MIN; N];
            v_f[0] = f0;
            let mut v_diag = lane_shift(hload[seg - 1], prev_top);
            for s in 0..seg {
                let p = pr[s];
                let e = ecur[s];
                let mut h = [T::MIN; N];
                for l in 0..N {
                    let mut x = v_diag[l].sat_add(p[l]).max(e[l]).max(v_f[l]);
                    if LOCAL {
                        x = x.max(zero);
                    }
                    h[l] = x;
                }
                v_diag = hload[s];
                hstore[s] = h;
                fcur[s] = v_f;
                let mut f = [T::MIN; N];
                for l in 0..N {
                    f[l] = v_f[l].sat_sub(ge).max(h[l].sat_sub(gf));
                }
                v_f = f;
            }

            // Pass 2: lazy-F across lane-chunk boundaries. The first sweep
            // always runs in full — pass 1 leaves rail lanes in every
            // stored F vector and the carry beats a rail — so it is
            // unconditional.
            let mut carry = lane_carry(fcur[seg - 1], hstore[seg - 1], ge, gf);
            for s in 0..seg {
                let f = fcur[s];
                let mut nf = [T::MIN; N];
                for l in 0..N {
                    nf[l] = f[l].max(carry[l]);
                }
                fcur[s] = nf;
                for l in 0..N {
                    carry[l] = nf[l].sat_sub(ge);
                }
            }
            // Fixpoint tail for F chains crossing several chunk
            // boundaries. One vector comparison decides convergence: the
            // partial-F invariant F[s+1] >= F[s] - ge survives every
            // sweep, so a carry that cannot improve row 0 cannot improve
            // any later row either.
            loop {
                let carry0 = lane_carry(fcur[seg - 1], hstore[seg - 1], ge, gf);
                let f0 = fcur[0];
                let mut any = 0u16;
                for l in 0..N {
                    any |= (carry0[l] > f0[l]) as u16;
                }
                if any == 0 {
                    break;
                }
                let mut carry = carry0;
                for s in 0..seg {
                    let f = fcur[s];
                    let mut improves = 0u16;
                    for l in 0..N {
                        improves |= (carry[l] > f[l]) as u16;
                    }
                    if improves == 0 {
                        break;
                    }
                    let mut nf = [T::MIN; N];
                    for l in 0..N {
                        nf[l] = f[l].max(carry[l]);
                    }
                    fcur[s] = nf;
                    for l in 0..N {
                        carry[l] = nf[l].sat_sub(ge);
                    }
                }
            }

            // Pass 3: finalize H, next-column E, trackers.
            let jc16 = jc as i16;
            let last_col = j + 1 == width;
            for s in 0..seg {
                let f = fcur[s];
                let hp = hstore[s];
                let mut h = [T::MIN; N];
                for l in 0..N {
                    h[l] = hp[l].max(f[l]);
                }
                hstore[s] = h;
                if !last_col {
                    let e = ecur[s];
                    let mut en = [T::MIN; N];
                    for l in 0..N {
                        en[l] = e[l].sat_sub(ge).max(h[l].sat_sub(gf));
                    }
                    ecur[s] = en;
                    for l in 0..N {
                        mn[l] = mn[l].min(en[l].min(f[l]));
                        mx[l] = mx[l].max(h[l]);
                    }
                } else {
                    for l in 0..N {
                        mn[l] = mn[l].min(f[l]);
                        mx[l] = mx[l].max(h[l]);
                    }
                }
                if LOCAL {
                    let (bh, bj) = (&mut st.bh[s], &mut st.bj[s]);
                    for l in 0..N {
                        let better = h[l] > bh[l];
                        bh[l] = if better { h[l] } else { bh[l] };
                        bj[l] = if better { jc16 } else { bj[l] };
                    }
                }
                if WATCH {
                    let wj = &mut st.wj[s];
                    for l in 0..N {
                        let hit = h[l] == watch && wj[l] < 0;
                        wj[l] = if hit { jc16 } else { wj[l] };
                    }
                }
            }
            th[j] = hstore[seg - 1][N - 1];
            tf[j] = fcur[seg - 1][N - 1];
            prev_top = cur_top;
            std::mem::swap(&mut st.hload, &mut st.hstore);
        }

        // Per-chunk reductions. `bj` keeps each row's *first* column
        // achieving its chunk maximum; better_endpoint is a total order,
        // so folding row candidates in any order matches the scalar scan.
        if LOCAL {
            for s in 0..seg {
                for l in 0..N {
                    if st.bh[s][l] > zero {
                        let cand = (
                            cx.bias + st.bh[s][l].wide(),
                            cx.row_offset + cx.base + l * seg + s,
                            cx.col_offset + cbase + st.bj[s][l] as usize,
                        );
                        if best.is_none_or(|b| better_endpoint(cand, b)) {
                            *best = Some(cand);
                        }
                    }
                }
            }
        }
        if WATCH {
            for s in 0..seg {
                for l in 0..N {
                    if st.wj[s][l] >= 0 {
                        let cand = (
                            cx.row_offset + cx.base + l * seg + s,
                            cx.col_offset + cbase + st.wj[s][l] as usize,
                        );
                        if watch_hit.is_none_or(|cur| cand < cur) {
                            *watch_hit = Some(cand);
                        }
                    }
                }
            }
        }
        cbase += clen;
    }
    *mn_out = mn;
    *mx_out = mx;
}

/// Run the `T × N` striped kernel over the leading `height - height % N`
/// rows.
///
/// On success the affected bus segments are overwritten exactly as the
/// scalar kernel would have (bit-identical), and the remaining sliver is
/// the caller's job. On window overflow returns `None` with `top`/`left`
/// untouched, so the caller can escalate to the next rung on pristine
/// borders.
#[allow(clippy::too_many_arguments)]
// mirror of the compute_tile signature
#[allow(clippy::needless_range_loop)]
// indexed loops vectorize; see band_columns
pub(crate) fn compute_columns<T: Lane, const N: usize, const LOCAL: bool, const WATCH: bool>(
    a_tile: &[u8],
    b_tile: &[u8],
    row_offset: usize,
    col_offset: usize,
    scoring: &Scoring,
    watch: Option<Score>,
    corner: Score,
    top: &mut [CellHF],
    left: &mut [CellHE],
    cache: &mut ProfileCache,
) -> Option<StripedColumns> {
    let height = a_tile.len();
    let width = b_tile.len();
    let rows = height - height % N;
    debug_assert!(rows >= N && width >= N);
    debug_assert!(top.len() >= width && left.len() == height);
    let (win_lo, win_hi) = window::<T>();

    // Rebase everything to the largest finite border H: upward drift within
    // a tile is bounded by min(height, width) * match, downward drift by the
    // gap run across the tile, and both must stay inside the window.
    let mut bias = Score::MIN;
    for v in std::iter::once(corner)
        .chain(top[..width].iter().map(|c| c.h))
        .chain(left[..rows].iter().map(|c| c.h))
    {
        if v > NEG_INF / 2 {
            bias = bias.max(v);
        }
    }
    if bias == Score::MIN || bias.unsigned_abs() > (i32::MAX / 2) as u32 {
        return None;
    }
    let bias64 = bias as i64;
    // Local mode clamps H at absolute zero, which sits at `-bias` in
    // rebased space; once the borders carry scores past the window, 0 and
    // the border values no longer fit one narrow range together — genuine
    // narrow-score overflow, handled by the next rung.
    let zero_rel = -bias64;
    if LOCAL && !(win_lo..=win_hi).contains(&zero_rel) {
        return None;
    }
    let zero = T::narrow(if LOCAL { zero_rel } else { 0 });
    let (gf, ge) = (scoring.gap_first, scoring.gap_ext);

    let rel_h = |v: Score| -> Option<T> {
        let r = v as i64 - bias64;
        (win_lo..=win_hi).contains(&r).then(|| T::narrow(r))
    };
    // Gap-state borders may be unreachable; raise them to the highest value
    // that still produces the same `max(G - ge, H - gf)` on the first
    // computed cell. The raised value sits within 2*P of its (checked) H,
    // so it is representable; values above the window are real overflow.
    // The first computed cell derives `tight - ge` from this border (the
    // tightening makes it dominate `H - gf` there) and that value is
    // min-tracked, so a border whose derived gap state already starts
    // below the window would be guaranteed to fail the final overflow
    // check — reject it up front instead of computing the whole striped
    // tile and discarding it.
    let rel_gap = |g: Score, h: T| -> Option<T> {
        let tight = (g as i64 - bias64).max(h.wide() as i64 - (gf - ge) as i64);
        (tight <= win_hi && tight - ge as i64 >= win_lo).then(|| T::narrow(tight))
    };

    let mut th = vec![T::MIN; width];
    let mut tf = vec![T::MIN; width];
    for j in 0..width {
        th[j] = rel_h(top[j].h)?;
        tf[j] = rel_gap(top[j].f, th[j])?;
    }
    let mut lh = vec![T::MIN; rows];
    let mut le = vec![T::MIN; rows];
    for i in 0..rows {
        lh[i] = rel_h(left[i].h)?;
        le[i] = rel_gap(left[i].e, lh[i])?;
    }
    let corner_rel = rel_h(corner)?;
    let rem_corner = left[rows - 1].h;

    // A watched score outside the window can never equal an in-window H;
    // T::MIN is below the window, so it cannot match in a committed tile
    // either (sub-window values force an overflow return).
    let watch = watch.and_then(rel_h).unwrap_or(T::MIN);

    let mut mn = [T::MAX; N];
    let mut mx = [T::MIN; N];
    let mut best: Option<(Score, usize, usize)> = None;
    let mut watch_hit: Option<(usize, usize)> = None;

    let mut band_corner = corner_rel;
    let mut base = 0usize;
    while base < rows {
        let band_h = (rows - base).min(BAND);
        let seg = band_h / N;
        let a_band = &a_tile[base..base + band_h];

        // Striped query profile, from the engine-owned cache:
        // prof[k*seg + s][l] = subst(a_band[l*seg + s], c) for slot[c] == k.
        let (slot, prof) = cache.profile::<T, N>(a_band, b_tile, scoring);

        // Band state, striped from the vertical-bus scratch. E is
        // pre-advanced one column (E at column 0 is a real cell value, so
        // it is min-tracked here); H loads are the previous column's H.
        let mut st = Band {
            hload: vec![[T::MIN; N]; seg],
            hstore: vec![[T::MIN; N]; seg],
            ecur: vec![[T::MIN; N]; seg],
            fcur: vec![[T::MIN; N]; seg],
            bh: vec![[zero; N]; if LOCAL { seg } else { 0 }],
            bj: vec![[-1; N]; if LOCAL { seg } else { 0 }],
            wj: vec![[-1; N]; if WATCH { seg } else { 0 }],
        };
        for s in 0..seg {
            for l in 0..N {
                let r = base + l * seg + s;
                st.hload[s][l] = lh[r];
                let e0 = T::narrow((le[r].wide() - ge).max(lh[r].wide() - gf) as i64);
                st.ecur[s][l] = e0;
                mn[l] = mn[l].min(e0);
            }
        }

        let cx = Ctx {
            seg,
            base,
            row_offset,
            col_offset,
            bias,
            ge: T::narrow(ge as i64),
            gf: T::narrow(gf as i64),
            zero,
            watch,
            band_corner,
        };
        band_columns::<T, N, LOCAL, WATCH>(
            &mut st,
            &cx,
            slot,
            prof,
            b_tile,
            &mut th,
            &mut tf,
            &mut mn,
            &mut mx,
            &mut best,
            &mut watch_hit,
        );

        // The next band's lane-0 diagonal seed is this band's original
        // left-border H at its last row — capture before de-striping.
        let next_corner = lh[base + band_h - 1];
        for s in 0..seg {
            for l in 0..N {
                let r = base + l * seg + s;
                lh[r] = st.hload[s][l];
                le[r] = st.ecur[s][l];
            }
        }
        band_corner = next_corner;
        base += band_h;
    }

    // Overflow check: any stored value outside the window means some
    // saturating op may have clipped — discard, the dispatcher escalates.
    // (H >= E and H >= F at every cell, so the max only needs H and the
    // min only needs E/F.)
    let lo_seen = mn.iter().copied().min().map_or(i64::MAX, |v| v.wide() as i64);
    let hi_seen = mx.iter().copied().max().map_or(i64::MIN, |v| v.wide() as i64);
    if lo_seen < win_lo || hi_seen > win_hi {
        return None;
    }

    // Commit: rebase back to i32 and overwrite the buses exactly as the
    // scalar kernel would have.
    for j in 0..width {
        top[j] = CellHF { h: bias + th[j].wide(), f: bias + tf[j].wide() };
    }
    for i in 0..rows {
        left[i] = CellHE { h: bias + lh[i].wide(), e: bias + le[i].wide() };
    }

    Some(StripedColumns { rows, best, watch_hit, corner_out: top[width - 1].h, rem_corner })
}

/// Entries the profile cache keeps before evicting least-recently-used
/// bands. Tile schedules touch at most a handful of distinct query bands
/// before returning to one (a strip runner sweeps one band row-major), so
/// a small cap bounds memory while still catching every reuse pattern we
/// schedule.
const CACHE_CAP: usize = 8;

/// One width's striped profile rows for a cached band, materialized
/// lazily per database symbol: `slot[c]` is symbol `c`'s block index `k`
/// (`u16::MAX` = not yet built), and block `k` is the `seg * N` values
/// `rows[k*seg*N..(k+1)*seg*N]`, read back as `[T; N]` vectors.
pub(crate) struct Profile<T> {
    slot: [u16; 256],
    rows: Vec<T>,
}

impl<T> Profile<T> {
    fn new() -> Self {
        Profile { slot: [u16::MAX; 256], rows: Vec::new() }
    }
}

/// One cached query band: the owned `(scoring, band)` pair is the key
/// (compared fieldwise/bytewise, so the entry is self-validating and
/// needs no invalidation protocol), plus the profile rows of each width.
pub(crate) struct CacheEntry {
    scoring: Scoring,
    band: Vec<u8>,
    p16: Profile<i16>,
    p8: Profile<i8>,
}

/// Query-profile cache, keyed by the band's query bytes and the scoring.
///
/// Both rungs spend `O(distinct_syms * band_rows)` per band rebuilding the
/// striped substitution profile before streaming columns. Tiles of the
/// same band row (strip runners walk row-major; stage-2/3 re-runs revisit
/// stage-1 bands) share identical query bands, so the engine owns one of
/// these caches and threads it through
/// [`crate::kernel::compute_tile_cached`]: a hit skips the rebuild and
/// reuses the resident rows. Entries hold both widths' rows, each
/// materialized lazily per database symbol on first use, so an i8→i16
/// escalation of the same tile pays the band lookup once per width, not a
/// rebuild of what the other width already derived.
///
/// A lookup is a **hit** when the `(scoring, band)` entry already exists
/// (even if this call materializes rows for new database symbols) and a
/// **miss** when the entry had to be created. [`Scoring`] is part of the
/// key — scores are baked into the rows, so entries built under different
/// scorings are distinct, and interleaved tenants with different scorings
/// coexist instead of ping-ponging the cache to 100 % misses.
#[derive(Default)]
pub struct ProfileCache {
    entries: Vec<CacheEntry>,
    hits: u64,
    misses: u64,
}

impl ProfileCache {
    /// An empty cache. Cheap: nothing is allocated until the first lookup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Band lookups that found a resident entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Band lookups that had to build a fresh entry.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Find-or-create the entry for `band`, leaving it at index 0
    /// (move-to-front LRU), and count the lookup.
    fn touch(&mut self, band: &[u8], scoring: &Scoring) {
        if let Some(i) = self.entries.iter().position(|e| e.scoring == *scoring && e.band == band) {
            self.hits += 1;
            if i != 0 {
                let e = self.entries.remove(i);
                self.entries.insert(0, e);
            }
        } else {
            self.misses += 1;
            let e = CacheEntry {
                scoring: *scoring,
                band: band.to_vec(),
                p16: Profile::new(),
                p8: Profile::new(),
            };
            self.entries.insert(0, e);
            self.entries.truncate(CACHE_CAP);
        }
    }

    /// The `T × N` striped profile for `band`: returns `(slot, rows)` with
    /// `rows[slot[c]*seg + s][l] == subst(band[l*seg + s], c)` for every
    /// symbol `c` occurring in `b_tile`, where `seg = band.len() / N`.
    pub(crate) fn profile<T: Lane, const N: usize>(
        &mut self,
        band: &[u8],
        b_tile: &[u8],
        scoring: &Scoring,
    ) -> (&[u16; 256], &[[T; N]]) {
        debug_assert!(!band.is_empty() && band.len().is_multiple_of(N));
        self.touch(band, scoring);
        let seg = band.len() / N;
        let p = T::profile(&mut self.entries[0]);
        for &c in b_tile {
            if p.slot[c as usize] == u16::MAX {
                let start = p.rows.len();
                p.slot[c as usize] = (start / (seg * N)) as u16;
                p.rows.resize(start + seg * N, T::MIN);
                for (s, v) in p.rows[start..].as_chunks_mut::<N>().0.iter_mut().enumerate() {
                    for (l, x) in v.iter_mut().enumerate() {
                        *x = T::narrow(scoring.subst(band[l * seg + s], c) as i64);
                    }
                }
            }
        }
        let p = &*p;
        (&p.slot, p.rows.as_chunks::<N>().0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_scorings_share_the_cache_without_thrash() {
        // Two tenants with different scorings alternate lookups of the
        // same band: after each tenant's first (miss) lookup, every
        // subsequent lookup must hit, and each must get rows built from
        // its *own* scoring (no cross-tenant contamination).
        let sc_a = Scoring::paper();
        let sc_b = Scoring { match_score: sc_a.match_score + 1, ..sc_a };
        let band: Vec<u8> = (0..LANES).map(|i| b"ACGT"[i % 4]).collect();
        let b_tile = b"ACGT";
        let mut cache = ProfileCache::new();
        for _round in 0..4 {
            for sc in [&sc_a, &sc_b] {
                let seg = band.len() / LANES;
                let (slot, rows) = cache.profile::<i16, LANES>(&band, b_tile, sc);
                for &c in b_tile.iter() {
                    let k = slot[c as usize] as usize;
                    for s in 0..seg {
                        for (l, &x) in rows[k * seg + s].iter().enumerate() {
                            assert_eq!(x, sc.subst(band[l * seg + s], c) as i16);
                        }
                    }
                }
            }
        }
        assert_eq!(cache.misses(), 2, "one build per (scoring, band)");
        assert_eq!(cache.hits(), 6, "every interleaved revisit must hit");
    }

    fn eligibility_gates<T: Lane, const N: usize>() {
        let sc = Scoring::paper();
        assert!(eligible::<T, N>(N, N, &sc));
        assert!(!eligible::<T, N>(N - 1, N, &sc));
        assert!(!eligible::<T, N>(N, N - 1, &sc));
        // A parameter past the rung's bound starts the ladder higher up.
        let wide = Scoring { match_score: T::P_MAX + 1, ..sc };
        assert!(!eligible::<T, N>(N, N, &wide));
        // Lazy-F exactness needs gap_first >= gap_ext.
        let inverted = Scoring { gap_first: 1, gap_ext: 3, ..sc };
        assert!(!eligible::<T, N>(N, N, &inverted));
    }

    #[test]
    fn eligibility_gates_shape_and_scoring() {
        eligibility_gates::<i16, LANES>();
    }

    #[test]
    fn eligibility8_gates_shape_and_scoring() {
        // The paper scoring fits i8; a wider parameter starts at i16.
        eligibility_gates::<i8, LANES8>();
    }

    #[test]
    fn eligible8_is_subset_of_eligible16() {
        // The ladder's escalation step relies on this: any tile the i8
        // rung attempted can be retried on the i16 rung.
        let sc = Scoring::paper();
        let wide = Scoring { match_score: P8_MAX + 1, ..sc };
        for sc in [sc, wide] {
            for (h, w) in [(LANES8, LANES8), (100, 200), (32, 5000), (LANES, LANES)] {
                if eligible::<i8, LANES8>(h, w, &sc) {
                    assert!(eligible::<i16, LANES>(h, w, &sc));
                }
            }
        }
    }
}
