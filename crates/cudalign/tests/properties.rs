//! End-to-end property tests: the six-stage pipeline must reproduce the
//! quadratic-space reference on arbitrary inputs, for arbitrary grid
//! shapes and SRA budgets.

use cudalign::config::SraBackend;
use cudalign::sra::LineStore;
use cudalign::{storage, Pipeline, PipelineConfig};
use gpu_sim::{CellHF, GridSpec};
use proptest::prelude::*;
use sw_core::full::sw_local_score;
use sw_core::Scoring;

fn dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), 0..max_len)
}

/// Pairs with planted structure so alignments are non-trivial.
fn related_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (dna(400), any::<u64>()).prop_map(|(a, seed)| {
        let mut b = a.clone();
        let mut x = seed | 1;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..6 {
            if b.len() < 4 {
                break;
            }
            let r = step();
            let pos = (r as usize >> 8) % b.len();
            match r % 3 {
                0 => b[pos] = b"ACGT"[(r as usize >> 40) & 3],
                1 => {
                    let del = (1 + (r >> 16) as usize % 20).min(b.len() - pos);
                    b.drain(pos..pos + del);
                }
                _ => {
                    for k in 0..(1 + (r >> 16) as usize % 12) {
                        b.insert(pos, b"ACGT"[(r as usize >> (2 * k)) & 3]);
                    }
                }
            }
        }
        (a, b)
    })
}

fn small_grids() -> impl Strategy<Value = GridSpec> {
    (1usize..6, 1usize..6, 1usize..4).prop_map(|(blocks, threads, alpha)| GridSpec {
        blocks,
        threads,
        alpha,
    })
}

fn check(a: &[u8], b: &[u8], cfg: PipelineConfig) -> Result<(), TestCaseError> {
    let res = Pipeline::new(cfg).align(a, b).unwrap();
    let (ref_score, ref_end) = sw_local_score(a, b, &Scoring::paper());
    prop_assert_eq!(res.best_score, ref_score);
    if ref_score > 0 {
        prop_assert_eq!(res.end, ref_end);
        let sub_a = &a[res.start.0..res.end.0];
        let sub_b = &b[res.start.1..res.end.1];
        res.transcript.validate(sub_a, sub_b).unwrap();
        prop_assert_eq!(res.transcript.score(sub_a, sub_b, &Scoring::paper()), ref_score);
        // The binary form reconstructs the same transcript.
        let t2 = res.binary.to_transcript(a, b);
        prop_assert_eq!(t2.ops(), res.transcript.ops());
        // The final chain telescopes.
        res.chain.validate().unwrap();
        let total: i32 = res.chain.partitions().map(|p| p.score()).sum();
        prop_assert_eq!(total, ref_score);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pipeline_equals_reference((a, b) in related_pair()) {
        check(&a, &b, PipelineConfig::for_tests())?;
    }

    #[test]
    fn pipeline_invariant_to_grid_shape((a, b) in related_pair(), g1 in small_grids(), g23 in small_grids()) {
        let mut cfg = PipelineConfig::for_tests();
        cfg.grid1 = g1;
        cfg.grid23 = g23;
        check(&a, &b, cfg)?;
    }

    #[test]
    fn pipeline_invariant_to_sra_budget((a, b) in related_pair(), rows_budget in 0u64..64, cols_budget in 0u64..64) {
        let mut cfg = PipelineConfig::for_tests();
        // Budgets in units of "rows": 0 means no special rows at all.
        cfg.sra_bytes = rows_budget * 8 * (b.len() as u64 + 1);
        cfg.sca_bytes = cols_budget * 8 * 64;
        check(&a, &b, cfg)?;
    }

    #[test]
    fn pipeline_invariant_to_stage4_flags((a, b) in related_pair(), orth in any::<bool>(), bal in any::<bool>(), max_part in 4usize..64) {
        let mut cfg = PipelineConfig::for_tests();
        cfg.orthogonal_stage4 = orth;
        cfg.balanced_split = bal;
        cfg.max_partition_size = max_part;
        check(&a, &b, cfg)?;
    }

    #[test]
    fn pipeline_on_unrelated_random(a in dna(300), b in dna(300)) {
        check(&a, &b, PipelineConfig::for_tests())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoding arbitrary bytes must never panic — it either parses or
    /// reports a structured error (failure injection for Stage 6).
    #[test]
    fn binary_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = cudalign::BinaryAlignment::decode(&bytes);
    }

    /// Corrupting an encoded alignment must not panic the decoder; when
    /// it still parses, re-encoding is stable.
    #[test]
    fn binary_decode_survives_corruption((a, b) in related_pair(), flip in any::<(usize, u8)>()) {
        prop_assume!(!a.is_empty() && !b.is_empty());
        let res = Pipeline::new(PipelineConfig::for_tests()).align(&a, &b).unwrap();
        prop_assume!(res.best_score > 0);
        let mut bytes = res.binary.encode();
        let (pos, val) = flip;
        let k = pos % bytes.len();
        bytes[k] ^= val | 1;
        if let Ok(decoded) = cudalign::BinaryAlignment::decode(&bytes) {
            let re = decoded.encode();
            let back = cudalign::BinaryAlignment::decode(&re).unwrap();
            prop_assert_eq!(back, decoded);
        }
    }
}

/// A fresh directory per proptest case; cases run concurrently inside one
/// process, so the name carries a global counter besides the pid.
fn case_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "cudalign-prop-store-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Bytes of one frame of `cells` cells in a store's log.
fn frame_len(cells: usize) -> usize {
    storage::frame_bytes(cells as u64) as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Damaging the log of a store — truncating it at any offset, flipping
    /// any bit of one frame, restamping one frame with a foreign
    /// fingerprint, rewriting one frame header's index field, or appending
    /// a frame from another job's log — makes `reopen` reject exactly the
    /// damaged frames (a torn tail counts once), never panic, never serve
    /// wrong cells; every intact line survives byte-identical.
    #[test]
    fn reopen_survives_single_file_damage(
        n_lines in 2usize..6,
        line_len in 1usize..9,
        victim in 0usize..8,
        kind in 0u8..5,
        at in any::<usize>(),
    ) {
        const FP: u64 = 0xF00D;
        let dir = case_dir();
        let backend = SraBackend::Disk(dir.clone());
        let cell = |i: usize, k: usize| CellHF { h: (i * 100 + k) as i32, f: k as i32 - 3 };
        let fb = frame_len(line_len);

        {
            let mut store: LineStore<CellHF> =
                LineStore::new(&backend, 1 << 20, "row", FP).unwrap();
            for i in 0..n_lines {
                let idx = (i + 1) * 3;
                prop_assert!(store.try_begin_line(idx, i, line_len));
                prop_assert!(store.put_segment(idx, i, (0..line_len).map(|k| cell(i, k))));
            }
            store.persist_on_drop(true);
        }

        let path = dir.join("row.log");
        let mut bytes = std::fs::read(&path).unwrap();
        prop_assert_eq!(bytes.len(), n_lines * fb, "frames laid end to end");
        let vi = victim % n_lines;
        let frame = vi * fb..(vi + 1) * fb;
        // (lines expected to survive, frames expected to be rejected)
        let (survive, rejected): (Vec<usize>, u64) = match kind {
            0 => {
                // Truncate the log to any strictly shorter length (a crash
                // mid-append): whole frames before the cut survive, a
                // partial frame at the cut is one torn tail.
                let cut = at % bytes.len();
                bytes.truncate(cut);
                ((0..cut / fb).collect(), u64::from(!cut.is_multiple_of(fb)))
            }
            1 => {
                // Flip one bit anywhere in one frame — header included.
                let pos = frame.start + at % fb;
                bytes[pos] ^= 1 << (at % 8);
                ((0..n_lines).filter(|&i| i != vi).collect(), 1)
            }
            2 => {
                // A fully valid frame from some other job, in place.
                let meta = storage::FrameMeta {
                    fingerprint: FP + 1,
                    index: ((vi + 1) * 3) as u64,
                    origin: vi as u64,
                    len: line_len as u64,
                };
                storage::seal_frame(&mut bytes[frame.clone()], &meta);
                ((0..n_lines).filter(|&i| i != vi).collect(), 1)
            }
            3 => {
                // The header names another line ((i+1)*3 + 1 never collides
                // with a real one); only the CRC can tell.
                let idx = ((vi + 1) * 3 + 1) as u64;
                bytes[frame.start + 16..frame.start + 24].copy_from_slice(&idx.to_le_bytes());
                ((0..n_lines).filter(|&i| i != vi).collect(), 1)
            }
            _ => {
                // A frame from a foreign-fingerprint log appended to ours.
                let other = case_dir();
                {
                    let mut store: LineStore<CellHF> =
                        LineStore::new(&SraBackend::Disk(other.clone()), 1 << 20, "row", FP + 1)
                            .unwrap();
                    prop_assert!(store.try_begin_line(3, 0, line_len));
                    prop_assert!(store.put_segment(3, 0, (0..line_len).map(|k| cell(7, k))));
                    store.persist_on_drop(true);
                }
                bytes.extend(std::fs::read(other.join("row.log")).unwrap());
                let _ = std::fs::remove_dir_all(&other);
                ((0..n_lines).collect(), 1)
            }
        };
        std::fs::write(&path, &bytes).unwrap();

        let reopened: LineStore<CellHF> =
            LineStore::reopen(&backend, 1 << 20, "row", FP).unwrap();
        prop_assert_eq!(reopened.stats().rejected_files, rejected);
        prop_assert_eq!(
            reopened.indices(),
            survive.iter().map(|i| (i + 1) * 3).collect::<Vec<_>>()
        );
        for &i in &survive {
            let idx = (i + 1) * 3;
            let (origin, cells) = reopened.get(idx).unwrap().unwrap();
            prop_assert_eq!(origin, i);
            prop_assert_eq!(cells.len(), line_len);
            for (k, c) in cells.iter().enumerate() {
                prop_assert_eq!(*c, cell(i, k));
            }
        }
        let files = std::fs::read_dir(&dir).unwrap().count();
        prop_assert_eq!(files, 1, "one log, rejected frames never split it");
        if kind == 0 {
            let good_end = (survive.len() * fb) as u64;
            prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), good_end, "torn tail cut");
        }
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A disk store driven by any sequence of begin/put/remove/get/clear
    /// behaves exactly like the memory backend, compaction included: every
    /// `get` matches, the log never outgrows twice the budget plus frame
    /// headers, and a reopen serves only the last write of each line.
    #[test]
    fn disk_store_matches_the_memory_model(
        ops in proptest::collection::vec((0u8..20, 0usize..10, 1usize..6, any::<u32>()), 10..80),
        budget_lines in 2u64..5,
    ) {
        const FP: u64 = 0xD15C;
        let budget = budget_lines * 5 * 8;
        let dir = case_dir();
        let backend = SraBackend::Disk(dir.clone());
        let path = dir.join("row.log");
        let mut disk: LineStore<CellHF> = LineStore::new(&backend, budget, "row", FP).unwrap();
        let mut model: LineStore<CellHF> =
            LineStore::new(&SraBackend::Memory, budget, "row", FP).unwrap();
        let mut last: std::collections::HashMap<usize, (usize, Vec<CellHF>)> = Default::default();
        let log_len = || std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let mut max_live = 0u64;
        let mut compactions = 0usize;

        let mut put = |disk: &mut LineStore<CellHF>, model: &mut LineStore<CellHF>,
                       idx: usize, len: usize, salt: u32|
         -> Result<(), TestCaseError> {
            let origin = idx % 3;
            let cells: Vec<CellHF> = (0..len)
                .map(|k| CellHF { h: (salt as i32 >> 4) + k as i32, f: -(k as i32) })
                .collect();
            let began = model.try_begin_line(idx, origin, len);
            prop_assert_eq!(disk.try_begin_line(idx, origin, len), began);
            if began {
                // Two segments, back half first.
                let cut = salt as usize % (len + 1);
                for (at, seg) in [(cut, &cells[cut..]), (0, &cells[..cut])] {
                    let done = model.put_segment(idx, origin + at, seg.iter().copied());
                    let before = log_len();
                    prop_assert_eq!(disk.put_segment(idx, origin + at, seg.iter().copied()), done);
                    if done {
                        // An append that did not grow the log compacted it.
                        compactions += usize::from(log_len() <= before);
                        last.insert(idx, (origin, cells.clone()));
                    }
                }
            }
            max_live = max_live.max(disk.len() as u64);
            let bound = 2 * budget + storage::FRAME_HEADER_BYTES as u64 * max_live;
            prop_assert!(log_len() <= bound, "log {} > bound {bound}", log_len());
            Ok(())
        };

        for &(kind, idx, len, salt) in &ops {
            match kind {
                0..=7 => put(&mut disk, &mut model, idx, len, salt)?,
                8..=12 => {
                    disk.remove(idx);
                    model.remove(idx);
                }
                13..=18 => prop_assert_eq!(disk.get(idx).unwrap(), model.get(idx).unwrap()),
                _ => {
                    disk.clear();
                    model.clear();
                    prop_assert!(!path.exists(), "clear deletes the log");
                }
            }
            prop_assert_eq!(disk.indices(), model.indices());
            prop_assert_eq!(disk.bytes_used(), model.bytes_used());
        }
        // Make room for one more line, then churn one fresh line at a time
        // until dead bytes force compaction.
        while budget - model.bytes_used() < 5 * 8 {
            let top = model.indices().pop().unwrap();
            disk.remove(top);
            model.remove(top);
        }
        for k in 0..(2 * budget_lines as usize + 4) {
            put(&mut disk, &mut model, 100 + k, 5, k as u32)?;
            disk.remove(100 + k);
            model.remove(100 + k);
        }
        prop_assert!(compactions > 0, "compaction must fire");
        for idx in model.indices() {
            prop_assert_eq!(disk.get(idx).unwrap(), model.get(idx).unwrap());
        }

        disk.persist_on_drop(true);
        drop(disk);
        let reopened: LineStore<CellHF> = LineStore::reopen(&backend, budget, "row", FP).unwrap();
        prop_assert_eq!(reopened.stats().rejected_files, 0);
        for idx in reopened.indices() {
            let got = reopened.get(idx).unwrap().unwrap();
            prop_assert_eq!(Some(&got), last.get(&idx), "line {} is its last write", idx);
        }
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
