//! The correctness gate every benchmarked alignment passes through.

use cudalign::{BinaryAlignment, PipelineResult};
use sw_core::{Score, Scoring};

/// The part of a result that must repeat exactly across runs and worker
/// counts: score and both endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// Best local score.
    pub score: Score,
    /// Alignment start (0-based, inclusive).
    pub start: (usize, usize),
    /// Alignment end (1-based DP coordinates).
    pub end: (usize, usize),
}

impl Signature {
    /// The signature of a pipeline result.
    pub fn of(res: &PipelineResult) -> Self {
        Signature { score: res.best_score, start: res.start, end: res.end }
    }
}

/// Check one pipeline result for `s0` × `s1` against the full-matrix
/// reference `(score, end)` of `sw_core::full::sw_local_score`: the score
/// and end point must match, the transcript must be valid over the
/// aligned substrings and re-score to `best_score`, and the binary form
/// must survive an encode/decode round trip and expand back to the same
/// transcript.
pub fn check(
    s0: &[u8],
    s1: &[u8],
    scoring: &Scoring,
    res: &PipelineResult,
    reference: (Score, (usize, usize)),
) -> Result<(), String> {
    let (ref_score, ref_end) = reference;
    if res.best_score != ref_score {
        return Err(format!("score {} != reference {ref_score}", res.best_score));
    }
    if res.best_score == 0 {
        return if res.transcript.is_empty() {
            Ok(())
        } else {
            Err("transcript for score 0".into())
        };
    }
    if res.end != ref_end {
        return Err(format!("end {:?} != reference {ref_end:?}", res.end));
    }
    let (start, end) = (res.start, res.end);
    if start.0 > end.0 || start.1 > end.1 || end.0 > s0.len() || end.1 > s1.len() {
        return Err(format!("endpoints {start:?}..{end:?} outside the matrix"));
    }
    let (a, b) = (&s0[start.0..end.0], &s1[start.1..end.1]);
    res.transcript.validate(a, b).map_err(|e| format!("invalid transcript: {e}"))?;
    let rescored = res.transcript.score(a, b, scoring);
    if rescored != res.best_score {
        return Err(format!("transcript re-scores to {rescored}, not {}", res.best_score));
    }
    let decoded = BinaryAlignment::decode(&res.binary.encode())
        .map_err(|e| format!("binary alignment does not decode: {e:?}"))?;
    if decoded != res.binary {
        return Err("binary alignment changed across encode/decode".into());
    }
    if decoded.to_transcript(s0, s1) != res.transcript {
        return Err("binary alignment expands to another transcript".into());
    }
    Ok(())
}
