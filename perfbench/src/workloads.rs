//! Workload inputs, generated from `seqio::DatasetRegistry` and a seed.
//! The program under test receives only the sequences.

use cudalign_bench::runs::Workload;
use seqio::DatasetRegistry;

/// One of the two single-pair alignment workloads.
#[derive(Debug, Clone, Copy)]
pub struct AlignSpec {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Table II registry key.
    pub key: &'static str,
    /// Registry scale (real lengths divided by this).
    pub scale: usize,
    /// Pipeline workers for the timed runs.
    pub workers: usize,
}

/// The paper's flagship regime: chimpanzee chr22 × human chr21 (a
/// homologous core plus an unrelated flank), on 2 workers. The core's
/// scores leave the i8 and i16 windows, so the ladder escalates, Stages
/// 2-4 do real work, and the strip scheduler runs on 2 lanes.
pub const HOMOLOG: AlignSpec =
    AlignSpec { name: "homolog-w2", key: "32799Kx46944K", scale: 940, workers: 2 };

/// The bypass case: Agrobacterium × Rhizobium (unrelated) on 2 workers.
/// Every tile commits on the i8 rung and Stages 2-5 are negligible, so a
/// ladder change should not move it. (On 1 worker, which would run the
/// serial engine, single-thread runs on a 2-CPU VM spread ~30% from one
/// process to the next, too much for the benchmark's bounds.)
pub const UNRELATED: AlignSpec =
    AlignSpec { name: "unrelated-w2", key: "543Kx536K", scale: 12, workers: 2 };

/// Bases of the longer sequence of an align workload's warm-up pair.
pub const WARMUP_LEN: usize = 8192;

/// Seed of every warm-up pair: fixed, so that set-up does the same work
/// in every run whatever `--seed` is.
const WARMUP_SEED: u64 = 0x05ee_d0ff;

fn registry_pair(key: &str) -> seqio::datasets::PairSpec {
    DatasetRegistry::paper().get(key).expect("registry key of a built-in workload").clone()
}

impl AlignSpec {
    /// The workload's pair for `seed`.
    pub fn pair(&self, seed: u64) -> Workload {
        Workload::new(&registry_pair(self.key), self.scale, seed)
    }

    /// The set-up's warm-up pair: a small instance of the same registry
    /// pair, its longer side [`WARMUP_LEN`] bases, the same for every seed.
    pub fn warmup_pair(&self) -> Workload {
        let spec = registry_pair(self.key);
        Workload::new(&spec, spec.real_sizes.0.max(spec.real_sizes.1) / WARMUP_LEN, WARMUP_SEED)
    }
}

/// Registry pairs the serve traffic mixes: strain, unrelated, island and
/// chromosome classes.
pub const SERVE_CLASSES: [&str; 4] = ["5227Kx5229K", "543Kx536K", "1044Kx1073K", "32799Kx46944K"];

/// Shortest and longest serve-job sequence, in bases.
pub const SERVE_LEN: (usize, usize) = (2000, 6000);

/// One serve request's sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pair {
    /// Query.
    pub s0: Vec<u8>,
    /// Database.
    pub s1: Vec<u8>,
}

/// The `index`-th distinct serve pair for `seed`. Class and length
/// follow a fixed schedule that does not depend on the seed, so every
/// seed offers the same amount of work; only the bases change.
pub fn serve_pair(seed: u64, index: usize) -> Pair {
    let span = SERVE_LEN.1 - SERVE_LEN.0 + 1;
    let len = SERVE_LEN.0 + (index * 1237) % span;
    class_pair(index % 4, len, seed.wrapping_mul(1_000_003).wrapping_add(index as u64))
}

/// The serve set-up's warm-up job: a 5.7 Kbp chromosome-class pair, the
/// same for every seed.
pub fn serve_warmup_pair() -> Pair {
    class_pair(3, 5711, WARMUP_SEED)
}

/// A pair of class `class` ([`SERVE_CLASSES`]) whose longer side has
/// about `len` bases.
fn class_pair(class: usize, len: usize, seed: u64) -> Pair {
    let spec = registry_pair(SERVE_CLASSES[class]);
    let scale = (spec.real_sizes.0.max(spec.real_sizes.1) / len).max(1);
    let (s0, s1) = spec.materialize(scale, seed);
    Pair { s0: s0.into_bases(), s1: s1.into_bases() }
}

/// The open-loop phase's request stream.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    /// The pair each request carries.
    pub pairs: Vec<Pair>,
    /// For each request, the index of the first request that carried the
    /// same pair (itself when the pair is new).
    pub origin: Vec<usize>,
}

impl OpenLoop {
    /// Distinct pairs drawn.
    pub fn distinct(&self) -> usize {
        self.origin.iter().enumerate().filter(|&(k, &o)| k == o).count()
    }
}

/// `count` requests where every fourth one, from the eighth on, repeats
/// the request sent seven before it: recent enough to still sit in the
/// result cache.
pub fn open_loop_pairs(seed: u64, count: usize) -> OpenLoop {
    let mut pairs: Vec<Pair> = Vec::with_capacity(count);
    let mut origin = Vec::with_capacity(count);
    let mut fresh = 0;
    for k in 0..count {
        if k % 4 == 3 && k >= 7 {
            pairs.push(pairs[k - 7].clone());
            origin.push(origin[k - 7]);
        } else {
            pairs.push(serve_pair(seed, fresh));
            origin.push(k);
            fresh += 1;
        }
    }
    OpenLoop { pairs, origin }
}
