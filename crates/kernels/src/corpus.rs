//! The generated workload corpus: dozens of named expression-derived
//! kernels covering the matmul / conv1d / conv2d / attention-score /
//! LU-update / stencil families at several sizes.
//!
//! Every entry is an einsum-style source string lowered through
//! `datareuse-exprlang`, which is the point: the corpus exercises the
//! expression front end on realistic shapes, and anything that explores
//! a builtin kernel can sweep the corpus unchanged (ROADMAP item 5).
//!
//! Generation is *seeded and deterministic*: the same seed always
//! produces the same names, sizes, and expressions (pinned by the
//! property tests), so corpus names are stable registry keys. Each
//! family leads with one fixed flagship instance — `gen-matmul-32x32x32`,
//! `gen-conv2d-32x32x3`, `gen-stencil2d-32x32`, … — that tests can
//! reference by name, followed by seed-drawn size variants.

use std::sync::OnceLock;

use datareuse_exprlang::parse_expression;
use datareuse_loopir::Program;

/// The seed behind the registered corpus (any other seed is available
/// through [`generate_corpus`] for ablations).
pub const DEFAULT_CORPUS_SEED: u64 = 0x2002_DA7A;

/// One generated workload: a registry name, the einsum source it lowers
/// from, and a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Registry name (`gen-<family>-<sizes>`).
    pub name: String,
    /// The einsum source string (valid `datareuse-exprlang` input).
    pub expr: String,
    /// One-line description for listings.
    pub description: String,
}

/// SplitMix64 — the same tiny deterministic generator the in-repo
/// proptest harness uses, inlined so the corpus depends only on the
/// seed, not on harness internals.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A deterministic shuffle (Fisher–Yates) used to draw size combos
    /// without replacement.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// How many seed-drawn variants each family contributes on top of its
/// flagship instance.
const VARIANTS_PER_FAMILY: usize = 5;

fn matmul(n: i64, m: i64, p: i64) -> CorpusEntry {
    CorpusEntry {
        name: format!("gen-matmul-{n}x{m}x{p}"),
        expr: format!("C[i,j] += A[i,k] * B[k,j] ~ i j k where i={n}, j={p}, k={m}"),
        description: format!("{n}x{m} by {m}x{p} matrix multiply"),
    }
}

fn conv1d(outputs: i64, taps: i64) -> CorpusEntry {
    CorpusEntry {
        name: format!("gen-conv1d-{outputs}x{taps}"),
        // The anti-diagonal FIR orientation of the paper's warm-up
        // example: x[n - t + (taps-1)] slides one sample per output.
        expr: format!(
            "y[n] += x[n - t + {}] * h[t] where n={outputs}, t={taps}",
            taps - 1
        ),
        description: format!("{taps}-tap FIR over {outputs} outputs"),
    }
}

fn conv2d(size: i64, taps: i64) -> CorpusEntry {
    CorpusEntry {
        name: format!("gen-conv2d-{size}x{size}x{taps}"),
        expr: format!(
            "out[y,x] += image[y+i, x+j] * coef[i,j] \
             where y={size}, x={size}, i={taps}, j={taps}, image:8"
        ),
        description: format!("{taps}x{taps} convolution over a {size}x{size} image"),
    }
}

fn attention(seq: i64, dim: i64) -> CorpusEntry {
    CorpusEntry {
        name: format!("gen-attn-{seq}x{dim}"),
        expr: format!("S[q,k] += Q[q,d] * K[k,d] ~ q k d where q={seq}, k={seq}, d={dim}"),
        description: format!("attention scores, sequence {seq}, head dim {dim}"),
    }
}

fn lu_update(n: i64, rank: i64) -> CorpusEntry {
    CorpusEntry {
        name: format!("gen-lu-{n}x{rank}"),
        // The trailing-submatrix update of blocked LU: A -= L·U over the
        // remaining n×n block with a rank-`rank` panel.
        expr: format!("T[i,j] += L[i,k] * U[k,j] ~ k i j where i={n}, j={n}, k={rank}"),
        description: format!("LU trailing update, {n}x{n} block, rank {rank} panel"),
    }
}

fn stencil2d(size: i64) -> CorpusEntry {
    CorpusEntry {
        name: format!("gen-stencil2d-{size}x{size}"),
        // Unweighted 3x3 box stencil: a single-term sum, the smallest
        // member of the shifted-index family.
        expr: format!("out[y,x] += img[y+i, x+j] where y={size}, x={size}, i=3, j=3, img:8"),
        description: format!("3x3 box stencil over a {size}x{size} image"),
    }
}

/// Generates the corpus for a seed: six families, one fixed flagship
/// entry per family plus `VARIANTS_PER_FAMILY` seed-drawn size
/// variants, every entry guaranteed to lower (see the tests).
///
/// # Examples
///
/// ```
/// use datareuse_kernels::{generate_corpus, DEFAULT_CORPUS_SEED};
///
/// let corpus = generate_corpus(DEFAULT_CORPUS_SEED);
/// assert_eq!(corpus, generate_corpus(DEFAULT_CORPUS_SEED));
/// assert!(corpus.len() >= 36);
/// assert!(corpus.iter().any(|e| e.name == "gen-matmul-32x32x32"));
/// ```
pub fn generate_corpus(seed: u64) -> Vec<CorpusEntry> {
    let mut rng = SplitMix64(seed);
    let mut out = Vec::new();
    // Each family: flagship first, then variants drawn without
    // replacement from the family's size pool (flagship excluded).
    let mut family = |flagship: CorpusEntry, pool: &mut Vec<CorpusEntry>| {
        pool.retain(|e| e.name != flagship.name);
        rng.shuffle(pool);
        out.push(flagship);
        out.extend(pool.drain(..).take(VARIANTS_PER_FAMILY));
    };

    let mut pool: Vec<CorpusEntry> = Vec::new();
    for n in [8i64, 12, 16, 24, 32, 48] {
        for m in [8i64, 16, 32] {
            pool.push(matmul(n, m, n));
        }
    }
    family(matmul(32, 32, 32), &mut pool);

    let mut pool: Vec<CorpusEntry> = Vec::new();
    for outputs in [128i64, 256, 512] {
        for taps in [8i64, 16, 32] {
            pool.push(conv1d(outputs, taps));
        }
    }
    family(conv1d(256, 16), &mut pool);

    let mut pool: Vec<CorpusEntry> = Vec::new();
    for size in [16i64, 24, 32, 48] {
        for taps in [3i64, 5] {
            pool.push(conv2d(size, taps));
        }
    }
    family(conv2d(32, 3), &mut pool);

    let mut pool: Vec<CorpusEntry> = Vec::new();
    for seq in [16i64, 32, 64] {
        for dim in [16i64, 32, 64] {
            pool.push(attention(seq, dim));
        }
    }
    family(attention(32, 32), &mut pool);

    let mut pool: Vec<CorpusEntry> = Vec::new();
    for n in [8i64, 16, 24, 32] {
        for rank in [4i64, 8, 16] {
            pool.push(lu_update(n, rank));
        }
    }
    family(lu_update(16, 8), &mut pool);

    let mut pool: Vec<CorpusEntry> = Vec::new();
    for size in [12i64, 16, 24, 32, 48, 64] {
        pool.push(stencil2d(size));
    }
    family(stencil2d(32), &mut pool);

    out
}

/// The registered corpus ([`DEFAULT_CORPUS_SEED`]), generated once.
pub fn corpus() -> &'static [CorpusEntry] {
    static CORPUS: OnceLock<Vec<CorpusEntry>> = OnceLock::new();
    CORPUS.get_or_init(|| generate_corpus(DEFAULT_CORPUS_SEED))
}

/// Resolves a corpus name to its lowered program; `None` when the name
/// is not in the registered corpus.
///
/// # Panics
///
/// Never for registered entries: the tests prove every generated
/// expression lowers.
pub fn corpus_kernel(name: &str) -> Option<Program> {
    let entry = corpus().iter().find(|e| e.name == name)?;
    Some(
        parse_expression(&entry.expr)
            .unwrap_or_else(|e| panic!("corpus entry `{}` does not lower: {e}", entry.name)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_seed_sensitive() {
        assert_eq!(generate_corpus(7), generate_corpus(7));
        assert_ne!(generate_corpus(7), generate_corpus(8));
        // Flagships are seed-independent.
        for seed in [1u64, 99] {
            let c = generate_corpus(seed);
            for flagship in [
                "gen-matmul-32x32x32",
                "gen-conv1d-256x16",
                "gen-conv2d-32x32x3",
                "gen-attn-32x32",
                "gen-lu-16x8",
                "gen-stencil2d-32x32",
            ] {
                assert!(c.iter().any(|e| e.name == flagship), "seed {seed}: {flagship}");
            }
        }
    }

    #[test]
    fn names_are_unique_and_every_entry_lowers() {
        let c = corpus();
        let mut names: Vec<&str> = c.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate corpus names");
        for e in c {
            let p = parse_expression(&e.expr)
                .unwrap_or_else(|err| panic!("{}: {err}\n{}", e.name, e.expr));
            assert!(!p.nests().is_empty(), "{}", e.name);
            assert!(e.name.starts_with("gen-"), "{}", e.name);
        }
    }

    #[test]
    fn corpus_lookup_resolves_flagships() {
        let p = corpus_kernel("gen-matmul-32x32x32").expect("flagship registered");
        assert_eq!(p.nests()[0].iteration_count(), 32 * 32 * 32);
        assert!(corpus_kernel("gen-nope").is_none());
    }
}
