//! Seeded input generation. Every op sequence and request stream is a
//! pure function of `--seed` (the `serve-hot` catalogue of a fixed seed),
//! built before any timing starts, so the program under test only ever
//! receives generated inputs.

use std::collections::HashSet;

/// SplitMix64: tiny, fast, and good enough to drive workload draws.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed; distinct salts give
    /// independent streams from the same `--seed`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-50 here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The three work ops every workload mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Explore,
    Pareto,
    Report,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Explore, Kind::Pareto, Kind::Report];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Explore => "explore",
            Kind::Pareto => "pareto",
            Kind::Report => "report",
        }
    }
}

/// The 60/20/20 explore/pareto/report mix as five slots.
pub const KIND_SLOTS: [Kind; 5] = [
    Kind::Explore,
    Kind::Explore,
    Kind::Explore,
    Kind::Pareto,
    Kind::Report,
];

/// Builtins whose every access group takes the symbolic path.
pub const CONFORMING_BUILTINS: [&str; 7] = [
    "fir",
    "me",
    "me-small",
    "conv2d",
    "matmul",
    "sobel",
    "downsample",
];

/// The SUSAN kernels of `explore-guarded` and the number of
/// [`KIND_SLOTS`] groups each fills in a 100-op block (5% / 25% / 70%).
pub const GUARDED_MIX: [(&str, usize); 3] =
    [("susan", 1), ("susan-unfolded", 5), ("susan-small", 14)];

/// The 43 kernels of `explore-conforming` and of the `serve-hot`
/// catalogue's builtin part: the conforming builtins, then the corpus.
pub fn conforming_kernels() -> Vec<String> {
    CONFORMING_BUILTINS
        .iter()
        .map(|k| k.to_string())
        .chain(datareuse_kernels::corpus().iter().map(|e| e.name.clone()))
        .collect()
}

/// An in-process op sequence: indices into a table of
/// `kernels.len() × 3` ops (index `kernel * 3 + kind`), split into
/// blocks of fixed composition so that every seed runs the same mix and
/// only the order differs.
pub struct Sequence {
    pub warmup: Vec<usize>,
    pub blocks: Vec<Vec<usize>>,
}

fn kind_index(kind: Kind) -> usize {
    Kind::ALL.iter().position(|&k| k == kind).expect("listed")
}

/// One shuffled block in which kernel `k` runs `groups[k]` times per
/// kind slot, so every block of a workload holds the same (kernel, kind)
/// counts.
fn block(rng: &mut Rng, groups: &[usize]) -> Vec<usize> {
    let mut ops: Vec<usize> = groups
        .iter()
        .enumerate()
        .flat_map(|(k, &n)| {
            std::iter::repeat_n(KIND_SLOTS, n)
                .flatten()
                .map(move |kind| k * 3 + kind_index(kind))
        })
        .collect();
    rng.shuffle(&mut ops);
    ops
}

/// `explore-conforming`: each 215-op block runs every kernel once per
/// kind slot; the warm-up is one such block.
pub fn conforming_sequence(seed: u64, kernels: usize, blocks: usize) -> Sequence {
    let mut rng = Rng::new(seed, 1);
    let groups = vec![1; kernels];
    Sequence {
        warmup: block(&mut rng, &groups),
        blocks: (0..blocks).map(|_| block(&mut rng, &groups)).collect(),
    }
}

/// `explore-guarded`: each 100-op block holds the kernel shares of
/// [`GUARDED_MIX`], each kernel with the kind shares of [`KIND_SLOTS`];
/// the warm-up is one op of each kernel and kind.
pub fn guarded_sequence(seed: u64, blocks: usize) -> Sequence {
    let mut rng = Rng::new(seed, 2);
    let mut warmup: Vec<usize> = (0..GUARDED_MIX.len() * 3).collect();
    rng.shuffle(&mut warmup);
    let groups = GUARDED_MIX.map(|(_, n)| n);
    Sequence {
        warmup,
        blocks: (0..blocks).map(|_| block(&mut rng, &groups)).collect(),
    }
}

/// What a correct answer must report for one read array, from the
/// generator's closed form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    pub array: &'static str,
    pub c_tot: u64,
    pub background_words: u64,
}

/// One served request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The NDJSON line, without the newline.
    pub line: String,
    pub kernel: String,
    pub kind: Kind,
    /// The einsum family, or [`FAMILIES`] for builtin and corpus kernels.
    pub family: usize,
    /// Closed-form expectations of a seeded einsum (empty for builtin
    /// and corpus kernels, which the golden digests cover instead).
    pub expect: Vec<Expect>,
}

impl Request {
    pub fn builtin(kernel: &str, kind: Kind) -> Self {
        Request {
            line: format!(r#"{{"op":"{}","kernel":"{kernel}"}}"#, kind.name()),
            kernel: kernel.to_string(),
            kind,
            family: FAMILIES,
            expect: Vec::new(),
        }
    }

    pub fn is_expression(&self) -> bool {
        self.kernel.contains('[')
    }
}

/// Einsum families: FIR, matmul, 2-D conv.
pub const FAMILIES: usize = 3;

/// One seeded einsum of `family` (FIR, matmul or 2-D conv) with
/// seed-drawn extents; for explore and pareto, one of its two read
/// arrays.
pub fn einsum(rng: &mut Rng, family: usize, kind: Kind) -> Request {
    let (kernel, expect) = match family {
        0 => {
            let (n, t) = (rng.range(16, 1024), rng.range(2, 64));
            (
                format!("y[n] += x[n + t] * h[t] where n={n}, t={t}"),
                vec![
                    Expect {
                        array: "x",
                        c_tot: n * t,
                        background_words: n + t - 1,
                    },
                    Expect {
                        array: "h",
                        c_tot: n * t,
                        background_words: t,
                    },
                ],
            )
        }
        1 => {
            let (i, j, k) = (rng.range(4, 64), rng.range(4, 64), rng.range(4, 64));
            (
                format!("C[i,j] += A[i,k] * B[k,j] where i={i}, j={j}, k={k}"),
                vec![
                    Expect {
                        array: "A",
                        c_tot: i * j * k,
                        background_words: i * k,
                    },
                    Expect {
                        array: "B",
                        c_tot: i * j * k,
                        background_words: k * j,
                    },
                ],
            )
        }
        _ => {
            let (y, x) = (rng.range(8, 64), rng.range(8, 64));
            let (r, s) = (rng.range(2, 7), rng.range(2, 7));
            let taps = y * x * r * s;
            (
                format!("out[y,x] += image[y+i, x+j] * coef[i,j] where y={y}, x={x}, i={r}, j={s}"),
                vec![
                    Expect {
                        array: "image",
                        c_tot: taps,
                        background_words: (y + r - 1) * (x + s - 1),
                    },
                    Expect {
                        array: "coef",
                        c_tot: taps,
                        background_words: r * s,
                    },
                ],
            )
        }
    };
    let (line, expect) = match kind {
        Kind::Report => (format!(r#"{{"op":"report","kernel":"{kernel}"}}"#), expect),
        Kind::Explore | Kind::Pareto => {
            let pick = expect[rng.below(2) as usize].clone();
            (
                format!(
                    r#"{{"op":"{}","kernel":"{kernel}","array":"{}"}}"#,
                    kind.name(),
                    pick.array
                ),
                vec![pick],
            )
        }
    };
    Request {
        line,
        kernel,
        kind,
        family,
        expect,
    }
}

/// `count` distinct seeded einsums, drawn without replacement in
/// shuffled blocks of 15 that hold each family once per kind slot, so
/// every seed gets the same family and op mix.
pub fn distinct_einsums(rng: &mut Rng, count: usize) -> Vec<Request> {
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut block: Vec<(usize, Kind)> = (0..FAMILIES)
            .flat_map(|f| KIND_SLOTS.map(|k| (f, k)))
            .collect();
        rng.shuffle(&mut block);
        for (family, kind) in block.into_iter().take(count - out.len()) {
            loop {
                let r = einsum(rng, family, kind);
                if seen.insert(r.line.clone()) {
                    out.push(r);
                    break;
                }
            }
        }
    }
    out
}

/// Zipf exponent of the `serve-hot` popularity draw.
pub const ZIPF_S: f64 = 1.2;
/// Entries in the `serve-hot` catalogue.
pub const CATALOGUE: usize = 1000;

/// The Zipf(s) CDF over ranks `0..n`; the last entry is exactly 1.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    if let Some(last) = cdf.last_mut() {
        *last = 1.0;
    }
    cdf
}

/// How many of `n` requests each rank gets under a CDF: its share
/// rounded down, plus one for the ranks with the largest remainders until
/// the counts sum to `n` (ties to the more popular rank).
pub fn apportion(cdf: &[f64], n: usize) -> Vec<usize> {
    let quotas: Vec<f64> = cdf
        .iter()
        .scan(0.0, |prev, &c| {
            let share = c - *prev;
            *prev = c;
            Some(share * n as f64)
        })
        .collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..cdf.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (quotas[b] - quotas[b].floor()).total_cmp(&(quotas[a] - quotas[a].floor()))
    });
    let short = n - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        counts[r] += 1;
    }
    counts
}

/// Seed of the `serve-hot` catalogue. It is fixed, so that every
/// `--seed` measures the same catalogue: einsum allocations differ up to
/// fivefold with their extents, and a catalogue drawn per seed moved
/// `alloc_kb_per_op` by several percent between seeds, depending on which
/// entries landed among the cached ranks.
const CATALOGUE_SEED: u64 = 0xCA7A_1095;

/// The `serve-hot` catalogue in popularity-rank order: the 129 builtin
/// and corpus (kernel, op) pairs plus seeded einsums. Each class of
/// entry (family × op kind) is spread evenly over the ranks, so every
/// popularity holds the same mix of classes.
pub fn hot_catalogue() -> Vec<Request> {
    let mut rng = Rng::new(CATALOGUE_SEED, 3);
    let builtins: Vec<Request> = conforming_kernels()
        .iter()
        .flat_map(|k| Kind::ALL.map(|kind| Request::builtin(k, kind)))
        .collect();
    let einsums = distinct_einsums(&mut rng, CATALOGUE - builtins.len());
    let mut classes: Vec<Vec<Request>> = Vec::new();
    for r in builtins.into_iter().chain(einsums) {
        match classes
            .iter_mut()
            .find(|c| c[0].family == r.family && c[0].kind == r.kind)
        {
            Some(class) => class.push(r),
            None => classes.push(vec![r]),
        }
    }
    let mut slotted: Vec<(f64, usize, Request)> = Vec::with_capacity(CATALOGUE);
    for (c, mut class) in classes.into_iter().enumerate() {
        rng.shuffle(&mut class);
        let n = class.len() as f64;
        slotted.extend(
            class
                .into_iter()
                .enumerate()
                .map(|(j, r)| ((j as f64 + 0.5) / n, c, r)),
        );
    }
    slotted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    slotted.into_iter().map(|(_, _, r)| r).collect()
}

/// Requests per `serve-hot` stream block.
pub const HOT_BLOCK: usize = 20_000;

/// `blocks` blocks of [`HOT_BLOCK`] requests over the catalogue's ranks.
/// Each block holds every rank's Zipf(s) share exactly ([`apportion`])
/// and is shuffled by the seed, so every seed sends the same mix and only
/// the order differs.
pub fn hot_stream(seed: u64, blocks: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 4);
    let counts = apportion(&zipf_cdf(CATALOGUE, ZIPF_S), HOT_BLOCK);
    let mut stream = Vec::with_capacity(blocks * HOT_BLOCK);
    for _ in 0..blocks {
        let mut block: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(rank, &n)| std::iter::repeat_n(rank, n))
            .collect();
        rng.shuffle(&mut block);
        stream.extend(block);
    }
    stream
}

/// The `serve-cold` requests: every one a distinct seeded einsum.
pub fn cold_requests(seed: u64, n: usize) -> Vec<Request> {
    distinct_einsums(&mut Rng::new(seed, 5), n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_sequence_and_two_seeds_differ() {
        let a = conforming_sequence(1, 43, 3);
        let b = conforming_sequence(1, 43, 3);
        let c = conforming_sequence(2, 43, 3);
        assert_eq!(a.warmup, b.warmup);
        assert_eq!(a.blocks, b.blocks);
        assert_ne!(a.blocks, c.blocks);
        let lines = |rs: Vec<Request>| rs.into_iter().map(|r| r.line).collect::<Vec<_>>();
        assert_eq!(lines(cold_requests(1, 50)), lines(cold_requests(1, 50)));
        assert_ne!(lines(cold_requests(1, 50)), lines(cold_requests(2, 50)));
        assert_eq!(hot_stream(7, 1), hot_stream(7, 1));
        assert_ne!(hot_stream(7, 1), hot_stream(8, 1));
        assert_eq!(guarded_sequence(3, 4).blocks, guarded_sequence(3, 4).blocks);
        assert_ne!(guarded_sequence(3, 4).blocks, guarded_sequence(4, 4).blocks);
    }

    #[test]
    fn blocks_have_a_fixed_composition() {
        let mix = |ops: &[usize]| {
            let mut counts = vec![0usize; 9];
            for &i in ops {
                counts[i] += 1;
            }
            counts
        };
        let seq = guarded_sequence(9, 5);
        for block in &seq.blocks {
            assert_eq!(block.len(), 100);
            let counts = mix(block);
            for (k, &(_, n)) in GUARDED_MIX.iter().enumerate() {
                // explore / pareto / report = 3:1:1 for every kernel.
                assert_eq!(counts[k * 3..k * 3 + 3], [3 * n, n, n]);
            }
        }
        assert_ne!(seq.blocks[0], seq.blocks[1], "the order is shuffled");
        assert_eq!(mix(&seq.warmup), vec![1; 9]);
        let conf = conforming_sequence(9, 43, 2);
        for block in &conf.blocks {
            let mut sorted = block.clone();
            sorted.sort_unstable();
            let mut warm = conf.warmup.clone();
            warm.sort_unstable();
            assert_eq!(sorted, warm);
        }
    }

    #[test]
    fn the_zipf_cdf_is_monotone_and_ends_at_one() {
        let cdf = zipf_cdf(CATALOGUE, ZIPF_S);
        assert_eq!(cdf.len(), CATALOGUE);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*cdf.last().unwrap(), 1.0);
        assert!(cdf[0] > 0.1, "rank 1 carries the largest share");
    }

    #[test]
    fn every_hot_block_holds_each_ranks_zipf_share() {
        let counts = apportion(&zipf_cdf(CATALOGUE, ZIPF_S), HOT_BLOCK);
        assert_eq!(counts.iter().sum::<usize>(), HOT_BLOCK);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        assert!(counts[CATALOGUE - 1] >= 1, "every entry is requested");
        let stream = hot_stream(3, 2);
        for block in stream.chunks(HOT_BLOCK) {
            let mut got = vec![0; CATALOGUE];
            for &rank in block {
                got[rank] += 1;
            }
            assert_eq!(got, counts);
        }
        assert_ne!(
            stream[..HOT_BLOCK],
            stream[HOT_BLOCK..],
            "the order is shuffled"
        );
        // Three equal shares.
        let thirds = [1.0 / 3.0, 2.0 / 3.0, 1.0];
        assert_eq!(apportion(&thirds, 3), [1, 1, 1]);
        assert_eq!(apportion(&thirds, 4).iter().sum::<usize>(), 4);
    }

    #[test]
    fn the_catalogue_holds_every_builtin_pair_once_and_distinct_einsums() {
        let catalogue = hot_catalogue();
        assert_eq!(catalogue.len(), CATALOGUE);
        let distinct: HashSet<&str> = catalogue.iter().map(|r| r.line.as_str()).collect();
        assert_eq!(distinct.len(), CATALOGUE);
        assert_eq!(catalogue.iter().filter(|r| !r.is_expression()).count(), 129);
    }

    #[test]
    fn closed_forms_match_the_enumerated_trace() {
        let mut rng = Rng::new(17, 0);
        for r in distinct_einsums(&mut rng, 30) {
            let program = datareuse_kernels::load_kernel(&r.kernel).unwrap();
            for e in &r.expect {
                let reads = datareuse_loopir::trace_len(
                    &program,
                    e.array,
                    datareuse_loopir::TraceFilter::READS,
                );
                assert_eq!(reads, e.c_tot, "{}", r.kernel);
                assert_eq!(program.array(e.array).unwrap().len(), e.background_words);
            }
        }
    }
}
