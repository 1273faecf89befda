//! Input generation. The datasets and the warm pool are fixed (the
//! workloads draw them from a constant seed); the `--seed` argument draws
//! the measured requests and their replay order. The same seed always gives
//! the same inputs.

use std::collections::HashSet;

/// SplitMix64. Kept local so the seed → input mapping never changes with
/// the repository's own random-number code.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Which tenant a request goes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Space {
    /// Real-valued features, served under ℓ2 and ℓ1.
    Continuous,
    /// 0/1 features, served under Hamming distance.
    Binary,
}

/// The two explanation tenants of `explain_mix` and `warm_session`.
pub const CONT: &str = "cont";
pub const BIN: &str = "bin";
pub const CONT_DIM: usize = 8;
pub const BIN_DIM: usize = 16;

/// One Table-1 cell of a request mix and its share of requests.
pub struct Cell {
    pub space: Space,
    pub cmd: &'static str,
    pub metric: &'static str,
    pub k: u32,
    pub weight: u32,
}

const fn cell(space: Space, cmd: &'static str, metric: &'static str, k: u32, weight: u32) -> Cell {
    Cell { space, cmd, metric, k, weight }
}

use Space::{Binary as B, Continuous as C};

/// `explain_mix`: the cells that are tractable at this size, with the
/// NP-hard tails under the effort budget. Left out: ℓ2 counterfactual,
/// check-SR and minimal-SR at k = 3 (single queries here ran for seconds
/// to tens of seconds) and ℓ2 minimum-SR (100–430 ms per query with a
/// standard deviation as large as its mean, so a run's mean cost hung on a
/// handful of draws); ℓ1 with k ≥ 3 is refused by Table 1 except for the
/// counterfactual heuristic. The weights place every reported quantile
/// inside a mode rather than on the edge between two: the sub-0.1 ms cells
/// take ~36% of requests and ℓ2 counterfactuals the next ~18%, so the
/// median falls inside the ℓ2 counterfactual mode; the three 45–160 ms
/// cells take ~4.5% each, so the 90th and 99th percentiles both fall
/// inside their joint mode.
pub const MIX: &[Cell] = &[
    cell(C, "classify", "l2", 1, 6),
    cell(C, "classify", "l2", 3, 4),
    cell(C, "classify", "l1", 1, 5),
    cell(C, "classify", "l1", 3, 3),
    cell(C, "check-sr", "l1", 1, 4),
    cell(C, "minimal-sr", "l1", 1, 4),
    cell(B, "classify", "hamming", 1, 4),
    cell(B, "classify", "hamming", 3, 4),
    cell(B, "check-sr", "hamming", 1, 4),
    cell(C, "counterfactual", "l2", 1, 20),
    cell(C, "check-sr", "l2", 1, 6),
    cell(B, "minimal-sr", "hamming", 1, 4),
    cell(C, "minimum-sr", "l1", 1, 4),
    cell(B, "check-sr", "hamming", 3, 4),
    cell(B, "counterfactual", "hamming", 1, 4),
    cell(C, "minimal-sr", "l2", 1, 4),
    cell(B, "minimum-sr", "hamming", 1, 3),
    cell(B, "minimal-sr", "hamming", 3, 3),
    cell(B, "counterfactual", "hamming", 3, 3),
    cell(C, "counterfactual", "l1", 1, 5),
    cell(C, "counterfactual", "l1", 3, 5),
    cell(B, "minimum-sr", "hamming", 3, 5),
];

/// The warm pool of `warm_session`: all five query kinds
/// on both tenants, restricted to cells that are cheap to compute once,
/// because set-up computes the whole pool cold.
pub const POOL: &[Cell] = &[
    cell(C, "classify", "l2", 1, 3),
    cell(C, "classify", "l1", 3, 3),
    cell(C, "check-sr", "l2", 1, 3),
    cell(C, "check-sr", "l1", 1, 2),
    cell(C, "minimal-sr", "l1", 1, 2),
    cell(C, "minimum-sr", "l1", 1, 1),
    cell(C, "counterfactual", "l2", 1, 3),
    cell(B, "classify", "hamming", 3, 3),
    cell(B, "check-sr", "hamming", 1, 2),
    cell(B, "minimal-sr", "hamming", 1, 2),
    cell(B, "minimum-sr", "hamming", 1, 1),
    cell(B, "counterfactual", "hamming", 1, 2),
];

/// A continuous dataset in the `+/-` text format: `n` points uniform in
/// `[0,1)^dim` at three decimals, labelled by a noisy half-space so that
/// both classes interleave near the boundary.
pub fn continuous_text(rng: &mut Rng, n: usize, dim: usize) -> String {
    let mut out = String::with_capacity(n * (dim * 6 + 2));
    for _ in 0..n {
        let p: Vec<f64> = (0..dim).map(|_| grid(rng)).collect();
        let s: f64 = p.iter().take(4).sum::<f64>() + 0.3 * (rng.unit() - 0.5);
        out.push(if s > 2.0 { '+' } else { '-' });
        for v in &p {
            out.push(' ');
            out.push_str(&v.to_string());
        }
        out.push('\n');
    }
    out
}

/// A binary dataset: uniform bits, labelled by a noisy majority of the
/// first six features.
pub fn binary_text(rng: &mut Rng, n: usize, dim: usize) -> String {
    let mut out = String::with_capacity(n * (dim * 2 + 2));
    for _ in 0..n {
        let bits: Vec<u8> = (0..dim).map(|_| (rng.unit() < 0.5) as u8).collect();
        let s = bits.iter().take(6).map(|&b| b as u32).sum::<u32>() + (rng.unit() < 0.2) as u32;
        out.push(if s > 3 { '+' } else { '-' });
        for b in &bits {
            out.push(' ');
            out.push(if *b == 1 { '1' } else { '0' });
        }
        out.push('\n');
    }
    out
}

/// A value on the three-decimal grid in `[0, 1)`.
fn grid(rng: &mut Rng) -> f64 {
    (rng.unit() * 1000.0).floor() / 1000.0
}

/// A random query point of `space`, rendered as JSON array members.
pub fn point(rng: &mut Rng, space: Space) -> String {
    let (dim, binary) = match space {
        Space::Continuous => (CONT_DIM, false),
        Space::Binary => (BIN_DIM, true),
    };
    let vals: Vec<String> = (0..dim)
        .map(
            |_| if binary { ((rng.unit() < 0.5) as u8).to_string() } else { grid(rng).to_string() },
        )
        .collect();
    vals.join(",")
}

/// One request line for `tenant`. The `dataset` member routes it on the
/// server; the engine ignores it, so the same line feeds the oracle.
pub fn query_line(
    tenant: &str,
    id: &str,
    cmd: &str,
    metric: &str,
    k: u32,
    point: &str,
    features: Option<&[usize]>,
) -> String {
    let features = features
        .map(|f| {
            let f: Vec<String> = f.iter().map(|i| i.to_string()).collect();
            format!(",\"features\":[{}]", f.join(","))
        })
        .unwrap_or_default();
    format!(
        r#"{{"dataset":"{tenant}","id":"{id}","cmd":"{cmd}","metric":"{metric}","k":{k},"point":[{point}]{features}}}"#
    )
}

/// A generated request: its tenant and its line.
#[derive(Clone)]
pub struct Req {
    pub space: Space,
    pub line: String,
}

/// A random request of cell `c` and its payload (the line without its id).
fn request(rng: &mut Rng, c: &Cell, id: &str) -> (String, Req) {
    let p = point(rng, c.space);
    let features = (c.cmd == "check-sr").then(|| {
        let dim = if c.space == Space::Binary { BIN_DIM } else { CONT_DIM };
        let mut f: Vec<usize> = (0..dim).filter(|_| rng.unit() < 0.5).collect();
        if f.is_empty() {
            f.push(rng.below(dim));
        }
        f
    });
    let payload = format!("{}|{}|{}|{p}|{features:?}", c.cmd, c.metric, c.k);
    let tenant = if c.space == Space::Binary { BIN } else { CONT };
    let line = query_line(tenant, id, c.cmd, c.metric, c.k, &p, features.as_deref());
    (payload, Req { space: c.space, line })
}

/// An endless stream of **distinct** requests over `cells`. Cells follow
/// a fixed smooth weighted round-robin schedule, so every run of the same
/// length sends the same mix; the seed draws the points and feature sets.
/// Distinctness is by payload (the engine's cache key ignores the id), so
/// no request of the stream can be a cache hit.
pub struct Stream {
    rng: Rng,
    cells: &'static [Cell],
    schedule: Vec<usize>,
    prefix: &'static str,
    seen: HashSet<String>,
    issued: usize,
}

/// Requests in one period of a mix's cell schedule: every cell appears
/// exactly `weight` times in any `period` consecutive requests of a stream.
pub const fn period(cells: &[Cell]) -> usize {
    let (mut n, mut i) = (0, 0);
    while i < cells.len() {
        n += cells[i].weight as usize;
        i += 1;
    }
    n
}

/// Smooth weighted round-robin: each cell appears `weight` times per
/// period, spread as evenly as the weights allow.
fn schedule(cells: &[Cell]) -> Vec<usize> {
    let total: i64 = cells.iter().map(|c| c.weight as i64).sum();
    let mut current = vec![0i64; cells.len()];
    (0..total)
        .map(|_| {
            for (cur, c) in current.iter_mut().zip(cells) {
                *cur += c.weight as i64;
            }
            let pick =
                (0..cells.len()).max_by_key(|&i| (current[i], usize::MAX - i)).expect("cells");
            current[pick] -= total;
            pick
        })
        .collect()
}

impl Stream {
    pub fn new(rng: Rng, cells: &'static [Cell], prefix: &'static str) -> Stream {
        Stream { rng, cells, schedule: schedule(cells), prefix, seen: HashSet::new(), issued: 0 }
    }

    pub fn next_req(&mut self) -> Req {
        let c = &self.cells[self.schedule[self.issued % self.schedule.len()]];
        let id = format!("{}{}", self.prefix, self.issued);
        loop {
            let (payload, req) = request(&mut self.rng, c, &id);
            if self.seen.insert(payload) {
                self.issued += 1;
                return req;
            }
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<Req> {
        (0..n).map(|_| self.next_req()).collect()
    }
}

/// One request per cell, drawn from `rng`: running them builds every
/// artifact the cells use (per-class KD trees, the ℓ2 region enumerator,
/// the Hamming index) and runs each route once, without caching any
/// request of a measured stream.
pub fn warmers(rng: &mut Rng, cells: &[Cell]) -> Vec<Req> {
    cells.iter().enumerate().map(|(i, c)| request(rng, c, &format!("w{i}")).1).collect()
}
