//! Seeded request sequences for the serve workloads.
//!
//! The plan is a pure function of the seed. Hits cycle through a fixed hot
//! set (smaller than the daemon's memo capacity) in seeded order; misses
//! are distinct filtered queries drawn from a key space far larger than
//! the memo, so none repeats within a run. Both classes are stratified —
//! every block covers each hot target, or each endpoint × year-range width
//! class, once — so the latency mix, and with it every median, does not
//! depend on which seed was drawn.

use std::collections::VecDeque;

/// SplitMix64: a tiny, well-mixed generator, enough for input sampling.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and `stream` (distinct streams of one seed
    /// are independent).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Request class: answered from the memo / pre-rendered exports, or
/// computed from rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Served without a recompute.
    Hit,
    /// Recomputed from the row store (reduce + render).
    Miss,
}

/// One planned request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Its class.
    pub class: Class,
    /// Latency stratum: the hit target, or the miss endpoint shape.
    pub stratum: String,
    /// Path and canonical query, e.g. `/data/2?year=2010-2014&vendor=amd`.
    pub target: String,
    /// The same filter with its parameters in another order: the same rows
    /// under a different memo key (used to time a shard's row scan
    /// without hitting its memo).
    pub reordered: Option<String>,
}

/// The hot set: the targets the repository's `serve_replay` bench replays
/// (every unfiltered endpoint plus five filters; its daemon-local `/stats`
/// is left out because its bytes change with every request).
pub fn hot_set() -> Vec<String> {
    let mut hot: Vec<String> = (1..=6)
        .flat_map(|n| [format!("/figures/{n}"), format!("/data/{n}")])
        .collect();
    hot.extend(
        [
            "/data/2?vendor=amd",
            "/data/3?vendor=intel",
            "/data/5?year=2015",
            "/figures/2?vendor=amd",
            "/figures/3?year=2015&vendor=intel",
        ]
        .map(String::from),
    );
    hot
}

/// First and last hardware-availability year in the corpus.
pub const YEARS: (i32, i32) = (2007, 2023);

/// Widest "narrow" miss year range, in years past its first. Misses come
/// in two width classes of their own strata: narrow ranges (at most six
/// years) and wide ones (seven years up to the whole corpus). A range's
/// width sets how many rows its miss reduces, so giving each class its own
/// strata keeps the miss statistics from hanging on how many corpus-wide
/// ranges a seed happens to draw, without leaving wide ranges out.
pub const NARROW_MAX_WIDTH: i32 = 5;

const VENDOR_LISTS: [Option<&str>; 8] = [
    None,
    Some("intel"),
    Some("amd"),
    Some("other"),
    Some("intel,amd"),
    Some("intel,other"),
    Some("amd,other"),
    Some("intel,amd,other"),
];

/// The 16 filterable endpoint shapes: six figures, six CSVs, and the four
/// CSVs that accept `agg=year`.
fn endpoints() -> Vec<(String, bool)> {
    let mut out: Vec<(String, bool)> = (1..=6)
        .flat_map(|n| {
            [
                (format!("/figures/{n}"), false),
                (format!("/data/{n}"), false),
            ]
        })
        .collect();
    out.extend([2, 3, 5, 6].map(|n| (format!("/data/{n}"), true)));
    out
}

/// One miss key: endpoint, inclusive year range, vendor list.
fn miss_request(endpoint: &(String, bool), years: (i32, i32), vendors: Option<&str>) -> Request {
    let width = if years.1 - years.0 <= NARROW_MAX_WIDTH {
        "narrow"
    } else {
        "wide"
    };
    let year = format!("year={}-{}", years.0, years.1);
    let vendor = vendors.map(|v| format!("vendor={v}"));
    let agg = endpoint.1.then(|| "agg=year".to_string());
    let canonical: Vec<&str> = [Some(year.as_str()), vendor.as_deref(), agg.as_deref()]
        .into_iter()
        .flatten()
        .collect();
    // A lone year filter gains the no-op `agg=none` so the reordering is a
    // different string.
    let mut reordered: Vec<&str> = canonical.clone();
    if reordered.len() == 1 {
        reordered.push("agg=none");
    }
    reordered.reverse();
    Request {
        class: Class::Miss,
        stratum: format!(
            "{}{} {width}",
            endpoint.0,
            if endpoint.1 { "?agg=year" } else { "" }
        ),
        target: format!("{}?{}", endpoint.0, canonical.join("&")),
        reordered: Some(format!("{}?{}", endpoint.0, reordered.join("&"))),
    }
}

/// Every distinct miss, grouped by stratum (endpoint × width class), each
/// group in seeded order. A key that names a hot target is left out: it
/// would be a hit.
fn miss_groups(rng: &mut Rng) -> Vec<VecDeque<Request>> {
    let (lo, hi) = YEARS;
    let hot = hot_set();
    let mut groups = Vec::new();
    for endpoint in &endpoints() {
        for wide in [false, true] {
            let mut keys: Vec<Request> = (lo..=hi)
                .flat_map(|a| (a..=hi).map(move |b| (a, b)))
                .filter(|(a, b)| (b - a > NARROW_MAX_WIDTH) == wide)
                .flat_map(|years| VENDOR_LISTS.iter().map(move |v| (years, *v)))
                .map(|(years, vendors)| miss_request(endpoint, years, vendors))
                .filter(|r| !hot.contains(&r.target))
                .collect();
            rng.shuffle(&mut keys);
            groups.push(keys.into());
        }
    }
    groups
}

/// The request sequence: `pattern` repeats (e.g. `[Hit, Hit, Hit, Miss]`)
/// for at most `len` requests, stopping early if the distinct miss keys
/// run out.
pub fn requests(seed: u64, pattern: &[Class], len: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed, 0x5e7e);
    let hot = hot_set();
    let mut groups = miss_groups(&mut rng);
    let mut hit_block: Vec<usize> = Vec::new();
    let mut miss_block: Vec<usize> = Vec::new();
    let mut out = Vec::with_capacity(len);
    for class in pattern.iter().cycle().take(len) {
        match class {
            Class::Hit => {
                if hit_block.is_empty() {
                    hit_block = (0..hot.len()).collect();
                    rng.shuffle(&mut hit_block);
                }
                let i = hit_block.pop().expect("refilled above");
                out.push(Request {
                    class: Class::Hit,
                    stratum: hot[i].clone(),
                    target: hot[i].clone(),
                    reordered: None,
                });
            }
            Class::Miss => {
                if miss_block.is_empty() {
                    miss_block = (0..groups.len()).collect();
                    rng.shuffle(&mut miss_block);
                }
                let g = miss_block.pop().expect("refilled above");
                match groups[g].pop_front() {
                    Some(request) => out.push(request),
                    None => break,
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const MIX: [Class; 4] = [Class::Hit, Class::Hit, Class::Hit, Class::Miss];

    #[test]
    fn same_seed_same_sequence_other_seed_differs() {
        let a = requests(7, &MIX, 4000);
        assert_eq!(a, requests(7, &MIX, 4000));
        assert_ne!(a, requests(8, &MIX, 4000));
    }

    #[test]
    fn misses_never_repeat_and_never_touch_the_hot_set() {
        let plan = requests(3, &[Class::Miss], 20_000);
        let hot: BTreeSet<String> = hot_set().into_iter().collect();
        let mut seen = BTreeSet::new();
        for r in &plan {
            assert!(seen.insert(r.target.clone()), "repeated miss {}", r.target);
            assert!(!hot.contains(&r.target));
        }
        // The plan stops when its first stratum runs out: 16 endpoints ×
        // 2 width classes, each stratum at least 66 wide ranges (seven
        // years up to 2007–2023) × 8 vendor lists.
        assert!(plan.len() >= 32 * 66 * 8, "{} misses", plan.len());
        let widths: BTreeSet<i32> = plan
            .iter()
            .map(|r| {
                let (a, b) = r.target.split_once("year=").expect("year").1[..9]
                    .split_once('-')
                    .expect("range");
                b.parse::<i32>().expect("year") - a.parse::<i32>().expect("year")
            })
            .collect();
        assert_eq!(widths, (0..=YEARS.1 - YEARS.0).collect(), "every width, up to the whole corpus");
    }

    #[test]
    fn classes_follow_the_pattern_and_endpoints_are_stratified() {
        let plan = requests(11, &MIX, 128 * 4);
        for (i, r) in plan.iter().enumerate() {
            assert_eq!(r.class, MIX[i % 4]);
        }
        let misses: Vec<&Request> = plan.iter().filter(|r| r.class == Class::Miss).collect();
        for block in misses.chunks_exact(32) {
            let strata: BTreeSet<&str> = block.iter().map(|r| r.stratum.as_str()).collect();
            assert_eq!(strata.len(), 32, "each block covers every endpoint and width");
        }
        let hits: Vec<&Request> = plan.iter().filter(|r| r.class == Class::Hit).collect();
        for block in hits.chunks_exact(hot_set().len()) {
            let distinct: BTreeSet<&str> = block.iter().map(|r| r.target.as_str()).collect();
            assert_eq!(
                distinct.len(),
                hot_set().len(),
                "each block covers the hot set"
            );
        }
    }

    #[test]
    fn reordered_query_names_the_same_filter() {
        let r = &requests(5, &[Class::Miss], 40)[..];
        for req in r {
            let reordered = req.reordered.as_ref().expect("misses carry a reordering");
            let params = |t: &str| -> BTreeSet<String> {
                t.split_once('?')
                    .expect("query")
                    .1
                    .split('&')
                    .filter(|p| *p != "agg=none")
                    .map(String::from)
                    .collect()
            };
            assert_ne!(&req.target, reordered);
            assert_eq!(params(&req.target), params(reordered));
        }
    }
}
