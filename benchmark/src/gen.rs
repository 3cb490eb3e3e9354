//! Seeded input generation. Pure: the same seed gives the same call stream
//! and graph contents, and nothing here touches the program under test.
//!
//! The *set* of inputs of a workload is fixed and the seed draws their order
//! and contents. Wire bytes per call and the site/size mix are therefore the
//! same for every seed, and what differs between two seeds is noise, not a
//! different amount of work.

/// splitmix64.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// `n` ping arguments; small enough that `x + 1` never overflows.
pub fn ping_args(seed: u64, n: usize) -> Vec<i32> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| (rng.next_u64() & 0x3FFF_FFFF) as i32).collect()
}

/// The four bulk call sites, in the order `SITE_BLOCK` names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    List,
    Mat,
    Tree,
    Page,
}

pub const SITES: [Site; 4] = [Site::List, Site::Mat, Site::Tree, Site::Page];

/// Size classes of a site's graphs: 0 = nominal, 1 = 3/4, 2 = 5/4.
pub const SIZE_CLASSES: usize = 3;
/// Graphs per (site, size class) that differ only in contents.
pub const VARIANTS: usize = 2;

/// One block of the site mix: 50 % list, 10 % matrix, 20 % tree, 20 % page.
/// Pages and matrices are bulk copies and take a third of what a list or a
/// tree does; with half the calls on the list the median call is a list call
/// from the middle of its latency mode, not one from the edge between modes.
const SITE_BLOCK: [Site; 10] = {
    use Site::{List, Mat, Page, Tree};
    [List, List, List, List, List, Mat, Tree, Tree, Page, Page]
};

/// The size class a site uses on its k-th call (cyclic): runs of ten, so
/// exactly one call in ten changes the size the site's previous call had
/// (the reuse cache's size-mismatch path, paper Fig. 13) and nine repeat it.
const SIZE_PATTERN_RUN: usize = 10;
const SIZE_PATTERN: [u8; 4] = [0, 1, 0, 2];
const SIZE_PERIOD: usize = SIZE_PATTERN_RUN * SIZE_PATTERN.len();

/// Bulk stream lengths are multiples of this, so every site makes a whole
/// number of size-pattern periods whatever the seed.
pub const BULK_QUANTUM: usize = SITE_BLOCK.len() * SIZE_PERIOD;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkCall {
    pub site: Site,
    pub class: u8,
    pub variant: u8,
    /// The server folds the whole graph into the digest it returns: one call
    /// in forty, always one that changes the site's size, taking the size
    /// classes in turn. Walking a graph in the interpreter costs several
    /// times what sending it does, so the other calls have it fold only the
    /// few values `pick` selects.
    pub full: bool,
    /// Seeded draw that selects the values a call that is not `full` checks.
    pub pick: u32,
}

/// List nodes a call that is not `full` folds, from the head.
pub const LIST_PROBE: i32 = 8;

/// The bulk call stream: a seeded shuffle of a fixed multiset of sites, each
/// site walking the cyclic size pattern and drawing the content variant per
/// call. `count` is rounded up to `BULK_QUANTUM`.
pub fn bulk_stream(seed: u64, count: usize) -> Vec<BulkCall> {
    let count = count.div_ceil(BULK_QUANTUM) * BULK_QUANTUM;
    let mut rng = Rng::new(seed ^ 0xB01C);
    let mut sites: Vec<Site> = SITE_BLOCK.iter().copied().cycle().take(count).collect();
    rng.shuffle(&mut sites);
    let mut calls_made = [0usize; SITES.len()];
    sites
        .into_iter()
        .map(|site| {
            let k = calls_made[site as usize];
            calls_made[site as usize] += 1;
            let (period, at) = (k / SIZE_PERIOD, k % SIZE_PERIOD);
            let class = SIZE_PATTERN[at / SIZE_PATTERN_RUN];
            let full = at == period % SIZE_PATTERN.len() * SIZE_PATTERN_RUN;
            let variant = rng.below(VARIANTS as u64) as u8;
            BulkCall { site, class, variant, full, pick: rng.next_u64() as u32 }
        })
        .collect()
}

/// Elements (list nodes, matrix side, tree nodes, page ints) of a site's
/// graph in a size class.
pub fn graph_len(site: Site, class: u8) -> usize {
    let nominal = match site {
        Site::List | Site::Page => 256,
        Site::Mat => 32,
        Site::Tree => 255,
    };
    match class {
        0 => nominal,
        1 => nominal * 3 / 4,
        _ => nominal * 5 / 4,
    }
}

/// Contents of one graph: an int in `0..1000` per element.
pub fn graph_values(seed: u64, site: Site, class: u8, variant: u8) -> Vec<i32> {
    let len = graph_len(site, class);
    let elements = if site == Site::Mat { len * len } else { len };
    let key = (site as u64) << 16 | (class as u64) << 8 | variant as u64;
    let mut rng = Rng::new(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..elements).map(|_| rng.below(1000) as i32).collect()
}

/// The `probe` argument of a bulk call on a graph of `len` elements (matrix:
/// `len` a side), and what the `sum*` method of its site must return for the
/// graph built from `vals`. Mirrors `workloads/service.mp`.
pub fn probe_and_digest(call: &BulkCall, len: usize, vals: &[i32]) -> (i32, i64) {
    if call.full {
        let digest = match call.site {
            Site::Tree => digest_tree(vals),
            _ => digest_seq(vals),
        };
        return (-1, digest);
    }
    match call.site {
        Site::List => (LIST_PROBE, digest_seq(&vals[..LIST_PROBE as usize])),
        Site::Mat => {
            let probe = call.pick as usize % (len * len);
            let row_end = (probe / len + 1) * len;
            (probe as i32, digest_seq(&vals[probe..row_end.min(probe + 8)]))
        }
        Site::Tree => {
            let probe = call.pick as usize % len;
            (probe as i32, digest_path(vals, probe))
        }
        Site::Page => unreachable!("pages are checked by the caller"),
    }
}

/// Fold of `vals` in order.
pub fn digest_seq(vals: &[i32]) -> i64 {
    vals.iter().fold(0i64, |h, &v| h.wrapping_mul(31).wrapping_add(v as i64))
}

/// Pre-order fold of the heap-ordered tree.
pub fn digest_tree(vals: &[i32]) -> i64 {
    fn walk(vals: &[i32], k: usize, h: i64) -> i64 {
        if k >= vals.len() {
            return h;
        }
        let h = h.wrapping_mul(31).wrapping_add(vals[k] as i64);
        let h = walk(vals, 2 * k + 1, h);
        walk(vals, 2 * k + 2, h)
    }
    walk(vals, 0, 0)
}

/// Fold of the values on the path from the root to heap index `k`.
pub fn digest_path(vals: &[i32], k: usize) -> i64 {
    let mut path = vec![k];
    while let Some(&child @ 1..) = path.last() {
        path.push((child - 1) / 2);
    }
    path.iter().rev().fold(0i64, |h, &i| h.wrapping_mul(31).wrapping_add(vals[i] as i64))
}

/// Page ids for the serving workload: every page equally often, in seeded
/// order. `count` is rounded up to a multiple of `npages`.
pub fn page_stream(seed: u64, count: usize, npages: usize) -> Vec<u32> {
    let count = count.div_ceil(npages) * npages;
    let mut pages: Vec<u32> = (0..count).map(|i| (i % npages) as u32).collect();
    Rng::new(seed ^ 0x9A6E).shuffle(&mut pages);
    pages
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(bulk_stream(7, 2000), bulk_stream(7, 2000));
        assert_ne!(bulk_stream(7, 2000), bulk_stream(8, 2000));
        assert_eq!(page_stream(7, 640, 64), page_stream(7, 640, 64));
        assert_ne!(page_stream(7, 640, 64), page_stream(8, 640, 64));
        assert_eq!(ping_args(7, 100), ping_args(7, 100));
        assert_ne!(ping_args(7, 100), ping_args(8, 100));
        assert_eq!(graph_values(7, Site::List, 0, 1), graph_values(7, Site::List, 0, 1));
        assert_ne!(graph_values(7, Site::List, 0, 1), graph_values(8, Site::List, 0, 1));
        assert_ne!(graph_values(7, Site::List, 0, 0), graph_values(7, Site::List, 0, 1));
        assert_eq!(graph_values(7, Site::Mat, 1, 0).len(), 24 * 24);
    }

    #[test]
    fn bulk_mix_is_the_same_for_every_seed() {
        let census = |seed| {
            let mut n = [[0usize; SIZE_CLASSES]; SITES.len()];
            for c in bulk_stream(seed, 3 * BULK_QUANTUM) {
                n[c.site as usize][c.class as usize] += 1;
            }
            n
        };
        let a = census(1);
        assert_eq!(a, census(2));
        assert_eq!(a[Site::List as usize].iter().sum::<usize>(), 3 * BULK_QUANTUM / 2);
        assert_eq!(a[Site::Mat as usize], [60, 30, 30]);
    }

    #[test]
    fn one_call_in_ten_changes_the_sites_previous_size() {
        let stream = bulk_stream(3, 10 * BULK_QUANTUM);
        let mut last = [None; SITES.len()];
        let (mut changed, mut seen) = (0, 0);
        for c in stream {
            if let Some(prev) = last[c.site as usize].replace(c.class) {
                seen += 1;
                changed += (prev != c.class) as usize;
            }
        }
        let share = changed as f64 / seen as f64;
        // a site's last call of the stream has no successor to change size
        assert!((0.098..=0.1).contains(&share), "{share}");
    }

    #[test]
    fn digests_of_known_graphs() {
        assert_eq!(digest_seq(&[1, 2, 3]), (31 + 2) * 31 + 3);
        // heap order [1, 2, 3]: pre-order visits 1, 2, 3
        assert_eq!(digest_tree(&[1, 2, 3]), digest_seq(&[1, 2, 3]));
        // heap order [1, 2, 3, 4]: 4 is 2's left child, pre-order 1, 2, 4, 3
        assert_eq!(digest_tree(&[1, 2, 3, 4]), digest_seq(&[1, 2, 4, 3]));
        // root to index 4 in [1..=7]: 1, then 2 (index 1), then 5 (index 4)
        assert_eq!(digest_path(&[1, 2, 3, 4, 5, 6, 7], 4), digest_seq(&[1, 2, 5]));
        assert_eq!(digest_path(&[1, 2, 3], 0), 1);
    }

    #[test]
    fn probes_select_what_the_service_folds() {
        let call = |site, full, pick| BulkCall { site, class: 0, variant: 0, full, pick };
        let vals: Vec<i32> = (0..16).collect();
        // 4 x 4 matrix, position 6 = row 1, column 2: folds columns 2 and 3
        assert_eq!(
            probe_and_digest(&call(Site::Mat, false, 6 + 16), 4, &vals),
            (6, digest_seq(&[6, 7]))
        );
        assert_eq!(probe_and_digest(&call(Site::Mat, true, 6), 4, &vals), (-1, digest_seq(&vals)));
        assert_eq!(
            probe_and_digest(&call(Site::List, false, 99), 16, &vals),
            (LIST_PROBE, digest_seq(&vals[..8]))
        );
        assert_eq!(
            probe_and_digest(&call(Site::Tree, false, 4), 16, &vals),
            (4, digest_seq(&[0, 1, 4]))
        );
        assert_eq!(
            probe_and_digest(&call(Site::Tree, true, 4), 16, &vals),
            (-1, digest_tree(&vals))
        );
    }

    #[test]
    fn one_call_in_forty_is_checked_in_full() {
        let stream = bulk_stream(3, 10 * BULK_QUANTUM);
        for site in SITES {
            let calls: Vec<_> = stream.iter().filter(|c| c.site == site).collect();
            assert_eq!(calls.iter().filter(|c| c.full).count() * SIZE_PERIOD, calls.len());
        }
    }

    #[test]
    fn page_stream_draws_every_page_equally() {
        let s = page_stream(5, 100, 64);
        assert_eq!(s.len(), 128);
        for pg in 0..64 {
            assert_eq!(s.iter().filter(|&&p| p == pg).count(), 2);
        }
    }
}
