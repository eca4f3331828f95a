//! The seeding-stage router: dispatches a read's minimizers to the
//! shard(s) whose index slice can answer them and merges the per-shard
//! hits into one candidate-region list **before** prefilter/alignment.
//!
//! Byte-identity with the unsharded path holds by construction:
//!
//! 1. the shards partition the monolithic index's seed locations, so for
//!    every minimizer the summed per-shard frequency equals the global
//!    frequency (the frequency filter makes identical decisions);
//! 2. candidate regions are computed with the same Figure 9 arithmetic
//!    ([`segram_index::seed_region`]) against the same shared graph;
//! 3. the merged region list ends in the exact monolithic
//!    sort-by-`(start, end, seed)` + dedup-by-`(start, end)` ordering —
//!    but since the shards are coordinate-disjoint by construction of
//!    `split_by_ranges`, the merge concatenates the per-shard sorted
//!    lists in shard order instead of re-sorting the whole set, falling
//!    back to the monolithic sort only when region padding crosses a
//!    shard boundary (a debug assertion checks the result is sorted
//!    either way).
//!
//! The router also feeds each shard's occupancy counters (seed hits,
//! regions produced), the observability behind the paper's Section 8.3
//! load-balance study.

use segram_graph::{DnaSeq, GenomeGraph};
use segram_index::{extract_minimizers, seed_region, SeedRegion, SeedingResult, SeedingStats};

use crate::pipeline::Seeder;
use crate::shard::IndexShard;

/// The sharded [`Seeder`]: minimizer extraction once per read, a global
/// frequency decision, then per-shard index lookups merged into the
/// monolithic candidate order.
#[derive(Clone, Copy, Debug)]
pub struct ShardRouter<'a> {
    graph: &'a GenomeGraph,
    shards: &'a [IndexShard],
    error_rate: f64,
    frequency_threshold: u32,
}

impl<'a> ShardRouter<'a> {
    /// Binds the router to a shard set. `frequency_threshold` must be the
    /// *global* (whole-graph) threshold, not a shard-local one.
    pub fn new(
        graph: &'a GenomeGraph,
        shards: &'a [IndexShard],
        error_rate: f64,
        frequency_threshold: u32,
    ) -> Self {
        assert!(!shards.is_empty(), "router needs at least one shard");
        Self {
            graph,
            shards,
            error_rate,
            frequency_threshold,
        }
    }

    /// The shards this router dispatches to.
    pub fn shards(&self) -> &'a [IndexShard] {
        self.shards
    }
}

/// Merges per-shard candidate lists into the monolithic
/// `(start, end, seed)` order: each list is sorted, then the lists are
/// concatenated in shard (coordinate) order. `seed_region` pads windows
/// around the seed location, so a region from shard `i+1` can start
/// before shard `i`'s last — that boundary overlap is detected and falls
/// back to the monolithic whole-list sort (same bytes, since ties on the
/// full key always live in one shard and stable sorting preserves their
/// insertion order).
fn merge_shard_regions(mut per_shard: Vec<Vec<SeedRegion>>) -> Vec<SeedRegion> {
    let key = |r: &SeedRegion| (r.start, r.end, r.seed);
    for list in &mut per_shard {
        list.sort_by_key(key);
    }
    let mut concat_sorted = true;
    let mut last_key = None;
    for list in &per_shard {
        if let (Some(prev), Some(first)) = (last_key, list.first()) {
            if prev > key(first) {
                concat_sorted = false;
                break;
            }
        }
        if let Some(tail) = list.last() {
            last_key = Some(key(tail));
        }
    }
    let mut regions: Vec<SeedRegion> = per_shard.into_iter().flatten().collect();
    if !concat_sorted {
        regions.sort_by_key(key);
    }
    debug_assert!(
        regions.windows(2).all(|w| key(&w[0]) <= key(&w[1])),
        "merged per-shard regions must arrive sorted"
    );
    regions
}

impl Seeder for ShardRouter<'_> {
    fn seed(&self, read: &DnaSeq) -> SeedingResult {
        let scheme = *self.shards[0].mapper().index().scheme();
        let minimizers = extract_minimizers(read, &scheme);
        let mut stats = SeedingStats {
            minimizers: minimizers.len(),
            ..SeedingStats::default()
        };
        // Regions accumulate per shard so the merge can concatenate the
        // per-shard sorted lists instead of re-sorting everything.
        let mut shard_regions: Vec<Vec<SeedRegion>> = vec![Vec::new(); self.shards.len()];
        // One index probe per shard per minimizer: the location slice
        // answers both the routing question (who holds this minimizer)
        // and the frequency question (its length *is* the shard-local
        // frequency), so no separate frequency lookup is needed.
        let mut per_shard: Vec<&[segram_graph::GraphPos]> = Vec::with_capacity(self.shards.len());
        for m in &minimizers {
            per_shard.clear();
            per_shard.extend(self.shards.iter().map(|s| s.mapper().index().lookup(m)));
            // Summed shard-local frequencies reproduce the monolithic
            // frequency-filter decision (the shards partition the index).
            let freq: u32 = per_shard.iter().map(|locs| locs.len() as u32).sum();
            if freq > self.frequency_threshold {
                stats.filtered_minimizers += 1;
                continue;
            }
            for ((shard, locs), regions) in self
                .shards
                .iter()
                .zip(&per_shard)
                .zip(shard_regions.iter_mut())
            {
                if locs.is_empty() {
                    continue;
                }
                shard.record_seed_hits(locs.len() as u64);
                for &loc in *locs {
                    stats.seed_locations += 1;
                    if let Some(region) =
                        seed_region(self.graph, self.error_rate, read.len(), m, loc, scheme.k)
                    {
                        shard.record_region();
                        regions.push(region);
                    }
                }
            }
        }
        let mut regions = merge_shard_regions(shard_regions);
        regions.dedup_by_key(|r| (r.start, r.end));
        stats.regions = regions.len();
        SeedingResult { regions, stats }
    }
}
