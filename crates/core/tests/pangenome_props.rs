//! Property tests for the pangenome's channel placement — the greedy
//! size-balanced assignment of chromosomes to memory channels
//! (Section 8.3), through the shared `balance_loads`.
//!
//! Invariants: every chromosome is placed on exactly one channel, the
//! imbalance metric is well-formed (`>= 1.0`), and equal-size chromosomes
//! split evenly over channels with exactly zero excess imbalance.

use segram_core::{Pangenome, SegramConfig};
use segram_graph::{build_graph, GenomeGraph};
use segram_sim::{generate_reference, simulate_variants, GenomeConfig, VariantConfig};
use segram_testkit::prelude::*;

/// Builds a pangenome whose chromosome `i` has length `sizes[i]` and is
/// generated from seed `seeds[i]` (identical seeds + sizes give byte- and
/// memory-identical chromosomes).
fn pangenome(sizes: &[usize], seeds: &[u64]) -> Pangenome {
    let chroms: Vec<(String, GenomeGraph)> = sizes
        .iter()
        .zip(seeds)
        .enumerate()
        .map(|(i, (&len, &seed))| {
            let reference = generate_reference(&GenomeConfig::human_like(len, seed));
            let variants = simulate_variants(&reference, &VariantConfig::human_like(seed ^ 0x5a));
            (
                format!("chr{}", i + 1),
                build_graph(&reference, variants).unwrap().graph,
            )
        })
        .collect();
    Pangenome::new(chroms, SegramConfig::short_reads())
}

proptest! {
    #[test]
    fn every_chromosome_is_placed_exactly_once(
        sizes in prop::collection::vec(2_000usize..6_000, 1..6),
        channels in 1usize..9,
    ) {
        let seeds: Vec<u64> = (0..sizes.len() as u64).map(|i| 900 + i).collect();
        let p = pangenome(&sizes, &seeds);
        let placement = p.channel_placement(channels);
        prop_assert_eq!(placement.len(), channels);
        // Exactly-once partition of chromosome indices.
        let mut placed: Vec<usize> = placement.iter().flatten().copied().collect();
        placed.sort_unstable();
        let expected: Vec<usize> = (0..sizes.len()).collect();
        prop_assert_eq!(placed, expected);
        // The imbalance metric is max-over-mean, so never below 1.0 for a
        // placement that carries any load at all.
        let imbalance = p.placement_imbalance(&placement);
        prop_assert!(imbalance >= 1.0 - 1e-12, "imbalance {imbalance}");
    }

    #[test]
    fn equal_size_chromosomes_split_with_zero_imbalance(
        per_channel in 1usize..4,
        channels in 1usize..5,
        size in prop::sample::select(vec![2_500usize, 4_000]),
    ) {
        // `channels * per_channel` identical chromosomes (same seed, same
        // size => identical graph + index bytes): greedy largest-first
        // placement must distribute them `per_channel`-per-channel, with
        // imbalance exactly 1.0 (zero excess).
        let count = per_channel * channels;
        let sizes = vec![size; count];
        let seeds = vec![777u64; count];
        let p = pangenome(&sizes, &seeds);
        let placement = p.channel_placement(channels);
        for channel in &placement {
            prop_assert_eq!(channel.len(), per_channel);
        }
        let imbalance = p.placement_imbalance(&placement);
        prop_assert!(
            (imbalance - 1.0).abs() < 1e-12,
            "equal-size shards must have zero excess imbalance, got {imbalance}"
        );
    }
}
