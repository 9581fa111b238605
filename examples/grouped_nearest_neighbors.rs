//! Grouped nearest neighbours (Section I of the paper): hospitals `P`, parks
//! `Q` and a much larger set of houses `L`. For every (hospital, park) pair,
//! count the houses having exactly that hospital and that park as their
//! nearest ones.
//!
//! The naive plan runs two all-nearest-neighbour joins over the large set
//! `L`. The CIJ plan computes `CIJ(P, Q)`: only pairs in the CIJ can have a
//! non-zero count (a house in `V(p, P) ∩ V(q, Q)` has `p` and `q` as nearest
//! neighbours), and [`QueryEngine::grouped_nn`] counts the houses while the
//! join reports those pairs — no region is ever materialised. This example
//! runs both plans and checks that they agree.
//!
//! Run with:
//! ```text
//! cargo run --release --example grouped_nearest_neighbors
//! ```

use cij::prelude::*;
use cij::voronoi::nearest_index;
use std::collections::HashMap;

fn main() {
    let hospitals = uniform_points(60, &Rect::DOMAIN, 21);
    let parks = uniform_points(80, &Rect::DOMAIN, 22);
    let houses = clustered_points(
        &ClusterSpec {
            n: 20_000,
            clusters: 40,
            sigma_fraction: 0.03,
            background_fraction: 0.2,
            size_skew: 0.9,
        },
        &Rect::DOMAIN,
        23,
    );

    // CIJ plan: join the two small sets and count the houses as the join
    // reports each pair's cells.
    let engine = QueryEngine::new(CijConfig::default());
    let cij = engine.join(&hospitals, &parks, Algorithm::NmCij);
    println!(
        "CIJ(hospitals, parks) has {} of {} possible pairs",
        cij.pairs.len(),
        hospitals.len() * parks.len()
    );
    let counts_cij = engine.grouped_nn(&hospitals, &parks, &houses);

    // Naive plan: two nearest-neighbour lookups per house.
    let mut counts_naive: HashMap<(u64, u64), u64> = HashMap::new();
    for house in &houses {
        let h = nearest_index(&hospitals, house).unwrap() as u64;
        let p = nearest_index(&parks, house).unwrap() as u64;
        *counts_naive.entry((h, p)).or_insert(0) += 1;
    }

    // The two plans agree, and every non-empty group is a CIJ pair.
    for key in counts_cij.keys().chain(counts_naive.keys()) {
        assert!(cij.pairs.contains(key), "group {key:?} is not a CIJ pair");
    }
    let mismatches = counts_naive
        .iter()
        .filter(|(key, count)| counts_cij.get(*key) != Some(*count))
        .count();
    println!(
        "grouped counts agree for {} groups ({} boundary-tie mismatches)",
        counts_naive.len() - mismatches,
        mismatches
    );
    assert_eq!(counts_cij, counts_naive, "the two plans disagree");

    let mut top: Vec<((u64, u64), u64)> = counts_naive.into_iter().collect();
    top.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    println!("\nbusiest (hospital, park) pairs:");
    for ((h, p), count) in top.iter().take(5) {
        println!("  hospital #{h} + park #{p}: {count} houses");
    }
}
