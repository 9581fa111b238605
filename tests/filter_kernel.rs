//! Integration tests for the conditional filter: its clip work per examined
//! point must stay at Voronoi-cell size, and its traversal decisions must
//! stay where they were pinned. (That it returns the candidates of
//! Algorithm 5 read literally is a proptest next to the reference, in
//! `crates/core/src/filter.rs`.)

use cij::prelude::*;
use cij::rtree::RTreeConfig;

fn tree_config() -> RTreeConfig {
    RTreeConfig {
        page_size: 512,
        max_entries: 64,
    }
}

/// Bisectors the filter may offer an approximate cell per examined point,
/// whether they cut or not. The ring walk over the candidate grid that the
/// triangulation replaced offered 5.19 per examined point on the uniform
/// join below and 5.56 on the clustered one; the triangulation offered 2.35
/// and 2.00 while it dug every cavity the corners left open, and offers
/// 1.79 and 1.56 since a corner cell that meets no probe rejects the point
/// first.
const MAX_CLIP_ATTEMPTS_PER_POINT: u64 = 2;

/// Work-counter guard for the triangulated cells: a Voronoi cell has ~6
/// neighbours, and an approximate cell that starts from the probe group's
/// bounds is offered the corners of the examined point's located triangle
/// first and the rest of its would-be Delaunay neighbours only if the
/// corner cell is open and still meets a probe — most far points are
/// rejected by a corner. Cells seeded from the whole domain and a grid
/// framed on it needed 18.5 clips per examined point on this join, the
/// ring walk 2.12, the triangulation 1.75 and 1.50 with the corner-cell
/// test. The counters are deterministic, so the gain cannot silently rot.
#[test]
fn indexed_kernel_clips_a_handful_of_bisectors_per_examined_point() {
    let p = uniform_points(4_000, &Rect::DOMAIN, 18_401);
    let q = uniform_points(4_000, &Rect::DOMAIN, 18_402);
    let nm = QueryEngine::new(CijConfig::default())
        .join(&p, &q, Algorithm::NmCij)
        .profile
        .work
        .filter;
    assert!(nm.points_examined > 0);
    assert!(
        nm.clip_ops <= 8 * nm.points_examined,
        "{} clip ops over {} examined points",
        nm.clip_ops,
        nm.points_examined
    );
    assert!(
        nm.clip_attempts <= MAX_CLIP_ATTEMPTS_PER_POINT * nm.points_examined,
        "{} bisectors offered over {} examined points",
        nm.clip_attempts,
        nm.points_examined
    );
}

/// The same guard on the pinned 3-way clustered input below, whose
/// clustered buckets overloaded the ring walk's grid.
#[test]
fn clustered_multiway_offers_a_handful_of_bisectors_per_examined_point() {
    let config = CijConfig::default().with_rtree(tree_config());
    let counters = QueryEngine::new(config)
        .multiway(&pinned_sets())
        .profile
        .work
        .filter;
    assert!(counters.points_examined > 0);
    assert!(
        counters.clip_attempts <= MAX_CLIP_ATTEMPTS_PER_POINT * counters.points_examined,
        "{} bisectors offered over {} examined points",
        counters.clip_attempts,
        counters.points_examined
    );
}

/// The three clustered sets of the pinned 3-way input.
fn pinned_sets() -> Vec<Vec<Point>> {
    let spec = ClusterSpec {
        n: 600,
        clusters: 5,
        sigma_fraction: 0.03,
        background_fraction: 0.15,
        size_skew: 0.8,
    };
    (0..3)
        .map(|i| clustered_points(&spec, &Rect::DOMAIN, 16_100 + i))
        .collect()
}

/// The filter's traversal on a fixed 3-way clustered input, pinned from the
/// commit before the shield test tabulated its entry-side bounds and grew
/// hints: entries pruned, points examined and the candidate *sequence* are
/// decisions, and a faster way to reach them must not move one.
#[test]
fn shield_decisions_match_the_values_pinned_before_the_bound_table() {
    let sets = pinned_sets();
    // Fixed configuration (no env overrides): the pins are per plan.
    let config = CijConfig::default().with_rtree(tree_config());
    let outcome = QueryEngine::new(config).multiway(&sets);
    assert_eq!(outcome.profile.work.filter.entries_pruned, PINNED.0);
    assert_eq!(outcome.profile.work.filter.points_examined, PINNED.1);
    assert_eq!(outcome.tuples.len(), PINNED.2);

    // One direct call per extension set, probing with the cells of a slice
    // of the driver set: the candidates in the order the traversal accepted
    // them, folded into an order-sensitive FNV-1a hash.
    let cells = cij::voronoi::brute_force_diagram(&sets[0], &config.domain);
    let mut sequence_hash = 0xcbf2_9ce4_8422_2325u64;
    let mut candidates_seen = 0usize;
    for set in &sets[1..] {
        let mut tree = RTree::bulk_load(tree_config(), PointObject::from_points(set));
        for probe in cells.chunks(60) {
            let (candidates, _) = batch_conditional_filter_scratch(
                &mut tree,
                probe,
                &config.domain,
                &FilterOptions::default(),
                &mut FilterScratch::default(),
            );
            candidates_seen += candidates.len();
            for byte in candidates.iter().flat_map(|c| c.id.0.to_le_bytes()) {
                sequence_hash = (sequence_hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    assert_eq!((candidates_seen, sequence_hash), (PINNED.3, PINNED.4));
}

/// `(entries pruned, points examined, tuples, candidates, candidate-sequence
/// hash)` of the input above at the parent commit.
const PINNED: (u64, u64, usize, usize, u64) = (1_217, 4_880, 3_468, 3_986, 0xf297_35dc_a465_bb85);
