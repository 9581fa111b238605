//! The conditional filter of NM-CIJ (Algorithm 5 and its batch variant),
//! evaluated sub-quadratically through two grid indexes.
//!
//! Given one or more convex polygons `T` (Voronoi cells of points of `Q`,
//! or running intersections of the multiway join), the filter traverses the
//! R-tree `RP` of pointset `P` and returns a candidate set `CP ⊆ P` that is
//! guaranteed to contain every point whose Voronoi cell intersects any of
//! the polygons. Section IV-A's three pruning ingredients are used:
//!
//! 1. points inside a polygon `T` always join: a point strictly inside some
//!    probe polygon becomes a candidate without its approximate cell being
//!    computed (see "The inside-point rule" below),
//! 2. a point `p` is discarded when its *approximate* cell `V(p, CP)` —
//!    computed from the already-found candidates only, a superset of the
//!    exact cell — misses every polygon,
//! 3. a non-leaf entry `e` that misses every polygon is pruned when, for each
//!    polygon `T`, some candidate `p ∈ CP` exists with `T ⊆ Φ(L, p)` for all
//!    sides `L` of `e` (Lemma 3), because then no point under `e` can have a
//!    cell reaching `T`.
//!
//! Entries are visited in ascending distance from the centroid of the
//! polygons (best-first), so nearby points enter `CP` early and shield the
//! rest of the tree.
//!
//! Read literally, ingredient 2 clips every examined point's cell against
//! **all** candidates found so far, and the "intersects some polygon" tests
//! of ingredients 2 and 3 scan the whole probe batch. The filter keeps the
//! candidates in a uniform-grid spatial index ([`cij_geom::PointGrid`]) and
//! the probe polygons' bounding boxes in an overlap index
//! ([`cij_geom::RectGrid`]) instead: each examined point clips only against
//! *near* candidates, nearest-first by expanding grid rings, and each
//! polygon test touches only the polygons whose bbox can overlap the query.
//!
//! # The inside-point rule
//!
//! Before it computes a cell, the filter asks the polygon index whether the
//! examined point `p` lies in the group's box `B` (invariant 1 below) and
//! **strictly** inside some probe polygon `T`
//! ([`ConvexPolygon::strictly_contains_point`]). If so, `p` joins and its
//! cell is never computed. The answer is the one the cell would give. The
//! approximate cell always contains `p`: it is the seed cut by bisectors
//! `⊥(p, c)`, `p` is on its own side of each of them, and `p` lies in `B`,
//! inside the seed. So the cell and `T` share `p`, and since `T` holds `p`
//! by more than its threshold, the tolerant separating-axis test of
//! ingredient 2 can only answer "intersects". A point within the tolerance
//! band of `T`'s boundary is not held strictly and falls through to the
//! cell test: there, rounding in the cell's outline could decide either
//! way, and the rule does not guess. So every decision is the cell test's
//! own, and the candidates, their order and the traversal are those of the
//! cell test alone; only [`FilterStats::clip_ops`] (down) and
//! [`FilterStats::poly_tests_skipped`] (the containment query's skips) show
//! the rule.
//!
//! # Why bounded clipping is sufficient
//!
//! Let `R` be the *reach* of the current approximate cell from the examined
//! point `p` — the maximum distance from `p` to a cell vertex
//! ([`cij_voronoi::cell_reach_sq`]). The convex cell lies inside the circle
//! of radius `R` around `p` (a convex function peaks at a vertex, whether
//! or not `p` itself is in the cell). Every location the bisector `⊥(p, c)`
//! removes is closer to `c` than to `p`, so by the triangle inequality it
//! lies at least `dist(p, c) / 2` from `p`. Hence a candidate with
//! `dist(p, c) > 2R` cannot shrink the cell at all, and once a grid ring's
//! minimum distance exceeds `2R` **no remaining candidate in that ring or
//! beyond can either** — the enumeration stops. Skipped clips are provably
//! no-ops, so the candidate set — and its order, and the traversal — is the
//! one the literal reading produces (a proptest in this module compares the
//! two); only [`FilterStats::clip_ops`] and
//! [`FilterStats::poly_tests_skipped`] tell them apart.
//!
//! This `2R` bound is the one bound of both crates: [`cij_voronoi::batch`]
//! applies it to the exact cells of BatchVoronoi — as a per-member gate in
//! front of the Lemma-1/Lemma-2 vertex loops and as the stop rule of its
//! nearest-first seeding — and states the rectangle (Lemma 2) form of the
//! argument there.
//!
//! The cutoff only bites when `R` is small from the start and the rings
//! really are nearest-first. Three invariants make that so, and each leaves
//! every decision of the traversal where it was:
//!
//! 1. **Bounded seed.** Every approximate cell starts from the seed: `B`,
//!    the union of the probe polygons' bounding boxes, each widened by its
//!    distance threshold ([`cij_geom::tolerance::widened`]), widened once
//!    more by `B`'s own threshold and cut to the domain — not the whole
//!    domain. A cell is only ever asked whether it meets a probe polygon
//!    `T`, every `T` lies in the seed with its tolerance to spare and every
//!    cell in the domain, so `(cell ∩ seed) ∩ T = cell ∩ T`: the answer is
//!    the same, while the reach is group-sized from the first clip and the
//!    cell of a far point empties after a few. (The candidates all sit
//!    around the probe group, so a domain-seeded cell stays open on its far
//!    side, its reach stays domain-sized and the cutoff never fires.)
//!    The second widening keeps a contact at the seed's edge. A side of `T`
//!    can lie on its box's edge — a Voronoi edge `T` shares with the
//!    examined point's cell, say — and the cell then meets `T` as a sliver
//!    between that side and the seed's boundary. Were the sliver only
//!    `T`'s threshold wide, the clip's merge of coinciding vertices, which
//!    reaches `τ` times *their* magnitude and so can exceed `T`'s
//!    threshold, could carry the cell's side out onto the seed's boundary,
//!    past `T`'s tolerance, and discard a point that joins. `B`'s own
//!    threshold is at least that merge distance for every vertex in the
//!    seed, so the sliver outlasts the merge.
//! 2. **Clamped local frame.** The candidate grid is framed on the same
//!    `B`, so its buckets divide the region the candidates actually occupy.
//!    Candidates and examined points outside `B` clamp to border buckets;
//!    [`cij_geom::grid`] argues why the ring bound and the reported bucket
//!    distance stay lower bounds for them. Each ring is walked inside the
//!    window `4R²` of the reach at its start
//!    ([`PointGrid::for_each_ring_bucket_within`]), so the rows, columns
//!    and buckets of a ring that lie beyond `2R` cost no call. The grid
//!    only orders and skips clips that the reach argument already proved to
//!    be no-ops.
//! 3. **One shield decision, priced once per entry.** Pruning discards, so
//!    it fires only strictly inside Φ (crate `cij_geom`, "Tolerance
//!    policy"): ingredient 3 accepts a vertex `b` of `T` for side `L` and
//!    candidate `p` when `dist²(b, p) < fl(mindist²(L, b) − μ)`, where the
//!    margin `μ` is [`sq_margin`] of the squared magnitude of the entry and
//!    the group, computed once per entry. It prunes an entry when every
//!    polygon has some candidate accepting all its vertices for all four
//!    sides. A polygon that touches Φ's boundary — a point under the entry
//!    whose cell would meet it in one location — is never pruned. Two
//!    observations let the test cost less than polygons × candidates ×
//!    sides × vertices without moving a decision:
//!    * *Convexity of the tolerant Φ set.* `dist²(b, p) − mindist²(L, b)`
//!      is `max over l ∈ L of (|b − p|² − |b − l|²)`, a maximum of
//!      functions affine in `b`, hence convex, so the accepted set is
//!      convex. If the four corners of the probe polygons' union bounding
//!      box are accepted for all four sides of an entry under one
//!      candidate, every vertex of every polygon is, and the per-polygon
//!      rule would have pruned the entry too. The group-level test
//!      therefore only ever answers `true` where the per-polygon rule does
//!      and falls through to it otherwise (the corners are held to `2μ`
//!      instead of `μ`, which is orders of magnitude above the rounding of
//!      either side, so that rounding cannot turn the implication around).
//!    * *Monotone rounding.* "Accepted for all four sides" is
//!      `dist²(b, p) < min over L of fl(m_L − μ)` with
//!      `m_L = mindist²(L, b)`. Rounding is monotone — `x ≤ y` implies
//!      `fl(x − μ) ≤ fl(y − μ)` — so the minimum commutes with it:
//!      `min_L fl(m_L − μ) = fl(min_L m_L − μ)`, evaluated bit for bit.
//!      The right-hand side does not mention the candidate, so the
//!      per-polygon rule computes it once per entry and polygon vertex (the
//!      bound table) and each candidate costs one squared distance per
//!      vertex instead of four segment distances.
//!
//!    [`FilterStats::entries_pruned`] and the traversal are unchanged by
//!    both; the four-sided rule is the reference the tests compare against.

use crate::config::FilterKernel;
use cij_geom::tolerance::{rect_magnitude, sq_margin, widened};
use cij_geom::{ClipScratch, ConvexPolygon, HalfPlane, Point, PointGrid, Rect, RectGrid, Segment};
use cij_rtree::{LeafLayout, NodeArena, NodeReader, PointObject, TraversalEntry, TraversalQueue};
use cij_voronoi::cell_reach_sq;

/// Initial resolution of the adaptive candidate grid; it doubles whenever
/// the average bucket load exceeds ~3 ([`PointGrid::needs_growth`]).
const ADAPTIVE_GRID_START: usize = 8;

/// Statistics of one filter invocation (used for the false-hit-ratio
/// accounting of Figure 10 and the work guard of `tests/filter_kernel.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Points of `P` examined (popped from the heap).
    pub points_examined: u64,
    /// Non-leaf entries pruned by the Φ rule.
    pub entries_pruned: u64,
    /// Bisector clip operations performed while computing approximate
    /// cells (quadratic in the candidates under the literal reading). The
    /// cells of points strictly inside a probe polygon are not computed
    /// (module docs, "The inside-point rule"), so they cost none.
    pub clip_ops: u64,
    /// Probe-polygon tests the bbox index avoided relative to scanning the
    /// whole polygon batch, counted per index query: the inside-point
    /// containment query, the cell query and the node query each add the
    /// polygons they did not examine.
    pub poly_tests_skipped: u64,
}

impl FilterStats {
    /// Folds another invocation's statistics into this accumulator (used by
    /// NM-CIJ and the multiway join, which issue one filter call per leaf or
    /// probe unit and report totals).
    pub fn absorb(&mut self, other: &FilterStats) {
        self.points_examined += other.points_examined;
        self.entries_pruned += other.entries_pruned;
        self.clip_ops += other.clip_ops;
        self.poly_tests_skipped += other.poly_tests_skipped;
    }
}

/// Execution options of one (batch) conditional-filter invocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct FilterOptions {
    /// Fixed resolution of the candidate grid; `0` (the default) selects
    /// the adaptive policy (start at 8×8, double when the average bucket
    /// load exceeds ~3).
    pub grid_resolution: usize,
}

impl FilterOptions {
    // Inert: `cij_benchmark/src/layers.rs` is its only reader.
    #[doc(hidden)]
    pub fn for_kernel(_kernel: FilterKernel) -> Self {
        FilterOptions::default()
    }

    // Inert: `cij_benchmark/src/layers.rs` is its only reader.
    #[doc(hidden)]
    pub fn with_layout(self, _layout: LeafLayout) -> Self {
        self
    }
}

/// Reusable per-worker scratch of the filter: the node decode arena, the
/// polygon clipping ping-pong buffers, the approximate-cell working
/// polygon, the two grids and the traversal's own working storage.
/// Allocate one per worker, reuse it across every filter invocation the
/// worker issues: each call clears what it uses instead of rebuilding it.
/// Contents between calls are unspecified.
#[derive(Debug, Default)]
pub struct FilterScratch {
    /// SoA node decode target.
    pub arena: NodeArena,
    /// Polygon clipping ping-pong buffers.
    pub clip: ClipScratch,
    /// The working approximate cell of the currently examined point.
    pub cell: ConvexPolygon,
    /// The candidate grid: re-framed and emptied per call
    /// ([`PointGrid::reset`]), so its buckets are allocated once per worker
    /// rather than once per invocation.
    pub grid: PointGrid,
    /// The best-first traversal queue: cleared at the start of every call,
    /// drained by its end, its three allocations kept in between.
    queue: TraversalQueue,
    /// Positions, in the call's polygon slice, of its non-empty polygons.
    usable: Vec<u32>,
    /// Their centroids and widened bounding boxes.
    centers: Vec<Point>,
    poly_bboxes: Vec<Rect>,
    /// The overlap index of `poly_bboxes` ([`RectGrid::rebuild`]).
    polyidx: RectGrid,
    /// The shield test's bound table for the polygon under test.
    shield_bounds: Vec<f64>,
}

impl FilterScratch {
    /// Creates a scratch whose arena is pre-sized for nodes of the given
    /// byte budget
    /// ([`RTreeConfig::node_byte_budget`](cij_rtree::RTreeConfig::node_byte_budget)).
    pub fn for_budget(node_byte_budget: usize) -> Self {
        FilterScratch {
            arena: NodeArena::for_budget(node_byte_budget),
            ..FilterScratch::default()
        }
    }
}

/// The non-empty probe polygons of one call: the caller's slice seen
/// through the positions of its usable members.
#[derive(Clone, Copy)]
struct Probes<'a> {
    polys: &'a [ConvexPolygon],
    usable: &'a [u32],
}

impl<'a> Probes<'a> {
    fn get(&self, i: usize) -> &'a ConvexPolygon {
        &self.polys[self.usable[i] as usize]
    }

    fn iter(&self) -> impl Iterator<Item = &'a ConvexPolygon> + 'a {
        let polys = self.polys;
        self.usable.iter().map(move |&i| &polys[i as usize])
    }
}

/// Runs the (batch) conditional filter: returns every point of `P` whose
/// Voronoi cell may intersect at least one polygon of `polys`, plus filter
/// statistics. With a single polygon this is exactly Algorithm 5; with
/// several it is the BatchConditionalFilter of Section IV-A.
///
/// The candidate set is independent of the [`FilterOptions`] — the grid
/// resolution trades CPU, never results. Generic over [`NodeReader`], so the
/// same traversal runs in counted mode (`&mut RTree`) and over the snapshot
/// readers chunk workers use ([`cij_rtree::SnapshotReader`]).
///
/// Writes through a caller-owned [`FilterScratch`]: the traversal queue, the
/// polygon tables and both grids are the scratch's, cleared and refilled per
/// call, nodes decode into `scratch.arena` and approximate cells are
/// computed in `scratch.cell` via the in-place clipping kernels — so a
/// worker that keeps one scratch alive allocates only the four-vertex seed
/// box and the candidate list it returns.
pub fn batch_conditional_filter_scratch<T: NodeReader<PointObject>>(
    rp: &mut T,
    polys: &[ConvexPolygon],
    domain: &Rect,
    options: &FilterOptions,
    scratch: &mut FilterScratch,
) -> (Vec<PointObject>, FilterStats) {
    let mut stats = FilterStats::default();
    let mut candidates: Vec<PointObject> = Vec::new();
    let FilterScratch {
        arena,
        clip,
        cell,
        grid,
        queue,
        usable,
        centers,
        poly_bboxes,
        polyidx,
        shield_bounds,
    } = scratch;
    usable.clear();
    usable.extend((0..polys.len() as u32).filter(|&i| !polys[i as usize].is_empty()));
    if rp.is_empty() || usable.is_empty() {
        return (candidates, stats);
    }
    let probes = Probes { polys, usable };

    // Reference point for the traversal order: centroid of the polygons'
    // centroids.
    centers.clear();
    centers.extend(probes.iter().filter_map(|t| t.centroid()));
    let centroid = Point::centroid(centers).unwrap_or_else(|| domain.center());

    // Widened bounding boxes of the polygons, for the cheap "does e
    // intersect some T" tests, which must keep every contact the polygon
    // test keeps.
    poly_bboxes.clear();
    poly_bboxes.extend(probes.iter().map(|t| widened(&t.bbox())));
    let poly_bboxes = &poly_bboxes[..];

    // The probe group's bounds `B`: the union of those boxes, cut to the
    // domain. The candidate grid is framed on it, and every approximate
    // cell is seeded from it widened once more (module docs, invariants 1
    // and 2).
    let group_bbox = poly_bboxes
        .iter()
        .fold(Rect::empty(), |acc, bb| acc.union(bb));
    let bound = domain.intersection(&group_bbox).unwrap_or(*domain);
    let seed = ConvexPolygon::from_rect(&seed_box(domain, &group_bbox));

    let adaptive = options.grid_resolution == 0;
    grid.reset(
        &bound,
        if adaptive {
            ADAPTIVE_GRID_START
        } else {
            options.grid_resolution
        },
    );
    polyidx.rebuild(poly_bboxes);

    queue.clear();
    // The root is read up front (Algorithm 5, line 4) and its entries seeded.
    let root = rp.root_page();
    arena.load(&mut *rp, root);
    enqueue_arena(queue, &centroid, arena);

    while let Some(entry) = queue.pop() {
        match entry {
            TraversalEntry::Point(p) => {
                stats.points_examined += 1;
                // Ingredient 1: a point of `B` strictly inside some polygon
                // joins, and its cell would only say so again.
                let at = &p.point;
                let inside = bound.contains_point(at)
                    && any_indexed(polyidx, &Rect::from_point(*at), &mut stats, |i| {
                        poly_bboxes[i].contains_point(at)
                            && probes.get(i).strictly_contains_point(at)
                    });
                // Otherwise the approximate cell of p from the current
                // candidates only; a superset of V(p, P) (within the seed),
                // so discarding is safe.
                let joins = inside || {
                    approx_cell_into(&seed, &p, &candidates, grid, &mut stats, cell, clip);
                    let cbb = widened(&cell.bbox());
                    any_indexed(polyidx, &cbb, &mut stats, |i| {
                        cbb.intersects(&poly_bboxes[i]) && cell.intersects(probes.get(i))
                    })
                };
                if joins {
                    candidates.push(p);
                    grid.insert(&p.point, candidates.len() as u32 - 1);
                    if adaptive && grid.needs_growth() {
                        grid.grow(|i| candidates[i as usize].point);
                    }
                }
            }
            TraversalEntry::Node { page, mbr } => {
                // A node whose MBR intersects some polygon may contain points
                // inside it; it can never be pruned.
                let reach = widened(&mbr);
                let touches_some_poly = any_indexed(polyidx, &reach, &mut stats, |i| {
                    reach.intersects(&poly_bboxes[i]) && probes.get(i).intersects_rect(&mbr)
                });
                if !touches_some_poly
                    && is_shielded(&mbr, &group_bbox, probes, &candidates, shield_bounds)
                {
                    stats.entries_pruned += 1;
                    continue;
                }
                arena.load(&mut *rp, page);
                enqueue_arena(queue, &centroid, arena);
            }
        }
    }
    (candidates, stats)
}

/// The seed of every approximate cell: the probe group's box `group`
/// widened by its own distance threshold, cut to the domain (module docs,
/// invariant 1).
fn seed_box(domain: &Rect, group: &Rect) -> Rect {
    domain.intersection(&widened(group)).unwrap_or(*domain)
}

/// Pushes every entry of the decoded node onto the traversal queue, keyed by
/// distance from the traversal centroid.
fn enqueue_arena(queue: &mut TraversalQueue, centroid: &Point, arena: &NodeArena) {
    if arena.is_leaf() {
        for i in 0..arena.len() {
            let o = arena.object(i);
            queue.push_point(o.point.dist(centroid), o);
        }
    } else {
        for c in arena.children() {
            queue.push_node(c.mbr.mindist_point(centroid), c.page, c.mbr);
        }
    }
}

/// The approximate cell of `p`, written into the caller-owned `cell` through
/// the in-place clipping kernel: visit candidates nearest-first by expanding
/// grid rings, each ring windowed to the buckets within twice the cell's
/// reach, clip only bisectors that actually cut, and stop as soon as the
/// remaining rings are provably beyond that distance (see the module docs
/// for the sufficiency argument).
fn approx_cell_into(
    seed: &ConvexPolygon,
    p: &PointObject,
    candidates: &[PointObject],
    grid: &PointGrid,
    stats: &mut FilterStats,
    cell: &mut ConvexPolygon,
    scratch: &mut ClipScratch,
) {
    cell.clone_from(seed);
    if cell.is_empty() || grid.is_empty() {
        return;
    }
    let mut reach_sq = cell_reach_sq(&p.point, cell);
    let center = grid.frame().bucket_of(&p.point);
    let mut emptied = false;
    let mut ring = 0usize;
    loop {
        let lb = grid.ring_mindist(ring);
        // No candidate at distance > 2·reach can shrink the cell; rings only
        // get farther, so the whole enumeration can stop here.
        let window_sq = 4.0 * reach_sq;
        if lb * lb > window_sq {
            break;
        }
        // The walk windows the ring by the bound at its start; clips inside
        // the ring shrink the bound, so each bucket is still held to the
        // current one.
        let in_range = grid.for_each_ring_bucket_within(
            center,
            &p.point,
            ring,
            window_sq,
            |bucket_sq, items| {
                if emptied || bucket_sq > 4.0 * reach_sq {
                    return;
                }
                for &idx in items {
                    let c = &candidates[idx as usize];
                    if c.id == p.id {
                        continue;
                    }
                    if c.point.dist_sq(&p.point) > 4.0 * reach_sq {
                        continue;
                    }
                    let hp = HalfPlane::bisector(&p.point, &c.point);
                    if !cell.clip_in_place(&hp, scratch) {
                        continue;
                    }
                    stats.clip_ops += 1;
                    if cell.is_empty() {
                        emptied = true;
                        return;
                    }
                    reach_sq = cell_reach_sq(&p.point, cell);
                }
            },
        );
        if emptied || !in_range {
            break;
        }
        ring += 1;
    }
}

/// "Any polygon satisfies `check`" test: only polygons whose bbox
/// bucket range overlaps `query` are examined (each at most once, with
/// short-circuit on the first hit); the rest count as skipped tests.
fn any_indexed(
    polyidx: &mut RectGrid,
    query: &Rect,
    stats: &mut FilterStats,
    mut check: impl FnMut(usize) -> bool,
) -> bool {
    let mut examined = 0u64;
    let mut hit = false;
    polyidx.for_each_overlapping(query, |i| {
        examined += 1;
        if check(i as usize) {
            hit = true;
            return false;
        }
        true
    });
    stats.poly_tests_skipped += polyidx.len() as u64 - examined;
    hit
}

/// Whether every polygon is shielded from the entry `mbr` by some candidate:
/// for each polygon `T` there is a `p ∈ candidates` such that `T` falls
/// strictly in `Φ(L, p)` for every side `L` of the entry (Lemma 3 applied
/// per side), by the margin of the entry and the group `group` — a box
/// holding every polygon, whose magnitude bounds theirs.
///
/// One candidate whose four Φ regions hold all four corners of `group`
/// shields the whole group at once (module docs, invariant 3) — the common
/// case for entries far from the group; otherwise the per-polygon rule
/// decides.
fn is_shielded(
    mbr: &Rect,
    group: &Rect,
    probes: Probes<'_>,
    candidates: &[PointObject],
    bounds: &mut Vec<f64>,
) -> bool {
    if candidates.is_empty() {
        return false;
    }
    let sides = mbr.sides();
    let margin = shield_margin(mbr, group);
    // A corner is in Φ(L, p) for all four sides iff it is as close to `p`
    // as to the nearest side, so one squared distance per corner — the
    // same for every candidate — stands for the four.
    let corners = group.corners();
    let to_entry = corners.map(|b| entry_mindist_sq(&sides, &b) - 2.0 * margin);
    let group_shielded = candidates
        .iter()
        .any(|p| (corners.iter().zip(&to_entry)).all(|(b, &bound)| b.dist_sq(&p.point) < bound));
    group_shielded || is_shielded_per_polygon(&sides, margin, probes, candidates, bounds)
}

/// The margin `μ` of the shield decisions about the entry `mbr` and the
/// polygons inside `group` (module docs, invariant 3).
fn shield_margin(mbr: &Rect, group: &Rect) -> f64 {
    let m = rect_magnitude(&mbr.union(group));
    sq_margin(m * m)
}

/// `min over the entry's four sides L of mindist²(L, b)`.
fn entry_mindist_sq(sides: &[Segment; 4], b: &Point) -> f64 {
    sides
        .iter()
        .map(|l| l.mindist_point_sq(b))
        .fold(f64::INFINITY, f64::min)
}

/// The per-polygon shield rule [`is_shielded`] falls through to: every
/// polygon has *some* candidate, not necessarily the same one, whose Φ
/// regions of all `sides` contain it by `margin`. `bounds` is working
/// storage.
fn is_shielded_per_polygon(
    sides: &[Segment; 4],
    margin: f64,
    probes: Probes<'_>,
    candidates: &[PointObject],
    bounds: &mut Vec<f64>,
) -> bool {
    probes
        .iter()
        .all(|t| polygon_shielded(sides, margin, t, candidates, bounds))
}

/// Whether some candidate holds every vertex of `t` in its Φ regions of all
/// four `sides`: `dist²(v, p) < fl(m(v) − margin)` with `m(v)` the
/// entry-side bound [`entry_mindist_sq`], tabulated once per entry in
/// `bounds` — the four-sided [`cij_geom::polygon_within_phi`] rule, priced
/// per entry instead of per candidate (module docs, invariant 3).
fn polygon_shielded(
    sides: &[Segment; 4],
    margin: f64,
    t: &ConvexPolygon,
    candidates: &[PointObject],
    bounds: &mut Vec<f64>,
) -> bool {
    if t.is_empty() {
        // An empty region certifies nothing (`polygon_within_phi`).
        return false;
    }
    let vertices = t.vertices();
    bounds.clear();
    bounds.extend(vertices.iter().map(|v| entry_mindist_sq(sides, v) - margin));
    candidates.iter().any(|p| {
        vertices
            .iter()
            .zip(bounds.iter())
            .all(|(v, &bound)| v.dist_sq(&p.point) < bound)
    })
}

/// The four-sided per-polygon rule as the paper states it — the reference
/// [`is_shielded_per_polygon`] is tested against.
#[cfg(test)]
fn is_shielded_four_sided(
    sides: &[Segment; 4],
    margin: f64,
    polys: &[&ConvexPolygon],
    candidates: &[PointObject],
) -> bool {
    polys.iter().all(|t| {
        candidates.iter().any(|p| {
            sides
                .iter()
                .all(|l| cij_geom::polygon_within_phi(l, &p.point, t, margin))
        })
    })
}

/// Algorithm 5 read literally — the reference
/// [`batch_conditional_filter_scratch`] is tested against: best-first over
/// owned nodes, every approximate cell clipped against **every** candidate
/// found so far with the allocating [`ConvexPolygon::clip_bisector`], linear
/// scans over the probe polygons, the four-sided shield rule. It shares the
/// seed (module docs, invariant 1) and the queue type with the product and
/// none of its indexes, cutoffs or scratch.
#[cfg(test)]
fn reference_filter<T: NodeReader<PointObject>>(
    rp: &mut T,
    polys: &[ConvexPolygon],
    domain: &Rect,
) -> (Vec<PointObject>, FilterStats) {
    let mut stats = FilterStats::default();
    let mut candidates: Vec<PointObject> = Vec::new();
    let probes: Vec<&ConvexPolygon> = polys.iter().filter(|t| !t.is_empty()).collect();
    if rp.is_empty() || probes.is_empty() {
        return (candidates, stats);
    }
    let centers: Vec<Point> = probes.iter().filter_map(|t| t.centroid()).collect();
    let centroid = Point::centroid(&centers).unwrap_or_else(|| domain.center());
    let group = probes
        .iter()
        .fold(Rect::empty(), |acc, t| acc.union(&widened(&t.bbox())));
    let seed = ConvexPolygon::from_rect(&seed_box(domain, &group));

    let mut queue = TraversalQueue::default();
    let enqueue = |queue: &mut TraversalQueue, node: cij_rtree::Node<PointObject>| {
        for o in node.objects {
            queue.push_point(o.point.dist(&centroid), o);
        }
        for c in node.children {
            queue.push_node(c.mbr.mindist_point(&centroid), c.page, c.mbr);
        }
    };
    let root = rp.root_page();
    enqueue(&mut queue, rp.read(root));
    while let Some(entry) = queue.pop() {
        match entry {
            TraversalEntry::Point(p) => {
                stats.points_examined += 1;
                let mut cell = seed.clone();
                for c in candidates.iter().filter(|c| c.id != p.id) {
                    cell = cell.clip_bisector(&p.point, &c.point);
                    stats.clip_ops += 1;
                    if cell.is_empty() {
                        break;
                    }
                }
                if probes.iter().any(|t| cell.intersects(t)) {
                    candidates.push(p);
                }
            }
            TraversalEntry::Node { page, mbr } => {
                let touches_some_poly = probes.iter().any(|t| t.intersects_rect(&mbr));
                let margin = shield_margin(&mbr, &group);
                if !touches_some_poly
                    && is_shielded_four_sided(&mbr.sides(), margin, &probes, &candidates)
                {
                    stats.entries_pruned += 1;
                    continue;
                }
                enqueue(&mut queue, rp.read(page));
            }
        }
    }
    (candidates, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cij_geom::Rect;
    use cij_rtree::{RTree, RTreeConfig};
    use cij_voronoi::{brute_force_cell, brute_force_diagram};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn config() -> RTreeConfig {
        RTreeConfig {
            page_size: 256,
            max_entries: 64,
        }
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0)))
            .collect()
    }

    /// One filter call in the domain under `options`, fresh scratch.
    fn filter_with(
        rp: &mut RTree<PointObject>,
        polys: &[ConvexPolygon],
        options: &FilterOptions,
    ) -> (Vec<PointObject>, FilterStats) {
        let scratch = &mut FilterScratch::default();
        batch_conditional_filter_scratch(rp, polys, &Rect::DOMAIN, options, scratch)
    }

    /// Oracle: ids of P points whose exact Voronoi cell intersects any poly.
    fn oracle_joiners(p: &[Point], polys: &[ConvexPolygon]) -> Vec<u64> {
        let cells = brute_force_diagram(p, &Rect::DOMAIN);
        let mut out = Vec::new();
        for (i, c) in cells.iter().enumerate() {
            if polys.iter().any(|t| c.intersects(t)) {
                out.push(i as u64);
            }
        }
        out
    }

    #[test]
    fn candidate_set_is_a_superset_of_true_joiners() {
        let p = random_points(300, 31);
        let q = random_points(300, 32);
        let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
        // Use the cell of one Q point as the probe polygon.
        let t = brute_force_cell(&q, 17, &Rect::DOMAIN);
        let (candidates, _) =
            filter_with(&mut rp, std::slice::from_ref(&t), &FilterOptions::default());
        let candidate_ids: Vec<u64> = candidates.iter().map(|c| c.id.0).collect();
        for joiner in oracle_joiners(&p, &[t]) {
            assert!(
                candidate_ids.contains(&joiner),
                "true joiner {joiner} missing from candidate set"
            );
        }
    }

    #[test]
    fn batched_filter_covers_every_polygon_of_the_group() {
        let p = random_points(250, 41);
        let q = random_points(250, 42);
        let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
        let q_cells = brute_force_diagram(&q, &Rect::DOMAIN);
        let group: Vec<ConvexPolygon> = q_cells[40..52].to_vec();
        let (candidates, stats) = filter_with(&mut rp, &group, &FilterOptions::default());
        let candidate_ids: Vec<u64> = candidates.iter().map(|c| c.id.0).collect();
        for joiner in oracle_joiners(&p, &group) {
            assert!(candidate_ids.contains(&joiner));
        }
        assert!(stats.points_examined >= candidates.len() as u64);
    }

    #[test]
    fn filter_prunes_most_of_the_tree() {
        let p = random_points(4_000, 51);
        let q = random_points(4_000, 52);
        let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
        let t = brute_force_cell(&q, 123, &Rect::DOMAIN);
        rp.drop_buffer();
        rp.stats().reset();
        let (candidates, _) = filter_with(&mut rp, &[t], &FilterOptions::default());
        let reads = rp.stats().snapshot().logical_reads as usize;
        assert!(
            reads < rp.num_pages() / 4,
            "filter read {reads} of {} pages — pruning ineffective",
            rp.num_pages()
        );
        assert!(
            candidates.len() < p.len() / 10,
            "candidate set unexpectedly large: {}",
            candidates.len()
        );
    }

    #[test]
    fn empty_polygon_list_yields_no_candidates() {
        let p = random_points(100, 61);
        let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
        let (candidates, _) = filter_with(&mut rp, &[], &FilterOptions::default());
        assert!(candidates.is_empty());
        let (candidates, _) = filter_with(
            &mut rp,
            &[ConvexPolygon::empty()],
            &FilterOptions::default(),
        );
        assert!(candidates.is_empty());
    }

    #[test]
    fn whole_domain_polygon_keeps_voronoi_neighbours_of_everything() {
        // When the probe polygon is the whole domain, every point of P joins
        // (its cell is inside the domain), so the candidate set must be all
        // of P — and every point is strictly inside the probe, so it joins
        // by the inside-point rule without a single clip.
        let p = random_points(120, 71);
        let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
        let t = [ConvexPolygon::from_rect(&Rect::DOMAIN)];
        let (candidates, stats) = filter_with(&mut rp, &t, &FilterOptions::default());
        assert_eq!(candidates.len(), p.len());
        assert_eq!(stats.clip_ops, 0);
        let (ref_cands, ref_stats) = reference_over(&p, &t, &Rect::DOMAIN);
        assert_eq!(ids(&candidates), ids(&ref_cands));
        assert!(ref_stats.clip_ops > 0);
    }

    #[test]
    fn points_inside_the_polygon_are_always_candidates() {
        let p = random_points(200, 81);
        let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
        let t = ConvexPolygon::from_rect(&Rect::from_coords(2_000.0, 2_000.0, 5_000.0, 5_000.0));
        let (candidates, _) =
            filter_with(&mut rp, std::slice::from_ref(&t), &FilterOptions::default());
        let ids: Vec<u64> = candidates.iter().map(|c| c.id.0).collect();
        for (i, pt) in p.iter().enumerate() {
            if t.contains_point(pt) {
                assert!(ids.contains(&(i as u64)), "inside point {i} filtered out");
            }
        }
    }

    #[test]
    fn filter_stats_absorb_accumulates_every_counter() {
        let mut total = FilterStats::default();
        total.absorb(&FilterStats {
            points_examined: 3,
            entries_pruned: 1,
            clip_ops: 10,
            poly_tests_skipped: 7,
        });
        total.absorb(&FilterStats {
            points_examined: 5,
            entries_pruned: 2,
            clip_ops: 4,
            poly_tests_skipped: 1,
        });
        assert_eq!(total.points_examined, 8);
        assert_eq!(total.entries_pruned, 3);
        assert_eq!(total.clip_ops, 14);
        assert_eq!(total.poly_tests_skipped, 8);
    }

    #[test]
    fn shield_test_requires_candidates() {
        let mbr = Rect::from_coords(9_000.0, 9_000.0, 9_100.0, 9_100.0);
        let t = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        let group = t.bbox();
        let polys = [t];
        let probes = all_probes(&polys, &[0]);
        let bounds = &mut Vec::new();
        assert!(!is_shielded(&mbr, &group, probes, &[], bounds));
        let shield = PointObject::new(0, Point::new(4_000.0, 4_000.0));
        assert!(is_shielded(&mbr, &group, probes, &[shield], bounds));
    }

    /// Every polygon of `polys` as a probe, empty ones included (`usable`
    /// must be `0..polys.len()`).
    fn all_probes<'a>(polys: &'a [ConvexPolygon], usable: &'a [u32]) -> Probes<'a> {
        assert!(usable.iter().map(|&i| i as usize).eq(0..polys.len()));
        Probes { polys, usable }
    }

    /// A triangle whose apex sits `delta` (in squared-distance units, up to
    /// rounding) outside the Φ boundary of the left side of `mbr` under the
    /// candidate `p` — on it for `delta = 0`, inside for negative values —
    /// while its other two vertices are well inside. `p` must lie left of
    /// the entry, level with it.
    fn boundary_triangle(mbr: &Rect, p: &Point, delta: f64) -> ConvexPolygon {
        let gap = mbr.lo.x - p.x;
        assert!(gap > 100.0 && p.y >= mbr.lo.y && p.y <= mbr.hi.y);
        // dist²(v, p) − mindist²(L, v) = (2·v.x − p.x − L.x)·(L.x − p.x)
        // for a vertex level with `p` between `p` and the side `L`.
        let apex = Point::new((p.x + mbr.lo.x + delta / gap) / 2.0, p.y);
        ConvexPolygon::new(vec![
            Point::new(apex.x - 30.0, apex.y - 10.0),
            apex,
            Point::new(apex.x - 30.0, apex.y + 10.0),
        ])
    }

    /// Pruning discards, so a polygon that touches the Φ boundary is not
    /// shielded: only one inside it by more than the margin is.
    #[test]
    fn boundary_triangles_straddle_the_phi_margin() {
        let mbr = Rect::from_coords(7_000.0, 3_000.0, 7_300.0, 3_400.0);
        let p = PointObject::new(0, Point::new(6_100.0, 3_200.0));
        let (sides, margin) = (mbr.sides(), shield_margin(&mbr, &mbr));
        for (steps, expected) in [(-2, true), (0, false), (2, false)] {
            let polys = [boundary_triangle(&mbr, &p.point, f64::from(steps) * margin)];
            let bounds = &mut Vec::new();
            let probes = all_probes(&polys, &[0]);
            let tabled = is_shielded_per_polygon(&sides, margin, probes, &[p], bounds);
            assert_eq!(tabled, expected, "apex {steps} margins past the boundary");
            assert_eq!(
                tabled,
                is_shielded_four_sided(&sides, margin, &[&polys[0]], &[p])
            );
        }
    }

    /// A random shield-test instance: a group of convex polygons inside a
    /// box, an entry placed far from / edge-to-edge with / corner-to-corner
    /// with / across the group's union bbox, and candidates scattered
    /// around the group, between group and entry, and on the bbox corners
    /// themselves. Coordinates are partly snapped to integers so exact Φ
    /// boundary contacts occur.
    fn shield_instance(
        seed: u64,
        n_polys: usize,
        n_cands: usize,
        placement: usize,
    ) -> (Rect, Vec<ConvexPolygon>, Vec<PointObject>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let snap = |v: f64, on: bool| if on { v.round() } else { v };
        let origin = Point::new(
            rng.gen_range(1_000.0..8_000.0f64).round(),
            rng.gen_range(1_000.0..8_000.0f64).round(),
        );
        let size = rng.gen_range(40.0..600.0f64).round();
        let mut polys = Vec::new();
        while polys.len() < n_polys {
            let integral = rng.gen_range(0..2) == 0;
            let mut coord = |lo: f64| snap(lo + rng.gen_range(0.0..size), integral);
            let (ax, ay, bx, by) = (
                coord(origin.x),
                coord(origin.y),
                coord(origin.x),
                coord(origin.y),
            );
            let mut poly = ConvexPolygon::from_rect(&Rect::from_coords(ax, ay, bx, by));
            let bb = poly.bbox();
            for _ in 0..rng.gen_range(0..4) {
                let inside = |rng: &mut StdRng| {
                    Point::new(
                        rng.gen_range(bb.lo.x..=bb.hi.x),
                        rng.gen_range(bb.lo.y..=bb.hi.y),
                    )
                };
                let (a, b) = (inside(&mut rng), inside(&mut rng));
                let clipped = poly.clip_bisector(&a, &b);
                if !clipped.is_empty() {
                    poly = clipped;
                }
            }
            if !poly.is_empty() {
                polys.push(poly);
            }
        }
        let group = polys
            .iter()
            .fold(Rect::empty(), |acc, t| acc.union(&t.bbox()));
        let (w, h) = (
            rng.gen_range(1.0..900.0f64).round(),
            rng.gen_range(1.0..900.0f64).round(),
        );
        let mbr = match placement {
            // Anywhere in the domain.
            0 => {
                let x = rng.gen_range(0.0..9_000.0f64).round();
                let y = rng.gen_range(0.0..9_000.0f64).round();
                Rect::from_coords(x, y, x + w, y + h)
            }
            // Sharing (part of) an edge with the group's bbox.
            1 => {
                let y = group.lo.y + rng.gen_range(-h..group.height().max(1.0));
                Rect::from_coords(group.hi.x, y, group.hi.x + w, y + h)
            }
            // Touching the group's bbox in one corner only.
            2 => Rect::from_coords(group.lo.x - w, group.hi.y, group.lo.x, group.hi.y + h),
            // Straddling the bbox border.
            _ => {
                let x = group.lo.x - rng.gen_range(0.0..w);
                let y = group.hi.y - rng.gen_range(0.0..h);
                Rect::from_coords(x, y, x + w, y + h)
            }
        };
        let (gc, ec) = (group.center(), mbr.center());
        let candidates = (0..n_cands)
            .map(|i| {
                let integral = rng.gen_range(0..2) == 0;
                let point = match rng.gen_range(0..4) {
                    0 => group.corners()[rng.gen_range(0..4usize)],
                    1 => {
                        let t = rng.gen_range(0.0..1.0);
                        let jitter = rng.gen_range(-size..size) * 0.2;
                        Point::new(
                            snap(gc.x + t * (ec.x - gc.x) + jitter, integral),
                            snap(gc.y + t * (ec.y - gc.y) - jitter, integral),
                        )
                    }
                    _ => Point::new(
                        snap(gc.x + rng.gen_range(-2.0..2.0) * size, integral),
                        snap(gc.y + rng.gen_range(-2.0..2.0) * size, integral),
                    ),
                };
                PointObject::new(i as u64, point)
            })
            .collect();
        (mbr, polys, candidates)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The group-level fast path never changes the shield decision: with
        /// it, `is_shielded` equals the plain per-polygon rule on random
        /// entries, polygon groups and candidate lists — entries touching
        /// and crossing the group's union bbox included.
        #[test]
        fn group_shield_test_equals_the_per_polygon_rule(
            seed in 0u64..1_000_000,
            n_polys in 1usize..9,
            n_cands in 0usize..14,
            placement in 0usize..4,
        ) {
            let (mbr, polys, candidates) = shield_instance(seed, n_polys, n_cands, placement);
            let usable: Vec<u32> = (0..polys.len() as u32).collect();
            let group = polys.iter().fold(Rect::empty(), |acc, t| acc.union(&t.bbox()));
            let with_fast_path = is_shielded(
                &mbr,
                &group,
                all_probes(&polys, &usable),
                &candidates,
                &mut Vec::new(),
            );
            let refs: Vec<&ConvexPolygon> = polys.iter().collect();
            let margin = shield_margin(&mbr, &group);
            let plain = is_shielded_four_sided(&mbr.sides(), margin, &refs, &candidates);
            prop_assert_eq!(with_fast_path, plain);
        }

        /// The bound table never changes the per-polygon decision: over a
        /// sequence of entries sharing one table — whatever the previous
        /// entry and polygon left in it — with candidate lists that grow
        /// and shrink, an empty polygon in the group and apexes within
        /// ±2 margins of a Φ boundary, every answer equals the four-sided
        /// `polygon_within_phi` rule.
        #[test]
        fn tabled_shield_test_equals_the_four_sided_rule(
            seed in 0u64..1_000_000,
            n_polys in 1usize..7,
            n_cands in 1usize..14,
            steps in 2usize..8,
            with_empty in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            let (_, mut polys, mut candidates) = shield_instance(seed, n_polys, n_cands, 0);
            // One entry/candidate pair with apexes straddling its Φ boundary.
            let edge_mbr = {
                let x = rng.gen_range(6_000.0..9_000.0f64).round();
                let y = rng.gen_range(1_000.0..8_000.0f64).round();
                Rect::from_coords(x, y, x + 300.0, y + 400.0)
            };
            let edge_cand = Point::new(
                edge_mbr.lo.x - rng.gen_range(200.0..3_000.0f64).round(),
                edge_mbr.lo.y + rng.gen_range(0.0..400.0f64).round(),
            );
            for _ in 0..rng.gen_range(1..4) {
                let margin = shield_margin(&edge_mbr, &edge_mbr);
                let delta = f64::from(rng.gen_range(-2i32..=2)) * margin;
                let at = rng.gen_range(0..=polys.len());
                polys.insert(at, boundary_triangle(&edge_mbr, &edge_cand, delta));
            }
            let at = rng.gen_range(0..=candidates.len());
            candidates.insert(at, PointObject::new(1_000, edge_cand));
            if with_empty == 0 {
                let at = rng.gen_range(0..=polys.len());
                polys.insert(at, ConvexPolygon::empty());
            }
            let usable: Vec<u32> = (0..polys.len() as u32).collect();
            let refs: Vec<&ConvexPolygon> = polys.iter().collect();
            let mut bounds = vec![f64::NAN; 3];
            for step in 0..steps {
                let mbr = if step % 2 == 1 {
                    edge_mbr
                } else {
                    shield_instance(seed + step as u64, n_polys, 0, rng.gen_range(0..4)).0
                };
                // Candidate lists grow *and* shrink along the sequence.
                let cands = &candidates[..rng.gen_range(0..=candidates.len())];
                let (sides, margin) = (mbr.sides(), shield_margin(&mbr, &mbr));
                let probes = all_probes(&polys, &usable);
                let tabled = is_shielded_per_polygon(&sides, margin, probes, cands, &mut bounds);
                prop_assert_eq!(tabled, is_shielded_four_sided(&sides, margin, &refs, cands));
            }
        }
    }

    #[test]
    fn query_unrelated_to_dataset_returns_near_empty_candidates() {
        // A probe polygon far away from a tight data cluster: only the
        // cluster points nearest to the polygon can have cells reaching it.
        let mut p = Vec::new();
        let mut rng = StdRng::seed_from_u64(91);
        for _ in 0..500 {
            p.push(Point::new(
                1_000.0 + rng.gen_range(-50.0..50.0),
                1_000.0 + rng.gen_range(-50.0..50.0),
            ));
        }
        let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
        let t = ConvexPolygon::from_rect(&Rect::from_coords(9_000.0, 9_000.0, 9_200.0, 9_200.0));
        let (candidates, _) =
            filter_with(&mut rp, std::slice::from_ref(&t), &FilterOptions::default());
        // Only boundary points of the cluster (whose cells extend to the far
        // corner) should survive; certainly not the whole cluster.
        assert!(
            candidates.len() < 100,
            "got {} candidates",
            candidates.len()
        );
        // And it must still be a superset of the truth.
        let ids: Vec<u64> = candidates.iter().map(|c| c.id.0).collect();
        for joiner in oracle_joiners(&p, &[t]) {
            assert!(ids.contains(&joiner));
        }
    }

    /// Candidate ids in acceptance order.
    fn ids(candidates: &[PointObject]) -> Vec<u64> {
        candidates.iter().map(|c| c.id.0).collect()
    }

    /// The reference's outcome over a fresh tree of `p`.
    fn reference_over(
        p: &[Point],
        polys: &[ConvexPolygon],
        domain: &Rect,
    ) -> (Vec<PointObject>, FilterStats) {
        let mut rp = RTree::bulk_load(config(), PointObject::from_points(p));
        reference_filter(&mut rp, polys, domain)
    }

    #[test]
    fn every_grid_resolution_agrees_with_the_reference_and_clips_less() {
        let p = random_points(1_500, 95);
        let q = random_points(1_500, 96);
        let q_cells = brute_force_diagram(&q[..200], &Rect::DOMAIN);
        let group: Vec<ConvexPolygon> = q_cells[50..70].to_vec();
        let (ref_cands, ref_stats) = reference_over(&p, &group, &Rect::DOMAIN);
        assert_eq!(ref_stats.poly_tests_skipped, 0);
        for grid_resolution in [0usize, 1, 2, 7, 32, 100] {
            let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
            let (cands, stats) = filter_with(&mut rp, &group, &FilterOptions { grid_resolution });
            assert_eq!(
                ids(&cands),
                ids(&ref_cands),
                "resolution {grid_resolution} diverged"
            );
            assert_eq!(stats.points_examined, ref_stats.points_examined);
            assert_eq!(stats.entries_pruned, ref_stats.entries_pruned);
            assert!(stats.poly_tests_skipped > 0);
            // A 1×1 grid has one ring: only the cutoffs inside it save clips.
            assert!(
                stats.clip_ops < ref_stats.clip_ops,
                "resolution {grid_resolution}: {} clips vs the literal {}",
                stats.clip_ops,
                ref_stats.clip_ops
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The product equals Algorithm 5 read literally — candidates (set
        /// *and* order), points examined, entries pruned — for random point
        /// sets, polygon batches, domains and grid resolutions. Sites may
        /// sit on a 32 × 32 lattice of the domain, some points of `P` sit
        /// exactly on probe vertices and edge midpoints, and some repeat a
        /// site of `P` under a fresh id: the points the inside-point rule
        /// must leave to the cell test.
        #[test]
        fn product_equals_the_literal_algorithm_5(
            seed in 0u64..10_000,
            n_p in 40usize..600,
            n_q in 30usize..120,
            batch in 1usize..14,
            resolution_pick in 0usize..5,
            domain_pick in 0usize..3,
            lattice_pick in 0usize..2,
            on_probes in 0usize..40,
            duplicates in 0usize..20,
        ) {
            let domain = match domain_pick {
                0 => Rect::DOMAIN,
                1 => Rect::from_coords(-500.0, -250.0, 700.0, 450.0),
                _ => Rect::from_coords(2_000.0, 8_000.0, 2_400.0, 11_000.0),
            };
            // Every domain's sides are 32 exactly representable steps.
            let snap = |v: f64, lo: f64, hi: f64| {
                let step = (hi - lo) / 32.0;
                if lattice_pick == 1 { lo + ((v - lo) / step).round() * step } else { v }
            };
            let points_in = |n: usize, seed: u64| -> Vec<Point> {
                let mut rng = StdRng::seed_from_u64(seed);
                let (lo, hi) = (domain.lo, domain.hi);
                (0..n)
                    .map(|_| Point::new(
                        snap(rng.gen_range(lo.x..hi.x), lo.x, hi.x),
                        snap(rng.gen_range(lo.y..hi.y), lo.y, hi.y),
                    ))
                    .collect()
            };
            let q = points_in(n_q, 19_000 + seed);
            // Probe batch: exact Voronoi cells of a slice of Q — the polygon
            // shape every caller actually probes with.
            let cells = brute_force_diagram(&q, &domain);
            let start = (seed as usize) % (n_q - batch.min(n_q - 1));
            let polys: Vec<ConvexPolygon> = cells[start..start + batch.min(n_q - start)].to_vec();
            let mut p = points_in(n_p, 18_000 + seed);
            let on_boundary: Vec<Point> = polys
                .iter()
                .flat_map(|t| {
                    let v = t.vertices();
                    (0..v.len()).flat_map(move |i| [v[i], v[i].midpoint(&v[(i + 1) % v.len()])])
                })
                .collect();
            let mut rng = StdRng::seed_from_u64(20_000 + seed);
            let mut pick = |from: &[Point], k: usize| -> Vec<Point> {
                (0..k).map(|_| from[rng.gen_range(0..from.len())]).collect()
            };
            if !on_boundary.is_empty() {
                p.extend(pick(&on_boundary, on_probes));
            }
            let copies = pick(&p, duplicates);
            p.extend(copies);

            let options = FilterOptions { grid_resolution: [0usize, 1, 2, 9, 40][resolution_pick] };
            let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
            let scratch = &mut FilterScratch::default();
            let (cands, stats) =
                batch_conditional_filter_scratch(&mut rp, &polys, &domain, &options, scratch);
            let (ref_cands, ref_stats) = reference_over(&p, &polys, &domain);
            prop_assert_eq!(ids(&cands), ids(&ref_cands));
            prop_assert_eq!(stats.points_examined, ref_stats.points_examined);
            prop_assert_eq!(stats.entries_pruned, ref_stats.entries_pruned);
        }
    }
}
