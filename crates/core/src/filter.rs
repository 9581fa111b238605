//! The conditional filter of NM-CIJ (Algorithm 5 and its batch variant),
//! evaluated sub-quadratically through an exact triangulation of the
//! candidates and a grid index of the probes.
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
//! candidates in an exact Delaunay triangulation ([`cij_geom::Delaunay`]),
//! grown as they join, and the probe polygons' bounding boxes in an overlap
//! index ([`cij_geom::RectGrid`]) instead: each examined point clips only
//! against the candidates it would share a Delaunay edge with, and each
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
//! cell test alone; only [`FilterStats::clip_ops`] and
//! [`FilterStats::clip_attempts`] (down) and
//! [`FilterStats::poly_tests_skipped`] (the containment query's skips) show
//! the rule.
//!
//! # Why the Delaunay neighbours suffice
//!
//! In exact arithmetic the cell of `p` among `CP ∪ {p}` is the plane cut by
//! the bisectors of `p`'s neighbours in the Delaunay triangulation
//! `DT(CP ∪ {p})` alone: every Voronoi edge of positive length separates
//! two sites that share a Delaunay edge, and any other candidate's bisector
//! meets the cell at most in a vertex, so its clip removes nothing. That
//! cell is `V(p, CP)`, the literal reading's — a candidate at `p`'s own
//! location has a degenerate bisector, which cuts nothing. Those neighbours
//! are the boundary of the cavity that inserting `p` into `DT(CP)` would
//! open, and [`Delaunay::dig`] lists them without inserting `p`. The
//! triangulation's predicates are exact, so the lists are exact on every
//! input; every cut is still the tolerant
//! [`ConvexPolygon::clip_in_place`].
//!
//! * **Corners first, the cavity only if needed.** The walk that locates
//!   `p` ([`Delaunay::locate`]) ends at a triangle in conflict with `p`, so
//!   each of its corners is a neighbour. They are clipped first, nearest
//!   first. If the cell empties, `p` is rejected and no cavity is dug —
//!   far points, whose cells leave the seed after a cut or two, are most of
//!   the points examined. If the *corner cell* left is open but meets no
//!   probe polygon under the very test the final cell gets, `p` is
//!   rejected there too: no dig, no undig, no moved-bisector pass, no
//!   further clip. The corner cell is the seed cut by a subset of the final
//!   cell's bisectors, so it contains the final cell up to the rounding of
//!   the crossings, far below the tolerance, and a cell inside one that
//!   misses every probe misses them too. A decision could differ only for
//!   a near miss at the edge of the tolerance band, which the contract of
//!   `cij_geom` ("Tolerance policy") leaves open, and never on lattice
//!   inputs, whose contacts are exact. On the uniform join of
//!   `tests/filter_kernel.rs` the bisectors offered per examined point fell
//!   from 2.35 to 1.79. Otherwise the cavity is dug, the other neighbours
//!   are clipped, nearest first, ties by location number, until the cell
//!   empties or they run out, and the final cell is tested.
//! * **A joiner is inserted; a rejected point is not.** A point that joins
//!   commits the cavity already dug ([`Delaunay::commit`]); a rejected one
//!   drops it ([`Delaunay::undig`]). A point that joins by the inside-point
//!   rule is located, dug and committed once.
//! * **Bisectors that rounding moved.** The argument takes each bisector as
//!   the exact line; for candidates a relative 1e-15 apart the computed one
//!   is off it by more than the group. A neighbour whose rounded bisector
//!   misses the sites' midpoint brings its own neighbours, transitively
//!   ([`Delaunay::extend_past_moved_bisectors`]) — BatchVoronoi's seeding
//!   rule, argued in [`cij_voronoi::batch`].
//! * **Repeated locations.** Candidates at one location are one vertex:
//!   they share their neighbours, and their bisectors with `p` are one
//!   line, clipped once. A point at a candidate's location is located as
//!   that vertex; its cell is cut by the vertex's neighbours, and it is not
//!   inserted when it joins.
//! * **Degenerate prefixes.** Until the candidates hold three locations
//!   that are not collinear there is no triangle, and every candidate is
//!   clipped — a handful, or a collinear run. The first candidate off the
//!   line starts the triangulation and the held ones are inserted behind
//!   it.
//! * **The walk starts in `p`'s octant.** Points pop in nondecreasing
//!   distance from the traversal centroid, so every candidate lies within
//!   `p`'s distance of it, and so does their hull: `p` lies outside it or
//!   on its boundary, and consecutive pops sit at unrelated angles. A walk
//!   from the last insertion would cross the triangulation. It starts
//!   instead from the last triangle located in `p`'s octant around the
//!   centroid (eight slots, reset per call), a step or two from `p`.
//!
//! Skipped clips are no-ops, so the candidate set — and its order, and the
//! traversal — is the one the literal reading produces (a proptest in this
//! module compares the two, and an `#[ignore]`d stress range compares it
//! with the nearest-first ring walk the triangulation replaced); only
//! [`FilterStats::clip_ops`], [`FilterStats::clip_attempts`] and
//! [`FilterStats::poly_tests_skipped`] tell them apart.
//!
//! Two invariants keep the cells small and the shield test cheap, and each
//! leaves every decision of the traversal where it was:
//!
//! 1. **Bounded seed.** Every approximate cell starts from the seed: `B`,
//!    the union of the probe polygons' bounding boxes, each widened by its
//!    distance threshold ([`cij_geom::tolerance::widened`]), widened once
//!    more by `B`'s own threshold and cut to the domain — not the whole
//!    domain. A cell is only ever asked whether it meets a probe polygon
//!    `T`, every `T` lies in the seed with its tolerance to spare and every
//!    cell in the domain, so `(cell ∩ seed) ∩ T = cell ∩ T`: the answer is
//!    the same, while the cell of a far point empties at its first cuts —
//!    usually the corners of its located triangle, before any cavity.
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
//! 2. **One shield decision, priced once per entry.** Pruning discards, so
//!    it fires only strictly inside Φ (crate `cij_geom`, "Tolerance
//!    policy"): ingredient 3 accepts a vertex `b` of `T` for side `L` and
//!    candidate `p` when `dist²(b, p) < fl(mindist²(L, b) − μ)`, where the
//!    margin `μ` is [`sq_margin`] of the squared magnitude of the entry and
//!    the group, computed once per entry. It prunes an entry when every
//!    polygon has some candidate accepting all its vertices for all four
//!    sides. A polygon that touches Φ's boundary — a point under the entry
//!    whose cell would meet it in one location — is never pruned. Three
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
//!    * *The last shield first.* Each probe polygon remembers the
//!      candidate that shielded it last, and the per-polygon rule tries
//!      that one first; the group-level test likewise remembers the
//!      candidate that last shielded the whole group. Consecutive entries
//!      are neighbours in the tree, and a candidate that shielded a polygon
//!      — or the group — from one usually shields it from the next. Both
//!      rules only ask whether *some* candidate shields, so the order of the
//!      tries decides nothing and no counter moves.
//!
//!    [`FilterStats::entries_pruned`] and the traversal are unchanged by
//!    all three; the four-sided rule is the reference the tests compare
//!    against.
//!
//! # Regions and their pieces
//!
//! From its second extension round on, a multiway leaf probes its live
//! partial regions: each driver member's seed cell cut into one piece per
//! tuple the member still leads — many more polygons than members. The
//! two-level entry takes the seed cells of the members with live partials
//! as its **regions** and the partial regions as their **pieces**
//! (`Pieces`: contiguous per region, each run naming its region).
//!
//! *The covering argument.* In exact arithmetic a region is the union of
//! its pieces. The pieces were cut from it by the cells of the sets probed
//! so far; those cells tile the domain, the filter returned every cell that
//! meets a piece, and narrowing kept every non-empty intersection. So a
//! point lies strictly inside some region exactly when it lies inside
//! some piece, up to the pieces' shared boundaries; a cell or a node meets
//! a region exactly when it meets one of its pieces; and the regions'
//! boxes have the pieces' union for their union. Every question
//! the pieces answered is therefore asked of the regions: the inside-point
//! rule, the cell's "meets a probe" and the node's "touches a probe" tests,
//! the polygon index, the seed box `B` and the group-level shield corners
//! are the regions'. An answer can differ only inside the tolerance band of
//! a boundary.
//!
//! Two things stay with the pieces, and they keep the result the one the
//! pieces alone would give:
//!
//! * **The traversal centroid** is the centroid of the pieces' centroids,
//!   as before. The pop order, and with it the order of the candidates and
//!   of the tuples narrowed from them, is therefore unchanged; the regions'
//!   centroid would move it.
//! * **The shield's fallback.** A region is shielded when one candidate
//!   holds each of its vertices `v` at `dist²(v, p) < fl(m(v) − 2μ)`: this
//!   is the group-level argument of invariant 2. The accepted set is
//!   convex and each piece lies in its region up to the rounding of its
//!   clips, far below `μ`, so every vertex of every piece then passes the
//!   per-polygon rule at `μ`. A region that fails falls back to its
//!   pieces, each of which must pass that rule on its own, each with its
//!   own last-shield hint. A shield decision is thus the pieces' own.
//!
//! So the candidates can differ from the pieces' own only by false hits
//! decided inside the tolerance band, which narrowing drops; the
//! statistics move only there, except [`FilterStats::poly_tests_skipped`],
//! which always falls because the index holds fewer polygons. NM-CIJ and
//! the first extension round pass no pieces and run the one-level filter.

use crate::config::FilterKernel;
use cij_geom::tolerance::{rect_magnitude, sq_margin, widened};
use cij_geom::{
    orient2d, ClipScratch, ConvexPolygon, Delaunay, HalfPlane, Point, Rect, RectGrid, Segment,
};
use cij_rtree::{LeafLayout, NodeArena, NodeReader, PointObject, TraversalEntry, TraversalQueue};
use std::cell::Cell;

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
    /// Bisectors offered to approximate cells, whether they cut or not:
    /// [`clip_ops`](Self::clip_ops) plus the offers that left the cell as
    /// it was.
    pub clip_attempts: u64,
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
        self.clip_attempts += other.clip_attempts;
        self.poly_tests_skipped += other.poly_tests_skipped;
    }
}

/// Execution options of one (batch) conditional-filter invocation. The
/// filter has none left; the type keeps the entry point's signature.
#[derive(Debug, Clone, Copy, Default)]
pub struct FilterOptions {}

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
/// polygon, the candidates' triangulation, the probe index and the
/// traversal's own working storage. Allocate one per worker, reuse it
/// across every filter invocation the worker issues: each call clears what
/// it uses instead of rebuilding it. Contents between calls are
/// unspecified.
#[derive(Debug, Default)]
pub struct FilterScratch {
    /// SoA node decode target.
    pub arena: NodeArena,
    /// Polygon clipping ping-pong buffers.
    pub clip: ClipScratch,
    /// The working approximate cell of the currently examined point.
    pub cell: ConvexPolygon,
    /// The candidates' triangulation: emptied per call, its buffers kept.
    mesh: CandidateMesh,
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
    /// Per usable polygon, the candidate that shielded it last.
    last_shields: Vec<Cell<u32>>,
    /// The candidate that last shielded the whole group at once.
    last_group_shield: Cell<u32>,
    /// Per piece of a two-level call, the candidate that shielded it last.
    piece_shields: Vec<Cell<u32>>,
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

/// The pieces of a two-level probe (module docs, "Regions and their
/// pieces"): polygons that are contiguous per region, each run lying in
/// the region it names.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pieces<'a> {
    pub(crate) polys: &'a [ConvexPolygon],
    /// Per run, in `polys` order: the index of its region in the call's
    /// region slice, and the end of the run in `polys` (each run starts
    /// where the one before it ends, the first at 0).
    pub(crate) runs: &'a [(u32, u32)],
}

/// The non-empty probe polygons of one call: the caller's slice seen
/// through the positions of its usable members, with the shield test's
/// memory of each, and the pieces of each when the call has them.
#[derive(Clone, Copy)]
struct Probes<'a> {
    polys: &'a [ConvexPolygon],
    usable: &'a [u32],
    /// Per usable polygon, the index of the candidate that shielded it last
    /// (module docs, invariant 2); a hint only. The test helpers pass none,
    /// and each polygon then gets a throwaway one.
    last_shields: &'a [Cell<u32>],
    /// The pieces of a two-level call, or no polygons.
    pieces: &'a [ConvexPolygon],
    /// [`Pieces::runs`], aligned with `usable`; empty when the call has no
    /// pieces.
    runs: &'a [(u32, u32)],
    /// Per piece, the candidate that shielded it last.
    piece_shields: &'a [Cell<u32>],
}

impl<'a> Probes<'a> {
    fn get(&self, i: usize) -> &'a ConvexPolygon {
        &self.polys[self.usable[i] as usize]
    }

    fn iter(&self) -> impl Iterator<Item = &'a ConvexPolygon> + 'a {
        let polys = self.polys;
        self.usable.iter().map(move |&i| &polys[i as usize])
    }

    /// The pieces of usable polygon `i` with their last-shield hints, or
    /// `None` when the call has no pieces.
    fn pieces_of(&self, i: usize) -> Option<(&'a [ConvexPolygon], &'a [Cell<u32>])> {
        let &(_, end) = self.runs.get(i)?;
        let start = i.checked_sub(1).map_or(0, |before| self.runs[before].1);
        let run = start as usize..end as usize;
        Some((&self.pieces[run.clone()], &self.piece_shields[run]))
    }

    /// The polygons the traversal centroid is taken from: each usable
    /// polygon's pieces, or the polygon itself when the call has none.
    fn walk_polys(&self) -> impl Iterator<Item = &'a ConvexPolygon> + '_ {
        (0..self.usable.len()).flat_map(move |i| match self.pieces_of(i) {
            Some((pieces, _)) => pieces,
            None => std::slice::from_ref(self.get(i)),
        })
    }
}

/// Runs the (batch) conditional filter: returns every point of `P` whose
/// Voronoi cell may intersect at least one polygon of `polys`, plus filter
/// statistics. With a single polygon this is exactly Algorithm 5; with
/// several it is the BatchConditionalFilter of Section IV-A.
///
/// [`FilterOptions`] carries no option. Generic over [`NodeReader`], so the
/// same traversal runs in counted mode (`&mut RTree`) and over the snapshot
/// readers chunk workers use ([`cij_rtree::SnapshotReader`]).
///
/// Writes through a caller-owned [`FilterScratch`]: the traversal queue, the
/// polygon tables, the probe index and the candidates' triangulation are
/// the scratch's, cleared and refilled per call, nodes decode into
/// `scratch.arena` and approximate cells are computed in `scratch.cell` via
/// the in-place clipping kernels — so a worker that keeps one scratch alive
/// allocates only the four-vertex seed box and the candidate list it
/// returns.
pub fn batch_conditional_filter_scratch<T: NodeReader<PointObject>>(
    rp: &mut T,
    polys: &[ConvexPolygon],
    domain: &Rect,
    _options: &FilterOptions,
    scratch: &mut FilterScratch,
) -> (Vec<PointObject>, FilterStats) {
    two_level_filter(rp, polys, None, domain, scratch)
}

/// The filter of [`batch_conditional_filter_scratch`] over `regions`, each
/// standing for its own `pieces` when there are any (module docs, "Regions
/// and their pieces"): every piece must lie in the region its run names,
/// and the pieces of each region must cover it. Returns the candidates the
/// pieces would get, up to decisions in the tolerance band, in the order
/// they would get them. Without pieces it is
/// [`batch_conditional_filter_scratch`] itself.
pub(crate) fn two_level_filter<T: NodeReader<PointObject>>(
    rp: &mut T,
    regions: &[ConvexPolygon],
    pieces: Option<Pieces<'_>>,
    domain: &Rect,
    scratch: &mut FilterScratch,
) -> (Vec<PointObject>, FilterStats) {
    let mut stats = FilterStats::default();
    let mut candidates: Vec<PointObject> = Vec::new();
    let FilterScratch {
        arena,
        clip,
        cell,
        mesh,
        queue,
        usable,
        centers,
        poly_bboxes,
        polyidx,
        shield_bounds,
        last_shields,
        last_group_shield,
        piece_shields,
    } = scratch;
    usable.clear();
    piece_shields.clear();
    match pieces {
        None => {
            usable.extend((0..regions.len() as u32).filter(|&r| !regions[r as usize].is_empty()))
        }
        Some(pieces) => {
            // A region with pieces is not empty: they lie in it.
            usable.extend(pieces.runs.iter().map(|&(r, _)| r));
            debug_assert!(usable.iter().all(|&r| !regions[r as usize].is_empty()));
            piece_shields.resize(pieces.polys.len(), Cell::new(u32::MAX));
        }
    }
    if rp.is_empty() || usable.is_empty() {
        return (candidates, stats);
    }
    last_shields.clear();
    last_shields.resize(usable.len(), Cell::new(u32::MAX));
    last_group_shield.set(u32::MAX);
    let probes = Probes {
        polys: regions,
        usable,
        last_shields,
        pieces: pieces.map_or(&[], |p| p.polys),
        runs: pieces.map_or(&[], |p| p.runs),
        piece_shields,
    };

    // Reference point for the traversal order: centroid of the polygons'
    // centroids — the pieces' when there are any.
    centers.clear();
    centers.extend(probes.walk_polys().filter_map(|t| t.centroid()));
    let centroid = Point::centroid(centers).unwrap_or_else(|| domain.center());

    // Widened bounding boxes of the polygons, for the cheap "does e
    // intersect some T" tests, which must keep every contact the polygon
    // test keeps.
    poly_bboxes.clear();
    poly_bboxes.extend(probes.iter().map(|t| widened(&t.bbox())));
    let poly_bboxes = &poly_bboxes[..];

    // The probe group's bounds `B`: the union of those boxes, cut to the
    // domain. Every approximate cell is seeded from it widened once more
    // (module docs, invariant 1).
    let group_bbox = poly_bboxes
        .iter()
        .fold(Rect::empty(), |acc, bb| acc.union(bb));
    let bound = domain.intersection(&group_bbox).unwrap_or(*domain);
    let seed = ConvexPolygon::from_rect(&seed_box(domain, &group_bbox));

    mesh.reset(centroid);
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
                let mut dug = false;
                let joins = inside || {
                    cell.clone_from(&seed);
                    let meets = |cell: &ConvexPolygon, stats: &mut FilterStats| {
                        let cbb = widened(&cell.bbox());
                        any_indexed(polyidx, &cbb, stats, |i| {
                            cbb.intersects(&poly_bboxes[i]) && cell.intersects(probes.get(i))
                        })
                    };
                    let joins;
                    (joins, dug) = mesh.decide(at, &candidates, &mut stats, cell, clip, meets);
                    joins
                };
                if joins {
                    candidates.push(p);
                    mesh.join(&candidates, dug);
                } else if dug {
                    mesh.delaunay.undig();
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
                    && is_shielded(
                        &mbr,
                        &group_bbox,
                        probes,
                        &candidates,
                        shield_bounds,
                        last_group_shield,
                    )
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

/// The candidates of one call, triangulated as they join, and the working
/// storage of the approximate cells cut from that triangulation (module
/// docs, "Why the Delaunay neighbours suffice").
#[derive(Debug, Default)]
struct CandidateMesh {
    /// The candidates' distinct locations; empty until three of them are
    /// not collinear, and the candidates are held until then.
    delaunay: Delaunay,
    /// While held: the first candidate at a location other than the first
    /// candidate's.
    second: Option<usize>,
    /// The traversal centroid, and per octant around it the last triangle
    /// a walk located.
    centroid: Point,
    starts: [u32; 8],
    /// The locations whose bisectors the cell being computed is offered,
    /// and those about to be offered with their squared distances.
    reached: Vec<u32>,
    by_distance: Vec<(f64, u32)>,
}

impl CandidateMesh {
    /// Empties the mesh for a call whose traversal is centred on `centroid`.
    fn reset(&mut self, centroid: Point) {
        self.delaunay.clear();
        self.second = None;
        self.centroid = centroid;
    }

    /// The walk's start for `p`: the last triangle located in `p`'s octant
    /// around the centroid.
    fn start(&mut self, p: &Point) -> &mut u32 {
        let (dx, dy) = (p.x - self.centroid.x, p.y - self.centroid.y);
        let octant = usize::from(dx < 0.0)
            | usize::from(dy < 0.0) << 1
            | usize::from(dx.abs() < dy.abs()) << 2;
        &mut self.starts[octant]
    }

    /// Whether `p` joins: cuts `cell`, holding the seed, down to the
    /// approximate cell of `p` among `candidates` and asks `meets` whether
    /// it meets a probe polygon — first of the corner cell, which rejects
    /// `p` without a cavity when it meets none (module docs, "Corners
    /// first"). Returns that answer, and whether `p`'s cavity is left dug,
    /// for [`CandidateMesh::join`] to commit or the caller to undig.
    fn decide(
        &mut self,
        p: &Point,
        candidates: &[PointObject],
        stats: &mut FilterStats,
        cell: &mut ConvexPolygon,
        clip: &mut ClipScratch,
        mut meets: impl FnMut(&ConvexPolygon, &mut FilterStats) -> bool,
    ) -> (bool, bool) {
        if cell.is_empty() || candidates.is_empty() {
            return (meets(cell, stats), false);
        }
        if self.delaunay.location_count() == 0 {
            // Every candidate, until the cell empties.
            candidates
                .iter()
                .any(|c| offer(cell, p, &c.point, stats, clip));
            return (meets(cell, stats), false);
        }
        self.reached.clear();
        let start = *self.start(p);
        let (vertex, applied) = match self.delaunay.locate(p, start) {
            Ok(v) => {
                self.reached.extend(self.delaunay.neighbours(v));
                (Some(v), 0)
            }
            Err(t) => {
                *self.start(p) = t;
                self.reached.extend(self.delaunay.corners(t));
                if self.clip_nearest_first(0, p, stats, cell, clip) || !meets(cell, stats) {
                    return (false, false);
                }
                let corners = self.reached.len();
                for w in self.delaunay.dig(p, t) {
                    if !self.reached[..corners].contains(&w) {
                        self.reached.push(w);
                    }
                }
                (None, corners)
            }
        };
        (self.delaunay).extend_past_moved_bisectors(p, vertex, &mut self.reached);
        self.clip_nearest_first(applied, p, stats, cell, clip);
        (meets(cell, stats), vertex.is_none())
    }

    /// Clips `cell` with the bisectors of `p` and the locations
    /// `reached[from..]`, nearest first, ties by location number, until
    /// the cell empties. Returns whether it did.
    fn clip_nearest_first(
        &mut self,
        from: usize,
        p: &Point,
        stats: &mut FilterStats,
        cell: &mut ConvexPolygon,
        clip: &mut ClipScratch,
    ) -> bool {
        let delaunay = &self.delaunay;
        self.by_distance.clear();
        (self.by_distance).extend(
            self.reached[from..]
                .iter()
                .map(|&w| (delaunay.location(w).dist_sq(p), w)),
        );
        (self.by_distance).sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        (self.by_distance.iter()).any(|&(_, w)| offer(cell, p, &delaunay.location(w), stats, clip))
    }

    /// Records the last of `candidates`, which just joined; `dug` says
    /// whether its cavity is dug already.
    fn join(&mut self, candidates: &[PointObject], dug: bool) {
        let k = candidates.len() - 1;
        let at = candidates[k].point;
        if self.delaunay.location_count() > 0 {
            self.insert(&at, dug);
            return;
        }
        let first = candidates[0].point;
        let Some(second) = self.second else {
            if at != first {
                self.second = Some(k);
            }
            return;
        };
        if orient2d(&first, &candidates[second].point, &at) != 0.0 {
            self.delaunay.begin(first, candidates[second].point, at);
            self.starts = [0; 8];
            for c in &candidates[1..k] {
                self.insert(&c.point, false);
            }
        }
    }

    /// Inserts `p` unless it repeats a location: commits its cavity when
    /// `dug`, else locates and digs it first.
    fn insert(&mut self, p: &Point, dug: bool) {
        if !dug {
            let start = *self.start(p);
            let Err(t) = self.delaunay.locate(p, start) else {
                return;
            };
            *self.start(p) = t;
            self.delaunay.dig(p, t).for_each(drop);
        }
        self.delaunay.commit(*p);
    }
}

/// Offers the bisector of `p` and `c` to `cell` and returns whether the
/// cell is now empty.
fn offer(
    cell: &mut ConvexPolygon,
    p: &Point,
    c: &Point,
    stats: &mut FilterStats,
    clip: &mut ClipScratch,
) -> bool {
    stats.clip_attempts += 1;
    if !cell.clip_in_place(&HalfPlane::bisector(p, c), clip) {
        return false;
    }
    stats.clip_ops += 1;
    cell.is_empty()
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
/// shields the whole group at once (module docs, invariant 2) — the common
/// case for entries far from the group; the one `last` names, which did so
/// last, is tried first, and `last` is set to the one that does. Otherwise
/// the per-polygon rule decides.
fn is_shielded(
    mbr: &Rect,
    group: &Rect,
    probes: Probes<'_>,
    candidates: &[PointObject],
    bounds: &mut Vec<f64>,
    last: &Cell<u32>,
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
    let shields_group = |p: &PointObject| {
        (corners.iter().zip(&to_entry)).all(|(b, &bound)| b.dist_sq(&p.point) < bound)
    };
    any_remembered_first(candidates, last, shields_group)
        || is_shielded_per_polygon(&sides, margin, probes, candidates, bounds)
}

/// Whether some candidate passes `test`, trying first the one `last` names
/// — a hint only, any value will do — and setting `last` to the one found.
fn any_remembered_first(
    candidates: &[PointObject],
    last: &Cell<u32>,
    test: impl Fn(&PointObject) -> bool,
) -> bool {
    if candidates.get(last.get() as usize).is_some_and(&test) {
        return true;
    }
    let found = candidates.iter().position(test);
    if let Some(i) = found {
        last.set(i as u32);
    }
    found.is_some()
}

/// The margin `μ` of the shield decisions about the entry `mbr` and the
/// polygons inside `group` (module docs, invariant 2).
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
/// regions of all `sides` contain it by `margin`. A region with pieces is
/// shielded when one candidate holds it by `2 · margin`, which implies
/// that each of its pieces is held by `margin`, or else when each piece is
/// held by `margin` on its own (module docs, "Regions and their pieces").
/// `bounds` is working storage.
fn is_shielded_per_polygon(
    sides: &[Segment; 4],
    margin: f64,
    probes: Probes<'_>,
    candidates: &[PointObject],
    bounds: &mut Vec<f64>,
) -> bool {
    // Without a memory slice each polygon gets a throwaway one.
    let spare = Cell::new(u32::MAX);
    (probes.iter().enumerate()).all(|(i, t)| {
        let last = probes.last_shields.get(i).unwrap_or(&spare);
        let Some((pieces, hints)) = probes.pieces_of(i) else {
            return polygon_shielded(sides, margin, t, candidates, bounds, last);
        };
        polygon_shielded(sides, 2.0 * margin, t, candidates, bounds, last)
            || (pieces.iter().zip(hints)).all(|(piece, hint)| {
                polygon_shielded(sides, margin, piece, candidates, bounds, hint)
            })
    })
}

/// Whether some candidate holds every vertex of `t` in its Φ regions of all
/// four `sides`: `dist²(v, p) < fl(m(v) − margin)` with `m(v)` the
/// entry-side bound [`entry_mindist_sq`], tabulated once per entry in
/// `bounds` — the four-sided [`cij_geom::polygon_within_phi`] rule, priced
/// per entry instead of per candidate (module docs, invariant 2). The
/// candidate `last` names, which shielded `t` last, is tried first, and
/// `last` is set to the one that shields.
fn polygon_shielded(
    sides: &[Segment; 4],
    margin: f64,
    t: &ConvexPolygon,
    candidates: &[PointObject],
    bounds: &mut Vec<f64>,
    last: &Cell<u32>,
) -> bool {
    if t.is_empty() {
        // An empty region certifies nothing (`polygon_within_phi`).
        return false;
    }
    let vertices = t.vertices();
    bounds.clear();
    bounds.extend(vertices.iter().map(|v| entry_mindist_sq(sides, v) - margin));
    let shields = |p: &PointObject| {
        (vertices.iter().zip(bounds.iter())).all(|(v, &bound)| v.dist_sq(&p.point) < bound)
    };
    any_remembered_first(candidates, last, shields)
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

/// The references [`batch_conditional_filter_scratch`] is tested against
/// ([`reference_filter`]).
#[cfg(test)]
#[derive(Clone, Copy)]
enum Reference {
    /// Algorithm 5 read literally: each examined point's [`literal_cell`].
    Literal,
    /// The filter the triangulation replaced: the inside-point rule, then
    /// the [`ring_walk_cell`].
    RingWalk,
}

/// Algorithm 5's approximate cell read literally: clipped against **every**
/// candidate found so far, in acceptance order, with the allocating
/// [`ConvexPolygon::clip_bisector`].
#[cfg(test)]
fn literal_cell(
    seed: &ConvexPolygon,
    p: &PointObject,
    candidates: &[PointObject],
    stats: &mut FilterStats,
) -> ConvexPolygon {
    let mut cell = seed.clone();
    for c in candidates.iter().filter(|c| c.id != p.id) {
        cell = cell.clip_bisector(&p.point, &c.point);
        stats.clip_ops += 1;
        if cell.is_empty() {
            break;
        }
    }
    cell
}

/// The approximate cell of the ring walk the triangulation replaced,
/// without its grid: the candidates nearest first (ties in acceptance
/// order), each bisector clipped in place, until the next candidate lies
/// beyond twice the cell's reach ([`cij_voronoi::cell_reach_sq`]), past
/// which no bisector cuts.
#[cfg(test)]
fn ring_walk_cell(
    seed: &ConvexPolygon,
    p: &PointObject,
    candidates: &[PointObject],
    stats: &mut FilterStats,
) -> ConvexPolygon {
    let at = &p.point;
    let mut near: Vec<&PointObject> = candidates.iter().filter(|c| c.id != p.id).collect();
    near.sort_by(|a, b| a.point.dist_sq(at).total_cmp(&b.point.dist_sq(at)));
    let mut cell = seed.clone();
    let scratch = &mut ClipScratch::default();
    for c in near {
        let reach_sq = cij_voronoi::cell_reach_sq(at, &cell);
        if cell.is_empty() || c.point.dist_sq(at) > 4.0 * reach_sq {
            break;
        }
        if cell.clip_in_place(&HalfPlane::bisector(at, &c.point), scratch) {
            stats.clip_ops += 1;
        }
    }
    cell
}

/// The filter as a `reference` decides each point: best-first over owned
/// nodes, linear scans over the probe polygons, the four-sided shield rule.
/// It shares the seed (module docs, invariant 1) and the queue type with
/// the product and none of its indexes or scratch.
#[cfg(test)]
fn reference_filter<T: NodeReader<PointObject>>(
    rp: &mut T,
    polys: &[ConvexPolygon],
    domain: &Rect,
    reference: Reference,
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
                let at = &p.point;
                let joins = match reference {
                    Reference::Literal => {
                        let cell = literal_cell(&seed, &p, &candidates, &mut stats);
                        probes.iter().any(|t| cell.intersects(t))
                    }
                    Reference::RingWalk => {
                        let bound = domain.intersection(&group).unwrap_or(*domain);
                        (bound.contains_point(at)
                            && probes.iter().any(|t| t.strictly_contains_point(at)))
                            || {
                                let cell = ring_walk_cell(&seed, &p, &candidates, &mut stats);
                                probes.iter().any(|t| cell.intersects(t))
                            }
                    }
                };
                if joins {
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

/// A near-degenerate site set at scale `s` over the domain
/// `[0, 64·s]²`: lattice sites nudged by a few ulps, and by `kind`
/// nothing more (0), repeats of some sites under fresh ids (1), first a
/// collinear run through `centre`, some of it repeated (2) — with
/// `centre` the probes' centroid, the filter's first candidates — or up
/// to four nudged copies of each lattice site (3), whose bisectors
/// rounding moves off their sites' midpoints. The filter's and the
/// multiway join's stress ranges draw from it.
#[cfg(test)]
pub(crate) fn near_degenerate_sites(
    rng: &mut rand::rngs::StdRng,
    s: f64,
    n: usize,
    kind: usize,
    centre: Point,
) -> Vec<Point> {
    use rand::{rngs::StdRng, Rng};
    let nudge = |rng: &mut StdRng, v: f64| match rng.gen_range(0..3) {
        0 if v != 0.0 => f64::from_bits(v.to_bits() + rng.gen_range(1..4u64)),
        1 if v != 0.0 => f64::from_bits(v.to_bits() - rng.gen_range(1..4u64)),
        _ => v,
    };
    let lattice = |rng: &mut StdRng| f64::from(rng.gen_range(0..=64u32)) * s;
    let mut p: Vec<Point> = Vec::with_capacity(n + n / 4);
    if kind == 2 {
        let run = rng.gen_range(3..12);
        p.extend((0..run).map(|i| Point::new(centre.x + f64::from(i % 5) * 0.25 * s, centre.y)));
    }
    while p.len() < n {
        let (x, y) = (lattice(rng), lattice(rng));
        let copies = if kind == 3 { rng.gen_range(1..5) } else { 1 };
        for _ in 0..copies {
            p.push(Point::new(nudge(rng, x), nudge(rng, y)));
        }
    }
    if kind == 1 {
        for _ in 0..n / 4 {
            p.push(p[rng.gen_range(0..p.len())]);
        }
    }
    p
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
            clip_attempts: 12,
            poly_tests_skipped: 7,
        });
        total.absorb(&FilterStats {
            points_examined: 5,
            entries_pruned: 2,
            clip_ops: 4,
            clip_attempts: 9,
            poly_tests_skipped: 1,
        });
        assert_eq!(total.points_examined, 8);
        assert_eq!(total.entries_pruned, 3);
        assert_eq!(total.clip_ops, 14);
        assert_eq!(total.clip_attempts, 21);
        assert_eq!(total.poly_tests_skipped, 8);
    }

    #[test]
    fn shield_test_requires_candidates() {
        let mbr = Rect::from_coords(9_000.0, 9_000.0, 9_100.0, 9_100.0);
        let t = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 100.0, 100.0));
        let group = t.bbox();
        let polys = [t];
        let probes = all_probes(&polys, &[0]);
        let (bounds, last) = (&mut Vec::new(), &Cell::new(u32::MAX));
        assert!(!is_shielded(&mbr, &group, probes, &[], bounds, last));
        let shield = PointObject::new(0, Point::new(4_000.0, 4_000.0));
        assert!(is_shielded(&mbr, &group, probes, &[shield], bounds, last));
    }

    /// Every polygon of `polys` as a probe, empty ones included (`usable`
    /// must be `0..polys.len()`), with no shield memory.
    fn all_probes<'a>(polys: &'a [ConvexPolygon], usable: &'a [u32]) -> Probes<'a> {
        assert!(usable.iter().map(|&i| i as usize).eq(0..polys.len()));
        Probes {
            polys,
            usable,
            last_shields: &[],
            pieces: &[],
            runs: &[],
            piece_shields: &[],
        }
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
                &Cell::new(u32::MAX),
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The last-shield memories — per polygon and for the whole group —
        /// never change a shield decision: over a sequence of entries
        /// sharing them — whatever earlier entries and candidate lists that
        /// grow and shrink left in them, and garbage to start with —
        /// `is_shielded` and the per-polygon rule both equal the four-sided
        /// rule.
        #[test]
        fn remembered_shields_equal_the_four_sided_rule(
            seed in 0u64..1_000_000,
            n_polys in 1usize..7,
            n_cands in 1usize..14,
            steps in 2usize..10,
        ) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x1A57);
            let (mbr, polys, candidates) = shield_instance(seed, n_polys, n_cands, 0);
            let usable: Vec<u32> = (0..polys.len() as u32).collect();
            let last_shields: Vec<Cell<u32>> =
                polys.iter().map(|_| Cell::new(rng.gen_range(0..20))).collect();
            let probes = Probes { last_shields: &last_shields, ..all_probes(&polys, &usable) };
            let refs: Vec<&ConvexPolygon> = polys.iter().collect();
            let group = polys.iter().fold(Rect::empty(), |acc, t| acc.union(&t.bbox()));
            let bounds = &mut Vec::new();
            let last_group = &Cell::new(rng.gen_range(0..20));
            for step in 0..steps {
                // Every other entry is the first again, where the memories
                // name the candidates that shielded it.
                let mbr = match step % 2 {
                    0 => mbr,
                    _ => shield_instance(seed + step as u64, n_polys, 0, rng.gen_range(0..4)).0,
                };
                let cands = &candidates[..rng.gen_range(0..=candidates.len())];
                let (sides, margin) = (mbr.sides(), shield_margin(&mbr, &group));
                let plain = is_shielded_four_sided(&sides, margin, &refs, cands);
                let per_polygon = is_shielded_per_polygon(&sides, margin, probes, cands, bounds);
                prop_assert_eq!(per_polygon, plain);
                let shielded = is_shielded(&mbr, &group, probes, cands, bounds, last_group);
                prop_assert_eq!(shielded, plain);
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

    /// The literal reference's outcome over a fresh tree of `p`.
    fn reference_over(
        p: &[Point],
        polys: &[ConvexPolygon],
        domain: &Rect,
    ) -> (Vec<PointObject>, FilterStats) {
        let mut rp = RTree::bulk_load(config(), PointObject::from_points(p));
        reference_filter(&mut rp, polys, domain, Reference::Literal)
    }

    #[test]
    fn the_product_agrees_with_the_reference_and_clips_less() {
        let p = random_points(1_500, 95);
        let q = random_points(1_500, 96);
        let q_cells = brute_force_diagram(&q[..200], &Rect::DOMAIN);
        let group: Vec<ConvexPolygon> = q_cells[50..70].to_vec();
        let (ref_cands, ref_stats) = reference_over(&p, &group, &Rect::DOMAIN);
        assert_eq!(ref_stats.poly_tests_skipped, 0);
        let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
        let (cands, stats) = filter_with(&mut rp, &group, &FilterOptions::default());
        assert_eq!(ids(&cands), ids(&ref_cands));
        assert_eq!(stats.points_examined, ref_stats.points_examined);
        assert_eq!(stats.entries_pruned, ref_stats.entries_pruned);
        assert!(stats.poly_tests_skipped > 0);
        assert!(stats.clip_ops <= stats.clip_attempts);
        assert!(
            stats.clip_attempts < ref_stats.clip_ops,
            "{} bisectors offered vs the literal {}",
            stats.clip_attempts,
            ref_stats.clip_ops
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The product equals Algorithm 5 read literally — candidates (set
        /// *and* order), points examined, entries pruned — for random point
        /// sets, polygon batches and domains. Sites may
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
            // Drawn and unused: it picked the resolution of the candidate
            // grid the filter no longer has, and keeps the generated cases
            // those of earlier runs.
            _resolution_pick in 0usize..5,
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

            let options = FilterOptions::default();
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

    /// The stress range of the triangulated cells: on near-degenerate
    /// candidate sets at every scale `2^k`, `|k| ≤ 40`, the product accepts
    /// the candidates the ring walk it replaced accepts, in the same order,
    /// after the same traversal. A CI step of its own, in release (≈ 3 s):
    /// `cargo test --release -p cij-core --lib
    /// the_product_equals_the_ring_walk_on_near_degenerate_candidate_sets_at_every_scale
    /// -- --ignored`.
    #[test]
    #[ignore = "stress range: its own CI step, in release"]
    fn the_product_equals_the_ring_walk_on_near_degenerate_candidate_sets_at_every_scale() {
        let scratch = &mut FilterScratch::default();
        for k in (-40..=40).step_by(5) {
            let s = 2f64.powi(k);
            let domain = Rect::from_coords(0.0, 0.0, 64.0 * s, 64.0 * s);
            for case in 0..160u64 {
                let rng = &mut StdRng::seed_from_u64(case * 97 + (k + 40) as u64);
                let kind = (case % 4) as usize;
                let (n_p, n_q) = (rng.gen_range(60..400), rng.gen_range(20..90));
                let q = near_degenerate_sites(rng, s, n_q, 0, domain.center());
                let cells = brute_force_diagram(&q, &domain);
                let batch = rng.gen_range(1..8usize).min(cells.len());
                let start = rng.gen_range(0..=cells.len() - batch);
                let polys = &cells[start..start + batch];
                let centres: Vec<Point> = polys.iter().filter_map(|t| t.centroid()).collect();
                let centre = Point::centroid(&centres).unwrap_or_else(|| domain.center());
                let p = near_degenerate_sites(rng, s, n_p, kind, centre);
                let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
                let options = FilterOptions::default();
                let (cands, stats) =
                    batch_conditional_filter_scratch(&mut rp, polys, &domain, &options, scratch);
                let mut rp = RTree::bulk_load(config(), PointObject::from_points(&p));
                let (ring, ring_stats) =
                    reference_filter(&mut rp, polys, &domain, Reference::RingWalk);
                let what = format!("k {k}, case {case}, kind {kind}");
                assert_eq!(ids(&cands), ids(&ring), "{what}: candidates");
                assert_eq!(stats.points_examined, ring_stats.points_examined, "{what}");
                assert_eq!(stats.entries_pruned, ring_stats.entries_pruned, "{what}");
            }
        }
    }
}
