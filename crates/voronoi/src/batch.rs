//! BatchVoronoi: concurrent Voronoi-cell computation for a group of nearby
//! points (Algorithm 2 of the paper), with **reach-bounded refinement**.
//!
//! Computing the cells of all points in one R-tree leaf with repeated calls
//! to Algorithm 1 would re-read the same neighbourhood of the tree over and
//! over. Algorithm 2 shares a single traversal among the whole group `G`:
//! entries are browsed in ascending `mindist` from the centroid of `G`, an
//! entry is pruned only when it can refine **no** group member's cell
//! (Lemma 2 lifted to the group), and a discovered point refines only the
//! cells it can actually refine (Lemma 1 per member).
//!
//! Read literally, both rules walk the vertices of *every* member's cell
//! for *every* entry and every discovered point, although a point is a
//! Voronoi neighbour of a handful of members at most. This module decides
//! the same rules, member by member, after an O(1) rejection of the
//! members the entry provably cannot concern, and queues nodes only: a
//! leaf's points refine the cells as soon as the leaf is read.
//!
//! # Why reach-bounded refinement is sufficient
//!
//! Let `sᵢ` be member `i`'s site, `Cᵢ` its current (conservative) cell and
//! `Rᵢ` the cell's *reach* — the largest distance from `sᵢ` to a vertex of
//! `Cᵢ` ([`cell_reach_sq`] is `Rᵢ²`). The distance to `sᵢ` is convex, so over
//! the convex cell it peaks at a vertex: `Cᵢ` lies in the disc of radius
//! `Rᵢ` around `sᵢ`. The per-group tables of [`VorScratch`] keep the sites
//! as flat coordinate arrays next to each member's *gate* — `4·Rᵢ²` widened
//! by the squared-distance margin of the policy (below) — recomputed only
//! when member `i` is clipped.
//!
//! * **Points (triangle inequality).** Lemma 1 lets a point `p` refine `Cᵢ`
//!   iff some vertex `γ` is strictly closer to `p` than to `sᵢ` — strictly
//!   outside the bisector halfplane (the clip's own sidedness test, whose
//!   answer [`ConvexPolygon::clip_in_place`] returns). Then `dist(sᵢ, p) ≤
//!   dist(sᵢ, γ) + dist(γ, p) < 2·dist(sᵢ, γ) ≤ 2·Rᵢ`. A point with
//!   `dist²(sᵢ, p)` above the gate therefore fails Lemma 1 for member `i`
//!   without looking at a vertex.
//! * **Rectangles (Lipschitz).** Lemma 2 lets an entry with MBR `e` possibly
//!   refine `Cᵢ` iff some vertex `γ` has `mindist(e, γ) < dist(γ, sᵢ)`
//!   ([`can_refine`]). The distance to a rectangle is 1-Lipschitz, so
//!   `mindist(e, γ) ≥ mindist(e, sᵢ) − dist(sᵢ, γ) ≥ mindist(e, sᵢ) − Rᵢ`,
//!   and once `mindist(e, sᵢ) > 2·Rᵢ` every vertex has `mindist(e, γ) > Rᵢ ≥
//!   dist(γ, sᵢ)`: Lemma 2 says no. A point entry is a degenerate
//!   rectangle, which makes the first bullet a special case of this one.
//! * **The guard.** Both implications are strict in exact arithmetic, and
//!   the two sides of each are rounded independently. The gate discards, so
//!   it fires only strictly beyond the policy's threshold
//!   ([`cij_geom::tolerance`]): `4·Rᵢ²` is widened by [`sq_margin`] of the
//!   squared magnitude of everything the comparison involves — the site,
//!   and a vertex or an entry within `2·Rᵢ` of it — many orders above the
//!   rounding error of a squared distance and many below any geometric
//!   scale. So a member the vertex rule would accept is never rejected by
//!   the gate *as evaluated*, at any coordinate scale. Members inside the
//!   gate run the unchanged vertex rule, so the gate never accepts anything
//!   either: same refinements, same clips in the same order, same node reads
//!   as the ungated loops.
//!
//! # The leaf step
//!
//! Algorithm 2 queues each point of a leaf it reads that passes Lemma 2 and
//! tests it against the group again when it is dequeued. Here the queue
//! holds nodes only: a leaf that passes the group's Lemma-2 test is read
//! and its points refine the cells at once.
//!
//! * **Members near the leaf, found once.** A member whose gate the leaf's
//!   box lies beyond — `mindist²(box, sᵢ)` above `gateᵢ` — can be refined
//!   by no point of the leaf (second bullet above), and gates only shrink,
//!   so the leaf's points are offered to the other members alone. Any box
//!   that contains the points will do: the traversal passes the MBR the
//!   leaf's entry carries, which Lemma 2 has just tested (the domain when
//!   the whole tree is one leaf).
//! * **Order.** The points go in ascending squared distance from the
//!   group's centroid, ties by slot: the order the queue would have popped
//!   them in. Each point then meets cells the nearer points have already
//!   cut; storage order cuts about twice as often.
//! * **Members are not offered.** The group's ids are ids of points of the
//!   tree, at the same locations ([`batch_voronoi`]'s contract), and seeding
//!   (below) has already applied each member's bisector to every other
//!   member's cell or proved it a no-op. A leaf point whose id a binary
//!   search finds among the sorted member ids is skipped.
//! * **Per member.** Every other offer is Lemma 1 — the clip's own test —
//!   behind the member's current gate: the test Algorithm 2 applies to a
//!   dequeued point, member by member. For a point entry Lemma 2 *is*
//!   Lemma 1 (`mindist_point_sq` of a degenerate rectangle equals `dist_sq`
//!   bitwise), so the push-time and pop-time re-checks would add nothing.
//!
//! Nodes pop in the same `mindist` order as in the literal loop, and the
//! final cells are the same sets. A node is read only if the literal loop
//! reads it (in exact arithmetic): a point the literal loop has applied
//! before a node decision lies in a leaf popped earlier, which here was
//! either read — the point applied, skipped as a member seeding applied, or
//! a proven no-op — or pruned by Lemma 2, whose *safe region* (the
//! locations closer to `sᵢ` than to every point of the box, an intersection
//! of bisector halfplanes) is convex and then contains the whole cell. So
//! at every node decision each cell is a subset of the literal loop's, a
//! node the literal loop prunes is pruned here too, and node reads can
//! only drop.
//!
//! # Delaunay seeding
//!
//! The members are data points of `P` like any other and are known before
//! the first node read, so every cell is first clipped with the *other
//! members*: those at the locations that share an edge with the member's
//! own in the Delaunay triangulation of the group's locations
//! ([`Delaunay`]), nearest first, ties by index. One triangulation per
//! group — expected O(|G| log |G|), for the several-hundred-point groups of
//! a multiway extension unit too — replaces a search per member, and a
//! member meets its handful of neighbours, nearly every one of them a cut.
//!
//! * **The same sets.** In exact arithmetic a member's cell within `G` is
//!   the domain cut by the bisectors of its Delaunay neighbours: every
//!   Voronoi edge of positive length separates two sites that share a
//!   Delaunay edge, and any other member's bisector meets the cell at most
//!   in a vertex, so its clip removes nothing. Every clip applied is a
//!   bisector of two data points and every clip skipped is a no-op, so each
//!   seeded cell is the cell of its site within `G`, and the final cells are
//!   the exact Voronoi cells.
//! * **Exact predicates, not toleranced ones.** The triangulation decides
//!   with [`orient2d`](cij_geom::orient2d) and
//!   [`incircle`](cij_geom::incircle), whose signs are exact, so the
//!   neighbour lists are exact on every input. Members a relative 1e-15
//!   apart are distinct locations whose bisector cuts both cells, and a
//!   float triangulation can lose exactly such an edge. The predicates
//!   carry no threshold: they only choose which bisectors to apply, and
//!   every cut is still the tolerant [`ConvexPolygon::clip_in_place`]
//!   ([`cij_geom::tolerance`]).
//! * **Bisectors that rounding moved.** The argument takes each bisector
//!   as the exact line. A computed bisector is off that line by the
//!   rounding of its offset, `(|q|² − |p|²) / 2`, divided by `|q − p|`: for
//!   members far apart a few ulps of the coordinates, for near-duplicates
//!   (1e-15 relative apart, say) more than the whole group. So a neighbour
//!   `w` whose bisector with the site misses the sites' midpoint by more
//!   than the bisector's own threshold ([`HalfPlane::on_boundary`]) shields
//!   nothing it is supposed to: `w`'s neighbours are offered too, and
//!   theirs behind another such bisector
//!   ([`Delaunay::extend_past_moved_bisectors`], which the conditional
//!   filter calls too). With that, the seeded cells
//!   equal the brute-force cells, which apply every member's rounded
//!   bisector, on every near-degenerate group the tests and the stress
//!   range draw. The check costs one bisector per neighbour. In the
//!   benchmark's seed-11 runs it fires only on `mw_clustered`, about 16
//!   times per op, for members clamped onto the domain's edge a hundredth
//!   of a unit apart.
//! * **Repeated locations.** Members at an identical location are one
//!   vertex of the triangulation (as separate vertices they would make
//!   triangles of zero area). Their common bisector is degenerate and cuts
//!   nothing, they share their neighbours, and each of them is clipped with
//!   every member at a neighbouring location.
//! * **Degenerate groups.** Two locations neighbour each other; when every
//!   location lies on one line, the consecutive ones along it do.
//!
//! What this may and may not change, compared with clipping in storage
//! order: the *order* in which a cell's bisectors are applied differs, and a
//! vertex computed through different intermediate outlines may differ in
//! its last bits. The traversal itself — heap keys, the Lemma-2 gate before
//! each node read — is untouched, but its gates compare against those
//! vertices, so a borderline gate could in principle flip and cost or save a
//! node read; none has been observed (page accesses equal the ring walk's
//! that seeded before, on every benchmark seed). The join pairs cannot
//! change: they are decided on exact cells.

use crate::single::can_refine;
use cij_geom::tolerance::{magnitude, sq_margin};
use cij_geom::{ClipScratch, ConvexPolygon, Delaunay, HalfPlane, Point, Rect};
use cij_rtree::{
    LeafLayout, NodeArena, NodeReader, ObjectId, PointObject, TraversalEntry, TraversalQueue,
};

/// Reusable per-worker scratch for batch-Voronoi traversals.
///
/// [`batch_voronoi`] performs all its transient work inside this
/// struct: nodes decode into the [`NodeArena`] (SoA layout), cell refinement
/// ping-pongs through the [`ClipScratch`], a leaf's points are ordered in
/// `dists`, the best-first queue of nodes and the per-group tables (member
/// sites, sorted ids, reach gates, the group's Delaunay triangulation) are
/// emptied and refilled in place for every group. Allocate one per worker
/// thread, reuse it across every group the worker processes; after the
/// buffers reach their high-water size the traversal allocates only for the
/// returned cells themselves (`tests/alloc_budget.rs` counts it).
#[derive(Debug, Default)]
pub struct VorScratch {
    /// SoA node decode target.
    pub arena: NodeArena,
    /// Polygon clipping ping-pong buffers.
    pub clip: ClipScratch,
    /// One leaf's points as `(squared distance to the group centroid,
    /// slot)`, sorted into the order they refine the cells in.
    pub dists: Vec<(f64, u32)>,
    /// Work counter: bisector clips applied, over every call so far.
    pub clips: u64,
    /// Work counter: per-member vertex loops run (clips attempted /
    /// [`can_refine`] evaluations that survived the reach gate).
    pub vertex_loops: u64,
    /// Work counter: refinement passes — one per leaf point offered to the
    /// group (members are not offered), one per member seeded against the
    /// rest of the group.
    pub refine_calls: u64,
    tables: GroupTables,
    /// The best-first traversal queue, nodes only: cleared at the start of
    /// every call, drained by its end, its allocations kept in between.
    queue: TraversalQueue,
}

impl VorScratch {
    /// Creates a scratch whose arena is pre-sized for nodes of the given
    /// byte budget
    /// ([`RTreeConfig::node_byte_budget`](cij_rtree::RTreeConfig::node_byte_budget)).
    pub fn for_budget(node_byte_budget: usize) -> Self {
        VorScratch {
            arena: NodeArena::for_budget(node_byte_budget),
            ..VorScratch::default()
        }
    }
}

/// The per-group tables behind the reach gate and the seeding pass (module
/// docs): `xs`/`ys`/`gate` are parallel to the group; the triangulation and
/// the clip-order list keep their buffers from group to group.
#[derive(Debug, Default)]
struct GroupTables {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// [`reach_gate`] of each member's current cell.
    gate: Vec<f64>,
    /// The members' ids, sorted: a leaf point found here is a member, whose
    /// bisectors seeding has already dealt with.
    ids: Vec<ObjectId>,
    /// Members whose gate the leaf being applied lies within: a prefix of
    /// this vector, which is kept as long as the group.
    near: Vec<u32>,
    /// The Delaunay triangulation of the group's locations, whose
    /// neighbour lists name the bisectors seeding applies.
    delaunay: Delaunay,
    /// The members at the neighbouring locations of the location being
    /// seeded, as `(dist² to it, index)`, sorted into clip order.
    by_distance: Vec<(f64, u32)>,
    /// The locations whose members seed the location at hand: its
    /// neighbours, and theirs behind a bisector that rounding moved.
    reached: Vec<u32>,
}

/// The gate of a cell: no point farther than this (squared) from `site`,
/// and no rectangle whose `mindist²` to `site` exceeds it, can refine
/// `cell` — `4·reach²`, widened by the squared-distance margin of the site
/// and the disc of radius `2·reach` around it (module docs, "The guard").
#[inline]
fn reach_gate(site: &Point, cell: &ConvexPolygon) -> f64 {
    let disc = 4.0 * cell_reach_sq(site, cell);
    let m = magnitude(site);
    disc + sq_margin(disc + m * m)
}

/// Squared radius of the smallest circle centred at `site` that contains
/// every vertex of `cell` — the cell's *reach* from its site.
///
/// This `2R` bound is BatchVoronoi's reach gate (module docs), its one
/// user since the conditional filter cuts its cells by Delaunay neighbours
/// instead: every location the bisector `⊥(site, other)` removes lies at
/// least `dist(site, other) / 2` from `site` (triangle inequality), and a
/// convex cell is contained in the vertex circle, so once
/// `dist(site, other)² > 4 × reach²` the bisector provably cannot shrink
/// the cell and all farther points can be skipped.
#[inline]
pub fn cell_reach_sq(site: &Point, cell: &ConvexPolygon) -> f64 {
    cell.vertices()
        .iter()
        .map(|v| v.dist_sq(site))
        .fold(0.0, f64::max)
}

/// A store of previously computed exact Voronoi cells, keyed by point id.
///
/// [`batch_voronoi`] consults the store before computing a cell
/// and deposits every freshly computed cell back into it. The canonical
/// implementation is the bounded LRU `CellCache` of `cij-core` (the paper's
/// Section IV-B *reuse buffer*); [`NoCache`] disables reuse.
pub trait CellStore {
    /// Returns a clone of the cached cell of point `id`, if present.
    fn get(&mut self, id: u64) -> Option<ConvexPolygon>;

    /// Stores the exact cell of point `id`.
    fn put(&mut self, id: u64, cell: &ConvexPolygon);
}

/// A [`CellStore`] that never caches — every request is a miss.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache;

impl CellStore for NoCache {
    fn get(&mut self, _id: u64) -> Option<ConvexPolygon> {
        None
    }

    fn put(&mut self, _id: u64, _cell: &ConvexPolygon) {}
}

// Inert: `cij_benchmark/src/layers.rs` is its only reader.
#[doc(hidden)]
pub fn batch_voronoi_cached_with<T: NodeReader<PointObject>, C: CellStore>(
    tree: &mut T,
    group: &[PointObject],
    domain: &Rect,
    cache: &mut C,
    _layout: LeafLayout,
    scratch: &mut VorScratch,
) -> Vec<ConvexPolygon> {
    batch_voronoi(tree, group, domain, cache, scratch)
}

/// The cells of one group under refinement, with the group's reach-gate
/// tables: the member-side half of Algorithm 2 (which members an entry or a
/// discovered point concerns), separate from the tree traversal.
struct GroupCells<'a> {
    group: &'a [PointObject],
    cells: Vec<ConvexPolygon>,
    clip: &'a mut ClipScratch,
    tables: &'a mut GroupTables,
    clips: u64,
    vertex_loops: u64,
    refine_calls: u64,
}

impl<'a> GroupCells<'a> {
    /// Every member starts from the whole `domain`.
    fn new(
        group: &'a [PointObject],
        domain: &Rect,
        clip: &'a mut ClipScratch,
        tables: &'a mut GroupTables,
    ) -> Self {
        let cells: Vec<ConvexPolygon> = group
            .iter()
            .map(|_| ConvexPolygon::from_rect(domain))
            .collect();
        tables.xs.clear();
        tables.ys.clear();
        tables.gate.clear();
        tables.ids.clear();
        tables.near.resize(group.len(), 0);
        tables.xs.extend(group.iter().map(|o| o.point.x));
        tables.ys.extend(group.iter().map(|o| o.point.y));
        tables.gate.extend(
            group
                .iter()
                .zip(&cells)
                .map(|(o, cell)| reach_gate(&o.point, cell)),
        );
        tables.ids.extend(group.iter().map(|o| o.id));
        tables.ids.sort_unstable();
        GroupCells {
            group,
            cells,
            clip,
            tables,
            clips: 0,
            vertex_loops: 0,
            refine_calls: 0,
        }
    }

    /// Lemma 1 for member `i` and the data point `other`: clips the cell in
    /// place through the scratch buffers and, when the bisector cut it,
    /// refreshes the member's gate.
    fn refine_member(&mut self, i: usize, other: &Point) {
        self.vertex_loops += 1;
        let site = &self.group[i].point;
        let hp = HalfPlane::bisector(site, other);
        if self.cells[i].clip_in_place(&hp, self.clip) {
            self.tables.gate[i] = reach_gate(site, &self.cells[i]);
            self.clips += 1;
        }
    }

    /// The leaf step (module docs): refines the cells with the points of a
    /// leaf just read — `xs`/`ys`/`ids` in slot order, all inside `bounds`
    /// — nearest to `centroid` first. The members near `bounds` are found
    /// once; each point that is not a member is offered to them, Lemma 1
    /// per member behind its current gate. A point carrying a member's id
    /// must be that member. `order` is scratch.
    fn refine_with_leaf(
        &mut self,
        bounds: &Rect,
        xs: &[f64],
        ys: &[f64],
        ids: &[ObjectId],
        centroid: &Point,
        order: &mut Vec<(f64, u32)>,
    ) {
        let GroupTables {
            xs: sx,
            ys: sy,
            gate,
            near,
            ..
        } = &mut *self.tables;
        // Compaction without a data-dependent branch: every member is
        // written at the cursor, which advances only past those in the gate.
        let mut passed = 0usize;
        for (i, ((&x, &y), &limit)) in sx.iter().zip(sy.iter()).zip(gate.iter()).enumerate() {
            near[passed] = i as u32;
            passed += usize::from(bounds.mindist_point_sq(&Point::new(x, y)) <= limit);
        }
        if passed == 0 {
            return;
        }
        order.clear();
        let (cx, cy) = (centroid.x, centroid.y);
        for (slot, (&x, &y)) in xs.iter().zip(ys).enumerate() {
            let dx = x - cx;
            let dy = y - cy;
            order.push((dx * dx + dy * dy, slot as u32));
        }
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for &(_, slot) in order.iter() {
            let slot = slot as usize;
            if self.tables.ids.binary_search(&ids[slot]).is_ok() {
                continue;
            }
            self.refine_calls += 1;
            let p = Point::new(xs[slot], ys[slot]);
            // Index loop: refining member `i` rewrites `gate[i]` only, never
            // the list being walked.
            for k in 0..passed {
                let i = self.tables.near[k] as usize;
                let dx = self.tables.xs[i] - p.x;
                let dy = self.tables.ys[i] - p.y;
                if dx * dx + dy * dy <= self.tables.gate[i] {
                    self.refine_member(i, &p);
                }
            }
        }
    }

    /// Lemma-2 test lifted to the group: an entry survives if it can refine
    /// the cell of at least one member. Members whose gate the entry lies
    /// outside are rejected without a vertex loop.
    fn any_can_refine(&mut self, mbr: &Rect) -> bool {
        let t = &*self.tables;
        for (i, ((&x, &y), &limit)) in t.xs.iter().zip(&t.ys).zip(&t.gate).enumerate() {
            if mbr.mindist_point_sq(&Point::new(x, y)) <= limit {
                self.vertex_loops += 1;
                if can_refine(mbr, self.cells[i].vertices(), &self.group[i].point) {
                    return true;
                }
            }
        }
        false
    }

    /// Clips every member's cell with the members at the neighbouring
    /// locations of the group's Delaunay triangulation, nearest first, ties
    /// by index (module docs, "Delaunay seeding"). The traversal starts from
    /// these tight cells, and it never offers a member again: this pass is
    /// the only one that applies the members' bisectors.
    fn seed(&mut self) {
        if self.group.len() < 2 {
            return;
        }
        // Taken out of the tables (no allocation) while the cells are
        // clipped, and put back for the next group.
        let mut delaunay = std::mem::take(&mut self.tables.delaunay);
        let mut by_distance = std::mem::take(&mut self.tables.by_distance);
        let mut reached = std::mem::take(&mut self.tables.reached);
        delaunay.triangulate(&self.tables.xs, &self.tables.ys);
        for v in 0..delaunay.location_count() as u32 {
            let site = delaunay.location(v);
            by_distance.clear();
            reached.clear();
            reached.extend(delaunay.neighbours(v));
            delaunay.extend_past_moved_bisectors(&site, Some(v), &mut reached);
            for &w in &reached {
                let d = delaunay.location(w).dist_sq(&site);
                by_distance.extend(delaunay.members(w).iter().map(|&j| (d, j)));
            }
            by_distance.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            // Members at one location get the same bisectors in the same
            // order.
            for &i in delaunay.members(v) {
                self.refine_calls += 1;
                for &(_, j) in &by_distance {
                    self.refine_member(i as usize, &self.group[j as usize].point);
                }
            }
        }
        self.tables.delaunay = delaunay;
        self.tables.by_distance = by_distance;
        self.tables.reached = reached;
    }
}

/// Computes the exact Voronoi cells of every point in `group` within the
/// pointset indexed by `tree`, clipped to `domain`, sharing one best-first
/// traversal (Algorithm 2, "BatchVoronoi"), behind the reuse buffer `store`:
/// cells present in it are served without touching the tree, only the
/// missing members are computed (in one shared traversal), and the fresh
/// cells are deposited back into it. Callers that want no reuse pass
/// [`NoCache`].
///
/// The returned vector is aligned with `group`. Group members do constrain
/// each other (they are part of `P`); a member never constrains itself.
/// The members' ids are ids of points of the tree: a point of the tree that
/// shares a member's id *is* that member, at the same location. Every caller
/// passes objects read from the tree it hands over, and the traversal
/// relies on it — a leaf point with a member's id is not offered to the
/// group, whose seeding has applied it already (module docs, "The leaf
/// step").
///
/// Generic over [`NodeReader`], so the same traversal runs in counted mode
/// (`&mut RTree`) and over the snapshot readers of the chunked execution
/// path ([`cij_rtree::SnapshotReader`], traced or merely counting); the
/// traversal logic — and therefore the computed cells and the page-access
/// sequence — is identical in all of them.
///
/// All transient work happens in the caller-owned [`VorScratch`] (callers
/// looping over groups keep one): nodes decode into `scratch.arena` by
/// reference, a leaf's points are ordered by one batched loop over the
/// coordinate slices and a sort in `scratch.dists`, and cells are refined in
/// place through `scratch.clip` — no per-node or per-clip allocation after
/// warm-up, and none for the store when it holds none of the group.
pub fn batch_voronoi<T: NodeReader<PointObject>, C: CellStore>(
    tree: &mut T,
    group: &[PointObject],
    domain: &Rect,
    store: &mut C,
    scratch: &mut VorScratch,
) -> Vec<ConvexPolygon> {
    // The stored cells by position; with none (always under `NoCache`) the
    // group is computed as it is, without a copy.
    let stored: Vec<(usize, ConvexPolygon)> = (group.iter().enumerate())
        .filter_map(|(i, member)| store.get(member.id.0).map(|cell| (i, cell)))
        .collect();
    if stored.is_empty() {
        let cells = compute_cells(tree, group, domain, scratch);
        for (member, cell) in group.iter().zip(&cells) {
            store.put(member.id.0, cell);
        }
        return cells;
    }
    let mut hits = stored.iter().map(|&(i, _)| i).peekable();
    let missing: Vec<PointObject> = (group.iter().enumerate())
        .filter(|&(i, _)| hits.next_if_eq(&i).is_none())
        .map(|(_, member)| *member)
        .collect();
    let mut fresh = compute_cells(tree, &missing, domain, scratch).into_iter();
    let mut stored = stored.into_iter().peekable();
    (group.iter().enumerate())
        .map(|(i, member)| match stored.next_if(|&(at, _)| at == i) {
            Some((_, cell)) => cell,
            None => {
                let cell = fresh.next().expect("one computed cell per missing member");
                store.put(member.id.0, &cell);
                cell
            }
        })
        .collect()
}

/// The traversal of [`batch_voronoi`] over the members it has to compute.
fn compute_cells<T: NodeReader<PointObject>>(
    tree: &mut T,
    group: &[PointObject],
    domain: &Rect,
    scratch: &mut VorScratch,
) -> Vec<ConvexPolygon> {
    let VorScratch {
        arena,
        clip,
        dists,
        clips,
        vertex_loops,
        refine_calls,
        tables,
        queue,
    } = scratch;
    let mut g = GroupCells::new(group, domain, clip, tables);
    if group.is_empty() || tree.is_empty() {
        return g.cells;
    }
    let centroid = Point::centroid_of(group.iter().map(|o| o.point)).expect("non-empty group");
    g.seed();

    queue.clear();
    queue.push_node(0.0, tree.root_page(), *domain);

    while let Some(entry) = queue.pop() {
        let TraversalEntry::Node { page, mbr } = entry else {
            unreachable!("the queue holds nodes only");
        };
        // Line 9 of Algorithm 2 applied before reading the node.
        if !g.any_can_refine(&mbr) {
            continue;
        }
        arena.load(&mut *tree, page);
        if arena.is_leaf() {
            g.refine_with_leaf(&mbr, arena.xs(), arena.ys(), arena.ids(), &centroid, dists);
        } else {
            for c in arena.children() {
                if g.any_can_refine(&c.mbr) {
                    queue.push_node(c.mbr.mindist_point(&centroid), c.page, c.mbr);
                }
            }
        }
    }
    *clips += g.clips;
    *vertex_loops += g.vertex_loops;
    *refine_calls += g.refine_calls;
    g.cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_cell;
    use crate::single::single_voronoi;
    use cij_pagestore::PageId;
    use cij_rtree::{RTree, RTreeConfig, RTreeObject};
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

    fn cells_equal(a: &ConvexPolygon, b: &ConvexPolygon) -> bool {
        (a.area() - b.area()).abs() < 1e-3
    }

    /// The cells of `group` in the domain, fresh scratch.
    fn domain_cells(tree: &mut RTree<PointObject>, group: &[PointObject]) -> Vec<ConvexPolygon> {
        let scratch = &mut VorScratch::default();
        batch_voronoi(tree, group, &Rect::DOMAIN, &mut NoCache, scratch)
    }

    #[test]
    fn batch_matches_brute_force() {
        let pts = random_points(250, 21);
        let objects = PointObject::from_points(&pts);
        let mut tree = RTree::bulk_load(config(), objects.clone());
        // Group = 12 points from one neighbourhood (take the 12 nearest to a
        // random anchor to emulate a leaf node's contents).
        let anchor = Point::new(4_000.0, 6_000.0);
        let mut by_dist: Vec<usize> = (0..pts.len()).collect();
        by_dist.sort_by(|&a, &b| {
            pts[a]
                .dist_sq(&anchor)
                .partial_cmp(&pts[b].dist_sq(&anchor))
                .unwrap()
        });
        let group: Vec<PointObject> = by_dist[..12].iter().map(|&i| objects[i]).collect();
        let cells = domain_cells(&mut tree, &group);
        for (member, cell) in group.iter().zip(&cells) {
            let expected = brute_force_cell(&pts, member.id.0 as usize, &Rect::DOMAIN);
            assert!(
                cells_equal(&expected, cell),
                "member {:?}: {} vs {}",
                member.id,
                expected.area(),
                cell.area()
            );
        }
    }

    #[test]
    fn batch_agrees_with_single_cell_computation() {
        let pts = random_points(400, 2);
        let objects = PointObject::from_points(&pts);
        let mut tree = RTree::bulk_load(config(), objects.clone());
        let group: Vec<PointObject> = objects[100..110].to_vec();
        let batch_cells = domain_cells(&mut tree, &group);
        for (member, cell) in group.iter().zip(&batch_cells) {
            let single = single_voronoi(&mut tree, member.point, member.id, &Rect::DOMAIN);
            assert!(
                cells_equal(&single, cell),
                "member {:?}: single {} vs batch {}",
                member.id,
                single.area(),
                cell.area()
            );
        }
    }

    #[test]
    fn batch_is_cheaper_than_individual_calls() {
        let pts = random_points(3_000, 13);
        let objects = PointObject::from_points(&pts);

        // Individual calls.
        let mut tree_a = RTree::bulk_load(config(), objects.clone());
        let group: Vec<PointObject> = {
            // Use one actual leaf node as the group, as FM-CIJ does.
            let domain = Rect::DOMAIN;
            let leaf = tree_a.leaf_pages_hilbert_order(&domain)[0];
            tree_a.try_read_node(leaf).unwrap().objects
        };
        tree_a.drop_buffer();
        tree_a.stats().reset();
        for m in &group {
            let _ = single_voronoi(&mut tree_a, m.point, m.id, &Rect::DOMAIN);
        }
        let individual = tree_a.stats().snapshot().logical_reads;

        // One batched call.
        let mut tree_b = RTree::bulk_load(config(), objects);
        tree_b.drop_buffer();
        tree_b.stats().reset();
        let _ = domain_cells(&mut tree_b, &group);
        let batched = tree_b.stats().snapshot().logical_reads;

        assert!(
            batched < individual,
            "batched traversal ({batched} node reads) should beat {} individual calls ({individual})",
            group.len()
        );
    }

    #[test]
    fn cached_batch_matches_uncached_and_serves_hits() {
        use std::collections::HashMap;

        struct MapStore {
            cells: HashMap<u64, ConvexPolygon>,
            hits: usize,
        }
        impl CellStore for MapStore {
            fn get(&mut self, id: u64) -> Option<ConvexPolygon> {
                let hit = self.cells.get(&id).cloned();
                if hit.is_some() {
                    self.hits += 1;
                }
                hit
            }
            fn put(&mut self, id: u64, cell: &ConvexPolygon) {
                self.cells.insert(id, cell.clone());
            }
        }

        let pts = random_points(300, 31);
        let objects = PointObject::from_points(&pts);
        let mut tree = RTree::bulk_load(config(), objects.clone());
        let group: Vec<PointObject> = objects[40..52].to_vec();

        let uncached = domain_cells(&mut tree, &group);
        let mut store = MapStore {
            cells: HashMap::new(),
            hits: 0,
        };
        // First pass: all misses, results identical to the uncached call.
        let first = batch_voronoi(
            &mut tree,
            &group,
            &Rect::DOMAIN,
            &mut store,
            &mut VorScratch::default(),
        );
        assert_eq!(store.hits, 0);
        for (a, b) in uncached.iter().zip(&first) {
            assert!(cells_equal(a, b));
        }
        // Second pass: every cell is served from the store, without touching
        // the tree.
        tree.stats().reset();
        let second = batch_voronoi(
            &mut tree,
            &group,
            &Rect::DOMAIN,
            &mut store,
            &mut VorScratch::default(),
        );
        assert_eq!(store.hits, group.len());
        assert_eq!(tree.stats().snapshot().logical_reads, 0);
        for (a, b) in first.iter().zip(&second) {
            assert!(cells_equal(a, b));
        }
        // A NoCache store degrades to the plain batch computation.
        let none = batch_voronoi(
            &mut tree,
            &group,
            &Rect::DOMAIN,
            &mut NoCache,
            &mut VorScratch::default(),
        );
        for (a, b) in uncached.iter().zip(&none) {
            assert!(cells_equal(a, b));
        }
    }

    #[test]
    fn cached_batch_with_partial_cache_fills_only_gaps() {
        let pts = random_points(200, 32);
        let objects = PointObject::from_points(&pts);
        let mut tree = RTree::bulk_load(config(), objects.clone());
        let group: Vec<PointObject> = objects[10..20].to_vec();
        let reference = domain_cells(&mut tree, &group);

        struct HalfStore(std::collections::HashMap<u64, ConvexPolygon>);
        impl CellStore for HalfStore {
            fn get(&mut self, id: u64) -> Option<ConvexPolygon> {
                self.0.get(&id).cloned()
            }
            fn put(&mut self, id: u64, cell: &ConvexPolygon) {
                self.0.insert(id, cell.clone());
            }
        }
        // Pre-populate the store with every other member's exact cell.
        let mut store = HalfStore(std::collections::HashMap::new());
        for (i, (obj, cell)) in group.iter().zip(&reference).enumerate() {
            if i % 2 == 0 {
                store.0.insert(obj.id.0, cell.clone());
            }
        }
        let mixed = batch_voronoi(
            &mut tree,
            &group,
            &Rect::DOMAIN,
            &mut store,
            &mut VorScratch::default(),
        );
        for (a, b) in reference.iter().zip(&mixed) {
            assert!(cells_equal(a, b));
        }
        // The store now holds all members.
        assert_eq!(store.0.len(), group.len());
    }

    #[test]
    fn empty_group_returns_no_cells() {
        let pts = random_points(50, 1);
        let mut tree = RTree::bulk_load(config(), PointObject::from_points(&pts));
        assert!(domain_cells(&mut tree, &[]).is_empty());
    }

    #[test]
    fn group_of_whole_tiny_dataset() {
        let pts = random_points(8, 77);
        let objects = PointObject::from_points(&pts);
        let mut tree = RTree::bulk_load(config(), objects.clone());
        let cells = domain_cells(&mut tree, &objects);
        let total: f64 = cells.iter().map(|c| c.area()).sum();
        assert!(
            (total - Rect::DOMAIN.area()).abs() / Rect::DOMAIN.area() < 1e-6,
            "cells of the whole dataset must tile the domain (got {total})"
        );
        for (o, c) in objects.iter().zip(&cells) {
            assert!(c.contains_point(&o.point));
        }
    }

    #[test]
    fn duplicate_site_ids_do_not_self_constrain() {
        // A group member must not clip its own cell even if it appears both
        // in the group and in the tree (the normal situation).
        let pts = vec![Point::new(2_000.0, 2_000.0), Point::new(8_000.0, 8_000.0)];
        let objects = PointObject::from_points(&pts);
        let mut tree = RTree::bulk_load(config(), objects.clone());
        let cells = domain_cells(&mut tree, &objects);
        // Each cell is half the domain.
        for c in &cells {
            assert!((c.area() - Rect::DOMAIN.area() / 2.0).abs() < 1e-3);
        }
    }

    /// Signed distance by which `v` lies outside the convex outline of
    /// `poly` (≤ 0 inside): the largest outward offset from an edge line.
    fn outside_by(poly: &ConvexPolygon, v: &Point) -> f64 {
        let vs = poly.vertices();
        if vs.len() < 3 {
            return vs.iter().map(|w| w.dist(v)).fold(f64::INFINITY, f64::min);
        }
        (0..vs.len())
            .map(|i| {
                let (a, b) = (vs[i], vs[(i + 1) % vs.len()]);
                -(b - a).cross(&(*v - a)) / a.dist(&b).max(f64::MIN_POSITIVE)
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Equality of two cells as sets, up to the clipping tolerance: areas
    /// within 1e-6 relative, each within 1e-6 of containing the other's
    /// vertices.
    fn assert_same_cell(got: &ConvexPolygon, expected: &ConvexPolygon, what: &str) {
        assert_same_cell_at(got, expected, 1.0, what);
    }

    /// [`assert_same_cell`] for a domain scaled by `unit`: every length
    /// bound scales with it.
    fn assert_same_cell_at(got: &ConvexPolygon, expected: &ConvexPolygon, unit: f64, what: &str) {
        let (a, b) = (got.area(), expected.area());
        assert!(
            (a - b).abs() <= 1e-6 * a.max(b).max(unit * unit),
            "{what}: area {a} vs {b}"
        );
        for (from, to) in [(got, expected), (expected, got)] {
            for v in from.vertices() {
                let off = outside_by(to, v);
                assert!(off <= 1e-6 * unit, "{what}: vertex {v} lies {off} outside");
            }
        }
    }

    /// Twenty integer points on the circle of radius 25 around the origin.
    const ON_CIRCLE: [(f64, f64); 20] = [
        (25.0, 0.0),
        (24.0, 7.0),
        (20.0, 15.0),
        (15.0, 20.0),
        (7.0, 24.0),
        (0.0, 25.0),
        (-7.0, 24.0),
        (-15.0, 20.0),
        (-20.0, 15.0),
        (-24.0, 7.0),
        (-25.0, 0.0),
        (-24.0, -7.0),
        (-20.0, -15.0),
        (-15.0, -20.0),
        (-7.0, -24.0),
        (0.0, -25.0),
        (7.0, -24.0),
        (15.0, -20.0),
        (20.0, -15.0),
        (24.0, -7.0),
    ];

    /// A group built to stress the reach gate and the seeding order.
    /// `shape`: 0 scattered (partly integer-snapped), 1 collinear,
    /// 2 cocircular, 3 on the domain boundary, 4 a mix of all of them,
    /// 5 lattice points perturbed by up to 8 ulps (≈ 1e-15 relative), so
    /// near-duplicates and nearly cocircular quadruples abound; every shape
    /// but the first two also repeats some sites under fresh ids.
    fn adversarial_group(seed: u64, shape: usize, n: usize) -> Vec<PointObject> {
        let mut rng = StdRng::seed_from_u64(seed);
        let origin = Point::new(
            rng.gen_range(500.0..6_000.0f64).round(),
            rng.gen_range(500.0..6_000.0f64).round(),
        );
        let size = rng.gen_range(60.0..3_000.0f64).round();
        let scattered = |rng: &mut StdRng| {
            let p = Point::new(
                origin.x + rng.gen_range(0.0..size),
                origin.y + rng.gen_range(0.0..size),
            );
            if rng.gen_range(0..2) == 0 {
                Point::new(p.x.round(), p.y.round())
            } else {
                p
            }
        };
        let collinear = |rng: &mut StdRng, k: usize| {
            let t = rng.gen_range(0..(size as usize)) as f64;
            match k % 3 {
                0 => Point::new(origin.x + t, origin.y),
                1 => Point::new(origin.x, origin.y + t),
                _ => Point::new(origin.x + t, origin.y + t),
            }
        };
        let cocircular = |rng: &mut StdRng| {
            let (dx, dy) = ON_CIRCLE[rng.gen_range(0..ON_CIRCLE.len())];
            Point::new(origin.x + 40.0 + dx, origin.y + 40.0 + dy)
        };
        let on_boundary = |rng: &mut StdRng| {
            let t = rng.gen_range(0.0..=10_000.0f64).round();
            match rng.gen_range(0..6) {
                0 => Point::new(0.0, t),
                1 => Point::new(10_000.0, t),
                2 => Point::new(t, 0.0),
                3 => Point::new(t, 10_000.0),
                4 => Point::new(0.0, 0.0),
                _ => Point::new(10_000.0, 10_000.0),
            }
        };
        let step = (size / 8.0).round().max(1.0);
        let perturbed_lattice = |rng: &mut StdRng| {
            let nudge = |rng: &mut StdRng, v: f64| {
                f64::from_bits((v.to_bits() as i64 + rng.gen_range(-8..=8i64)) as u64)
            };
            let x = origin.x + step * rng.gen_range(0..8) as f64;
            let y = origin.y + step * rng.gen_range(0..8) as f64;
            if rng.gen_range(0..3) == 0 {
                Point::new(x, y)
            } else {
                Point::new(nudge(rng, x), nudge(rng, y))
            }
        };
        let line = rng.gen_range(0..3usize);
        let mut points: Vec<Point> = Vec::with_capacity(n);
        for k in 0..n {
            let repeat = shape >= 2 && !points.is_empty() && rng.gen_range(0..6) == 0;
            let p = if repeat {
                points[rng.gen_range(0..points.len())]
            } else {
                match if shape == 4 {
                    rng.gen_range(0..4)
                } else {
                    shape
                } {
                    0 => scattered(&mut rng),
                    1 => collinear(&mut rng, if shape == 4 { k } else { line }),
                    2 => cocircular(&mut rng),
                    3 => on_boundary(&mut rng),
                    _ => perturbed_lattice(&mut rng),
                }
            };
            points.push(p);
        }
        PointObject::from_points(&points)
    }

    /// The plain Lemma-2 rule lifted to the group, without the reach gate.
    fn plain_any_can_refine(group: &[PointObject], cells: &[ConvexPolygon], mbr: &Rect) -> bool {
        group
            .iter()
            .zip(cells)
            .any(|(m, cell)| can_refine(mbr, cell.vertices(), &m.point))
    }

    /// The plain Lemma-1 refinement with `pj`, without the reach gate;
    /// returns the members it clipped.
    fn plain_refine_with(
        group: &[PointObject],
        cells: &mut [ConvexPolygon],
        pj: &PointObject,
    ) -> Vec<usize> {
        let mut clipped = Vec::new();
        for (i, member) in group.iter().enumerate() {
            let hp = HalfPlane::bisector(&member.point, &pj.point);
            if member.id != pj.id && cells[i].clip_in_place(&hp, &mut ClipScratch::new()) {
                clipped.push(i);
            }
        }
        clipped
    }

    /// Entries aimed at the group: rectangles and points anywhere, near the
    /// group, touching a cell vertex, on the Lemma-1 boundary of a member
    /// (the site mirrored in a vertex: equidistant from it, exactly twice
    /// the reach away when the vertex is the farthest) and on top of sites.
    /// A point is always a foreign data point under a fresh id — on top of
    /// a site, a duplicate of it: a point carrying a member's id must be
    /// that member, which [`adversarial_leaf`] covers.
    fn adversarial_entry(
        rng: &mut StdRng,
        group: &[PointObject],
        cells: &[ConvexPolygon],
    ) -> (Rect, Option<PointObject>) {
        let i = rng.gen_range(0..group.len());
        let site = group[i].point;
        let vs = cells[i].vertices();
        let gamma = if vs.is_empty() {
            site
        } else {
            vs[rng.gen_range(0..vs.len())]
        };
        let anywhere = |rng: &mut StdRng| {
            Point::new(
                rng.gen_range(0.0..=10_000.0f64),
                rng.gen_range(0.0..=10_000.0f64),
            )
        };
        let near = |rng: &mut StdRng| {
            let r = 3.0 * site.dist(&gamma).max(1.0);
            Point::new(site.x + rng.gen_range(-r..r), site.y + rng.gen_range(-r..r))
        };
        let point = match rng.gen_range(0..8) {
            0 => Some(anywhere(rng)),
            1 => Some(near(rng)),
            2 => Some(gamma),
            3 => Some(Point::new(2.0 * gamma.x - site.x, 2.0 * gamma.y - site.y)),
            4 => Some(site),
            _ => None,
        };
        if let Some(p) = point {
            let o = PointObject::new(1_000_000 + rng.gen_range(0..1_000u64), p);
            return (o.mbr(), Some(o));
        }
        let (w, h) = (rng.gen_range(0.0..800.0f64), rng.gen_range(0.0..800.0f64));
        let mbr = match rng.gen_range(0..4) {
            0 => {
                let c = anywhere(rng);
                Rect::from_coords(c.x, c.y, c.x + w, c.y + h)
            }
            1 => {
                let c = near(rng);
                Rect::from_coords(c.x, c.y, c.x + w, c.y + h)
            }
            // One corner on a cell vertex, extending away from the site.
            2 => {
                let (sx, sy) = ((gamma.x - site.x).signum(), (gamma.y - site.y).signum());
                Rect::from_coords(
                    gamma.x.min(gamma.x + sx * w),
                    gamma.y.min(gamma.y + sy * h),
                    gamma.x.max(gamma.x + sx * w),
                    gamma.y.max(gamma.y + sy * h),
                )
            }
            // Starting exactly twice the vertex distance from the site.
            _ => {
                let far = Point::new(2.0 * gamma.x - site.x, 2.0 * gamma.y - site.y);
                Rect::from_coords(far.x, far.y, far.x + w, far.y + h)
            }
        };
        (mbr, None)
    }

    /// A leaf aimed at the group, with a box that contains its points:
    /// sometimes the corners of the adversarial box `mbr` (so the box is
    /// tight, as for a bulk-loaded node, until a member widens it), points
    /// inside it, on its edges and on the entry's point, and — when
    /// `members` — some members under their own ids: the group
    /// rediscovered by the traversal. Returns the leaf's points in slot
    /// order and its box, `mbr` widened by the members.
    fn adversarial_leaf(
        rng: &mut StdRng,
        group: &[PointObject],
        mbr: &Rect,
        point: Option<PointObject>,
        members: bool,
    ) -> (Vec<PointObject>, Rect) {
        let (lo, hi) = (mbr.lo, mbr.hi);
        let mut leaf = Vec::new();
        if rng.gen_range(0..2) == 0 {
            for (x, y) in [(lo.x, lo.y), (hi.x, lo.y), (lo.x, hi.y), (hi.x, hi.y)] {
                let id = 2_000_000 + rng.gen_range(0..1_000u64);
                leaf.push(PointObject::new(id, Point::new(x, y)));
            }
        }
        for _ in 0..rng.gen_range(0..12) {
            let (tx, ty) = (rng.gen_range(0.0..=1.0f64), rng.gen_range(0.0..=1.0f64));
            let (tx, ty) = match rng.gen_range(0..3) {
                0 => (tx, ty),
                1 => (tx.round(), ty),
                _ => (tx, ty.round()),
            };
            let p = Point::new(lo.x + tx * (hi.x - lo.x), lo.y + ty * (hi.y - lo.y));
            leaf.push(PointObject::new(3_000_000 + leaf.len() as u64, p));
        }
        leaf.extend(point);
        let mut bounds = *mbr;
        for _ in 0..if members { rng.gen_range(0..4) } else { 0 } {
            let member = group[rng.gen_range(0..group.len())];
            bounds = bounds.union_point(member.point);
            leaf.push(member);
        }
        // Storage order is arbitrary: shuffle the slots.
        for k in (1..leaf.len()).rev() {
            leaf.swap(k, rng.gen_range(0..=k));
        }
        (leaf, bounds)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Neither the reach gate nor the leaf step changes a decision: on
        /// adversarial groups, entries and leaves, the gated group test
        /// equals the plain Lemma-2 rule, and the leaf step clips exactly
        /// the members the plain Lemma-1 rule clips when every point of the
        /// leaf — members under their own ids included, once the cells are
        /// seeded — is offered to every member in the same order, leaving
        /// bitwise-equal cells.
        #[test]
        fn reach_gate_and_leaf_step_equal_the_plain_lemma_rules(
            seed in 0u64..1_000_000,
            shape in 0usize..6,
            n in 1usize..30,
            seeded in 0usize..4,
        ) {
            let group = adversarial_group(seed, shape, n);
            let centroid = Point::centroid_of(group.iter().map(|o| o.point)).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
            let (mut clip, mut tables) = (ClipScratch::default(), GroupTables::default());
            let mut g = GroupCells::new(&group, &Rect::DOMAIN, &mut clip, &mut tables);
            // Mostly from seeded (tight) cells, sometimes from the domain,
            // where the reach gate is widest. The member skip rests on
            // seeding, so only seeded cells meet members in a leaf.
            let seeded = seeded > 0;
            if seeded {
                g.seed();
            }
            let mut order = Vec::new();
            for _ in 0..40 {
                let (mbr, point) = adversarial_entry(&mut rng, &group, &g.cells);
                prop_assert_eq!(
                    g.any_can_refine(&mbr),
                    plain_any_can_refine(&group, &g.cells, &mbr),
                    "Lemma 2 diverged for {:?}", mbr
                );
                let (leaf, bounds) = adversarial_leaf(&mut rng, &group, &mbr, point, seeded);
                let mut by_distance: Vec<&PointObject> = leaf.iter().collect();
                by_distance.sort_by(|a, b| {
                    a.point.dist_sq(&centroid).total_cmp(&b.point.dist_sq(&centroid))
                });
                let mut expected = g.cells.clone();
                let clipped: usize = by_distance
                    .iter()
                    .map(|pj| plain_refine_with(&group, &mut expected, pj).len())
                    .sum();
                let xs: Vec<f64> = leaf.iter().map(|o| o.point.x).collect();
                let ys: Vec<f64> = leaf.iter().map(|o| o.point.y).collect();
                let ids: Vec<ObjectId> = leaf.iter().map(|o| o.id).collect();
                let before = g.clips;
                g.refine_with_leaf(&bounds, &xs, &ys, &ids, &centroid, &mut order);
                prop_assert_eq!(g.clips - before, clipped as u64);
                prop_assert_eq!(&g.cells, &expected, "Lemma 1 diverged for {:?}", leaf);
            }
        }

        /// Delaunay seeding yields each member's cell within the group, and
        /// the full traversal the exact cell, on adversarial groups.
        #[test]
        fn seeded_and_final_cells_match_brute_force_on_adversarial_groups(
            seed in 0u64..1_000_000,
            shape in 0usize..6,
            n in 1usize..48,
        ) {
            let group = adversarial_group(seed, shape, n);
            let points: Vec<Point> = group.iter().map(|o| o.point).collect();
            assert_seeding_matches_brute_force(&group, &Rect::DOMAIN);
            // The group as the whole dataset: final cells = seeded cells.
            let mut tree = RTree::bulk_load(config(), group.clone());
            for (i, cell) in domain_cells(&mut tree, &group).iter().enumerate() {
                let expected = brute_force_cell(&points, i, &Rect::DOMAIN);
                assert_same_cell(cell, &expected, &format!("final cell {i} of {n} (shape {shape})"));
            }
        }
    }

    /// The seeded cells of `group` in `domain` are the brute-force cells
    /// within the group, compared at the domain's scale.
    fn assert_seeding_matches_brute_force(group: &[PointObject], domain: &Rect) {
        let points: Vec<Point> = group.iter().map(|o| o.point).collect();
        let (mut clip, mut tables) = (ClipScratch::default(), GroupTables::default());
        let mut g = GroupCells::new(group, domain, &mut clip, &mut tables);
        g.seed();
        let unit = domain.width() / Rect::DOMAIN.width();
        for (i, cell) in g.cells.iter().enumerate() {
            let expected = brute_force_cell(&points, i, domain);
            let what = format!("seeded cell {i} of {}", group.len());
            assert_same_cell_at(cell, &expected, unit, &what);
        }
    }

    #[test]
    fn seeding_matches_brute_force_from_one_member_to_four_hundred() {
        for (n, seed) in [(1usize, 3u64), (2, 4), (41, 5), (400, 6)] {
            let uniform = PointObject::from_points(&random_points(n, seed));
            assert_seeding_matches_brute_force(&uniform, &Rect::DOMAIN);
            for shape in 0..6 {
                let group = adversarial_group(seed, shape, n);
                assert_seeding_matches_brute_force(&group, &Rect::DOMAIN);
            }
        }
    }

    /// Stress range of the seeding, run with `--release -- --ignored`:
    /// 20 000 near-degenerate groups — collinear, cocircular, on the
    /// domain boundary, mixed, perturbed lattices — with the group and the
    /// domain scaled by 1e-6 … 1e9 (inexactly, so exact degeneracies turn
    /// into near ones), each seeded cell compared with the brute-force cell.
    #[test]
    #[ignore = "stress range; run with --release"]
    fn seeding_matches_brute_force_on_20000_near_degenerate_groups_at_every_scale() {
        let scales = [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9];
        for k in 0..20_000u64 {
            let s = scales[(k % 6) as usize];
            let shape = 1 + (k / 6 % 5) as usize;
            let n = 2 + (k.wrapping_mul(0x9e37_79b9) >> 7) as usize % 47;
            let group: Vec<PointObject> = adversarial_group(50_000 + k, shape, n)
                .into_iter()
                .map(|o| PointObject::new(o.id.0, o.point * s))
                .collect();
            let domain = Rect::new(Rect::DOMAIN.lo * s, Rect::DOMAIN.hi * s);
            assert_seeding_matches_brute_force(&group, &domain);
        }
    }

    /// Algorithm 2 read literally: one best-first queue of nodes *and*
    /// points keyed by distance from the group's centroid, the plain Lemma-2
    /// rule lifted to the group before an entry is queued and again before
    /// it is used, and a dequeued point refining every member it can (Lemma
    /// 1, a member never refining itself). No seeding, no reach gate, no
    /// leaf step.
    fn algorithm_2(
        tree: &mut RTree<PointObject>,
        group: &[PointObject],
        domain: &Rect,
    ) -> Vec<ConvexPolygon> {
        let mut cells = vec![ConvexPolygon::from_rect(domain); group.len()];
        if group.is_empty() || tree.is_empty() {
            return cells;
        }
        let centroid = Point::centroid_of(group.iter().map(|o| o.point)).unwrap();
        let mut queue = TraversalQueue::default();
        queue.push_node(0.0, tree.root_page(), *domain);
        while let Some(entry) = queue.pop() {
            match entry {
                TraversalEntry::Point(pj) => {
                    if plain_any_can_refine(group, &cells, &pj.mbr()) {
                        plain_refine_with(group, &mut cells, &pj);
                    }
                }
                TraversalEntry::Node { page, mbr } => {
                    if !plain_any_can_refine(group, &cells, &mbr) {
                        continue;
                    }
                    let node = tree.try_read_node(page).unwrap();
                    for o in node.objects {
                        if plain_any_can_refine(group, &cells, &o.mbr()) {
                            queue.push_point(o.point.dist(&centroid), o);
                        }
                    }
                    for c in node.children {
                        if plain_any_can_refine(group, &cells, &c.mbr) {
                            queue.push_node(c.mbr.mindist_point(&centroid), c.page, c.mbr);
                        }
                    }
                }
            }
        }
        cells
    }

    /// The uniform 20 k tree the NM-CIJ Q-cell step walks leaf by leaf, with
    /// its leaves in that order.
    fn uniform_20k() -> (RTree<PointObject>, Vec<PageId>) {
        let objects = PointObject::from_points(&random_points(20_000, 20));
        let mut tree = RTree::bulk_load(RTreeConfig::default(), objects);
        let leaves = tree.leaf_pages_hilbert_order(&Rect::DOMAIN);
        (tree, leaves)
    }

    /// The product computes the cells [`algorithm_2`] computes on the
    /// uniform 20 k tree, leaf by leaf, and reads no more nodes in total:
    /// seeding and the leaf step only ever shrink the cells a node decision
    /// sees (module docs, "The leaf step").
    #[test]
    fn every_leaf_matches_the_algorithm_2_reference_and_reads_no_more() {
        let (mut tree, leaves) = uniform_20k();
        let mut scratch = VorScratch::for_budget(tree.config().node_byte_budget());
        let (mut reads, mut reference_reads) = (0u64, 0u64);
        for leaf in leaves {
            let group = tree.try_read_node(leaf).unwrap().objects;
            let before = tree.stats().snapshot().logical_reads;
            let cells = batch_voronoi(&mut tree, &group, &Rect::DOMAIN, &mut NoCache, &mut scratch);
            let between = tree.stats().snapshot().logical_reads;
            let expected = algorithm_2(&mut tree, &group, &Rect::DOMAIN);
            let after = tree.stats().snapshot().logical_reads;
            (reads, reference_reads) =
                (reads + between - before, reference_reads + after - between);
            for ((member, cell), want) in group.iter().zip(&cells).zip(&expected) {
                assert_same_cell(cell, want, &format!("cell of {:?}", member.id));
            }
        }
        assert!(
            reads <= reference_reads,
            "{reads} node reads against the reference's {reference_reads}"
        );
    }

    /// Work guard on the uniform 20 k tree walked leaf by leaf (the Q-cell
    /// step of NM-CIJ). Delaunay seeding clips a member with its Delaunay
    /// neighbours only — about six, nearly all of them cuts — so a seeded
    /// member costs a vertex loop per neighbour and no more; the reach gate
    /// keeps the members that run a vertex loop for a leaf point offered to
    /// the group to the handful the point can concern, and the leaf step
    /// offers each point once, in centroid order, and members never.
    /// Measured: 8.76 clips per cell and 4.65 vertex loops per refinement
    /// pass (a member seeded, or a leaf point offered); the ring walk that
    /// seeded before made 9.62 and 6.96, above the loop bound.
    #[test]
    fn seeding_and_reach_gate_bound_the_work_per_cell() {
        let (mut tree, leaves) = uniform_20k();
        let mut scratch = VorScratch::for_budget(tree.config().node_byte_budget());
        let mut cells = 0u64;
        for leaf in leaves {
            let group = tree.try_read_node(leaf).unwrap().objects;
            cells += group.len() as u64;
            batch_voronoi(&mut tree, &group, &Rect::DOMAIN, &mut NoCache, &mut scratch);
        }
        assert_eq!(cells, 20_000);
        let clips_per_cell = scratch.clips as f64 / cells as f64;
        let loops_per_call = scratch.vertex_loops as f64 / scratch.refine_calls as f64;
        assert!(clips_per_cell <= 10.0, "{clips_per_cell} clips per cell");
        assert!(
            loops_per_call <= 6.0,
            "{loops_per_call} member vertex loops per refinement pass"
        );
    }
}
