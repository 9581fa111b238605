//! Exact Delaunay triangulation of a point group, for its neighbour lists.
//!
//! [`Delaunay::triangulate`] builds the Delaunay triangulation of the
//! distinct locations of a group of points, and [`Delaunay::neighbours`]
//! lists the locations a location shares an edge with. Every Voronoi edge
//! of positive length separates two locations that share a Delaunay edge,
//! so the Voronoi cell of a location within the group is the plane cut by
//! the bisectors of its neighbours alone.
//!
//! * **Exact.** Every decision is a sign of [`orient2d`] or [`incircle`],
//!   which are exact, so the triangulation — and every neighbour list — is
//!   that of the inputs as real numbers, on every input. No tolerance is
//!   involved (crate docs, "Tolerance policy").
//! * **Repeated locations.** Points at an identical location (`==` on both
//!   coordinates) share one vertex: [`Delaunay::members`] lists them. Points
//!   that differ in any bit are distinct vertices, however close.
//! * **Construction.** Incremental Bowyer–Watson insertion in the Hilbert
//!   order of the group's bounding box: each location is located by a
//!   visibility walk from a triangle of the previous one — a few steps,
//!   since consecutive locations are near each other — then the triangles
//!   whose open circumdisk contains it (the *cavity*) are replaced by a fan
//!   around it. The walk terminates on a Delaunay triangulation, and
//!   insertion stays Delaunay.
//! * **Incremental mode.** A caller whose points arrive one at a time and
//!   are not all kept (the conditional filter of `cij-core`) grows a
//!   triangulation: [`Delaunay::clear`], [`Delaunay::begin`] with three
//!   locations not collinear, then per point [`Delaunay::locate`] from a
//!   start of its choosing (the location the point repeats, or a triangle
//!   in conflict with it) and [`Delaunay::dig`], which lists the cavity's
//!   boundary — the point's would-be neighbours — changing no triangle.
//!   [`Delaunay::commit`] fills that cavity, [`Delaunay::undig`] drops it;
//!   `triangulate` inserts through the same two halves. A repeated
//!   location is never committed.
//! * **Hull.** A symbolic vertex at infinity closes the triangulation: each
//!   convex-hull edge `a → b` (interior on its right) carries a *ghost*
//!   triangle `a b ∞`, and a new location conflicts with it when it lies
//!   strictly outside the edge's line, or on the open edge itself. Points
//!   outside the hull need no special case, and collinear points on the hull
//!   boundary keep their own edges.
//! * **Cells off the circumcentres.** Each triangle is dual to a Voronoi
//!   vertex, its circumcentre, so the Voronoi cell of a location strictly
//!   inside the hull is the convex polygon of the circumcentres of the
//!   triangles around it: [`Delaunay::voronoi_cell`] writes them in one
//!   walk of the star, no clip. It refuses ([`Refusal`]) a location on the
//!   hull (a ghost in its star: the cell is unbounded), a collinear group
//!   (no triangles), a star holding a triangle too flat for its
//!   circumcentre ([`FLAT_TRIANGLE`]), and a location with a neighbour
//!   whose rounded bisector misses the sites' midpoint — where clipping
//!   reaches past that neighbour
//!   ([`Delaunay::extend_past_moved_bisectors`]) and the circumcentres
//!   would not.
//! * **Degenerate groups.** With one location there are no neighbours; when
//!   every triple of locations is collinear (exact `orient2d` zero), the
//!   neighbours are the consecutive locations along the line.
//! * **Storage.** Triangles, their adjacency, one incident triangle per
//!   location and every scratch buffer are flat arrays in the struct,
//!   emptied and refilled in place, so a reused `Delaunay` allocates nothing
//!   once its buffers have reached their high-water size, and never grows
//!   one by doubling (`GROWTH_STEP`). A location's
//!   neighbours are read off the triangles around it
//!   ([`Delaunay::neighbours`]), which costs no memory of its own — the
//!   groups of a multiway extension unit reach a thousand points.

use crate::halfplane::HalfPlane;
use crate::hilbert::hilbert_value_with_order;
use crate::point::Point;
use crate::predicates::{incircle, orient2d};
use crate::rect::Rect;

/// The symbolic vertex at infinity: slot 2 of every ghost triangle.
const GHOST: u32 = u32::MAX;

/// Order of the Hilbert curve that sorts the locations for insertion: a
/// `1024 × 1024` grid over the group's bounding box, finer than any group
/// is large. Points sharing a key are ordered by their coordinates.
const INSERTION_CURVE_ORDER: u32 = 10;

/// Locations an incremental triangulation's buffers grow by when full,
/// exactly, with two triangles each ([`Delaunay::commit`]; `triangulate`
/// reserves its final counts at once): doubling would leave slack that a
/// long-lived scratch keeps.
const GROWTH_STEP: usize = 64;

/// A reusable Delaunay triangulation of a point group (module docs).
///
/// Locations are numbered `0..location_count()` in insertion order; inputs
/// keep the index they had in the slices handed to
/// [`triangulate`](Self::triangulate), whose inputs alone
/// [`members`](Self::members) lists. In the incremental mode the locations
/// are numbered as they join.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(Clone))]
pub struct Delaunay {
    /// Input indices sorted into insertion order: those at location `v` are
    /// `order[member_start[v]..member_start[v + 1]]`, ascending.
    order: Vec<u32>,
    member_start: Vec<u32>,
    /// One point per location.
    locations: Vec<Point>,
    /// Triangles as counter-clockwise vertex triples; a ghost triangle has
    /// [`GHOST`] in slot 2.
    triangles: Vec<[u32; 3]>,
    /// `adjacent[t][i]`: the triangle across the edge of `t` opposite its
    /// vertex `i`.
    adjacent: Vec<[u32; 3]>,
    /// Per location: a triangle it is a vertex of — while a location is
    /// inserted, for each location on the cavity's boundary the new
    /// triangle whose boundary edge starts there.
    corner: Vec<u32>,
    /// Insertion sort keys, by input index.
    keys: Vec<u32>,
    /// Cavity search: the triangles found in conflict so far (all false
    /// between insertions).
    in_cavity: Vec<bool>,
    stack: Vec<u32>,
    cavity: Vec<u32>,
    /// The cavity's boundary edges `u → v` with the triangle beyond each.
    boundary: Vec<[u32; 3]>,
}

impl Delaunay {
    /// Triangulates the distinct locations of the points `(xs[i], ys[i])`,
    /// replacing what the struct held before.
    pub fn triangulate(&mut self, xs: &[f64], ys: &[f64]) {
        assert_eq!(xs.len(), ys.len(), "one y per x");
        self.sort_into_locations(xs, ys, true);
        self.triangles.clear();
        self.adjacent.clear();
        let m = self.locations.len();
        let third = (2..m)
            .find(|&k| orient2d(&self.locations[0], &self.locations[1], &self.locations[k]) != 0.0);
        match third {
            Some(k) => self.insert_all(k as u32),
            // Sorted by position alone, collinear locations are in order
            // along their line, and each neighbours the next.
            None => self.sort_into_locations(xs, ys, false),
        }
    }

    /// Empties the triangulation for the incremental mode (module docs),
    /// keeping every buffer's allocation: no location exists until
    /// [`begin`](Self::begin).
    pub fn clear(&mut self) {
        self.order.clear();
        self.member_start.clear();
        self.locations.clear();
        self.triangles.clear();
        self.adjacent.clear();
        self.corner.clear();
        self.in_cavity.clear();
    }

    /// Starts an incremental triangulation (module docs), replacing what the
    /// struct held, from the triangle of `a`, `b` and `c`, not collinear:
    /// locations 0, 1 and 2. Later ones are numbered as they are committed.
    pub fn begin(&mut self, a: Point, b: Point, c: Point) {
        debug_assert!(orient2d(&a, &b, &c) != 0.0, "the first triangle is proper");
        self.clear();
        self.locations.extend([a, b, c]);
        self.corner.extend([0; 3]);
        self.first_triangle(0, 1, 2);
    }

    /// The number of distinct locations.
    pub fn location_count(&self) -> usize {
        self.locations.len()
    }

    /// The coordinates of location `v`.
    pub fn location(&self, v: u32) -> Point {
        self.locations[v as usize]
    }

    /// The input indices at location `v`, ascending.
    pub fn members(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.order[self.member_start[v] as usize..self.member_start[v + 1] as usize]
    }

    /// The locations that share a Delaunay edge with location `v` — on a
    /// collinear group, its neighbours along the line — each once, read off
    /// the triangles around `v`: each directed edge `v → w` belongs to
    /// exactly one triangle (finite or ghost), and stepping across the
    /// edge `v → w` reaches the triangle of the next one.
    pub fn neighbours(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        let collinear = self.triangles.is_empty();
        let start = if collinear {
            0
        } else {
            self.corner[v as usize]
        };
        let mut next = (!collinear).then_some(start);
        let mut line = [v.checked_sub(1), Some(v + 1)]
            .into_iter()
            .flatten()
            .filter(move |&w| collinear && (w as usize) < self.locations.len());
        std::iter::from_fn(move || {
            while let Some(t) = next {
                let tri = self.triangles[t as usize];
                let i = (0..3).find(|&i| tri[i] == v).expect("a triangle around v");
                let after = self.adjacent[t as usize][(i + 2) % 3];
                next = (after != start).then_some(after);
                if tri[(i + 1) % 3] != GHOST {
                    return Some(tri[(i + 1) % 3]);
                }
            }
            line.next()
        })
    }

    /// Appends to `reached` the neighbours of each listed location `w`, those
    /// appended included, whose rounded bisector with `site` misses the
    /// sites' midpoint ([`HalfPlane::on_boundary`]) and so does not shield
    /// what lies behind `w`; each once, and never `skip`.
    pub fn extend_past_moved_bisectors(
        &self,
        site: &Point,
        skip: Option<u32>,
        reached: &mut Vec<u32>,
    ) {
        let mut k = 0;
        while k < reached.len() {
            let at = self.location(reached[k]);
            if !HalfPlane::bisector(site, &at).on_boundary(&site.midpoint(&at)) {
                for x in self.neighbours(reached[k]) {
                    if Some(x) != skip && !reached.contains(&x) {
                        reached.push(x);
                    }
                }
            }
            k += 1;
        }
    }

    /// Writes into `out` the Voronoi cell of location `v` among the
    /// triangulated locations, unbounded by any domain: the circumcentres
    /// of the triangles around `v`, counter-clockwise, in one walk of its
    /// star (module docs, "Cells off the circumcentres"). Refuses, `out`
    /// then unspecified, where the cell must be built by clipping instead.
    pub fn voronoi_cell(&self, v: u32, out: &mut Vec<Point>) -> Result<(), Refusal> {
        out.clear();
        if self.triangles.is_empty() {
            return Err(Refusal::Collinear);
        }
        let site = self.locations[v as usize];
        let start = self.corner[v as usize];
        let mut t = start;
        loop {
            let tri = self.triangles[t as usize];
            if tri[2] == GHOST {
                return Err(Refusal::Hull);
            }
            let i = (0..3).find(|&i| tri[i] == v).expect("a triangle around v");
            let [b, c] = [tri[(i + 1) % 3], tri[(i + 2) % 3]].map(|w| self.locations[w as usize]);
            // Each neighbour is the `b` of exactly one triangle of the star.
            if !HalfPlane::bisector(&site, &b).on_boundary(&site.midpoint(&b)) {
                return Err(Refusal::MovedBisector);
            }
            out.push(circumcentre(&site, &b, &c).ok_or(Refusal::Flat)?);
            // Across the edge `c → v`: the next triangle counter-clockwise.
            t = self.adjacent[t as usize][(i + 1) % 3];
            if t == start {
                return Ok(());
            }
        }
    }

    /// Sorts the inputs into insertion order — along the Hilbert curve of
    /// their bounding box when `by_curve`, else by position alone — and
    /// merges identical locations.
    fn sort_into_locations(&mut self, xs: &[f64], ys: &[f64], by_curve: bool) {
        // `+ 0.0` turns a negative zero positive, so that the sort keeps
        // equal locations adjacent.
        let at = |i: u32| Point::new(xs[i as usize] + 0.0, ys[i as usize] + 0.0);
        let n = xs.len();
        let bounds = (0..n as u32).fold(Rect::empty(), |r, i| r.union_point(at(i)));
        // Every buffer is sized exactly: the groups of a multiway extension
        // unit reach a thousand points, and doubling would waste a third.
        for buffer in [&mut self.keys, &mut self.order, &mut self.member_start] {
            buffer.clear();
            buffer.reserve_exact(n + 1);
        }
        self.locations.clear();
        self.locations.reserve_exact(n);
        (self.keys).extend((0..n as u32).map(|i| {
            // A key has 2 × INSERTION_CURVE_ORDER bits.
            match by_curve {
                true => hilbert_value_with_order(&at(i), &bounds, INSERTION_CURVE_ORDER) as u32,
                false => 0,
            }
        }));
        let keys = &self.keys;
        self.order.extend(0..n as u32);
        self.order.sort_unstable_by(|&a, &b| {
            let (p, q) = (at(a), at(b));
            (keys[a as usize].cmp(&keys[b as usize]))
                .then(p.x.total_cmp(&q.x))
                .then(p.y.total_cmp(&q.y))
                .then(a.cmp(&b))
        });
        for (k, &i) in self.order.iter().enumerate() {
            let p = at(i);
            if self.locations.last() != Some(&p) {
                self.locations.push(p);
                self.member_start.push(k as u32);
            }
        }
        self.member_start.push(self.order.len() as u32);
    }

    /// Starts from the triangle of locations 0, 1 and `third` (not
    /// collinear) and inserts every other location in order.
    fn insert_all(&mut self, third: u32) {
        // m + 1 vertices on the sphere make 2m − 2 triangles, ghosts
        // included, and each insertion adds two: reserved at once.
        let count = 2 * self.locations.len() - 2;
        self.triangles.reserve_exact(count);
        self.adjacent.reserve_exact(count);
        self.in_cavity.clear();
        self.in_cavity.reserve_exact(count);
        self.corner.clear();
        self.corner.reserve_exact(self.locations.len());
        self.corner.resize(self.locations.len(), 0);
        self.first_triangle(0, 1, third);
        let mut start = 0;
        for v in 2..self.locations.len() as u32 {
            if v != third {
                let p = self.locations[v as usize];
                let t = self.locate(&p, start).expect_err("locations are distinct");
                self.flood(&p, t);
                start = self.fill(v);
            }
        }
    }

    /// Replaces the (empty) triangulation by the triangle of the locations
    /// `a`, `b` and `c`, not collinear, and the ghosts across its edges;
    /// each of the three locations takes triangle 0 as its corner.
    fn first_triangle(&mut self, a: u32, b: u32, c: u32) {
        let [pa, pb, pc] = [a, b, c].map(|v| self.locations[v as usize]);
        let (a, b) = match orient2d(&pa, &pb, &pc) < 0.0 {
            true => (b, a),
            false => (a, b),
        };
        // The finite triangle and the ghosts across its edges `b → a`,
        // `c → b` and `a → c`.
        self.triangles
            .extend([[a, b, c], [b, a, GHOST], [c, b, GHOST], [a, c, GHOST]]);
        self.adjacent
            .extend([[2, 3, 1], [3, 2, 0], [1, 3, 0], [2, 1, 0]]);
        self.in_cavity.resize(4, false);
    }

    /// Whether location `p` conflicts with triangle `t`: lies strictly
    /// inside its circumcircle or, for a ghost triangle, strictly outside
    /// its hull edge or on the open edge.
    fn conflicts(&self, t: u32, p: &Point) -> bool {
        let [a, b, c] = self.triangles[t as usize];
        let (pa, pb) = (&self.locations[a as usize], &self.locations[b as usize]);
        if c != GHOST {
            return incircle(pa, pb, &self.locations[c as usize], p) > 0.0;
        }
        let side = orient2d(pa, pb, p);
        side > 0.0 || (side == 0.0 && strictly_between(pa, pb, p))
    }

    /// Where `p` lies, by a visibility walk from triangle `start`: step
    /// across an edge `p` lies strictly beyond until no such edge is left
    /// (`p` in the closed triangle) or the walk leaves the hull (`p`
    /// strictly outside a hull edge, whose ghost it then conflicts with).
    /// `Ok(v)` when `p` is location `v`; otherwise `Err(t)`, a triangle in
    /// conflict with `p` — one whose open circumdisk holds it (a point of a
    /// closed triangle that is not a corner lies in the open disk), or that
    /// ghost. Every corner of `t` neighbours `p` once `p` is inserted.
    pub fn locate(&self, p: &Point, start: u32) -> Result<u32, u32> {
        let mut t = start;
        if self.triangles[t as usize][2] == GHOST {
            t = self.adjacent[t as usize][2];
        }
        'walk: loop {
            let tri = self.triangles[t as usize];
            for i in 0..3 {
                let (u, v) = (tri[(i + 1) % 3], tri[(i + 2) % 3]);
                let (pu, pv) = (&self.locations[u as usize], &self.locations[v as usize]);
                if orient2d(pu, pv, p) < 0.0 {
                    t = self.adjacent[t as usize][i];
                    if self.triangles[t as usize][2] == GHOST {
                        return Err(t);
                    }
                    continue 'walk;
                }
            }
            return match tri.into_iter().find(|&v| self.locations[v as usize] == *p) {
                Some(v) => Ok(v),
                None => Err(t),
            };
        }
    }

    /// The locations at the corners of triangle `t` — two for a ghost.
    pub fn corners(&self, t: u32) -> impl Iterator<Item = u32> {
        (self.triangles[t as usize].into_iter()).filter(|&v| v != GHOST)
    }

    /// Digs the cavity that inserting `p` would open: floods from `t`, a
    /// triangle [`locate`](Self::locate) found in conflict with `p`, across
    /// every edge to a conflicting triangle, and lists the locations on the
    /// cavity's boundary — `p`'s neighbours once it is inserted. The
    /// triangulation is only marked: [`neighbours`](Self::neighbours) still
    /// reads the triangulation without `p`, until [`commit`](Self::commit)
    /// inserts `p` or [`undig`](Self::undig) drops the cavity.
    pub fn dig(&mut self, p: &Point, t: u32) -> impl Iterator<Item = u32> + '_ {
        self.flood(p, t);
        (self.boundary.iter()).filter_map(|&[a, _, _]| (a != GHOST).then_some(a))
    }

    /// Inserts `p` — the point of the cavity just dug — as a new location,
    /// fanning the cavity around it, and returns the location's number.
    pub fn commit(&mut self, p: Point) -> u32 {
        let full = self.locations.len() == self.locations.capacity();
        if full || self.triangles.len() + 2 > self.triangles.capacity() {
            self.locations.reserve_exact(GROWTH_STEP);
            self.corner.reserve_exact(GROWTH_STEP);
            self.triangles.reserve_exact(2 * GROWTH_STEP);
            self.adjacent.reserve_exact(2 * GROWTH_STEP);
            self.in_cavity.reserve_exact(2 * GROWTH_STEP);
        }
        let v = self.locations.len() as u32;
        self.locations.push(p);
        self.corner.push(0);
        self.fill(v);
        v
    }

    /// Drops the cavity just dug, leaving the triangulation as it was.
    pub fn undig(&mut self) {
        for &t in &self.cavity {
            self.in_cavity[t as usize] = false;
        }
    }

    /// The cavity of `p` from `first`, a triangle in conflict with it: marks
    /// every triangle in conflict with `p` that is reachable across edges
    /// of conflicting triangles, and lists the cavity's boundary edges.
    fn flood(&mut self, p: &Point, first: u32) {
        self.in_cavity[first as usize] = true;
        self.stack.clear();
        self.stack.push(first);
        self.cavity.clear();
        self.boundary.clear();
        while let Some(t) = self.stack.pop() {
            self.cavity.push(t);
            for i in 0..3 {
                let u = self.adjacent[t as usize][i];
                if self.in_cavity[u as usize] {
                    continue;
                }
                if self.conflicts(u, p) {
                    self.in_cavity[u as usize] = true;
                    self.stack.push(u);
                } else {
                    let tri = self.triangles[t as usize];
                    self.boundary.push([tri[(i + 1) % 3], tri[(i + 2) % 3], u]);
                }
            }
        }
        // A cavity of c triangles has c + 2 boundary edges.
        debug_assert_eq!(self.boundary.len(), self.cavity.len() + 2);
    }

    /// Bowyer–Watson's second half: replaces the flooded cavity by a fan
    /// around location `v`, reusing the cavity's slots and adding two.
    /// Returns a new triangle, the next walk's start.
    fn fill(&mut self, v: u32) -> u32 {
        let first = self.cavity[0];
        // The new triangle whose boundary edge starts at the ghost, set below
        // whenever the boundary passes through the ghost.
        let mut ghost_fan = first;
        for k in 0..self.boundary.len() {
            let [a, b, _] = self.boundary[k];
            let t = match self.cavity.get(k) {
                Some(&t) => {
                    self.in_cavity[t as usize] = false;
                    t
                }
                None => {
                    self.triangles.push([0; 3]);
                    self.adjacent.push([0; 3]);
                    self.in_cavity.push(false);
                    (self.triangles.len() - 1) as u32
                }
            };
            // The fan triangle `a b v`, rotated to keep a ghost in slot 2.
            self.triangles[t as usize] = if a == GHOST {
                [b, v, GHOST]
            } else if b == GHOST {
                [v, a, GHOST]
            } else {
                debug_assert!({
                    let [pa, pb, pv] = [a, b, v].map(|x| self.locations[x as usize]);
                    orient2d(&pa, &pb, &pv) > 0.0
                });
                [a, b, v]
            };
            match a {
                GHOST => ghost_fan = t,
                _ => self.corner[a as usize] = t,
            }
        }
        let fan = |corner: &[u32], x: u32| {
            if x == GHOST {
                ghost_fan
            } else {
                corner[x as usize]
            }
        };
        for k in 0..self.boundary.len() {
            let [a, b, outside] = self.boundary[k];
            let t = fan(&self.corner, a);
            self.set_adjacent(t, a, b, outside);
            self.set_adjacent(outside, b, a, t);
            // The fan triangle starting at `b` shares the edge `b v`.
            let next = fan(&self.corner, b);
            self.set_adjacent(t, b, v, next);
            self.set_adjacent(next, v, b, t);
        }
        // The first new triangle took the slot of `first`.
        self.corner[v as usize] = first;
        first
    }

    /// Records `neighbour` as the triangle across the edge `a → b` of `t`.
    fn set_adjacent(&mut self, t: u32, a: u32, b: u32, neighbour: u32) {
        let tri = self.triangles[t as usize];
        let i = (0..3)
            .find(|&i| tri[(i + 1) % 3] == a && tri[(i + 2) % 3] == b)
            .expect("the edge belongs to the triangle");
        self.adjacent[t as usize][i] = neighbour;
    }
}

/// Why [`Delaunay::voronoi_cell`] refused a location (module docs, "Cells
/// off the circumcentres").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The location is on the hull: a ghost triangle is in its star, and
    /// its cell is unbounded.
    Hull,
    /// Every location is on one line: there are no triangles.
    Collinear,
    /// A triangle of the star is too flat for its circumcentre to be
    /// trusted ([`FLAT_TRIANGLE`]).
    Flat,
    /// Some neighbour's rounded bisector with the location misses the two
    /// sites' midpoint ([`HalfPlane::on_boundary`]), so the clipped cell
    /// reaches past that neighbour
    /// ([`Delaunay::extend_past_moved_bisectors`]).
    MovedBisector,
}

/// A triangle `a b c` of a star around `a` is too flat for its circumcentre
/// when `2·cross(b − a, c − a) < FLAT_TRIANGLE · (|b − a|² + |c − a|²)`.
///
/// The circumcentre's offset from `a` is a quotient by `2·cross`, whose
/// operands carry a few ulps of `|b − a|²·|c − a|`: above the bound the
/// quotient magnifies them by at most about a thousand, so the offset is
/// good to a few thousand ulps of its length — near `1e-12` of it, a tenth
/// of the relative threshold [`crate::tolerance::TAU`] every later decision
/// about the cell allows. Below it the circumcentre can lie arbitrarily far
/// out, and its bits mean nothing. The bound selects a path, not a
/// decision: a refused location is clipped instead, and both paths build
/// the same set — the location's Voronoi cell — so it is no tolerance of
/// the crate's policy.
pub const FLAT_TRIANGLE: f64 = 1e-3;

/// The circumcentre of the counter-clockwise triangle `a b c`, computed
/// from `a`; `None` when the triangle is too flat ([`FLAT_TRIANGLE`]).
fn circumcentre(a: &Point, b: &Point, c: &Point) -> Option<Point> {
    let (bx, by, cx, cy) = (b.x - a.x, b.y - a.y, c.x - a.x, c.y - a.y);
    let (b2, c2) = (bx * bx + by * by, cx * cx + cy * cy);
    let d = 2.0 * (bx * cy - by * cx);
    if d < FLAT_TRIANGLE * (b2 + c2) {
        return None;
    }
    Some(Point::new(
        a.x + (cy * b2 - by * c2) / d,
        a.y + (bx * c2 - cx * b2) / d,
    ))
}

/// Whether `p`, collinear with `a` and `b`, lies strictly between them.
fn strictly_between(a: &Point, b: &Point, p: &Point) -> bool {
    let within = |s: f64, t: f64, x: f64| s.min(t) < x && x < s.max(t);
    if a.x != b.x {
        within(a.x, b.x, p.x)
    } else {
        within(a.y, b.y, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TestRng as Rng;
    use proptest::prelude::*;

    fn triangulate(d: &mut Delaunay, points: &[Point]) {
        let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.y).collect();
        d.triangulate(&xs, &ys);
    }

    /// Twelve integer points on the circle of radius 5 around the origin.
    const ON_CIRCLE: [(f64, f64); 12] = [
        (5.0, 0.0),
        (4.0, 3.0),
        (3.0, 4.0),
        (0.0, 5.0),
        (-3.0, 4.0),
        (-4.0, 3.0),
        (-5.0, 0.0),
        (-4.0, -3.0),
        (-3.0, -4.0),
        (0.0, -5.0),
        (3.0, -4.0),
        (4.0, -3.0),
    ];

    /// A group of `n` points of one shape: 0 scattered floats, 1 a small
    /// lattice (collinear and cocircular tuples everywhere), 2 that lattice
    /// at the paper's scale perturbed by ≈ 1e-15 relative, 3 all collinear,
    /// 4 a hull flat as `y = 1e-9·x²`, 5 cocircular; every shape repeats
    /// some locations.
    fn group(seed: u64, shape: u64, n: usize) -> Vec<Point> {
        let mut rng = Rng(seed);
        let (dx, dy) = (rng.below(5) as f64 - 2.0, rng.below(3) as f64);
        let mut points: Vec<Point> = Vec::with_capacity(n);
        for _ in 0..n {
            if !points.is_empty() && rng.below(6) == 0 {
                points.push(points[rng.below(points.len() as u64) as usize]);
                continue;
            }
            let lattice = |rng: &mut Rng| (rng.below(7) as f64, rng.below(7) as f64);
            let p = match shape {
                0 => Point::new(rng.unit() * 1e4, rng.unit() * 1e4),
                1 => {
                    let (x, y) = lattice(&mut rng);
                    Point::new(x, y)
                }
                2 => {
                    let (x, y) = lattice(&mut rng);
                    let quantum = 2f64.powi(-40);
                    let e = |rng: &mut Rng| (rng.below(17) as f64 - 8.0) * quantum;
                    Point::new(5_000.0 + x + e(&mut rng), 6_000.0 + y + e(&mut rng))
                }
                3 => {
                    let t = rng.below(40) as f64;
                    Point::new(100.0 + t * dx, 200.0 + t * dy)
                }
                4 => {
                    let x = rng.unit() * 1e4;
                    Point::new(x, 1e-9 * x * x)
                }
                _ => {
                    let (x, y) = ON_CIRCLE[rng.below(12) as usize];
                    Point::new(x + 50.0, y + 50.0)
                }
            };
            points.push(p);
        }
        points
    }

    /// The boundary of the convex hull of distinct, not all collinear
    /// points, counter-clockwise, collinear boundary points kept (Andrew's
    /// monotone chain popping strict right turns only).
    fn hull_boundary(locations: &[Point]) -> Vec<u32> {
        let mut sorted: Vec<u32> = (0..locations.len() as u32).collect();
        let at = |i: u32| locations[i as usize];
        sorted.sort_by(|&a, &b| {
            at(a)
                .x
                .total_cmp(&at(b).x)
                .then(at(a).y.total_cmp(&at(b).y))
        });
        let chain = |order: &mut dyn Iterator<Item = u32>| {
            let mut c: Vec<u32> = Vec::new();
            for p in order {
                while c.len() >= 2
                    && orient2d(&at(c[c.len() - 2]), &at(c[c.len() - 1]), &at(p)) < 0.0
                {
                    c.pop();
                }
                c.push(p);
            }
            c.pop();
            c
        };
        let mut hull = chain(&mut sorted.iter().copied());
        hull.extend(chain(&mut sorted.iter().rev().copied()));
        hull
    }

    /// The finite triangles, counter-clockwise.
    fn finite(d: &Delaunay) -> impl Iterator<Item = [u32; 3]> + '_ {
        d.triangles.iter().copied().filter(|t| t[2] != GHOST)
    }

    /// Every invariant of the triangulation of `points`; `what` names the
    /// input in failure messages.
    fn check(d: &Delaunay, points: &[Point], what: &str) {
        let m = d.location_count();
        // Members: a partition of the inputs by identical location.
        let mut seen = vec![false; points.len()];
        for v in 0..m as u32 {
            let members = d.members(v);
            assert!(!members.is_empty() && members.windows(2).all(|w| w[0] < w[1]));
            for &i in members {
                assert_eq!(points[i as usize], d.location(v), "{what}");
                assert!(!std::mem::replace(&mut seen[i as usize], true));
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "{what}: an input without a location"
        );
        check_locations(d, what);
    }

    /// Every invariant of a triangulation of its own, pairwise distinct
    /// locations — built at once or grown.
    fn check_locations(d: &Delaunay, what: &str) {
        let m = d.location_count();
        let mut sorted: Vec<Point> = d.locations.clone();
        sorted.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
        assert!(sorted.windows(2).all(|w| w[0] != w[1]), "{what}: unmerged");
        let mut edges: Vec<(u32, u32)> = (0..m as u32)
            .flat_map(|v| d.neighbours(v).map(move |w| (v, w)))
            .collect();
        edges.sort_unstable();
        let loc = |v: u32| d.location(v);
        let collinear = m < 3 || (2..m as u32).all(|k| orient2d(&loc(0), &loc(1), &loc(k)) == 0.0);
        if collinear {
            assert_eq!(finite(d).count(), 0, "{what}");
            let mut line: Vec<u32> = (0..m as u32).collect();
            line.sort_by(|&a, &b| {
                loc(a)
                    .x
                    .total_cmp(&loc(b).x)
                    .then(loc(a).y.total_cmp(&loc(b).y))
            });
            let mut want: Vec<(u32, u32)> = line
                .windows(2)
                .flat_map(|w| [(w[0], w[1]), (w[1], w[0])])
                .collect();
            want.sort_unstable();
            assert_eq!(edges, want, "{what}: collinear neighbours");
            return;
        }
        // Adjacency is symmetric: the edge `a → b` of `t` is `b → a` of
        // the triangle across.
        for (t, tri) in d.triangles.iter().enumerate() {
            for i in 0..3 {
                let (a, b) = (tri[(i + 1) % 3], tri[(i + 2) % 3]);
                let u = d.adjacent[t][i] as usize;
                let other = d.triangles[u];
                let j = (0..3)
                    .find(|&j| other[(j + 1) % 3] == b && other[(j + 2) % 3] == a)
                    .unwrap_or_else(|| panic!("{what}: edge {a}->{b} of {t} not in {u}"));
                assert_eq!(d.adjacent[u][j] as usize, t, "{what}");
            }
        }
        // Every finite triangle is strictly counter-clockwise, and every
        // edge between two finite triangles is locally Delaunay.
        for (t, tri) in d.triangles.iter().enumerate() {
            if tri[2] == GHOST {
                continue;
            }
            let [a, b, c] = tri.map(loc);
            assert!(orient2d(&a, &b, &c) > 0.0, "{what}: {tri:?} not ccw");
            for i in 0..3 {
                let u = d.adjacent[t][i] as usize;
                let other = d.triangles[u];
                if other[2] == GHOST {
                    continue;
                }
                let far = other.into_iter().find(|w| !tri.contains(w)).unwrap();
                assert!(
                    incircle(&a, &b, &c, &loc(far)) <= 0.0,
                    "{what}: {far} inside the circle of {tri:?}"
                );
            }
        }
        // Every hull edge is present, and nothing else is on the hull.
        let boundary = hull_boundary(&d.locations);
        let mut want_hull: Vec<(u32, u32)> = (0..boundary.len())
            .map(|k| (boundary[(k + 1) % boundary.len()], boundary[k]))
            .collect();
        want_hull.sort_unstable();
        // A ghost triangle `a b ∞` carries the hull edge `a → b`.
        let mut hull: Vec<(u32, u32)> = (d.triangles.iter())
            .filter(|t| t[2] == GHOST)
            .map(|t| (t[0], t[1]))
            .collect();
        hull.sort_unstable();
        assert_eq!(hull, want_hull, "{what}: hull edges");
        // Euler: a triangulation of m locations, h of them on the hull
        // boundary, has 2m − 2 − h triangles and 3m − 3 − h edges.
        let h = hull.len();
        assert_eq!(finite(d).count(), 2 * m - 2 - h, "{what}: triangle count");
        assert_eq!(edges.len(), 2 * (3 * m - 3 - h), "{what}: edge count");
        // The neighbour lists are the triangles' edges, both ways.
        let mut want: Vec<(u32, u32)> = finite(d)
            .flat_map(|t| {
                (0..3).flat_map(move |i| [(t[i], t[(i + 1) % 3]), (t[(i + 1) % 3], t[i])])
            })
            .collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(edges, want, "{what}: neighbour lists");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Every triangulation is a Delaunay triangulation of the distinct
        /// locations, checked with the exact predicates: one reused struct
        /// over every shape, size and scale.
        #[test]
        fn triangulations_are_exactly_delaunay(
            seed in 0u64..1_000_000,
            shape in 0u64..6,
            n in 1usize..120,
            k in -40i32..41,
        ) {
            let s = 2f64.powi(k);
            let points: Vec<Point> = group(seed, shape, n).iter().map(|p| *p * s).collect();
            let mut d = Delaunay::default();
            triangulate(&mut d, &group(seed ^ 1, shape, n));
            triangulate(&mut d, &points);
            check(&d, &points, &format!("seed {seed}, shape {shape}, n {n}, k {k}"));
        }
    }

    /// Whether the edge `v → w` of `d` can be flipped into another Delaunay
    /// triangulation: both triangles beside it are finite and their four
    /// corners cocircular.
    fn flippable(d: &Delaunay, v: u32, w: u32) -> bool {
        let (t, i) = (0..d.triangles.len())
            .flat_map(|t| (0..3).map(move |i| (t, i)))
            .find(|&(t, i)| d.triangles[t][(i + 1) % 3] == v && d.triangles[t][(i + 2) % 3] == w)
            .expect("an edge of the triangulation");
        let tri = d.triangles[t];
        let far = d.triangles[d.adjacent[t][i] as usize];
        let opposite = far.into_iter().find(|x| !tri.contains(x)).unwrap();
        if tri[2] == GHOST || far[2] == GHOST || opposite == GHOST {
            return false;
        }
        let [a, b, c] = tri.map(|x| d.location(x));
        incircle(&a, &b, &c, &d.location(opposite)) == 0.0
    }

    /// Grows a triangulation of `points` in the order given, as the
    /// conditional filter does, and checks every step against a fresh one:
    /// points are held until three are not collinear; then each is located
    /// from a random triangle, its dug cavity's boundary must be its
    /// neighbour set in a fresh triangulation of the locations so far and
    /// itself, and it is committed — or, one time in three, dropped by
    /// `undig`, which must leave the triangulation as it found it. After
    /// every commit every invariant holds.
    fn grow_and_check(points: &[Point], rng: &mut Rng, what: &str) {
        let mut d = Delaunay::default();
        // Leftovers of an earlier triangulation must not leak through clear.
        triangulate(&mut d, &group(7, 0, 30));
        d.clear();
        let mut held: Vec<Point> = Vec::new();
        let mut fresh = Delaunay::default();
        for (k, &p) in points.iter().enumerate() {
            let what = format!("{what}, point {k}");
            if d.location_count() == 0 {
                held.push(p);
                let Some(second) = held.iter().position(|&q| q != held[0]) else {
                    continue;
                };
                if orient2d(&held[0], &held[second], &p) == 0.0 {
                    continue;
                }
                d.begin(held[0], held[second], p);
                for &q in &held[1..held.len() - 1] {
                    if let Err(t) = d.locate(&q, 0) {
                        d.dig(&q, t).for_each(drop);
                        d.commit(q);
                    }
                }
                check_locations(&d, &what);
                continue;
            }
            let start = rng.below(d.triangles.len() as u64) as u32;
            let t = match d.locate(&p, start) {
                Ok(v) => {
                    assert_eq!(d.location(v), p, "{what}: located at another vertex");
                    continue;
                }
                Err(t) => t,
            };
            assert!(
                d.locations.iter().all(|&q| q != p),
                "{what}: a repeated location not found"
            );
            let before = (d.triangles.clone(), d.adjacent.clone(), d.in_cavity.clone());
            let dug: Vec<u32> = d.dig(&p, t).collect();
            // The boundary is `p`'s neighbour list once committed, and a
            // fresh triangulation's up to flips of cocircular quadruples.
            let mut committed = d.clone();
            let v = committed.commit(p);
            let mut own: Vec<u32> = committed.neighbours(v).collect();
            own.sort_unstable();
            let mut sorted = dug.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, own, "{what}: the cavity's boundary");
            let mut with_p = d.locations.clone();
            with_p.push(p);
            triangulate(&mut fresh, &with_p);
            let at = (0..fresh.location_count() as u32)
                .find(|&w| fresh.location(w) == p)
                .unwrap();
            let theirs: Vec<u32> = fresh.neighbours(at).collect();
            for &w in &dug {
                let found = theirs.iter().any(|&x| fresh.location(x) == d.location(w));
                assert!(
                    found || flippable(&committed, v, w),
                    "{what}: {} dug, not a fresh neighbour",
                    d.location(w)
                );
            }
            for &x in &theirs {
                let found = dug.iter().any(|&w| d.location(w) == fresh.location(x));
                assert!(
                    found || flippable(&fresh, at, x),
                    "{what}: {} a fresh neighbour, not dug",
                    fresh.location(x)
                );
            }
            if rng.below(3) == 0 {
                d.undig();
                let after = (d.triangles.clone(), d.adjacent.clone(), d.in_cavity.clone());
                assert!(before == after, "{what}: undig changed the triangulation");
            } else {
                d.commit(p);
                check_locations(&d, &what);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The incremental mode grows an exact Delaunay triangulation, digs
        /// exactly the would-be neighbours and undigs without a trace, on
        /// every shape and scale, inserted at random or best-first by
        /// distance from a random centre (the filter's order), after a
        /// collinear prefix or not; every shape repeats some locations.
        #[test]
        fn incremental_insertion_is_exactly_delaunay(
            seed in 0u64..1_000_000,
            shape in 0u64..6,
            n in 1usize..90,
            k in -40i32..41,
            best_first in 0usize..2,
            prefix in 0usize..2,
        ) {
            let mut rng = Rng(seed ^ 0x1D);
            let mut points = group(seed, shape, n);
            if prefix == 1 {
                // A collinear run first, some of it repeated, then the rest.
                let line: Vec<Point> = (0..2 + rng.below(6))
                    .map(|i| Point::new(1_000.0 + 3.0 * (i % 4) as f64, 2_000.0 - (i % 4) as f64))
                    .collect();
                points.splice(0..0, line);
            }
            let s = 2f64.powi(k);
            let mut points: Vec<Point> = points.iter().map(|p| *p * s).collect();
            if best_first == 1 {
                let c = points[rng.below(points.len() as u64) as usize];
                points.sort_by(|a, b| a.dist_sq(&c).total_cmp(&b.dist_sq(&c)));
            } else {
                for i in (1..points.len()).rev() {
                    points.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
            let what = format!(
                "seed {seed}, shape {shape}, n {n}, k {k}, best-first {best_first}, prefix {prefix}"
            );
            grow_and_check(&points, &mut rng, &what);
        }
    }

    #[test]
    fn small_and_degenerate_groups() {
        let p = Point::new;
        let cases: [&[Point]; 7] = [
            &[],
            &[p(1.0, 1.0)],
            &[p(1.0, 1.0), p(1.0, 1.0), p(1.0, 1.0)],
            &[p(0.0, 0.0), p(3.0, 4.0)],
            &[p(0.0, 0.0), p(2.0, 2.0), p(1.0, 1.0)],
            &[p(0.0, 5.0), p(0.0, -5.0), p(0.0, 1.0), p(-0.0, 1.0)],
            &[p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0), p(1.0, 1e-300)],
        ];
        let mut d = Delaunay::default();
        for (k, points) in cases.iter().enumerate() {
            triangulate(&mut d, points);
            check(&d, points, &format!("case {k}"));
        }
        // Three collinear points: the middle one neighbours both ends.
        triangulate(&mut d, cases[4]);
        let middle = (0..3).find(|&v| d.location(v) == p(1.0, 1.0)).unwrap();
        assert_eq!(d.neighbours(middle).count(), 2);
        // A negative zero is the location of a positive one.
        triangulate(&mut d, cases[5]);
        assert_eq!(d.location_count(), 3);
    }

    /// An incremental triangulation's buffers end within one step of their
    /// length: 600 locations make 1 198 triangles, which doubling would
    /// hold in 2 048 slots.
    #[test]
    fn incremental_buffers_grow_by_the_step_not_by_doubling() {
        let mut rng = Rng(3);
        let points: Vec<Point> = (0..600)
            .map(|_| Point::new(rng.unit() * 1e4, rng.unit() * 1e4))
            .collect();
        let mut d = Delaunay::default();
        d.begin(points[0], points[1], points[2]);
        for p in &points[3..] {
            if let Err(t) = d.locate(p, 0) {
                d.dig(p, t).for_each(drop);
                d.commit(*p);
            }
        }
        assert_eq!(d.location_count(), 600);
        let slack = |len: usize, capacity: usize| capacity - len;
        assert!(slack(d.locations.len(), d.locations.capacity()) < GROWTH_STEP);
        assert!(slack(d.corner.len(), d.corner.capacity()) < GROWTH_STEP);
        for capacity in [
            d.triangles.capacity(),
            d.adjacent.capacity(),
            d.in_cavity.capacity(),
        ] {
            assert!(slack(d.triangles.len(), capacity) < 2 * GROWTH_STEP);
        }
    }

    /// Insertion stays near-linear on a large clustered group: a reused
    /// struct reaches its high-water size once and the walks stay short.
    #[test]
    fn a_thousand_clustered_points_triangulate_exactly() {
        let mut rng = Rng(9);
        let points: Vec<Point> = (0..1_300)
            .map(|_| {
                let c = rng.below(4) as f64 * 2_000.0;
                Point::new(c + rng.unit() * 300.0, c + rng.unit() * 300.0)
            })
            .collect();
        let mut d = Delaunay::default();
        triangulate(&mut d, &points);
        check(&d, &points, "clustered");
    }
}
