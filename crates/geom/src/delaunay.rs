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
//! * **Hull.** A symbolic vertex at infinity closes the triangulation: each
//!   convex-hull edge `a → b` (interior on its right) carries a *ghost*
//!   triangle `a b ∞`, and a new location conflicts with it when it lies
//!   strictly outside the edge's line, or on the open edge itself. Points
//!   outside the hull need no special case, and collinear points on the hull
//!   boundary keep their own edges.
//! * **Degenerate groups.** With one location there are no neighbours; when
//!   every triple of locations is collinear (exact `orient2d` zero), the
//!   neighbours are the consecutive locations along the line.
//! * **Storage.** Triangles, their adjacency, one incident triangle per
//!   location and every scratch buffer are flat arrays in the struct,
//!   emptied and refilled in place, so a reused `Delaunay` allocates nothing
//!   once its buffers have reached their high-water size. A location's
//!   neighbours are read off the triangles around it
//!   ([`Delaunay::neighbours`]), which costs no memory of its own — the
//!   groups of a multiway extension unit reach a thousand points.

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

/// A reusable Delaunay triangulation of a point group (module docs).
///
/// Locations are numbered `0..location_count()` in insertion order; inputs
/// keep the index they had in the slices handed to
/// [`triangulate`](Self::triangulate).
#[derive(Debug, Default)]
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
        let (mut a, mut b, c) = (0, 1, third);
        if orient2d(
            &self.locations[0],
            &self.locations[1],
            &self.locations[c as usize],
        ) < 0.0
        {
            std::mem::swap(&mut a, &mut b);
        }
        // m + 1 vertices on the sphere make 2m − 2 triangles, ghosts
        // included, and each insertion adds two: reserved at once.
        let count = 2 * self.locations.len() - 2;
        self.triangles.reserve_exact(count);
        self.adjacent.reserve_exact(count);
        self.in_cavity.clear();
        self.in_cavity.reserve_exact(count);
        // The finite triangle and the ghosts across its edges `b → a`,
        // `c → b` and `a → c`.
        self.triangles
            .extend([[a, b, c], [b, a, GHOST], [c, b, GHOST], [a, c, GHOST]]);
        self.adjacent
            .extend([[2, 3, 1], [3, 2, 0], [1, 3, 0], [2, 1, 0]]);
        self.in_cavity.resize(4, false);
        self.corner.clear();
        self.corner.reserve_exact(self.locations.len());
        self.corner.resize(self.locations.len(), 0);
        let mut start = 0;
        for v in 2..self.locations.len() as u32 {
            if v != third {
                start = self.insert(v, start);
            }
        }
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

    /// A triangle in conflict with `p`, by a visibility walk from `start`:
    /// step across an edge `p` lies strictly beyond until no such edge is
    /// left (`p` in the closed triangle) or the walk leaves the hull (`p`
    /// strictly outside a hull edge, whose ghost it then conflicts with).
    fn locate(&self, p: &Point, start: u32) -> u32 {
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
                        return t;
                    }
                    continue 'walk;
                }
            }
            return t;
        }
    }

    /// Bowyer–Watson insertion of location `v`, located from `start`:
    /// removes the cavity and fans its boundary around `v`. Returns a new
    /// triangle, the next walk's start.
    fn insert(&mut self, v: u32, start: u32) -> u32 {
        let p = self.locations[v as usize];
        let first = self.locate(&p, start);
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
                if self.conflicts(u, &p) {
                    self.in_cavity[u as usize] = true;
                    self.stack.push(u);
                } else {
                    let tri = self.triangles[t as usize];
                    self.boundary.push([tri[(i + 1) % 3], tri[(i + 2) % 3], u]);
                }
            }
        }
        // A cavity of c triangles has c + 2 boundary edges: its slots are
        // reused and two are added.
        debug_assert_eq!(self.boundary.len(), self.cavity.len() + 2);
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
                debug_assert!(
                    orient2d(&self.locations[a as usize], &self.locations[b as usize], &p) > 0.0
                );
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
    use proptest::prelude::*;

    /// A deterministic stream of uniform integers (SplitMix64).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
        fn unit(&mut self) -> f64 {
            self.below(1 << 53) as f64 / (1u64 << 53) as f64
        }
    }

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
        for v in 1..m as u32 {
            assert_ne!(d.location(v - 1), d.location(v), "{what}: unmerged");
        }
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
