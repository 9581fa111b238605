//! Every join algorithm against an exact integer oracle, on lattice inputs,
//! at every power-of-two scale.
//!
//! The `cij_geom` crate docs state what a join returns ("Tolerance
//! policy"): cells are closed, so a contact of measure zero is a pair, and
//! on lattice inputs — sites and domain corners on a grid at most 64 steps
//! wide, step `2^k`, `|k| ≤ 40` — the result is exact at every scale. This
//! file checks exactly that statement.
//!
//! The oracle shares no arithmetic with the product: it is `i128` only and
//! uses nothing from `cij_geom`. `(p, q)` joins iff `V(p, P) ∩ V(q, Q)` is
//! non-empty. On integer sites that region is cut out by integer
//! half-planes — the bisector of `a` and `b` is `2(b − a)·x ≤ |b|² − |a|²`,
//! plus the domain box — and a bounded region of half-planes is non-empty
//! iff some meet of two boundary lines satisfies every constraint. Each
//! meet is a rational kept as numerators over a positive determinant, and
//! each check is the sign of an integer expression. A 3-way tuple is the
//! same test over three constraint sets.
//!
//! Every configuration is pinned (backend, mode, workers, pages), as
//! `tests/golden_counters.rs` does.

use cij::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The exponents `k` of the lattice step `2^k` every case runs at.
const SCALES: [i32; 5] = [-40, -20, 0, 20, 40];

/// A lattice site, in grid steps.
type Site = (i64, i64);

/// The half-plane `a·x + b·y <= c`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Line {
    a: i128,
    b: i128,
    c: i128,
}

/// The rational location `(x / d, y / d)`, `d > 0`.
#[derive(Debug, Clone, Copy)]
struct Meet {
    x: i128,
    y: i128,
    d: i128,
}

impl Line {
    /// `slack · d`: non-negative iff the meet satisfies the constraint.
    fn slack(&self, m: &Meet) -> i128 {
        self.c * m.d - self.a * m.x - self.b * m.y
    }

    /// Where the two boundary lines cross, if they are not parallel.
    fn meet(&self, o: &Line) -> Option<Meet> {
        let d = self.a * o.b - self.b * o.a;
        let s = d.signum();
        (d != 0).then(|| Meet {
            x: s * (self.c * o.b - self.b * o.c),
            y: s * (self.a * o.c - self.c * o.a),
            d: s * d,
        })
    }
}

/// The constraints of `V(sites[i])` within the domain `[0, w]²`: one bisector
/// per other site at a different location, and the four sides.
fn cell_lines(sites: &[Site], i: usize, w: i64) -> Vec<Line> {
    let (px, py) = (i128::from(sites[i].0), i128::from(sites[i].1));
    let mut lines: Vec<Line> = (sites.iter())
        .filter(|&&s| s != sites[i])
        .map(|&(qx, qy)| {
            let (qx, qy) = (i128::from(qx), i128::from(qy));
            Line {
                a: 2 * (qx - px),
                b: 2 * (qy - py),
                c: qx * qx + qy * qy - px * px - py * py,
            }
        })
        .collect();
    let w = i128::from(w);
    lines.extend([
        Line { a: -1, b: 0, c: 0 },
        Line { a: 1, b: 0, c: w },
        Line { a: 0, b: -1, c: 0 },
        Line { a: 0, b: 1, c: w },
    ]);
    lines
}

/// The meets of two lines of `lines` that satisfy every line: the vertices
/// of the (bounded) region the lines cut out, empty iff the region is.
fn vertices(lines: &[Line]) -> impl Iterator<Item = Meet> + '_ {
    (0..lines.len())
        .flat_map(move |i| (i + 1..lines.len()).filter_map(move |j| lines[i].meet(&lines[j])))
        .filter(move |m| lines.iter().all(|l| l.slack(m) >= 0))
}

/// The lines tight at some vertex of the region they cut out: its edge lines
/// among them, so they cut out the same region with fewer constraints.
fn touching(lines: &[Line]) -> Vec<Line> {
    let mut out: Vec<Line> = Vec::new();
    for m in vertices(lines) {
        for l in lines.iter().filter(|l| l.slack(&m) == 0) {
            if !out.contains(l) {
                out.push(*l);
            }
        }
    }
    out
}

/// The cell of every site, as the lines it touches.
fn cells(sites: &[Site], w: i64) -> Vec<Vec<Line>> {
    (0..sites.len())
        .map(|i| touching(&cell_lines(sites, i, w)))
        .collect()
}

/// Whether the cells meet: the lines of all of them cut out a non-empty
/// region.
fn meet(cells: &[&[Line]]) -> bool {
    let lines: Vec<Line> = cells.iter().flat_map(|c| c.iter().copied()).collect();
    let found = vertices(&lines).next().is_some();
    found
}

/// `CIJ(P, Q)` by the oracle: sorted `(p, q)` index pairs.
fn exact_join(p: &[Site], q: &[Site], w: i64) -> Vec<(u64, u64)> {
    let (cp, cq) = (cells(p, w), cells(q, w));
    let mut pairs = Vec::new();
    for (i, a) in cp.iter().enumerate() {
        for (j, b) in cq.iter().enumerate() {
            if meet(&[a, b]) {
                pairs.push((i as u64, j as u64));
            }
        }
    }
    pairs
}

/// The 3-way CIJ by the oracle: sorted id triples.
fn exact_three_way(sets: &[Vec<Site>; 3], w: i64) -> Vec<Vec<u64>> {
    let c = sets.each_ref().map(|s| cells(s, w));
    let mut tuples = Vec::new();
    for (i, a) in c[0].iter().enumerate() {
        for (j, b) in c[1].iter().enumerate() {
            if !meet(&[a, b]) {
                continue;
            }
            for (k, r) in c[2].iter().enumerate() {
                if meet(&[a, b, r]) {
                    tuples.push(vec![i as u64, j as u64, k as u64]);
                }
            }
        }
    }
    tuples
}

/// `sites` at lattice step `2^k`, exact in `f64`.
fn scaled(sites: &[Site], k: i32) -> Vec<Point> {
    let s = 2f64.powi(k);
    (sites.iter())
        .map(|&(x, y)| Point::new(x as f64 * s, y as f64 * s))
        .collect()
}

/// A pinned configuration on the domain `[0, w · 2^k]²`: quarter-kilobyte
/// pages, so twenty points span several leaves and the filter prunes inner
/// entries.
fn config(w: i64, k: i32) -> CijConfig {
    let side = w as f64 * 2f64.powi(k);
    CijConfig::default()
        .with_rtree(RTreeConfig {
            page_size: 256,
            max_entries: 64,
        })
        .with_storage_backend(StorageBackend::Heap)
        .with_exec_mode(ExecMode::Metered)
        .with_worker_threads(1)
        .with_buffer_fraction(0.02)
        .with_min_buffer_pages(8)
        .with_cell_cache_capacity(1024)
        .with_domain(Rect::from_coords(0.0, 0.0, side, side))
}

/// Every binary join of the product at lattice step `2^k`, by name.
fn product_joins(p: &[Site], q: &[Site], w: i64, k: i32) -> Vec<(&'static str, Vec<(u64, u64)>)> {
    let (pp, qq) = (scaled(p, k), scaled(q, k));
    let base = config(w, k);
    let run = |c: CijConfig, alg| QueryEngine::new(c).join(&pp, &qq, alg).sorted_pairs();
    vec![
        ("nm metered, 1 worker", run(base, Algorithm::NmCij)),
        (
            "nm metered, 3 workers",
            run(base.with_worker_threads(3), Algorithm::NmCij),
        ),
        (
            "nm fast",
            run(base.with_exec_mode(ExecMode::Fast), Algorithm::NmCij),
        ),
        ("fm", run(base, Algorithm::FmCij)),
        ("pm", run(base, Algorithm::PmCij)),
        ("brute force", brute_force_cij(&pp, &qq, &base.domain)),
    ]
}

/// The first difference between `got` and `want`, described.
fn differ<T: Ord + std::fmt::Debug>(what: &str, got: &[T], want: &[T]) -> Result<(), String> {
    let missing: Vec<&T> = want
        .iter()
        .filter(|t| got.binary_search(t).is_err())
        .collect();
    let extra: Vec<&T> = got
        .iter()
        .filter(|t| want.binary_search(t).is_err())
        .collect();
    if missing.is_empty() && extra.is_empty() {
        return Ok(());
    }
    Err(format!("{what}: missing {missing:?}, extra {extra:?}"))
}

/// Every binary join at every scale equals the oracle.
fn check_join(p: &[Site], q: &[Site], w: i64) -> Result<(), String> {
    let want = exact_join(p, q, w);
    for k in SCALES {
        for (name, got) in product_joins(p, q, w, k) {
            differ(&format!("{name} at k = {k}"), &got, &want)?;
        }
    }
    Ok(())
}

/// The multiway join at every scale equals the oracle.
fn check_three_way(sets: &[Vec<Site>; 3], w: i64) -> Result<(), String> {
    let want = exact_three_way(sets, w);
    for k in SCALES {
        let points: Vec<Vec<Point>> = sets.iter().map(|s| scaled(s, k)).collect();
        let outcome = QueryEngine::new(config(w, k)).multiway(&points);
        let mut got: Vec<Vec<u64>> = outcome.tuples.into_iter().map(|t| t.ids).collect();
        got.sort_unstable();
        differ(&format!("3-way at k = {k}"), &got, &want)?;
    }
    Ok(())
}

/// A self-join is symmetric at every scale, besides equalling the oracle.
fn check_self_join(p: &[Site], w: i64) -> Result<(), String> {
    check_join(p, p, w)?;
    for k in SCALES {
        for (name, got) in product_joins(p, p, w, k) {
            let mut mirrored: Vec<(u64, u64)> = got.iter().map(|&(a, b)| (b, a)).collect();
            mirrored.sort_unstable();
            differ(
                &format!("{name} self-join mirrored at k = {k}"),
                &mirrored,
                &got,
            )?;
        }
    }
    Ok(())
}

/// Integer offsets of length 5: twelve sites on one circle.
const ON_CIRCLE: [Site; 12] = [
    (5, 0),
    (4, 3),
    (3, 4),
    (0, 5),
    (-3, 4),
    (-4, 3),
    (-5, 0),
    (-4, -3),
    (-3, -4),
    (0, -5),
    (3, -4),
    (4, -3),
];

/// `n` lattice sites in `[0, w]²` of one adversarial kind: 0 uniform, 1 on
/// a few rows, columns and diagonals, 2 cocircular around a lattice centre,
/// 3 on the domain boundary, 4 a mix; every kind but the first repeats
/// some sites (a duplicate under a fresh id).
fn lattice_sites(rng: &mut StdRng, kind: usize, n: usize, w: i64) -> Vec<Site> {
    let mut sites: Vec<Site> = Vec::with_capacity(n);
    let (cx, cy) = (rng.gen_range(5..=w - 5), rng.gen_range(5..=w - 5));
    let line = rng.gen_range(0..=w);
    while sites.len() < n {
        if kind > 0 && !sites.is_empty() && rng.gen_range(0..6) == 0 {
            sites.push(sites[rng.gen_range(0..sites.len())]);
            continue;
        }
        let t = rng.gen_range(0..=w);
        let pick = if kind == 4 { rng.gen_range(0..4) } else { kind };
        sites.push(match pick {
            1 => [(t, line), (line, t), (t, t), (t, w - t)][rng.gen_range(0..4usize)],
            2 => {
                let (dx, dy) = ON_CIRCLE[rng.gen_range(0..ON_CIRCLE.len())];
                (cx + dx, cy + dy)
            }
            3 => [(0, t), (w, t), (t, 0), (t, w)][rng.gen_range(0..4usize)],
            _ => (rng.gen_range(0..=w), rng.gen_range(0..=w)),
        });
    }
    sites
}

/// One random instance: a width and three sets of `n` sites each, every
/// set of a random kind.
fn instance(seed: u64, n: usize) -> (i64, [Vec<Site>; 3]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = [16, 64][rng.gen_range(0..2usize)];
    let sets = [0, 1, 2].map(|_| {
        let kind = rng.gen_range(0..5);
        lattice_sites(&mut rng, kind, n, w)
    });
    (w, sets)
}

fn assert_ok(what: &str, r: Result<(), String>) {
    if let Err(e) = r {
        panic!("{what}: {e}");
    }
}

/// A self-join the tolerance used to decide one way and its mirror the
/// other: `(18, 11)` without `(11, 18)`, the sites `(8, 13)` and `(2, 10)`.
const ASYMMETRIC_SELF_JOIN: [Site; 20] = [
    (8, 1),
    (7, 4),
    (14, 14),
    (0, 7),
    (1, 4),
    (9, 10),
    (7, 16),
    (16, 7),
    (9, 9),
    (8, 6),
    (3, 14),
    (8, 13),
    (2, 11),
    (1, 5),
    (4, 0),
    (11, 14),
    (5, 5),
    (1, 9),
    (2, 10),
    (15, 11),
];

/// A 3-way contact along an edge: `V((7, 9))` (three copies) holds
/// `V((1, 15))`, which shares the segment `x = 3, 14 ≤ y ≤ 16` with
/// `V((4, 16))` — a narrowing the bounding-box skip must not drop.
const EDGE_CONTACT_3_WAY: [[Site; 12]; 3] = [
    [
        (5, 5),
        (7, 9),
        (7, 1),
        (13, 9),
        (7, 9),
        (7, 9),
        (10, 0),
        (14, 2),
        (15, 5),
        (10, 10),
        (13, 1),
        (13, 1),
    ],
    [
        (3, 5),
        (15, 14),
        (4, 12),
        (5, 15),
        (16, 3),
        (7, 13),
        (14, 8),
        (0, 16),
        (13, 13),
        (1, 15),
        (2, 5),
        (15, 0),
    ],
    [
        (2, 16),
        (2, 16),
        (16, 10),
        (2, 16),
        (0, 0),
        (4, 16),
        (10, 16),
        (8, 0),
        (8, 16),
        (16, 0),
        (16, 15),
        (0, 3),
    ],
];

/// Every seeded instance of the three kinds against the oracle: binary
/// joins of `8 + seed % 13` sites a set, self-joins of 20 sites, 3-way
/// joins of 10 sites a set. Panics naming every failing case.
fn check_seeds(
    joins: impl IntoIterator<Item = u64>,
    self_joins: impl IntoIterator<Item = u64>,
    three_way: impl IntoIterator<Item = u64>,
) {
    let mut failures = Vec::new();
    let mut note = |what: String, r: Result<(), String>| {
        if let Err(e) = r {
            failures.push(format!("{what}: {e}"));
        }
    };
    for seed in joins {
        let (w, [p, q, _]) = instance(seed, 8 + (seed as usize % 13));
        note(format!("join, seed {seed}"), check_join(&p, &q, w));
    }
    for seed in self_joins {
        let (w, [p, ..]) = instance(seed, 20);
        note(format!("self-join, seed {seed}"), check_self_join(&p, w));
    }
    for seed in three_way {
        let (w, sets) = instance(seed, 10);
        note(
            format!("3-way join, seed {seed}"),
            check_three_way(&sets, w),
        );
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn every_join_equals_the_exact_oracle_on_lattice_inputs_at_every_scale() {
    assert_ok(
        "the asymmetric self-join",
        check_self_join(&ASYMMETRIC_SELF_JOIN, 16),
    );
    assert_ok(
        "the 3-way edge contact",
        check_three_way(&EDGE_CONTACT_3_WAY.map(|s| s.to_vec()), 16),
    );
    // Self-join seed 460 (w = 64) is an edge contact the stress ranges
    // found: V((34, 45)) and V((28, 45)) share the edge x = 31,
    // 40 ≤ y ≤ 48.14, and a probe group's box ending on that edge used to
    // seed the first cell as a sliver that lost it.
    check_seeds(0..12, (12..16).chain([460]), 16..20);
}

/// The stress ranges: 400 binary joins, 80 self-joins and 80 3-way joins,
/// each at every scale — about 5 s with `--release` on two cores:
/// `cargo test --release --test exact_oracle -- --ignored`.
#[test]
#[ignore = "stress ranges; run with --release"]
fn every_join_equals_the_exact_oracle_over_the_stress_ranges() {
    check_seeds(0..400, 400..480, 480..560);
}

/// The oracle itself, on cases whose answer is known by hand.
#[test]
fn the_oracle_knows_touching_cells_join() {
    // Two sites split [0, 4]² at x = 2; against one site, both join it.
    assert_eq!(
        exact_join(&[(1, 2), (3, 2)], &[(2, 2)], 4),
        [(0, 0), (1, 0)]
    );
    // A 2×2 lattice of sites on [0, 4]²: four square cells meeting at the
    // centre, so every cell touches every other one, the diagonal ones in
    // the single point (2, 2).
    let grid = [(1, 1), (3, 1), (1, 3), (3, 3)];
    assert_eq!(exact_join(&grid, &grid, 4).len(), 16);
    // Columns at x = 1 and x = 7 of [0, 8]²: cells x ≤ 4 and x ≥ 4; the Q
    // cells x ≤ 1 and x ≥ 1 leave the pair (p = x 7, q = x 0) apart.
    let pairs = exact_join(&[(1, 4), (7, 4)], &[(0, 4), (2, 4)], 8);
    assert_eq!(pairs, [(0, 0), (0, 1), (1, 1)]);
}
