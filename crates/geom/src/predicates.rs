//! Exact orientation and in-circle predicates for `f64` points.
//!
//! [`orient2d`] and [`incircle`] return a value whose **sign is exact**: the
//! sign of the determinant evaluated on the inputs as real numbers, with no
//! threshold. They follow Shewchuk ("Adaptive Precision Floating-Point
//! Arithmetic and Fast Robust Geometric Predicates", 1997) in two stages:
//!
//! 1. **Float filter.** The determinant is evaluated in plain `f64`, next to
//!    a bound on its rounding error that is proportional to the permanent
//!    (the same products, absolute values summed). When the computed value
//!    exceeds the bound its sign is the exact sign, and it is returned. On
//!    inputs in general position this is the only stage that runs.
//! 2. **Exact evaluation.** Otherwise the determinant is expanded into sums
//!    of exact products of the coordinates and evaluated as a
//!    floating-point *expansion*: a sum of non-overlapping `f64` components
//!    held in fixed-size stack arrays, computed without rounding error. The
//!    most significant component carries the sign.
//!
//! The error bounds are multiples of the unit roundoff `2⁻⁵³` and are no
//! tolerance in the sense of [`crate::tolerance`]: they only choose between
//! the two stages, and both stages return the same sign. Products and sums
//! are exact as long as no intermediate overflows or underflows, which holds
//! for coordinates between `2⁻²⁴⁰` and `2²⁴⁰` in magnitude.

use crate::point::Point;

/// The unit roundoff of `f64`: `2⁻⁵³`, half the gap between 1 and the next
/// larger float. Every rounded operation is within this relative error.
const UNIT_ROUNDOFF: f64 = 1.0 / 9_007_199_254_740_992.0;

/// Splits a float into two halves of 26 bits each: `2²⁷ + 1`.
const SPLITTER: f64 = 134_217_729.0;

/// Rounding-error bound of the float orientation determinant, relative to
/// its permanent (Shewchuk's `ccwerrboundA`).
const ORIENT_BOUND: f64 = (3.0 + 16.0 * UNIT_ROUNDOFF) * UNIT_ROUNDOFF;

/// Rounding-error bound of the float in-circle determinant, relative to its
/// permanent (Shewchuk's `iccerrboundA`).
const INCIRCLE_BOUND: f64 = (10.0 + 96.0 * UNIT_ROUNDOFF) * UNIT_ROUNDOFF;

/// Twice the signed area of the triangle `a b c`, with an exact sign:
/// positive when `a`, `b`, `c` turn counter-clockwise, negative when they
/// turn clockwise, zero exactly when the three points are collinear.
pub fn orient2d(a: &Point, b: &Point, c: &Point) -> f64 {
    let left = (a.x - c.x) * (b.y - c.y);
    let right = (a.y - c.y) * (b.x - c.x);
    let det = left - right;
    // When the two products have opposite signs (or one is zero) the
    // difference cannot cancel, and rounded differences and products keep
    // their signs.
    let permanent = if left > 0.0 {
        if right <= 0.0 {
            return det;
        }
        left + right
    } else if left < 0.0 {
        if right >= 0.0 {
            return det;
        }
        -left - right
    } else {
        return det;
    };
    if det.abs() >= ORIENT_BOUND * permanent {
        return det;
    }
    orient2d_exact(a, b, c)
}

/// Whether `d` lies inside the circle through `a`, `b`, `c`, with an exact
/// sign: for `a b c` counter-clockwise the value is positive when `d` lies
/// strictly inside the circle, negative when strictly outside, and zero
/// exactly when the four points are cocircular. (For `a b c` clockwise the
/// sign flips.)
pub fn incircle(a: &Point, b: &Point, c: &Point, d: &Point) -> f64 {
    let (adx, ady) = (a.x - d.x, a.y - d.y);
    let (bdx, bdy) = (b.x - d.x, b.y - d.y);
    let (cdx, cdy) = (c.x - d.x, c.y - d.y);
    let (bdxcdy, cdxbdy) = (bdx * cdy, cdx * bdy);
    let (cdxady, adxcdy) = (cdx * ady, adx * cdy);
    let (adxbdy, bdxady) = (adx * bdy, bdx * ady);
    let alift = adx * adx + ady * ady;
    let blift = bdx * bdx + bdy * bdy;
    let clift = cdx * cdx + cdy * cdy;
    let det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady);
    let permanent = (bdxcdy.abs() + cdxbdy.abs()) * alift
        + (cdxady.abs() + adxcdy.abs()) * blift
        + (adxbdy.abs() + bdxady.abs()) * clift;
    if det.abs() > INCIRCLE_BOUND * permanent {
        return det;
    }
    incircle_exact(a, b, c, d)
}

/// `a + b` as `(rounded sum, rounding error)`, exactly.
#[inline]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let x = a + b;
    let b_virtual = x - a;
    let a_virtual = x - b_virtual;
    (x, (a - a_virtual) + (b - b_virtual))
}

/// [`two_sum`] for `|a| ≥ |b|` (or `a` zero), in fewer operations.
#[inline]
fn fast_two_sum(a: f64, b: f64) -> (f64, f64) {
    let x = a + b;
    (x, b - (x - a))
}

/// `a − b` as `(rounded difference, rounding error)`, exactly.
#[inline]
fn two_diff(a: f64, b: f64) -> (f64, f64) {
    let x = a - b;
    let b_virtual = a - x;
    let a_virtual = x + b_virtual;
    (x, (a - a_virtual) + (b_virtual - b))
}

/// `a` as `hi + lo`, each half with at most 26 significant bits, so that a
/// product of two halves is exact.
#[inline]
fn split(a: f64) -> (f64, f64) {
    let c = SPLITTER * a;
    let hi = c - (c - a);
    (hi, a - hi)
}

/// `a · b` as `(rounded product, rounding error)`, exactly, with `b`
/// already split.
#[inline]
fn two_product_presplit(a: f64, b: f64, (b_hi, b_lo): (f64, f64)) -> (f64, f64) {
    let x = a * b;
    let (a_hi, a_lo) = split(a);
    let err = x - a_hi * b_hi - a_lo * b_hi - a_hi * b_lo;
    (x, a_lo * b_lo - err)
}

/// `a · b` as `(rounded product, rounding error)`, exactly.
#[inline]
fn two_product(a: f64, b: f64) -> (f64, f64) {
    two_product_presplit(a, b, split(b))
}

/// `a·b − c·d` as a four-component expansion, least significant first.
fn cross_diff(a: f64, b: f64, c: f64, d: f64) -> [f64; 4] {
    let (ab1, ab0) = two_product(a, b);
    let (cd1, cd0) = two_product(c, d);
    // (ab1 + ab0) − (cd1 + cd0): Shewchuk's Two_Two_Diff.
    let (i, x0) = two_diff(ab0, cd0);
    let (j, z) = two_sum(ab1, i);
    let (i, x1) = two_diff(z, cd1);
    let (x3, x2) = two_sum(j, i);
    [x0, x1, x2, x3]
}

/// Appends `hh` to the expansion `h[..*len]` unless it is zero.
#[inline]
fn push_nonzero(h: &mut [f64], len: &mut usize, hh: f64) {
    if hh != 0.0 {
        h[*len] = hh;
        *len += 1;
    }
}

/// `e · b` into `h`, zero components dropped; returns the length of `h`
/// (at least 1). `h` holds at least `2·e.len()` components.
fn scale_expansion(e: &[f64], b: f64, h: &mut [f64]) -> usize {
    let b_split = split(b);
    let (mut q, hh) = two_product_presplit(e[0], b, b_split);
    let mut len = 0;
    push_nonzero(h, &mut len, hh);
    for &component in &e[1..] {
        let (product1, product0) = two_product_presplit(component, b, b_split);
        let (sum, hh) = two_sum(q, product0);
        push_nonzero(h, &mut len, hh);
        let (q_next, hh) = fast_two_sum(product1, sum);
        q = q_next;
        push_nonzero(h, &mut len, hh);
    }
    if q != 0.0 || len == 0 {
        h[len] = q;
        len += 1;
    }
    len
}

/// `e + f` into `h`, zero components dropped; returns the length of `h`
/// (at least 1). `h` holds at least `e.len() + f.len()` components.
fn expansion_sum(e: &[f64], f: &[f64], h: &mut [f64]) -> usize {
    // Components are merged in order of magnitude.
    let e_first = |e_now: f64, f_now: f64| (f_now > e_now) == (f_now > -e_now);
    let (mut ei, mut fi) = (0, 0);
    let mut q = if e_first(e[0], f[0]) {
        ei += 1;
        e[0]
    } else {
        fi += 1;
        f[0]
    };
    let mut len = 0;
    if ei < e.len() && fi < f.len() {
        let (q_next, hh) = if e_first(e[ei], f[fi]) {
            ei += 1;
            fast_two_sum(e[ei - 1], q)
        } else {
            fi += 1;
            fast_two_sum(f[fi - 1], q)
        };
        q = q_next;
        push_nonzero(h, &mut len, hh);
        while ei < e.len() && fi < f.len() {
            let (q_next, hh) = if e_first(e[ei], f[fi]) {
                ei += 1;
                two_sum(q, e[ei - 1])
            } else {
                fi += 1;
                two_sum(q, f[fi - 1])
            };
            q = q_next;
            push_nonzero(h, &mut len, hh);
        }
    }
    for &component in e[ei..].iter().chain(&f[fi..]) {
        let (q_next, hh) = two_sum(q, component);
        q = q_next;
        push_nonzero(h, &mut len, hh);
    }
    if q != 0.0 || len == 0 {
        h[len] = q;
        len += 1;
    }
    len
}

/// The orientation determinant as an exact expansion:
/// `a.x·(b.y − c.y) + b.x·(c.y − a.y) + c.x·(a.y − b.y)`, each term the
/// difference of two exact products. Kept out of line: it is rare, and its
/// buffers would otherwise widen the caller's frame.
#[cold]
#[inline(never)]
fn orient2d_exact(a: &Point, b: &Point, c: &Point) -> f64 {
    let a_terms = cross_diff(a.x, b.y, a.x, c.y);
    let b_terms = cross_diff(b.x, c.y, b.x, a.y);
    let c_terms = cross_diff(c.x, a.y, c.x, b.y);
    let mut v = [0.0; 8];
    let v_len = expansion_sum(&a_terms, &b_terms, &mut v);
    let mut w = [0.0; 12];
    let w_len = expansion_sum(&v[..v_len], &c_terms, &mut w);
    w[w_len - 1]
}

/// One term of the in-circle determinant's expansion along the lifted
/// column: the 3 × 3 minor `m` of the other rows times `sign · (x² + y²)`
/// of the point `p`, into `out`; returns the length of `out`.
fn lifted_row(m: &[f64], p: &Point, sign: f64, out: &mut [f64; 96]) -> usize {
    let (mut x24, mut x48) = ([0.0; 24], [0.0; 48]);
    let (mut y24, mut y48) = ([0.0; 24], [0.0; 48]);
    let x_len = scale_expansion(m, p.x, &mut x24);
    let x_len = scale_expansion(&x24[..x_len], sign * p.x, &mut x48);
    let y_len = scale_expansion(m, p.y, &mut y24);
    let y_len = scale_expansion(&y24[..y_len], sign * p.y, &mut y48);
    expansion_sum(&x48[..x_len], &y48[..y_len], out)
}

/// The in-circle determinant as an exact expansion: the 4 × 4 determinant
/// of the rows `(x, y, x² + y², 1)`, expanded along the lifted column into
/// 3 × 3 minors built from the six exact 2 × 2 minors of the coordinates
/// (Shewchuk's `incircleexact`). Kept out of line like [`orient2d_exact`].
#[cold]
#[inline(never)]
fn incircle_exact(a: &Point, b: &Point, c: &Point, d: &Point) -> f64 {
    let ab = cross_diff(a.x, b.y, b.x, a.y);
    let bc = cross_diff(b.x, c.y, c.x, b.y);
    let cd = cross_diff(c.x, d.y, d.x, c.y);
    let da = cross_diff(d.x, a.y, a.x, d.y);
    let ac = cross_diff(a.x, c.y, c.x, a.y);
    let bd = cross_diff(b.x, d.y, d.x, b.y);
    let neg = |e: [f64; 4]| e.map(|x| -x);
    // The 3 × 3 minor of three rows: the sum of three 2 × 2 minors.
    let minor = |p: &[f64; 4], q: &[f64; 4], r: &[f64; 4], out: &mut [f64; 12]| {
        let mut t8 = [0.0; 8];
        let t_len = expansion_sum(p, q, &mut t8);
        expansion_sum(&t8[..t_len], r, out)
    };
    let (mut cda, mut dab, mut abc, mut bcd) = ([0.0; 12], [0.0; 12], [0.0; 12], [0.0; 12]);
    let cda_len = minor(&cd, &da, &ac, &mut cda);
    let dab_len = minor(&da, &ab, &bd, &mut dab);
    let abc_len = minor(&ab, &bc, &neg(ac), &mut abc);
    let bcd_len = minor(&bc, &cd, &neg(bd), &mut bcd);

    let (mut a_det, mut b_det, mut c_det, mut d_det) = ([0.0; 96], [0.0; 96], [0.0; 96], [0.0; 96]);
    let a_len = lifted_row(&bcd[..bcd_len], a, 1.0, &mut a_det);
    let b_len = lifted_row(&cda[..cda_len], b, -1.0, &mut b_det);
    let c_len = lifted_row(&dab[..dab_len], c, 1.0, &mut c_det);
    let d_len = lifted_row(&abc[..abc_len], d, -1.0, &mut d_det);

    let (mut ab_det, mut cd_det) = ([0.0; 192], [0.0; 192]);
    let ab_len = expansion_sum(&a_det[..a_len], &b_det[..b_len], &mut ab_det);
    let cd_len = expansion_sum(&c_det[..c_len], &d_det[..d_len], &mut cd_det);
    let mut det = [0.0; 384];
    let len = expansion_sum(&ab_det[..ab_len], &cd_det[..cd_len], &mut det);
    det[len - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 256-bit two's-complement integer: wide enough for the in-circle
    /// determinant of 45-bit coordinate offsets, where `i128` overflows.
    #[derive(Clone, Copy)]
    struct I256([u64; 4]);

    impl I256 {
        fn from(v: i128) -> Self {
            let fill = if v < 0 { u64::MAX } else { 0 };
            I256([v as u64, (v >> 64) as u64, fill, fill])
        }
        fn add(self, o: Self) -> Self {
            let mut out = [0; 4];
            let mut carry = 0u128;
            for (i, limb) in out.iter_mut().enumerate() {
                let s = u128::from(self.0[i]) + u128::from(o.0[i]) + carry;
                *limb = s as u64;
                carry = s >> 64;
            }
            I256(out)
        }
        fn neg(self) -> Self {
            I256(self.0.map(|l| !l)).add(I256::from(1))
        }
        fn sub(self, o: Self) -> Self {
            self.add(o.neg())
        }
        fn mul(self, o: Self) -> Self {
            let mut out = [0u64; 4];
            for i in 0..4 {
                let mut carry = 0u128;
                for j in 0..4 - i {
                    let t =
                        u128::from(self.0[i]) * u128::from(o.0[j]) + u128::from(out[i + j]) + carry;
                    out[i + j] = t as u64;
                    carry = t >> 64;
                }
            }
            I256(out)
        }
        fn signum(self) -> i32 {
            if self.0[3] >> 63 == 1 {
                -1
            } else if self.0 == [0; 4] {
                0
            } else {
                1
            }
        }
    }

    type Lattice = (i128, i128);

    fn exact_orient(a: Lattice, b: Lattice, c: Lattice) -> i32 {
        let big = |v: i128| I256::from(v);
        let left = big(a.0 - c.0).mul(big(b.1 - c.1));
        let right = big(a.1 - c.1).mul(big(b.0 - c.0));
        left.sub(right).signum()
    }

    fn exact_incircle(a: Lattice, b: Lattice, c: Lattice, d: Lattice) -> i32 {
        let rel = |p: Lattice| (I256::from(p.0 - d.0), I256::from(p.1 - d.1));
        let ((ax, ay), (bx, by), (cx, cy)) = (rel(a), rel(b), rel(c));
        let lift = |x: I256, y: I256| x.mul(x).add(y.mul(y));
        let minor = |px: I256, py: I256, qx: I256, qy: I256| px.mul(qy).sub(qx.mul(py));
        let det = lift(ax, ay)
            .mul(minor(bx, by, cx, cy))
            .add(lift(bx, by).mul(minor(cx, cy, ax, ay)))
            .add(lift(cx, cy).mul(minor(ax, ay, bx, by)));
        det.signum()
    }

    /// A deterministic stream of small integers.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> i128 {
            // SplitMix64.
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            i128::from((z ^ (z >> 31)) % n)
        }
    }

    fn sign(v: f64) -> i32 {
        if v > 0.0 {
            1
        } else if v < 0.0 {
            -1
        } else {
            0
        }
    }

    /// Checks both predicates on `rounds` random tuples of lattice points
    /// (a `span × span` lattice, so collinear and cocircular tuples are
    /// common), each mapped to floats by `at`, against the integers.
    fn check_against_integers(rounds: usize, span: u64, seed: u64, at: impl Fn(Lattice) -> Point) {
        let mut rng = Rng(seed);
        let mut zeros = (0, 0);
        for _ in 0..rounds {
            let mut lattice = || (rng.below(span), rng.below(span));
            let (a, b, c, d) = (lattice(), lattice(), lattice(), lattice());
            let (pa, pb, pc, pd) = (at(a), at(b), at(c), at(d));
            let want = exact_orient(a, b, c);
            assert_eq!(
                sign(orient2d(&pa, &pb, &pc)),
                want,
                "orient2d {pa} {pb} {pc}"
            );
            let want_circle = exact_incircle(a, b, c, d);
            let got = sign(incircle(&pa, &pb, &pc, &pd));
            assert_eq!(got, want_circle, "incircle {pa} {pb} {pc} {pd}");
            zeros.0 += usize::from(want == 0);
            zeros.1 += usize::from(want_circle == 0);
        }
        assert!(zeros.0 > 0 && zeros.1 > 0, "no degenerate tuple drawn");
    }

    /// On lattice inputs at every power-of-two scale `2^k`, `|k| ≤ 40`,
    /// both signs equal the integer evaluation, degenerate tuples included.
    #[test]
    fn signs_equal_the_integer_evaluation_on_lattices_at_every_scale() {
        for k in -40..=40 {
            let s = 2f64.powi(k);
            let at = |(x, y): Lattice| Point::new((x - 8) as f64 * s, (y - 8) as f64 * s);
            check_against_integers(400, 17, (1_000 + k) as u64, at);
        }
    }

    /// On lattice points near `(4096, 4096) … (8192, 8192)` perturbed by
    /// multiples of `2⁻⁴⁰` — up to ≈ 1e-15 of the coordinates — both signs
    /// equal the integer evaluation of the offsets: the near-degenerate
    /// tuples the float filter cannot decide.
    #[test]
    fn signs_equal_the_integer_evaluation_on_perturbed_lattices() {
        let quantum = 2f64.powi(-40);
        let mut rng = Rng(77);
        let mut degenerate = 0;
        for round in 0..40 {
            let origin = (4_200 + rng.below(3_800), 4_200 + rng.below(3_800));
            let step = 1 + rng.below(50);
            // Offsets in quanta; the lattice step is `step` whole units.
            let unit = 1i128 << 40;
            let mut perturb = Rng(round);
            let to_offset = move |(x, y): Lattice, e: (i128, i128)| {
                ((x - 4) * step * unit + e.0, (y - 4) * step * unit + e.1)
            };
            let at = |(ox, oy): Lattice| {
                Point::new(
                    origin.0 as f64 + ox as f64 * quantum,
                    origin.1 as f64 + oy as f64 * quantum,
                )
            };
            for _ in 0..300 {
                let mut point = || {
                    let l = (perturb.below(9), perturb.below(9));
                    let e = match perturb.below(2) {
                        0 => (0, 0),
                        _ => (perturb.below(17) - 8, perturb.below(17) - 8),
                    };
                    to_offset(l, e)
                };
                let (a, b, c, d) = (point(), point(), point(), point());
                let (pa, pb, pc, pd) = (at(a), at(b), at(c), at(d));
                // The float coordinates are the offsets exactly.
                assert_eq!(((pa.x - origin.0 as f64) / quantum) as i128, a.0);
                let want = exact_orient(a, b, c);
                assert_eq!(
                    sign(orient2d(&pa, &pb, &pc)),
                    want,
                    "orient2d {pa} {pb} {pc}"
                );
                let want_circle = exact_incircle(a, b, c, d);
                let got = sign(incircle(&pa, &pb, &pc, &pd));
                assert_eq!(got, want_circle, "incircle {pa} {pb} {pc} {pd}");
                degenerate += usize::from(want == 0 || want_circle == 0);
            }
        }
        assert!(degenerate > 0, "no degenerate tuple drawn");
    }

    /// On float tuples whose rounding makes them nearly degenerate — a third
    /// point computed on the line through two others, four points computed
    /// on one circle, then nudged by a few ulps — both signs equal the
    /// integer evaluation. Every coordinate lies in `[2¹², 2²⁰)`, so it is
    /// an exact multiple of `2⁻⁴⁰`: the integers are those multiples.
    #[test]
    fn signs_equal_the_integer_evaluation_on_rounded_lines_and_circles() {
        let scale = 2f64.powi(40);
        let exact = |p: &Point| {
            let (x, y) = (p.x * scale, p.y * scale);
            assert!(x.fract() == 0.0 && y.fract() == 0.0, "{p} off the grid");
            (x as i128, y as i128)
        };
        let nudge = |v: f64, k: i128| f64::from_bits((v.to_bits() as i128 + k) as u64);
        let mut rng = Rng(99);
        let coordinate = |rng: &mut Rng| 8_192.0 + rng.below(500_000) as f64 + 0.25;
        let mut orient_zeros = 0;
        for _ in 0..3_000 {
            let a = Point::new(coordinate(&mut rng), coordinate(&mut rng));
            let b = Point::new(coordinate(&mut rng), coordinate(&mut rng));
            let t = [-1.0, 0.5, 0.375, 2.0, 3.0][rng.below(5) as usize];
            let on_line = Point::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y));
            let (kx, ky) = (rng.below(5) - 2, rng.below(5) - 2);
            let c = Point::new(nudge(on_line.x, kx), nudge(on_line.y, ky));
            if !(4_096.0..1_048_576.0).contains(&c.x) || !(4_096.0..1_048_576.0).contains(&c.y) {
                continue;
            }
            let want = exact_orient(exact(&a), exact(&b), exact(&c));
            assert_eq!(sign(orient2d(&a, &b, &c)), want, "orient2d {a} {b} {c}");
            orient_zeros += usize::from(want == 0);

            let center = Point::new(300_000.0 + rng.below(1_000) as f64, 300_000.0);
            let r = 10_000.0 + rng.below(50_000) as f64;
            let on_circle = |rng: &mut Rng| {
                let angle = rng.below(1 << 20) as f64 / (1 << 20) as f64 * std::f64::consts::TAU;
                let k = rng.below(3) - 1;
                let p = Point::new(center.x + r * angle.cos(), center.y + r * angle.sin());
                Point::new(nudge(p.x, k), p.y)
            };
            let (pa, pb, pc, pd) = (
                on_circle(&mut rng),
                on_circle(&mut rng),
                on_circle(&mut rng),
                on_circle(&mut rng),
            );
            let want = exact_incircle(exact(&pa), exact(&pb), exact(&pc), exact(&pd));
            let got = sign(incircle(&pa, &pb, &pc, &pd));
            assert_eq!(got, want, "incircle {pa} {pb} {pc} {pd}");
        }
        assert!(orient_zeros > 0, "no collinear triple drawn");
    }

    /// The exact stages agree with the integers where the float filter
    /// passes too: forced through them on every tuple.
    #[test]
    fn exact_stages_alone_equal_the_integer_evaluation() {
        let mut rng = Rng(5);
        for _ in 0..2_000 {
            let mut lattice = || {
                (
                    rng.below(1 << 20) - (1 << 19),
                    rng.below(1 << 20) - (1 << 19),
                )
            };
            let (a, b, c, d) = (lattice(), lattice(), lattice(), lattice());
            let at = |(x, y): Lattice| Point::new(x as f64, y as f64);
            let (pa, pb, pc, pd) = (at(a), at(b), at(c), at(d));
            assert_eq!(sign(orient2d_exact(&pa, &pb, &pc)), exact_orient(a, b, c));
            assert_eq!(
                sign(incircle_exact(&pa, &pb, &pc, &pd)),
                exact_incircle(a, b, c, d)
            );
        }
    }
}
