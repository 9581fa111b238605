//@ path: crates/geom/src/tolerance.rs
//! Fixture: the tolerance module is where the one tolerance lives.

pub const TAU: f64 = 1e-11;

pub fn distance(m: f64) -> f64 {
    TAU * m.max(f64::EPSILON)
}
