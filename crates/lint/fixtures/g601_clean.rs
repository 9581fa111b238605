//@ path: crates/core/src/filter.rs
//! Fixture: ordinary constants are not tolerances, comments and strings
//! name whatever they like ("1e-9", f64::EPSILON), and test code is free.

use cij_geom::tolerance;

const LOAD: f64 = 2.0;

/// Halves with 0.5 and clamps to 0.0..1e-3 — a doc comment, not code.
fn mix(a: f64) -> f64 {
    let t = (a * 0.5).clamp(0.0, 1e-3);
    let bits = 0x1e5 + 7u32 as i32;
    let _ = (bits, "1e-9 f64::EPSILON", 1e6, 10_000.0);
    t * LOAD + tolerance::distance(a)
}

#[cfg(test)]
mod tests {
    #[test]
    fn close() {
        assert!((super::mix(2.0) - 1e-3 * super::LOAD).abs() < 1e-12);
        assert!(f64::EPSILON > 0.0);
    }
}
