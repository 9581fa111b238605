//@ path: crates/core/src/filter.rs
//! Fixture: a tolerance stated outside `cij_geom::tolerance` fires
//! CIJ-G601, whatever its spelling.

const GUARD: f64 = 1e-9; //~ CIJ-G601

fn near(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-7 * a.abs().max(1.0) //~ CIJ-G601
}

fn degenerate(len_sq: f64) -> bool {
    len_sq <= f64::EPSILON //~ CIJ-G601
}

fn widen(x: f32) -> f32 {
    x * (1.0 + 2.5e-8_f32) + f32::EPSILON //~ CIJ-G601 CIJ-G601
}

fn pad(w: f64) -> f64 {
    w * 0.000_000_1 - 1E-12 //~ CIJ-G601 CIJ-G601
}
