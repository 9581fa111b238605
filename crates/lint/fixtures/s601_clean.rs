//@ path: crates/geom/src/shapes.rs
//! Fixture: every public item below has a caller outside its definition,
//! its impl blocks and test code — in product code, in the facade, a root
//! test, an example or the reproduction — so CIJ-S601 stays quiet. Restricted
//! visibility and items inside test code are no public items at all.

pub struct Square {
    side: f64,
}

impl Square {
    pub fn square_of(side: f64) -> Self {
        Square { side }
    }

    pub fn square_area(&self) -> f64 {
        self.side * self.side
    }
}

pub fn called_by_product() -> f64 {
    Square::square_of(2.0).square_area()
}

pub fn called_by_a_root_test() -> u32 {
    1
}

pub fn called_by_an_example() -> u32 {
    2
}

pub fn called_by_the_reproduction() -> u32 {
    3
}

pub fn called_through_the_facade() -> u32 {
    4
}

pub fn counts() -> impl Iterator<Item = u32> {
    0..3
}

pub(crate) fn crate_only() {}

#[cfg(test)]
mod tests {
    pub fn helper_inside_tests() {}
}

//@ path: crates/core/src/engine.rs
pub fn engine_area() -> f64 {
    cij_geom::called_by_product() + cij_geom::counts().count() as f64
}

//@ path: src/lib.rs
pub use cij_geom::called_through_the_facade;

pub fn facade_front_door() -> u32 {
    called_through_the_facade()
}

//@ path: tests/shapes.rs
#[test]
fn a_root_test_is_a_caller() {
    assert_eq!(cij::geom::called_by_a_root_test(), 1);
    assert_eq!(cij::facade_front_door(), 4);
    let _ = cij::core::engine_area();
}

//@ path: examples/shapes.rs
fn main() {
    println!("{}", cij::geom::called_by_an_example());
}

//@ path: crates/bench/src/lib.rs
pub fn reproduce() -> u32 {
    cij_geom::called_by_the_reproduction()
}
