//@ path: crates/geom/src/shapes.rs
//! Fixture: public items nobody calls fire CIJ-S601. Their own definition,
//! their own impl blocks, `pub use` re-exports and test code are no
//! callers, and neither is a same-named definition elsewhere.

pub struct Orphan { //~ CIJ-S601
    side: f64,
}

impl Orphan {
    pub fn orphan_area(&self) -> f64 { //~ CIJ-S601
        self.side * self.side
    }

    pub fn orphan_side(&self) -> f64 { //~ CIJ-S601
        self.orphan_area().sqrt()
    }
}

impl Default for Orphan {
    fn default() -> Self {
        Orphan { side: 1.0 }
    }
}

pub fn re_exported_only() {} //~ CIJ-S601

pub fn tested_only() -> u32 { //~ CIJ-S601
    7
}

pub fn recursive_only(n: u32) -> u32 { //~ CIJ-S601
    if n == 0 {
        0
    } else {
        recursive_only(n - 1)
    }
}

pub const UNUSED_LIMIT: u32 = 3; //~ CIJ-S601

pub fn defined_twice() {} //~ CIJ-S601

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_crate_tests_its_own_surface() {
        assert_eq!(tested_only(), 7);
        assert_eq!(Orphan::default().orphan_side(), 1.0);
        re_exported_only();
    }
}

//@ path: crates/geom/src/lib.rs
pub mod shapes;
pub use shapes::{re_exported_only, Orphan};

struct Other;

impl Other {
    fn defined_twice(&self) {}
}

//@ path: src/lib.rs
pub mod prelude {
    pub use cij_geom::{re_exported_only, Orphan, UNUSED_LIMIT};
}
