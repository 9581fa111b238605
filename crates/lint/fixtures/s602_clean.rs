//@ path: crates/pagestore/src/stats.rs
//! Fixture: an item the benchmark calls is no CIJ-S602 finding when a
//! product, facade or root-test caller exists as well; and an item nobody
//! but the benchmark calls is one only if it is public.

pub struct Ratio {
    hits: u64,
}

impl Ratio {
    pub fn ratio_of(hits: u64) -> Self {
        Ratio { hits }
    }

    pub fn ratio_hits(&self) -> u64 {
        self.hits
    }
}

pub(crate) fn benchmark_sees_nothing_private() {}

//@ path: crates/core/src/engine.rs
pub fn engine_ratio() -> u64 {
    cij_pagestore::Ratio::ratio_of(1).ratio_hits()
}

//@ path: tests/ratio.rs
#[test]
fn the_engine_reads_a_ratio() {
    assert_eq!(cij::core::engine_ratio(), 1);
}

//@ path: cij_benchmark/src/traced.rs
fn rung() -> u64 {
    cij_pagestore::Ratio::ratio_of(5).ratio_hits() + cij::core::engine_ratio()
}
