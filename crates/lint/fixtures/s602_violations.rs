//@ path: crates/pagestore/src/stats.rs
//! Fixture: public items whose only callers are in the benchmark package
//! fire CIJ-S602 — surface the product keeps alive for the benchmark alone.
//! A re-export and the crate's own tests do not change that.

pub struct Ratio { //~ CIJ-S602
    hits: u64,
}

impl Ratio {
    pub fn ratio_of(hits: u64) -> Self { //~ CIJ-S602
        Ratio { hits }
    }

    pub fn ratio_hits(&self) -> u64 { //~ CIJ-S602
        self.hits
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn own_tests_are_no_callers() {
        assert_eq!(super::Ratio::ratio_of(3).ratio_hits(), 3);
    }
}

//@ path: crates/pagestore/src/lib.rs
pub use stats::Ratio;

//@ path: cij_benchmark/src/traced.rs
fn rung() -> u64 {
    cij_pagestore::Ratio::ratio_of(5).ratio_hits()
}
