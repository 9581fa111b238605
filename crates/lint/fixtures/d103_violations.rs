//@ path: crates/core/src/config.rs
//! Fixture: environment reads in product code fire CIJ-D103, in every
//! spelling of the path, but the same calls inside test regions are exempt.

use std::env::var_os; //~ CIJ-D103

pub fn configured_from_the_environment() -> usize {
    let threads = std::env::var("WORKERS").ok(); //~ CIJ-D103
    let storage = var_os("STORAGE");
    let mode = std::env::vars_os().count(); //~ CIJ-D103
    let all = std::env::vars().count(); //~ CIJ-D103
    let _ = (threads, storage, mode);
    all
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_read_the_environment() {
        let _ = std::env::var("HOME");
    }
}
