//@ path: crates/pagestore/src/backend.rs
//! Fixture: the rest of `std::env` stays legal in product code — the temp
//! directory is where anonymous page files go, and a CLI reads its
//! arguments. Only reads of environment variables fire CIJ-D103.

pub fn anonymous_path(name: &str) -> std::path::PathBuf {
    let args = std::env::args().count();
    let _ = args;
    std::env::temp_dir().join(name)
}

pub fn variable_named_var(var: u32) -> u32 {
    // A binding called `var` is not an environment read.
    var + 1
}
