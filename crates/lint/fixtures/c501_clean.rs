//@ path: crates/core/src/chunk.rs
//! Fixture: `core::chunk` hosts the scoped worker pool, so spawning there
//! is sanctioned.

pub fn run_ordered_scratch() {
    std::thread::scope(|scope| {
        scope.spawn(|| ());
    });
    let _ = std::thread::spawn(|| ()).join();
}
