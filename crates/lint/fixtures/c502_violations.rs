//@ path: crates/core/src/service.rs
//! Fixture: panicking accessors in non-test service code fire CIJ-C502.

fn worker(m: &std::sync::Mutex<u64>) -> u64 {
    let guard = m.lock().unwrap(); //~ CIJ-C502
    let extra = std::env::var("CIJ_EXTRA").expect("CIJ_EXTRA must be set"); //~ CIJ-C502 CIJ-D103
    let _ = extra;
    *guard
}
