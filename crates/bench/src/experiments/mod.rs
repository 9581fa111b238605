//! One module per table / figure of the paper's evaluation (Section V).
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`fig5`] | Fig. 5 — BF-VOR vs TP-VOR, node accesses and CPU of single Voronoi-cell queries |
//! | [`fig6`] | Fig. 6 — ITER vs BATCH vs LB for whole-diagram computation vs datasize |
//! | [`table2`] | Table II — BatchVoronoi on the (stand-in) real datasets |
//! | [`fig7`] | Fig. 7 — MAT/JOIN cost breakdown of FM/PM/NM at the default setting |
//! | [`fig8`] | Fig. 8 — buffer-size effect (a) and scalability with datasize (b) |
//! | [`fig9`] | Fig. 9 — cardinality ratio (a) and output progressiveness (b) |
//! | [`fig10`] | Fig. 10 — false-hit ratio of the NM-CIJ filter |
//! | [`fig11`] | Fig. 11 — REUSE vs NO-REUSE Voronoi-cell computations |
//! | [`table3`] | Table III — result sizes and page accesses on real dataset pairs |
//!
//! Beyond the paper's own figures, two engineering experiments cover this
//! reproduction's extensions; what the repo benchmark (`cij_benchmark/`) or a
//! tier-1 test measures has no experiment here.
//!
//! | Module | Measures |
//! |---|---|
//! | [`cache_sweep`] | Fig. 8a-style sweep of the Section IV-B reuse-buffer capacity (`cell_cache_capacity`) |
//! | [`fault_storm`] | Injected I/O faults on every backend: seeded transient storms must be byte-invisible (store-level retry parity), a persistently corrupt frame must fail exactly the touching query with a structured error while concurrent healthy queries stay oracle-identical |

pub mod cache_sweep;
pub mod fault_storm;
pub mod fig10;
pub mod fig11;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table2;
pub mod table3;
