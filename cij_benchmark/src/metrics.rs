//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark emits, by name, with its unit and direction. `BENCHMARK.json`
//! at the repository root repeats the names, units, directions and bounds
//! (a self-test keeps the two in step); the layer and "should move"
//! pairings live in README.md.

use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Same names on every workload; measured with tracing off.
///
/// The bounds are wide because this host is: ten seeds run back to back
/// spread 4–12 % on the timings (quartile distance over median), the same
/// commit drifts up to 10 % between quarters of an hour, and page accesses
/// move 5 % with the seed's point layout. README.md has the measurements.
pub const END_TO_END: &[EndToEndMetric] = &[
    EndToEndMetric {
        name: "op_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "first_rows_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "page_accesses_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEndMetric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Documentation for readers of the trace; only `BENCHMARK.json` (and
    /// the self-test that keeps it in step) consumes it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Traced run only. Every workload emits every name; a layer the workload
/// does not exercise reads 0 (README.md lists which).
pub const PER_LAYER: &[LayerMetric] = &[
    // cij_geom
    lower("geom.clip_ns", "ns"),
    lower("geom.clip_calls", "count"),
    lower("geom.intersect_s", "s"),
    lower("geom.intersect_tests", "count"),
    higher("geom.intersect_hit_ratio", "ratio"),
    // cij_voronoi::batch
    lower("voronoi.q_cells_s", "s"),
    lower("voronoi.q_cells", "count"),
    lower("voronoi.p_cells_s", "s"),
    lower("voronoi.p_cells_computed", "count"),
    lower("voronoi.cell_ns", "ns"),
    // cij_core::filter
    lower("core.filter.busy_s", "s"),
    lower("core.filter.calls", "count"),
    lower("core.filter.clip_ops", "count"),
    lower("core.filter.points_examined", "count"),
    higher("core.filter.entries_pruned", "count"),
    lower("core.filter.candidates", "count"),
    higher("core.filter.true_hit_ratio", "ratio"),
    // cij_core::cell_cache
    higher("core.cell_cache.hit_ratio", "ratio"),
    lower("core.cell_cache.evictions", "count"),
    // cij_rtree
    lower("rtree.node_reads", "count"),
    lower("rtree.node_read_s", "s"),
    lower("rtree.arena_fill_s", "s"),
    lower("rtree.leaf_order_s", "s"),
    lower("rtree.decode_ns_per_node", "ns"),
    lower("rtree.encode_ns_per_node", "ns"),
    lower("rtree.arena_fill_ns", "ns"),
    lower("rtree.bulk_load_s", "s"),
    lower("rtree.scan_s", "s"),
    lower("rtree.range_query_ns", "ns"),
    lower("rtree.knn_ns", "ns"),
    // cij_pagestore
    lower("pagestore.checksum_ns_per_page", "ns"),
    lower("pagestore.seal_ns_per_page", "ns"),
    lower("pagestore.backend_read_ns", "ns"),
    lower("pagestore.backend_write_ns", "ns"),
    lower("pagestore.lru_touch_ns", "ns"),
    lower("pagestore.miss_read_ns", "ns"),
    lower("pagestore.hit_read_ns", "ns"),
    lower("pagestore.physical_reads", "count"),
    lower("pagestore.physical_writes", "count"),
    lower("pagestore.logical_reads", "count"),
    higher("pagestore.buffer_hit_ratio", "ratio"),
    lower("pagestore.bytes_read", "bytes"),
    lower("pagestore.bytes_written", "bytes"),
    lower("pagestore.retries", "count"),
    lower("pagestore.peak_resident_pages", "count"),
    // cij_core::{nm,multiway,engine}
    lower("core.pipeline.overhead_s", "s"),
    lower("core.pipeline.metered_over_fast", "ratio"),
    higher("core.pipeline.t2_speedup", "ratio"),
    lower("core.pipeline.allocs_per_op", "count"),
    lower("core.pipeline.trace_records", "count"),
    lower("core.pipeline.replays", "count"),
    lower("core.pipeline.watermarks", "count"),
    lower("core.pipeline.first_row_s", "s"),
    // cij_core::service
    lower("core.service.roundtrip_ns", "ns"),
    lower("core.service.solo_over_direct", "ratio"),
    lower("core.service.c2_over_c1", "ratio"),
    lower("core.service.op_p95_s", "s"),
    lower("core.service.batches_per_op", "count"),
    lower("core.service.queue_full_rejects", "count"),
    lower("core.service.budget_high_water", "count"),
    // the benchmark itself
    higher("layers.storage_share", "ratio"),
    higher("trace.span_coverage", "ratio"),
    lower("trace.ladder_over_engine", "ratio"),
];

/// An ordered `name → value` list under construction.
#[derive(Debug, Default)]
pub struct MetricSet(Vec<(&'static str, f64)>);

impl MetricSet {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, …}` over `catalogue`, in catalogue
    /// order. A per-layer name the run did not set reads 0.
    pub fn to_json(&self, catalogue: &[(&'static str, &'static str)]) -> Value {
        Value::obj(catalogue.iter().map(|&(name, unit)| {
            (
                name,
                Value::obj([
                    ("value", Value::Num(self.get(name).unwrap_or(0.0))),
                    ("unit", Value::Str(unit.into())),
                ]),
            )
        }))
    }
}

pub fn end_to_end_catalogue() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

pub fn per_layer_catalogue() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are used once");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is what the driver reads; this catalogue is what the
    /// program emits and what `compare` judges by. They must agree.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_owned);

        let e2e = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name").as_deref(), Some(m.name));
            assert_eq!(field(j, "unit").as_deref(), Some(m.unit));
            assert_eq!(field(j, "better").as_deref(), Some(m.better.name()));
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let layers = doc.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name").as_deref(), Some(m.name));
            assert_eq!(field(j, "unit").as_deref(), Some(m.unit));
            assert_eq!(field(j, "better").as_deref(), Some(m.better.name()));
        }
        let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
        let names: Vec<String> = workloads.iter().filter_map(|w| field(w, "name")).collect();
        let ours: Vec<&str> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(names, ours);
    }
}
