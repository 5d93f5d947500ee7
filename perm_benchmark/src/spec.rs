//! The benchmark's contract: workload names, metric names, units, directions and bounds.
//!
//! `BENCHMARK.json` at the repository root is exactly what [`list_json`] prints (`--list`); a
//! test asserts the two agree, so the tables below are the single source of both.

/// Length of the measured window in seconds when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 12;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a client of the server sees. `bound` is the share of the
/// parent's median by which it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A per-layer metric from the traced pass or from public counters; never gated.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// A workload and the one-line reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// `latency_p90_ms` is measured and printed but not declared here: at this commit the
/// multi-frame streams of `tpch_prov_stream` take 150-900 ms depending on which mode the
/// connection's delayed-ACK state settles in, five such samples fit in a window, and the
/// metric's spread over ten runs (9 %, with outliers at a quarter of the median) would be
/// gated noise. See README.md, "Baseline".
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "qps", unit: "ops/s", better: Better::Higher, bound: 0.10 },
    EndToEnd { name: "latency_p50_ms", unit: "ms", better: Better::Lower, bound: 0.10 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.10 },
];

pub const PER_LAYER: [PerLayer; 18] = [
    PerLayer { name: "sql.parse_us", unit: "us", better: Better::Lower },
    PerLayer { name: "sql.analyze_us", unit: "us", better: Better::Lower },
    PerLayer { name: "core.rewrite_us", unit: "us", better: Better::Lower },
    PerLayer { name: "core.rewrite_node_growth", unit: "ratio", better: Better::Lower },
    PerLayer { name: "exec.optimize_us", unit: "us", better: Better::Lower },
    PerLayer { name: "exec.execute_us", unit: "us", better: Better::Lower },
    PerLayer { name: "exec.rows_out_per_op", unit: "rows", better: Better::Higher },
    PerLayer { name: "service.encode_us", unit: "us", better: Better::Lower },
    PerLayer { name: "service.decode_us", unit: "us", better: Better::Lower },
    PerLayer { name: "service.wire_bytes_per_row", unit: "B/row", better: Better::Lower },
    PerLayer { name: "service.frames_per_op", unit: "count", better: Better::Lower },
    PerLayer { name: "service.cache_hit_ratio", unit: "ratio", better: Better::Higher },
    PerLayer { name: "service.cache_invalidations_per_s", unit: "1/s", better: Better::Lower },
    PerLayer { name: "service.session_us", unit: "us", better: Better::Lower },
    PerLayer { name: "service.wire_gap_us", unit: "us", better: Better::Lower },
    PerLayer { name: "storage.commit_us", unit: "us", better: Better::Lower },
    PerLayer { name: "storage.version_bumps", unit: "count", better: Better::Lower },
    PerLayer { name: "trace_overhead_ratio", unit: "ratio", better: Better::Lower },
];

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "spj_point",
        why: "Cached plans and results of at most ~100 rows: the fixed per-request path (socket \
              round trip, frame writes, cache lookup, executor start-up) does the work; compile \
              and codec do none.",
    },
    WorkloadSpec {
        name: "compile_cold",
        why: "Every request is a never-seen text on spj_point's query shapes: parse, analyze, \
              R1-R9 rewrite and optimize are paid each time (0 % cache hits) and execution is \
              small.",
    },
    WorkloadSpec {
        name: "tpch_prov_stream",
        why: "Cached TPC-H Q3/Q7/Q11/Q12/Q15, normal and PROVENANCE: joins, aggregation, sort, \
              then factorized encode/decode of 13k/25k-row streams past the ack window; compile \
              does none.",
    },
    WorkloadSpec {
        name: "mixed_rw",
        why: "spj_point's reader beside an open-loop SELECT PROVENANCE ... INTO every 200 ms: \
              each commit bumps the catalog version and invalidates every cached plan.",
    },
];

/// The contents of `BENCHMARK.json`, byte for byte.
pub fn list_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"perm_benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"perm_benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": \
         [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_agrees_with_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).unwrap();
        assert_eq!(on_disk, list_json(), "regenerate with `--list > BENCHMARK.json`");
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16 && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)));
        let distinct: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "every name is used once");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
