//! Metric declarations, the result line, and run provenance.

use std::path::Path;

/// End-to-end metrics, `(name, unit)`. Every workload reports every one;
/// what each means on each workload is tabled in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("alt_p50_ms", "ms"),
    ("rate_per_s", "1/s"),
];

/// Per-layer metrics of the traced run, `(name, unit)`. A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fail_frac", "ratio"),
    ("tail_pct", "%"),
    ("samples", "count"),
    ("gen.late_max_ms", "ms"),
    ("gen.late_tail_ms", "ms"),
    ("gen.lagging_phases", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("self_ms.io", "ms"),
    ("self_ms.registry", "ms"),
    ("self_ms.schedule", "ms"),
    ("self_ms.serialize", "ms"),
    ("self_ms.verify", "ms"),
    ("self_ms.serve", "ms"),
    ("self_ms.engine", "ms"),
    ("self_ms.baseline", "ms"),
    ("self_ms.solve", "ms"),
    ("io.mtx_read_ms", "ms"),
    ("io.gspb_read_ms", "ms"),
    ("registry.insert_ms", "ms"),
    ("registry.acquire_ms.build", "ms"),
    ("registry.acquire_ms.disk", "ms"),
    ("registry.hit_ratio", "ratio"),
    ("registry.rebuilds", "count"),
    ("registry.disk_loads", "count"),
    ("registry.quarantined", "count"),
    ("schedule.build_ms", "ms"),
    ("schedule.colors", "count"),
    ("schedule.predicted_utilization", "ratio"),
    ("serialize.write_ms", "ms"),
    ("serialize.read_ms", "ms"),
    ("serialize.bytes", "B"),
    ("verify.audit_ms", "ms"),
    ("verify.audit_against_ms", "ms"),
    ("serve.agg_factor", "req/panel"),
    ("serve.queue_depth", "count"),
    ("serve.dispatch_ms", "ms"),
    ("serve.client_gap_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.deadline_missed", "count"),
    ("serve.degraded", "count"),
    ("engine.panel_ms.w1", "ms"),
    ("engine.panel_ms.w16", "ms"),
    ("engine.single_ms", "ms"),
    ("engine.gnnz_per_s.w1", "Gnnz/s"),
    ("engine.gnnz_per_s.w16", "Gnnz/s"),
    ("engine.gnnz_per_s.single", "Gnnz/s"),
    ("engine.f64_panel_ms", "ms"),
    ("engine.bytes_per_nnz", "B/nnz"),
    ("pool.threads_spawned", "count"),
    ("pool.panics_observed", "count"),
    ("baseline.bytes_per_nnz", "B/nnz"),
    ("baseline.csr_ms.w1", "ms"),
    ("baseline.csr_ms.w16", "ms"),
    ("baseline.csr_solve_s", "s"),
    ("solve.iterations", "count"),
    ("solve.walk_share", "ratio"),
];

/// Whether `name` is a legal metric or workload name: starts with a letter
/// or digit, at most 64 letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// `s` as a JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number with all its digits (`null` if not finite).
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON object from already-encoded values.
#[must_use]
pub fn json_obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The final result line.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let metrics: Vec<(&str, String)> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name,
                json_obj(&[("value", json_num(value)), ("unit", json_str(unit))]),
            )
        })
        .collect();
    json_obj(&[
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", json_obj(&metrics)),
    ])
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git working tree.
#[must_use]
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// L1 data, L2 and last-level cache sizes in bytes from Linux sysfs
/// (0 where unreadable).
#[must_use]
pub fn cache_sizes() -> (u64, u64, u64) {
    let (mut l1d, mut l2, mut llc, mut llc_level) = (0, 0, 0, 0);
    let Ok(dir) = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache") else {
        return (0, 0, 0);
    };
    for entry in dir.flatten() {
        let read = |name: &str| std::fs::read_to_string(entry.path().join(name)).ok();
        let (Some(kind), Some(level), Some(size)) = (read("type"), read("level"), read("size"))
        else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().unwrap_or(0) * 1024,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().unwrap_or(0) * 1024 * 1024,
                None => size.parse().unwrap_or(0),
            },
        };
        match (level, kind.trim()) {
            (1, "Data") => l1d = bytes,
            (2, _) => l2 = bytes,
            _ => {}
        }
        if kind.trim() != "Instruction" && level > llc_level {
            llc = bytes;
            llc_level = level;
        }
    }
    (l1d, l2, llc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn metric_names_and_units_obey_the_charset() {
        let mut seen = BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name), "metric {name} declared twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for bad in ["", ".x", "a b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
        assert!(!valid_unit("") && !valid_unit("m s") && valid_unit("1/s"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let compact: String = json.split_whitespace().collect();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            compact.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for workload in crate::WORKLOADS {
            assert!(valid_name(workload));
            assert!(compact.contains(&format!("\"name\":\"{workload}\",\"why\"")));
        }
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = result_line(true, 3, 0, &[("p50_ms", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_str("a\"b\\\n"), "\"a\\\"b\\\\\\u000a\"");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
