//! Metric vocabulary and the result line. Every name here is also
//! declared in `BENCHMARK.json` (a self-test keeps the two in step),
//! and a run must fill in every one of its kind before it may print.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, printed by a timed run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sweep.jobs_per_s", "jobs/s"),
    ("large.check_s", "s"),
    ("large.tiled_s", "s"),
    ("serve.light_p50_ms", "ms"),
    ("serve.light_p99_ms", "ms"),
    ("serve.light_slo_ratio", "ratio"),
    ("serve.heavy_p50_ms", "ms"),
];

/// `(name, unit)` of every per-layer metric, printed by a traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("registry.parse_s", "s"),
    ("registry.families", "count"),
    ("engine.classify_s", "s"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.queue_ms", "ms"),
    ("engine.unattributed_s", "s"),
    ("passes.placement_s", "s"),
    ("passes.tracks_s", "s"),
    ("passes.layers_s", "s"),
    ("passes.emit_s", "s"),
    ("metrics.layout_s", "s"),
    ("metrics.physical_s", "s"),
    ("digest.s", "s"),
    ("digest.bytes", "bytes"),
    ("checker.check_s", "s"),
    ("checker.wire_points", "count"),
    ("checker.ns_per_point", "ns"),
    ("tiled.realize_s", "s"),
    ("tiled.instances", "count"),
    ("streaming.metrics_s", "s"),
    ("exec.cpu_util", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.handle_light_p50_ms", "ms"),
    ("serve.handle_light_p99_ms", "ms"),
    ("serve.handle_heavy_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.contention_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.gen_late_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Light requests answered correctly within this many milliseconds
/// count toward `serve.light_slo_ratio` (the limit is also stated in
/// the serve-mixed entry of `BENCHMARK.json`).
pub const LIGHT_SLO_MS: f64 = 10.0;

/// A metric name is letters, digits, `_`, `.` and `-`, at most 64 long,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one operation; `Err` marks it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.reasons.len() < 10 {
                self.reasons.push(reason);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 10 {
                self.reasons.push(r);
            }
        }
    }
}

/// Metric values by name. The first value recorded under a name wins,
/// so a workload's own phase takes precedence over its control phases.
#[derive(Default)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_insert(value);
    }

    pub fn merge(&mut self, other: Values) {
        for (k, v) in other.0 {
            self.set(k, v);
        }
    }
}

/// Render the result line for `declared` metrics. `Err` names a
/// metric that is missing, undeclared or not a finite number — a bug
/// in the benchmark, never a property of the program.
pub fn result_line(
    declared: &[(&'static str, &'static str)],
    values: &Values,
    tally: &Tally,
) -> Result<String, String> {
    if let Some(extra) = values
        .0
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric '{extra}' is not declared"));
    }
    let mut metrics = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        if !valid_name(name) {
            return Err(format!("metric name '{name}' is malformed"));
        }
        let v = *values
            .0
            .get(name)
            .ok_or_else(|| format!("metric '{name}' was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric '{name}' is {v}"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for n in &all {
            assert!(valid_name(n), "bad metric name {n}");
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "a metric name repeats");
        assert!(!valid_name("a b"));
        assert!(!valid_name(".lead"));
        assert!(!valid_name(""));
    }

    /// `BENCHMARK.json` at the repository root declares exactly these
    /// metrics, with these units, and states the light SLO limit.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let section = |key: &str| -> String {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let rest = &text[start..];
            rest[..rest.find(']').expect("section end")].to_string()
        };
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let s = section(key);
            let names = s.matches("\"name\"").count();
            assert_eq!(names, list.len(), "{key}: count differs");
            for (n, u) in list {
                let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
                assert!(s.contains(&entry), "{key}: missing {entry}");
            }
        }
        assert!(text.contains(&format!("SLO {LIGHT_SLO_MS} ms")));
    }

    #[test]
    fn result_line_requires_every_declared_metric() {
        let declared = &[("a", "s"), ("b", "ms")];
        let mut v = Values::default();
        v.set("a", 1.5);
        assert!(result_line(declared, &v, &Tally::default()).is_err());
        v.set("b", 2.0);
        v.set("b", 9.0); // first value wins
        let line = result_line(declared, &v, &Tally::default()).unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":0,\"failed\":0,\"metrics\":\
             {\"a\":{\"value\":1.5,\"unit\":\"s\"},\"b\":{\"value\":2.0,\"unit\":\"ms\"}}}"
        );
        v.set("c", 1.0);
        assert!(result_line(declared, &v, &Tally::default()).is_err());
        let mut nan = Values::default();
        nan.set("a", f64::NAN);
        nan.set("b", 1.0);
        assert!(result_line(declared, &nan, &Tally::default()).is_err());
    }
}
