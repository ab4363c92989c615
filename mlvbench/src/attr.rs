//! Per-layer attribution, measured from outside the program: the
//! program's existing trace spans, counters and histograms (read
//! through `Trace::collect`), plus a replay that times each public
//! stage call of an engine job on its own.

use crate::gen::JobSpec;
use crate::report::Values;
use mlv_core::trace::Aggregate;
use mlv_grid::hasher::{fnv1a, FNV_BASIS};
use mlv_grid::metrics::{LayoutMetrics, PhysicalMetrics};
use mlv_grid::{checker, Pdk};
use mlv_layout::realize::realize_timed;
use mlv_layout::{registry, RealizeOptions};
use std::hint::black_box;
use std::time::Instant;

/// Seconds under every span named `key`, including its field-tagged
/// variants (`pass.emit{pdk=hv6}`).
pub fn span_s(agg: &Aggregate, key: &str) -> f64 {
    agg.spans
        .iter()
        .filter(|(k, _)| {
            k.as_str() == key || (k.starts_with(key) && k[key.len()..].starts_with('{'))
        })
        .map(|(_, s)| s.total_ns as f64 * 1e-9)
        .sum()
}

/// The four pass spans, in pipeline order.
pub const PASSES: [(&str, &str); 4] = [
    ("pass.placement", "passes.placement_s"),
    ("pass.tracks", "passes.tracks_s"),
    ("pass.layers", "passes.layers_s"),
    ("pass.emit", "passes.emit_s"),
];

/// Seconds in the four passes.
pub fn passes_s(agg: &Aggregate) -> f64 {
    PASSES.iter().map(|(k, _)| span_s(agg, k)).sum()
}

/// Seconds in the legality checker (structural plus PDK checks).
pub fn checker_s(agg: &Aggregate) -> f64 {
    span_s(agg, "checker.check") + span_s(agg, "checker.pdk")
}

/// The stages of an engine job that the program does not span, each
/// timed around its public call on a replay of the distinct jobs.
#[derive(Default)]
pub struct Replay {
    pub metrics_s: f64,
    pub physical_s: f64,
    pub digest_s: f64,
    pub digest_bytes: u64,
    pub wire_points: u64,
}

impl Replay {
    /// Time `LayoutMetrics::of`, `PhysicalMetrics::of` (stack jobs
    /// only, as the engine does), the canonical write + FNV digest, and
    /// collect the checker's wire-point count, for each job once.
    pub fn of(jobs: &[&JobSpec]) -> Replay {
        let mut r = Replay::default();
        let mut buf = String::new();
        for job in jobs {
            let family = registry::parse(&job.spec).expect("spec parsed during setup");
            let pdk = job.pdk.and_then(Pdk::named).filter(|p| !p.is_uniform());
            let opts = match &pdk {
                Some(p) => RealizeOptions::with_pdk(job.layers, p.clone()),
                None => RealizeOptions::with_layers(job.layers),
            };
            let (layout, _) = realize_timed(&family.spec, &opts);

            let t = Instant::now();
            black_box(LayoutMetrics::of(&layout));
            r.metrics_s += t.elapsed().as_secs_f64();

            if let Some(p) = &pdk {
                let t = Instant::now();
                let _ = black_box(PhysicalMetrics::of(&layout, p));
                r.physical_s += t.elapsed().as_secs_f64();
            }

            let t = Instant::now();
            mlv_grid::io::write_layout_into(&layout, &mut buf);
            black_box(fnv1a(FNV_BASIS, buf.as_bytes()));
            r.digest_s += t.elapsed().as_secs_f64();
            r.digest_bytes += buf.len() as u64;

            r.wire_points += checker::check(&layout, Some(&family.graph)).wire_points;
        }
        r
    }
}

/// Engine-layer attribution of one traced unit of work: the engine,
/// pass, metrics, digest and checker metrics, plus the share of
/// `engine.job` time that none of them explains.
pub fn engine_layers(
    agg: &Aggregate,
    replay: &Replay,
    what: &str,
    notes: &mut Vec<String>,
) -> Values {
    let mut v = Values::default();
    let hits = agg.counter("engine.cache.hit") as f64;
    let misses = agg.counter("engine.cache.miss") as f64;
    v.set("engine.classify_s", span_s(agg, "engine.classify"));
    v.set("engine.cache_hit_ratio", hits / (hits + misses).max(1.0));
    let queue = agg.histograms.get("engine.job.queue_ns");
    v.set(
        "engine.queue_ms",
        queue.map_or(0.0, |h| h.sum as f64 / h.count.max(1) as f64 * 1e-6),
    );
    for (span, name) in PASSES {
        v.set(name, span_s(agg, span));
    }
    let check = checker_s(agg);
    v.set("checker.check_s", check);
    v.set("checker.wire_points", replay.wire_points as f64);
    v.set(
        "checker.ns_per_point",
        check * 1e9 / replay.wire_points.max(1) as f64,
    );
    v.set("metrics.layout_s", replay.metrics_s);
    v.set("metrics.physical_s", replay.physical_s);
    v.set("digest.s", replay.digest_s);
    v.set("digest.bytes", replay.digest_bytes as f64);

    let job = span_s(agg, "engine.job");
    let explained = passes_s(agg) + check + replay.metrics_s + replay.physical_s + replay.digest_s;
    let unattributed = job - explained;
    v.set("engine.unattributed_s", unattributed);
    notes.push(format!(
        "unattributed[{what}] engine.job {:.6} s, stages {:.6} s, unattributed {:.6} s ({:.1}%)",
        job,
        explained,
        unattributed,
        100.0 * unattributed / job.max(1e-12)
    ));
    v
}

/// Process CPU seconds (user + system) so far, from `/proc/self/stat`;
/// `None` where that file is unavailable.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in USER_HZ ticks (100 on Linux)
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
    Some(ticks / 100.0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
