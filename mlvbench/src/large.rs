//! `large`: phase 1 runs checked flat jobs at 2^10–2^12 nodes, one
//! `run_one` each, all cache misses (checker-bound); phase 2 realizes
//! 2^16-node instances into the tiled IR and streams their metrics,
//! unchecked (pass- and tiling-bound, no checker at all).

use crate::attr::{self, Replay};
use crate::gen::{self, JobSpec};
use crate::golden::{Expected, Golden};
use crate::report::{Tally, Values};
use crate::stats::median;
use crate::Role;
use mlv_core::trace::Trace;
use mlv_grid::{metrics_stream, LayoutMetrics, Pdk};
use mlv_layout::engine::{CheckStatus, Engine, EngineOptions, Job, JobResult};
use mlv_layout::families::Family;
use mlv_layout::{realize_tiled, registry, RealizeOptions, TiledLayout};
use std::time::Instant;

/// Iterations per round of a control phase (a main phase runs
/// iterations until its slice of the round is used up).
const CONTROL_ITERATIONS: usize = 2;

pub struct Inputs {
    checked: Vec<(JobSpec, Job)>,
    tiled: Vec<(JobSpec, Family)>,
    parse_s: f64,
}

/// Build the families: the full-size sets for the `large` workload,
/// the smaller control sets otherwise.
pub fn prepare(seed: u64, role: Role) -> Result<Inputs, String> {
    let (checked, tiled) = match role {
        Role::Main(_) => (gen::large_checked(seed), gen::large_tiled(seed)),
        Role::Control => (
            gen::large_checked_control(seed),
            gen::large_tiled_control(seed),
        ),
    };
    let t = Instant::now();
    let checked = checked
        .into_iter()
        .map(|j| {
            let family = registry::parse(&j.spec)?;
            let mut job = Job::new(&j.spec, family, j.layers);
            job.pdk = match j.pdk {
                None => None,
                Some(name) => Some(Pdk::named(name).ok_or(format!("unknown pdk {name}"))?),
            };
            Ok((j, job))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let tiled = tiled
        .into_iter()
        .map(|j| registry::parse(&j.spec).map(|f| (j, f)))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Inputs {
        parse_s: t.elapsed().as_secs_f64(),
        checked,
        tiled,
    })
}

/// Phase 1 on a cold engine: wall time to every verdict.
fn phase_checked(inp: &Inputs) -> (Vec<JobResult>, f64) {
    let mut engine = Engine::new(EngineOptions::default());
    let t = Instant::now();
    let results = inp
        .checked
        .iter()
        .map(|(_, job)| engine.run_one(job))
        .collect();
    (results, t.elapsed().as_secs_f64())
}

/// Phase 2: tiled realization and streaming metrics, timed separately.
struct Tiled {
    out: Vec<(TiledLayout, LayoutMetrics)>,
    realize_s: f64,
    stream_s: f64,
    total_s: f64,
}

fn phase_tiled(inp: &Inputs) -> Tiled {
    let mut t = Tiled {
        out: Vec::with_capacity(inp.tiled.len()),
        realize_s: 0.0,
        stream_s: 0.0,
        total_s: 0.0,
    };
    let start = Instant::now();
    for (job, family) in &inp.tiled {
        let t0 = Instant::now();
        let layout = realize_tiled(&family.spec, &RealizeOptions::with_layers(job.layers));
        let t1 = Instant::now();
        let metrics = metrics_stream(&layout);
        t.realize_s += (t1 - t0).as_secs_f64();
        t.stream_s += t1.elapsed().as_secs_f64();
        t.out.push((layout, metrics));
    }
    t.total_s = start.elapsed().as_secs_f64();
    t
}

fn verify(inp: &Inputs, golden: &Golden, checked: &[JobResult], tiled: &Tiled, tally: &mut Tally) {
    for ((spec, _), r) in inp.checked.iter().zip(checked) {
        let o = &r.outcome;
        tally.record((|| {
            golden.verify("flat", spec, Expected::of(o.digest, &o.metrics))?;
            if r.cached {
                return Err(format!("{}: served from cache", spec.key()));
            }
            match &o.check {
                CheckStatus::Legal => Ok(()),
                other => Err(format!("{}: not legal: {other:?}", spec.key())),
            }
        })());
    }
    for ((spec, _), (layout, metrics)) in inp.tiled.iter().zip(&tiled.out) {
        tally.record(golden.verify("tiled", spec, Expected::of(layout.digest(), metrics)));
    }
}

/// Phase times and checks accumulated over a run's rounds.
#[derive(Default)]
pub struct Acc {
    check: Vec<f64>,
    tiled: Vec<f64>,
    tally: Tally,
}

/// One round of timed iterations.
pub fn round(inp: &Inputs, golden: &Golden, role: Role, acc: &mut Acc) {
    let start = Instant::now();
    let mut n = 0;
    while n < role.min_units(CONTROL_ITERATIONS) || role.more_time(start) {
        let (results, check_s) = phase_checked(inp);
        let t = phase_tiled(inp);
        verify(inp, golden, &results, &t, &mut acc.tally);
        acc.check.push(check_s);
        acc.tiled.push(t.total_s);
        n += 1;
    }
}

/// `large.check_s` and `large.tiled_s`: medians over all iterations.
pub fn finish(acc: Acc) -> (Values, Tally) {
    let mut v = Values::default();
    if let (Some(c), Some(t)) = (median(&acc.check), median(&acc.tiled)) {
        v.set("large.check_s", c);
        v.set("large.tiled_s", t);
    }
    (v, acc.tally)
}

/// One traced iteration, with each phase under its own trace, between
/// two untraced ones (their mean is the baseline, so a cold first
/// iteration does not flatter the trace), and a stage replay of
/// phase 1.
pub fn traced(inp: &Inputs, golden: &Golden, notes: &mut Vec<String>) -> (Values, Tally) {
    let mut tally = Tally::default();
    let plain = |tally: &mut Tally| {
        let cpu0 = attr::cpu_seconds();
        let wall = Instant::now();
        let (results, check_s) = phase_checked(inp);
        let t = phase_tiled(inp);
        let wall_s = wall.elapsed().as_secs_f64();
        let cpu = cpu0.zip(attr::cpu_seconds()).map_or(0.0, |(a, b)| b - a);
        verify(inp, golden, &results, &t, tally);
        (check_s, wall_s, cpu)
    };
    let before = plain(&mut tally);

    let (trace1, trace2) = (Trace::new(), Trace::new());
    let wall = Instant::now();
    let (results, check_s) = trace1.collect(|| phase_checked(inp));
    let t = trace2.collect(|| phase_tiled(inp));
    let traced_s = wall.elapsed().as_secs_f64();
    verify(inp, golden, &results, &t, &mut tally);
    let (a1, a2) = (trace1.aggregate(), trace2.aggregate());

    let after = plain(&mut tally);
    let plain_check = (before.0 + after.0) / 2.0;
    let plain_s = (before.1 + after.1) / 2.0;
    let cpu = (before.2 + after.2) / 2.0;

    let specs: Vec<&JobSpec> = inp.checked.iter().map(|(j, _)| j).collect();
    let replay = Replay::of(&specs);
    let mut v = attr::engine_layers(&a1, &replay, "large phase 1", notes);
    // passes run in both phases; report their sum
    let mut both = a1.clone();
    both.merge(&a2);
    for (span, name) in attr::PASSES {
        v.0.insert(name, attr::span_s(&both, span));
    }
    v.set("registry.parse_s", inp.parse_s);
    v.set(
        "registry.families",
        (inp.checked.len() + inp.tiled.len()) as f64,
    );
    v.set("tiled.realize_s", t.realize_s);
    v.set(
        "tiled.instances",
        t.out.iter().map(|(l, _)| l.instances.len()).sum::<usize>() as f64,
    );
    v.set("streaming.metrics_s", t.stream_s);
    v.set("exec.cpu_util", cpu / plain_s);
    v.set("trace.overhead_ratio", traced_s / plain_s);

    let explained = attr::passes_s(&a1)
        + attr::checker_s(&a1)
        + replay.metrics_s
        + replay.physical_s
        + replay.digest_s;
    notes.push(format!(
        "unattributed[large] check phase {:.6} s (untraced {:.6} s): checker {:.6} s, \
         passes+metrics+digest {:.6} s, unattributed {:.6} s",
        check_s,
        plain_check,
        attr::checker_s(&a1),
        explained - attr::checker_s(&a1),
        check_s - explained
    ));
    notes.push(format!(
        "unattributed[large] tiled phase {:.6} s: tiled realize {:.6} s (passes {:.6} s), \
         streaming metrics {:.6} s, unattributed {:.6} s",
        t.total_s,
        t.realize_s,
        attr::passes_s(&a2),
        t.stream_s,
        t.total_s - t.realize_s - t.stream_s
    ));
    (v, tally)
}
