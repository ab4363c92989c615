//! `sweep-lattice`: one checked batch over a seeded lattice, on a cold
//! engine per batch, at the default thread count — the shape of the
//! paper's evaluation and of `mlv sweep --lattice`.

use crate::attr::{self, Replay};
use crate::gen::{self, JobSpec};
use crate::golden::{self, Expected, Golden};
use crate::report::{Tally, Values};
use crate::stats::median;
use crate::Role;
use mlv_core::trace::Trace;
use mlv_layout::engine::{BatchReport, CheckStatus, Engine, EngineOptions, Job};
use mlv_layout::registry;
use std::time::Instant;

/// Batches per round of a control phase (a main phase runs batches
/// until its slice of the round is used up).
const CONTROL_BATCHES: usize = 3;
/// Untraced batches of a traced run.
const TRACED_BATCHES: usize = 3;

pub struct Inputs {
    draws: Vec<(&'static str, JobSpec)>,
    jobs: Vec<Job>,
    parse_s: f64,
}

/// Build every job's family from its spec string.
pub fn prepare(seed: u64) -> Result<Inputs, String> {
    let draws = gen::lattice(seed, gen::CASES_PER_FAMILY);
    let t = Instant::now();
    let jobs = draws
        .iter()
        .map(|(_, j)| Ok(Job::new(&j.spec, registry::parse(&j.spec)?, j.layers)))
        .collect::<Result<Vec<Job>, String>>()?;
    Ok(Inputs {
        parse_s: t.elapsed().as_secs_f64(),
        draws,
        jobs,
    })
}

fn batch(inp: &Inputs) -> (BatchReport, f64) {
    let mut engine = Engine::new(EngineOptions::default());
    let t = Instant::now();
    let report = engine.run(&inp.jobs);
    (report, t.elapsed().as_secs_f64())
}

fn verify(inp: &Inputs, golden: &Golden, report: &BatchReport, tally: &mut Tally) {
    for ((result, (family, spec)), job) in report.results.iter().zip(&inp.draws).zip(&inp.jobs) {
        let o = &result.outcome;
        tally.record((|| {
            golden.verify("flat", spec, Expected::of(o.digest, &o.metrics))?;
            if o.check != CheckStatus::Legal {
                return Err(format!("{}: not legal: {:?}", spec.key(), o.check));
            }
            golden::envelope(family, spec, job.family.graph.node_count(), &o.metrics)
        })());
    }
    if report.results.len() != inp.jobs.len() {
        tally.record(Err("batch returned a different number of results".into()));
    }
}

/// Batch times and checks accumulated over a run's rounds.
#[derive(Default)]
pub struct Acc {
    times: Vec<f64>,
    tally: Tally,
}

/// One round of timed batches.
pub fn round(inp: &Inputs, golden: &Golden, role: Role, acc: &mut Acc) {
    let start = Instant::now();
    let mut n = 0;
    while n < role.min_units(CONTROL_BATCHES) || role.more_time(start) {
        let (report, secs) = batch(inp);
        acc.times.push(secs);
        verify(inp, golden, &report, &mut acc.tally);
        n += 1;
    }
}

/// `sweep.jobs_per_s` from the median batch time of all rounds.
pub fn finish(inp: &Inputs, acc: Acc) -> (Values, Tally) {
    let mut v = Values::default();
    if let Some(med) = median(&acc.times) {
        v.set("sweep.jobs_per_s", inp.jobs.len() as f64 / med);
    }
    (v, acc.tally)
}

/// Untraced batches for the baseline and CPU share, one traced batch,
/// and a stage replay of the batch's distinct jobs.
pub fn traced(inp: &Inputs, golden: &Golden, notes: &mut Vec<String>) -> (Values, Tally) {
    let mut tally = Tally::default();
    let (mut plain, mut cpu) = (Vec::new(), 0.0);
    for _ in 0..TRACED_BATCHES {
        let cpu0 = attr::cpu_seconds();
        let (report, secs) = batch(inp);
        cpu += cpu0.zip(attr::cpu_seconds()).map_or(0.0, |(a, b)| b - a);
        plain.push(secs);
        verify(inp, golden, &report, &mut tally);
    }
    let plain_s = median(&plain).expect("batches ran");

    let trace = Trace::new();
    let (report, traced_s) = trace.collect(|| batch(inp));
    verify(inp, golden, &report, &mut tally);
    let agg = trace.aggregate();

    let mut distinct: Vec<&JobSpec> = inp.draws.iter().map(|(_, j)| j).collect();
    distinct.sort();
    distinct.dedup();
    let replay = Replay::of(&distinct);

    let mut v = attr::engine_layers(&agg, &replay, "sweep-lattice", notes);
    v.set("registry.parse_s", inp.parse_s);
    v.set("registry.families", inp.jobs.len() as f64);
    v.set("exec.cpu_util", cpu / plain.iter().sum::<f64>());
    v.set("trace.overhead_ratio", traced_s / plain_s);
    let batch_s = attr::span_s(&agg, "engine.batch");
    notes.push(format!(
        "unattributed[sweep-lattice] batch {:.6} s: classify {:.6} s, jobs {:.6} s over {} threads",
        batch_s,
        attr::span_s(&agg, "engine.classify"),
        attr::span_s(&agg, "engine.job"),
        mlv_core::exec::thread_count()
    ));
    (v, tally)
}
