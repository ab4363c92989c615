//! The repository benchmark.
//!
//! ```text
//! mlvbench --workload <sweep-lattice|large|serve-mixed|all> --seed <n>
//!          --seconds <s> --trace <0|1>
//! mlvbench expected      # print the expected-results file
//! mlvbench spread        # summarize result lines read from stdin
//! ```
//!
//! A run sets up its inputs several times (reporting the median as
//! `setup_s`), then measures in rounds: each round gives the
//! workload's own phase its share of `--seconds` and runs the other two
//! workloads' phases at a fixed, smaller size, so that every workload
//! prints every end-to-end metric. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it runs each phase once more
//! with attribution and prints the per-layer metrics instead. The last
//! line of standard output is the JSON result; the exit code is
//! non-zero when any output was wrong.

mod attr;
mod gen;
mod golden;
mod large;
mod report;
mod serve;
mod stats;
mod sweep;

use golden::{Expected, Golden};
use report::{Tally, Values};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["sweep-lattice", "large", "serve-mixed"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Rounds per run. Each round gives the workload's own phase
/// `--seconds / ROUNDS` and runs a fixed small unit of each control
/// phase, so every metric's samples are spread over the whole run and
/// slow spells of a shared host do not land on one metric alone.
const ROUNDS: u32 = 10;

/// Whether a phase is the workload's own (measured for its slice of
/// each round) or a fixed-size control phase run alongside it.
#[derive(Clone, Copy, Debug)]
pub enum Role {
    Main(Duration),
    Control,
}

impl Role {
    /// Whether a phase that started its round at `start` should keep
    /// measuring.
    pub fn more_time(self, start: Instant) -> bool {
        match self {
            Role::Main(d) => start.elapsed() < d,
            Role::Control => false,
        }
    }

    /// Units a round runs at least: one for a main phase, the phase's
    /// fixed control size otherwise.
    pub fn min_units(self, control: usize) -> usize {
        match self {
            Role::Main(_) => 1,
            Role::Control => control,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds: not an integer")?;
                if a.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// Every phase's inputs for one run.
struct Inputs {
    sweep: sweep::Inputs,
    large: large::Inputs,
    serve: serve::Inputs,
}

fn prepare(workload: &str, seed: u64, main: Role) -> Result<Inputs, String> {
    let role = |w: &str| if w == workload { main } else { Role::Control };
    Ok(Inputs {
        sweep: sweep::prepare(seed)?,
        large: large::prepare(seed, role("large"))?,
        serve: serve::prepare(seed, role("serve-mixed"), ROUNDS)?,
    })
}

/// One workload run; prints its metric lines and result line and
/// returns whether every output was correct.
fn run(workload: &str, args: &Args, golden: &Golden) -> Result<bool, String> {
    let main = Role::Main(Duration::from_secs(args.seconds) / ROUNDS);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(prepare(workload, args.seed, main)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let inp = inputs.expect("set up at least once");

    // the workload's own phase first, then the control phases
    let mut order = vec![workload];
    order.extend(WORKLOADS.iter().filter(|w| **w != workload));
    let role = |phase: &str| {
        if phase == workload {
            main
        } else {
            Role::Control
        }
    };

    let mut values = Values::default();
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    if args.trace {
        for phase in order {
            let (v, t) = match phase {
                "sweep-lattice" => sweep::traced(&inp.sweep, golden, &mut notes),
                "large" => large::traced(&inp.large, golden, &mut notes),
                _ => serve::traced(&inp.serve, golden, &mut notes)?,
            };
            values.merge(v);
            tally.merge(t);
        }
    } else {
        let mut acc = (
            sweep::Acc::default(),
            large::Acc::default(),
            serve::Acc::default(),
        );
        for _ in 0..ROUNDS {
            for &phase in &order {
                match phase {
                    "sweep-lattice" => sweep::round(&inp.sweep, golden, role(phase), &mut acc.0),
                    "large" => large::round(&inp.large, golden, role(phase), &mut acc.1),
                    _ => serve::round(&inp.serve, golden, &mut acc.2),
                }
            }
        }
        for (v, t) in [
            sweep::finish(&inp.sweep, acc.0),
            large::finish(acc.1),
            serve::finish(acc.2),
        ] {
            values.merge(v);
            tally.merge(t);
        }
    }
    drop(inp);

    let declared = if args.trace {
        report::PER_LAYER
    } else {
        values.set("setup_s", stats::median(&setups).expect("set up"));
        values.set(
            "peak_rss_mb",
            attr::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
        );
        report::END_TO_END
    };
    for note in &notes {
        println!("{note}");
    }
    for (name, unit) in declared {
        if let Some(v) = values.0.get(name) {
            println!("{workload:>13} {name:<28} {v:>16.6} {unit}");
        }
    }
    println!(
        "{workload:>13} fail_ratio {}/{} operations",
        tally.failed, tally.attempted
    );
    for reason in &tally.reasons {
        eprintln!("FAILED: {reason}");
    }
    println!("{}", report::result_line(declared, &values, &tally)?);
    Ok(tally.failed == 0)
}

/// The expected-results file for every job any workload can draw,
/// computed by the program at the current commit. Refuses to write one
/// from an illegal layout.
fn expected() -> Result<(), String> {
    use mlv_layout::engine::{CheckStatus, Engine, EngineOptions, Job};
    let specs = gen::all_flat_jobs();
    let jobs = specs
        .iter()
        .map(|j| {
            let mut job = Job::new(&j.spec, mlv_layout::registry::parse(&j.spec)?, j.layers);
            job.pdk = j.pdk.and_then(mlv_grid::Pdk::named);
            Ok(job)
        })
        .collect::<Result<Vec<Job>, String>>()?;
    let report = Engine::new(EngineOptions::default()).run(&jobs);
    for (spec, r) in specs.iter().zip(&report.results) {
        if r.outcome.check != CheckStatus::Legal {
            return Err(format!("{}: not legal", spec.key()));
        }
        println!(
            "{}",
            Expected::of(r.outcome.digest, &r.outcome.metrics).line("flat", &spec.key())
        );
    }
    for spec in gen::all_tiled_jobs() {
        let family = mlv_layout::registry::parse(&spec.spec)?;
        let tiled = mlv_layout::realize_tiled(
            &family.spec,
            &mlv_layout::RealizeOptions::with_layers(spec.layers),
        );
        let m = mlv_grid::metrics_stream(&tiled);
        println!(
            "{}",
            Expected::of(tiled.digest(), &m).line("tiled", &spec.key())
        );
    }
    Ok(())
}

/// Per metric, the median, quartiles and quartile spread (as a share
/// of the median) over every result line on standard input — the
/// run-to-run spread the bounds in `BENCHMARK.json` are judged by.
fn spread() -> Result<(), String> {
    let mut by_name: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for line in std::io::stdin().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let Some(at) = line.find("\"metrics\":{") else {
            continue;
        };
        for part in line[at + 11..].split("},") {
            let Some((name, rest)) = part.split_once(":{\"value\":") else {
                continue;
            };
            let value = rest.split(',').next().and_then(|v| v.parse::<f64>().ok());
            let name = name.trim_matches(|c| c == '"' || c == '{' || c == ',');
            by_name.entry(name.to_string()).or_default().extend(value);
        }
    }
    for (name, xs) in &by_name {
        let m = stats::median(xs).unwrap_or(f64::NAN);
        let [q1, _, q3] = stats::quartiles(xs).unwrap_or([f64::NAN; 3]);
        let s = stats::relative_spread(xs).unwrap_or(f64::NAN);
        println!(
            "{name:<28} n={:<3} median {m:>14.6} q1 {q1:>14.6} q3 {q3:>14.6} spread {s:.4}",
            xs.len()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let tool = match argv.first().map(String::as_str) {
        Some("expected") => Some(expected()),
        Some("spread") => Some(spread()),
        _ => None,
    };
    if let Some(result) = tool {
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("mlvbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mlvbench: {e}");
            return ExitCode::from(2);
        }
    };
    let golden = match Golden::load() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("mlvbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for w in workloads {
        match run(w, &args, &golden) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("mlvbench: {w}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
