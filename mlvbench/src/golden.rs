//! Correctness gate. Every job result is compared against the expected
//! file recorded with this benchmark (digest plus three metrics per
//! job), and lattice draws against the registry's calibrated
//! closed-form envelopes.

use crate::gen::JobSpec;
use mlv_formulas::predictions::{self, Prediction};
use mlv_grid::metrics::LayoutMetrics;
use mlv_layout::registry;
use std::collections::HashMap;

/// The expected file: one line per job any generator can draw,
/// `<flat|tiled>\t<key>\t<digest>\t<area>\t<max_wire_planar>\t<total_wire>`.
const EXPECTED: &str = include_str!("../expected.txt");

/// What a job must produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    pub digest: u64,
    pub area: u64,
    pub max_wire_planar: u64,
    pub total_wire: u64,
}

impl Expected {
    pub fn of(digest: u64, m: &LayoutMetrics) -> Expected {
        Expected {
            digest,
            area: m.area,
            max_wire_planar: m.max_wire_planar,
            total_wire: m.total_wire,
        }
    }

    pub fn line(&self, tag: &str, key: &str) -> String {
        format!(
            "{tag}\t{key}\t{:016x}\t{}\t{}\t{}",
            self.digest, self.area, self.max_wire_planar, self.total_wire
        )
    }
}

/// The parsed expected file, keyed by `(tag, job key)`.
pub struct Golden(HashMap<(String, String), Expected>);

impl Golden {
    pub fn load() -> Result<Golden, String> {
        Golden::parse(EXPECTED)
    }

    fn parse(text: &str) -> Result<Golden, String> {
        let mut map = HashMap::new();
        for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("expected.txt:{}: malformed line", i + 1);
            if f.len() != 6 {
                return Err(bad());
            }
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let e = Expected {
                digest: u64::from_str_radix(f[2], 16).map_err(|_| bad())?,
                area: num(f[3])?,
                max_wire_planar: num(f[4])?,
                total_wire: num(f[5])?,
            };
            map.insert((f[0].to_string(), f[1].to_string()), e);
        }
        Ok(Golden(map))
    }

    /// `Err` with a one-line reason unless `got` matches the recorded
    /// result of `job`.
    pub fn verify(&self, tag: &str, job: &JobSpec, got: Expected) -> Result<(), String> {
        let key = job.key();
        match self.0.get(&(tag.to_string(), key.clone())) {
            None => Err(format!("{tag} {key}: no expected result recorded")),
            Some(e) if *e == got => Ok(()),
            Some(e) => Err(format!("{tag} {key}: got {got:?}, expected {e:?}")),
        }
    }

    /// The recorded digest of `job`, for responses that carry nothing
    /// else.
    pub fn digest(&self, job: &JobSpec) -> Option<u64> {
        self.0
            .get(&("flat".to_string(), job.key()))
            .map(|e| e.digest)
    }
}

/// The closed-form leading terms of a lattice spec at `layers`, or
/// `None` where the paper gives none (mixed-radix GHCs, clusters, star
/// graphs). `nodes` is the built graph's node count.
fn predict(spec: &str, nodes: usize, layers: usize) -> Option<Prediction> {
    let (name, args) = spec.split_once(':')?;
    let nums: Vec<usize> = args.split(',').map_while(|t| t.parse().ok()).collect();
    let p = match (name, nums.as_slice()) {
        ("hypercube", &[n]) => predictions::hypercube(1 << n, layers),
        ("karyn" | "karyn-folded", &[k, n]) => predictions::karyn(k, n, layers),
        ("mesh", &[k, n]) => predictions::karyn_mesh(k, n, layers),
        ("ghc", rs) if rs.iter().all(|&r| r == rs[0]) => {
            predictions::genhyper(rs[0], rs.len(), layers)
        }
        ("butterfly", &[m, ..]) => predictions::butterfly(m << m, layers),
        ("ccc", &[n]) => predictions::ccc(n << n, layers),
        ("folded", &[n]) => predictions::folded_hypercube(1 << n, layers),
        ("enhanced", &[n, ..]) => predictions::enhanced_cube(1 << n, layers),
        ("hsn", &[levels, r]) => predictions::hsn(r.pow(levels as u32), layers),
        ("hhn", &[levels, s]) => predictions::hsn((1usize << s).pow(levels as u32), layers),
        ("isn", _) => predictions::isn(nodes, layers),
        _ => return None,
    };
    Some(p)
}

/// The conformance prediction oracle's test for one job of a lattice
/// draw: measured area and planar max wire over the leading terms must
/// lie inside the family's calibrated envelope, tight at L = 2 and with
/// the caps relaxed by the model's saturation allowance above it.
pub fn envelope(
    family: &str,
    job: &JobSpec,
    nodes: usize,
    m: &LayoutMetrics,
) -> Result<(), String> {
    let Some(at_l) = predict(&job.spec, nodes, job.layers) else {
        return Ok(());
    };
    let at_2 = predict(&job.spec, nodes, 2).expect("predicted at L, so at 2");
    let env = registry::find(family)
        .and_then(|e| e.lattice.as_ref())
        .and_then(|l| l.envelope)
        .ok_or_else(|| format!("{family}: prediction without a calibrated envelope"))?;
    let inside = |what: &str, measured: u64, predicted: f64, lo: f64, hi: f64| {
        let r = measured as f64 / predicted;
        if (lo..=hi).contains(&r) {
            Ok(())
        } else {
            Err(format!(
                "{}: {what} ratio {r:.4} outside [{lo}, {hi:.4}]",
                job.key()
            ))
        }
    };
    let (alo, ahi) = env.area;
    inside("area", m.area, at_l.area, alo, ahi * at_2.area / at_l.area)?;
    if let (Some((wlo, whi)), Some(pw)) = (env.wire, at_l.max_wire) {
        inside(
            "max wire",
            m.max_wire_planar,
            pw,
            wlo,
            whi * job.layers as f64 / 2.0,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_file_parses_and_covers_every_job() {
        let g = Golden::load().expect("expected.txt parses");
        for job in crate::gen::all_flat_jobs() {
            assert!(g.digest(&job).is_some(), "missing {}", job.key());
        }
        for job in crate::gen::all_tiled_jobs() {
            assert!(
                g.0.contains_key(&("tiled".to_string(), job.key())),
                "missing tiled {}",
                job.key()
            );
        }
    }

    #[test]
    fn malformed_expected_lines_are_rejected() {
        assert!(Golden::parse("flat\tk L=2\tzz\t1\t2\t3\n").is_err());
        assert!(Golden::parse("flat\tk L=2\t1\t2\n").is_err());
        assert!(Golden::parse("flat\tk L=2\tff\t1\t2\t3\n").is_ok());
    }

    #[test]
    fn predictions_exist_exactly_where_the_paper_gives_them() {
        assert!(predict("hypercube:5", 32, 4).is_some());
        assert!(predict("ghc:3,3", 9, 4).is_some());
        assert!(predict("ghc:4,3", 12, 4).is_none());
        assert!(predict("star:4", 24, 4).is_none());
        assert!(predict("clusterc:3,2,4,cube", 36, 4).is_none());
    }
}
