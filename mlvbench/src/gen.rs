//! Workload generators: pure functions of the workload seed that turn
//! fixed, benchmark-owned pools of family specs into job lists and
//! request schedules. The program under test only ever sees the
//! generated spec strings — no generator here calls into it, so a
//! change to the program's own lattice code cannot change a workload.

use std::time::Duration;

/// SplitMix64: a tiny, self-contained generator, so the workloads stay
/// fixed even if the program's own PRNG changes.
pub struct Rng(u64);

impl Rng {
    /// A generator for one phase of one seed; `stream` separates the
    /// phases so adding draws to one never shifts another.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One flat engine job as the benchmark states it: a registry spec
/// string, a layer budget, and an optional named technology stack.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobSpec {
    pub spec: String,
    pub layers: usize,
    pub pdk: Option<&'static str>,
}

impl JobSpec {
    pub fn new(spec: &str, layers: usize) -> JobSpec {
        JobSpec {
            spec: spec.to_string(),
            layers,
            pdk: None,
        }
    }

    /// `spec L=<layers>[ pdk=<name>]`, the key of the expected file.
    pub fn key(&self) -> String {
        match self.pdk {
            None => format!("{} L={}", self.spec, self.layers),
            Some(p) => format!("{} L={} pdk={p}", self.spec, self.layers),
        }
    }
}

// --- sweep-lattice ---------------------------------------------------

/// A lattice family's parameter pool, written as registry specs.
/// `family` is the registry's canonical lattice name (the key of its
/// calibrated envelope).
pub struct Pool {
    pub family: &'static str,
    pub specs: &'static [&'static str],
}

/// Layer budgets of the lattice draws (the paper's even, odd and
/// Thompson points).
pub const LAYER_POOL: [usize; 6] = [2, 3, 4, 5, 6, 8];

/// Draws per family per batch. At 100, 13 families give 2600 jobs, of
/// which the in-batch memo dedup serves most.
pub const CASES_PER_FAMILY: usize = 100;

/// Every lattice family of the registry with the parameter pool the
/// conformance lattice draws from. Enhanced cubes take their link seed
/// from a small fixed set so that every reachable job has an expected
/// digest.
pub const LATTICE: &[Pool] = &[
    Pool {
        family: "hypercube",
        specs: &["hypercube:3", "hypercube:4", "hypercube:5", "hypercube:6"],
    },
    Pool {
        family: "karyn",
        specs: &[
            "karyn:3,2",
            "karyn:4,2",
            "karyn:5,2",
            "karyn:3,3",
            "karyn-folded:3,2",
            "karyn-folded:4,2",
            "karyn-folded:5,2",
            "karyn-folded:3,3",
        ],
    },
    Pool {
        family: "mesh",
        specs: &["mesh:3,2", "mesh:4,2", "mesh:5,2", "mesh:3,3"],
    },
    Pool {
        family: "genhyper",
        specs: &[
            "ghc:3,3",
            "ghc:4,4",
            "ghc:5,5",
            "ghc:3,3,3",
            "ghc:4,3",
            "ghc:5,3",
            "ghc:4,3,2",
        ],
    },
    Pool {
        family: "butterfly",
        specs: &["butterfly:3,0", "butterfly:4,0", "butterfly:4,1"],
    },
    Pool {
        family: "ccc",
        specs: &["ccc:3", "ccc:4"],
    },
    Pool {
        family: "folded",
        specs: &["folded:3", "folded:4", "folded:5"],
    },
    Pool {
        family: "enhanced",
        specs: &[
            "enhanced:3,17",
            "enhanced:3,4242",
            "enhanced:3,90001",
            "enhanced:4,17",
            "enhanced:4,4242",
            "enhanced:4,90001",
            "enhanced:5,17",
            "enhanced:5,4242",
            "enhanced:5,90001",
        ],
    },
    Pool {
        family: "hsn",
        specs: &["hsn:2,3", "hsn:2,4", "hsn:2,5", "hsn:3,3"],
    },
    Pool {
        family: "hhn",
        specs: &["hhn:2,2", "hhn:2,3"],
    },
    Pool {
        family: "isn",
        specs: &["isn:2,3", "isn:2,4"],
    },
    Pool {
        family: "clusterc",
        specs: &[
            "clusterc:3,2,4,cube",
            "clusterc:4,2,3,ring",
            "clusterc:3,2,3,complete",
        ],
    },
    Pool {
        family: "star",
        specs: &["star:3", "star:4"],
    },
];

/// One lattice draw: the job at its drawn budget followed by its L = 2
/// Thompson twin, both tagged with the pool's lattice family.
pub fn lattice(seed: u64, cases_per_family: usize) -> Vec<(&'static str, JobSpec)> {
    let mut rng = Rng::new(seed, "sweep-lattice");
    let mut jobs = Vec::with_capacity(LATTICE.len() * cases_per_family * 2);
    for pool in LATTICE {
        for _ in 0..cases_per_family {
            let layers = LAYER_POOL[rng.below(LAYER_POOL.len())];
            let spec = pool.specs[rng.below(pool.specs.len())];
            jobs.push((pool.family, JobSpec::new(spec, layers)));
            jobs.push((pool.family, JobSpec::new(spec, 2)));
        }
    }
    jobs
}

// --- large -----------------------------------------------------------

/// Phase 1: checked flat jobs at 2^10–2^12 nodes (one on the `hv6`
/// stack, so the PDK checks run), all distinct, so all cache misses.
pub fn large_checked(seed: u64) -> Vec<JobSpec> {
    let mut jobs = vec![
        JobSpec::new("hypercube:11", 4),
        JobSpec::new("karyn:8,4", 4),
        JobSpec::new("complete:64", 4),
        JobSpec::new("butterfly:8", 8),
        JobSpec::new("star:6", 4),
        JobSpec {
            pdk: Some("hv6"),
            ..JobSpec::new("hypercube:10", 6)
        },
    ];
    Rng::new(seed, "large.checked").shuffle(&mut jobs);
    jobs
}

/// Phase 2: tiled realization plus streaming metrics at 2^16 nodes.
pub fn large_tiled(seed: u64) -> Vec<JobSpec> {
    let mut jobs = vec![
        JobSpec::new("hypercube:16", 4),
        JobSpec::new("karyn:16,4", 4),
    ];
    Rng::new(seed, "large.tiled").shuffle(&mut jobs);
    jobs
}

/// Smaller stand-ins for the two large phases, run when `large` is a
/// control phase of another workload.
pub fn large_checked_control(seed: u64) -> Vec<JobSpec> {
    let mut jobs = vec![
        JobSpec::new("hypercube:10", 4),
        JobSpec::new("karyn:6,3", 4),
        JobSpec::new("complete:32", 4),
        JobSpec::new("butterfly:7", 8),
        JobSpec::new("star:5", 4),
        JobSpec {
            pdk: Some("hv6"),
            ..JobSpec::new("hypercube:9", 6)
        },
    ];
    Rng::new(seed, "large.checked").shuffle(&mut jobs);
    jobs
}

/// See [`large_checked_control`].
pub fn large_tiled_control(seed: u64) -> Vec<JobSpec> {
    let mut jobs = vec![
        JobSpec::new("hypercube:15", 4),
        JobSpec::new("karyn:13,4", 4),
    ];
    Rng::new(seed, "large.tiled").shuffle(&mut jobs);
    jobs
}

// --- serve-mixed -----------------------------------------------------

/// Request kinds the light stream mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Realize,
    Check,
    Metrics,
    Profile,
    Stats,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Realize => "realize",
            Kind::Check => "check",
            Kind::Metrics => "metrics",
            Kind::Profile => "profile",
            Kind::Stats => "stats",
        }
    }
}

/// The cache-hot light set: small instances, every request kind.
pub const LIGHT: &[(Kind, &str, usize)] = &[
    (Kind::Realize, "hypercube:4", 4),
    (Kind::Check, "karyn:4,2", 3),
    (Kind::Metrics, "ccc:3", 2),
    (Kind::Profile, "butterfly:3", 4),
    (Kind::Realize, "mesh:3,2", 5),
    (Kind::Check, "folded:4", 6),
    (Kind::Metrics, "hsn:2,3", 4),
    (Kind::Stats, "", 0),
];

/// Heavy requests check enhanced cubes `enhanced:8,<link seed>` at
/// [`HEAVY_LAYERS`]: each link seed is a distinct graph, so every heavy
/// request misses the cache, yet all have the same size, so each check
/// takes about as long as any other (15–25 ms on a 2-core x86-64
/// container). A mix of families and layer budgets made the heavy
/// median and the light tail depend on which mix a seed drew.
pub const HEAVY_FAMILY: &str = "enhanced:8";
/// Layer budget of every heavy request.
pub const HEAVY_LAYERS: usize = 8;
/// Link seeds `1..=HEAVY_SEEDS`; a run sends each at most once.
pub const HEAVY_SEEDS: u64 = 150;

/// The heavy job for one link seed.
pub fn heavy_job(link_seed: u64) -> JobSpec {
    JobSpec::new(&format!("{HEAVY_FAMILY},{link_seed}"), HEAVY_LAYERS)
}

/// Offered light load, requests per second.
pub const LIGHT_RATE: f64 = 1000.0;
/// Offered heavy load, requests per second: with a heavy check of
/// ~20–25 ms the engine is busy ~5% of the time. Light p99 then falls
/// about 5 ms below the end of a typical heavy check; at 6/s (~15% busy)
/// it sat on the longest checks of a run, which a slow spell of the
/// host stretches most.
pub const HEAVY_RATE: f64 = 2.0;

/// One scheduled request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub id: u64,
    /// Offset of the scheduled send time from the window's start.
    pub at: Duration,
    pub kind: Kind,
    /// `None` for `stats`.
    pub job: Option<JobSpec>,
}

impl Request {
    /// The JSON-lines frame (without newline).
    pub fn line(&self) -> String {
        match &self.job {
            None => format!("{{\"id\":{},\"kind\":\"{}\"}}", self.id, self.kind.name()),
            Some(j) => format!(
                "{{\"id\":{},\"kind\":\"{}\",\"family\":\"{}\",\"layers\":{}}}",
                self.id,
                self.kind.name(),
                j.spec,
                j.layers
            ),
        }
    }
}

/// Heavy request ids start here so light and heavy ids never collide.
pub const HEAVY_ID_BASE: u64 = 1 << 32;

/// The two open-loop streams of one `window`: light requests at
/// [`LIGHT_RATE`], heavy requests at [`HEAVY_RATE`] offset by half a
/// period. Fails when the window needs more distinct heavy jobs than
/// the pool holds.
pub fn serve_streams(seed: u64, window: Duration) -> Result<(Vec<Request>, Vec<Request>), String> {
    let mut rng = Rng::new(seed, "serve-mixed");
    let n_light = (LIGHT_RATE * window.as_secs_f64()).round() as u64;
    let light = (0..n_light)
        .map(|i| {
            let (kind, spec, layers) = LIGHT[rng.below(LIGHT.len())];
            Request {
                id: i + 1,
                at: Duration::from_secs_f64(i as f64 / LIGHT_RATE),
                kind,
                job: (kind != Kind::Stats).then(|| JobSpec::new(spec, layers)),
            }
        })
        .collect();

    let n_heavy = (HEAVY_RATE * window.as_secs_f64()).round() as usize;
    if n_heavy as u64 > HEAVY_SEEDS {
        return Err(format!(
            "a {window:?} window needs {n_heavy} distinct heavy jobs; the pool holds {HEAVY_SEEDS}"
        ));
    }
    let mut seeds: Vec<u64> = (1..=HEAVY_SEEDS).collect();
    rng.shuffle(&mut seeds);
    let heavy = seeds[..n_heavy]
        .iter()
        .enumerate()
        .map(|(j, &s)| Request {
            id: HEAVY_ID_BASE + j as u64,
            at: Duration::from_secs_f64((j as f64 + 0.5) / HEAVY_RATE),
            kind: Kind::Check,
            job: Some(heavy_job(s)),
        })
        .collect();
    Ok((light, heavy))
}

/// Every job any generator can produce, for writing the expected file.
pub fn all_flat_jobs() -> Vec<JobSpec> {
    let mut v: Vec<JobSpec> = Vec::new();
    for pool in LATTICE {
        for spec in pool.specs {
            v.extend(LAYER_POOL.iter().map(|&l| JobSpec::new(spec, l)));
        }
    }
    v.extend(large_checked(0));
    v.extend(large_checked_control(0));
    v.extend(
        LIGHT
            .iter()
            .filter(|(k, ..)| *k != Kind::Stats)
            .map(|&(_, s, l)| JobSpec::new(s, l)),
    );
    v.extend((1..=HEAVY_SEEDS).map(heavy_job));
    v.sort();
    v.dedup();
    v
}

/// Every tiled job any generator can produce.
pub fn all_tiled_jobs() -> Vec<JobSpec> {
    let mut v = large_tiled(0);
    v.extend(large_tiled_control(0));
    v.sort();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    const WINDOW: Duration = Duration::from_secs(10);

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        for seed in [0u64, 1, 2026, u64::MAX] {
            assert_eq!(lattice(seed, 7), lattice(seed, 7));
            assert_eq!(large_checked(seed), large_checked(seed));
            assert_eq!(large_tiled(seed), large_tiled(seed));
            assert_eq!(
                serve_streams(seed, WINDOW).unwrap(),
                serve_streams(seed, WINDOW).unwrap()
            );
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(lattice(1, 7), lattice(2, 7));
        // the large sets are fixed; the seed only orders them, and two
        // jobs have just two orders, so look across several seeds
        assert!((1..8).any(|s| large_checked(s) != large_checked(0)));
        assert!((1..8).any(|s| large_tiled(s) != large_tiled(0)));
        let (l1, h1) = serve_streams(1, WINDOW).unwrap();
        let (l2, h2) = serve_streams(2, WINDOW).unwrap();
        assert_ne!(l1, l2);
        assert_ne!(h1, h2);
    }

    #[test]
    fn lattice_pairs_each_draw_with_its_thompson_twin() {
        let jobs = lattice(5, 3);
        assert_eq!(jobs.len(), LATTICE.len() * 3 * 2);
        for pair in jobs.chunks(2) {
            assert_eq!(pair[0].1.spec, pair[1].1.spec);
            assert_eq!(pair[1].1.layers, 2);
            assert!(LAYER_POOL.contains(&pair[0].1.layers));
        }
    }

    #[test]
    fn lattice_covers_every_registry_lattice_family() {
        let ours: Vec<&str> = LATTICE.iter().map(|p| p.family).collect();
        assert_eq!(ours, mlv_layout::registry::lattice_names());
        for pool in LATTICE {
            for spec in pool.specs {
                mlv_layout::registry::parse(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            }
        }
    }

    #[test]
    fn heavy_requests_never_repeat_a_job() {
        let (_, heavy) = serve_streams(9, Duration::from_secs(75)).unwrap();
        let mut keys: Vec<String> = heavy
            .iter()
            .map(|r| r.job.as_ref().unwrap().key())
            .collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n, "a heavy job repeated");
        assert!(serve_streams(9, Duration::from_secs(76)).is_err());
    }

    #[test]
    fn light_and_heavy_ids_are_disjoint_and_schedules_ordered() {
        let (light, heavy) = serve_streams(3, WINDOW).unwrap();
        assert!(light.iter().all(|r| r.id < HEAVY_ID_BASE));
        assert!(heavy.iter().all(|r| r.id >= HEAVY_ID_BASE));
        assert!(light.windows(2).all(|w| w[0].at < w[1].at));
        assert!(heavy.windows(2).all(|w| w[0].at < w[1].at));
        assert_eq!(light.len(), 10_000);
        assert_eq!(heavy.len(), 20);
    }
}
