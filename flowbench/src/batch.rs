//! The batch workloads: the production resilient matrix (`medium-matrix`)
//! and the congested network-switch cell (`switch-congested`).
//!
//! Both run the flow's default configuration (placement seed 6, where the
//! golden fingerprints hold); `--seed` orders the jobs handed to the
//! executor, whose results must not depend on that order.

use std::collections::HashMap;
use std::time::Instant;

use vpga_core::PlbArchitecture;
use vpga_designs::{DesignParams, NamedDesign};
use vpga_flow::{
    DesignOutcome, Executor, FlowConfig, FlowMatrix, FlowResult, FlowVariant, JobResult, Matrix,
};
use vpga_netlist::Netlist;

use crate::reference::{self, Entry};
use crate::replay::{replay_pair, reproduces, Counts, Quality, Recorder, Sums};
use crate::report::{median, peak_rss_mb, percentile, ratio};
use crate::{nproc, Outcome, Phase, Scale, SplitMix, TraceOutput};

/// What one batch workload runs.
pub struct BatchSpec {
    /// Names the stored reference.
    name: String,
    params: DesignParams,
    /// `--only` filter on `design/arch` (`None` = the full matrix).
    only: Option<&'static str>,
    /// The (design, arch) pairs the filter keeps, in matrix order.
    pairs: Vec<(NamedDesign, PlbArchitecture)>,
}

fn size(scale: Scale, full: &str) -> DesignParams {
    let name = match scale {
        Scale::Full => full,
        Scale::Smoke => "tiny",
    };
    vpga_bench::params_by_name(name).expect("known size")
}

impl BatchSpec {
    /// The whole 4 designs × {granular, lut} matrix at `medium`.
    pub fn medium_matrix(scale: Scale) -> BatchSpec {
        let mut pairs = Vec::new();
        for design in NamedDesign::ALL {
            for arch in [PlbArchitecture::granular(), PlbArchitecture::lut_based()] {
                pairs.push((design, arch));
            }
        }
        BatchSpec {
            name: format!("medium-matrix-{scale:?}"),
            params: size(scale, "medium"),
            only: None,
            pairs,
        }
    }

    /// network_switch on granular, `medium` with the switch widened to 16
    /// ports (16 bits each): the routing grid stays at its fixed tile
    /// budget, so the route is congested.
    pub fn switch_congested(scale: Scale) -> BatchSpec {
        let base = size(scale, "medium");
        let params = match scale {
            Scale::Full => DesignParams {
                switch_ports: 16,
                switch_width: 16,
                ..base
            },
            Scale::Smoke => base,
        };
        BatchSpec {
            name: format!("switch-congested-{scale:?}"),
            params,
            only: Some("network_switch/granular"),
            pairs: vec![(NamedDesign::NetworkSwitch, PlbArchitecture::granular())],
        }
    }

    fn cells(&self) -> u64 {
        2 * self.pairs.len() as u64
    }

    /// The same jobs as the production resilient matrix, through the same
    /// executor, submitted in an order drawn from `seed`; outcomes come
    /// back in canonical order.
    fn run_shuffled(&self, config: &FlowConfig, jobs: usize, seed: u64) -> Matrix {
        let mut order: Vec<_> = FlowMatrix::full()
            .jobs()
            .iter()
            .filter(|j| {
                self.pairs
                    .iter()
                    .any(|(d, a)| *d == j.design && a.name() == j.arch.name())
            })
            .cloned()
            .collect();
        SplitMix(seed).shuffle(&mut order);
        let cells =
            FlowMatrix::from_jobs(order).run_cells(&self.params, config, &Executor::new(jobs));
        let mut done: Vec<JobResult> = Vec::new();
        for cell in cells {
            match cell {
                Ok(r) => done.push(r),
                Err(e) => eprintln!("cell failed: {e}"),
            }
        }
        let mut outcomes = Vec::new();
        for (design, arch) in &self.pairs {
            let mut take = |variant| {
                let ix = done.iter().position(|r| {
                    r.job.design == *design
                        && r.job.arch.name() == arch.name()
                        && r.job.variant == variant
                })?;
                Some(done.swap_remove(ix))
            };
            if let (Some(a), Some(b)) = (take(FlowVariant::A), take(FlowVariant::B)) {
                outcomes.push(DesignOutcome {
                    design: a.design,
                    arch: arch.name().to_owned(),
                    gates_nand2: a.gates_nand2,
                    compaction: a.compaction,
                    front_stages: a.front_stages,
                    flow_a: a.result,
                    flow_b: b.result,
                });
            }
        }
        Matrix::from_outcomes(outcomes)
    }

    fn designs(&self) -> Vec<(NamedDesign, Netlist)> {
        let mut seen: Vec<NamedDesign> = self.pairs.iter().map(|(d, _)| *d).collect();
        seen.dedup();
        seen.into_iter()
            .map(|d| (d, d.generate(&self.params)))
            .collect()
    }

    /// The audited reference: `Matrix::run_resilient` itself, jobs in
    /// canonical order, with every inter-stage auditor on.
    fn reference(&self, jobs: usize) -> HashMap<String, u64> {
        let entries = reference::get(&self.name, self.cells() as usize, || {
            let audited = FlowConfig {
                audit: true,
                ..FlowConfig::default()
            };
            let m = Matrix::run_resilient_filtered(&self.params, &audited, jobs, None, self.only);
            for f in m.failures() {
                eprintln!("verification: {f}");
            }
            entries(&m)
        });
        entries
            .into_iter()
            .map(|e| (e.key, e.fingerprint))
            .collect()
    }
}

/// `design/arch/variant`, as the reference keys a result.
fn key(o: &DesignOutcome, r: &FlowResult) -> String {
    format!("{}/{}/{}", o.design, o.arch, r.variant.key())
}

fn entries(m: &Matrix) -> Vec<Entry> {
    let mut out = Vec::new();
    for o in m.outcomes() {
        for r in [&o.flow_a, &o.flow_b] {
            out.push(Entry {
                key: key(o, r),
                fingerprint: r.fingerprint(),
                die_area: r.die_area,
                wirelength: r.wirelength,
            });
        }
    }
    out
}

/// Results of `m` that are missing or disagree with the reference.
fn failed_cells(spec: &BatchSpec, m: &Matrix, reference: &HashMap<String, u64>) -> u64 {
    let ok = entries(m)
        .iter()
        .filter(|e| reference.get(&e.key) == Some(&e.fingerprint))
        .count() as u64;
    spec.cells() - ok
}

fn matrix_sums(m: &Matrix) -> Sums {
    let results: Vec<Quality> = m
        .outcomes()
        .iter()
        .flat_map(|o| [Quality::of(&o.flow_a), Quality::of(&o.flow_b)])
        .collect();
    Sums::of(&results)
}

/// Each result's own latency: the stage walls of its shared front-end
/// plus those of its variant back-end, in ms.
fn job_latencies_ms(m: &Matrix) -> Vec<f64> {
    let mut out = Vec::new();
    for o in m.outcomes() {
        let front: f64 = o.front_stages.iter().map(|s| s.wall.as_secs_f64()).sum();
        for r in [&o.flow_a, &o.flow_b] {
            let back: f64 = r.stages.iter().map(|s| s.wall.as_secs_f64()).sum();
            out.push(1e3 * (front + back));
        }
    }
    out
}

fn report_matrix(spec: &BatchSpec, seed: u64, m: &Matrix, q: &Sums, attempted: u64, failed: u64) {
    let runs = attempted / spec.cells();
    let illegal = q.illegal * runs;
    eprintln!(
        "seed {seed}: matrix fingerprint {:#018x}; fail_ratio {}/{attempted} over {runs} run(s) \
         of {} results ({failed} failed or mismatched, {illegal} illegal routes); \
         overflow_edges {} per run",
        m.fingerprint(),
        failed + illegal,
        spec.cells(),
        q.overflow_edges
    );
}

/// Times set-up — generating the workload's designs — for at least
/// `window_s` (and at least once), appending each wall to `walls`.
fn sample_setup(spec: &BatchSpec, window_s: f64, walls: &mut Vec<f64>) {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        drop(spec.designs());
        walls.push(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= window_s {
            break;
        }
    }
}

/// The timed run: repeat the matrix until `seconds` have passed.
pub fn timed(spec: &BatchSpec, seed: u64, seconds: f64) -> Outcome {
    let jobs = nproc();
    let config = FlowConfig::default();

    let start = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut runs = Vec::new();
    let mut peak = None;
    loop {
        // Set-up is sampled before every repetition, so its median spans
        // the same stretch of machine load as the walls'.
        sample_setup(spec, 0.2, &mut setups);
        let t = Instant::now();
        let m = spec.run_shuffled(&config, jobs, seed);
        walls.push(t.elapsed().as_secs_f64());
        runs.push(m);
        // The peak of one matrix in a fresh process; later repetitions
        // would add only allocator fragmentation.
        peak = peak.or_else(peak_rss_mb);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    eprintln!("repetition walls (s): {walls:.3?}");

    // After the timed phase: a first run computes the audited pass here,
    // and it must not raise the peak measured above.
    let reference = spec.reference(jobs);
    let attempted = spec.cells() * runs.len() as u64;
    let failed: u64 = runs.iter().map(|m| failed_cells(spec, m, &reference)).sum();
    let q = matrix_sums(&runs[0]);
    let latencies: Vec<f64> = runs.iter().flat_map(job_latencies_ms).collect();
    report_matrix(spec, seed, &runs[0], &q, attempted, failed);
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        phase: Phase::Timed {
            wall_s: median(&walls).unwrap_or(0.0),
            setup_s: median(&setups).unwrap_or(0.0),
            peak_rss_mb: peak.unwrap_or(0.0),
            job_p50_ms: median(&latencies).unwrap_or(0.0),
            job_p99_ms: percentile(&latencies, 99.0).unwrap_or(0.0),
            die_area_um2: q.die_area_um2,
            wirelength_mm: q.wirelength_mm,
            samples: walls.len(),
            job_samples: latencies.len(),
        },
    }
}

/// The traced run: one production pass at `--jobs` = nproc, checked
/// against the reference, then the layer replay at one thread, checked
/// against the production pass.
pub fn traced(spec: &BatchSpec, seed: u64) -> Result<Outcome, String> {
    let jobs = nproc();
    let config = FlowConfig::default();
    let reference = spec.reference(jobs);
    let designs = spec.designs();

    let t = Instant::now();
    let production = spec.run_shuffled(&config, jobs, seed);
    let production_wall = t.elapsed();
    let attempted = spec.cells();

    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    // A result counts as done when production matches the reference and
    // the replay matches production.
    let (mut matched, mut ok) = (0u64, 0u64);
    let mut replayed = Vec::new();
    let t = Instant::now();
    for (design, arch) in &spec.pairs {
        let netlist = &designs
            .iter()
            .find(|(d, _)| d == design)
            .expect("pair design generated")
            .1;
        let pair = replay_pair(&mut rec, &mut counts, netlist, arch, &config)?;
        if let Some(prod) = production
            .outcomes()
            .iter()
            .find(|o| o.design == netlist.name() && o.arch == arch.name())
        {
            for r in [&prod.flow_a, &prod.flow_b] {
                let same = reproduces(&pair, prod.gates_nand2, r);
                matched += u64::from(same);
                ok += u64::from(same && reference.get(&key(prod, r)) == Some(&r.fingerprint()));
            }
        }
        replayed.push(pair);
    }
    let replay_wall = t.elapsed();
    let failed = attempted - ok;
    let q = Sums::of(replayed.iter().flat_map(|p| [&p.a, &p.b]));
    report_matrix(spec, seed, &production, &q, attempted, failed);
    eprintln!("replay matched {matched}/{attempted} production results to the bit");
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        phase: Phase::Traced(Box::new(TraceOutput {
            spans: rec.spans().to_vec(),
            counts,
            replay_wall,
            production_wall,
            matched,
            fail_ratio: ratio((failed + q.illegal) as f64, attempted as f64),
            overflow_edges: q.overflow_edges,
            top10_slack_ps: q.top10_slack_ps,
            serve: None,
        })),
    })
}
