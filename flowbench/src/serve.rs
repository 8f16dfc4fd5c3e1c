//! The `serve-mixed` workload: an in-process daemon driven over HTTP by a
//! closed loop of clients with a skewed stream of `/job` requests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vpga_core::PlbArchitecture;
use vpga_designs::NamedDesign;
use vpga_flow::{run_design, DesignOutcome, Executor, FlowConfig, FlowVariant};
use vpga_netlist::Netlist;
use vpga_serve::{spawn, DaemonConfig, DaemonHandle};

use crate::reference::{self, Entry};
use crate::replay::{replay_pair, reproduces, Counts, Recorder, Sums};
use crate::report::{median, peak_rss_mb, percentile, ratio};
use crate::{nproc, Outcome, Phase, Scale, ServeOutput, SplitMix, TraceOutput};

/// Cache budget: below the 32-job working set, so result hits,
/// front-only hits, evictions and full misses all occur.
const CACHE_BUDGET: usize = 320 << 10;
/// Requests of the most popular job per round; the job at popularity
/// rank `r` appears `HOT_COUNT / (r + 1)²` times, at least once.
const HOT_COUNT: usize = 256;
/// Set-ups (fresh daemon + warm-up pass) per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One distinct job of the stream.
#[derive(Clone, Debug)]
struct Job {
    size: &'static str,
    design: NamedDesign,
    arch: &'static str,
    variant: FlowVariant,
}

impl Job {
    fn path(&self) -> String {
        format!(
            "/job?design={}&arch={}&variant={}&params={}",
            self.design.key(),
            self.arch,
            self.variant.key(),
            self.size
        )
    }

    fn key(&self) -> String {
        key(self.size, self.design, self.arch, self.variant)
    }
}

/// `size/design/arch/variant`, as the reference keys a result.
fn key(size: &str, design: NamedDesign, arch: &str, variant: FlowVariant) -> String {
    format!("{size}/{}/{arch}/{}", design.key(), variant.key())
}

fn sizes(scale: Scale) -> &'static [&'static str] {
    match scale {
        Scale::Full => &["tiny", "small"],
        Scale::Smoke => &["tiny"],
    }
}

fn jobs(scale: Scale) -> Vec<Job> {
    let mut out = Vec::new();
    for &size in sizes(scale) {
        for design in NamedDesign::ALL {
            for arch in ["granular", "lut"] {
                for variant in [FlowVariant::A, FlowVariant::B] {
                    out.push(Job {
                        size,
                        design,
                        arch,
                        variant,
                    });
                }
            }
        }
    }
    out
}

/// One round of the stream: a fixed skewed multiset of job indices (the
/// popularity ranking is fixed, so every round and every seed carries the
/// same work) in a seeded order.
fn round(n_jobs: usize, seed: u64, round: u64) -> Vec<usize> {
    let mut ranking: Vec<usize> = (0..n_jobs).collect();
    SplitMix(0x5EED).shuffle(&mut ranking);
    let mut seq = Vec::new();
    for (rank, &job) in ranking.iter().enumerate() {
        seq.extend(std::iter::repeat_n(
            job,
            (HOT_COUNT / (rank + 1).pow(2)).max(1),
        ));
    }
    SplitMix(seed ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03)).shuffle(&mut seq);
    seq
}

/// How the daemon resolved one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    ResultHit,
    FrontHit,
    Miss,
}

/// One client-side observation.
struct Sample {
    job: usize,
    latency_ms: f64,
    front_hit: bool,
    result_hit: bool,
    fingerprint: Option<u64>,
}

impl Sample {
    fn class(&self) -> Class {
        if self.result_hit {
            Class::ResultHit
        } else if self.front_hit {
            Class::FrontHit
        } else {
            Class::Miss
        }
    }
}

/// Sends every request of `seq` from a closed loop of `clients` clients
/// (each sends its next request once the previous reply has ended); a
/// `503` is retried and the retry counted in the request's latency.
fn drive(addr: std::net::SocketAddr, jobs: &[Job], seq: &[usize], clients: usize) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(seq.len()));
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&job) = seq.get(i) else { break };
                let path = jobs[job].path();
                let t = Instant::now();
                let response = loop {
                    match vpga_serve::get(addr, &path) {
                        Ok((503, _)) => std::thread::sleep(Duration::from_millis(10)),
                        other => break other,
                    }
                };
                let latency_ms = 1e3 * t.elapsed().as_secs_f64();
                let body = response.map(|(_, b)| b).unwrap_or_default();
                let flag = |prefix: &str| body.lines().any(|l| l == format!("{prefix} hit=true"));
                let fingerprint = body
                    .lines()
                    .find_map(|l| l.strip_prefix("fingerprint 0x"))
                    .and_then(|hex| u64::from_str_radix(hex.trim(), 16).ok());
                samples
                    .lock()
                    .expect("no client panics while holding the sample list")
                    .push(Sample {
                        job,
                        latency_ms,
                        front_hit: flag("front"),
                        result_hit: flag("result"),
                        fingerprint,
                    });
            });
        }
    });
    samples.into_inner().expect("clients joined")
}

/// A fresh daemon with its cache warmed by one pass over every job.
fn set_up(jobs: &[Job], clients: usize) -> Result<(DaemonHandle, Vec<Sample>), String> {
    let handle = spawn(DaemonConfig {
        listen: "127.0.0.1:0".to_owned(),
        workers: clients,
        queue_depth: 64,
        cache_budget: CACHE_BUDGET,
        checkpoint_dir: None,
        chaos: false,
    })
    .map_err(|e| format!("daemon spawn: {e}"))?;
    let order: Vec<usize> = (0..jobs.len()).collect();
    let warm = drive(handle.addr(), jobs, &order, clients);
    Ok((handle, warm))
}

/// Stops a daemon and reports whether its cache validated after drain.
fn stop(handle: DaemonHandle) -> bool {
    handle.shutdown();
    handle.join().cache_valid
}

/// The (size, design, arch) pairs the jobs cover, with generated sources.
struct Pairs {
    cells: Vec<(&'static str, NamedDesign, Netlist, PlbArchitecture)>,
}

impl Pairs {
    fn generate(scale: Scale) -> Pairs {
        let mut cells = Vec::new();
        for &size in sizes(scale) {
            let params = vpga_bench::params_by_name(size).expect("known size");
            for design in NamedDesign::ALL {
                let netlist = design.generate(&params);
                for arch in [PlbArchitecture::granular(), PlbArchitecture::lut_based()] {
                    cells.push((size, design, netlist.clone(), arch));
                }
            }
        }
        Pairs { cells }
    }

    /// Batch `run_design` of every pair across the executor pool.
    fn run(&self, config: &FlowConfig) -> Vec<Result<DesignOutcome, String>> {
        Executor::new(nproc()).run(self.cells.len(), |i| {
            let (_, _, netlist, arch) = &self.cells[i];
            run_design(netlist, arch, config).map_err(|e| e.to_string())
        })
    }
}

/// The audited reference: a batch `run_design` of every pair with every
/// inter-stage auditor on, keyed like [`Job::key`].
fn reference(scale: Scale) -> Vec<Entry> {
    reference::get(&format!("serve-mixed-{scale:?}"), jobs(scale).len(), || {
        let pairs = Pairs::generate(scale);
        let audited = FlowConfig {
            audit: true,
            ..FlowConfig::default()
        };
        let mut out = Vec::new();
        for ((size, design, _, arch), outcome) in pairs.cells.iter().zip(pairs.run(&audited)) {
            let o = match outcome {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("verification: {e}");
                    continue;
                }
            };
            for r in [&o.flow_a, &o.flow_b] {
                out.push(Entry {
                    key: key(size, *design, arch.name(), r.variant),
                    fingerprint: r.fingerprint(),
                    die_area: r.die_area,
                    wirelength: r.wirelength,
                });
            }
        }
        out
    })
}

fn fingerprints(reference: &[Entry]) -> HashMap<&str, u64> {
    reference
        .iter()
        .map(|e| (e.key.as_str(), e.fingerprint))
        .collect()
}

/// Samples whose fingerprint is missing or differs from the reference.
fn failed(samples: &[Sample], jobs: &[Job], reference: &[Entry]) -> u64 {
    let expected = fingerprints(reference);
    samples
        .iter()
        .filter(|s| {
            s.fingerprint.is_none()
                || s.fingerprint != expected.get(jobs[s.job].key().as_str()).copied()
        })
        .count() as u64
}

struct Stream {
    samples: Vec<Sample>,
    round_walls: Vec<f64>,
}

/// The timed phase: seeded rounds until `seconds` have passed.
fn stream(handle: &DaemonHandle, jobs: &[Job], seed: u64, seconds: f64) -> Stream {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut round_walls = Vec::new();
    for r in 0.. {
        let seq = round(jobs.len(), seed, r);
        let t = Instant::now();
        samples.extend(drive(handle.addr(), jobs, &seq, nproc()));
        round_walls.push(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Stream {
        samples,
        round_walls,
    }
}

/// `key=value` counters from the daemon's `/stats` body.
fn stats_counters(handle: &DaemonHandle) -> HashMap<String, f64> {
    let body = vpga_serve::get(handle.addr(), "/stats")
        .map(|(_, b)| b)
        .unwrap_or_default();
    eprint!("daemon /stats: {body}");
    body.split_whitespace()
        .filter_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_owned(), v.parse().ok()?))
        })
        .collect()
}

pub fn timed(scale: Scale, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let jobs = jobs(scale);
    let clients = nproc();
    let mut setups = Vec::new();
    let mut warm = Vec::new();
    let mut cache_valid = true;
    let mut daemon = None;
    let mut peak = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let (handle, w) = set_up(&jobs, clients)?;
        setups.push(t.elapsed().as_secs_f64());
        // The peak of one daemon that has computed every job once, in a
        // fresh process; later daemons and rounds add only allocator
        // fragmentation.
        peak = peak.or_else(peak_rss_mb);
        warm.extend(w);
        if i + 1 < SETUPS {
            cache_valid &= stop(handle);
        } else {
            daemon = Some(handle);
        }
    }
    let handle = daemon.expect("at least one set-up");
    let s = stream(&handle, &jobs, seed, seconds);
    stats_counters(&handle);
    cache_valid &= stop(handle);

    let reference = reference(scale);
    let warm_failed = failed(&warm, &jobs, &reference);
    let failed = failed(&s.samples, &jobs, &reference);
    let latencies: Vec<f64> = s.samples.iter().map(|x| x.latency_ms).collect();
    let attempted = s.samples.len() as u64;
    eprintln!(
        "seed {seed}: {attempted} requests in {} rounds, {failed} failed or mismatched \
         ({warm_failed} in warm-up); cache valid after drain: {cache_valid}; \
         round walls (s): {:.3?}",
        s.round_walls.len(),
        s.round_walls
    );
    Ok(Outcome {
        correct: failed == 0 && warm_failed == 0 && cache_valid,
        attempted,
        failed,
        phase: Phase::Timed {
            wall_s: median(&s.round_walls).unwrap_or(0.0),
            setup_s: median(&setups).unwrap_or(0.0),
            peak_rss_mb: peak.unwrap_or(0.0),
            job_p50_ms: median(&latencies).unwrap_or(0.0),
            job_p99_ms: percentile(&latencies, 99.0).unwrap_or(0.0),
            die_area_um2: reference.iter().map(|e| e.die_area).sum(),
            wirelength_mm: reference.iter().map(|e| e.wirelength / 1000.0).sum(),
            samples: s.round_walls.len(),
            job_samples: latencies.len(),
        },
    })
}

pub fn traced(scale: Scale, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let jobs = jobs(scale);
    let reference = reference(scale);
    let pairs = Pairs::generate(scale);

    let config = FlowConfig::default();
    let t = Instant::now();
    let production = pairs.run(&config);
    let production_wall = t.elapsed();

    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    // A batch result counts as done when it matches the reference and the
    // replay matches it.
    let expected = fingerprints(&reference);
    let (mut matched, mut ok) = (0u64, 0u64);
    let mut replayed = Vec::new();
    let t = Instant::now();
    for ((size, design, netlist, arch), prod) in pairs.cells.iter().zip(&production) {
        let pair = replay_pair(&mut rec, &mut counts, netlist, arch, &config)?;
        if let Ok(prod) = prod {
            for r in [&prod.flow_a, &prod.flow_b] {
                let same = reproduces(&pair, prod.gates_nand2, r);
                let k = key(size, *design, arch.name(), r.variant);
                matched += u64::from(same);
                ok += u64::from(same && expected.get(k.as_str()) == Some(&r.fingerprint()));
            }
        }
        replayed.push(pair);
    }
    let replay_wall = t.elapsed();
    let q = Sums::of(replayed.iter().flat_map(|p| [&p.a, &p.b]));

    let (handle, warm) = set_up(&jobs, nproc())?;
    let s = stream(&handle, &jobs, seed, seconds);
    let stats = stats_counters(&handle);
    let cache_valid = stop(handle);
    let served_failed = failed(&s.samples, &jobs, &reference) + failed(&warm, &jobs, &reference);
    let attempted = s.samples.len() as u64 + 2 * pairs.cells.len() as u64;
    let failed = served_failed + 2 * pairs.cells.len() as u64 - ok;
    let n = s.samples.len() as f64;
    let count = |hit: fn(&Sample) -> bool| s.samples.iter().filter(|x| hit(x)).count() as f64;
    let p50 = |c: Class| {
        let v: Vec<f64> = s
            .samples
            .iter()
            .filter(|x| x.class() == c)
            .map(|x| x.latency_ms)
            .collect();
        median(&v).unwrap_or(0.0)
    };
    let stat = |k: &str| stats.get(k).copied().unwrap_or(0.0);
    eprintln!(
        "replay matched {matched}/{} batch results to the bit; {} requests served",
        2 * pairs.cells.len(),
        s.samples.len()
    );
    Ok(Outcome {
        correct: failed == 0 && cache_valid,
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
            serve: Some(ServeOutput {
                front_hit_ratio: ratio(count(|x| x.front_hit), n),
                result_hit_ratio: ratio(count(|x| x.result_hit), n),
                evicted: stat("evicted"),
                inflight_waits: stat("waits"),
                invalid: stat("invalid"),
                p50_result_hit_ms: p50(Class::ResultHit),
                p50_front_hit_ms: p50(Class::FrontHit),
                p50_miss_ms: p50(Class::Miss),
                rejected_503: stat("rejected"),
            }),
        })),
    })
}
