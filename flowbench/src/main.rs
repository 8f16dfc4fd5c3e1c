//! `flowbench` — the end-to-end and per-layer benchmark of the VPGA flow.
//!
//! ```text
//! flowbench --workload <medium-matrix|switch-congested|serve-mixed>
//!           --seed N --seconds S --trace <0|1>
//! flowbench --machine
//! ```
//!
//! `--trace 0` is the timed run: it measures the workload for `--seconds`
//! with no tracing, checks every result against an audited reference and
//! prints the end-to-end metrics. `--trace 1` is the separate traced run:
//! the same reference check, one production pass, then a serial replay of
//! the layers' public functions with a span around every call, printing
//! the per-layer metrics. Either way the last line of standard output is
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`); the
//! human-readable report goes to standard error. `--machine` prints the
//! host description recorded beside the baselines.

mod batch;
mod reference;
mod replay;
mod report;
mod serve;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{median, ratio, valid_name, Metric};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    MediumMatrix,
    SwitchCongested,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::MediumMatrix,
        Workload::SwitchCongested,
        Workload::ServeMixed,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::MediumMatrix => "medium-matrix",
            Workload::SwitchCongested => "switch-congested",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Design sizes: the workloads as defined, or `tiny` everywhere for the
/// smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Worker threads and clients: one per available CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// SplitMix64: a small seeded generator for job and request orders.
pub struct SplitMix(pub u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Cache and daemon figures of a traced `serve-mixed` run.
pub struct ServeOutput {
    pub front_hit_ratio: f64,
    pub result_hit_ratio: f64,
    pub evicted: f64,
    pub inflight_waits: f64,
    pub invalid: f64,
    pub p50_result_hit_ms: f64,
    pub p50_front_hit_ms: f64,
    pub p50_miss_ms: f64,
    pub rejected_503: f64,
}

/// What a traced run recorded.
pub struct TraceOutput {
    pub spans: Vec<replay::Span>,
    pub counts: replay::Counts,
    pub replay_wall: Duration,
    pub production_wall: Duration,
    pub matched: u64,
    pub fail_ratio: f64,
    pub overflow_edges: f64,
    pub top10_slack_ps: f64,
    pub serve: Option<ServeOutput>,
}

/// The measured phase of a run.
pub enum Phase {
    Timed {
        wall_s: f64,
        setup_s: f64,
        peak_rss_mb: f64,
        job_p50_ms: f64,
        job_p99_ms: f64,
        die_area_um2: f64,
        wirelength_mm: f64,
        /// Timed repetitions behind `wall_s`.
        samples: usize,
        /// Job latencies behind the percentiles.
        job_samples: usize,
    },
    Traced(Box<TraceOutput>),
}

/// One run's verdict and measurements.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub phase: Phase,
}

fn run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let spec = match workload {
        Workload::MediumMatrix => batch::BatchSpec::medium_matrix(scale),
        Workload::SwitchCongested => batch::BatchSpec::switch_congested(scale),
        Workload::ServeMixed if trace => return serve::traced(scale, seed, seconds),
        Workload::ServeMixed => return serve::timed(scale, seed, seconds),
    };
    if trace {
        batch::traced(&spec, seed)
    } else {
        Ok(batch::timed(&spec, seed, seconds))
    }
}

/// The metrics a run prints: every end-to-end metric for a timed run,
/// every per-layer metric for a traced one.
fn metrics(phase: &Phase) -> Vec<Metric> {
    match phase {
        Phase::Timed {
            wall_s,
            setup_s,
            peak_rss_mb,
            job_p50_ms,
            job_p99_ms,
            die_area_um2,
            wirelength_mm,
            ..
        } => vec![
            Metric::new("wall_s", "s", *wall_s),
            Metric::new("setup_s", "s", *setup_s),
            Metric::new("peak_rss_mb", "MB", *peak_rss_mb),
            Metric::new("job_p50_ms", "ms", *job_p50_ms),
            Metric::new("job_p99_ms", "ms", *job_p99_ms),
            Metric::new("die_area_um2", "um2", *die_area_um2),
            Metric::new("wirelength_mm", "mm", *wirelength_mm),
        ],
        Phase::Traced(t) => trace_metrics(t),
    }
}

fn trace_metrics(t: &TraceOutput) -> Vec<Metric> {
    let b = replay::breakdown(&t.spans, t.replay_wall);
    let c = &t.counts;
    let n = |v: u64| v as f64;
    let mut m = vec![
        Metric::new("synth.busy_s", "s", b.busy("synth")),
        Metric::new("synth.cells_out", "count", n(c.synth_cells_out)),
        Metric::new("compact.busy_s", "s", b.busy("compact")),
        Metric::new("compact.cells_removed", "count", n(c.compact_cells_removed)),
        Metric::new("place.busy_s", "s", b.busy("place")),
        Metric::new("place.moves", "count", n(c.place_moves)),
        Metric::new(
            "place.accept_ratio",
            "ratio",
            ratio(n(c.place_accepted), n(c.place_moves)),
        ),
        Metric::new(
            "place.temperature_steps",
            "count",
            n(c.place_temperature_steps),
        ),
        Metric::new("place.bbox_full", "count", n(c.place_bbox_full)),
        Metric::new(
            "place.bbox_incremental",
            "count",
            n(c.place_bbox_incremental),
        ),
        Metric::new("physsynth.busy_s", "s", b.busy("physsynth")),
        Metric::new("physsynth.buffers", "count", n(c.physsynth_buffers)),
        Metric::new("physsynth.moves", "count", n(c.physsynth_moves)),
        Metric::new("sta.busy_s", "s", b.busy("sta")),
        Metric::new("sta.full", "count", n(c.sta_full)),
        Metric::new("sta.incremental", "count", n(c.sta_incremental)),
        Metric::new("sta.nodes_touched", "count", n(c.sta_nodes_touched)),
        Metric::new("pack.busy_s", "s", b.busy("pack")),
        Metric::new("pack.passes", "count", n(c.pack_passes)),
        Metric::new("pack.relocations", "count", n(c.pack_relocations)),
        Metric::new("pack.spilled", "count", n(c.pack_spilled)),
        Metric::new(
            "pack.reuse_ratio",
            "ratio",
            ratio(
                n(c.pack_regions_reused),
                n(c.pack_regions_reused + c.pack_regions_repartitioned),
            ),
        ),
        Metric::new("swap.busy_s", "s", b.busy("swap")),
        Metric::new("swap.moves", "count", n(c.swap_moves)),
        Metric::new(
            "swap.accept_ratio",
            "ratio",
            ratio(n(c.swap_accepted), n(c.swap_moves)),
        ),
        Metric::new("swap.bbox_rescans", "count", n(c.swap_bbox_rescans)),
        Metric::new("route.a.busy_s", "s", b.busy("route.a")),
        Metric::new("route.b.busy_s", "s", b.busy("route.b")),
        Metric::new("route.iterations", "count", n(c.route_iterations)),
        Metric::new("route.reroutes", "count", n(c.route_reroutes)),
        Metric::new("route.nets_routed", "count", n(c.route_nets_routed)),
        Metric::new(
            "route.useful_ratio",
            "ratio",
            ratio(n(c.route_nets_routed), n(c.route_reroutes)),
        ),
        Metric::new("route.max_edge_load", "count", n(c.route_max_edge_load)),
        Metric::new("overflow_edges", "count", t.overflow_edges),
        Metric::new("fail_ratio", "ratio", t.fail_ratio),
        Metric::new("top10_slack_ps", "ps", t.top10_slack_ps),
        Metric::new(
            "exec.speedup",
            "x",
            ratio(t.replay_wall.as_secs_f64(), t.production_wall.as_secs_f64()),
        ),
        Metric::new("trace.coverage", "ratio", b.coverage),
        Metric::new("trace.replay_matched", "count", n(t.matched)),
    ];
    let s = t.serve.as_ref();
    let serve = |f: fn(&ServeOutput) -> f64| s.map_or(0.0, f);
    m.extend([
        Metric::new(
            "cache.front_hit_ratio",
            "ratio",
            serve(|s| s.front_hit_ratio),
        ),
        Metric::new(
            "cache.result_hit_ratio",
            "ratio",
            serve(|s| s.result_hit_ratio),
        ),
        Metric::new("cache.evicted", "count", serve(|s| s.evicted)),
        Metric::new("cache.inflight_waits", "count", serve(|s| s.inflight_waits)),
        Metric::new("cache.invalid", "count", serve(|s| s.invalid)),
        Metric::new(
            "serve.p50_ms.result_hit",
            "ms",
            serve(|s| s.p50_result_hit_ms),
        ),
        Metric::new(
            "serve.p50_ms.front_hit",
            "ms",
            serve(|s| s.p50_front_hit_ms),
        ),
        Metric::new("serve.p50_ms.miss", "ms", serve(|s| s.p50_miss_ms)),
        Metric::new("serve.rejected_503", "count", serve(|s| s.rejected_503)),
    ]);
    m
}

/// Writes the spans as JSON lines under `.flowbench/` in the working
/// directory; a failure to write is reported, never fatal.
fn write_spans(workload: Workload, seed: u64, spans: &[replay::Span]) {
    let dir = std::path::Path::new(".flowbench");
    let path = dir.join(format!("trace-{}-seed{seed}.jsonl", workload.name()));
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, replay::spans_jsonl(spans)))
    {
        Ok(()) => eprintln!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: flowbench --workload <medium-matrix|switch-congested|serve-mixed> \
                     --seed N --seconds S --trace <0|1>\n       flowbench --machine";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0|1)")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--machine"] {
        print!("{}", machine());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "{} (seed {}, {} s, trace {}) on {} CPU(s)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    let outcome = match run(
        args.workload,
        Scale::Full,
        args.seed,
        args.seconds,
        args.trace,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    match &outcome.phase {
        Phase::Timed {
            samples,
            job_samples,
            ..
        } => eprintln!("{samples} timed repetition(s), {job_samples} job latencies"),
        Phase::Traced(t) => {
            eprint!("{}", replay::breakdown(&t.spans, t.replay_wall).render());
            write_spans(args.workload, args.seed, &t.spans);
        }
    }
    let metrics = metrics(&outcome.phase);
    for m in &metrics {
        eprintln!("{:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(bad) = metrics
        .iter()
        .find(|m| !m.value.is_finite() || !valid_name(m.name))
    {
        eprintln!(
            "error: metric {} = {} cannot be reported",
            bad.name, bad.value
        );
        return ExitCode::from(1);
    }
    println!(
        "{}",
        report::result_json(outcome.correct, outcome.attempted, outcome.failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// The host: CPU count and model, compiler, and the two-core efficiency —
/// the throughput of each of two concurrent copies of a fixed CPU-bound
/// loop, as a share of one copy running alone.
fn machine() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned());
    let spin = || {
        let t = Instant::now();
        let mut x = 0x1234_5678_u64;
        for _ in 0..400_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        t.elapsed().as_secs_f64()
    };
    let solo: Vec<f64> = (0..3).map(|_| spin()).collect();
    let pair: Vec<f64> = (0..3)
        .flat_map(|_| {
            std::thread::scope(|s| {
                let a = s.spawn(spin);
                let b = s.spawn(spin);
                [a.join().expect("spin"), b.join().expect("spin")]
            })
        })
        .collect();
    let solo = median(&solo).expect("three runs");
    let pair = median(&pair).expect("six runs");
    format!(
        "nproc {}\ncpu {model}\nrustc {rustc}\ntwo_core_efficiency {:.3} (solo {solo:.3} s, each of two {pair:.3} s)\n",
        nproc(),
        solo / pair
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const END_TO_END: [(&str, &str); 7] = [
        ("wall_s", "s"),
        ("setup_s", "s"),
        ("peak_rss_mb", "MB"),
        ("job_p50_ms", "ms"),
        ("job_p99_ms", "ms"),
        ("die_area_um2", "um2"),
        ("wirelength_mm", "mm"),
    ];

    fn smoke(workload: Workload, trace: bool) -> Vec<Metric> {
        let outcome = run(workload, Scale::Smoke, 6, 0.2, trace)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert!(
            outcome.correct,
            "{}: results disagree with the reference",
            workload.name()
        );
        assert!(outcome.attempted >= 1);
        assert_eq!(outcome.failed, 0);
        if let Phase::Traced(t) = &outcome.phase {
            assert!(t.matched > 0, "the replay matched production results");
        }
        let m = metrics(&outcome.phase);
        let line = report::result_json(outcome.correct, outcome.attempted, outcome.failed, &m);
        for metric in &m {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(!metric.unit.is_empty(), "{} has no unit", metric.name);
            assert!(
                metric.value.is_finite(),
                "{} = {}",
                metric.name,
                metric.value
            );
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", metric.name)));
        }
        m
    }

    fn assert_end_to_end(m: &[Metric]) {
        let got: Vec<(&str, &str)> = m.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(got, END_TO_END);
        for metric in m {
            assert!(metric.value > 0.0, "{} = {}", metric.name, metric.value);
        }
    }

    #[test]
    fn every_workload_prints_the_full_metric_sets() {
        let mut per_layer = None;
        for w in Workload::ALL {
            assert_end_to_end(&smoke(w, false));
            let names: Vec<&str> = smoke(w, true).iter().map(|m| m.name).collect();
            assert_eq!(*per_layer.get_or_insert_with(|| names.clone()), names);
        }
    }

    /// `(name, unit)` of every metric in one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.lines()
            .filter_map(|l| {
                let name = l.split("\"name\": \"").nth(1)?.split('"').next()?;
                let unit = l.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name.to_owned(), unit.to_owned()))
            })
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        let own = |m: Vec<Metric>| -> Vec<(String, String)> {
            m.into_iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                .collect()
        };
        let timed = Phase::Timed {
            wall_s: 1.0,
            setup_s: 1.0,
            peak_rss_mb: 1.0,
            job_p50_ms: 1.0,
            job_p99_ms: 1.0,
            die_area_um2: 1.0,
            wirelength_mm: 1.0,
            samples: 1,
            job_samples: 1,
        };
        assert_eq!(own(metrics(&timed)), declared("end_to_end"));
        let traced = Phase::Traced(Box::new(TraceOutput {
            spans: Vec::new(),
            counts: replay::Counts::default(),
            replay_wall: Duration::from_secs(1),
            production_wall: Duration::from_secs(1),
            matched: 0,
            fail_ratio: 0.0,
            overflow_edges: 0.0,
            top10_slack_ps: 0.0,
            serve: None,
        }));
        assert_eq!(own(metrics(&traced)), declared("per_layer"));
    }

    #[test]
    fn arguments_are_strict() {
        let a = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_args(&a("--workload serve-mixed --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(ok.workload, Workload::ServeMixed);
        assert!(ok.trace);
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload medium-matrix --seed 1 --seconds 0 --trace 0",
            "--workload medium-matrix --seed 1 --seconds 1 --trace 2",
            "--workload medium-matrix --seed 1 --seconds 1",
            "--workload medium-matrix --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&a(bad)).is_err(), "{bad}");
        }
    }
}
