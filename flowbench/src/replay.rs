//! The traced replay: one (design, architecture) pair at a time, the
//! layers' public functions called in flow order with the seeds, weights
//! and gates of the production stages, a span recorded around every call
//! and the counts each call returns summed per layer.
//!
//! The replay runs serially on the calling thread. Its results are
//! compared to the bit with the production flow's, so a replay that drifts
//! from the stages it mirrors shows as a failed operation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use vpga_core::PlbArchitecture;
use vpga_flow::{FlowConfig, FlowResult, FlowVariant};
use vpga_netlist::library::generic;
use vpga_netlist::stats::NetlistStats;
use vpga_netlist::{CellId, Netlist};
use vpga_pack::{PackConfig, SwapConfig};
use vpga_place::{PlaceConfig, Placement};
use vpga_route::RouteConfig;
use vpga_timing::power::PowerConfig;
use vpga_timing::IncrementalSta;

/// One timed call: its name (`layer.call`), the pair it served, the span
/// that caused it, and its interval from the recorder's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub cell: String,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Spans kept in memory until the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, cell: &str) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            cell: cell.to_owned(),
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, cell: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, cell);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-layer work counts, summed over every replayed pair.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub synth_cells_out: u64,
    pub compact_cells_removed: u64,
    pub place_moves: u64,
    pub place_accepted: u64,
    pub place_temperature_steps: u64,
    pub place_bbox_full: u64,
    pub place_bbox_incremental: u64,
    pub physsynth_buffers: u64,
    pub physsynth_moves: u64,
    pub sta_full: u64,
    pub sta_incremental: u64,
    pub sta_nodes_touched: u64,
    pub pack_passes: u64,
    pub pack_relocations: u64,
    pub pack_spilled: u64,
    pub pack_regions_reused: u64,
    pub pack_regions_repartitioned: u64,
    pub swap_moves: u64,
    pub swap_accepted: u64,
    pub swap_bbox_rescans: u64,
    pub route_iterations: u64,
    pub route_reroutes: u64,
    pub route_nets_routed: u64,
    pub route_max_edge_load: u64,
}

/// The deterministic fields of one variant result — every metric of
/// [`FlowResult`], without the stage records.
#[derive(Clone, Debug)]
pub struct Quality {
    pub die_area: f64,
    pub avg_top10_slack: f64,
    pub worst_slack: f64,
    pub critical_delay: f64,
    pub wirelength: f64,
    pub power_mw: f64,
    pub cells: usize,
    pub array: Option<(usize, usize, usize)>,
    pub route_overflow: usize,
}

impl Quality {
    pub fn of(r: &FlowResult) -> Quality {
        Quality {
            die_area: r.die_area,
            avg_top10_slack: r.avg_top10_slack,
            worst_slack: r.worst_slack,
            critical_delay: r.critical_delay,
            wirelength: r.wirelength,
            power_mw: r.power_mw,
            cells: r.cells,
            array: r.array,
            route_overflow: r.route_overflow,
        }
    }

    /// An FNV-1a digest over every field, floats to the bit.
    pub fn digest(&self) -> u64 {
        let (c, r, u) = self.array.unwrap_or((0, 0, 0));
        let fields = [
            self.die_area.to_bits(),
            self.avg_top10_slack.to_bits(),
            self.worst_slack.to_bits(),
            self.critical_delay.to_bits(),
            self.wirelength.to_bits(),
            self.power_mw.to_bits(),
            self.cells as u64,
            c as u64,
            r as u64,
            u as u64,
            self.route_overflow as u64,
        ];
        fields.iter().fold(0xcbf2_9ce4_8422_2325, |h, &v| {
            (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

/// Result-quality totals over a set of variant results.
pub struct Sums {
    /// Results whose route ended with overflowed edges (illegal).
    pub illegal: u64,
    pub overflow_edges: f64,
    pub die_area_um2: f64,
    /// Mean of the per-result top-10 slack.
    pub top10_slack_ps: f64,
    pub wirelength_mm: f64,
}

impl Sums {
    /// Sums in iteration order, so equal inputs give equal bits.
    pub fn of<'a>(results: impl IntoIterator<Item = &'a Quality>) -> Sums {
        let mut s = Sums {
            illegal: 0,
            overflow_edges: 0.0,
            die_area_um2: 0.0,
            top10_slack_ps: 0.0,
            wirelength_mm: 0.0,
        };
        let mut n = 0usize;
        for r in results {
            n += 1;
            s.illegal += u64::from(r.route_overflow > 0);
            s.overflow_edges += r.route_overflow as f64;
            s.die_area_um2 += r.die_area;
            s.top10_slack_ps += r.avg_top10_slack;
            s.wirelength_mm += r.wirelength / 1000.0;
        }
        s.top10_slack_ps /= n.max(1) as f64;
        s
    }
}

/// One replayed pair: the front-end's gate count and both variants.
pub struct PairReplay {
    pub gates_nand2: f64,
    pub a: Quality,
    pub b: Quality,
}

/// Renders a layer's error for the run report.
fn fail(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn lib_cells(netlist: &Netlist) -> usize {
    netlist
        .cells()
        .filter(|(_, c)| c.lib_id().is_some())
        .count()
}

/// Cells whose position differs (bitwise) between two placements — the
/// delta the incremental timer is handed after a refinement pass.
fn moved_cells(netlist: &Netlist, before: &Placement, after: &Placement) -> Vec<CellId> {
    netlist
        .cells()
        .filter(|&(id, _)| match (before.position(id), after.position(id)) {
            (Some((ax, ay)), Some((bx, by))) => {
                ax.to_bits() != bx.to_bits() || ay.to_bits() != by.to_bits()
            }
            (None, None) => false,
            _ => true,
        })
        .map(|(id, _)| id)
        .collect()
}

/// Criticality-weighted net weights, as the placement and swap stages
/// derive them.
fn net_weights(crit: &[f64]) -> Vec<f64> {
    crit.iter().map(|&c| 1.0 + 8.0 * c * c).collect()
}

/// Replays the whole flow for `design` on `arch` (first attempt of every
/// stochastic stage, compaction as configured).
pub fn replay_pair(
    rec: &mut Recorder,
    counts: &mut Counts,
    design: &Netlist,
    arch: &PlbArchitecture,
    config: &FlowConfig,
) -> Result<PairReplay, String> {
    let cell = format!("{}/{}", design.name(), arch.name());
    let pair = rec.open("pair", &cell);
    let lib = arch.library();

    let (gates_nand2, mut netlist) = rec.time("synth.map", &cell, || {
        let src = generic::library();
        let gates = NetlistStats::compute(design, &src).nand2_equivalent(generic::NAND2_AREA);
        vpga_synth::map_netlist_fast(design, &src, arch)
            .map(|n| (gates, n))
            .map_err(fail)
    })?;
    counts.synth_cells_out += lib_cells(&netlist) as u64;

    if config.compaction {
        let report = rec.time("compact.run", &cell, || {
            vpga_compact::compact(&mut netlist, arch).map_err(fail)
        })?;
        counts.compact_cells_removed +=
            report.cells_before.saturating_sub(report.cells_after) as u64;
    }

    // Placement: wirelength-driven anneal, then one criticality-weighted
    // refinement fed to the incremental timer.
    let seeded = PlaceConfig {
        seed: config.place.seed,
        ..config.place.clone()
    };
    let (mut placement, anneal) = rec.time("place.anneal", &cell, || {
        vpga_place::try_place_with_stats(&netlist, lib, &seeded).map_err(fail)
    })?;
    let mut sta = rec.time("sta.build", &cell, || {
        IncrementalSta::new(&netlist, lib, &config.timing).map_err(fail)
    })?;
    let weights = rec.time("sta.full", &cell, || {
        sta.full_analyze(&netlist, &placement, None);
        let mut crit = Vec::new();
        sta.net_criticalities_into(&mut crit);
        net_weights(&crit)
    });
    let weighted = PlaceConfig {
        net_weights: Some(weights),
        ..seeded.clone()
    };
    let (refine, before) = rec.time("place.refine", &cell, || {
        let before = placement.clone();
        vpga_place::try_refine_with_stats(&netlist, lib, &mut placement, &weighted, 0.6)
            .map(|s| (s, before))
            .map_err(fail)
    })?;
    rec.time("sta.update", &cell, || {
        let moved = moved_cells(&netlist, &before, &placement);
        sta.update_moved_cells(&netlist, &placement, None, &moved);
    });
    counts.place_moves += anneal.moves_attempted + refine.moves_attempted;
    counts.place_accepted += anneal.moves_accepted + refine.moves_accepted;
    counts.place_temperature_steps +=
        u64::from(anneal.temperature_steps) + u64::from(refine.temperature_steps);
    counts.place_bbox_full += anneal.bbox_full + refine.bbox_full;
    counts.place_bbox_incremental += anneal.bbox_incremental + refine.bbox_incremental;

    // Physical synthesis: buffers replayed into the timer, then the
    // legalizing refinement.
    let max_len = placement.die().width() * config.buffer_max_length_frac;
    let (buffers, edits) = rec.time("physsynth.buffers", &cell, || {
        vpga_place::insert_buffers_traced(
            &mut netlist,
            lib,
            &mut placement,
            config.buffer_max_fanout,
            max_len,
        )
        .map_err(fail)
    })?;
    rec.time("sta.apply_buffers", &cell, || {
        sta.apply_buffers(&netlist, lib, &placement, None, &edits);
    });
    let (legalize, before) = rec.time("physsynth.refine", &cell, || {
        let before = placement.clone();
        vpga_place::try_refine_with_stats(&netlist, lib, &mut placement, &weighted, 0.2)
            .map(|s| (s, before))
            .map_err(fail)
    })?;
    rec.time("sta.update", &cell, || {
        let moved = moved_cells(&netlist, &before, &placement);
        sta.update_moved_cells(&netlist, &placement, None, &moved);
    });
    counts.physsynth_buffers += (buffers.fanout_buffers + buffers.length_buffers) as u64;
    counts.physsynth_moves += legalize.moves_attempted;
    let front_sta = sta.counters();
    counts.sta_full += front_sta.full;
    counts.sta_incremental += front_sta.incremental;
    counts.sta_nodes_touched += front_sta.nodes_touched;
    let cells = lib_cells(&netlist);

    // Flow a: route and time the front-end placement.
    let a = {
        let routing = rec.time("route.a", &cell, || {
            vpga_route::try_route(&netlist, lib, &placement, &config.route).map_err(fail)
        })?;
        count_route(counts, &routing);
        let report = rec.time("sta.post_route", &cell, || {
            sta.graph()
                .analyze(&netlist, &placement, Some(&routing), &config.timing)
        });
        let power_mw = rec.time("sta.power", &cell, || {
            power_mw(&netlist, arch, &placement, &routing)
        });
        counts.sta_full += 1;
        Quality {
            die_area: placement.die().area(),
            avg_top10_slack: report.avg_top_slack(10),
            worst_slack: report.worst_slack(),
            critical_delay: report.critical_delay(),
            wirelength: routing.total_length(),
            power_mw,
            cells,
            array: None,
            route_overflow: routing.overflow_edges(),
        }
    };

    // Flow b: pack, swap, then route and time the packed copy.
    let b = {
        let pack_cfg = rec.time("sta.report", &cell, || PackConfig {
            criticality: config
                .pack_criticality
                .then(|| sta.report(&netlist).cell_criticalities(&netlist)),
            ..config.pack.clone()
        });
        counts.sta_incremental += 1;
        let (mut b_placement, mut array, pack) = rec.time("pack.iterate", &cell, || {
            let mut b_placement = placement.clone();
            vpga_pack::pack_iterative_with_stats(
                &netlist,
                arch,
                &mut b_placement,
                &seeded,
                &pack_cfg,
            )
            .map(|(array, stats)| (b_placement, array, stats))
            .map_err(fail)
        })?;
        counts.pack_passes += u64::from(pack.passes);
        counts.pack_relocations += pack.relocations;
        counts.pack_spilled += pack.spilled;
        counts.pack_regions_reused += pack.regions_reused;
        counts.pack_regions_repartitioned += pack.subtrees_repartitioned;

        let crit = rec.time("sta.report", &cell, || {
            sta.report(&netlist).net_criticalities()
        });
        let (_, swap) = rec.time("swap.anneal", &cell, || {
            let swap_cfg = SwapConfig {
                net_weights: Some(net_weights(&crit)),
                delta_cost: fat_nets(&netlist, &b_placement, config.buffer_max_fanout),
                ..SwapConfig::default()
            };
            vpga_pack::swap_optimize_with_stats(&mut array, &netlist, &mut b_placement, &swap_cfg)
        });
        counts.swap_moves += swap.moves_attempted;
        counts.swap_accepted += swap.moves_accepted;
        counts.swap_bbox_rescans += swap.bbox_rescans;

        let route_cfg = RouteConfig {
            tile_size: Some(array.plb_pitch()),
            ..config.route.clone()
        };
        let routing = rec.time("route.b", &cell, || {
            vpga_route::try_route(&netlist, lib, &b_placement, &route_cfg).map_err(fail)
        })?;
        count_route(counts, &routing);
        let report = rec.time("sta.post_route", &cell, || {
            sta.graph()
                .analyze(&netlist, &b_placement, Some(&routing), &config.timing)
        });
        let power_mw = rec.time("sta.power", &cell, || {
            power_mw(&netlist, arch, &b_placement, &routing)
        });
        counts.sta_full += 1;
        Quality {
            die_area: array.die_area(),
            avg_top10_slack: report.avg_top_slack(10),
            worst_slack: report.worst_slack(),
            critical_delay: report.critical_delay(),
            wirelength: routing.total_length(),
            power_mw,
            cells,
            array: Some((array.cols(), array.rows(), array.plbs_used())),
            route_overflow: routing.overflow_edges(),
        }
    };
    rec.close(pair);
    Ok(PairReplay { gates_nand2, a, b })
}

fn power_mw(
    netlist: &Netlist,
    arch: &PlbArchitecture,
    placement: &Placement,
    routing: &vpga_route::RoutingResult,
) -> f64 {
    let report = vpga_timing::power::estimate(
        netlist,
        arch.library(),
        placement,
        Some(routing),
        &PowerConfig::default(),
    );
    report.total() * 1e3
}

fn count_route(counts: &mut Counts, routing: &vpga_route::RoutingResult) {
    counts.route_iterations += routing.iterations_used() as u64;
    counts.route_reroutes += routing.total_reroutes() as u64;
    counts.route_nets_routed += routing.nets_routed() as u64;
    counts.route_max_edge_load = counts
        .route_max_edge_load
        .max(u64::from(routing.max_edge_load()));
}

/// The swap stage's engine gate: the delta-cost engine only when the
/// occupancy-weighted mean net occupancy Σocc²/Σocc exceeds twice the
/// buffer fanout cap.
fn fat_nets(netlist: &Netlist, placement: &Placement, max_fanout: usize) -> bool {
    let (mut occ_sum, mut occ_sq) = (0u64, 0u64);
    for n in netlist.nets() {
        let Some(driver) = netlist.driver(n) else {
            continue;
        };
        let mut occ = u64::from(placement.position(driver).is_some());
        for &(sink, _) in netlist.sinks(n) {
            occ += u64::from(placement.position(sink).is_some());
        }
        if occ >= 2 {
            occ_sum += occ;
            occ_sq += occ * occ;
        }
    }
    occ_sq > 2 * max_fanout as u64 * occ_sum
}

/// What the recorded spans say about where the replay's time went.
pub struct Breakdown {
    /// Self time per layer (span time minus the part its children cover).
    pub self_time: BTreeMap<&'static str, Duration>,
    /// Total span time per span name.
    pub by_name: BTreeMap<&'static str, Duration>,
    /// Wall of the whole replay.
    pub wall: Duration,
    /// Share of `wall` covered by layer spans (spans nested in a pair).
    pub coverage: f64,
}

pub fn breakdown(spans: &[Span], wall: Duration) -> Breakdown {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.duration();
        }
    }
    let mut self_time = BTreeMap::new();
    let mut by_name = BTreeMap::new();
    let mut covered = Duration::ZERO;
    for (i, s) in spans.iter().enumerate() {
        *self_time.entry(s.layer()).or_insert(Duration::ZERO) +=
            s.duration().saturating_sub(child_time[i]);
        *by_name.entry(s.name).or_insert(Duration::ZERO) += s.duration();
        if s.parent.is_some_and(|p| spans[p].name == "pair") {
            covered += s.duration();
        }
    }
    Breakdown {
        self_time,
        by_name,
        wall,
        coverage: covered.as_secs_f64() / wall.as_secs_f64().max(f64::MIN_POSITIVE),
    }
}

impl Breakdown {
    /// Summed span time of every span whose name starts with `prefix`.
    pub fn busy(&self, prefix: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|(name, _)| {
                name.strip_prefix(prefix)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
            })
            .map(|(_, d)| d.as_secs_f64())
            .sum()
    }

    /// The layer table: self time and share of the replay wall.
    pub fn render(&self) -> String {
        let wall = self.wall.as_secs_f64();
        let mut rows: Vec<_> = self.self_time.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1));
        let mut s = String::from("layer       self_s   share\n");
        for (layer, d) in rows {
            let _ = writeln!(
                s,
                "{layer:<10} {:>7.3}  {:>5.1} %",
                d.as_secs_f64(),
                100.0 * d.as_secs_f64() / wall
            );
        }
        let _ = writeln!(
            s,
            "replay wall {wall:.3} s, layer spans cover {:.1} %",
            100.0 * self.coverage
        );
        s
    }
}

/// The spans as JSON lines (`name`, `cell`, `parent`, `start_us`,
/// `end_us`), one per span.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut s = String::new();
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            s,
            "{{\"id\": {i}, \"name\": \"{}\", \"cell\": \"{}\", \"parent\": {parent}, \
             \"start_us\": {}, \"end_us\": {}}}",
            sp.name,
            sp.cell,
            sp.start.as_micros(),
            sp.end.as_micros()
        );
    }
    s
}

/// Whether `pair` reproduces variant result `r` of a production pair
/// whose source counted `gates_nand2` gates, to the bit.
pub fn reproduces(pair: &PairReplay, gates_nand2: f64, r: &FlowResult) -> bool {
    let replayed = match r.variant {
        FlowVariant::A => &pair.a,
        FlowVariant::B => &pair.b,
    };
    pair.gates_nand2.to_bits() == gates_nand2.to_bits()
        && Quality::of(r).digest() == replayed.digest()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            cell: "x/y".to_owned(),
            parent,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_layer_spans() {
        let spans = [
            span("pair", None, 0, 100),
            span("place.anneal", Some(0), 0, 60),
            span("route.a", Some(0), 60, 90),
        ];
        let b = breakdown(&spans, Duration::from_millis(100));
        assert_eq!(b.self_time["pair"], Duration::from_millis(10));
        assert_eq!(b.self_time["place"], Duration::from_millis(60));
        assert!((b.coverage - 0.9).abs() < 1e-12);
        assert!((b.busy("route") - 0.030).abs() < 1e-12);
        assert!((b.busy("route.a") - 0.030).abs() < 1e-12);
        assert_eq!(b.busy("rout"), 0.0);
    }

    #[test]
    fn recorder_nests_spans() {
        let mut rec = Recorder::new();
        let outer = rec.open("pair", "c");
        let v = rec.time("synth.map", "c", || 7);
        rec.close(outer);
        assert_eq!(v, 7);
        assert_eq!(rec.spans()[1].parent, Some(outer));
        assert!(rec.spans()[0].end >= rec.spans()[1].end);
        assert_eq!(rec.spans()[1].layer(), "synth");
    }
}
