//! VPR-style simulated-annealing placement.
//!
//! Cost is criticality-weighted half-perimeter wirelength. The annealer
//! follows the classic adaptive schedule: the initial temperature is set
//! from the cost spread of random perturbations, the window (range limit)
//! tracks a target acceptance rate, and the temperature decay factor
//! depends on the current acceptance rate.
//!
//! The inner loop is incremental: every net carries a cached bounding box
//! with per-boundary pin counts (split into [`BoxExt`]/[`BoxCnt`] SoA
//! arrays), so evaluating a move is O(1) per affected net — a full pin
//! rescan happens only when a move removes the last pin from a box
//! boundary (the box may shrink, so the exact extent must be recomputed).
//! Updates are exact, never approximate: the cached cost of every net is
//! bit-identical to a from-scratch half-perimeter recompute at all times,
//! which keeps results independent of the caching strategy (the
//! determinism fingerprints rely on this).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vpga_netlist::{CellId, CellKind, Library, NetId, Netlist};

use crate::error::PlaceError;
use crate::grid::Placement;
#[cfg(test)]
use crate::grid::Rect;

/// Tunables for [`place`] and [`refine`].
#[derive(Clone, Debug)]
pub struct PlaceConfig {
    /// Fraction of die area occupied by cells (flow-a die sizing).
    pub utilization: f64,
    /// RNG seed (runs are deterministic for a given seed).
    pub seed: u64,
    /// Annealing effort: moves per cell per temperature step.
    pub moves_per_cell: usize,
    /// Per-net weights (timing criticality); `None` = uniform.
    pub net_weights: Option<Vec<f64>>,
}

impl Default for PlaceConfig {
    fn default() -> PlaceConfig {
        PlaceConfig {
            utilization: 0.7,
            seed: 6,
            moves_per_cell: 8,
            net_weights: None,
        }
    }
}

/// Mover/acceptance counters and cost bookkeeping from one annealing run
/// — the per-stage instrumentation the flow executor reports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlaceStats {
    /// Move attempts (including the initial-temperature probes).
    pub moves_attempted: u64,
    /// Accepted moves.
    pub moves_accepted: u64,
    /// Temperature steps taken by the adaptive schedule.
    pub temperature_steps: u32,
    /// Weighted-HPWL cost after the initial scatter/snap.
    pub cost_initial: f64,
    /// Weighted-HPWL cost at the end of the anneal.
    pub cost_final: f64,
    /// Per-net bounding boxes updated in O(1) during move evaluation.
    pub bbox_incremental: u64,
    /// Per-net bounding boxes that needed a full pin rescan (a boundary
    /// pin moved inward, so the box may have shrunk).
    pub bbox_full: u64,
}

/// Places all library cells of `netlist` by simulated annealing from a
/// fresh random start; returns the placement.
///
/// # Panics
///
/// Panics if `config.utilization` is outside `(0, 1]`.
pub fn place(netlist: &Netlist, lib: &Library, config: &PlaceConfig) -> Placement {
    place_with_stats(netlist, lib, config).0
}

/// [`place`], also returning the annealer's [`PlaceStats`].
///
/// # Panics
///
/// Panics if `config.utilization` is outside `(0, 1]`.
pub fn place_with_stats(
    netlist: &Netlist,
    lib: &Library,
    config: &PlaceConfig,
) -> (Placement, PlaceStats) {
    try_place_with_stats(netlist, lib, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking [`place_with_stats`]: configuration and feasibility
/// problems come back as a [`PlaceError`] instead of aborting the worker.
///
/// # Errors
///
/// * [`PlaceError::InvalidUtilization`] if `config.utilization` is outside
///   `(0, 1]`,
/// * [`PlaceError::GridTooSmall`] if the site grid cannot seat every
///   movable cell.
pub fn try_place_with_stats(
    netlist: &Netlist,
    lib: &Library,
    config: &PlaceConfig,
) -> Result<(Placement, PlaceStats), PlaceError> {
    if !(config.utilization > 0.0 && config.utilization <= 1.0) {
        return Err(PlaceError::InvalidUtilization(config.utilization));
    }
    let mut placement = Placement::initial(netlist, lib, config.utilization);
    let stats = {
        let mut engine = Engine::new(netlist, lib, &mut placement, config);
        engine.check_capacity()?;
        let mut rng = SmallRng::seed_from_u64(config.seed);
        engine.scatter(&mut rng);
        engine.anneal(1.0, &mut rng);
        engine.commit();
        engine.stats
    };
    Ok((placement, stats))
}

/// Refines an existing placement at reduced temperature, honouring fixed
/// cells and region constraints — the physical-synthesis re-run inside the
/// §3.1 packing loop. `heat` in `(0, 1]` scales the starting temperature
/// (1.0 = full anneal, 0.1 = gentle cleanup).
///
/// Unplaced movable cells are scattered first, so this also legalizes
/// netlists that gained cells (e.g. after buffer insertion).
///
/// # Panics
///
/// Panics if `heat` is not in `(0, 1]`.
pub fn refine(
    netlist: &Netlist,
    lib: &Library,
    placement: &mut Placement,
    config: &PlaceConfig,
    heat: f64,
) {
    let _ = refine_with_stats(netlist, lib, placement, config, heat);
}

/// [`refine`], also returning the annealer's [`PlaceStats`].
///
/// # Panics
///
/// Panics if `heat` is not in `(0, 1]`.
pub fn refine_with_stats(
    netlist: &Netlist,
    lib: &Library,
    placement: &mut Placement,
    config: &PlaceConfig,
    heat: f64,
) -> PlaceStats {
    try_refine_with_stats(netlist, lib, placement, config, heat).unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking [`refine_with_stats`].
///
/// # Errors
///
/// * [`PlaceError::InvalidHeat`] if `heat` is outside `(0, 1]`,
/// * [`PlaceError::InvalidUtilization`] if `config.utilization` is outside
///   `(0, 1]`,
/// * [`PlaceError::GridTooSmall`] if the site grid cannot seat every
///   movable cell.
pub fn try_refine_with_stats(
    netlist: &Netlist,
    lib: &Library,
    placement: &mut Placement,
    config: &PlaceConfig,
    heat: f64,
) -> Result<PlaceStats, PlaceError> {
    if !(heat > 0.0 && heat <= 1.0) {
        return Err(PlaceError::InvalidHeat(heat));
    }
    if !(config.utilization > 0.0 && config.utilization <= 1.0) {
        return Err(PlaceError::InvalidUtilization(config.utilization));
    }
    let mut engine = Engine::new(netlist, lib, placement, config);
    engine.check_capacity()?;
    let mut rng = SmallRng::seed_from_u64(config.seed);
    engine.scatter_unplaced_only(&mut rng);
    engine.anneal(heat, &mut rng);
    engine.commit();
    Ok(engine.stats)
}

/// A net's cached bounding box: exact extent plus the number of placed
/// pins sitting on each boundary. While every boundary keeps at least one
/// pin, pin moves update the box in O(1); when a removal empties a
/// boundary the box may shrink and the owner recomputes it from scratch.
#[derive(Clone, Copy, Debug)]
struct NetBox {
    min_x: f64,
    max_x: f64,
    min_y: f64,
    max_y: f64,
    on_min_x: u32,
    on_max_x: u32,
    on_min_y: u32,
    on_max_y: u32,
    /// Placed pins (driver + sink occurrences, counted with multiplicity,
    /// exactly as [`Placement::net_hpwl`] counts them).
    pins: u32,
}

impl NetBox {
    fn empty() -> NetBox {
        NetBox {
            min_x: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            min_y: f64::INFINITY,
            max_y: f64::NEG_INFINITY,
            on_min_x: 0,
            on_max_x: 0,
            on_min_y: 0,
            on_max_y: 0,
            pins: 0,
        }
    }

    /// Adds `k` pins at `(x, y)`.
    fn add(&mut self, x: f64, y: f64, k: u32) {
        self.pins += k;
        if x < self.min_x {
            self.min_x = x;
            self.on_min_x = k;
        } else if x == self.min_x {
            self.on_min_x += k;
        }
        if x > self.max_x {
            self.max_x = x;
            self.on_max_x = k;
        } else if x == self.max_x {
            self.on_max_x += k;
        }
        if y < self.min_y {
            self.min_y = y;
            self.on_min_y = k;
        } else if y == self.min_y {
            self.on_min_y += k;
        }
        if y > self.max_y {
            self.max_y = y;
            self.on_max_y = k;
        } else if y == self.max_y {
            self.on_max_y += k;
        }
    }

    /// Removes `k` pins at `(x, y)`. Returns `false` if a boundary lost
    /// its last pin — the box may shrink, and the caller must recompute
    /// it from scratch (`self` is left partially updated in that case).
    fn remove(&mut self, x: f64, y: f64, k: u32) -> bool {
        self.pins -= k;
        if x == self.min_x {
            if self.on_min_x <= k {
                return false;
            }
            self.on_min_x -= k;
        }
        if x == self.max_x {
            if self.on_max_x <= k {
                return false;
            }
            self.on_max_x -= k;
        }
        if y == self.min_y {
            if self.on_min_y <= k {
                return false;
            }
            self.on_min_y -= k;
        }
        if y == self.max_y {
            if self.on_max_y <= k {
                return false;
            }
            self.on_max_y -= k;
        }
        true
    }

    /// Half-perimeter of the box — the same value
    /// [`Placement::net_hpwl`] computes, including the `< 2` pin rule.
    fn hpwl(&self) -> f64 {
        if self.pins < 2 {
            return 0.0;
        }
        (self.max_x - self.min_x) + (self.max_y - self.min_y)
    }

    /// Reassembles a working box from its SoA halves.
    fn from_parts(e: BoxExt, c: BoxCnt) -> NetBox {
        NetBox {
            min_x: e.min_x,
            max_x: e.max_x,
            min_y: e.min_y,
            max_y: e.max_y,
            on_min_x: c.on_min_x,
            on_max_x: c.on_max_x,
            on_min_y: c.on_min_y,
            on_max_y: c.on_max_y,
            pins: e.pins,
        }
    }

    /// Splits a working box into its SoA halves.
    fn split(self) -> (BoxExt, BoxCnt) {
        (
            BoxExt {
                min_x: self.min_x,
                max_x: self.max_x,
                min_y: self.min_y,
                max_y: self.max_y,
                pins: self.pins,
            },
            BoxCnt {
                on_min_x: self.on_min_x,
                on_max_x: self.on_max_x,
                on_min_y: self.on_min_y,
                on_max_y: self.on_max_y,
            },
        )
    }
}

/// The extent half of a cached net box: what the cost formula and the O(1)
/// add path read. Stored as its own array so the hot loop's cache lines
/// carry no boundary counts (those live in [`BoxCnt`] and are only touched
/// on the incremental-remove path and on accepted commits).
#[derive(Clone, Copy, Debug)]
struct BoxExt {
    min_x: f64,
    max_x: f64,
    min_y: f64,
    max_y: f64,
    pins: u32,
}

impl BoxExt {
    fn empty() -> BoxExt {
        BoxExt {
            min_x: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            min_y: f64::INFINITY,
            max_y: f64::NEG_INFINITY,
            pins: 0,
        }
    }
}

/// The boundary-count half of a cached net box (see [`BoxExt`]).
#[derive(Clone, Copy, Debug, Default)]
struct BoxCnt {
    on_min_x: u32,
    on_max_x: u32,
    on_min_y: u32,
    on_max_y: u32,
}

/// Nets at or below this pin count skip boundary-count bookkeeping
/// entirely: rescanning so few pins from scratch is cheaper than
/// maintaining the counts — the classic VPR small-net cutoff. Their
/// cached boxes carry exact extents, costs, and pin counts; only the
/// boundary counts are unused (and left stale).
const SMALL_NET_PINS: usize = 4;

/// Sentinel for an unseated cell in `Engine::site_of`.
const NO_SITE: u32 = u32::MAX;
/// Sentinel for an empty site in `Engine::cell_at`.
const NO_CELL: u32 = u32::MAX;

/// One entry of the cell→nets CSR (see `Engine::cell_net_dat`).
#[derive(Clone, Copy)]
struct CellNetRef {
    net: NetId,
    /// The cell's pin multiplicity on this net.
    mult: u32,
    /// The net's `pin_cell` row bounds, denormalized from `pin_off`.
    lo: u32,
    len: u32,
}

/// Rescans a CSR pin row into a box: exact extent and pin count, boundary
/// counts left at zero. `f64::min`/`max` equal the comparison chain of
/// [`Placement::net_hpwl`] on the never-NaN coordinates involved, so the
/// extent is bit-identical to the from-scratch reference.
#[inline]
fn scan_row(row: &[u32], pos: &[(f64, f64)]) -> NetBox {
    let mut b = NetBox::empty();
    if row.is_empty() {
        return b;
    }
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for &ci in row {
        let (x, y) = pos[ci as usize];
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    b.min_x = min_x;
    b.max_x = max_x;
    b.min_y = min_y;
    b.max_y = max_y;
    b.pins = row.len() as u32;
    b
}

/// Fills in the boundary pin counts of a box whose extent is exact.
fn fill_counts(row: &[u32], pos: &[(f64, f64)], b: &mut NetBox) {
    let (mut on_min_x, mut on_max_x) = (0u32, 0u32);
    let (mut on_min_y, mut on_max_y) = (0u32, 0u32);
    for &ci in row {
        let (x, y) = pos[ci as usize];
        on_min_x += u32::from(x == b.min_x);
        on_max_x += u32::from(x == b.max_x);
        on_min_y += u32::from(y == b.min_y);
        on_max_y += u32::from(y == b.max_y);
    }
    b.on_min_x = on_min_x;
    b.on_max_x = on_max_x;
    b.on_min_y = on_min_y;
    b.on_max_y = on_max_y;
}

/// Internal annealing engine over a discrete site grid.
struct Engine<'a> {
    netlist: &'a Netlist,
    placement: &'a mut Placement,
    config: &'a PlaceConfig,
    movable: Vec<CellId>,
    /// Site grid: cols × rows, each holding at most one cell.
    cols: usize,
    rows: usize,
    /// Site of each cell (by cell index); [`NO_SITE`] = unseated.
    site_of: Vec<u32>,
    /// Cell seated at each site; [`NO_CELL`] = empty. Sentinel-encoded
    /// `u32`s instead of `Option`s — these are read and written on every
    /// move, and the dense encoding halves the footprint and drops the
    /// tag checks.
    cell_at: Vec<u32>,
    /// Site coordinates, precomputed once (the die never changes during
    /// an anneal).
    site_pos: Vec<(f64, f64)>,
    /// Site `(col, row)` pairs, precomputed for the same reason — the
    /// per-move `%`/`/` by a runtime divisor costs more than the load.
    site_cr: Vec<(u32, u32)>,
    /// Cell coordinates, by cell index — the engine's own copy, updated on
    /// every move. [`Placement`] is only written back in [`Engine::commit`]
    /// so the inner loop never touches it.
    pos: Vec<(f64, f64)>,
    /// Per-net pin occurrences as a CSR matrix: row `n` of `pin_cell`
    /// (bounded by `pin_off`) lists the cell index of every pin
    /// [`Placement::net_hpwl`] would visit — driver first, then each sink
    /// occurrence, skipping cells that can never be placed. Flattened once
    /// so a box rescan is a pure array walk with no netlist indirection.
    pin_off: Vec<u32>,
    pin_cell: Vec<u32>,
    /// Nets touched by each cell as a second CSR matrix (row = cell
    /// index): sorted by net id, each entry carrying the cell's pin
    /// multiplicity on that net (a cell may drive and/or sink a net on
    /// several pins; the box counts every occurrence, as `net_hpwl` does)
    /// plus the net's `pin_cell` row bounds, denormalized here so the hot
    /// loop never chases `pin_off`.
    cell_net_off: Vec<u32>,
    cell_net_dat: Vec<CellNetRef>,
    /// Per-net cached bounding boxes, SoA: extents ([`BoxExt`]) and
    /// boundary counts ([`BoxCnt`]) in separate arrays. Exact at all times
    /// for nets above [`SMALL_NET_PINS`]; small nets are always re-scanned
    /// on the fly and their cache entry is never read after the initial
    /// rebuild, so it is allowed to go stale.
    net_ext: Vec<BoxExt>,
    net_cnt: Vec<BoxCnt>,
    /// Per-net cached `(weighted half-perimeter cost, weight)`, interleaved
    /// so the hot loop touches one cache line per net instead of two. The
    /// cost is exact at all times, every net.
    net_cw: Vec<(f64, f64)>,
    stats: PlaceStats,
    /// True if any movable cell carries a region constraint; when false
    /// the per-move region checks are skipped entirely.
    use_regions: bool,
    /// Scratch: `(net index, previous cost)` per affected net of the move
    /// under evaluation — restored wholesale when a move is rejected
    /// (costs are written eagerly during evaluation).
    scratch_costs: Vec<(u32, f64)>,
    /// Scratch: tentative `(net, box, counts-valid)` for the affected nets
    /// *above* the small-net cutoff only, in order. A rescanned box
    /// carries exact extent but deferred boundary counts — they are only
    /// filled in if the move is accepted (see [`Engine::try_move`]).
    scratch_boxes: Vec<(CellNetRef, NetBox, bool)>,
}

impl<'a> Engine<'a> {
    fn new(
        netlist: &'a Netlist,
        lib: &'a Library,
        placement: &'a mut Placement,
        config: &'a PlaceConfig,
    ) -> Engine<'a> {
        let movable: Vec<CellId> = netlist
            .cells()
            .filter(|(id, cell)| {
                matches!(cell.kind(), CellKind::Lib(_)) && !placement.is_fixed(*id)
            })
            .map(|(id, _)| id)
            .collect();
        let _ = lib;
        let n_sites = ((movable.len() as f64) / config.utilization)
            .ceil()
            .max(1.0) as usize;
        let cols = (n_sites as f64).sqrt().ceil() as usize;
        let rows = n_sites.div_ceil(cols);
        let mut weights = vec![1.0; netlist.net_capacity()];
        if let Some(w) = &config.net_weights {
            for (i, &v) in w.iter().enumerate().take(weights.len()) {
                weights[i] = v;
            }
        }
        // Zero-weight constant nets.
        for net in netlist.nets() {
            if let Some(driver) = netlist.driver(net) {
                if matches!(
                    netlist.cell(driver).map(|c| c.kind()),
                    Some(CellKind::Constant(_))
                ) {
                    weights[net.index()] = 0.0;
                }
            }
        }
        let die = placement.die();
        let mut site_pos = Vec::with_capacity(cols * rows);
        let mut site_cr = Vec::with_capacity(cols * rows);
        for site in 0..cols * rows {
            let col = site % cols;
            let row = site / cols;
            site_pos.push((
                die.x0 + die.width() * (col as f64 + 0.5) / cols as f64,
                die.y0 + die.height() * (row as f64 + 0.5) / rows as f64,
            ));
            site_cr.push((col as u32, row as u32));
        }
        // Engine-local coordinates. Movable cells are (re)seated by the
        // scatter pass before any cost is computed; everything else keeps
        // the position it has now for the whole anneal.
        let mut pos = vec![(f64::NAN, f64::NAN); netlist.cell_capacity()];
        for (id, _) in netlist.cells() {
            if let Some(p) = placement.position(id) {
                pos[id.index()] = p;
            }
        }
        // CSR pin-occurrence rows: exactly the pins `net_hpwl` visits.
        // A cell is listed if it is placed now or movable (it will be
        // placed by scatter); nothing else can gain a position mid-anneal.
        let mut is_movable = vec![false; netlist.cell_capacity()];
        for &c in &movable {
            is_movable[c.index()] = true;
        }
        let mut rows_by_net: Vec<Vec<u32>> = vec![Vec::new(); netlist.net_capacity()];
        for net in netlist.nets() {
            let Some(driver) = netlist.driver(net) else {
                continue;
            };
            if matches!(
                netlist.cell(driver).map(|c| c.kind()),
                Some(CellKind::Constant(_))
            ) {
                continue;
            }
            let row = &mut rows_by_net[net.index()];
            let placeable = |c: CellId| is_movable[c.index()] || placement.position(c).is_some();
            if placeable(driver) {
                row.push(driver.index() as u32);
            }
            for &(sink, _) in netlist.sinks(net) {
                if placeable(sink) {
                    row.push(sink.index() as u32);
                }
            }
        }
        let mut pin_off = Vec::with_capacity(netlist.net_capacity() + 1);
        let mut pin_cell = Vec::new();
        pin_off.push(0u32);
        for row in &rows_by_net {
            pin_cell.extend_from_slice(row);
            pin_off.push(pin_cell.len() as u32);
        }
        // Cell→nets CSR, with each net's pin-row bounds denormalized into
        // the entry so the hot loop reads one sequential stream.
        let mut cell_net_off = Vec::with_capacity(netlist.cell_capacity() + 1);
        let mut cell_net_dat: Vec<CellNetRef> = Vec::new();
        {
            let mut flat: Vec<Vec<NetId>> = vec![Vec::new(); netlist.cell_capacity()];
            for net in netlist.nets() {
                if weights[net.index()] == 0.0 {
                    continue;
                }
                if let Some(d) = netlist.driver(net) {
                    flat[d.index()].push(net);
                }
                for &(sink, _) in netlist.sinks(net) {
                    flat[sink.index()].push(net);
                }
            }
            cell_net_off.push(0u32);
            for nets in &mut flat {
                nets.sort_unstable();
                let row_start = cell_net_dat.len();
                for &net in nets.iter() {
                    if cell_net_dat.len() > row_start {
                        if let Some(e) = cell_net_dat.last_mut() {
                            if e.net == net {
                                e.mult += 1;
                                continue;
                            }
                        }
                    }
                    let lo = pin_off[net.index()];
                    cell_net_dat.push(CellNetRef {
                        net,
                        mult: 1,
                        lo,
                        len: pin_off[net.index() + 1] - lo,
                    });
                }
                cell_net_off.push(cell_net_dat.len() as u32);
            }
        }
        let use_regions = movable.iter().any(|&c| placement.region(c).is_some());
        Engine {
            netlist,
            placement,
            config,
            movable,
            cols,
            rows,
            site_of: vec![NO_SITE; netlist.cell_capacity()],
            cell_at: vec![NO_CELL; cols * rows],
            site_pos,
            site_cr,
            pos,
            pin_off,
            pin_cell,
            cell_net_off,
            cell_net_dat,
            net_ext: vec![BoxExt::empty(); netlist.net_capacity()],
            net_cnt: vec![BoxCnt::default(); netlist.net_capacity()],
            net_cw: weights.iter().map(|&w| (0.0, w)).collect(),
            stats: PlaceStats::default(),
            use_regions,
            scratch_costs: Vec::new(),
            scratch_boxes: Vec::new(),
        }
    }

    /// Verifies the site grid can seat every movable cell; the scatter
    /// passes rely on this (their free-site probes otherwise spin forever
    /// or silently leave cells unseated).
    fn check_capacity(&self) -> Result<(), PlaceError> {
        let sites = self.cols * self.rows;
        if sites < self.movable.len() {
            return Err(PlaceError::GridTooSmall {
                cells: self.movable.len(),
                sites,
            });
        }
        Ok(())
    }

    fn site_xy(&self, site: usize) -> (f64, f64) {
        self.site_pos[site]
    }

    fn nearest_site(&self, x: f64, y: f64) -> usize {
        let die = self.placement.die();
        let col = (((x - die.x0) / die.width()) * self.cols as f64)
            .floor()
            .clamp(0.0, (self.cols - 1) as f64) as usize;
        let row = (((y - die.y0) / die.height()) * self.rows as f64)
            .floor()
            .clamp(0.0, (self.rows - 1) as f64) as usize;
        row * self.cols + col
    }

    /// Random initial scatter of every movable cell.
    fn scatter(&mut self, rng: &mut SmallRng) {
        let mut sites: Vec<usize> = (0..self.cols * self.rows).collect();
        // Fisher–Yates shuffle.
        for i in (1..sites.len()).rev() {
            let j = rng.gen_range(0..=i);
            sites.swap(i, j);
        }
        let movable = self.movable.clone();
        for (cell, site) in movable.into_iter().zip(sites) {
            self.put(cell, site);
        }
        self.rebuild_costs();
    }

    /// Seeds only cells that lack positions, snapping the rest to their
    /// nearest free site.
    fn scatter_unplaced_only(&mut self, rng: &mut SmallRng) {
        let mut free: Vec<usize> = (0..self.cols * self.rows).collect();
        // Snap pre-placed cells first.
        let movable = self.movable.clone();
        let mut pending: Vec<CellId> = Vec::new();
        for cell in movable {
            match self.placement.position(cell) {
                Some((x, y)) => {
                    let mut site = self.nearest_site(x, y);
                    if self.cell_at[site] != NO_CELL {
                        // Linear probe for a free site.
                        site = (0..self.cell_at.len())
                            .map(|d| (site + d) % self.cell_at.len())
                            .find(|&s| self.cell_at[s] == NO_CELL)
                            .expect("grid has at least as many sites as cells");
                    }
                    self.put(cell, site);
                }
                None => pending.push(cell),
            }
        }
        free.retain(|&s| self.cell_at[s] == NO_CELL);
        // Unbiased Fisher–Yates over the whole free list.
        for i in (1..free.len()).rev() {
            let j = rng.gen_range(0..=i);
            free.swap(i, j);
        }
        for (cell, site) in pending.into_iter().zip(free) {
            self.put(cell, site);
        }
        self.rebuild_costs();
    }

    fn put(&mut self, cell: CellId, site: usize) {
        debug_assert!(self.cell_at[site] == NO_CELL);
        self.cell_at[site] = cell.index() as u32;
        self.site_of[cell.index()] = site as u32;
        self.pos[cell.index()] = self.site_pos[site];
    }

    fn rebuild_costs(&mut self) {
        for net in self.netlist.nets() {
            let b = self.compute_net_box(net);
            self.net_cw[net.index()].0 = self.box_cost(net, &b);
            let (ext, cnt) = b.split();
            self.net_ext[net.index()] = ext;
            self.net_cnt[net.index()] = cnt;
        }
    }

    /// The net's CSR pin row: the cell index of every pin occurrence
    /// [`Placement::net_hpwl`] would visit.
    fn pin_row(&self, net: NetId) -> &[u32] {
        let lo = self.pin_off[net.index()] as usize;
        let hi = self.pin_off[net.index() + 1] as usize;
        &self.pin_cell[lo..hi]
    }

    /// Builds a net's box from scratch over the CSR pin row — the same
    /// pins [`Placement::net_hpwl`] visits, so the half-perimeter is
    /// bit-identical (`f64::min`/`max` equal the comparison chain on the
    /// never-NaN coordinates involved).
    fn compute_net_box(&self, net: NetId) -> NetBox {
        let mut b = self.scan_extent(net);
        fill_counts(self.pin_row(net), &self.pos, &mut b);
        b
    }

    /// The cheap rescan: exact extent and pin count, boundary counts left
    /// at zero (hot-path callers only need the extent; see `try_move`).
    fn scan_extent(&self, net: NetId) -> NetBox {
        scan_row(self.pin_row(net), &self.pos)
    }

    /// The cached-cost formula: `weight × half-perimeter`, with the same
    /// zero shortcut as the from-scratch path.
    fn box_cost(&self, net: NetId, b: &NetBox) -> f64 {
        let w = self.net_cw[net.index()].1;
        if w == 0.0 {
            return 0.0;
        }
        w * b.hpwl()
    }

    /// From-scratch reference cost (test oracle for the incremental cache).
    #[cfg(test)]
    fn weighted_hpwl(&self, net: NetId) -> f64 {
        let w = self.net_cw[net.index()].1;
        if w == 0.0 {
            return 0.0;
        }
        w * self.placement.net_hpwl(self.netlist, net)
    }

    fn total_cost(&self) -> f64 {
        self.net_cw.iter().map(|cw| cw.0).sum()
    }

    /// Attempts one move; returns the accepted cost delta, if accepted.
    fn try_move(&mut self, temperature: f64, window: usize, rng: &mut SmallRng) -> Option<f64> {
        if self.movable.is_empty() {
            return None;
        }
        self.stats.moves_attempted += 1;
        let cell = self.movable[rng.gen_range(0..self.movable.len())];
        let from = self.site_of[cell.index()];
        debug_assert!(from != NO_SITE, "movable cell is seated");
        let from = from as usize;
        // Target site within the window (and region constraint, if any).
        let (fc, fr) = self.site_cr[from];
        let w = window.max(1) as i64;
        let tc = (fc as i64 + rng.gen_range(-w..=w)).clamp(0, self.cols as i64 - 1);
        let tr = (fr as i64 + rng.gen_range(-w..=w)).clamp(0, self.rows as i64 - 1);
        let to = tr as usize * self.cols + tc as usize;
        if to == from {
            return None;
        }
        let (tx, ty) = self.site_xy(to);
        if self.use_regions {
            if let Some(r) = self.placement.region(cell) {
                if !r.contains(tx, ty) {
                    return None;
                }
            }
        }
        let (fx, fy) = self.site_xy(from);
        let other = self.cell_at[to];
        if other != NO_CELL {
            let o = CellId::from_index(other as usize);
            // Only movable (never-fixed) cells are ever seated in the
            // grid, so a fixed-cell check here would be dead code.
            debug_assert!(!self.placement.is_fixed(o));
            if self.use_regions {
                if let Some(r) = self.placement.region(o) {
                    if !r.contains(fx, fy) {
                        return None;
                    }
                }
            }
        }
        // Apply tentatively, then walk the two cells' sorted net rows in a
        // fused two-pointer merge, re-costing each affected net as it is
        // produced (same net-id order as a materialized merge, so cost
        // summation order is unchanged). Small nets (the overwhelming
        // majority) are rescanned outright — a handful of loads and
        // min/max ops, cheaper than any bookkeeping. Large nets update
        // incrementally: remove the moved pins at their old coordinates,
        // re-add them at the new ones; only a boundary-emptying removal
        // forces a rescan, and that rescan defers its boundary counts to
        // the accept path (a rejected box is discarded, so its counts are
        // never needed). New costs are written eagerly — the cache line is
        // already hot from the old-cost read — and rolled back from
        // `scratch_costs` if the move is rejected.
        self.swap_sites(cell, from, other, to);
        let mut scratch_costs = std::mem::take(&mut self.scratch_costs);
        let mut scratch_boxes = std::mem::take(&mut self.scratch_boxes);
        scratch_costs.clear();
        scratch_boxes.clear();
        let mut before = 0.0f64;
        let mut after = 0.0f64;
        let mut i = self.cell_net_off[cell.index()] as usize;
        let a_hi = self.cell_net_off[cell.index() + 1] as usize;
        let (mut j, b_hi) = if other != NO_CELL {
            (
                self.cell_net_off[other as usize] as usize,
                self.cell_net_off[other as usize + 1] as usize,
            )
        } else {
            (0, 0)
        };
        while i < a_hi || j < b_hi {
            let (e, k_cell, k_other) = if j >= b_hi {
                let e = self.cell_net_dat[i];
                i += 1;
                (e, e.mult, 0)
            } else if i >= a_hi {
                let e = self.cell_net_dat[j];
                j += 1;
                (e, 0, e.mult)
            } else {
                let ea = self.cell_net_dat[i];
                let eb = self.cell_net_dat[j];
                if ea.net < eb.net {
                    i += 1;
                    (ea, ea.mult, 0)
                } else if eb.net < ea.net {
                    j += 1;
                    (eb, 0, eb.mult)
                } else {
                    i += 1;
                    j += 1;
                    (ea, ea.mult, eb.mult)
                }
            };
            let ni = e.net.index();
            let (old_cost, w) = self.net_cw[ni];
            before += old_cost;
            let lo = e.lo as usize;
            let hi = lo + e.len as usize;
            let cost = if e.len as usize <= SMALL_NET_PINS {
                // Only the cost is kept; small nets never read their
                // cached box.
                self.stats.bbox_full += 1;
                let b = scan_row(&self.pin_cell[lo..hi], &self.pos);
                if w == 0.0 {
                    0.0
                } else {
                    w * b.hpwl()
                }
            } else {
                let mut b = NetBox::from_parts(self.net_ext[ni], self.net_cnt[ni]);
                let ok = (k_cell == 0 || b.remove(fx, fy, k_cell))
                    && (k_other == 0 || b.remove(tx, ty, k_other));
                let counts_valid = if ok {
                    if k_cell > 0 {
                        b.add(tx, ty, k_cell);
                    }
                    if k_other > 0 {
                        b.add(fx, fy, k_other);
                    }
                    self.stats.bbox_incremental += 1;
                    true
                } else {
                    self.stats.bbox_full += 1;
                    b = scan_row(&self.pin_cell[lo..hi], &self.pos);
                    false
                };
                scratch_boxes.push((e, b, counts_valid));
                if w == 0.0 {
                    0.0
                } else {
                    w * b.hpwl()
                }
            };
            after += cost;
            self.net_cw[ni].0 = cost;
            scratch_costs.push((ni as u32, old_cost));
        }
        let delta = after - before;
        let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature.max(1e-9)).exp();
        if accept {
            // Costs are already in place; only the large-net boxes remain.
            for &(e, b, counts_valid) in &scratch_boxes {
                let mut b = b;
                if !counts_valid {
                    let lo = e.lo as usize;
                    let hi = lo + e.len as usize;
                    fill_counts(&self.pin_cell[lo..hi], &self.pos, &mut b);
                }
                let (ext, cnt) = b.split();
                self.net_ext[e.net.index()] = ext;
                self.net_cnt[e.net.index()] = cnt;
            }
            self.scratch_costs = scratch_costs;
            self.scratch_boxes = scratch_boxes;
            self.stats.moves_accepted += 1;
            Some(delta)
        } else {
            for &(ni, c) in &scratch_costs {
                self.net_cw[ni as usize].0 = c;
            }
            self.scratch_costs = scratch_costs;
            self.scratch_boxes = scratch_boxes;
            self.swap_sites(cell, to, other, from);
            None
        }
    }

    fn swap_sites(&mut self, cell: CellId, from: usize, other: u32, to: usize) {
        self.cell_at[from] = other;
        self.cell_at[to] = cell.index() as u32;
        self.site_of[cell.index()] = to as u32;
        self.pos[cell.index()] = self.site_pos[to];
        if other != NO_CELL {
            let oi = other as usize;
            self.site_of[oi] = from as u32;
            self.pos[oi] = self.site_pos[from];
        }
    }

    fn anneal(&mut self, heat: f64, rng: &mut SmallRng) {
        self.stats.cost_initial = self.total_cost();
        self.stats.cost_final = self.stats.cost_initial;
        if self.movable.len() < 2 {
            return;
        }
        // The initial-temperature probes below accept unconditionally, so
        // on tiny netlists a short anneal can end above its starting cost;
        // keep the starting state to restore in that case.
        let start_sites = self.site_of.clone();
        // Initial temperature from the spread of random perturbations.
        let probes = (self.movable.len() * 2).clamp(16, 512);
        let mut deltas: Vec<f64> = Vec::with_capacity(probes);
        for _ in 0..probes {
            if let Some(d) = self.try_move(f64::INFINITY, self.cols.max(self.rows), rng) {
                deltas.push(d);
            }
        }
        let mean = deltas.iter().copied().sum::<f64>() / deltas.len().max(1) as f64;
        let var = deltas.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>()
            / deltas.len().max(1) as f64;
        let mut t = (20.0 * var.sqrt()).max(1.0) * heat;
        let mut window = self.cols.max(self.rows);
        let moves = self.config.moves_per_cell * self.movable.len();
        let stop = 0.002 * self.total_cost().max(1.0) / self.netlist.num_nets().max(1) as f64;
        for _ in 0..200 {
            let mut accepted = 0usize;
            for _ in 0..moves {
                if self.try_move(t, window, rng).is_some() {
                    accepted += 1;
                }
            }
            let rate = accepted as f64 / moves.max(1) as f64;
            // VPR schedule.
            let alpha = if rate > 0.96 {
                0.5
            } else if rate > 0.8 {
                0.9
            } else if rate > 0.15 {
                0.95
            } else {
                0.8
            };
            t *= alpha;
            self.stats.temperature_steps += 1;
            // Track 44 % target acceptance with the window size.
            let scale = 1.0 - 0.44 + rate;
            window = ((window as f64 * scale).round() as usize).clamp(1, self.cols.max(self.rows));
            if t < stop {
                break;
            }
        }
        self.stats.cost_final = self.total_cost();
        if self.stats.cost_final > self.stats.cost_initial {
            self.restore(&start_sites);
            self.stats.cost_final = self.total_cost();
        }
    }

    /// Reseats every movable cell at its site in `site_of` and rebuilds
    /// the cost cache.
    fn restore(&mut self, site_of: &[u32]) {
        self.cell_at.fill(NO_CELL);
        for i in 0..self.movable.len() {
            let cell = self.movable[i];
            let site = site_of[cell.index()];
            assert!(site != NO_SITE, "snapshot covers movable cells");
            self.cell_at[site as usize] = cell.index() as u32;
            self.site_of[cell.index()] = site;
            self.pos[cell.index()] = self.site_pos[site as usize];
        }
        self.rebuild_costs();
    }

    /// Writes the final coordinates of every movable cell back to the
    /// [`Placement`] (the inner loop only updates the engine's own copy).
    fn commit(&mut self) {
        for i in 0..self.movable.len() {
            let cell = self.movable[i];
            let (x, y) = self.pos[cell.index()];
            self.placement.set_position(cell, x, y);
        }
    }

    /// Asserts the incremental cache is exact: every net's cached cost
    /// must equal a from-scratch recompute, to the bit, and every net
    /// above the small-net cutoff must also carry an exact cached box
    /// (small nets keep only their cost — their box is never consulted).
    /// Syncs the engine's coordinates back to the [`Placement`] first so
    /// the independent `net_hpwl` oracle sees the current state.
    #[cfg(test)]
    fn verify_cache_exact(&mut self) {
        self.commit();
        for net in self.netlist.nets() {
            // The box cache is only maintained (and only consulted) above
            // the small-net cutoff.
            if self.pin_row(net).len() > SMALL_NET_PINS {
                let fresh = self.compute_net_box(net);
                let cached =
                    &NetBox::from_parts(self.net_ext[net.index()], self.net_cnt[net.index()]);
                assert_eq!(cached.pins, fresh.pins, "net {net:?}: pin count");
                assert_eq!(
                    cached.min_x.to_bits(),
                    fresh.min_x.to_bits(),
                    "net {net:?}: min_x"
                );
                assert_eq!(
                    cached.max_x.to_bits(),
                    fresh.max_x.to_bits(),
                    "net {net:?}: max_x"
                );
                assert_eq!(
                    cached.min_y.to_bits(),
                    fresh.min_y.to_bits(),
                    "net {net:?}: min_y"
                );
                assert_eq!(
                    cached.max_y.to_bits(),
                    fresh.max_y.to_bits(),
                    "net {net:?}: max_y"
                );
                assert_eq!(cached.on_min_x, fresh.on_min_x, "net {net:?}: on_min_x");
                assert_eq!(cached.on_max_x, fresh.on_max_x, "net {net:?}: on_max_x");
                assert_eq!(cached.on_min_y, fresh.on_min_y, "net {net:?}: on_min_y");
                assert_eq!(cached.on_max_y, fresh.on_max_y, "net {net:?}: on_max_y");
            }
            assert_eq!(
                self.net_cw[net.index()].0.to_bits(),
                self.weighted_hpwl(net).to_bits(),
                "net {net:?}: cached cost diverged from from-scratch recompute"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpga_netlist::library::generic;

    /// A chain of inverters: optimal placement is a monotone path, so the
    /// annealed wirelength should be far below the random-scatter baseline.
    fn inverter_chain(n: usize) -> (Netlist, Library) {
        let lib = generic::library();
        let mut nl = Netlist::new("chain");
        let mut cur = nl.add_input("a");
        for i in 0..n {
            cur = nl
                .add_lib_cell(format!("i{i}"), &lib, "INV", &[cur])
                .unwrap();
        }
        nl.add_output("y", cur);
        (nl, lib)
    }

    #[test]
    fn annealing_beats_random_scatter() {
        let (nl, lib) = inverter_chain(60);
        let config = PlaceConfig::default();
        // Random baseline.
        let mut baseline = Placement::initial(&nl, &lib, config.utilization);
        {
            let mut engine = Engine::new(&nl, &lib, &mut baseline, &config);
            let mut rng = SmallRng::seed_from_u64(config.seed);
            engine.scatter(&mut rng);
            engine.commit();
        }
        let random_cost = baseline.total_hpwl(&nl);
        let placed = place(&nl, &lib, &config);
        let annealed_cost = placed.total_hpwl(&nl);
        assert!(
            annealed_cost < 0.6 * random_cost,
            "annealed {annealed_cost} vs random {random_cost}"
        );
        assert!(placed.is_complete(&nl));
    }

    #[test]
    fn annealed_placement_has_no_overlaps() {
        let (nl, lib) = inverter_chain(40);
        let p = place(&nl, &lib, &PlaceConfig::default());
        // Tolerance well below the site pitch: every cell has its own site.
        assert_eq!(p.overlap_count(&nl, p.site_pitch() * 0.5), 0);
    }

    #[test]
    fn placement_is_deterministic_for_a_seed() {
        let (nl, lib) = inverter_chain(20);
        let config = PlaceConfig::default();
        let p1 = place(&nl, &lib, &config);
        let p2 = place(&nl, &lib, &config);
        for (id, _) in nl.cells() {
            assert_eq!(p1.position(id), p2.position(id));
        }
    }

    #[test]
    fn fixed_cells_do_not_move_during_refine() {
        let (nl, lib) = inverter_chain(12);
        let config = PlaceConfig::default();
        let mut p = place(&nl, &lib, &config);
        let anchor = nl.cell_by_name("i5").unwrap();
        let pos = p.position(anchor).unwrap();
        p.set_fixed(anchor, true);
        refine(&nl, &lib, &mut p, &config, 0.3);
        assert_eq!(p.position(anchor), Some(pos));
        assert!(p.is_complete(&nl));
    }

    #[test]
    fn region_constraints_are_respected() {
        let (nl, lib) = inverter_chain(12);
        let config = PlaceConfig::default();
        let mut p = place(&nl, &lib, &config);
        let die = p.die();
        let half = Rect {
            x0: die.x0,
            y0: die.y0,
            x1: die.x0 + die.width() / 2.0,
            y1: die.y1,
        };
        let constrained = nl.cell_by_name("i3").unwrap();
        // Move it inside the region first, then constrain.
        p.set_position(constrained, half.x0 + 1.0, half.y0 + 1.0);
        p.set_region(constrained, Some(half));
        refine(&nl, &lib, &mut p, &config, 0.5);
        let (x, y) = p.position(constrained).unwrap();
        assert!(half.contains(x, y), "cell escaped its region: {x},{y}");
    }

    #[test]
    fn net_weights_pull_critical_nets_tighter() {
        // Two independent 2-cell nets; weight one heavily and compare the
        // resulting lengths.
        let lib = generic::library();
        let mut nl = Netlist::new("w");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_lib_cell("g1", &lib, "INV", &[a]).unwrap();
        let g2 = nl.add_lib_cell("g2", &lib, "INV", &[g1]).unwrap();
        let h1 = nl.add_lib_cell("h1", &lib, "INV", &[b]).unwrap();
        let h2 = nl.add_lib_cell("h2", &lib, "INV", &[h1]).unwrap();
        nl.add_output("y1", g2);
        nl.add_output("y2", h2);
        let mut weights = vec![1.0; nl.net_capacity()];
        weights[g1.index()] = 10.0; // the g1→g2 net is critical
        let config = PlaceConfig {
            net_weights: Some(weights),
            seed: 6,
            ..PlaceConfig::default()
        };
        let p = place(&nl, &lib, &config);
        let critical = p.net_hpwl(&nl, g1);
        // The heavily weighted net must be among the shortest movable nets.
        let other = p.net_hpwl(&nl, h1);
        assert!(
            critical <= other + 1e-9,
            "critical {critical} vs other {other}"
        );
    }

    /// A multi-fanout netlist that also reconverges (cells sinking the
    /// same net on two pins), to exercise pin multiplicity in the boxes.
    fn fanout_mesh(seed: u64, n: usize) -> (Netlist, Library) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let lib = generic::library();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut nl = Netlist::new("mesh");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let mut nets = vec![a, b];
        for i in 0..n {
            let x = nets[rng.gen_range(0..nets.len())];
            let y = nets[rng.gen_range(0..nets.len())];
            // Occasionally tie both pins to the same net (multiplicity 2).
            let y = if rng.gen_bool(0.2) { x } else { y };
            let g = nl
                .add_lib_cell(format!("g{i}"), &lib, "AND2", &[x, y])
                .unwrap();
            nets.push(g);
        }
        let last = *nets.last().unwrap();
        nl.add_output("y", last);
        (nl, lib)
    }

    /// The incremental bounding-box cache must match a from-scratch
    /// recompute, to the bit, after arbitrary sequences of accepted,
    /// rejected, and swap moves at every temperature regime.
    #[test]
    fn incremental_cost_cache_is_exact_under_move_sequences() {
        for seed in 0..8u64 {
            let (nl, lib) = fanout_mesh(seed, 40);
            let config = PlaceConfig {
                seed: seed ^ 0xdead_beef,
                ..PlaceConfig::default()
            };
            let mut placement = Placement::initial(&nl, &lib, config.utilization);
            let mut engine = Engine::new(&nl, &lib, &mut placement, &config);
            let mut rng = SmallRng::seed_from_u64(config.seed);
            engine.scatter(&mut rng);
            engine.verify_cache_exact();
            // Hot moves (most accepted), then cold moves (most rejected).
            for temperature in [f64::INFINITY, 1000.0, 1.0, 1e-6] {
                for _ in 0..200 {
                    let _ = engine.try_move(temperature, engine.cols.max(engine.rows), &mut rng);
                }
                engine.verify_cache_exact();
            }
            assert!(
                engine.stats.bbox_incremental > 0,
                "seed {seed}: no incremental updates happened"
            );
        }
    }

    /// Same oracle through the public `refine` path, with weighted nets
    /// and a mix of pre-placed and pending cells.
    #[test]
    fn refine_cache_is_exact_with_weights_and_unplaced_cells() {
        let (nl, lib) = fanout_mesh(3, 30);
        let mut weights = vec![1.0; nl.net_capacity()];
        for (i, w) in weights.iter_mut().enumerate() {
            if i % 3 == 0 {
                *w = 4.5;
            }
        }
        let config = PlaceConfig {
            net_weights: Some(weights),
            seed: 6,
            ..PlaceConfig::default()
        };
        let mut p = place(&nl, &lib, &config);
        let mut engine = Engine::new(&nl, &lib, &mut p, &config);
        let mut rng = SmallRng::seed_from_u64(config.seed);
        engine.scatter_unplaced_only(&mut rng);
        for _ in 0..500 {
            let _ = engine.try_move(10.0, engine.cols.max(engine.rows), &mut rng);
        }
        engine.verify_cache_exact();
    }
}
