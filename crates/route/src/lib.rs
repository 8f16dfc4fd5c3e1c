//! Global routing over the die grid — the "ASIC-style custom global and
//! detailed routing on the regular array of PLBs" of §3.1.
//!
//! A negotiated-congestion (PathFinder-style) router over a uniform tile
//! grid: edge costs combine a base cost, a present-congestion penalty, and
//! an accumulated history penalty, iterated until no edge exceeds its
//! channel capacity. Per-net routed wirelengths feed the Elmore wire
//! delays of `vpga-timing`; this is the post-layout extraction step of the
//! paper's flow.
//!
//! Each net grows one tree (multi-source PathFinder, McMurchie & Ebeling,
//! FPGA'95): sinks are taken nearest-first by Manhattan distance from the
//! driver, and each sink's A* search starts from every tile already in
//! the tree at cost 0, so multi-fanout nets form Steiner-like trees. A
//! search never leaves the net's bounding box grown by 3 tiles. Edge
//! costs are at least 1, so the Manhattan heuristic is consistent and
//! each search expands a tile at most once; on an uncongested grid each
//! sink joins the tree at its Manhattan distance from the nearest tree
//! tile.
//!
//! Negotiation is *incremental* by default: the first iteration routes
//! every net, and later iterations rip up and re-route only the *dirty*
//! nets — those whose current path crosses an over-capacity edge. Clean
//! nets keep both their routes and their occupancy contribution, so each
//! re-route negotiates against the full congestion picture (strictly more
//! context than a fresh full rip-up gives). Net order is fixed by the job
//! list, no randomness is involved, and the A* scratch state is
//! epoch-invalidated rather than reallocated, so results are bit-for-bit
//! reproducible across runs and worker counts. Set
//! [`RouteConfig::incremental`] to `false` for the classic
//! full-rip-up-every-iteration schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BinaryHeap, HashSet};

use vpga_netlist::{CellKind, Library, NetId, Netlist};
use vpga_place::Placement;

/// Recoverable routing failures surfaced by [`try_route`]. The panicking
/// [`route`] entry point is a thin wrapper that aborts on these.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum RouteError {
    /// `channel_capacity` of zero — no net can ever be legal.
    InvalidCapacity,
    /// A net's sink tile was unreachable from its source (disconnected
    /// routing graph).
    Unroutable {
        /// The net that failed.
        net: NetId,
        /// The unreachable sink tile `(col, row)`.
        sink: (usize, usize),
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::InvalidCapacity => write!(f, "channel capacity must be positive"),
            RouteError::Unroutable { net, sink } => {
                write!(f, "net {net} cannot reach sink tile {sink:?}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Router tunables.
#[derive(Clone, Debug)]
pub struct RouteConfig {
    /// Routing tracks per tile boundary, per direction.
    pub channel_capacity: u32,
    /// Maximum negotiation iterations.
    pub max_iterations: usize,
    /// Tile edge length, µm. `None` derives a grid of roughly
    /// `target_tiles` tiles from the die.
    pub tile_size: Option<f64>,
    /// Grid sizing target when `tile_size` is `None`.
    pub target_tiles: usize,
    /// Present-congestion penalty factor.
    pub present_factor: f64,
    /// History penalty increment per overflowed edge per iteration.
    pub history_increment: f64,
    /// Retain the per-net tile paths in the result (costs memory on large
    /// designs; needed for physical hand-off and route inspection).
    pub keep_routes: bool,
    /// Dirty-net negotiation: after the first iteration, rip up and
    /// re-route only nets crossing over-capacity edges (`true`, default).
    /// `false` restores the textbook full rip-up of every net each
    /// iteration.
    pub incremental: bool,
}

impl Default for RouteConfig {
    fn default() -> RouteConfig {
        RouteConfig {
            channel_capacity: 16,
            max_iterations: 8,
            tile_size: None,
            target_tiles: 4096,
            present_factor: 0.6,
            history_increment: 0.4,
            keep_routes: false,
            incremental: true,
        }
    }
}

/// Result of a routing run: per-net wirelengths plus congestion statistics.
#[derive(Clone, Debug)]
pub struct RoutingResult {
    net_length: Vec<f64>,
    total_length: f64,
    overflow_edges: usize,
    iterations_used: usize,
    max_edge_load: u32,
    tile_size: f64,
    grid_dims: (usize, usize),
    nets_routed: usize,
    reroutes_per_iter: Vec<usize>,
    astar_pops_per_iter: Vec<u64>,
    routes: Option<std::collections::HashMap<NetId, Vec<RouteSegment>>>,
}

/// One routed hop between two adjacent `(col, row)` tiles.
pub type RouteSegment = ((usize, usize), (usize, usize));

impl RoutingResult {
    /// Routed wirelength of a net, µm (0 for unrouted or local nets).
    pub fn net_length(&self, net: NetId) -> f64 {
        self.net_length.get(net.index()).copied().unwrap_or(0.0)
    }

    /// Sum of all routed wirelengths, µm.
    pub fn total_length(&self) -> f64 {
        self.total_length
    }

    /// Edges still above capacity after the final iteration (0 = legal).
    pub fn overflow_edges(&self) -> usize {
        self.overflow_edges
    }

    /// Negotiation iterations consumed.
    pub fn iterations_used(&self) -> usize {
        self.iterations_used
    }

    /// Peak edge load observed in the final routing.
    pub fn max_edge_load(&self) -> u32 {
        self.max_edge_load
    }

    /// The tile edge length used, µm.
    pub fn tile_size(&self) -> f64 {
        self.tile_size
    }

    /// The routing-grid dimensions (cols, rows).
    pub fn grid_dims(&self) -> (usize, usize) {
        self.grid_dims
    }

    /// Routable nets (≥2 placed pins spanning ≥2 tiles).
    pub fn nets_routed(&self) -> usize {
        self.nets_routed
    }

    /// Nets (re)routed in each negotiation iteration. The first entry is
    /// always [`RoutingResult::nets_routed`]; with dirty-net negotiation
    /// the later entries shrink to just the congested subset.
    pub fn reroutes_per_iteration(&self) -> &[usize] {
        &self.reroutes_per_iter
    }

    /// Total net routings summed over all iterations — the work the
    /// negotiation actually performed (full rip-up pays
    /// `nets × iterations`).
    pub fn total_reroutes(&self) -> usize {
        self.reroutes_per_iter.iter().sum()
    }

    /// A* heap pops in each negotiation iteration — the search work,
    /// deterministic for a given netlist, placement and config.
    pub fn astar_pops_per_iteration(&self) -> &[u64] {
        &self.astar_pops_per_iter
    }

    /// The routed tile-to-tile segments of a net, if
    /// [`RouteConfig::keep_routes`] was set. Segments are in discovery
    /// order; each is a pair of adjacent `(col, row)` tiles.
    pub fn net_route(&self, net: NetId) -> Option<&[RouteSegment]> {
        self.routes.as_ref()?.get(&net).map(Vec::as_slice)
    }
}

struct Grid {
    cols: usize,
    rows: usize,
    tile: f64,
    x0: f64,
    y0: f64,
}

impl Grid {
    /// Edge indexing: horizontal edges first (between (c,r) and (c+1,r)),
    /// then vertical ones (between (c,r) and (c,r+1)).
    fn num_edges(&self) -> usize {
        (self.cols.saturating_sub(1)) * self.rows + self.cols * (self.rows.saturating_sub(1))
    }

    fn h_edge(&self, c: usize, r: usize) -> usize {
        r * (self.cols - 1) + c
    }

    fn v_edge(&self, c: usize, r: usize) -> usize {
        (self.cols - 1) * self.rows + r * self.cols + c
    }

    /// The two adjacent tiles an edge index connects.
    fn edge_endpoints(&self, edge: usize) -> ((usize, usize), (usize, usize)) {
        let h_count = (self.cols - 1) * self.rows;
        if edge < h_count {
            let r = edge / (self.cols - 1);
            let c = edge % (self.cols - 1);
            ((c, r), (c + 1, r))
        } else {
            let v = edge - h_count;
            let r = v / self.cols;
            let c = v % self.cols;
            ((c, r), (c, r + 1))
        }
    }

    fn tile_of(&self, x: f64, y: f64) -> (usize, usize) {
        let c = (((x - self.x0) / self.tile).floor().max(0.0) as usize).min(self.cols - 1);
        let r = (((y - self.y0) / self.tile).floor().max(0.0) as usize).min(self.rows - 1);
        (c, r)
    }

    /// Flattens the tile adjacency into a CSR [`Adjacency`] with a fixed
    /// neighbor order (east, west, north, south), which decides between
    /// equal-cost parents. Built once per routing run; the search loop
    /// then walks flat arrays instead of allocating a neighbor `Vec` per
    /// tile visit.
    fn adjacency(&self) -> Adjacency {
        let n = self.cols * self.rows;
        let mut off = Vec::with_capacity(n + 1);
        let mut tile: Vec<(u32, u32)> = Vec::with_capacity(4 * n);
        let mut edge: Vec<u32> = Vec::with_capacity(4 * n);
        off.push(0u32);
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c + 1 < self.cols {
                    tile.push((c as u32 + 1, r as u32));
                    edge.push(self.h_edge(c, r) as u32);
                }
                if c > 0 {
                    tile.push((c as u32 - 1, r as u32));
                    edge.push(self.h_edge(c - 1, r) as u32);
                }
                if r + 1 < self.rows {
                    tile.push((c as u32, r as u32 + 1));
                    edge.push(self.v_edge(c, r) as u32);
                }
                if r > 0 {
                    tile.push((c as u32, r as u32 - 1));
                    edge.push(self.v_edge(c, r - 1) as u32);
                }
                off.push(tile.len() as u32);
            }
        }
        Adjacency { off, tile, edge }
    }
}

/// The routing graph's adjacency in CSR form, SoA: row `t` (a flat tile
/// index) spans `off[t]..off[t+1]` of the parallel `tile`/`edge` arrays.
struct Adjacency {
    off: Vec<u32>,
    /// Neighbor tile `(col, row)` per entry.
    tile: Vec<(u32, u32)>,
    /// Crossed edge index per entry.
    edge: Vec<u32>,
}

/// A search frontier entry over flat tile indices. The heap pops the
/// smallest `f = g + h` first; among equal `f` the deeper entry (larger
/// `g`, nearer the sink), then the lower tile index. That is a total
/// order on the entries, so the pop sequence never depends on how
/// `BinaryHeap` breaks ties.
struct HeapEntry {
    f: f64,
    g: f64,
    tile: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `BinaryHeap` is a max-heap: invert `f` and `tile`, keep `g`.
        // `f` and `g` are finite and non-negative, so their bit patterns
        // order like the values and compare as plain integers.
        (other.f.to_bits(), self.g.to_bits(), other.tile).cmp(&(
            self.f.to_bits(),
            other.g.to_bits(),
            self.tile,
        ))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Tiles a net's bounding box is grown by on every side before it bounds
/// that net's searches (VPR's `bb_factor`).
const BBOX_MARGIN: usize = 3;

/// An inclusive tile rectangle `[c0, c1] × [r0, r1]`.
#[derive(Clone, Copy)]
struct TileBox {
    c0: u32,
    c1: u32,
    r0: u32,
    r1: u32,
}

impl TileBox {
    fn contains(&self, (c, r): (u32, u32)) -> bool {
        self.c0 <= c && c <= self.c1 && self.r0 <= r && r <= self.r1
    }
}

/// One tile's search state. `stamp` is `2 * epoch` once the current
/// search reached the tile and `2 * epoch + 1` once it expanded it;
/// `g` and `from` are valid only in those two states.
#[derive(Clone, Copy)]
struct TileState {
    /// Best-known cost from the net's tree.
    g: f64,
    stamp: u64,
    /// Parent tile + incoming edge (meaningless for tree tiles).
    from: (u32, u32),
}

/// Reusable search state: per-tile search records and the current net's
/// tree, all invalidated by bumping an epoch counter instead of clearing
/// — one allocation per routing run, none per search.
struct Scratch {
    tiles: Vec<TileState>,
    /// `tree_mark[t] == net_epoch` ⇔ tile `t` is in the tree of the net
    /// currently being routed.
    tree_mark: Vec<u64>,
    /// The current net's tree tiles in insertion order: every search of
    /// the net starts from all of them at cost 0.
    tree: Vec<u32>,
    /// Search epoch (bumped per A* call).
    epoch: u64,
    /// Tree epoch (bumped per net).
    net_epoch: u64,
    /// The search frontier, cleared by every call.
    heap: BinaryHeap<HeapEntry>,
    /// Heap pops since the counter was last taken.
    pops: u64,
}

impl Scratch {
    fn new(n_tiles: usize) -> Scratch {
        Scratch {
            tiles: vec![
                TileState {
                    g: f64::INFINITY,
                    stamp: 0,
                    from: (0, 0),
                };
                n_tiles
            ],
            tree_mark: vec![0; n_tiles],
            tree: Vec::new(),
            epoch: 0,
            net_epoch: 0,
            heap: BinaryHeap::new(),
            pops: 0,
        }
    }
}

/// PathFinder's edge cost: base 1, plus the present-congestion penalty
/// for the track this net would add, plus the accumulated history. Never
/// below 1, so the unit Manhattan heuristic is admissible.
fn edge_cost(occupancy: u32, history: f64, config: &RouteConfig) -> f64 {
    let over = occupancy as f64 + 1.0 - config.channel_capacity as f64;
    1.0 + config.present_factor * over.max(0.0) + history
}

/// Routes every multi-tile net of the placed netlist.
///
/// # Panics
///
/// Panics if the placement lacks positions for placed library cells (run
/// placement first) or if the config is degenerate.
pub fn route(
    netlist: &Netlist,
    lib: &Library,
    placement: &Placement,
    config: &RouteConfig,
) -> RoutingResult {
    try_route(netlist, lib, placement, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking [`route`]: degenerate configs and unreachable sinks come
/// back as a [`RouteError`] instead of aborting the worker.
///
/// # Errors
///
/// * [`RouteError::InvalidCapacity`] if `config.channel_capacity` is zero,
/// * [`RouteError::Unroutable`] if a sink tile cannot be reached.
pub fn try_route(
    netlist: &Netlist,
    lib: &Library,
    placement: &Placement,
    config: &RouteConfig,
) -> Result<RoutingResult, RouteError> {
    if config.channel_capacity == 0 {
        return Err(RouteError::InvalidCapacity);
    }
    let _ = lib;
    let die = placement.die();
    let tile = config.tile_size.unwrap_or_else(|| {
        (die.area() / config.target_tiles.max(1) as f64)
            .sqrt()
            .max(1e-3)
    });
    let grid = Grid {
        cols: ((die.width() / tile).ceil() as usize).max(1),
        rows: ((die.height() / tile).ceil() as usize).max(1),
        tile,
        x0: die.x0,
        y0: die.y0,
    };
    let idx = |(c, r): (usize, usize)| (r * grid.cols + c) as u32;
    // Collect routable nets: ≥2 placed pins spanning ≥2 tiles; skip
    // constant-driven nets.
    struct Job {
        net: NetId,
        source: (usize, usize),
        /// Distinct sink tiles, nearest to the source first.
        sinks: Vec<(usize, usize)>,
        /// The pins' bounding box grown by [`BBOX_MARGIN`].
        bbox: TileBox,
    }
    let mut jobs: Vec<Job> = Vec::new();
    let mut net_length = vec![0.0f64; netlist.net_capacity()];
    let mut seen_sinks: HashSet<(usize, usize)> = HashSet::new();
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
        let Some((dx, dy)) = placement.position(driver) else {
            continue;
        };
        let source = grid.tile_of(dx, dy);
        // Deduplicate sink tiles in first-occurrence order; set-based
        // membership keeps this O(fanout) instead of O(fanout²).
        seen_sinks.clear();
        let mut sinks: Vec<(usize, usize)> = Vec::new();
        for &(cell, _) in netlist.sinks(net) {
            if let Some((x, y)) = placement.position(cell) {
                let t = grid.tile_of(x, y);
                if t != source && seen_sinks.insert(t) {
                    sinks.push(t);
                }
            }
        }
        if sinks.is_empty() {
            continue;
        }
        sinks.sort_by_key(|&(c, r)| c.abs_diff(source.0) + r.abs_diff(source.1));
        let (mut c0, mut c1, mut r0, mut r1) = (source.0, source.0, source.1, source.1);
        for &(c, r) in &sinks {
            (c0, c1, r0, r1) = (c0.min(c), c1.max(c), r0.min(r), r1.max(r));
        }
        let bbox = TileBox {
            c0: c0.saturating_sub(BBOX_MARGIN) as u32,
            c1: (c1 + BBOX_MARGIN).min(grid.cols - 1) as u32,
            r0: r0.saturating_sub(BBOX_MARGIN) as u32,
            r1: (r1 + BBOX_MARGIN).min(grid.rows - 1) as u32,
        };
        jobs.push(Job {
            net,
            source,
            sinks,
            bbox,
        });
    }
    // Negotiated congestion loop. Iteration 1 routes everything; later
    // iterations rip up only the dirty nets (paths crossing over-capacity
    // edges) unless `config.incremental` is off. `cost` caches
    // `edge_cost` per edge and is refreshed wherever occupancy or
    // history changes.
    let n_edges = grid.num_edges();
    let adj = grid.adjacency();
    let mut history = vec![0.0f64; n_edges];
    let mut occupancy = vec![0u32; n_edges];
    let mut cost = vec![edge_cost(0, 0.0, config); n_edges];
    let mut net_edges: Vec<Vec<usize>> = (0..jobs.len()).map(|_| Vec::new()).collect();
    let mut scratch = Scratch::new(grid.cols * grid.rows);
    let mut own: Vec<usize> = Vec::new();
    let mut dirty: Vec<usize> = (0..jobs.len()).collect();
    let mut reroutes_per_iter: Vec<usize> = Vec::new();
    let mut astar_pops_per_iter: Vec<u64> = Vec::new();
    let mut iterations_used = 0;
    for iter in 0..config.max_iterations.max(1) {
        iterations_used = iter + 1;
        reroutes_per_iter.push(dirty.len());
        // Rip up every dirty net first, then re-route them in job order,
        // so each search negotiates against all retained routes plus the
        // dirty nets already re-routed this pass.
        for &ji in &dirty {
            for &e in &net_edges[ji] {
                occupancy[e] -= 1;
                cost[e] = edge_cost(occupancy[e], history[e], config);
            }
        }
        for &ji in &dirty {
            let job = &jobs[ji];
            scratch.net_epoch += 1;
            scratch.tree.clear();
            scratch.tree.push(idx(job.source));
            scratch.tree_mark[idx(job.source) as usize] = scratch.net_epoch;
            own.clear();
            for &sink in &job.sinks {
                if !astar(
                    &adj,
                    grid.cols,
                    &job.bbox,
                    idx(sink),
                    &cost,
                    &mut scratch,
                    &mut own,
                ) {
                    return Err(RouteError::Unroutable { net: job.net, sink });
                }
            }
            for &e in &own {
                occupancy[e] += 1;
                cost[e] = edge_cost(occupancy[e], history[e], config);
            }
            net_edges[ji].clear();
            net_edges[ji].extend_from_slice(&own);
        }
        astar_pops_per_iter.push(std::mem::take(&mut scratch.pops));
        // Overflow check and history update.
        let mut overflow = 0usize;
        for (e, &occ) in occupancy.iter().enumerate() {
            if occ > config.channel_capacity {
                overflow += 1;
                history[e] += config.history_increment * (occ - config.channel_capacity) as f64;
                cost[e] = edge_cost(occ, history[e], config);
            }
        }
        if overflow == 0 {
            break;
        }
        if config.incremental {
            dirty = (0..jobs.len())
                .filter(|&ji| {
                    net_edges[ji]
                        .iter()
                        .any(|&e| occupancy[e] > config.channel_capacity)
                })
                .collect();
            if dirty.is_empty() {
                break;
            }
        } else {
            dirty = (0..jobs.len()).collect();
        }
    }
    // Final statistics.
    let mut total = 0.0;
    let mut routes = config.keep_routes.then(std::collections::HashMap::new);
    for (job, edges) in jobs.iter().zip(&net_edges) {
        let len = edges.len() as f64 * grid.tile;
        net_length[job.net.index()] = len;
        total += len;
        if let Some(routes) = routes.as_mut() {
            let segments: Vec<((usize, usize), (usize, usize))> =
                edges.iter().map(|&e| grid.edge_endpoints(e)).collect();
            routes.insert(job.net, segments);
        }
    }
    let overflow_edges = occupancy
        .iter()
        .filter(|&&o| o > config.channel_capacity)
        .count();
    Ok(RoutingResult {
        net_length,
        total_length: total,
        overflow_edges,
        iterations_used,
        max_edge_load: occupancy.iter().copied().max().unwrap_or(0),
        tile_size: grid.tile,
        grid_dims: (grid.cols, grid.rows),
        nets_routed: jobs.len(),
        reroutes_per_iter,
        astar_pops_per_iter,
        routes,
    })
}

/// Multi-source A* from the current net's whole tree (`scratch.tree`,
/// every tile at cost 0) to `sink`, confined to `bbox`. Appends the
/// path's edges to `own` and its tiles to the tree. Every edge costs at
/// least 1, so the Manhattan distance to the sink is a consistent
/// heuristic and each tile is expanded at most once. A sink already in
/// the tree costs nothing. Returns `false` if the sink was unreachable
/// (the tree is left unchanged in that case).
fn astar(
    adj: &Adjacency,
    cols: usize,
    bbox: &TileBox,
    sink: u32,
    cost: &[f64],
    s: &mut Scratch,
    own: &mut Vec<usize>,
) -> bool {
    if s.tree_mark[sink as usize] == s.net_epoch {
        return true;
    }
    s.epoch += 1;
    let (seen, closed) = (2 * s.epoch, 2 * s.epoch + 1);
    let (sc, sr) = (sink as usize % cols, sink as usize / cols);
    let h = |c: usize, r: usize| (c.abs_diff(sc) + r.abs_diff(sr)) as f64;
    // Heapify the seeds in one O(tree) pass rather than pushing each.
    let mut seeds = std::mem::take(&mut s.heap).into_vec();
    seeds.clear();
    for &t in &s.tree {
        let ti = t as usize;
        s.tiles[ti].g = 0.0;
        s.tiles[ti].stamp = seen;
        seeds.push(HeapEntry {
            f: h(ti % cols, ti / cols),
            g: 0.0,
            tile: t,
        });
    }
    s.heap = BinaryHeap::from(seeds);
    let mut reached = false;
    while let Some(entry) = s.heap.pop() {
        s.pops += 1;
        let t = entry.tile as usize;
        if s.tiles[t].stamp == closed {
            continue;
        }
        s.tiles[t].stamp = closed;
        if entry.tile == sink {
            reached = true;
            break;
        }
        for a in adj.off[t] as usize..adj.off[t + 1] as usize {
            let (nc, nr) = adj.tile[a];
            if !bbox.contains((nc, nr)) {
                continue;
            }
            let n = nr as usize * cols + nc as usize;
            let state = &mut s.tiles[n];
            if state.stamp == closed {
                continue;
            }
            let g = entry.g + cost[adj.edge[a] as usize];
            if state.stamp != seen || g < state.g {
                *state = TileState {
                    g,
                    stamp: seen,
                    from: (entry.tile, adj.edge[a]),
                };
                s.heap.push(HeapEntry {
                    f: g + h(nc as usize, nr as usize),
                    g,
                    tile: n as u32,
                });
            }
        }
    }
    if !reached {
        return false;
    }
    // Walk back to the first tree tile; every tile on the way is new to
    // the tree, so every edge is too.
    let mut cur = sink as usize;
    while s.tree_mark[cur] != s.net_epoch {
        s.tree_mark[cur] = s.net_epoch;
        s.tree.push(cur as u32);
        let (prev, edge) = s.tiles[cur].from;
        own.push(edge as usize);
        cur = prev as usize;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpga_netlist::library::generic;
    use vpga_place::PlaceConfig;

    fn routed_chain(n_cells: usize, cfg: &RouteConfig) -> (Netlist, RoutingResult) {
        let lib = generic::library();
        let mut nl = Netlist::new("chain");
        let mut cur = nl.add_input("a");
        for i in 0..n_cells {
            cur = nl
                .add_lib_cell(format!("i{i}"), &lib, "INV", &[cur])
                .unwrap();
        }
        nl.add_output("y", cur);
        let p = vpga_place::place(&nl, &lib, &PlaceConfig::default());
        let r = route(&nl, &lib, &p, cfg);
        (nl, r)
    }

    #[test]
    fn routes_are_produced_and_legal() {
        let (nl, r) = routed_chain(30, &RouteConfig::default());
        assert_eq!(r.overflow_edges(), 0);
        assert!(r.total_length() > 0.0);
        // Each inter-tile net has positive length.
        let lengths: Vec<f64> = nl.nets().map(|n| r.net_length(n)).collect();
        assert!(lengths.iter().any(|&l| l > 0.0));
    }

    #[test]
    fn manhattan_lower_bound_holds() {
        // A single 2-pin net: routed length ≥ tile-quantized manhattan
        // distance between the endpoints.
        let lib = generic::library();
        let mut nl = Netlist::new("pair");
        let a = nl.add_input("a");
        let g = nl.add_lib_cell("g", &lib, "INV", &[a]).unwrap();
        nl.add_output("y", g);
        let mut p = vpga_place::place(&nl, &lib, &PlaceConfig::default());
        let gc = nl.cell_by_name("g").unwrap();
        let die = p.die();
        p.set_position(gc, die.x1 - 0.01, die.y1 - 0.01);
        let cfg = RouteConfig {
            tile_size: Some(die.width() / 8.0),
            ..RouteConfig::default()
        };
        let r = route(&nl, &lib, &p, &cfg);
        let a_net = nl.cell(nl.inputs()[0]).unwrap().output().unwrap();
        let (ax, ay) = p.position(nl.inputs()[0]).unwrap();
        let (gx, gy) = p.position(gc).unwrap();
        let manhattan = (ax - gx).abs() + (ay - gy).abs();
        assert!(
            r.net_length(a_net) + 2.0 * r.tile_size() >= manhattan,
            "routed {} vs manhattan {}",
            r.net_length(a_net),
            manhattan
        );
    }

    /// A deliberately congested instance: one input fanning out to many
    /// cells over a coarse grid with capacity 1.
    fn congested() -> (Netlist, Placement, RouteConfig) {
        let lib = generic::library();
        let mut nl = Netlist::new("cong");
        let a = nl.add_input("a");
        for i in 0..6 {
            let g = nl.add_lib_cell(format!("g{i}"), &lib, "INV", &[a]).unwrap();
            nl.add_output(format!("y{i}"), g);
        }
        let p = vpga_place::place(&nl, &lib, &PlaceConfig::default());
        let tight = RouteConfig {
            channel_capacity: 1,
            max_iterations: 12,
            tile_size: Some(p.die().width() / 6.0),
            ..RouteConfig::default()
        };
        (nl, p, tight)
    }

    #[test]
    fn congestion_negotiation_resolves_conflicts() {
        // Many nets forced through a 2-tile-wide corridor with capacity 1:
        // the router must spread or accept history-guided detours and end
        // legal (or at least reduce overflow drastically).
        let (nl, p, tight) = congested();
        let lib = generic::library();
        let r = route(&nl, &lib, &p, &tight);
        assert!(
            r.overflow_edges() <= 1,
            "negotiation left {} overflows",
            r.overflow_edges()
        );
    }

    #[test]
    fn local_nets_have_zero_length() {
        let lib = generic::library();
        let mut nl = Netlist::new("local");
        let a = nl.add_input("a");
        let g1 = nl.add_lib_cell("g1", &lib, "INV", &[a]).unwrap();
        let g2 = nl.add_lib_cell("g2", &lib, "INV", &[g1]).unwrap();
        nl.add_output("y", g2);
        let mut p = vpga_place::place(&nl, &lib, &PlaceConfig::default());
        // Co-locate the two inverters: their net is intra-tile.
        let c1 = nl.cell_by_name("g1").unwrap();
        let c2 = nl.cell_by_name("g2").unwrap();
        p.set_position(c1, 1.0, 1.0);
        p.set_position(c2, 1.0, 1.0);
        let cfg = RouteConfig {
            tile_size: Some(p.die().width()),
            ..RouteConfig::default()
        };
        let r = route(&nl, &lib, &p, &cfg);
        assert_eq!(r.net_length(g1), 0.0);
    }

    #[test]
    fn capacity_one_grid_reports_peak_load() {
        let (_, r) = routed_chain(10, &RouteConfig::default());
        assert!(r.max_edge_load() >= 1);
        assert!(r.iterations_used() >= 1);
        assert!(r.tile_size() > 0.0);
    }

    /// When iteration 1 is already legal no rip-up happens, so the
    /// dirty-net and full-rip-up schedules are the same single pass and
    /// must agree bit-for-bit.
    #[test]
    fn incremental_matches_full_ripup_when_uncongested() {
        let lib = generic::library();
        let (nl, r_inc) = routed_chain(30, &RouteConfig::default());
        let p = vpga_place::place(&nl, &lib, &PlaceConfig::default());
        let full_ripup = RouteConfig {
            incremental: false,
            ..RouteConfig::default()
        };
        let r_full = route(&nl, &lib, &p, &full_ripup);
        assert_eq!(r_inc.overflow_edges(), r_full.overflow_edges());
        assert_eq!(
            r_inc.total_length().to_bits(),
            r_full.total_length().to_bits(),
            "uncongested routes must be identical"
        );
        assert_eq!(r_inc.iterations_used(), 1);
        // Accounting: one full pass, nothing re-routed.
        assert_eq!(r_inc.reroutes_per_iteration(), &[r_inc.nets_routed()]);
    }

    /// Under real congestion both schedules must converge to the same
    /// overflow, with comparable wirelength, while the dirty-net schedule
    /// does strictly less re-routing work.
    #[test]
    fn incremental_converges_like_full_ripup_under_congestion() {
        let (nl, p, tight) = congested();
        let lib = generic::library();
        let r_inc = route(&nl, &lib, &p, &tight);
        let full = RouteConfig {
            incremental: false,
            ..tight.clone()
        };
        let r_full = route(&nl, &lib, &p, &full);
        assert_eq!(
            r_inc.overflow_edges(),
            r_full.overflow_edges(),
            "dirty-net negotiation must reach the same legality"
        );
        let (a, b) = (r_inc.total_length(), r_full.total_length());
        assert!(
            (a - b).abs() <= 0.25 * b.max(1.0),
            "wirelengths diverged: incremental {a} vs full {b}"
        );
        if r_inc.iterations_used() > 1 {
            assert!(
                r_inc.total_reroutes() < r_full.total_reroutes(),
                "dirty-net should re-route fewer nets: {} vs {}",
                r_inc.total_reroutes(),
                r_full.total_reroutes()
            );
        }
    }

    /// On an uncongested grid every edge costs the same, so the
    /// multi-source search joins each sink to the tree at its Manhattan
    /// distance from the nearest tile already in the tree, sinks taken
    /// nearest-first from the driver.
    #[test]
    fn each_sink_joins_the_tree_at_its_manhattan_distance() {
        let lib = generic::library();
        let mut nl = Netlist::new("fanout");
        let a = nl.add_input("a");
        // Sink tiles at distinct distances from the driver tile (1, 1).
        let sinks = [
            (10, 2),
            (2, 9),
            (9, 9),
            (5, 5),
            (11, 6),
            (3, 11),
            (7, 1),
            (6, 10),
        ];
        let gates: Vec<_> = (0..sinks.len())
            .map(|i| {
                let g = nl.add_lib_cell(format!("g{i}"), &lib, "INV", &[a]).unwrap();
                (g, nl.add_output(format!("y{i}"), g))
            })
            .collect();
        let mut p = vpga_place::place(&nl, &lib, &PlaceConfig::default());
        let die = p.die();
        let tile = die.width().min(die.height()) / 12.0;
        let centre = |(c, r): (usize, usize)| {
            (
                die.x0 + (c as f64 + 0.5) * tile,
                die.y0 + (r as f64 + 0.5) * tile,
            )
        };
        let (x, y) = centre((1, 1));
        p.set_position(nl.inputs()[0], x, y);
        for (&(g, out), &t) in gates.iter().zip(&sinks) {
            let (x, y) = centre(t);
            p.set_position(nl.driver(g).unwrap(), x, y);
            p.set_position(out, x, y);
        }
        let cfg = RouteConfig {
            tile_size: Some(tile),
            keep_routes: true,
            ..RouteConfig::default()
        };
        let r = route(&nl, &lib, &p, &cfg);
        assert_eq!(r.overflow_edges(), 0);
        let segments = r.net_route(a).expect("the fanout net is routed");
        // Replay the tree sink by sink: each sink's segments lead from it
        // back to the tree, one hop per tile.
        let mut order = sinks.to_vec();
        order.sort_by_key(|&(c, r)| c.abs_diff(1) + r.abs_diff(1));
        let mut tree = vec![(1, 1)];
        let mut next = segments.iter();
        for sink in order {
            let nearest = tree
                .iter()
                .map(|&(c, r): &(usize, usize)| c.abs_diff(sink.0) + r.abs_diff(sink.1))
                .min()
                .unwrap();
            let mut cur = sink;
            let mut added = 0;
            while !tree.contains(&cur) {
                let &(u, v) = next.next().expect("a segment per added hop");
                assert!(
                    u == cur || v == cur,
                    "hop {:?} does not leave {cur:?}",
                    (u, v)
                );
                tree.push(cur);
                cur = if u == cur { v } else { u };
                added += 1;
            }
            assert_eq!(added, nearest, "sink {sink:?}");
        }
        assert!(next.next().is_none(), "no segment beyond the sinks' paths");
    }

    #[test]
    fn astar_pops_repeat_exactly() {
        let (nl, p, tight) = congested();
        let lib = generic::library();
        let r1 = route(&nl, &lib, &p, &tight);
        let r2 = route(&nl, &lib, &p, &tight);
        assert_eq!(r1.astar_pops_per_iteration().len(), r1.iterations_used());
        assert!(r1.astar_pops_per_iteration()[0] > 0);
        assert_eq!(r1.astar_pops_per_iteration(), r2.astar_pops_per_iteration());
    }

    #[test]
    fn routing_is_deterministic_across_runs() {
        let (nl, p, tight) = congested();
        let lib = generic::library();
        let r1 = route(&nl, &lib, &p, &tight);
        let r2 = route(&nl, &lib, &p, &tight);
        assert_eq!(r1.total_length().to_bits(), r2.total_length().to_bits());
        assert_eq!(r1.overflow_edges(), r2.overflow_edges());
        assert_eq!(r1.reroutes_per_iteration(), r2.reroutes_per_iteration());
        for net in nl.nets() {
            assert_eq!(r1.net_length(net).to_bits(), r2.net_length(net).to_bits());
        }
    }
}

#[cfg(test)]
mod route_extraction_tests {
    use super::*;
    use vpga_netlist::library::generic;
    use vpga_place::PlaceConfig;

    #[test]
    fn kept_routes_are_connected_and_length_consistent() {
        let lib = generic::library();
        let mut nl = Netlist::new("paths");
        let a = nl.add_input("a");
        let mut cur = a;
        for i in 0..8 {
            cur = nl
                .add_lib_cell(format!("i{i}"), &lib, "INV", &[cur])
                .unwrap();
        }
        nl.add_output("y", cur);
        let p = vpga_place::place(&nl, &lib, &PlaceConfig::default());
        let cfg = RouteConfig {
            keep_routes: true,
            ..RouteConfig::default()
        };
        let r = route(&nl, &lib, &p, &cfg);
        let (cols, rows) = r.grid_dims();
        assert!(cols > 0 && rows > 0);
        let mut seen_any = false;
        for net in nl.nets() {
            let Some(segments) = r.net_route(net) else {
                continue;
            };
            seen_any = true;
            // Segment count matches the reported length.
            let expect = segments.len() as f64 * r.tile_size();
            assert!((r.net_length(net) - expect).abs() < 1e-9);
            // Every segment joins adjacent in-grid tiles.
            for &((c0, r0), (c1, r1)) in segments {
                assert!(c0 < cols && c1 < cols && r0 < rows && r1 < rows);
                assert_eq!(c0.abs_diff(c1) + r0.abs_diff(r1), 1);
            }
        }
        assert!(seen_any, "at least one net kept a route");
    }

    #[test]
    fn routes_are_not_kept_by_default() {
        let lib = generic::library();
        let mut nl = Netlist::new("nopaths");
        let a = nl.add_input("a");
        let g = nl.add_lib_cell("g", &lib, "INV", &[a]).unwrap();
        nl.add_output("y", g);
        let p = vpga_place::place(&nl, &lib, &PlaceConfig::default());
        let r = route(&nl, &lib, &p, &RouteConfig::default());
        assert!(r.net_route(g).is_none());
    }
}
