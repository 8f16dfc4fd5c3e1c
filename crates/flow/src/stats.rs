//! Per-stage instrumentation for the implementation flow.
//!
//! Every pipeline stage (synthesis, compaction, placement, physical
//! synthesis, packing, PLB-swap optimization, routing, STA) records a
//! [`StageStats`]: wall time, netlist size at the end of the stage, the
//! optimizer's cost before/after, and a table of [`Counter`]s — mover and
//! bounding-box counts for the annealers, re-route and search work for the
//! router, timer, cache and back-end shortcut counts. Two things vary
//! between runs of the same job: wall time, and the cache counters, which
//! depend on what the daemon's artifact cache held. Neither enters
//! [`StageStats::fold_fingerprint`]; everything it folds is bit-identical
//! across runs and across worker counts, which the determinism tests pin.

use std::cell::Cell;
use std::fmt;
use std::time::Duration;

thread_local! {
    /// The stage the current worker thread is executing, for panic
    /// attribution: the pipeline notes each stage as it starts, and the
    /// executor reads the note when `catch_unwind` traps a worker panic.
    static CURRENT_STAGE: Cell<Option<StageId>> = const { Cell::new(None) };
}

/// Records `stage` as the one the calling thread is executing.
pub(crate) fn note_stage(stage: StageId) {
    CURRENT_STAGE.with(|s| s.set(Some(stage)));
}

/// Clears the calling thread's stage note (job boundary).
pub(crate) fn clear_stage() {
    CURRENT_STAGE.with(|s| s.set(None));
}

/// The stage the calling thread last noted, if any.
pub(crate) fn current_stage() -> Option<StageId> {
    CURRENT_STAGE.with(Cell::get)
}

/// A stage of the Figure 6 flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StageId {
    /// Technology mapping onto the component-cell library.
    Synth,
    /// Regularity-driven logic compaction.
    Compact,
    /// Timing-driven annealing placement (including the criticality
    /// refinement).
    Place,
    /// Physical synthesis: buffer insertion plus legalizing refinement.
    PhysSynth,
    /// Recursive-quadrisection packing into the PLB array (flow b).
    Pack,
    /// Whole-PLB swap optimization after packing (flow b).
    Swap,
    /// Global routing.
    Route,
    /// Static timing analysis (plus the power estimate).
    Timing,
}

impl StageId {
    /// Every stage, in pipeline order.
    pub const ALL: [StageId; 8] = [
        StageId::Synth,
        StageId::Compact,
        StageId::Place,
        StageId::PhysSynth,
        StageId::Pack,
        StageId::Swap,
        StageId::Route,
        StageId::Timing,
    ];

    /// The stage's display name.
    pub fn name(self) -> &'static str {
        match self {
            StageId::Synth => "synth",
            StageId::Compact => "compact",
            StageId::Place => "place",
            StageId::PhysSynth => "physsynth",
            StageId::Pack => "pack",
            StageId::Swap => "swap",
            StageId::Route => "route",
            StageId::Timing => "sta",
        }
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Marks a [`Counter`] that [`StageStats::fold_fingerprint`] mixes in.
const FOLDED: bool = true;
/// Marks a [`Counter`] that `--stats` shows but the fingerprint ignores.
const SHOWN: bool = false;

/// Declares [`Counter`] from one table: variant, display name, and
/// whether the fingerprint folds it. Adding a counter is one line here.
macro_rules! counters {
    ($($(#[doc = $doc:literal])* $variant:ident = $name:literal, $folded:ident;)*) => {
        /// A per-stage work counter, stored in [`StageStats`].
        ///
        /// Folded counters pin *which* result a stage produced: the
        /// annealers' mover and bounding-box counts, the router's re-route
        /// work, and consumed retries. Shown-only counters record *how* the
        /// numbers were computed — the timer's strategy, cache hits,
        /// bit-identical back-end shortcuts, and the router's iteration and
        /// search effort (whose results the routed lengths already pin) —
        /// so they stay out of the fingerprint: a cache-served job, or a
        /// timer-strategy change, must not move a published fingerprint.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Counter {
            $($(#[doc = $doc])* $variant,)*
        }

        impl Counter {
            /// Every counter, in declaration order: the fingerprint fold,
            /// `Display`, and the checkpoint codec all walk this order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant),*];

            /// How many counters there are.
            pub const COUNT: usize = Counter::ALL.len();

            /// The counter's `--stats` name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }

            /// Whether [`StageStats::fold_fingerprint`] mixes the counter in.
            pub fn folded(self) -> bool {
                match self {
                    $(Counter::$variant => $folded,)*
                }
            }
        }
    };
}

// The fold walks this table in order: reordering or re-flagging a folded
// counter moves every published fingerprint (pinned by
// `fold_of_fully_populated_record_is_pinned`), so new counters go last.
counters! {
    /// Move/relocation attempts, for annealing or relocating stages.
    MovesAttempted = "moves_attempted", FOLDED;
    /// Accepted moves/relocations.
    MovesAccepted = "moves_accepted", FOLDED;
    /// O(1) incremental bounding-box updates (annealing stages).
    BboxIncremental = "bbox_incremental", FOLDED;
    /// Full bounding-box rescans forced by a boundary pin moving inward.
    BboxFull = "bbox_full", FOLDED;
    /// Net routings summed over all negotiation iterations (routing
    /// stages); full rip-up pays `nets × iterations`, dirty-net far less.
    NetsRerouted = "nets_rerouted", FOLDED;
    /// Routable nets the stage handled (routing stages).
    NetsTotal = "nets_total", FOLDED;
    /// Recovery retries the stage consumed before succeeding (stochastic
    /// stages under `--retries`; folded so reseeded runs fingerprint
    /// differently from first-try runs).
    Retries = "retries", FOLDED;
    /// Full (from-scratch) STA passes the stage ran.
    StaFull = "sta_full", SHOWN;
    /// Event-driven incremental STA updates/queries the stage ran.
    StaIncremental = "sta_incremental", SHOWN;
    /// Timing-graph nodes the incremental updates recomputed (full passes
    /// do not count here).
    StaNodesTouched = "sta_nodes_touched", SHOWN;
    /// Stage results served from the shared artifact cache instead of
    /// recomputed (daemon mode; zero in batch runs).
    CacheHits = "cache_hits", SHOWN;
    /// Stage results the cache had to compute (or recompute after an
    /// eviction).
    CacheMisses = "cache_misses", SHOWN;
    /// Cache entries evicted under byte pressure while this job
    /// published its artifacts.
    CacheEvicted = "cache_evicted", SHOWN;
    /// Leaf regions whose previous-pass seating the §3.1 repack loop
    /// replayed verbatim (packing stages; zero for single-pass packs).
    RepackRegionsReused = "repack_regions_reused", SHOWN;
    /// Leaf regions the repack loop re-seated because their item
    /// membership changed.
    RepackSubtreesDirty = "repack_subtrees_dirty", SHOWN;
    /// Swap evaluations answered by an incremental bounding-box update
    /// (swap stages; zero when the direct engine ran).
    SwapDeltaEvals = "swap_delta_evals", SHOWN;
    /// Swap evaluations that fell back to a full net-pin rescan.
    SwapBboxRescans = "swap_bbox_rescans", SHOWN;
    /// PathFinder negotiation iterations the router ran (routing stages).
    RouteIterations = "route_iterations", SHOWN;
    /// A* heap pops summed over every negotiation iteration.
    AstarPops = "astar_pops", SHOWN;
}

/// One stage's record: timing, sizes, cost movement, and work counters.
#[derive(Clone, Debug, PartialEq)]
pub struct StageStats {
    /// Which stage this describes.
    pub stage: StageId,
    /// Wall-clock time spent in the stage (non-deterministic).
    pub wall: Duration,
    /// Library-cell count at the end of the stage.
    pub cells: usize,
    /// Net count at the end of the stage.
    pub nets: usize,
    /// Optimizer cost entering and leaving the stage, if the stage
    /// optimizes one.
    pub cost: Option<(f64, f64)>,
    /// One slot per [`Counter`], indexed by declaration order; 0 means
    /// the stage did not record it.
    counters: [u64; Counter::COUNT],
}

impl StageStats {
    /// A record with sizes only; cost unset and every counter zero.
    pub fn new(stage: StageId, wall: Duration, cells: usize, nets: usize) -> StageStats {
        StageStats {
            stage,
            wall,
            cells,
            nets,
            cost: None,
            counters: [0; Counter::COUNT],
        }
    }

    /// Attaches before/after optimizer cost.
    #[must_use]
    pub fn with_cost(mut self, before: f64, after: f64) -> StageStats {
        self.cost = Some((before, after));
        self
    }

    /// Sets `counter` to `value` (0 leaves it unrecorded).
    #[must_use]
    pub fn with(mut self, counter: Counter, value: u64) -> StageStats {
        self.counters[counter as usize] = value;
        self
    }

    /// The value of `counter`; 0 when the stage did not record it.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Folds every deterministic field into `h` with an FNV-1a step:
    /// stage, sizes, the cost pair, then each [`Counter::folded`] counter
    /// in declaration order. Wall time and the shown-only counters stay
    /// out, so result fingerprints pin the instrumentation that describes
    /// *what* was computed and nothing that describes *how*.
    pub fn fold_fingerprint(&self, h: &mut u64) {
        let mut mix = |v: u64| {
            *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.stage.name().len() as u64);
        for b in self.stage.name().bytes() {
            mix(u64::from(b));
        }
        mix(self.cells as u64);
        mix(self.nets as u64);
        let (before, after) = self.cost.unwrap_or((0.0, 0.0));
        mix(before.to_bits());
        mix(after.to_bits());
        for &c in Counter::ALL.iter().filter(|c| c.folded()) {
            mix(self.get(c));
        }
    }
}

impl fmt::Display for StageStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:10} {:>9.1?} ms  {:>6} cells {:>6} nets",
            self.stage.name(),
            self.wall.as_secs_f64() * 1e3,
            self.cells,
            self.nets
        )?;
        if let Some((b, a)) = self.cost {
            write!(f, "  cost {b:>12.1} → {a:>12.1}")?;
        }
        for &c in Counter::ALL {
            let v = self.get(c);
            if v != 0 {
                write!(f, "  {}={v}", c.name())?;
            }
        }
        Ok(())
    }
}

/// Renders a stage list as an indented block.
pub fn render_stages(stages: &[StageStats], indent: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut total = Duration::ZERO;
    for s in stages {
        let _ = writeln!(out, "{indent}{s}");
        total += s.wall;
    }
    let _ = writeln!(
        out,
        "{indent}{:10} {:>9.1} ms",
        "total",
        total.as_secs_f64() * 1e3
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    fn fold(s: &StageStats) -> u64 {
        let mut h = FNV_OFFSET;
        s.fold_fingerprint(&mut h);
        h
    }

    #[test]
    fn fingerprint_ignores_wall_time() {
        let a = StageStats::new(StageId::Place, Duration::from_millis(5), 10, 20)
            .with_cost(100.0, 50.0)
            .with(Counter::MovesAttempted, 1000)
            .with(Counter::MovesAccepted, 440);
        let b = StageStats {
            wall: Duration::from_millis(999),
            ..a.clone()
        };
        assert_eq!(fold(&a), fold(&b));
    }

    /// Each counter either refingerprints (folded) or only shows
    /// (`--stats`), renders as `name=value` when set, and is absent at 0.
    #[test]
    fn every_counter_folds_or_only_shows_as_declared() {
        let base = StageStats::new(StageId::Route, Duration::ZERO, 10, 20).with_cost(9.0, 7.0);
        let folded: Vec<&str> = Counter::ALL
            .iter()
            .filter(|c| c.folded())
            .map(|c| c.name())
            .collect();
        assert_eq!(
            folded,
            [
                "moves_attempted",
                "moves_accepted",
                "bbox_incremental",
                "bbox_full",
                "nets_rerouted",
                "nets_total",
                "retries"
            ]
        );
        for &c in Counter::ALL {
            let set = base.clone().with(c, 42);
            assert_eq!(set.get(c), 42);
            assert_eq!(
                fold(&set) != fold(&base),
                c.folded(),
                "{}: fold must move iff the counter is folded",
                c.name()
            );
            assert!(
                set.to_string().contains(&format!("  {}=42", c.name())),
                "{set}"
            );
            assert!(!base.to_string().contains(c.name()), "{base}");
            assert_eq!(base.clone().with(c, 0), base, "{}", c.name());
        }
    }

    /// Pins the fold of a record with every counter set, as computed by
    /// the per-field record this table replaced: any change to the
    /// folded set or its order moves every published fingerprint.
    #[test]
    fn fold_of_fully_populated_record_is_pinned() {
        let s = Counter::ALL.iter().zip(1..).fold(
            StageStats::new(StageId::Route, Duration::from_millis(3), 10, 20).with_cost(3.5, 1.25),
            |s, (&c, v)| s.with(c, v),
        );
        assert_eq!(fold(&s), 0x14da_2484_ff51_fcd1);
    }

    #[test]
    fn render_includes_every_stage_and_total() {
        let stages = vec![
            StageStats::new(StageId::Synth, Duration::from_millis(1), 5, 6),
            StageStats::new(StageId::Route, Duration::from_millis(2), 5, 6),
        ];
        let s = render_stages(&stages, "  ");
        assert!(s.contains("synth"));
        assert!(s.contains("route"));
        assert!(s.contains("total"));
    }
}
