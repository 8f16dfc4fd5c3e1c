//! Table 1 / Table 2 assembly and the derived §3.2 claims.

use vpga_designs::{DesignParams, NamedDesign};

use crate::exec::{Executor, FlowMatrix};
use crate::pipeline::{DesignOutcome, FlowResult};
use crate::stats::render_stages;
use crate::{FlowConfig, FlowError, FlowVariant};

/// One failed cell of the evaluation matrix: which job died and why.
/// The error is kept rendered so the matrix stays cheap to clone.
#[derive(Clone, Debug)]
pub struct CellFailure {
    /// Design display name.
    pub design: String,
    /// Architecture name.
    pub arch: String,
    /// Flow variant of the failed cell.
    pub variant: FlowVariant,
    /// The rendered [`FlowError`].
    pub error: String,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} ({}): {}",
            self.design, self.arch, self.variant, self.error
        )
    }
}

/// The generated-netlist name a design's outcomes are keyed by (also the
/// first path component of job context strings).
fn design_key(design: NamedDesign) -> &'static str {
    design.key()
}

/// A table cell's value, suffixed with `!` when its route is illegal.
fn cell(value: String, result: &FlowResult) -> String {
    if result.route_overflow > 0 {
        value + "!"
    } else {
        value
    }
}

/// One `! design/arch flow x: N overflowed edges` line per illegal route
/// among `outcomes`, in table order; empty when every route is legal.
fn illegal_lines<'a>(outcomes: impl IntoIterator<Item = &'a DesignOutcome>) -> String {
    let mut s = String::new();
    for o in outcomes {
        for r in [&o.flow_a, &o.flow_b] {
            if r.route_overflow > 0 {
                s.push_str(&format!(
                    "! {}/{} {}: {} overflowed edges\n",
                    o.design, o.arch, r.variant, r.route_overflow
                ));
            }
        }
    }
    s
}

/// All outcomes for the 4 designs × 2 architectures evaluation matrix,
/// plus any cells that failed (a [`Matrix::run_resilient`] matrix keeps
/// running when a cell panics or errors; the strict constructors return
/// the first error instead).
#[derive(Clone, Debug)]
pub struct Matrix {
    outcomes: Vec<DesignOutcome>,
    failures: Vec<CellFailure>,
}

impl Matrix {
    /// Runs the full evaluation matrix at the given design sizes,
    /// serially. Identical (bit for bit) to [`Matrix::run_parallel`] with
    /// any worker count.
    ///
    /// # Errors
    ///
    /// Propagates the first [`FlowError`].
    pub fn run(params: &DesignParams, config: &FlowConfig) -> Result<Matrix, FlowError> {
        Matrix::run_parallel(params, config, 1)
    }

    /// Runs the full evaluation matrix across `jobs` workers (`0` = one
    /// per available CPU). Every flow job derives its randomness from the
    /// seeds in `config` alone, so the outcomes are bit-identical to a
    /// serial run — only the wall-time fields in the stage records differ.
    ///
    /// # Errors
    ///
    /// Propagates the first [`FlowError`] in job order.
    pub fn run_parallel(
        params: &DesignParams,
        config: &FlowConfig,
        jobs: usize,
    ) -> Result<Matrix, FlowError> {
        let executor = Executor::new(jobs);
        let results = FlowMatrix::full().run(params, config, &executor)?;
        // `FlowMatrix::full` lists each (design, arch) pair's variant A
        // immediately followed by its variant B.
        let mut outcomes = Vec::new();
        let mut iter = results.into_iter();
        while let Some(a) = iter.next() {
            let b = iter.next().expect("full matrix pairs A with B");
            debug_assert_eq!(a.job.variant, FlowVariant::A);
            debug_assert_eq!(b.job.variant, FlowVariant::B);
            outcomes.push(DesignOutcome {
                design: a.design,
                arch: a.job.arch.name().to_owned(),
                gates_nand2: a.gates_nand2,
                compaction: a.compaction,
                front_stages: a.front_stages,
                flow_a: a.result,
                flow_b: b.result,
            });
        }
        Ok(Matrix {
            outcomes,
            failures: Vec::new(),
        })
    }

    /// Runs the full evaluation matrix across `jobs` workers, keeping
    /// going when cells fail: a panicking or erroring job becomes a
    /// [`CellFailure`] (and drops its (design, arch) pair from the
    /// tables), while every healthy cell completes bit-identical to a
    /// fully healthy run. This is the `matrix` command's default
    /// constructor; [`Matrix::run_parallel`] is the strict form.
    pub fn run_resilient(params: &DesignParams, config: &FlowConfig, jobs: usize) -> Matrix {
        Matrix::run_resilient_checkpointed(params, config, jobs, None)
    }

    /// [`Matrix::run_resilient`] with optional disk checkpointing: with a
    /// [`CheckpointStore`], every completed stage persists, and a
    /// resuming store restores completed work instead of recomputing it —
    /// bit-identical either way (a resumed matrix fingerprints the same
    /// as an uninterrupted one).
    pub fn run_resilient_checkpointed(
        params: &DesignParams,
        config: &FlowConfig,
        jobs: usize,
        checkpoints: Option<&crate::CheckpointStore>,
    ) -> Matrix {
        Matrix::run_resilient_filtered(params, config, jobs, checkpoints, None)
    }

    /// [`Matrix::run_resilient_checkpointed`] restricted to the cells
    /// whose `design/arch` context contains the `only` substring (both
    /// flow variants of a matching pair run, so outcomes stay pairable).
    /// `None` runs the full matrix. A filtered matrix fingerprints over
    /// its own outcomes only, so compare like against like.
    pub fn run_resilient_filtered(
        params: &DesignParams,
        config: &FlowConfig,
        jobs: usize,
        checkpoints: Option<&crate::CheckpointStore>,
        only: Option<&str>,
    ) -> Matrix {
        Matrix::run_resilient_with_archs(
            params,
            config,
            jobs,
            checkpoints,
            only,
            &[
                vpga_core::PlbArchitecture::granular(),
                vpga_core::PlbArchitecture::lut_based(),
            ],
        )
    }

    /// [`Matrix::run_resilient_filtered`] over an explicit architecture
    /// list — how `--arch-file` fabrics enter the matrix. Every design
    /// runs against every architecture; when `archs` is
    /// `[granular, lut]`, this is exactly the paper's matrix.
    pub fn run_resilient_with_archs(
        params: &DesignParams,
        config: &FlowConfig,
        jobs: usize,
        checkpoints: Option<&crate::CheckpointStore>,
        only: Option<&str>,
        archs: &[vpga_core::PlbArchitecture],
    ) -> Matrix {
        let executor = Executor::new(jobs);
        let full = FlowMatrix::full_with_archs(archs);
        let flow_matrix = match only {
            Some(filter) => FlowMatrix::from_jobs(
                full.jobs()
                    .iter()
                    .filter(|j| {
                        format!("{}/{}", design_key(j.design), j.arch.name()).contains(filter)
                    })
                    .cloned()
                    .collect(),
            ),
            None => full,
        };
        let cells = flow_matrix.run_cells_checkpointed(params, config, &executor, checkpoints);
        let mut outcomes = Vec::new();
        let mut failures = Vec::new();
        let mut pairs = flow_matrix.jobs().iter().zip(cells);
        while let (Some((ja, ca)), Some((jb, cb))) = (pairs.next(), pairs.next()) {
            debug_assert_eq!(ja.variant, FlowVariant::A);
            debug_assert_eq!(jb.variant, FlowVariant::B);
            match (ca, cb) {
                (Ok(a), Ok(b)) => outcomes.push(DesignOutcome {
                    design: a.design,
                    arch: ja.arch.name().to_owned(),
                    gates_nand2: a.gates_nand2,
                    compaction: a.compaction,
                    front_stages: a.front_stages,
                    flow_a: a.result,
                    flow_b: b.result,
                }),
                (ca, cb) => {
                    for (job, cell) in [(ja, ca), (jb, cb)] {
                        if let Err(e) = cell {
                            failures.push(CellFailure {
                                design: job.design.name().to_owned(),
                                arch: job.arch.name().to_owned(),
                                variant: job.variant,
                                error: e.to_string(),
                            });
                        }
                    }
                }
            }
        }
        Matrix { outcomes, failures }
    }

    /// Wraps externally computed outcomes (e.g. from custom architectures).
    pub fn from_outcomes(outcomes: Vec<DesignOutcome>) -> Matrix {
        Matrix {
            outcomes,
            failures: Vec::new(),
        }
    }

    /// All outcomes.
    pub fn outcomes(&self) -> &[DesignOutcome] {
        &self.outcomes
    }

    /// The cells that failed (empty for a strict or fully healthy run).
    pub fn failures(&self) -> &[CellFailure] {
        &self.failures
    }

    /// Renders the failed cells, one per line; empty string when none.
    pub fn failures_report(&self) -> String {
        use std::fmt::Write as _;
        if self.failures.is_empty() {
            return String::new();
        }
        let mut s = String::from("Failed cells:\n");
        for failure in &self.failures {
            let _ = writeln!(s, "  {failure}");
        }
        s
    }

    /// The outcome for a design/architecture pair.
    pub fn get(&self, design: NamedDesign, arch: &str) -> Option<&DesignOutcome> {
        let name = design_key(design);
        self.outcomes
            .iter()
            .find(|o| o.design == name && o.arch == arch)
    }

    /// The paper's (design, arch) outcomes present in this matrix, in
    /// table order: each design, granular before LUT.
    fn paper_pairs(&self) -> Vec<(NamedDesign, &DesignOutcome, &DesignOutcome)> {
        NamedDesign::ALL
            .into_iter()
            .filter_map(|d| Some((d, self.get(d, "granular")?, self.get(d, "lut")?)))
            .collect()
    }

    /// Formats Table 1: die area (µm²) per design × {granular, LUT} ×
    /// {flow a, flow b}. A `!` marks an illegal route; one line per such
    /// cell follows the table.
    pub fn table1(&self) -> String {
        let mut s = String::new();
        s.push_str("Table 1: Area comparison (die area, µm²)\n");
        s.push_str(&format!(
            "{:16} {:>12} {:>12} {:>12} {:>12}\n",
            "Design", "gran flow a", "gran flow b", "lut flow a", "lut flow b"
        ));
        let pairs = self.paper_pairs();
        let area = |r: &FlowResult| cell(format!("{:.0}", r.die_area), r);
        for &(design, g, l) in &pairs {
            s.push_str(&format!(
                "{:16} {:>12} {:>12} {:>12} {:>12}\n",
                design.name(),
                area(&g.flow_a),
                area(&g.flow_b),
                area(&l.flow_a),
                area(&l.flow_b)
            ));
        }
        s.push_str(&illegal_lines(pairs.iter().flat_map(|&(_, g, l)| [g, l])));
        s
    }

    /// Formats Table 2: average slack over the top-10 critical paths (ps),
    /// with the design gate counts, at the 500 ps cycle. Illegal routes
    /// are marked as in [`Matrix::table1`].
    pub fn table2(&self) -> String {
        let mut s = String::new();
        s.push_str("Table 2: Timing comparison (avg slack of top-10 paths, ps; 500 ps cycle)\n");
        s.push_str(&format!(
            "{:16} {:>9} {:>12} {:>12} {:>12} {:>12}\n",
            "Design", "gates", "gran flow a", "gran flow b", "lut flow a", "lut flow b"
        ));
        let pairs = self.paper_pairs();
        let slack = |r: &FlowResult| cell(format!("{:.1}", r.avg_top10_slack), r);
        for &(design, g, l) in &pairs {
            s.push_str(&format!(
                "{:16} {:>9.0} {:>12} {:>12} {:>12} {:>12}\n",
                design.name(),
                g.gates_nand2,
                slack(&g.flow_a),
                slack(&g.flow_b),
                slack(&l.flow_a),
                slack(&l.flow_b)
            ));
        }
        s.push_str(&illegal_lines(pairs.iter().flat_map(|&(_, g, l)| [g, l])));
        s
    }

    /// Formats one architecture's column of results for every design:
    /// die area and top-10 slack for both flow variants. This is how
    /// results for `--arch-file` fabrics (which have no column in the
    /// paper's two tables) are reported. Illegal routes are marked as in
    /// [`Matrix::table1`].
    pub fn arch_table(&self, arch: &str) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "Architecture {arch:?}: area (µm²) and avg top-10 slack (ps)\n"
        ));
        s.push_str(&format!(
            "{:16} {:>9} {:>12} {:>12} {:>12} {:>12}\n",
            "Design", "gates", "area flow a", "area flow b", "slack a", "slack b"
        ));
        let rows: Vec<(NamedDesign, &DesignOutcome)> = NamedDesign::ALL
            .into_iter()
            .filter_map(|d| Some((d, self.get(d, arch)?)))
            .collect();
        for &(design, o) in &rows {
            let (a, b) = (&o.flow_a, &o.flow_b);
            s.push_str(&format!(
                "{:16} {:>9.0} {:>12} {:>12} {:>12} {:>12}\n",
                design.name(),
                o.gates_nand2,
                cell(format!("{:.0}", a.die_area), a),
                cell(format!("{:.0}", b.die_area), b),
                cell(format!("{:.1}", a.avg_top10_slack), a),
                cell(format!("{:.1}", b.avg_top10_slack), b)
            ));
        }
        s.push_str(&illegal_lines(rows.iter().map(|&(_, o)| o)));
        s
    }

    /// Renders the per-stage instrumentation for all 16 matrix runs
    /// (8 shared front-ends + each variant's back-end stages): wall time,
    /// netlist sizes, cost before/after, and mover/acceptance counters.
    pub fn stats_report(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str("Per-stage statistics\n");
        for o in &self.outcomes {
            let _ = writeln!(s, "{} / {} — front-end", o.design, o.arch);
            s.push_str(&render_stages(&o.front_stages, "  "));
            for result in [&o.flow_a, &o.flow_b] {
                let _ = write!(s, "{} / {} — {}", o.design, o.arch, result.variant);
                if result.route_overflow > 0 {
                    let _ = write!(s, " — route overflow {} edges", result.route_overflow);
                }
                s.push('\n');
                s.push_str(&render_stages(&result.stages, "  "));
            }
        }
        s
    }

    /// Deterministic digest over every outcome (see
    /// [`DesignOutcome::fingerprint`]); equal across runs and worker
    /// counts.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for o in &self.outcomes {
            h = (h ^ o.fingerprint()).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The §3.2 derived claims, if every (design, arch) outcome the
    /// formulas need is present; `None` when failed cells left holes.
    pub fn try_claims(&self) -> Option<Claims> {
        let complete = NamedDesign::ALL
            .iter()
            .all(|&d| self.get(d, "granular").is_some() && self.get(d, "lut").is_some());
        complete.then(|| self.claims())
    }

    /// The §3.2 derived claims.
    ///
    /// # Panics
    ///
    /// If any (design, arch) outcome is missing — use
    /// [`Matrix::try_claims`] on a resilient matrix.
    pub fn claims(&self) -> Claims {
        let pair = |d: NamedDesign| {
            (
                self.get(d, "granular").expect("granular outcome"),
                self.get(d, "lut").expect("lut outcome"),
            )
        };
        let datapath = [
            NamedDesign::Alu,
            NamedDesign::Fpu,
            NamedDesign::NetworkSwitch,
        ];
        let area_reduction =
            |g: &DesignOutcome, l: &DesignOutcome| 1.0 - g.flow_b.die_area / l.flow_b.die_area;
        let datapath_area_reduction = datapath
            .iter()
            .map(|&d| {
                let (g, l) = pair(d);
                area_reduction(g, l)
            })
            .sum::<f64>()
            / datapath.len() as f64;
        let (gf, lf) = pair(NamedDesign::Fpu);
        let fpu_area_reduction = area_reduction(gf, lf);
        let (gw, lw) = pair(NamedDesign::Firewire);
        let firewire_area_change = area_reduction(gw, lw);
        // Flow-a → flow-b overhead comparison (absolute µm² of die-area
        // overhead added by the packing step, as Table 1 is read in §3.2).
        let overhead_gap = |g: &DesignOutcome, l: &DesignOutcome| -> f64 {
            let og = (g.flow_b.die_area - g.flow_a.die_area).max(0.0);
            let ol = (l.flow_b.die_area - l.flow_a.die_area).max(0.0);
            if ol <= 1e-9 {
                0.0
            } else {
                1.0 - og / ol
            }
        };
        let mean_overhead_gap = datapath
            .iter()
            .map(|&d| {
                let (g, l) = pair(d);
                overhead_gap(g, l)
            })
            .sum::<f64>()
            / datapath.len() as f64;
        let (gs, ls) = pair(NamedDesign::NetworkSwitch);
        let switch_overhead_gap = overhead_gap(gs, ls);
        // Slack improvements (relative to the 500 ps cycle for stability).
        let clock = vpga_core::params::CLOCK_PERIOD_PS;
        let slack_gain = |g: &DesignOutcome, l: &DesignOutcome| {
            (g.flow_b.avg_top10_slack - l.flow_b.avg_top10_slack) / clock
        };
        let mean_slack_gain = NamedDesign::ALL
            .iter()
            .map(|&d| {
                let (g, l) = pair(d);
                slack_gain(g, l)
            })
            .sum::<f64>()
            / NamedDesign::ALL.len() as f64;
        let fpu_slack_gain = slack_gain(gf, lf);
        // Performance degradation a→b.
        let mean_degradation_gap = {
            let mut vals = Vec::new();
            for d in NamedDesign::ALL {
                let (g, l) = pair(d);
                let dg = g.slack_degradation().max(0.0);
                let dl = l.slack_degradation().max(0.0);
                if dl > 1e-9 {
                    vals.push(1.0 - dg / dl);
                }
            }
            if vals.is_empty() {
                0.0
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        };
        Claims {
            datapath_area_reduction,
            fpu_area_reduction,
            firewire_area_change,
            mean_overhead_gap,
            switch_overhead_gap,
            mean_slack_gain,
            fpu_slack_gain,
            mean_degradation_gap,
        }
    }
}

/// The derived §3.2 comparison numbers, each with the paper's reference
/// value in its documentation.
#[derive(Clone, Copy, Debug)]
pub struct Claims {
    /// Mean flow-b die-area reduction of the granular PLB over the LUT PLB
    /// on the three datapath designs (paper: ~32 %).
    pub datapath_area_reduction: f64,
    /// Same, for the FPU alone (paper: up to ~40 %).
    pub fpu_area_reduction: f64,
    /// Area change on Firewire (paper: *negative* — the granular PLB loses
    /// on sequential-dominated designs).
    pub firewire_area_change: f64,
    /// Mean reduction of the flow-a→flow-b area overhead with the granular
    /// PLB (paper: ~48 %).
    pub mean_overhead_gap: f64,
    /// Same, for the Network switch (paper: up to ~88 %).
    pub switch_overhead_gap: f64,
    /// Mean top-10 slack improvement of granular over LUT, as a fraction of
    /// the 500 ps cycle (paper: ~18 %).
    pub mean_slack_gain: f64,
    /// Same, for the FPU (paper: up to ~40 %).
    pub fpu_slack_gain: f64,
    /// Mean reduction in a→b slack degradation with the granular PLB
    /// (paper: ~68 %).
    pub mean_degradation_gap: f64,
}

impl std::fmt::Display for Claims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Derived §3.2 claims (measured vs paper):")?;
        writeln!(
            f,
            "  datapath die-area reduction     {:6.1} %   (paper ≈ 32 %)",
            100.0 * self.datapath_area_reduction
        )?;
        writeln!(
            f,
            "  FPU die-area reduction          {:6.1} %   (paper ≈ 40 %)",
            100.0 * self.fpu_area_reduction
        )?;
        writeln!(
            f,
            "  Firewire area change            {:6.1} %   (paper: negative)",
            100.0 * self.firewire_area_change
        )?;
        writeln!(
            f,
            "  mean a→b overhead reduction     {:6.1} %   (paper ≈ 48 %)",
            100.0 * self.mean_overhead_gap
        )?;
        writeln!(
            f,
            "  switch a→b overhead reduction   {:6.1} %   (paper ≈ 88 %)",
            100.0 * self.switch_overhead_gap
        )?;
        writeln!(
            f,
            "  mean top-10 slack gain          {:6.1} %   (paper ≈ 18 %)",
            100.0 * self.mean_slack_gain
        )?;
        writeln!(
            f,
            "  FPU top-10 slack gain           {:6.1} %   (paper ≈ 40 %)",
            100.0 * self.fpu_slack_gain
        )?;
        writeln!(
            f,
            "  mean a→b degradation reduction  {:6.1} %   (paper ≈ 68 %)",
            100.0 * self.mean_degradation_gap
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(variant: FlowVariant, route_overflow: usize) -> FlowResult {
        FlowResult {
            variant,
            die_area: 1000.0,
            avg_top10_slack: -12.5,
            worst_slack: 0.0,
            critical_delay: 0.0,
            wirelength: 0.0,
            power_mw: 0.0,
            cells: 1,
            array: None,
            route_overflow,
            stages: Vec::new(),
        }
    }

    #[test]
    fn illegal_routes_are_marked_in_every_table() {
        let outcome = |design: NamedDesign, arch: &str, overflow_b: usize| DesignOutcome {
            design: design_key(design).to_owned(),
            arch: arch.to_owned(),
            gates_nand2: 10.0,
            compaction: None,
            front_stages: Vec::new(),
            flow_a: result(FlowVariant::A, 0),
            flow_b: result(FlowVariant::B, overflow_b),
        };
        let matrix = Matrix::from_outcomes(
            NamedDesign::ALL
                .into_iter()
                .flat_map(|d| {
                    let overflow = if d == NamedDesign::NetworkSwitch {
                        554
                    } else {
                        0
                    };
                    [outcome(d, "granular", overflow), outcome(d, "lut", 0)]
                })
                .collect(),
        );
        let line = "! network_switch/granular flow b: 554 overflowed edges\n";
        // One marked cell plus the trailing line; the arch table marks
        // both the area and the slack of the illegal result.
        for (table, marks) in [
            (matrix.table1(), 2),
            (matrix.table2(), 2),
            (matrix.arch_table("granular"), 3),
        ] {
            assert!(table.ends_with(line), "{table}");
            assert_eq!(table.matches('!').count(), marks, "{table}");
        }
        let lut = matrix.arch_table("lut");
        assert!(!lut.contains('!'), "{lut}");
        let stats = matrix.stats_report();
        assert!(
            stats.contains("network_switch / granular — flow b — route overflow 554 edges\n"),
            "{stats}"
        );
        assert_eq!(stats.matches("route overflow").count(), 1, "{stats}");
    }

    #[test]
    fn resilient_run_matches_strict_when_healthy() {
        let strict = Matrix::run(&DesignParams::tiny(), &FlowConfig::default()).unwrap();
        let resilient = Matrix::run_resilient(&DesignParams::tiny(), &FlowConfig::default(), 2);
        assert!(resilient.failures().is_empty());
        assert!(resilient.failures_report().is_empty());
        assert_eq!(resilient.fingerprint(), strict.fingerprint());
        assert!(resilient.try_claims().is_some());
    }

    /// Satellite regression for uniform deadline enforcement: an already
    /// expired per-job budget must fail every cell cleanly through the
    /// stage runner (never a panic or a hang), and the resilient matrix
    /// must still report the partial state instead of aborting.
    #[test]
    fn expired_deadline_fails_every_cell_but_still_reports() {
        let config = FlowConfig {
            deadline: Some(std::time::Duration::ZERO),
            ..FlowConfig::default()
        };
        let matrix = Matrix::run_resilient(&DesignParams::tiny(), &config, 2);
        assert!(matrix.outcomes().is_empty());
        assert_eq!(matrix.failures().len(), 16, "{}", matrix.failures_report());
        for failure in matrix.failures() {
            assert!(
                failure.error.contains("deadline"),
                "unexpected failure: {failure}"
            );
        }
        // Partial reporting still works: the failure report names every
        // cell, the tables render (empty), and claims are unavailable
        // rather than wrong.
        let report = matrix.failures_report();
        for design in NamedDesign::ALL {
            assert!(report.contains(design.name()), "{report}");
        }
        let _ = matrix.table1();
        let _ = matrix.table2();
        assert!(matrix.try_claims().is_none());
    }

    #[test]
    fn matrix_runs_and_formats_at_tiny_scale() {
        let matrix = Matrix::run(&DesignParams::tiny(), &FlowConfig::default()).unwrap();
        assert_eq!(matrix.outcomes().len(), 8);
        let t1 = matrix.table1();
        let t2 = matrix.table2();
        for design in NamedDesign::ALL {
            assert!(t1.contains(design.name()), "{t1}");
            assert!(t2.contains(design.name()), "{t2}");
        }
        let claims = matrix.claims();
        let _ = claims.to_string();
        // Direction checks that should hold even at tiny scale: the
        // granular PLB wins area on the mux-rich FPU...
        assert!(
            claims.fpu_area_reduction > -0.15,
            "FPU area reduction collapsed: {:.2}",
            claims.fpu_area_reduction
        );
    }
}
