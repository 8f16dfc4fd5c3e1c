//! Cache-backed flow execution for the serve daemon.
//!
//! [`CachedFlow`] runs one flow job — a (design, arch, variant, params,
//! config) tuple — against the shared [`ArtifactCache`], deduplicating at
//! *stage-plan* granularity:
//!
//! - The **front-end** (synth → compact → place → physsynth) is keyed by
//!   `front/{design}/{arch}/{front_fingerprint}` where the fingerprint
//!   masks every back-end-only config field
//!   (`checkpoint::front_config_fingerprint`). Two jobs that differ only
//!   in back-end parameters — or only in variant — share one front-end
//!   computation, including in-flight: the second requester blocks on the
//!   first's claim instead of recomputing.
//! - The **back-end result** is keyed by
//!   `result/{design}/{arch}/{variant}/{full_fingerprint}` with the full
//!   normalized config⊕params fingerprint.
//!
//! Cache payloads reuse the checkpoint codecs byte-for-byte, and a hit is
//! rebuilt exactly like a disk resume (`CheckpointStore::load_front`):
//! decode, then reconstruct the incremental timer from the restored
//! netlist and placement. By the flow's audited STA-equivalence
//! invariant, a job served from cache is bit-identical to a cold batch
//! run — the load harness asserts fingerprint equality over thousands of
//! mixed jobs.
//!
//! Robustness: each compute leg runs under `catch_unwind`, so a panic
//! (including one injected through the event callback) surfaces as
//! [`FlowError::StagePanic`], the claim guard drops, waiters recompute,
//! and the cache stays valid. Cancellation and deadlines are checked
//! before the first stage (a zero deadline never runs a free stage) and
//! between stages by the standard stage runner.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use vpga_core::PlbArchitecture;
use vpga_designs::{DesignParams, NamedDesign};
use vpga_netlist::wire::{Reader, Writer};
use vpga_timing::IncrementalSta;

use crate::cache::{ArtifactCache, CacheOutcome};
use crate::checkpoint::{
    config_fingerprint, decode_front, decode_result, encode_front, encode_result,
    front_config_fingerprint,
};
use crate::clock::JobClock;
use crate::config::{FlowConfig, FlowVariant};
use crate::error::FlowError;
use crate::exec::panic_message;
use crate::pipeline::{front_ctx, job_ctx, DesignOutcome, FlowResult, FrontEnd};
use crate::stages::{
    back_plan, front_plan, run_back_stage, run_front_stage, BackArtifacts, FrontArtifacts, StageEnv,
};
use crate::stats::{clear_stage, current_stage, Counter, StageId, StageStats};
use crate::CheckpointStore;

/// One flow job as submitted to the daemon.
#[derive(Clone, Debug)]
pub struct ServiceJob {
    /// Which benchmark design to run.
    pub design: NamedDesign,
    /// Target architecture.
    pub arch: PlbArchitecture,
    /// Which back-end variant.
    pub variant: FlowVariant,
    /// Design generation parameters.
    pub params: DesignParams,
    /// Flow configuration (deadline and cancel token included).
    pub config: FlowConfig,
}

impl ServiceJob {
    /// The job context string (`design/arch/variant`) used for fault
    /// points, deadlines, and log lines.
    pub fn ctx(&self) -> String {
        job_ctx(self.design.key(), &self.arch, self.variant)
    }
}

/// Resolves an architecture by its wire name (`"granular"` / `"lut"`).
pub fn arch_by_name(name: &str) -> Option<PlbArchitecture> {
    let granular = PlbArchitecture::granular();
    if granular.name() == name {
        return Some(granular);
    }
    let lut = PlbArchitecture::lut_based();
    (lut.name() == name).then_some(lut)
}

/// Per-stage progress streamed to the submitter while a job runs.
#[derive(Clone, Debug)]
pub enum JobEvent {
    /// A stage finished computing (cache misses only — hits skip stages).
    Stage {
        /// Which stage.
        stage: StageId,
        /// Wall-clock time the stage took.
        wall: Duration,
        /// Cells after the stage.
        cells: usize,
        /// Nets after the stage.
        nets: usize,
    },
    /// The shared front-end was resolved.
    Front {
        /// Served from the artifact cache (or disk checkpoint)?
        hit: bool,
    },
    /// The back-end result was resolved.
    Result {
        /// Served from the artifact cache (or disk checkpoint)?
        hit: bool,
    },
}

/// The finished product of one daemon job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Design name (display form, e.g. `"ALU"`).
    pub design: String,
    /// Design key (wire form, e.g. `"alu"`).
    pub design_key: &'static str,
    /// Architecture name.
    pub arch: String,
    /// NAND2-equivalent gate count of the source design.
    pub gates_nand2: f64,
    /// Per-stage records for the shared front-end, cache counters
    /// attached (display only — excluded from fingerprints).
    pub front_stages: Vec<StageStats>,
    /// Compaction summary, if the step ran.
    pub compaction: Option<vpga_compact::CompactionReport>,
    /// The variant result, cache counters attached.
    pub result: FlowResult,
    /// Whether the front-end came from the cache.
    pub front_cache_hit: bool,
    /// Whether the result came from the cache.
    pub result_cache_hit: bool,
}

impl JobOutcome {
    /// The result fingerprint — bit-identical to the batch-mode run of
    /// the same (design, arch, variant, params, config).
    pub fn fingerprint(&self) -> u64 {
        self.result.fingerprint()
    }
}

/// Pairs per-variant job outcomes into [`DesignOutcome`]s exactly as the
/// batch matrix assembles them: one A and one B per (design, arch), the
/// A job's front-end records representing the shared front-end. Pairs
/// missing either variant are skipped; order follows the A outcomes.
pub fn pair_outcomes(outcomes: &[JobOutcome]) -> Vec<DesignOutcome> {
    outcomes
        .iter()
        .filter(|a| a.result.variant == FlowVariant::A)
        .filter_map(|a| {
            let b = outcomes.iter().find(|b| {
                b.result.variant == FlowVariant::B
                    && b.design_key == a.design_key
                    && b.arch == a.arch
            })?;
            Some(DesignOutcome {
                design: a.design.clone(),
                arch: a.arch.clone(),
                gates_nand2: a.gates_nand2,
                compaction: a.compaction.clone(),
                front_stages: a.front_stages.clone(),
                flow_a: a.result.clone(),
                flow_b: b.result.clone(),
            })
        })
        .collect()
}

/// Attaches cache counters to the first record of a stage list (display
/// only; `fold_fingerprint` excludes them).
fn tag_cache(mut stages: Vec<StageStats>, hits: u64, misses: u64, evicted: u64) -> Vec<StageStats> {
    if let Some(first) = stages.first_mut() {
        *first = first
            .clone()
            .with(Counter::CacheHits, hits)
            .with(Counter::CacheMisses, misses)
            .with(Counter::CacheEvicted, evicted);
    }
    stages
}

/// What one cache leg (front or back) reported.
struct LegMeta {
    hit: bool,
    stages_restored: u64,
    stages_computed: u64,
    evicted: u64,
}

/// A flow executor backed by the shared artifact cache, with an optional
/// disk checkpoint tier underneath it.
pub struct CachedFlow {
    cache: Arc<ArtifactCache>,
    disk: Option<CheckpointStore>,
}

impl CachedFlow {
    /// A cache-backed flow with a fresh cache of `budget_bytes`.
    pub fn new(budget_bytes: usize) -> CachedFlow {
        CachedFlow::with_cache(Arc::new(ArtifactCache::new(budget_bytes)))
    }

    /// Wraps an existing (possibly shared) cache.
    pub fn with_cache(cache: Arc<ArtifactCache>) -> CachedFlow {
        CachedFlow { cache, disk: None }
    }

    /// Adds a disk checkpoint tier: misses try the store before
    /// computing, and computed stages are checkpointed as they finish
    /// (so a daemon restart resumes warm).
    #[must_use]
    pub fn with_checkpoints(mut self, store: CheckpointStore) -> CachedFlow {
        self.disk = Some(store);
        self
    }

    /// The shared artifact cache.
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        &self.cache
    }

    /// Runs one job, streaming [`JobEvent`]s as stages and cache legs
    /// resolve.
    ///
    /// # Errors
    ///
    /// Any [`FlowError`] a batch run could produce, plus
    /// [`FlowError::Cancelled`] / [`FlowError::DeadlineExceeded`] checked
    /// before the first stage, and [`FlowError::StagePanic`] for panics
    /// trapped during compute (the cache claim is abandoned, never
    /// poisoned).
    pub fn run_job(
        &self,
        job: &ServiceJob,
        on_event: &mut dyn FnMut(&JobEvent),
    ) -> Result<JobOutcome, FlowError> {
        let ctx = job.ctx();
        let clock = JobClock::new(job.config.deadline, job.config.cancel.clone());
        let fplan = front_plan(&job.config);
        // Fail fast: a zero/expired deadline or a cancelled job must be
        // rejected before stage 1 — and before touching the cache.
        clock.check(fplan[0], &ctx)?;
        let (front, fmeta) = self.front(job, &clock, on_event)?;
        on_event(&JobEvent::Front { hit: fmeta.hit });
        clock.check(back_plan(job.variant)[0], &ctx)?;
        let (result, rmeta) = self.back(job, &front, &clock, on_event)?;
        on_event(&JobEvent::Result { hit: rmeta.hit });
        Ok(JobOutcome {
            design: front.design.clone(),
            design_key: job.design.key(),
            arch: job.arch.name().to_owned(),
            gates_nand2: front.gates_nand2,
            front_stages: tag_cache(
                front.stages.clone(),
                fmeta.stages_restored,
                fmeta.stages_computed,
                fmeta.evicted,
            ),
            compaction: front.compaction.clone(),
            result: FlowResult {
                stages: tag_cache(
                    result.stages.clone(),
                    rmeta.stages_restored,
                    rmeta.stages_computed,
                    rmeta.evicted,
                ),
                ..result
            },
            front_cache_hit: fmeta.hit,
            result_cache_hit: rmeta.hit,
        })
    }

    /// Resolves the shared front-end: cache hit, disk resume, or compute.
    fn front(
        &self,
        job: &ServiceJob,
        clock: &JobClock,
        on_event: &mut dyn FnMut(&JobEvent),
    ) -> Result<(FrontEnd, LegMeta), FlowError> {
        let dkey = job.design.key();
        let fctx = front_ctx(dkey, &job.arch);
        let plan = front_plan(&job.config);
        let key = format!(
            "front/{dkey}/{}/{:016x}",
            job.arch.name(),
            front_config_fingerprint(&job.config, &job.params, &job.arch)
        );
        loop {
            match self.cache.acquire(&key, &fctx) {
                CacheOutcome::Hit(bytes) => {
                    match decode_front_entry(&bytes, dkey, &job.arch, &job.config, plan.len()) {
                        Some((store, stages)) => {
                            let meta = LegMeta {
                                hit: true,
                                stages_restored: plan.len() as u64,
                                stages_computed: 0,
                                evicted: 0,
                            };
                            return Ok((store.into_front_end(stages), meta));
                        }
                        // Fail closed: an undecodable payload is evicted
                        // and recomputed, never trusted.
                        None => {
                            self.cache.evict_key(&key);
                        }
                    }
                }
                CacheOutcome::Miss(claim) => {
                    let computed = catch_unwind(AssertUnwindSafe(|| {
                        self.compute_front(job, clock, &fctx, &plan, on_event)
                    }));
                    let (store, stages, restored) = match computed {
                        Ok(Ok(parts)) => parts,
                        // The claim guard drops here: waiters recompute.
                        Ok(Err(e)) => return Err(e),
                        Err(payload) => {
                            return Err(FlowError::StagePanic {
                                stage: current_stage(),
                                design: fctx,
                                payload: panic_message(payload),
                            })
                        }
                    };
                    let mut w = Writer::new();
                    encode_front(&mut w, &store, &stages);
                    // An injected cache_write fault abandons the publish;
                    // the job still has its in-memory artifacts.
                    let evicted = claim.publish(w.into_bytes(), &fctx).unwrap_or(0);
                    let meta = LegMeta {
                        hit: false,
                        stages_restored: restored as u64,
                        stages_computed: (plan.len() - restored) as u64,
                        evicted,
                    };
                    return Ok((store.into_front_end(stages), meta));
                }
            }
        }
    }

    /// Computes (or disk-resumes) the front-end stage plan.
    fn compute_front(
        &self,
        job: &ServiceJob,
        clock: &JobClock,
        fctx: &str,
        plan: &[StageId],
        on_event: &mut dyn FnMut(&JobEvent),
    ) -> Result<(FrontArtifacts, Vec<StageStats>, usize), FlowError> {
        clear_stage();
        let source = job.design.generate(&job.params);
        let mut store = FrontArtifacts::new(source.name());
        let mut stages = Vec::new();
        let mut restored = 0usize;
        if let Some(ck) = &self.disk {
            if let Some((s, st, done)) = ck.load_front(
                source.name(),
                &job.arch,
                &job.config,
                &job.params,
                plan.len(),
            ) {
                store = s;
                stages = st;
                restored = done;
            }
        }
        let env = StageEnv {
            config: &job.config,
            arch: &job.arch,
            job: fctx,
            clock,
        };
        for (done, &id) in plan.iter().enumerate().skip(restored) {
            run_front_stage(id, Some(&source), &env, &mut store, &mut stages)?;
            if let Some(ck) = &self.disk {
                ck.save_front(
                    &job.arch,
                    &job.config,
                    &job.params,
                    &store,
                    &stages,
                    done + 1,
                );
            }
            let rec = stages.last().expect("stage just ran");
            on_event(&JobEvent::Stage {
                stage: rec.stage,
                wall: rec.wall,
                cells: rec.cells,
                nets: rec.nets,
            });
        }
        Ok((store, stages, restored))
    }

    /// Resolves the variant back-end: cache hit, disk resume, or compute.
    fn back(
        &self,
        job: &ServiceJob,
        front: &FrontEnd,
        clock: &JobClock,
        on_event: &mut dyn FnMut(&JobEvent),
    ) -> Result<(FlowResult, LegMeta), FlowError> {
        let dkey = job.design.key();
        let ctx = job.ctx();
        let plan = back_plan(job.variant);
        let key = format!(
            "result/{dkey}/{}/{}/{:016x}",
            job.arch.name(),
            job.variant.key(),
            config_fingerprint(&job.config, &job.params, &job.arch)
        );
        loop {
            match self.cache.acquire(&key, &ctx) {
                CacheOutcome::Hit(bytes) => match decode_result_entry(&bytes, job.variant) {
                    Some(result) => {
                        let meta = LegMeta {
                            hit: true,
                            stages_restored: plan.len() as u64,
                            stages_computed: 0,
                            evicted: 0,
                        };
                        return Ok((result, meta));
                    }
                    None => {
                        self.cache.evict_key(&key);
                    }
                },
                CacheOutcome::Miss(claim) => {
                    let (result, from_disk) = match self.disk.as_ref().and_then(|ck| {
                        ck.load_result(dkey, &job.arch, job.variant, &job.config, &job.params)
                    }) {
                        Some(result) => (result, true),
                        None => {
                            let computed = catch_unwind(AssertUnwindSafe(|| {
                                self.compute_back(job, front, clock, &ctx, plan, on_event)
                            }));
                            match computed {
                                Ok(Ok(result)) => (result, false),
                                Ok(Err(e)) => return Err(e),
                                Err(payload) => {
                                    return Err(FlowError::StagePanic {
                                        stage: current_stage(),
                                        design: ctx,
                                        payload: panic_message(payload),
                                    })
                                }
                            }
                        }
                    };
                    let mut w = Writer::new();
                    encode_result(&mut w, &result);
                    let evicted = claim.publish(w.into_bytes(), &ctx).unwrap_or(0);
                    if !from_disk {
                        if let Some(ck) = &self.disk {
                            ck.save_result(dkey, &job.arch, &job.config, &job.params, &result);
                        }
                    }
                    let meta = LegMeta {
                        hit: from_disk,
                        stages_restored: if from_disk { plan.len() as u64 } else { 0 },
                        stages_computed: if from_disk { 0 } else { plan.len() as u64 },
                        evicted,
                    };
                    return Ok((result, meta));
                }
            }
        }
    }

    /// Computes the back-end stage plan over the shared front-end.
    fn compute_back(
        &self,
        job: &ServiceJob,
        front: &FrontEnd,
        clock: &JobClock,
        ctx: &str,
        plan: &[StageId],
        on_event: &mut dyn FnMut(&JobEvent),
    ) -> Result<FlowResult, FlowError> {
        clear_stage();
        let env = StageEnv {
            config: &job.config,
            arch: &job.arch,
            job: ctx,
            clock,
        };
        let mut store = BackArtifacts::new(front);
        let mut stages = Vec::new();
        for &id in plan {
            run_back_stage(id, job.variant, &env, &mut store, &mut stages)?;
            let rec = stages.last().expect("stage just ran");
            on_event(&JobEvent::Stage {
                stage: rec.stage,
                wall: rec.wall,
                cells: rec.cells,
                nets: rec.nets,
            });
        }
        Ok(store.into_result(job.variant, stages))
    }
}

/// Decodes a cached front-end payload, rebuilding the incremental timer
/// exactly like `CheckpointStore::load_front`. `None` = fail closed.
fn decode_front_entry(
    bytes: &[u8],
    design: &str,
    arch: &PlbArchitecture,
    config: &FlowConfig,
    plan_len: usize,
) -> Option<(FrontArtifacts, Vec<StageStats>)> {
    let mut r = Reader::new(bytes);
    let (mut store, stages) = decode_front(&mut r)?;
    if !r.done() || store.design != design || stages.len() != plan_len {
        return None;
    }
    let (netlist, placement) = (store.netlist.as_ref()?, store.placement.as_ref()?);
    let mut sta = IncrementalSta::new(netlist, arch.library(), &config.timing).ok()?;
    sta.full_analyze(netlist, placement, None);
    store.sta = Some(sta);
    Some((store, stages))
}

/// Decodes a cached back-end payload. `None` = fail closed.
fn decode_result_entry(bytes: &[u8], variant: FlowVariant) -> Option<FlowResult> {
    let mut r = Reader::new(bytes);
    let result = decode_result(&mut r)?;
    (r.done() && result.variant == variant).then_some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_design;
    use crate::report::Matrix;

    fn tiny_job(variant: FlowVariant) -> ServiceJob {
        ServiceJob {
            design: NamedDesign::Alu,
            arch: PlbArchitecture::granular(),
            variant,
            params: DesignParams::tiny(),
            config: FlowConfig::default(),
        }
    }

    #[test]
    fn cold_then_warm_matches_batch_bit_for_bit() {
        let flow = CachedFlow::new(64 << 20);
        let mut events = Vec::new();
        let cold = flow
            .run_job(&tiny_job(FlowVariant::A), &mut |e| events.push(e.clone()))
            .unwrap();
        assert!(!cold.front_cache_hit && !cold.result_cache_hit);
        // 4 front stages + 2 back stages + the two leg events.
        assert_eq!(events.len(), 8);
        let warm = flow
            .run_job(&tiny_job(FlowVariant::A), &mut |_| {})
            .unwrap();
        assert!(warm.front_cache_hit && warm.result_cache_hit);
        let batch = run_design(
            &NamedDesign::Alu.generate(&DesignParams::tiny()),
            &PlbArchitecture::granular(),
            &FlowConfig::default(),
        )
        .unwrap();
        assert_eq!(cold.fingerprint(), batch.flow_a.fingerprint());
        assert_eq!(warm.fingerprint(), batch.flow_a.fingerprint());
        flow.cache().validate_all().unwrap();
    }

    #[test]
    fn variants_share_the_front_end() {
        let flow = CachedFlow::new(64 << 20);
        let a = flow
            .run_job(&tiny_job(FlowVariant::A), &mut |_| {})
            .unwrap();
        let b = flow
            .run_job(&tiny_job(FlowVariant::B), &mut |_| {})
            .unwrap();
        assert!(!a.front_cache_hit);
        // B reuses A's front-end from the cache; only its back-end runs.
        assert!(b.front_cache_hit && !b.result_cache_hit);
        let batch = run_design(
            &NamedDesign::Alu.generate(&DesignParams::tiny()),
            &PlbArchitecture::granular(),
            &FlowConfig::default(),
        )
        .unwrap();
        assert_eq!(a.fingerprint(), batch.flow_a.fingerprint());
        assert_eq!(b.fingerprint(), batch.flow_b.fingerprint());
        // And the paired outcome fingerprints match the batch outcome
        // (cache counters are display-only).
        let paired = pair_outcomes(&[a, b]);
        assert_eq!(paired.len(), 1);
        assert_eq!(paired[0].fingerprint(), batch.fingerprint());
        assert_eq!(
            Matrix::from_outcomes(paired).fingerprint(),
            Matrix::from_outcomes(vec![batch]).fingerprint()
        );
    }

    #[test]
    fn zero_deadline_fails_before_any_stage_and_before_the_cache() {
        let flow = CachedFlow::new(1 << 20);
        let mut job = tiny_job(FlowVariant::A);
        job.config.deadline = Some(Duration::ZERO);
        let mut events = 0usize;
        let err = flow.run_job(&job, &mut |_| events += 1).unwrap_err();
        assert!(
            matches!(err, FlowError::DeadlineExceeded { stage, .. } if stage == StageId::Synth),
            "wrong error: {err}"
        );
        assert_eq!(events, 0, "no stage may run under a zero deadline");
        assert_eq!(flow.cache().stats().misses, 0, "cache must not be touched");
    }

    #[test]
    fn cancellation_between_stages_aborts_and_leaves_cache_valid() {
        let flow = CachedFlow::new(64 << 20);
        let job = tiny_job(FlowVariant::A);
        let cancel = job.config.cancel.clone();
        let mut stages_seen = 0usize;
        let err = flow
            .run_job(&job, &mut |e| {
                if let JobEvent::Stage { .. } = e {
                    stages_seen += 1;
                    cancel.cancel();
                }
            })
            .unwrap_err();
        assert!(
            matches!(err, FlowError::Cancelled { .. }),
            "wrong error: {err}"
        );
        assert_eq!(stages_seen, 1, "cancel after stage 1 stops before stage 2");
        // The abandoned claim must not wedge or corrupt the cache.
        let stats = flow.cache().stats();
        assert_eq!(stats.in_flight, 0);
        flow.cache().validate_all().unwrap();
        // A fresh job (new cancel token) completes normally.
        let redo = flow
            .run_job(&tiny_job(FlowVariant::A), &mut |_| {})
            .unwrap();
        assert!(!redo.front_cache_hit);
    }

    #[test]
    fn event_callback_panic_is_trapped_and_claim_abandoned() {
        let flow = CachedFlow::new(64 << 20);
        let err = flow
            .run_job(&tiny_job(FlowVariant::A), &mut |e| {
                if let JobEvent::Stage { stage, .. } = e {
                    assert!(*stage != StageId::Place, "poisoned stage reached");
                }
            })
            .unwrap_err();
        let FlowError::StagePanic { stage, .. } = err else {
            panic!("expected StagePanic, got {err}");
        };
        assert_eq!(stage, Some(StageId::Place));
        assert_eq!(flow.cache().stats().in_flight, 0);
        // The cache holds no front entry (claim abandoned) and the next
        // run recomputes cleanly.
        let redo = flow
            .run_job(&tiny_job(FlowVariant::A), &mut |_| {})
            .unwrap();
        assert!(!redo.front_cache_hit);
        flow.cache().validate_all().unwrap();
    }

    #[test]
    fn disk_tier_resumes_into_the_memory_cache() {
        let dir = std::env::temp_dir().join(format!("vpga-svc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let flow = CachedFlow::new(64 << 20)
                .with_checkpoints(CheckpointStore::new(&dir, true).unwrap());
            flow.run_job(&tiny_job(FlowVariant::A), &mut |_| {})
                .unwrap();
        }
        // A fresh daemon (cold memory cache) restores from disk: no
        // front stages recompute, and the result loads outright.
        let flow =
            CachedFlow::new(64 << 20).with_checkpoints(CheckpointStore::new(&dir, true).unwrap());
        let mut computed = 0usize;
        let out = flow
            .run_job(&tiny_job(FlowVariant::A), &mut |e| {
                if matches!(e, JobEvent::Stage { .. }) {
                    computed += 1;
                }
            })
            .unwrap();
        assert_eq!(computed, 0, "disk tier should supply every stage");
        assert!(out.result_cache_hit, "result restored from disk");
        let batch = run_design(
            &NamedDesign::Alu.generate(&DesignParams::tiny()),
            &PlbArchitecture::granular(),
            &FlowConfig::default(),
        )
        .unwrap();
        assert_eq!(out.fingerprint(), batch.flow_a.fingerprint());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn arch_by_name_resolves_both_architectures() {
        assert_eq!(arch_by_name("granular").unwrap().name(), "granular");
        assert_eq!(arch_by_name("lut").unwrap().name(), "lut");
        assert!(arch_by_name("asic").is_none());
    }
}
