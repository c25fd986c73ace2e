//! The composable diagnosis pipeline — the single execution path of the workflow.
//!
//! The paper's Figure-2 workflow is explicitly modular: PD, CO, DA, CR, SD and IA
//! are separable drill-down stages combining ML and domain knowledge. This module
//! makes that modularity a first-class API:
//!
//! * [`DiagnosisStage`] is the stage contract — a name, declared prerequisites, and
//!   `run(&mut StageCtx)`. The six standard stages are the [`Stage`] enum (which
//!   implements the trait); custom stages are any other implementor.
//! * [`DiagnosisState`] is the typed **evidence ledger** stages read and write: one
//!   slot per standard module result, replacing the ad-hoc locals the monolithic
//!   workflow used to thread between modules.
//! * [`DiagnosisPipeline`] is the builder and driver. [`DiagnosisPipeline::standard`]
//!   reproduces the paper's sequence bit-identically; [`DiagnosisPipeline::skip`],
//!   [`DiagnosisPipeline::insert_after`] and custom stages open new scenario shapes
//!   (SAN-only triage that skips PD/CR, a re-scoring stage, …). Every run ends in
//!   [`DiagnosisState::assemble`], the one report assembly: a
//!   [`crate::diagnosis::DiagnosisReport`] carrying per-stage provenance (timings,
//!   cache hit/miss deltas, engine warm/cold, re-drill markers) next to the findings.
//!
//! # Streaming: the typed event bus
//!
//! Progress streams through a **typed event vocabulary** ([`PipelineEvent`])
//! delivered to [`EventSink`]s registered with [`DiagnosisPipeline::with_sink`] (or
//! handed to the engine's `*_streamed` entry points):
//!
//! | event | fired |
//! |---|---|
//! | [`PipelineEvent::StageStarted`] | before a stage executes (or replays) |
//! | [`PipelineEvent::StageCompleted`] | after, with the stage's [`StageProvenance`] |
//! | [`PipelineEvent::CausesRanked`] | after SD fills the ledger's cause ranking |
//! | [`PipelineEvent::RemediationPlanned`] | when a stage writes the remediation slot |
//! | [`PipelineEvent::RunCompleted`] | after assembly, with the full report |
//! | [`PipelineEvent::Cancelled`] | when a [`CancelToken`] stops the run |
//!
//! Every driver — batch, engine-backed warm/cold, incremental replay and the
//! interactive session — emits the same per-stage sequence, so a subscriber cannot
//! tell (except through provenance) which execution path served it.
//!
//! Cancellation is checked **between stages**: a cancelled run stops before the next
//! stage executes, emits [`PipelineEvent::Cancelled`], and still returns a
//! well-formed report assembled from the partial ledger, with
//! [`crate::diagnosis::DiagnosisProvenance::cancelled_at`] naming the stage that
//! never ran. Completed slots keep their evidence, downstream slots stay empty, and
//! a [`crate::session::WorkflowSession`] resumed after [`CancelToken::reset`]
//! re-runs only the stages the cancellation skipped.
//!
//! When PD reports a plan change the pipeline does **not** stop at the plan-change
//! causes: the drill-down stages re-run against the *new* plan's APG (the
//! **re-drill** pass — DA widens to every component the new plan depends on, SD
//! falls back to its leaf volumes, both baselined on the full satisfactory
//! history), so a concurrent SAN-side cause surfaces next to the plan change
//! instead of being masked by it (the paper's "my-problem-or-yours" syndrome).
//!
//! Every driver in the crate — batch ([`DiagnosisPipeline::run`]), fleet
//! ([`crate::engine::DiagnosisEngine::diagnose`]) and interactive
//! ([`crate::session::WorkflowSession`]) — executes through this pipeline; there is
//! no second sequencing of the modules anywhere.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::diagnosis::{
    DiagnosisProvenance, DiagnosisReport, EngineProvenance, RankedCause, StageProvenance,
};
use crate::engine::DiagnosisEngine;
use crate::workflow::{
    CorrelatedOperatorsResult, DependencyAnalysisResult, DiagnosisCache, DiagnosisContext, DiagnosisWorkflow,
    ImpactResult, PlanDiffResult, RecordCountResult, SymptomsResult,
};

/// The six standard drill-down stages, in the paper's Figure-2 order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// PD — plan diffing and plan-change analysis.
    PlanDiffing,
    /// CO — KDE anomaly scores over operator running times.
    CorrelatedOperators,
    /// DA — anomaly scores over dependency-path component metrics.
    DependencyAnalysis,
    /// CR — two-sided change scores over operator record counts.
    RecordCounts,
    /// SD — symptom extraction and symptoms-database matching.
    Symptoms,
    /// IA — impact analysis (inverse dependency analysis).
    ImpactAnalysis,
}

impl Stage {
    /// The standard stages in workflow order.
    pub const ALL: [Stage; 6] = [
        Stage::PlanDiffing,
        Stage::CorrelatedOperators,
        Stage::DependencyAnalysis,
        Stage::RecordCounts,
        Stage::Symptoms,
        Stage::ImpactAnalysis,
    ];

    /// The stage's short name — the module label of Figures 2 and 7.
    pub fn name(self) -> &'static str {
        match self {
            Stage::PlanDiffing => "PD",
            Stage::CorrelatedOperators => "CO",
            Stage::DependencyAnalysis => "DA",
            Stage::RecordCounts => "CR",
            Stage::Symptoms => "SD",
            Stage::ImpactAnalysis => "IA",
        }
    }

    /// The stages whose ledger slots this stage *reads*. Drivers use this for lazy
    /// execution (run a stage's unmet prerequisites first); a prerequisite that was
    /// skipped out of the pipeline is not an error — the reading stage falls back to
    /// an empty (or, for PD, a "no plan-diff evidence") result.
    pub fn prerequisites(self) -> &'static [Stage] {
        match self {
            Stage::PlanDiffing => &[],
            Stage::CorrelatedOperators => &[],
            Stage::DependencyAnalysis => &[Stage::CorrelatedOperators],
            Stage::RecordCounts => &[Stage::CorrelatedOperators],
            Stage::Symptoms => &[
                Stage::PlanDiffing,
                Stage::CorrelatedOperators,
                Stage::DependencyAnalysis,
                Stage::RecordCounts,
            ],
            Stage::ImpactAnalysis => {
                &[Stage::CorrelatedOperators, Stage::DependencyAnalysis, Stage::RecordCounts, Stage::Symptoms]
            }
        }
    }

    /// The standard stage with the given short name, if any (`"PD"` →
    /// [`Stage::PlanDiffing`], …). Custom stage names resolve to `None`.
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// The slot index in the standard ledger order (used for downstream
    /// invalidation).
    fn index(self) -> usize {
        Stage::ALL.iter().position(|s| *s == self).expect("every stage is in ALL")
    }

    /// The stages whose *results* feed this stage during incremental re-diagnosis.
    ///
    /// Broader than [`Stage::prerequisites`]: CO, DA and CR additionally consult
    /// PD's verdict through [`DiagnosisState::plan_changed`] (a changed plan flips
    /// DA — and SD, via `pd` — into re-drill mode), so a changed PD result must
    /// re-run them even though their declared prerequisites omit PD.
    fn staleness_deps(self) -> &'static [Stage] {
        match self {
            Stage::PlanDiffing => &[],
            Stage::CorrelatedOperators => &[Stage::PlanDiffing],
            Stage::DependencyAnalysis => &[Stage::PlanDiffing, Stage::CorrelatedOperators],
            Stage::RecordCounts => &[Stage::PlanDiffing, Stage::CorrelatedOperators],
            Stage::Symptoms => &[
                Stage::PlanDiffing,
                Stage::CorrelatedOperators,
                Stage::DependencyAnalysis,
                Stage::RecordCounts,
            ],
            Stage::ImpactAnalysis => {
                &[Stage::CorrelatedOperators, Stage::DependencyAnalysis, Stage::RecordCounts, Stage::Symptoms]
            }
        }
    }

    /// Whether this stage's execution reads the given input component at all.
    ///
    /// The sensitivity map behind incremental re-diagnosis: a stage only goes stale
    /// when a component it actually reads changed (or a dependency's result did).
    /// PD reads the run history and the event timeline; CO/CR/IA score run records
    /// only; DA additionally scores per-run metric-store means; SD reads all three.
    fn reads(self, component: InputComponent) -> bool {
        use InputComponent::*;
        match self {
            Stage::PlanDiffing => matches!(component, History | Events),
            Stage::CorrelatedOperators => matches!(component, History),
            Stage::DependencyAnalysis => matches!(component, History | Store),
            Stage::RecordCounts => matches!(component, History),
            Stage::Symptoms => true,
            Stage::ImpactAnalysis => matches!(component, History),
        }
    }
}

/// One of the three inputs a standard stage may read (see [`Stage::reads`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InputComponent {
    /// The labelled run history.
    History,
    /// The event timeline.
    Events,
    /// The metric store.
    Store,
}

/// Content fingerprints of the three diagnosis inputs a ledger's results were
/// computed from. Recorded into [`DiagnosisState::inputs`] by evidence-recording
/// runs; incremental re-diagnosis diffs them component-by-component to decide which
/// stages went stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerInputs {
    /// [`crate::runs::RunHistory::fingerprint`] of the diagnosed history.
    pub history: u64,
    /// [`diads_monitor::EventStore::fingerprint`] of the merged event timeline.
    pub events: u64,
    /// `MetricStore::content_fingerprint` of the metric store.
    pub store: u64,
}

impl LedgerInputs {
    fn stage_stale(&self, prior: &LedgerInputs, stage: Stage) -> bool {
        (self.history != prior.history && stage.reads(InputComponent::History))
            || (self.events != prior.events && stage.reads(InputComponent::Events))
            || (self.store != prior.store && stage.reads(InputComponent::Store))
    }
}

/// The typed evidence ledger of one diagnosis: every standard module result that the
/// monolithic workflow used to thread through ad-hoc locals, as an inspectable (and
/// editable) value. Stages read their inputs from here and write their output back;
/// custom stages may rewrite any slot (e.g. a re-scoring stage adjusting `sd`).
#[derive(Debug, Clone, Default)]
pub struct DiagnosisState {
    /// Module PD's result, once executed.
    pub pd: Option<PlanDiffResult>,
    /// Module CO's result, once executed.
    pub cos: Option<CorrelatedOperatorsResult>,
    /// Module DA's result, once executed.
    pub da: Option<DependencyAnalysisResult>,
    /// Module CR's result, once executed.
    pub cr: Option<RecordCountResult>,
    /// Module SD's result, once executed.
    pub sd: Option<SymptomsResult>,
    /// Module IA's result, once executed.
    pub ia: Option<ImpactResult>,
    /// The remediation planner's result, once a [`crate::planner::PlannerStage`]
    /// has run. A custom-stage slot: it is not part of any standard stage's
    /// completion tracking, and [`DiagnosisState::clear_after`] always clears it
    /// (the plan is derived from SD's causes, so any upstream edit stales it).
    pub remediation: Option<crate::planner::RemediationPlan>,
    /// Fingerprints of the inputs the standard results were computed from, when the
    /// ledger was produced by an evidence-recording run (engine-backed diagnoses).
    /// `None` for plain pipeline runs; incremental re-diagnosis requires it.
    pub inputs: Option<LedgerInputs>,
}

impl DiagnosisState {
    /// Whether PD ran and found a plan change. The scoring stages consult this to
    /// pick their **re-drill** mode: a changed plan makes operator-level correlation
    /// meaningless (operator ids are per-plan structural positions), so CO/CR still
    /// run but their plan-filtered satisfactory sample is empty and they score
    /// nothing, while DA widens to every component of the new plan's APG and SD
    /// falls back to the new plan's leaf volumes — both baselined against the full
    /// satisfactory history, so concurrent SAN-side causes surface alongside the
    /// plan-change causes instead of being masked by them. A skipped PD reads as
    /// "no plan-change evidence" and the ordinary drill-down proceeds.
    pub fn plan_changed(&self) -> bool {
        self.pd.as_ref().is_some_and(|pd| !pd.same_plan)
    }

    /// Whether the given standard stage's ledger slot is filled.
    pub fn is_complete(&self, stage: Stage) -> bool {
        match stage {
            Stage::PlanDiffing => self.pd.is_some(),
            Stage::CorrelatedOperators => self.cos.is_some(),
            Stage::DependencyAnalysis => self.da.is_some(),
            Stage::RecordCounts => self.cr.is_some(),
            Stage::Symptoms => self.sd.is_some(),
            Stage::ImpactAnalysis => self.ia.is_some(),
        }
    }

    /// Names of the filled standard slots, in workflow order.
    pub fn completed(&self) -> Vec<&'static str> {
        Stage::ALL.iter().filter(|s| self.is_complete(**s)).map(|s| s.name()).collect()
    }

    /// Empties one standard stage's ledger slot. Also drops the recorded input
    /// fingerprints: an edited ledger no longer describes one consistent run, so it
    /// must not seed incremental replay.
    pub fn clear_slot(&mut self, stage: Stage) {
        self.inputs = None;
        match stage {
            Stage::PlanDiffing => self.pd = None,
            Stage::CorrelatedOperators => self.cos = None,
            Stage::DependencyAnalysis => self.da = None,
            Stage::RecordCounts => self.cr = None,
            Stage::Symptoms => self.sd = None,
            Stage::ImpactAnalysis => self.ia = None,
        }
    }

    /// Clears every standard slot strictly after `stage` in workflow order — the
    /// downstream-invalidation rule for interactive edits (editing CO's result
    /// invalidates DA, CR, SD and IA). Sessions over reordered pipelines invalidate
    /// by *pipeline* order instead — see
    /// [`crate::session::WorkflowSession::invalidate_downstream`].
    pub fn clear_after(&mut self, stage: Stage) {
        for s in Stage::ALL.iter().skip(stage.index() + 1) {
            self.clear_slot(*s);
        }
        // The remediation plan is downstream of everything it reads (SD): any
        // standard-slot invalidation stales it.
        self.remediation = None;
    }

    /// Assembles the report from the ledger — the one assembly every driver uses:
    /// ranked causes (with their evidence trails) from the SD/IA slots, module
    /// summaries from the rest, and the given provenance. Missing slots read as
    /// empty results, so partial pipelines and cancelled runs still produce
    /// well-formed reports.
    pub fn assemble(&self, ctx: &DiagnosisContext<'_>, provenance: DiagnosisProvenance) -> DiagnosisReport {
        let (fallback_pd, fallback_cos, fallback_da) =
            (missing_pd(), CorrelatedOperatorsResult::default(), DependencyAnalysisResult::default());
        let (fallback_cr, fallback_sd, fallback_ia) =
            (RecordCountResult::default(), SymptomsResult::default(), ImpactResult::default());
        let pd = self.pd.as_ref().unwrap_or(&fallback_pd);
        let cos = self.cos.as_ref().unwrap_or(&fallback_cos);
        let da = self.da.as_ref().unwrap_or(&fallback_da);
        let cr = self.cr.as_ref().unwrap_or(&fallback_cr);
        let sd = self.sd.as_ref().unwrap_or(&fallback_sd);
        let ia = self.ia.as_ref().unwrap_or(&fallback_ia);
        let mut causes: Vec<RankedCause> = sd
            .causes
            .iter()
            .map(|c| {
                // The evidence trail: the SD-side symptom matches, then the operator
                // set IA attributed the impact over. Both are deterministic, so they
                // participate in report equality.
                let mut evidence: Vec<String> = c
                    .supporting_symptoms
                    .iter()
                    .map(|s| format!("{}: {} (strength {:.2})", s.kind.label(), s.detail, s.strength))
                    .collect();
                let impact = ia.impacts.iter().find(|i| i.cause_id == c.cause_id);
                if let Some(impact) = impact {
                    if !impact.affected_operators.is_empty() {
                        evidence.push(format!(
                            "impact computed over operators {}",
                            impact
                                .affected_operators
                                .iter()
                                .map(|o| o.to_string())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ));
                    }
                }
                RankedCause {
                    cause_id: c.cause_id.clone(),
                    description: c.description.clone(),
                    subject: c.subject.clone(),
                    confidence_score: c.confidence_score,
                    confidence: c.confidence,
                    impact_pct: impact.map(|i| i.impact_pct).unwrap_or(0.0),
                    evidence,
                }
            })
            .collect();
        causes.sort_by(|a, b| {
            (b.confidence_score, b.impact_pct)
                .partial_cmp(&(a.confidence_score, a.impact_pct))
                .expect("finite scores")
        });
        DiagnosisReport {
            query: ctx.apg.query.clone(),
            satisfactory_mean_secs: ctx.history.mean_satisfactory_elapsed().unwrap_or(0.0),
            unsatisfactory_mean_secs: ctx.history.mean_unsatisfactory_elapsed().unwrap_or(0.0),
            plan_changed: !pd.same_plan,
            plan_change_causes: pd.change_causes.iter().map(|c| c.description.clone()).collect(),
            correlated_operators: cos.correlated.iter().map(|o| o.to_string()).collect(),
            correlated_components: da.correlated_components.clone(),
            record_count_changes: cr.changed.iter().map(|o| o.to_string()).collect(),
            causes,
            provenance,
        }
    }
}

/// What a stage's fallback is when it reads a PD slot that never ran: no plan-diff
/// evidence, so the drill-down proceeds as if the plan were stable.
fn missing_pd() -> PlanDiffResult {
    PlanDiffResult {
        same_plan: true,
        satisfactory_plans: Vec::new(),
        unsatisfactory_plans: Vec::new(),
        change_causes: Vec::new(),
    }
}

/// Everything a stage sees while running: the workflow (config + symptoms database),
/// the immutable diagnosis context, the shared scoring cache, and the evidence
/// ledger it reads from and writes to.
pub struct StageCtx<'a, 'ctx> {
    /// The workflow whose config and symptoms database the stages consult.
    pub workflow: &'a DiagnosisWorkflow,
    /// The immutable inputs of the diagnosis (APG, history, stores, topology).
    pub ctx: &'a DiagnosisContext<'ctx>,
    /// The diagnosis's KDE-fit cache — one per pipeline run (or an engine slot).
    pub cache: &'a mut DiagnosisCache,
    /// The evidence ledger.
    pub state: &'a mut DiagnosisState,
}

/// One composable diagnosis stage.
///
/// A stage has a `name` (unique within a pipeline; the standard stages use the
/// paper's module labels), declared `prerequisites` (the standard slots it reads —
/// drivers use them for lazy execution and downstream invalidation), and a `run`
/// that reads and writes the [`DiagnosisState`] ledger through a [`StageCtx`].
pub trait DiagnosisStage {
    /// The stage's display name (also the key for [`DiagnosisPipeline::skip_named`]
    /// and [`DiagnosisPipeline::insert_after`]).
    fn name(&self) -> &str;

    /// The standard stages whose results this stage reads. Defaults to none.
    fn prerequisites(&self) -> &[Stage] {
        &[]
    }

    /// Executes the stage: read inputs from `ctx.state`, score through `ctx.cache`,
    /// write the result back into `ctx.state`.
    fn run(&self, ctx: &mut StageCtx<'_, '_>);
}

impl DiagnosisStage for Stage {
    fn name(&self) -> &str {
        Stage::name(*self)
    }

    fn prerequisites(&self) -> &[Stage] {
        Stage::prerequisites(*self)
    }

    fn run(&self, s: &mut StageCtx<'_, '_>) {
        match self {
            Stage::PlanDiffing => {
                s.state.pd = Some(s.workflow.plan_diffing(s.ctx));
            }
            // CO/CR always execute: under a plan change their plan-filtered
            // satisfactory sample is empty and they score nothing, which is the
            // honest result (operator ids are per-plan structural positions, so a
            // cross-plan baseline would be meaningless). DA switches to the
            // re-drill entry point, widening to the new plan's whole APG against
            // the plan-independent metric baseline — this is what surfaces a
            // concurrent SAN-side cause that the old plan-change gating masked.
            Stage::CorrelatedOperators => {
                s.state.cos = Some(s.workflow.correlated_operators(s.ctx, s.cache));
            }
            Stage::DependencyAnalysis => {
                let result = if s.state.plan_changed() {
                    s.workflow.dependency_analysis_redrill(s.ctx, s.cache)
                } else {
                    let fallback = CorrelatedOperatorsResult::default();
                    let cos = s.state.cos.as_ref().unwrap_or(&fallback);
                    s.workflow.dependency_analysis(s.ctx, cos, s.cache)
                };
                s.state.da = Some(result);
            }
            Stage::RecordCounts => {
                let result = {
                    let fallback = CorrelatedOperatorsResult::default();
                    let cos = s.state.cos.as_ref().unwrap_or(&fallback);
                    s.workflow.record_counts(s.ctx, cos, s.cache)
                };
                s.state.cr = Some(result);
            }
            Stage::Symptoms => {
                let result = {
                    let fallback_pd = missing_pd();
                    let fallback_cos = CorrelatedOperatorsResult::default();
                    let fallback_da = DependencyAnalysisResult::default();
                    let fallback_cr = RecordCountResult::default();
                    let pd = s.state.pd.as_ref().unwrap_or(&fallback_pd);
                    let cos = s.state.cos.as_ref().unwrap_or(&fallback_cos);
                    let da = s.state.da.as_ref().unwrap_or(&fallback_da);
                    let cr = s.state.cr.as_ref().unwrap_or(&fallback_cr);
                    s.workflow.symptoms(s.ctx, pd, cos, da, cr)
                };
                s.state.sd = Some(result);
            }
            Stage::ImpactAnalysis => {
                let result = {
                    let fallback_cos = CorrelatedOperatorsResult::default();
                    let fallback_da = DependencyAnalysisResult::default();
                    let fallback_cr = RecordCountResult::default();
                    let fallback_sd = SymptomsResult::default();
                    let cos = s.state.cos.as_ref().unwrap_or(&fallback_cos);
                    let da = s.state.da.as_ref().unwrap_or(&fallback_da);
                    let cr = s.state.cr.as_ref().unwrap_or(&fallback_cr);
                    let sd = s.state.sd.as_ref().unwrap_or(&fallback_sd);
                    s.workflow.impact_analysis(s.ctx, cos, da, cr, sd)
                };
                s.state.ia = Some(result);
            }
        }
    }
}

/// The typed vocabulary of the pipeline's streaming event bus — what every
/// execution path (batch, engine warm/cold, incremental replay, interactive
/// session) emits to its [`EventSink`]s, in a pinned per-stage order:
/// `StageStarted` → `StageCompleted` (→ `CausesRanked` after SD, →
/// `RemediationPlanned` when a stage fills the remediation slot), repeated per
/// stage, then exactly one terminal `RunCompleted` or `Cancelled`.
#[derive(Debug, Clone)]
pub enum PipelineEvent {
    /// A stage is about to execute (or, during incremental re-diagnosis, to replay
    /// its prior evidence).
    StageStarted {
        /// The stage's display name (`"PD"`, `"CO"`, … for the standard stages).
        stage: String,
    },
    /// A stage finished, with its execution provenance (timing, cache deltas,
    /// reused/redrilled markers).
    StageCompleted {
        /// The completed stage's provenance.
        provenance: StageProvenance,
    },
    /// Module SD filled the ledger's cause ranking — the earliest moment a
    /// subscriber can act on ranked causes, one stage before the final report.
    CausesRanked {
        /// The scored causes, best first (SD's ranking).
        causes: Vec<crate::symptoms::ScoredCause>,
    },
    /// A stage wrote the ledger's remediation slot (the
    /// [`crate::planner::PlannerStage`], or any custom stage doing the same).
    RemediationPlanned {
        /// The what-if-evaluated remediation plan.
        plan: crate::planner::RemediationPlan,
    },
    /// The run finished and assembled its report. Terminal; never follows
    /// `Cancelled` within one run.
    RunCompleted {
        /// The assembled report, findings and provenance.
        report: DiagnosisReport,
    },
    /// A [`CancelToken`] stopped the run at a stage boundary. Terminal; the run
    /// still returns a partial report whose provenance carries the same stage name.
    Cancelled {
        /// Name of the first stage that did **not** run.
        at_stage: String,
    },
}

impl PipelineEvent {
    /// A short label for the event kind (test pins and log lines).
    pub fn kind(&self) -> &'static str {
        match self {
            PipelineEvent::StageStarted { .. } => "stage_started",
            PipelineEvent::StageCompleted { .. } => "stage_completed",
            PipelineEvent::CausesRanked { .. } => "causes_ranked",
            PipelineEvent::RemediationPlanned { .. } => "remediation_planned",
            PipelineEvent::RunCompleted { .. } => "run_completed",
            PipelineEvent::Cancelled { .. } => "cancelled",
        }
    }
}

/// A subscriber on the pipeline's event bus. Sinks receive every
/// [`PipelineEvent`] next to the evidence ledger as it stands, synchronously on
/// the diagnosing thread — a sink that must not block the diagnosis hands the
/// event off (e.g. the service layer's bounded channel) instead of processing
/// in place.
pub trait EventSink {
    /// Delivers one event. `state` is the ledger at emission time: completed
    /// slots are filled, pending ones empty.
    fn on_event(&self, event: &PipelineEvent, state: &DiagnosisState);
}

/// A shared cancellation flag checked between pipeline stages: `cancel()` from any
/// thread (or from a sink reacting to an event) stops the run before its next
/// stage, which returns a partial, consistent report. Clones share one flag;
/// [`CancelToken::reset`] re-arms it so a cancelled session can resume.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation: the owning run stops at its next stage boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    /// Clears the flag so the next (or resumed) run proceeds.
    pub fn reset(&self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

/// The emission context one run threads through its stage loop: the pipeline's
/// registered sinks, an optional extra per-run sink (the engine's `*_streamed`
/// entry points), and the effective cancel token. Borrow-only and crate-internal;
/// the public surface is [`EventSink`]/[`CancelToken`].
pub(crate) struct Emitter<'a> {
    sinks: &'a [Box<dyn EventSink>],
    extra: Option<&'a dyn EventSink>,
    cancel: Option<&'a CancelToken>,
}

impl<'a> Emitter<'a> {
    pub(crate) fn new(
        sinks: &'a [Box<dyn EventSink>],
        extra: Option<&'a dyn EventSink>,
        cancel: Option<&'a CancelToken>,
    ) -> Self {
        Emitter { sinks, extra, cancel }
    }

    fn emit(&self, event: &PipelineEvent, state: &DiagnosisState) {
        for sink in self.sinks {
            sink.on_event(event, state);
        }
        if let Some(extra) = self.extra {
            extra.on_event(event, state);
        }
    }

    fn has_sinks(&self) -> bool {
        !self.sinks.is_empty() || self.extra.is_some()
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(|c| c.is_cancelled())
    }

    pub(crate) fn stage_started(&self, name: &str, state: &DiagnosisState) {
        if self.has_sinks() {
            self.emit(&PipelineEvent::StageStarted { stage: name.to_string() }, state);
        }
    }

    /// Emits `StageCompleted` plus the derived events: `CausesRanked` right after
    /// SD fills the cause ranking, `RemediationPlanned` when the stage flipped the
    /// remediation slot from empty to filled (`had_remediation` is the slot state
    /// before the stage ran).
    pub(crate) fn stage_completed(
        &self,
        provenance: &StageProvenance,
        state: &DiagnosisState,
        had_remediation: bool,
    ) {
        if !self.has_sinks() {
            return;
        }
        self.emit(&PipelineEvent::StageCompleted { provenance: provenance.clone() }, state);
        if provenance.stage == Stage::Symptoms.name() {
            if let Some(sd) = &state.sd {
                self.emit(&PipelineEvent::CausesRanked { causes: sd.causes.clone() }, state);
            }
        }
        if !had_remediation {
            if let Some(plan) = &state.remediation {
                self.emit(&PipelineEvent::RemediationPlanned { plan: plan.clone() }, state);
            }
        }
    }

    pub(crate) fn run_completed(&self, report: &DiagnosisReport, state: &DiagnosisState) {
        if self.has_sinks() {
            self.emit(&PipelineEvent::RunCompleted { report: report.clone() }, state);
        }
    }

    pub(crate) fn cancelled(&self, at_stage: &str, state: &DiagnosisState) {
        if self.has_sinks() {
            self.emit(&PipelineEvent::Cancelled { at_stage: at_stage.to_string() }, state);
        }
    }
}

/// The composable diagnosis pipeline: an ordered stage list, the workflow whose
/// config/symptoms database the stages consult, and event sinks.
///
/// [`DiagnosisPipeline::standard`] is the paper's Figure-2 sequence and is
/// bit-identical to the pre-pipeline monolithic workflow (all golden pins
/// unchanged). Builder methods recompose it; run methods execute it with a private
/// cache or through a fleet-level [`DiagnosisEngine`].
pub struct DiagnosisPipeline {
    workflow: DiagnosisWorkflow,
    stages: Vec<Box<dyn DiagnosisStage>>,
    sinks: Vec<Box<dyn EventSink>>,
    cancel: Option<CancelToken>,
    /// Whether the *stage list* is still the unmodified standard Figure-2
    /// sequence. Any recomposition (skip/insert/push) clears it; the engine's
    /// evidence-recording fast path requires it, because that path runs
    /// [`Stage::ALL`] directly and would bypass custom stages. Sinks and cancel
    /// tokens do **not** clear it: the fast paths thread the emitter through, so
    /// an observed standard pipeline still records evidence (and the event
    /// sequence is identical either way).
    standard: bool,
}

impl Default for DiagnosisPipeline {
    fn default() -> Self {
        Self::standard()
    }
}

impl DiagnosisPipeline {
    /// The paper's standard PD → CO → DA → CR → SD → IA pipeline with the default
    /// workflow (built-in symptoms database, paper thresholds).
    pub fn standard() -> Self {
        Self::with_workflow(DiagnosisWorkflow::new())
    }

    /// The standard stage sequence over a custom workflow (tuned thresholds or a
    /// custom symptoms database).
    pub fn with_workflow(workflow: DiagnosisWorkflow) -> Self {
        let stages: Vec<Box<dyn DiagnosisStage>> =
            Stage::ALL.iter().map(|s| Box::new(*s) as Box<dyn DiagnosisStage>).collect();
        DiagnosisPipeline { workflow, stages, sinks: Vec::new(), cancel: None, standard: true }
    }

    /// An empty pipeline over a workflow — the starting point for fully custom
    /// stage lists (`empty().push(..)`).
    pub fn empty(workflow: DiagnosisWorkflow) -> Self {
        DiagnosisPipeline { workflow, stages: Vec::new(), sinks: Vec::new(), cancel: None, standard: false }
    }

    /// Whether this pipeline's stage list is the unmodified standard sequence —
    /// the precondition for the engine's evidence-recording and
    /// incremental-replay paths (which still honour any registered sinks and
    /// cancel token).
    pub(crate) fn is_standard(&self) -> bool {
        self.standard
    }

    /// The emission context for a run of this pipeline: its registered sinks plus
    /// its cancel token.
    pub(crate) fn emitter(&self) -> Emitter<'_> {
        Emitter::new(&self.sinks, None, self.cancel.as_ref())
    }

    /// Like [`DiagnosisPipeline::emitter`], with an extra per-run sink and an
    /// overriding cancel token — the engine's `*_streamed` entry points.
    pub(crate) fn emitter_with<'a>(
        &'a self,
        extra: Option<&'a dyn EventSink>,
        cancel: Option<&'a CancelToken>,
    ) -> Emitter<'a> {
        Emitter::new(&self.sinks, extra, cancel.or(self.cancel.as_ref()))
    }

    /// The workflow the stages consult.
    pub fn workflow(&self) -> &DiagnosisWorkflow {
        &self.workflow
    }

    /// Mutable access to the workflow (threshold tweaks between runs).
    pub fn workflow_mut(&mut self) -> &mut DiagnosisWorkflow {
        &mut self.workflow
    }

    /// The stage names, in execution order.
    pub fn stage_names(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The stage at `index`, in execution order.
    pub fn stage_at(&self, index: usize) -> &dyn DiagnosisStage {
        self.stages[index].as_ref()
    }

    /// The position of the stage named `name`, if present.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.stages.iter().position(|s| s.name() == name)
    }

    /// Removes a standard stage. Stages that would have read its result fall back to
    /// an empty (PD: "no plan-diff evidence") input — the report stays well-formed.
    pub fn skip(self, stage: Stage) -> Self {
        self.skip_named(stage.name())
    }

    /// Removes the stage named `name` (standard or custom); a no-op when absent.
    pub fn skip_named(mut self, name: &str) -> Self {
        self.stages.retain(|s| s.name() != name);
        self.standard = false;
        self
    }

    /// Inserts a stage right after the named standard stage, or appends it when that
    /// stage is not in the pipeline.
    pub fn insert_after(self, after: Stage, stage: Box<dyn DiagnosisStage>) -> Self {
        self.insert_after_named(after.name(), stage)
    }

    /// Inserts a stage right after the stage named `after` (standard or custom), or
    /// appends it when no such stage exists.
    pub fn insert_after_named(mut self, after: &str, stage: Box<dyn DiagnosisStage>) -> Self {
        match self.position(after) {
            Some(i) => self.stages.insert(i + 1, stage),
            None => self.stages.push(stage),
        }
        self.standard = false;
        self
    }

    /// Appends a stage at the end of the pipeline.
    pub fn push(mut self, stage: Box<dyn DiagnosisStage>) -> Self {
        self.stages.push(stage);
        self.standard = false;
        self
    }

    /// Registers an [`EventSink`] receiving every [`PipelineEvent`] of every run of
    /// this pipeline, on the diagnosing thread. Sinks do not change what a run
    /// computes — an observed standard pipeline still takes the engine's
    /// evidence-recording and incremental-replay fast paths.
    pub fn with_sink(mut self, sink: impl EventSink + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Attaches a cancellation token checked between stages of every run of this
    /// pipeline. See [`CancelToken`]; the engine's `*_streamed` entry points can
    /// supply a per-run token instead.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The cancel token attached with [`DiagnosisPipeline::with_cancel_token`],
    /// if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Runs the pipeline with a fresh private cache.
    pub fn run(&self, ctx: &DiagnosisContext<'_>) -> DiagnosisReport {
        self.run_with_cache(ctx, &mut DiagnosisCache::new())
    }

    /// Runs the pipeline with a caller-supplied cache (kept warm across repeated
    /// runs of the same context). The report's provenance carries the stage trail;
    /// `engine` stays `None` — use [`DiagnosisPipeline::run_with_engine`] for
    /// engine-backed runs.
    ///
    /// Cancellation (see [`DiagnosisPipeline::with_cancel_token`]) is checked
    /// before each stage: a cancelled run stops, emits
    /// [`PipelineEvent::Cancelled`], and returns the report assembled from the
    /// partial ledger with `provenance.cancelled_at` naming the stage that never
    /// ran.
    pub fn run_with_cache(&self, ctx: &DiagnosisContext<'_>, cache: &mut DiagnosisCache) -> DiagnosisReport {
        self.run_tagged(ctx, cache, None)
    }

    /// Runs the pipeline through a fleet-level [`DiagnosisEngine`]: the KDE-fit slot
    /// of `fingerprint` is checked out for the duration of the run, and the report's
    /// provenance records whether the checkout was warm or cold.
    pub fn run_with_engine(
        &self,
        ctx: &DiagnosisContext<'_>,
        engine: &DiagnosisEngine,
        fingerprint: u64,
    ) -> DiagnosisReport {
        engine.with_slot_tracked(fingerprint, |cache, warm| {
            self.run_tagged(ctx, cache, Some(EngineProvenance { fingerprint, warm }))
        })
    }

    /// One full run through [`DiagnosisPipeline::drive`] with the given engine
    /// provenance, closed by `RunCompleted` unless the run was cancelled.
    fn run_tagged(
        &self,
        ctx: &DiagnosisContext<'_>,
        cache: &mut DiagnosisCache,
        engine: Option<EngineProvenance>,
    ) -> DiagnosisReport {
        let emitter = self.emitter();
        let (mut report, state) = self.drive(ctx, cache, &emitter);
        report.provenance.engine = engine;
        if report.provenance.cancelled_at.is_none() {
            emitter.run_completed(&report, &state);
        }
        report
    }

    /// The stage loop every full run goes through: executes the stages in order
    /// against a fresh ledger, emitting the per-stage events through `emitter` and
    /// checking its cancel token before each stage, then assembles the report and
    /// hands the ledger back next to it. The caller emits the terminal
    /// `RunCompleted` (after patching engine provenance into the report, and
    /// stamping [`LedgerInputs`] when it records evidence).
    pub(crate) fn drive(
        &self,
        ctx: &DiagnosisContext<'_>,
        cache: &mut DiagnosisCache,
        emitter: &Emitter<'_>,
    ) -> (DiagnosisReport, DiagnosisState) {
        let mut state = DiagnosisState::default();
        let mut stages = Vec::with_capacity(self.stages.len());
        let mut cancelled_at = None;
        for stage in &self.stages {
            if emitter.is_cancelled() {
                let name = stage.name().to_string();
                emitter.cancelled(&name, &state);
                cancelled_at = Some(name);
                break;
            }
            stages.push(self.run_stage(stage.as_ref(), ctx, cache, &mut state, emitter));
        }
        let report = state
            .assemble(ctx, DiagnosisProvenance { stages, engine: None, epochs_applied: 0, cancelled_at });
        (report, state)
    }

    /// Executes one stage (by pipeline index) against an external ledger and cache,
    /// returning its provenance. This is the step primitive the interactive
    /// [`crate::session::WorkflowSession`] drives.
    pub fn run_stage_at(
        &self,
        index: usize,
        ctx: &DiagnosisContext<'_>,
        cache: &mut DiagnosisCache,
        state: &mut DiagnosisState,
    ) -> StageProvenance {
        self.run_stage(self.stages[index].as_ref(), ctx, cache, state, &self.emitter())
    }

    fn run_stage(
        &self,
        stage: &dyn DiagnosisStage,
        ctx: &DiagnosisContext<'_>,
        cache: &mut DiagnosisCache,
        state: &mut DiagnosisState,
        emitter: &Emitter<'_>,
    ) -> StageProvenance {
        let had_remediation = state.remediation.is_some();
        emitter.stage_started(stage.name(), state);
        let provenance = execute_stage(&self.workflow, stage, ctx, cache, state);
        emitter.stage_completed(&provenance, state, had_remediation);
        provenance
    }
}

/// Executes one stage against a ledger, timing it and diffing the cache counters —
/// the primitive both the pipeline driver and incremental replay use.
fn execute_stage(
    workflow: &DiagnosisWorkflow,
    stage: &dyn DiagnosisStage,
    ctx: &DiagnosisContext<'_>,
    cache: &mut DiagnosisCache,
    state: &mut DiagnosisState,
) -> StageProvenance {
    let (hits_before, misses_before) = (cache.hits(), cache.misses());
    let started = Instant::now();
    stage.run(&mut StageCtx { workflow, ctx, cache, state });
    StageProvenance {
        stage: stage.name().to_string(),
        elapsed_nanos: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        cache_hits: cache.hits() - hits_before,
        cache_misses: cache.misses() - misses_before,
        reused: false,
        redrilled: state.plan_changed() && stage_redrills(stage.name()),
    }
}

/// Whether a standard stage runs in re-drill mode under a plan change (see
/// [`DiagnosisState::plan_changed`]). PD derives the change itself and IA works
/// off whatever causes SD produced, so neither re-drills.
pub(crate) fn stage_redrills(name: &str) -> bool {
    matches!(name, "CO" | "DA" | "CR" | "SD")
}

/// Whether `stage`'s result in `state` differs from the prior ledger's — the
/// result-equality edge of staleness propagation.
fn result_changed(stage: Stage, state: &DiagnosisState, prior: &DiagnosisState) -> bool {
    match stage {
        Stage::PlanDiffing => state.pd != prior.pd,
        Stage::CorrelatedOperators => state.cos != prior.cos,
        Stage::DependencyAnalysis => state.da != prior.da,
        Stage::RecordCounts => state.cr != prior.cr,
        Stage::Symptoms => state.sd != prior.sd,
        Stage::ImpactAnalysis => state.ia != prior.ia,
    }
}

/// Copies `stage`'s prior result into `state` — the replay edge of incremental
/// re-diagnosis. Callers have already verified the slot is filled.
fn replay_slot(stage: Stage, state: &mut DiagnosisState, prior: &DiagnosisState) {
    match stage {
        Stage::PlanDiffing => state.pd = prior.pd.clone(),
        Stage::CorrelatedOperators => state.cos = prior.cos.clone(),
        Stage::DependencyAnalysis => state.da = prior.da.clone(),
        Stage::RecordCounts => state.cr = prior.cr.clone(),
        Stage::Symptoms => state.sd = prior.sd.clone(),
        Stage::ImpactAnalysis => state.ia = prior.ia.clone(),
    }
}

/// Runs the standard sequence *incrementally* against a prior evidence ledger: a
/// stage re-executes only when an input component it reads changed (per
/// [`LedgerInputs`]) or a dependency's result actually changed; otherwise its prior
/// result is replayed and its provenance marked `reused`.
///
/// Returns `None` when the prior ledger cannot seed a replay (a standard slot or
/// the input fingerprints are missing) — the caller falls back to a cold batch run.
/// The caches handed in must already reflect `inputs` (the engine's extension
/// pre-pass guarantees this), which is what makes replayed-or-not results
/// bit-identical to a cold batch diagnosis.
pub(crate) fn run_incremental_standard(
    workflow: &DiagnosisWorkflow,
    ctx: &DiagnosisContext<'_>,
    cache: &mut DiagnosisCache,
    prior: &DiagnosisState,
    inputs: LedgerInputs,
    emitter: &Emitter<'_>,
) -> Option<(DiagnosisReport, DiagnosisState)> {
    let prior_inputs = prior.inputs?;
    if !Stage::ALL.iter().all(|s| prior.is_complete(*s)) {
        return None;
    }
    let mut state = DiagnosisState::default();
    let mut changed = [false; Stage::ALL.len()];
    let mut stages = Vec::with_capacity(Stage::ALL.len());
    let mut cancelled_at = None;
    for stage in Stage::ALL {
        if emitter.is_cancelled() {
            let name = stage.name().to_string();
            emitter.cancelled(&name, &state);
            cancelled_at = Some(name);
            break;
        }
        let had_remediation = state.remediation.is_some();
        emitter.stage_started(stage.name(), &state);
        let stale = inputs.stage_stale(&prior_inputs, stage)
            || stage.staleness_deps().iter().any(|d| changed[d.index()]);
        let provenance = if stale {
            let provenance = execute_stage(workflow, &stage, ctx, cache, &mut state);
            changed[stage.index()] = result_changed(stage, &state, prior);
            provenance
        } else {
            let started = Instant::now();
            replay_slot(stage, &mut state, prior);
            StageProvenance {
                stage: stage.name().to_string(),
                elapsed_nanos: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                cache_hits: 0,
                cache_misses: 0,
                reused: true,
                redrilled: state.plan_changed() && stage_redrills(stage.name()),
            }
        };
        emitter.stage_completed(&provenance, &state, had_remediation);
        stages.push(provenance);
    }
    if cancelled_at.is_none() {
        state.inputs = Some(inputs);
    }
    let report =
        state.assemble(ctx, DiagnosisProvenance { stages, engine: None, epochs_applied: 0, cancelled_at });
    Some((report, state))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_stage_names_and_prerequisites() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["PD", "CO", "DA", "CR", "SD", "IA"]);
        assert!(Stage::PlanDiffing.prerequisites().is_empty());
        assert_eq!(Stage::DependencyAnalysis.prerequisites(), &[Stage::CorrelatedOperators]);
        assert_eq!(Stage::Symptoms.prerequisites().len(), 4);
    }

    #[test]
    fn builder_skip_insert_and_push_recompose_the_stage_list() {
        struct Noop;
        impl DiagnosisStage for Noop {
            fn name(&self) -> &str {
                "NOOP"
            }
            fn run(&self, _ctx: &mut StageCtx<'_, '_>) {}
        }
        let pipeline = DiagnosisPipeline::standard()
            .skip(Stage::PlanDiffing)
            .skip(Stage::RecordCounts)
            .insert_after(Stage::CorrelatedOperators, Box::new(Noop))
            .push(Box::new(Noop));
        assert_eq!(pipeline.stage_names(), vec!["CO", "NOOP", "DA", "SD", "IA", "NOOP"]);
        assert_eq!(pipeline.position("DA"), Some(2));
        assert!(!pipeline.is_empty());
        // Inserting after an absent stage appends.
        let appended =
            DiagnosisPipeline::empty(DiagnosisWorkflow::new()).insert_after(Stage::Symptoms, Box::new(Noop));
        assert_eq!(appended.stage_names(), vec!["NOOP"]);
        assert_eq!(DiagnosisPipeline::empty(DiagnosisWorkflow::new()).len(), 0);
    }

    #[test]
    fn ledger_tracks_completion_and_downstream_invalidation() {
        let mut state = DiagnosisState::default();
        assert!(state.completed().is_empty());
        assert!(!state.plan_changed());
        state.pd = Some(missing_pd());
        state.cos = Some(CorrelatedOperatorsResult::default());
        state.da = Some(DependencyAnalysisResult::default());
        state.sd = Some(SymptomsResult::default());
        assert_eq!(state.completed(), vec!["PD", "CO", "DA", "SD"]);
        state.clear_after(Stage::CorrelatedOperators);
        assert_eq!(state.completed(), vec!["PD", "CO"]);
        assert!(state.is_complete(Stage::PlanDiffing));
        assert!(!state.is_complete(Stage::DependencyAnalysis));
        state.pd = Some(PlanDiffResult { same_plan: false, ..missing_pd() });
        assert!(state.plan_changed());
    }
}
