//! Cached program artifacts: the immutable build product of the
//! explanation pipeline, separated from per-query state so it can be
//! shared — across goals in one process, across worker threads in a
//! server, across every build of the same deployed program.
//!
//! The split mirrors the paper's deployment model (Sec. 5): template
//! generation happens *once per application*, while explanation queries
//! arrive continuously. [`ProgramArtifacts`] owns everything the
//! once-per-application stage produces (structural analysis, template
//! catalogs, per-rule fallbacks, construction telemetry);
//! [`ArtifactsBuilder`] runs that stage; the process-wide
//! [`ArtifactCache`] memoizes it by program fingerprint so repeated
//! builds of the same deployment are free; and [`Explainer`], the only
//! query handle, binds the shared artifacts to one chase snapshot and
//! answers explanation queries Q_e under a template flavour, a
//! derivation policy and an optional per-query [`RunGuard`].
//!
//! Everything here is immutable after construction and `Sync`, which is
//! what makes the serving layer (`serve` crate) possible: N workers
//! answer explanation queries against one `Arc<ProgramArtifacts>` and
//! one `Arc<ChaseOutcome>` with zero copying and zero locking.

use crate::enhance::{checked_enhance, Enhancer};
use crate::error::ExplainError;
use crate::glossary::DomainGlossary;
use crate::mapping::{cover_from, instantiate, step_infos, PathCover};
use crate::structural::{analyze, StructuralAnalysis};
use crate::template::{generate, single_rule_path, Template, TemplateStyle};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use vadalog::checkpoint::Fnv1a;
use vadalog::telemetry::{JsonWriter, RunGuard};
use vadalog::{
    ChaseConfig, ChaseOutcome, DerivationId, DerivationPolicy, Fact, FactId, GoalCone, Program,
    ProofTree, RuleId, Symbol,
};

/// The immutable once-per-application build product of the explanation
/// pipeline: structural analysis, template catalogs and per-rule
/// fallbacks for one `(program, goal)` deployment.
///
/// Construction goes through [`ArtifactsBuilder`] (usually via the
/// process-wide [`ArtifactCache`]); afterwards the artifacts are
/// read-only and freely shareable across threads behind an `Arc`.
#[derive(Clone, Debug)]
pub struct ProgramArtifacts {
    program: Program,
    analysis: StructuralAnalysis,
    /// One label per reasoning path (`{o1,o3}`, `{o3}*`), formatted once
    /// at build time and cloned into each explanation that uses the path.
    labels: Vec<String>,
    deterministic: Vec<Template>,
    enhanced: Vec<Template>,
    /// Per-rule fallback templates (solid, dashed), used for side
    /// derivations no reasoning path absorbs.
    fallbacks: Vec<(Template, Template)>,
    /// The goal's relevance cone over D(Σ), shared with pruned chase
    /// configurations handed out by [`pruned_chase_config`](Self::pruned_chase_config).
    cone: Arc<GoalCone>,
    report: PipelineReport,
}

impl ProgramArtifacts {
    /// Starts an [`ArtifactsBuilder`] for `program` and the goal
    /// predicate.
    pub fn builder<'a>(program: Program, goal: &str) -> ArtifactsBuilder<'a> {
        ArtifactsBuilder {
            program,
            goal: goal.to_owned(),
            glossary: None,
            enhancer: None,
            guard: RunGuard::default(),
        }
    }

    /// The program the artifacts were built for.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The goal (leaf) predicate.
    pub fn goal(&self) -> Symbol {
        self.analysis.goal
    }

    /// The structural analysis (reasoning paths).
    pub fn analysis(&self) -> &StructuralAnalysis {
        &self.analysis
    }

    /// The goal's relevance cone over the dependency graph D(Σ): the
    /// predicates and rules that can contribute (positively or through
    /// `not`) to deriving the goal, closed over SCCs. Computed once at
    /// build time from the same fingerprinted inputs as the rest of the
    /// artifacts, so cached editions share it.
    pub fn goal_cone(&self) -> &Arc<GoalCone> {
        &self.cone
    }

    /// A [`ChaseConfig`] restricted to the goal's relevance cone:
    /// running the chase with it derives exactly the goal facts (and
    /// their full provenance) of an unrestricted run, skipping every
    /// rule outside the cone. Explanations over the pruned outcome are
    /// byte-identical to the full run's for any goal-predicate fact.
    ///
    /// Note that constraints never enter a cone, so a pruned run checks
    /// no constraints — use it for explanation serving, not validation.
    pub fn pruned_chase_config(&self) -> ChaseConfig {
        ChaseConfig::default().with_goal_cone(self.goal())
    }

    /// The generated templates of the given flavour, one per path.
    pub fn templates(&self, flavor: TemplateFlavor) -> &[Template] {
        match flavor {
            TemplateFlavor::Deterministic => &self.deterministic,
            TemplateFlavor::Enhanced => &self.enhanced,
        }
    }

    /// Construction telemetry: stage timings plus template counters.
    pub fn telemetry(&self) -> &PipelineReport {
        &self.report
    }

    /// Replaces the enhanced template at `index` with `text`, enforcing
    /// the token-completeness check. On failure returns the missing token
    /// display names and keeps the previous template (used by the
    /// human-in-the-loop review of [`crate::review`]).
    ///
    /// Requires exclusive ownership; callers holding an
    /// `Arc<ProgramArtifacts>` go through `Arc::make_mut`, which
    /// copy-on-writes a private edition and leaves cached/shared
    /// artifacts untouched.
    pub fn replace_enhanced_template(
        &mut self,
        index: usize,
        text: &str,
    ) -> Result<(), Vec<String>> {
        let Some(current) = self.enhanced.get(index) else {
            return Err(vec![format!("no template with index {index}")]);
        };
        let segments = current.reparse(text)?;
        let replaced = current.with_segments(segments);
        self.enhanced[index] = replaced;
        Ok(())
    }

    /// Tells the story of `proof`, the proof of one fact under `policy`:
    /// unabsorbed side branches first, then one template piece per cover
    /// piece, each appended to `text` after a `" "` separator and labelled
    /// in `paths`. Returns the spine's length in chase steps.
    #[allow(clippy::too_many_arguments)]
    fn explain_rec(
        &self,
        outcome: &ChaseOutcome,
        proof: &ProofTree,
        flavor: TemplateFlavor,
        policy: DerivationPolicy,
        governor: Option<(&RunGuard, Instant)>,
        visited: &mut HashSet<DerivationId>,
        text: &mut String,
        paths: &mut Vec<String>,
        depth: u32,
    ) -> Result<usize, ExplainError> {
        if depth > 64 {
            return Ok(0);
        }
        if let Some((guard, start)) = governor {
            poll_guard(guard, start)?;
        }
        let tau = proof.linearize(&outcome.graph);
        let steps = step_infos(&outcome.graph, &tau, policy);
        // A recursive call may find that a prefix of its spine was already
        // told by the caller's cover; the story resumes mid-proof with
        // reasoning cycles only.
        let start = steps
            .iter()
            .position(|s| !visited.contains(&s.derivation))
            .unwrap_or(steps.len());
        let covering = cover_from(&self.program, &self.analysis, &outcome.graph, &steps, start)?;

        // Everything verbalized by the selected pieces.
        for s in &steps {
            visited.insert(s.derivation);
        }
        for piece in &covering.pieces {
            visited.extend(piece.assignments.values().copied());
        }

        // Side branches not absorbed by any piece: preconditions of this
        // story, explained first. When a side fact's own sub-proof cannot
        // be covered by the enumerated paths (its predicate is not the
        // goal of any path), it is verbalized rule by rule — completeness
        // never depends on path coverage.
        for s in &steps {
            for &side in &s.sides {
                if visited.contains(&side) {
                    continue;
                }
                // The recursion marks the side derivation itself (it is
                // the last spine step of the side fact's proof); the
                // single-rule fallback marks it explicitly.
                let conclusion = outcome.graph.derivation(side).conclusion;
                let side_proof = outcome.graph.proof(conclusion, policy);
                match self.explain_rec(
                    outcome,
                    &side_proof,
                    flavor,
                    policy,
                    governor,
                    visited,
                    text,
                    paths,
                    depth + 1,
                ) {
                    Ok(_) => {}
                    Err(ExplainError::NoCoveringPath { .. }) => {
                        if visited.insert(side) {
                            self.explain_single(
                                outcome,
                                side,
                                policy,
                                visited,
                                text,
                                paths,
                                depth + 1,
                            );
                        }
                    }
                    Err(other) => return Err(other),
                }
            }
        }

        let templates = self.templates(flavor);
        for piece in &covering.pieces {
            separate_piece(text, paths);
            instantiate(&templates[piece.path_index], piece, &outcome.graph, text);
            paths.push(self.labels[piece.path_index].clone());
        }
        Ok(tau.len())
    }

    /// Verbalizes one derivation with its rule's fallback template,
    /// explaining unvisited derived premises first (depth-first).
    #[allow(clippy::too_many_arguments)]
    fn explain_single(
        &self,
        outcome: &ChaseOutcome,
        did: DerivationId,
        policy: DerivationPolicy,
        visited: &mut HashSet<DerivationId>,
        text: &mut String,
        paths: &mut Vec<String>,
        depth: u32,
    ) {
        if depth > 128 {
            return;
        }
        let der = outcome.graph.derivation(did);
        for &p in &der.premises {
            if !outcome.graph.is_derived(p) {
                continue;
            }
            if let Some(pd) = outcome.graph.choose_derivation(p, policy) {
                if visited.insert(pd) {
                    self.explain_single(outcome, pd, policy, visited, text, paths, depth + 1);
                }
            }
        }
        let (solid, dashed) = &self.fallbacks[der.rule.0];
        let template = if der.contributors > 1 { dashed } else { solid };
        let piece = PathCover {
            path_index: usize::MAX,
            assignments: std::iter::once((0usize, did)).collect(),
            consumed: 0,
            side_used: 0,
        };
        separate_piece(text, paths);
        instantiate(template, &piece, &outcome.graph, text);
        paths.push(format!("[{}]", self.program.rule(der.rule).label));
    }
}

/// Pushes the `" "` that separates a piece from the one before it; the
/// labels in `paths` count the pieces already told.
fn separate_piece(text: &mut String, paths: &[String]) {
    if !paths.is_empty() {
        text.push(' ');
    }
}

/// Fluent construction of [`ProgramArtifacts`]: the once-per-application
/// stage of the pipeline (structural analysis, template generation,
/// optional enhancement, per-rule fallbacks).
pub struct ArtifactsBuilder<'a> {
    program: Program,
    goal: String,
    glossary: Option<&'a DomainGlossary>,
    enhancer: Option<(&'a dyn Enhancer, u32)>,
    guard: RunGuard,
}

impl std::fmt::Debug for ArtifactsBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactsBuilder")
            .field("goal", &self.goal)
            .field("enhancer", &self.enhancer.map(|(_, retries)| retries))
            .field("guard", &self.guard)
            .finish_non_exhaustive()
    }
}

impl<'a> ArtifactsBuilder<'a> {
    /// Attaches the domain glossary used for verbalization (default:
    /// empty, yielding raw-atom renderings).
    pub fn with_glossary(mut self, glossary: &'a DomainGlossary) -> ArtifactsBuilder<'a> {
        self.glossary = Some(glossary);
        self
    }

    /// Passes each fluent template through `enhancer` under the
    /// token-completeness check, with at most `max_retries` attempts per
    /// template before falling back to the fluent deterministic
    /// generation.
    ///
    /// An enhancer makes the build non-cacheable: it is an opaque
    /// callback, so no fingerprint can prove two builds equivalent.
    pub fn with_enhancer(
        mut self,
        enhancer: &'a dyn Enhancer,
        max_retries: u32,
    ) -> ArtifactsBuilder<'a> {
        self.enhancer = Some((enhancer, max_retries));
        self
    }

    /// Governs the construction with a deadline and/or cancellation token
    /// (round/fact budgets do not apply here). A trip surfaces as
    /// [`ExplainError::ResourceExhausted`]. A non-default guard makes the
    /// build non-cacheable, so trip semantics stay exact.
    pub fn with_guard(mut self, guard: RunGuard) -> ArtifactsBuilder<'a> {
        self.guard = guard;
        self
    }

    /// The build's cache fingerprint: FNV-1a over the program text, the
    /// goal and the glossary text. `None` when the
    /// build cannot be keyed — an opaque enhancer is attached, or a
    /// deadline/cancellation guard demands exact trip semantics.
    pub fn fingerprint(&self) -> Option<u64> {
        if self.enhancer.is_some() || self.guard.timeout.is_some() || self.guard.cancel.is_some() {
            return None;
        }
        let mut h = Fnv1a::new();
        h.write(self.program.to_string().as_bytes());
        h.write(self.goal.as_bytes());
        if let Some(g) = self.glossary {
            h.write(g.to_text().as_bytes());
        }
        Some(h.finish())
    }

    /// Builds the artifacts unconditionally (no cache interaction).
    pub fn build(self) -> Result<ProgramArtifacts, ExplainError> {
        let start = Instant::now();
        let _span = vadalog::span!("explain.build", goal = self.goal.to_string());
        let default_glossary;
        let glossary = match self.glossary {
            Some(g) => g,
            None => {
                default_glossary = DomainGlossary::new();
                &default_glossary
            }
        };
        let mut report = PipelineReport::default();

        poll_guard(&self.guard, start)?;
        let t = Instant::now();
        let analysis = {
            let _span = vadalog::span!("explain.analysis");
            vadalog::obs::metrics::global()
                .counter(
                    "vadalog_explain_analysis_runs_total",
                    "Structural analyses actually executed (cache misses and uncached builds).",
                )
                .inc();
            analyze(&self.program, &self.goal)?
        };
        report.analysis_ns = t.elapsed().as_nanos() as u64;
        report.paths = analysis.paths.len() as u64;

        let program = self.program;
        let labels = analysis.paths.iter().map(|p| p.label(&program)).collect();
        let mut deterministic = Vec::with_capacity(analysis.paths.len());
        let mut enhanced = Vec::with_capacity(analysis.paths.len());
        for (i, path) in analysis.paths.iter().enumerate() {
            poll_guard(&self.guard, start)?;
            let t = Instant::now();
            let _span = vadalog::span!("explain.template", path = i);
            let det = generate(&program, glossary, path, i, TemplateStyle::Deterministic);
            let fluent = generate(&program, glossary, path, i, TemplateStyle::Fluent);
            report.template_ns += t.elapsed().as_nanos() as u64;
            let enh = match self.enhancer {
                None => fluent,
                Some((e, retries)) => {
                    let t = Instant::now();
                    let out = checked_enhance(&fluent, e, retries);
                    report.enhance_ns += t.elapsed().as_nanos() as u64;
                    report.enhancement_retries += u64::from(out.retries);
                    if out.fell_back {
                        report.enhancement_fallbacks += 1;
                    }
                    out.template
                }
            };
            deterministic.push(det);
            enhanced.push(enh);
        }
        poll_guard(&self.guard, start)?;
        let t = Instant::now();
        let fallbacks = {
            let _span = vadalog::span!("explain.fallbacks");
            (0..program.len())
                .map(|i| {
                    let rule = RuleId(i);
                    let has_agg = program.rule(rule).has_aggregate();
                    let solid = single_rule_path(&program, rule, false);
                    let dashed = single_rule_path(&program, rule, has_agg);
                    (
                        generate(
                            &program,
                            glossary,
                            &solid,
                            usize::MAX,
                            TemplateStyle::Fluent,
                        ),
                        generate(
                            &program,
                            glossary,
                            &dashed,
                            usize::MAX,
                            TemplateStyle::Fluent,
                        ),
                    )
                })
                .collect()
        };
        report.fallback_ns = t.elapsed().as_nanos() as u64;
        report.templates = deterministic.len() as u64;
        report.total_ns = start.elapsed().as_nanos() as u64;
        let registry = vadalog::obs::metrics::global();
        registry
            .counter(
                "vadalog_explain_builds_total",
                "Explanation pipelines built to completion.",
            )
            .inc();
        registry
            .counter(
                "vadalog_explain_paths_total",
                "Reasoning paths surfaced by structural analysis.",
            )
            .add(report.paths);
        registry
            .counter(
                "vadalog_explain_templates_total",
                "Explanation templates generated (deterministic style).",
            )
            .add(report.templates);
        registry
            .counter(
                "vadalog_explain_enhancement_fallbacks_total",
                "Enhancements that fell back to the deterministic template.",
            )
            .add(report.enhancement_fallbacks);
        let cone = Arc::new(GoalCone::compute(&program, analysis.goal));
        Ok(ProgramArtifacts {
            program,
            analysis,
            labels,
            deterministic,
            enhanced,
            fallbacks,
            cone,
            report,
        })
    }

    /// Builds through the process-wide [`ArtifactCache`] when the build
    /// is fingerprintable, sharing the result with every other cached
    /// build of the same deployment; falls back to a private build
    /// otherwise.
    pub fn build_cached(self) -> Result<Arc<ProgramArtifacts>, ExplainError> {
        match self.fingerprint() {
            Some(key) => ArtifactCache::global().get_or_build(key, self),
            None => Ok(Arc::new(self.build()?)),
        }
    }
}

/// Fails with the trip of a build or query guard, if any: the guard's
/// cancellation and deadline checks ([`RunGuard::interrupted`]).
fn poll_guard(guard: &RunGuard, start: Instant) -> Result<(), ExplainError> {
    match guard.interrupted(start) {
        Some((budget, observed)) => Err(ExplainError::ResourceExhausted { budget, observed }),
        None => Ok(()),
    }
}

/// The process-wide memo of built artifacts, keyed by
/// [`ArtifactsBuilder::fingerprint`]. Hits return the shared `Arc`
/// without re-running analysis or template generation; the
/// `vadalog_explain_artifact_cache_{hits,misses}_total` counters record
/// the traffic.
#[derive(Default)]
pub struct ArtifactCache {
    inner: Mutex<HashMap<u64, Arc<ProgramArtifacts>>>,
}

impl ArtifactCache {
    /// The process-wide cache instance.
    pub fn global() -> &'static ArtifactCache {
        static GLOBAL: OnceLock<ArtifactCache> = OnceLock::new();
        GLOBAL.get_or_init(ArtifactCache::default)
    }

    /// Number of cached artifact sets.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached artifact set (outstanding `Arc`s stay valid).
    pub fn clear(&self) {
        self.inner.lock().unwrap().clear();
    }

    /// Returns the cached artifacts under `key`, building and inserting
    /// them via `builder` on a miss.
    ///
    /// The build runs outside the map lock: concurrent misses on the same
    /// key may build twice, but the first insertion wins and later ones
    /// adopt it — callers always converge on one shared edition.
    pub fn get_or_build(
        &self,
        key: u64,
        builder: ArtifactsBuilder<'_>,
    ) -> Result<Arc<ProgramArtifacts>, ExplainError> {
        let registry = vadalog::obs::metrics::global();
        if let Some(hit) = self.inner.lock().unwrap().get(&key) {
            registry
                .counter(
                    "vadalog_explain_artifact_cache_hits_total",
                    "Artifact-cache lookups answered without rebuilding.",
                )
                .inc();
            return Ok(Arc::clone(hit));
        }
        registry
            .counter(
                "vadalog_explain_artifact_cache_misses_total",
                "Artifact-cache lookups that had to build.",
            )
            .inc();
        let built = Arc::new(builder.build()?);
        let mut map = self.inner.lock().unwrap();
        Ok(Arc::clone(map.entry(key).or_insert(built)))
    }
}

/// Which template flavour an explanation query uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TemplateFlavor {
    /// The deterministic rule-by-rule templates (verbose, complete).
    Deterministic,
    /// The enhanced templates (fluent, token-checked; the default).
    #[default]
    Enhanced,
}

/// An answered explanation query.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The explained fact.
    pub fact: Fact,
    /// The natural-language explanation.
    pub text: String,
    /// Labels of the reasoning paths composed (e.g. `["{o1,o3}", "{o3}*"]`).
    pub paths: Vec<String>,
    /// Length of the explained inference in chase steps.
    pub chase_steps: usize,
    /// All facts supporting the explanation (the proof's premises and
    /// conclusions), for front ends that render the matching KG fragment
    /// next to the text (cf. the study's visualizations).
    pub support: Vec<Fact>,
}

/// Telemetry of one artifact build: per-stage wall-clock timings plus
/// the template-generation counters, the explanation-side companion of
/// the engine's [`RunReport`](vadalog::telemetry::RunReport).
#[non_exhaustive]
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PipelineReport {
    /// Structural analysis (path enumeration) time, nanoseconds.
    pub analysis_ns: u64,
    /// Template generation time (deterministic + fluent), nanoseconds.
    pub template_ns: u64,
    /// Enhancement time (including anti-omission retries), nanoseconds.
    pub enhance_ns: u64,
    /// Per-rule fallback-template generation time, nanoseconds.
    pub fallback_ns: u64,
    /// Whole construction, nanoseconds.
    pub total_ns: u64,
    /// Number of reasoning paths (including dashed variants).
    pub paths: u64,
    /// Templates generated per flavour.
    pub templates: u64,
    /// Total enhancement retries performed.
    pub enhancement_retries: u64,
    /// Templates that fell back to the fluent deterministic generation
    /// because every enhancement attempt lost tokens.
    pub enhancement_fallbacks: u64,
}

impl PipelineReport {
    /// Serializes the report as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object();
        w.field_u64("analysis_ns", self.analysis_ns);
        w.field_u64("template_ns", self.template_ns);
        w.field_u64("enhance_ns", self.enhance_ns);
        w.field_u64("fallback_ns", self.fallback_ns);
        w.field_u64("total_ns", self.total_ns);
        w.field_u64("paths", self.paths);
        w.field_u64("templates", self.templates);
        w.field_u64("enhancement_retries", self.enhancement_retries);
        w.field_u64("enhancement_fallbacks", self.enhancement_fallbacks);
        w.close_object();
        w.finish()
    }
}

/// The explanation handle: shared artifacts bound to one chase
/// snapshot, with the query-time knobs (flavour, policy, guard) carried
/// by value. `Clone` is two `Arc` bumps, so every serving worker holds
/// its own `Explainer` over the same underlying data.
///
/// ```no_run
/// # use std::sync::Arc;
/// # use explain::artifacts::{Explainer, ProgramArtifacts};
/// # let artifacts: Arc<ProgramArtifacts> = todo!();
/// # let outcome: Arc<vadalog::ChaseOutcome> = todo!();
/// # let fact: vadalog::Fact = todo!();
/// let explainer = Explainer::for_snapshot(artifacts, outcome);
/// let explanation = explainer.explain(&fact)?;
/// # Ok::<(), explain::ExplainError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Explainer {
    artifacts: Arc<ProgramArtifacts>,
    outcome: Arc<ChaseOutcome>,
    policy: DerivationPolicy,
    flavor: TemplateFlavor,
    guard: RunGuard,
}

impl Explainer {
    /// Binds `artifacts` to one immutable chase snapshot. Accepts an
    /// owned outcome (moved into the `Arc`, never copied) or an
    /// already-shared `Arc<ChaseOutcome>`.
    pub fn for_snapshot(
        artifacts: Arc<ProgramArtifacts>,
        outcome: impl Into<Arc<ChaseOutcome>>,
    ) -> Explainer {
        Explainer {
            artifacts,
            outcome: outcome.into(),
            policy: DerivationPolicy::Richest,
            flavor: TemplateFlavor::Enhanced,
            guard: RunGuard::default(),
        }
    }

    /// Overrides the derivation-selection policy (default: richest).
    pub fn with_policy(mut self, policy: DerivationPolicy) -> Explainer {
        self.policy = policy;
        self
    }

    /// Overrides the template flavour (default: enhanced).
    pub fn with_flavor(mut self, flavor: TemplateFlavor) -> Explainer {
        self.flavor = flavor;
        self
    }

    /// Governs every query with `guard` (deadline and cancellation only;
    /// round/fact budgets do not apply here). The guard is armed per
    /// query and checked on entry and at every recursion step, so a slow
    /// or stuck query returns [`ExplainError::ResourceExhausted`] instead
    /// of running away — a query whose budget is already spent trips on
    /// entry. The serving layer hands each goal its request's remaining
    /// deadline this way. An unlimited guard (the default) is never
    /// polled.
    pub fn with_guard(mut self, guard: RunGuard) -> Explainer {
        self.guard = guard;
        self
    }

    /// The bound artifacts.
    pub fn artifacts(&self) -> &Arc<ProgramArtifacts> {
        &self.artifacts
    }

    /// The bound snapshot.
    pub fn outcome(&self) -> &Arc<ChaseOutcome> {
        &self.outcome
    }

    /// Answers the explanation query Q_e = {fact}.
    pub fn explain(&self, fact: &Fact) -> Result<Explanation, ExplainError> {
        let id = self
            .outcome
            .lookup(fact)
            .ok_or(ExplainError::UnknownFact(FactId(u32::MAX)))?;
        self.explain_id(id)
    }

    /// Answers the explanation query for a fact id.
    ///
    /// The proof spine is covered by one simple path plus cycles
    /// (Sec. 4.3). Side branches of the proof (e.g. the second ownership
    /// branch of a joint control, or the second channel of a two-channel
    /// cascade) that are not absorbed by a selected path are explained
    /// recursively and prepended as preconditions, so the explanation
    /// contains *every* constant of the proof — the completeness guarantee
    /// of Sec. 6.3.
    ///
    /// The query extracts the fact's proof once, borrowing the recorded
    /// derivations, and reads both the story and the `support` facts from
    /// it; only unabsorbed side branches extract their own sub-proofs.
    /// Every template piece and constant is rendered straight into the
    /// explanation's one text buffer, and path labels are the ones
    /// formatted when the artifacts were built.
    pub fn explain_id(&self, id: FactId) -> Result<Explanation, ExplainError> {
        let (artifacts, outcome, policy) = (&*self.artifacts, &*self.outcome, self.policy);
        if outcome.database.len() <= id.0 as usize {
            return Err(ExplainError::UnknownFact(id));
        }
        let _span = vadalog::span!(
            "explain.query",
            fact = outcome.database.fact(id).to_string()
        );
        if !outcome.graph.is_derived(id) {
            return Err(ExplainError::ExtensionalFact(id));
        }
        let governor = (!self.guard.is_unlimited()).then(|| (&self.guard, Instant::now()));
        if let Some((guard, start)) = governor {
            poll_guard(guard, start)?;
        }

        let proof = outcome.graph.proof(id, policy);
        let mut visited = HashSet::new();
        let mut text = String::new();
        let mut paths: Vec<String> = Vec::new();
        let chase_steps = artifacts.explain_rec(
            outcome,
            &proof,
            self.flavor,
            policy,
            governor,
            &mut visited,
            &mut text,
            &mut paths,
            0,
        )?;

        let support = proof
            .facts()
            .into_iter()
            .map(|f| outcome.database.fact(f).clone())
            .collect();

        Ok(Explanation {
            fact: outcome.database.fact(id).clone(),
            text,
            paths,
            chase_steps,
            support,
        })
    }

    /// Produces the *business report* of the snapshot: one explanation
    /// per derived fact of the goal predicate, in derivation order — the
    /// "natural language business reports" the paper's applications feed
    /// to compliance staff and auditors (Sec. 5).
    pub fn report(&self) -> Result<Vec<Explanation>, ExplainError> {
        let outcome = &self.outcome;
        outcome
            .database
            .facts_of(self.artifacts.goal())
            .iter()
            .filter(|&&id| outcome.graph.is_derived(id))
            .map(|&id| self.explain_id(id))
            .collect()
    }

    /// Renders the [`report`](Self::report) as a plain-text document with
    /// one section per explained fact.
    pub fn render_report(&self) -> Result<String, ExplainError> {
        let explanations = self.report()?;
        let mut out = String::new();
        out.push_str(&format!(
            "Business report — {} derived {} fact(s)\n\n",
            explanations.len(),
            self.artifacts.goal()
        ));
        for (i, e) in explanations.iter().enumerate() {
            out.push_str(&format!(
                "{}. {} ({} inference steps)\n{}\n\n",
                i + 1,
                e.fact,
                e.chase_steps,
                e.text
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glossary::{GlossaryEntry, ValueFormat};
    use vadalog::telemetry::Budget;
    use vadalog::{parse_program, CancelToken, ChaseSession, Database};

    fn reach_program() -> vadalog::ParsedProgram {
        parse_program(
            r#"
            alpha: edge(x, y) -> reach(x, y).
            beta: reach(x, y), edge(y, z) -> reach(x, z).
            edge("a", "b").
            edge("b", "c").
        "#,
        )
        .unwrap()
    }

    #[test]
    fn fingerprint_separates_programs_and_goals() {
        let parsed = reach_program();
        let base = ProgramArtifacts::builder(parsed.program.clone(), "reach")
            .fingerprint()
            .unwrap();
        let other_goal = ProgramArtifacts::builder(parsed.program.clone(), "edge")
            .fingerprint()
            .unwrap();
        assert_ne!(base, other_goal);
        // A guard with a deadline is not fingerprintable.
        let guarded = ProgramArtifacts::builder(parsed.program, "reach")
            .with_guard(RunGuard::default().with_timeout(std::time::Duration::from_secs(1)));
        assert!(guarded.fingerprint().is_none());
    }

    #[test]
    fn artifacts_carry_the_goal_cone_and_hand_out_pruned_configs() {
        let parsed = parse_program(
            r#"
            alpha: edge(x, y) -> reach(x, y).
            beta: reach(x, y), edge(y, z) -> reach(x, z).
            gamma: node(x) -> isolated(x).
        "#,
        )
        .unwrap();
        let artifacts = ProgramArtifacts::builder(parsed.program, "reach")
            .build()
            .unwrap();
        let cone = artifacts.goal_cone();
        assert_eq!(cone.goal(), Symbol::new("reach"));
        assert!(cone.contains(Symbol::new("edge")));
        assert!(!cone.contains(Symbol::new("isolated")));
        assert_eq!(cone.pruned_rule_count(), 1);
        let config = artifacts.pruned_chase_config();
        assert_eq!(config.goal_cone, Some(Symbol::new("reach")));
    }

    #[test]
    fn explainer_answers_queries_over_a_shared_snapshot() {
        let parsed = reach_program();
        let artifacts = ProgramArtifacts::builder(parsed.program.clone(), "reach")
            .build_cached()
            .unwrap();
        let db: Database = parsed.facts.into_iter().collect();
        let outcome = Arc::new(ChaseSession::new(&parsed.program).run(db).unwrap());
        let explainer = Explainer::for_snapshot(artifacts, outcome);
        let e = explainer
            .explain(&Fact::new("reach", vec!["a".into(), "c".into()]))
            .unwrap();
        assert!(!e.text.is_empty());
        assert_eq!(explainer.report().unwrap().len(), 3);
        // Clones answer identically (shared artifacts + snapshot).
        let clone = explainer.clone();
        let e2 = clone
            .explain(&Fact::new("reach", vec!["a".into(), "c".into()]))
            .unwrap();
        assert_eq!(e.text, e2.text);
    }

    /// Example 4.3 with the Fig. 8 EDB and the Fig. 7 glossary.
    fn setup() -> Explainer {
        let parsed = parse_program(
            r#"
            alpha: shock(f, s), has_capital(f, p1), s > p1 -> default(f).
            beta: default(d), debts(d, c, v), e = sum(v) -> risk(c, e).
            gamma: has_capital(c, p2), risk(c, e), p2 < e -> default(c).

            shock("A", 6).
            has_capital("A", 5).
            debts("A", "B", 7).
            has_capital("B", 2).
            debts("B", "C", 2).
            debts("B", "C", 9).
            has_capital("C", 10).
        "#,
        )
        .unwrap();
        let glossary = DomainGlossary::new()
            .with(GlossaryEntry::new(
                "has_capital",
                &[("f", ValueFormat::Plain), ("p", ValueFormat::MillionsEuro)],
                "<f> is a financial institution with capital of <p>",
            ))
            .with(GlossaryEntry::new(
                "shock",
                &[("f", ValueFormat::Plain), ("s", ValueFormat::MillionsEuro)],
                "a shock amounting to <s> affects <f>",
            ))
            .with(GlossaryEntry::new(
                "default",
                &[("f", ValueFormat::Plain)],
                "<f> is in default",
            ))
            .with(GlossaryEntry::new(
                "debts",
                &[
                    ("d", ValueFormat::Plain),
                    ("c", ValueFormat::Plain),
                    ("v", ValueFormat::MillionsEuro),
                ],
                "<d> has an amount <v> of debts with <c>",
            ))
            .with(GlossaryEntry::new(
                "risk",
                &[("c", ValueFormat::Plain), ("e", ValueFormat::MillionsEuro)],
                "<c> is at risk of defaulting given its loan of <e> of exposures to a defaulted debtor",
            ));
        let artifacts = ProgramArtifacts::builder(parsed.program.clone(), "default")
            .with_glossary(&glossary)
            .build_cached()
            .unwrap();
        let db: Database = parsed.facts.into_iter().collect();
        let outcome = ChaseSession::new(&parsed.program).run(db).unwrap();
        Explainer::for_snapshot(artifacts, outcome)
    }

    #[test]
    fn example_4_8_explanation_content() {
        let explainer = setup();
        let q = Fact::new("default", vec!["C".into()]);
        let e = explainer.explain(&q).unwrap();
        // The explanation of Example 4.8 mentions: the 6M shock on A, A's
        // 5M capital, the 7M debt to B, B's 2M capital, the 2M and 9M
        // loans, the 11M total, and C's 10M capital.
        for needle in [
            "6M euros",
            "5M euros",
            "7M euros",
            "2M euros",
            "9M euros",
            "11M euros",
            "10M euros",
            "A",
            "B",
            "C",
        ] {
            assert!(e.text.contains(needle), "missing {needle} in: {}", e.text);
        }
        assert_eq!(e.chase_steps, 5);
        assert_eq!(e.paths.len(), 2);
        // The support spans the whole Fig. 8 proof: 7 EDB + 5 derived.
        assert_eq!(e.support.len(), 12);
        // Π2 then the dashed cycle.
        assert_eq!(e.paths[0], "{alpha,beta,gamma}");
        assert_eq!(e.paths[1], "{beta,gamma}*");
        assert!(!e.text.contains('<'), "unsubstituted token: {}", e.text);
    }

    #[test]
    fn deterministic_flavor_is_more_verbose() {
        let explainer = setup();
        let q = Fact::new("default", vec!["C".into()]);
        let det = explainer
            .clone()
            .with_flavor(TemplateFlavor::Deterministic)
            .explain(&q)
            .unwrap();
        let enh = explainer.explain(&q).unwrap();
        assert!(det.text.len() > enh.text.len());
    }

    #[test]
    fn extensional_facts_are_rejected() {
        let explainer = setup();
        let q = Fact::new("shock", vec!["A".into(), 6i64.into()]);
        let id = explainer.outcome().lookup(&q).unwrap();
        assert!(matches!(
            explainer.explain_id(id),
            Err(ExplainError::ExtensionalFact(_))
        ));
    }

    #[test]
    fn unknown_facts_are_rejected() {
        let explainer = setup();
        let q = Fact::new("default", vec!["ZZZ".into()]);
        assert!(matches!(
            explainer.explain(&q),
            Err(ExplainError::UnknownFact(_))
        ));
    }

    #[test]
    fn all_derived_defaults_are_explainable() {
        let explainer = setup();
        let outcome = explainer.outcome();
        for (id, fact) in outcome.facts_of("default") {
            if !outcome.graph.is_derived(id) {
                continue;
            }
            let e = explainer
                .explain_id(id)
                .unwrap_or_else(|err| panic!("explaining {fact}: {err}"));
            assert!(!e.text.is_empty());
            assert!(!e.text.contains('<'), "{}: {}", fact, e.text);
        }
    }

    #[test]
    fn report_covers_all_derived_goal_facts() {
        let explainer = setup();
        let report = explainer.report().unwrap();
        // Defaults of A, B and C.
        assert_eq!(report.len(), 3);
        let rendered = explainer.render_report().unwrap();
        assert!(rendered.starts_with("Business report — 3 derived default fact(s)"));
        for entity in ["\"A\"", "\"B\"", "\"C\""] {
            assert!(rendered.contains(entity), "{rendered}");
        }
    }

    #[test]
    fn query_guard_trips_on_cancellation_and_unlimited_guard_is_transparent() {
        let explainer = setup();
        let q = Fact::new("default", vec!["C".into()]);
        let token = CancelToken::new();
        token.cancel();
        let cancelled = explainer
            .clone()
            .with_guard(RunGuard::new().with_cancel_token(token));
        assert!(matches!(
            cancelled.explain(&q),
            Err(ExplainError::ResourceExhausted {
                budget: Budget::Cancelled,
                ..
            })
        ));
        let plain = format!("{:?}", explainer.explain(&q).unwrap());
        let unlimited = explainer.clone().with_guard(RunGuard::new());
        assert_eq!(format!("{:?}", unlimited.explain(&q).unwrap()), plain);
        // A guard that never trips takes the governed path to the same
        // answer.
        let generous = explainer
            .clone()
            .with_guard(RunGuard::new().with_timeout(std::time::Duration::from_secs(3600)));
        assert_eq!(format!("{:?}", generous.explain(&q).unwrap()), plain);
    }

    #[test]
    fn artifacts_expose_templates_and_counters() {
        let explainer = setup();
        let artifacts = explainer.artifacts();
        assert_eq!(
            artifacts.telemetry().paths,
            artifacts.analysis().paths.len() as u64
        );
        assert_eq!(
            artifacts.templates(TemplateFlavor::Deterministic).len(),
            artifacts.templates(TemplateFlavor::Enhanced).len()
        );
        // Built-in fluent generation never falls back.
        assert_eq!(artifacts.telemetry().enhancement_fallbacks, 0);
    }

    #[test]
    fn telemetry_reports_stage_timings_and_counters() {
        let explainer = setup();
        let artifacts = explainer.artifacts();
        let report = artifacts.telemetry();
        assert_eq!(report.paths, artifacts.analysis().paths.len() as u64);
        assert_eq!(
            report.templates,
            artifacts.templates(TemplateFlavor::Enhanced).len() as u64
        );
        assert_eq!(report.enhancement_fallbacks, 0);
        // No enhancer configured: the enhancement stage never ran.
        assert_eq!(report.enhance_ns, 0);
        assert!(report.total_ns >= report.analysis_ns);
        let json = report.to_json();
        assert!(json.contains("\"analysis_ns\":"), "{json}");
        assert!(json.contains("\"templates\":"), "{json}");
    }

    #[test]
    fn cancelled_guard_preempts_the_build() {
        let parsed = parse_program("alpha: edge(x, y) -> reach(x, y).").unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = ProgramArtifacts::builder(parsed.program, "reach")
            .with_guard(RunGuard::new().with_cancel_token(token))
            .build_cached()
            .unwrap_err();
        assert!(matches!(
            err,
            ExplainError::ResourceExhausted {
                budget: Budget::Cancelled,
                ..
            }
        ));
    }

    #[test]
    fn elapsed_deadline_preempts_the_build() {
        let parsed = parse_program("alpha: edge(x, y) -> reach(x, y).").unwrap();
        let err = ProgramArtifacts::builder(parsed.program, "reach")
            .with_guard(RunGuard::new().with_timeout(std::time::Duration::ZERO))
            .build_cached()
            .unwrap_err();
        match err {
            ExplainError::ResourceExhausted { budget, .. } => {
                assert_eq!(budget, Budget::Deadline(std::time::Duration::ZERO));
            }
            other => panic!("expected a deadline trip, got {other:?}"),
        }
    }

    #[test]
    fn builder_is_deterministic_across_builds() {
        let parsed = reach_program();
        let glossary = DomainGlossary::new();
        let a = ProgramArtifacts::builder(parsed.program.clone(), "reach")
            .with_glossary(&glossary)
            .build_cached()
            .unwrap();
        let b = ProgramArtifacts::builder(parsed.program, "reach")
            .with_glossary(&glossary)
            .build_cached()
            .unwrap();
        let rendered = |p: &ProgramArtifacts| -> Vec<String> {
            p.templates(TemplateFlavor::Enhanced)
                .iter()
                .map(Template::render)
                .collect()
        };
        assert_eq!(rendered(&a), rendered(&b));
        assert_eq!(a.telemetry().paths, b.telemetry().paths);
        // Equal-deployment builds share one artifact edition.
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn builder_without_glossary_uses_raw_atom_rendering() {
        let parsed = parse_program("alpha: edge(x, y) -> reach(x, y).").unwrap();
        let artifacts = ProgramArtifacts::builder(parsed.program, "reach")
            .build_cached()
            .unwrap();
        assert!(!artifacts.templates(TemplateFlavor::Enhanced).is_empty());
    }

    #[test]
    fn template_edits_copy_on_write_shared_artifacts() {
        let parsed = parse_program("alpha: edge(x, y) -> reach(x, y).").unwrap();
        let glossary = DomainGlossary::new();
        let a = ProgramArtifacts::builder(parsed.program.clone(), "reach")
            .with_glossary(&glossary)
            .build_cached()
            .unwrap();
        let mut b = ProgramArtifacts::builder(parsed.program, "reach")
            .with_glossary(&glossary)
            .build_cached()
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let original = a.templates(TemplateFlavor::Enhanced)[0].render();
        let edited = format!("Edited: {original}");
        Arc::make_mut(&mut b)
            .replace_enhanced_template(0, &edited)
            .unwrap();
        // The edit is private to `b`; `a` (and the cache) keep the original.
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.templates(TemplateFlavor::Enhanced)[0].render(), original);
        assert_eq!(b.templates(TemplateFlavor::Enhanced)[0].render(), edited);
    }
}
