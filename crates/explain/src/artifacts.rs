//! Cached program artifacts: the immutable build product of the
//! explanation pipeline, separated from per-query state so it can be
//! shared — across goals in one process, across worker threads in a
//! server, across pipelines over the same deployed program.
//!
//! The split mirrors the paper's deployment model (Sec. 5): template
//! generation happens *once per application*, while explanation queries
//! arrive continuously. [`ProgramArtifacts`] owns everything the
//! once-per-application stage produces (structural analysis, template
//! catalogs, per-rule fallbacks, construction telemetry);
//! [`ArtifactsBuilder`] runs that stage; the process-wide
//! [`ArtifactCache`] memoizes it by program fingerprint so repeated
//! builds of the same deployment are free; and [`Explainer`] binds the
//! shared artifacts to one chase snapshot to answer queries.
//!
//! Everything here is immutable after construction and `Sync`, which is
//! what makes the serving layer (`serve` crate) possible: N workers
//! answer explanation queries against one `Arc<ProgramArtifacts>` and
//! one `Arc<ChaseOutcome>` with zero copying and zero locking.

use crate::enhance::{checked_enhance, Enhancer};
use crate::error::ExplainError;
use crate::glossary::DomainGlossary;
use crate::mapping::{cover_from, instantiate, step_infos, PathCover};
use crate::pipeline::{Explanation, PipelineReport, PipelineStats, TemplateFlavor};
use crate::structural::{analyze_with, AnalysisConfig, StructuralAnalysis};
use crate::template::{generate, single_rule_path, Template, TemplateStyle};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use vadalog::telemetry::{Budget, RunGuard};
use vadalog::{
    ChaseConfig, ChaseOutcome, DerivationId, DerivationPolicy, Fact, FactId, GoalCone, Program,
    RuleId, Symbol,
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
    deterministic: Vec<Template>,
    enhanced: Vec<Template>,
    /// Per-rule fallback templates (solid, dashed), used for side
    /// derivations no reasoning path absorbs.
    fallbacks: Vec<(Template, Template)>,
    /// The goal's relevance cone over D(Σ), shared with pruned chase
    /// configurations handed out by [`pruned_chase_config`](Self::pruned_chase_config).
    cone: Arc<GoalCone>,
    stats: PipelineStats,
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
            analysis: AnalysisConfig::default(),
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

    /// Construction statistics.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
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

    /// Answers the explanation query Q_e for a fact id (see
    /// [`ExplanationPipeline::explain_id`](crate::pipeline::ExplanationPipeline::explain_id)
    /// for the covering semantics).
    pub fn explain_id(
        &self,
        outcome: &ChaseOutcome,
        id: FactId,
        flavor: TemplateFlavor,
        policy: DerivationPolicy,
    ) -> Result<Explanation, ExplainError> {
        self.explain_id_governed(outcome, id, flavor, policy, &RunGuard::default())
    }

    /// [`explain_id`](Self::explain_id) under a per-query [`RunGuard`]:
    /// the guard's deadline and cancellation token are checked at every
    /// recursion step, so a slow or stuck query returns
    /// [`ExplainError::ResourceExhausted`] instead of running away. The
    /// serving layer uses this to enforce per-request deadlines — a
    /// goal whose remaining budget is already spent trips on entry.
    pub fn explain_id_governed(
        &self,
        outcome: &ChaseOutcome,
        id: FactId,
        flavor: TemplateFlavor,
        policy: DerivationPolicy,
        guard: &RunGuard,
    ) -> Result<Explanation, ExplainError> {
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
        let governor = (!guard.is_unlimited()).then(|| (guard, Instant::now()));
        if let Some((guard, start)) = governor {
            artifacts_trip(guard, start)?;
        }

        let mut visited = std::collections::HashSet::new();
        let mut texts: Vec<String> = Vec::new();
        let mut paths: Vec<String> = Vec::new();
        let chase_steps = self.explain_rec(
            outcome,
            id,
            flavor,
            policy,
            governor,
            &mut visited,
            &mut texts,
            &mut paths,
            0,
        )?;

        let support = outcome
            .graph
            .proof(id, policy)
            .facts()
            .into_iter()
            .map(|f| outcome.database.fact(f).clone())
            .collect();

        Ok(Explanation {
            fact: outcome.database.fact(id).clone(),
            text: texts.join(" "),
            paths,
            chase_steps,
            support,
        })
    }

    /// Answers the explanation query for a fact literal.
    pub fn explain_fact(
        &self,
        outcome: &ChaseOutcome,
        fact: &Fact,
        flavor: TemplateFlavor,
        policy: DerivationPolicy,
    ) -> Result<Explanation, ExplainError> {
        self.explain_fact_governed(outcome, fact, flavor, policy, &RunGuard::default())
    }

    /// [`explain_fact`](Self::explain_fact) under a per-query
    /// [`RunGuard`] (see
    /// [`explain_id_governed`](Self::explain_id_governed)).
    pub fn explain_fact_governed(
        &self,
        outcome: &ChaseOutcome,
        fact: &Fact,
        flavor: TemplateFlavor,
        policy: DerivationPolicy,
        guard: &RunGuard,
    ) -> Result<Explanation, ExplainError> {
        let id = outcome
            .lookup(fact)
            .ok_or(ExplainError::UnknownFact(FactId(u32::MAX)))?;
        self.explain_id_governed(outcome, id, flavor, policy, guard)
    }

    /// Produces the *business report* of a chase run: one explanation per
    /// derived fact of the goal predicate, in derivation order.
    pub fn report(
        &self,
        outcome: &ChaseOutcome,
        flavor: TemplateFlavor,
        policy: DerivationPolicy,
    ) -> Result<Vec<Explanation>, ExplainError> {
        let goal = self.analysis.goal;
        outcome
            .database
            .facts_of(goal)
            .iter()
            .filter(|&&id| outcome.graph.is_derived(id))
            .map(|&id| self.explain_id(outcome, id, flavor, policy))
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn explain_rec(
        &self,
        outcome: &ChaseOutcome,
        id: FactId,
        flavor: TemplateFlavor,
        policy: DerivationPolicy,
        governor: Option<(&RunGuard, Instant)>,
        visited: &mut std::collections::HashSet<DerivationId>,
        texts: &mut Vec<String>,
        paths: &mut Vec<String>,
        depth: u32,
    ) -> Result<usize, ExplainError> {
        if depth > 64 {
            return Ok(0);
        }
        if let Some((guard, start)) = governor {
            artifacts_trip(guard, start)?;
        }
        let proof = outcome.graph.proof(id, policy);
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
                match self.explain_rec(
                    outcome,
                    conclusion,
                    flavor,
                    policy,
                    governor,
                    visited,
                    texts,
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
                                texts,
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
            texts.push(instantiate(
                &templates[piece.path_index],
                piece,
                &outcome.graph,
            ));
            paths.push(self.analysis.paths[piece.path_index].label(&self.program));
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
        visited: &mut std::collections::HashSet<DerivationId>,
        texts: &mut Vec<String>,
        paths: &mut Vec<String>,
        depth: u32,
    ) {
        if depth > 128 {
            return;
        }
        let der = outcome.graph.derivation(did);
        let (rule, contributors, premises) = (der.rule, der.contributors, der.premises.clone());
        for p in premises {
            if !outcome.graph.is_derived(p) {
                continue;
            }
            if let Some(pd) = outcome.graph.choose_derivation(p, policy) {
                if visited.insert(pd) {
                    self.explain_single(outcome, pd, policy, visited, texts, paths, depth + 1);
                }
            }
        }
        let (solid, dashed) = &self.fallbacks[rule.0];
        let template = if contributors > 1 { dashed } else { solid };
        let piece = PathCover {
            path_index: usize::MAX,
            assignments: std::iter::once((0usize, did)).collect(),
            consumed: 0,
            side_used: 0,
        };
        texts.push(instantiate(template, &piece, &outcome.graph));
        paths.push(format!("[{}]", self.program.rule(rule).label));
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
    analysis: AnalysisConfig,
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

    /// Overrides the structural-analysis configuration (path caps).
    pub fn with_analysis_config(mut self, config: AnalysisConfig) -> ArtifactsBuilder<'a> {
        self.analysis = config;
        self
    }

    /// The build's cache fingerprint: FNV-1a over the program text, the
    /// goal, the analysis caps and the glossary text. `None` when the
    /// build cannot be keyed — an opaque enhancer is attached, or a
    /// deadline/cancellation guard demands exact trip semantics.
    pub fn fingerprint(&self) -> Option<u64> {
        if self.enhancer.is_some() || self.guard.timeout.is_some() || self.guard.cancel.is_some() {
            return None;
        }
        let mut h = Fnv1a::new();
        h.write(self.program.to_string().as_bytes());
        h.write(self.goal.as_bytes());
        h.write(&self.analysis.max_path_rules.to_le_bytes());
        h.write(&self.analysis.max_paths.to_le_bytes());
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

        artifacts_trip(&self.guard, start)?;
        let t = Instant::now();
        let analysis = {
            let _span = vadalog::span!("explain.analysis");
            vadalog::obs::metrics::global()
                .counter(
                    "vadalog_explain_analysis_runs_total",
                    "Structural analyses actually executed (cache misses and uncached builds).",
                )
                .inc();
            analyze_with(&self.program, &self.goal, &self.analysis)?
        };
        report.analysis_ns = t.elapsed().as_nanos() as u64;
        report.paths = analysis.paths.len() as u64;

        let program = self.program;
        let mut deterministic = Vec::with_capacity(analysis.paths.len());
        let mut enhanced = Vec::with_capacity(analysis.paths.len());
        let mut stats = PipelineStats {
            paths: analysis.paths.len(),
            ..PipelineStats::default()
        };
        for (i, path) in analysis.paths.iter().enumerate() {
            artifacts_trip(&self.guard, start)?;
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
                    stats.enhancement_retries += out.retries;
                    if out.fell_back {
                        stats.enhancement_fallbacks += 1;
                    }
                    out.template
                }
            };
            deterministic.push(det);
            enhanced.push(enh);
        }
        artifacts_trip(&self.guard, start)?;
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
        report.enhancement_retries = u64::from(stats.enhancement_retries);
        report.enhancement_fallbacks = stats.enhancement_fallbacks as u64;
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
            deterministic,
            enhanced,
            fallbacks,
            cone,
            stats,
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

/// Checks the build guard (deadline + cancellation only).
fn artifacts_trip(guard: &RunGuard, start: Instant) -> Result<(), ExplainError> {
    if let Some(token) = &guard.cancel {
        if token.is_cancelled() {
            return Err(ExplainError::ResourceExhausted {
                budget: Budget::Cancelled,
                observed: 0,
            });
        }
    }
    if let Some(timeout) = guard.timeout {
        let elapsed = start.elapsed();
        if elapsed >= timeout {
            return Err(ExplainError::ResourceExhausted {
                budget: Budget::Deadline(timeout),
                observed: elapsed.as_millis() as u64,
            });
        }
    }
    Ok(())
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

/// One explanation endpoint: shared artifacts bound to one chase
/// snapshot, with the query-time knobs (flavour, policy) carried by
/// value. `Clone` is two `Arc` bumps, so every serving worker holds its
/// own `Explainer` over the same underlying data.
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
}

impl Explainer {
    /// Binds `artifacts` to one immutable chase snapshot.
    pub fn for_snapshot(artifacts: Arc<ProgramArtifacts>, outcome: Arc<ChaseOutcome>) -> Explainer {
        Explainer {
            artifacts,
            outcome,
            policy: DerivationPolicy::Richest,
            flavor: TemplateFlavor::Enhanced,
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
        self.artifacts
            .explain_fact(&self.outcome, fact, self.flavor, self.policy)
    }

    /// Answers the explanation query for a fact id.
    pub fn explain_id(&self, id: FactId) -> Result<Explanation, ExplainError> {
        self.artifacts
            .explain_id(&self.outcome, id, self.flavor, self.policy)
    }

    /// One explanation per derived goal fact, in derivation order.
    pub fn report(&self) -> Result<Vec<Explanation>, ExplainError> {
        self.artifacts
            .report(&self.outcome, self.flavor, self.policy)
    }
}

/// FNV-1a, the same construction the engine's checkpoint fingerprints
/// use — stable across runs, no dependency.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog::{parse_program, ChaseSession, Database};

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
    fn fingerprint_separates_programs_goals_and_configs() {
        let parsed = reach_program();
        let base = ProgramArtifacts::builder(parsed.program.clone(), "reach")
            .fingerprint()
            .unwrap();
        let other_goal = ProgramArtifacts::builder(parsed.program.clone(), "edge")
            .fingerprint()
            .unwrap();
        assert_ne!(base, other_goal);
        let other_config = ProgramArtifacts::builder(parsed.program.clone(), "reach")
            .with_analysis_config(AnalysisConfig {
                max_path_rules: 4,
                max_paths: 7,
            })
            .fingerprint()
            .unwrap();
        assert_ne!(base, other_config);
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
}
