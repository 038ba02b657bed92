//! Command-line front end: load a Vadalog-style program (rules + facts in
//! one file), reason over it, inspect the structural analysis, and answer
//! explanation queries — the workflow a business analyst's front end would
//! drive (Sec. 4.4).
//!
//! ```text
//! ekg-explain analyze   <file> [--goal PRED]
//! ekg-explain chase     <file> [--goal PRED]
//! ekg-explain templates <file> [--goal PRED] [--glossary FILE] [--deterministic]
//! ekg-explain explain   <file> --fact 'control("A","B")' [--goal PRED] [--deterministic]
//! ekg-explain report    <file> [--goal PRED] [--deterministic]
//! ekg-explain whynot    <file> --fact 'control("A","B")' [--goal PRED]
//! ekg-explain dot       <file> [--chase]
//! ```
//!
//! The goal defaults to the head predicate of the last rule. Domain
//! glossaries for the built-in financial applications are applied
//! automatically when the program's predicates match; otherwise the
//! generic verbalizer is used.

use ekg_explain::explain::{analyze, DomainGlossary, TemplateFlavor};
use ekg_explain::prelude::*;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  ekg-explain analyze   <file> [--goal PRED]
  ekg-explain chase     <file> [--goal PRED]
  ekg-explain templates <file> [--goal PRED] [--glossary FILE] [--deterministic]
  ekg-explain explain   <file> --fact 'control(\"A\",\"B\")' [--goal PRED] [--deterministic]
  ekg-explain report    <file> [--goal PRED] [--deterministic]
  ekg-explain whynot    <file> --fact 'control(\"A\",\"B\")' [--goal PRED]
  ekg-explain dot       <file> [--chase]";

struct Options {
    file: String,
    goal: Option<String>,
    fact: Option<String>,
    glossary: Option<String>,
    deterministic: bool,
    chase_dot: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        file: String::new(),
        goal: None,
        fact: None,
        glossary: None,
        deterministic: false,
        chase_dot: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--goal" => opts.goal = Some(it.next().ok_or("--goal needs a predicate name")?.clone()),
            "--fact" => opts.fact = Some(it.next().ok_or("--fact needs a fact")?.clone()),
            "--glossary" => {
                opts.glossary = Some(it.next().ok_or("--glossary needs a file")?.clone())
            }
            "--deterministic" => opts.deterministic = true,
            "--chase" => opts.chase_dot = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other}"));
            }
            file => {
                if !opts.file.is_empty() {
                    return Err(format!("unexpected extra argument {file}"));
                }
                opts.file = file.to_owned();
            }
        }
    }
    if opts.file.is_empty() {
        return Err("missing program file".to_owned());
    }
    Ok(opts)
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("missing command".to_owned());
    };
    let opts = parse_options(&args[1..])?;

    let text = std::fs::read_to_string(&opts.file)
        .map_err(|e| format!("cannot read {}: {e}", opts.file))?;
    let parsed = parse_program(&text).map_err(|e| e.to_string())?;
    let goal = match &opts.goal {
        Some(g) => g.clone(),
        None => default_goal(&parsed.program)?,
    };

    let glossary = match &opts.glossary {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            DomainGlossary::parse(&text).map_err(|e| e.to_string())?
        }
        None => glossary_for(&parsed.program),
    };

    match command.as_str() {
        "analyze" => cmd_analyze(&parsed, &goal),
        "chase" => cmd_chase(&parsed, &goal),
        "templates" => cmd_templates(&parsed, &goal, &glossary, opts.deterministic),
        "explain" => {
            let fact_text = opts.fact.ok_or("explain needs --fact")?;
            cmd_explain(&parsed, &goal, &glossary, &fact_text, opts.deterministic)
        }
        "report" => cmd_report(&parsed, &goal, &glossary, opts.deterministic),
        "whynot" => {
            let fact_text = opts.fact.ok_or("whynot needs --fact")?;
            cmd_whynot(&parsed, &glossary, &fact_text)
        }
        "dot" => cmd_dot(&parsed, opts.chase_dot),
        other => Err(format!("unknown command {other}")),
    }
}

/// Default goal: the head predicate of the last rule.
fn default_goal(program: &Program) -> Result<String, String> {
    program
        .rules()
        .iter()
        .rev()
        .find_map(|r| r.head.atom())
        .map(|h| h.predicate.as_str().to_owned())
        .ok_or_else(|| "program has no derivation rules; pass --goal".to_owned())
}

/// Picks the built-in financial glossary whose predicates cover the
/// program's, falling back to an empty glossary (generic verbalization).
fn glossary_for(program: &Program) -> DomainGlossary {
    let candidates = [
        ekg_explain::finkg::apps::control::glossary(),
        ekg_explain::finkg::apps::stress::glossary(),
        ekg_explain::finkg::apps::simple_stress::glossary(),
        ekg_explain::finkg::apps::close_links::glossary(),
        ekg_explain::finkg::apps::golden_power::glossary(),
    ];
    candidates
        .into_iter()
        .find(|g| program.predicates().all(|(p, _)| g.entry(p).is_some()))
        .unwrap_or_default()
}

fn cmd_analyze(parsed: &ParsedProgram, goal: &str) -> Result<(), String> {
    let g = DependencyGraph::build(&parsed.program);
    println!(
        "dependency graph: {} predicates, {} edges, {}",
        g.nodes().len(),
        g.edges().len(),
        if g.is_cyclic() {
            "recursive"
        } else {
            "non-recursive"
        }
    );
    let analysis = analyze(&parsed.program, goal).map_err(|e| e.to_string())?;
    println!(
        "critical nodes: {}",
        analysis
            .critical
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("reasoning paths:");
    for p in &analysis.paths {
        println!("  {:?} {}", p.kind, p.label(&parsed.program));
    }
    Ok(())
}

fn cmd_chase(parsed: &ParsedProgram, goal: &str) -> Result<(), String> {
    let db: Database = parsed.facts.clone().into_iter().collect();
    let outcome = ChaseSession::new(&parsed.program)
        .run(db)
        .map_err(|e| e.to_string())?;
    println!(
        "chase: {} input facts, {} derived, {} rounds",
        outcome.database.len() - outcome.derived_facts,
        outcome.derived_facts,
        outcome.rounds
    );
    if !outcome.violations.is_empty() {
        println!("violated constraints: {}", outcome.violations.join(", "));
    }
    for (id, fact) in outcome.facts_of(goal) {
        if outcome.graph.is_derived(id) {
            println!("  {fact}");
        }
    }
    Ok(())
}

fn cmd_templates(
    parsed: &ParsedProgram,
    goal: &str,
    glossary: &DomainGlossary,
    deterministic: bool,
) -> Result<(), String> {
    let artifacts = build_artifacts(parsed, goal, glossary)?;
    let templates = artifacts.templates(flavor(deterministic));
    for (i, t) in templates.iter().enumerate() {
        println!(
            "[{}] {}",
            artifacts.analysis().paths[i].label(&parsed.program),
            t.render()
        );
    }
    Ok(())
}

fn cmd_explain(
    parsed: &ParsedProgram,
    goal: &str,
    glossary: &DomainGlossary,
    fact_text: &str,
    deterministic: bool,
) -> Result<(), String> {
    let fact = parse_fact(fact_text)?;
    let e = explainer(parsed, goal, glossary, deterministic)?
        .explain(&fact)
        .map_err(|e| e.to_string())?;
    println!(
        "explaining {} ({} chase steps, paths {})",
        e.fact,
        e.chase_steps,
        e.paths.join(" + ")
    );
    println!();
    println!("{}", e.text);
    Ok(())
}

fn cmd_report(
    parsed: &ParsedProgram,
    goal: &str,
    glossary: &DomainGlossary,
    deterministic: bool,
) -> Result<(), String> {
    let report = explainer(parsed, goal, glossary, deterministic)?
        .render_report()
        .map_err(|e| e.to_string())?;
    print!("{report}");
    Ok(())
}

fn flavor(deterministic: bool) -> TemplateFlavor {
    if deterministic {
        TemplateFlavor::Deterministic
    } else {
        TemplateFlavor::Enhanced
    }
}

fn build_artifacts(
    parsed: &ParsedProgram,
    goal: &str,
    glossary: &DomainGlossary,
) -> Result<Arc<ProgramArtifacts>, String> {
    ProgramArtifacts::builder(parsed.program.clone(), goal)
        .with_glossary(glossary)
        .build_cached()
        .map_err(|e| e.to_string())
}

/// Builds the artifacts, chases the program's facts and binds the two
/// into an explainer of the requested flavour.
fn explainer(
    parsed: &ParsedProgram,
    goal: &str,
    glossary: &DomainGlossary,
    deterministic: bool,
) -> Result<Explainer, String> {
    let artifacts = build_artifacts(parsed, goal, glossary)?;
    let db: Database = parsed.facts.clone().into_iter().collect();
    let outcome = ChaseSession::new(&parsed.program)
        .run(db)
        .map_err(|e| e.to_string())?;
    Ok(Explainer::for_snapshot(artifacts, outcome).with_flavor(flavor(deterministic)))
}

fn cmd_whynot(
    parsed: &ParsedProgram,
    glossary: &DomainGlossary,
    fact_text: &str,
) -> Result<(), String> {
    let fact = parse_fact(fact_text)?;
    let db: Database = parsed.facts.clone().into_iter().collect();
    let outcome = ChaseSession::new(&parsed.program)
        .run(db)
        .map_err(|e| e.to_string())?;
    match ekg_explain::explain::why_not(&parsed.program, glossary, &outcome, &fact) {
        None => println!("{fact} IS derived; use `explain` for its provenance."),
        Some(wn) => println!("{}", wn.text),
    }
    Ok(())
}

fn cmd_dot(parsed: &ParsedProgram, chase_graph: bool) -> Result<(), String> {
    if chase_graph {
        let db: Database = parsed.facts.clone().into_iter().collect();
        let outcome = ChaseSession::new(&parsed.program)
            .run(db)
            .map_err(|e| e.to_string())?;
        print!(
            "{}",
            ekg_explain::vadalog::dot::chase_graph_dot(
                &outcome.graph,
                &outcome.database,
                &parsed.program
            )
        );
    } else {
        let g = DependencyGraph::build(&parsed.program);
        print!(
            "{}",
            ekg_explain::vadalog::dot::dependency_graph_dot(&g, &parsed.program)
        );
    }
    Ok(())
}

/// Parses a ground fact like `control("A","B")` by wrapping it into a
/// one-statement program.
fn parse_fact(text: &str) -> Result<Fact, String> {
    let wrapped = format!("{}.", text.trim().trim_end_matches('.'));
    let parsed = parse_program(&wrapped).map_err(|e| e.to_string())?;
    parsed
        .facts
        .into_iter()
        .next()
        .ok_or_else(|| format!("`{text}` is not a ground fact"))
}
