//! `finkg-serve`: a long-lived explanation server over one finkg
//! application.
//!
//! Boots by chasing the selected application's knowledge graph, building
//! (or fetching from the process cache) its explanation artifacts, and
//! then serving explanation queries over HTTP until killed:
//!
//! ```text
//! finkg-serve [--app control|stress|simple-stress|close-links|sanctions|joint-exposure|golden-power]
//!             [--addr 127.0.0.1:7878] [--scale N] [--seed S] [--workers W]
//!             [--max-connections C] [--deadline-ms MS]
//!             [--flight-capacity N] [--slow-query-ms MS] [--pruned]
//! ```
//!
//! `--pruned` runs the boot chase goal-directed: only rules inside the
//! goal's relevance cone fire, which keeps every goal fact (and its
//! provenance) byte-identical to the full chase while skipping work
//! for predicates the goal can never reach. Constraints are skipped
//! too, so a pruned server explains but does not validate.
//!
//! `--max-connections` bounds the concurrent connection-handler pool
//! (excess connections get an immediate `503` + `Retry-After`);
//! `--deadline-ms` sets the per-request deadline (0 disables it);
//! `--flight-capacity` sizes the flight recorder's span ring; and
//! `--slow-query-ms` sets the slow-query capture threshold (default
//! 1000; 0 captures every goal — handy for smoke tests). The flight
//! recorder is installed as the process span sink,
//! so `/debug/flight` always holds the most recent spans and every
//! failure event freezes a snapshot.
//!
//! With `--scale N` the server generates a random graph of `N` entities
//! (seeded, reproducible); without it, the representative Sec. 5
//! scenario is used. Try:
//!
//! ```text
//! curl -s localhost:7878/health
//! curl -s -X POST localhost:7878/explain --data 'control("B", "D").'
//! curl -s localhost:7878/metrics | grep vadalog_serve
//! ```

use explain::{DomainGlossary, ProgramArtifacts};
use serve::{ExplainService, HttpServer, ServeConfig, SnapshotHandle};
use std::sync::Arc;
use vadalog::{ChaseSession, Database, Program};

/// One servable finkg application.
struct App {
    name: &'static str,
    program: Program,
    goal: &'static str,
    glossary: DomainGlossary,
    /// The Sec. 5 scenario EDB, or a seeded random graph at `--scale`.
    database: Box<dyn Fn(Option<usize>, u64) -> Database>,
}

fn apps() -> Vec<App> {
    use finkg::apps::{
        close_links, control, golden_power, joint_exposure, sanctions, simple_stress, stress,
    };
    vec![
        App {
            name: "control",
            program: control::program(),
            goal: control::GOAL,
            glossary: control::glossary(),
            database: Box::new(|scale, seed| match scale {
                Some(n) => finkg::generator::random_ownership(n, 3, seed),
                None => finkg::scenario::database(),
            }),
        },
        App {
            name: "stress",
            program: stress::program(),
            goal: stress::GOAL,
            glossary: stress::glossary(),
            database: Box::new(|scale, seed| match scale {
                Some(n) => finkg::generator::random_debt_network(n, 3, n / 10 + 1, seed),
                None => finkg::scenario::database(),
            }),
        },
        App {
            name: "simple-stress",
            program: simple_stress::program(),
            goal: simple_stress::GOAL,
            glossary: simple_stress::glossary(),
            database: Box::new(|scale, seed| match scale {
                Some(n) => finkg::generator::random_debt_network(n, 3, n / 10 + 1, seed),
                None => finkg::scenario::database(),
            }),
        },
        App {
            name: "close-links",
            program: close_links::program(),
            goal: close_links::GOAL,
            glossary: close_links::glossary(),
            database: Box::new(|scale, seed| match scale {
                Some(n) => finkg::generator::random_ownership(n, 3, seed),
                None => finkg::scenario::database(),
            }),
        },
        App {
            name: "sanctions",
            program: sanctions::program(),
            goal: sanctions::GOAL,
            glossary: sanctions::glossary(),
            database: Box::new(|scale, seed| {
                let n = scale.unwrap_or(40);
                finkg::generator::random_sanctions(n, 3, 7, seed)
            }),
        },
        App {
            name: "joint-exposure",
            program: joint_exposure::program(),
            goal: joint_exposure::GOAL,
            glossary: joint_exposure::glossary(),
            database: Box::new(|scale, seed| {
                let n = scale.unwrap_or(40);
                finkg::generator::random_ownership(n, 6, seed)
            }),
        },
        App {
            name: "golden-power",
            program: golden_power::program(),
            goal: golden_power::GOAL,
            glossary: golden_power::glossary(),
            database: Box::new(|scale, seed| match scale {
                Some(n) => finkg::generator::random_ownership(n, 3, seed),
                None => finkg::scenario::database(),
            }),
        },
    ]
}

struct Args {
    app: String,
    addr: String,
    scale: Option<usize>,
    seed: u64,
    workers: usize,
    max_connections: Option<usize>,
    deadline_ms: Option<u64>,
    flight_capacity: Option<usize>,
    slow_query_ms: Option<u64>,
    pruned: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        app: "control".to_owned(),
        addr: "127.0.0.1:7878".to_owned(),
        scale: None,
        seed: 7,
        workers: 0,
        max_connections: None,
        deadline_ms: None,
        flight_capacity: None,
        slow_query_ms: None,
        pruned: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--app" => args.app = value("--app")?,
            "--addr" => args.addr = value("--addr")?,
            "--scale" => {
                args.scale = Some(
                    value("--scale")?
                        .parse()
                        .map_err(|e| format!("--scale: {e}"))?,
                )
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--max-connections" => {
                args.max_connections = Some(
                    value("--max-connections")?
                        .parse()
                        .map_err(|e| format!("--max-connections: {e}"))?,
                )
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                )
            }
            "--flight-capacity" => {
                args.flight_capacity = Some(
                    value("--flight-capacity")?
                        .parse()
                        .map_err(|e| format!("--flight-capacity: {e}"))?,
                )
            }
            "--slow-query-ms" => {
                args.slow_query_ms = Some(
                    value("--slow-query-ms")?
                        .parse()
                        .map_err(|e| format!("--slow-query-ms: {e}"))?,
                )
            }
            "--pruned" => args.pruned = true,
            "--help" | "-h" => {
                println!(
                    "finkg-serve [--app control|stress|simple-stress|close-links|sanctions|joint-exposure|golden-power]\n            [--addr HOST:PORT] [--scale N] [--seed S] [--workers W]\n            [--max-connections C] [--deadline-ms MS]\n            [--flight-capacity N] [--slow-query-ms MS] [--pruned]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("finkg-serve: {e}");
            std::process::exit(2);
        }
    };
    let Some(app) = apps().into_iter().find(|a| a.name == args.app) else {
        eprintln!(
            "finkg-serve: unknown app {:?}; known: {}",
            args.app,
            apps().iter().map(|a| a.name).collect::<Vec<_>>().join(", ")
        );
        std::process::exit(2);
    };

    // Artifacts first: with `--pruned` the boot chase needs the goal's
    // relevance cone they carry.
    let artifacts = match ProgramArtifacts::builder(app.program.clone(), app.goal)
        .with_glossary(&app.glossary)
        .build_cached()
    {
        Ok(artifacts) => artifacts,
        Err(e) => {
            eprintln!("finkg-serve: artifact build failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "finkg-serve: artifacts ready ({} reasoning paths, {} templates)",
        artifacts.telemetry().paths,
        artifacts.templates(explain::TemplateFlavor::Enhanced).len()
    );

    let db = (app.database)(args.scale, args.seed);
    let chase_config = if args.pruned {
        let cone = artifacts.goal_cone();
        eprintln!(
            "finkg-serve: goal-directed chase for {:?} ({} cone predicates, {} of {} rules pruned)",
            app.goal,
            cone.predicate_count(),
            cone.pruned_rule_count(),
            app.program.len()
        );
        let constraints = app
            .program
            .rules()
            .iter()
            .filter(|r| r.is_constraint())
            .count();
        if constraints > 0 {
            eprintln!(
                "finkg-serve: note: --pruned skips the program's {constraints} constraint(s); \
                 this server explains, it does not validate"
            );
        }
        artifacts.pruned_chase_config()
    } else {
        vadalog::ChaseConfig::default()
    };
    eprintln!(
        "finkg-serve: chasing app {:?} over {} facts ...",
        app.name,
        db.len()
    );
    let outcome = match ChaseSession::new(&app.program)
        .with_config(chase_config)
        .run(db)
    {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("finkg-serve: chase failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "finkg-serve: chase done ({} derived facts, {} rounds)",
        outcome.derived_facts, outcome.rounds
    );

    // The flight recorder doubles as the process span sink: spans from
    // every request land in its bounded ring, and each failure event
    // freezes a snapshot served on /debug/flight.
    let flight = vadalog::obs::flight::global();
    if let Some(capacity) = args.flight_capacity {
        flight.set_span_capacity(capacity);
    }
    vadalog::obs::span::install(flight.clone());

    let handle = SnapshotHandle::new(outcome);
    let mut config = ServeConfig::default()
        .with_workers(args.workers)
        .with_app_label(app.name);
    if let Some(max_connections) = args.max_connections {
        config = config.with_max_connections(max_connections);
    }
    if let Some(ms) = args.deadline_ms {
        let deadline = (ms > 0).then(|| std::time::Duration::from_millis(ms));
        config = config.with_request_deadline(deadline);
    }
    if let Some(ms) = args.slow_query_ms {
        // Zero is a threshold, not a disable: every goal gets captured.
        config = config.with_slow_query_threshold(Some(std::time::Duration::from_millis(ms)));
    }
    let service = Arc::new(ExplainService::new(artifacts, handle, config));
    let server = match HttpServer::bind(&args.addr, service) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("finkg-serve: bind {} failed: {e}", args.addr);
            std::process::exit(1);
        }
    };
    println!("finkg-serve: listening on http://{}", server.addr());
    println!("  GET  /health    liveness + snapshot version");
    println!("  GET  /ready     readiness (200 once the snapshot is published)");
    println!("  GET  /metrics   Prometheus metrics");
    println!("  GET  /snapshot  current snapshot summary");
    println!("  GET  /debug/flight  flight recorder (last failure snapshot + live tail)");
    println!("  GET  /debug/slow    slow-query log (span tree per slow goal)");
    println!(
        "  POST /explain   goal fact literals, e.g. {}(...).",
        app.goal
    );

    // Serve until killed.
    loop {
        std::thread::park();
    }
}
