//! `verify` — run the shipped applications under verification mode and
//! report clause/dependence findings as JSON.
//!
//! ```text
//! verify --all              # all four apps (default when no args)
//! verify matmul stream      # a subset
//! verify --no-schedules ... # skip the seed-permutation exploration
//! verify --seeds 0,9,23     # explore these scheduler seeds instead
//! ```
//!
//! Each selected application runs with [`RuntimeConfig::verify`] on
//! under three topologies (2 GPUs on one node; a 2-node cluster; the
//! same cluster with `with_sharded_control`), its
//! evidence is checked by [`ompss_verify::validate`], and — unless
//! `--no-schedules` — it is rerun across scheduler tie-break seeds
//! ([`ompss_verify::schedule`]) to diff results. The report is printed
//! as pretty JSON; any finding makes the exit status 1.
//!
//! Every section (app × topology, and each app's schedule exploration)
//! is an independent set of simulations, so sections run on `--jobs N`
//! host threads (default `OMPSS_BENCH_JOBS` / host parallelism) and are
//! reassembled in a fixed order: the report is byte-identical at any
//! job count.

use ompss_apps::common::AppRun;
use ompss_apps::scenario::{App, Topology};
use ompss_json::Json;
use ompss_runtime::RuntimeConfig;
use ompss_sweep::cli;
use ompss_verify::schedule::{self, Observation};
use ompss_verify::{report_json, validate, Finding};

fn run_app(app: App, cfg: RuntimeConfig) -> AppRun {
    match app.try_run(cfg) {
        Ok(run) => run,
        Err(e) => {
            // One consistent line per failure class — the RunError
            // Display — and a nonzero exit, not a panic trace.
            eprintln!("error: {app}: {e}");
            std::process::exit(1);
        }
    }
}

/// The topologies every app is checked under: the paper's single-node
/// multi-GPU setting, its multi-node cluster setting (flat master),
/// and the same cluster with the sharded control plane on — so the
/// shard-homed directory and sub-master expansion face the same
/// clause/dependence validation as the flat path.
const TOPOLOGIES: [Topology; 3] =
    [Topology::MultiGpu(2), Topology::Cluster(2), Topology::ClusterSharded(2)];

fn main() {
    let usage = format!(
        "usage: verify [--all] [--no-schedules] [--jobs N] [--seeds a,b,c] [app...]\napps: {}",
        App::ALL.map(App::name).join(" ")
    );
    let (all, schedules, seeds, named) = cli::parse(&usage, |a| {
        Ok((
            a.flag("--all"),
            !a.flag("--no-schedules"),
            a.list::<u64>("--seeds")?.unwrap_or_else(|| schedule::DEFAULT_SEEDS.to_vec()),
            a.positionals::<App>()?,
        ))
    });
    let selected = if named.is_empty() || all { App::ALL.to_vec() } else { named };

    // One sweep task per report section, queued in report order.
    type SectionTask = Box<dyn FnOnce() -> (String, Vec<Finding>) + Send>;
    let mut tasks: Vec<SectionTask> = Vec::new();
    for &app in &selected {
        for topo in TOPOLOGIES {
            tasks.push(Box::new(move || {
                let run = run_app(app, topo.config().with_verify(true));
                let report = run.report.as_ref().expect("ompss app run carries a report");
                (format!("{app}/{}", topo.name()), validate(report))
            }));
        }
        if schedules {
            let seeds = seeds.clone();
            tasks.push(Box::new(move || (format!("{app}/schedules"), explore_app(app, &seeds))));
        }
    }

    let mut sections = Json::array();
    let mut total = 0usize;
    for (target, findings) in ompss_sweep::run_jobs(ompss_sweep::jobs(), tasks) {
        total += findings.len();
        sections.push(report_json(&target, &findings));
    }

    let report = Json::object()
        .field("tool", "ompss-verify")
        .field("total_findings", total as u64)
        .field("reports", sections);
    println!("{}", report.to_pretty_string().trim_end());
    if total > 0 {
        std::process::exit(1);
    }
}

/// Rerun `app` on the multi-GPU topology across scheduler seeds and
/// diff outputs (verification itself stays off: exploration only cares
/// about the results, and the byte-diff snapshots would slow the extra
/// runs for nothing).
fn explore_app(app: App, seeds: &[u64]) -> Vec<Finding> {
    schedule::explore(app.name(), seeds, |seed| {
        let run = app.try_run(Topology::MultiGpu(2).config().with_sched_seed(seed))?;
        let tasks = run.report.as_ref().map_or(0, |r| r.tasks);
        Ok(Observation { check: run.check, tasks })
    })
}
