//! `chaos` — deterministic fault-injection sweep over the shipped
//! applications.
//!
//! ```text
//! chaos                          # all apps, default rates and seeds
//! chaos --rates 0.05,0.1 --seeds 1,2,3 matmul stream
//! chaos --node-kill              # whole-node kill sweep (cluster only)
//! chaos --node-kill --kill-points 20,45,70 perlin
//! ```
//!
//! For every app × topology, the sweep first runs fault-free for a
//! reference output, then replays the same program under each
//! `(rate, seed)` fault plan and requires the recovered output to be
//! bit-identical. The report is printed as pretty JSON; any divergence,
//! failed run, or missing recovery class makes the exit status 1.
//!
//! `--node-kill` switches to the whole-node loss grid: every app on
//! every cluster topology — including a sharded-control-plane cluster
//! where each slave victim owns a directory shard — killing each slave
//! node at planned fractions of the fault-free makespan. Each case must
//! either recover bit-identically or fail closed with
//! [`RunError::Exhausted`]; wrong bytes or any other crash fails the
//! sweep, as does a grid in which no case actually recovered.
//!
//! `--churn` switches to the elastic-membership grid: each app on a
//! three-node cluster, flat and sharded control plane, under planned
//! joins, drains, a join+drain round trip, and two drain×kill races
//! (the draining node killed mid-drain, and a bystander killed while
//! another node drains). Every cell must finish bit-identically to the
//! static reference or fail closed with [`RunError::Exhausted`] —
//! wrong bytes or any other crash fails the sweep, as does a grid in
//! which no join or no drain actually fired.
//!
//! Every run in the grid — references included — is an independent
//! simulation, so all of them execute on `--jobs N` host threads
//! (default `OMPSS_BENCH_JOBS` / host parallelism); comparisons and the
//! report are assembled serially in grid order, so the output is
//! byte-identical at any job count.

use std::sync::Arc;

use ompss_apps::scenario::{App, Topology};
use ompss_chaos::{chaos_run, output_of, run_app};
use ompss_json::Json;
use ompss_runtime::{CounterSnapshot, FaultClass, FaultSpec, RunError, RuntimeConfig, SimDuration};
use ompss_sweep::cli;

/// The rate × seed sweep's topologies: the paper's single-node
/// multi-GPU setting and its multi-node cluster setting.
const TOPOLOGIES: [Topology; 2] = [Topology::MultiGpu(2), Topology::Cluster(2)];

fn main() {
    let usage = format!(
        "usage: chaos [--rates r1,r2] [--seeds s1,s2] [--jobs N] [app...]\n       \
         chaos --node-kill [--kill-points p1,p2] [--jobs N] [app...]\n       \
         chaos --churn [--jobs N] [app...]\napps: {}",
        App::ALL.map(App::name).join(" ")
    );
    let (rates, seeds, node_kill, churn, kill_points, named) = cli::parse(&usage, |a| {
        Ok((
            a.list::<f64>("--rates")?.unwrap_or_else(|| vec![0.05, 0.1]),
            a.list::<u64>("--seeds")?.unwrap_or_else(|| vec![1, 2, 3]),
            a.flag("--node-kill"),
            a.flag("--churn"),
            a.list::<u64>("--kill-points")?.unwrap_or_else(|| vec![20, 45, 70]),
            a.positionals::<App>()?,
        ))
    });
    let apps = if named.is_empty() { App::ALL.to_vec() } else { named };

    if node_kill {
        node_kill_sweep(&apps, &kill_points);
        return;
    }
    if churn {
        churn_sweep(&apps);
        return;
    }

    // Queue every simulation in the grid — per (app, topology): the
    // fault-free reference, then one chaos run per (rate, seed).
    type RunTask = Box<dyn FnOnce() -> ompss_apps::common::AppRun + Send>;
    let mut tasks: Vec<RunTask> = Vec::new();
    for &app in &apps {
        for topo in TOPOLOGIES {
            tasks.push(Box::new(move || run_app(app, topo.config())));
            for &rate in &rates {
                for &seed in &seeds {
                    let spec = FaultSpec::new(seed, rate);
                    tasks.push(Box::new(move || chaos_run(app, topo.config(), spec)));
                }
            }
        }
    }
    let mut results = ompss_sweep::run_jobs(ompss_sweep::jobs(), tasks).into_iter();

    let mut cases = Json::array();
    let mut divergences = 0usize;
    // Aggregate recovery evidence over the whole sweep: every class the
    // runtime recovers from must fire at least once, or the sweep never
    // exercised it.
    let mut totals =
        [("am_retries", 0u64), ("tasks_reexecuted", 0), ("devices_lost", 0), ("msgs_dropped", 0)];
    for app in &apps {
        for topo in TOPOLOGIES {
            let reference = results.next().expect("one result per queued run");
            let ref_out = output_of(&reference).to_vec();
            for &rate in &rates {
                for &seed in &seeds {
                    let run = results.next().expect("one result per queued run");
                    let identical = output_of(&run) == ref_out.as_slice();
                    if !identical {
                        divergences += 1;
                    }
                    let rep = run.report.as_ref().expect("ompss app run carries a report");
                    let c = &rep.counters;
                    let stats = rep.faults.unwrap_or_default();
                    let mut case = Json::object()
                        .field("app", app.name())
                        .field("topology", topo.name())
                        .field("rate", rate)
                        .field("seed", seed)
                        .field("identical", identical)
                        .field("injected", stats.total())
                        .field("device_losses", stats.count(FaultClass::DeviceLoss));
                    let recovered =
                        [c.am_retries, c.tasks_reexecuted, c.devices_lost, c.msgs_dropped];
                    for ((name, total), n) in totals.iter_mut().zip(recovered) {
                        *total += n;
                        case = case.field(name, n);
                    }
                    cases.push(case);
                }
            }
        }
    }

    let missing: Vec<&str> =
        totals.iter().filter(|(_, n)| *n == 0).map(|(name, _)| *name).collect();
    let report = Json::object()
        .field("tool", "ompss-chaos")
        .field("divergences", divergences as u64)
        .field(
            "recovery_totals",
            totals.iter().fold(Json::object(), |j, (name, n)| j.field(name, *n)),
        )
        .field("cases", cases);
    println!("{}", report.to_pretty_string().trim_end());
    if divergences > 0 {
        eprintln!("chaos: {divergences} case(s) diverged from the fault-free output");
        std::process::exit(1);
    }
    if !missing.is_empty() {
        eprintln!("chaos: sweep exercised no recovery of class(es): {}", missing.join(", "));
        std::process::exit(1);
    }
}

/// How one planned node-kill or churn case ended. Finishing
/// bit-identically to the fault-free reference and failing closed with
/// [`RunError::Exhausted`] are the only acceptable outcomes — wrong
/// bytes and any other error fail the sweep.
enum Outcome {
    /// The run completed bit-identically; carries the grid's named
    /// counters from its report.
    Finished(Vec<(&'static str, u64)>),
    /// The run aborted with a recovery-budget/lineage exhaustion.
    FailClosed(String),
    /// Any other failure: a real defect.
    Crashed(String),
}

/// The counters a grid reports for each finished case.
type CounterPick = fn(&CounterSnapshot) -> Vec<(&'static str, u64)>;

/// A planned-membership grid (node kills or churn) over app ×
/// topology × case. Phase 1 runs each app × topology fault-free for a
/// reference (output bytes + makespan); phase 2 runs every case
/// `plan(topology config, makespan ns)` yields for it and classifies
/// the result against that reference. Both phases fan out across
/// `--jobs` threads; cases come back labelled in grid order.
fn run_grid<K: Copy + Send + 'static>(
    apps: &[App],
    topologies: &[(&'static str, Topology)],
    cases: impl Fn(Topology) -> Vec<K>,
    plan: fn(RuntimeConfig, K, u64) -> RuntimeConfig,
    pick: CounterPick,
) -> Vec<(App, &'static str, K, Outcome)> {
    type RefTask = Box<dyn FnOnce() -> (Vec<f32>, u64) + Send>;
    let mut ref_tasks: Vec<RefTask> = Vec::new();
    for &app in apps {
        for &(_, topo) in topologies {
            ref_tasks.push(Box::new(move || {
                let run = run_app(app, topo.config());
                let makespan = run.report.as_ref().expect("report").makespan.as_nanos();
                (output_of(&run).to_vec(), makespan)
            }));
        }
    }
    let mut refs = ompss_sweep::run_jobs(ompss_sweep::jobs(), ref_tasks).into_iter();

    // Outcomes are sorted by `RunError` variant — `Exhausted` is the
    // fail-closed budget abort, anything else a defect — not by
    // grepping panic strings.
    let mut tasks: Vec<Box<dyn FnOnce() -> Outcome + Send>> = Vec::new();
    let mut grid = Vec::new();
    for &app in apps {
        for &(label, topo) in topologies {
            let (expect, makespan) = refs.next().expect("one reference per app x topology");
            let expect = Arc::new(expect);
            for case in cases(topo) {
                grid.push((app, label, case));
                let expect = expect.clone();
                tasks.push(Box::new(move || {
                    match app.try_run(plan(topo.config(), case, makespan)) {
                        Ok(run) if output_of(&run) == expect.as_slice() => {
                            Outcome::Finished(pick(&run.report.as_ref().expect("report").counters))
                        }
                        Ok(_) => Outcome::Crashed("output diverged".into()),
                        Err(e @ RunError::Exhausted { .. }) => Outcome::FailClosed(e.to_string()),
                        Err(e) => Outcome::Crashed(e.to_string()),
                    }
                }));
            }
        }
    }
    let results = ompss_sweep::run_jobs(ompss_sweep::jobs(), tasks);
    grid.into_iter().zip(results).map(|((app, label, case), o)| (app, label, case, o)).collect()
}

/// A grid's report: per-case JSON plus outcome and counter totals.
struct Tally {
    finished_as: &'static str,
    cases: Json,
    finished: u64,
    fail_closed: u64,
    failures: u64,
    sums: Vec<(&'static str, u64)>,
}

impl Tally {
    /// Fold labelled outcomes into a tally; finished cases are tagged
    /// `finished_as` and list their counters.
    fn new(
        outcomes: impl IntoIterator<Item = (Json, Outcome)>,
        finished_as: &'static str,
    ) -> Tally {
        let mut t = Tally {
            finished_as,
            cases: Json::array(),
            finished: 0,
            fail_closed: 0,
            failures: 0,
            sums: Vec::new(),
        };
        for (case, outcome) in outcomes {
            let case = match outcome {
                Outcome::Finished(counters) => {
                    t.finished += 1;
                    let mut case = case.field("outcome", finished_as);
                    for (name, n) in counters {
                        match t.sums.iter_mut().find(|(k, _)| *k == name) {
                            Some((_, sum)) => *sum += n,
                            None => t.sums.push((name, n)),
                        }
                        case = case.field(name, n);
                    }
                    case
                }
                Outcome::FailClosed(msg) => {
                    t.fail_closed += 1;
                    case.field("outcome", "fail_closed").field("error", msg)
                }
                Outcome::Crashed(msg) => {
                    t.failures += 1;
                    case.field("outcome", "FAILURE").field("error", msg)
                }
            };
            t.cases.push(case);
        }
        t
    }

    fn sum(&self, name: &str) -> u64 {
        self.sums.iter().find(|(k, _)| *k == name).map_or(0, |(_, n)| *n)
    }

    /// The report: `finished_as`, `fail_closed` and `failures` counts,
    /// then the sums of the `summed` counters, then the cases.
    fn print(self, mode: &str, summed: &[&str]) {
        let mut totals = Json::object()
            .field(self.finished_as, self.finished)
            .field("fail_closed", self.fail_closed)
            .field("failures", self.failures);
        for name in summed {
            totals = totals.field(name, self.sum(name));
        }
        let report = Json::object()
            .field("tool", "ompss-chaos")
            .field("mode", mode)
            .field("totals", totals)
            .field("cases", self.cases);
        println!("{}", report.to_pretty_string().trim_end());
    }
}

fn at_percent(makespan: u64, pct: u64) -> SimDuration {
    SimDuration::from_nanos(makespan * pct / 100)
}

/// The whole-node loss grid: app × cluster size × victim slave × kill
/// instant (a percentage of the fault-free makespan). See the module
/// docs for the pass criteria.
fn node_kill_sweep(apps: &[App], points: &[u64]) {
    // The third cluster runs the sharded control plane, so every slave
    // victim is a shard *owner* homing a slice of the directory: killing
    // it exercises the master's re-homing path, which must either
    // restore the bytes or fail closed.
    let clusters = [
        ("cluster2", Topology::Cluster(2)),
        ("cluster3", Topology::Cluster(3)),
        ("cluster3_sharded", Topology::ClusterSharded(3)),
    ];
    let grid = run_grid(
        apps,
        &clusters,
        |topo| {
            (1..topo.nodes())
                .flat_map(|victim| points.iter().map(move |&pct| (victim, pct)))
                .collect()
        },
        |cfg, (victim, pct), makespan| cfg.with_node_loss(victim, at_percent(makespan, pct)),
        |c| {
            vec![
                ("nodes_lost", c.nodes_lost),
                ("tasks_relineaged", c.tasks_relineaged),
                ("bytes_reconstructed", c.bytes_reconstructed),
                ("heartbeats_missed", c.heartbeats_missed),
            ]
        },
    );
    let tally = Tally::new(
        grid.into_iter().map(|(app, topo, (victim, pct), outcome)| {
            let case = Json::object()
                .field("app", app.name())
                .field("topology", topo)
                .field("victim", victim as u64)
                .field("kill_percent", pct);
            (case, outcome)
        }),
        "recovered",
    );
    let (failures, recovered) = (tally.failures, tally.finished);
    tally.print("node-kill", &["tasks_relineaged", "bytes_reconstructed"]);
    if failures > 0 {
        eprintln!("chaos --node-kill: {failures} case(s) crashed or produced wrong bytes");
        std::process::exit(1);
    }
    if recovered == 0 {
        eprintln!("chaos --node-kill: no case actually recovered; the grid proves nothing");
        std::process::exit(1);
    }
}

/// One churn scenario: name, join %, drain %, (kill victim, kill %).
type Scenario = (&'static str, Option<u64>, Option<u64>, Option<(u32, u64)>);

/// The elastic-membership grid: app × {flat, sharded} three-node
/// cluster × churn scenario. Node 2 is the elastic member throughout;
/// the two kill scenarios race a crash against its drain (the drainee
/// itself, then bystander node 1). Instants are fractions of the
/// static fault-free makespan so every event lands mid-run.
fn churn_sweep(apps: &[App]) {
    const SCENARIOS: [Scenario; 5] = [
        ("join", Some(25), None, None),
        ("drain", None, Some(45), None),
        ("join_drain", Some(20), Some(55), None),
        ("drain_then_kill", None, Some(40), Some((2, 45))),
        ("kill_other_during_drain", None, Some(40), Some((1, 45))),
    ];
    let planes =
        [("cluster3", Topology::Cluster(3)), ("cluster3_sharded", Topology::ClusterSharded(3))];
    const COUNTERS: [&str; 5] =
        ["nodes_joined", "nodes_drained", "regions_rebalanced", "bytes_migrated", "nodes_lost"];
    let grid = run_grid(
        apps,
        &planes,
        |_| SCENARIOS.to_vec(),
        |mut cfg, (_, join, drain, kill): Scenario, makespan| {
            if let Some(pct) = join {
                cfg = cfg.with_node_join(2, at_percent(makespan, pct));
            }
            if let Some(pct) = drain {
                cfg = cfg.with_node_drain(2, at_percent(makespan, pct));
            }
            if let Some((victim, pct)) = kill {
                cfg = cfg.with_node_loss(victim, at_percent(makespan, pct));
            }
            cfg
        },
        |c| {
            let values = [
                c.nodes_joined,
                c.nodes_drained,
                c.regions_rebalanced,
                c.bytes_migrated,
                c.nodes_lost,
            ];
            COUNTERS.into_iter().zip(values).collect()
        },
    );
    let tally = Tally::new(
        grid.into_iter().map(|(app, plane, (scenario, ..), outcome)| {
            let case = Json::object()
                .field("app", app.name())
                .field("topology", plane)
                .field("scenario", scenario);
            (case, outcome)
        }),
        "identical",
    );
    let (failures, joined, drained) =
        (tally.failures, tally.sum("nodes_joined"), tally.sum("nodes_drained"));
    tally.print("churn", &COUNTERS);
    if failures > 0 {
        eprintln!("chaos --churn: {failures} case(s) crashed or produced wrong bytes");
        std::process::exit(1);
    }
    if joined == 0 || drained == 0 {
        eprintln!(
            "chaos --churn: the grid exercised no {} (joined={joined}, drained={drained})",
            if joined == 0 { "join" } else { "drain" }
        );
        std::process::exit(1);
    }
}
