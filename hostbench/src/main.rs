//! `hostbench` — host time of the paper's figure sweeps.
//!
//! ```text
//! hostbench --workload <paper_multigpu|paper_cluster|weak_scale>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a provenance line, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 2 on bad arguments, a set `OMPSS_*` variable, or missing
//! `results/`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ompss_hostbench::trace::Tracer;
use ompss_hostbench::workloads::Workload;
use ompss_hostbench::{median, peak_rss_mb, ratio, replay, run_config, Bench, Counts, Pass};
use ompss_json::Json;

/// Host seconds kept free in a traced run for the layer replays.
const REPLAY_RESERVE_S: f64 = 1.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// `RuntimeConfig` reads `OMPSS_*` variables at construction; any of
/// them would silently measure a different program.
fn stray_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("OMPSS_"))
        .collect()
}

/// The repository root: the benchmark package's parent directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else { return "unknown".into() };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head.to_string(),
    }
}

fn metric(m: &mut Json, name: &str, value: impl Into<Json>, unit: &str) {
    m.set(name, Json::object().field("value", value).field("unit", unit));
}

/// Run `step` until another step would overrun `budget`; at least once.
fn for_budget(budget: f64, mut step: impl FnMut()) {
    let t0 = Instant::now();
    let mut longest = Duration::ZERO;
    loop {
        let t = Instant::now();
        step();
        longest = longest.max(t.elapsed());
        if (t0.elapsed() + longest).as_secs_f64() > budget {
            break;
        }
    }
}

/// The median pass: each configuration at its median host time over
/// the passes.
fn median_pass(passes: &[Pass]) -> Pass {
    let mut m = passes[0].clone();
    for (i, r) in m.runs.iter_mut().enumerate() {
        let ns: Vec<f64> = passes.iter().map(|p| p.runs[i].host_ns as f64).collect();
        r.host_ns = median(&ns).round() as u64;
    }
    m
}

/// Load the references, build the grid and check set, and run the first
/// configuration once untimed; returns the bench and seconds since `t`.
fn setup(results: &Path, w: Workload, seed: u64, t: Instant) -> Result<(Bench, f64), String> {
    let b = Bench::setup(results, w, seed)?;
    let _ = run_config(&b.configs[0], seed);
    Ok((b, t.elapsed().as_secs_f64()))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stray = stray_env();
    if !stray.is_empty() {
        eprintln!("hostbench: refusing to measure with {} set", stray.join(", "));
        return ExitCode::from(2);
    }
    let root = repo_root();
    let results = root.join("results");
    let w = args.workload;

    // Set-up: references, grid, check set and one untimed warm-up run.
    // The first sample counts from process start; an untraced run sets
    // up again after every pass and reports the median.
    let mut setups = Vec::new();
    let mut bench = match setup(&results, w, args.seed, started) {
        Ok((b, s)) => {
            setups.push(s);
            b
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };

    let provenance = Json::object()
        .field("workload", w.name())
        .field("seed", args.seed)
        .field("trace", args.trace)
        .field("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()))
        .field("host_threads", 1u64)
        .field("commit", commit(&root))
        .field("rustc", env!("HOSTBENCH_RUSTC"))
        .field("configs", bench.configs.len())
        .field("real_checks", bench.checks.len());
    println!("{}", provenance.to_compact_string());

    let mut passes: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut metrics = Json::object();
    let mut tracer = Tracer::new(args.trace);
    let mut off = Tracer::new(false);

    if !args.trace {
        for_budget(args.seconds, || {
            passes.push(bench.pass(&mut off));
            let (_, s) =
                setup(&results, w, args.seed, Instant::now()).expect("set up once already");
            setups.push(s);
        });
        // Timings at reference host speed (see `speed.rs`); the raw
        // medians go on an info line.
        let speeds: Vec<f64> = passes.iter().map(Pass::speed).collect();
        let at_ref: Vec<Pass> = passes.iter().map(Pass::at_reference_speed).collect();
        let m = median_pass(&at_ref);
        let raw = median_pass(&passes);
        // Set-up i ran after pass i - 1 (the first one before pass 0).
        let setups_ref: Vec<f64> =
            setups.iter().enumerate().map(|(i, s)| s * speeds[i.saturating_sub(1)]).collect();
        let growth: Vec<f64> =
            at_ref.iter().map(|p| p.host_cost_growth(&bench.configs, w)).collect();
        let info = Json::object()
            .field("passes", passes.len())
            .field("host_speed", median(&speeds))
            .field("raw_wall_s", raw.wall_s())
            .field("raw_slowest_run_s", raw.slowest_run_s())
            .field("raw_setup_s", median(&setups));
        println!("{}", info.to_compact_string());
        metric(&mut metrics, "wall_s", m.wall_s(), "s");
        metric(&mut metrics, "slowest_run_s", m.slowest_run_s(), "s");
        metric(&mut metrics, "host_cost_growth", median(&growth), "ratio");
        metric(&mut metrics, "peak_rss_mb", peak_rss_mb(), "MB");
        metric(&mut metrics, "setup_s", median(&setups_ref), "s");
    } else {
        let budget = (args.seconds - REPLAY_RESERVE_S).max(0.0);
        for_budget(budget, || {
            passes.push(bench.pass(&mut off));
            traced.push(bench.pass(&mut tracer));
        });
        layer_metrics(&mut metrics, &bench, &passes, &traced, &mut tracer);
    }

    let all: Vec<&Pass> = passes.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|p| p.attempted()).sum();
    let failures: Vec<String> = all.iter().flat_map(|p| p.failures()).collect();
    for f in failures.iter().take(20) {
        eprintln!("hostbench: FAILED {f}");
    }
    if args.trace {
        metric(
            &mut metrics,
            "failed_frac",
            ratio(failures.len() as f64, attempted as f64),
            "ratio",
        );
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
            "spans-{}-seed{}.jsonl",
            w.name(),
            args.seed
        ));
        if let Err(e) = tracer.write(&path) {
            eprintln!("hostbench: writing {}: {e}", path.display());
        }
    }
    let out = Json::object()
        .field("correct", failures.is_empty())
        .field("attempted", attempted)
        .field("failed", failures.len())
        .field("metrics", metrics);
    println!("{}", out.to_compact_string());
    ExitCode::SUCCESS
}

/// The per-layer metrics of a traced run.
fn layer_metrics(m: &mut Json, bench: &Bench, plain: &[Pass], traced: &[Pass], tr: &mut Tracer) {
    let w = bench.workload;
    let configs = &bench.configs;
    let k: Counts = traced[0].counts();
    let last = median_pass(traced);

    let speeds: Vec<f64> = plain.iter().chain(traced).map(Pass::speed).collect();
    metric(m, "host.speed", median(&speeds), "ratio");

    // Tracing overhead: whole traced passes against untraced ones, each
    // at reference host speed.
    let pass_s = |ps: &[Pass]| median(&ps.iter().map(|p| p.loop_s * p.speed()).collect::<Vec<_>>());
    metric(m, "trace.overhead_frac", pass_s(traced) / pass_s(plain) - 1.0, "ratio");

    // Runtime glue: each OmpSs run's median time over the traced passes
    // (the time its `rt.run` span encloses).
    let run_ms: Vec<f64> = configs
        .iter()
        .zip(&last.runs)
        .filter(|(c, _)| !c.mpi)
        .map(|(_, r)| r.host_ns as f64 / 1e6)
        .collect();
    let ompss_s: f64 = run_ms.iter().sum::<f64>() / 1e3;
    let host_us_per_task = ratio(ompss_s * 1e6, k.tasks as f64);
    let (small, large) = w.machine_range();
    metric(m, "rt.run_ms_p50", median(&run_ms), "ms");
    metric(m, "rt.run_ms_max", run_ms.iter().copied().fold(0.0, f64::max), "ms");
    metric(m, "rt.host_us_per_task", host_us_per_task, "us");
    metric(m, "rt.host_us_per_task_smallest", last.host_us_per_task(configs, small), "us");
    metric(m, "rt.host_us_per_task_largest", last.host_us_per_task(configs, large), "us");
    let mpi_ms: Vec<f64> = configs
        .iter()
        .zip(&last.runs)
        .filter(|(c, _)| c.mpi)
        .map(|(_, r)| r.host_ns as f64 / 1e6)
        .collect();
    metric(m, "net.mpi_run_ms", if mpi_ms.is_empty() { 0.0 } else { median(&mpi_ms) }, "ms");

    // Exact counts from the run reports.
    metric(m, "sim.events", k.events, "count");
    metric(m, "sim.clock_advances", k.clock_advances, "count");
    metric(m, "sim.events_per_host_s", ratio(k.events as f64, ompss_s), "1/s");
    metric(m, "graph.tasks", k.tasks, "count");
    metric(m, "sched.max_queued", k.max_queued, "count");
    metric(m, "sched.steals", k.steals, "count");
    metric(m, "sched.local_hit_ratio", ratio(k.local_hits as f64, k.decisions as f64), "ratio");
    let coh_hit_ratio = ratio(k.coh_hits as f64, (k.coh_hits + k.coh_misses) as f64);
    metric(m, "coh.hit_ratio", coh_hit_ratio, "ratio");
    metric(m, "coh.transfers", k.transfers, "count");
    metric(m, "coh.bytes_moved", k.bytes_moved, "bytes");
    metric(m, "coh.evictions", k.evictions, "count");
    metric(m, "coh.writebacks", k.writebacks, "count");
    metric(m, "shard.lookups", k.shard_lookups, "count");
    metric(m, "shard.peer_resolutions", k.peer_resolutions, "count");
    metric(m, "net.messages", k.net_messages, "count");
    metric(m, "net.bytes", k.net_bytes, "bytes");
    metric(m, "net.hot_link_share", ratio(k.hot_link_bytes as f64, k.net_bytes as f64), "ratio");
    metric(m, "am.shorts", k.am_shorts, "count");
    metric(m, "am.longs", k.am_longs, "count");
    metric(m, "cuda.kernels", k.kernels, "count");
    metric(m, "cuda.pcie_bytes", k.pcie_bytes, "bytes");

    // Replays of each layer's public API in the workload's shape.
    let stream = replay::access_stream(w);
    let handoff = replay::sim_handoff_ns(tr);
    metric(m, "sim.handoff_ns", handoff, "ns");
    metric(m, "sim.spawn_ns", replay::sim_spawn_ns(tr), "ns");
    let (add, complete) = replay::graph_ns(tr, &stream);
    metric(m, "graph.add_task_ns", add, "ns");
    metric(m, "graph.complete_ns", complete, "ns");
    let (submit, next) = replay::sched_ns(tr, w, &stream, k.max_queued);
    metric(m, "sched.submit_ns", submit, "ns");
    metric(m, "sched.next_ns", next, "ns");
    let coh = replay::coherence_ns(tr, w, &stream);
    metric(m, "coh.acquire_hit_ns", coh.acquire_hit, "ns");
    metric(m, "coh.acquire_miss_ns", coh.acquire_miss, "ns");
    metric(m, "coh.commit_ns", coh.commit, "ns");
    metric(m, "shard.owner_ns", replay::shard_owner_ns(tr), "ns");
    metric(m, "net.am_roundtrip_ns", replay::am_roundtrip_ns(tr, w), "ns");
    let (launch, copy) = replay::cuda_ns(tr);
    metric(m, "cuda.launch_ns", launch, "ns");
    metric(m, "cuda.memcpy_async_ns", copy, "ns");
    metric(m, "rt.empty_run_ms", replay::empty_run_ms(tr, &w.machine(large)), "ms");
    metric(m, "rt.empty_run_ms_smallest", replay::empty_run_ms(tr, &w.machine(small)), "ms");

    // Estimate: run cost per task not explained by the replayed
    // per-task costs of graph, scheduler, coherence (three accesses at
    // the observed hit ratio) and executor (events per task × handoff).
    let accesses = stream[0].len() as f64;
    let coh_per_access =
        coh_hit_ratio * coh.acquire_hit + (1.0 - coh_hit_ratio) * coh.acquire_miss + coh.commit;
    let events_per_task = ratio(k.events as f64, k.tasks as f64);
    let replayed_ns =
        add + complete + submit + next + accesses * coh_per_access + events_per_task * handoff;
    metric(m, "rt.unattributed_us_per_task", host_us_per_task - replayed_ns / 1e3, "us");
}
