//! Generation of every figure and table of the paper's evaluation.
//!
//! [`ALL`] is the one registry of what `results/` holds: each entry
//! names a figure id, its generator and, for fig05 and fig09, the
//! traced configuration exported as a Paraver trace pair. Each
//! `figNN()` function declares its sweep once, as a list of
//! `SweepPoint`s over the simulated platform (phantom-backed,
//! paper-scale workloads). Shape assertions — the reproduction
//! criteria — live in the crate's integration tests and in
//! `EXPERIMENTS.md`.
//!
//! Every point is an independent simulation, so `run_points` fans
//! them across host threads with [`ompss_sweep::run_jobs`] (`--jobs N`
//! / `OMPSS_BENCH_JOBS`). Results come back in submission order and
//! the series are assembled in that order, so the figure JSON is
//! byte-identical at any job count.

use std::path::Path;

use ompss_apps::common::AppRun;
use ompss_apps::matmul::{self, ompss::InitMode};
use ompss_apps::{nbody, perlin, stream, ws};
use ompss_cudasim::GpuSpec;
use ompss_json::ToJson;
use ompss_net::FabricConfig;
use ompss_runtime::{Backing, CachePolicy, ParaverTrace, Policy, RuntimeConfig, SlaveRouting};

use crate::{FigureData, Series};

/// A traced run exported as a Paraver pair: file stem and the run.
pub type Trace = (&'static str, fn() -> AppRun);

/// One regenerable entry of `results/`.
pub struct Figure {
    /// Figure id; the entry writes `results/<id>.json`.
    pub id: &'static str,
    /// Runs the sweep and assembles the figure.
    pub make: fn() -> FigureData,
    /// Traced run exported as `results/<name>.prv`/`.row`, if any.
    pub trace: Option<Trace>,
}

impl Figure {
    /// Regenerate the entry: print its table, save its JSON under `dir`
    /// and export its Paraver trace pair there.
    pub fn regenerate(&self, dir: &Path) {
        let fig = (self.make)();
        assert_eq!(fig.id, self.id, "registry id and figure id disagree");
        fig.print();
        fig.save(dir);
        if let Some((name, run)) = self.trace {
            let rep = run().report.expect("ompss run carries a report");
            let events = rep.trace.as_deref().expect("tracing was enabled");
            let (prv, _) = ParaverTrace::from_events(events, rep.makespan)
                .save(dir, name)
                .unwrap_or_else(|e| panic!("write paraver trace {name}: {e}"));
            println!("paraver trace: {}", prv.display());
        }
    }
}

/// Every figure and table of the evaluation, in regeneration order.
pub const ALL: [Figure; 11] = [
    Figure { id: "fig05", make: fig05, trace: Some(("fig05_multigpu", fig05_traced)) },
    Figure { id: "fig06", make: fig06, trace: None },
    Figure { id: "fig07", make: fig07, trace: None },
    Figure { id: "fig08", make: fig08, trace: None },
    Figure { id: "fig09", make: fig09, trace: Some(("fig09_cluster", fig09_traced)) },
    Figure { id: "fig10", make: fig10, trace: None },
    Figure { id: "fig11", make: fig11, trace: None },
    Figure { id: "fig12", make: fig12, trace: None },
    Figure { id: "fig13", make: fig13, trace: None },
    Figure { id: "figWS", make: figws, trace: None },
    Figure { id: "table1", make: table1, trace: None },
];

/// The timeline behind fig05's wb/affinity bar at 4 GPUs.
fn fig05_traced() -> AppRun {
    let cfg = mg(4).with_cache(CachePolicy::WriteBack).with_sched(Policy::Affinity);
    matmul::ompss::run(cfg.with_tracing(true), matmul::MatmulParams::paper(), InitMode::Seq)
}

/// The paper's best cluster setup at 8 nodes: StoS routing, SMP-parallel
/// init, deep presend.
fn fig09_traced() -> AppRun {
    matmul::ompss::run(cl_best(8).with_tracing(true), matmul::MatmulParams::paper(), InitMode::Smp)
}

const CACHES: [CachePolicy; 3] =
    [CachePolicy::NoCache, CachePolicy::WriteThrough, CachePolicy::WriteBack];
const SCHEDS: [Policy; 3] = [Policy::BreadthFirst, Policy::Dependencies, Policy::Affinity];
const GPUS: [u32; 3] = [1, 2, 4];
const NODES: [u32; 4] = [1, 2, 4, 8];

fn mg(gpus: u32) -> RuntimeConfig {
    RuntimeConfig::multi_gpu(gpus).with_backing(Backing::Phantom)
}

fn cl(nodes: u32) -> RuntimeConfig {
    RuntimeConfig::gpu_cluster(nodes).with_backing(Backing::Phantom)
}

/// The paper's "best setup" for cluster OmpSs runs (§IV-B2): direct
/// slave-to-slave transfers, SMP-parallel initialisation, deep presend.
fn cl_best(nodes: u32) -> RuntimeConfig {
    cl(nodes).with_routing(SlaveRouting::Direct).with_presend(8)
}

/// Best setup for the fine-grained apps (Perlin, N-Body): shallow
/// presend — deep lookahead pins small tasks to nodes before the
/// balancer can react (the paper likewise reports the cluster options
/// making no positive difference for these apps).
fn cl_light(nodes: u32) -> RuntimeConfig {
    cl(nodes).with_routing(SlaveRouting::Direct).with_presend(1)
}

/// One configuration of a figure sweep.
struct SweepPoint {
    series: String,
    x: u32,
    report: bool,
    run: Box<dyn FnOnce() -> AppRun + Send>,
}

impl SweepPoint {
    /// The point at sweep coordinate `x` of `series`, produced by `run`.
    /// With `report` set, the run's full
    /// [`RunReport`](ompss_runtime::RunReport) JSON is embedded in the
    /// figure, so the observability data (per-resource utilisation,
    /// cache counters, bytes by medium) ships with the chart it explains.
    fn new(
        series: impl Into<String>,
        x: u32,
        report: bool,
        run: impl FnOnce() -> AppRun + Send + 'static,
    ) -> Self {
        SweepPoint { series: series.into(), x, report, run: Box::new(run) }
    }
}

/// Run `points` on the host-thread sweep and add them to `fig`: series
/// in first-seen order, each point's metric at `x`, and every embedded
/// report keyed `"{series}@{x}{unit}"` in point order.
fn run_points(fig: &mut FigureData, unit: &str, points: Vec<SweepPoint>) {
    let (labels, runs): (Vec<_>, Vec<_>) =
        points.into_iter().map(|p| ((p.series, p.x, p.report), p.run)).unzip();
    let results = ompss_sweep::run_jobs(ompss_sweep::jobs(), runs);
    for ((series, x, report), r) in labels.into_iter().zip(results) {
        if let (true, Some(rep)) = (report, &r.report) {
            fig.attach_report(format!("{series}@{x}{unit}"), rep.to_json());
        }
        let i = match fig.series.iter().position(|s| s.label == series) {
            Some(i) => i,
            None => {
                fig.add(Series::new(series));
                fig.series.len() - 1
            }
        };
        fig.series[i].push(x.to_string(), r.metric);
    }
}

// ----------------------------------------------------------- Figs 5, 6

/// The cache × scheduler × GPU-count grid of Figs. 5 and 6, embedding
/// every series' report at 4 GPUs. `run` gets the configuration and
/// the GPU count.
fn cache_sched_grid(run: fn(RuntimeConfig, u32) -> AppRun) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for cache in CACHES {
        for sched in SCHEDS {
            for gpus in GPUS {
                let cfg = mg(gpus).with_cache(cache).with_sched(sched);
                let label = format!("{}/{}", cache.chart_label(), sched.chart_label());
                points.push(SweepPoint::new(label, gpus, gpus == 4, move || run(cfg, gpus)));
            }
        }
    }
    points
}

/// Fig. 5: Matrix multiply on the multi-GPU node — GFLOPS for every
/// cache policy × scheduling policy × GPU count.
pub fn fig05() -> FigureData {
    let mut fig =
        FigureData::new("fig05", "Matrix multiply, multi-GPU node (12288², 1024² tiles)", "GFLOPS");
    let points = cache_sched_grid(|cfg, _| {
        matmul::ompss::run(cfg, matmul::MatmulParams::paper(), InitMode::Seq)
    });
    run_points(&mut fig, "gpus", points);
    fig.note("expected shape: nocache < wt < wb; dep/affinity pull ahead of bf as GPUs grow");
    fig
}

/// Fig. 6: STREAM on the multi-GPU node — GB/s for cache × scheduler ×
/// GPU count (768 MB of arrays per GPU).
pub fn fig06() -> FigureData {
    let mut fig = FigureData::new("fig06", "STREAM, multi-GPU node (768 MB/GPU)", "GB/s");
    let points = cache_sched_grid(|cfg, gpus| {
        stream::ompss::run(cfg, stream::StreamParams::paper(gpus as usize))
    });
    run_points(&mut fig, "gpus", points);
    fig.note("expected shape: wb far above nocache/wt; scheduler choice barely matters");
    fig
}

// ---------------------------------------------------------------- Fig 7

/// Fig. 7: Perlin noise on the multi-GPU node — Mpixels/s for
/// Flush/NoFlush × cache policy × GPU count.
pub fn fig07() -> FigureData {
    let mut fig = FigureData::new("fig07", "Perlin noise, multi-GPU node (1024×1024)", "Mpixels/s");
    let p = perlin::PerlinParams::paper();
    let mut points = Vec::new();
    for (flush, mode) in [(true, "flush"), (false, "noflush")] {
        for cache in CACHES {
            for gpus in GPUS {
                // Locality-aware scheduling keeps row blocks anchored
                // across the Flush variant's per-step taskwaits.
                let cfg = mg(gpus).with_cache(cache).with_sched(Policy::Affinity);
                let label = format!("{mode}/{}", cache.chart_label());
                points.push(SweepPoint::new(label, gpus, gpus == 4, move || {
                    perlin::ompss::run(cfg, p, flush)
                }));
            }
        }
    }
    run_points(&mut fig, "gpus", points);
    fig.note("expected shape: NoFlush above Flush; caching helps NoFlush most");
    fig
}

// ---------------------------------------------------------------- Fig 8

/// GPU memory made visible to the cache for the Fig. 8 pressure study.
///
/// The paper attributes no-cache's win to N-Body filling GPU memory and
/// triggering replacement with delayed write-back. We reproduce the
/// *mechanism* by capping the cache capacity relative to the N-Body
/// working set (all-to-all blocks × double-buffered positions), as
/// documented in DESIGN.md.
pub const FIG8_GPU_MEM: u64 = 1 << 20;

/// Fig. 8: N-Body on the multi-GPU node — GFLOPS per cache policy ×
/// GPU count, under GPU memory pressure.
pub fn fig08() -> FigureData {
    let mut fig = FigureData::new(
        "fig08",
        "N-Body, multi-GPU node (20000 bodies, 10 iters, memory-pressured GPUs)",
        "GFLOPS",
    );
    // Coarse blocks (one per GPU at 4 GPUs, NVIDIA multi-GPU example
    // style) and a capped cache reproduce the pressure regime.
    let p = nbody::NbodyParams { n: 20_000, blocks: 4, iters: 10, real: false };
    let mut points = Vec::new();
    for cache in CACHES {
        for gpus in GPUS {
            let cfg = mg(gpus).with_cache(cache).with_gpu_mem(FIG8_GPU_MEM);
            points.push(SweepPoint::new(cache.chart_label(), gpus, gpus == 4, move || {
                nbody::ompss::run(cfg, p)
            }));
        }
    }
    run_points(&mut fig, "gpus", points);
    fig.note(
        "paper shape: nocache outperforms wt/wb; reproduced as near-parity (see EXPERIMENTS.md)",
    );
    fig.note("secondary shape: good scalability to 2-4 GPUs holds for all policies");
    fig
}

// ---------------------------------------------------------------- Fig 9

/// Fig. 9: Matrix multiply on the GPU cluster — GFLOPS for routing
/// (MtoS/StoS) × initialisation (seq/smp/gpu) × presend {0,2,8} ×
/// node count.
pub fn fig09() -> FigureData {
    let mut fig =
        FigureData::new("fig09", "Matrix multiply, GPU cluster configuration sweep", "GFLOPS");
    let p = matmul::MatmulParams::paper();
    let mut points = Vec::new();
    for (routing, rl) in [(SlaveRouting::ViaMaster, "MtoS"), (SlaveRouting::Direct, "StoS")] {
        for (init, il) in [(InitMode::Seq, "seq"), (InitMode::Smp, "smp"), (InitMode::Gpu, "gpu")] {
            for presend in [0u32, 2, 8] {
                for nodes in NODES {
                    let cfg = cl(nodes).with_routing(routing).with_presend(presend);
                    let label = format!("{rl}/{il}/presend{presend}");
                    points.push(SweepPoint::new(label, nodes, nodes == 8, move || {
                        matmul::ompss::run(cfg, p, init)
                    }));
                }
            }
        }
    }
    run_points(&mut fig, "nodes", points);
    fig.note(
        "expected shapes: StoS >> MtoS at scale; parallel init >> seq; presend helps (with StoS)",
    );
    fig
}

// ------------------------------------------------------- Figs 10 to 13

/// The two-series sweep of Figs. 10, 11 and 13: OmpSs and MPI+CUDA at
/// every node count, embedding the OmpSs report at 8 nodes.
fn vs_mpi(
    ompss: impl Fn(u32) -> AppRun + Send + Copy + 'static,
    mpi: impl Fn(u32, GpuSpec, FabricConfig) -> AppRun + Send + Copy + 'static,
) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for nodes in NODES {
        points.push(SweepPoint::new("OmpSs", nodes, nodes == 8, move || ompss(nodes)));
        points.push(SweepPoint::new("MPI+CUDA", nodes, false, move || {
            mpi(nodes, GpuSpec::gtx_480(), FabricConfig::qdr_infiniband(nodes))
        }));
    }
    points
}

/// Fig. 10: Matrix multiply — best OmpSs setup vs MPI+CUDA SUMMA.
pub fn fig10() -> FigureData {
    let mut fig =
        FigureData::new("fig10", "Matrix multiply: OmpSs vs MPI+CUDA on the cluster", "GFLOPS");
    let p = matmul::MatmulParams::paper();
    let points = vs_mpi(
        move |nodes| matmul::ompss::run(cl_best(nodes), p, InitMode::Smp),
        move |nodes, gpu, fabric| matmul::mpi::run(nodes, gpu, fabric, p),
    );
    run_points(&mut fig, "nodes", points);
    fig.note("expected shape: MPI ahead at 1-2 nodes, OmpSs ahead at 4-8");
    fig
}

/// Fig. 11: STREAM on the GPU cluster — OmpSs vs MPI+CUDA.
pub fn fig11() -> FigureData {
    let mut fig = FigureData::new("fig11", "STREAM on the GPU cluster (768 MB/node)", "GB/s");
    let p = |nodes: u32| stream::StreamParams::paper(nodes as usize);
    let points = vs_mpi(
        move |nodes| stream::ompss::run(cl_best(nodes), p(nodes)),
        move |nodes, gpu, fabric| stream::mpi::run(nodes, gpu, fabric, p(nodes)),
    );
    run_points(&mut fig, "nodes", points);
    fig.note("expected shape: both scale ~linearly (no inter-node traffic), comparable levels");
    fig
}

/// Fig. 12: Perlin noise on the GPU cluster — Flush/NoFlush, OmpSs vs
/// MPI+CUDA.
pub fn fig12() -> FigureData {
    let mut fig =
        FigureData::new("fig12", "Perlin noise on the GPU cluster (1024×1024)", "Mpixels/s");
    // One row-block per node at 8 nodes: cluster-grain tasks, so the
    // per-step dispatch latency is amortised as in the paper's runs.
    let p = perlin::PerlinParams {
        width: 1024,
        height: 1024,
        steps: 10,
        rows_per_block: 128,
        real: false,
    };
    let mut points = Vec::new();
    for (flush, ml) in [(true, "flush"), (false, "noflush")] {
        for nodes in NODES {
            points.push(SweepPoint::new(format!("OmpSs/{ml}"), nodes, nodes == 8, move || {
                perlin::ompss::run(cl_light(nodes), p, flush)
            }));
            points.push(SweepPoint::new(format!("MPI+CUDA/{ml}"), nodes, false, move || {
                let fabric = FabricConfig::qdr_infiniband(nodes);
                perlin::mpi::run(nodes, GpuSpec::gtx_480(), fabric, p, flush)
            }));
        }
    }
    run_points(&mut fig, "nodes", points);
    fig.note("expected shape: Flush flat/poor for both models; NoFlush scales; OmpSs ≈ MPI");
    fig
}

/// Fig. 13: N-Body on the GPU cluster — OmpSs vs MPI+CUDA.
pub fn fig13() -> FigureData {
    let mut fig = FigureData::new(
        "fig13",
        "N-Body on the GPU cluster (20000 bodies, 10 iterations)",
        "GFLOPS",
    );
    let p = nbody::NbodyParams::paper();
    let points = vs_mpi(
        move |nodes| nbody::ompss::run(cl_light(nodes), p),
        move |nodes, gpu, fabric| nbody::mpi::run(nodes, gpu, fabric, p),
    );
    run_points(&mut fig, "nodes", points);
    fig.note("expected shape: MPI ahead at 1-2 nodes; OmpSs scales better toward 8");
    fig
}

// --------------------------------------------------------------- Fig WS

/// Node counts of the weak-scaling sweep — past the paper's scale on
/// purpose: the flat master saturates inside this range, the sharded
/// plane does not.
pub const WS_NODES: [u32; 4] = [4, 16, 64, 256];

/// Fig. WS: weak scaling of the control plane — aggregate task
/// throughput at fixed per-node work, flat single master vs the
/// sharded plane (`OMPSS_SHARDS`), on the two weak-scaling apps.
pub fn figws() -> FigureData {
    let mut fig = FigureData::new(
        "figWS",
        "Weak scaling, flat vs sharded control plane (4 × 256 KiB blocks/node)",
        "ktasks/s",
    );
    type WsApp = fn(RuntimeConfig, ws::WsParams) -> AppRun;
    let p = ws::WsParams::paper();
    let apps: [(&str, WsApp); 2] = [("stream_ws", ws::run_stream), ("matmul_ws", ws::run_matmul)];
    let mut points = Vec::new();
    for (app, run) in apps {
        for (sharded, mode) in [(false, "flat"), (true, "sharded")] {
            for nodes in WS_NODES {
                let cfg = ws::ws_config(nodes, sharded);
                let label = format!("{app}/{mode}");
                points.push(SweepPoint::new(label, nodes, nodes == 64, move || run(cfg, p)));
            }
        }
    }
    run_points(&mut fig, "nodes", points);
    fig.note("expected shape: flat saturates by 64 nodes; sharded keeps gaining through 256");
    fig.note("sharded reports carry shard_lookups/peer_resolutions/submaster_spawns counters");
    fig
}

// --------------------------------------------------------------- Table I

/// Table I: useful lines of code of each benchmark version, counted
/// from this repository's real sources (the artifacts themselves).
pub fn table1() -> FigureData {
    let mut fig = FigureData::new(
        "table1",
        "Productivity: useful LoC per version (increase vs serial)",
        "lines",
    );
    let src = crate::apps_src_dir();
    let apps = ["matmul", "stream", "perlin", "nbody"];
    let versions = ["serial", "cuda", "mpi", "ompss"];
    let mut counts = std::collections::HashMap::new();
    for app in apps {
        for v in versions {
            let path = src.join(app).join(format!("{v}.rs"));
            counts.insert((app, v), crate::useful_lines(&path));
        }
    }
    for v in versions {
        let mut s = Series::new(v.to_string());
        for app in apps {
            s.push(app.to_string(), counts[&(app, v)] as f64);
        }
        fig.add(s);
    }
    for app in apps {
        let base = counts[&(app, "serial")] as f64;
        let pct = |v: &str| (counts[&(app, v)] as f64 - base) / base * 100.0;
        fig.note(format!(
            "{app}: serial {} | cuda {} (+{:.0}%) | mpi+cuda {} (+{:.0}%) | ompss {} (+{:.0}%)",
            counts[&(app, "serial")],
            counts[&(app, "cuda")],
            pct("cuda"),
            counts[&(app, "mpi")],
            pct("mpi"),
            counts[&(app, "ompss")],
            pct("ompss"),
        ));
    }
    fig.note("expected shape per app: increase(ompss) < increase(cuda) < increase(mpi+cuda)");
    fig
}
