//! The three workloads: the configuration grids behind the committed
//! figures, rebuilt from the apps' public entry points.
//!
//! Each [`Config`] is one figure point: the figure and series it belongs
//! to, its sweep coordinate, the machine size it runs on, and a closure
//! that runs it under a scheduler seed. Seed 0 is the committed grid
//! (`with_sched_seed(0)` leaves the tie-break unperturbed), so at seed 0
//! every point must reproduce `results/<fig>.json` bit for bit.

use ompss_apps::common::AppRun;
use ompss_apps::matmul::{self, ompss::InitMode};
use ompss_apps::{nbody, perlin, stream, ws};
use ompss_cudasim::GpuSpec;
use ompss_net::FabricConfig;
use ompss_runtime::{Backing, CachePolicy, Policy, RunError, RuntimeConfig, SlaveRouting};

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fig05–fig08: one node, 1/2/4 GPUs, cache × scheduler policies.
    PaperMultigpu,
    /// fig09–fig13: 1–8 nodes, OmpSs cluster options plus MPI+CUDA.
    PaperCluster,
    /// figWS: flat vs sharded control plane at 4–256 nodes.
    WeakScale,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::PaperMultigpu, Workload::PaperCluster, Workload::WeakScale];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMultigpu => "paper_multigpu",
            Workload::PaperCluster => "paper_cluster",
            Workload::WeakScale => "weak_scale",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The committed figures this workload regenerates.
    pub fn figures(self) -> &'static [&'static str] {
        match self {
            Workload::PaperMultigpu => &["fig05", "fig06", "fig07", "fig08"],
            Workload::PaperCluster => &["fig09", "fig10", "fig11", "fig12", "fig13"],
            Workload::WeakScale => &["figWS"],
        }
    }

    /// The smallest and largest machine of the sweep (GPUs for the
    /// multi-GPU node, nodes otherwise): the pair `host_cost_growth`
    /// compares.
    pub fn machine_range(self) -> (u32, u32) {
        match self {
            Workload::PaperMultigpu => (1, 4),
            Workload::PaperCluster => (1, 8),
            Workload::WeakScale => (4, 256),
        }
    }

    /// The runtime configuration of a machine of `size` in this
    /// workload's topology family (used by the replays and the
    /// empty-program probe).
    pub fn machine(self, size: u32) -> RuntimeConfig {
        match self {
            Workload::PaperMultigpu => mg(size),
            Workload::PaperCluster => cl(size),
            Workload::WeakScale => ws::ws_config(size, false),
        }
    }

    /// The figure grid, in the order the figure harnesses run it.
    pub fn configs(self) -> Vec<Config> {
        let mut out = Vec::new();
        match self {
            Workload::PaperMultigpu => {
                fig05(&mut out);
                fig06(&mut out);
                fig07(&mut out);
                fig08(&mut out);
            }
            Workload::PaperCluster => {
                fig09(&mut out);
                cluster_vs_mpi(&mut out);
            }
            Workload::WeakScale => figws(&mut out),
        }
        out
    }
}

/// A runnable configuration: seed in, app result out.
pub type RunFn = Box<dyn Fn(u64) -> Result<AppRun, RunError> + Send + Sync>;

/// One figure point.
pub struct Config {
    /// Figure id (`fig05`, ..., `figWS`).
    pub fig: &'static str,
    /// Series label within the figure.
    pub series: String,
    /// Sweep coordinate (GPUs or nodes, as the figure prints it).
    pub x: String,
    /// Key of the run report the figure embeds for this point, if any.
    pub report_key: Option<String>,
    /// GPUs (multi-GPU node) or nodes (cluster) of the machine.
    pub machine: u32,
    /// An MPI+CUDA baseline (no runtime, seed-independent).
    pub mpi: bool,
    /// Run the point under a scheduler seed.
    pub run: RunFn,
}

impl Config {
    /// `fig/series@x`, unique within a workload.
    pub fn label(&self) -> String {
        format!("{}/{}@{}", self.fig, self.series, self.x)
    }
}

const CACHES: [CachePolicy; 3] =
    [CachePolicy::NoCache, CachePolicy::WriteThrough, CachePolicy::WriteBack];
const SCHEDS: [Policy; 3] = [Policy::BreadthFirst, Policy::Dependencies, Policy::Affinity];
const GPUS: [u32; 3] = [1, 2, 4];
const NODES: [u32; 4] = [1, 2, 4, 8];
const WS_NODES: [u32; 4] = [4, 16, 64, 256];
/// GPU memory visible to the cache in the fig08 pressure study.
const FIG8_GPU_MEM: u64 = 1 << 20;

fn mg(gpus: u32) -> RuntimeConfig {
    RuntimeConfig::multi_gpu(gpus).with_backing(Backing::Phantom)
}

fn cl(nodes: u32) -> RuntimeConfig {
    RuntimeConfig::gpu_cluster(nodes).with_backing(Backing::Phantom)
}

fn cl_best(nodes: u32) -> RuntimeConfig {
    cl(nodes).with_routing(SlaveRouting::Direct).with_presend(8)
}

fn cl_light(nodes: u32) -> RuntimeConfig {
    cl(nodes).with_routing(SlaveRouting::Direct).with_presend(1)
}

/// Push one point; `attach` is the key under which the figure embeds
/// the point's run report, if it does.
fn push(
    out: &mut Vec<Config>,
    fig: &'static str,
    series: String,
    machine: u32,
    attach: Option<String>,
    mpi: bool,
    run: RunFn,
) {
    out.push(Config { fig, x: machine.to_string(), series, report_key: attach, machine, mpi, run });
}

fn attach_gpus(series: &str, gpus: u32) -> Option<String> {
    (gpus == 4).then(|| format!("{series}@4gpus"))
}

fn attach_nodes(series: &str, nodes: u32) -> Option<String> {
    (nodes == 8).then(|| format!("{series}@8nodes"))
}

fn fig05(out: &mut Vec<Config>) {
    let p = matmul::MatmulParams::paper();
    for cache in CACHES {
        for sched in SCHEDS {
            let s = format!("{}/{}", cache.chart_label(), sched.chart_label());
            for gpus in GPUS {
                let run: RunFn = Box::new(move |seed| {
                    let cfg = mg(gpus).with_cache(cache).with_sched(sched).with_sched_seed(seed);
                    matmul::ompss::try_run(cfg, p, InitMode::Seq)
                });
                push(out, "fig05", s.clone(), gpus, attach_gpus(&s, gpus), false, run);
            }
        }
    }
}

fn fig06(out: &mut Vec<Config>) {
    for cache in CACHES {
        for sched in SCHEDS {
            let s = format!("{}/{}", cache.chart_label(), sched.chart_label());
            for gpus in GPUS {
                let run: RunFn = Box::new(move |seed| {
                    let p = stream::StreamParams::paper(gpus as usize);
                    let cfg = mg(gpus).with_cache(cache).with_sched(sched).with_sched_seed(seed);
                    stream::ompss::try_run(cfg, p)
                });
                push(out, "fig06", s.clone(), gpus, attach_gpus(&s, gpus), false, run);
            }
        }
    }
}

fn fig07(out: &mut Vec<Config>) {
    let p = perlin::PerlinParams::paper();
    for flush in [true, false] {
        for cache in CACHES {
            let mode = if flush { "flush" } else { "noflush" };
            let s = format!("{mode}/{}", cache.chart_label());
            for gpus in GPUS {
                let run: RunFn = Box::new(move |seed| {
                    let cfg = mg(gpus)
                        .with_cache(cache)
                        .with_sched(Policy::Affinity)
                        .with_sched_seed(seed);
                    perlin::ompss::try_run(cfg, p, flush)
                });
                push(out, "fig07", s.clone(), gpus, attach_gpus(&s, gpus), false, run);
            }
        }
    }
}

fn fig08(out: &mut Vec<Config>) {
    let p = nbody::NbodyParams { n: 20_000, blocks: 4, iters: 10, real: false };
    for cache in CACHES {
        let s = cache.chart_label().to_string();
        for gpus in GPUS {
            let run: RunFn = Box::new(move |seed| {
                let cfg =
                    mg(gpus).with_cache(cache).with_gpu_mem(FIG8_GPU_MEM).with_sched_seed(seed);
                nbody::ompss::try_run(cfg, p)
            });
            push(out, "fig08", s.clone(), gpus, attach_gpus(&s, gpus), false, run);
        }
    }
}

fn fig09(out: &mut Vec<Config>) {
    let p = matmul::MatmulParams::paper();
    for (routing, rl) in [(SlaveRouting::ViaMaster, "MtoS"), (SlaveRouting::Direct, "StoS")] {
        for (init, il) in [(InitMode::Seq, "seq"), (InitMode::Smp, "smp"), (InitMode::Gpu, "gpu")] {
            for presend in [0u32, 2, 8] {
                let s = format!("{rl}/{il}/presend{presend}");
                for nodes in NODES {
                    let run: RunFn = Box::new(move |seed| {
                        let cfg = cl(nodes)
                            .with_routing(routing)
                            .with_presend(presend)
                            .with_sched_seed(seed);
                        matmul::ompss::try_run(cfg, p, init)
                    });
                    push(out, "fig09", s.clone(), nodes, attach_nodes(&s, nodes), false, run);
                }
            }
        }
    }
}

/// fig10–fig13: the best OmpSs setup against the MPI+CUDA baseline,
/// interleaved per node count as the figure harnesses queue them.
fn cluster_vs_mpi(out: &mut Vec<Config>) {
    let fabric = FabricConfig::qdr_infiniband;
    let gpu = GpuSpec::gtx_480;
    // fig10: matmul.
    let p = matmul::MatmulParams::paper();
    for n in NODES {
        let run: RunFn = Box::new(move |seed| {
            matmul::ompss::try_run(cl_best(n).with_sched_seed(seed), p, InitMode::Smp)
        });
        push(out, "fig10", "OmpSs".into(), n, attach_nodes("OmpSs", n), false, run);
        let run: RunFn = Box::new(move |_| Ok(matmul::mpi::run(n, gpu(), fabric(n), p)));
        push(out, "fig10", "MPI+CUDA".into(), n, None, true, run);
    }
    // fig11: STREAM, 768 MB per node.
    for n in NODES {
        let p = stream::StreamParams::paper(n as usize);
        let run: RunFn =
            Box::new(move |seed| stream::ompss::try_run(cl_best(n).with_sched_seed(seed), p));
        push(out, "fig11", "OmpSs".into(), n, attach_nodes("OmpSs", n), false, run);
        let run: RunFn = Box::new(move |_| Ok(stream::mpi::run(n, gpu(), fabric(n), p)));
        push(out, "fig11", "MPI+CUDA".into(), n, None, true, run);
    }
    // fig12: Perlin, one row block per node at 8 nodes.
    let p = perlin::PerlinParams {
        width: 1024,
        height: 1024,
        steps: 10,
        rows_per_block: 128,
        real: false,
    };
    for (flush, ml) in [(true, "flush"), (false, "noflush")] {
        let (om, mp) = (format!("OmpSs/{ml}"), format!("MPI+CUDA/{ml}"));
        for n in NODES {
            let run: RunFn = Box::new(move |seed| {
                perlin::ompss::try_run(cl_light(n).with_sched_seed(seed), p, flush)
            });
            push(out, "fig12", om.clone(), n, attach_nodes(&om, n), false, run);
            let run: RunFn = Box::new(move |_| Ok(perlin::mpi::run(n, gpu(), fabric(n), p, flush)));
            push(out, "fig12", mp.clone(), n, None, true, run);
        }
    }
    // fig13: N-Body.
    let p = nbody::NbodyParams::paper();
    for n in NODES {
        let run: RunFn =
            Box::new(move |seed| nbody::ompss::try_run(cl_light(n).with_sched_seed(seed), p));
        push(out, "fig13", "OmpSs".into(), n, attach_nodes("OmpSs", n), false, run);
        let run: RunFn = Box::new(move |_| Ok(nbody::mpi::run(n, gpu(), fabric(n), p)));
        push(out, "fig13", "MPI+CUDA".into(), n, None, true, run);
    }
}

fn figws(out: &mut Vec<Config>) {
    type WsApp = fn(RuntimeConfig, ws::WsParams) -> Result<AppRun, RunError>;
    let p = ws::WsParams::paper();
    let apps: [(&str, WsApp); 2] =
        [("stream_ws", ws::try_run_stream), ("matmul_ws", ws::try_run_matmul)];
    for (app, run_app) in apps {
        for sharded in [false, true] {
            let mode = if sharded { "sharded" } else { "flat" };
            let s = format!("{app}/{mode}");
            for nodes in WS_NODES {
                let run: RunFn = Box::new(move |seed| {
                    run_app(ws::ws_config(nodes, sharded).with_sched_seed(seed), p)
                });
                let attach = (nodes == 64).then(|| format!("{s}@64nodes"));
                push(out, "figWS", s.clone(), nodes, attach, false, run);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_figure_point_counts() {
        assert_eq!(Workload::PaperMultigpu.configs().len(), 81);
        let cluster = Workload::PaperCluster.configs();
        assert_eq!(cluster.len(), 112);
        assert_eq!(cluster.iter().filter(|c| c.mpi).count(), 20);
        assert_eq!(Workload::WeakScale.configs().len(), 16);
    }

    #[test]
    fn labels_are_unique() {
        for w in Workload::ALL {
            let mut labels: Vec<String> = w.configs().iter().map(Config::label).collect();
            let n = labels.len();
            labels.sort();
            labels.dedup();
            assert_eq!(labels.len(), n, "{}", w.name());
        }
    }
}
