//! Layer replays: each layer's public API driven with the operation
//! stream of the workload it serves, timed by spans.
//!
//! A replay repeats its batch [`REPEATS`] times under one span per batch
//! (run id = repeat index) and reports the median per-operation cost.
//! The shapes come from the workload: its access stream (12³ matmul
//! tiles, or the 256-node weak-scaling blocks), the live-region count
//! and topology of its largest machine, and the scheduler depth the
//! traced pass actually reached.

use std::future::Future;
use std::hint::black_box;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ompss_coherence::{
    CachePolicy, Coherence, HopKind, Loc, MembershipEpochs, SlaveRouting, Topology, TransferExec,
    TransferPurpose,
};
use ompss_core::{AccessExt, Device, TaskDesc, TaskGraph, TaskId};
use ompss_cudasim::{CopyDir, GpuDevice, GpuSpec, KernelCost};
use ompss_mem::{Access, Backing, DataId, MemoryManager, Region, SpaceId, SpaceKind};
use ompss_net::{AmNet, FabricConfig};
use ompss_runtime::{Runtime, RuntimeConfig};
use ompss_sched::{NoLocality, ResourceInfo, ResourceKind, Scheduler};
use ompss_sim::{delay, Channel, Sim, SimDuration, SimResult};

use crate::median;
use crate::trace::Tracer;
use crate::workloads::Workload;

/// Batches per replay; the median batch is reported.
pub const REPEATS: usize = 5;
/// Round trips of the executor and fabric replays.
const ROUNDS: u64 = 20_000;
/// Processes spawned by the spawn replay.
const SPAWNS: u64 = 20_000;
/// Owner resolutions of the shard replay.
const RESOLVES: u64 = 200_000;
/// Launches / async copies of the cudasim replays.
const CUDA_OPS: u64 = 20_000;

/// Time `batch` [`REPEATS`] times under a span each; median of
/// `span ns / ops(batch result)`.
fn timed<R>(
    tr: &mut Tracer,
    name: &'static str,
    mut batch: impl FnMut() -> R,
    ops: impl Fn(&R) -> u64,
) -> f64 {
    let mut per_op = Vec::with_capacity(REPEATS);
    for i in 0..REPEATS {
        tr.begin(name, i as u64);
        let t0 = Instant::now();
        let r = batch();
        let ns = t0.elapsed().as_nanos() as f64;
        tr.end();
        per_op.push(ns / ops(&r).max(1) as f64);
    }
    median(&per_op)
}

/// One task's accesses in the workload's own stream.
pub type AccessStream = Vec<Vec<Access>>;

/// The workload's task access stream: 12³ matmul tile triples for the
/// paper workloads, the 256-node `matmul_ws` blocks for `weak_scale`.
pub fn access_stream(w: Workload) -> AccessStream {
    match w {
        Workload::PaperMultigpu | Workload::PaperCluster => {
            let (tiles, tile_bytes) = (12usize, 4u64 << 20);
            let reg = |d: u64, i: usize, j: usize| {
                Region::new(DataId(d), (i * tiles + j) as u64 * tile_bytes, tile_bytes)
            };
            let mut v = Vec::with_capacity(tiles * tiles * tiles);
            for i in 0..tiles {
                for j in 0..tiles {
                    for k in 0..tiles {
                        v.push(vec![
                            Access::read(reg(0, i, k)),
                            Access::read(reg(1, k, j)),
                            Access::update(reg(2, i, j)),
                        ]);
                    }
                }
            }
            v
        }
        Workload::WeakScale => {
            let (blocks, iters, bytes) = (256 * 4u64, 4, 256u64 << 10);
            let full = |d: u64| Region::new(DataId(d), 0, bytes);
            let mut v = Vec::with_capacity((blocks * iters) as usize);
            for _ in 0..iters {
                for b in 0..blocks {
                    v.push(vec![
                        Access::read(full(3 * b)),
                        Access::read(full(3 * b + 1)),
                        Access::update(full(3 * b + 2)),
                    ]);
                }
            }
            v
        }
    }
}

/// The distinct regions of an access stream (the live-region count).
fn live_regions(stream: &AccessStream) -> Vec<Region> {
    let mut v: Vec<Region> = stream.iter().flatten().map(|a| a.region).collect();
    v.sort_by_key(|r| (r.data.0, r.offset));
    v.dedup();
    v
}

/// Executor: ns per event of a two-process channel pingpong.
pub fn sim_handoff_ns(tr: &mut Tracer) -> f64 {
    timed(
        tr,
        "sim.handoff",
        || {
            let sim = Sim::new();
            let (a, b): (Channel<u64>, Channel<u64>) = (Channel::new(), Channel::new());
            let (a1, b1) = (a.clone(), b.clone());
            sim.spawn("ping", async move {
                for i in 0..ROUNDS {
                    a1.send(i);
                    b1.recv().await.expect("pong answers while ping runs");
                }
            });
            sim.process("pong").daemon().spawn(async move {
                while let Ok(v) = a.recv().await {
                    b.send(v);
                }
            });
            sim.run().expect("pingpong replay completes").events
        },
        |events| *events,
    )
}

/// Executor: ns per spawned process (spawn, one yield, exit).
pub fn sim_spawn_ns(tr: &mut Tracer) -> f64 {
    timed(
        tr,
        "sim.spawn",
        || {
            let sim = Sim::new();
            sim.spawn("spawner", async {
                for i in 0..SPAWNS {
                    ompss_sim::spawn(("p", i), async {
                        ompss_sim::yield_now().await.expect("the spawner's sim is running");
                    });
                }
            });
            sim.run().expect("spawn replay completes");
            SPAWNS
        },
        |n| *n,
    )
}

/// Graph: ns per `add_task` and per `complete` over the access stream,
/// completing tasks in ready order.
pub fn graph_ns(tr: &mut Tracer, stream: &AccessStream) -> (f64, f64) {
    let n = stream.len() as u64;
    let (mut adds, mut completes) = (Vec::new(), Vec::new());
    for rep in 0..REPEATS {
        let mut graph = TaskGraph::new();
        let mut ready = Vec::new();
        tr.begin("graph.add_task", rep as u64);
        let t0 = Instant::now();
        for (i, a) in stream.iter().enumerate() {
            if graph.add_task(TaskId(i as u64), a).expect("replayed stream is well-formed") {
                ready.push(TaskId(i as u64));
            }
        }
        adds.push(t0.elapsed().as_nanos() as f64 / n as f64);
        tr.end();
        tr.begin("graph.complete", rep as u64);
        let t0 = Instant::now();
        let (mut idx, mut released) = (0, Vec::new());
        while idx < ready.len() {
            let t = ready[idx];
            idx += 1;
            graph.complete_into(t, &mut released);
            ready.extend_from_slice(&released);
        }
        completes.push(t0.elapsed().as_nanos() as f64 / n as f64);
        tr.end();
        assert_eq!(ready.len(), stream.len(), "graph replay left tasks blocked");
    }
    (median(&adds), median(&completes))
}

/// The master scheduler's resources at the workload's largest machine:
/// local GPU managers and SMP workers, plus one proxy per remote node.
fn master_resources(w: Workload) -> Vec<ResourceInfo> {
    let cfg = w.machine(w.machine_range().1);
    let mut v = Vec::new();
    let mut space = 0u32;
    let mut add = |kind, group| {
        v.push(ResourceInfo { kind, space: SpaceId(space), steal_group: group });
        space += 1;
    };
    for _ in 0..cfg.gpus_per_node {
        add(ResourceKind::GpuManager, 0);
    }
    for _ in 0..cfg.cpu_workers_per_node {
        add(ResourceKind::SmpWorker, 0);
    }
    for n in 1..cfg.nodes {
        add(ResourceKind::NodeProxy, n);
    }
    v
}

/// Scheduler: ns per `submit` and per dispatched task when `depth`
/// tasks are queued and the resources are swept round-robin with
/// `next_matching`, as the communication thread does.
pub fn sched_ns(tr: &mut Tracer, w: Workload, stream: &AccessStream, depth: u64) -> (f64, f64) {
    let cfg = w.machine(w.machine_range().1);
    let device = if w == Workload::WeakScale { Device::Smp } else { Device::Cuda };
    let resources = master_resources(w);
    let depth = depth.max(1);
    let descs: Vec<TaskDesc> = (0..depth)
        .map(|i| TaskDesc {
            id: TaskId(i),
            label: String::new(),
            device,
            deps: stream[i as usize % stream.len()].clone(),
            copy_deps: true,
            extra_copies: vec![],
            priority: 0,
        })
        .collect();
    let (mut submits, mut nexts) = (Vec::new(), Vec::new());
    for rep in 0..REPEATS {
        let mut s = Scheduler::new(cfg.sched_policy);
        let ids: Vec<_> = resources.iter().map(|r| s.register(r.clone())).collect();
        tr.begin("sched.submit", rep as u64);
        let t0 = Instant::now();
        for d in &descs {
            s.submit(d, &NoLocality);
        }
        submits.push(t0.elapsed().as_nanos() as f64 / depth as f64);
        tr.end();
        tr.begin("sched.next", rep as u64);
        let t0 = Instant::now();
        let mut dispatched = 0u64;
        while s.queued() > 0 {
            let before = dispatched;
            for &r in &ids {
                if s.next_matching(r, |d| d == device).is_some() {
                    dispatched += 1;
                }
            }
            assert!(dispatched > before, "no resource accepts the replayed tasks");
        }
        nexts.push(t0.elapsed().as_nanos() as f64 / depth as f64);
        tr.end();
        assert_eq!(dispatched, depth, "scheduler replay lost tasks");
    }
    (median(&submits), median(&nexts))
}

/// A transfer executor that charges one virtual nanosecond per hop.
struct UnitExec;

impl TransferExec for UnitExec {
    fn transfer<'a>(
        &'a self,
        _k: HopKind,
        _p: TransferPurpose,
        _s: Loc,
        _d: Loc,
        _bytes: u64,
    ) -> Pin<Box<dyn Future<Output = SimResult<bool>> + Send + 'a>> {
        Box::pin(async move {
            delay(SimDuration::from_nanos(1)).await?;
            Ok(true)
        })
    }
}

/// Coherence costs, ns per region.
#[derive(Debug, Clone, Copy, Default)]
pub struct CohNs {
    /// Read acquire of a region not yet valid at the target.
    pub acquire_miss: f64,
    /// Read acquire of a region already valid at the target.
    pub acquire_hit: f64,
    /// Commit of one `inout` access at the target.
    pub commit: f64,
}

/// Coherence: acquire (miss, then hit) and commit every live region of
/// the workload at the farthest execution space of its largest machine
/// — the last GPU of the multi-GPU node, the last node's GPU on the
/// cluster, the last node's host for the SMP weak-scaling tasks.
pub fn coherence_ns(tr: &mut Tracer, w: Workload, stream: &AccessStream) -> CohNs {
    let cfg = w.machine(w.machine_range().1);
    let regions = live_regions(stream);
    let mut samples: Vec<CohNs> = Vec::new();
    for rep in 0..REPEATS {
        let mem = Arc::new(MemoryManager::new(Backing::Phantom));
        let mut hosts = Vec::new();
        let mut gpus = Vec::new();
        for n in 0..cfg.nodes {
            let h = mem.add_space(format!("node{n}:host"), SpaceKind::Host(n), None, 1 << 50);
            for g in 0..cfg.gpus_per_node {
                gpus.push((
                    h,
                    mem.add_space(format!("n{n}g{g}"), SpaceKind::Gpu(n, g), Some(h), 1 << 50),
                ));
            }
            hosts.push(h);
        }
        let mut topo = Topology::new(hosts[0], SlaveRouting::Direct);
        for &(h, g) in &gpus {
            topo.add_gpu(g, h);
        }
        let target = match w {
            Workload::WeakScale => *hosts.last().expect("a node"),
            _ => gpus.last().expect("a GPU").1,
        };
        let coh = Arc::new(Coherence::new(mem.clone(), topo, CachePolicy::WriteBack));
        // One data object per distinct DataId, sized to cover its regions.
        let mut sizes: Vec<(u64, u64)> = Vec::new();
        for r in &regions {
            match sizes.last_mut() {
                Some((d, end)) if *d == r.data.0 => *end = (*end).max(r.offset + r.len),
                _ => sizes.push((r.data.0, r.offset + r.len)),
            }
        }
        let mut ids = std::collections::HashMap::new();
        for &(d, size) in &sizes {
            ids.insert(d, mem.register_data(size, hosts[0]).expect("replay data fits"));
        }
        let regs: Vec<Region> =
            regions.iter().map(|r| Region::new(ids[&r.data.0], r.offset, r.len)).collect();
        let out = Arc::new(Mutex::new([0u64; 3]));
        let out2 = out.clone();
        let sim = Sim::new();
        tr.begin("coh.replay", rep as u64);
        sim.spawn("coh", async move {
            let t0 = Instant::now();
            for r in &regs {
                coh.acquire(&UnitExec, r, true, target)
                    .await
                    .expect("acquire in a fault-free replay");
            }
            let t1 = Instant::now();
            for r in &regs {
                coh.commit(&UnitExec, &[Access::inout(*r)], target)
                    .await
                    .expect("commit in a fault-free replay");
            }
            let t2 = Instant::now();
            for r in &regs {
                coh.acquire(&UnitExec, r, true, target)
                    .await
                    .expect("acquire in a fault-free replay");
            }
            let t3 = Instant::now();
            for r in &regs {
                coh.commit(&UnitExec, &[Access::read(*r)], target)
                    .await
                    .expect("commit in a fault-free replay");
            }
            let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
            *out2.lock().expect("no replay thread panics holding the lock") =
                [ns(t0, t1), ns(t1, t2), ns(t2, t3)];
        });
        sim.run().expect("coherence replay completes");
        tr.end();
        let [miss, commit, hit] = *out.lock().expect("no replay thread panics holding the lock");
        let n = regions.len() as f64;
        samples.push(CohNs {
            acquire_miss: miss as f64 / n,
            acquire_hit: hit as f64 / n,
            commit: commit as f64 / n,
        });
    }
    let pick = |f: fn(&CohNs) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    CohNs {
        acquire_miss: pick(|c| c.acquire_miss),
        acquire_hit: pick(|c| c.acquire_hit),
        commit: pick(|c| c.commit),
    }
}

/// Sharded control plane: ns per owner resolution at 256 nodes, with a
/// join's two-epoch handoff window open.
pub fn shard_owner_ns(tr: &mut Tracer) -> f64 {
    let mut epochs = MembershipEpochs::new(256, (0..255).collect());
    epochs.join(255);
    timed(
        tr,
        "shard.owner",
        || {
            let mut acc = 0u64;
            for d in 0..RESOLVES {
                let (cur, prev) = epochs.resolve(black_box(DataId(d)));
                acc = acc.wrapping_add(cur as u64 + prev.unwrap_or(0) as u64);
            }
            black_box(acc);
            RESOLVES
        },
        |n| *n,
    )
}

/// Fabric: host ns per active-message round trip (short request, short
/// reply) from the master to each slave in turn, at the workload's
/// largest node count (2 for the single-node workload, the smallest
/// fabric with a remote end).
pub fn am_roundtrip_ns(tr: &mut Tracer, w: Workload) -> f64 {
    let nodes = w.machine(w.machine_range().1).nodes.max(2);
    timed(
        tr,
        "net.am_roundtrip",
        || {
            let net: AmNet<u64> = AmNet::new(FabricConfig::qdr_infiniband(nodes));
            let sim = Sim::new();
            for n in 1..nodes {
                let ep = net.endpoint(n);
                sim.process(("slave", n as u64)).daemon().spawn(async move {
                    while let Ok((src, m)) = ep.poll().await {
                        if ep.request_short(src, m).await.is_err() {
                            break;
                        }
                    }
                });
            }
            let master = net.endpoint(0);
            sim.spawn("master", async move {
                for i in 0..ROUNDS {
                    let dst = 1 + (i % (nodes as u64 - 1)) as u32;
                    master.request_short(dst, i).await.expect("fault-free fabric delivers");
                    let (_, m) = master.poll().await.expect("every slave replies");
                    assert_eq!(m, i, "AM reply out of order");
                }
            });
            sim.run().expect("AM replay completes");
            ROUNDS
        },
        |n| *n,
    )
}

/// cudasim: ns per synchronous kernel launch and per queued async copy
/// (including its completion on the stream).
pub fn cuda_ns(tr: &mut Tracer) -> (f64, f64) {
    let launch = timed(
        tr,
        "cuda.launch",
        || {
            let sim = Sim::new();
            sim.spawn("host", async {
                let dev = GpuDevice::new("gpu0", GpuSpec::gtx_480());
                for _ in 0..CUDA_OPS {
                    dev.launch(KernelCost::fixed(SimDuration::from_micros(1)), None)
                        .await
                        .expect("fault-free device launches");
                }
            });
            sim.run().expect("launch replay completes");
            CUDA_OPS
        },
        |n| *n,
    );
    let copy = timed(
        tr,
        "cuda.memcpy_async",
        || {
            let sim = Sim::new();
            sim.spawn("host", async {
                let dev = GpuDevice::new("gpu0", GpuSpec::gtx_480());
                let stream = dev.create_stream("s");
                for _ in 0..CUDA_OPS {
                    stream.memcpy_async(CopyDir::H2D, 4096, true, None);
                }
                stream.synchronize().await.expect("fault-free stream drains");
            });
            sim.run().expect("async copy replay completes");
            CUDA_OPS
        },
        |n| *n,
    );
    (launch, copy)
}

/// Runtime glue: ms of an empty program on `cfg`.
pub fn empty_run_ms(tr: &mut Tracer, cfg: &RuntimeConfig) -> f64 {
    timed(
        tr,
        "rt.empty_run",
        || {
            Runtime::try_run(cfg.clone(), |_omp| async {}).expect("empty program runs");
        },
        |_| 1,
    ) / 1e6
}
