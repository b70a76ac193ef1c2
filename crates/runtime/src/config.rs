//! Runtime configuration — the knobs the paper's evaluation sweeps.
//!
//! Every configuration axis of §IV is here: cache policy, scheduling
//! policy, slave-to-slave routing, presend depth, transfer/compute
//! overlap, prefetch, plus the platform shape (nodes, GPUs, specs).
//! Presets reproduce the paper's two testbeds.

use ompss_cudasim::GpuSpec;
use ompss_mem::Backing;
use ompss_net::FabricConfig;
use ompss_sched::Policy;
use ompss_sim::{FaultSpec, RunError, SimDuration};

pub use ompss_coherence::{CachePolicy, SlaveRouting};

/// Full configuration of a runtime instance.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Cluster nodes (1 = the multi-GPU single-node environment).
    pub nodes: u32,
    /// GPUs per node.
    pub gpus_per_node: u32,
    /// SMP worker threads per node (cores left after manager threads).
    pub cpu_workers_per_node: u32,
    /// GPU model.
    pub gpu_spec: GpuSpec,
    /// Override the GPU memory the cache may use (bytes). Defaults to
    /// the spec's capacity minus a small reserve. Fig. 8's memory-
    /// pressure study uses this.
    pub gpu_mem_override: Option<u64>,
    /// Host memory per node (bytes).
    pub host_mem: u64,
    /// Interconnect model.
    pub fabric: FabricConfig,
    /// Cache write policy (`nocache` / `wt` / `wb`).
    pub cache_policy: CachePolicy,
    /// Task scheduling policy (`bf` / `default` / `affinity`).
    pub sched_policy: Policy,
    /// Inter-slave transfer routing (`MtoS` / `StoS`).
    pub routing: SlaveRouting,
    /// Tasks present to a remote node beyond its resource count, so
    /// their input transfers overlap remote compute.
    pub presend: u32,
    /// Overlap PCIe transfers with GPU compute via pinned staging
    /// buffers (off by default, as in the paper).
    pub overlap: bool,
    /// Prefetch the next scheduled task's data right after a kernel
    /// launch.
    pub prefetch: bool,
    /// Real byte backing (validated runs) or phantom (paper-scale).
    pub backing: Backing,
    /// Pinned host buffer pool per node (bytes); used when `overlap`.
    pub pinned_pool: u64,
    /// Cost charged per SMP task in addition to its own cost — models
    /// task bookkeeping overhead.
    pub task_overhead: SimDuration,
    /// Record a Paraver-style execution trace (task intervals per
    /// resource, transfers per medium) into the run report.
    pub tracing: bool,
    /// Verification mode (`OMPSS_VERIFY`): record the regions task
    /// bodies actually touch, diff them against the declared clauses,
    /// run graph race lints over the observations, and sweep the
    /// coherence directory invariants after every operation. The
    /// findings land in [`crate::RunReport::verify`]. Zero-cost when
    /// off: the task hot path checks one `Option`.
    pub verify: bool,
    /// Scheduler tie-break perturbation seed (`OMPSS_SCHED_SEED`): `0`
    /// (default) keeps the deterministic FIFO tie-break; any other
    /// value permutes equal-priority scheduling decisions pseudo-
    /// randomly but reproducibly. The verify binary's schedule
    /// exploration reruns apps under several seeds and diffs results.
    pub sched_seed: u64,
    /// Chaos injection (`OMPSS_FAULT_RATE`, `OMPSS_FAULT_SEED`): the
    /// seeded fault stream each run draws from afresh, so the same
    /// spec injects the same faults at the same draws on every run. A
    /// spec that can never fire (the default: rate 0) disables
    /// injection and the whole recovery machinery — runs are bit- and
    /// time-identical to a build without it.
    pub faults: FaultSpec,
    /// Times a failed task is re-executed before the run aborts with
    /// [`ompss_sim::RunError::Exhausted`].
    pub task_retry_budget: u32,
    /// Times an unacknowledged cluster message is retransmitted before
    /// the run aborts with [`ompss_sim::RunError::Exhausted`].
    pub am_retry_budget: u32,
    /// Planned whole-node kill (`OMPSS_FAULT_NODE_LOSS`): slave node
    /// index and the virtual instant it dies. Arms the heartbeat/lease
    /// protocol and lineage retention; `None` (default) spawns none of
    /// that machinery.
    pub node_loss: Option<(u32, SimDuration)>,
    /// Interval between the master's liveness probes to each slave
    /// (`OMPSS_HEARTBEAT_PERIOD_US`). Only meaningful when node-loss
    /// chaos is armed.
    pub heartbeat_period: SimDuration,
    /// Silence beyond this window declares a slave dead
    /// (`OMPSS_LEASE_WINDOW_US`). Must comfortably exceed the period
    /// plus a network round trip.
    pub lease_window: SimDuration,
    /// Most completed producer tasks lineage reconstruction may re-run
    /// per lost region before the run aborts with
    /// [`ompss_sim::RunError::Exhausted`] (`OMPSS_LINEAGE_DEPTH`).
    pub lineage_depth_budget: u32,
    /// Planned mid-run node join (`OMPSS_NODE_JOIN`): slave node index
    /// and the virtual instant it comes up. The node starts absent —
    /// NIC offline, scheduler proxy out of service, no heartbeat lease
    /// — and at the instant the Fabric brings its NIC online, the
    /// scheduler adopts its proxy and the lease tracker starts its
    /// lease. Under sharded control the join opens a new membership
    /// epoch and rebalances moved slices onto the joiner. `None`
    /// (default) spawns none of the machinery.
    pub node_join: Option<(u32, SimDuration)>,
    /// Planned graceful drain (`OMPSS_NODE_DRAIN`): slave node index
    /// and the virtual instant it starts leaving. The node stops
    /// accepting tasks, finishes what it has, flushes and migrates its
    /// home/cached regions off (no fault semantics, no lineage), then
    /// departs. A drain interrupted by a kill falls back to crash
    /// recovery or fails closed. `None` (default) spawns none of the
    /// machinery.
    pub node_drain: Option<(u32, SimDuration)>,
    /// Control-plane shards (`OMPSS_SHARDS`): `0` (default) keeps the
    /// paper's flat single-master plane — directory, homes and task
    /// generation all on node 0, bit-identical to a build without
    /// sharding. `n > 0` partitions the `DataId` space across `n`
    /// shards via [`ompss_coherence::ShardMap`]: array homes spread
    /// over shard-owner nodes, transfer sources resolve peer-to-peer,
    /// and `for_each_block` expands shard-locally through per-owner
    /// sub-masters.
    pub shards: u32,
}

impl RuntimeConfig {
    /// The paper's multi-GPU node: 2× Xeon E5440 (8 cores) with 4×
    /// Tesla S2050. One core per GPU is a manager thread; the caller
    /// picks how many GPUs to enable.
    pub fn multi_gpu(gpus: u32) -> Self {
        RuntimeConfig {
            nodes: 1,
            gpus_per_node: gpus,
            cpu_workers_per_node: 8u32.saturating_sub(gpus).max(1),
            gpu_spec: GpuSpec::tesla_s2050(),
            gpu_mem_override: None,
            host_mem: 16 << 30,
            // Single node: fabric unused but must exist.
            fabric: FabricConfig::qdr_infiniband(1),
            cache_policy: CachePolicy::WriteBack,
            sched_policy: Policy::Dependencies,
            routing: SlaveRouting::Direct,
            presend: 0,
            overlap: false,
            prefetch: false,
            backing: Backing::Real,
            pinned_pool: 2 << 30,
            task_overhead: SimDuration::from_micros(5),
            tracing: false,
            verify: false,
            sched_seed: 0,
            faults: FaultSpec::default(),
            task_retry_budget: 3,
            am_retry_budget: 8,
            node_loss: None,
            heartbeat_period: SimDuration::from_micros(200),
            lease_window: SimDuration::from_micros(1000),
            lineage_depth_budget: 64,
            node_join: None,
            node_drain: None,
            shards: 0,
        }
    }

    /// The paper's GPU cluster: up to 8 nodes, each 2× Xeon E5620
    /// (8 cores) + 1 GTX 480, QDR Infiniband.
    pub fn gpu_cluster(nodes: u32) -> Self {
        RuntimeConfig {
            nodes,
            gpus_per_node: 1,
            cpu_workers_per_node: 6,
            gpu_spec: GpuSpec::gtx_480(),
            host_mem: 25 << 30,
            fabric: FabricConfig::qdr_infiniband(nodes),
            sched_policy: Policy::Affinity,
            overlap: true,
            prefetch: true,
            ..Self::multi_gpu(1)
        }
    }

    /// Builder-style setters for the experiment sweeps.
    pub fn with_cache(mut self, p: CachePolicy) -> Self {
        self.cache_policy = p;
        self
    }

    /// Set the scheduling policy.
    pub fn with_sched(mut self, p: Policy) -> Self {
        self.sched_policy = p;
        self
    }

    /// Set inter-slave routing.
    pub fn with_routing(mut self, r: SlaveRouting) -> Self {
        self.routing = r;
        self
    }

    /// Set the presend depth.
    pub fn with_presend(mut self, n: u32) -> Self {
        self.presend = n;
        self
    }

    /// Enable/disable transfer–compute overlap.
    pub fn with_overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Enable/disable prefetch.
    pub fn with_prefetch(mut self, on: bool) -> Self {
        self.prefetch = on;
        self
    }

    /// Select phantom or real byte backing.
    pub fn with_backing(mut self, b: Backing) -> Self {
        self.backing = b;
        self
    }

    /// Cap the GPU memory visible to the cache.
    pub fn with_gpu_mem(mut self, bytes: u64) -> Self {
        self.gpu_mem_override = Some(bytes);
        self
    }

    /// Enable execution tracing (see [`crate::trace`]).
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Enable verification mode (see the field docs).
    pub fn with_verify(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Set the scheduler tie-break perturbation seed (0 = off).
    pub fn with_sched_seed(mut self, seed: u64) -> Self {
        self.sched_seed = seed;
        self
    }

    /// Arm chaos injection from `spec` (see the field docs);
    /// [`FaultSpec::with_forced`] pins one specific fault class
    /// deterministically instead of sweeping a rate.
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        self.faults = spec;
        self
    }

    /// Set the per-task re-execution budget.
    pub fn with_task_retry_budget(mut self, n: u32) -> Self {
        self.task_retry_budget = n;
        self
    }

    /// Set the per-message retransmit budget.
    pub fn with_am_retry_budget(mut self, n: u32) -> Self {
        self.am_retry_budget = n;
        self
    }

    /// Arm a planned whole-node kill: slave `node` dies at `at` of
    /// virtual time. Also arms the heartbeat/lease machinery.
    pub fn with_node_loss(mut self, node: u32, at: SimDuration) -> Self {
        self.node_loss = Some((node, at));
        self
    }

    /// Set the lease protocol timing (probe period, death window). The
    /// window must exceed the period; [`crate::Runtime::try_run`]
    /// validates this and the node targets of every planned membership
    /// event as [`RunError::InvalidConfig`].
    pub fn with_heartbeat(mut self, period: SimDuration, window: SimDuration) -> Self {
        self.heartbeat_period = period;
        self.lease_window = window;
        self
    }

    /// Set the lineage re-execution budget per lost region.
    pub fn with_lineage_depth(mut self, depth: u32) -> Self {
        self.lineage_depth_budget = depth;
        self
    }

    /// Plan a node join: slave `node` starts the run absent and comes
    /// up at `at` of virtual time.
    pub fn with_node_join(mut self, node: u32, at: SimDuration) -> Self {
        self.node_join = Some((node, at));
        self
    }

    /// Plan a graceful drain: slave `node` starts leaving at `at` of
    /// virtual time.
    pub fn with_node_drain(mut self, node: u32, at: SimDuration) -> Self {
        self.node_drain = Some((node, at));
        self
    }

    /// Is elastic membership armed (a planned join or drain)?
    pub fn membership_enabled(&self) -> bool {
        self.node_join.is_some() || self.node_drain.is_some()
    }

    /// Shard the control plane into `n` shards (0 = flat single
    /// master; see the field docs). Shards beyond the node count still
    /// work — several shards just wrap onto the same owner node.
    pub fn with_sharded_control(mut self, n: u32) -> Self {
        self.shards = n;
        self
    }

    /// Is the sharded control plane armed?
    pub fn sharded(&self) -> bool {
        self.shards > 0
    }

    /// Are faults (and therefore the recovery machinery) enabled?
    pub fn faults_enabled(&self) -> bool {
        self.faults.can_fire() || self.node_loss.is_some()
    }

    /// Usable GPU cache capacity.
    pub fn gpu_cache_capacity(&self) -> u64 {
        self.gpu_mem_override.unwrap_or_else(|| {
            // Reserve ~5% for CUDA context and fragmentation.
            self.gpu_spec.mem_capacity - self.gpu_spec.mem_capacity / 20
        })
    }

    /// Apply `NX_ARGS`-style environment overrides, the way Nanos++ read
    /// its runtime options: every variable of [`ENV_OVERRIDES`] that is
    /// set is applied in table order. A malformed value is an
    /// [`RunError::InvalidConfig`] naming the variable (a typo silently
    /// ignored would invalidate an experiment).
    pub fn overridden_from_env(mut self) -> Result<Self, RunError> {
        for (name, set) in ENV_OVERRIDES {
            let applied = match std::env::var(name) {
                Ok(v) => set(&mut self, &v),
                Err(std::env::VarError::NotPresent) => Ok(()),
                Err(e) => Err(e.to_string()),
            };
            applied.map_err(|e| RunError::InvalidConfig { what: format!("{name}: {e}") })?;
        }
        Ok(self)
    }
}

/// Applies one environment value to a configuration, or says why the
/// value is malformed.
pub type EnvSetter = fn(&mut RuntimeConfig, &str) -> Result<(), String>;

/// The environment overrides [`RuntimeConfig::overridden_from_env`]
/// reads: variable name and setter.
pub const ENV_OVERRIDES: [(&str, EnvSetter); 20] = [
    ("OMPSS_SCHEDULE", |c, v| {
        let policies = [
            ("bf", Policy::BreadthFirst),
            ("default", Policy::Dependencies),
            ("affinity", Policy::Affinity),
        ];
        one_of(v, &policies).map(|p| c.sched_policy = p)
    }),
    ("OMPSS_CACHE_POLICY", |c, v| {
        let policies = [
            ("nocache", CachePolicy::NoCache),
            ("wt", CachePolicy::WriteThrough),
            ("wb", CachePolicy::WriteBack),
        ];
        one_of(v, &policies).map(|p| c.cache_policy = p)
    }),
    ("OMPSS_ROUTING", |c, v| {
        let modes = [("mtos", SlaveRouting::ViaMaster), ("stos", SlaveRouting::Direct)];
        one_of(v, &modes).map(|r| c.routing = r)
    }),
    ("OMPSS_PRESEND", |c, v| num(v).map(|n| c.presend = n)),
    ("OMPSS_OVERLAP", |c, v| one_of(v, &BOOLS).map(|b| c.overlap = b)),
    ("OMPSS_PREFETCH", |c, v| one_of(v, &BOOLS).map(|b| c.prefetch = b)),
    ("OMPSS_TRACE", |c, v| one_of(v, &BOOLS).map(|b| c.tracing = b)),
    ("OMPSS_VERIFY", |c, v| one_of(v, &BOOLS).map(|b| c.verify = b)),
    // 0 keeps the legacy FIFO tie-break.
    ("OMPSS_SCHED_SEED", |c, v| num(v).map(|n| c.sched_seed = n)),
    // 0 (the default) runs fault-free.
    ("OMPSS_FAULT_RATE", |c, v| num(v).map(|rate| c.faults = FaultSpec::new(c.faults.seed, rate))),
    ("OMPSS_FAULT_SEED", |c, v| num(v).map(|n| c.faults.seed = n)),
    ("OMPSS_TASK_RETRIES", |c, v| num(v).map(|n| c.task_retry_budget = n)),
    ("OMPSS_AM_RETRIES", |c, v| num(v).map(|n| c.am_retry_budget = n)),
    ("OMPSS_FAULT_NODE_LOSS", |c, v| node_at(v).map(|p| c.node_loss = Some(p))),
    ("OMPSS_HEARTBEAT_PERIOD_US", |c, v| {
        num(v).map(|us| c.heartbeat_period = SimDuration::from_micros(us))
    }),
    ("OMPSS_LEASE_WINDOW_US", |c, v| {
        num(v).map(|us| c.lease_window = SimDuration::from_micros(us))
    }),
    ("OMPSS_LINEAGE_DEPTH", |c, v| num(v).map(|n| c.lineage_depth_budget = n)),
    // 0 keeps the flat single master.
    ("OMPSS_SHARDS", |c, v| num(v).map(|n| c.shards = n)),
    ("OMPSS_NODE_JOIN", |c, v| node_at(v).map(|p| c.node_join = Some(p))),
    ("OMPSS_NODE_DRAIN", |c, v| node_at(v).map(|p| c.node_drain = Some(p))),
];

const BOOLS: [(&str, bool); 6] =
    [("1", true), ("true", true), ("on", true), ("0", false), ("false", false), ("off", false)];

fn one_of<T: Copy>(v: &str, options: &[(&str, T)]) -> Result<T, String> {
    match options.iter().find(|(name, _)| *name == v) {
        Some(&(_, t)) => Ok(t),
        None => {
            let names: Vec<&str> = options.iter().map(|(name, _)| *name).collect();
            Err(format!("unknown value '{v}'; expected one of {}", names.join(", ")))
        }
    }
}

fn num<T: std::str::FromStr>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("invalid number '{v}': {e}"))
}

/// Parse a planned membership event `node@micros` (e.g. `1@800`). Node
/// 0 is the master, which can be neither killed, joined nor drained.
fn node_at(v: &str) -> Result<(u32, SimDuration), String> {
    let (node, micros) =
        v.split_once('@').ok_or_else(|| format!("expected node@micros, got '{v}'"))?;
    match num(node)? {
        0 => Err("node 0 is the master; name a slave node".into()),
        node => Ok((node, SimDuration::from_micros(num(micros)?))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_platforms() {
        let m = RuntimeConfig::multi_gpu(4);
        assert_eq!(m.nodes, 1);
        assert_eq!(m.gpus_per_node, 4);
        assert_eq!(m.gpu_spec.name, "Tesla S2050");
        let c = RuntimeConfig::gpu_cluster(8);
        assert_eq!(c.nodes, 8);
        assert_eq!(c.gpus_per_node, 1);
        assert_eq!(c.gpu_spec.name, "GTX 480");
    }

    #[test]
    fn builders_compose() {
        let c = RuntimeConfig::gpu_cluster(4)
            .with_cache(CachePolicy::NoCache)
            .with_sched(Policy::BreadthFirst)
            .with_routing(SlaveRouting::ViaMaster)
            .with_presend(2)
            .with_overlap(false)
            .with_prefetch(false)
            .with_gpu_mem(1 << 20);
        assert_eq!(c.cache_policy, CachePolicy::NoCache);
        assert_eq!(c.presend, 2);
        assert_eq!(c.gpu_cache_capacity(), 1 << 20);
    }

    #[test]
    fn default_gpu_capacity_reserves_headroom() {
        let c = RuntimeConfig::gpu_cluster(1);
        assert!(c.gpu_cache_capacity() < c.gpu_spec.mem_capacity);
        assert!(c.gpu_cache_capacity() > c.gpu_spec.mem_capacity / 2);
    }
}
