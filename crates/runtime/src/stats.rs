//! The always-on counter registry.
//!
//! Layer-local statistics (network, coherence, scheduler, GPU engines)
//! live in their own crates; this registry records what no single layer
//! can see — per-resource busy time, bytes classified by medium *and*
//! direction of the cluster protocol, active-message counts by kind —
//! and the run-report assembly joins everything at the end of a run.
//!
//! Counters are cheap (relaxed atomics for scalars, one short-held lock
//! for the per-resource map) and always on: unlike tracing, which is
//! opt-in because it allocates per event, these are a handful of adds
//! per task and are included in every [`RunReport`](crate::RunReport).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use parking_lot::Mutex;

use ompss_json::{Json, ToJson};
use ompss_sim::SimDuration;

/// Identifies a resource: `(node, name)`, e.g. `(0, "gpu1")`,
/// `(2, "worker0")`. `BTreeMap` keying makes every snapshot
/// deterministically ordered.
pub type ResourceKey = (u32, String);

/// What one resource did over the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceBusy {
    /// Task bodies executed.
    pub tasks: u64,
    /// Time spent executing task bodies (staging + kernel/body), in
    /// nanoseconds of virtual time.
    pub busy_ns: u64,
}

/// The registry. The runtime holds one in an `Arc` shared by the
/// transfer executor, every worker/manager process and the cluster
/// dispatchers.
#[derive(Debug, Default)]
pub struct Counters {
    /// PCIe bytes that went through the pinned staging path.
    pub pcie_pinned_bytes: AtomicU64,
    /// PCIe bytes copied pageable (no overlap possible).
    pub pcie_pageable_bytes: AtomicU64,
    /// Network payload bytes on master↔slave links (demand traffic).
    pub net_mts_bytes: AtomicU64,
    /// Network payload bytes on slave↔slave links (direct StoS routing).
    pub net_sts_bytes: AtomicU64,
    /// Network payload bytes moved by the pre-send staging path.
    pub net_presend_bytes: AtomicU64,
    /// `Exec` active messages sent (master → slave task launches).
    pub am_exec: AtomicU64,
    /// `Done` active messages sent (slave → master completions).
    pub am_done: AtomicU64,
    /// `Data` active messages sent (bulk transfers).
    pub am_data: AtomicU64,
    /// Cluster messages retransmitted after an ack timeout.
    pub am_retries: AtomicU64,
    /// Task bodies re-executed after an injected failure.
    pub tasks_reexecuted: AtomicU64,
    /// GPU devices lost to injected whole-device failures.
    pub devices_lost: AtomicU64,
    /// Messages the fault plan dropped on the wire.
    pub msgs_dropped: AtomicU64,
    /// Whole slave nodes lost to planned node-kill chaos.
    pub nodes_lost: AtomicU64,
    /// Completed tasks re-executed by lineage reconstruction to rebuild
    /// data that lived only on a dead node.
    pub tasks_relineaged: AtomicU64,
    /// Bytes of lost region data rebuilt at the master home.
    pub bytes_reconstructed: AtomicU64,
    /// Heartbeat probe periods that elapsed without a lease renewal.
    pub heartbeats_missed: AtomicU64,
    /// Allocations routed through the `ShardMap` to a shard-owner home
    /// (sharded control plane only).
    pub shard_lookups: AtomicU64,
    /// Transfers whose source was resolved peer-to-peer between two
    /// slave nodes without a master round trip (sharded only).
    pub peer_resolutions: AtomicU64,
    /// Tasks generated by shard-local sub-masters instead of the
    /// central master loop (sharded only).
    pub submaster_spawns: AtomicU64,
    /// Nodes that joined the cluster mid-run (planned elastic
    /// membership, not recovery).
    pub nodes_joined: AtomicU64,
    /// Nodes that drained and departed gracefully mid-run.
    pub nodes_drained: AtomicU64,
    /// Regions re-homed by a membership rebalance (join/drain epoch
    /// handoffs; crash re-homing counts under `recovery` instead).
    pub regions_rebalanced: AtomicU64,
    /// Bytes moved off or onto elastic nodes by joins and drains
    /// (dirty-copy flushes plus home migrations).
    pub bytes_migrated: AtomicU64,
    busy: Mutex<BTreeMap<ResourceKey, ResourceBusy>>,
}

impl Counters {
    /// Fresh registry, all zeros.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to a scalar counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Relaxed);
    }

    /// Charge one executed task body of length `busy` to a resource.
    pub fn record_busy(&self, node: u32, name: &str, busy: SimDuration) {
        let mut map = self.busy.lock();
        let slot = map.entry((node, name.to_string())).or_default();
        slot.tasks += 1;
        slot.busy_ns += busy.as_nanos();
    }

    /// Snapshot of the per-resource map, sorted by `(node, name)`.
    pub fn busy_snapshot(&self) -> Vec<(ResourceKey, ResourceBusy)> {
        self.busy.lock().iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Freeze every counter into a plain-data snapshot for the report.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            pcie_pinned_bytes: self.pcie_pinned_bytes.load(Relaxed),
            pcie_pageable_bytes: self.pcie_pageable_bytes.load(Relaxed),
            net_mts_bytes: self.net_mts_bytes.load(Relaxed),
            net_sts_bytes: self.net_sts_bytes.load(Relaxed),
            net_presend_bytes: self.net_presend_bytes.load(Relaxed),
            am_exec: self.am_exec.load(Relaxed),
            am_done: self.am_done.load(Relaxed),
            am_data: self.am_data.load(Relaxed),
            am_retries: self.am_retries.load(Relaxed),
            tasks_reexecuted: self.tasks_reexecuted.load(Relaxed),
            devices_lost: self.devices_lost.load(Relaxed),
            msgs_dropped: self.msgs_dropped.load(Relaxed),
            nodes_lost: self.nodes_lost.load(Relaxed),
            tasks_relineaged: self.tasks_relineaged.load(Relaxed),
            bytes_reconstructed: self.bytes_reconstructed.load(Relaxed),
            heartbeats_missed: self.heartbeats_missed.load(Relaxed),
            shard_lookups: self.shard_lookups.load(Relaxed),
            peer_resolutions: self.peer_resolutions.load(Relaxed),
            submaster_spawns: self.submaster_spawns.load(Relaxed),
            nodes_joined: self.nodes_joined.load(Relaxed),
            nodes_drained: self.nodes_drained.load(Relaxed),
            regions_rebalanced: self.regions_rebalanced.load(Relaxed),
            bytes_migrated: self.bytes_migrated.load(Relaxed),
            resources: self.busy_snapshot(),
        }
    }
}

/// Plain-data copy of [`Counters`] taken at the end of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterSnapshot {
    /// PCIe bytes through pinned staging buffers.
    pub pcie_pinned_bytes: u64,
    /// PCIe bytes copied pageable.
    pub pcie_pageable_bytes: u64,
    /// Master↔slave network payload bytes (demand).
    pub net_mts_bytes: u64,
    /// Slave↔slave network payload bytes.
    pub net_sts_bytes: u64,
    /// Pre-send network payload bytes.
    pub net_presend_bytes: u64,
    /// `Exec` active messages.
    pub am_exec: u64,
    /// `Done` active messages.
    pub am_done: u64,
    /// `Data` active messages.
    pub am_data: u64,
    /// Cluster messages retransmitted after an ack timeout.
    pub am_retries: u64,
    /// Task bodies re-executed after an injected failure.
    pub tasks_reexecuted: u64,
    /// GPU devices lost to injected whole-device failures.
    pub devices_lost: u64,
    /// Messages the fault plan dropped on the wire.
    pub msgs_dropped: u64,
    /// Whole slave nodes lost to planned node-kill chaos.
    pub nodes_lost: u64,
    /// Completed tasks re-executed by lineage reconstruction.
    pub tasks_relineaged: u64,
    /// Bytes of lost region data rebuilt at the master home.
    pub bytes_reconstructed: u64,
    /// Heartbeat probe periods elapsed without a lease renewal.
    pub heartbeats_missed: u64,
    /// Allocations routed by the `ShardMap` (sharded plane only).
    pub shard_lookups: u64,
    /// Peer-to-peer transfer-source resolutions (sharded plane only).
    pub peer_resolutions: u64,
    /// Sub-master-generated tasks (sharded plane only).
    pub submaster_spawns: u64,
    /// Nodes that joined mid-run (elastic membership).
    pub nodes_joined: u64,
    /// Nodes that drained away gracefully mid-run.
    pub nodes_drained: u64,
    /// Regions re-homed by membership rebalances.
    pub regions_rebalanced: u64,
    /// Bytes moved by joins and drains.
    pub bytes_migrated: u64,
    /// Per-resource activity, sorted by `(node, name)`.
    pub resources: Vec<(ResourceKey, ResourceBusy)>,
}

impl CounterSnapshot {
    /// Per-resource utilisation over a makespan of `makespan_ns`:
    /// `(node, name, tasks, busy_ns, busy/makespan)`.
    pub fn utilisation(&self, makespan_ns: u64) -> Vec<(u32, String, u64, u64, f64)> {
        let total = (makespan_ns as f64).max(f64::MIN_POSITIVE);
        self.resources
            .iter()
            .map(|((node, name), b)| {
                (*node, name.clone(), b.tasks, b.busy_ns, b.busy_ns as f64 / total)
            })
            .collect()
    }
}

impl ToJson for CounterSnapshot {
    fn to_json(&self) -> Json {
        let mut resources = Json::array();
        for ((node, name), b) in &self.resources {
            resources.push(
                Json::object()
                    .field("node", *node)
                    .field("name", name.as_str())
                    .field("tasks", b.tasks)
                    .field("busy_ns", b.busy_ns),
            );
        }
        let mut j = Json::object()
            .field(
                "bytes",
                Json::object()
                    .field("pcie_pinned", self.pcie_pinned_bytes)
                    .field("pcie_pageable", self.pcie_pageable_bytes)
                    .field("net_mts", self.net_mts_bytes)
                    .field("net_sts", self.net_sts_bytes)
                    .field("net_presend", self.net_presend_bytes),
            )
            .field(
                "active_messages",
                Json::object()
                    .field("exec", self.am_exec)
                    .field("done", self.am_done)
                    .field("data", self.am_data),
            )
            .field(
                "recovery",
                Json::object()
                    .field("am_retries", self.am_retries)
                    .field("tasks_reexecuted", self.tasks_reexecuted)
                    .field("devices_lost", self.devices_lost)
                    .field("msgs_dropped", self.msgs_dropped)
                    .field("nodes_lost", self.nodes_lost)
                    .field("tasks_relineaged", self.tasks_relineaged)
                    .field("bytes_reconstructed", self.bytes_reconstructed)
                    .field("heartbeats_missed", self.heartbeats_missed),
            );
        // Sharded-control-plane counters: only nonzero when
        // `OMPSS_SHARDS` armed the sharded plane, so flat runs keep
        // their historical byte-exact report shape.
        let shard_total = self.shard_lookups + self.peer_resolutions + self.submaster_spawns;
        if shard_total > 0 {
            j = j.field(
                "shard",
                Json::object()
                    .field("lookups", self.shard_lookups)
                    .field("peer_resolutions", self.peer_resolutions)
                    .field("submaster_spawns", self.submaster_spawns),
            );
        }
        // Elastic-membership counters: only nonzero when a planned
        // join/drain actually fired, so static-membership runs keep
        // their historical byte-exact report shape.
        let membership_total =
            self.nodes_joined + self.nodes_drained + self.regions_rebalanced + self.bytes_migrated;
        if membership_total > 0 {
            j = j.field(
                "membership",
                Json::object()
                    .field("nodes_joined", self.nodes_joined)
                    .field("nodes_drained", self.nodes_drained)
                    .field("regions_rebalanced", self.regions_rebalanced)
                    .field("bytes_migrated", self.bytes_migrated),
            );
        }
        j.field("resources", resources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_map_accumulates_and_sorts() {
        let c = Counters::new();
        c.record_busy(1, "worker0", SimDuration::from_nanos(10));
        c.record_busy(0, "gpu0", SimDuration::from_nanos(5));
        c.record_busy(1, "worker0", SimDuration::from_nanos(7));
        let snap = c.busy_snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, (0, "gpu0".to_string()));
        assert_eq!(snap[1].1, ResourceBusy { tasks: 2, busy_ns: 17 });
    }

    #[test]
    fn snapshot_freezes_scalars() {
        let c = Counters::new();
        Counters::add(&c.pcie_pinned_bytes, 100);
        Counters::add(&c.pcie_pinned_bytes, 28);
        Counters::add(&c.am_exec, 3);
        let s = c.snapshot();
        assert_eq!(s.pcie_pinned_bytes, 128);
        assert_eq!(s.am_exec, 3);
        assert_eq!(s.net_sts_bytes, 0);
    }

    #[test]
    fn utilisation_is_busy_over_makespan() {
        let c = Counters::new();
        c.record_busy(0, "gpu0", SimDuration::from_nanos(80));
        let u = c.snapshot().utilisation(100);
        assert_eq!(u.len(), 1);
        assert!((u[0].4 - 0.8).abs() < 1e-12);
    }

    #[test]
    fn shard_section_only_appears_when_the_sharded_plane_counted() {
        let quiet = Counters::new().snapshot().to_json();
        assert_eq!(quiet.get("shard"), None, "flat runs must not grow a shard section");
        let c = Counters::new();
        Counters::add(&c.shard_lookups, 12);
        Counters::add(&c.peer_resolutions, 7);
        Counters::add(&c.submaster_spawns, 3);
        let j = c.snapshot().to_json();
        let s = j.get("shard").expect("sharded counters must surface a shard section");
        assert_eq!(s.get("lookups"), Some(&Json::U64(12)));
        assert_eq!(s.get("peer_resolutions"), Some(&Json::U64(7)));
        assert_eq!(s.get("submaster_spawns"), Some(&Json::U64(3)));
    }

    #[test]
    fn membership_section_only_appears_when_the_cluster_churned() {
        let quiet = Counters::new().snapshot().to_json();
        assert_eq!(
            quiet.get("membership"),
            None,
            "static-membership runs must not grow a membership section"
        );
        let c = Counters::new();
        Counters::add(&c.nodes_joined, 1);
        Counters::add(&c.nodes_drained, 1);
        Counters::add(&c.regions_rebalanced, 6);
        Counters::add(&c.bytes_migrated, 4096);
        let j = c.snapshot().to_json();
        let m = j.get("membership").expect("churn counters must surface a membership section");
        assert_eq!(m.get("nodes_joined"), Some(&Json::U64(1)));
        assert_eq!(m.get("nodes_drained"), Some(&Json::U64(1)));
        assert_eq!(m.get("regions_rebalanced"), Some(&Json::U64(6)));
        assert_eq!(m.get("bytes_migrated"), Some(&Json::U64(4096)));
    }

    #[test]
    fn json_shape_is_stable() {
        let c = Counters::new();
        Counters::add(&c.net_presend_bytes, 7);
        c.record_busy(2, "worker1", SimDuration::from_nanos(42));
        Counters::add(&c.am_retries, 2);
        Counters::add(&c.tasks_reexecuted, 1);
        let j = c.snapshot().to_json();
        assert_eq!(j.get("bytes").and_then(|b| b.get("net_presend")), Some(&Json::U64(7)));
        let rec = j.get("recovery").expect("counter json lost its 'recovery' field");
        assert_eq!(rec.get("am_retries"), Some(&Json::U64(2)));
        assert_eq!(rec.get("tasks_reexecuted"), Some(&Json::U64(1)));
        assert_eq!(rec.get("devices_lost"), Some(&Json::U64(0)));
        assert_eq!(rec.get("msgs_dropped"), Some(&Json::U64(0)));
        assert_eq!(rec.get("nodes_lost"), Some(&Json::U64(0)));
        assert_eq!(rec.get("tasks_relineaged"), Some(&Json::U64(0)));
        assert_eq!(rec.get("bytes_reconstructed"), Some(&Json::U64(0)));
        assert_eq!(rec.get("heartbeats_missed"), Some(&Json::U64(0)));
        let r = j.get("resources").expect("counter json lost its 'resources' field");
        assert_eq!(
            r,
            &Json::Arr(vec![Json::object()
                .field("node", 2u32)
                .field("name", "worker1")
                .field("tasks", 1u64)
                .field("busy_ns", 42u64)])
        );
    }
}
