//! # ompss-sched — Nanos++-style task schedulers
//!
//! The three scheduling strategies evaluated in the paper (§III-C2):
//!
//! * **breadth-first** (`bf` in the charts) — a simple global FIFO;
//! * **dependencies** (the runtime's default) — FIFO, but a resource
//!   that finishes a task first tries to run one of the successors it
//!   just released, on the theory that producer and consumer share data;
//! * **locality-aware** (`affinity`) — on submission, an affinity score
//!   is computed from *where the task's data already is* (weighted by
//!   size) for the resources of the spaces holding it; the task is
//!   queued on the best resource, falling back to a global queue. Idle
//!   resources look at their local queue, then the global queue, then
//!   *steal* from resources in the same steal group (load balancing,
//!   per Martinell's SMPSs work).
//!
//! Schedulers are pure data structures: the runtime serialises access
//! and parks/wakes worker processes itself. Resources are abstract — a
//! host worker, a GPU manager thread, or (on the master) a *node proxy*
//! drained by the communication thread, which is how the same policies
//! do both intra-node and cluster-level placement.

#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap, VecDeque};

use ompss_core::{Device, TaskDesc, TaskId};
use ompss_mem::{Region, SpaceId};

/// Index of a schedulable resource within one scheduler instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub usize);

/// What a resource is, which determines the device kinds it accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// A host CPU worker: runs `Device::Smp` tasks.
    SmpWorker,
    /// A GPU manager thread: runs `Device::Cuda` tasks.
    GpuManager,
    /// A remote node, represented at the master by the communication
    /// thread: accepts both device kinds (the remote node schedules
    /// internally).
    NodeProxy,
}

impl ResourceKind {
    /// Can this resource execute a task targeted at `device`?
    pub fn accepts(self, device: Device) -> bool {
        match self {
            ResourceKind::SmpWorker => device == Device::Smp,
            ResourceKind::GpuManager => device == Device::Cuda,
            ResourceKind::NodeProxy => true,
        }
    }
}

/// Registration record for a resource.
#[derive(Debug, Clone)]
pub struct ResourceInfo {
    /// Resource kind.
    pub kind: ResourceKind,
    /// The address space tasks placed here execute against (a GPU's
    /// device space, the node's host space, or a remote node's host
    /// space for proxies). Affinity scores are computed against it.
    pub space: SpaceId,
    /// Resources share work-stealing within the same group (one group
    /// per node; proxies are typically their own group so tasks do not
    /// silently migrate between nodes).
    pub steal_group: u32,
}

/// Where the data of a region currently lives — implemented by the
/// coherence directory. A resource scores the bytes its space reports,
/// since running the task there would avoid transferring them.
pub trait LocalityOracle {
    /// Call `f(space, bytes)` once for each scored space that already
    /// holds `bytes` valid bytes of `region` (at or under it). Spaces
    /// not reported hold nothing; the order of reports is irrelevant.
    fn for_each_holder(&self, region: &Region, f: &mut dyn FnMut(SpaceId, u64));
}

/// An oracle for contexts with no locality information (breadth-first /
/// dependencies policies, unit tests).
pub struct NoLocality;

impl LocalityOracle for NoLocality {
    fn for_each_holder(&self, _region: &Region, _f: &mut dyn FnMut(SpaceId, u64)) {}
}

/// A local queue this long is a steal victim: migrating a task away
/// from its data is only worth it against real imbalance.
const STEAL_THRESHOLD: usize = 2;

/// The task facts a scheduler retains.
#[derive(Debug, Clone)]
struct SchedTask {
    id: TaskId,
    device: Device,
    priority: i32,
    /// Copy-clause regions with their affinity weight (written data
    /// weighs double: moving a producer chain's output is costlier
    /// than re-fetching an input).
    copies: Vec<(Region, u64)>,
}

impl SchedTask {
    fn from_desc(desc: &TaskDesc) -> Self {
        SchedTask {
            id: desc.id,
            device: desc.device,
            priority: desc.priority,
            copies: desc
                .copies()
                .iter()
                .map(|a| (a.region, if a.kind.writes() { 2 } else { 1 }))
                .collect(),
        }
    }
}

/// Device kinds in the order of the per-kind tables ([`kind_index`]).
const DEVICES: [Device; 2] = [Device::Smp, Device::Cuda];

/// Position of `device` in the per-kind tables.
fn kind_index(device: Device) -> usize {
    match device {
        Device::Smp => 0,
        Device::Cuda => 1,
    }
}

/// Per-kind flags, indexed like [`DEVICES`]: which device kinds a
/// hand-out may take, or which ones a drain removes.
type Kinds = [bool; 2];

/// A ready queue that knows what it holds: the tasks in arrival order
/// plus how many sit at each (priority, device kind). A hand-out reads
/// the highest eligible priority and its candidate count off the
/// counts, so a queue holding nothing eligible costs O(priority levels)
/// and a hit walks the queue only up to the task it returns.
#[derive(Debug, Default)]
struct TaskQueue {
    tasks: VecDeque<SchedTask>,
    /// `(priority, tasks per kind)`, highest priority first; a level is
    /// removed when its last task leaves.
    levels: Vec<(i32, [usize; 2])>,
}

impl TaskQueue {
    fn len(&self) -> usize {
        self.tasks.len()
    }

    fn count_in(&mut self, t: &SchedTask) {
        let k = kind_index(t.device);
        let mut fresh = [0; 2];
        fresh[k] = 1;
        match self.levels.iter().position(|&(p, _)| p <= t.priority) {
            Some(i) if self.levels[i].0 == t.priority => self.levels[i].1[k] += 1,
            Some(i) => self.levels.insert(i, (t.priority, fresh)),
            None => self.levels.push((t.priority, fresh)),
        }
    }

    fn count_out(&mut self, t: &SchedTask) {
        let i = self
            .levels
            .iter()
            .position(|&(p, _)| p == t.priority)
            .expect("a queued task's level is counted");
        let n = &mut self.levels[i].1;
        n[kind_index(t.device)] -= 1;
        if *n == [0, 0] {
            self.levels.remove(i);
        }
    }

    fn push_back(&mut self, t: SchedTask) {
        self.count_in(&t);
        self.tasks.push_back(t);
    }

    fn extend(&mut self, tasks: impl IntoIterator<Item = SchedTask>) {
        for t in tasks {
            self.push_back(t);
        }
    }

    fn remove(&mut self, pos: usize) -> SchedTask {
        let t = self.tasks.remove(pos).expect("position valid");
        self.count_out(&t);
        t
    }

    /// Take every task out, in queue order.
    fn take_all(&mut self) -> VecDeque<SchedTask> {
        self.levels.clear();
        std::mem::take(&mut self.tasks)
    }

    /// Does the queue hold a task of some kind in `kinds`?
    fn holds(&self, kinds: Kinds) -> bool {
        self.levels.iter().any(|(_, n)| (0..2).any(|k| kinds[k] && n[k] > 0))
    }

    /// Remove and return, in queue order, every task of a kind in
    /// `kinds`; the rest keep their order.
    fn extract(&mut self, kinds: Kinds) -> Vec<SchedTask> {
        if !self.holds(kinds) {
            return Vec::new();
        }
        let (out, keep): (Vec<_>, Vec<_>) =
            self.take_all().into_iter().partition(|t| kinds[kind_index(t.device)]);
        self.extend(keep);
        out
    }

    /// Position of the task a hand-out of `eligible` kinds takes: the
    /// highest eligible priority wins; among its candidates in queue
    /// order, the `salt % count`-th (the oldest at salt 0).
    fn pick(&self, eligible: Kinds, salt: u64) -> Option<usize> {
        let (prio, count) = self.levels.iter().find_map(|&(p, n)| {
            let c: usize = (0..2).filter(|&k| eligible[k]).map(|k| n[k]).sum();
            (c > 0).then_some((p, c))
        })?;
        let nth = (salt % count as u64) as usize;
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.priority == prio && eligible[kind_index(t.device)])
            .nth(nth)
            .map(|(i, _)| i)
    }

    /// Position of the newest task of an `eligible` kind (a steal takes
    /// from the back).
    fn last(&self, eligible: Kinds) -> Option<usize> {
        self.tasks.iter().rposition(|t| eligible[kind_index(t.device)])
    }
}

/// One steal group's local queues holding at least [`STEAL_THRESHOLD`]
/// tasks, keyed `(len, Reverse(resource))`: the last entry is the
/// longest queue (lowest index among equals), so a thief walks victims
/// best first and an empty set costs nothing.
type Backlog = BTreeSet<(usize, Reverse<usize>)>;

/// Scheduling decisions counted for the evaluation's ablations.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SchedStats {
    /// Tasks handed out from a resource's own queue.
    pub local_hits: u64,
    /// Tasks handed out from the global queue.
    pub global_hits: u64,
    /// Tasks obtained by stealing.
    pub steals: u64,
    /// Tasks run via the successor-first hint (dependencies policy).
    pub successor_hits: u64,
    /// Tasks ever enqueued (submissions plus released successors).
    pub submitted: u64,
    /// High-water mark of the ready-queue depth.
    pub max_queued: u64,
}

/// The scheduling policy selected for a run (`NX_SCHEDULE` in Nanos++).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Global FIFO.
    BreadthFirst,
    /// FIFO + successor-first (the runtime default).
    Dependencies,
    /// Locality-aware placement with per-resource queues and stealing.
    Affinity,
}

impl Policy {
    /// The chart label used in the paper's figures.
    pub fn chart_label(self) -> &'static str {
        match self {
            Policy::BreadthFirst => "bf",
            Policy::Dependencies => "default",
            Policy::Affinity => "affinity",
        }
    }
}

/// A task scheduler: single-owner data structure driven by the runtime.
pub struct Scheduler {
    policy: Policy,
    resources: Vec<ResourceInfo>,
    /// Per-resource liveness: a deactivated resource (lost GPU) is
    /// handed no more work, receives no placements and is never a steal
    /// victim.
    active: Vec<bool>,
    /// Per-resource forbidden device kind: the master's view of a
    /// remote node that lost its last GPU — the proxy stays in service
    /// for SMP work but must no longer attract CUDA tasks.
    forbidden: Vec<Option<Device>>,
    global: TaskQueue,
    local: Vec<TaskQueue>,
    /// Per steal group, its id and its [`Backlog`].
    backlog: Vec<(u32, Backlog)>,
    /// Per-resource position of its steal group in `backlog`.
    group: Vec<usize>,
    /// Successor hint slot per resource (dependencies policy).
    hints: Vec<TaskQueue>,
    /// Resources by execution space, for affinity scoring: only the
    /// resources of spaces the oracle reports are ever scored.
    by_space: HashMap<SpaceId, Vec<usize>>,
    /// Affinity scratch: per-resource score of the task being placed
    /// (all zero between placements) and the resources it touched.
    score: Vec<u64>,
    scored: Vec<usize>,
    stats: SchedStats,
    queued: usize,
    /// Tie-break perturbation seed for the verify subsystem's schedule
    /// exploration: `0` (the default) keeps the documented deterministic
    /// FIFO tie-break; any other value picks among equal-priority
    /// eligible tasks pseudo-randomly (but still deterministically for a
    /// given seed), exposing schedule-dependent nondeterminism in
    /// applications.
    seed: u64,
    /// Decision counter feeding the perturbation stream.
    decisions: u64,
}

impl Scheduler {
    /// Create a scheduler with the given policy.
    pub fn new(policy: Policy) -> Self {
        Scheduler {
            policy,
            resources: Vec::new(),
            active: Vec::new(),
            forbidden: Vec::new(),
            global: TaskQueue::default(),
            local: Vec::new(),
            backlog: Vec::new(),
            group: Vec::new(),
            hints: Vec::new(),
            by_space: HashMap::new(),
            score: Vec::new(),
            scored: Vec::new(),
            stats: SchedStats::default(),
            queued: 0,
            seed: 0,
            decisions: 0,
        }
    }

    /// Set the tie-break perturbation seed (see the `seed` field docs);
    /// `0` disables perturbation. Builder-style.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The active policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Is a tie-break perturbation seed set? Every hand-out call on an
    /// active resource of a seeded scheduler draws from the stream, so
    /// a caller may skip a call it knows would return `None` only when
    /// this is false.
    pub fn seeded(&self) -> bool {
        self.seed != 0
    }

    /// Tie-break draws consumed so far (always 0 when not seeded).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Register a resource; returns its id.
    pub fn register(&mut self, info: ResourceInfo) -> ResourceId {
        let id = ResourceId(self.resources.len());
        self.by_space.entry(info.space).or_default().push(id.0);
        let group = match self.backlog.iter().position(|(g, _)| *g == info.steal_group) {
            Some(g) => g,
            None => {
                self.backlog.push((info.steal_group, BTreeSet::new()));
                self.backlog.len() - 1
            }
        };
        self.group.push(group);
        self.resources.push(info);
        self.active.push(true);
        self.forbidden.push(None);
        self.local.push(TaskQueue::default());
        self.hints.push(TaskQueue::default());
        self.score.push(0);
        id
    }

    /// Re-key `resource`'s local queue in its group's backlog after its
    /// length changed from `was`.
    fn note_local_len(&mut self, resource: usize, was: usize) {
        let len = self.local[resource].len();
        if len == was {
            return;
        }
        let set = &mut self.backlog[self.group[resource]].1;
        if was >= STEAL_THRESHOLD {
            set.remove(&(was, Reverse(resource)));
        }
        if len >= STEAL_THRESHOLD {
            set.insert((len, Reverse(resource)));
        }
    }

    /// Remove the task at `pos` of `resource`'s local queue.
    fn take_local(&mut self, resource: usize, pos: usize) -> SchedTask {
        let was = self.local[resource].len();
        let t = self.local[resource].remove(pos);
        self.note_local_len(resource, was);
        t
    }

    /// Take `resource` out of service (an injected device loss): its
    /// queued work — local placements and successor hints — migrates to
    /// the global queue for surviving resources to pick up, and the
    /// resource is skipped by placement, hand-out and stealing from now
    /// on. Idempotent.
    pub fn deactivate(&mut self, resource: ResourceId) {
        if !self.active[resource.0] {
            return;
        }
        self.active[resource.0] = false;
        let was = self.local[resource.0].len();
        let hints = self.hints[resource.0].take_all();
        let local = self.local[resource.0].take_all();
        self.note_local_len(resource.0, was);
        self.global.extend(hints.into_iter().chain(local));
    }

    /// Is `resource` still in service?
    pub fn is_active(&self, resource: ResourceId) -> bool {
        self.active[resource.0]
    }

    /// Bring `resource` (back) into service — elastic membership's dual
    /// of [`deactivate`](Scheduler::deactivate): placement, hand-out,
    /// stealing and affinity scoring include it again from now on, with
    /// the same deterministic index-order tie-breaks as a resource that
    /// was registered from the start (its id never changed, only its
    /// service bit). Any forbidden device kind is cleared: a joining
    /// node arrives whole, devices and all. Idempotent.
    pub fn adopt(&mut self, resource: ResourceId) {
        self.active[resource.0] = true;
        self.forbidden[resource.0] = None;
    }

    /// Stop routing `device`-kind tasks to `resource` while keeping it
    /// in service for everything else: the master calls this on a node
    /// proxy when the node reports its last GPU down, so CUDA work no
    /// longer strands on a queue the node can never drain. Already
    /// queued tasks of that kind migrate to the global queue for
    /// surviving resources. Idempotent.
    pub fn forbid(&mut self, resource: ResourceId, device: Device) {
        if self.forbidden[resource.0] == Some(device) {
            return;
        }
        self.forbidden[resource.0] = Some(device);
        let was = self.local[resource.0].len();
        let strand = DEVICES.map(|d| d == device);
        let hints = self.hints[resource.0].extract(strand);
        let local = self.local[resource.0].extract(strand);
        self.note_local_len(resource.0, was);
        self.global.extend(hints.into_iter().chain(local));
    }

    /// Withdraw `resource` entirely — whole-node loss, the
    /// generalisation of [`deactivate`](Scheduler::deactivate) (a lost
    /// GPU) and [`forbid`](Scheduler::forbid) (a node that can no longer
    /// run one device kind): the resource is taken out of service for
    /// *every* device kind, its queued placements and hints migrate to
    /// the global queue, and any task **no surviving resource can
    /// serve** is drained out and returned for the caller to fail
    /// closed on. Idempotent.
    pub fn withdraw(&mut self, resource: ResourceId) -> Vec<TaskId> {
        self.deactivate(resource);
        self.drain_unservable()
    }

    /// Can `resource` currently be handed a `device`-kind task?
    fn serves(&self, resource: usize, device: Device) -> bool {
        self.active[resource]
            && self.resources[resource].kind.accepts(device)
            && self.forbidden[resource] != Some(device)
    }

    /// Remove and return every queued task no surviving resource can
    /// execute (e.g. CUDA tasks on a node whose last GPU died — the
    /// machine-wide fuse prevents this, but a *node* can lose all its
    /// GPUs). The caller re-routes them elsewhere.
    pub fn drain_unservable(&mut self) -> Vec<TaskId> {
        // Servability depends only on a task's device kind.
        let unservable = DEVICES.map(|d| !(0..self.resources.len()).any(|i| self.serves(i, d)));
        let mut orphans: Vec<TaskId> = Vec::new();
        for q in &mut self.hints {
            orphans.extend(q.extract(unservable).iter().map(|t| t.id));
        }
        for i in 0..self.local.len() {
            let was = self.local[i].len();
            orphans.extend(self.local[i].extract(unservable).iter().map(|t| t.id));
            self.note_local_len(i, was);
        }
        orphans.extend(self.global.extract(unservable).iter().map(|t| t.id));
        self.queued -= orphans.len();
        orphans
    }

    /// Tasks currently queued (not yet handed to a resource).
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Decision counters.
    pub fn stats(&self) -> SchedStats {
        self.stats.clone()
    }

    fn note_enqueue(&mut self) {
        self.stats.submitted += 1;
        self.stats.max_queued = self.stats.max_queued.max(self.queued as u64);
    }

    /// Enqueue a ready task.
    pub fn submit(&mut self, desc: &TaskDesc, oracle: &dyn LocalityOracle) {
        let task = SchedTask::from_desc(desc);
        self.queued += 1;
        self.note_enqueue();
        match self.policy {
            Policy::BreadthFirst | Policy::Dependencies => self.global.push_back(task),
            Policy::Affinity => self.place_by_affinity(task, oracle),
        }
    }

    /// Notification that `resource` finished a task whose completion
    /// released `ready_successors`. The scheduler enqueues them; under
    /// the `dependencies` policy one eligible successor is pinned to the
    /// finishing resource so it runs next and reuses the data.
    pub fn task_completed(
        &mut self,
        resource: ResourceId,
        ready_successors: &[&TaskDesc],
        oracle: &dyn LocalityOracle,
    ) {
        match self.policy {
            Policy::Dependencies => {
                let mut hinted = false;
                for desc in ready_successors {
                    let task = SchedTask::from_desc(desc);
                    self.queued += 1;
                    self.note_enqueue();
                    if !hinted && self.serves(resource.0, task.device) {
                        self.hints[resource.0].push_back(task);
                        hinted = true;
                    } else {
                        self.global.push_back(task);
                    }
                }
            }
            _ => {
                for desc in ready_successors {
                    self.submit(desc, oracle);
                }
            }
        }
    }

    fn place_by_affinity(&mut self, task: SchedTask, oracle: &dyn LocalityOracle) {
        // Score only the resources whose space holds some of the data:
        // every other resource scores zero and could never be chosen.
        let (by_space, score, scored) = (&self.by_space, &mut self.score, &mut self.scored);
        for (r, w) in &task.copies {
            oracle.for_each_holder(r, &mut |space, bytes| {
                // A nonzero score is what marks a resource as scored.
                if w * bytes == 0 {
                    return;
                }
                for &i in by_space.get(&space).into_iter().flatten() {
                    if score[i] == 0 {
                        scored.push(i);
                    }
                    score[i] += w * bytes;
                }
            });
        }
        // Highest weighted score wins; per the paper, "if there is no
        // highest affinity" (a tie, or no resident data at all) the task
        // goes to the global queue for demand-driven pickup. Neither
        // outcome depends on the order the scored resources are visited.
        let mut best: Option<(u64, usize)> = None;
        let mut tied = false;
        for k in 0..self.scored.len() {
            let i = self.scored[k];
            let score = std::mem::take(&mut self.score[i]);
            if !self.serves(i, task.device) {
                continue;
            }
            match best {
                Some((s, _)) if score > s => {
                    best = Some((score, i));
                    tied = false;
                }
                Some((s, _)) if score == s => tied = true,
                Some(_) => {}
                None => best = Some((score, i)),
            }
        }
        self.scored.clear();
        match best {
            Some((_, i)) if !tied => {
                let was = self.local[i].len();
                self.local[i].push_back(task);
                self.note_local_len(i, was);
            }
            _ => self.global.push_back(task),
        }
    }

    /// Hand the next task to `resource`, or `None` if nothing eligible
    /// is queued. Order of preference: successor hint, local queue,
    /// global queue, steal within the steal group.
    pub fn next(&mut self, resource: ResourceId) -> Option<TaskId> {
        self.next_matching(resource, |_| true)
    }

    /// Like [`next`](Scheduler::next), but only tasks whose device kind
    /// passes `allow` are eligible — the communication thread uses this
    /// to enforce per-device-kind in-flight caps on remote nodes.
    pub fn next_matching(
        &mut self,
        resource: ResourceId,
        allow: impl Fn(Device) -> bool,
    ) -> Option<TaskId> {
        if !self.active[resource.0] {
            return None;
        }
        let kind = self.resources[resource.0].kind;
        let banned = self.forbidden[resource.0];
        let eligible = DEVICES.map(|d| kind.accepts(d) && banned != Some(d) && allow(d));
        // Highest priority wins; FIFO within a priority level — unless a
        // perturbation seed is set, in which case the tie-break among
        // equal-priority eligible tasks is drawn from a deterministic
        // pseudo-random stream (schedule exploration). Every call on an
        // active resource draws, whether or not it hands anything out.
        let salt = if self.seed == 0 {
            0
        } else {
            self.decisions += 1;
            splitmix64(self.seed ^ self.decisions)
        };
        if self.queued == 0 {
            return None;
        }

        if let Some(pos) = self.hints[resource.0].pick(eligible, salt) {
            let t = self.hints[resource.0].remove(pos);
            self.queued -= 1;
            self.stats.successor_hits += 1;
            return Some(t.id);
        }

        if let Some(pos) = self.local[resource.0].pick(eligible, salt) {
            let t = self.take_local(resource.0, pos);
            self.queued -= 1;
            self.stats.local_hits += 1;
            return Some(t.id);
        }

        if let Some(pos) = self.global.pick(eligible, salt) {
            let t = self.global.remove(pos);
            self.queued -= 1;
            self.stats.global_hits += 1;
            return Some(t.id);
        }

        if self.policy == Policy::Affinity {
            // Steal from the back of the longest backlogged local queue
            // (≥ STEAL_THRESHOLD queued) in our group that holds an
            // eligible task, lowest index among equals. Out-of-service
            // resources hold no local work, so they are never listed.
            let victim = self.backlog[self.group[resource.0]]
                .1
                .iter()
                .rev()
                .map(|&(_, Reverse(i))| i)
                .find(|&i| i != resource.0 && self.local[i].holds(eligible));
            if let Some(v) = victim {
                let pos = self.local[v].last(eligible).expect("victim holds an eligible task");
                let t = self.take_local(v, pos);
                self.queued -= 1;
                self.stats.steals += 1;
                return Some(t.id);
            }
        }

        None
    }
}

/// SplitMix64 — the standard 64-bit finalizer used as the perturbation
/// stream. Chosen for statelessness: the n-th decision's draw depends
/// only on `(seed, n)`, keeping perturbed runs reproducible.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompss_mem::{Access, DataId};
    use std::collections::HashMap;

    fn desc(id: u64, device: Device, copies: &[(u64, u64, u64)]) -> TaskDesc {
        TaskDesc {
            id: TaskId(id),
            label: format!("t{id}"),
            device,
            deps: copies
                .iter()
                .map(|&(d, o, l)| Access::inout(Region::new(DataId(d), o, l)))
                .collect(),
            copy_deps: true,
            extra_copies: vec![],
            priority: 0,
        }
    }

    fn smp(space: u32) -> ResourceInfo {
        ResourceInfo { kind: ResourceKind::SmpWorker, space: SpaceId(space), steal_group: 0 }
    }

    fn gpu(space: u32) -> ResourceInfo {
        ResourceInfo { kind: ResourceKind::GpuManager, space: SpaceId(space), steal_group: 0 }
    }

    struct MapOracle(HashMap<(u64, u32), u64>);

    impl LocalityOracle for MapOracle {
        fn for_each_holder(&self, region: &Region, f: &mut dyn FnMut(SpaceId, u64)) {
            for (&(data, space), &bytes) in &self.0 {
                if data == region.data.0 {
                    f(SpaceId(space), bytes);
                }
            }
        }
    }

    #[test]
    fn resource_kind_accepts() {
        assert!(ResourceKind::SmpWorker.accepts(Device::Smp));
        assert!(!ResourceKind::SmpWorker.accepts(Device::Cuda));
        assert!(ResourceKind::GpuManager.accepts(Device::Cuda));
        assert!(!ResourceKind::GpuManager.accepts(Device::Smp));
        assert!(ResourceKind::NodeProxy.accepts(Device::Smp));
        assert!(ResourceKind::NodeProxy.accepts(Device::Cuda));
    }

    #[test]
    fn breadth_first_is_fifo() {
        let mut s = Scheduler::new(Policy::BreadthFirst);
        let w = s.register(smp(0));
        for i in 0..3 {
            s.submit(&desc(i, Device::Smp, &[]), &NoLocality);
        }
        assert_eq!(s.queued(), 3);
        assert_eq!(s.next(w), Some(TaskId(0)));
        assert_eq!(s.next(w), Some(TaskId(1)));
        assert_eq!(s.next(w), Some(TaskId(2)));
        assert_eq!(s.next(w), None);
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn device_mismatch_skipped_in_fifo() {
        let mut s = Scheduler::new(Policy::BreadthFirst);
        let w = s.register(smp(0));
        let g = s.register(gpu(1));
        s.submit(&desc(0, Device::Cuda, &[]), &NoLocality);
        s.submit(&desc(1, Device::Smp, &[]), &NoLocality);
        // The SMP worker skips the CUDA task and takes the SMP one.
        assert_eq!(s.next(w), Some(TaskId(1)));
        assert_eq!(s.next(w), None);
        assert_eq!(s.next(g), Some(TaskId(0)));
    }

    #[test]
    fn dependencies_policy_prefers_released_successor() {
        let mut s = Scheduler::new(Policy::Dependencies);
        let w0 = s.register(smp(0));
        let w1 = s.register(smp(0));
        // Some unrelated work is queued first.
        s.submit(&desc(10, Device::Smp, &[]), &NoLocality);
        // w0 finishes a task releasing successors 20 and 21.
        let s20 = desc(20, Device::Smp, &[]);
        let s21 = desc(21, Device::Smp, &[]);
        s.task_completed(w0, &[&s20, &s21], &NoLocality);
        // w0 gets its successor before the older queued task.
        assert_eq!(s.next(w0), Some(TaskId(20)));
        assert_eq!(s.stats().successor_hits, 1);
        // The other successor went to the global queue, behind task 10.
        assert_eq!(s.next(w1), Some(TaskId(10)));
        assert_eq!(s.next(w1), Some(TaskId(21)));
    }

    #[test]
    fn dependencies_hint_respects_device() {
        let mut s = Scheduler::new(Policy::Dependencies);
        let g = s.register(gpu(1));
        // A GPU manager finishing a task cannot take an SMP successor.
        let smp_succ = desc(5, Device::Smp, &[]);
        s.task_completed(g, &[&smp_succ], &NoLocality);
        assert_eq!(s.next(g), None, "SMP successor must not be hinted to a GPU");
        let w = s.register(smp(0));
        assert_eq!(s.next(w), Some(TaskId(5)));
    }

    #[test]
    fn adopt_brings_a_resource_into_service() {
        // A joining node's proxy is registered at construction but held
        // out of service; adopt() makes it a full scheduling citizen.
        let mut s = Scheduler::new(Policy::BreadthFirst);
        let w = s.register(smp(0));
        s.deactivate(w);
        s.submit(&desc(0, Device::Smp, &[]), &NoLocality);
        assert_eq!(s.next(w), None, "out-of-service resources are never handed work");
        s.adopt(w);
        assert!(s.is_active(w));
        assert_eq!(s.next(w), Some(TaskId(0)));
        // Idempotent: adopting an active resource changes nothing.
        s.adopt(w);
        assert_eq!(s.next(w), None);
    }

    #[test]
    fn adopt_clears_forbidden_kinds_and_restores_affinity_tie_breaks() {
        // An adopted resource scores affinity exactly like one that was
        // never away: same index-order iteration, so a genuine tie
        // still goes to the global queue rather than favouring either
        // contender.
        let mut s = Scheduler::new(Policy::Affinity);
        let g0 = s.register(gpu(10));
        let g1 = s.register(gpu(11));
        s.forbid(g1, Device::Cuda);
        s.deactivate(g1);
        s.adopt(g1);
        let oracle = MapOracle(HashMap::from([((7, 10), 4096), ((7, 11), 4096)]));
        s.submit(&desc(0, Device::Cuda, &[(7, 0, 4096)]), &oracle);
        // Tie between g0 and g1: global queue, demand-driven pickup —
        // and the adopted g1 may serve CUDA again (forbid was cleared).
        assert_eq!(s.next(g1), Some(TaskId(0)));
        assert_eq!(s.stats().global_hits, 1);
        // With g1 holding strictly more bytes, placement picks it over
        // the never-deactivated g0, proving the tie-break order healed.
        let oracle = MapOracle(HashMap::from([((8, 10), 100), ((8, 11), 4096)]));
        s.submit(&desc(1, Device::Cuda, &[(8, 0, 4096)]), &oracle);
        assert_eq!(s.next(g1), Some(TaskId(1)));
        assert_eq!(s.stats().local_hits, 1);
        let _ = g0;
    }

    #[test]
    fn affinity_places_on_resource_holding_data() {
        let mut s = Scheduler::new(Policy::Affinity);
        let g0 = s.register(gpu(10));
        let g1 = s.register(gpu(11));
        let oracle = MapOracle(HashMap::from([((7, 11), 4096)]));
        // Task touching data 7, which lives at space 11 (g1).
        s.submit(&desc(0, Device::Cuda, &[(7, 0, 4096)]), &oracle);
        assert_eq!(s.next(g1), Some(TaskId(0)));
        assert_eq!(s.stats().local_hits, 1);
        let _ = g0;
    }

    #[test]
    fn affinity_prefers_bigger_bytes() {
        let mut s = Scheduler::new(Policy::Affinity);
        let g0 = s.register(gpu(10));
        let g1 = s.register(gpu(11));
        let oracle = MapOracle(HashMap::from([((1, 10), 100), ((2, 11), 4096)]));
        // Touches data 1 (100 B at g0) and data 2 (4 KiB at g1): g1 wins
        // the placement (g0 could still steal it later, so ask g1 first).
        s.submit(&desc(0, Device::Cuda, &[(1, 0, 100), (2, 0, 4096)]), &oracle);
        assert_eq!(s.next(g1), Some(TaskId(0)));
        assert_eq!(s.stats().local_hits, 1);
        assert_eq!(s.next(g0), None);
    }

    #[test]
    fn affinity_without_locality_goes_global() {
        let mut s = Scheduler::new(Policy::Affinity);
        let g0 = s.register(gpu(10));
        s.submit(&desc(0, Device::Cuda, &[(1, 0, 64)]), &NoLocality);
        assert_eq!(s.next(g0), Some(TaskId(0)));
        assert_eq!(s.stats().global_hits, 1);
    }

    #[test]
    fn affinity_steals_within_group_from_longest_queue() {
        let mut s = Scheduler::new(Policy::Affinity);
        let g0 = s.register(gpu(10));
        let g1 = s.register(gpu(11));
        let oracle = MapOracle(HashMap::from([((1, 11), 64)]));
        // Three tasks all affine to g1.
        for i in 0..3 {
            s.submit(&desc(i, Device::Cuda, &[(1, 0, 64)]), &oracle);
        }
        // Idle g0 steals from the back of g1's queue.
        assert_eq!(s.next(g0), Some(TaskId(2)));
        assert_eq!(s.stats().steals, 1);
        assert_eq!(s.next(g1), Some(TaskId(0)));
        assert_eq!(s.next(g1), Some(TaskId(1)));
    }

    #[test]
    fn no_steal_across_groups() {
        let mut s = Scheduler::new(Policy::Affinity);
        let mut p0 =
            ResourceInfo { kind: ResourceKind::NodeProxy, space: SpaceId(20), steal_group: 1 };
        let n0 = s.register(p0.clone());
        p0.space = SpaceId(21);
        p0.steal_group = 2;
        let n1 = s.register(p0);
        let oracle = MapOracle(HashMap::from([((1, 21), 64)]));
        s.submit(&desc(0, Device::Cuda, &[(1, 0, 64)]), &oracle);
        assert_eq!(s.next(n0), None, "proxies in different groups must not steal");
        assert_eq!(s.next(n1), Some(TaskId(0)));
    }

    #[test]
    fn queued_count_tracks_all_paths() {
        let mut s = Scheduler::new(Policy::Affinity);
        let g0 = s.register(gpu(10));
        let oracle = MapOracle(HashMap::from([((1, 10), 64)]));
        s.submit(&desc(0, Device::Cuda, &[(1, 0, 64)]), &oracle);
        s.submit(&desc(1, Device::Cuda, &[]), &oracle);
        assert_eq!(s.queued(), 2);
        s.next(g0);
        s.next(g0);
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn priority_orders_global_queue() {
        let mut s = Scheduler::new(Policy::BreadthFirst);
        let w = s.register(smp(0));
        let mut lo = desc(1, Device::Smp, &[]);
        lo.priority = 0;
        let mut hi = desc(2, Device::Smp, &[]);
        hi.priority = 5;
        let mut mid = desc(3, Device::Smp, &[]);
        mid.priority = 5;
        s.submit(&lo, &NoLocality);
        s.submit(&hi, &NoLocality);
        s.submit(&mid, &NoLocality);
        // Highest priority first; FIFO among equal priorities.
        assert_eq!(s.next(w), Some(TaskId(2)));
        assert_eq!(s.next(w), Some(TaskId(3)));
        assert_eq!(s.next(w), Some(TaskId(1)));
    }

    #[test]
    fn seed_zero_matches_unseeded_fifo_exactly() {
        let run = |seed: u64| {
            let mut s = Scheduler::new(Policy::BreadthFirst).with_seed(seed);
            let w = s.register(smp(0));
            for i in 0..8 {
                s.submit(&desc(i, Device::Smp, &[]), &NoLocality);
            }
            let mut order = Vec::new();
            while let Some(t) = s.next(w) {
                order.push(t);
            }
            order
        };
        assert_eq!(run(0), (0..8).map(TaskId).collect::<Vec<_>>());
    }

    #[test]
    fn nonzero_seed_permutes_equal_priority_ties_deterministically() {
        let run = |seed: u64| {
            let mut s = Scheduler::new(Policy::BreadthFirst).with_seed(seed);
            let w = s.register(smp(0));
            for i in 0..8 {
                s.submit(&desc(i, Device::Smp, &[]), &NoLocality);
            }
            let mut order = Vec::new();
            while let Some(t) = s.next(w) {
                order.push(t);
            }
            order
        };
        let fifo: Vec<_> = (0..8).map(TaskId).collect();
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), fifo, "a perturbed seed must actually change tie-breaks");
        // All eight tasks still get scheduled exactly once.
        let mut sorted = run(7);
        sorted.sort();
        assert_eq!(sorted, fifo);
    }

    #[test]
    fn perturbation_never_violates_priority_order() {
        let mut s = Scheduler::new(Policy::BreadthFirst).with_seed(99);
        let w = s.register(smp(0));
        let mut hi = desc(50, Device::Smp, &[]);
        hi.priority = 10;
        for i in 0..4 {
            s.submit(&desc(i, Device::Smp, &[]), &NoLocality);
        }
        s.submit(&hi, &NoLocality);
        assert_eq!(s.next(w), Some(TaskId(50)), "priority beats any tie-break seed");
    }

    #[test]
    fn deactivated_resource_gets_nothing_and_its_queue_migrates() {
        let mut s = Scheduler::new(Policy::Affinity);
        let g0 = s.register(gpu(10));
        let g1 = s.register(gpu(11));
        let oracle = MapOracle(HashMap::from([((1, 11), 64)]));
        // Both tasks placed locally on g1, then g1 dies.
        s.submit(&desc(0, Device::Cuda, &[(1, 0, 64)]), &oracle);
        s.submit(&desc(1, Device::Cuda, &[(1, 0, 64)]), &oracle);
        s.deactivate(g1);
        assert!(!s.is_active(g1));
        assert_eq!(s.next(g1), None, "a dead resource is handed no work");
        // The orphans are available to the survivor via the global queue.
        assert_eq!(s.next(g0), Some(TaskId(0)));
        assert_eq!(s.next(g0), Some(TaskId(1)));
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn deactivated_resource_is_not_placed_on_or_stolen_from() {
        let mut s = Scheduler::new(Policy::Affinity);
        let g0 = s.register(gpu(10));
        let g1 = s.register(gpu(11));
        s.deactivate(g1);
        let oracle = MapOracle(HashMap::from([((1, 11), 64)]));
        // Affinity points at the dead g1: placement must not use it.
        s.submit(&desc(0, Device::Cuda, &[(1, 0, 64)]), &oracle);
        assert_eq!(s.next(g0), Some(TaskId(0)), "task must be reachable by the survivor");
    }

    #[test]
    fn dead_resource_successor_hint_goes_global() {
        let mut s = Scheduler::new(Policy::Dependencies);
        let w0 = s.register(smp(0));
        let w1 = s.register(smp(0));
        s.deactivate(w0);
        let succ = desc(5, Device::Smp, &[]);
        s.task_completed(w0, &[&succ], &NoLocality);
        assert_eq!(s.next(w0), None);
        assert_eq!(s.next(w1), Some(TaskId(5)));
    }

    #[test]
    fn drain_unservable_returns_orphaned_device_tasks() {
        let mut s = Scheduler::new(Policy::BreadthFirst);
        let w = s.register(smp(0));
        let g = s.register(gpu(1));
        s.submit(&desc(0, Device::Cuda, &[]), &NoLocality);
        s.submit(&desc(1, Device::Smp, &[]), &NoLocality);
        s.submit(&desc(2, Device::Cuda, &[]), &NoLocality);
        s.deactivate(g);
        let orphans = s.drain_unservable();
        assert_eq!(orphans, vec![TaskId(0), TaskId(2)]);
        assert_eq!(s.queued(), 1);
        assert_eq!(s.next(w), Some(TaskId(1)));
        // With every kind still servable, nothing drains.
        assert!(s.drain_unservable().is_empty());
    }

    #[test]
    fn forbid_migrates_queued_kind_and_blocks_future_placement() {
        let mut s = Scheduler::new(Policy::Affinity);
        let proxy =
            ResourceInfo { kind: ResourceKind::NodeProxy, space: SpaceId(20), steal_group: 1 };
        let p = s.register(proxy);
        let g = s.register(gpu(10));
        let oracle = MapOracle(HashMap::from([((1, 20), 64)]));
        // Two CUDA tasks and an SMP task, all affine to the proxy.
        s.submit(&desc(0, Device::Cuda, &[(1, 0, 64)]), &oracle);
        s.submit(&desc(1, Device::Smp, &[(1, 0, 64)]), &oracle);
        s.submit(&desc(2, Device::Cuda, &[(1, 0, 64)]), &oracle);
        // The node reports its last GPU down: CUDA work must leave the
        // proxy queue (for the surviving GPU) but SMP work stays.
        s.forbid(p, Device::Cuda);
        assert_eq!(s.next(p), Some(TaskId(1)), "proxy keeps serving SMP");
        assert_eq!(s.next(p), None, "proxy is handed no CUDA work");
        assert_eq!(s.next(g), Some(TaskId(0)));
        assert_eq!(s.next(g), Some(TaskId(2)));
        // Future placements skip the forbidden proxy even with affinity.
        s.submit(&desc(3, Device::Cuda, &[(1, 0, 64)]), &oracle);
        assert_eq!(s.next(p), None);
        assert_eq!(s.next(g), Some(TaskId(3)));
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn drain_unservable_counts_forbidden_resources_as_dead() {
        let mut s = Scheduler::new(Policy::BreadthFirst);
        let p = s.register(ResourceInfo {
            kind: ResourceKind::NodeProxy,
            space: SpaceId(20),
            steal_group: 1,
        });
        s.submit(&desc(0, Device::Cuda, &[]), &NoLocality);
        s.submit(&desc(1, Device::Smp, &[]), &NoLocality);
        s.forbid(p, Device::Cuda);
        assert_eq!(s.drain_unservable(), vec![TaskId(0)]);
        assert_eq!(s.next(p), Some(TaskId(1)));
    }

    #[test]
    fn withdraw_rehomes_servable_work_and_returns_the_rest() {
        let mut s = Scheduler::new(Policy::Affinity);
        let proxy =
            ResourceInfo { kind: ResourceKind::NodeProxy, space: SpaceId(20), steal_group: 1 };
        let p = s.register(proxy);
        let w = s.register(smp(0));
        let oracle = MapOracle(HashMap::from([((1, 20), 64)]));
        // An SMP task placed on the proxy (survivable by the worker) and
        // a CUDA task only the proxy could ever serve.
        s.submit(&desc(0, Device::Smp, &[(1, 0, 64)]), &oracle);
        s.submit(&desc(1, Device::Cuda, &[(1, 0, 64)]), &oracle);
        let orphans = s.withdraw(p);
        assert_eq!(orphans, vec![TaskId(1)], "unservable CUDA task is surfaced");
        assert!(!s.is_active(p));
        assert_eq!(s.next(p), None, "a withdrawn node is handed nothing");
        assert_eq!(s.next(w), Some(TaskId(0)), "SMP work re-homed to the survivor");
        assert_eq!(s.queued(), 0);
        // Idempotent.
        assert!(s.withdraw(p).is_empty());
    }

    #[test]
    fn chart_labels_match_paper() {
        assert_eq!(Policy::BreadthFirst.chart_label(), "bf");
        assert_eq!(Policy::Dependencies.chart_label(), "default");
        assert_eq!(Policy::Affinity.chart_label(), "affinity");
    }

    /// Deterministic test stream over [`splitmix64`].
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 += 1;
            splitmix64(self.0) % n
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }
    }

    /// Holders per data object, reported the way the runtime's span
    /// oracle does: each holder scores for itself, and a holder inside
    /// a node's span also scores (once per region) for the node's key
    /// space. `node_of` maps every key to itself.
    struct SpanLikeOracle {
        holders: HashMap<u64, Vec<u32>>,
        node_of: HashMap<u32, u32>,
    }

    impl LocalityOracle for SpanLikeOracle {
        fn for_each_holder(&self, region: &Region, f: &mut dyn FnMut(SpaceId, u64)) {
            let mut nodes = Vec::new();
            for &h in self.holders.get(&region.data.0).into_iter().flatten() {
                match self.node_of.get(&h) {
                    Some(&key) => {
                        if h != key {
                            f(SpaceId(h), region.len);
                        }
                        if !nodes.contains(&key) {
                            nodes.push(key);
                            f(SpaceId(key), region.len);
                        }
                    }
                    None => f(SpaceId(h), region.len),
                }
            }
        }
    }

    /// The dense affinity scorer the sparse one replaced: every serving
    /// resource, in index order, scored through a per-space byte query.
    /// `None` means the global queue.
    fn dense_placement(
        s: &Scheduler,
        desc: &TaskDesc,
        oracle: &dyn LocalityOracle,
    ) -> Option<usize> {
        let task = SchedTask::from_desc(desc);
        let bytes_at = |r: &Region, space: SpaceId| {
            let mut b = 0;
            oracle.for_each_holder(r, &mut |h, n| {
                if h == space {
                    b = n;
                }
            });
            b
        };
        let mut best: Option<(u64, usize)> = None;
        let mut tied = false;
        for i in 0..s.resources.len() {
            if !s.serves(i, task.device) {
                continue;
            }
            let space = s.resources[i].space;
            let score: u64 = task.copies.iter().map(|(r, w)| w * bytes_at(r, space)).sum();
            if score == 0 {
                continue;
            }
            match best {
                Some((b, _)) if score > b => {
                    best = Some((score, i));
                    tied = false;
                }
                Some((b, _)) if score == b => tied = true,
                Some(_) => {}
                None => best = Some((score, i)),
            }
        }
        match best {
            Some((_, i)) if !tied => Some(i),
            _ => None,
        }
    }

    fn random_resource(rng: &mut Rng) -> ResourceInfo {
        let kind = match rng.below(3) {
            0 => ResourceKind::SmpWorker,
            1 => ResourceKind::GpuManager,
            _ => ResourceKind::NodeProxy,
        };
        ResourceInfo { kind, space: SpaceId(rng.below(6) as u32), steal_group: 0 }
    }

    fn random_task(rng: &mut Rng, id: u64) -> TaskDesc {
        let copies = rng.below(4);
        TaskDesc {
            id: TaskId(id),
            label: String::new(),
            device: if rng.chance(50) { Device::Cuda } else { Device::Smp },
            deps: (0..copies)
                .map(|_| {
                    let r = Region::new(DataId(rng.below(5)), 0, 1 + rng.below(4) * 32);
                    if rng.chance(40) {
                        Access::inout(r)
                    } else {
                        Access::input(r)
                    }
                })
                .collect(),
            copy_deps: true,
            extra_copies: vec![],
            priority: rng.below(2) as i32,
        }
    }

    /// Apply one random membership change: deactivate, forbid or adopt.
    fn random_membership(rng: &mut Rng, s: &mut Scheduler) {
        let r = ResourceId(rng.below(s.resources.len() as u64) as usize);
        match rng.below(3) {
            0 => s.deactivate(r),
            1 => s.forbid(r, if rng.chance(50) { Device::Cuda } else { Device::Smp }),
            _ => s.adopt(r),
        }
    }

    /// The queue `submit` put a task on: `Some(i)` for resource `i`'s
    /// local queue, `None` for the global queue.
    fn placed_on(s: &Scheduler, local_before: &[usize]) -> Option<usize> {
        (0..s.local.len()).find(|&i| s.local[i].len() > local_before[i])
    }

    #[test]
    fn sparse_affinity_scoring_places_like_the_dense_scorer() {
        let mut placed_locally = 0;
        for seed in 0..300u64 {
            let mut rng = Rng(seed << 32);
            let mut s = Scheduler::new(Policy::Affinity);
            for _ in 0..1 + rng.below(10) {
                s.register(random_resource(&mut rng));
            }
            // Spans as the runtime builds them: a node key maps to
            // itself, and a member space to at most one key.
            let keys: Vec<u32> = (0..6).filter(|_| rng.chance(30)).collect();
            let mut node_of: HashMap<u32, u32> = keys.iter().map(|&k| (k, k)).collect();
            for sp in 0..6 {
                if !keys.is_empty() && !keys.contains(&sp) && rng.chance(60) {
                    node_of.insert(sp, keys[rng.below(keys.len() as u64) as usize]);
                }
            }
            let holders: HashMap<u64, Vec<u32>> =
                (0..5).map(|d| (d, (0..6).filter(|_| rng.chance(30)).collect())).collect();
            let oracle = SpanLikeOracle { holders, node_of };
            for id in 0..30 {
                if rng.chance(15) {
                    random_membership(&mut rng, &mut s);
                }
                if rng.chance(20) {
                    let r = ResourceId(rng.below(s.resources.len() as u64) as usize);
                    s.next(r);
                }
                let desc = random_task(&mut rng, id);
                let expected = dense_placement(&s, &desc, &oracle);
                let before: Vec<usize> = s.local.iter().map(TaskQueue::len).collect();
                let global_before = s.global.len();
                s.submit(&desc, &oracle);
                let got = placed_on(&s, &before);
                assert_eq!(got, expected, "seed {seed}, task {id}: {desc:?}");
                if got.is_none() {
                    assert_eq!(s.global.len(), global_before + 1);
                }
                placed_locally += got.is_some() as u32;
                assert!(s.score.iter().all(|&x| x == 0), "score scratch left dirty");
            }
        }
        assert!(placed_locally > 500, "too few local placements to compare: {placed_locally}");
    }

    #[test]
    fn backlogged_counts_local_queues_at_the_steal_threshold() {
        let mut steals = 0;
        for seed in 0..200u64 {
            let mut rng = Rng(seed << 32);
            let mut s = Scheduler::new(Policy::Affinity).with_seed(seed % 3);
            for _ in 0..2 + rng.below(6) {
                s.register(random_resource(&mut rng));
            }
            let holders: HashMap<u64, Vec<u32>> =
                (0..5).map(|d| (d, vec![rng.below(6) as u32])).collect();
            let oracle = SpanLikeOracle { holders, node_of: HashMap::new() };
            let mut id = 0;
            for step in 0..80 {
                match rng.below(10) {
                    0..=4 => {
                        s.submit(&random_task(&mut rng, id), &oracle);
                        id += 1;
                    }
                    5..=7 => {
                        let r = ResourceId(rng.below(s.resources.len() as u64) as usize);
                        s.next(r);
                    }
                    8 => random_membership(&mut rng, &mut s),
                    _ => {
                        let r = ResourceId(rng.below(s.resources.len() as u64) as usize);
                        if rng.chance(50) {
                            s.withdraw(r);
                        } else {
                            s.drain_unservable();
                        }
                    }
                }
                let mut expected: Vec<Vec<(usize, Reverse<usize>)>> = vec![vec![]; s.backlog.len()];
                for (i, q) in s.local.iter().enumerate() {
                    if q.len() >= STEAL_THRESHOLD {
                        expected[s.group[i]].push((q.len(), Reverse(i)));
                    }
                }
                for (g, want) in expected.iter_mut().enumerate() {
                    want.sort();
                    let got: Vec<_> = s.backlog[g].1.iter().copied().collect();
                    assert_eq!(&got, want, "seed {seed}, step {step}, group {g}");
                }
            }
            steals += s.stats().steals;
        }
        assert!(steals > 0, "the random sequences never exercised the steal path");
    }

    /// The allocation-free `pick` against the candidate-list pick it
    /// replaced: same task for every queue, filter and salt.
    #[test]
    fn pick_matches_the_candidate_list_reference() {
        fn reference(q: &VecDeque<SchedTask>, device: Device, salt: u64) -> Option<TaskId> {
            let eligible: Vec<&SchedTask> = q.iter().filter(|t| t.device == device).collect();
            let best = eligible.iter().map(|t| t.priority).max()?;
            let candidates: Vec<&&SchedTask> =
                eligible.iter().filter(|t| t.priority == best).collect();
            Some(candidates[(salt % candidates.len() as u64) as usize].id)
        }
        for seed in 1..400u64 {
            let mut rng = Rng(seed << 32);
            let mut s = Scheduler::new(Policy::BreadthFirst).with_seed(seed % 4);
            let w = s.register(smp(0));
            for id in 0..rng.below(12) {
                let mut d = random_task(&mut rng, id);
                d.priority = rng.below(3) as i32;
                s.submit(&d, &NoLocality);
            }
            while s.global.len() > 0 {
                let salt = if s.seed == 0 { 0 } else { splitmix64(s.seed ^ (s.decisions + 1)) };
                let expected = reference(&s.global.tasks, Device::Smp, salt);
                let got = s.next(w);
                assert_eq!(got, expected, "seed {seed}");
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
