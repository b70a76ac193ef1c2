//! Property tests of the schedulers: under arbitrary submit/next/steal
//! interleavings, no task is ever lost, duplicated, or handed to a
//! resource of the wrong device kind — for all three policies; and the
//! indexed scheduler decides exactly like a linear-scan reference.

use std::collections::VecDeque;

use proptest::prelude::*;

use ompss_core::{Device, TaskDesc, TaskId};
use ompss_mem::{Access, DataId, Region, SpaceId};
use ompss_sched::{
    LocalityOracle, Policy, ResourceId, ResourceInfo, ResourceKind, SchedStats, Scheduler,
};

#[derive(Debug, Clone, Copy)]
enum Step {
    Submit { device_cuda: bool, data: u64, priority: i32 },
    Next { resource: usize },
}

fn gen_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<bool>(), 0u64..6, -2i32..3).prop_map(|(device_cuda, data, priority)| {
            Step::Submit { device_cuda, data, priority }
        }),
        (0usize..6).prop_map(|resource| Step::Next { resource }),
    ]
}

/// Oracle: data object `d` "lives" at space `d % 4` — arbitrary but
/// deterministic locality for the affinity policy to chew on.
struct ModOracle;
impl LocalityOracle for ModOracle {
    fn for_each_holder(&self, region: &Region, f: &mut dyn FnMut(SpaceId, u64)) {
        f(SpaceId((region.data.0 % 4) as u32), region.len);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_task_lost_duplicated_or_misrouted(
        steps in proptest::collection::vec(gen_step(), 1..120),
        policy_sel in 0u8..3,
    ) {
        let policy = match policy_sel {
            0 => Policy::BreadthFirst,
            1 => Policy::Dependencies,
            _ => Policy::Affinity,
        };
        let mut s = Scheduler::new(policy);
        // 3 SMP workers + 3 GPU managers sharing one steal group.
        let mut resources = Vec::new();
        for i in 0..3 {
            resources.push((
                s.register(ResourceInfo {
                    kind: ResourceKind::SmpWorker,
                    space: SpaceId(i),
                    steal_group: 0,
                }),
                ResourceKind::SmpWorker,
            ));
        }
        for i in 0..3 {
            resources.push((
                s.register(ResourceInfo {
                    kind: ResourceKind::GpuManager,
                    space: SpaceId(i),
                    steal_group: 0,
                }),
                ResourceKind::GpuManager,
            ));
        }

        let mut submitted: Vec<(TaskId, Device)> = Vec::new();
        let mut handed: Vec<(TaskId, ResourceKind)> = Vec::new();
        let mut next_id = 0u64;
        for step in steps {
            match step {
                Step::Submit { device_cuda, data, priority } => {
                    let device = if device_cuda { Device::Cuda } else { Device::Smp };
                    let desc = TaskDesc {
                        id: TaskId(next_id),
                        label: String::new(),
                        device,
                        deps: vec![Access::inout(Region::new(DataId(data), 0, 64))],
                        copy_deps: true,
                        extra_copies: vec![],
                        priority,
                    };
                    submitted.push((desc.id, device));
                    next_id += 1;
                    s.submit(&desc, &ModOracle);
                }
                Step::Next { resource } => {
                    let (res, kind) = resources[resource];
                    if let Some(t) = s.next(res) {
                        handed.push((t, kind));
                    }
                }
            }
        }
        // Drain whatever is left.
        loop {
            let before = handed.len();
            for &(res, kind) in &resources {
                if let Some(t) = s.next(res) {
                    handed.push((t, kind));
                }
            }
            if handed.len() == before {
                break;
            }
        }
        prop_assert_eq!(s.queued(), 0, "scheduler retained tasks after drain");
        prop_assert_eq!(handed.len(), submitted.len(), "lost or duplicated tasks");
        let mut ids: Vec<u64> = handed.iter().map(|(t, _)| t.0).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), submitted.len(), "duplicate hand-out");
        // Device/resource compatibility.
        for (t, kind) in &handed {
            let (_, dev) = submitted[t.0 as usize];
            match dev {
                Device::Smp => prop_assert_eq!(*kind, ResourceKind::SmpWorker),
                Device::Cuda => prop_assert_eq!(*kind, ResourceKind::GpuManager),
            }
        }
    }
}

// ------------------------------------------------------------------
// Differential test: the indexed scheduler against a linear-scan
// reference.

/// The scheduler as a plain linear-scan data structure: every hand-out
/// scans whole queues, every steal scans every resource, and affinity
/// scores every serving resource in index order. The indexed
/// [`Scheduler`] must make the same decision on every call.
struct Reference {
    policy: Policy,
    seed: u64,
    decisions: u64,
    resources: Vec<ResourceInfo>,
    active: Vec<bool>,
    forbidden: Vec<Option<Device>>,
    global: VecDeque<RefTask>,
    local: Vec<VecDeque<RefTask>>,
    hints: Vec<VecDeque<RefTask>>,
    stats: SchedStats,
    queued: usize,
}

#[derive(Debug, Clone)]
struct RefTask {
    id: TaskId,
    device: Device,
    priority: i32,
    copies: Vec<(Region, u64)>,
}

impl RefTask {
    fn new(desc: &TaskDesc) -> Self {
        RefTask {
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

impl Reference {
    fn new(policy: Policy, seed: u64) -> Self {
        Reference {
            policy,
            seed,
            decisions: 0,
            resources: Vec::new(),
            active: Vec::new(),
            forbidden: Vec::new(),
            global: VecDeque::new(),
            local: Vec::new(),
            hints: Vec::new(),
            stats: SchedStats::default(),
            queued: 0,
        }
    }

    fn register(&mut self, info: ResourceInfo) {
        self.resources.push(info);
        self.active.push(true);
        self.forbidden.push(None);
        self.local.push(VecDeque::new());
        self.hints.push(VecDeque::new());
    }

    fn serves(&self, i: usize, device: Device) -> bool {
        self.active[i]
            && self.resources[i].kind.accepts(device)
            && self.forbidden[i] != Some(device)
    }

    fn enqueue(&mut self) {
        self.queued += 1;
        self.stats.submitted += 1;
        self.stats.max_queued = self.stats.max_queued.max(self.queued as u64);
    }

    fn submit(&mut self, desc: &TaskDesc, oracle: &dyn LocalityOracle) {
        let task = RefTask::new(desc);
        self.enqueue();
        if self.policy != Policy::Affinity {
            self.global.push_back(task);
            return;
        }
        let bytes_at = |r: &Region, space: SpaceId| {
            let mut b = 0;
            oracle.for_each_holder(r, &mut |h, n| {
                if h == space {
                    b += n;
                }
            });
            b
        };
        let mut best: Option<(u64, usize)> = None;
        let mut tied = false;
        for i in 0..self.resources.len() {
            if !self.serves(i, task.device) {
                continue;
            }
            let space = self.resources[i].space;
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
            Some((_, i)) if !tied => self.local[i].push_back(task),
            _ => self.global.push_back(task),
        }
    }

    fn task_completed(&mut self, r: usize, succ: &[&TaskDesc], oracle: &dyn LocalityOracle) {
        if self.policy != Policy::Dependencies {
            for desc in succ {
                self.submit(desc, oracle);
            }
            return;
        }
        let mut hinted = false;
        for desc in succ {
            let task = RefTask::new(desc);
            self.enqueue();
            if !hinted && self.serves(r, task.device) {
                self.hints[r].push_back(task);
                hinted = true;
            } else {
                self.global.push_back(task);
            }
        }
    }

    fn next_matching(&mut self, r: usize, allow: impl Fn(Device) -> bool) -> Option<TaskId> {
        if !self.active[r] {
            return None;
        }
        let kind = self.resources[r].kind;
        let banned = self.forbidden[r];
        let accepts =
            |t: &RefTask| kind.accepts(t.device) && banned != Some(t.device) && allow(t.device);
        let salt = if self.seed == 0 {
            0
        } else {
            self.decisions += 1;
            splitmix64(self.seed ^ self.decisions)
        };
        // Every eligible task at the best eligible priority, oldest
        // first; the draw picks among them.
        let pick = |q: &VecDeque<RefTask>| {
            let best = q.iter().filter(|t| accepts(t)).map(|t| t.priority).max()?;
            let candidates: Vec<usize> =
                (0..q.len()).filter(|&i| q[i].priority == best && accepts(&q[i])).collect();
            Some(candidates[(salt % candidates.len() as u64) as usize])
        };
        if let Some(pos) = pick(&self.hints[r]) {
            self.queued -= 1;
            self.stats.successor_hits += 1;
            return self.hints[r].remove(pos).map(|t| t.id);
        }
        if let Some(pos) = pick(&self.local[r]) {
            self.queued -= 1;
            self.stats.local_hits += 1;
            return self.local[r].remove(pos).map(|t| t.id);
        }
        if let Some(pos) = pick(&self.global) {
            self.queued -= 1;
            self.stats.global_hits += 1;
            return self.global.remove(pos).map(|t| t.id);
        }
        if self.policy != Policy::Affinity {
            return None;
        }
        let group = self.resources[r].steal_group;
        let victim = (0..self.resources.len())
            .filter(|&i| i != r && self.active[i] && self.resources[i].steal_group == group)
            .filter(|&i| self.local[i].len() >= 2 && self.local[i].iter().any(accepts))
            .max_by_key(|&i| (self.local[i].len(), usize::MAX - i))?;
        let pos = self.local[victim].iter().rposition(accepts)?;
        self.queued -= 1;
        self.stats.steals += 1;
        self.local[victim].remove(pos).map(|t| t.id)
    }

    fn deactivate(&mut self, r: usize) {
        if !self.active[r] {
            return;
        }
        self.active[r] = false;
        let orphans: Vec<RefTask> =
            self.hints[r].drain(..).chain(self.local[r].drain(..)).collect();
        self.global.extend(orphans);
    }

    fn adopt(&mut self, r: usize) {
        self.active[r] = true;
        self.forbidden[r] = None;
    }

    fn forbid(&mut self, r: usize, device: Device) {
        if self.forbidden[r] == Some(device) {
            return;
        }
        self.forbidden[r] = Some(device);
        let mut orphans = Vec::new();
        for q in [&mut self.hints[r], &mut self.local[r]] {
            let (out, keep): (VecDeque<RefTask>, VecDeque<RefTask>) =
                q.drain(..).partition(|t| t.device == device);
            *q = keep;
            orphans.extend(out);
        }
        self.global.extend(orphans);
    }

    fn drain_unservable(&mut self) -> Vec<TaskId> {
        let (resources, active, forbidden) = (&self.resources, &self.active, &self.forbidden);
        let servable = |t: &RefTask| {
            (0..resources.len()).any(|i| {
                active[i] && resources[i].kind.accepts(t.device) && forbidden[i] != Some(t.device)
            })
        };
        let mut orphans = Vec::new();
        let queues = self.hints.iter_mut().chain(self.local.iter_mut()).chain([&mut self.global]);
        for q in queues {
            q.retain(|t| {
                let keep = servable(t);
                if !keep {
                    orphans.push(t.id);
                }
                keep
            });
        }
        self.queued -= orphans.len();
        orphans
    }

    fn withdraw(&mut self, r: usize) -> Vec<TaskId> {
        self.deactivate(r);
        self.drain_unservable()
    }
}

/// The scheduler's perturbation stream (SplitMix64), restated.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Data object `d` is held at space `d` (`64 × (d + 1)` bytes) and, for
/// even `d`, also at space `d + 1` (32 bytes): one report per space,
/// scores that mostly differ (so tasks land on local queues and backlogs
/// build up) and tie when resources share a space.
struct SplitOracle;
impl LocalityOracle for SplitOracle {
    fn for_each_holder(&self, region: &Region, f: &mut dyn FnMut(SpaceId, u64)) {
        let d = region.data.0;
        f(SpaceId(d as u32), 64 * (d + 1));
        if d.is_multiple_of(2) {
            f(SpaceId(d as u32 + 1), 32);
        }
    }
}

/// One generated task: device, priority, copy-clause data objects.
type GenTask = (bool, i32, Vec<(u64, bool)>);

#[derive(Debug, Clone)]
enum Op {
    Submit(GenTask),
    /// Several submissions in a row: builds the backlogs steals need.
    Burst(Vec<GenTask>),
    Complete {
        resource: usize,
        successors: Vec<GenTask>,
    },
    Next {
        resource: usize,
    },
    NextMatching {
        resource: usize,
        smp: bool,
        cuda: bool,
    },
    Deactivate {
        resource: usize,
    },
    Forbid {
        resource: usize,
        cuda: bool,
    },
    Withdraw {
        resource: usize,
    },
    Adopt {
        resource: usize,
    },
    Drain,
}

fn gen_task() -> impl Strategy<Value = GenTask> {
    (any::<bool>(), -2i32..3, proptest::collection::vec((0u64..6, any::<bool>()), 0..4))
}

fn gen_op() -> impl Strategy<Value = Op> {
    // Weighted by a roll out of 100: hand-outs and submissions dominate,
    // membership changes are rare enough that backlogs (and so steals)
    // build up. Resource indices are taken modulo the registered count.
    let tasks = proptest::collection::vec(gen_task(), 2..10);
    (0u32..100, gen_task(), tasks, 0usize..8, any::<bool>(), any::<bool>()).prop_map(
        |(roll, task, tasks, resource, a, b)| match roll {
            0..=19 => Op::Submit(task),
            20..=29 => Op::Burst(tasks),
            30..=39 => Op::Complete { resource, successors: tasks[..tasks.len() / 3].to_vec() },
            40..=64 => Op::Next { resource },
            65..=84 => Op::NextMatching { resource, smp: a, cuda: b },
            85..=87 => Op::Deactivate { resource },
            88..=90 => Op::Forbid { resource, cuda: a },
            91..=92 => Op::Withdraw { resource },
            93..=97 => Op::Adopt { resource },
            _ => Op::Drain,
        },
    )
}

/// A resource's kind and steal group; its space is its index modulo 6,
/// so the seventh and eighth share a space with the first two.
fn gen_resource() -> impl Strategy<Value = (ResourceKind, u32)> {
    (0u8..3, 0u32..2).prop_map(|(k, group)| {
        let kind = match k {
            0 => ResourceKind::SmpWorker,
            1 => ResourceKind::GpuManager,
            _ => ResourceKind::NodeProxy,
        };
        (kind, group)
    })
}

fn make_desc(id: u64, (cuda, priority, copies): &GenTask) -> TaskDesc {
    TaskDesc {
        id: TaskId(id),
        label: String::new(),
        device: if *cuda { Device::Cuda } else { Device::Smp },
        deps: copies
            .iter()
            .map(|&(d, writes)| {
                let r = Region::new(DataId(d), 0, 64);
                if writes {
                    Access::inout(r)
                } else {
                    Access::input(r)
                }
            })
            .collect(),
        copy_deps: true,
        extra_copies: vec![],
        priority: *priority,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn indexed_scheduler_matches_linear_scan_reference(
        resources in proptest::collection::vec(gen_resource(), 1..9),
        ops in proptest::collection::vec(gen_op(), 1..160),
        policy_sel in 0u8..3,
        seeded in any::<bool>(),
        seed in 1u64..1_000_000,
    ) {
        let policy = match policy_sel {
            0 => Policy::BreadthFirst,
            1 => Policy::Dependencies,
            _ => Policy::Affinity,
        };
        let seed = if seeded { seed } else { 0 };
        let mut s = Scheduler::new(policy).with_seed(seed);
        let mut r = Reference::new(policy, seed);
        let ids: Vec<ResourceId> = resources
            .iter()
            .enumerate()
            .map(|(i, &(kind, steal_group))| {
                let info = ResourceInfo { kind, space: SpaceId(i as u32 % 6), steal_group };
                r.register(info.clone());
                s.register(info)
            })
            .collect();
        let n = ids.len();
        let mut next_id = 0u64;
        let mut descs = |tasks: &[GenTask]| -> Vec<TaskDesc> {
            tasks
                .iter()
                .map(|t| {
                    next_id += 1;
                    make_desc(next_id, t)
                })
                .collect()
        };
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Submit(t) => {
                    let d = descs(std::slice::from_ref(t)).remove(0);
                    s.submit(&d, &SplitOracle);
                    r.submit(&d, &SplitOracle);
                }
                Op::Burst(ts) => {
                    for d in descs(ts) {
                        s.submit(&d, &SplitOracle);
                        r.submit(&d, &SplitOracle);
                    }
                }
                Op::Complete { resource, successors } => {
                    let ds = descs(successors);
                    let refs: Vec<&TaskDesc> = ds.iter().collect();
                    s.task_completed(ids[resource % n], &refs, &SplitOracle);
                    r.task_completed(resource % n, &refs, &SplitOracle);
                }
                Op::Next { resource } => {
                    let got = s.next(ids[resource % n]);
                    prop_assert_eq!(got, r.next_matching(resource % n, |_| true), "step {}", step);
                }
                Op::NextMatching { resource, smp, cuda } => {
                    let allow = |d: Device| if d == Device::Smp { *smp } else { *cuda };
                    let got = s.next_matching(ids[resource % n], allow);
                    prop_assert_eq!(got, r.next_matching(resource % n, allow), "step {}", step);
                }
                Op::Deactivate { resource } => {
                    s.deactivate(ids[resource % n]);
                    r.deactivate(resource % n);
                }
                Op::Forbid { resource, cuda } => {
                    let d = if *cuda { Device::Cuda } else { Device::Smp };
                    s.forbid(ids[resource % n], d);
                    r.forbid(resource % n, d);
                }
                Op::Withdraw { resource } => {
                    let got = s.withdraw(ids[resource % n]);
                    prop_assert_eq!(got, r.withdraw(resource % n), "step {}", step);
                }
                Op::Adopt { resource } => {
                    s.adopt(ids[resource % n]);
                    r.adopt(resource % n);
                }
                Op::Drain => {
                    let got = s.drain_unservable();
                    prop_assert_eq!(got, r.drain_unservable(), "step {}", step);
                }
            }
            prop_assert_eq!(s.queued(), r.queued, "step {}", step);
            prop_assert_eq!(s.decisions(), r.decisions, "step {}", step);
            prop_assert_eq!(s.stats(), r.stats.clone(), "step {}", step);
        }
    }
}
