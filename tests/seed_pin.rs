//! Pins the seeded tie-break stream: matmul under a nonzero scheduler
//! seed must reproduce the exact makespan, DES event count and
//! per-resource task counts recorded below. Any change to how many
//! draws the scheduler consumes per hand-out call, or to which
//! candidate a draw selects, moves at least one of these numbers.

use ompss_apps::matmul::{self, ompss::InitMode, MatmulParams};
use ompss_runtime::RuntimeConfig;
use ompss_sched::Policy;

const SEED: u64 = 17;

/// `(makespan ns, events, [(node, resource, tasks)])` of one seeded run.
type Pin = (u64, u64, Vec<(u32, String, u64)>);

fn seeded_run(cfg: RuntimeConfig) -> Pin {
    let p = MatmulParams { tiles: 6, bs: 32, real: true };
    let run = matmul::ompss::run(cfg.with_sched_seed(SEED), p, InitMode::Seq);
    let rep = run.report.expect("OmpSs runs carry a report");
    let tasks =
        rep.utilisation().into_iter().map(|(node, name, n, _, _)| (node, name, n)).collect();
    (rep.makespan.as_nanos(), rep.events, tasks)
}

fn check(cfg: RuntimeConfig, makespan_ns: u64, events: u64, tasks: &[(u32, &str, u64)]) {
    let (got_makespan, got_events, got_tasks) = seeded_run(cfg);
    let want: Vec<(u32, String, u64)> =
        tasks.iter().map(|&(node, name, n)| (node, name.to_string(), n)).collect();
    assert_eq!(
        (got_makespan, got_events, &got_tasks),
        (makespan_ns, events, &want),
        "seeded schedule moved: (makespan_ns, events, per-resource tasks)"
    );
}

#[test]
fn seeded_matmul_multi_gpu_is_pinned() {
    check(
        RuntimeConfig::multi_gpu(4),
        1_907_522,
        4226,
        &[(0, "gpu1", 54), (0, "gpu2", 54), (0, "gpu3", 54), (0, "gpu4", 54)],
    );
}

#[test]
fn seeded_matmul_multi_gpu_affinity_is_pinned() {
    check(
        RuntimeConfig::multi_gpu(4).with_sched(Policy::Affinity),
        1_897_416,
        4211,
        &[(0, "gpu1", 65), (0, "gpu2", 51), (0, "gpu3", 53), (0, "gpu4", 47)],
    );
}

#[test]
fn seeded_matmul_gpu_cluster_is_pinned() {
    check(
        RuntimeConfig::gpu_cluster(4),
        2_126_802,
        7764,
        &[(0, "gpu1", 110), (1, "gpu3", 39), (2, "gpu5", 36), (3, "gpu7", 31)],
    );
}

#[test]
fn seeded_matmul_gpu_cluster_dependencies_is_pinned() {
    check(
        RuntimeConfig::gpu_cluster(4).with_sched(Policy::Dependencies),
        2_321_709,
        8247,
        &[(0, "gpu1", 96), (1, "gpu3", 42), (2, "gpu5", 42), (3, "gpu7", 36)],
    );
}
