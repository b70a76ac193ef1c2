//! Why `ompss-verify`'s scheduler-seed explorer is not subsumed by the
//! model checker (DESIGN.md §8): a ready-queue order the seed reaches
//! and no executor tie-break does.

use std::sync::Arc;

use parking_lot::Mutex;

use ompss_mc::{explore, fingerprint, McConfig, RunOutcome};
use ompss_runtime::{Device, Runtime, RuntimeConfig, SimDuration, TaskSpec};

/// Run order of `z`, `a` and `b` on the node's only SMP worker: `z`
/// keeps it busy while `a` and `b` queue behind it, independent of
/// each other.
fn run_order(cfg: RuntimeConfig) -> Vec<&'static str> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let seen = log.clone();
    Runtime::run(RuntimeConfig { cpu_workers_per_node: 1, ..cfg }, |omp| async move {
        for (name, micros) in [("z", 1000), ("a", 1), ("b", 1)] {
            let seen = seen.clone();
            let task = TaskSpec::new(name).device(Device::Smp);
            let task = task.cost_smp(SimDuration::from_micros(micros));
            omp.submit(task.body(move |_| seen.lock().push(name))).await;
        }
    });
    let order = log.lock().clone();
    order
}

#[test]
fn a_scheduler_seed_reaches_an_order_no_tie_break_does() {
    let base = RuntimeConfig::multi_gpu(1);
    assert_eq!(run_order(base.clone()), ["z", "a", "b"]);
    let seeds = 1..64u64;
    let flipped = seeds.clone().find(|&s| run_order(base.clone().with_sched_seed(s))[1] == "b");
    assert!(flipped.is_some(), "no seed in {seeds:?} ran b before a");

    let cfg = McConfig { depth: 64, preemptions: 8, max_interleavings: 2000 };
    let report = explore("seed-witness", &cfg, || {
        let order = run_order(base.clone());
        let b_first = order.iter().position(|&t| t == "b") < order.iter().position(|&t| t == "a");
        Ok(RunOutcome { fingerprint: fingerprint(None, b_first as u64), findings: Vec::new() })
    });
    assert!(report.exhausted, "the bounded schedule space is small: {report:?}");
    assert!(report.findings.is_empty(), "some tie-break ran b before a: {:?}", report.findings);
}
