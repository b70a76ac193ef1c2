//! Seeded scenarios pinning one recovery path per defect class. Each
//! test arms a quiet fault plan with exactly the class under test, so
//! the run exercises that path and nothing else, and asserts both that
//! the recovery machinery fired (counters) and that it was lossless
//! (bit-identical output).

use std::collections::BTreeSet;
use std::sync::Arc;

use ompss_apps::{common::AppRun, scenario::App};
use ompss_chaos::{chaos_run, output_of, run_app};
use ompss_core::Device;
use ompss_mem::cast_slice_mut;
use ompss_runtime::{
    FaultClass, FaultPlan, KernelCost, RunError, Runtime, RuntimeConfig, SimTime, TaskSpec,
    TraceEvent,
};

#[test]
fn dropped_am_recovered_by_retransmission() {
    let cfg = RuntimeConfig::gpu_cluster(2);
    let reference = output_of(&run_app(App::Stream, cfg.clone())).to_vec();
    let plan = Arc::new(FaultPlan::quiet(11).with_rate(FaultClass::NetDrop, 0.25));
    let run = chaos_run(App::Stream, cfg, plan.clone());
    assert!(plan.stats().count(FaultClass::NetDrop) >= 1, "the plan never dropped a message");
    let rep = run.report.as_ref().expect("report");
    assert!(rep.counters.am_retries >= 1, "a dropped control message must be retransmitted");
    assert_eq!(output_of(&run), reference.as_slice(), "recovery must be lossless");
}

#[test]
fn duplicated_am_deduplicated() {
    let cfg = RuntimeConfig::gpu_cluster(2);
    let reference = run_app(App::Stream, cfg.clone());
    let plan = Arc::new(FaultPlan::quiet(5).with_rate(FaultClass::NetDup, 0.5));
    let run = chaos_run(App::Stream, cfg, plan.clone());
    assert!(plan.stats().count(FaultClass::NetDup) >= 1, "the plan never duplicated a message");
    let rep = run.report.as_ref().expect("report");
    let ref_rep = reference.report.as_ref().expect("report");
    assert_eq!(rep.tasks, ref_rep.tasks, "a duplicated Exec must not run its task twice");
    assert_eq!(output_of(&run), output_of(&reference), "recovery must be lossless");
}

fn trace_of(run: &AppRun) -> &[TraceEvent] {
    run.report.as_ref().and_then(|r| r.trace.as_deref()).expect("traced run")
}

/// GPU resources `(node, name)` of a traced run that started a task at
/// or after `from`.
fn gpus_busy_from(run: &AppRun, from: SimTime) -> BTreeSet<(u32, String)> {
    trace_of(run)
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Task { resource, start, .. }
                if resource.name.starts_with("gpu") && *start >= from =>
            {
                Some((resource.node, resource.name.clone()))
            }
            _ => None,
        })
        .collect()
}

/// The node whose GPU the traced `run`'s first `kind` recovery happened
/// on. A retried kernel re-runs on the manager that saw it fail, so that
/// is where its task ran. A lost GPU runs nothing afterwards: it is the
/// one GPU busy in the fault-free `reference` run that starts no task
/// after the loss.
fn recovery_node(run: &AppRun, reference: &AppRun, kind: &str) -> u32 {
    let (task, at) = trace_of(run)
        .iter()
        .find_map(|e| match e {
            TraceEvent::Recovery { kind: k, task, at } if *k == kind => Some((*task, *at)),
            _ => None,
        })
        .expect("no recovery of that kind");
    if kind == "task_retry" {
        return trace_of(run)
            .iter()
            .find_map(|e| match e {
                TraceEvent::Task { task: t, resource, .. } if Some(*t) == task => {
                    Some(resource.node)
                }
                _ => None,
            })
            .expect("the retried task ran");
    }
    let all = gpus_busy_from(reference, SimTime(0));
    let after = gpus_busy_from(run, at);
    let lost: Vec<_> = all.difference(&after).collect();
    assert_eq!(lost.len(), 1, "exactly one GPU goes silent at the loss: {lost:?}");
    lost[0].0
}

/// Force the first `class` draw while `app` runs on `cfg`: the fault
/// must land on `node`'s GPU manager, be recovered exactly once, and
/// leave the output bit-identical to a fault-free run.
fn forced_gpu_fault(app: App, cfg: RuntimeConfig, class: FaultClass, seed: u64, node: u32) {
    let cfg = cfg.with_tracing(true);
    let reference = run_app(app, cfg.clone());
    let plan = Arc::new(FaultPlan::quiet(seed).with_forced(class, 1));
    let run = chaos_run(app, cfg, plan);
    let rep = run.report.as_ref().expect("report");
    let (recovered, kind) = match class {
        FaultClass::KernelFail => (rep.counters.tasks_reexecuted, "task_retry"),
        FaultClass::DeviceLoss => (rep.counters.devices_lost, "device_lost"),
        _ => unreachable!("not a GPU fault class"),
    };
    assert_eq!(recovered, 1, "exactly the forced {kind} is recovered");
    assert_eq!(recovery_node(&run, &reference, kind), node, "the {kind} lands on node {node}");
    assert_eq!(output_of(&run), output_of(&reference), "recovery must be lossless");
}

/// A 2-node cluster (prefetch on) on which matmul's first kernel runs on
/// the slave, so the first forced GPU fault hits node 1's manager. The
/// node is read off the execution trace by [`recovery_node`], not
/// assumed: on the flat `gpu_cluster(2)` the same fault lands on node 0.
fn slave_first_cluster() -> RuntimeConfig {
    RuntimeConfig::gpu_cluster(2).with_sharded_control(2)
}

#[test]
fn kernel_failure_reexecuted_once() {
    forced_gpu_fault(App::Matmul, RuntimeConfig::multi_gpu(2), FaultClass::KernelFail, 3, 0);
    forced_gpu_fault(App::Matmul, slave_first_cluster(), FaultClass::KernelFail, 3, 1);
}

#[test]
fn device_loss_migrates_queued_work() {
    forced_gpu_fault(App::Stream, RuntimeConfig::multi_gpu(2), FaultClass::DeviceLoss, 7, 0);
    // Stream's first kernel runs on node 0 on every 2-4 node cluster,
    // flat or sharded, so matmul drives the slave's loss path.
    forced_gpu_fault(App::Matmul, slave_first_cluster(), FaultClass::DeviceLoss, 7, 1);
}

#[test]
fn exhausted_budget_yields_run_error_not_panic() {
    // Every kernel launch fails and there is only one GPU, so the task
    // burns its whole retry budget and the run must surface that as a
    // value through `try_run`.
    let plan = Arc::new(FaultPlan::quiet(1).with_forced(FaultClass::KernelFail, u64::MAX));
    let cfg = RuntimeConfig::multi_gpu(1).with_fault_plan(plan);
    let budget = cfg.task_retry_budget;
    let result = Runtime::try_run(cfg, |omp| async move {
        let a = omp.alloc_array::<f32>(256);
        omp.write_array(&a, 0, &vec![1.0f32; 256]);
        omp.submit(
            TaskSpec::new("doomed")
                .device(Device::Cuda)
                .inout(a.full())
                .cost_gpu(KernelCost::memory_bound(1024.0, 0.8))
                .body(|views| {
                    for x in cast_slice_mut::<f32>(views[0]) {
                        *x *= 2.0;
                    }
                }),
        )
        .await;
    });
    match result {
        Err(RunError::Exhausted { attempts, .. }) => {
            assert_eq!(attempts, budget + 1, "budget + 1 attempts before giving up")
        }
        other => panic!("expected RunError::Exhausted, got {other:?}"),
    }
}
