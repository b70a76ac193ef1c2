//! Seeded scenarios pinning one recovery path per defect class. Each
//! test arms a quiet fault plan with exactly the class under test, so
//! the run exercises that path and nothing else, and asserts both that
//! the recovery machinery fired (counters) and that it was lossless
//! (bit-identical output).

use std::sync::Arc;

use ompss_apps::scenario::App;
use ompss_chaos::{chaos_run, output_of, run_app};
use ompss_core::Device;
use ompss_mem::cast_slice_mut;
use ompss_runtime::{
    FaultClass, FaultPlan, KernelCost, RunError, Runtime, RuntimeConfig, TaskSpec,
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

#[test]
fn kernel_failure_reexecuted_once() {
    let cfg = RuntimeConfig::multi_gpu(2);
    let reference = output_of(&run_app(App::Matmul, cfg.clone())).to_vec();
    let plan = Arc::new(FaultPlan::quiet(3).with_forced(FaultClass::KernelFail, 1));
    let run = chaos_run(App::Matmul, cfg, plan);
    let rep = run.report.as_ref().expect("report");
    assert_eq!(rep.counters.tasks_reexecuted, 1, "exactly the forced failure re-executes");
    assert_eq!(output_of(&run), reference.as_slice(), "recovery must be lossless");
}

#[test]
fn device_loss_migrates_queued_work() {
    let cfg = RuntimeConfig::multi_gpu(2);
    let reference = output_of(&run_app(App::Stream, cfg.clone())).to_vec();
    let plan = Arc::new(FaultPlan::quiet(7).with_forced(FaultClass::DeviceLoss, 1));
    let run = chaos_run(App::Stream, cfg, plan);
    let rep = run.report.as_ref().expect("report");
    assert_eq!(rep.counters.devices_lost, 1, "the forced loss takes one device");
    assert_eq!(output_of(&run), reference.as_slice(), "migration must be lossless");
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
