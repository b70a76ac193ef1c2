//! Elastic-membership tests: config validation (rejected before the
//! machine is built), and end-to-end planned joins/drains preserving
//! results on both control planes.

use ompss_mem::cast_slice_mut;
use ompss_runtime::{Device, RunError, RunReport, Runtime, RuntimeConfig, SimDuration, TaskSpec};

/// Two waves of blocked SMP "scale by 2" over eight arrays — enough
/// 100 µs tasks that a membership event armed a few hundred µs in lands
/// mid-run (the two-wave makespan is ~600 µs on a three-node cluster),
/// and enough distinct `DataId`s that the sharded plane homes slices on
/// every member. The taskwait between waves makes the second wave's
/// placement see the churned cluster.
fn run_two_wave(cfg: RuntimeConfig) -> (Vec<Vec<f32>>, RunReport) {
    const N: usize = 512;
    const BS: usize = 128;
    const ARRAYS: usize = 8;
    let out = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    let out2 = out.clone();
    let report = Runtime::run(cfg, move |omp| async move {
        let arrays: Vec<_> = (0..ARRAYS).map(|_| omp.alloc_array::<f32>(N)).collect();
        for a in &arrays {
            omp.write_array(a, 0, &(0..N).map(|i| i as f32).collect::<Vec<_>>());
        }
        for _wave in 0..2 {
            for a in arrays.clone() {
                omp.for_each_block(0..N, BS, |r| {
                    TaskSpec::new("scale")
                        .device(Device::Smp)
                        .inout(a.region(r))
                        .cost_smp(SimDuration::from_micros(100))
                        .body(|views| {
                            for x in cast_slice_mut::<f32>(views[0]) {
                                *x *= 2.0;
                            }
                        })
                })
                .await;
            }
            omp.taskwait().await;
        }
        *out2.lock() = arrays.iter().map(|a| omp.read_array(a, 0..N).unwrap()).collect::<Vec<_>>();
    });
    let v = out.lock().clone();
    (v, report)
}

fn assert_scaled_4x(arrays: &[Vec<f32>], ctx: &str) {
    let want: Vec<f32> = (0..512).map(|i| (i as f32) * 4.0).collect();
    for (k, a) in arrays.iter().enumerate() {
        assert_eq!(a, &want, "array {k} wrong under {ctx}");
    }
}

#[test]
fn heartbeat_period_must_undercut_lease_window() {
    // Rejected side: a period equal to the window means a node could
    // never renew between probes — a structured error, not a crash.
    let bad = RuntimeConfig::gpu_cluster(2)
        .with_heartbeat(SimDuration::from_micros(500), SimDuration::from_micros(500));
    match Runtime::try_run(bad, |omp| async move {
        omp.taskwait().await;
    }) {
        Err(RunError::InvalidConfig { what }) => {
            assert!(what.contains("heartbeat_period"), "unhelpful message: {what}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    // Accepted side: one nanosecond under the window is valid.
    let good = RuntimeConfig::gpu_cluster(2)
        .with_heartbeat(SimDuration::from_nanos(499_999), SimDuration::from_micros(500));
    Runtime::try_run(good, |omp| async move {
        omp.taskwait().await;
    })
    .expect("period < window is a valid lease config");
}

#[test]
fn membership_targets_outside_the_cluster_are_rejected() {
    // Builders check nothing: a target past the cluster or on the
    // master reaches try_run, which must fail closed.
    let cfg = RuntimeConfig::gpu_cluster(2).with_node_join(5, SimDuration::from_micros(10));
    match Runtime::try_run(cfg, |omp| async move {
        omp.taskwait().await;
    }) {
        Err(RunError::InvalidConfig { what }) => {
            assert!(what.contains("node_join"), "unhelpful message: {what}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    let cfg = RuntimeConfig::gpu_cluster(2).with_node_drain(0, SimDuration::from_micros(10));
    assert!(matches!(
        Runtime::try_run(cfg, |omp| async move {
            omp.taskwait().await;
        }),
        Err(RunError::InvalidConfig { .. })
    ));
    // Node 0 runs the program, so it is no planned-kill target either.
    let cfg = RuntimeConfig::gpu_cluster(2).with_node_loss(0, SimDuration::from_micros(10));
    match Runtime::try_run(cfg, |omp| async move {
        omp.taskwait().await;
    }) {
        Err(RunError::InvalidConfig { what }) => {
            assert!(what.contains("node_loss"), "unhelpful message: {what}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn planned_join_adds_a_node_mid_run_and_preserves_results() {
    for shards in [0u32, 3] {
        let mut cfg =
            RuntimeConfig::gpu_cluster(3).with_node_join(2, SimDuration::from_micros(300));
        if shards > 0 {
            cfg = cfg.with_sharded_control(shards);
        }
        let (v, report) = run_two_wave(cfg);
        assert_scaled_4x(&v, &format!("join, shards={shards}"));
        assert_eq!(report.counters.nodes_joined, 1, "shards={shards}");
        assert_eq!(report.counters.nodes_drained, 0, "shards={shards}");
        if shards > 0 {
            // The joiner took ownership of part of the DataId space;
            // the idle slices must have been re-homed onto it.
            assert!(report.counters.regions_rebalanced > 0, "sharded join moved no slices");
        }
    }
}

#[test]
fn planned_drain_retires_a_node_mid_run_and_preserves_results() {
    for shards in [0u32, 3] {
        let mut cfg =
            RuntimeConfig::gpu_cluster(3).with_node_drain(2, SimDuration::from_micros(300));
        if shards > 0 {
            cfg = cfg.with_sharded_control(shards);
        }
        let (v, report) = run_two_wave(cfg);
        assert_scaled_4x(&v, &format!("drain, shards={shards}"));
        assert_eq!(report.counters.nodes_drained, 1, "shards={shards}");
        assert_eq!(report.counters.nodes_joined, 0, "shards={shards}");
        // Draining always costs data movement: the flat plane flushes
        // the leaver's dirty cache home; the sharded plane additionally
        // re-homes every slice the leaver owned.
        assert!(report.counters.bytes_migrated > 0, "drain moved no bytes (shards={shards})");
        if shards > 0 {
            assert!(report.counters.regions_rebalanced > 0, "sharded drain moved no slices");
        }
    }
}

#[test]
fn drain_after_the_makespan_changes_nothing() {
    // A drain planned past the end of the program must stand down: no
    // membership activity, identical results and makespan to the
    // unarmed run (the zero-cost pin checks the full report bytes).
    let base = run_two_wave(RuntimeConfig::gpu_cluster(3));
    let armed = run_two_wave(
        RuntimeConfig::gpu_cluster(3).with_node_drain(2, SimDuration::from_millis(100)),
    );
    assert_eq!(armed.0, base.0);
    assert_eq!(armed.1.makespan, base.1.makespan);
    assert_eq!(armed.1.counters.nodes_drained, 0);
    assert_eq!(armed.1.counters.regions_rebalanced, 0);
    assert_eq!(armed.1.counters.bytes_migrated, 0);
}

#[test]
fn join_then_drain_of_the_same_node_round_trips() {
    // Node 2 comes up at 200 µs and leaves again at 500 µs: both
    // events land mid-run and results survive the double rebalance.
    let cfg = RuntimeConfig::gpu_cluster(3)
        .with_sharded_control(3)
        .with_node_join(2, SimDuration::from_micros(200))
        .with_node_drain(2, SimDuration::from_micros(500));
    let (v, report) = run_two_wave(cfg);
    assert_scaled_4x(&v, "join+drain round trip");
    assert_eq!(report.counters.nodes_joined, 1);
    assert_eq!(report.counters.nodes_drained, 1);
    assert!(report.counters.bytes_migrated > 0);
}
