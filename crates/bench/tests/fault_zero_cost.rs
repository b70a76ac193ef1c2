//! The fault-injection machinery must cost nothing when disarmed.
//!
//! Every timing in EXPERIMENTS.md predates the chaos subsystem, so the
//! injection sites and the reliable-delivery protocol may only exist
//! behind `Option` checks that a fault-free run never enters: with
//! `OMPSS_FAULT_RATE=0` (the default) the run's deterministic
//! fingerprint — makespan, event count, clock advances, task count —
//! and the computed results must be byte-identical to a config that
//! never heard of faults, and every recovery counter must stay zero.

use ompss_apps::matmul::ompss::InitMode;
use ompss_apps::matmul::{self, MatmulParams};
use ompss_runtime::{FaultSpec, RunReport, RuntimeConfig};

fn fingerprint(r: &RunReport) -> (u64, u64, u64, u64) {
    (r.makespan.as_nanos(), r.events, r.clock_advances, r.tasks)
}

fn assert_disarmed_is_free(cfg: RuntimeConfig) {
    let run = |cfg: RuntimeConfig| matmul::ompss::run(cfg, MatmulParams::validate(), InitMode::Smp);
    // Rate 0 with a seed and raised budgets: the knobs are set but no
    // fault can ever fire, so the plan must not be armed at all.
    let disarmed = cfg
        .clone()
        .with_faults(FaultSpec::new(42, 0.0))
        .with_task_retry_budget(10)
        .with_am_retry_budget(10);
    let (base, zero) = (run(cfg), run(disarmed));
    let (base_rep, zero_rep) = (base.report.as_ref().unwrap(), zero.report.as_ref().unwrap());
    assert_eq!(
        fingerprint(base_rep),
        fingerprint(zero_rep),
        "a disarmed fault plan changed the virtual-time fingerprint"
    );
    assert_eq!(base.check, zero.check, "a disarmed fault plan changed the results");
    assert!(zero_rep.faults.is_none(), "rate 0 must not arm a plan");
    let c = &zero_rep.counters;
    assert_eq!(
        (c.am_retries, c.tasks_reexecuted, c.devices_lost, c.msgs_dropped),
        (0, 0, 0, 0),
        "recovery counters must stay zero without faults"
    );
    assert_eq!(
        (c.nodes_lost, c.tasks_relineaged, c.bytes_reconstructed, c.heartbeats_missed),
        (0, 0, 0, 0),
        "node-loss counters must stay zero without faults"
    );
}

/// Node-loss knobs (heartbeat period, lease window, lineage budget) are
/// inert without an armed kill: no heartbeat traffic, no lease
/// tracking, no lineage retention — the fingerprint and the results
/// must be byte-identical to a config that never heard of them.
fn assert_node_loss_knobs_are_free(cfg: RuntimeConfig) {
    use ompss_runtime::SimDuration;
    let run = |cfg: RuntimeConfig| matmul::ompss::run(cfg, MatmulParams::validate(), InitMode::Smp);
    let tuned = cfg
        .clone()
        .with_heartbeat(SimDuration::from_micros(50), SimDuration::from_micros(250))
        .with_lineage_depth(7);
    let (base, idle) = (run(cfg), run(tuned));
    let (base_rep, idle_rep) = (base.report.as_ref().unwrap(), idle.report.as_ref().unwrap());
    assert_eq!(
        fingerprint(base_rep),
        fingerprint(idle_rep),
        "unarmed node-loss knobs changed the virtual-time fingerprint"
    );
    assert_eq!(base.check, idle.check, "unarmed node-loss knobs changed the results");
    assert!(idle_rep.faults.is_none(), "heartbeat/lineage knobs alone must not arm a plan");
    let c = &idle_rep.counters;
    assert_eq!(
        (c.nodes_lost, c.heartbeats_missed, c.tasks_relineaged, c.bytes_reconstructed),
        (0, 0, 0, 0),
        "node-loss counters must stay zero without an armed kill"
    );
}

/// Elastic-membership machinery is opt-in twice over: arming a drain
/// far past the makespan means the daemon stands down without firing,
/// and the run must be byte-identical to one that never heard of
/// membership — same makespan, same task count, same results, zero
/// membership counters, and a counters JSON report with no
/// `membership` section (the section is conditional so historical
/// report bytes stay stable). Events are not pinned: the parked
/// daemon's own timer exists, as with `kill_after_completion`.
fn assert_membership_knobs_are_free(cfg: RuntimeConfig) {
    use ompss_json::ToJson;
    use ompss_runtime::SimDuration;
    let run = |cfg: RuntimeConfig| matmul::ompss::run(cfg, MatmulParams::validate(), InitMode::Smp);
    let armed = cfg.clone().with_node_drain(1, SimDuration::from_millis(100));
    let (base, idle) = (run(cfg), run(armed));
    let (base_rep, idle_rep) = (base.report.as_ref().unwrap(), idle.report.as_ref().unwrap());
    assert_eq!(
        (base_rep.makespan, base_rep.tasks),
        (idle_rep.makespan, idle_rep.tasks),
        "a drain planned past the makespan changed the schedule"
    );
    assert_eq!(base.check, idle.check, "a drain planned past the makespan changed the results");
    let c = &idle_rep.counters;
    assert_eq!(
        (c.nodes_joined, c.nodes_drained, c.regions_rebalanced, c.bytes_migrated),
        (0, 0, 0, 0),
        "membership counters must stay zero when no churn fired"
    );
    let (base_json, idle_json) = (
        base_rep.counters.to_json().to_pretty_string(),
        idle_rep.counters.to_json().to_pretty_string(),
    );
    assert_eq!(base_json, idle_json, "unfired membership knobs changed the report bytes");
    assert!(
        !idle_json.contains("\"membership\""),
        "a quiet run must not grow a membership report section"
    );
}

#[test]
fn matmul_multigpu_timing_unchanged_by_disarmed_faults() {
    assert_disarmed_is_free(RuntimeConfig::multi_gpu(2));
}

#[test]
fn matmul_cluster_timing_unchanged_by_disarmed_faults() {
    assert_disarmed_is_free(RuntimeConfig::gpu_cluster(2));
}

#[test]
fn matmul_multigpu_timing_unchanged_by_unarmed_node_loss_knobs() {
    assert_node_loss_knobs_are_free(RuntimeConfig::multi_gpu(2));
}

#[test]
fn matmul_cluster_timing_unchanged_by_unarmed_node_loss_knobs() {
    assert_node_loss_knobs_are_free(RuntimeConfig::gpu_cluster(2));
}

#[test]
fn matmul_cluster_timing_unchanged_by_unfired_membership_knobs() {
    assert_membership_knobs_are_free(RuntimeConfig::gpu_cluster(2));
}

#[test]
fn matmul_sharded_cluster_timing_unchanged_by_unfired_membership_knobs() {
    assert_membership_knobs_are_free(RuntimeConfig::gpu_cluster(3).with_sharded_control(3));
}
