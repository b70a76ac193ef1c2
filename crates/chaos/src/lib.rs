//! Chaos harness: the shipped applications under seeded deterministic
//! fault injection.
//!
//! A [`FaultSpec`] names one counter-mode fault stream, so a
//! `(seed, rate)` pair names an exact fault schedule in virtual time —
//! any failing sweep case replays bit-for-bit. The harness runs each
//! application fault-free for a reference output, re-runs it under the
//! spec, and requires the recovered output to be
//! *bit-identical*: recovery that loses or doubles work shows up as a
//! diff, not a tolerance miss.
//!
//! The `chaos` binary (see `src/bin/chaos.rs`) sweeps apps × topologies
//! × rates × seeds and reports JSON; the crate's tests pin one seeded
//! scenario per defect class the runtime recovers from.

use ompss_apps::common::AppRun;
use ompss_apps::scenario::App;
use ompss_runtime::{FaultSpec, RuntimeConfig};

/// Run `app` at validation scale under `cfg`, panicking with the
/// error's `Display` on failure — for call sites that treat any
/// failure as fatal.
pub fn run_app(app: App, cfg: RuntimeConfig) -> AppRun {
    app.try_run(cfg).unwrap_or_else(|e| panic!("{app}: {e}"))
}

/// Chaos run of `app` on `cfg` under the fault stream `spec`. Retry budgets
/// are raised for probabilistic sweeps: at moderate rates a message
/// can be unlucky several times in a row, and the sweep asserts
/// recovery, not budget tuning. (The pinned defect-class tests keep
/// the default budgets.)
pub fn chaos_run(app: App, cfg: RuntimeConfig, spec: FaultSpec) -> AppRun {
    run_app(app, cfg.with_faults(spec).with_task_retry_budget(8).with_am_retry_budget(16))
}

/// Fetch the validation output of a run, which validation-scale app
/// configs always produce.
pub fn output_of(run: &AppRun) -> &[f32] {
    run.check.as_deref().expect("validation-scale app run carries its output")
}
