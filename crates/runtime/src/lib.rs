//! # ompss-runtime — the Nanos++-equivalent runtime
//!
//! The task-parallel runtime of Bueno et al. (IPPS 2012), rebuilt over
//! deterministic simulated hardware. The same annotated program —
//! tasks with `input`/`output`/`inout` clauses targeting `smp` or
//! `cuda` — runs unchanged on one GPU, a multi-GPU node, or a cluster
//! of GPU nodes; the runtime distributes the work, moves the data
//! (hierarchical caches, write-back by default), overlaps communication
//! with computation (presend, prefetch, pinned-buffer overlap), and
//! schedules for locality.
//!
//! ```
//! use ompss_core::Device;
//! use ompss_runtime::{Runtime, RuntimeConfig, TaskSpec};
//! use ompss_sim::SimDuration;
//!
//! let report = Runtime::run(RuntimeConfig::multi_gpu(2), |omp| async move {
//!     let a = omp.alloc_array::<f32>(1024);
//!     omp.write_array(&a, 0, &vec![1.0f32; 1024]);
//!     for chunk in 0..4 {
//!         let r = a.region(chunk * 256..(chunk + 1) * 256);
//!         omp.submit(
//!             TaskSpec::new("scale")
//!                 .device(Device::Smp)
//!                 .inout(r)
//!                 .cost_smp(SimDuration::from_micros(50))
//!                 .body(move |views| {
//!                     for x in ompss_mem::cast_slice_mut::<f32>(views[0]) {
//!                         *x *= 2.0;
//!                     }
//!                 }),
//!         )
//!         .await;
//!     }
//!     omp.taskwait().await;
//!     assert_eq!(omp.read_array(&a, 0..1).unwrap(), vec![2.0]);
//! });
//! assert_eq!(report.tasks, 4);
//! ```

#![warn(missing_docs)]

mod config;
mod engine;
mod exec;
mod lineage;
mod recover;
mod runtime;
pub mod stats;
mod task;
pub mod trace;
mod verify;

pub use config::{CachePolicy, EnvSetter, RuntimeConfig, SlaveRouting, ENV_OVERRIDES};
pub use exec::ClusterMsg;
pub use runtime::{ArrayHandle, Omp, RunReport, Runtime, TaskHandle};
pub use stats::{CounterSnapshot, Counters, ResourceBusy};
pub use task::{TaskBody, TaskCost, TaskRecord, TaskSpec};
pub use trace::{ParaverTrace, TraceEvent, TraceResource};
pub use verify::{TaskAccess, VerifyData};

// Re-exports for downstream ergonomics (apps, benches).
pub use ompss_core::{Device, GraphLint, TaskId};
pub use ompss_cudasim::{GpuSpec, KernelCost};
pub use ompss_mem::{Backing, Region};
pub use ompss_sched::Policy;
pub use ompss_sim::{
    Backoff, DeviceFuse, FaultClass, FaultSpec, FaultStats, ProcState, RunError, SimDuration,
    SimTime,
};

/// Destructure a task body's byte views into typed mutable slices, in
/// clause order:
///
/// ```
/// # use ompss_runtime::task_views;
/// # let mut a = [0u8; 8]; let mut b = [0u8; 8];
/// # let mut views_vec: Vec<&mut [u8]> = vec![&mut a, &mut b];
/// # let v: &mut [&mut [u8]] = &mut views_vec;
/// task_views!(v => xs: f32, ys: f32);
/// ys[0] = xs[1] * 2.0;
/// ```
///
/// Inputs may of course be used immutably; the macro exists so task
/// bodies read like the kernels they wrap instead of slice plumbing.
#[macro_export]
macro_rules! task_views {
    ($v:expr => $($name:ident : $ty:ty),+ $(,)?) => {
        let mut __views = $v.iter_mut();
        $(
            let $name: &mut [$ty] = $crate::cast_slice_mut::<$ty>(
                &mut **__views.next().expect("task body: missing view"),
            );
        )+
    };
}

// The macro body needs these at `$crate::` paths.
#[doc(hidden)]
pub use ompss_mem::cast_slice_mut;
