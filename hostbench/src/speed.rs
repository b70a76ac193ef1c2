//! Host-speed probe.
//!
//! This host shares its memory system with other machines, and its speed
//! drifts in phases of tens of seconds: the same pass can take 1.7× as
//! long a minute later. A pure-compute loop does not see the drift, and
//! the simulator's CPU time tracks its wall time, so this is not
//! preemption. A memory-bound loop slows down together with the
//! simulator.
//!
//! [`probe_ns`] is a small, frozen event loop with the simulator's kind
//! of memory traffic: a binary heap of timed events, per-entity state in
//! heap vectors, and one boxed handler per event. Its cost depends only
//! on the host.
//!
//! After every configuration the benchmark probes for a twentieth of the
//! run's time, at least once ([`probe_after`]). A run's host speed is
//! [`REFERENCE_NS`] ÷ the median probe time within [`WINDOW_S`] of the
//! run ([`speed_between`]). The end-to-end timings are reported at
//! reference speed. The probe lives in the benchmark, so no program
//! change can move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use crate::median;

/// Entities whose state the probe's events update.
const ENTITIES: u64 = 4096;
/// Events per probe.
const EVENTS: u64 = 15_000;

/// Share of a run's host time spent probing after it.
const PROBE_SHARE: f64 = 0.05;
/// Probes taken up to this many seconds before a run starts or after it
/// ends set its speed: drift phases last 10 s and more.
pub const WINDOW_S: f64 = 0.5;

/// The probe's time at reference speed: about its median on the 2-vCPU
/// reference host this benchmark was calibrated on. It only sets the
/// scale of the reported seconds.
pub const REFERENCE_NS: f64 = 1_000_000.0;

fn next(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *x >> 17
}

/// Run the probe once; host nanoseconds it took.
pub fn probe_ns() -> u64 {
    let t0 = Instant::now();
    let mut state: Vec<Vec<u64>> = (0..ENTITIES).map(|e| vec![e; 8]).collect();
    let mut heap = BinaryHeap::new();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..1024 {
        heap.push(Reverse((i, next(&mut rng) % ENTITIES)));
    }
    let mut acc = 0u64;
    for _ in 0..EVENTS {
        let Reverse((t, e)) = heap.pop().expect("the heap never drains");
        let s = &mut state[e as usize];
        let slot = (t % 8) as usize;
        s[slot] = s[slot].wrapping_add(t);
        acc ^= s[0];
        let handler: Box<dyn Fn(u64) -> u64> = Box::new(move |x| x.wrapping_add(t));
        heap.push(Reverse((handler(t) + 1 + next(&mut rng) % 64, next(&mut rng) % ENTITIES)));
    }
    black_box(acc);
    t0.elapsed().as_nanos() as u64
}

/// Probe after a run of `run_ns`: at least once, and until a twentieth
/// of the run's time has passed. Appends `(seconds since epoch, probe
/// ns)` to `out`.
pub fn probe_after(run_ns: u64, epoch: Instant, out: &mut Vec<(f64, u64)>) {
    let start = Instant::now();
    let budget_ns = run_ns as f64 * PROBE_SHARE;
    loop {
        let at = epoch.elapsed().as_secs_f64();
        out.push((at, probe_ns()));
        if start.elapsed().as_nanos() as f64 >= budget_ns {
            break;
        }
    }
}

/// Host speed relative to reference over `[from_s - WINDOW_S, to_s +
/// WINDOW_S]`, from the probes taken in that interval (all probes if
/// none fall in it).
pub fn speed_between(probes: &[(f64, u64)], from_s: f64, to_s: f64) -> f64 {
    let near: Vec<f64> = probes
        .iter()
        .filter(|(at, _)| (from_s - WINDOW_S..=to_s + WINDOW_S).contains(at))
        .map(|&(_, ns)| ns as f64)
        .collect();
    if near.is_empty() {
        let all: Vec<f64> = probes.iter().map(|&(_, ns)| ns as f64).collect();
        return REFERENCE_NS / median(&all);
    }
    REFERENCE_NS / median(&near)
}
