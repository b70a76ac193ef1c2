//! Memory footprint of a process at cluster scale: one million trivial
//! processes (spawn, one yield, exit), a stand-in for the thousand-node
//! × multi-GPU worker/manager/pump population.
//!
//! The peak-RSS bound is one an OS-thread-per-process design (8 MiB
//! stacks) would exceed by orders of magnitude. `VmHWM` counts the whole
//! process, so this test lives in a test binary of its own and is
//! `#[ignore]`d; run it in release:
//!
//! ```text
//! cargo test --release -p ompss-sim --test spawn_scale -- --ignored
//! ```

/// Trivial processes spawned.
const PROCESSES: u64 = 1_000_000;

/// Peak-RSS growth allowed: ~512 bytes of heap per in-flight process,
/// with slack for the run queue and allocator overhead.
const RSS_BOUND_BYTES: u64 = 512 << 20;

/// Peak resident set size of this process so far, in bytes (Linux
/// `VmHWM`; 0 where unavailable).
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

#[test]
#[ignore = "spawns 1M processes and measures whole-process peak RSS; run in release"]
fn million_processes_stay_small_heap_objects() {
    let rss_before = peak_rss_bytes();
    let sim = ompss_sim::Sim::new();
    sim.spawn("spawner", async {
        for i in 0..PROCESSES {
            ompss_sim::spawn(("p", i), async {
                ompss_sim::yield_now().await.unwrap();
            });
        }
    });
    let rep = sim.run().expect("spawn run completes");
    assert_eq!(rep.processes as u64, PROCESSES + 1);
    let rss_delta = peak_rss_bytes().saturating_sub(rss_before);
    assert!(
        rss_delta < RSS_BOUND_BYTES,
        "1M stackless processes grew peak RSS by {} MiB (bound {} MiB); \
         a process stopped being one small heap object",
        rss_delta >> 20,
        RSS_BOUND_BYTES >> 20,
    );
}
