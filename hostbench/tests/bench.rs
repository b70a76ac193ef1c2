//! The benchmark's own tests: a shortened pass repeats exactly, the
//! output check can fail, and a stray `OMPSS_*` variable is refused.
//!
//! Run with `cargo test --release --manifest-path hostbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

use ompss_hostbench::trace::Tracer;
use ompss_hostbench::workloads::Workload;
use ompss_hostbench::Bench;

fn results() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../results"))
}

/// fig08 (memory-pressured N-Body, evictions) and fig13 (N-Body on the
/// cluster, with its MPI+CUDA baseline): small, and between them every
/// kind of point — OmpSs with embedded reports, and MPI.
fn short(workload: Workload, seed: u64) -> Bench {
    let mut b = Bench::setup(results(), workload, seed).expect("results/ loads");
    b.retain(|c| c.fig == "fig08" || c.fig == "fig13");
    assert!(!b.configs.is_empty());
    b
}

#[test]
fn shortened_pass_twice_has_identical_counts_and_outputs() {
    for (workload, seed) in [(Workload::PaperMultigpu, 0), (Workload::PaperCluster, 3)] {
        let mut b = short(workload, seed);
        let mut tr = Tracer::new(true);
        let first = b.pass(&mut tr);
        let second = b.pass(&mut tr);
        assert_eq!(first.failures(), Vec::<String>::new(), "{}", workload.name());
        // The second pass checks every metric and run report against the
        // first's, bit for bit; a difference would be a failure.
        assert_eq!(second.failures(), Vec::<String>::new(), "{}", workload.name());
        assert_eq!(first.counts(), second.counts());
        assert!(first.counts().events > 0);
        for (a, b) in first.runs.iter().zip(&second.runs) {
            assert_eq!(a.counts, b.counts);
        }
        // One span per run (repeats included) plus the pass and
        // check-set spans, per pass.
        let runs = |p: &ompss_hostbench::Pass| p.runs.len() as u64 + p.repeats + 2;
        assert_eq!(tr.spans().len() as u64, runs(&first) + runs(&second));
    }
}

#[test]
fn perturbed_reference_is_reported_as_a_failure() {
    let mut b = short(Workload::PaperMultigpu, 0);
    let label = b.configs[0].label();
    let committed = b.refs.point(&label).expect("committed point");
    b.refs.set_point(&label, committed.next_up());
    let pass = b.pass(&mut Tracer::new(false));
    let failures = pass.failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].starts_with(&label), "{failures:?}");
    assert!(pass.attempted() > failures.len() as u64);
}

#[test]
fn perturbed_reference_fails_only_at_seed_zero_for_ompss_points() {
    // At a nonzero seed the OmpSs points are checked for repeatability,
    // not against results/; the MPI baselines are seed-independent and
    // still checked.
    let mut b = short(Workload::PaperCluster, 5);
    let om = b.configs.iter().find(|c| !c.mpi).expect("an OmpSs point").label();
    let mpi = b.configs.iter().find(|c| c.mpi).expect("an MPI point").label();
    for label in [&om, &mpi] {
        let y = b.refs.point(label).expect("committed point");
        b.refs.set_point(label, y.next_up());
    }
    let failures = b.pass(&mut Tracer::new(false)).failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].starts_with(&mpi), "{failures:?}");
}

#[test]
fn stray_ompss_variable_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_hostbench"))
        .args(["--workload", "weak_scale", "--seed", "0", "--seconds", "1", "--trace", "0"])
        .env("OMPSS_SHARDS", "4")
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "printed a result despite the stray variable");
    assert!(String::from_utf8_lossy(&out.stderr).contains("OMPSS_SHARDS"));
}
