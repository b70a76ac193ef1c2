//! # ompss-hostbench — the host cost of producing the paper's figures
//!
//! The simulator's figures are measured in virtual time; its users pay
//! in host time. This benchmark runs each workload's figure grid one
//! configuration at a time on one host thread (a closed loop of one),
//! times every run, and checks every output: against the committed
//! `results/` at seed 0, against the first pass of the same process at
//! any seed, and against the serial references on a small real-data
//! set. A traced mode adds per-layer counts from the run reports and
//! replays of each layer's public API. See `hostbench/README.md`.

pub mod check;
pub mod replay;
pub mod speed;
pub mod trace;
pub mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ompss_runtime::RunReport;

use check::{Outputs, RealCheck, References};
use trace::Tracer;
use workloads::{Config, Workload};

/// Exact per-run counts taken from a [`RunReport`]. They repeat bit for
/// bit at a given seed, so two sets of runs compare them exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// DES events processed.
    pub events: u64,
    /// Distinct virtual-clock advances.
    pub clock_advances: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// Ready-queue high-water mark (max over runs when summed).
    pub max_queued: u64,
    /// Tasks obtained by stealing.
    pub steals: u64,
    /// Tasks handed out from a resource's own queue.
    pub local_hits: u64,
    /// Scheduling decisions: local, global and stolen hand-outs.
    pub decisions: u64,
    /// Coherence acquire hits.
    pub coh_hits: u64,
    /// Coherence acquire misses.
    pub coh_misses: u64,
    /// Coherence transfers.
    pub transfers: u64,
    /// Bytes moved by coherence.
    pub bytes_moved: u64,
    /// Cache evictions.
    pub evictions: u64,
    /// Write-backs.
    pub writebacks: u64,
    /// `ShardMap` home lookups.
    pub shard_lookups: u64,
    /// Peer-to-peer input resolutions.
    pub peer_resolutions: u64,
    /// Fabric messages.
    pub net_messages: u64,
    /// Fabric bytes.
    pub net_bytes: u64,
    /// Bytes on the busiest directed link (summed over runs).
    pub hot_link_bytes: u64,
    /// Short active messages.
    pub am_shorts: u64,
    /// Long active messages.
    pub am_longs: u64,
    /// GPU kernels launched.
    pub kernels: u64,
    /// Host↔device bytes.
    pub pcie_bytes: u64,
}

impl Counts {
    /// The counts of one run report.
    pub fn of(r: &RunReport) -> Counts {
        let hot = r.net.link_bytes.iter().flatten().copied().max().unwrap_or(0);
        Counts {
            events: r.events,
            clock_advances: r.clock_advances,
            tasks: r.tasks,
            max_queued: r.sched.max_queued,
            steals: r.sched.steals,
            local_hits: r.sched.local_hits,
            decisions: r.sched.local_hits + r.sched.global_hits + r.sched.steals,
            coh_hits: r.coherence.hits,
            coh_misses: r.coherence.misses,
            transfers: r.coherence.transfers,
            bytes_moved: r.coherence.bytes_moved,
            evictions: r.coherence.evictions,
            writebacks: r.coherence.writebacks,
            shard_lookups: r.counters.shard_lookups,
            peer_resolutions: r.counters.peer_resolutions,
            net_messages: r.net.messages,
            net_bytes: r.net.bytes_total,
            hot_link_bytes: hot,
            am_shorts: r.am.shorts,
            am_longs: r.am.longs,
            kernels: r.gpus.iter().map(|(_, g)| g.kernels).sum(),
            pcie_bytes: r.gpus.iter().map(|(_, g)| g.h2d_bytes + g.d2h_bytes).sum(),
        }
    }

    /// Accumulate another run's counts (`max_queued` takes the max).
    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.clock_advances += o.clock_advances;
        self.tasks += o.tasks;
        self.max_queued = self.max_queued.max(o.max_queued);
        self.steals += o.steals;
        self.local_hits += o.local_hits;
        self.decisions += o.decisions;
        self.coh_hits += o.coh_hits;
        self.coh_misses += o.coh_misses;
        self.transfers += o.transfers;
        self.bytes_moved += o.bytes_moved;
        self.evictions += o.evictions;
        self.writebacks += o.writebacks;
        self.shard_lookups += o.shard_lookups;
        self.peer_resolutions += o.peer_resolutions;
        self.net_messages += o.net_messages;
        self.net_bytes += o.net_bytes;
        self.hot_link_bytes += o.hot_link_bytes;
        self.am_shorts += o.am_shorts;
        self.am_longs += o.am_longs;
        self.kernels += o.kernels;
        self.pcie_bytes += o.pcie_bytes;
    }
}

/// Runs shorter than this are repeated until their times add up to it.
/// Millisecond runs are dominated by timer and cache noise, and the
/// smallest machines' runs are the base of `host_cost_growth`.
pub const MIN_SAMPLE_NS: u64 = 10_000_000;

/// One configuration's run within a pass.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// Start of the run, seconds since the pass started.
    pub start_s: f64,
    /// Host nanoseconds of the run (the median of its repeats).
    pub host_ns: u64,
    /// Report counts (OmpSs versions only).
    pub counts: Option<Counts>,
    /// Why the run counts as failed, if it does.
    pub failure: Option<String>,
}

/// One pass over a workload's configurations plus its real-data checks.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Per-configuration runs, in grid order.
    pub runs: Vec<PointRun>,
    /// Extra runs of configurations repeated for being short.
    pub repeats: u64,
    /// Real-data checks attempted in this pass.
    pub checks: u64,
    /// Failure reasons of the real-data checks.
    pub check_failures: Vec<String>,
    /// Host seconds of the whole figure loop, including output checks
    /// and span recording (the tracing-overhead base).
    pub loop_s: f64,
    /// Host-speed probes: (seconds since the pass started, probe ns).
    pub probes: Vec<(f64, u64)>,
}

impl Pass {
    /// The host's median speed during this pass relative to the
    /// reference speed (below 1 when slower).
    pub fn speed(&self) -> f64 {
        speed::speed_between(&self.probes, f64::NEG_INFINITY, f64::INFINITY)
    }

    /// The pass with every run time rescaled to reference host speed,
    /// each by the speed probed around that run.
    pub fn at_reference_speed(&self) -> Pass {
        let mut p = self.clone();
        for r in &mut p.runs {
            let end_s = r.start_s + r.host_ns as f64 / 1e9;
            let speed = speed::speed_between(&self.probes, r.start_s, end_s);
            r.host_ns = (r.host_ns as f64 * speed).round() as u64;
        }
        p
    }

    /// Host seconds of the figure runs (the closed loop's busy time).
    pub fn wall_s(&self) -> f64 {
        self.runs.iter().map(|r| r.host_ns).sum::<u64>() as f64 / 1e9
    }

    /// Host seconds of the slowest single configuration.
    pub fn slowest_run_s(&self) -> f64 {
        self.runs.iter().map(|r| r.host_ns).max().unwrap_or(0) as f64 / 1e9
    }

    /// Runs attempted (figure runs, repeats included, plus real-data
    /// checks).
    pub fn attempted(&self) -> u64 {
        self.runs.len() as u64 + self.repeats + self.checks
    }

    /// Every failure reason of the pass.
    pub fn failures(&self) -> Vec<String> {
        let mut f: Vec<String> = self.runs.iter().filter_map(|r| r.failure.clone()).collect();
        f.extend(self.check_failures.iter().cloned());
        f
    }

    /// Host µs per simulated task over the runs on a machine of `size`.
    pub fn host_us_per_task(&self, configs: &[Config], size: u32) -> f64 {
        let (mut ns, mut tasks) = (0u64, 0u64);
        for (c, r) in configs.iter().zip(&self.runs) {
            if let (true, Some(k)) = (c.machine == size, &r.counts) {
                ns += r.host_ns;
                tasks += k.tasks;
            }
        }
        ratio(ns as f64 / 1e3, tasks as f64)
    }

    /// Host µs per task at the workload's largest machine over the same
    /// at its smallest.
    pub fn host_cost_growth(&self, configs: &[Config], workload: Workload) -> f64 {
        let (small, large) = workload.machine_range();
        ratio(self.host_us_per_task(configs, large), self.host_us_per_task(configs, small))
    }

    /// Summed report counts of the pass.
    pub fn counts(&self) -> Counts {
        let mut total = Counts::default();
        for k in self.runs.iter().filter_map(|r| r.counts.as_ref()) {
            total.add(k);
        }
        total
    }
}

/// Run one configuration, catching panics; `Err` carries the reason.
pub fn run_config(cfg: &Config, seed: u64) -> (u64, Result<ompss_apps::common::AppRun, String>) {
    let t0 = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(|| (cfg.run)(seed)));
    let ns = t0.elapsed().as_nanos() as u64;
    let r = match r {
        Ok(Ok(run)) => Ok(run),
        Ok(Err(e)) => Err(format!("{}: run error: {e}", cfg.label())),
        Err(p) => Err(format!("{}: panicked: {}", cfg.label(), panic_message(&p))),
    };
    (ns, r)
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Everything a pass needs: the grid, its references and checks.
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// Scheduler seed (0 = committed grid).
    pub seed: u64,
    /// The figure grid.
    pub configs: Vec<Config>,
    /// Committed figure values.
    pub refs: References,
    /// The real-data check set.
    pub checks: Vec<RealCheck>,
    /// Outputs of the first pass, the reference for later passes.
    first: Option<Vec<Option<Outputs>>>,
}

impl Bench {
    /// Load references and build the grid and check set.
    pub fn setup(
        results: &std::path::Path,
        workload: Workload,
        seed: u64,
    ) -> Result<Bench, String> {
        let refs = References::load(results, workload)?;
        let configs = workload.configs();
        let checks = check::real_checks(workload);
        Ok(Bench { workload, seed, configs, refs, checks, first: None })
    }

    /// Keep only the configurations `keep` accepts (tests run a
    /// shortened pass).
    pub fn retain(&mut self, keep: impl FnMut(&Config) -> bool) {
        self.configs.retain(keep);
        self.first = None;
    }

    /// One pass: every configuration in order (short ones repeated, see
    /// [`MIN_SAMPLE_NS`]), then the real-data check set. Spans (when
    /// tracing) are `rt.run` per OmpSs run and `net.mpi_run` per MPI
    /// baseline, run id = grid index, under one `pass` span; the check
    /// set runs under `check.real`.
    pub fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        // Outputs are kept only from the first pass, as the reference
        // for later ones: a run's memory must not grow with its passes.
        let mut first_outputs = Vec::new();
        let t0 = Instant::now();
        tracer.begin("pass", 0);
        for (i, cfg) in self.configs.iter().enumerate() {
            let name = if cfg.mpi { "net.mpi_run" } else { "rt.run" };
            let start_s = t0.elapsed().as_secs_f64();
            let (mut times, mut total) = (Vec::new(), 0u64);
            let (mut outputs, mut counts, mut failure) = (None, None, None);
            // A short run is repeated until the runs add up to
            // MIN_SAMPLE_NS; the configuration's time is their median.
            while failure.is_none() && (times.is_empty() || total < MIN_SAMPLE_NS) {
                tracer.begin(name, i as u64);
                let (ns, r) = run_config(cfg, self.seed);
                tracer.end();
                times.push(ns as f64);
                total += ns;
                let run = match r {
                    Ok(run) => run,
                    Err(why) => {
                        failure = Some(why);
                        break;
                    }
                };
                let out = Outputs::of(&run);
                match &outputs {
                    None => {
                        let first = self.first.as_ref().and_then(|f| f[i].as_ref());
                        failure = check::check_point(&self.refs, cfg, self.seed, &out, first).err();
                        counts = run.report.as_ref().map(Counts::of);
                        outputs = Some(out);
                    }
                    Some(o) if *o != out => {
                        failure = Some(format!("{}: repeated run differs", cfg.label()));
                    }
                    Some(_) => {}
                }
            }
            pass.repeats += times.len() as u64 - 1;
            let host_ns = median(&times).round() as u64;
            pass.runs.push(PointRun { start_s, host_ns, counts, failure });
            first_outputs.push(outputs);
            speed::probe_after(total, t0, &mut pass.probes);
        }
        pass.loop_s = t0.elapsed().as_secs_f64();
        tracer.begin("check.real", 0);
        for c in &self.checks {
            pass.checks += 1;
            let r = catch_unwind(AssertUnwindSafe(|| (c.run)(self.seed)));
            match r {
                Ok(Ok(())) => {}
                Ok(Err(why)) => pass.check_failures.push(why),
                Err(p) => pass.check_failures.push(format!(
                    "{}: panicked: {}",
                    c.label,
                    panic_message(&p)
                )),
            }
        }
        tracer.end();
        tracer.end();
        if self.first.is_none() {
            self.first = Some(first_outputs);
        }
        pass
    }
}

/// `num / den`, or 0 when there is nothing to divide by (a workload
/// without the measured activity).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
