//! Output correctness: the committed `results/` references and the
//! real-data check set.
//!
//! Every run either matches its reference or counts as failed. At seed
//! 0 a figure point's reference is the committed `results/<fig>.json`
//! value, bit for bit, and — where the figure embeds one — the full run
//! report. At any seed the MPI+CUDA baselines (which take no scheduler
//! seed) still match `results/`, later passes must repeat the first
//! pass's outputs exactly, and the small real-data set must equal the
//! serial references of `crates/apps/*/serial.rs` bit for bit.

use std::collections::HashMap;
use std::path::Path;

use ompss_apps::common::AppRun;
use ompss_apps::matmul::{self, ompss::InitMode};
use ompss_apps::{nbody, perlin, stream};
use ompss_cudasim::GpuSpec;
use ompss_json::{Json, ToJson};
use ompss_net::FabricConfig;
use ompss_runtime::{Backing, RunError, RuntimeConfig};

use crate::workloads::{Config, Workload};

/// The committed figure values of one workload.
#[derive(Debug, Clone, Default)]
pub struct References {
    /// `fig/series@x` → committed y value.
    points: HashMap<String, f64>,
    /// `fig/report-key` → committed report, re-serialised compactly.
    reports: HashMap<String, String>,
}

impl References {
    /// Load the references of `workload`'s figures from `results`.
    pub fn load(results: &Path, workload: Workload) -> Result<References, String> {
        let mut refs = References::default();
        for fig in workload.figures() {
            let path = results.join(format!("{fig}.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let doc = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
            let bad = |what: &str| format!("{}: {what}", path.display());
            let Some(Json::Arr(series)) = doc.get("series") else { return Err(bad("no series")) };
            for s in series {
                let Some(Json::Str(label)) = s.get("label") else { return Err(bad("label")) };
                let Some(Json::Arr(points)) = s.get("points") else { return Err(bad("points")) };
                for p in points {
                    let (Some(Json::Str(x)), Some(y)) = (p.get("x"), p.get("y")) else {
                        return Err(bad("point"));
                    };
                    let y = match y {
                        Json::F64(v) => *v,
                        Json::U64(v) => *v as f64,
                        _ => return Err(bad("y")),
                    };
                    refs.points.insert(format!("{fig}/{label}@{x}"), y);
                }
            }
            if let Some(Json::Obj(reports)) = doc.get("reports") {
                for (key, rep) in reports {
                    refs.reports.insert(format!("{fig}/{key}"), rep.to_compact_string());
                }
            }
        }
        Ok(refs)
    }

    /// Replace one committed value (the check's self-test perturbs a
    /// reference to prove a mismatch is caught).
    pub fn set_point(&mut self, label: &str, y: f64) {
        self.points.insert(label.to_string(), y);
    }

    /// The committed value of a figure point.
    pub fn point(&self, label: &str) -> Option<f64> {
        self.points.get(label).copied()
    }
}

/// The virtual outputs of one figure run that later passes must repeat.
#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    /// Bits of the figure metric.
    pub metric_bits: u64,
    /// The compact run report (OmpSs versions only).
    pub report: Option<String>,
}

impl Outputs {
    /// Capture a run's virtual outputs.
    pub fn of(run: &AppRun) -> Outputs {
        Outputs {
            metric_bits: run.metric.to_bits(),
            report: run.report.as_ref().map(|r| r.to_json().to_compact_string()),
        }
    }
}

/// Check one figure point. `first` is what the first pass of this
/// process produced for it (None on the first pass). Returns a reason
/// on mismatch.
pub fn check_point(
    refs: &References,
    cfg: &Config,
    seed: u64,
    out: &Outputs,
    first: Option<&Outputs>,
) -> Result<(), String> {
    let label = cfg.label();
    if seed == 0 || cfg.mpi {
        let Some(want) = refs.point(&label) else {
            return Err(format!("{label}: no committed reference"));
        };
        if want.to_bits() != out.metric_bits {
            let got = f64::from_bits(out.metric_bits);
            return Err(format!("{label}: metric {got:?} != committed {want:?}"));
        }
    }
    if seed == 0 {
        if let Some(key) = &cfg.report_key {
            let want = refs.reports.get(&format!("{}/{key}", cfg.fig));
            if want.is_none() || want != out.report.as_ref() {
                return Err(format!("{label}: run report differs from committed '{key}'"));
            }
        }
    }
    if let Some(first) = first {
        if first != out {
            return Err(format!("{label}: outputs differ from this process's first pass"));
        }
    }
    Ok(())
}

/// One real-data run checked against its serial reference.
pub struct RealCheck {
    /// `app/version@machine`.
    pub label: String,
    /// Run it and compare bit for bit; `Err` carries the reason.
    pub run: Box<dyn Fn(u64) -> Result<(), String> + Send + Sync>,
}

fn bits_equal(label: &str, got: Option<Vec<f32>>, want: &[u32]) -> Result<(), String> {
    let got = got.ok_or_else(|| format!("{label}: no output"))?;
    let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
    if got.len() != want.len() {
        return Err(format!("{label}: {} values, serial has {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!("{label}: element {i} differs from the serial reference")),
    }
}

fn f32_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn outcome(label: &str, r: Result<AppRun, RunError>, want: &[u32]) -> Result<(), String> {
    let run = r.map_err(|e| format!("{label}: {e}"))?;
    bits_equal(label, run.check, want)
}

/// The real-data check set of a workload: each app's `validate()`
/// parameters on the workload's machine family (plus the MPI+CUDA
/// baselines on the cluster), compared bit for bit with the serial
/// versions. The scheduler seed applies to the OmpSs runs.
pub fn real_checks(workload: Workload) -> Vec<RealCheck> {
    let mm = matmul::MatmulParams::validate();
    let sp = stream::StreamParams::validate();
    let pp = perlin::PerlinParams::validate();
    let np = nbody::NbodyParams::validate();
    let mm_ref = f32_bits(&matmul::serial::run(mm));
    let st_ref: Vec<u32> = {
        let (a, b, c) = stream::serial::run(sp);
        a.iter().chain(&b).chain(&c).map(|&x| (x as f32).to_bits()).collect()
    };
    let pl_ref = perlin::serial::run(pp);
    let nb_ref = f32_bits(&nbody::serial::run(np));

    let machines: Vec<(String, RuntimeConfig)> = match workload {
        Workload::PaperMultigpu => [1, 2, 4]
            .into_iter()
            .map(|g| (format!("{g}gpus"), RuntimeConfig::multi_gpu(g)))
            .collect(),
        Workload::PaperCluster => [2, 4]
            .into_iter()
            .map(|n| (format!("{n}nodes"), RuntimeConfig::gpu_cluster(n)))
            .collect(),
        Workload::WeakScale => [(4, false), (4, true), (16, false), (16, true)]
            .into_iter()
            .map(|(n, sharded)| {
                let mode = if sharded { "sharded" } else { "flat" };
                let cfg = ompss_apps::ws::ws_config(n, sharded).with_backing(Backing::Real);
                (format!("{n}nodes-{mode}"), cfg)
            })
            .collect(),
    };

    let mut out = Vec::new();
    for (m, cfg) in machines {
        let (c, want) = (cfg.clone(), mm_ref.clone());
        let label = format!("matmul/ompss@{m}");
        out.push(RealCheck {
            label: label.clone(),
            run: Box::new(move |seed| {
                let r = matmul::ompss::try_run(c.clone().with_sched_seed(seed), mm, InitMode::Smp);
                outcome(&label, r, &want)
            }),
        });
        let (c, want) = (cfg.clone(), st_ref.clone());
        let label = format!("stream/ompss@{m}");
        out.push(RealCheck {
            label: label.clone(),
            run: Box::new(move |seed| {
                outcome(&label, stream::ompss::try_run(c.clone().with_sched_seed(seed), sp), &want)
            }),
        });
        let (c, want) = (cfg.clone(), pl_ref.clone());
        let label = format!("perlin/ompss@{m}");
        out.push(RealCheck {
            label: label.clone(),
            run: Box::new(move |seed| {
                let r = perlin::ompss::try_run(c.clone().with_sched_seed(seed), pp, false);
                outcome(&label, r, &want)
            }),
        });
        let (c, want) = (cfg, nb_ref.clone());
        let label = format!("nbody/ompss@{m}");
        out.push(RealCheck {
            label: label.clone(),
            run: Box::new(move |seed| {
                outcome(&label, nbody::ompss::try_run(c.clone().with_sched_seed(seed), np), &want)
            }),
        });
    }
    if workload == Workload::PaperCluster {
        let (gpu, fabric) = (GpuSpec::gtx_480, FabricConfig::qdr_infiniband);
        for n in [2u32, 4] {
            let (want, label) = (st_ref.clone(), format!("stream/mpi@{n}nodes"));
            out.push(RealCheck {
                label: label.clone(),
                run: Box::new(move |_| {
                    outcome(&label, Ok(stream::mpi::run(n, gpu(), fabric(n), sp)), &want)
                }),
            });
            let (want, label) = (pl_ref.clone(), format!("perlin/mpi@{n}nodes"));
            out.push(RealCheck {
                label: label.clone(),
                run: Box::new(move |_| {
                    outcome(&label, Ok(perlin::mpi::run(n, gpu(), fabric(n), pp, false)), &want)
                }),
            });
        }
    }
    out
}
