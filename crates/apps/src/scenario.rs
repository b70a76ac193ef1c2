//! The scenario registry: which application, on which machine.
//!
//! Every harness (`verify`, `chaos`, `mc`, `serve`) names its runs with
//! an [`App`] and a [`Topology`] from here, so the string → program
//! dispatch and the topology → [`RuntimeConfig`] presets exist once.
//! Adding an application or a machine shape means adding a variant
//! here; the harnesses pick it up through [`App::ALL`] and the match
//! arms the compiler then asks for.

use std::fmt;
use std::str::FromStr;

use ompss_runtime::{RunError, RuntimeConfig};

use crate::common::AppRun;
use crate::matmul::{self, ompss::InitMode, MatmulParams};
use crate::nbody::{self, NbodyParams};
use crate::perlin::{self, PerlinParams};
use crate::stream::{self, StreamParams};

/// One of the paper's four evaluation applications, run in its OmpSs
/// version at validation scale (real byte backing, output returned in
/// [`AppRun::check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Blocked matrix multiply (SGEMM tiles).
    Matmul,
    /// STREAM copy/scale/add/triad.
    Stream,
    /// All-pairs N-Body.
    Nbody,
    /// Perlin-noise image generation.
    Perlin,
}

impl App {
    /// Every application, in report order.
    pub const ALL: [App; 4] = [App::Matmul, App::Stream, App::Nbody, App::Perlin];

    /// The name harnesses print and parse.
    pub fn name(self) -> &'static str {
        match self {
            App::Matmul => "matmul",
            App::Stream => "stream",
            App::Nbody => "nbody",
            App::Perlin => "perlin",
        }
    }

    /// Run the application at validation scale under `cfg`, surfacing
    /// the structured [`RunError`] — the form harnesses match on
    /// (`is_retryable`, variant classification) instead of parsing
    /// panic strings.
    pub fn try_run(self, cfg: RuntimeConfig) -> Result<AppRun, RunError> {
        match self {
            App::Matmul => matmul::ompss::try_run(cfg, MatmulParams::validate(), InitMode::Smp),
            App::Stream => stream::ompss::try_run(cfg, StreamParams::validate()),
            App::Nbody => nbody::ompss::try_run(cfg, NbodyParams::validate()),
            App::Perlin => perlin::ompss::try_run(cfg, PerlinParams::validate(), false),
        }
    }
}

impl fmt::Display for App {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for App {
    type Err = String;

    fn from_str(s: &str) -> Result<App, String> {
        match s {
            "matmul" => Ok(App::Matmul),
            "stream" => Ok(App::Stream),
            "nbody" => Ok(App::Nbody),
            "perlin" => Ok(App::Perlin),
            other => Err(format!(
                "unknown app '{other}'; expected one of {}",
                App::ALL.map(App::name).join(", ")
            )),
        }
    }
}

/// A simulated machine: the paper's two platform families, plus the
/// cluster with the sharded control plane on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// One node with this many GPUs ([`RuntimeConfig::multi_gpu`]).
    MultiGpu(u32),
    /// This many single-GPU nodes under the flat master
    /// ([`RuntimeConfig::gpu_cluster`]).
    Cluster(u32),
    /// The same cluster with one control-plane shard per node
    /// ([`RuntimeConfig::with_sharded_control`]).
    ClusterSharded(u32),
}

impl Topology {
    /// The family name reports label sections with.
    pub fn name(self) -> &'static str {
        match self {
            Topology::MultiGpu(_) => "multi_gpu",
            Topology::Cluster(_) => "cluster",
            Topology::ClusterSharded(_) => "cluster_sharded",
        }
    }

    /// Node count (1 for a multi-GPU box).
    pub fn nodes(self) -> u32 {
        match self {
            Topology::MultiGpu(_) => 1,
            Topology::Cluster(n) | Topology::ClusterSharded(n) => n,
        }
    }

    /// The runtime preset this topology names.
    pub fn config(self) -> RuntimeConfig {
        match self {
            Topology::MultiGpu(gpus) => RuntimeConfig::multi_gpu(gpus),
            Topology::Cluster(n) => RuntimeConfig::gpu_cluster(n),
            Topology::ClusterSharded(n) => RuntimeConfig::gpu_cluster(n).with_sharded_control(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_names_round_trip() {
        for app in App::ALL {
            assert_eq!(app.name().parse::<App>(), Ok(app));
            assert_eq!(app.to_string(), app.name());
        }
    }

    #[test]
    fn unknown_app_error_lists_every_app() {
        let e = "nosuch".parse::<App>().unwrap_err();
        assert!(e.contains("unknown app 'nosuch'"), "{e}");
        for app in App::ALL {
            assert!(e.contains(app.name()), "{e} omits {app}");
        }
    }

    #[test]
    fn topology_configs_match_the_presets() {
        let same =
            |a: RuntimeConfig, b: RuntimeConfig| assert_eq!(format!("{a:?}"), format!("{b:?}"));
        same(Topology::MultiGpu(2).config(), RuntimeConfig::multi_gpu(2));
        for n in [2, 3] {
            same(Topology::Cluster(n).config(), RuntimeConfig::gpu_cluster(n));
            same(
                Topology::ClusterSharded(n).config(),
                RuntimeConfig::gpu_cluster(n).with_sharded_control(n),
            );
        }
        assert_eq!(Topology::MultiGpu(4).nodes(), 1);
        assert_eq!(Topology::ClusterSharded(3).nodes(), 3);
    }
}
