//! `mc` — model-check the shipped applications' schedule spaces and
//! lint their declared task graphs, reporting findings as JSON.
//!
//! ```text
//! mc                                # all four apps, default bounds
//! mc --apps matmul,stream           # a subset
//! mc --nodes 2 --depth 64 --preemptions 2 --max-interleavings 2000
//! mc --min-interleavings 1000 ...   # fail unless the search ran this far
//! mc --no-verify-oracle ...         # skip per-interleaving clause checks
//! mc --replay 0,3,1 --apps matmul   # re-run one recorded counterexample
//! ```
//!
//! Per app: an ahead-of-run static pass over the declared task graph
//! ([`ompss_mc::GraphSpec`]), then bounded sleep-set DFS over executor
//! tie-breaks with the four oracles ([`ompss_mc::explore`]). Sections
//! run on `--jobs N` host threads and are reported in a fixed order;
//! any finding (or an under-`--min-interleavings` search) exits 1.

use ompss_apps::scenario::App;
use ompss_json::Json;
use ompss_mc::{apps, explore, parse_trace, replay, McConfig, McReport};
use ompss_sweep::cli::{self, Error};
use ompss_verify::{report_json, Finding};

fn main() {
    let usage = format!(
        "usage: mc [--apps a,b] [--nodes N] [--depth D] [--preemptions P] \
         [--max-interleavings M] [--min-interleavings K] [--no-verify-oracle] \
         [--jobs N] [--replay TRACE]\napps: {}",
        App::ALL.map(App::name).join(" ")
    );
    let mut cfg = McConfig::default();
    let (nodes, min_interleavings, verify_oracle, replay_trace, selected) =
        cli::parse(&usage, |a| {
            let nodes = a.value::<u32>("--nodes")?.unwrap_or(2);
            if let Some(d) = a.value("--depth")? {
                cfg.depth = d;
            }
            if let Some(p) = a.value("--preemptions")? {
                cfg.preemptions = p;
            }
            if let Some(m) = a.value("--max-interleavings")? {
                cfg.max_interleavings = m;
            }
            let min_interleavings = a.value::<u64>("--min-interleavings")?.unwrap_or(0);
            let verify_oracle = !a.flag("--no-verify-oracle");
            let replay_trace = match a.value::<String>("--replay")? {
                Some(t) => Some(parse_trace(&t).map_err(Error)?),
                None => None,
            };
            let selected = a.list::<App>("--apps")?.unwrap_or_else(|| App::ALL.to_vec());
            if replay_trace.is_some() && selected.len() != 1 {
                return Err(Error("--replay needs exactly one app (--apps NAME)".into()));
            }
            Ok((nodes, min_interleavings, verify_oracle, replay_trace, selected))
        });

    if let Some(trace) = replay_trace {
        let app = selected[0];
        match replay(&trace, || apps::run_once(app, nodes, verify_oracle)) {
            Ok(out) => {
                println!(
                    "{app}: replay completed; fingerprint {:#018x}, {} verify finding(s)",
                    out.fingerprint,
                    out.findings.len()
                );
                for f in &out.findings {
                    println!("  {f}");
                }
                if !out.findings.is_empty() {
                    std::process::exit(1);
                }
            }
            Err(e) => {
                println!("{app}: replay failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    // One sweep task per report section, queued in report order.
    enum Section {
        Static(Vec<Finding>),
        Mc(McReport),
    }
    type SectionTask = Box<dyn FnOnce() -> (String, Section) + Send>;
    let mut tasks: Vec<SectionTask> = Vec::new();
    for &app in &selected {
        tasks.push(Box::new(move || {
            let findings = apps::static_lints(app, nodes).unwrap_or_else(|e| {
                // The RunError Display line, then a plain nonzero exit.
                eprintln!("error: {app}: {e}");
                std::process::exit(1);
            });
            (format!("{app}/static"), Section::Static(findings))
        }));
        let cfg = cfg.clone();
        tasks.push(Box::new(move || {
            let rep = explore(app.name(), &cfg, || apps::run_once(app, nodes, verify_oracle));
            (format!("{app}/mc"), Section::Mc(rep))
        }));
    }

    let mut sections = Json::array();
    let mut total = 0usize;
    let mut too_shallow = Vec::new();
    for (target, section) in ompss_sweep::run_jobs(ompss_sweep::jobs(), tasks) {
        match section {
            Section::Static(findings) => {
                total += findings.len();
                sections.push(report_json(&target, &findings));
            }
            Section::Mc(rep) => {
                total += rep.findings.len();
                if rep.interleavings < min_interleavings {
                    too_shallow.push(format!(
                        "{target}: {} interleavings < required {min_interleavings}",
                        rep.interleavings
                    ));
                }
                let mut j = report_json(&target, &rep.findings);
                j.set("interleavings", rep.interleavings);
                j.set("exhausted", rep.exhausted);
                j.set("max_choice_depth", rep.max_choice_depth as u64);
                if let Some(fp) = rep.fingerprint {
                    j.set("fingerprint", format!("{fp:#018x}"));
                }
                sections.push(j);
            }
        }
    }

    let report = Json::object()
        .field("tool", "ompss-mc")
        .field("nodes", nodes as u64)
        .field("total_findings", total as u64)
        .field("reports", sections);
    println!("{}", report.to_pretty_string().trim_end());
    for s in &too_shallow {
        eprintln!("mc: {s}");
    }
    if total > 0 || !too_shallow.is_empty() {
        std::process::exit(1);
    }
}
