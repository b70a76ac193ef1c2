//! Regenerates every entry of the figure registry — each figure and
//! table of the paper's evaluation plus the two Paraver trace pairs —
//! printing each and saving it under `results/`.
//!
//! Independent configurations within each figure run on `--jobs N` host
//! threads (default: `OMPSS_BENCH_JOBS` or the host's parallelism); the
//! output is byte-identical at any job count. Naming figure ids (e.g.
//! `all_figures figWS`) regenerates just those.
use ompss_bench::figures::ALL;

fn main() {
    let ids: Vec<String> =
        ompss_sweep::cli::parse("usage: all_figures [--jobs N] [figure-id...]", |a| {
            let ids: Vec<String> = a.positionals()?;
            match ids.iter().find(|id| !ALL.iter().any(|f| f.id == id.as_str())) {
                Some(id) => Err(ompss_sweep::cli::Error(format!("unknown figure id '{id}'"))),
                None => Ok(ids),
            }
        });
    let dir = ompss_bench::results_dir();
    let mut saved = 0;
    for fig in ALL.iter().filter(|f| ids.is_empty() || ids.iter().any(|id| id == f.id)) {
        fig.regenerate(&dir);
        saved += 1;
    }
    println!("regenerated {saved} figures in {}", dir.display());
}
