//! Regenerates every figure and table of the paper's evaluation,
//! printing each and saving JSON under `results/`.
//!
//! Independent configurations within each figure run on `--jobs N` host
//! threads (default: `OMPSS_BENCH_JOBS` or the host's parallelism); the
//! output is byte-identical at any job count. Naming figure ids (e.g.
//! `all_figures figWS`) regenerates just those.
fn main() {
    let dir = ompss_bench::results_dir();
    type Entry = (&'static str, fn() -> ompss_bench::FigureData);
    let all: [Entry; 11] = [
        ("fig05", ompss_bench::figures::fig05),
        ("fig06", ompss_bench::figures::fig06),
        ("fig07", ompss_bench::figures::fig07),
        ("fig08", ompss_bench::figures::fig08),
        ("fig09", ompss_bench::figures::fig09),
        ("fig10", ompss_bench::figures::fig10),
        ("fig11", ompss_bench::figures::fig11),
        ("fig12", ompss_bench::figures::fig12),
        ("fig13", ompss_bench::figures::fig13),
        ("figWS", ompss_bench::figures::figws),
        ("table1", ompss_bench::figures::table1),
    ];
    let args: Vec<String> =
        ompss_sweep::cli::parse("usage: all_figures [--jobs N] [figure-id...]", |a| {
            let ids: Vec<String> = a.positionals()?;
            match ids.iter().find(|id| !all.iter().any(|(known, _)| known == id)) {
                Some(id) => Err(ompss_sweep::cli::Error(format!("unknown figure id '{id}'"))),
                None => Ok(ids),
            }
        });
    let mut saved = 0;
    for (id, make) in all {
        if !args.is_empty() && !args.iter().any(|a| a == id) {
            continue;
        }
        let fig = make();
        fig.print();
        fig.save(&dir);
        saved += 1;
    }
    println!("saved {saved} result files to {}", dir.display());
}
