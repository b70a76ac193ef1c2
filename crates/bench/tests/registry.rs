//! The figure registry and the committed `results/` directory agree:
//! every entry has its files, and every file has its entry.

use std::collections::BTreeSet;

use ompss_bench::figures::ALL;

/// The file names the registry says `results/` holds.
fn registry_files() -> BTreeSet<String> {
    let mut files = BTreeSet::new();
    for fig in &ALL {
        files.insert(format!("{}.json", fig.id));
        if let Some((name, _)) = fig.trace {
            files.insert(format!("{name}.prv"));
            files.insert(format!("{name}.row"));
        }
    }
    files
}

#[test]
fn registry_ids_are_unique() {
    let ids: BTreeSet<&str> = ALL.iter().map(|f| f.id).collect();
    assert_eq!(ids.len(), ALL.len(), "duplicate figure id in figures::ALL");
}

#[test]
fn every_registry_file_is_committed() {
    let dir = ompss_bench::results_dir();
    for file in registry_files() {
        assert!(dir.join(&file).is_file(), "results/{file} is missing; run all_figures");
    }
}

#[test]
fn every_committed_file_belongs_to_the_registry() {
    let expected = registry_files();
    let entries = std::fs::read_dir(ompss_bench::results_dir()).expect("read results/");
    for entry in entries {
        let name = entry.expect("results/ entry").file_name().to_string_lossy().into_owned();
        assert!(expected.contains(&name), "results/{name} belongs to no figures::ALL entry");
    }
}
