//! Shared experiment configuration for the figure-regeneration
//! binaries (`src/bin/fig*.rs`, `src/bin/table*.rs`).
//!
//! Every binary prints its table to stdout and writes the same table as
//! JSON under `results/`. Scales are chosen so the *slow* configurations
//! (dense-tableau LP, uncached BDD engine, path enumeration) finish in
//! seconds to minutes while still showing the paper's gaps; pass
//! `--full` to a binary for the bigger sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use netrepro_core::metrics::Table;
use netrepro_graph::gen::TopologySpec;

/// The experiment master seed (change to re-randomise every dataset).
pub const SEED: u64 = 2023;

/// Harness scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-per-row defaults.
    Quick,
    /// The full sweep (minutes).
    Full,
}

impl Scale {
    /// Parse from argv: `--full` selects [`Scale::Full`].
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }
}

/// The 13 NCFlow TE instances (Table A), with per-instance commodity
/// budgets that keep the dense-solver runs tractable.
pub fn table_a_instances(scale: Scale) -> Vec<(TopologySpec, usize)> {
    let cat = netrepro_graph::gen::catalogue(SEED);
    cat.into_iter()
        .map(|spec| {
            let commodities = match scale {
                Scale::Quick => match spec.nodes {
                    0..=40 => 170,
                    41..=160 => 60,
                    _ => 25,
                },
                Scale::Full => match spec.nodes {
                    0..=40 => 300,
                    41..=160 => 150,
                    _ => 50,
                },
            };
            (spec, commodities)
        })
        .collect()
}

/// The two ARROW instances (Table B): mid-size optical WANs.
pub fn table_b_instances() -> Vec<TopologySpec> {
    vec![
        TopologySpec::new("OpticalA", 16, SEED + 100),
        TopologySpec::new("OpticalB", 24, SEED + 101),
    ]
}

/// The four APKeep datasets (Table C): `(name, nodes, header bits)`.
pub fn table_c_datasets(scale: Scale) -> Vec<(&'static str, usize, u32)> {
    match scale {
        Scale::Quick => vec![
            ("Internet2", 9, 12),
            ("Stanford", 16, 14),
            ("Purdue", 24, 14),
            ("Campus4", 32, 14),
        ],
        Scale::Full => vec![
            ("Internet2", 9, 14),
            ("Stanford", 26, 16),
            ("Purdue", 40, 16),
            ("Campus4", 60, 16),
        ],
    }
}

/// The three AP datasets (Table D): `(name, nodes, header bits,
/// path-enumeration cap)`.
pub fn table_d_datasets(scale: Scale) -> Vec<(&'static str, usize, u32, u64)> {
    match scale {
        Scale::Quick => vec![
            ("Internet2", 9, 12, 1_000_000),
            ("Stanford", 14, 14, 200_000),
            ("Purdue", 18, 14, 100_000),
        ],
        Scale::Full => vec![
            ("Internet2", 9, 14, 5_000_000),
            ("Stanford", 20, 16, 500_000),
            ("Purdue", 28, 16, 200_000),
        ],
    }
}

/// Print a table and persist its JSON next to the repo's `results/`.
pub fn emit(table: &Table) {
    println!("{}", table.render());
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let file = dir.join(format!(
            "{}.json",
            table.id.to_lowercase().replace(' ', "_").replace('/', "-")
        ));
        if let Err(e) = std::fs::write(&file, table.to_json()) {
            eprintln!("warning: could not write {}: {e}", file.display());
        } else {
            eprintln!("(json written to {})", file.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_a_has_thirteen_instances() {
        assert_eq!(table_a_instances(Scale::Quick).len(), 13);
        assert_eq!(table_a_instances(Scale::Full).len(), 13);
    }

    #[test]
    fn quick_scale_is_smaller() {
        let q = table_a_instances(Scale::Quick);
        let f = table_a_instances(Scale::Full);
        for (a, b) in q.iter().zip(&f) {
            assert!(a.1 <= b.1);
            assert_eq!(a.0.name, b.0.name);
        }
    }

    #[test]
    fn dataset_counts_match_paper() {
        assert_eq!(table_b_instances().len(), 2);
        assert_eq!(table_c_datasets(Scale::Quick).len(), 4);
        assert_eq!(table_d_datasets(Scale::Quick).len(), 3);
    }
}
