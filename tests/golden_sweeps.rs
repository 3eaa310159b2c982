//! The committed sweep goldens, checked by `cargo test`: the paper
//! matrix (`tests/golden/sweep_1344*`) and the fat-tree scales matrix
//! (`tests/golden/sweep_scales*`) run through `Sweep` with the static
//! analysis gate — the wiring `netrepro sweep` uses — at one and two
//! workers, with the memo on and off. Each run's journal bytes and
//! `render_json` bytes must equal the golden files.

use netrepro::core::cache::CellMemo;
use netrepro::core::fault::FaultProfile;
use netrepro::core::harness::{MemoryJournal, Sweep, SweepConfig, TopoScale};
use netrepro::core::paper::TargetSystem;
use netrepro::core::prompt::PromptStyle;

/// `netrepro sweep`'s matrix for these flag values: every name parsed
/// as the CLI parses it, seeds `0..seeds`, default limits.
fn matrix(systems: &str, styles: &str, seeds: u64, profiles: &str, scales: &str) -> SweepConfig {
    fn parse<T>(csv: &str, f: fn(&str) -> Option<T>) -> Vec<T> {
        csv.split(',')
            .map(|s| f(s).unwrap_or_else(|| panic!("bad name {s}")))
            .collect()
    }
    SweepConfig {
        systems: parse(systems, TargetSystem::parse),
        styles: parse(styles, PromptStyle::parse),
        seeds: (0..seeds).collect(),
        profiles: parse(profiles, FaultProfile::parse),
        scales: parse(scales, TopoScale::parse),
        ..SweepConfig::default()
    }
}

/// Run `config` at every wiring and compare with `golden` (the journal
/// at `<golden>.jsonl`, the report at `<golden>_report.json`).
fn check(config: SweepConfig, golden: &str) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/");
    let read = |name: String| {
        std::fs::read_to_string(format!("{dir}{name}")).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let journal = read(format!("{golden}.jsonl"));
    let report = read(format!("{golden}_report.json"));
    for workers in [1, 2] {
        for memo in [true, false] {
            let mut sweep = Sweep::new(config.clone())
                .with_workers(workers)
                .with_gate(Box::new(|spec, arts| {
                    let (report, _) = netrepro::analysis::gate::gate_artifacts(spec, arts);
                    netrepro::analysis::gate::static_gate(&report)
                }));
            if memo {
                sweep = sweep.with_cache(CellMemo::shared());
            }
            let mut sink = MemoryJournal::new();
            let got = sweep.run(&mut sink).expect("sweep runs");
            let wiring = format!("{golden}, workers={workers}, memo={memo}");
            assert!(
                sink.text() == journal,
                "journal differs from the golden: {wiring}"
            );
            assert!(
                got.render_json() == report,
                "report differs from the golden: {wiring}"
            );
        }
    }
}

#[test]
fn paper_matrix_matches_its_golden() {
    check(
        matrix(
            "ncflow,arrow,apkeep,ap",
            "mono,text,pseudo",
            28,
            "none,light,heavy,chaos",
            "paper",
        ),
        "sweep_1344",
    );
}

#[test]
fn scales_matrix_matches_its_golden() {
    check(
        matrix(
            "ncflow,apkeep",
            "text,pseudo",
            6,
            "none,heavy",
            "paper,ft4,ft8",
        ),
        "sweep_scales",
    );
}
