//! Property tests for the crash-safe sweep runtime: for random matrix
//! seeds and a random kill point anywhere in the journal byte stream,
//! replaying the surviving prefix and executing the remainder must
//! reproduce the uninterrupted run byte-for-byte — both the final
//! `SweepReport` JSON and the rebuilt journal.

use netrepro_core::cache::CellMemo;
use netrepro_core::fault::FaultProfile;
use netrepro_core::harness::{
    parse_journal, MemoryJournal, Sweep, SweepConfig, TaskLimits, TopoScale,
};
use netrepro_core::paper::TargetSystem;
use netrepro_core::prompt::PromptStyle;
use proptest::prelude::*;

fn arb_profile() -> impl Strategy<Value = FaultProfile> {
    prop_oneof![
        Just(FaultProfile::None),
        Just(FaultProfile::Light),
        Just(FaultProfile::Heavy),
        Just(FaultProfile::Chaos),
    ]
}

/// A small but varied sweep matrix (RPS sessions keep cases fast; the
/// chaos profile exercises panic/wedge/retry/quarantine paths). The
/// occasional tight deadline makes whole classes quarantine, tripping
/// breakers mid-matrix — the case where a cell a worker executed before
/// its class tripped must be discarded at commit time.
fn arb_scales() -> impl Strategy<Value = Vec<TopoScale>> {
    // Half the cases stay on the paper matrix; the other half append a
    // small fat-tree scale cell, exercising the DPV-digest path through
    // the same crash/resume machinery.
    prop_oneof![
        Just(vec![TopoScale::Paper]),
        Just(vec![TopoScale::Paper, TopoScale::FatTree { k: 4 }]),
    ]
}

fn arb_config() -> impl Strategy<Value = SweepConfig> {
    (arb_profile(), 0u64..50, 1usize..3, prop_oneof![Just(false), Just(true)], arb_scales())
        .prop_map(|(profile, base_seed, n_seeds, tight, scales)| {
            let mut limits = TaskLimits::default();
            if tight {
                limits.deadline_steps = 5;
                limits.breaker_threshold = 2;
            }
            SweepConfig {
                systems: vec![TargetSystem::RockPaperScissors, TargetSystem::ApVerifier],
                styles: vec![PromptStyle::ModularText],
                seeds: (base_seed..base_seed + n_seeds as u64).collect(),
                profiles: vec![FaultProfile::None, profile],
                scales,
                limits,
            }
        })
}

fn arb_workers() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(4), Just(8)]
}

proptest! {
    // Each case runs the matrix twice (full + resumed); keep it modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill the sweep at an arbitrary *byte* of its journal — possibly
    /// mid-line, simulating a torn write — and resume: the report and
    /// the rebuilt journal must be byte-identical to an uninterrupted
    /// run with the same seeds.
    #[test]
    fn crash_resume_is_byte_identical(config in arb_config(), cut_frac in 0.0f64..1.0) {
        let sweep = Sweep::new(config.clone());
        let mut full_sink = MemoryJournal::new();
        let full = sweep.run(&mut full_sink).unwrap();
        let full_text = full_sink.text().to_string();

        // Kill point: any byte offset, snapped to a char boundary
        // (journal text is ASCII JSON, so this is a no-op in practice).
        let mut cut = (full_text.len() as f64 * cut_frac) as usize;
        while cut < full_text.len() && !full_text.is_char_boundary(cut) {
            cut += 1;
        }
        let survived = &full_text[..cut];

        let replay = parse_journal(survived, &config).unwrap();
        prop_assert!(replay.valid_bytes as usize <= cut);
        let mut sink = MemoryJournal::with_text(&survived[..replay.valid_bytes as usize]);
        let resumed = sweep.run_from(&replay, &mut sink).unwrap();

        prop_assert_eq!(resumed.render_json(), full.render_json());
        prop_assert_eq!(sink.text(), full_text.as_str());
        prop_assert!(resumed.coverage.consistent());
    }

    /// A parallel sweep commits cells in canonical order, so for any
    /// worker count the journal and the report are byte-identical to
    /// the serial run — across random matrices, fault profiles and the
    /// injected panic/wedge/deadline paths the chaos profile drives.
    #[test]
    fn parallel_sweep_is_byte_identical_to_serial(
        config in arb_config(),
        workers in arb_workers(),
    ) {
        let mut serial_sink = MemoryJournal::new();
        let serial = Sweep::new(config.clone()).run(&mut serial_sink).unwrap();
        let mut sink = MemoryJournal::new();
        let parallel =
            Sweep::new(config).with_workers(workers).run(&mut sink).unwrap();
        prop_assert_eq!(parallel.render_json(), serial.render_json());
        prop_assert_eq!(sink.text(), serial_sink.text());
    }

    /// Crash-at-any-byte-offset resume under parallelism: kill a serial
    /// run anywhere in its journal, resume with `workers` workers, and
    /// the rebuilt journal and report still match the uninterrupted
    /// serial run byte-for-byte.
    #[test]
    fn parallel_crash_resume_is_byte_identical(
        config in arb_config(),
        cut_frac in 0.0f64..1.0,
        workers in arb_workers(),
    ) {
        let serial = Sweep::new(config.clone());
        let mut full_sink = MemoryJournal::new();
        let full = serial.run(&mut full_sink).unwrap();
        let full_text = full_sink.text().to_string();

        let mut cut = (full_text.len() as f64 * cut_frac) as usize;
        while cut < full_text.len() && !full_text.is_char_boundary(cut) {
            cut += 1;
        }
        let survived = &full_text[..cut];

        let replay = parse_journal(survived, &config).unwrap();
        let mut sink = MemoryJournal::with_text(&survived[..replay.valid_bytes as usize]);
        let resumed =
            Sweep::new(config).with_workers(workers).run_from(&replay, &mut sink).unwrap();

        prop_assert_eq!(resumed.render_json(), full.render_json());
        prop_assert_eq!(sink.text(), full_text.as_str());
    }

    /// The memoization layer is observationally invisible: with the
    /// cache off, cold, or fully warm — at any worker count — the
    /// journal and the report are byte-identical. The warm pass also
    /// proves the memo actually engaged (every executed cell hits).
    #[test]
    fn cached_sweep_is_byte_identical_to_uncached(
        config in arb_config(),
        workers in arb_workers(),
    ) {
        let mut off_sink = MemoryJournal::new();
        let off = Sweep::new(config.clone()).run(&mut off_sink).unwrap();

        let memo = CellMemo::shared();
        let mut cold_sink = MemoryJournal::new();
        let cold = Sweep::new(config.clone())
            .with_workers(workers)
            .with_cache(std::sync::Arc::clone(&memo))
            .run(&mut cold_sink)
            .unwrap();
        prop_assert_eq!(cold.render_json(), off.render_json());
        prop_assert_eq!(cold_sink.text(), off_sink.text());

        let mut warm_sink = MemoryJournal::new();
        let warm = Sweep::new(config)
            .with_workers(workers)
            .with_cache(std::sync::Arc::clone(&memo))
            .run(&mut warm_sink)
            .unwrap();
        prop_assert_eq!(warm.render_json(), off.render_json());
        prop_assert_eq!(warm_sink.text(), off_sink.text());
        let stats = memo.work_stats();
        prop_assert!(stats.hits > 0 || memo.work_len() == 0,
            "a warm second sweep must hit the memo when anything was executed");
    }

    /// Crash at any byte offset and resume with a *partially warm*
    /// memo (warmed by the cells executed before the kill): still
    /// byte-identical to the uninterrupted, uncached run.
    #[test]
    fn partially_warm_crash_resume_is_byte_identical(
        config in arb_config(),
        cut_frac in 0.0f64..1.0,
        workers in arb_workers(),
    ) {
        let mut full_sink = MemoryJournal::new();
        let full = Sweep::new(config.clone()).run(&mut full_sink).unwrap();
        let full_text = full_sink.text().to_string();

        let mut cut = (full_text.len() as f64 * cut_frac) as usize;
        while cut < full_text.len() && !full_text.is_char_boundary(cut) {
            cut += 1;
        }
        let survived = &full_text[..cut];

        // Partial warmth: a sweep over a sub-matrix (half the seeds)
        // memoizes some of the full matrix's cells and none of the
        // rest — cell keys depend only on (system, style, seed,
        // profile), not on the matrix shape.
        let memo = CellMemo::shared();
        let mut sub = config.clone();
        sub.seeds.truncate(sub.seeds.len() / 2);
        if !sub.seeds.is_empty() {
            Sweep::new(sub)
                .with_cache(std::sync::Arc::clone(&memo))
                .run(&mut MemoryJournal::new())
                .unwrap();
        }
        let replay = parse_journal(survived, &config).unwrap();

        let mut sink = MemoryJournal::with_text(&survived[..replay.valid_bytes as usize]);
        let resumed = Sweep::new(config)
            .with_workers(workers)
            .with_cache(memo)
            .run_from(&replay, &mut sink)
            .unwrap();

        prop_assert_eq!(resumed.render_json(), full.render_json());
        prop_assert_eq!(sink.text(), full_text.as_str());
    }

    /// Coverage accounting always sums to the full matrix, whatever the
    /// profile mix does to quarantine and breakers.
    #[test]
    fn coverage_always_sums(config in arb_config()) {
        let sweep = Sweep::new(config.clone());
        let mut sink = MemoryJournal::new();
        let report = sweep.run(&mut sink).unwrap();
        prop_assert!(report.coverage.consistent());
        prop_assert_eq!(report.coverage.total, config.total_cells() as u64);
        prop_assert_eq!(report.cells.len(), config.total_cells());
        prop_assert_eq!(report.quarantine.len() as u64, report.coverage.quarantined);
    }
}
