//! Property tests for the sharded sweep runtime — the PR's acceptance
//! criterion: for any kill point (any byte offset in any shard journal
//! or in the coordinator journal), resume + merge produces a journal
//! and a report byte-identical to a single-process serial run, at
//! shards ∈ {1, 2, 4} × workers ∈ {1, 2}.
//!
//! The kill is simulated causally: a SIGKILL only tears the *tail* of
//! each append-only journal, and a shard journal can only exist if its
//! lease line was durably in the coordinator ledger first (leases are
//! write-ahead) — so the simulation cuts the coordinator text at a
//! byte, treats shards of severed leases as never-spawned, and cuts
//! each surviving shard's text independently.

use netrepro_core::fault::FaultProfile;
use netrepro_core::harness::{
    JournalSink, MemoryJournal, Sweep, SweepConfig, TaskLimits, TopoScale,
};
use netrepro_core::paper::TargetSystem;
use netrepro_core::prompt::PromptStyle;
use netrepro_core::shard::{
    merge, parse_coord_journal, parse_shard_journal, partition, plan_leases, remaining_runs,
    run_shard, CoordHeader, CoordLine, Lease,
};
use netrepro_core::wal;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_profile() -> impl Strategy<Value = FaultProfile> {
    prop_oneof![
        Just(FaultProfile::None),
        Just(FaultProfile::Light),
        Just(FaultProfile::Heavy),
        Just(FaultProfile::Chaos),
    ]
}

/// Same small-but-varied matrix family as the harness property tests:
/// chaos drives panic/wedge/retry/quarantine, and the occasional tight
/// deadline trips breakers mid-matrix — the case where a shard's
/// speculative works must be discarded at merge time.
fn arb_scales() -> impl Strategy<Value = Vec<TopoScale>> {
    // Mostly the paper matrix; occasionally append a small fat-tree
    // scale cell so shard/merge byte-identity covers the DPV digests.
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

/// Snap a fractional cut to a char boundary (journal text is ASCII
/// JSON, so this is a no-op in practice).
fn cut_at(text: &str, frac: f64) -> &str {
    let mut cut = (text.len() as f64 * frac) as usize;
    while cut < text.len() && !text.is_char_boundary(cut) {
        cut += 1;
    }
    &text[..cut]
}

proptest! {
    // Each case runs the matrix three times (serial + sharded +
    // resumed remainder); keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SIGKILL the whole fleet — every shard and the coordinator — at
    /// arbitrary byte offsets, then resume the way the CLI coordinator
    /// does: truncate every journal to its valid prefix, re-lease the
    /// remaining runs with work-stealing, execute them, and merge.
    /// The merged journal and report must be byte-identical to an
    /// uninterrupted single-process serial run.
    #[test]
    fn kill_anywhere_resume_merge_is_byte_identical(
        config in arb_config(),
        shards in prop_oneof![Just(1usize), Just(2), Just(4)],
        workers in prop_oneof![Just(1usize), Just(2)],
        coord_frac in 0.0f64..1.0,
        shard_fracs in proptest::collection::vec(0.0f64..1.0, 4),
    ) {
        let mut serial_sink = MemoryJournal::new();
        let serial = Sweep::new(config.clone()).run(&mut serial_sink).unwrap();

        let sweep = Sweep::new(config.clone()).with_workers(workers);
        let total = config.total_cells() as u64;

        // The uninterrupted sharded world: ledger plus shard journals,
        // leases journaled write-ahead of each (virtual) spawn.
        let mut coord = MemoryJournal::new();
        coord.append(&wal::line(&CoordHeader::new(&config, shards)).unwrap()).unwrap();
        let leases: Vec<Lease> = partition(total, shards)
            .iter()
            .enumerate()
            .map(|(i, r)| Lease { seq: i as u64, start: r.start, end: r.end })
            .collect();
        let mut shard_texts: Vec<String> = Vec::new();
        for lease in &leases {
            coord.append(&wal::line(&CoordLine::Lease { lease: *lease }).unwrap()).unwrap();
            let mut sink = MemoryJournal::new();
            run_shard(&sweep, *lease, &wal::Prefix::default(), &mut sink).unwrap();
            shard_texts.push(sink.text().to_string());
        }

        // The kill: cut the coordinator, then each shard whose lease
        // line survived intact.
        let coord_cut = cut_at(coord.text(), coord_frac);
        let replay = parse_coord_journal(coord_cut, &config, shards).unwrap();
        prop_assert!(replay.valid_bytes as usize <= coord_cut.len());

        // The resume: gather works from every surviving valid prefix,
        // re-lease the holes (stealing tails to fill the slots), run
        // the new leases, merge.
        let issued: Vec<Lease> = replay
            .records
            .iter()
            .filter_map(|l| if let CoordLine::Lease { lease } = *l { Some(lease) } else { None })
            .collect();
        let mut works = BTreeMap::new();
        for lease in &issued {
            let text = cut_at(
                &shard_texts[lease.seq as usize],
                shard_fracs[lease.seq as usize % shard_fracs.len()],
            );
            let sr = parse_shard_journal(text, &config, *lease).unwrap();
            prop_assert!(sr.valid_bytes as usize <= text.len());
            works.extend((lease.start..).zip(sr.records));
        }
        let runs = remaining_runs(total, &works);
        for lease in plan_leases(&runs, shards, issued.len() as u64) {
            let mut sink = MemoryJournal::new();
            run_shard(&sweep, lease, &wal::Prefix::default(), &mut sink).unwrap();
            let sr = parse_shard_journal(sink.text(), &config, lease).unwrap();
            prop_assert!(!sr.dropped_partial);
            works.extend((lease.start..).zip(sr.records));
        }
        let mut merged = MemoryJournal::new();
        let report = merge(&sweep, &works, &mut merged).unwrap();

        prop_assert_eq!(report.render_json(), serial.render_json());
        prop_assert_eq!(merged.text(), serial_sink.text());
        prop_assert!(report.coverage.consistent());
    }

    /// A crashed shard child restarted *in place* (same lease, same
    /// journal file, truncated to its valid prefix) rebuilds a journal
    /// byte-identical to the uninterrupted shard's — at any kill byte
    /// and any worker count.
    #[test]
    fn shard_in_place_restart_is_byte_identical(
        config in arb_config(),
        shards in prop_oneof![Just(2usize), Just(4)],
        workers in prop_oneof![Just(1usize), Just(2)],
        frac in 0.0f64..1.0,
        pick in 0usize..4,
    ) {
        let sweep = Sweep::new(config.clone()).with_workers(workers);
        let total = config.total_cells() as u64;
        let ranges = partition(total, shards);
        let r = ranges[pick % ranges.len()];
        let lease = Lease { seq: (pick % ranges.len()) as u64, start: r.start, end: r.end };

        let mut full = MemoryJournal::new();
        run_shard(&sweep, lease, &wal::Prefix::default(), &mut full).unwrap();

        let survived = cut_at(full.text(), frac);
        let sr = parse_shard_journal(survived, &config, lease).unwrap();
        let mut sink = MemoryJournal::with_text(&survived[..sr.valid_bytes as usize]);
        run_shard(&sweep, lease, &sr, &mut sink).unwrap();
        prop_assert_eq!(sink.text(), full.text());
    }
}
