//! Partitioned parallel data-plane verification at DCN scale.
//!
//! This is the orchestration half of the hyper-scale DPV pipeline: the
//! pure per-chunk verifier lives in [`netrepro_dpv::scale`] (so `dpv`
//! stays dependency-light), and this module owns the fan-out — it
//! partitions the destination list into `partitions` disjoint,
//! contiguous, canonical chunks, runs every chunk through **its own
//! [`netrepro_bdd::BddManager`]** on a [`crate::pool`] worker, and
//! merges the per-chunk verdict vectors strictly in partition order.
//!
//! Determinism argument, in two halves:
//!
//! 1. **Within a chunk** verification is sequential and seeded — a pure
//!    function of `(network, chunk, opts)`.
//! 2. **Across chunks** a [`netrepro_dpv::scale::DestVerdict`] carries
//!    only semantic data (device counts, exact header counts, sorted
//!    device ids) and never BDD-manager state, so splitting the
//!    destination list differently cannot change any verdict; and the
//!    pool's reorder buffer commits chunks in slice order, so the
//!    merged vector is the chunk-concatenation in canonical order.
//!
//! Together: `run_partitioned(P, W)` is byte-identical (over
//! [`netrepro_dpv::scale::render`]) to the serial verifier for every
//! partition count `P` and worker count `W`. The proptests below pin
//! exactly that, churn included.

use crate::pool::{run_ordered_items, PoolStats};
use netrepro_bdd::EngineProfile;
use netrepro_dpv::fabric::{build, Fabric, FabricSpec};
use netrepro_dpv::scale::{
    digest, partition_ranges, render, sample_dests, verify_destinations, DestVerdict, ScaleError,
    ScaleOpts,
};
use netrepro_dpv::{Network, Prefix};
use netrepro_graph::NodeId;

/// Errors from a partitioned verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DpvScaleError {
    /// A chunk's verifier failed (first failure in canonical partition
    /// order — typically a [`netrepro_bdd::BddError::TableExhausted`]).
    Verify(ScaleError),
    /// The worker pool itself failed to deliver every chunk.
    Pool(String),
}

impl std::fmt::Display for DpvScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpvScaleError::Verify(e) => write!(f, "{e}"),
            DpvScaleError::Pool(msg) => write!(f, "worker pool failed: {msg}"),
        }
    }
}

impl std::error::Error for DpvScaleError {}

impl From<ScaleError> for DpvScaleError {
    fn from(e: ScaleError) -> Self {
        DpvScaleError::Verify(e)
    }
}

/// A full hyper-scale verification job: fabric shape + query sampling +
/// execution shape.
#[derive(Debug, Clone, Copy)]
pub struct DpvScaleSpec {
    /// Fat-tree arity `k` (even, `k/2` a power of two).
    pub k: usize,
    /// Fabric seed — drives ECMP tie-breaks and churn.
    pub seed: u64,
    /// Directed links to sever (blackhole churn); 0 = clean fabric.
    pub link_down: usize,
    /// Destinations to verify: `None` = all `k³/4` host prefixes,
    /// `Some(q)` = a seeded ascending sample of `q` of them.
    pub queries: Option<usize>,
    /// Destination partitions (each gets a private BDD manager).
    pub partitions: usize,
    /// Pool workers executing the partitions.
    pub workers: usize,
    /// Per-partition BDD node budget; `None` = unbounded.
    pub node_cap: Option<usize>,
}

impl DpvScaleSpec {
    /// A clean, fully-queried, serial spec for arity `k`.
    pub fn new(k: usize, seed: u64) -> Self {
        DpvScaleSpec {
            k,
            seed,
            link_down: 0,
            queries: None,
            partitions: 1,
            workers: 1,
            node_cap: None,
        }
    }
}

/// The merged outcome of a partitioned verification run.
#[derive(Debug, Clone)]
pub struct DpvScaleReport {
    /// Merged verdicts, in canonical destination order.
    pub verdicts: Vec<DestVerdict>,
    /// Canonical rendering of `verdicts` ([`render`]).
    pub rendered: String,
    /// FNV-1a 64 fingerprint of `rendered`.
    pub digest: u64,
    /// Devices in the verified fabric.
    pub devices: usize,
    /// Destinations actually verified (after sampling).
    pub queried: usize,
    /// What the worker pool absorbed.
    pub pool: PoolStats,
}

/// Resolve a spec's destination list against a built fabric: all host
/// prefixes, or the seeded sample.
pub fn spec_dests(fabric: &Fabric, spec: &DpvScaleSpec) -> Vec<(NodeId, Prefix)> {
    let total = fabric.num_dests();
    match spec.queries {
        None => (0..total).map(|i| fabric.dest(i)).collect(),
        Some(q) => sample_dests(total, q, spec.seed).into_iter().map(|i| fabric.dest(i)).collect(),
    }
}

/// Partition `dests` into `partitions` chunks, verify each on its own
/// pool worker with a private manager, and merge in canonical order.
///
/// The first chunk error (in canonical partition order) aborts the run
/// and is returned typed; chunks already in flight finish harmlessly —
/// their managers are chunk-private, so nothing leaks.
pub fn run_partitioned(
    net: &Network,
    dests: &[(NodeId, Prefix)],
    opts: &ScaleOpts,
    partitions: usize,
    workers: usize,
) -> Result<(Vec<DestVerdict>, PoolStats), DpvScaleError> {
    let ranges = partition_ranges(dests.len(), partitions);
    let mut merged: Vec<DestVerdict> = Vec::with_capacity(dests.len());
    let mut first_err: Option<ScaleError> = None;
    let pool = run_ordered_items(
        workers,
        &ranges,
        |_, r| verify_destinations(net, &dests[r.clone()], opts),
        |_, outcome| match outcome {
            Ok(mut chunk) => {
                merged.append(&mut chunk);
                Ok(())
            }
            Err(e) => {
                first_err = Some(e);
                Err("chunk failed".to_string())
            }
        },
    );
    match (first_err, pool) {
        (Some(e), _) => Err(e.into()),
        (None, Ok(stats)) => Ok((merged, stats)),
        (None, Err(msg)) => Err(DpvScaleError::Pool(msg)),
    }
}

/// Build the fabric described by `spec`, verify it partitioned, and
/// package the canonical report.
pub fn run_spec(spec: &DpvScaleSpec) -> Result<DpvScaleReport, DpvScaleError> {
    let fabric = build(&FabricSpec {
        k: spec.k,
        seed: spec.seed,
        link_down: spec.link_down,
        with_hosts: true,
    });
    let dests = spec_dests(&fabric, spec);
    let opts = ScaleOpts { profile: EngineProfile::Cached, node_cap: spec.node_cap };
    let (verdicts, pool) =
        run_partitioned(&fabric.network, &dests, &opts, spec.partitions, spec.workers)?;
    let rendered = render(&verdicts);
    let digest = digest(&rendered);
    Ok(DpvScaleReport {
        devices: fabric.num_devices(),
        queried: dests.len(),
        verdicts,
        digest,
        rendered,
        pool,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn serial_reference(spec: &DpvScaleSpec) -> DpvScaleReport {
        let mut s = *spec;
        s.partitions = 1;
        s.workers = 1;
        run_spec(&s).expect("serial verification")
    }

    #[test]
    fn partitioned_matches_serial_on_k4_clean_and_churned() {
        for link_down in [0usize, 14] {
            let spec = DpvScaleSpec { link_down, ..DpvScaleSpec::new(4, 11) };
            let serial = serial_reference(&spec);
            for partitions in [1usize, 2, 4, 8] {
                for workers in [1usize, 4] {
                    let report =
                        run_spec(&DpvScaleSpec { partitions, workers, ..spec }).expect("run");
                    assert_eq!(report.rendered, serial.rendered, "P={partitions} W={workers}");
                    assert_eq!(report.digest, serial.digest);
                    assert_eq!(report.verdicts, serial.verdicts);
                }
            }
        }
    }

    #[test]
    fn digests_are_pinned() {
        // Fixed verdict digests: any change to the verifier's output,
        // however it is computed, must show up here.
        for (k, link_down, want) in [
            (4usize, 6usize, 0x0a67_3c63_09cd_512f_u64),
            (8, 6, 0x3b21_e660_f01d_48e5),
            (8, 0, 0xd811_9c2a_4052_f43d),
        ] {
            let spec =
                DpvScaleSpec { link_down, partitions: 4, workers: 2, ..DpvScaleSpec::new(k, 2023) };
            let report = run_spec(&spec).expect("run");
            assert_eq!(report.digest, want, "k={k} link_down={link_down}: {:016x}", report.digest);
        }
    }

    #[test]
    fn partitions_that_cut_classes_match_the_per_destination_fixpoint() {
        // k=8: classes of four hosts (one edge block each). Three
        // partitions of 128 destinations end mid-class, and a sampled
        // query list leaves classes with one, some or all of their
        // hosts; every verdict must still equal the fixpoint's.
        for queries in [None, Some(40)] {
            let spec = DpvScaleSpec {
                link_down: 6,
                queries,
                partitions: 3,
                workers: 2,
                ..DpvScaleSpec::new(8, 2023)
            };
            let report = run_spec(&spec).expect("run");
            let fabric = build(&FabricSpec { k: 8, seed: 2023, link_down: 6, with_hosts: true });
            let dests = spec_dests(&fabric, &spec);
            let want = netrepro_dpv::scale::verify_per_destination(
                &fabric.network,
                &dests,
                &ScaleOpts::default(),
            )
            .expect("reference");
            assert_eq!(report.verdicts, want, "queries={queries:?}");
            assert_eq!(report.rendered, serial_reference(&spec).rendered);
        }
    }

    #[test]
    fn ten_thousand_device_fabric_is_partition_invariant() {
        // k=16 with hosts: 320 switches + 1024 hosts per the Al-Fares
        // arithmetic... not ≥10k; k=32 gives 1280 + 8192 = 9472; the
        // ≥10k floor needs k=64: 5120 switches + 65536 hosts = 70656
        // devices. Query a small seeded sample so the test stays fast —
        // partition invariance is per-destination, so sample size does
        // not weaken the property.
        let spec = DpvScaleSpec {
            link_down: 40,
            queries: Some(3),
            ..DpvScaleSpec::new(64, 7)
        };
        let serial = serial_reference(&spec);
        assert!(serial.devices >= 10_000, "fabric must clear the 10k-device floor");
        assert_eq!(serial.queried, 3);
        for partitions in [2usize, 8] {
            let report = run_spec(&DpvScaleSpec { partitions, workers: 4, ..spec }).expect("run");
            assert_eq!(report.rendered, serial.rendered, "P={partitions}");
        }
    }

    #[test]
    fn chunk_error_surfaces_typed_and_first() {
        // Host-block destinations hash-cons into the fabric's aligned
        // predicates, so exhaustion needs the ANY destination (unions
        // of disjoint host blocks mint genuinely new nodes).
        let fabric = build(&FabricSpec { k: 4, seed: 3, link_down: 0, with_hosts: true });
        let dests = vec![(fabric.dest(0).0, Prefix::ANY), fabric.dest(1)];
        let tight = ScaleOpts { profile: EngineProfile::Cached, node_cap: Some(8) };
        match run_partitioned(&fabric.network, &dests, &tight, 2, 2) {
            Err(DpvScaleError::Verify(ScaleError::Bdd(
                netrepro_bdd::BddError::TableExhausted { cap, .. },
            ))) => assert_eq!(cap, 8),
            other => panic!("expected TableExhausted, got {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The tentpole property: partitioned parallel verification is
        /// byte-identical to the serial verifier at P ∈ {1,2,4,8} on
        /// seeded fat-trees, with and without link_down churn.
        #[test]
        fn partitioned_verdicts_are_byte_identical_to_serial(
            seed in 0u64..1_000,
            k in prop_oneof![Just(4usize), Just(8)],
            link_down in 0usize..24,
            queries in prop_oneof![Just(None), (1usize..12).prop_map(Some)],
        ) {
            let spec = DpvScaleSpec {
                link_down,
                queries,
                ..DpvScaleSpec::new(k, seed)
            };
            let serial = serial_reference(&spec);
            for partitions in [1usize, 2, 4, 8] {
                let report = run_spec(&DpvScaleSpec {
                    partitions,
                    workers: partitions.min(4),
                    ..spec
                }).expect("partitioned run");
                prop_assert_eq!(&report.rendered, &serial.rendered,
                    "P={} k={} seed={} link_down={}", partitions, k, seed, link_down);
                prop_assert_eq!(report.digest, serial.digest);
            }
        }
    }
}
