//! Pins of the Table C and Table D data planes, built exactly as the
//! `table_c_apkeep` and `table_d_ap` binaries build them at the quick
//! scale: AP atom counts under both engine profiles, the delivered
//! fraction of every sampled selective-BFS query, and APKeep's atom
//! count after every rule is inserted. The literals are the values of
//! the data plane before its egress-ACL layer was removed; any change to
//! how forwarding tables compile into predicates moves one of them.

use netrepro_bdd::EngineProfile;
use netrepro_bench::{table_c_datasets, table_d_datasets, Scale, SEED};
use netrepro_core::validate::dpv_dataset;
use netrepro_dpv::ap::ApVerifier;
use netrepro_dpv::apkeep::ApKeep;
use netrepro_dpv::reach::selective_bfs;
use netrepro_graph::gen::sample_pairs;

/// `(dataset, cached atoms, uncached atoms, delivered fraction per query)`.
const TABLE_D: [(&str, usize, usize, [f64; 6]); 3] = [
    ("Internet2", 10, 10, [0.0625; 6]),
    ("Stanford", 15, 15, [0.0625; 6]),
    ("Purdue", 19, 19, [0.03125; 6]),
];

/// `(dataset, APKeep atoms after inserting every rule)`.
const TABLE_C: [(&str, usize); 4] =
    [("Internet2", 10), ("Stanford", 16), ("Purdue", 25), ("Campus4", 32)];

#[test]
fn table_d_atoms_and_delivered_fractions_are_pinned() {
    let datasets = table_d_datasets(Scale::Quick);
    assert_eq!(datasets.len(), TABLE_D.len());
    for ((name, nodes, width, _cap), pin) in datasets.into_iter().zip(&TABLE_D) {
        let &(pin_name, cached, uncached, fractions) = pin;
        assert_eq!(name, pin_name);
        let ds = dpv_dataset(name, nodes, width, SEED + nodes as u64);
        let mut v = ApVerifier::build(&ds.network, EngineProfile::Cached);
        let uncached_atoms = ApVerifier::build(&ds.network, EngineProfile::Uncached).num_atoms();
        let queries = sample_pairs(&ds.network.graph, 6, SEED + 7);
        let got: Vec<f64> = queries
            .iter()
            .map(|&(s, d)| {
                let delivered = selective_bfs(&v, s, d).delivered;
                let bdd = v.atoms.to_bdd(&mut v.manager, &delivered);
                v.manager.sat_fraction(bdd)
            })
            .collect();
        assert_eq!(v.num_atoms(), cached, "{name}: cached atoms");
        assert_eq!(uncached_atoms, uncached, "{name}: uncached atoms");
        assert_eq!(got, fractions, "{name}: delivered fractions");
    }
}

#[test]
fn table_c_apkeep_atoms_are_pinned() {
    let datasets = table_c_datasets(Scale::Quick);
    assert_eq!(datasets.len(), TABLE_C.len());
    for ((name, nodes, width), &(pin_name, atoms)) in datasets.into_iter().zip(&TABLE_C) {
        assert_eq!(name, pin_name);
        let ds = dpv_dataset(name, nodes, width, SEED + nodes as u64);
        let mut k = ApKeep::new(&ds.network, EngineProfile::Cached);
        for v in ds.network.graph.nodes() {
            for r in &ds.network.device(v).rules {
                k.insert(v, *r);
            }
        }
        let got = k.num_atomic_predicates();
        assert_eq!(got, atoms, "{name}: APKeep atoms");
    }
}
