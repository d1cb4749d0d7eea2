//! A scheme × transformation matrix: every locking scheme must stay correct
//! under the correct key through structural hashing and a `.bench`
//! export/import round trip — the transformations a locked design
//! undergoes between the design house and the foundry.

use locking::{AntiSat, LockedCircuit, LockingScheme, SarLock, SfllHd, TtLock, XorLock};
use netlist::random::{generate, RandomCircuitSpec};
use netlist::sim::pattern_to_bits;
use netlist::strash::strash;
use netlist::Netlist;

fn schemes() -> Vec<Box<dyn LockingScheme>> {
    vec![
        Box::new(TtLock::new(8).with_seed(1)),
        Box::new(SfllHd::new(8, 1).with_seed(1)),
        Box::new(SfllHd::new(8, 2).with_seed(2)),
        Box::new(SarLock::new(8).with_seed(1)),
        Box::new(AntiSat::new(4).with_seed(1)),
        Box::new(XorLock::new(8).with_seed(1)),
    ]
}

fn original() -> Netlist {
    generate(&RandomCircuitSpec::new("matrix", 10, 3, 80))
}

fn agrees_with_original(locked: &LockedCircuit, transformed: &Netlist) -> bool {
    (0..1024u64).all(|pattern| {
        let bits = pattern_to_bits(pattern, 10);
        transformed.evaluate(&bits, locked.key.bits()) == locked.original.evaluate(&bits, &[])
    })
}

#[test]
fn every_scheme_is_transparent_under_the_correct_key() {
    let original = original();
    for scheme in schemes() {
        let locked = scheme.lock(&original).expect("lock");
        assert!(
            agrees_with_original(&locked, &locked.locked),
            "{} is not transparent under its correct key",
            scheme.name()
        );
    }
}

#[test]
fn strash_preserves_every_scheme() {
    let original = original();
    for scheme in schemes() {
        let locked = scheme.lock(&original).expect("lock");
        let optimized = strash(&locked.locked);
        assert!(
            agrees_with_original(&locked, &optimized),
            "strash broke {}",
            scheme.name()
        );
    }
}

#[test]
fn bench_round_trip_preserves_every_scheme() {
    let original = original();
    for scheme in schemes() {
        let locked = scheme.lock(&original).expect("lock");
        let text = netlist::bench_format::write(&locked.locked);
        let reparsed = netlist::bench_format::parse(&text).expect("parse");
        assert_eq!(
            reparsed.num_key_inputs(),
            locked.locked.num_key_inputs(),
            "{}: key inputs lost in .bench round trip",
            scheme.name()
        );
        assert!(
            agrees_with_original(&locked, &reparsed),
            ".bench round trip broke {}",
            scheme.name()
        );
    }
}

#[test]
fn key_width_and_metadata_are_consistent_across_schemes() {
    let original = original();
    for scheme in schemes() {
        let locked = scheme.lock(&original).expect("lock");
        assert_eq!(locked.key.len(), locked.locked.num_key_inputs());
        assert_eq!(locked.scheme, scheme.name());
        assert_eq!(locked.locked.num_inputs(), original.num_inputs());
        assert_eq!(locked.locked.num_outputs(), original.num_outputs());
        assert!(locked.locked.validate().is_ok());
    }
}
