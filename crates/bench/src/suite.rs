//! The benchmark suite: the 20 circuits of Table I and the SFLL lock grid.

use locking::{LockedCircuit, LockingScheme, SfllHd, TtLock};
use netlist::random::{generate, RandomCircuitSpec};
use netlist::Netlist;

/// Interface sizes of one benchmark circuit (one row of Table I).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CircuitSpec {
    /// Circuit name (ISCAS'85 / MCNC benchmark name).
    pub name: &'static str,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of outputs.
    pub outputs: usize,
    /// Gate count of the original circuit as reported in Table I.
    pub gates: usize,
    /// Key width used by the paper (`min(inputs, 64)` in the 64-bit setup).
    pub keys: usize,
}

/// The 20 benchmark circuits of Table I with the paper's interface sizes.
pub const TABLE1_CIRCUITS: [CircuitSpec; 20] = [
    CircuitSpec {
        name: "ex1010",
        inputs: 10,
        outputs: 10,
        gates: 2754,
        keys: 10,
    },
    CircuitSpec {
        name: "apex4",
        inputs: 10,
        outputs: 19,
        gates: 2886,
        keys: 10,
    },
    CircuitSpec {
        name: "c1908",
        inputs: 33,
        outputs: 25,
        gates: 414,
        keys: 33,
    },
    CircuitSpec {
        name: "c432",
        inputs: 36,
        outputs: 7,
        gates: 209,
        keys: 36,
    },
    CircuitSpec {
        name: "apex2",
        inputs: 39,
        outputs: 3,
        gates: 345,
        keys: 39,
    },
    CircuitSpec {
        name: "c1355",
        inputs: 41,
        outputs: 32,
        gates: 504,
        keys: 41,
    },
    CircuitSpec {
        name: "seq",
        inputs: 41,
        outputs: 35,
        gates: 1964,
        keys: 41,
    },
    CircuitSpec {
        name: "c499",
        inputs: 41,
        outputs: 32,
        gates: 400,
        keys: 41,
    },
    CircuitSpec {
        name: "k2",
        inputs: 46,
        outputs: 45,
        gates: 1474,
        keys: 46,
    },
    CircuitSpec {
        name: "c3540",
        inputs: 50,
        outputs: 22,
        gates: 1038,
        keys: 50,
    },
    CircuitSpec {
        name: "c880",
        inputs: 60,
        outputs: 26,
        gates: 327,
        keys: 60,
    },
    CircuitSpec {
        name: "dalu",
        inputs: 75,
        outputs: 16,
        gates: 1202,
        keys: 64,
    },
    CircuitSpec {
        name: "i9",
        inputs: 88,
        outputs: 63,
        gates: 591,
        keys: 64,
    },
    CircuitSpec {
        name: "i8",
        inputs: 133,
        outputs: 81,
        gates: 1725,
        keys: 64,
    },
    CircuitSpec {
        name: "c5315",
        inputs: 178,
        outputs: 123,
        gates: 1773,
        keys: 64,
    },
    CircuitSpec {
        name: "i4",
        inputs: 192,
        outputs: 6,
        gates: 246,
        keys: 64,
    },
    CircuitSpec {
        name: "i7",
        inputs: 199,
        outputs: 67,
        gates: 663,
        keys: 64,
    },
    CircuitSpec {
        name: "c7552",
        inputs: 207,
        outputs: 108,
        gates: 2074,
        keys: 64,
    },
    CircuitSpec {
        name: "c2670",
        inputs: 233,
        outputs: 140,
        gates: 717,
        keys: 64,
    },
    CircuitSpec {
        name: "des",
        inputs: 256,
        outputs: 245,
        gates: 3839,
        keys: 64,
    },
];

/// How large the generated circuits and keys should be.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Scale {
    /// Laptop-friendly sizes: inputs, gates and keys are capped so the whole
    /// grid runs in minutes.  This is the default for all harness binaries.
    #[default]
    Scaled,
    /// The paper's sizes (up to 256 inputs, 64-bit keys).
    Paper,
}

impl CircuitSpec {
    /// The spec actually used at a given scale.
    pub fn at_scale(&self, scale: Scale) -> CircuitSpec {
        match scale {
            Scale::Paper => *self,
            Scale::Scaled => CircuitSpec {
                name: self.name,
                inputs: self.inputs.min(24),
                outputs: self.outputs.min(8),
                gates: self.gates.min(400),
                keys: self.keys.min(14),
            },
        }
    }

    /// Deterministically generates the substitute netlist for this circuit.
    pub fn build(&self, scale: Scale) -> Netlist {
        let spec = self.at_scale(scale);
        generate(
            &RandomCircuitSpec::new(spec.name, spec.inputs, spec.outputs, spec.gates)
                .with_seed(seed_from_name(spec.name)),
        )
    }
}

fn seed_from_name(name: &str) -> u64 {
    // FNV-1a keeps the suite deterministic without external dependencies.
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The Hamming-distance settings of Figure 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HdPolicy {
    /// SFLL-HD0 (equivalently TTLock).
    Zero,
    /// `h = floor(m / 8)`.
    EighthOfKeys,
    /// `h = floor(m / 4)`.
    QuarterOfKeys,
    /// `h = floor(m / 3)`.
    ThirdOfKeys,
}

impl HdPolicy {
    /// All policies, in the order of Figure 5's panels.
    pub fn all() -> [HdPolicy; 4] {
        [
            HdPolicy::Zero,
            HdPolicy::EighthOfKeys,
            HdPolicy::QuarterOfKeys,
            HdPolicy::ThirdOfKeys,
        ]
    }

    /// The concrete `h` for a key width `m`.
    pub fn h_for(self, m: usize) -> usize {
        match self {
            HdPolicy::Zero => 0,
            HdPolicy::EighthOfKeys => m / 8,
            HdPolicy::QuarterOfKeys => m / 4,
            HdPolicy::ThirdOfKeys => m / 3,
        }
    }

    /// Panel label used in Figure 5.
    pub fn label(self) -> &'static str {
        match self {
            HdPolicy::Zero => "SFLL-HD0",
            HdPolicy::EighthOfKeys => "SFLL-HDh where h = m/8",
            HdPolicy::QuarterOfKeys => "SFLL-HDh where h = m/4",
            HdPolicy::ThirdOfKeys => "SFLL-HDh where h = m/3",
        }
    }
}

/// One locked instance of the experiment grid.
#[derive(Clone, Debug)]
pub struct LockCase {
    /// The benchmark circuit.
    pub spec: CircuitSpec,
    /// The Hamming-distance policy.
    pub policy: HdPolicy,
    /// The concrete `h`.
    pub h: usize,
    /// Key width.
    pub keys: usize,
    /// The locked circuit (already structurally hashed).
    pub locked: LockedCircuit,
}

impl LockCase {
    /// Builds (generates + locks + optimises) one case of the grid.
    pub fn build(spec: &CircuitSpec, policy: HdPolicy, scale: Scale) -> LockCase {
        let effective = spec.at_scale(scale);
        let original = spec.build(scale);
        let h = policy.h_for(effective.keys);
        let seed = seed_from_name(effective.name) ^ (h as u64) << 32;
        let locked = if h == 0 && matches!(policy, HdPolicy::Zero) {
            // The paper's HD0 circuits use the TTLock structure.
            TtLock::new(effective.keys)
                .with_seed(seed)
                .lock(&original)
                .expect("suite circuits are large enough to lock")
        } else {
            SfllHd::new(effective.keys, h)
                .with_seed(seed)
                .lock(&original)
                .expect("suite circuits are large enough to lock")
        };
        LockCase {
            spec: effective,
            policy,
            h,
            keys: effective.keys,
            locked: locked.optimized(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_twenty_circuits_with_paper_sizes() {
        assert_eq!(TABLE1_CIRCUITS.len(), 20);
        let des = TABLE1_CIRCUITS.last().unwrap();
        assert_eq!(des.name, "des");
        assert_eq!(des.inputs, 256);
        assert_eq!(des.keys, 64);
        // Keys never exceed inputs and are capped at 64 as in the paper.
        for spec in &TABLE1_CIRCUITS {
            assert!(spec.keys <= spec.inputs);
            assert!(spec.keys <= 64);
        }
    }

    #[test]
    fn generation_is_deterministic_and_sized() {
        let spec = &TABLE1_CIRCUITS[2]; // c1908
        let a = spec.build(Scale::Scaled);
        let b = spec.build(Scale::Scaled);
        assert_eq!(a.num_gates(), b.num_gates());
        assert_eq!(a.num_inputs(), spec.at_scale(Scale::Scaled).inputs);
    }

    #[test]
    fn hd_policies_match_figure5() {
        assert_eq!(HdPolicy::Zero.h_for(64), 0);
        assert_eq!(HdPolicy::EighthOfKeys.h_for(64), 8);
        assert_eq!(HdPolicy::QuarterOfKeys.h_for(64), 16);
        assert_eq!(HdPolicy::ThirdOfKeys.h_for(64), 21);
        assert_eq!(HdPolicy::all().len(), 4);
    }

    #[test]
    fn lock_case_is_correctly_keyed() {
        let case = LockCase::build(&TABLE1_CIRCUITS[0], HdPolicy::EighthOfKeys, Scale::Scaled);
        assert!(case.locked.correct_key_is_functionally_correct(64, 0));
        assert_eq!(case.locked.locked.num_key_inputs(), case.keys);
    }
}
