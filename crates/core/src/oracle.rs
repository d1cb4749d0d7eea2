//! Input/output oracles.
//!
//! The adversary model (§ II-A) optionally grants access to an *activated*
//! chip: a black box that maps primary-input patterns to output patterns
//! under the correct (secret) key.  [`SimOracle`] plays that role by
//! simulating the original unlocked netlist; [`CountingOracle`] wraps any
//! oracle and counts queries, which the experiments report.

use std::sync::atomic::{AtomicUsize, Ordering};

use netlist::Netlist;

/// A black-box input/output oracle for an activated circuit.
pub trait Oracle {
    /// Returns the circuit outputs for the given primary-input pattern.
    fn query(&self, inputs: &[bool]) -> Vec<bool>;

    /// Number of primary inputs the oracle expects.
    fn num_inputs(&self) -> usize;

    /// Number of outputs the oracle produces.
    fn num_outputs(&self) -> usize;
}

/// An oracle backed by simulation of the original (unlocked) netlist.
#[derive(Clone, Debug)]
pub struct SimOracle {
    netlist: Netlist,
}

impl SimOracle {
    /// Creates an oracle from the original netlist.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has key inputs (an activated chip has none).
    pub fn new(original: Netlist) -> SimOracle {
        assert_eq!(
            original.num_key_inputs(),
            0,
            "oracle circuit must be the unlocked original"
        );
        SimOracle { netlist: original }
    }

    /// Creates an oracle from a *locked* netlist activated with its correct
    /// key: key inputs are driven by the key values on every query.
    pub fn from_locked(locked: Netlist, key: &locking::Key) -> ActivatedOracle {
        ActivatedOracle {
            netlist: locked,
            key: key.bits().to_vec(),
        }
    }
}

impl Oracle for SimOracle {
    fn query(&self, inputs: &[bool]) -> Vec<bool> {
        self.netlist.evaluate(inputs, &[])
    }

    fn num_inputs(&self) -> usize {
        self.netlist.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.netlist.num_outputs()
    }
}

/// An oracle backed by a locked netlist plus its correct key (an "activated
/// IC bought on the open market").
#[derive(Clone, Debug)]
pub struct ActivatedOracle {
    netlist: Netlist,
    key: Vec<bool>,
}

impl Oracle for ActivatedOracle {
    fn query(&self, inputs: &[bool]) -> Vec<bool> {
        self.netlist.evaluate(inputs, &self.key)
    }

    fn num_inputs(&self) -> usize {
        self.netlist.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.netlist.num_outputs()
    }
}

/// Wraps an oracle and counts the number of queries issued.
///
/// The counter is atomic, so a `CountingOracle` over a `Sync` oracle is
/// itself `Sync` and can sit underneath the parallel engine's shared cache.
#[derive(Debug)]
pub struct CountingOracle<O> {
    inner: O,
    queries: AtomicUsize,
}

impl<O: Oracle> CountingOracle<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> CountingOracle<O> {
        CountingOracle {
            inner,
            queries: AtomicUsize::new(0),
        }
    }

    /// Number of queries issued so far.
    pub fn queries(&self) -> usize {
        self.queries.load(Ordering::Relaxed)
    }

    /// Returns the wrapped oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: Oracle> Oracle for CountingOracle<O> {
    fn query(&self, inputs: &[bool]) -> Vec<bool> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.inner.query(inputs)
    }

    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use locking::{LockingScheme, TtLock};
    use netlist::random::{generate, RandomCircuitSpec};
    use netlist::sim::pattern_to_bits;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// Raises an interrupt flag once the wrapped oracle has answered
    /// `limit` queries.  The solver checks the flag before its first
    /// decision, so a DIP loop on a session holding the flag stops after
    /// exactly `limit` iterations.
    pub(crate) struct InterruptAfter<O> {
        inner: CountingOracle<O>,
        limit: usize,
        flag: Arc<AtomicBool>,
    }

    impl<O: Oracle> InterruptAfter<O> {
        pub(crate) fn new(inner: O, limit: usize, flag: Arc<AtomicBool>) -> InterruptAfter<O> {
            InterruptAfter {
                inner: CountingOracle::new(inner),
                limit,
                flag,
            }
        }
    }

    impl<O: Oracle> Oracle for InterruptAfter<O> {
        fn query(&self, inputs: &[bool]) -> Vec<bool> {
            let answer = self.inner.query(inputs);
            if self.inner.queries() >= self.limit {
                self.flag.store(true, Ordering::SeqCst);
            }
            answer
        }

        fn num_inputs(&self) -> usize {
            self.inner.num_inputs()
        }

        fn num_outputs(&self) -> usize {
            self.inner.num_outputs()
        }
    }

    #[test]
    fn sim_oracle_matches_netlist() {
        let nl = generate(&RandomCircuitSpec::new("oracle", 6, 2, 30));
        let oracle = SimOracle::new(nl.clone());
        assert_eq!(oracle.num_inputs(), 6);
        assert_eq!(oracle.num_outputs(), 2);
        for pattern in 0..64u64 {
            let bits = pattern_to_bits(pattern, 6);
            assert_eq!(oracle.query(&bits), nl.evaluate(&bits, &[]));
        }
    }

    #[test]
    fn activated_oracle_answers_like_sim_oracle() {
        let nl = generate(&RandomCircuitSpec::new("activated", 6, 2, 30));
        let locked = TtLock::new(4).with_seed(8).lock(&nl).expect("lock");
        let activated = SimOracle::from_locked(locked.locked.clone(), &locked.key);
        let plain = SimOracle::new(nl);
        assert_eq!(activated.num_inputs(), plain.num_inputs());
        assert_eq!(activated.num_outputs(), plain.num_outputs());
        for pattern in 0..64u64 {
            let bits = pattern_to_bits(pattern, 6);
            assert_eq!(
                activated.query(&bits),
                plain.query(&bits),
                "pattern {pattern}"
            );
        }
    }

    #[test]
    fn counting_oracle_counts() {
        let nl = generate(&RandomCircuitSpec::new("count", 4, 1, 10));
        let oracle = CountingOracle::new(SimOracle::new(nl));
        assert_eq!(oracle.queries(), 0);
        let _ = oracle.query(&[false; 4]);
        let _ = oracle.query(&[true; 4]);
        assert_eq!(oracle.queries(), 2);
    }

    #[test]
    #[should_panic(expected = "unlocked original")]
    fn sim_oracle_rejects_locked_netlists() {
        let nl = generate(&RandomCircuitSpec::new("bad", 6, 2, 30));
        let locked = TtLock::new(4).lock(&nl).expect("lock");
        let _ = SimOracle::new(locked.locked);
    }
}
