//! SAT instantiation helpers shared by all attack stages.
//!
//! Every attack encodes copies of the locked circuit's characteristic
//! relation `C(X, K, Y)` into a solver.  These helpers wrap
//! [`netlist::cnf::IncrementalEncoder`] with the pin-sharing patterns the
//! attacks need (shared inputs, fixed inputs, forced outputs) and with
//! key/input literal bookkeeping.

use locking::Key;
use netlist::cnf::{IncrementalEncoder, PinBinding};
use netlist::Netlist;
use sat::{Lit, Solver};

/// A copy of the circuit relation `C(X, K, Y)` inside a solver.
#[derive(Clone, Debug)]
pub struct CircuitCopy {
    /// Literals of the primary inputs `X`.
    pub inputs: Vec<Lit>,
    /// Literals of the key inputs `K`.
    pub keys: Vec<Lit>,
    /// Literals of the outputs `Y`.
    pub outputs: Vec<Lit>,
}

/// Encodes every output cone of `locked` with the given pin binding.
fn instantiate_with(locked: &Netlist, solver: &mut Solver, pins: &PinBinding) -> CircuitCopy {
    let mut enc = IncrementalEncoder::new(locked, solver, pins);
    let outputs = enc.encode_outputs(locked, solver);
    CircuitCopy {
        inputs: enc.inputs().to_vec(),
        keys: enc.keys().to_vec(),
        outputs,
    }
}

/// Instantiates a fresh copy of the circuit with all pins unconstrained.
pub fn instantiate(locked: &Netlist, solver: &mut Solver) -> CircuitCopy {
    instantiate_with(locked, solver, &PinBinding::default())
}

/// Instantiates a copy that shares the primary-input literals of an existing
/// copy but uses fresh key literals (the two-key trick of the SAT attack).
pub fn instantiate_sharing_inputs(
    locked: &Netlist,
    solver: &mut Solver,
    inputs: &[Lit],
) -> CircuitCopy {
    instantiate_with(
        locked,
        solver,
        &PinBinding {
            inputs: Some(inputs.to_vec()),
            keys: None,
        },
    )
}

/// Instantiates a copy that reuses existing key literals but has fresh input
/// literals (used to accumulate I/O constraints on one key vector).
pub fn instantiate_sharing_keys(
    locked: &Netlist,
    solver: &mut Solver,
    keys: &[Lit],
) -> CircuitCopy {
    instantiate_with(
        locked,
        solver,
        &PinBinding {
            inputs: None,
            keys: Some(keys.to_vec()),
        },
    )
}

/// Forces a literal vector to the given constant values.
///
/// # Panics
///
/// Panics if the widths differ.
pub fn constrain_equal_const(solver: &mut Solver, lits: &[Lit], values: &[bool]) {
    assert_eq!(lits.len(), values.len(), "width mismatch");
    for (&lit, &value) in lits.iter().zip(values) {
        solver.add_clause([if value { lit } else { !lit }]);
    }
}

/// Returns the assumption literals that pin `lits` to `values` (without adding
/// clauses), for use with [`sat::Solver::solve_with`].
///
/// # Panics
///
/// Panics if the widths differ.
pub fn assumptions_for(lits: &[Lit], values: &[bool]) -> Vec<Lit> {
    assert_eq!(lits.len(), values.len(), "width mismatch");
    lits.iter()
        .zip(values)
        .map(|(&lit, &value)| if value { lit } else { !lit })
        .collect()
}

/// Extracts the model values of a literal vector after a successful solve.
///
/// # Panics
///
/// Panics if the solver has no model for one of the literals.
pub fn model_values(solver: &Solver, lits: &[Lit]) -> Vec<bool> {
    lits.iter()
        .map(|&l| solver.value(l).expect("literal not assigned in model"))
        .collect()
}

/// Extracts a [`Key`] from the model values of the key literals.
///
/// # Panics
///
/// Panics if the solver has no model for one of the literals.
pub fn model_key(solver: &Solver, key_lits: &[Lit]) -> Key {
    Key::new(model_values(solver, key_lits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use locking::{LockingScheme, XorLock};
    use netlist::random::{generate, RandomCircuitSpec};
    use sat::SolveResult;

    #[test]
    fn two_copies_with_shared_inputs_find_differing_keys() {
        let original = generate(&RandomCircuitSpec::new("enc", 6, 2, 30));
        let locked = XorLock::new(4).with_seed(1).lock(&original).expect("lock");

        let mut solver = Solver::new();
        let first = instantiate(&locked.locked, &mut solver);
        let second = instantiate_sharing_inputs(&locked.locked, &mut solver, &first.inputs);
        let diff =
            netlist::cnf::encode_any_difference(&mut solver, &first.outputs, &second.outputs);
        solver.add_clause([diff]);
        assert_eq!(solver.solve(), SolveResult::Sat);
        let k1 = model_values(&solver, &first.keys);
        let k2 = model_values(&solver, &second.keys);
        assert_ne!(k1, k2, "differing outputs require differing keys");
    }

    #[test]
    fn constrained_copy_matches_simulation() {
        let original = generate(&RandomCircuitSpec::new("enc2", 5, 2, 20));
        let locked = XorLock::new(3).with_seed(2).lock(&original).expect("lock");
        let stimulus = [true, false, true, true, false];

        let mut solver = Solver::new();
        let copy = instantiate(&locked.locked, &mut solver);
        constrain_equal_const(&mut solver, &copy.inputs, &stimulus);
        constrain_equal_const(&mut solver, &copy.keys, locked.key.bits());
        assert_eq!(solver.solve(), SolveResult::Sat);
        assert_eq!(
            model_values(&solver, &copy.outputs),
            original.evaluate(&stimulus, &[])
        );
    }

    #[test]
    fn assumptions_pin_values_without_clauses() {
        let original = generate(&RandomCircuitSpec::new("enc3", 5, 1, 20));
        let locked = XorLock::new(3).with_seed(3).lock(&original).expect("lock");
        let mut solver = Solver::new();
        let copy = instantiate(&locked.locked, &mut solver);
        let correct = assumptions_for(&copy.keys, locked.key.bits());
        assert_eq!(solver.solve_with(&correct), SolveResult::Sat);
        assert_eq!(model_key(&solver, &copy.keys), locked.key);
        // The same solver can afterwards try a different key.
        let wrong = assumptions_for(&copy.keys, locked.key.complement().bits());
        assert_eq!(solver.solve_with(&wrong), SolveResult::Sat);
        assert_eq!(model_key(&solver, &copy.keys), locked.key.complement());
    }
}
