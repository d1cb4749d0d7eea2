//! Structural analyses over netlists: support sets and transitive fanin
//! cones, per node ([`support`], [`transitive_fanin`]) or for every node at
//! once ([`SupportTable`]).

mod support;

pub use support::{input_positions, support, transitive_fanin, SupportSet, SupportTable};
