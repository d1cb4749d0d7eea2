//! Structural analyses over netlists: support sets, transitive fanin cones,
//! logic levels and size statistics.

mod levels;
mod support;

pub use levels::{logic_levels, max_level, NetlistStats};
pub use support::{input_positions, support, transitive_fanin, SupportSet, SupportTable};
