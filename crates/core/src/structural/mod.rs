//! Structural analyses (§ III): comparator identification and support-set
//! matching.

mod comparators;
mod support_match;

pub(crate) use comparators::comparators_over;
pub use comparators::{find_comparators, find_comparators_sat, Comparator};
pub(crate) use support_match::candidates_over;
pub use support_match::{find_candidates, CandidateNodes};
