//! Functional analyses (§ IV): extracting suspected protected cubes from
//! candidate cube-stripper nodes.
//!
//! Each analysis takes a candidate node `c` and returns the assignment of the
//! node's support inputs that (if `c` really is the cube stripper) equals the
//! protected cube — and therefore the correct key.  `None` plays the role of
//! the paper's ⊥.

mod distance_2h;
mod pair;
mod prefilter;
mod propose;
mod sliding_window;
mod unateness;

pub use distance_2h::{distance_2h, distance_2h_in};
pub(crate) use prefilter::Prefilter;
pub use prefilter::PrefilterStats;
pub(crate) use propose::{propose_cube_in, Enumeration};
pub use sliding_window::{sliding_window, sliding_window_in};
pub use unateness::{analyze_unateness, analyze_unateness_in};

use netlist::NodeId;

/// A suspected protected-cube assignment: one Boolean per support input of
/// the candidate node, sorted by node id.
pub type CubeAssignment = Vec<(NodeId, bool)>;

/// Which functional analysis produced a result (used in reports and the
/// Figure 5 harness).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Analysis {
    /// [`analyze_unateness`] (Algorithm 1) — TTLock / SFLL-HD0.
    Unateness,
    /// [`sliding_window`] (Algorithm 2) — SFLL-HDh with `2h < m`.
    SlidingWindow,
    /// [`distance_2h`] (Algorithm 3) — SFLL-HDh with `4h <= m`.
    Distance2H,
}

impl Analysis {
    /// Returns the analyses applicable for a given `h` and key width `m`, in
    /// the order the combined attack tries them.
    pub fn applicable(h: usize, m: usize) -> Vec<Analysis> {
        if h == 0 {
            vec![
                Analysis::Unateness,
                Analysis::SlidingWindow,
                Analysis::Distance2H,
            ]
        } else {
            let mut v = Vec::new();
            if 4 * h <= m {
                v.push(Analysis::Distance2H);
            }
            if 2 * h < m {
                v.push(Analysis::SlidingWindow);
            }
            v
        }
    }

    /// Whether the analysis is complete for a candidate with `m` support
    /// inputs: on a true `strip_h(k)` it returns exactly `k` (Lemma 1 at
    /// `h = 0`, Lemmas 2 and 3 at `2h < m`, Algorithm 3 at `4h <= m`).  So
    /// at `2h != m` its decided ⊥ means the candidate is `strip_h` of no
    /// cube.  Only complete analyses read and record the session's stripper
    /// verdicts ([`crate::session::AttackSession::settle_cube`]).
    pub(crate) fn is_complete(self, h: usize, m: usize) -> bool {
        match self {
            Analysis::Unateness => h == 0,
            Analysis::SlidingWindow => 2 * h < m,
            Analysis::Distance2H => 4 * h <= m,
        }
    }

    /// Human-readable name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Analysis::Unateness => "AnalyzeUnateness",
            Analysis::SlidingWindow => "SlidingWindow",
            Analysis::Distance2H => "Distance2H",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applicability_follows_the_paper() {
        // h = 0: unateness applies (and the HD analyses degenerate gracefully).
        assert!(Analysis::applicable(0, 8).contains(&Analysis::Unateness));
        // 4h <= m: Distance2H applies.
        assert!(Analysis::applicable(2, 8).contains(&Analysis::Distance2H));
        // 4h > m but 2h < m: only SlidingWindow.
        let a = Analysis::applicable(3, 8);
        assert!(!a.contains(&Analysis::Distance2H));
        assert!(a.contains(&Analysis::SlidingWindow));
        // 2h >= m: nothing applies.
        assert!(Analysis::applicable(4, 8).is_empty());
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(Analysis::Unateness.name(), "AnalyzeUnateness");
        assert_eq!(Analysis::SlidingWindow.name(), "SlidingWindow");
        assert_eq!(Analysis::Distance2H.name(), "Distance2H");
    }
}
