//! `docs/PROTOCOL.md` is the normative specification of both wire
//! protocols, so the names and versions it lists must be the ones the code
//! speaks: the two "Protocol version" lines, the serve job statuses and the
//! farm's `complete` outcomes.

use std::collections::BTreeSet;

use fall::service::JobStatus;
use fall_dist::protocol::RegionOutcome;

const PROTOCOL_MD: &str = include_str!("../docs/PROTOCOL.md");

/// Every backtick-quoted name in `text`.
fn quoted(text: &str) -> BTreeSet<&str> {
    text.split('`').skip(1).step_by(2).collect()
}

/// The lines under `heading`, up to the next heading of any level.
fn section(heading: &str) -> Vec<&'static str> {
    let mut lines = PROTOCOL_MD.lines();
    assert!(lines.any(|line| line == heading), "no heading {heading:?}");
    lines.take_while(|line| !line.starts_with('#')).collect()
}

/// The one table row of `section` whose first cell is `` `name` ``.
fn table_row(section: &[&'static str], name: &str) -> &'static str {
    let prefix = format!("| `{name}` ");
    let mut rows = section.iter().filter(|line| line.starts_with(&prefix));
    let row = rows.next().unwrap_or_else(|| panic!("no `{name}` row"));
    assert!(rows.next().is_none(), "more than one `{name}` row");
    row
}

/// The version on the section's "Protocol version: **N**" line.
fn protocol_version(section: &[&str]) -> u64 {
    let mut versions = section
        .iter()
        .filter_map(|line| line.strip_prefix("Protocol version: **"));
    let line = versions.next().expect("a protocol version line");
    assert!(versions.next().is_none(), "more than one version line");
    let (number, _) = line.split_once("**").expect("closing **");
    number.parse().expect("a version number")
}

#[test]
fn both_protocol_versions_match_the_constants() {
    assert_eq!(
        protocol_version(&section("# The `fall-serve` wire protocol")),
        fall_serve::protocol::PROTOCOL_VERSION
    );
    assert_eq!(
        protocol_version(&section("# The `fall-dist` farm protocol")),
        fall_dist::protocol::PROTOCOL_VERSION
    );
    assert_eq!(PROTOCOL_MD.matches("Protocol version: **").count(), 2);
}

#[test]
fn the_status_row_lists_every_job_status() {
    let names: BTreeSet<&str> = [
        JobStatus::KeyFound,
        JobStatus::NoKey,
        JobStatus::Timeout,
        JobStatus::Cancelled,
    ]
    .into_iter()
    .map(|status| match status {
        // A new variant fails to compile here until it is listed above.
        JobStatus::KeyFound | JobStatus::NoKey | JobStatus::Timeout | JobStatus::Cancelled => {
            status.as_str()
        }
    })
    .collect();
    let row = table_row(&section("### Job events"), "status");
    let (_, meaning) = row[1..].split_once('|').expect("two cells");
    assert_eq!(quoted(meaning), names, "{row}");
}

#[test]
fn the_complete_row_lists_every_region_outcome() {
    let names: BTreeSet<&str> = [
        RegionOutcome::Keyless,
        RegionOutcome::Found,
        RegionOutcome::Cancelled,
    ]
    .into_iter()
    .map(|outcome| match outcome {
        // A new variant fails to compile here until it is listed above.
        RegionOutcome::Keyless | RegionOutcome::Found | RegionOutcome::Cancelled => {
            outcome.as_str()
        }
    })
    .collect();
    let row = table_row(&section("## Worker → supervisor messages"), "complete");
    let (_, outcomes) = row.split_once("`outcome` ∈").expect("an outcome list");
    let (outcomes, _) = outcomes.split_once(';').expect("the list ends at ';'");
    assert_eq!(quoted(outcomes), names, "{row}");
}
