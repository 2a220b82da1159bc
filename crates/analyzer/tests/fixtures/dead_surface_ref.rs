//! Reference-only file for the dead-surface fixture: stands in for an
//! integration test (or `benchmark/`), whose `#[test]` fns are callers.

use dead::called_from_tests_dir;

#[test]
fn calls_into_the_crate() {
    assert_eq!(called_from_tests_dir(), 2);
}
