//! dead-surface fixture, parsed as `crates/dead/src/lib.rs` beside the
//! reference-only `dead_surface_ref.rs` (parsed as an integration test).

mod inner {
    /// Named only by the `pub use` below: flagged.
    pub struct OnlyReexported;
}

pub use inner::OnlyReexported;

/// Named by nothing: flagged, qualifiers and all.
pub const fn unreferenced() -> u32 {
    1
}

/// Named only inside `#[cfg(test)]`: flagged.
pub const TEST_ONLY: u32 = 3;

/// Named from the reference-only file: live.
pub fn called_from_tests_dir() -> u32 {
    helper()
}

/// Named by `called_from_tests_dir`: live.
pub fn helper() -> u32 {
    2
}

// lint:allow(dead-surface) reason=fixture: an annotated item is kept
pub fn kept_on_purpose() {}

/// Not bare `pub`: the compiler's dead-code lint covers it.
pub(crate) fn crate_private() {}

pub struct Holder;

impl Holder {
    /// A method nothing calls: flagged under its qualified name.
    pub fn never_called(&self) {}
}

#[cfg(test)]
mod tests {
    /// Declared in test code: never a subject.
    pub fn test_helper() {}

    #[test]
    fn uses_test_only() {
        assert_eq!(super::TEST_ONLY, 3);
        let _ = super::Holder;
    }
}
