//! Fixture: `dead-pub` candidates, linted as if it lived under
//! `crates/bench/src` with `dead_pub_callers.rs` as the only other source.
#![allow(dead_code)]

/// Called from the other file: silent.
pub fn fixture_called() {}

/// Nothing names it anywhere: a finding.
pub fn fixture_orphan() {}

/// Only a `pub use` names it: a finding.
pub fn fixture_reexported_only() {}

/// Only this file's own unit test calls it: a finding.
pub fn fixture_tested_here_only() {}

/// The other file's unit test calls it: silent.
pub fn fixture_tested_elsewhere() {}

/// Named over there only in a comment and a string: a finding.
pub fn fixture_mentioned_in_prose() {}

// pub-ok: looked up by name at run time, which no lexical scan can see.
pub fn fixture_justified() {}

/// Not `pub`: rustc's own dead-code lint has it.
pub(crate) fn fixture_crate_private() {}

pub mod nested {
    /// Free inside an inline module: still a candidate, and a finding.
    pub const fn fixture_nested_orphan() {}
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        super::fixture_tested_here_only();
    }
}
