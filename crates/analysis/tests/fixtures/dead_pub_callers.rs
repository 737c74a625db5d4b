//! Fixture: the only other source `dead_pub_defs.rs` and
//! `dead_pub_methods.rs` are linted against.
#![allow(dead_code)]

pub use defs::{
    fixture_called,
    fixture_reexported_only,
};

fn caller() {
    fixture_called();
    // fixture_mentioned_in_prose() is prose here, not a call.
    let _ = "fixture_mentioned_in_prose";
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        super::defs::fixture_tested_elsewhere();
        super::methods::Holder.fixture_method_tested_elsewhere();
    }
}
