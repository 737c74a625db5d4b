//! Fixture: inherent-method `dead-pub` candidates, linted as if it lived
//! under `crates/bench/src` with `dead_pub_callers.rs` as the only other
//! source.
#![allow(dead_code)]

pub struct Holder;

impl Holder {
    /// Nothing calls it: a finding.
    pub fn fixture_dead_method(&self) {}

    /// Called by a function of this file: silent.
    pub fn fixture_method_used_here(&self) {}

    /// The other file's unit test calls it: silent.
    pub fn fixture_method_tested_elsewhere(&self) {}

    /// Only this file's own unit test calls it: a finding.
    pub fn fixture_method_tested_here_only(&self) {}

    /// Not `pub`: rustc's own dead-code lint has it.
    fn fixture_private_method(&self) {}
}

fn caller() {
    Holder.fixture_method_used_here();
}

pub trait FixtureTrait {
    fn fixture_trait_method(&self);
}

impl FixtureTrait for Holder {
    /// Nothing calls it by name, but a trait-impl method is reached
    /// through the trait: never a candidate.
    fn fixture_trait_method(&self) {}
}

impl<T> FixtureTrait for Vec<T> {
    /// Generic trait impls are not candidates either.
    fn fixture_trait_method(&self) {}
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        super::Holder.fixture_method_tested_here_only();
    }
}
