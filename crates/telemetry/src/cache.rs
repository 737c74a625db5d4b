//! The keyed handle cache instrumented subsystems put in front of the
//! registry for label sets only known at run time (a defense stage's
//! name, a serving route, a frame kind).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{PoisonError, RwLock};

/// A read-mostly map from a label key to the metric handles registered
/// for it.
///
/// The steady-state path — [`HandleCache::with`] on a key seen before —
/// is one read lock and a hash lookup: no allocation, no write
/// contention. The first record under a key takes the write lock once
/// and registers the handles.
///
/// A poisoned lock is recovered, not propagated: entries are inserted
/// whole, so a registrant that panicked cannot leave the map torn, and
/// metrics must never take the instrumented path down with them.
pub struct HandleCache<K, V> {
    entries: RwLock<HashMap<K, V>>,
}

impl<K, V> Default for HandleCache<K, V> {
    fn default() -> Self {
        Self {
            entries: RwLock::new(HashMap::new()),
        }
    }
}

impl<K: Eq + Hash, V> HandleCache<K, V> {
    /// Runs `record` over the handles cached under `key`, calling
    /// `register` first — exactly once per key — if there are none yet.
    pub fn with<Q, R>(
        &self,
        key: &Q,
        register: impl FnOnce() -> V,
        record: impl FnOnce(&V) -> R,
    ) -> R
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ToOwned<Owned = K> + ?Sized,
    {
        {
            let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(handles) = entries.get(key) {
                return record(handles);
            }
        }
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        // A registrant that won the race in between keeps its entry.
        record(entries.entry(key.to_owned()).or_insert_with(register))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::Arc;

    #[test]
    fn registers_once_per_key_and_borrows_for_lookup() {
        let cache: HandleCache<String, Cell<u32>> = HandleCache::default();
        let registrations = Cell::new(0);
        let register = || {
            registrations.set(registrations.get() + 1);
            Cell::new(0)
        };
        for key in ["krum", "latent", "krum"] {
            cache.with(key, register, |hits| hits.set(hits.get() + 1));
        }
        assert_eq!(registrations.get(), 2);
        assert_eq!(cache.with("krum", register, Cell::get), 2);
    }

    #[test]
    fn a_panic_under_the_write_lock_does_not_poison_later_records() {
        let cache: Arc<HandleCache<&'static str, u32>> = Arc::new(HandleCache::default());
        let poisoner = Arc::clone(&cache);
        let panicked = std::thread::spawn(move || {
            poisoner.with(&"boom", || panic!("registrant failed"), |_| ());
        })
        .join();
        assert!(panicked.is_err());
        assert_eq!(cache.with(&"ok", || 7, |v| *v), 7);
        assert_eq!(
            cache.with(&"ok", || 8, |v| *v),
            7,
            "cached, not re-registered"
        );
    }
}
