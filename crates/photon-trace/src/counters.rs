//! Named monotonic counters with deterministic merge.

use std::collections::BTreeMap;

/// A set of named `u64` counters keyed by `&'static str`.
///
/// Backed by a `BTreeMap` so iteration order — and therefore every sink
/// rendering — is deterministic, and merge (per-key addition) is
/// order-invariant. This is the same structure a recorder
/// aggregates into, and `photon_core::Telemetry` reuses it as its own
/// storage so both views stay consistent by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSet {
    inner: BTreeMap<&'static str, u64>,
}

impl CounterSet {
    /// An empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.inner.entry(name).or_insert(0) += delta;
    }

    /// Sets counter `name` to `max(current, value)`.
    pub fn record_max(&mut self, name: &'static str, value: u64) {
        let slot = self.inner.entry(name).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Current value of `name`, or 0 if never touched.
    pub fn get(&self, name: &str) -> u64 {
        self.inner.get(name).copied().unwrap_or(0)
    }

    /// Folds `other` into `self` by per-key addition (order-invariant).
    pub fn merge(&mut self, other: &CounterSet) {
        for (k, v) in &other.inner {
            *self.inner.entry(k).or_insert(0) += *v;
        }
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.inner.iter().map(|(k, v)| (*k, *v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if no counters exist.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Removes every counter.
    pub fn clear(&mut self) {
        self.inner.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_merge() {
        let mut a = CounterSet::new();
        a.add("x", 2);
        a.add("x", 3);
        a.add("y", 1);
        let mut b = CounterSet::new();
        b.add("y", 4);
        b.add("z", 9);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get("x"), 5);
        assert_eq!(ab.get("y"), 5);
        assert_eq!(ab.get("z"), 9);
        assert_eq!(ab.get("missing"), 0);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut c = CounterSet::new();
        c.add("b", 1);
        c.add("a", 1);
        c.add("c", 1);
        let names: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn record_max_keeps_high_water_mark() {
        let mut c = CounterSet::new();
        c.record_max("hwm", 5);
        c.record_max("hwm", 3);
        c.record_max("hwm", 8);
        assert_eq!(c.get("hwm"), 8);
    }
}
