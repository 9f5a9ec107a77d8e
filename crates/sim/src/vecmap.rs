//! A small ordered map backed by sorted vectors.
//!
//! The engine keeps several tables per simulated node — the TaskTracker's
//! attempts, the memory manager's processes and its eviction index — that
//! hold only a handful of entries but are looked up on nearly every event.
//! A sorted `Vec` serves them without hashing or pointer chasing: lookups
//! are a binary search over contiguous keys, iteration is a slice walk in
//! key order (the same order a `BTreeMap` gives, so every observable
//! iteration order is deterministic), and inserts or removes shift a few
//! entries. Not meant for large tables: an insert or remove in the middle
//! is O(len). A set is a `VecMap<K, ()>`; the unit values take no memory.

/// An ordered map backed by two parallel sorted vectors, keys and values.
///
/// Keys are kept apart from values so a lookup searches a dense array of
/// keys even when values are large.
#[derive(Clone, Debug)]
pub struct VecMap<K, V> {
    keys: Vec<K>,
    values: Vec<V>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap {
            keys: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<K: Ord, V> VecMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let i = self.keys.binary_search(key).ok()?;
        Some(&self.values[i])
    }

    /// Mutable access to the value stored under `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.keys.binary_search(key).ok()?;
        Some(&mut self.values[i])
    }

    /// True if `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.keys.binary_search(key).is_ok()
    }

    /// Inserts `value` under `key`, returning the value it replaced.
    /// Appending a key larger than every present one is O(1).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.keys.last().is_none_or(|last| *last < key) {
            self.keys.push(key);
            self.values.push(value);
            return None;
        }
        match self.keys.binary_search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.values[i], value)),
            Err(i) => {
                self.keys.insert(i, key);
                self.values.insert(i, value);
                None
            }
        }
    }

    /// Removes the entry under `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.keys.binary_search(key).ok()?;
        self.keys.remove(i);
        Some(self.values.remove(i))
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        self.into_iter()
    }

    /// Values in ascending key order.
    pub fn values(&self) -> std::slice::Iter<'_, V> {
        self.values.iter()
    }
}

impl<K: Ord, V> std::ops::Index<&K> for VecMap<K, V> {
    type Output = V;

    /// The value stored under `key`.
    ///
    /// # Panics
    /// Panics if `key` has no entry.
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("key not present in VecMap")
    }
}

/// Iterator over a [`VecMap`]'s entries in ascending key order.
pub type Iter<'a, K, V> = std::iter::Zip<std::slice::Iter<'a, K>, std::slice::Iter<'a, V>>;

impl<'a, K: Ord, V> IntoIterator for &'a VecMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.keys.iter().zip(&self.values)
    }
}
