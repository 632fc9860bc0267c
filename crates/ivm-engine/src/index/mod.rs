//! Index structures: the Adaptive Radix Tree and its key encoding.

pub mod art;
pub mod key;

pub use art::Art;
pub use key::encode_key;

use crate::value::Value;

/// A table's primary-key index, backed by an [`Art`].
///
/// Maps encoded composite keys to row ids, exactly one row per key; the
/// engine's upsert path relies on this to locate the victim row,
/// mirroring the paper's observation that "DuckDB requires an index to
/// apply upserts". It is the only index a table owns.
#[derive(Debug, Default, Clone)]
pub struct TableIndex {
    /// Positions of the key columns in the table schema.
    pub columns: Vec<usize>,
    tree: Art,
}

impl TableIndex {
    /// Create an empty index over the given column positions.
    pub fn new(columns: Vec<usize>) -> TableIndex {
        TableIndex {
            columns,
            tree: Art::new(),
        }
    }

    /// Encode the key of `row` under this index.
    pub fn key_of(&self, row: &[Value]) -> Vec<u8> {
        let parts: Vec<Value> = self.columns.iter().map(|&c| row[c].clone()).collect();
        encode_key(&parts)
    }

    /// Encode the key of physical slot `slot` of column-major storage,
    /// reading only the key columns.
    pub(crate) fn key_at(&self, columns: &[Vec<Value>], slot: usize) -> Vec<u8> {
        let parts: Vec<Value> = self
            .columns
            .iter()
            .map(|&c| columns[c][slot].clone())
            .collect();
        encode_key(&parts)
    }

    /// Look up the row id stored under `key_values`.
    pub fn get(&self, key_values: &[Value]) -> Option<u64> {
        self.tree.get(&encode_key(key_values))
    }

    /// Look up by pre-encoded key.
    pub fn get_encoded(&self, key: &[u8]) -> Option<u64> {
        self.tree.get(key)
    }

    /// Insert a row id; returns the previously stored row id if the key
    /// already existed (the unique-violation / upsert-victim case).
    pub fn insert(&mut self, key: &[u8], row_id: u64) -> Option<u64> {
        self.tree.insert(key, row_id)
    }

    /// Remove a key.
    pub fn remove(&mut self, key: &[u8]) -> Option<u64> {
        self.tree.remove(key)
    }

    /// Drop all entries.
    pub fn clear(&mut self) {
        self.tree.clear()
    }

    /// Approximate heap footprint (E2 experiment).
    pub fn memory_bytes(&self) -> usize {
        self.tree.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_index_round_trip() {
        let mut idx = TableIndex::new(vec![0]);
        let row = [Value::from("apple"), Value::Integer(5)];
        let key = idx.key_of(&row);
        assert_eq!(idx.insert(&key, 0), None);
        assert_eq!(idx.get(&[Value::from("apple")]), Some(0));
        assert_eq!(idx.insert(&key, 7), Some(0));
        assert_eq!(idx.get(&[Value::from("apple")]), Some(7));
        assert_eq!(idx.remove(&key), Some(7));
        assert_eq!(idx.get(&[Value::from("apple")]), None);
    }

    #[test]
    fn composite_index_key() {
        let idx = TableIndex::new(vec![2, 0]);
        let row = [Value::Integer(1), Value::from("ignored"), Value::from("g")];
        assert_eq!(
            idx.key_of(&row),
            encode_key(&[Value::from("g"), Value::Integer(1)])
        );
    }
}
