//! The per-site storage engine: committed state plus per-transaction
//! staging, with idempotent apply (the property the paper's Sec. 2 recovery
//! argument leans on).

use crate::value::{IdMap, Key, TxnId, Value, WriteOp};
use std::collections::BTreeMap;
use std::fmt;

/// One site's key-value store.
#[derive(Default, Clone, PartialEq)]
pub struct Storage {
    /// Ordered: digests and `iter` read it in key order.
    committed: BTreeMap<Key, Value>,
    staged: IdMap<TxnId, Vec<WriteOp>>,
}

/// Renders as the derive did over an id-ordered `staged`: golden digests
/// hash this text.
impl fmt::Debug for Storage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let staged: BTreeMap<_, _> = self.staged.iter().collect();
        f.debug_struct("Storage")
            .field("committed", &self.committed)
            .field("staged", &staged)
            .finish()
    }
}

impl Storage {
    /// An empty store.
    pub fn new() -> Storage {
        Storage::default()
    }

    /// Seeds initial committed state (cluster setup).
    pub fn seed(&mut self, key: Key, value: Value) {
        self.committed.insert(key, value);
    }

    /// Reads committed state.
    pub fn get(&self, key: &Key) -> Option<&Value> {
        self.committed.get(key)
    }

    /// Stages a transaction's local write set (pre-commit; invisible to
    /// readers).
    pub fn stage(&mut self, txn: TxnId, writes: Vec<WriteOp>) {
        self.staged.insert(txn, writes);
    }

    /// The staged write set of a transaction, if any.
    pub fn staged_writes(&self, txn: TxnId) -> Option<&[WriteOp]> {
        self.staged.get(&txn).map(Vec::as_slice)
    }

    /// Applies a transaction's staged writes to committed state. Returns the
    /// write count. Idempotent: applying twice leaves the same state.
    pub fn apply(&mut self, txn: TxnId) -> usize {
        let Some(writes) = self.staged.remove(&txn) else { return 0 };
        let n = writes.len();
        for w in writes {
            self.committed.insert(w.key, w.value);
        }
        n
    }

    /// Applies an explicit write set (recovery redo). Idempotent.
    pub fn apply_writes(&mut self, writes: &[WriteOp]) {
        for w in writes {
            self.committed.insert(w.key.clone(), w.value.clone());
        }
    }

    /// Discards a transaction's staged writes (abort).
    pub fn discard(&mut self, txn: TxnId) -> bool {
        self.staged.remove(&txn).is_some()
    }

    /// Simulates a crash: all staged (volatile) state vanishes; committed
    /// state survives (it is "on disk").
    pub fn crash(&mut self) {
        self.staged.clear();
    }

    /// Number of committed keys.
    pub fn len(&self) -> usize {
        self.committed.len()
    }

    /// True if no committed keys exist.
    pub fn is_empty(&self) -> bool {
        self.committed.is_empty()
    }

    /// Iterates over committed state.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Value)> {
        self.committed.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(key: &str, v: u64) -> WriteOp {
        WriteOp { key: Key::from(key), value: Value::from_u64(v) }
    }

    #[test]
    fn staged_writes_invisible_until_applied() {
        let mut s = Storage::new();
        s.seed(Key::from("a"), Value::from_u64(1));
        s.stage(TxnId(1), vec![w("a", 99)]);
        assert_eq!(s.get(&Key::from("a")).unwrap().as_u64(), Some(1));
        s.apply(TxnId(1));
        assert_eq!(s.get(&Key::from("a")).unwrap().as_u64(), Some(99));
    }

    #[test]
    fn apply_is_idempotent() {
        let mut s = Storage::new();
        s.stage(TxnId(1), vec![w("a", 5)]);
        assert_eq!(s.apply(TxnId(1)), 1);
        assert_eq!(s.apply(TxnId(1)), 0, "second apply is a no-op");
        assert_eq!(s.get(&Key::from("a")).unwrap().as_u64(), Some(5));
        // Redo via explicit writes is also idempotent.
        s.apply_writes(&[w("a", 5)]);
        assert_eq!(s.get(&Key::from("a")).unwrap().as_u64(), Some(5));
    }

    #[test]
    fn discard_drops_staged() {
        let mut s = Storage::new();
        s.stage(TxnId(2), vec![w("b", 7)]);
        assert!(s.discard(TxnId(2)));
        assert!(!s.discard(TxnId(2)));
        assert_eq!(s.get(&Key::from("b")), None);
    }

    #[test]
    fn crash_loses_staged_keeps_committed() {
        let mut s = Storage::new();
        s.seed(Key::from("a"), Value::from_u64(1));
        s.stage(TxnId(1), vec![w("b", 2)]);
        s.crash();
        assert_eq!(s.get(&Key::from("a")).unwrap().as_u64(), Some(1));
        assert_eq!(s.staged_writes(TxnId(1)), None);
    }

    #[test]
    fn iter_sees_committed_only() {
        let mut s = Storage::new();
        s.seed(Key::from("a"), Value::from_u64(1));
        s.stage(TxnId(1), vec![w("b", 2)]);
        assert_eq!(s.iter().count(), 1);
        assert_eq!(s.len(), 1);
    }
}
