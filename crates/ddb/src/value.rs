//! Keys, values, and transaction identifiers.

use crate::bytes::Bytes;
use core::fmt;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A database key. Cheap to clone (refcounted bytes).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub Bytes);

impl Key {
    /// Key from anything byte-like.
    pub fn from_static(s: &'static str) -> Key {
        Key(Bytes::from_static(s.as_bytes()))
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Key {
        Key(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl From<String> for Key {
    fn from(s: String) -> Key {
        Key(Bytes::from(s.into_bytes()))
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(&self.0) {
            Ok(s) => write!(f, "{s}"),
            Err(_) => write!(f, "{:02x?}", &self.0[..]),
        }
    }
}

/// A database value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value(pub Bytes);

impl Value {
    /// Value from a 64-bit integer (the banking example stores balances).
    pub fn from_u64(v: u64) -> Value {
        Value(Bytes::copy_from_slice(&v.to_be_bytes()))
    }

    /// Interprets the value as a 64-bit integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        self.0.as_ref().try_into().ok().map(u64::from_be_bytes)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value(Bytes::copy_from_slice(s.as_bytes()))
    }
}

/// A globally unique transaction identifier (assigned by the cluster
/// driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u32);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// A map keyed by a transaction id (or another id the program mints
/// itself) that is only ever probed: hashed with [`IdHasher`]. Iterating
/// one yields an order no reader may see — sort first (the ordered maps
/// of the store are listed in ARCHITECTURE.md, each with the reader of its
/// order).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A deterministic multiplicative hasher for small integer ids: the same
/// keys hash alike in every process, so a run never depends on a seed.
/// Not for keys from outside the program — it does not resist crafted
/// collisions.
#[derive(Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    /// An odd constant whose bits are well spread (2^64 / φ).
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(b as u64));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    /// A product's low bits depend only on the factors' low bits, and the
    /// table picks a bucket from the low bits: fold the high half in, or
    /// ids differing only above the bucket mask (timer tags `(id + 1) << 8
    /// | kind`) share one bucket.
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// One write of a distributed transaction, targeted at a specific site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOp {
    /// The key to write.
    pub key: Key,
    /// The new value.
    pub value: Value,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        assert_eq!(Value::from_u64(123_456).as_u64(), Some(123_456));
    }

    #[test]
    fn non_u64_value() {
        assert_eq!(Value::from("hello").as_u64(), None);
    }

    #[test]
    fn key_display() {
        assert_eq!(Key::from("account-1").to_string(), "account-1");
    }

    #[test]
    fn keys_order() {
        assert!(Key::from("a") < Key::from("b"));
    }

    #[test]
    fn ids_apart_only_above_the_bucket_mask_spread_over_buckets() {
        use std::hash::BuildHasher;
        let hasher = BuildHasherDefault::<IdHasher>::default();
        // Timer tags of one kind: `(id + 1) << 8 | kind`.
        let buckets: std::collections::BTreeSet<u64> =
            (0..64u64).map(|id| hasher.hash_one(((id + 1) << 8) | 0xfe) & 63).collect();
        assert!(buckets.len() > 32, "{} of 64 buckets used", buckets.len());
    }
}
