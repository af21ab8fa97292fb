//! Keys, values, transaction identifiers, and the maps keyed by them.

use crate::bytes::Bytes;
use core::fmt;
use ptp_model::Decision;
use std::collections::{BTreeMap, HashMap};
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

/// The decisions of finished transactions, by id: an exact, ordered map
/// from [`TxnId`] to [`Decision`] that costs two bits per id. Ids are
/// grouped in words of 64 (`id >> 6`); a word holds which of its ids are
/// decided and which of those committed, so a run that decides ids densely
/// pays a 20-byte entry per 64 of them instead of a tree entry each.
/// Iteration is in ascending id order, and `{:?}` prints what a
/// `BTreeMap<TxnId, Decision>` with the same entries prints.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Decisions {
    /// Per word `id >> 6`: `(decided, committed)` bit sets, `committed ⊆
    /// decided`; no word is all zero, so equal maps compare equal.
    words: BTreeMap<u32, (u64, u64)>,
    len: usize,
}

impl Decisions {
    fn split(txn: TxnId) -> (u32, u64) {
        (txn.0 >> 6, 1 << (txn.0 & 63))
    }

    /// Records `txn`'s decision; returns the one it replaces, if any.
    pub fn insert(&mut self, txn: TxnId, decision: Decision) -> Option<Decision> {
        let (word, bit) = Decisions::split(txn);
        let (decided, committed) = self.words.entry(word).or_insert((0, 0));
        let old = (*decided & bit != 0).then_some(decision_of(*committed & bit));
        *decided |= bit;
        match decision {
            Decision::Commit => *committed |= bit,
            Decision::Abort => *committed &= !bit,
        }
        self.len += usize::from(old.is_none());
        old
    }

    /// `txn`'s decision, if it finished.
    pub fn get(&self, txn: TxnId) -> Option<Decision> {
        let (word, bit) = Decisions::split(txn);
        let &(decided, committed) = self.words.get(&word)?;
        (decided & bit != 0).then_some(decision_of(committed & bit))
    }

    /// Whether `txn` finished.
    pub fn contains_key(&self, txn: TxnId) -> bool {
        self.get(txn).is_some()
    }

    /// Forgets `txn`; returns its decision, if it had one.
    pub fn remove(&mut self, txn: TxnId) -> Option<Decision> {
        let (word, bit) = Decisions::split(txn);
        let (decided, committed) = self.words.get_mut(&word)?;
        if *decided & bit == 0 {
            return None;
        }
        let old = decision_of(*committed & bit);
        *decided &= !bit;
        *committed &= !bit;
        if *decided == 0 {
            self.words.remove(&word);
        }
        self.len -= 1;
        Some(old)
    }

    /// How many transactions are recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if none is.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every recorded transaction and its decision, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (TxnId, Decision)> + '_ {
        self.words.iter().flat_map(|(&word, &(decided, committed))| {
            let mut rest = decided;
            std::iter::from_fn(move || {
                let at = (rest != 0).then(|| rest.trailing_zeros())?;
                rest &= rest - 1;
                Some((TxnId((word << 6) | at), decision_of(committed & (1 << at))))
            })
        })
    }

    /// Every recorded transaction, ascending.
    pub fn keys(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.iter().map(|(txn, _)| txn)
    }
}

/// The decision a `committed` bit (already masked) says.
fn decision_of(committed: u64) -> Decision {
    if committed != 0 {
        Decision::Commit
    } else {
        Decision::Abort
    }
}

impl fmt::Debug for Decisions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

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
    use proptest::prelude::*;

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

    /// One id of each kind a store mints: the edges of a word and of the id
    /// space, anti-entropy's synthetic ids, ids dense enough to meet again,
    /// and sparse ones.
    fn id_of(kind: u8, raw: u32) -> TxnId {
        TxnId(match kind {
            0 => [0, 63, 64, 65, u32::MAX][raw as usize % 5],
            1 => crate::core::SYNC_BASE + raw % 8,
            2 => raw % 200,
            3 => 64_000 + raw % 130,
            _ => raw,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: if cfg!(debug_assertions) { 256 } else { 4_000 },
            ..ProptestConfig::default()
        })]

        /// Two `Decisions` and their `BTreeMap` oracles run one random
        /// script of inserts, overwrites, removals and lookups; every
        /// answer, `len`, the iteration order, `==`, `{:?}` and `{:#?}`
        /// agree.
        #[test]
        fn decisions_answer_what_a_btree_map_answers(
            script in prop::collection::vec((0u8..4, 0u8..5, any::<u32>(), 0u8..2), 0..160)
        ) {
            let mut twins: [(Decisions, BTreeMap<TxnId, Decision>); 2] = Default::default();
            for (op, kind, raw, which) in script {
                let txn = id_of(kind, raw);
                let (decisions, oracle) = &mut twins[which as usize];
                match op {
                    0 => prop_assert_eq!(
                        decisions.insert(txn, Decision::Commit),
                        oracle.insert(txn, Decision::Commit)
                    ),
                    1 => prop_assert_eq!(
                        decisions.insert(txn, Decision::Abort),
                        oracle.insert(txn, Decision::Abort)
                    ),
                    2 => prop_assert_eq!(decisions.remove(txn), oracle.remove(&txn)),
                    _ => {
                        prop_assert_eq!(decisions.get(txn), oracle.get(&txn).copied());
                        prop_assert_eq!(decisions.contains_key(txn), oracle.contains_key(&txn));
                    }
                }
                prop_assert_eq!(decisions.len(), oracle.len());
                prop_assert_eq!(decisions.is_empty(), oracle.is_empty());
                let [(a, a_oracle), (b, b_oracle)] = &twins;
                prop_assert_eq!(a == b, a_oracle == b_oracle);
            }
            for (decisions, oracle) in &twins {
                let pairs: Vec<(TxnId, Decision)> = oracle.iter().map(|(t, d)| (*t, *d)).collect();
                prop_assert_eq!(decisions.iter().collect::<Vec<_>>(), pairs);
                prop_assert_eq!(
                    decisions.keys().collect::<Vec<_>>(),
                    oracle.keys().copied().collect::<Vec<_>>()
                );
                prop_assert_eq!(format!("{decisions:?}"), format!("{oracle:?}"));
                prop_assert_eq!(format!("{decisions:#?}"), format!("{oracle:#?}"));
                // The same entries, however they got there, are one value.
                let mut rebuilt = Decisions::default();
                oracle.iter().rev().for_each(|(t, d)| _ = rebuilt.insert(*t, *d));
                prop_assert!(*decisions == rebuilt, "{decisions:?} vs {rebuilt:?}");
            }
        }
    }
}
