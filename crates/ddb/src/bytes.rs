//! A tiny immutable byte string.
//!
//! Offline stand-in for the `bytes` crate's `Bytes`, with the constructors
//! [`value`](crate::value) needs. Contents of exactly eight bytes — every
//! [`Value::from_u64`](crate::value::Value::from_u64), and the keys of that
//! length — are held in place: building one allocates nothing and cloning
//! one copies it. Any other length is an `Arc<[u8]>`, so cloning bumps a
//! refcount. Either way the type is 16 bytes: the eight in-place bytes sit
//! beside the null niche of the `Arc`'s pointer, where a wider small buffer
//! would not fit. Equality, order, hashing and `{:?}` go by content, as they
//! did when every `Bytes` was an `Arc<[u8]>`. No slicing views are needed
//! here, so none are provided.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Cheaply clonable immutable byte string.
#[derive(Clone)]
pub struct Bytes(Repr);

/// Where the contents live. Exactly-eight-byte contents are always a
/// `Word`, so two equal contents never differ in representation.
#[derive(Clone)]
enum Repr {
    Word([u8; 8]),
    Shared(Arc<[u8]>),
}

impl Bytes {
    /// Bytes backed by static data (copied once; the `bytes` crate avoids
    /// the copy, but the API shape is what matters here).
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Bytes copied out of a slice.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        match <[u8; 8]>::try_from(data) {
            Ok(word) => Bytes(Repr::Word(word)),
            Err(_) => Bytes(Repr::Shared(Arc::from(data))),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_ref().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.as_ref().is_empty()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        match <[u8; 8]>::try_from(v.as_slice()) {
            Ok(word) => Bytes(Repr::Word(word)),
            Err(_) => Bytes(Repr::Shared(Arc::from(v))),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Word(word) => word,
            Repr::Shared(shared) => shared,
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Key, Value, WriteOp};
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::mem::size_of;

    #[test]
    fn construction_round_trips() {
        assert_eq!(&*Bytes::from_static(b"abc"), b"abc");
        assert_eq!(&*Bytes::copy_from_slice(b"xy"), b"xy");
        assert_eq!(&*Bytes::from(vec![1u8, 2]), &[1, 2][..]);
        assert_eq!(&*Bytes::from(b"eightbyt".to_vec()), b"eightbyt");
    }

    #[test]
    fn clone_is_shallow_and_equal() {
        let a = Bytes::copy_from_slice(b"shared");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.len(), 6);
        assert!(!b.is_empty());
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Bytes::copy_from_slice(b"a") < Bytes::copy_from_slice(b"b"));
        assert!(Bytes::copy_from_slice(b"key-999") < Bytes::copy_from_slice(b"key-9999"));
        assert!(Bytes::copy_from_slice(b"key-9999") < Bytes::copy_from_slice(b"key-99999"));
    }

    #[test]
    fn debug_escapes() {
        assert_eq!(format!("{:?}", Bytes::copy_from_slice(b"a\n")), "b\"a\\n\"");
    }

    /// A wider `Bytes` — the rejected 24-byte small buffer — widens every
    /// key, value and write the store and the live schedule hold.
    #[test]
    fn sizes_are_pinned() {
        assert_eq!(size_of::<Bytes>(), 16);
        assert_eq!(size_of::<Key>(), 16);
        assert_eq!(size_of::<Value>(), 16);
        assert_eq!(size_of::<WriteOp>(), 32);
    }

    fn hashed<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    /// The `{:?}` of the retired `Bytes`, an `Arc<[u8]>`.
    fn retired_debug(bytes: &Arc<[u8]>) -> String {
        let mut out = String::from("b\"");
        for &b in bytes.iter() {
            for esc in std::ascii::escape_default(b) {
                out.push(esc as char);
            }
        }
        out + "\""
    }

    /// A length of 0..=16, one of 7, 8 and 9 three times in four.
    fn length() -> impl Strategy<Value = usize> {
        prop_oneof![Just(7usize), Just(8), Just(9), 0usize..17]
    }

    fn built(data: &[u8], how: u8) -> Bytes {
        match how {
            0 => Bytes::copy_from_slice(data),
            1 => Bytes::from_static(Box::leak(data.to_vec().into_boxed_slice())),
            _ => Bytes::from(data.to_vec()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: if cfg!(debug_assertions) { 512 } else { 20_000 },
            ..ProptestConfig::default()
        })]

        /// Whatever its length and constructor, a `Bytes` answers every
        /// question as the `Arc<[u8]>` every `Bytes` used to be.
        #[test]
        fn bytes_answer_as_an_arc_slice(
            a in prop::collection::vec(0u8..4, 16..17),
            b in prop::collection::vec(0u8..4, 16..17),
            lens in (length(), length()),
            how in (0u8..3, 0u8..3),
        ) {
            let (a, b) = (&a[..lens.0], &b[..lens.1]);
            let (x, y) = (built(a, how.0), built(b, how.1));
            let (ox, oy): (Arc<[u8]>, Arc<[u8]>) = (Arc::from(a), Arc::from(b));
            prop_assert_eq!(x == y, ox == oy);
            prop_assert_eq!(x.cmp(&y), ox.cmp(&oy));
            prop_assert_eq!(x.partial_cmp(&y), ox.partial_cmp(&oy));
            prop_assert_eq!(hashed(&x), hashed(&ox));
            prop_assert_eq!(hashed(&y), hashed(&oy));
            prop_assert_eq!(format!("{x:?}"), retired_debug(&ox));
            prop_assert_eq!(x.len(), ox.len());
            prop_assert_eq!(x.is_empty(), ox.is_empty());
            prop_assert_eq!(&*x, &*ox);
            prop_assert_eq!(x.clone(), x);
        }
    }
}
