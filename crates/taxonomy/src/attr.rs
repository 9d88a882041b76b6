//! Interned attribute names.
//!
//! Attribute names cross the hot audit path the same way purpose names do:
//! every violation witness carries one. [`AttrName`] mirrors
//! [`Purpose`](crate::purpose::Purpose)'s
//! representation — an `Arc<str>` — so constructing a witness from a
//! `SymbolTable` is a reference-count bump, not a string copy, while the
//! serialized form stays a plain JSON string (byte-identical to the
//! `String` it replaces).

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

use serde::de::{Deserialize, Deserializer};
use serde::ser::{Serialize, Serializer};

/// An attribute name, e.g. `"weight"`, `"age"`.
///
/// Cloning is a reference-count bump. Comparison is by case-sensitive name,
/// including against plain `&str` (so call sites and tests can compare
/// without constructing an `AttrName`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrName(Arc<str>);

impl AttrName {
    /// Create an attribute name.
    pub fn new(name: impl AsRef<str>) -> AttrName {
        AttrName(Arc::from(name.as_ref()))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for AttrName {
    fn from(name: &str) -> AttrName {
        AttrName::new(name)
    }
}

impl From<String> for AttrName {
    fn from(name: String) -> AttrName {
        AttrName(Arc::from(name))
    }
}

impl From<Arc<str>> for AttrName {
    fn from(name: Arc<str>) -> AttrName {
        AttrName(name)
    }
}

impl Borrow<str> for AttrName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl PartialEq<str> for AttrName {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for AttrName {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for AttrName {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl Serialize for AttrName {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.0)
    }
}

impl<'de> Deserialize<'de> for AttrName {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        Ok(AttrName::from(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compares_by_name_including_against_str() {
        let a = AttrName::new("weight");
        assert_eq!(a, AttrName::from("weight"));
        assert_eq!(a, "weight");
        assert_eq!(a, *"weight");
        assert_eq!(a, "weight".to_string());
        assert_ne!(a, AttrName::new("age"));
    }

    #[test]
    fn clone_is_cheap_and_shares_storage() {
        let a = AttrName::new("age");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.as_str(), "age");
    }

    #[test]
    fn from_shared_arc_does_not_copy() {
        let arc: Arc<str> = Arc::from("height");
        let a = AttrName::from(arc.clone());
        assert_eq!(a, "height");
        // Both handles point at the same allocation: two owners here.
        assert_eq!(Arc::strong_count(&arc), 2);
    }

    #[test]
    fn serde_is_a_plain_json_string() {
        let a = AttrName::new("weight");
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(json, "\"weight\"");
        let back: AttrName = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }
}
