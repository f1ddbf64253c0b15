//! Offline shim for the `serde` crate.
//!
//! The real serde cannot be fetched in this build environment, so this
//! shim provides the subset the workspace relies on: a `Serialize` /
//! `Deserialize` trait pair and the `#[derive(Serialize)]` macro (from
//! the sibling `serde_derive` shim; `Deserialize` is implemented by
//! hand for the few types read back). Instead of serde's visitor
//! architecture, both traits go through an owned JSON-like [`Value`]
//! tree — entirely adequate for the artifact emission this workspace
//! does, and trivially consumed by the `serde_json` shim.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

pub use serde_derive::Serialize;

/// An owned JSON-like data tree — the interchange format between
/// [`Serialize`], [`Deserialize`], and the `serde_json` shim.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null` (also used for non-finite floats, as `serde_json`
    /// has no representation for them).
    Null,
    /// A boolean.
    Bool(bool),
    /// Any number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Value>),
    /// An ordered map with string keys (field order preserved).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in a [`Value::Map`].
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Types that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Builds the [`Value`] representation of `self`.
    fn to_value(&self) -> Value;

    /// The [`Value`] representation of `self`, borrowed when `self`
    /// already is one, so a writer renders a tree without cloning it.
    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

/// Deserialization failure.
#[derive(Clone, Debug, PartialEq)]
pub struct DeError(pub String);

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

impl DeError {
    /// Convenience constructor.
    pub fn new(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

/// Types that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from `v`.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------------
// Serialize impls
// ---------------------------------------------------------------------

macro_rules! impl_ser_num {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
    )*};
}

impl_ser_num!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        if self.is_finite() {
            Value::Num(*self)
        } else {
            // serde_json rejects non-finite floats; emitting null keeps
            // artifact emission total instead.
            Value::Null
        }
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Serialize for std::path::PathBuf {
    fn to_value(&self) -> Value {
        Value::Str(self.display().to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_ser_tuple {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
    )*};
}

impl_ser_tuple! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}

// ---------------------------------------------------------------------
// Deserialize impls
// ---------------------------------------------------------------------

macro_rules! impl_de_num {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Num(x) => Ok(*x as $t),
                    other => Err(DeError::new(format!(
                        "expected number for {}, got {other:?}",
                        stringify!($t)
                    ))),
                }
            }
        }
    )*};
}

impl_de_num!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32, f64);

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::new(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::new(format!("expected string, got {other:?}"))),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::new(format!("expected sequence, got {other:?}"))),
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(i32::from_value(&42i32.to_value()), Ok(42));
        assert_eq!(f64::from_value(&1.5f64.to_value()), Ok(1.5));
        assert_eq!(bool::from_value(&true.to_value()), Ok(true));
        assert_eq!(
            Vec::<u32>::from_value(&vec![1u32, 2, 3].to_value()),
            Ok(vec![1, 2, 3])
        );
        assert_eq!(Option::<i32>::from_value(&Value::Null), Ok(None));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64::NAN.to_value(), Value::Null);
        assert_eq!(f64::INFINITY.to_value(), Value::Null);
    }

    #[test]
    fn map_lookup() {
        let v = Value::Map(vec![("a".into(), Value::Num(1.0))]);
        assert_eq!(v.get("a"), Some(&Value::Num(1.0)));
        assert_eq!(v.get("b"), None);
    }
}
