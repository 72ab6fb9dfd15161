//! Minimal offline stand-in for `serde`.
//!
//! Instead of serde's visitor architecture, this shim uses a concrete
//! self-describing data model: [`Content`]. `Serialize` lowers a value into
//! `Content`; `Deserialize` lifts it back. Format crates (the `serde_json`
//! shim) convert between `Content` and their wire format. The derive macros
//! (`serde_derive` shim) generate `to_content`/`from_content` for structs
//! and unit enums, honoring `#[serde(default)]` and
//! `#[serde(default = "path")]`.
//!
//! The surface is intentionally small — exactly what this workspace's
//! types exercise — but the trait names and derive spellings match
//! upstream, so swapping the real serde back in is a manifest change.

pub use serde_derive::{Deserialize, Serialize};

/// Self-describing value tree: the shim's serde data model.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// Unit / missing.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer that does not fit `i64`'s positive range semantics.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Content>),
    /// Map with insertion-ordered string keys.
    Map(Vec<(String, Content)>),
}

impl Content {
    /// Look up a key in a map.
    pub fn get(&self, key: &str) -> Option<&Content> {
        match self {
            Content::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Human-readable kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "bool",
            Content::I64(_) | Content::U64(_) => "integer",
            Content::F64(_) => "float",
            Content::Str(_) => "string",
            Content::Seq(_) => "sequence",
            Content::Map(_) => "map",
        }
    }
}

/// Lower `self` into the [`Content`] data model.
pub trait Serialize {
    /// Convert to a content tree.
    fn to_content(&self) -> Content;
}

/// Lift a value back out of the [`Content`] data model.
pub trait Deserialize: Sized {
    /// Convert from a content tree.
    fn from_content(c: &Content) -> Result<Self, String>;
}

macro_rules! int_content {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, String> {
                match c {
                    Content::I64(v) => <$t>::try_from(*v)
                        .map_err(|_| format!("{v} out of range for {}", stringify!($t))),
                    Content::U64(v) => <$t>::try_from(*v)
                        .map_err(|_| format!("{v} out of range for {}", stringify!($t))),
                    Content::F64(v) if v.fract() == 0.0 => Ok(*v as $t),
                    other => Err(format!("expected integer, got {}", other.kind())),
                }
            }
        }
    )*};
}

int_content!(i32, i64, u32, usize);

impl Serialize for u64 {
    fn to_content(&self) -> Content {
        if *self <= i64::MAX as u64 {
            Content::I64(*self as i64)
        } else {
            Content::U64(*self)
        }
    }
}

impl Deserialize for u64 {
    fn from_content(c: &Content) -> Result<Self, String> {
        match c {
            Content::I64(v) => u64::try_from(*v).map_err(|_| format!("{v} is negative")),
            Content::U64(v) => Ok(*v),
            Content::F64(v) if v.fract() == 0.0 && *v >= 0.0 => Ok(*v as u64),
            other => Err(format!("expected integer, got {}", other.kind())),
        }
    }
}

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_content(c: &Content) -> Result<Self, String> {
        match c {
            Content::F64(v) => Ok(*v),
            Content::I64(v) => Ok(*v as f64),
            Content::U64(v) => Ok(*v as f64),
            other => Err(format!("expected number, got {}", other.kind())),
        }
    }
}

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(c: &Content) -> Result<Self, String> {
        match c {
            Content::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {}", other.kind())),
        }
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(c: &Content) -> Result<Self, String> {
        match c {
            Content::Str(s) => Ok(s.clone()),
            other => Err(format!("expected string, got {}", other.kind())),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(c: &Content) -> Result<Self, String> {
        match c {
            Content::Seq(items) => items.iter().map(T::from_content).collect(),
            other => Err(format!("expected sequence, got {}", other.kind())),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(c: &Content) -> Result<Self, String> {
        match c {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_content(&self) -> Content {
        Content::Seq(vec![self.0.to_content(), self.1.to_content()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_content(c: &Content) -> Result<Self, String> {
        match c {
            Content::Seq(items) => match items.as_slice() {
                [a, b] => Ok((A::from_content(a)?, B::from_content(b)?)),
                _ => Err(format!("expected pair, got {} elements", items.len())),
            },
            other => Err(format!("expected sequence, got {}", other.kind())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(i64::from_content(&42i64.to_content()).unwrap(), 42);
        assert_eq!(u32::from_content(&7u32.to_content()).unwrap(), 7);
        assert_eq!(f64::from_content(&1.5f64.to_content()).unwrap(), 1.5);
        assert!(bool::from_content(&true.to_content()).unwrap());
        assert_eq!(
            String::from_content(&"hi".to_string().to_content()).unwrap(),
            "hi"
        );
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_content(&v.to_content()).unwrap(), v);
        let t = (3u32, "x".to_string());
        assert_eq!(
            <(u32, String)>::from_content(&t.to_content()).unwrap(),
            t
        );
    }

    #[test]
    fn option_null_roundtrip() {
        let none: Option<u32> = None;
        assert_eq!(none.to_content(), Content::Null);
        assert_eq!(Option::<u32>::from_content(&Content::Null).unwrap(), None);
        assert_eq!(
            Option::<u32>::from_content(&Content::I64(5)).unwrap(),
            Some(5)
        );
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(u32::from_content(&Content::Str("x".into())).is_err());
        assert!(u64::from_content(&Content::I64(-1)).is_err());
        assert!(i32::from_content(&Content::I64(1 << 40)).is_err());
    }
}
