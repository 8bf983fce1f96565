//! Argument marshaling, as performed by the generic dispatch path.
//!
//! In Cactus and Xt, a generic `raise` cannot know the arity or types of the
//! handlers it will invoke, so arguments travel through a packed, tagged,
//! heap-allocated representation that each handler unpacks (paper §1:
//! "the number and type of the arguments passed to the handler may also not
//! be known, requiring argument marshaling"). This module reproduces that
//! cost: [`marshal`] packs a value slice into a fresh [`Marshaled`] box with
//! a type-tag vector, and [`unmarshal`] unpacks it. The optimizer's direct
//! dispatch path skips both.

use pdo_ir::Value;

/// The type tag recorded for each marshaled argument: the shared
/// value-tag vocabulary, declared once in `pdo-snap` so a payload
/// marshaled for generic dispatch travels (on the ingress wire, in a
/// durable image) under the same tag bytes it was packed with.
pub use pdo_snap::Tag;

/// Arguments packed for generic handler invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Marshaled {
    /// Cloned argument values, boxed as a unit.
    pub values: Box<[Value]>,
    /// One tag per value (the varargs "format" walk).
    pub tags: Box<[Tag]>,
}

impl Marshaled {
    /// Number of arguments.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no arguments were packed.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Packs `args` for a generic dispatch: clones every value into a fresh
/// boxed slice and records a type tag for each.
pub fn marshal(args: &[Value]) -> Marshaled {
    let mut values = Vec::with_capacity(args.len());
    let mut tags = Vec::with_capacity(args.len());
    for a in args {
        tags.push(Tag::of(a));
        values.push(a.clone());
    }
    Marshaled {
        values: values.into_boxed_slice(),
        tags: tags.into_boxed_slice(),
    }
}

/// Unpacks marshaled arguments for a handler, validating each tag (the
/// unmarshal-side format walk).
///
/// # Errors
///
/// Returns a description of the first tag/value mismatch. With values
/// produced by [`marshal`] this cannot happen; the check exists because the
/// cost of performing it is part of what the paper measures.
pub fn unmarshal(m: &Marshaled) -> Result<Vec<Value>, String> {
    let mut out = Vec::with_capacity(m.values.len());
    for (v, t) in m.values.iter().zip(m.tags.iter()) {
        if Tag::of(v) != *t {
            return Err(format!(
                "marshal tag mismatch: value {} tagged {:?}",
                v.type_name(),
                t
            ));
        }
        out.push(v.clone());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_values() {
        let args = vec![
            Value::Int(1),
            Value::Bool(true),
            Value::bytes(vec![1, 2, 3]),
            Value::str("x"),
            Value::Unit,
        ];
        let m = marshal(&args);
        assert_eq!(m.len(), 5);
        assert!(!m.is_empty());
        let back = unmarshal(&m).unwrap();
        assert_eq!(back, args);
    }

    #[test]
    fn tags_match_types() {
        let m = marshal(&[Value::Int(5), Value::str("a")]);
        assert_eq!(m.tags.as_ref(), &[Tag::Int, Tag::Str]);
    }

    #[test]
    fn empty_marshal() {
        let m = marshal(&[]);
        assert!(m.is_empty());
        assert!(unmarshal(&m).unwrap().is_empty());
    }

    #[test]
    fn corrupted_tag_detected() {
        let mut m = marshal(&[Value::Int(5)]);
        m.tags = vec![Tag::Bytes].into_boxed_slice();
        assert!(unmarshal(&m).is_err());
    }
}
