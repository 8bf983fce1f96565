//! Runtime values manipulated by handler code.

use std::fmt;
use std::sync::Arc;

/// A dynamically-typed runtime value.
///
/// Values are cheap to clone: a byte buffer is one reference-counted block
/// (`Arc<[u8]>`: counts, then the bytes — no `Vec` behind the `Arc`), a
/// string likewise, so a clone is a refcount bump and every holder of a
/// payload — registers, globals, queued argument lists, a transport's wire
/// log — shares the same block. Byte buffers use copy-on-write semantics
/// (see [`Value::bytes_mut`]) so a handler mutating a packet does not
/// disturb other holders of the buffer.
#[derive(Debug, Default)]
pub enum Value {
    /// The unit value, produced by instructions without a meaningful result.
    #[default]
    Unit,
    /// A 64-bit signed integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A shared byte buffer (packet payloads, keys, frames).
    Bytes(Arc<[u8]>),
    /// A shared immutable string (names, diagnostic payloads).
    Str(Arc<str>),
}

impl Clone for Value {
    fn clone(&self) -> Self {
        match self {
            Value::Unit => Value::Unit,
            Value::Int(i) => Value::Int(*i),
            Value::Bool(b) => Value::Bool(*b),
            Value::Bytes(b) => Value::Bytes(Arc::clone(b)),
            Value::Str(s) => Value::Str(Arc::clone(s)),
        }
    }

    /// An integer or boolean lands in a slot that already holds one by
    /// overwriting the payload alone; anything else is a clone assigned
    /// over the slot (which drops what the slot held). This is how the
    /// interpreter writes registers and globals (DESIGN.md §17, "The
    /// dispatch loop").
    #[inline(always)]
    fn clone_from(&mut self, source: &Self) {
        match source {
            Value::Int(i) => self.set_int(*i),
            Value::Bool(b) => self.set_bool(*b),
            other => *self = other.clone(),
        }
    }
}

impl Value {
    /// Makes this value `Int(v)`: the payload alone when it is an integer
    /// already, a whole new value otherwise.
    #[inline(always)]
    pub(crate) fn set_int(&mut self, v: i64) {
        match self {
            Value::Int(slot) => *slot = v,
            other => *other = Value::Int(v),
        }
    }

    /// Makes this value `Bool(v)`, as [`Value::set_int`] does an integer.
    #[inline(always)]
    pub(crate) fn set_bool(&mut self, v: bool) {
        match self {
            Value::Bool(slot) => *slot = v,
            other => *other = Value::Bool(v),
        }
    }

    /// Builds a byte-buffer value from existing bytes.
    ///
    /// What it costs depends on the input. `&[u8]` (and an array): one
    /// block, one copy. `Vec<u8>`: the vector's block cannot become the
    /// `Arc`'s, so this allocates a *second* block of the same size, copies,
    /// and frees the first — code that produces bytes builds them in place
    /// with [`Value::bytes_with`] instead. An `Arc<[u8]>` is taken as is.
    pub fn bytes(data: impl Into<Arc<[u8]>>) -> Self {
        Value::Bytes(data.into())
    }

    /// Builds a byte buffer of `len` bytes in place: one zero-filled block,
    /// handed to `fill` before anyone else can see it.
    pub fn bytes_with(len: usize, fill: impl FnOnce(&mut [u8])) -> Self {
        let mut block: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        fill(Arc::get_mut(&mut block).expect("a fresh block has one owner"));
        Value::Bytes(block)
    }

    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Returns the integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns a view of the byte payload, if this is a [`Value::Bytes`].
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Copy-on-write mutable access to a byte buffer.
    ///
    /// Returns `None` for non-byte values. If the block is shared, it is
    /// copied first so the mutation is local to this value.
    pub fn bytes_mut(&mut self) -> Option<&mut [u8]> {
        match self {
            Value::Bytes(b) => Some(Arc::make_mut(b)),
            _ => None,
        }
    }

    /// A short name for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Int(_) => "int",
            Value::Bool(_) => "bool",
            Value::Bytes(_) => "bytes",
            Value::Str(_) => "str",
        }
    }

    /// True if the value is "truthy": used by conditional branches.
    /// Only booleans are accepted as branch conditions; this helper exists
    /// for diagnostics and tests.
    pub fn is_truthy(&self) -> bool {
        matches!(self, Value::Bool(true))
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Bytes(a), Value::Bytes(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Unit => {}
            Value::Int(i) => i.hash(state),
            Value::Bool(b) => b.hash(state),
            Value::Bytes(b) => b.hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::bytes(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "unit"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Bytes(b) => {
                write!(f, "bytes[")?;
                for (i, byte) in b.iter().take(8).enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{byte:02x}")?;
                }
                if b.len() > 8 {
                    write!(f, " ..{}", b.len())?;
                }
                write!(f, "]")
            }
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::bytes(vec![1, 2]).as_bytes(), Some(&[1u8, 2][..]));
        assert_eq!(Value::str("hi").as_str(), Some("hi"));
        assert_eq!(Value::Unit.as_int(), None);
    }

    #[test]
    fn bytes_copy_on_write() {
        let original = Value::bytes(vec![1, 2, 3]);
        let mut copy = original.clone();
        copy.bytes_mut().unwrap()[0] = 9;
        assert_eq!(original.as_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(copy.as_bytes().unwrap(), &[9, 2, 3]);
    }

    #[test]
    fn bytes_with_builds_one_block() {
        let mut v = Value::bytes_with(4, |b| b[1..3].copy_from_slice(&[7, 8]));
        assert_eq!(v.as_bytes().unwrap(), &[0, 7, 8, 0]);
        // Sole owner: a write lands in the block the value was built in.
        let built = v.as_bytes().unwrap().as_ptr();
        v.bytes_mut().unwrap()[0] = 1;
        assert_eq!(v.as_bytes().unwrap().as_ptr(), built);
        assert_eq!(v.as_bytes().unwrap(), &[1, 7, 8, 0]);
        let empty = Value::bytes_with(0, |b| assert!(b.is_empty()));
        assert_eq!(empty.as_bytes(), Some(&[][..]));
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(Value::bytes(vec![1]), Value::bytes(vec![1]));
        assert_ne!(Value::Int(1), Value::Bool(true));
        assert_eq!(Value::Unit, Value::Unit);
    }

    #[test]
    fn display_truncates_long_bytes() {
        let v = Value::bytes(vec![0u8; 20]);
        let s = v.to_string();
        assert!(s.contains("..20"), "display was {s}");
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Int(1).is_truthy());
    }
}
