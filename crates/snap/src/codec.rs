//! The [`Codec`] trait: one declaration per encoded type, both directions
//! derived from it.
//!
//! A type's byte layout is the order of its [`codec_struct!`](crate::codec_struct) /
//! [`codec_enum!`](crate::codec_enum) field table, written once next to the type. Adding a
//! field to a type without adding it to its table is a compile error (the
//! encoder destructures exhaustively), and adding it to the table changes
//! the bytes — which is what bumps the frame version.
//!
//! Wire widths of the built-in impls (all little-endian):
//!
//! | type | bytes |
//! |---|---|
//! | `u8`, `bool` | 1 (`bool` must be 0 or 1) |
//! | `u16`, `u32`, `EventId`, `FuncId` | 4 (`u16` travels widened; narrowing is checked on decode) |
//! | `i32`, `i64`, `u64`, `usize` | 8 (`i32`/`usize` travel widened; narrowing is checked on decode) |
//! | `Vec<T>`, `BTreeMap<K, V>`, `HashMap<K, V>` | `u64` count, then the elements / `(key, value)` pairs in order (a `HashMap` in key order) |
//! | `Vec<u8>`, `Arc<[u8]>`, `[u8; N]`, `String`, `Module`, `Arc<Module>` | `u64` length, then the bytes (UTF-8 / IR text) |
//! | `Option<T>` | `bool`, then `T` when true |
//! | tuples, `Box<T>` | the parts in order, no header |
//! | `Value` | [`Tag`] byte, then the body |
//!
//! Counts go through [`SnapReader::take_len`] (reject before allocating);
//! maps additionally require strictly increasing keys, so every state has
//! exactly one encoding and decode → encode reproduces the input bytes.

use crate::{SnapReader, SnapWriter, SnapshotError};
use pdo_ir::{EventId, FuncId, Module, Value};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

/// A type with one declared byte layout. Every value encodes to at least
/// one byte (the length-prefix policy relies on it).
pub trait Codec: Sized {
    /// Appends this value's encoding.
    fn put(&self, w: &mut SnapWriter);

    /// Reads one value back.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when the payload ends early and
    /// [`SnapshotError::Malformed`] when a field decodes to an invalid
    /// value — never a panic.
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError>;

    /// Appends the elements of a sequence (no count). `u8` overrides this
    /// with one bulk copy; everything else keeps the loop.
    #[doc(hidden)]
    fn put_all(items: &[Self], w: &mut SnapWriter) {
        for item in items {
            item.put(w);
        }
    }

    /// Reads `n` elements of a sequence whose count was already taken.
    #[doc(hidden)]
    fn take_n(r: &mut SnapReader<'_>, n: usize) -> Result<Vec<Self>, SnapshotError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::take(r)?);
        }
        Ok(out)
    }
}

/// A field that travels as a different wire type: `field as W` in a
/// [`codec_struct!`](crate::codec_struct) / [`codec_enum!`](crate::codec_enum) table encodes `to_wire()` and
/// decodes through `from_wire`, where the conversion back may refuse.
pub trait Via<W: Codec>: Sized {
    /// The wire form of this value.
    fn to_wire(&self) -> W;

    /// Rebuilds the value from its wire form.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when the wire form is not a valid
    /// value of this type.
    fn from_wire(wire: W) -> Result<Self, SnapshotError>;
}

macro_rules! codec_fixed {
    ($($ty:ident via $put:ident / $take:ident),*) => {$(
        impl Codec for $ty {
            fn put(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
            fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                r.$take()
            }
        }
    )*};
}
codec_fixed!(u32 via u32 / take_u32, u64 via u64 / take_u64, i64 via i64 / take_i64, bool via bool / take_bool);

macro_rules! codec_widened {
    ($($ty:ident as $wide:ident),*) => {$(
        impl Codec for $ty {
            fn put(&self, w: &mut SnapWriter) {
                (*self as $wide).put(w);
            }
            fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                let wide = $wide::take(r)?;
                $ty::try_from(wide).map_err(|_| {
                    SnapshotError::Malformed(format!(
                        concat!("{} overflows ", stringify!($ty)),
                        wide
                    ))
                })
            }
        }
    )*};
}
codec_widened!(u16 as u32, i32 as i64, usize as u64);

impl Codec for u8 {
    fn put(&self, w: &mut SnapWriter) {
        w.u8(*self);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.take_u8()
    }
    fn put_all(items: &[u8], w: &mut SnapWriter) {
        w.buf.extend_from_slice(items);
    }
    fn take_n(r: &mut SnapReader<'_>, n: usize) -> Result<Vec<u8>, SnapshotError> {
        Ok(r.take(n)?.to_vec())
    }
}

impl<const N: usize> Codec for [u8; N] {
    fn put(&self, w: &mut SnapWriter) {
        w.bytes(self);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_len()?;
        r.take(len)?.try_into().map_err(|_| {
            SnapshotError::Malformed(format!("byte array of {len} bytes, expected {N}"))
        })
    }
}

/// The bytes of `Vec<u8>`'s encoding, decoded into one shared block —
/// the representation of [`Value::Bytes`] and of the payloads transports
/// keep (wire logs, retransmit buffers, receive queues).
impl Codec for Arc<[u8]> {
    fn put(&self, w: &mut SnapWriter) {
        w.bytes(self);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Arc::from(r.take_prefixed()?))
    }
}

impl Codec for String {
    fn put(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.take_str()
    }
}

impl Codec for Module {
    fn put(&self, w: &mut SnapWriter) {
        w.module(self);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.take_module()
    }
}

/// The bytes of [`Module`]'s encoding; what differs is the work. A frame
/// holding the same allocation many times (sessions of one program) prints
/// it once, and decoding hands every occurrence of one text the same
/// allocation.
impl Codec for Arc<Module> {
    fn put(&self, w: &mut SnapWriter) {
        w.shared_module(self);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.take_shared_module()
    }
}

impl Codec for EventId {
    fn put(&self, w: &mut SnapWriter) {
        w.u32(self.0);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(EventId(r.take_u32()?))
    }
}

impl Codec for FuncId {
    fn put(&self, w: &mut SnapWriter) {
        w.u32(self.0);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(FuncId(r.take_u32()?))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        T::put_all(self, w);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.take_len()?;
        T::take_n(r, n)
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn put(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut map = BTreeMap::new();
        for _ in 0..r.take_len()? {
            let key = K::take(r)?;
            check_increasing(map.last_key_value().map(|(last, _)| last), &key)?;
            map.insert(key, V::take(r)?);
        }
        Ok(map)
    }
}

/// Canonical order: an image with a repeated or out-of-order map key would
/// decode (last wins) to a state that re-encodes differently, so it is not
/// an image this format produces.
fn check_increasing<K: Ord>(last: Option<&K>, key: &K) -> Result<(), SnapshotError> {
    if last.is_some_and(|last| last >= key) {
        return Err(SnapshotError::Malformed(
            "map keys are not strictly increasing".into(),
        ));
    }
    Ok(())
}

/// The bytes of the equal [`BTreeMap`]: entries are written in key order
/// and decoded with the same strictly-increasing check.
impl<K: Codec + Ord + Hash, V: Codec> Codec for HashMap<K, V> {
    fn put(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.len_prefix(entries.len());
        for (k, v) in entries {
            k.put(w);
            v.put(w);
        }
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.take_len()?;
        let mut map = HashMap::with_capacity(n);
        // The entry last decoded is held back until the next key has been
        // checked against it, so the map is filled in place and no key is
        // cloned.
        let mut held: Option<(K, V)> = None;
        for _ in 0..n {
            let key = K::take(r)?;
            check_increasing(held.as_ref().map(|(last, _)| last), &key)?;
            let value = V::take(r)?;
            if let Some((k, v)) = held.replace((key, value)) {
                map.insert(k, v);
            }
        }
        map.extend(held);
        Ok(map)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(if r.take_bool()? {
            Some(T::take(r)?)
        } else {
            None
        })
    }
}

impl<T: Codec> Codec for Box<T> {
    fn put(&self, w: &mut SnapWriter) {
        (**self).put(w);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Box::new(T::take(r)?))
    }
}

macro_rules! codec_tuple {
    ($($name:ident),+) => {
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            fn put(&self, w: &mut SnapWriter) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.put(w);)+
            }
            fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                Ok(($($name::take(r)?,)+))
            }
        }
    };
}
codec_tuple!(A, B);
codec_tuple!(A, B, C);

/// The type tag of a [`Value`]. This is the one value-tag byte table:
/// durable images, the ingress wire protocol and the generic dispatch
/// path's marshaling (`pdo_events::marshal`, which re-exports this type)
/// all tag values with these bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// No payload.
    Unit,
    /// `i64` payload.
    Int,
    /// Boolean payload.
    Bool,
    /// Byte-buffer payload.
    Bytes,
    /// String payload.
    Str,
}

crate::codec_enum!(Tag {
    0 => Unit,
    1 => Int,
    2 => Bool,
    3 => Bytes,
    4 => Str,
});

impl Tag {
    /// The tag describing `v`.
    pub fn of(v: &Value) -> Tag {
        match v {
            Value::Unit => Tag::Unit,
            Value::Int(_) => Tag::Int,
            Value::Bool(_) => Tag::Bool,
            Value::Bytes(_) => Tag::Bytes,
            Value::Str(_) => Tag::Str,
        }
    }

    /// Appends `v`'s body without its tag (layouts that carry the tags
    /// separately, like the marshal layout, pair this with
    /// [`Tag::take_body`]).
    pub fn put_body(v: &Value, w: &mut SnapWriter) {
        match v {
            Value::Unit => {}
            Value::Int(i) => w.i64(*i),
            Value::Bool(b) => w.bool(*b),
            Value::Bytes(b) => w.bytes(b),
            Value::Str(s) => w.str(s),
        }
    }

    /// Reads the body of a value of this tag.
    ///
    /// # Errors
    ///
    /// As [`Codec::take`].
    pub fn take_body(self, r: &mut SnapReader<'_>) -> Result<Value, SnapshotError> {
        Ok(match self {
            Tag::Unit => Value::Unit,
            Tag::Int => Value::Int(r.take_i64()?),
            Tag::Bool => Value::Bool(r.take_bool()?),
            Tag::Bytes => Value::Bytes(Codec::take(r)?),
            Tag::Str => Value::Str(r.take_str()?.into()),
        })
    }
}

impl Codec for Value {
    fn put(&self, w: &mut SnapWriter) {
        Tag::of(self).put(w);
        Tag::put_body(self, w);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Tag::take(r)?.take_body(r)
    }
}

/// Declares a struct's byte layout once — the listed fields, in order —
/// and derives [`Codec`] from it:
///
/// ```ignore
/// codec_struct!(TimerEntry { deadline_ns, seq, event, args } skip { trace });
/// codec_struct!(SequencedReceiver<T> { next, buffer, delivered, duplicates });
/// ```
///
/// Every field of the struct must appear, either in the table or in the
/// `skip` list (in-memory riders that are not encoded and decode to their
/// `Default`); a field missing from both is a compile error. `field as W`
/// encodes the field through [`Via<W>`].
#[macro_export]
macro_rules! codec_struct {
    ($name:ident $(<$($gen:ident),+>)? {
        $($field:ident $(as $wire:ty)?),* $(,)?
    } $(skip { $($skip:ident),* $(,)? })?) => {
        impl $(<$($gen: $crate::Codec),+>)? $crate::Codec for $name $(<$($gen),+>)? {
            fn put(&self, w: &mut $crate::SnapWriter) {
                let $name { $($field,)* $($($skip: _,)*)? } = self;
                $($crate::codec_struct!(@put w, $field $(as $wire)?);)*
            }
            fn take(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapshotError> {
                Ok($name {
                    $($field: $crate::codec_struct!(@take r $(as $wire)?),)*
                    $($($skip: Default::default(),)*)?
                })
            }
        }
    };
    (@put $w:ident, $field:ident) => {
        $crate::Codec::put($field, $w)
    };
    (@put $w:ident, $field:ident as $wire:ty) => {
        $crate::Codec::put(&$crate::Via::<$wire>::to_wire($field), $w)
    };
    (@take $r:ident) => {
        $crate::Codec::take($r)?
    };
    (@take $r:ident as $wire:ty) => {
        $crate::Via::<$wire>::from_wire($crate::Codec::take($r)?)?
    };
}

/// Declares an enum's byte layout once — tag byte ↔ variant, then the
/// variant's fields in order — and derives [`Codec`] from it:
///
/// ```ignore
/// codec_enum!(FaultKind {
///     0 => TrapDispatch,
///     1 => CorruptArg { index },
///     4 => DelayTimed { extra_ns },
/// });
/// codec_enum!(TraceSelector { 0 => LastN(n), 1 => Id(id) });
/// ```
///
/// Every variant must appear (the encoder's `match` is exhaustive) with
/// every field; an unknown tag byte decodes to
/// [`SnapshotError::Malformed`](crate::SnapshotError::Malformed). Struct
/// variants take `field as W` like [`codec_struct!`](crate::codec_struct).
#[macro_export]
macro_rules! codec_enum {
    ($name:ident {
        $($tag:literal => $variant:ident
            $({ $($field:ident $(as $wire:ty)?),* $(,)? })?
            $(( $($elem:ident),* ))?
        ),* $(,)?
    }) => {
        impl $crate::Codec for $name {
            fn put(&self, w: &mut $crate::SnapWriter) {
                match self {
                    $($name::$variant $({ $($field),* })? $(( $($elem),* ))? => {
                        w.u8($tag);
                        $($($crate::codec_struct!(@put w, $field $(as $wire)?);)*)?
                        $($($crate::Codec::put($elem, w);)*)?
                    })*
                }
            }
            fn take(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapshotError> {
                Ok(match r.take_u8()? {
                    $($tag => $name::$variant
                        $({ $($field: $crate::codec_struct!(@take r $(as $wire)?)),* })?
                        $(( $($crate::codec_enum!(@elem r $elem)),* ))?,)*
                    tag => {
                        return Err($crate::SnapshotError::Malformed(format!(
                            concat!("unknown ", stringify!($name), " tag {:#04x}"),
                            tag
                        )))
                    }
                })
            }
        }
    };
    (@elem $r:ident $elem:ident) => {
        $crate::Codec::take($r)?
    };
}
