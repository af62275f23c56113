//! A small, dependency-free binary codec for protocol messages.
//!
//! The lockstep simulator moves messages as typed Rust values, so it never
//! needs a serialization format. Running the *same* protocols over real byte
//! streams (see the `overlay-net` crate) does: every message type that should
//! travel over a socket implements [`Wire`], a minimal length-delimited binary
//! encoding with explicit error reporting for truncated or malformed input.
//!
//! Design constraints, in order:
//!
//! * **No dependencies.** The workspace builds offline from vendored crates
//!   only, so the codec is hand-rolled little-endian encoding — no serde.
//! * **Total decoding.** `decode` never panics on adversarial input; every
//!   failure is a typed [`WireError`]. Callers feed untrusted bytes from
//!   sockets straight into it.
//! * **Deterministic bytes.** Encoding a value twice yields identical bytes,
//!   so frames can be compared and logged byte-for-byte across backends.
//!
//! Integers are little-endian and fixed-width, and a [`NodeId`] is its `u32`:
//! the one id width, in memory and on the wire. Collections are prefixed with a
//! `u32` element count. Structs and tuples write their fields in order. Enums
//! write a one-byte tag followed by the variant's fields; unknown tags decode
//! to [`WireError::BadTag`]. A message, summary or frame type states that
//! layout once, in a [`wire!`](crate::wire!) list next to its declaration.

use overlay_graph::NodeId;

/// Why a byte buffer failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag(u8),
    /// A frame header declared an unsupported codec version.
    BadVersion(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::BadTag(t) => write!(f, "unknown enum tag {t}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A type with a deterministic binary encoding suitable for sockets.
///
/// `decode` consumes from the front of `buf` (advancing the slice) and must
/// accept exactly the bytes `encode` produces; round-tripping is asserted by
/// proptests in `overlay-net`, and the bytes of every type that crosses a
/// socket by a table there. A type whose layout is its fields in order, or a
/// tag byte and then the variant's fields, derives both methods with
/// [`wire!`](crate::wire!).
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes a value from the front of `buf`, advancing it past the bytes
    /// consumed.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;
}

/// Splits `n` bytes off the front of `buf`, or reports truncation.
pub fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if buf.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(take(buf, 1)?[0])
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let bytes = take(buf, 4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let bytes = take(buf, 8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// The id's four bytes: every `u32` is a [`NodeId`], so any four bytes decode.
impl Wire for NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.raw().encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        u32::decode(buf).map(NodeId::new)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        let len = u32::try_from(self.len()).expect("collection fits in u32");
        len.encode(out);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(buf)? as usize;
        // Every element costs at least one byte, so a length prefix larger
        // than the remaining buffer is certainly truncated (or hostile);
        // rejecting it up front also bounds the allocation below.
        if len > buf.len() {
            return Err(WireError::Truncated);
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode(buf)?);
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

/// Implements [`Wire`] for a type from one list of its fields in wire order.
///
/// A struct is its fields in order:
/// `wire! { BfsSummary { root, parent, children } }`. An enum is a tag
/// byte, then the variant's fields in order, each tag written out:
/// `wire! { ExpanderMsg { 0 => Intro, 1 => Token { origin, steps_left }, 2 => Accept } }`.
/// A tag no variant has decodes to [`WireError::BadTag`]. A generic enum
/// names its one type parameter, which must be [`Wire`] too:
/// `wire! { TransportMsg<M> { 0 => Data { seq, floor, payload }, 1 => Ack { cum, sel } } }`.
///
/// The generated pattern and struct literal have no `..`, so a list that
/// leaves a field out does not compile. Invoke it with braces, next to the
/// type's declaration: rustfmt leaves a braced list on its one line.
#[macro_export]
macro_rules! wire {
    ($ty:ident { $($field:ident),* }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::wire::Wire::encode(&self.$field, out);)*
            }

            fn decode(buf: &mut &[u8]) -> ::std::result::Result<Self, $crate::wire::WireError> {
                ::std::result::Result::Ok(Self { $($field: $crate::wire::Wire::decode(buf)?),* })
            }
        }
    };
    ($ty:ident $(<$param:ident>)? {
        $($tag:literal => $variant:ident $({ $($field:ident),* })?),+
    }) => {
        impl$(<$param: $crate::wire::Wire>)? $crate::wire::Wire for $ty$(<$param>)? {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                match self {
                    $(Self::$variant $({ $($field),* })? => {
                        out.push($tag);
                        $($($crate::wire::Wire::encode($field, out);)*)?
                    })+
                }
            }

            fn decode(buf: &mut &[u8]) -> ::std::result::Result<Self, $crate::wire::WireError> {
                match <u8 as $crate::wire::Wire>::decode(buf)? {
                    $($tag => ::std::result::Result::Ok(
                        Self::$variant $({ $($field: $crate::wire::Wire::decode(buf)?),* })?
                    ),)+
                    t => ::std::result::Result::Err($crate::wire::WireError::BadTag(t)),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Channel;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let mut bytes = Vec::new();
        value.encode(&mut bytes);
        let mut slice = bytes.as_slice();
        assert_eq!(T::decode(&mut slice).unwrap(), value);
        assert!(slice.is_empty(), "decode consumed every byte");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(NodeId::new(42));
        round_trip(Channel::Local);
        round_trip(Channel::Global);
        round_trip(vec![NodeId::new(1), NodeId::new(2)]);
        round_trip(Vec::<u64>::new());
        round_trip((7u32, vec![true, false]));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut bytes = Vec::new();
        0xDEAD_BEEFu32.encode(&mut bytes);
        for cut in 0..bytes.len() {
            let mut slice = &bytes[..cut];
            assert_eq!(u32::decode(&mut slice), Err(WireError::Truncated));
        }
    }

    #[test]
    fn oversized_length_prefix_is_truncation_not_allocation() {
        let mut bytes = Vec::new();
        u32::MAX.encode(&mut bytes);
        let mut slice = bytes.as_slice();
        assert_eq!(Vec::<u64>::decode(&mut slice), Err(WireError::Truncated));
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut slice: &[u8] = &[9];
        assert_eq!(bool::decode(&mut slice), Err(WireError::BadTag(9)));
        let mut slice: &[u8] = &[7];
        assert_eq!(Channel::decode(&mut slice), Err(WireError::BadTag(7)));
    }
}
